import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from rotabaxter.catalog import affine_line
from rotabaxter.cli import main
from rotabaxter.graded import adjoint_graded, from_lie
from rotabaxter.homotopy import residual_on_word
from rotabaxter.reports import named_residual
from rotabaxter.serialize import hop_from_obj

AFFINE = {
    "lie_algebra": {
        "basis": ["e1", "e2"],
        "brackets": [{"left": "e1", "right": "e2", "value": {"e2": "1"}}],
    }
}
RBO = {"operator": {"rows": [["0", "1"], ["0", "0"]], "domain": "g", "codomain": "g"}}
IDENT = {"operator": {"rows": [["1", "0"], ["0", "1"]], "domain": "g", "codomain": "g"}}
ZERO_OP = {"operator": {"rows": [["0", "0"], ["0", "0"]]}}
BROKEN_LIE = {
    "lie_algebra": {
        "basis": ["e1", "e2"],
        "brackets": [
            {"left": "e1", "right": "e2", "value": {"e1": "1"}},
            {"left": "e2", "right": "e1", "value": {"e1": "1"}},
        ],
    }
}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_lie_pass_and_fail(runner, tmp_path):
    good = write(tmp_path, "L.json", AFFINE)
    bad = write(tmp_path, "bad.json", BROKEN_LIE)
    res = runner.invoke(main, ["check-lie", "--algebra", good])
    assert res.exit_code == 0 and "PASS" in res.output
    res = runner.invoke(main, ["check-lie", "--algebra", bad])
    assert res.exit_code == 1 and "FAIL" in res.output and "witness" in res.output


def test_check_rep_adjoint(runner, tmp_path):
    good = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["check-rep", "--algebra", good, "--rep", "adjoint"])
    assert res.exit_code == 0


def test_check_rbo_and_oop(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", RBO)
    ident = write(tmp_path, "I.json", IDENT)
    assert runner.invoke(main, ["check-rbo", "--algebra", alg, "--op", op]).exit_code == 0
    res = runner.invoke(main, ["check-oop", "--algebra", alg, "--rep", "adjoint",
                               "--op", ident])
    assert res.exit_code == 1
    assert '"residual": {"e2": "-1"}' in res.output


def test_json_report_schema(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", RBO)
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["--json-report", str(out),
                               "check-oop", "--algebra", alg, "--rep", "adjoint",
                               "--op", op])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"check", "pass", "order", "witness"}
    assert report["check"] == "check-oop" and report["pass"] is True
    assert report["witness"] is None


def test_json_report_deterministic(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        res = runner.invoke(main, ["--seed", "7", "--json-report", str(out),
                                   "check-phi-hom", "--algebra", alg,
                                   "--rep", "adjoint", "--draws", "5"])
        assert res.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_deform_command(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    base = write(tmp_path, "T.json", RBO)
    delta0 = write(tmp_path, "Tp.json", ZERO_OP)
    res = runner.invoke(main, ["deform", "--algebra", alg, "--rep", "adjoint",
                               "--base", base, "--delta", delta0])
    assert res.exit_code == 0
    # doubling a Rota-Baxter operator still deforms
    res = runner.invoke(main, ["deform", "--algebra", alg, "--rep", "adjoint",
                               "--base", base, "--delta", base])
    assert res.exit_code == 0
    # an identity-shaped delta destroys the identity here
    ident = write(tmp_path, "I.json", IDENT)
    res = runner.invoke(main, ["deform", "--algebra", alg, "--rep", "adjoint",
                               "--base", base, "--delta", ident])
    assert res.exit_code == 1
    # a non-operator base is an input error, not a failed check
    res = runner.invoke(main, ["deform", "--algebra", alg, "--rep", "adjoint",
                               "--base", ident, "--delta", delta0])
    assert res.exit_code != 0


def test_induce_then_check_prelie_pipeline(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", RBO)
    prod = str(tmp_path / "prod.json")
    res = runner.invoke(main, ["induce-prelie", "--algebra", alg, "--rep", "adjoint",
                               "--op", op, "--out", prod])
    assert res.exit_code == 0
    payload = json.loads(Path(prod).read_text())
    assert payload["prelie"]["products"] == [
        {"left": "e2", "right": "e2", "value": {"e2": "1"}}
    ]
    res = runner.invoke(main, ["check-prelie", "--prelie", prod])
    assert res.exit_code == 0


def test_bracket_and_mc_check(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", RBO)
    ident = write(tmp_path, "I.json", IDENT)
    res = runner.invoke(main, ["bracket", "--algebra", alg, "--rep", "adjoint",
                               "--left", op, "--right", op])
    assert res.exit_code == 0
    emitted = json.loads(res.output)
    assert emitted["altmap"]["arity"] == 2 and emitted["altmap"]["entries"] == []
    assert runner.invoke(main, ["mc-check", "--algebra", alg, "--rep", "adjoint",
                                "--op", op]).exit_code == 0
    assert runner.invoke(main, ["mc-check", "--algebra", alg, "--rep", "adjoint",
                                "--op", ident]).exit_code == 1


def test_phi_and_mn_bracket_pipeline(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", RBO)
    hook = str(tmp_path / "hook.json")
    res = runner.invoke(main, ["phi", "--algebra", alg, "--rep", "adjoint",
                               "--map", op, "--out", hook])
    assert res.exit_code == 0
    res = runner.invoke(main, ["mn-bracket", "--left", hook, "--right", hook])
    assert res.exit_code == 0
    emitted = json.loads(res.output)
    assert emitted["hooked_map"]["entries"] == []  # operators square to zero


def test_search_rbo_output(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["search-rbo", "--algebra", alg, "--grid", "0,1"])
    assert res.exit_code == 0
    ops = json.loads(res.stdout)["operators"]
    assert len(ops) == 5
    assert "found 5 operators" in res.stderr


def test_graded_pipeline(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    res = runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    assert res.exit_code == 0
    assert runner.invoke(main, ["check-sgla", "--sgla", sgla_path]).exit_code == 0
    hop = write(tmp_path, "hop.json", {
        "homotopy_operator": {
            "truncation": 1,
            "components": [
                {"weight": 1, "entries": [{"args": ["e2"], "value": {"e1": "1"}}]}
            ],
        }
    })
    for cmd in (["check-hoop", "--sgla", sgla_path, "--grep", "adjoint", "--hop", hop],
                ["check-hrbo", "--sgla", sgla_path, "--hop", hop],
                ["mc-check-homotopy", "--sgla", sgla_path, "--grep", "adjoint",
                 "--hop", hop]):
        res = runner.invoke(main, cmd)
        assert res.exit_code == 0, (cmd, res.output)
        assert "order=4" in res.output
    pinf = str(tmp_path / "pinf.json")
    res = runner.invoke(main, ["induce-prelie-inf", "--sgla", sgla_path,
                               "--grep", "adjoint", "--hop", hop, "--out", pinf])
    assert res.exit_code == 0
    assert runner.invoke(main, ["check-prelie-inf", "--pinf", pinf]).exit_code == 0


def test_bounds_below_the_first_weight_are_usage_errors(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", RBO)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    hop = write(tmp_path, "hop.json", {
        "homotopy_operator": {
            "truncation": 1,
            "components": [
                {"weight": 1, "entries": [
                    {"args": ["e1"], "value": {"e1": "1"}},
                    {"args": ["e2"], "value": {"e2": "1"}},
                ]}
            ],
        }
    })
    pinf = str(tmp_path / "pinf.json")
    runner.invoke(main, ["induce-prelie-inf", "--sgla", sgla_path, "--grep", "adjoint",
                         "--hop", hop, "--force", "--out", pinf])
    hoop = ["check-hoop", "--sgla", sgla_path, "--grep", "adjoint", "--hop", hop]
    assert runner.invoke(main, ["--p-max", "0"] + hoop).exit_code == 0
    assert runner.invoke(main, ["--p-max", "4"] + hoop).exit_code == 1
    for args in (["--p-max", "-1"] + hoop,
                 ["--arity-max", "-1", "mc-check", "--algebra", alg, "--rep", "adjoint",
                  "--op", op],
                 ["check-prelie-inf", "--pinf", pinf, "--n-max", "0"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)


def test_oversized_scalar_exits_1(runner, tmp_path):
    big = write(tmp_path, "L.json", {
        "lie_algebra": {
            "basis": ["e1", "e2"],
            "brackets": [{"left": "e1", "right": "e2", "value": {"e2": "1e200000"}}],
        }
    })
    res = runner.invoke(main, ["check-lie", "--algebra", big])
    assert res.exit_code == 1 and "4300" in res.output


def test_oversized_antisymmetry_residual_exits_1(runner, tmp_path):
    # "1e4300" is within the parser's cap; the witness 2e4300 has 4301 digits
    big = write(tmp_path, "L.json", {
        "lie_algebra": {
            "basis": ["e1", "e2"],
            "brackets": [{"left": "e1", "right": "e2", "value": {"e1": "1e4300"}},
                         {"left": "e2", "right": "e1", "value": {"e1": "1e4300"}}],
        }
    })
    res = runner.invoke(main, ["--json-report", "-", "check-lie", "--algebra", big])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "exceeds 4300 digits" in res.output and "FAIL" not in res.output


def test_oversized_jacobi_residual_exits_1(runner, tmp_path):
    # in-cap structure constants whose Jacobi residual is their product
    big = write(tmp_path, "L.json", {
        "lie_algebra": {
            "basis": ["e1", "e2", "e3"],
            "brackets": [{"left": "e1", "right": "e2", "value": {"e3": "1e3000"}},
                         {"left": "e1", "right": "e3", "value": {"e1": "1e3000"}}],
        }
    })
    res = runner.invoke(main, ["check-lie", "--algebra", big])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "exceeds 4300 digits" in res.output


def test_prelie_infinity_order_is_capped(runner, tmp_path):
    # pre-Lie-infinity structures on the 2-dimensional affine module: order n
    # adds 2^n argument tuples, so --n-max 40 is refused before any work
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    outputs = {
        "fractional": (
            [{"args": ["e1"], "value": {"e1": "1/2"}}, {"args": ["e2"], "value": {"e2": "-1/3"}}],
            "check-prelie-inf: FAIL (order=4)\n  witness: {\"at\": [1, 2, 1], \"n\": 3, "
            "\"part\": \"coherence\", \"residual\": {\"e2\": \"-1/9\"}}\n"),
        "rbo": ([{"args": ["e2"], "value": {"e1": "1/2"}}], "check-prelie-inf: PASS (order=4)\n"),
    }
    for name, (entries, want) in outputs.items():
        hop = write(tmp_path, f"hop_{name}.json", {"homotopy_operator": {
            "truncation": 1, "components": [{"weight": 1, "entries": entries}]}})
        pinf = str(tmp_path / f"pinf_{name}.json")
        res = runner.invoke(main, ["induce-prelie-inf", "--sgla", sgla_path, "--grep", "adjoint",
                                   "--hop", hop, "--force", "--out", pinf])
        assert res.exit_code == 0
        res = runner.invoke(main, ["check-prelie-inf", "--pinf", pinf, "--n-max", "4"])
        assert res.output == want and res.exit_code == (0 if "PASS" in want else 1)
        for n_max in ("40", "1000000000"):
            start = time.perf_counter()
            res = runner.invoke(main, ["check-prelie-inf", "--pinf", pinf, "--n-max", n_max])
            assert time.perf_counter() - start < 1
            assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
            assert "arguments, above the cap of 200000" in res.output


SRC =str(Path(__file__).resolve().parents[1] / "src")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def test_module_entry_point_runs_the_cli(tmp_path):
    bad = write(tmp_path, "bad.json", BROKEN_LIE)
    res = _python("-m", "rotabaxter.cli", "check-lie", "--algebra", bad)
    assert res.returncode == 1 and "check-lie: FAIL" in res.stdout


def test_cli_import_leaves_out_the_process_pool():
    res = _python("-c", "import sys, rotabaxter.cli; print('multiprocessing' in sys.modules)")
    assert res.returncode == 0 and res.stdout.strip() == "False"


def test_failing_homotopy_operator_reports_witness(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    bad = write(tmp_path, "bad.json", {
        "homotopy_operator": {
            "truncation": 1,
            "components": [
                {"weight": 1, "entries": [
                    {"args": ["e1"], "value": {"e1": "1"}},
                    {"args": ["e2"], "value": {"e2": "1"}},
                ]}
            ],
        }
    })
    res = runner.invoke(main, ["check-hoop", "--sgla", sgla_path, "--grep", "adjoint",
                               "--hop", bad])
    assert res.exit_code == 1
    assert "witness" in res.output


def test_mc_check_homotopy_failure_reports_a_replayable_witness(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    bad = write(tmp_path, "bad.json", {"homotopy_operator": {"truncation": 1, "components": [
        {"weight": 1, "entries": [{"args": ["e1"], "value": {"e1": "1/2"}},
                                  {"args": ["e2"], "value": {"e2": "-1/3"}}]}]}})
    args = ["--sgla", sgla_path, "--grep", "adjoint", "--hop", bad]
    res = runner.invoke(main, ["--json-report", "-", "mc-check-homotopy"] + args)
    assert res.exit_code == 1
    report = json.loads(res.output[res.output.index("\n{"):])
    assert report["pass"] is False and report["order"] == 4
    witness = report["witness"]
    assert set(witness) == {"weight", "at", "residual"}
    assert res.output.startswith("mc-check-homotopy: FAIL (order=4)\n  witness: {")
    # the residual of the generalized identities at the stated word replays it
    galg = from_lie(affine_line())
    grep = adjoint_graded(galg)
    t = hop_from_obj(json.loads(Path(bad).read_text())["homotopy_operator"],
                     grep.space, galg.space)
    word = tuple(grep.space.index(name) for name in witness["at"])
    assert len(word) == witness["weight"]
    replay = residual_on_word(t, galg, grep, word)
    assert witness["residual"] == named_residual(replay, galg.space.basis) != {}
    # the same word and value as the residual check's own witness
    res = runner.invoke(main, ["--json-report", "-", "check-hoop"] + args)
    assert json.loads(res.output[res.output.index("\n{"):])["witness"] == witness


def test_check_sdgla_command(runner, tmp_path):
    sgla_file = write(tmp_path, "g.json", {
        "sgla": {
            "space": {"basis": [{"name": "u", "degree": -1},
                                {"name": "v", "degree": 0},
                                {"name": "w", "degree": 1}]},
            "brackets": [],
        }
    })
    good = write(tmp_path, "d.json", {
        "differential": {"rows": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]}
    })
    bad = write(tmp_path, "d2.json", {
        "differential": {"rows": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]}
    })
    assert runner.invoke(main, ["check-sdgla", "--sgla", sgla_file,
                                "--differential", good]).exit_code == 0
    assert runner.invoke(main, ["check-sdgla", "--sgla", sgla_file,
                                "--differential", bad]).exit_code == 1


def test_graded_bracket_command(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    fam = write(tmp_path, "T.json", {
        "sym_family": {
            "degree": 0,
            "components": [
                {"weight": 1, "entries": [{"args": ["e2"], "value": {"e1": "1"}}]}
            ],
        }
    })
    res = runner.invoke(main, ["graded-bracket", "--sgla", sgla_path,
                               "--grep", "adjoint", "--left", fam, "--right", fam])
    assert res.exit_code == 0
    emitted = json.loads(res.output)["sym_family"]
    assert emitted["degree"] == 1
    assert emitted["components"] == []  # a Maurer-Cartan element squares to zero


def test_check_psi_hom_draws(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    res = runner.invoke(main, ["--seed", "3", "check-psi-hom", "--sgla", sgla_path,
                               "--grep", "adjoint", "--draws", "6"])
    assert res.exit_code == 0


def test_unresolved_reference_errors(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["check-rbo", "--algebra", alg, "--op", "nosuch.json"])
    assert res.exit_code != 0
    res = runner.invoke(main, ["check-lie", "--algebra",
                               write(tmp_path, "bad.json", {"weird": []})])
    assert res.exit_code != 0


def test_split_graded_file_layout(runner, tmp_path):
    # the sgla entry may rely on a sibling graded_space entry
    path = write(tmp_path, "g.json", {
        "graded_space": {"basis": [{"name": "x1", "degree": 0},
                                   {"name": "x2", "degree": 0},
                                   {"name": "y", "degree": 1}]},
        "sgla": {"brackets": [{"left": "x1", "right": "x1", "value": {"y": "1"}}]},
    })
    assert runner.invoke(main, ["check-sgla", "--sgla", path]).exit_code == 0


def test_combined_ungraded_bundle(runner, tmp_path):
    # one file bundling the algebra, a representation and an operator
    path = write(tmp_path, "all.json", {
        "lie_algebra": AFFINE["lie_algebra"],
        "representation": {
            "basis": ["v1", "v2"],
            "action": {"e1": [["1", "0"], ["0", "0"]],
                       "e2": [["0", "1"], ["0", "0"]]},
        },
        "operator": {"rows": [["0", "0"], ["0", "0"]]},
    })
    res = runner.invoke(main, ["check-oop", "--algebra", path, "--rep", path,
                               "--op", path])
    assert res.exit_code == 0


def test_bundle_addressing(runner, tmp_path):
    bundle = write(tmp_path, "bundle.json", {
        **AFFINE,
        "P": {"operator": RBO["operator"]},
        "I": {"operator": IDENT["operator"]},
    })
    res = runner.invoke(main, ["check-rbo", "--algebra", bundle,
                               "--op", f"{bundle}:P"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["check-rbo", "--algebra", bundle,
                               "--op", f"{bundle}:I"])
    assert res.exit_code == 1


def test_from_lie_keeps_a_broken_algebra_broken(runner, tmp_path):
    # [e1, e2] = e2 and [e2, e1] = e2 fail antisymmetry; the embedding must too
    alg = write(tmp_path, "L.json", {"lie_algebra": {
        "basis": ["e1", "e2"],
        "brackets": [{"left": "e1", "right": "e2", "value": {"e2": "1"}},
                     {"left": "e2", "right": "e1", "value": {"e2": "1"}}]}})
    assert runner.invoke(main, ["check-lie", "--algebra", alg]).exit_code == 1
    sgla_path = str(tmp_path / "s.json")
    assert runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path]).exit_code == 0
    res = runner.invoke(main, ["check-sgla", "--sgla", sgla_path])
    assert res.exit_code == 1 and "FAIL" in res.output


@pytest.mark.parametrize("option", ["--op", "--left", "--base", "--map"])
def test_a_misspelled_map_reference_is_an_error(runner, tmp_path, option):
    bundle = write(tmp_path, "bundle.json", {**AFFINE, **RBO})
    common = ["--algebra", bundle, "--rep", "adjoint"]
    command = {"--op": ["mc-check", *common],
               "--left": ["bracket", *common, "--right", bundle],
               "--base": ["deform", *common, "--delta", bundle],
               "--map": ["phi", *common]}[option]
    # the bundle's own operator resolves; a key it lacks must not fall back to it
    assert runner.invoke(main, [*command, option, bundle]).exit_code == 0
    for ref, message in ((f"{bundle}:nokey", "no entity named 'nokey'"),
                         ("no_such_thing", "'no_such_thing' is neither a file")):
        res = runner.invoke(main, [*command, option, ref])
        assert res.exit_code == 1 and message in res.output, (ref, res.output)


AFFINE_SGLA = {"sgla": {"space": {"basis": [{"name": "e1", "degree": -1},
                                            {"name": "e2", "degree": -1}]},
                        "brackets": [{"left": "e1", "right": "e2", "value": {"e2": "1"}}]}}

# case: (the option slot the file goes to, its content; None for a directory)
MALFORMED = {
    "item without right": ("lie", {"lie_algebra": {
        "basis": ["e1", "e2"], "brackets": [{"left": "e1", "value": {"e2": "1"}}]}}),
    "payload that is a list": ("lie", {"lie_algebra": []}),
    "value that is a list": ("lie", {"lie_algebra": {
        "basis": ["e1", "e2"], "brackets": [{"left": "e1", "right": "e2", "value": ["e2"]}]}}),
    "repeated basis name": ("lie", {"lie_algebra": {"basis": ["e1", "e1"], "brackets": []}}),
    "degree that is text": ("sgla", {"sgla": {
        "space": {"basis": [{"name": "x", "degree": "a"}]}, "brackets": []}}),
    "altmap args that are text": ("map", {"altmap": {
        "arity": 1, "entries": [{"args": ["x"], "value": {"e1": "1"}}]}}),
    "entry without args": ("map", {"altmap": {"arity": 1, "entries": [{"value": {"e1": "1"}}]}}),
    "truncation that is text": ("hop", {"homotopy_operator": {
        "truncation": "z", "components": []}}),
    "component that is a number": ("hop", {"homotopy_operator": {"components": [5]}}),
    "action that is a list": ("rep", {"representation": {"basis": ["v"], "action": [["1"]]}}),
    "directory": ("lie", None),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_is_a_schema_error(runner, tmp_path, case):
    slot, obj = MALFORMED[case]
    bad = str(tmp_path) if obj is None else write(tmp_path, "bad.json", obj)
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = write(tmp_path, "g.json", AFFINE_SGLA)
    args = {"lie": ["check-lie", "--algebra", bad],
            "rep": ["check-rep", "--algebra", alg, "--rep", bad],
            "map": ["mc-check", "--algebra", alg, "--rep", "adjoint", "--op", bad],
            "sgla": ["check-sgla", "--sgla", bad],
            "hop": ["check-hoop", "--sgla", sgla_path, "--grep", "adjoint",
                    "--hop", bad]}[slot]
    res = runner.invoke(main, args)
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1
    assert res.output.startswith("Error: ") and "Traceback" not in res.output
