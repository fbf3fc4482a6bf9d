import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from rotabaxter import cli, deformation, errors, prelie
from rotabaxter.catalog import (
    affine_line,
    graded_instances,
    heisenberg,
    lie_pairs,
    mixed_sgla,
    sl2,
    three_level_sgla,
)
from rotabaxter.cli import main
from rotabaxter.combinatorics import parity_sign
from rotabaxter.deformation import AltMap, mc_residual
from rotabaxter.graded import GradedRepresentation, adjoint_graded, canonical_words, from_lie
from rotabaxter.homotopy import (
    DEFAULT_P_MAX,
    GradedSymFamily,
    GradedSymMap,
    homotopy_oop_residual,
    psi_homomorphism_defect,
    residual_on_word,
)
from rotabaxter.lie import (
    SEARCH_CAP,
    LieAlgebra,
    Representation,
    adjoint,
    oop_defect,
    operator,
)
from rotabaxter.linalg import basis_vector, matrix
from rotabaxter.prelie import phi_homomorphism_defect
from rotabaxter.reports import named_residual
from rotabaxter.serialize import (
    altmap_from_obj,
    altmap_to_obj,
    grep_to_obj,
    hooked_to_obj,
    hop_from_obj,
    hop_to_obj,
    lie_to_obj,
    rep_to_obj,
    sgla_to_obj,
    sym_family_from_obj,
    sym_family_to_obj,
)
from helpers import (
    hook_family_from_hooked,
    random_altmap,
    random_hooked,
    random_homotopy_operator,
)
from test_integer_kernels import raw_hook_compose

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
    """A file of obj as JSON, or of obj verbatim when it is text."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
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
        res = runner.invoke(main, ["--json-report", str(out),
                                   "check-phi-hom", "--algebra", alg, "--rep", "adjoint"])
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


def test_deform_failure_reports_a_replayable_witness(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    base = write(tmp_path, "T.json", RBO)
    delta = write(tmp_path, "Tp.json", {"operator": {"rows": [["1/2", "0"], ["0", "-1/3"]]}})
    res = runner.invoke(main, ["--json-report", "-", "deform", "--algebra", alg,
                               "--rep", "adjoint", "--base", base, "--delta", delta])
    assert res.exit_code == 1
    assert res.output.startswith("deform: FAIL\n  witness: {")
    witness = _report(res)["witness"]
    assert set(witness) == {"at", "residual"}
    # the Maurer-Cartan residual of T + T' replays it: its first word and value
    t = AltMap.from_operator(operator([[0, 1], [0, 0]], "g", "g"))
    tp = AltMap.from_operator(operator([["1/2", 0], [0, "-1/3"]], "g", "g"))
    lie = affine_line()
    res_map = mc_residual(t + tp, lie, adjoint(lie))
    word = min(res_map.entries)
    assert witness["at"] == [i + 1 for i in word]
    assert witness["residual"] == named_residual(res_map.entries[word], lie.basis) != {}
    # and so does mc-check on the sum, as its own witness
    total = write(tmp_path, "sum.json", {"operator": {"rows": [["1/2", "1"], ["0", "-1/3"]]}})
    res = runner.invoke(main, ["--json-report", "-", "mc-check", "--algebra", alg,
                               "--rep", "adjoint", "--op", total])
    assert res.exit_code == 1 and _report(res)["witness"] == witness


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


def test_a_bracket_above_the_work_cap_exits_1_at_once(runner, tmp_path):
    # two arity-3 maps on a 20-dimensional module walk more than 200,000
    # steps over the words of arity 6, so their bracket and the phi check on
    # it are refused before any word
    lie = heisenberg()
    alg = write(tmp_path, "L.json", {"lie_algebra": lie_to_obj(lie)})
    rep = write(tmp_path, "rho.json", {"representation": {
        "basis": [f"v{i + 1}" for i in range(20)], "action": {}}})
    rng = random.Random(5)
    sides = [write(tmp_path, f"{side}.json", {"altmap": altmap_to_obj(
        random_altmap(rng, 3, 20, lie.dim), lie.basis)}) for side in ("left", "right")]
    for cmd in ("bracket", "check-phi-hom"):
        start = time.perf_counter()
        res = runner.invoke(main, [cmd, "--algebra", alg, "--rep", rep,
                                   "--left", sides[0], "--right", sides[1]])
        assert time.perf_counter() - start < 1, cmd
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), cmd
        assert "canonical words, above the cap of 200000" in res.output


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


def test_mn_bracket_emits_every_nonzero_entry(runner, tmp_path):
    # a 1-ary and a 2-ary hooked map on three letters, with non-unit
    # denominators, held to the raw unshuffle sums of the compose
    basis = ["u", "v", "w"]
    pool = [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 12), Fraction(-7, 5), Fraction(2)]
    rng = random.Random(11)
    maps = {"a": random_hooked(rng, 1, 3, pool=pool), "b": random_hooked(rng, 2, 3, pool=pool)}
    paths = {k: write(tmp_path, f"{k}.json", {"hooked_map": hooked_to_obj(h, basis)})
             for k, h in maps.items()}
    space = maps["a"].space
    for left, right in (("a", "b"), ("b", "a"), ("a", "a")):
        res = runner.invoke(main, ["mn-bracket", "--left", paths[left], "--right", paths[right]])
        assert res.exit_code == 0, res.output
        emitted = json.loads(res.stdout)["hooked_map"]
        x, y = maps[left], maps[right]
        assert emitted["basis"] == basis and emitted["arity"] == x.arity + y.arity
        fx, fy = hook_family_from_hooked(x, space), hook_family_from_hooked(y, space)
        s = parity_sign(x.arity * y.arity)
        want = {}
        for word in itertools.combinations(range(3), x.arity + y.arity):
            for last in range(3):
                xy = raw_hook_compose(fx, fy, word, last)
                yx = raw_hook_compose(fy, fx, word, last)
                val = named_residual([p - s * q for p, q in zip(xy, yx)], basis)
                if val:
                    want[(tuple(i + 1 for i in word), last + 1)] = val
        got = {(tuple(e["args"]), e["last"]): e["value"] for e in emitted["entries"]}
        assert len(got) == len(emitted["entries"])
        assert got == want and want


def test_search_rbo_output(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["search-rbo", "--algebra", alg, "--grid", "0,1"])
    assert res.exit_code == 0
    ops = json.loads(res.stdout)["operators"]
    assert len(ops) == 5
    assert "found 5 operators" in res.stderr
    # a repeated grid value searches its candidates once
    for grid, count in (("0,0", 1), ("0,1,1", 5), ("0, 1/1, 2/2", 5)):
        res = runner.invoke(main, ["search-rbo", "--algebra", alg, "--grid", grid])
        assert res.exit_code == 0
        assert len(json.loads(res.stdout)["operators"]) == count
        assert f"found {count} operators" in res.stderr


def test_an_empty_search_grid_is_a_usage_error(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    for grid in (",", " , ", ""):
        res = runner.invoke(main, ["search-rbo", "--algebra", alg, "--grid", grid])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert "Invalid value for '--grid'" in res.output


def test_a_negative_search_cap_is_a_usage_error(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["search-rbo", "--algebra", alg, "--cap", "-1"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
    assert "Invalid value for '--cap'" in res.output and "candidates" not in res.output
    # a cap of 0 is allowed, and refuses every search as too large
    res = runner.invoke(main, ["search-rbo", "--algebra", alg, "--cap", "0"])
    assert res.exit_code == 1 and "81 candidates exceed the cap of 0" in res.output


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
    for args, option in ((["--p-max", "-1"] + hoop, "'--p-max'"),
                         (["check-prelie-inf", "--pinf", pinf, "--n-max", "0"], "'--n-max'")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and option in res.output, (args, res.output)


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
    # pre-Lie-infinity structures on the 2-dimensional affine module, whose
    # letters are all odd: no canonical word is longer than 2, so --n-max 40
    # walks a step per order and gives the --n-max 4 verdict, while a huge
    # --n-max is still refused at once for its weights alone
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
        res = runner.invoke(main, ["check-prelie-inf", "--pinf", pinf, "--n-max", "40"])
        assert res.output == want.replace("order=4", "order=40")
        assert res.exit_code == (0 if "PASS" in want else 1)
        start = time.perf_counter()
        res = runner.invoke(main, ["check-prelie-inf", "--pinf", pinf, "--n-max", "1000000000"])
        assert time.perf_counter() - start < 1
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "canonical words, above the cap of 200000" in res.output
    # an even letter repeats, so words grow with the weight: on three even
    # letters and one odd, --n-max 40 walks more than 200,000 steps and is
    # refused before any word is computed
    pinf = write(tmp_path, "pinf_even.json", {"prelie_infinity": {
        "space": {"basis": [{"name": name, "degree": degree} for name, degree in
                            (("a", 0), ("b", 0), ("c", 0), ("d", -1))]},
        "truncation": 2,
        "operations": [{"arity": 1, "entries": [
            {"args": [], "last": "d", "value": {"a": "1"}}]}]}})
    start = time.perf_counter()
    res = runner.invoke(main, ["check-prelie-inf", "--pinf", pinf, "--n-max", "40"])
    assert time.perf_counter() - start < 1
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    # the refusal names the top weight of the walk, n_max - 1
    assert res.output.startswith("Error: a walk to weight 39 needs at least ")
    assert "canonical words, above the cap of 200000" in res.output


def test_a_huge_p_max_is_refused_at_once(runner, tmp_path):
    # the weights and canonical words up to --p-max are counted before any is
    # computed; more than 200,000 steps is a SearchSpaceError (exit 1)
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    hop = write(tmp_path, "hop.json", {"homotopy_operator": {"truncation": 1, "components": [
        {"weight": 1, "entries": [{"args": ["e2"], "value": {"e1": "1"}}]}]}})
    fam = write(tmp_path, "f.json", {"sym_family": {"degree": 0, "components": [
        {"weight": 1, "entries": [{"args": ["e2"], "value": {"e1": "1"}}]}]}})
    graded = ["--sgla", sgla_path, "--grep", "adjoint"]
    for cmd in (["check-hoop", *graded, "--hop", hop],
                ["check-hrbo", "--sgla", sgla_path, "--hop", hop],
                ["mc-check-homotopy", *graded, "--hop", hop],
                ["graded-bracket", *graded, "--left", fam, "--right", fam],
                ["check-psi-hom", *graded, "--left", fam, "--right", fam],
                ["check-psi-hom", *graded],
                ["induce-prelie-inf", *graded, "--hop", hop]):
        start = time.perf_counter()
        res = runner.invoke(main, ["--p-max", "1000000000", *cmd])
        assert time.perf_counter() - start < 1, cmd
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), (cmd, res.output)
        assert "canonical words, above the cap of 200000" in res.output
    # the embedded algebra has no word above weight 2: a p_max of 2,000 costs
    # a step per weight, and its verdict is the one of weight 2
    res = runner.invoke(main, ["--p-max", "2000", "check-hoop", *graded, "--hop", hop])
    assert res.exit_code == 0 and res.output == "check-hoop: PASS (order=2000)\n"


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


def test_the_search_runs_in_one_process(runner, tmp_path):
    # processes is accepted and ignored: no worker pool is imported
    res = _python("-c", "import sys; from rotabaxter.catalog import affine_line; "
                  "from rotabaxter.lie import search_rbo; "
                  "print(len(search_rbo(affine_line(), (-1, 0, 1), processes=2)), "
                  "'multiprocessing' in sys.modules)")
    assert res.returncode == 0 and res.stdout == "15 False\n", res.stderr
    # and the CLI has no option for workers
    alg = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["--parallel", "search-rbo", "--algebra", alg])
    assert res.exit_code == 2 and "--parallel" in res.stderr and res.stdout == ""


def _hooked_file(tmp_path, name, basis):
    return write(tmp_path, name, {"hooked_map": {
        "basis": basis, "arity": 1, "entries": [{"args": [1], "last": 1, "value": {basis[0]: "1"}}]}})


REFUSALS = {
    "a sweep above the work cap": (
        lambda tmp_path: ["--p-max", "5", "check-psi-hom", "--grep", "adjoint", "--sgla",
                          write(tmp_path, "g.json", {"sgla": sgla_to_obj(mixed_sgla())})],
        "a sweep of the basis pairs needs 354879 steps over canonical words, "
        "above the cap of 200000"),
    "hooked maps on different bases": (
        lambda tmp_path: ["mn-bracket", "--left", _hooked_file(tmp_path, "a.json", ["u", "v"]),
                          "--right", _hooked_file(tmp_path, "b.json", ["u", "w"])],
        "hooked maps live on different bases"),
    "two entities of the kind asked for": (
        lambda tmp_path: ["check-lie", "--algebra", write(tmp_path, "two.json", {
            "x": AFFINE, "y": AFFINE})],
        "several entities of kind 'lie_algebra' (x, y); address one by key"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refusal_is_its_one_error_line(runner, tmp_path, case):
    args, message = REFUSALS[case]
    res = runner.invoke(main, args(tmp_path))
    assert isinstance(res.exception, SystemExit), res.exception
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"Error: {message}\n")


def spaced(names):
    """The file objects of each table kind on the given basis with no products."""
    return {
        "lie_algebra": {"lie_algebra": {"basis": names, "brackets": []}},
        "sgla": {"sgla": {"space": {"basis": [{"name": n, "degree": -1} for n in names]},
                          "brackets": []}},
        "prelie": {"prelie": {"basis": names, "products": []}},
    }


@pytest.mark.parametrize("kind,command", [("lie_algebra", ["check-lie", "--algebra"]),
                                          ("sgla", ["check-sgla", "--sgla"]),
                                          ("prelie", ["check-prelie", "--prelie"])])
def test_a_table_above_the_work_cap_is_refused_before_it_is_built(runner, tmp_path, kind,
                                                                   command):
    # 1,000 names ask for a dense table of 10^9 entries
    path = write(tmp_path, "big.json", spaced([f"e{i}" for i in range(1000)])[kind])
    start = time.perf_counter()
    res = runner.invoke(main, [*command, path])
    assert time.perf_counter() - start < 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", (
        "Error: a table on 1000 basis elements has 1000000000 entries, "
        "above the cap of 20000000\n"))


def test_a_sparse_120_name_algebra_is_refused_before_its_first_cell(runner, tmp_path,
                                                                   monkeypatch):
    # the table is built (120^3 entries) and the checks refuse their scans:
    # 120^3 + 120^4 residual coordinates for check-lie, C(120, 2) 120^2 for
    # the adjoint in check-rep
    path = write(tmp_path, "big.json", spaced([f"e{i}" for i in range(120)])["lie_algebra"])

    def scanned(*args):
        raise AssertionError("a residual cell was computed")

    monkeypatch.setattr("rotabaxter.lie.signed_sum", scanned)
    for args, message in (
            (["check-lie", "--algebra", path],
             "check-lie needs 209088000 residual coordinates over basis cells, "
             "above the cap of 20000000"),
            (["check-rep", "--algebra", path, "--rep", "adjoint"],
             "check-rep needs 102816000 residual coordinates over basis cells, "
             "above the cap of 20000000")):
        start = time.perf_counter()
        res = runner.invoke(main, args)
        assert time.perf_counter() - start < 1, args
        assert isinstance(res.exception, SystemExit), res.exception
        assert (res.exit_code, res.stdout, res.stderr) == (1, "", f"Error: {message}\n")


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


def test_check_psi_hom_sweeps_the_basis_pairs(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    res = runner.invoke(main, ["check-psi-hom", "--sgla", sgla_path, "--grep", "adjoint"])
    assert res.exit_code == 0 and res.output == "check-psi-hom: PASS (order=4)\n"


def _assert_pair_options_are_checked(runner, given):
    """One of --left/--right alone, and the removed --draws and --seed, are
    usage errors (exit 2) naming the option, never a verdict."""
    at = given.index("--left")
    left_only, right_only = given[:at + 2], given[:at] + given[at + 2:]
    for args, option in ((left_only, "'--right'"), (right_only, "'--left'"),
                         ([*given, "--draws", "1"], "'--draws'"),
                         (["--seed", "0", *given], "'--seed'")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and option in res.output, (args, res.output)
        assert "PASS" not in res.output and "FAIL" not in res.output


@pytest.mark.parametrize("command, pair", [("check-phi-hom", ["--algebra", "nope", "--rep"]),
                                           ("check-psi-hom", ["--sgla", "nope", "--grep"])])
@pytest.mark.parametrize("given, missing", [("--left", "'--right'"), ("--right", "'--left'")])
def test_a_half_given_pair_is_a_usage_error_before_any_file_is_read(runner, command, pair,
                                                                      given, missing):
    # 'nope' names nothing: reading it first would be exit 1, not a usage error
    res = runner.invoke(main, [command, *pair, "adjoint", given, "x"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert f"Error: Missing option {missing}" in res.stderr
    assert "nope" not in res.stderr


def test_check_psi_hom_refuses_draws_with_given_families(runner, tmp_path):
    # the adjoint action of the three-level algebra with ad(p) doubled is none
    galg = three_level_sgla()
    ad = adjoint_graded(galg)
    doubled = (tuple(tuple(2 * x for x in row) for row in ad.matrices[0]),) + ad.matrices[1:]
    sgla_path = write(tmp_path, "g.json", {"sgla": sgla_to_obj(galg)})
    grep_path = write(tmp_path, "rho.json", {"graded_rep": grep_to_obj(
        GradedRepresentation(ad.space, doubled), galg)})
    left, right = (write(tmp_path, f"{name}.json", {"sym_family": {
        "degree": degree, "components": [{"weight": 0, "value": {name: "1"}}]}})
        for name, degree in (("p", -1), ("q", 0)))
    given = ["check-psi-hom", "--sgla", sgla_path, "--grep", grep_path, "--left", left,
             "--right", right]
    res = runner.invoke(main, ["--p-max", "1", *given])
    assert res.exit_code == 1 and "FAIL" in res.output
    _assert_pair_options_are_checked(runner, ["--p-max", "1", *given])
    # without maps the sweep fails too
    res = runner.invoke(main, ["--p-max", "1", *given[:5]])
    assert res.exit_code == 1 and "FAIL" in res.output


# rho(e1) and rho(e2) do not intertwine [e1, e2] = e2: an action only in name
BROKEN_ACTION = {"e1": [["1", "0"], ["0", "0"]], "e2": [["0", "0"], ["0", "1"]]}
BROKEN_MATRICES = (matrix(BROKEN_ACTION["e1"]), matrix(BROKEN_ACTION["e2"]))


def _report(res):
    return json.loads(res.output[res.output.index("\n{"):])


def _first_key(defect_family):
    """(weight, (word, last)) of the first nonzero value, in weight then key order."""
    return min((w, key) for w, comp in defect_family.components.items() for key in comp.entries)


def _assert_replays(runner, tmp_path, args, witness):
    """A sweep witness names its failing pair in file form; written to files
    and given as --left and --right, the pair fails with the same witness."""
    paths = [write(tmp_path, f"{side}_pair.json", witness[side]) for side in ("left", "right")]
    res = runner.invoke(main, ["--json-report", "-", *args, "--left", paths[0],
                               "--right", paths[1]])
    assert res.exit_code == 1
    rest = {k: v for k, v in witness.items() if k not in ("left", "right")}
    assert _report(res)["witness"] == rest


def test_check_psi_hom_failure_reports_a_replayable_witness(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    sgla_path = str(tmp_path / "g.json")
    runner.invoke(main, ["from-lie", "--algebra", alg, "--out", sgla_path])
    grep_path = write(tmp_path, "rho.json", {"graded_rep": {"action": BROKEN_ACTION}})
    families = {name: {"sym_family": {"degree": 0, "components": [
        {"weight": 1, "entries": [{"args": [arg], "value": value}]}]}}
        for name, arg, value in (("f", "e2", {"e1": "1/2"}), ("g", "e1", {"e2": "-1/3"}))}
    left, right = (write(tmp_path, f"family_{n}.json", families[n]) for n in ("f", "g"))
    res = runner.invoke(main, ["--json-report", "-", "check-psi-hom", "--sgla", sgla_path,
                               "--grep", grep_path, "--left", left, "--right", right])
    assert res.exit_code == 1
    assert res.output.startswith("check-psi-hom: FAIL (order=4)\n  witness: {")
    witness = _report(res)["witness"]
    assert set(witness) == {"weight", "at", "last", "residual"}
    # psi([[f, g]]) - [psi(f), psi(g)] built as whole families replays it
    galg = from_lie(affine_line())
    grep = GradedRepresentation(galg.space, BROKEN_MATRICES)
    f, g = (sym_family_from_obj(families[n]["sym_family"], grep.space, galg.space)
            for n in ("f", "g"))
    defect = psi_homomorphism_defect(f, g, galg, grep, 4)
    word = tuple(grep.space.index(name) for name in witness["at"])
    last = grep.space.index(witness["last"])
    assert (witness["weight"], (word, last)) == _first_key(defect)
    replay = defect.component(len(word)).eval(word, last)
    assert witness["residual"] == named_residual(replay, grep.space.basis) != {}

    # a sweep FAIL names its basis pair, and the pair replays the same way
    args = ["check-psi-hom", "--sgla", sgla_path, "--grep", grep_path]
    res = runner.invoke(main, ["--json-report", "-", *args])
    assert res.exit_code == 1
    witness = _report(res)["witness"]
    assert set(witness) == {"left", "right", "weight", "at", "last", "residual"}
    f, g = (sym_family_from_obj(witness[side]["sym_family"], grep.space, galg.space)
            for side in ("left", "right"))
    defect = psi_homomorphism_defect(f, g, galg, grep, 4)
    word = tuple(grep.space.index(name) for name in witness["at"])
    last = grep.space.index(witness["last"])
    assert (witness["weight"], (word, last)) == _first_key(defect)
    replay = defect.component(len(word)).eval(word, last)
    assert witness["residual"] == named_residual(replay, grep.space.basis) != {}
    _assert_replays(runner, tmp_path, args, witness)


def test_check_phi_hom_failure_reports_a_replayable_witness(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    rep_path = write(tmp_path, "rho.json", {"representation": {"basis": ["v1", "v2"],
                                                                "action": BROKEN_ACTION}})
    ident = write(tmp_path, "I.json", IDENT)
    res = runner.invoke(main, ["--json-report", "-", "check-phi-hom", "--algebra", alg,
                               "--rep", rep_path, "--left", ident, "--right", ident])
    assert res.exit_code == 1
    assert res.output.startswith("check-phi-hom: FAIL\n  witness: {")
    witness = _report(res)["witness"]
    assert set(witness) == {"arity", "at", "last", "residual"}
    # phi([[f, g]]) - [phi(f), phi(g)] replays it at its first key
    lie = affine_line()
    rep = Representation(("v1", "v2"), BROKEN_MATRICES)
    t = AltMap.from_operator(operator(IDENT["operator"]["rows"], "g", "g"))
    defect = phi_homomorphism_defect(t, t, lie, rep)
    key = (tuple(i - 1 for i in witness["at"]), witness["last"] - 1)
    assert key == min(defect.entries) and len(key[0]) == witness["arity"]
    assert witness["residual"] == named_residual(defect.entries[key], rep.basis) != {}

    args = ["check-phi-hom", "--algebra", alg, "--rep", rep_path]
    res = runner.invoke(main, ["--json-report", "-", *args])
    assert res.exit_code == 1
    witness = _report(res)["witness"]
    assert set(witness) == {"left", "right", "arity", "at", "last", "residual"}
    f, g = (altmap_from_obj(witness[side]["altmap"], 2, lie.basis) for side in ("left", "right"))
    defect = phi_homomorphism_defect(f, g, lie, rep)
    key = (tuple(i - 1 for i in witness["at"]), witness["last"] - 1)
    assert key == min(defect.entries)
    assert witness["residual"] == named_residual(defect.entries[key], rep.basis) != {}
    _assert_replays(runner, tmp_path, args, witness)


def test_check_phi_hom_refuses_draws_with_given_maps(runner, tmp_path):
    # rho(e1) = E11, rho(e2) = E21 is no action of [e1, e2] = e2
    alg = write(tmp_path, "L.json", AFFINE)
    rep_path = write(tmp_path, "rho.json", {"representation": {"basis": ["v1", "v2"], "action": {
        "e1": [["1", "0"], ["0", "0"]], "e2": [["0", "0"], ["1", "0"]]}}})
    left, right = (write(tmp_path, f"{name}.json", {"altmap": {"arity": 1, "entries": [
        {"args": [arg], "value": value}]}}) for name, arg, value in
        (("f", 1, {"e1": "1"}), ("g", 2, {"e2": "1"})))
    given = ["check-phi-hom", "--algebra", alg, "--rep", rep_path, "--left", left,
             "--right", right]
    res = runner.invoke(main, given)
    assert res.exit_code == 1 and "FAIL" in res.output
    _assert_pair_options_are_checked(runner, given)
    # without maps the sweep fails too
    res = runner.invoke(main, given[:5])
    assert res.exit_code == 1 and "FAIL" in res.output


def test_check_phi_hom_takes_its_witness_from_the_one_pass(runner, tmp_path, monkeypatch):
    alg = write(tmp_path, "L.json", AFFINE)
    rep_path = write(tmp_path, "rho.json", {"representation": {"basis": ["v1", "v2"],
                                                                "action": BROKEN_ACTION}})
    ident = write(tmp_path, "I.json", IDENT)
    calls = [["--json-report", "-", "check-phi-hom", "--algebra", alg, "--rep", rep_path,
              "--left", ident, "--right", ident],
             ["--json-report", "-", "check-phi-hom", "--algebra", alg, "--rep", rep_path]]
    before = [runner.invoke(main, args) for args in calls]

    def whole_map(*args, **kwargs):
        raise AssertionError("a whole map was built")

    for name in ("phi_homomorphism_defect", "courant_bracket", "circ", "mn_bracket"):
        monkeypatch.setattr(prelie, name, whole_map)
    after = [runner.invoke(main, args) for args in calls]
    assert [(r.exit_code, r.output) for r in after] == [(r.exit_code, r.output) for r in before]
    assert all(r.exit_code == 1 and "witness" in r.output for r in after)


def _phi_basis_maps(alg, rep):
    """Every elementary alternating map, by arity, increasing word and value e_k."""
    dim = rep.space_dim
    return [AltMap(a, dim, alg.dim, {word: basis_vector(alg.dim, k)}) for a in range(dim + 1)
            for word in itertools.combinations(range(dim), a) for k in range(alg.dim)]


def test_the_phi_sweep_checks_every_ordered_basis_pair(runner, tmp_path, monkeypatch):
    alg = write(tmp_path, "L.json", AFFINE)
    lie = affine_line()
    seen = []

    def counting(f, g, *rest):
        seen.append((f, g))
        return phi_witness(f, g, *rest)

    phi_witness = cli._hom_witness
    monkeypatch.setattr(cli, "_hom_witness", counting)
    res = runner.invoke(main, ["check-phi-hom", "--algebra", alg, "--rep", "adjoint"])
    assert res.exit_code == 0
    # 8 maps of arities 0, 1, 2 on a 2-dimensional module: the 44 ordered
    # pairs of arities adding up to at most 2, in basis order, both ways round
    maps = _phi_basis_maps(lie, adjoint(lie))
    want = [(f, g) for f in maps for g in maps if f.arity + g.arity <= 2]
    assert len(seen) == len(want) == 44 and seen == want
    assert (maps[0], maps[2]) in seen and (maps[2], maps[0]) in seen
    # with a broken action the sweep stops at the first failing pair
    seen.clear()
    rep_path = write(tmp_path, "rho.json", {"representation": {"basis": ["v1", "v2"],
                                                                "action": BROKEN_ACTION}})
    res = runner.invoke(main, ["--json-report", "-", "check-phi-hom", "--algebra", alg,
                               "--rep", rep_path])
    broken = Representation(("v1", "v2"), BROKEN_MATRICES)
    first = next(i for i, (f, g) in enumerate(want)
                 if not phi_homomorphism_defect(f, g, lie, broken).is_zero())
    assert res.exit_code == 1 and seen == want[:first + 1]
    witness = _report(res)["witness"]
    assert [witness["left"], witness["right"]] == [
        {"altmap": altmap_to_obj(h, lie.basis)} for h in want[first]]


PHI_CASES = [*lie_pairs(), ("sl2/adjoint", sl2(), adjoint(sl2()))]
BUMP = st.none() | st.tuples(st.integers(0, 99), st.sampled_from([1, -1, Fraction(1, 2)]))


def _bumped(matrices, positions, bump):
    """The action matrices with one entry, at positions[i % len], moved by x."""
    if bump is None:
        return matrices
    i, x = bump
    a, r, c = positions[i % len(positions)]
    rows = [list(row) for row in matrices[a]]
    rows[r][c] += x
    return (*matrices[:a], tuple(map(tuple, rows)), *matrices[a + 1:])


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.integers(0, len(PHI_CASES) - 1), bump=BUMP)
def test_the_phi_sweep_is_the_verdict_of_every_basis_pair(tmp_path, case, bump):
    # the conjunction over every ordered basis pair of phi_homomorphism_defect,
    # each pair built as a whole map, on actions valid and perturbed
    _, lie, rho = PHI_CASES[case]
    d = rho.space_dim
    positions = list(itertools.product(range(lie.dim), range(d), range(d)))
    rho = Representation(rho.basis, _bumped(rho.matrices, positions, bump))
    runner = CliRunner()
    args = ["check-phi-hom",
            "--algebra", write(tmp_path, "L.json", {"lie_algebra": lie_to_obj(lie)}),
            "--rep", write(tmp_path, "rho.json", {"representation": rep_to_obj(rho, lie)})]
    res = runner.invoke(main, ["--json-report", "-", *args])
    maps = _phi_basis_maps(lie, rho)
    failing = [(f, g) for f in maps for g in maps if f.arity + g.arity <= d
               and not phi_homomorphism_defect(f, g, lie, rho).is_zero()]
    assert res.exit_code == (1 if failing else 0), res.output
    if failing:
        witness = _report(res)["witness"]
        assert [witness["left"], witness["right"]] == [
            {"altmap": altmap_to_obj(h, lie.basis)} for h in failing[0]]
        _assert_replays(runner, tmp_path, args, witness)


def _psi_basis_families(space, target, p_max):
    """Every elementary family up to weight p_max, by weight, word and value
    e_k: the words are the sorted ones that repeat no odd-degree letter."""
    fams = []
    for w in range(p_max + 1):
        for word in itertools.combinations_with_replacement(range(space.dim), w):
            if any(a == b and space.degrees[a] % 2 for a, b in zip(word, word[1:])):
                continue
            for k in range(target.dim):
                deg = target.degrees[k] - sum(space.degrees[i] for i in word)
                fams.append(GradedSymFamily(space, target, deg, {w: GradedSymMap(
                    space, target, w, deg, {word: basis_vector(target.dim, k)})}))
    return fams


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.integers(0, 2), p_max=st.integers(0, 3), bump=BUMP)
def test_the_psi_sweep_is_the_verdict_of_every_basis_pair(tmp_path, case, p_max, bump):
    # the same for psi_homomorphism_defect up to p_max; a perturbation moves
    # an entry that keeps the action homogeneous
    _, galg, grep = graded_instances()[case]
    deg, gdeg = grep.space.degrees, galg.space.degrees
    positions = [(a, r, c) for a in range(galg.dim) for r in range(grep.space.dim)
                 for c in range(grep.space.dim) if deg[r] == deg[c] + gdeg[a] + 1]
    grep = GradedRepresentation(grep.space, _bumped(grep.matrices, positions, bump))
    runner = CliRunner()
    args = ["check-psi-hom", "--sgla", write(tmp_path, "g.json", {"sgla": sgla_to_obj(galg)}),
            "--grep", write(tmp_path, "rho.json", {"graded_rep": grep_to_obj(grep, galg)})]
    res = runner.invoke(main, ["--p-max", str(p_max), "--json-report", "-", *args])
    fams = _psi_basis_families(grep.space, galg.space, p_max)
    failing = [(f, g) for f in fams for g in fams if f.max_weight + g.max_weight <= p_max
               and not psi_homomorphism_defect(f, g, galg, grep, p_max).is_zero()]
    assert res.exit_code == (1 if failing else 0), res.output
    if failing:
        witness = _report(res)["witness"]
        assert [witness["left"], witness["right"]] == [
            {"sym_family": sym_family_to_obj(h)} for h in failing[0]]
        _assert_replays(runner, tmp_path, ["--p-max", str(p_max), *args], witness)


def test_unresolved_reference_errors(runner, tmp_path):
    alg = write(tmp_path, "L.json", AFFINE)
    res = runner.invoke(main, ["check-rbo", "--algebra", alg, "--op", "nosuch.json"])
    assert res.exit_code != 0
    res = runner.invoke(main, ["check-lie", "--algebra",
                               write(tmp_path, "bad.json", {"weird": []})])
    assert res.exit_code != 0


def _required(*opts):
    return [(opt, "text", True, None, None) for opt in opts]


OUT = ("--out", "file", False, None, None)
OPTIONAL_PAIR = [("--left", "text", False, None, None), ("--right", "text", False, None, None)]
# (opts, type name, required, default, help) of each parameter, in order; None
# is the group.  A table, not the --help text, whose layout click may change.
OPTIONS = {
    None: [("--p-max", "integer range", False, DEFAULT_P_MAX,
            "Weight bound for truncated homotopy checks."),
           ("--json-report", "file", False, None,
            "Write the machine-readable report to this file ('-' for stdout).")],
    "bracket": [*_required("--algebra", "--rep", "--left", "--right"), OUT],
    "check-graded-rep": _required("--sgla", "--grep"),
    "check-hoop": _required("--sgla", "--grep", "--hop"),
    "check-hrbo": _required("--sgla", "--hop"),
    "check-lie": _required("--algebra"),
    "check-oop": _required("--algebra", "--rep", "--op"),
    "check-phi-hom": [*_required("--algebra", "--rep"), *OPTIONAL_PAIR],
    "check-prelie": _required("--prelie"),
    "check-prelie-inf": [*_required("--pinf"),
                         ("--n-max", "integer range", False, DEFAULT_P_MAX, None)],
    "check-psi-hom": [*_required("--sgla", "--grep"), *OPTIONAL_PAIR],
    "check-rbo": _required("--algebra", "--op"),
    "check-rep": _required("--algebra", "--rep"),
    "check-sdgla": _required("--sgla", "--differential"),
    "check-sgla": _required("--sgla"),
    "deform": _required("--algebra", "--rep", "--base", "--delta"),
    "from-lie": [*_required("--algebra"), OUT],
    "graded-bracket": [*_required("--sgla", "--grep", "--left", "--right"), OUT],
    "induce-prelie": [*_required("--algebra", "--rep", "--op"),
                      ("--force", "boolean", False, False, "Skip the O-operator verification."),
                      OUT],
    "induce-prelie-inf": [*_required("--sgla", "--grep", "--hop"),
                          ("--force", "boolean", False, False, None), OUT],
    "mc-check": _required("--algebra", "--rep", "--op"),
    "mc-check-homotopy": _required("--sgla", "--grep", "--hop"),
    "mn-bracket": [*_required("--left", "--right"), OUT],
    "phi": [*_required("--algebra", "--rep", "--map"), OUT],
    "search-rbo": [*_required("--algebra"),
                   ("--grid", "text", False, "-1,0,1",
                    "Comma-separated list of rational entries to try."),
                   ("--cap", "integer range", False, SEARCH_CAP, None), OUT],
}


def test_every_command_keeps_its_options():
    def table(command):
        return [(" ".join(d["opts"]), d["type"]["name"], d["required"], d["default"],
                 d.get("help")) for d in (p.to_info_dict() for p in command.params)]

    assert {None: table(main), **{name: table(c) for name, c in main.commands.items()}} == OPTIONS


def test_each_call_of_main_reads_into_its_own_workspace(runner, tmp_path):
    bundle = write(tmp_path, "bundle.json", {"bundled_algebra": AFFINE, "bundled_op": RBO})
    # within one call a key of a loaded file may be named bare; in the next it is gone
    res = runner.invoke(main, ["check-rbo", "--algebra", bundle, "--op", "bundled_op"])
    assert res.exit_code == 0 and res.stdout == "check-rbo: PASS\n"
    res = runner.invoke(main, ["check-lie", "--algebra", "bundled_algebra"])
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == "Error: 'bundled_algebra' is neither a file nor a loaded entity\n"


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_turns_a_package_error_into_one_error_line(runner, command):
    # a command that let a package error escape would print a traceback
    args = [command]
    for param in main.commands[command].params:
        if param.required:
            args += [param.opts[0], "nope"]
    res = runner.invoke(main, args)
    assert isinstance(res.exception, SystemExit), res.exception
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == "Error: 'nope' is neither a file nor a loaded entity\n"


def test_every_package_error_is_a_rotabaxter_error_with_its_builtin_base():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert errors.RotabaxterError in classes and len(classes) > 1
    assert all(issubclass(c, errors.RotabaxterError) for c in classes)
    # callers that catch the builtin base keep working
    for cls in (errors.ShapeMismatchError, errors.BoundError, errors.SearchSpaceError,
                errors.NotMaurerCartanError, errors.OversizedScalarError, errors.SchemaError):
        assert issubclass(cls, ValueError), cls
    assert issubclass(errors.UnresolvedReferenceError, KeyError)


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
    # read as its last copy, each repeat below gives the abelian algebra or
    # a zero map, and the check passes
    "repeated JSON key": ("lie", '{"lie_algebra": {"basis": ["e1", "e2"], "brackets": '
                                 '[{"left": "e1", "right": "e2", "value": {"e2": "1"}}], '
                                 '"brackets": []}}'),
    "repeated bracket pair": ("lie", {"lie_algebra": {"basis": ["e1", "e2"], "brackets": [
        {"left": "e1", "right": "e2", "value": {"e2": "1"}},
        {"left": "e1", "right": "e2", "value": {}}]}}),
    "repeated component weight": ("hop", {"homotopy_operator": {"components": [
        {"weight": 1, "entries": [{"args": ["e1"], "value": {"e1": "1"}},
                                  {"args": ["e2"], "value": {"e2": "1"}}]},
        {"weight": 1, "entries": []}]}}),
    "repeated argument word": ("hop", {"homotopy_operator": {"components": [
        {"weight": 1, "entries": [{"args": ["e1"], "value": {"e1": "1"}},
                                  {"args": ["e2"], "value": {"e2": "1"}},
                                  {"args": ["e2"], "value": {}}]}]}}),
    "repeated word and last": ("pinf", {"prelie_infinity": {
        "space": {"basis": [{"name": "x", "degree": 0}, {"name": "y", "degree": 1}]},
        "truncation": 1, "operations": [{"arity": 1, "entries": [
            {"args": [], "last": "x", "value": {"y": "1"}},
            {"args": [], "last": "x", "value": {}}]}]}}),
    "repeated operation arity": ("pinf", {"prelie_infinity": {
        "space": {"basis": [{"name": "x", "degree": 0}, {"name": "y", "degree": 1}]},
        "truncation": 1, "operations": [
            {"arity": 1, "entries": [{"args": [], "last": "x", "value": {"y": "1"}}]},
            {"arity": 1, "entries": []}]}}),
    # a weight-0 component is read from "value", any other from "entries"
    "weight-0 component with entries": ("hop", {"homotopy_operator": {"components": [
        {"weight": 0, "entries": [{"args": [], "value": {"e1": "1"}}]}]}}),
    "weight-1 component with a value": ("hop", {"homotopy_operator": {"components": [
        {"weight": 1, "value": {"e1": "1"}}]}}),
    "degree that is text": ("sgla", {"sgla": {
        "space": {"basis": [{"name": "x", "degree": "a"}]}, "brackets": []}}),
    "altmap args that are text": ("map", {"altmap": {
        "arity": 1, "entries": [{"args": ["x"], "value": {"e1": "1"}}]}}),
    "entry without args": ("map", {"altmap": {"arity": 1, "entries": [{"value": {"e1": "1"}}]}}),
    "truncation that is text": ("hop", {"homotopy_operator": {
        "truncation": "z", "components": []}}),
    "component that is a number": ("hop", {"homotopy_operator": {"components": [5]}}),
    "component above the truncation": ("hop", {"homotopy_operator": {
        "truncation": 0, "components": [{"weight": 1, "entries": [
            {"args": ["e1"], "value": {"e1": "1"}}]}]}}),
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
                    "--hop", bad],
            "pinf": ["check-prelie-inf", "--pinf", bad]}[slot]
    res = runner.invoke(main, args)
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1
    assert res.output.startswith("Error: ") and "Traceback" not in res.output


def test_a_component_above_the_truncation_is_refused_not_dropped(runner, tmp_path):
    # The identity as the weight-1 component fails the identities at weight
    # 2; dropped under truncation 0, it would leave the zero operator, which
    # passes every check and induces an empty structure.
    sgla_path = write(tmp_path, "g.json", AFFINE_SGLA)
    identity = {"weight": 1, "entries": [{"args": ["e1"], "value": {"e1": "1"}},
                                         {"args": ["e2"], "value": {"e2": "1"}}]}
    graded = ["--sgla", sgla_path, "--grep", "adjoint", "--hop"]
    whole = write(tmp_path, "whole.json", {"homotopy_operator": {"components": [identity]}})
    res = runner.invoke(main, ["check-hoop", *graded, whole])
    assert res.exit_code == 1 and '"weight": 2}' in res.output, res.output
    cut = write(tmp_path, "cut.json", {"homotopy_operator": {
        "truncation": 0, "components": [identity]}})
    for command in ("check-hoop", "mc-check-homotopy", "induce-prelie-inf"):
        res = runner.invoke(main, [command, *graded, cut])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1, (command, res.output)
        assert res.output == ("Error: homotopy_operator lists a component of weight 1 "
                              "above its truncation 0\n"), (command, res.output)


def test_a_weight_0_component_is_read_from_its_value_alone(runner, tmp_path):
    # Omega = x1 with [x1, x1] = y fails at weight 0; written as entries and
    # read as zero, it would pass
    sgla_path = write(tmp_path, "g.json", {"sgla": {
        "space": {"basis": [{"name": "x1", "degree": 0}, {"name": "x2", "degree": 0},
                            {"name": "y", "degree": 1}]},
        "brackets": [{"left": "x1", "right": "x1", "value": {"y": "1"}}]}})
    as_value = write(tmp_path, "value.json", {"homotopy_operator": {"components": [
        {"weight": 0, "value": {"x1": "1"}}]}})
    res = runner.invoke(main, ["check-hrbo", "--sgla", sgla_path, "--hop", as_value])
    assert res.exit_code == 1
    assert res.output.endswith('  witness: {"at": [], "residual": {"y": "1/2"}, "weight": 0}\n')
    as_entries = write(tmp_path, "entries.json", {"homotopy_operator": {"components": [
        {"weight": 0, "entries": [{"args": [], "value": {"x1": "1"}}]}]}})
    res = runner.invoke(main, ["check-hrbo", "--sgla", sgla_path, "--hop", as_entries])
    assert res.exit_code == 1
    assert res.output == "Error: a component of weight 0 takes no 'entries' field\n"


def test_a_repeat_is_named_in_the_error(runner, tmp_path):
    # the affine line with the identity fails check-rbo at (1, 2); each
    # repeat, read as its last copy, gives the abelian algebra, where it passes
    op = write(tmp_path, "P.json", {"operator": {
        "rows": [["1", "0"], ["0", "1"]], "domain": "g", "codomain": "g"}})
    for name, text, error in (
            ("key.json", MALFORMED["repeated JSON key"][1], "object repeats the key 'brackets'"),
            ("pair.json", json.dumps(MALFORMED["repeated bracket pair"][1]),
             "table repeats the pair ('e1', 'e2')")):
        alg = write(tmp_path, name, text)
        res = runner.invoke(main, ["check-rbo", "--algebra", alg, "--op", op])
        assert res.exit_code == 1
        assert res.output.startswith("Error: ") and res.output.endswith(f"{error}\n"), res.output


@pytest.mark.parametrize("field, value", [("domain", "W"), ("domain", [1, {"x": None}]),
                                          ("codomain", "V"), ("codomain", 7)])
def test_an_unknown_operator_space_is_a_schema_error(runner, tmp_path, field, value):
    alg = write(tmp_path, "L.json", AFFINE)
    op = write(tmp_path, "P.json", {"operator": {**RBO["operator"], field: value}})
    res = runner.invoke(main, ["check-rbo", "--algebra", alg, "--op", op])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 1
    assert res.output.startswith(f"Error: operator {field} must be") and "Traceback" not in res.output


# -- a walked FAIL is the least key of its whole map, found where the walk stops

WALK_POOL = (Fraction(1, 2), Fraction(-1, 3), Fraction(2)) + (Fraction(0),) * 4


def _walked_fail(runner, monkeypatch, owner, kernel, args):
    """The witness of the FAIL of a command line and its calls of the kernel
    ``owner.kernel``."""
    calls = []
    wrapped = getattr(owner, kernel)
    monkeypatch.setattr(owner, kernel, lambda *a: calls.append(a) or wrapped(*a))
    res = runner.invoke(main, ["--json-report", "-", *args])
    monkeypatch.undo()
    assert res.exit_code == 1, res.output
    return _report(res)["witness"], len(calls)


def _drawn(rng, rows, cols, defect):
    """A seeded random matrix whose ``defect`` is nonzero, and first nonzero
    past the pair (1, 2) when there is another pair; drawn again until it is."""
    while True:
        m = [[rng.choice(WALK_POOL) for _ in range(cols)] for _ in range(rows)]
        entries = defect(m).entries
        if entries and (cols < 3 or min(entries) != (0, 1)):
            return m


def _operator_file(tmp_path, name, rows, space="V"):
    return write(tmp_path, name, {"operator": {
        "rows": [[str(x) for x in row] for row in rows], "domain": space, "codomain": "g"}})


@pytest.mark.parametrize("pair", range(4))
def test_an_ungraded_walked_fail_is_the_least_pair_of_its_whole_map(
        runner, tmp_path, monkeypatch, pair):
    _, alg, rep = [*lie_pairs(), ("sl2/adjoint", sl2(), adjoint(sl2()))][pair]
    rng = random.Random(pair)
    d, m = alg.dim, rep.space_dim
    given = ["--algebra", write(tmp_path, "L.json", {"lie_algebra": lie_to_obj(alg)}),
             "--rep", write(tmp_path, "rho.json", {"representation": rep_to_obj(rep, alg)})]

    def assert_least(witness, calls, defect, before=0):
        """The witness is the least pair of the whole map, the kernel ran on
        every pair up to it and on none after it."""
        word = min(defect.entries)
        assert witness == {"at": [i + 1 for i in word],
                           "residual": named_residual(defect.entries[word], alg.basis)}
        pairs = list(itertools.combinations(range(defect.dim_dom), 2))
        assert calls == before + pairs.index(word) + 1

    def oop(rows, action=rep):
        return oop_defect(alg, action, operator(rows))

    def mc(rows, delta=None):
        t = AltMap.from_operator(operator(rows))
        if delta is not None:
            t = t + AltMap.from_operator(operator(delta))
        return mc_residual(t, alg, rep)

    t = _drawn(rng, d, m, oop)
    op = _operator_file(tmp_path, "T.json", t)
    # check-oop and check-rbo read one bracket per pair
    witness, calls = _walked_fail(runner, monkeypatch, LieAlgebra, "bracket",
                                  ["check-oop", *given, "--op", op])
    assert_least(witness, calls, oop(t))
    p = _drawn(rng, d, d, lambda rows: oop(rows, adjoint(alg)))
    witness, calls = _walked_fail(runner, monkeypatch, LieAlgebra, "bracket",
                                  ["check-rbo", *given[:2], "--op", _operator_file(
                                      tmp_path, "P.json", p, "g")])
    assert_least(witness, calls, oop(p, adjoint(alg)))
    # mc-check and deform read the bracket kernel once per pair; deform first
    # walks every pair of its base, an O-operator
    witness, calls = _walked_fail(runner, monkeypatch, deformation, "_bracket_on_canonical",
                                  ["mc-check", *given, "--op", op])
    assert_least(witness, calls, mc(t))
    bases = []
    for flat in itertools.product((0, 1), repeat=d * m):
        rows = [flat[r * m:(r + 1) * m] for r in range(d)]
        if oop(rows).is_zero():
            bases.append(rows)
    scale = rng.choice(WALK_POOL[:3])
    base = [[scale * x for x in row] for row in rng.choice(bases)]
    delta = _drawn(rng, d, m, lambda rows: mc(base, rows))
    witness, calls = _walked_fail(
        runner, monkeypatch, deformation, "_bracket_on_canonical",
        ["deform", *given, "--base", _operator_file(tmp_path, "B.json", base),
         "--delta", _operator_file(tmp_path, "D.json", delta)])
    assert_least(witness, calls, mc(base, delta), before=m * (m - 1) // 2)


@pytest.mark.parametrize("instance", range(3))
def test_a_graded_walked_fail_is_the_least_word_of_its_whole_residual(
        runner, tmp_path, monkeypatch, instance):
    _, galg, grep = graded_instances()[instance]
    rng = random.Random(instance)
    sgla_path = write(tmp_path, "g.json", {"sgla": sgla_to_obj(galg)})
    grep_path = write(tmp_path, "rho.json", {"graded_rep": grep_to_obj(grep, galg)})
    for command, rep, action in (("check-hoop", grep, ["--grep", grep_path]),
                                 ("check-hrbo", adjoint_graded(galg), [])):
        while True:
            t = random_homotopy_operator(rng, rep.space, galg.space, 2, pool=WALK_POOL,
                                         density=0.3)
            residual = homotopy_oop_residual(t, galg, rep, 3)
            if not all(m.is_zero() for m in residual.values()):
                break
        hop = write(tmp_path, f"{command}.json", {"homotopy_operator": hop_to_obj(t)})
        # the bracket kernel runs on every canonical word up to the witness
        witness, calls = _walked_fail(runner, monkeypatch, deformation, "_bracket_on_canonical", [
            "--p-max", "3", command, "--sgla", sgla_path, *action, "--hop", hop])
        weight = min(w for w, m in residual.items() if not m.is_zero())
        word = min(residual[weight].entries)
        assert witness == {"weight": weight, "at": [rep.space.basis[i] for i in word],
                           "residual": named_residual(residual[weight].entries[word],
                                                      galg.space.basis)}
        words = [w for p in range(weight + 1) for w in canonical_words(rep.space, p)]
        assert calls == words.index(word) + 1


# -- one reader for a map T: V -> g -------------------------------------------

# rho(e1) = diag(1, 0, 0) and rho(e2) = E_12 satisfy [rho(e1), rho(e2)] = rho(e2),
# so T: V -> g is a 2 x 3 matrix and no transposition goes unseen
WIDE_REP = Representation(("v1", "v2", "v3"), (matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                                               matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])))


def _map_files(tmp_path, name, rows):
    """The operator T of ``rows`` in a file of its own, and as the 1-ary altmap."""
    t = operator(rows)
    f = AltMap.from_operator(t)
    return (write(tmp_path, f"{name}.op.json",
                  {"operator": {"rows": [[str(x) for x in row] for row in t.matrix]}}),
            write(tmp_path, f"{name}.alt.json",
                  {"altmap": altmap_to_obj(f, AFFINE["lie_algebra"]["basis"])}))


def test_operator_commands_read_a_1_ary_altmap_as_the_equal_operator(runner, tmp_path):
    # check-rbo, check-oop and induce-prelie took only operator files; an
    # O-operator is the same thing as a Maurer-Cartan 1-cochain, so the altmap
    # of T must give the verdict, witness and product that T gives
    alg = write(tmp_path, "L.json", AFFINE)
    rep = write(tmp_path, "V.json", {"representation": rep_to_obj(WIDE_REP, affine_line())})
    assert runner.invoke(main, ["check-rep", "--algebra", alg, "--rep", rep]).exit_code == 0
    rng = random.Random(29)
    square = [RBO["operator"]["rows"], IDENT["operator"]["rows"], [["1", "-1"], ["0", "1/2"]]]
    wide = [[[rng.choice([0, 1, -1, "1/2"]) for _ in range(3)] for _ in range(2)]
            for _ in range(6)] + [[[0, 0, 0], [0, 0, 1]]]
    commands = [(["check-rbo", "--algebra", alg], square),
                (["check-oop", "--algebra", alg, "--rep", "adjoint"], square),
                (["check-oop", "--algebra", alg, "--rep", rep], wide),
                (["induce-prelie", "--algebra", alg, "--rep", "adjoint", "--force"], square),
                (["induce-prelie", "--algebra", alg, "--rep", rep, "--force"], wide)]
    exits = set()
    for k, (command, cases) in enumerate(commands):
        for i, rows in enumerate(cases):
            op_file, alt_file = _map_files(tmp_path, f"{k}-{i}", rows)
            by_op, by_alt = (runner.invoke(main, ["--json-report", "-", *command, "--op", f])
                             for f in (op_file, alt_file))
            assert by_op.stdout and by_op.stderr == "", (command, rows, by_op.output)
            assert (by_alt.exit_code, by_alt.stdout, by_alt.stderr) == \
                (by_op.exit_code, by_op.stdout, by_op.stderr), (command, rows)
            exits.add((command[0], by_op.exit_code))
    assert {("check-rbo", 0), ("check-rbo", 1), ("check-oop", 0), ("check-oop", 1),
            ("induce-prelie", 0)} <= exits


def test_an_altmap_in_a_bundle_is_read_by_key_for_every_map_option(runner, tmp_path):
    basis = AFFINE["lie_algebra"]["basis"]
    rbo = altmap_to_obj(AltMap.from_operator(operator(RBO["operator"]["rows"])), basis)
    bundle = write(tmp_path, "bundle.json", {**AFFINE, "P": {"altmap": rbo}, **IDENT})
    common = ["--algebra", bundle, "--rep", "adjoint"]
    for command in (["check-rbo", "--algebra", bundle, "--op"], ["check-oop", *common, "--op"],
                    ["mc-check", *common, "--op"], ["deform", *common, "--delta", f"{bundle}:P",
                                                    "--base"]):
        res = runner.invoke(main, [*command, f"{bundle}:P"])
        assert (res.exit_code, res.stderr) == (0, ""), (command, res.output)
        assert res.stdout.endswith(": PASS\n")
    # the whole bundle holds an operator, which is read before its altmap
    res = runner.invoke(main, ["check-oop", *common, "--op", bundle])
    assert res.exit_code == 1 and '"residual": {"e2": "-1"}' in res.stdout


@pytest.mark.parametrize("command", ["check-rbo", "check-oop", "induce-prelie"])
def test_an_altmap_of_another_arity_is_no_operator(runner, tmp_path, command):
    alg = write(tmp_path, "L.json", AFFINE)
    pair = write(tmp_path, "f.json", {"altmap": {"arity": 2, "entries": [
        {"args": [1, 2], "value": {"e2": "1"}}]}})
    args = [command, "--algebra", alg, "--op", pair]
    if command != "check-rbo":
        args[3:3] = ["--rep", "adjoint"]
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == "Error: only 1-ary maps correspond to operators\n"


def test_the_map_options_still_take_altmaps_of_any_arity(runner, tmp_path):
    # bracket, phi and check-phi-hom read maps of the whole complex, not only T
    alg = write(tmp_path, "L.json", AFFINE)
    pair = write(tmp_path, "f.json", {"altmap": {"arity": 2, "entries": [
        {"args": [1, 2], "value": {"e2": "1"}}]}})
    op = write(tmp_path, "P.json", RBO)
    common = ["--algebra", alg, "--rep", "adjoint"]
    res = runner.invoke(main, ["bracket", *common, "--left", pair, "--right", op])
    assert res.exit_code == 0 and json.loads(res.stdout)["altmap"]["arity"] == 3
    res = runner.invoke(main, ["phi", *common, "--map", pair])
    assert res.exit_code == 0 and json.loads(res.stdout)["hooked_map"]["arity"] == 2
    res = runner.invoke(main, ["check-phi-hom", *common, "--left", pair, "--right", op])
    assert (res.exit_code, res.stdout) == (0, "check-phi-hom: PASS\n")
