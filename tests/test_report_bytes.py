"""The report bytes of the structure-axiom checks, the O-operator checks and
the deformation-complex checks on failing inputs with rational constants,
pinned.

Each case runs one command through ``cli.main`` with ``--json-report -`` and
compares its whole output with pinned text: the Fraction implementation of
the axiom and O-operator checks wrote it, and the ungraded bracket sum wrote
the mc-check, deform and check-phi-hom cases before those commands ran the
graded bracket kernel.  The constants carry different denominators in the
algebra, the action, the differential and the operators or maps, so a
witness divided back by the wrong power of a denominator, or by the wrong
one, changes the bytes.
"""

import json

import pytest
from click.testing import CliRunner

from rotabaxter.cli import main


def lie(basis, *brackets):
    return {"lie_algebra": {"basis": list(basis), "brackets": [
        {"left": a, "right": b, "value": v} for a, b, v in brackets]}}


def sgla(space, *brackets):
    return {"sgla": {"space": {"basis": [{"name": n, "degree": d} for n, d in space]},
                     "brackets": [{"left": a, "right": b, "value": v}
                                  for a, b, v in brackets]}}


MIXED = (("x", -1), ("y", 0), ("w", 0))
LADDER = (("a", -1), ("b", 0), ("c", 1))
AFFINE = lie("e1 e2".split(), ("e1", "e2", {"e2": "1/2"}))
ACTION = {"e1": [["1/3", "0"], ["0", "0"]], "e2": [["0", "1/5"], ["0", "0"]]}
# a one-dimensional module: each residual of its action is a 1 x 1 matrix
UNIT = lie("e1 e2".split(), ("e1", "e2", {"e2": "1"}))
UNIT_ACTION = {"e2": [["1/2"]]}
AFFINE_REP = {"representation": {"basis": ["v1", "v2"], "action": ACTION}}
# a map V -> g with its own denominators, and an O-operator of (AFFINE, ACTION)
SKEW = {"operator": {"rows": [["1/7", "2/3"], ["0", "1"]]}}
BASE = {"operator": {"rows": [["0", "3"], ["0", "1/2"]]}}

# name: (command, {option: the JSON object written to the file it names})
CASES = {
    "deform":
        '{"at": [1, 2], "residual": {"e1": "11/63", "e2": "3/28"}}',
    "lie-antisymmetry": ("check-lie", {"--algebra": lie(
        "e1 e2".split(), ("e1", "e2", {"e1": "1/2"}), ("e2", "e1", {"e1": "1/3"}))}),
    "lie-jacobi": ("check-lie", {"--algebra": lie(
        "e1 e2 e3".split(), ("e1", "e2", {"e3": "1/2"}), ("e1", "e3", {"e2": "1/3"}),
        ("e2", "e3", {"e1": "2/3", "e2": "1/5"}))}),
    "rep": ("check-rep", {"--algebra": AFFINE, "--rep": {"representation": {
        "basis": ["v1", "v2"], "action": ACTION}}}),
    "sgla-degree": ("check-sgla", {"--sgla": sgla(MIXED, ("y", "w", {"x": "3/4"}))}),
    "sgla-symmetry": ("check-sgla", {"--sgla": sgla(
        MIXED, ("x", "y", {"w": "1/2"}), ("y", "x", {"w": "1/3"}))}),
    "sgla-leibniz": ("check-sgla", {"--sgla": sgla(
        (("x", -1), ("y", 0), ("z", 1)), ("x", "y", {"y": "1/2"}), ("x", "z", {"z": "1/3"}),
        ("y", "y", {"z": "2/5"}))}),
    "sdgla-square": ("check-sdgla", {
        "--sgla": sgla(LADDER),
        "--differential": {"differential": {"rows": [
            ["0", "0", "0"], ["1/2", "0", "0"], ["0", "1/3", "0"]]}}}),
    "sdgla-compatibility": ("check-sdgla", {
        "--sgla": sgla(LADDER, ("a", "b", {"b": "1/2"})),
        "--differential": {"differential": {"rows": [
            ["0", "0", "0"], ["0", "0", "0"], ["0", "1/3", "0"]]}}}),
    "graded-rep": ("check-graded-rep", {
        "--sgla": sgla(MIXED, ("x", "y", {"w": "1/2"})),
        "--grep": {"graded_rep": {"action": {
            "x": [["0", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]],
            "y": [["0", "0", "0"], ["0", "0", "0"], ["1/5", "0", "0"]]}}}}),
    "graded-rep-one-coordinate": ("check-graded-rep", {
        "--sgla": sgla((("e1", -1), ("e2", -1)), ("e1", "e2", {"e2": "1"})),
        "--grep": {"graded_rep": {"space": {"basis": [{"name": "v", "degree": -1}]},
                                  "action": UNIT_ACTION}}}),
    "phi-hom":
        '{"arity": 2, "at": [1, 2], "last": 2, "residual": {"v1": "1/420"}}',
    "phi-hom-constant":
        '{"arity": 1, "at": [1], "last": 2, "residual": {"v1": "1/280"}}',
    "prelie": ("check-prelie", {"--prelie": {"prelie": {"basis": ["e1", "e2"], "products": [
        {"left": "e1", "right": "e1", "value": {"e2": "1/2"}},
        {"left": "e2", "right": "e1", "value": {"e1": "1/3"}}]}}}),
    "mc":
        '{"at": [1, 2], "residual": {"e1": "2/63", "e2": "1/14"}}',
    "oop": ("check-oop", {
        "--algebra": AFFINE,
        "--rep": {"representation": {"basis": ["v1", "v2"], "action": ACTION}},
        "--op": {"operator": {"rows": [["1/7", "2/3"], ["0", "1"]]}}}),
    "rep-one-coordinate": ("check-rep", {"--algebra": UNIT, "--rep": {"representation": {
        "basis": ["v"], "action": UNIT_ACTION}}}),
    "rbo": ("check-rbo", {
        "--algebra": AFFINE,
        "--op": {"operator": {"rows": [["1/7", "0"], ["2/3", "1"]],
                              "domain": "g", "codomain": "g"}}}),
    "mc": ("mc-check", {"--algebra": AFFINE, "--rep": AFFINE_REP, "--op": SKEW}),
    "deform": ("deform", {"--algebra": AFFINE, "--rep": AFFINE_REP, "--base": BASE,
                          "--delta": SKEW}),
    "phi-hom": ("check-phi-hom", {"--algebra": AFFINE, "--rep": AFFINE_REP, "--left": SKEW,
                                  "--right": BASE}),
    "phi-hom-constant": ("check-phi-hom", {
        "--algebra": AFFINE, "--rep": AFFINE_REP,
        "--left": {"altmap": {"arity": 0, "entries": [{"args": [], "value": {"e2": "3/4"}}]}},
        "--right": SKEW}),
}


def run(tmp_path, name):
    command, files = CASES[name]
    args = ["--json-report", "-", command]
    for option, obj in files.items():
        path = tmp_path / f"{option.strip('-')}.json"
        path.write_text(json.dumps(obj))
        args += [option, str(path)]
    return CliRunner().invoke(main, args)


# the witness line of each case as the Fraction checks wrote it
WITNESS = {
    "graded-rep":
        '{"at": [1, 2], "part": "homomorphism", "residual": '
        '[["0", "0", "0"], ["0", "0", "0"], ["-1/15", "0", "0"]]}',
    "graded-rep-one-coordinate":
        '{"at": [1, 2], "part": "homomorphism", "residual": [["1/2"]]}',
    "deform":
        '{"at": [1, 2], "residual": {"e1": "11/63", "e2": "3/28"}}',
    "lie-antisymmetry":
        '{"at": [1, 2, 1], "residual": "5/6"}',
    "lie-jacobi":
        '{"at": [1, 2, 3], "residual": {"e3": "-1/10"}}',
    "mc":
        '{"at": [1, 2], "residual": {"e1": "2/63", "e2": "1/14"}}',
    "oop":
        '{"at": [1, 2], "residual": {"e1": "2/63", "e2": "1/14"}}',
    "phi-hom":
        '{"arity": 2, "at": [1, 2], "last": 2, "residual": {"v1": "1/420"}}',
    "phi-hom-constant":
        '{"arity": 1, "at": [1], "last": 2, "residual": {"v1": "1/280"}}',
    "prelie":
        '{"at": [1, 2, 1], "residual": {"e2": "-1/3"}}',
    "rbo":
        '{"at": [1, 2], "residual": {"e2": "-1/2"}}',
    "rep":
        '{"at": [1, 2], "residual": [["0", "1/30"], ["0", "0"]]}',
    "rep-one-coordinate":
        '{"at": [1, 2], "residual": [["1/2"]]}',
    "sdgla-compatibility":
        '{"at": [1, 2], "part": "compatibility", "residual": {"c": "1/6"}}',
    "sdgla-square":
        '{"at": [1], "part": "square", "residual": {"c": "1/6"}}',
    "sgla-degree":
        '{"at": [2, 3, 1], "residual": "3/4"}',
    "sgla-leibniz":
        '{"at": [1, 2, 2], "residual": {"z": "-4/15"}}',
    "sgla-symmetry":
        '{"at": [1, 2, 3], "residual": "1/6"}',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_report_bytes_are_pinned(tmp_path, name):
    res = run(tmp_path, name)
    command, witness = CASES[name][0], WITNESS[name]
    report = {"check": command, "order": None, "pass": False, "witness": json.loads(witness)}
    assert res.exit_code == 1
    assert res.output == (f"{command}: FAIL\n  witness: {witness}\n"
                          + json.dumps(report, indent=2, sort_keys=True) + "\n")
