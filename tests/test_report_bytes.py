"""The report bytes of the structure-axiom checks, the O-operator checks,
the deformation-complex checks and the homotopy checks on failing inputs
with rational constants, pinned.

Each case runs one command through ``cli.main`` with ``--json-report -`` and
compares its whole output with pinned text: the Fraction implementation of
the axiom and O-operator checks wrote it, the ungraded bracket sum wrote
the mc-check, deform and check-phi-hom cases before those commands ran the
graded bracket kernel, and the homotopy cases (check-hoop,
mc-check-homotopy, check-psi-hom) were written before the phi and psi
checks shared one witness.  The constants carry different denominators
in the algebra, the action, the differential and the operators or maps,
so a witness divided back by the wrong power of a denominator, or by the
wrong one, changes the bytes.
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
# a degree-1 action of (MIXED, [x, y] = w/2) on its own space that is no
# representation, so the graded checks fail on it; families and an operator
# on that space with their own denominators
MIXED_SGLA = sgla(MIXED, ("x", "y", {"w": "1/2"}))
MIXED_REP = {"graded_rep": {"action": {
    "x": [["0", "0", "0"], ["0", "0", "0"], ["0", "1/3", "0"]],
    "y": [["0", "0", "0"], ["1/5", "0", "0"], ["0", "0", "0"]],
    "w": [["0", "0", "0"], ["0", "0", "0"], ["1/7", "0", "0"]]}}}
MIXED_F = {"sym_family": {"degree": -1, "components": [
    {"weight": 1, "entries": [{"args": ["y"], "value": {"x": "2/3"}}]}]}}
MIXED_G = {"sym_family": {"degree": 0, "components": [
    {"weight": 0, "value": {"y": "5/6", "w": "1/9"}},
    {"weight": 1, "entries": [{"args": ["x"], "value": {"x": "4/11"}}]}]}}
MIXED_HOP = {"homotopy_operator": {"truncation": 1, "components": [
    {"weight": 0, "value": {"y": "2/3"}},
    {"weight": 1, "entries": [{"args": ["x"], "value": {"x": "3/4"}},
                              {"args": ["w"], "value": {"y": "1/6"}}]}]}}

# name: (command, {option: the JSON object written to the file it names}),
# and for the graded checks the weight bound, passed as --p-max and stated
# as the report's order
CASES = {
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
    "prelie": ("check-prelie", {"--prelie": {"prelie": {"basis": ["e1", "e2"], "products": [
        {"left": "e1", "right": "e1", "value": {"e2": "1/2"}},
        {"left": "e2", "right": "e1", "value": {"e1": "1/3"}}]}}}),
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
    "psi-hom": ("check-psi-hom", {"--sgla": MIXED_SGLA, "--grep": MIXED_REP,
                                  "--left": MIXED_F, "--right": MIXED_G}, 2),
    "psi-hom-sweep": ("check-psi-hom", {"--sgla": MIXED_SGLA, "--grep": MIXED_REP}, 2),
    "hoop": ("check-hoop", {"--sgla": MIXED_SGLA, "--grep": MIXED_REP, "--hop": MIXED_HOP}, 2),
    "mc-homotopy": ("mc-check-homotopy", {"--sgla": MIXED_SGLA, "--grep": MIXED_REP,
                                          "--hop": MIXED_HOP}, 2),
}


def case(name):
    """(command, files, order) of a case; order is None for the ungraded ones."""
    command, files, *order = CASES[name]
    return command, files, (order or [None])[0]


def run(tmp_path, name):
    command, files, order = case(name)
    args = ["--json-report", "-"] + ([] if order is None else ["--p-max", str(order)]) + [command]
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
    "hoop":
        '{"at": ["x"], "residual": {"w": "1/4"}, "weight": 1}',
    "mc-homotopy":
        '{"at": ["x"], "residual": {"w": "1/4"}, "weight": 1}',
    "psi-hom":
        '{"at": ["y"], "last": "x", "residual": {"w": "-1/378"}, "weight": 1}',
    "psi-hom-sweep":
        '{"at": [], "last": "x", "left": {"sym_family": {"components": '
        '[{"value": {"x": "1"}, "weight": 0}], "degree": -1}}, "residual": {"w": "-1/210"}, '
        '"right": {"sym_family": {"components": [{"value": {"y": "1"}, "weight": 0}], '
        '"degree": 0}}, "weight": 0}',
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
    command, _, order = case(name)
    witness = WITNESS[name]
    report = {"check": command, "order": order, "pass": False, "witness": json.loads(witness)}
    assert res.exit_code == 1
    headline = f"{command}: FAIL" + ("" if order is None else f" (order={order})")
    assert res.output == (f"{headline}\n  witness: {witness}\n"
                          + json.dumps(report, indent=2, sort_keys=True) + "\n")
