"""Typed errors that no other test reaches: each guard raises its package
error with its own message, and the two small operations next to them
(``LinearOperator.__add__`` and ``Report.__bool__``) give their results."""

import json

import pytest

from rotabaxter import serialize as ser
from rotabaxter.catalog import affine_line, two_level_rep, two_level_sgla
from rotabaxter.deformation import AltMap
from rotabaxter.embed import homotopy_operator_from_linear
from rotabaxter.errors import BoundError, SchemaError, ShapeMismatchError
from rotabaxter.graded import GradedRepresentation, adjoint_graded, from_lie, graded_space
from rotabaxter.homotopy import (
    GradedHookFamily,
    HomotopyOperator,
    GradedHookedMap,
    GradedSymFamily,
    GradedSymMap,
    PreLieInfinity,
    hook_compose,
    induce_prelie_infinity,
    is_homotopy_oop,
    psi,
    search_homotopy_operators,
)
from rotabaxter.lie import Representation, adjoint, operator
from rotabaxter.linalg import LinearOperator, matrix
from rotabaxter.prelie import induce_prelie, phi
from rotabaxter.reports import Report
from rotabaxter.serialize import Workspace

X = graded_space(["x"], [0])
XY = graded_space(["x", "y"], [0, 1])


def _cases():
    """(id, call, error class, exact message) for every guard."""
    galg = from_lie(affine_line())
    grep = adjoint_graded(galg)
    g2, r2 = two_level_sgla(), two_level_rep()
    # the affine line and its adjoint action with the last row of each matrix
    # cut off: one 1x2 matrix per basis element on a 2-dimensional module
    line = affine_line()
    adj = adjoint(line)
    cut = Representation(adj.basis, tuple(m[:-1] for m in adj.matrices))
    gcut = GradedRepresentation(grep.space, tuple(m[:-1] for m in grep.matrices))
    identity = GradedSymMap(grep.space, galg.space, 1, 0, {(0,): (1, 0), (1,): (0, 1)})
    not_square = "action matrices must be square of the module dimension"
    return [
        ("embed: operator shape",
         lambda: homotopy_operator_from_linear(operator([[1, 0, 0], [0, 1, 0]]), galg, grep.space),
         ShapeMismatchError, "operator does not match the graded spaces"),
        ("SparseMap: free argument out of range",
         lambda: GradedHookedMap(XY, 1, 1, {((0,), 2): (0, 1)}),
         ShapeMismatchError, "free argument 2 out of range"),
        ("SparseMap: eval_lasts without a free slot",
         lambda: GradedSymMap(X, X, 1, 0).eval_lasts((0,)),
         ShapeMismatchError, "expected 1 arguments of a map with a free slot"),
        ("SparseMap: + across weights",
         lambda: GradedSymMap(X, X, 1, 0) + GradedSymMap(X, X, 2, 0),
         ShapeMismatchError, "maps live on different spaces, weights or degrees"),
        ("SparseFamily: component on another space",
         lambda: GradedSymFamily(X, X, 0, {1: GradedSymMap(XY, XY, 1, 0, {(0,): (1, 0)})}),
         ShapeMismatchError, "component space, degree or weight mismatch"),
        ("SparseFamily: component under another weight",
         lambda: GradedSymFamily(X, X, 0, {2: GradedSymMap(X, X, 1, 0, {(0,): (1,)})}),
         ShapeMismatchError, "component space, degree or weight mismatch"),
        ("SparseFamily: + across degrees",
         lambda: GradedSymFamily(X, X, 0) + GradedSymFamily(X, X, 1),
         ShapeMismatchError, "families live on different spaces or degrees"),
        ("is_homotopy_oop: a degree-1 family",
         lambda: is_homotopy_oop(GradedSymFamily(grep.space, galg.space, 1), galg, grep, 2),
         ShapeMismatchError, "homotopy operators are degree-0 families"),
        ("psi: another module",
         lambda: psi(GradedSymFamily(X, galg.space, 0), grep),
         ShapeMismatchError, "family and action live on different modules"),
        ("psi: values outside the algebra",
         lambda: psi(GradedSymFamily(grep.space, X, 0), grep),
         ShapeMismatchError, "family values do not match the algebra of the action"),
        ("phi: another module",
         lambda: phi(AltMap(1, 3, 2, {}), adjoint(affine_line())),
         ShapeMismatchError, "map and representation live on different modules"),
        ("phi: values outside the algebra",
         lambda: phi(AltMap(1, 2, 3, {}), adjoint(affine_line())),
         ShapeMismatchError, "map values do not match the algebra of the representation"),
        ("phi: a non-square action",
         lambda: phi(AltMap(1, 2, 2, {(0,): (1, 0), (1,): (0, 1)}), cut),
         ShapeMismatchError, not_square),
        ("psi: a non-square action",
         lambda: psi(GradedSymFamily(grep.space, galg.space, 0, {1: identity}), gcut),
         ShapeMismatchError, not_square),
        ("induce_prelie_infinity: a non-square action, forced",
         lambda: induce_prelie_infinity(
             HomotopyOperator(grep.space, galg.space, {1: identity}), galg, gcut, force=True),
         ShapeMismatchError, not_square),
        ("induce_prelie: a 2x3 operator, forced",
         lambda: induce_prelie(operator([[1, 0, 1], [0, 1, 1]]), line, adj, force=True),
         ShapeMismatchError, "operator is 2x3, expected 2x2"),
        ("induce_prelie: a 2x1 operator, forced",
         lambda: induce_prelie(operator([[1], [0]]), line, adj, force=True),
         ShapeMismatchError, "operator is 2x1, expected 2x2"),
        ("induce_prelie: a 3x2 operator, forced",
         lambda: induce_prelie(operator([[1, 0], [0, 1], [1, 1]]), line, adj, force=True),
         ShapeMismatchError, "operator is 3x2, expected 2x2"),
        ("induce_prelie: a non-square action, forced",
         lambda: induce_prelie(operator([[1, 0], [0, 1]]), line, cut, force=True),
         ShapeMismatchError, not_square),
        ("hook_compose: across spaces",
         lambda: hook_compose(GradedHookFamily(X, 1), GradedHookFamily(XY, 1)),
         ShapeMismatchError, "families live on different spaces"),
        ("PreLieInfinity: index above the truncation",
         lambda: PreLieInfinity(XY, 2, {3: GradedHookedMap(XY, 2, 1)}),
         ShapeMismatchError, "operation index 3 outside 1..2"),
        ("PreLieInfinity: index 0",
         lambda: PreLieInfinity(XY, 2, {0: GradedHookedMap(XY, 0, 1)}),
         ShapeMismatchError, "operation index 0 outside 1..2"),
        ("search_homotopy_operators: empty grid",
         lambda: search_homotopy_operators(g2, r2, []),
         BoundError, "search grid must be nonempty"),
        ("linalg.matrix: ragged rows",
         lambda: matrix([[1, 2], [3]]),
         ShapeMismatchError, "ragged matrix"),
        ("LinearOperator.__add__: shapes differ",
         lambda: operator([[1, 2], [3, 4]]) + operator([[1], [2]]),
         ShapeMismatchError, "operator shapes differ"),
        ("parse_scalar: a malformed exponent",
         lambda: ser.parse_scalar("1ex"),
         SchemaError, "bad scalar '1ex': Invalid literal for Fraction: '1ex'"),
        ("operator_from_obj: no rows",
         lambda: ser.operator_from_obj({"domain": "g"}),
         SchemaError, "operator needs a 'rows' matrix"),
        ("Workspace.add: unknown kind",
         lambda: Workspace().add("x", "tensor", {}),
         SchemaError, "unknown entity kind 'tensor'"),
    ]


CASES = _cases()


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_each_guard_raises_its_typed_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_a_file_whose_top_level_is_a_list_is_a_schema_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([]))
    with pytest.raises(SchemaError) as exc:
        Workspace().load_file(str(path))
    assert str(exc.value) == f"{path}: top level must be a JSON object"


def test_operators_add_entrywise_and_keep_their_spaces():
    total = LinearOperator(matrix([[1, 2], ["1/2", 0]]), "g", "g") + operator([[0, 1], [1, 0]])
    assert total == LinearOperator(matrix([[1, 3], ["3/2", 0]]), "g", "g")


def test_a_report_is_true_exactly_when_it_passes():
    assert bool(Report("check", True)) is True
    assert bool(Report("check", False, witness={"at": [1]})) is False
