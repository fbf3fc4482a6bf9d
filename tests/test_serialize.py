import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotabaxter import errors, serialize as ser
from rotabaxter.catalog import (
    affine_line,
    natural_rep_affine,
    three_level_sgla,
    two_level_rep,
    two_level_sgla,
)
from rotabaxter.deformation import AltMap
from rotabaxter.embed import homotopy_operator_from_linear
from rotabaxter.errors import SchemaError, UnresolvedReferenceError
from rotabaxter.graded import adjoint_graded, check_sgla, from_lie, graded_space, sgla
from rotabaxter.homotopy import GradedSymMap, HomotopyOperator, induce_prelie_infinity
from rotabaxter.lie import adjoint, lie_algebra, operator
from rotabaxter.prelie import HookedMap, prelie_product
from rotabaxter.reports import scalar_text
from rotabaxter.serialize import Workspace

from helpers import omega, random_sym_family


def test_scalar_round_trip():
    for text in ("3", "-7", "1/2", "-22/7", "0"):
        assert scalar_text(ser.parse_scalar(text)) == str(Fraction(text))
    assert ser.parse_scalar(5) == Fraction(5)
    with pytest.raises(SchemaError):
        ser.parse_scalar("2/0")
    with pytest.raises(SchemaError):
        ser.parse_scalar("x")
    with pytest.raises(SchemaError):
        ser.parse_scalar(True)


def test_oversized_scalar_text_is_rejected(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"operator": {"rows": [["1e200000", "0"], ["0", "0"]]}}))
    payload = Workspace().load_file(str(path)).find("operator")
    with pytest.raises(SchemaError):
        ser.operator_from_obj(payload, 2, 2)
    for text in ("9" * 4301, "1/" + "7" * 4300, "1e-4301", "1.5E+4301"):
        with pytest.raises(SchemaError):
            ser.parse_scalar(text)
    assert ser.parse_scalar("1e-4300") == Fraction(1, 10 ** 4300)
    path.write_text('{"operator": {"rows": [[' + "9" * 4301 + ', 0], [0, 0]]}}')
    with pytest.raises(SchemaError):
        Workspace().load_file(str(path))


def test_lie_round_trip():
    alg = affine_line()
    obj = ser.lie_to_obj(alg)
    again = ser.lie_from_obj(obj)
    assert again == alg
    assert ser.lie_to_obj(again) == obj


def test_lie_antisymmetric_completion():
    obj = {"basis": ["e1", "e2"],
           "brackets": [{"left": "e1", "right": "e2", "value": {"e2": "1"}}]}
    alg = ser.lie_from_obj(obj)
    assert alg.c[1][0][1] == Fraction(-1)
    # explicit mirrors are taken verbatim, so broken inputs stay broken
    obj["brackets"].append({"left": "e2", "right": "e1", "value": {"e2": "1"}})
    from rotabaxter.lie import check_lie

    assert not check_lie(ser.lie_from_obj(obj)).ok


def test_rep_round_trip():
    alg = affine_line()
    for rep in (adjoint(alg), natural_rep_affine()):
        obj = ser.rep_to_obj(rep, alg)
        again = ser.rep_from_obj(obj, alg)
        assert again == rep
        assert ser.rep_to_obj(again, alg) == obj


def test_operator_round_trip():
    op = operator([[0, 1], [Fraction(1, 2), 0]], "g", "g")
    obj = ser.operator_to_obj(op)
    again = ser.operator_from_obj(obj)
    assert again == op
    assert ser.operator_to_obj(again) == obj


def test_altmap_round_trip():
    alg = affine_line()
    f = AltMap(2, 2, 2, {(0, 1): (Fraction(1, 2), Fraction(-1))})
    obj = ser.altmap_to_obj(f, alg.basis)
    assert obj["entries"][0]["args"] == [1, 2]  # 1-based externally
    again = ser.altmap_from_obj(obj, 2, alg.basis)
    assert again == f
    assert ser.altmap_to_obj(again, alg.basis) == obj


def test_prelie_round_trip():
    p = prelie_product(["e1", "e2"], {(1, 1): {1: 1}, (0, 1): {0: Fraction(1, 3)}})
    obj = ser.prelie_to_obj(p)
    again = ser.prelie_from_obj(obj)
    assert again == p
    assert ser.prelie_to_obj(again) == obj


def test_hooked_round_trip():
    h = HookedMap(1, 2, {((0,), 1): (Fraction(2), Fraction(0))})
    obj = ser.hooked_to_obj(h, ("v1", "v2"))
    again, names = ser.hooked_from_obj(obj)
    assert again == h and names == ("v1", "v2")
    assert ser.hooked_to_obj(again, names) == obj


def test_graded_space_and_sgla_round_trip():
    for g in (two_level_sgla(), three_level_sgla(), from_lie(affine_line())):
        obj = ser.sgla_to_obj(g)
        again = ser.sgla_from_obj(obj)
        assert again == g
        assert ser.sgla_to_obj(again) == obj


def test_sgla_graded_symmetric_completion():
    obj = {
        "space": {"basis": [{"name": "p", "degree": -1}, {"name": "q", "degree": 0},
                            {"name": "r", "degree": 1}]},
        "brackets": [{"left": "p", "right": "q", "value": {"q": "1"}},
                     {"left": "q", "right": "q", "value": {"r": "1"}},
                     {"left": "p", "right": "r", "value": {"r": "2"}}],
    }
    assert ser.sgla_from_obj(obj) == three_level_sgla()


def test_grep_round_trip():
    alg = two_level_sgla()
    rep = two_level_rep()
    obj = ser.grep_to_obj(rep, alg)
    again = ser.grep_from_obj(obj, alg)
    assert again == rep
    assert ser.grep_to_obj(again, alg) == obj
    adj = adjoint_graded(alg)
    assert ser.grep_from_obj(ser.grep_to_obj(adj, alg), alg) == adj


def test_homotopy_operator_round_trip():
    alg_u = affine_line()
    galg = from_lie(alg_u)
    linear = homotopy_operator_from_linear(operator([[0, 1], [0, 0]], "g", "g"),
                                           galg, galg.space)
    # a truncation above the top weight, which the file must keep
    t = HomotopyOperator(galg.space, galg.space, linear.components, truncation=2)
    obj = ser.hop_to_obj(t)
    assert obj["truncation"] == 2
    again = ser.hop_from_obj(obj, galg.space, galg.space)
    assert again.components == t.components and again.truncation == 2
    assert ser.hop_to_obj(again) == obj


def test_omega_component_round_trip():
    alg = two_level_sgla()
    rep = two_level_rep()
    comp0 = GradedSymMap(rep.space, alg.space, 0, 0,
                         {(): (Fraction(0), Fraction(1), Fraction(0))})
    t = HomotopyOperator(rep.space, alg.space, {0: comp0}, truncation=1)
    obj = ser.hop_to_obj(t)
    again = ser.hop_from_obj(obj, rep.space, alg.space)
    assert omega(again) == omega(t)


def test_sym_family_round_trip():
    import random

    alg = two_level_sgla()
    rep = two_level_rep()
    f = random_sym_family(random.Random(1), rep.space, alg.space, 1, 2)
    obj = ser.sym_family_to_obj(f)
    again = ser.sym_family_from_obj(obj, rep.space, alg.space)
    assert again == f
    assert ser.sym_family_to_obj(again) == obj


def test_prelie_infinity_round_trip():
    alg, rep = two_level_sgla(), two_level_rep()
    from rotabaxter.homotopy import search_homotopy_operators

    t = [x for x in search_homotopy_operators(alg, rep, (0, 1), 1, 4) if any(omega(x))][0]
    p = induce_prelie_infinity(t, alg, rep, 4)
    obj = ser.prelie_inf_to_obj(p)
    again = ser.prelie_inf_from_obj(obj)
    assert again == p
    assert ser.prelie_inf_to_obj(again) == obj


def test_workspace_kinds_and_lookup(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({
        "lie_algebra": {"basis": ["e1"], "brackets": []},
        "myop": {"operator": {"rows": [["0"]]}},
    }))
    ws = Workspace().load_file(str(path))
    assert ws.find("lie_algebra") is not None
    assert ws.find("operator", "myop") is not None
    with pytest.raises(UnresolvedReferenceError):
        ws.find("prelie")
    with pytest.raises(UnresolvedReferenceError):
        ws.find("operator", "lie_algebra")


def test_workspace_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mystery": {"what": 1}}))
    with pytest.raises(SchemaError):
        Workspace().load_file(str(path))


def test_workspace_parse_error_has_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"lie_algebra": }')
    with pytest.raises(SchemaError) as err:
        Workspace().load_file(str(path))
    assert "line" in str(err.value) and "column" in str(err.value)


# -- exact table writer ---------------------------------------------------------

COEFFS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])


@st.composite
def sparse_pairs(draw, n):
    """Sparse {(i, j): {k: coeff}} data; with explicit mirrors drawn, a pair
    and its mirror are usually inconsistent, otherwise only i <= j is listed
    and the completion fills the rest."""
    mirrors = draw(st.booleans())
    cells = [(i, j) for i in range(n) for j in range(n) if mirrors or i <= j]
    keys = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    return {key: draw(st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=n))
            for key in keys}


def through_json(obj):
    return json.loads(json.dumps(obj))


@given(st.data(), st.integers(1, 3))
def test_tables_round_trip_exactly(data, n):
    names = [f"e{i + 1}" for i in range(n)]
    degrees = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    pairs = data.draw(sparse_pairs(n))
    for x, to_obj, from_obj in (
            (lie_algebra(names, pairs), ser.lie_to_obj, ser.lie_from_obj),
            (sgla(graded_space(names, degrees), pairs), ser.sgla_to_obj, ser.sgla_from_obj),
            (prelie_product(names, pairs), ser.prelie_to_obj, ser.prelie_from_obj)):
        obj = through_json(to_obj(x))
        again = from_obj(obj)
        assert again == x
        assert to_obj(again) == obj


def test_table_writer_keeps_both_sides_of_a_broken_pair():
    # [e1, e2] = e2 and [e2, e1] = e2: both are written, and a zero side as {}
    alg = lie_algebra(["e1", "e2"], {(0, 1): {1: 1}, (1, 0): {1: 1}})
    assert [(b["left"], b["right"], b["value"]) for b in ser.lie_to_obj(alg)["brackets"]] == [
        ("e1", "e2", {"e2": "1"}), ("e2", "e1", {"e2": "1"})]
    half = lie_algebra(["e1", "e2"], {(0, 1): {1: 1}, (1, 0): {}})
    assert ser.lie_to_obj(half)["brackets"][1] == {"left": "e2", "right": "e1", "value": {}}
    assert ser.lie_from_obj(ser.lie_to_obj(half)) == half
    g = from_lie(alg)
    assert ser.sgla_from_obj(ser.sgla_to_obj(g)) == g
    assert not check_sgla(ser.sgla_from_obj(ser.sgla_to_obj(g))).ok


# -- malformed input --------------------------------------------------------------

ERRORS = tuple(cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, Exception))


def _fixtures():
    """(kind, valid payload, reader) for every entity kind."""
    affine = affine_line()
    g2, r2 = two_level_sgla(), two_level_rep()
    sp = {"basis": [{"name": "x", "degree": 0}, {"name": "y", "degree": 1}]}
    gaff = from_lie(affine)
    hooked = [{"args": [1], "last": 2, "value": {"v1": "1"}}]
    return [
        ("lie_algebra", {"basis": ["e1", "e2"],
                         "brackets": [{"left": "e1", "right": "e2", "value": {"e2": "1"}}]},
         ser.lie_from_obj),
        ("representation", {"basis": ["v1", "v2"],
                            "action": {"e1": [["1", "0"], ["0", "0"]]}},
         lambda o: ser.rep_from_obj(o, affine)),
        ("operator", {"rows": [["0", "1"], ["0", "0"]], "domain": "g", "codomain": "g"},
         lambda o: (ser.operator_from_obj(o), ser.operator_from_obj(o, 2, 2))),
        ("altmap", {"arity": 1, "entries": [{"args": [2], "value": {"e1": "1/2"}}]},
         lambda o: ser.altmap_from_obj(o, 2, affine.basis)),
        ("prelie", {"basis": ["v1", "v2"],
                    "products": [{"left": "v2", "right": "v2", "value": {"v2": "1"}}]},
         ser.prelie_from_obj),
        ("hooked_map", {"basis": ["v1", "v2"], "arity": 1, "entries": hooked},
         ser.hooked_from_obj),
        ("graded_space", sp, ser.gvs_from_obj),
        ("sgla", {"space": sp, "brackets": [{"left": "x", "right": "x", "value": {"y": "1"}}]},
         ser.sgla_from_obj),
        ("graded_rep", ser.grep_to_obj(r2, g2), lambda o: ser.grep_from_obj(o, g2)),
        ("differential", {"rows": [["0", "0"], ["1", "0"]]},
         lambda o: ser.differential_from_obj(o, 2)),
        ("homotopy_operator", {"truncation": 1, "components": [
            {"weight": 0, "value": {}},
            {"weight": 1, "entries": [{"args": ["e2"], "value": {"e1": "1"}}]}]},
         lambda o: ser.hop_from_obj(o, gaff.space, gaff.space)),
        ("prelie_infinity", {"space": sp, "truncation": 1,
                             "operations": [{"arity": 1, "entries": [
                                 {"args": [], "last": "x", "value": {"y": "1"}}]}]},
         ser.prelie_inf_from_obj),
        ("sym_family", {"degree": 0, "components": [
            {"weight": 1, "entries": [{"args": ["e2"], "value": {"e1": "1"}}]}]},
         lambda o: ser.sym_family_from_obj(o, gaff.space, gaff.space)),
    ]


FIXTURES = _fixtures()
OTHER_JSON = [None, True, 0, -1, 2, 1.5, "x", "", [], {}, ["x"], [[]], {"x": 1}, {"e1": "1"}]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _paths(val, prefix + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _paths(val, prefix + (i,))


def _mutated(node, path, value, drop):
    node = copy.deepcopy(node)
    if not path:
        return value
    *head, last = path
    parent = node
    for step in head:
        parent = parent[step]
    if drop:
        del parent[last]
    else:
        parent[last] = value
    return node


def test_every_kind_has_a_fuzz_fixture_that_reads():
    assert sorted(kind for kind, _, _ in FIXTURES) == sorted(ser.KINDS)
    for _, payload, reader in FIXTURES:
        reader(through_json(payload))


@given(st.data())
def test_a_mutated_field_raises_only_package_errors(data):
    kind, payload, reader = data.draw(st.sampled_from(FIXTURES), label="fixture")
    payload = through_json(payload)
    path = data.draw(st.sampled_from(list(_paths(payload))), label="path")
    drop = bool(path) and data.draw(st.booleans(), label="drop")
    value = None if drop else data.draw(st.sampled_from(OTHER_JSON), label="value")
    try:
        reader(_mutated(payload, path, value, drop))
    except ERRORS:
        pass


def test_a_repeated_basis_name_is_a_schema_error():
    with pytest.raises(SchemaError, match="repeats"):
        ser.lie_from_obj({"basis": ["e1", "e1"], "brackets": []})
    with pytest.raises(SchemaError, match="repeats"):
        ser.gvs_from_obj({"basis": [{"name": "x", "degree": 0}, {"name": "x", "degree": 1}]})
    with pytest.raises(SchemaError):
        ser.rep_from_obj({"basis": ["v"], "action": {"e3": [["1"]]}}, affine_line())


def test_a_component_above_the_truncation_is_a_schema_error():
    # the constructor drops such a component; a file that lists one is refused
    space = graded_space(["x"], [0])
    comp = {"weight": 2, "entries": [{"args": ["x", "x"], "value": {"x": "1"}}]}
    with pytest.raises(SchemaError, match="weight 2 above its truncation 1"):
        ser.hop_from_obj({"truncation": 1, "components": [comp]}, space, space)
    assert ser.hop_from_obj({"components": [comp]}, space, space).truncation == 2
    assert ser.hop_from_obj({"truncation": 3, "components": [comp]}, space, space).weights() == [2]


def test_unreadable_paths_are_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        Workspace().load_file(str(tmp_path))
    deep = tmp_path / "deep.json"
    deep.write_text('{"lie_algebra": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(SchemaError):
        Workspace().load_file(str(deep))


def test_workspace_reads_a_file_a_bundle_key_and_a_bare_key(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"lie_algebra": {"basis": ["e1"], "brackets": []},
                                 "P": {"operator": {"rows": [["1"]]}}}))
    second.write_text(json.dumps({"P": {"operator": {"rows": [["2"]]}},
                                  "rho": {"representation": {"basis": ["v"]}}}))
    ws = Workspace()
    alg = ws.read(str(first), "lie_algebra")
    assert alg.basis == ("e1",)
    assert ws.read(f"{second}:P", "operator").matrix == ((2,),)
    # a bare key reads the first file that registered it; the context goes to the reader
    assert ws.read("P", "operator", 1, 1).matrix == ((1,),)
    assert ws.read("rho", "representation", alg).basis == ("v",)
    scope, key = ws.scope(str(second))
    assert key is None and sorted(scope.raw) == ["P", "rho"]
    assert (scope.kind("rho", ("operator",)), scope.kind(None, ("altmap", "operator"))) == \
        ("representation", "operator")
    assert scope.kind(None, ("altmap", "prelie")) == "altmap"
    with pytest.raises(UnresolvedReferenceError) as exc:
        ws.read(f"{first}:Q", "operator")
    assert str(exc.value) == "no entity named 'Q'"
    with pytest.raises(UnresolvedReferenceError) as exc:
        ws.read("Q", "operator")
    assert str(exc.value) == "'Q' is neither a file nor a loaded entity"


def test_each_kind_is_read_by_its_own_reader():
    assert ser.KINDS == tuple(ser.READERS)
    for kind, reader in ser.READERS.items():
        assert reader.__module__ == ser.__name__ and reader.__name__.endswith("_from_obj"), kind
