import json
from fractions import Fraction

import pytest

from rotabaxter import serialize as ser
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
from rotabaxter.graded import adjoint_graded, from_lie
from rotabaxter.homotopy import GradedSymMap, induce_prelie_infinity
from rotabaxter.lie import adjoint, operator
from rotabaxter.prelie import HookedMap, prelie_product
from rotabaxter.serialize import Workspace


def test_scalar_round_trip():
    for text in ("3", "-7", "1/2", "-22/7", "0"):
        assert ser.scalar_str(ser.parse_scalar(text)) == str(Fraction(text))
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
    t = homotopy_operator_from_linear(operator([[0, 1], [0, 0]], "g", "g"),
                                      galg, galg.space, truncation=2)
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
    from rotabaxter.homotopy import HomotopyOperator

    t = HomotopyOperator(rep.space, alg.space, {0: comp0}, truncation=1)
    obj = ser.hop_to_obj(t)
    again = ser.hop_from_obj(obj, rep.space, alg.space)
    assert again.omega() == t.omega()


def test_sym_family_round_trip():
    import random

    from rotabaxter.homotopy import random_sym_family

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

    t = [x for x in search_homotopy_operators(alg, rep, (0, 1), 1, 4) if any(x.omega())][0]
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
