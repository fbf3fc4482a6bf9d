"""JSON schemas for every entity kind, and the workspace that resolves them.

Scalars serialize as strings "p/q" or "p"; vectors as {basis name: scalar}
with zero entries omitted; matrices as row-major lists of scalar strings with
rows indexed by the codomain basis.  Indices in argument lists are 1-based in
files and 0-based in memory.

A file is one JSON object.  A top-level key that names a known kind defines
an entity of that kind; any other key must map to a single-entry object
{kind: payload} and defines a named entity.  Unlisted brackets are zero, with
the (anti)symmetric completion applied to pairs whose mirror is unlisted.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .deformation import AltMap
from .errors import SchemaError, UnresolvedReferenceError
from .graded import GradedRepresentation, GradedVectorSpace, SGLA, graded_space, sgla
from .homotopy import (
    GradedHookedMap,
    GradedSymFamily,
    GradedSymMap,
    HomotopyOperator,
    PreLieInfinity,
)
from .lie import LieAlgebra, LinearOperator, Representation, lie_algebra
from .linalg import Matrix, ZERO, matrix
from .prelie import HookedMap, PreLieProduct, prelie_product
from .reports import scalar_text as scalar_str

KINDS = (
    "lie_algebra",
    "representation",
    "operator",
    "altmap",
    "prelie",
    "hooked_map",
    "graded_space",
    "sgla",
    "graded_rep",
    "differential",
    "homotopy_operator",
    "prelie_infinity",
    "sym_family",
)


# Python's default limit on int <-> decimal string conversion.  Fraction
# expands an exponent into an integer, at a cost that grows faster than the
# exponent, so longer scalar text or a larger exponent is refused unparsed.
MAX_SCALAR_DIGITS = 4300


def parse_scalar(x) -> Fraction:
    if isinstance(x, bool):
        raise SchemaError(f"not a scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        _, _, exponent = x.lower().partition("e")
        try:
            exponent = abs(int(exponent)) if exponent else 0
        except ValueError:
            exponent = 0  # malformed: Fraction rejects the text below
        if exponent > MAX_SCALAR_DIGITS or sum(c.isdigit() for c in x) > MAX_SCALAR_DIGITS:
            raise SchemaError(f"scalar exceeds {MAX_SCALAR_DIGITS} digits or exponent")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad scalar {x!r}: {exc}") from None
    raise SchemaError(f"not a scalar: {x!r}")


def _index(names, name) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise SchemaError(f"unknown basis element {name!r}") from None


def parse_value(obj, names) -> tuple[Fraction, ...]:
    if not isinstance(obj, dict):
        raise SchemaError("coefficient values must be objects keyed by basis name")
    vec = [ZERO] * len(names)
    for name, coeff in obj.items():
        vec[_index(names, name)] = parse_scalar(coeff)
    return tuple(vec)


def value_obj(vec, names) -> dict:
    return {name: scalar_str(x) for name, x in zip(names, vec) if x}


def _one_based(a) -> int:
    return int(a) - 1


def _entries_from_obj(items, index, names, free=False) -> dict:
    """Map entries from their file form; ``index`` reads one argument."""
    entries = {}
    for item in items:
        word = tuple(index(a) for a in item["args"])
        key = (word, index(item["last"])) if free else word
        entries[key] = parse_value(item["value"], names)
    return entries


def _entries_obj(m, label, names) -> list[dict]:
    """The file form of a map's entries in key order; ``label`` writes one argument."""
    out = []
    for key in sorted(m.entries):
        word, last = key if m.free else (key, None)
        item = {"args": [label(i) for i in word], "value": value_obj(m.entries[key], names)}
        if m.free:
            item["last"] = label(last)
        out.append(item)
    return out


def parse_matrix(rows, nrows, ncols) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise SchemaError(f"expected {nrows} matrix rows")
    if any(not isinstance(r, list) or len(r) != ncols for r in rows):
        raise SchemaError(f"expected rows of length {ncols}")
    return matrix([[parse_scalar(x) for x in row] for row in rows])


def matrix_obj(m) -> list[list[str]]:
    return [[scalar_str(x) for x in row] for row in m]


# -- ungraded entities --------------------------------------------------------

def lie_from_obj(obj) -> LieAlgebra:
    names = tuple(obj.get("basis", ()))
    if not names:
        raise SchemaError("lie_algebra needs a nonempty basis")
    brackets = {}
    for item in obj.get("brackets", ()):
        i = _index(names, item["left"])
        j = _index(names, item["right"])
        brackets[(i, j)] = {
            _index(names, k): parse_scalar(v) for k, v in item["value"].items()
        }
    return lie_algebra(names, brackets)


def lie_to_obj(alg: LieAlgebra) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            val = value_obj(alg.c[i][j], alg.basis)
            if val:
                brackets.append({"left": alg.basis[i], "right": alg.basis[j], "value": val})
    return {"basis": list(alg.basis), "brackets": brackets}


def rep_from_obj(obj, alg: LieAlgebra) -> Representation:
    names = tuple(obj.get("basis", ()))
    if not names:
        raise SchemaError("representation needs a nonempty module basis")
    action = obj.get("action", {})
    mats = []
    for g_name in alg.basis:
        if g_name in action:
            mats.append(parse_matrix(action[g_name], len(names), len(names)))
        else:
            mats.append(matrix([[0] * len(names)] * len(names)))
    return Representation(names, tuple(mats))


def rep_to_obj(rep: Representation, alg: LieAlgebra) -> dict:
    action = {}
    for g_name, m in zip(alg.basis, rep.matrices):
        if any(any(row) for row in m):
            action[g_name] = matrix_obj(m)
    return {"basis": list(rep.basis), "action": action}


def operator_from_obj(obj, nrows=None, ncols=None) -> LinearOperator:
    rows = obj.get("rows")
    if rows is None:
        raise SchemaError("operator needs a 'rows' matrix")
    if nrows is None:
        nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return LinearOperator(
        parse_matrix(rows, nrows, ncols),
        obj.get("domain", "V"),
        obj.get("codomain", "g"),
    )


def operator_to_obj(op: LinearOperator) -> dict:
    return {"rows": matrix_obj(op.matrix), "domain": op.domain, "codomain": op.codomain}


def altmap_from_obj(obj, dim_dom, cod_names) -> AltMap:
    arity = obj.get("arity")
    if not isinstance(arity, int) or arity < 0:
        raise SchemaError("altmap needs a non-negative integer arity")
    entries = _entries_from_obj(obj.get("entries", ()), _one_based, cod_names)
    return AltMap(arity, dim_dom, len(cod_names), entries)


def altmap_to_obj(f: AltMap, cod_names) -> dict:
    return {"arity": f.arity, "entries": _entries_obj(f, lambda i: i + 1, cod_names)}


def prelie_from_obj(obj) -> PreLieProduct:
    names = tuple(obj.get("basis", ()))
    if not names:
        raise SchemaError("prelie needs a nonempty basis")
    products = {}
    for item in obj.get("products", ()):
        i = _index(names, item["left"])
        j = _index(names, item["right"])
        products[(i, j)] = {
            _index(names, k): parse_scalar(v) for k, v in item["value"].items()
        }
    return prelie_product(names, products)


def prelie_to_obj(p: PreLieProduct) -> dict:
    products = []
    for i in range(p.dim):
        for j in range(p.dim):
            val = value_obj(p.mu[i][j], p.basis)
            if val:
                products.append({"left": p.basis[i], "right": p.basis[j], "value": val})
    return {"basis": list(p.basis), "products": products}


def hooked_from_obj(obj) -> tuple[HookedMap, tuple[str, ...]]:
    names = tuple(obj.get("basis", ()))
    if not names:
        raise SchemaError("hooked_map needs a nonempty basis")
    arity = obj.get("arity")
    if not isinstance(arity, int) or arity < 0:
        raise SchemaError("hooked_map needs a non-negative integer arity")
    entries = _entries_from_obj(obj.get("entries", ()), _one_based, names, free=True)
    return HookedMap(arity, len(names), entries), names


def hooked_to_obj(h: HookedMap, names) -> dict:
    return {"basis": list(names), "arity": h.arity,
            "entries": _entries_obj(h, lambda i: i + 1, names)}


# -- graded entities ----------------------------------------------------------

def gvs_from_obj(obj) -> GradedVectorSpace:
    basis = obj.get("basis")
    if not basis:
        raise SchemaError("graded_space needs a nonempty basis")
    names, degrees = [], []
    for item in basis:
        names.append(item["name"])
        degrees.append(int(item["degree"]))
    return graded_space(names, degrees)


def gvs_to_obj(space: GradedVectorSpace) -> dict:
    return {"basis": [{"name": n, "degree": d}
                      for n, d in zip(space.basis, space.degrees)]}


def sgla_from_obj(obj, default_space: GradedVectorSpace | None = None) -> SGLA:
    if "space" in obj:
        space = gvs_from_obj(obj["space"])
    elif default_space is not None:
        space = default_space
    else:
        raise SchemaError("sgla needs an embedded 'space' or a graded_space in the file")
    names = space.basis
    brackets = {}
    for item in obj.get("brackets", ()):
        i = _index(names, item["left"])
        j = _index(names, item["right"])
        brackets[(i, j)] = {
            _index(names, k): parse_scalar(v) for k, v in item["value"].items()
        }
    return sgla(space, brackets)


def sgla_to_obj(g: SGLA) -> dict:
    brackets = []
    seen = set()
    for i in range(g.dim):
        for j in range(g.dim):
            if (j, i) in seen:
                continue
            val = value_obj(g.b[i][j], g.space.basis)
            if val:
                brackets.append({"left": g.space.basis[i],
                                 "right": g.space.basis[j], "value": val})
                seen.add((i, j))
    return {"space": gvs_to_obj(g.space), "brackets": brackets}


def grep_from_obj(obj, alg: SGLA) -> GradedRepresentation:
    space = gvs_from_obj(obj["space"]) if "space" in obj else alg.space
    action = obj.get("action", {})
    mats = []
    for g_name in alg.space.basis:
        if g_name in action:
            mats.append(parse_matrix(action[g_name], space.dim, space.dim))
        else:
            mats.append(matrix([[0] * space.dim] * space.dim))
    return GradedRepresentation(space, tuple(mats))


def grep_to_obj(rep: GradedRepresentation, alg: SGLA) -> dict:
    action = {}
    for g_name, m in zip(alg.space.basis, rep.matrices):
        if any(any(row) for row in m):
            action[g_name] = matrix_obj(m)
    return {"space": gvs_to_obj(rep.space), "action": action}


def _component_from_obj(item, space: GradedVectorSpace, target: GradedVectorSpace,
                        degree: int) -> GradedSymMap:
    weight = item.get("weight")
    if not isinstance(weight, int) or weight < 0:
        raise SchemaError("component needs a non-negative integer weight")
    entries = {}
    if weight == 0:
        if "value" in item:
            entries[()] = parse_value(item["value"], target.basis)
    else:
        entries = _entries_from_obj(item.get("entries", ()), space.index, target.basis)
    return GradedSymMap(space, target, weight, degree, entries)


def _component_to_obj(comp: GradedSymMap) -> dict:
    if comp.weight == 0:
        val = comp.entries.get((), ())
        return {"weight": 0, "value": value_obj(val, comp.target.basis)}
    return {"weight": comp.weight,
            "entries": _entries_obj(comp, comp.space.basis.__getitem__, comp.target.basis)}


def hop_from_obj(obj, space: GradedVectorSpace, target: GradedVectorSpace) -> HomotopyOperator:
    truncation = obj.get("truncation")
    comps = {}
    for item in obj.get("components", ()):
        comp = _component_from_obj(item, space, target, 0)
        comps[comp.weight] = comp
    return HomotopyOperator(space, target, comps, truncation)


def hop_to_obj(t: HomotopyOperator) -> dict:
    return {
        "truncation": t.truncation,
        "components": [_component_to_obj(t.component(w)) for w in t.weights()],
    }


def sym_family_from_obj(obj, space: GradedVectorSpace, target: GradedVectorSpace) -> GradedSymFamily:
    degree = obj.get("degree")
    if not isinstance(degree, int):
        raise SchemaError("sym_family needs an integer degree")
    comps = {}
    for item in obj.get("components", ()):
        comp = _component_from_obj(item, space, target, degree)
        comps[comp.weight] = comp
    return GradedSymFamily(space, target, degree, comps)


def sym_family_to_obj(f: GradedSymFamily) -> dict:
    return {
        "degree": f.degree,
        "components": [_component_to_obj(f.component(w)) for w in f.weights()],
    }


def prelie_inf_from_obj(obj) -> PreLieInfinity:
    space = gvs_from_obj(obj["space"])
    truncation = obj.get("truncation")
    if not isinstance(truncation, int) or truncation < 1:
        raise SchemaError("prelie_infinity needs a positive integer truncation")
    ops = {}
    for item in obj.get("operations", ()):
        k = item.get("arity")
        if not isinstance(k, int) or k < 1:
            raise SchemaError("operation needs a positive integer arity")
        entries = _entries_from_obj(item.get("entries", ()), space.index, space.basis,
                                    free=True)
        ops[k] = GradedHookedMap(space, k - 1, 1, entries)
    return PreLieInfinity(space, truncation, ops)


def prelie_inf_to_obj(p: PreLieInfinity) -> dict:
    operations = []
    for k, op in sorted(p.ops.items()):
        operations.append({"arity": k,
                           "entries": _entries_obj(op, p.space.basis.__getitem__, p.space.basis)})
    return {"space": gvs_to_obj(p.space), "truncation": p.truncation,
            "operations": operations}


# -- workspace ----------------------------------------------------------------

class Workspace:
    """Named raw entities collected from one or more JSON files.

    Typed objects are built on demand by the commands, which supply the
    contextual entities (an algebra for a representation, spaces for a
    homotopy operator, and so on).
    """

    def __init__(self):
        self.raw: dict[str, tuple[str, object]] = {}

    def add(self, name: str, kind: str, payload):
        if kind not in KINDS:
            raise SchemaError(f"unknown entity kind {kind!r}")
        self.raw[name] = (kind, payload)

    def load_file(self, path: str):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except ValueError as exc:  # an integer literal beyond the int-string limit
            raise SchemaError(f"{path}: {exc}") from None
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}: top level must be a JSON object")
        for key, val in obj.items():
            if key in KINDS:
                self.add(key, key, val)
            elif isinstance(val, dict) and len(val) == 1 and next(iter(val)) in KINDS:
                kind = next(iter(val))
                self.add(key, kind, val[kind])
            else:
                raise SchemaError(
                    f"{path}: entry {key!r} is neither a known kind nor a "
                    "single-entry object naming one"
                )
        return self

    def find(self, kind: str, key: str | None = None):
        if key is not None:
            if key not in self.raw:
                raise UnresolvedReferenceError(f"no entity named {key!r}")
            got_kind, payload = self.raw[key]
            if got_kind != kind:
                raise UnresolvedReferenceError(
                    f"entity {key!r} has kind {got_kind!r}, expected {kind!r}"
                )
            return payload
        matches = [(name, payload) for name, (k, payload) in self.raw.items() if k == kind]
        if not matches:
            raise UnresolvedReferenceError(f"no entity of kind {kind!r} loaded")
        if len(matches) > 1:
            names = ", ".join(name for name, _ in matches)
            raise UnresolvedReferenceError(
                f"several entities of kind {kind!r} ({names}); address one by key"
            )
        return matches[0][1]
