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
import os
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
from .combinatorics import parity_sign
from .linalg import Matrix, ZERO, matrix
from .prelie import HookedMap, PreLieProduct, prelie_product
from .reports import matrix_text as matrix_obj, named_residual as value_obj

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


_REQUIRED = object()


def _field(obj, key, default=_REQUIRED, kind=None):
    """obj[key] of a JSON object, of Python type ``kind`` when given, or
    ``default`` when the key is absent."""
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a JSON object with {key!r}, got {type(obj).__name__}")
    if key not in obj:
        if default is _REQUIRED:
            raise SchemaError(f"missing field {key!r}")
        return default
    if kind is not None and not isinstance(obj[key], kind):
        raise SchemaError(f"field {key!r} must be a JSON {'object' if kind is dict else 'list'}")
    return obj[key]


def _int(x, message, low=None) -> int:
    """An integer (not a boolean) of at least ``low``, else SchemaError(message)."""
    if isinstance(x, bool) or not isinstance(x, int) or (low is not None and x < low):
        raise SchemaError(message)
    return x


def _names(names, kind, what="basis") -> tuple[str, ...]:
    """A nonempty basis of distinct string names."""
    if not isinstance(names, list) or not names:
        raise SchemaError(f"{kind} needs a nonempty {what}")
    if not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{kind} basis names must be strings")
    if len(set(names)) < len(names):
        raise SchemaError(f"{kind} basis repeats a name")
    return tuple(names)


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


def _one_based(a) -> int:
    return _int(a, f"argument {a!r} is not a 1-based integer index") - 1


def _entries_from_obj(items, index, names, free=False) -> dict:
    """Map entries from their file form; ``index`` reads one argument."""
    entries = {}
    for item in items:
        word = tuple(index(a) for a in _field(item, "args", kind=list))
        key = (word, index(_field(item, "last"))) if free else word
        entries[key] = parse_value(_field(item, "value"), names)
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


# -- structure tables and actions ---------------------------------------------
#
# A bracket or product table is a list of {"left", "right", "value"} items,
# an action one matrix per algebra basis name (a zero one omitted).


def _pairs_from_obj(items, names) -> dict:
    """Sparse table data ``{(i, j): {k: coeff}}``; the builders complete it."""
    pairs = {}
    for item in items:
        i = _index(names, _field(item, "left"))
        j = _index(names, _field(item, "right"))
        pairs[(i, j)] = dict(enumerate(parse_value(_field(item, "value"), names)))
    return pairs


def _table_obj(t, names, degrees=None) -> list[dict]:
    """The exact file form of a table, in row-major order.

    With ``degrees``, a pair the reader's completion restores is written
    from its upper side when nonzero; a pair that breaks (graded)
    antisymmetry is written on both sides, a zero side as ``{}``, and read
    back verbatim.  Any other pair is written when nonzero.
    """
    out = []
    for i, plane in enumerate(t):
        for j, val in enumerate(plane):
            if degrees is None or i == j:
                keep = any(val)
            else:
                s = parity_sign(degrees[i] * degrees[j])
                keep = (i < j and any(val)) or any(x != s * y for x, y in zip(val, t[j][i]))
            if keep:
                out.append({"left": names[i], "right": names[j], "value": value_obj(val, names)})
    return out


def _action_from_obj(obj, g_names, d) -> tuple[Matrix, ...]:
    action = _field(obj, "action", {}, dict)
    for g_name in action:
        _index(g_names, g_name)
    zero = matrix([[0] * d] * d)
    return tuple(parse_matrix(action[g_name], d, d) if g_name in action else zero
                 for g_name in g_names)


def _action_obj(matrices, g_names) -> dict:
    return {g_name: matrix_obj(m) for g_name, m in zip(g_names, matrices)
            if any(any(row) for row in m)}


# -- ungraded entities --------------------------------------------------------

def lie_from_obj(obj) -> LieAlgebra:
    names = _names(_field(obj, "basis", None), "lie_algebra")
    return lie_algebra(names, _pairs_from_obj(_field(obj, "brackets", [], list), names))


def lie_to_obj(alg: LieAlgebra) -> dict:
    return {"basis": list(alg.basis),
            "brackets": _table_obj(alg.c, alg.basis, (-1,) * alg.dim)}


def rep_from_obj(obj, alg: LieAlgebra) -> Representation:
    names = _names(_field(obj, "basis", None), "representation", "module basis")
    return Representation(names, _action_from_obj(obj, alg.basis, len(names)))


def rep_to_obj(rep: Representation, alg: LieAlgebra) -> dict:
    return {"basis": list(rep.basis), "action": _action_obj(rep.matrices, alg.basis)}


def operator_from_obj(obj, nrows=None, ncols=None) -> LinearOperator:
    rows = _field(obj, "rows", None)
    if not isinstance(rows, list):
        raise SchemaError("operator needs a 'rows' matrix")
    if nrows is None:
        nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows and isinstance(rows[0], list) else 0
    domain = _field(obj, "domain", "V")
    if domain not in ("V", "g"):
        raise SchemaError(f"operator domain must be \"V\" or \"g\", got {domain!r}")
    codomain = _field(obj, "codomain", "g")
    if codomain != "g":
        raise SchemaError(f"operator codomain must be \"g\", got {codomain!r}")
    return LinearOperator(parse_matrix(rows, nrows, ncols), domain, codomain)


def operator_to_obj(op: LinearOperator) -> dict:
    return {"rows": matrix_obj(op.matrix), "domain": op.domain, "codomain": op.codomain}


def differential_from_obj(obj, n) -> Matrix:
    return parse_matrix(_field(obj, "rows", None), n, n)


def altmap_from_obj(obj, dim_dom, cod_names) -> AltMap:
    arity = _int(_field(obj, "arity", None), "altmap needs a non-negative integer arity", 0)
    entries = _entries_from_obj(_field(obj, "entries", [], list), _one_based, cod_names)
    return AltMap(arity, dim_dom, len(cod_names), entries)


def altmap_to_obj(f: AltMap, cod_names) -> dict:
    return {"arity": f.arity, "entries": _entries_obj(f, lambda i: i + 1, cod_names)}


def prelie_from_obj(obj) -> PreLieProduct:
    names = _names(_field(obj, "basis", None), "prelie")
    return prelie_product(names, _pairs_from_obj(_field(obj, "products", [], list), names))


def prelie_to_obj(p: PreLieProduct) -> dict:
    return {"basis": list(p.basis), "products": _table_obj(p.mu, p.basis)}


def hooked_from_obj(obj) -> tuple[HookedMap, tuple[str, ...]]:
    names = _names(_field(obj, "basis", None), "hooked_map")
    arity = _int(_field(obj, "arity", None), "hooked_map needs a non-negative integer arity", 0)
    entries = _entries_from_obj(_field(obj, "entries", [], list), _one_based, names, free=True)
    return HookedMap(arity, len(names), entries), names


def hooked_to_obj(h: HookedMap, names) -> dict:
    return {"basis": list(names), "arity": h.arity,
            "entries": _entries_obj(h, lambda i: i + 1, names)}


# -- graded entities ----------------------------------------------------------

def gvs_from_obj(obj) -> GradedVectorSpace:
    basis = _field(obj, "basis", None)
    if not isinstance(basis, list) or not basis:
        raise SchemaError("graded_space needs a nonempty basis")
    names = _names([_field(item, "name") for item in basis], "graded_space")
    degrees = [_int(_field(item, "degree"), "a degree must be an integer") for item in basis]
    return graded_space(names, degrees)


def gvs_to_obj(space: GradedVectorSpace) -> dict:
    return {"basis": [{"name": n, "degree": d}
                      for n, d in zip(space.basis, space.degrees)]}


def sgla_from_obj(obj, default_space: GradedVectorSpace | None = None) -> SGLA:
    space = _field(obj, "space", None)
    if space is not None:
        space = gvs_from_obj(space)
    elif default_space is not None:
        space = default_space
    else:
        raise SchemaError("sgla needs an embedded 'space' or a graded_space in the file")
    return sgla(space, _pairs_from_obj(_field(obj, "brackets", [], list), space.basis))


def sgla_to_obj(g: SGLA) -> dict:
    return {"space": gvs_to_obj(g.space),
            "brackets": _table_obj(g.b, g.space.basis, g.space.degrees)}


def grep_from_obj(obj, alg: SGLA) -> GradedRepresentation:
    space = _field(obj, "space", None)
    space = alg.space if space is None else gvs_from_obj(space)
    return GradedRepresentation(space, _action_from_obj(obj, alg.space.basis, space.dim))


def grep_to_obj(rep: GradedRepresentation, alg: SGLA) -> dict:
    return {"space": gvs_to_obj(rep.space), "action": _action_obj(rep.matrices, alg.space.basis)}


def _space_index(space: GradedVectorSpace):
    return lambda name: _index(space.basis, name)


def _component_from_obj(item, space: GradedVectorSpace, target: GradedVectorSpace,
                        degree: int) -> GradedSymMap:
    weight = _int(_field(item, "weight", None),
                  "component needs a non-negative integer weight", 0)
    entries = {}
    if weight == 0:
        value = _field(item, "value", None)
        if value is not None:
            entries[()] = parse_value(value, target.basis)
    else:
        entries = _entries_from_obj(_field(item, "entries", [], list), _space_index(space),
                                    target.basis)
    return GradedSymMap(space, target, weight, degree, entries)


def _component_to_obj(comp: GradedSymMap) -> dict:
    if comp.weight == 0:
        val = comp.entries.get((), ())
        return {"weight": 0, "value": value_obj(val, comp.target.basis)}
    return {"weight": comp.weight,
            "entries": _entries_obj(comp, comp.space.basis.__getitem__, comp.target.basis)}


def _components_from_obj(obj, space, target, degree) -> dict:
    comps = {}
    for item in _field(obj, "components", [], list):
        comp = _component_from_obj(item, space, target, degree)
        comps[comp.weight] = comp
    return comps


def hop_from_obj(obj, space: GradedVectorSpace, target: GradedVectorSpace) -> HomotopyOperator:
    truncation = _field(obj, "truncation", None)
    if truncation is not None:
        truncation = _int(truncation,
                          "homotopy_operator truncation must be a non-negative integer", 0)
    comps = _components_from_obj(obj, space, target, 0)
    # the constructor drops such a component; a file that lists one means it
    if truncation is not None and max(comps, default=0) > truncation:
        raise SchemaError(f"homotopy_operator lists a component of weight {max(comps)} "
                          f"above its truncation {truncation}")
    return HomotopyOperator(space, target, comps, truncation)


def hop_to_obj(t: HomotopyOperator) -> dict:
    return {
        "truncation": t.truncation,
        "components": [_component_to_obj(t.component(w)) for w in t.weights()],
    }


def sym_family_from_obj(obj, space: GradedVectorSpace, target: GradedVectorSpace) -> GradedSymFamily:
    degree = _int(_field(obj, "degree", None), "sym_family needs an integer degree")
    comps = _components_from_obj(obj, space, target, degree)
    return GradedSymFamily(space, target, degree, comps)


def sym_family_to_obj(f: GradedSymFamily) -> dict:
    return {
        "degree": f.degree,
        "components": [_component_to_obj(f.component(w)) for w in f.weights()],
    }


def prelie_inf_from_obj(obj) -> PreLieInfinity:
    space = gvs_from_obj(_field(obj, "space"))
    truncation = _int(_field(obj, "truncation", None),
                      "prelie_infinity needs a positive integer truncation", 1)
    ops = {}
    for item in _field(obj, "operations", [], list):
        k = _int(_field(item, "arity", None), "operation needs a positive integer arity", 1)
        entries = _entries_from_obj(_field(item, "entries", [], list), _space_index(space),
                                    space.basis, free=True)
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

# The reader of each kind, called with the payload and its context.
READERS = {
    "lie_algebra": lie_from_obj,
    "representation": rep_from_obj,
    "operator": operator_from_obj,
    "altmap": altmap_from_obj,
    "prelie": prelie_from_obj,
    "hooked_map": hooked_from_obj,
    "graded_space": gvs_from_obj,
    "sgla": sgla_from_obj,
    "graded_rep": grep_from_obj,
    "differential": differential_from_obj,
    "homotopy_operator": hop_from_obj,
    "prelie_infinity": prelie_inf_from_obj,
    "sym_family": sym_family_from_obj,
}
KINDS = tuple(READERS)


class Workspace:
    """Named raw entities collected from one or more JSON files.

    Typed objects are built on demand by :meth:`read`, from the contextual
    entities the caller supplies (an algebra for a representation, spaces
    for a homotopy operator, and so on).
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
        except OSError as exc:  # a directory, or a file that cannot be read
            raise SchemaError(f"{path}: {exc.strerror}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
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

    def scope(self, ref: str):
        """The workspace a FILE, FILE:KEY or bare KEY reads from, and the key
        it names (None for a whole FILE).  Each file is read into its own
        scope, so two files may both use the plain kind name for their single
        entity; this workspace keeps the first entity under each name for
        bare-key lookups."""
        path, key = ref, None
        if not os.path.exists(path) and ":" in ref:
            path, key = ref.rsplit(":", 1)
        if not os.path.exists(path):
            if ref not in self.raw:
                raise UnresolvedReferenceError(f"{ref!r} is neither a file nor a loaded entity")
            return self, ref
        local = Workspace().load_file(path)
        for name, item in local.raw.items():
            self.raw.setdefault(name, item)
        return local, key

    def read(self, ref: str, kind: str, *context):
        """The entity of ``kind`` that ``ref`` names, built by its reader."""
        scope, key = self.scope(ref)
        return READERS[kind](scope.find(kind, key), *context)

    def kind(self, key: str | None, kinds: tuple[str, ...]) -> str:
        """The kind of the entity ``key`` names, or with no key the first of
        ``kinds`` held here; else ``kinds[0]``, which :meth:`find` reports."""
        if key is not None:
            return self.raw[key][0] if key in self.raw else kinds[0]
        held = {k for k, _ in self.raw.values()}
        return next((k for k in kinds if k in held), kinds[0])

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
