"""Span tracer installed from outside the library.

Wrappers replace the listed functions and methods in place.  A function
imported by name into another module (``from .combinatorics import sign``)
is a separate binding, so every binding of the same function object in any
loaded ``rotabaxter`` module is replaced, and restored on ``suspend``.

Each span records its name, start, end and parent span in flat arrays that
stay in memory until ``write``.  Self time is a span's duration minus the
durations of its direct children.  Count-only wrappers (``COUNTS`` and the
Fraction operators) are used where a span per call would cost more than the
call itself.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# Spans: (metric prefix, module, attribute path).  Every name here is also a
# per-layer metric prefix in BENCHMARK.json.
SPANS = (
    ("combinatorics.unshuffles", "combinatorics", "unshuffles"),
    ("combinatorics.sign", "combinatorics", "sign"),
    ("combinatorics.koszul_sign", "combinatorics", "koszul_sign"),
    ("lie.is_rota_baxter", "lie", "is_rota_baxter"),
    ("lie.search_rbo", "lie", "search_rbo"),
    ("lie.LieAlgebra.bracket", "lie", "LieAlgebra.bracket"),
    ("lie.Representation.act_basis", "lie", "Representation.act_basis"),
    ("lie.oop_defect", "lie", "oop_defect"),
    ("deformation.courant_bracket", "deformation", "courant_bracket"),
    ("deformation.AltMap.eval", "deformation", "AltMap.eval"),
    ("deformation.deformation_check", "deformation", "deformation_check"),
    ("deformation.mc_residual", "deformation", "mc_residual"),
    ("prelie.circ", "prelie", "circ"),
    ("prelie.check_phi_homomorphism", "prelie", "check_phi_homomorphism"),
    ("prelie.induce_prelie", "prelie", "induce_prelie"),
    ("prelie.check_prelie", "prelie", "check_prelie"),
    ("graded.SGLA.bracket", "graded", "SGLA.bracket"),
    ("graded.GradedRepresentation.act_basis", "graded", "GradedRepresentation.act_basis"),
    ("homotopy.bracket_on_word", "homotopy", "bracket_on_word"),
    ("homotopy.residual_on_word", "homotopy", "residual_on_word"),
    ("homotopy.graded_bracket", "homotopy", "graded_bracket"),
    ("homotopy.is_homotopy_oop", "homotopy", "is_homotopy_oop"),
    ("homotopy.search_homotopy_operators", "homotopy", "search_homotopy_operators"),
    ("homotopy.prelie_infinity_residual", "homotopy", "prelie_infinity_residual"),
    ("homotopy.hook_compose_on_word", "homotopy", "hook_compose_on_word"),
    ("catalog.rbo_catalog", "catalog", "rbo_catalog"),
    ("serialize.Workspace.load_file", "serialize", "Workspace.load_file"),
)

COUNTS = (
    ("homotopy.GradedSymMap.eval", "homotopy", "GradedSymMap.eval"),
)

# Every *_to_obj function of serialize is summed under this one span name.
TO_OBJ = "serialize.to_obj"

# Fraction arithmetic is counted at class level, so calls from every module
# (linalg helpers and the inline arithmetic of each kernel) are seen.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)


def multinomial(shape) -> int:
    r = math.factorial(sum(shape))
    for part in shape:
        r //= math.factorial(part)
    return r


def courant_terms(n: int, m: int) -> int:
    """Unshuffle terms the deformation bracket sums per word, for arities n, m."""
    terms = multinomial((n, m))
    if n >= 1:
        terms += multinomial((m, 1, n - 1))
    if m >= 1:
        terms += multinomial((n, 1, m - 1))
    return terms


class Tracer:
    """Span and count wrappers for one imported ``rotabaxter`` package."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.shapes: set = set()
        self.patches: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrappers -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, name, fn, after=None):
        sid = self._id(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function counters ------------------------------------------------

    def _after_unshuffles(self, args, kwargs, result):
        self.shapes.add(tuple(args[0]))

    def _after_courant(self, args, kwargs, result):
        f, g, _alg, rep = args[:4]
        words = math.comb(rep.space_dim, f.arity + g.arity)
        self.counts["deformation.courant_bracket.words"] += words
        self.counts["deformation.courant_bracket.unshuffle_terms"] += \
            words * courant_terms(f.arity, g.arity)
        self.counts["deformation.courant_bracket.nonzero_words"] += len(result.entries)

    def _after_search_rbo(self, args, kwargs, result):
        alg, grid = args[0], args[1]
        self.counts["lie.search_rbo.candidates"] += len(tuple(grid)) ** (alg.dim ** 2)
        self.counts["lie.search_rbo.hits"] += len(result)

    def _after_search_homotopy(self, args, kwargs, result):
        alg, rep, grid = args[:3]
        max_weight = args[3] if len(args) > 3 else kwargs.get("max_weight", 2)
        self.counts["homotopy.search_homotopy_operators.candidates"] += \
            homotopy_candidates(alg, rep, grid, max_weight)
        self.counts["homotopy.search_homotopy_operators.hits"] += len(result)

    # -- installation ---------------------------------------------------------

    def _resolve(self, module: str, path: str):
        owner = getattr(self.lib, module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr

    def _build(self):
        """Compute (owner, attribute, original, wrapper) for every patch."""
        after = {
            "combinatorics.unshuffles": self._after_unshuffles,
            "deformation.courant_bracket": self._after_courant,
            "lie.search_rbo": self._after_search_rbo,
            "homotopy.search_homotopy_operators": self._after_search_homotopy,
        }
        targets = []
        for name, module, path in SPANS:
            owner, attr = self._resolve(module, path)
            fn = owner.__dict__[attr]
            targets.append((owner, attr, fn, self._span(name, fn, after.get(name))))
        for name, module, path in COUNTS:
            owner, attr = self._resolve(module, path)
            fn = owner.__dict__[attr]
            targets.append((owner, attr, fn, self._count(name, fn)))
        ser = self.lib.serialize
        for attr, fn in list(vars(ser).items()):
            if attr.endswith("_to_obj") and callable(fn) and fn.__module__ == ser.__name__:
                targets.append((ser, attr, fn, self._span(TO_OBJ, fn)))
        for op in FRACTION_OPS:
            fn = Fraction.__dict__[op]
            targets.append((Fraction, op, fn, self._count("scalar.fraction_ops", fn)))
        # Rebind every other module-level name bound to a wrapped function.
        by_id = {id(fn): wrapper for owner, _, fn, wrapper in targets
                 if not isinstance(owner, type)}
        done = {(id(owner), attr) for owner, attr, _, _ in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rotabaxter" or mod_name.startswith("rotabaxter.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = by_id.get(id(val))
                if wrapper is not None and (id(mod), attr) not in done:
                    targets.append((mod, attr, val, wrapper))
        self.patches = targets

    def install(self):
        for owner, attr, _fn, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def suspend(self):
        for owner, attr, fn, _wrapper in self.patches:
            setattr(owner, attr, fn)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the raw counters."""
        n = len(self.span_name)
        child = [0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        durs = [ends[i] - starts[i] for i in range(n)]
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += durs[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, sid in enumerate(self.span_name):
            calls[sid] += 1
            self_ns[sid] += durs[i] - child[i]
        out = {"calls": {}, "self_s": {}, "counts": dict(self.counts)}
        for sid, name in enumerate(self.names):
            out["calls"][name] = calls[sid]
            out["self_s"][name] = self_ns[sid] / 1e9
        out["counts"]["combinatorics.unshuffles.distinct_shapes"] = len(self.shapes)
        # Residual words visited per early-exit homotopy check.
        oop = self.name_ids.get("homotopy.is_homotopy_oop")
        res = self.name_ids.get("homotopy.residual_on_word")
        direct = sum(1 for i in range(n)
                     if self.span_name[i] == res and parents[i] >= 0
                     and self.span_name[parents[i]] == oop)
        out["counts"]["homotopy.is_homotopy_oop.words"] = direct
        return out

    def write(self, path):
        """Write the raw spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_name),
                      "arrays": ["name:H", "parent:i", "start_ns:q", "end_ns:q"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def canonical_words(space, weight):
    """Weakly increasing index words with no odd-degree index repeated."""
    for word in itertools.combinations_with_replacement(range(space.dim), weight):
        if not any(a == b and space.degrees[a] % 2 for a, b in zip(word, word[1:])):
            yield word


def homotopy_candidates(alg, rep, grid, max_weight=2) -> int:
    """|grid| ** (degree-admissible slots of T_0..T_max_weight)."""
    slots = 0
    for w in range(max_weight + 1):
        for word in canonical_words(rep.space, w):
            want = sum(rep.space.degrees[i] for i in word)
            slots += sum(1 for d in alg.space.degrees if d == want)
    return len(tuple(grid)) ** slots
