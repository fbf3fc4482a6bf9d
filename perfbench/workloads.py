"""The four workloads: seeded inputs, one pass of verdicts, and their checks.

A workload's ``setup`` builds every input from the seed (the library only
receives those inputs) and any search-derived catalog it needs; ``run_pass``
computes one full set of verdicts and records each one.  A pass does the
same work every time for a given seed, so counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import canonical_words, courant_terms, homotopy_candidates, multinomial

P_MAX = 4
GRID = (-1, 0, 1)
# Random maps fill every admissible slot from nonzero values, so the cost of a
# verdict depends on the seed only through the values, not the sparsity.
POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3))

# Sizes of the exhaustive grid searches over (-1, 0, 1); the grid order is
# seed-permuted, so these and the catalog digests must never change.
RBO_SIZES = {"affine": 15, "heisenberg": 639, "sl2": 23}
HOMOTOPY_FOUND = 35
# The operator catalog of deformation-mc and homotopy-mc: rbo_catalog over
# (0, 1), 1,040 candidates.
CATALOG_GRID = (0, 1)
CATALOG_SIZES = [5, 11, 9]
PSI_DEGREES = ((-1, 0), (0, 1))


def catalog_digest(matrices) -> str:
    text = json.dumps([[[str(x) for x in row] for row in m] for m in matrices])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- machine speed --------------------------------------------------------------

# A nominal time of one reference block, about its fastest mean on a 2-vCPU
# Intel Xeon virtual machine (Python 3.11.7).  Reported times are scaled to
# it: they read as times on a machine where the block takes this long.
REFERENCE_S = 0.0011
# Between timed calls, a reference block runs whenever this long has passed
# since the last one: the machine's speed changes every 10 to 100 ms.
REFERENCE_EVERY_S = 0.025


_rng = random.Random(0)
# About 2 MB of small objects, read at random: more than a core's own cache.
REFERENCE_TABLE = [(i, str(i), (i * 7919) % 104729) for i in range(16384)]
REFERENCE_PICKS = [_rng.randrange(len(REFERENCE_TABLE)) for _ in range(600)]
REFERENCE_DOC = {"rows": [[str(Fraction(i, j + 1)) for j in range(4)] for i in range(12)],
                 "name": "reference"}


def reference_block():
    """Fixed pure-Python work like the library's and the CLI's: Fraction
    arithmetic, tuple keys and dict updates, reads spread over a few
    megabytes, JSON text and sorting.  It touches no library code, so no
    change to the library changes its time."""
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        x = Fraction(i % 7 - 3, i % 5 + 1)
        acc += x * x - Fraction(1, i % 3 + 1)
        key = (i % 11, i % 13)
        table[key] = table.get(key, 0) + i
    total = 0
    for j in REFERENCE_PICKS:
        n, text, value = REFERENCE_TABLE[j]
        total += value + len(text)
    back = json.loads(json.dumps(REFERENCE_DOC, indent=1))
    words = sorted(f"{k}:{v}" for k, v in table.items())
    return acc, total, len(back["rows"]), len(words)


class Recorder:
    """Timed calls and verdicts of a run, pass by pass, and the machine's
    speed while they ran.

    Every pass makes the same calls in the same order, so position i of each
    pass is the same call.  On a shared machine other tenants slow this one
    down by up to 2.5x, switching every 10 to 100 ms and in phases of
    seconds to minutes, so the raw time of a run depends on when it ran.
    Reference blocks, spread through the run between the calls, slow down
    with them: ``scale`` is REFERENCE_S over their mean time, and ``times``
    gives each call's mean time over the passes, times ``scale``.  Means,
    not medians or minima, because the calls and the blocks see the fast and
    slow moments in the same proportion only on average.
    """

    def __init__(self, interleave=True):
        self.samples: list[list[float]] = []
        self.is_verdict: list[bool] = []
        self.pass_times: list[float] = []
        self.reference: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict[str, float] = {}
        self._position = 0
        self._interleave = interleave
        self._last_reference = -math.inf

    def start_pass(self):
        self._maybe_sample()
        self.pass_times.append(0.0)
        self._position = 0

    def _maybe_sample(self):
        if self._interleave and time.perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
            self.sample_reference()

    def sample_reference(self, blocks=1):
        """Time ``blocks`` reference blocks now."""
        for _ in range(blocks):
            start = time.perf_counter()
            reference_block()
            self._last_reference = time.perf_counter()
            self.reference.append(self._last_reference - start)

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.reference)

    def check(self, label: str, ok: bool, work: int = 1):
        self.attempted += work
        if not ok:
            self.failures.append(label)

    def timed(self, label: str, fn, work: int = 1, verdict: bool = True):
        """Run one timed call; an exception counts as a failed verdict.

        ``verdict`` marks a call whose latency enters the verdict percentiles;
        every timed call counts towards the pass time."""
        start = time.perf_counter()
        try:
            ok = bool(fn())
        except Exception as exc:  # noqa: BLE001 - every error is a failed verdict
            ok, label = False, f"{label}: {exc!r}"
        elapsed = time.perf_counter() - start
        if len(self.pass_times) == 1:
            self.samples.append([])
            self.is_verdict.append(verdict)
        self.samples[self._position].append(elapsed)
        self._position += 1
        self.pass_times[-1] += elapsed
        self.check(label, ok, work)
        self._maybe_sample()
        return elapsed

    def note(self, key: str, value: float):
        self.notes[key] = self.notes.get(key, 0.0) + value

    def times(self) -> list[float]:
        scale = self.scale
        return [scale * statistics.fmean(ts) for ts in self.samples]

    def verdict_times(self) -> list[float]:
        return [t for t, v in zip(self.times(), self.is_verdict) if v]


# -- input generators (the benchmark's own, so inputs never depend on library helpers)

def random_altmap(lib, rng, arity, dim_dom, dim_cod):
    entries = {word: tuple(rng.choice(POOL) for _ in range(dim_cod))
               for word in itertools.combinations(range(dim_dom), arity)}
    return lib.deformation.AltMap(arity, dim_dom, dim_cod, entries)


def random_family(lib, rng, space, target, degree, max_weight):
    hom = lib.homotopy
    comps = {}
    for w in range(max_weight + 1):
        entries = {}
        for word in canonical_words(space, w):
            want = sum(space.degrees[i] for i in word) + degree
            vec = tuple(rng.choice(POOL) if target.degrees[k] == want else Fraction(0)
                        for k in range(target.dim))
            if any(vec):
                entries[word] = vec
        if entries:
            comps[w] = hom.GradedSymMap(space, target, w, degree, entries)
    return comps


def random_homotopy_operator(lib, rng, space, target, max_weight=2):
    comps = random_family(lib, rng, space, target, 0, max_weight)
    return lib.homotopy.HomotopyOperator(space, target, comps, truncation=max_weight)


def random_sym_family(lib, rng, space, target, degree, max_weight=2):
    comps = random_family(lib, rng, space, target, degree, max_weight)
    return lib.homotopy.GradedSymFamily(space, target, degree, comps)


# -- computed work counts (from the inputs alone) -----------------------------

def circ_terms(a: int, b: int) -> int:
    terms = multinomial((a, b))
    if a >= 1:
        terms += multinomial((b, 1, a - 1))
    return terms


def graded_bracket_terms(space, p_max=P_MAX) -> int:
    """Unshuffle terms of one full graded bracket up to weight p_max."""
    total = 0
    for p in range(p_max + 1):
        per_word = 2 * sum(multinomial((l, 1, p - l - 1)) for l in range(p))
        per_word += sum(multinomial((a, p - a)) for a in range(p + 1))
        total += per_word * sum(1 for _ in canonical_words(space, p))
    return total


def hook_compose_terms(space, p_max=P_MAX) -> int:
    total = 0
    for p in range(p_max + 1):
        per_word = sum(multinomial((w, 1, p - w - 1)) for w in range(p))
        per_word += sum(multinomial((w, p - w)) for w in range(p + 1))
        total += per_word * space.dim * sum(1 for _ in canonical_words(space, p))
    return total


def work_counts(candidates=0, unshuffle_terms=0, spaces=()) -> dict:
    """The computed counts of one pass, labelled ``computed.``; canonical
    words are counted per weight over the graded spaces the pass uses."""
    out = {"computed.candidates": candidates, "computed.unshuffle_terms": unshuffle_terms}
    for p in range(P_MAX + 1):
        out[f"computed.canonical_words.w{p}"] = sum(
            sum(1 for _ in canonical_words(s, p)) for s in spaces)
    return out


# -- rbo-search ---------------------------------------------------------------

class RboSearch:
    """Rota-Baxter grid searches on affine, heisenberg and sl2.

    A pass repeats search_rbo over each two-value sub-grid of (-1, 0, 1)
    (3,120 candidates) and seed-drawn single-candidate is_rota_baxter
    verdicts, whose expected answers come from the independent oop_defect.
    A search over the full grid (39,447 candidates) is one call of several
    seconds, too long to repeat within a run, so it runs in the traced run,
    where ``full_catalogs`` checks its sizes and digests.
    """

    name = "rbo-search"
    trace_setup = True
    samples = 400

    def setup(self, lib, seed, small=False):
        rng = random.Random(seed)
        lie = lib.lie
        grid = [Fraction(x) for x in GRID]
        rng.shuffle(grid)
        algebras = lib.catalog.search_algebras()[: 1 if small else None]
        searches = [(name, alg, sub, [op.matrix for op in lie.search_rbo(alg, sub)])
                    for name, alg in algebras for sub in itertools.combinations(grid, 2)]
        # Every fourth sampled candidate is drawn from the sub-grid catalogs,
        # so PASS verdicts are mixed in.
        found = {name: [m for n, _, _, want in searches if n == name for m in want]
                 for name, _ in algebras}
        sampled = []
        for t in range(self.samples // (5 if small else 1)):
            name, alg = algebras[t % len(algebras)]
            if t % 4 == 3:
                mat = found[name][rng.randrange(len(found[name]))]
            else:
                mat = tuple(tuple(rng.choice(grid) for _ in range(alg.dim)) for _ in range(alg.dim))
            op = lie.LinearOperator(mat, "g", "g")
            sampled.append((name, alg, op, lie.oop_defect(alg, lie.adjoint(alg), op).is_zero()))
        candidates = sum(len(sub) ** (alg.dim ** 2) for _, alg, sub, _ in searches)
        return {"grid": tuple(grid), "algebras": algebras, "searches": searches,
                "sampled": sampled, "counts": work_counts(candidates=candidates)}

    def verify(self, lib, st):
        return [(f"{name}: search_rbo over {sorted(str(x) for x in sub)}",
                 (len(want), catalog_digest(want)) == SUBGRID_CATALOGS[name][frozenset(sub)])
                for name, _, sub, want in st["searches"]]

    def full_catalogs(self, lib, st):
        """Checks of the full-grid catalogs: sizes, digests, oop_defect."""
        lie = lib.lie
        out = []
        for name, alg in st["algebras"]:
            ops = lie.search_rbo(alg, st["grid"])
            rep = lie.adjoint(alg)
            out.append((f"{name}: {len(ops)} operators, expected {RBO_SIZES[name]}",
                        len(ops) == RBO_SIZES[name]))
            out.append((f"{name}: catalog digest",
                        catalog_digest(op.matrix for op in ops) == RBO_DIGESTS[name]))
            bad = sum(1 for op in ops if not lie.oop_defect(alg, rep, op).is_zero())
            out.append((f"{name}: {bad} catalog operators fail oop_defect", not bad))
        return out

    def run_pass(self, lib, st, rec):
        lie = lib.lie
        for name, alg, sub, want in st["searches"]:
            elapsed = rec.timed(
                f"search_rbo {name} grid {[str(x) for x in sub]}",
                lambda: [op.matrix for op in lie.search_rbo(alg, sub)] == want,
                work=len(sub) ** (alg.dim ** 2), verdict=False)
            rec.note("search_s", elapsed)
        for name, alg, op, expected in st["sampled"]:
            rec.timed(f"is_rota_baxter {name}", lambda: lie.is_rota_baxter(alg, op) == expected)


# Sizes and digests of the sorted catalogs at the seed commit; sorting makes
# them independent of the grid order.
RBO_DIGESTS = {
    "affine": "51738b7bf78384aa",
    "heisenberg": "6e8d2f0fd7b25dcf",
    "sl2": "bc47fe98b897548a",
}
_F = Fraction
SUBGRID_CATALOGS = {
    "affine": {frozenset({_F(-1), _F(0)}): (5, "5c6d23908a3a3048"),
               frozenset({_F(-1), _F(1)}): (4, "69be096d40618d1a"),
               frozenset({_F(0), _F(1)}): (5, "5232c5d1eea6eda7")},
    "heisenberg": {frozenset({_F(-1), _F(0)}): (52, "901229b45ed8c324"),
                   frozenset({_F(-1), _F(1)}): (0, "4f53cda18c2baa0c"),
                   frozenset({_F(0), _F(1)}): (52, "52fa3d97cd19a7c9")},
    "sl2": {frozenset({_F(-1), _F(0)}): (9, "c2003afbe7dcb76c"),
            frozenset({_F(-1), _F(1)}): (0, "4f53cda18c2baa0c"),
            frozenset({_F(0), _F(1)}): (9, "47df7e4200dde3b9")},
}


# -- deformation-mc -----------------------------------------------------------

class DeformationMC:
    """Deformations of catalog operators, and the phi homomorphism."""

    name = "deformation-mc"
    trace_setup = True
    phi_arities = [(a, b) for a in range(3) for b in range(3)]
    # Random deformations of the 3-dimensional operators are then the
    # largest group of like-cost verdicts, and the median falls inside it.
    random_deltas = 4

    def setup(self, lib, seed, small=False):
        rng = random.Random(seed)
        lie, dfm = lib.lie, lib.deformation
        grid = [Fraction(x) for x in CATALOG_GRID]
        rng.shuffle(grid)
        catalog = lib.catalog.rbo_catalog(grid)
        pairs = []
        terms = 0
        for name, alg, ops in catalog:
            rep = lie.adjoint(alg)
            for op in ops[: 2 if small else None]:
                t = dfm.AltMap.from_operator(op)
                other = ops[rng.randrange(len(ops))]
                # T' = other - T lands on another O-operator; a random T'
                # almost never does.  is_rota_baxter on T + T' is the oracle.
                deltas = [dfm.AltMap.from_operator(other) - t] + [
                    random_altmap(lib, rng, 1, rep.space_dim, alg.dim)
                    for _ in range(self.random_deltas)]
                for tp in deltas:
                    total = op + tp.to_operator()
                    expected = lie.is_rota_baxter(alg, lie.LinearOperator(total.matrix, "g", "g"))
                    pairs.append((name, alg, rep, t, tp, expected))
                    terms += 3 * math.comb(alg.dim, 2) * courant_terms(1, 1)
        instances = list(lib.catalog.lie_pairs())
        sl2 = lib.catalog.sl2()
        instances.append(("sl2/adjoint", sl2, lie.adjoint(sl2)))
        phis = []
        for name, alg, rep in instances[: 1 if small else None]:
            for a, b in self.phi_arities:
                f = random_altmap(lib, rng, a, rep.space_dim, alg.dim)
                g = random_altmap(lib, rng, b, rep.space_dim, alg.dim)
                phis.append((name, alg, rep, f, g))
                d = rep.space_dim
                if a + b <= d:
                    terms += math.comb(d, a + b) * courant_terms(a, b)
                    terms += math.comb(d, a + b) * d * (circ_terms(a, b) + circ_terms(b, a))
        return {"catalog": catalog, "pairs": pairs, "phis": phis,
                "counts": work_counts(unshuffle_terms=terms)}

    def verify(self, lib, st):
        lie = lib.lie
        catalog = st["catalog"]
        out = [("rbo_catalog sizes", [len(ops) for _, _, ops in catalog] == CATALOG_SIZES)]
        for name, alg, ops in catalog:
            rep = lie.adjoint(alg)
            bad = sum(1 for op in ops if not lie.oop_defect(alg, rep, op).is_zero())
            out.append((f"{name}: {bad} catalog operators fail oop_defect", not bad))
        return out

    def run_pass(self, lib, st, rec):
        dfm, prelie = lib.deformation, lib.prelie
        for name, alg, rep, t, tp, expected in st["pairs"]:
            def verdict():
                lhs = dfm.deformation_check(t, tp, alg, rep)
                rhs = dfm.mc_residual(t + tp, alg, rep).is_zero()
                return lhs == rhs == expected
            rec.timed(f"deformation {name}", verdict)
        for name, alg, rep, f, g in st["phis"]:
            rec.timed(f"phi {name} arities {f.arity},{g.arity}",
                      lambda: prelie.check_phi_homomorphism(f, g, alg, rep))


# -- homotopy-mc --------------------------------------------------------------

class HomotopyMC:
    """Induced pre-Lie-infinity structures, MC bracket vs residual, and psi.

    Set-up derives the 35 homotopy operators of the two-level instance by
    search_homotopy_operators, and embeds the operators of rbo_catalog over
    (0, 1); a pass checks them and seed-drawn families.
    """

    name = "homotopy-mc"
    trace_setup = True
    # Sixteen random operators per instance make 114 verdicts, eleven of them
    # beyond the 90th percentile.  The median then falls inside the random
    # two-level group and the 90th percentile inside the random mixed/adjoint
    # group, not at the edge of a group of like-cost verdicts.
    random_per_instance = 16

    def setup(self, lib, seed, small=False):
        rng = random.Random(seed)
        cat, hom, gr, emb, lie = lib.catalog, lib.homotopy, lib.graded, lib.embed, lib.lie
        grid = [Fraction(x) for x in GRID]
        rng.shuffle(grid)
        two_alg, two_rep = cat.two_level_sgla(), cat.two_level_rep()
        found = hom.search_homotopy_operators(two_alg, two_rep, grid, max_weight=2, p_max=P_MAX)
        catalog_grid = [Fraction(x) for x in CATALOG_GRID]
        rng.shuffle(catalog_grid)
        catalog = cat.rbo_catalog(catalog_grid)
        embedded, spaces = [], []
        terms = 0
        for name, alg, ops in catalog:
            galg = gr.from_lie(alg)
            grep = gr.from_representation(lie.adjoint(alg))
            spaces.append(grep.space)
            for op in ops[: 2 if small else None]:
                embedded.append((name, galg, grep,
                                 emb.homotopy_operator_from_linear(op, galg, grep.space)))
                terms += graded_bracket_terms(grep.space)
        randoms, psis = [], []
        for name, alg, rep in cat.graded_instances():
            spaces.append(rep.space)
            for _ in range(2 if small else self.random_per_instance):
                randoms.append((name, alg, rep,
                                random_homotopy_operator(lib, rng, rep.space, alg.space)))
                terms += graded_bracket_terms(rep.space)
            # Fixed degrees: the number of admissible slots, and so the cost,
            # depends on the degree.
            for df, dg in PSI_DEGREES[: 1 if small else None]:
                f = random_sym_family(lib, rng, rep.space, alg.space, df)
                g = random_sym_family(lib, rng, rep.space, alg.space, dg)
                psis.append((name, alg, rep, f, g))
                terms += graded_bracket_terms(rep.space) + 2 * hook_compose_terms(rep.space)
        counts = work_counts(homotopy_candidates(two_alg, two_rep, grid), terms, spaces)
        return {"grid": tuple(grid), "two": (two_alg, two_rep), "found": found,
                "checked": found[: 3 if small else None], "catalog": catalog,
                "embedded": embedded, "randoms": randoms, "psis": psis, "counts": counts}

    def verify(self, lib, st):
        found = st["found"]
        return [(f"{len(found)} homotopy operators found, expected {HOMOTOPY_FOUND}",
                 len(found) == HOMOTOPY_FOUND),
                ("homotopy catalog digest", homotopy_digest(found) == HOMOTOPY_DIGEST),
                ("rbo_catalog sizes", [len(ops) for _, _, ops in st["catalog"]] == CATALOG_SIZES)]

    def run_pass(self, lib, st, rec):
        hom = lib.homotopy
        alg2, rep2 = st["two"]
        for t in st["checked"]:
            rec.timed("induce+check prelie-infinity two-level", lambda: hom.check_prelie_infinity(
                hom.induce_prelie_infinity(t, alg2, rep2, P_MAX), P_MAX).ok)
        for name, galg, grep, t in st["embedded"]:
            rec.timed(f"embedded {name}", lambda: hom.mc_check_homotopy(t, galg, grep, P_MAX)
                      and hom.is_homotopy_oop(t, galg, grep, P_MAX))
        for name, alg, rep, t in st["randoms"]:
            rec.timed(f"random {name}", lambda: hom.mc_check_homotopy(t, alg, rep, P_MAX)
                      == hom.is_homotopy_oop(t, alg, rep, P_MAX))
        for name, alg, rep, f, g in st["psis"]:
            rec.timed(f"psi {name}", lambda: hom.check_psi_homomorphism(f, g, alg, rep, P_MAX))


def homotopy_digest(found) -> str:
    rows = sorted(
        json.dumps({str(w): sorted((list(k), [str(x) for x in v])
                                   for k, v in t.component(w).entries.items())
                    for w in t.weights()}, sort_keys=True)
        for t in found)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


HOMOTOPY_DIGEST = "d64591450544cc9a"


# -- cli-pipeline -------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
CLI_MAIN = "import sys; from rotabaxter.cli import main; sys.exit(main())"
CLI_IMPORT = ("import time; t = time.perf_counter(); import rotabaxter.cli; "
              "print(time.perf_counter() - t)")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _scalar(x) -> str:
    return str(Fraction(x))


def _value(vec, names) -> dict:
    return {n: _scalar(x) for n, x in zip(names, vec) if x}


def _brackets(names, c) -> list:
    """Every ordered pair with a nonzero side, mirrors included, so the file
    reproduces the constants verbatim (no completion applies)."""
    n = len(names)
    return [{"left": names[i], "right": names[j], "value": _value(c[i][j], names)}
            for i in range(n) for j in range(n) if any(c[i][j]) or any(c[j][i])]


def lie_json(alg) -> dict:
    return {"lie_algebra": {"basis": list(alg.basis), "brackets": _brackets(alg.basis, alg.c)}}


def sgla_json(g) -> dict:
    space = [{"name": n, "degree": d} for n, d in zip(g.space.basis, g.space.degrees)]
    return {"sgla": {"space": {"basis": space}, "brackets": _brackets(g.space.basis, g.b)}}


def operator_json(mat) -> dict:
    return {"operator": {"rows": [[_scalar(x) for x in row] for row in mat],
                         "domain": "g", "codomain": "g"}}


def hop_json(mat, names) -> dict:
    entries = [{"args": [names[j]], "value": _value([row[j] for row in mat], names)}
               for j in range(len(names)) if any(row[j] for row in mat)]
    comps = [{"weight": 1, "entries": entries}] if entries else []
    return {"homotopy_operator": {"truncation": 1, "components": comps}}


def perturb(planes, rng):
    c = [[list(row) for row in plane] for plane in planes]
    i, j, k = (rng.randrange(len(c)) for _ in range(3))
    c[i][j][k] += 1
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def broken(make, check, planes, rng):
    """``make`` applied to the first seed-drawn perturbation of ``planes``
    that ``check`` rejects: some perturbations keep a graded bracket valid."""
    while True:
        candidate = make(perturb(planes, rng))
        if not check(candidate).ok:
            return candidate


def invoke_cli(main, args, stdout: io.StringIO) -> int:
    """One CLI invocation in this process, as a console script runs it, with
    its standard output written to ``stdout``; returns the exit status."""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(args, prog_name="rotabaxter")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def cli_floor(repeats=5) -> dict:
    """Start-up floor of the CLI: the fastest `--help` wall time and the
    fastest import of the CLI module, over a few fresh interpreters."""
    helps, imports = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CLI_MAIN, "--help"], cwd=ROOT, env=cli_env(),
                       capture_output=True, timeout=120, check=True)
        helps.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", CLI_IMPORT], cwd=ROOT, env=cli_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(out.stdout.strip()))
    return {"cli.startup_ms": 1e3 * min(helps), "cli.import_ms": 1e3 * min(imports)}


class CliPipeline:
    """Twelve chains of eleven CLI commands over seed-generated JSON files.

    Each chain draws its inputs (algebra, operator, deformation, graded
    algebra) as PASS or FAIL cases.  Across the chains every input kind is a
    PASS in exactly half of them, and the Lie and graded algebras are taken
    in turn, so each seed gives a pass the same mix of verdicts; the seed
    picks which chain gets which.  The chains are one pass, and every pass
    must write identical report bytes.  Each command runs through the CLI's
    entry point in this process: in a fresh interpreter, start-up is most of
    an invocation and varied by a quarter from run to run on a shared 2-vCPU
    machine.  Set-up imports the CLI afresh, so import-time work shows in
    ``setup_s``; the traced run measures the start-up floor in fresh
    interpreters (``cli_floor``).

    Reports go to standard output (``--json-report -``), as in a shell
    pipeline; only the three outputs a later command reads are files.  On
    that machine, creating the 132 report files took a quarter of a pass,
    at a pace that varied twofold from one run to the next.
    """

    name = "cli-pipeline"
    trace_setup = False
    # 132 verdicts a pass, so that more than ten lie beyond the 90th percentile.
    chains = 12
    units = ("lie", "operator", "deform", "sgla")

    def setup(self, lib, seed, small=False, workdir=None):
        rng = random.Random(seed)
        cat, lie, gr = lib.catalog, lib.lie, lib.graded
        cli = importlib.import_module("rotabaxter.cli")
        work = Path(workdir)
        work.mkdir(parents=True, exist_ok=True)
        aff = cat.affine_line()
        good = sorted(op.matrix for op in lie.search_rbo(aff, GRID))
        grid_ops = ((flat[:2], flat[2:]) for flat in
                    itertools.product([Fraction(x) for x in GRID], repeat=4))
        galg_aff = gr.from_lie(aff)
        base = {"aff": aff, "adj": lie.adjoint(aff), "good": good,
                "bad": sorted(set(grid_ops) - set(good)),
                "galg": galg_aff, "grep": gr.adjoint_graded(galg_aff),
                "affine_file": write_json(work / "affine.json", lie_json(aff)),
                "affine_sgla": write_json(work / "affine_sgla.json", sgla_json(galg_aff))}
        chains = 2 if small else self.chains
        intents = {}
        for unit in self.units:
            intents[unit] = [k % 2 == 0 for k in range(chains)]
            rng.shuffle(intents[unit])
        algebras, graded = cat.search_algebras(), cat.graded_instances()
        rng.shuffle(algebras)
        rng.shuffle(graded)
        steps, expected_intent = [], []
        for k in range(chains):
            intent = {unit: intents[unit][k] for unit in self.units}
            chain = self.chain(lib, rng, base, work / f"chain{k:02d}", intent,
                               algebras[k % len(algebras)][1], graded[k % len(graded)][1])
            steps += chain[0]
            expected_intent += chain[1]
        # mc-check brackets once; deform checks its base, then brackets twice.
        counts = work_counts(chains * len(GRID) ** 4,
                             chains * 4 * math.comb(2, 2) * courant_terms(1, 1),
                             [base["grep"].space] * chains)
        return {"main": cli.main, "steps": steps, "intent": expected_intent, "good": good,
                "counts": counts, "bytes": {}}

    def chain(self, lib, rng, base, work, intent, alg_l, g):
        """The eleven steps of one chain, in ``work``, and the in-process
        verdicts of its drawn inputs."""
        lie, gr, hom, emb, pl = lib.lie, lib.graded, lib.homotopy, lib.embed, lib.prelie
        aff, adj, good, bad = base["aff"], base["adj"], base["good"], base["bad"]
        work.mkdir(exist_ok=True)
        steps, expected_intent = [], []

        def write(name, obj):
            return write_json(work / name, obj)

        def step(label, args, expected_ok=None, out=None):
            report = expected_ok is not None
            if report:
                args = ["--json-report", "-", *args]
            steps.append({"label": label, "args": args,
                          "exit": 0 if expected_ok in (None, True) else 1,
                          "report": report, "out": out})

        if not intent["lie"]:
            alg_l = broken(lambda c: lie.LieAlgebra(alg_l.basis, c), lie.check_lie, alg_l.c, rng)
        ok_lie = lie.check_lie(alg_l).ok
        expected_intent.append(("check-lie", ok_lie, intent["lie"]))
        step("check-lie", ["check-lie", "--algebra", write("lie.json", lie_json(alg_l))], ok_lie)
        mat = rng.choice(good if intent["operator"] else bad)
        op = lie.LinearOperator(mat, "g", "g")
        ok_op = lie.oop_defect(aff, adj, op).is_zero()
        expected_intent.append(("operator", ok_op, intent["operator"]))
        op_file = write("op.json", operator_json(mat))
        origin = rng.choice(good)
        target = rng.choice(good if intent["deform"] else bad)
        delta = tuple(tuple(t - b for t, b in zip(tr, br)) for tr, br in zip(target, origin))
        ok_def = lie.oop_defect(aff, adj, lie.LinearOperator(target, "g", "g")).is_zero()
        expected_intent.append(("deform", ok_def, intent["deform"]))
        common = ["--algebra", base["affine_file"], "--rep", "adjoint"]
        step("check-oop", ["check-oop", *common, "--op", op_file], ok_op)
        step("mc-check", ["mc-check", *common, "--op", op_file], ok_op)
        step("deform", ["deform", *common, "--base", write("base.json", operator_json(origin)),
                        "--delta", write("delta.json", operator_json(delta))], ok_def)
        force = [] if intent["operator"] else ["--force"]
        step("induce-prelie", ["induce-prelie", *common, "--op", op_file, *force,
                               "--out", str(work / "prelie.json")], out=str(work / "prelie.json"))
        product = pl.induce_prelie(op, aff, adj, force=True)
        step("check-prelie", ["check-prelie", "--prelie", str(work / "prelie.json")],
             pl.check_prelie(product).ok)
        grid = [str(x) for x in GRID]
        rng.shuffle(grid)
        step("search-rbo", ["search-rbo", "--algebra", base["affine_file"], "--grid",
                            ",".join(grid), "--out", str(work / "ops.json")],
             out=str(work / "ops.json"))
        if not intent["sgla"]:
            g = broken(lambda b: gr.SGLA(g.space, b), gr.check_sgla, g.b, rng)
        ok_sgla = gr.check_sgla(g).ok
        expected_intent.append(("check-sgla", ok_sgla, intent["sgla"]))
        step("check-sgla", ["check-sgla", "--sgla", write("sgla.json", sgla_json(g))], ok_sgla)
        t = emb.homotopy_operator_from_linear(op, base["galg"], base["grep"].space)
        ok_hop = hom.is_homotopy_oop(t, base["galg"], base["grep"], P_MAX)
        expected_intent.append(("check-hoop", ok_hop, intent["operator"]))
        gcommon = ["--sgla", base["affine_sgla"], "--grep", "adjoint",
                   "--hop", write("hop.json", hop_json(mat, aff.basis))]
        step("check-hoop", ["check-hoop", *gcommon], ok_hop)
        step("induce-prelie-inf", ["induce-prelie-inf", *gcommon, *force,
                                   "--out", str(work / "pinf.json")],
             out=str(work / "pinf.json"))
        structure = hom.induce_prelie_infinity(t, base["galg"], base["grep"], P_MAX, force=True)
        step("check-prelie-inf", ["check-prelie-inf", "--pinf", str(work / "pinf.json")],
             hom.check_prelie_infinity(structure, P_MAX, rng=random.Random(0)).ok)
        return steps, expected_intent

    def verify(self, lib, st):
        out = [("affine catalog", len(st["good"]) == RBO_SIZES["affine"])]
        out += [(f"{unit}: in-process verdict {got}, drawn as {want}", got == want)
                for unit, got, want in st["intent"]]
        exits = {s["exit"] for s in st["steps"] if s["report"]}
        out.append(("the chains mix PASS and FAIL verdicts", exits == {0, 1}))
        return out

    def run_pass(self, lib, st, rec):
        for i, s in enumerate(st["steps"]):
            # Each output file is written afresh: a stale one from the last
            # pass would hide one not written.
            if s["out"]:
                Path(s["out"]).unlink(missing_ok=True)
            stdout = io.StringIO()
            rec.timed(f"cli {s['label']}",
                      lambda: invoke_cli(st["main"], s["args"], stdout) == s["exit"])
            outputs = []
            if s["report"]:
                outputs.append(("report", f"{i:03d}-stdout", stdout.getvalue().encode()))
            if s["out"]:
                path = Path(s["out"])
                outputs.append(("out", s["out"], path.read_bytes() if path.exists() else b""))
            for kind, key, data in outputs:
                first = st["bytes"].setdefault(key, data)
                rec.check(f"cli {s['label']}: {kind} bytes differ from the first pass",
                          data == first and bool(data), work=0)
            if s["label"] == "search-rbo":
                ops = json.loads(Path(s["out"]).read_text())["operators"]
                mats = [tuple(tuple(Fraction(x) for x in row) for row in o["rows"]) for o in ops]
                rec.check("cli search-rbo: catalog", len(mats) == RBO_SIZES["affine"]
                          and catalog_digest(mats) == RBO_DIGESTS["affine"], work=0)


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


WORKLOADS = {w.name: w for w in (RboSearch(), DeformationMC(), HomotopyMC(), CliPipeline())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
