"""The witness contract of the six structure-axiom checks, against an oracle.

Every check scans its basis cells in a fixed order and reports the first cell
whose residual is nonzero, 1-based, with that residual's text.  The oracle
below recomputes each residual from the raw constants (``c``, ``mu``, ``b``,
the action matrices and ``d``) by explicit index sums, without the library's
brackets, products, actions or checks, and rebuilds the whole report.  The
O-operator defect gets the same oracle, value by value.

The drawn modules include a one-dimensional one, whose residuals are 1 x 1
matrices.  The drawn values have denominators 2 and 3, so the algebra and its action,
and the bracket and the differential, often clear over different
denominators, and a witness divided back by the wrong one shows.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rotabaxter.catalog import (
    abelian,
    affine_line,
    double_affine,
    graded_instances,
    lie_pairs,
    search_algebras,
)
from rotabaxter.graded import (
    SGLA,
    GradedRepresentation,
    check_graded_rep,
    check_sdgla,
    check_sgla,
    from_lie,
    from_representation,
)
from rotabaxter.lie import (
    LieAlgebra,
    LinearOperator,
    Representation,
    check_lie,
    check_representation,
    oop_defect,
)
from rotabaxter.prelie import PreLieProduct, check_prelie

# the fractions first: hypothesis draws the first entries most often, and a
# witness divided back by the wrong denominator shows only on a fraction
VALUES = (Fraction(1, 2), Fraction(1, 3), Fraction(-2), Fraction(-1), Fraction(1), Fraction(2))
ALGEBRAS = [alg for _, alg in search_algebras()] + [double_affine(), abelian(2)]
# a one-dimensional module of the affine algebra, rho(e1) = 1 and rho(e2) = 0:
# every residual of its action is a 1 x 1 matrix
LINE = (affine_line(), Representation(("v",), (((Fraction(1),),), ((Fraction(0),),))))
PAIRS = [(alg, rep) for _, alg, rep in lie_pairs()] + [LINE]
GRADED = ([(g, rep) for _, g, rep in graded_instances()]
          + [(from_lie(LINE[0]), from_representation(LINE[1]))])


def sign(e):
    return -1 if e % 2 else 1


def triples(n):
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]


def ordered_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


def scalar(x):
    return str(x)


def vector(names):
    return lambda v: {name: str(x) for name, x in zip(names, v) if x}


def matrix(m):
    return [[str(x) for x in row] for row in m]


def is_zero(r):
    if isinstance(r, tuple):
        return all(is_zero(x) for x in r)
    return r == 0


def act(ms, coeffs):
    """sum_k coeffs[k] M_k, entrywise."""
    d = len(ms[0])
    return tuple(tuple(sum(coeffs[k] * ms[k][r][s] for k in range(len(ms))) for s in range(d))
                 for r in range(d))


def product(a, b):
    d = len(a)
    return tuple(tuple(sum(a[r][t] * b[t][s] for t in range(d)) for s in range(d))
                 for r in range(d))


# -- the parts of each check: (name, cells in scan order, residual, text) ------


def lie_parts(alg):
    c, n = alg.c, alg.dim
    return [
        ("antisymmetry", triples(n), lambda i, j, k: c[i][j][k] + c[j][i][k], scalar),
        ("jacobi", triples(n), lambda i, j, k: tuple(
            sum(c[i][j][l] * c[l][k][m] + c[j][k][l] * c[l][i][m] + c[k][i][l] * c[l][j][m]
                for l in range(n)) for m in range(n)), vector(alg.basis)),
    ]


def rep_parts(alg, rep):
    c, ms, n = alg.c, rep.matrices, alg.dim
    d = rep.space_dim

    def residual(i, j):
        lhs, ab, ba = act(ms, c[i][j]), product(ms[i], ms[j]), product(ms[j], ms[i])
        return tuple(tuple(lhs[r][s] - ab[r][s] + ba[r][s] for s in range(d)) for r in range(d))

    return [("homomorphism", [(i, j) for i in range(n) for j in range(i + 1, n)], residual,
             matrix)]


def prelie_parts(p):
    mu, n = p.mu, p.dim
    return [("left-symmetry", triples(n), lambda i, j, k: tuple(
        sum(mu[i][j][l] * mu[l][k][m] - mu[j][k][l] * mu[i][l][m]
            - mu[j][i][l] * mu[l][k][m] + mu[i][k][l] * mu[j][l][m] for l in range(n))
        for m in range(n)), vector(p.basis))]


def sgla_parts(g):
    b, n, deg = g.b, g.dim, g.space.degrees

    def leibniz(i, j, k):
        s1, s2 = sign(deg[i] + 1), sign((deg[i] + 1) * (deg[j] + 1))
        return tuple(sum(b[j][k][l] * b[i][l][m] - s1 * b[i][j][l] * b[l][k][m]
                         - s2 * b[i][k][l] * b[j][l][m] for l in range(n)) for m in range(n))

    return [
        ("degree", triples(n),
         lambda i, j, k: b[i][j][k] if deg[k] != deg[i] + deg[j] + 1 else 0, scalar),
        ("symmetry", triples(n),
         lambda i, j, k: b[i][j][k] - sign(deg[i] * deg[j]) * b[j][i][k], scalar),
        ("leibniz", triples(n), leibniz, vector(g.space.basis)),
    ]


def sdgla_parts(g, d):
    b, n, deg = g.b, g.dim, g.space.degrees

    def compatibility(i, j):
        return tuple(sum(d[m][l] * b[i][j][l] + d[l][i] * b[l][j][m]
                         + sign(deg[i]) * d[l][j] * b[i][l][m] for l in range(n))
                     for m in range(n))

    return [
        ("square", [(j,) for j in range(n)],
         lambda j: tuple(sum(d[r][l] * d[l][j] for l in range(n)) for r in range(n)),
         vector(g.space.basis)),
        ("compatibility", ordered_pairs(n), compatibility, vector(g.space.basis)),
    ]


def graded_rep_parts(g, rep):
    b, ms, n, deg = g.b, rep.matrices, g.dim, g.space.degrees
    vdeg, d = rep.space.degrees, rep.space_dim

    def homogeneous_defect(i):
        return any(ms[i][r][s] and vdeg[r] != vdeg[s] + deg[i] + 1
                   for r in range(d) for s in range(d))

    def homomorphism(i, j):
        s1, s2 = sign(deg[i] + 1), sign((deg[i] + 1) * (deg[j] + 1))
        lhs, ab, ba = act(ms, b[i][j]), product(ms[i], ms[j]), product(ms[j], ms[i])
        return tuple(tuple(lhs[r][s] - s1 * (ab[r][s] - s2 * ba[r][s]) for s in range(d))
                     for r in range(d))

    return [
        ("degree", [(i,) for i in range(n)], homogeneous_defect, None),
        ("homomorphism", ordered_pairs(n), homomorphism, matrix),
    ]


def first_nonzero(cells, residual):
    for cell in cells:
        r = residual(*cell)
        if not is_zero(r):
            return cell, r
    return None


def expected_report(check, parts, run_all=False, details=True, tag_part=False):
    """The report a check must give: ``run_all`` parts run after a failure
    too (the first failure still names the witness); otherwise later parts are
    skipped and report None in ``details``."""
    witness, found = None, {}
    for name, cells, residual, text in parts:
        if witness is not None and not run_all:
            found[name] = None
            continue
        hit = first_nonzero(cells, residual)
        found[name] = hit is None
        if hit is not None and witness is None:
            cell, r = hit
            witness = {"at": [i + 1 for i in cell]}
            if text is not None:
                witness["residual"] = text(r)
            if tag_part:
                witness["part"] = name
    # no witness means every part ran and found no nonzero residual at any cell
    return {"check": check, "ok": witness is None, "witness": witness, "order": None,
            "details": ({f"{name}_ok": ok for name, ok in found.items()} if details else {})}


# -- drawn structures -----------------------------------------------------------


def most(draw):
    """True three times in four."""
    return draw(st.integers(0, 3)) > 0


def perturbed_table(draw, t, degrees):
    """t with up to two drawn cells moved by a drawn value.  Most moves keep
    the degree (deg_k = deg_i + deg_j + 1, where such a k exists) and are
    mirrored at [j][i] with the graded sign (-1)^(deg_i deg_j), which keeps
    graded symmetry (antisymmetry for a Lie table, every degree -1), so the
    later parts, Jacobi and Leibniz, get to fail; the rest break the degree
    or the symmetry."""
    n = len(t)
    t = [[list(row) for row in plane] for plane in t]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        fits = [k for k in range(n) if degrees[k] == degrees[i] + degrees[j] + 1]
        k = draw(st.sampled_from(fits) if fits and most(draw) else st.integers(0, n - 1))
        v = draw(st.sampled_from(VALUES))
        t[i][j][k] += v
        if most(draw):
            t[j][i][k] += sign(degrees[i] * degrees[j]) * v
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


def perturbed_lie(draw, alg):
    return LieAlgebra(alg.basis, perturbed_table(draw, alg.c, (-1,) * alg.dim))


def perturbed_sgla(draw, g):
    return SGLA(g.space, perturbed_table(draw, g.b, g.space.degrees))


def perturbed_matrices(draw, ms):
    ms = [[list(row) for row in m] for m in ms]
    for _ in range(draw(st.integers(0, 2))):
        m = ms[draw(st.integers(0, len(ms) - 1))]
        r, s = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
        m[r][s] += draw(st.sampled_from(VALUES))
    return tuple(tuple(tuple(row) for row in m) for m in ms)


def drawn_case(draw, kind):
    """(report, expected report) for one drawn input of the named check."""
    if kind == "check-lie":
        alg = draw(st.sampled_from(ALGEBRAS))
        alg = perturbed_lie(draw, alg)
        return check_lie(alg), expected_report(kind, lie_parts(alg), run_all=True)
    if kind == "check-rep":
        alg, rep = draw(st.sampled_from(PAIRS))
        alg = perturbed_lie(draw, alg)
        rep = Representation(rep.basis, perturbed_matrices(draw, rep.matrices))
        return check_representation(alg, rep), expected_report(kind, rep_parts(alg, rep),
                                                               details=False)
    if kind == "check-prelie":
        n = draw(st.integers(1, 3))
        entry = st.one_of(st.just(Fraction(0)), st.sampled_from(VALUES))
        mu = tuple(tuple(tuple(draw(entry) if draw(st.integers(0, 3)) == 0 else Fraction(0)
                               for _ in range(n)) for _ in range(n)) for _ in range(n))
        p = PreLieProduct(tuple(f"e{i + 1}" for i in range(n)), mu)
        return check_prelie(p), expected_report(kind, prelie_parts(p), details=False)
    if kind == "check-sgla":
        g = draw(st.sampled_from([g for g, _ in GRADED] + [from_lie(a) for a in ALGEBRAS]))
        g = perturbed_sgla(draw, g)
        return check_sgla(g), expected_report(kind, sgla_parts(g))
    if kind == "check-sdgla":
        g, _ = draw(st.sampled_from(GRADED))
        g = perturbed_sgla(draw, g)
        deg, n = g.space.degrees, g.dim
        entry = st.one_of(st.just(Fraction(0)), st.sampled_from(VALUES))
        # homogeneous of degree 1, as the check requires of its input
        d = tuple(tuple(draw(entry) if deg[r] == deg[s] + 1 else Fraction(0) for s in range(n))
                  for r in range(n))
        return check_sdgla(g, d), expected_report(kind, sdgla_parts(g, d), tag_part=True)
    g, rep = draw(st.sampled_from(GRADED))
    g = perturbed_sgla(draw, g)
    rep = GradedRepresentation(rep.space, perturbed_matrices(draw, rep.matrices))
    return check_graded_rep(g, rep), expected_report(kind, graded_rep_parts(g, rep),
                                                     tag_part=True)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(("check-lie", "check-rep", "check-prelie", "check-sgla", "check-sdgla",
                        "check-graded-rep")), st.data())
def test_axiom_check_reports_the_first_nonzero_residual(kind, data):
    report, expected = drawn_case(data.draw, kind)
    assert {"check": report.check, "ok": report.ok, "witness": report.witness,
            "order": report.order, "details": report.details} == expected


def raw_oop_defect(alg, rep, t):
    """D(u_i, u_j) = [Tu_i, Tu_j] - T(rho(Tu_i) u_j - rho(Tu_j) u_i) for i < j, by
    index sums over c, the action matrices and T, with the zero values left out."""
    c, ms, n, d = alg.c, rep.matrices, alg.dim, rep.space_dim
    tu = [[t[a][i] for a in range(n)] for i in range(d)]
    out = {}
    for i, j in ((i, j) for i in range(d) for j in range(i + 1, d)):
        inner = [sum(tu[i][a] * ms[a][r][j] - tu[j][a] * ms[a][r][i] for a in range(n))
                 for r in range(d)]
        val = tuple(sum(tu[i][a] * tu[j][b] * c[a][b][m] for a in range(n) for b in range(n))
                    - sum(t[m][r] * inner[r] for r in range(d)) for m in range(n))
        if any(val):
            out[(i, j)] = val
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PAIRS), st.data())
def test_oop_defect_equals_its_raw_sum(pair, data):
    alg, rep = pair
    entry = st.one_of(st.just(Fraction(0)), st.sampled_from(VALUES))
    t = tuple(tuple(data.draw(entry) for _ in range(rep.space_dim)) for _ in range(alg.dim))
    assert oop_defect(alg, rep, LinearOperator(t)).entries == raw_oop_defect(alg, rep, t)
