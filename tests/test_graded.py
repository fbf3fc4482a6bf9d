import itertools
import random
from fractions import Fraction

import pytest

from rotabaxter.catalog import (
    affine_line,
    mixed_sgla,
    natural_rep_affine,
    search_algebras,
    sl2,
    two_level_rep,
    two_level_sgla,
)
from rotabaxter.errors import ShapeMismatchError
from rotabaxter.graded import (
    SGLA,
    GradedRepresentation,
    _walk_words,
    adjoint_graded,
    canonical_word_count,
    canonical_words,
    check_graded_rep,
    check_sdgla,
    check_sgla,
    from_lie,
    from_representation,
    graded_space,
    sgla,
)
from rotabaxter.lie import adjoint, check_lie, check_representation, lie_algebra
from rotabaxter.linalg import matrix


def test_from_lie_degrees_and_constants():
    alg = affine_line()
    g = from_lie(alg)
    assert g.space.degrees == (-1, -1)
    assert g.b == alg.c
    assert check_sgla(g).ok


def test_from_lie_catalog_passes():
    for name, alg in search_algebras():
        assert check_sgla(from_lie(alg)).ok, name


def test_from_lie_faithful_on_broken_inputs():
    rng = random.Random(30)
    for _ in range(20):
        base = random.Random(rng.randrange(10 ** 6))
        name, alg = search_algebras()[rng.randrange(3)]
        c = [[[x for x in row] for row in plane] for plane in alg.c]
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        c[i][j][k] += 1  # symmetric partner untouched: graded symmetry breaks
        broken = type(alg)(alg.basis, tuple(tuple(tuple(r) for r in p) for p in c))
        assert check_lie(broken).ok == check_sgla(from_lie(broken)).ok == False


def test_leibniz_residual_equals_jacobi_for_embeddings():
    broken = lie_algebra(["e1", "e2", "e3"], {(0, 1): {2: 1}, (0, 2): {0: 1}})
    lie_rep = check_lie(broken)
    graded_rep = check_sgla(from_lie(broken))
    assert not lie_rep.ok and not graded_rep.ok
    assert not graded_rep.details["leibniz_ok"]


def test_leibniz_residual_is_minus_jacobi_elementwise():
    # For antisymmetric constants in degree -1 the graded Leibniz residual is
    # the negative of the classical Jacobi residual on every basis triple.
    from rotabaxter.linalg import basis_vector, vec_add, vec_sub

    rng = random.Random(32)
    for trial in range(10):
        n = 3
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c[i][j][k] = Fraction(rng.randrange(-2, 3))
                    c[j][i][k] = -c[i][j][k]
        alg = lie_algebra([f"e{t}" for t in range(n)], {})
        alg = type(alg)(alg.basis, tuple(tuple(tuple(r) for r in p) for p in c))
        g = from_lie(alg)
        for i in range(n):
            ei = basis_vector(n, i)
            for j in range(n):
                ej = basis_vector(n, j)
                for k in range(n):
                    ek = basis_vector(n, k)
                    jacobi = vec_add(
                        vec_add(alg.bracket(alg.bracket(ei, ej), ek),
                                alg.bracket(alg.bracket(ej, ek), ei)),
                        alg.bracket(alg.bracket(ek, ei), ej),
                    )
                    leibniz = vec_sub(
                        vec_sub(g.bracket(ei, g.bracket(ej, ek)),
                                g.bracket(g.bracket(ei, ej), ek)),
                        g.bracket(ej, g.bracket(ei, ek)),
                    )
                    assert leibniz == tuple(-x for x in jacobi)


def test_check_sgla_zero_bracket():
    space = graded_space(["a", "b"], [-1, 2])
    assert check_sgla(sgla(space, {})).ok


def test_check_sgla_degree_violation_flagged_first():
    space = graded_space(["a", "b"], [0, 0])
    bad = sgla(space, {(0, 0): {1: 1}})  # target degree 0 != 0 + 0 + 1
    rep = check_sgla(bad)
    assert not rep.ok
    assert not rep.details["degree_ok"]
    assert rep.details["symmetry_ok"] is None  # skipped, not asserted
    assert rep.details["leibniz_ok"] is None


def test_check_sgla_symmetry_violation():
    space = graded_space(["a", "b", "c"], [-1, -1, -1])
    bad = SGLA(space, sgla(space, {(0, 1): {2: 1}, (1, 0): {2: 1}}).b)
    rep = check_sgla(bad)
    assert not rep.ok
    assert not rep.details["symmetry_ok"]


def test_two_level_and_mixed_instances_valid():
    assert check_sgla(two_level_sgla()).ok
    assert check_sgla(mixed_sgla()).ok
    assert check_graded_rep(two_level_sgla(), two_level_rep()).ok
    assert check_graded_rep(mixed_sgla(), adjoint_graded(mixed_sgla())).ok


def test_check_sdgla_zero_differential():
    g = two_level_sgla()
    zero = matrix([[0] * 3] * 3)
    assert check_sdgla(g, zero).ok


def test_check_sdgla_square_violation():
    # One generator in each of degrees -1, 0, 1 with d: u -> v -> w.
    space = graded_space(["u", "v", "w"], [-1, 0, 1])
    g = sgla(space, {})
    d = matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    rep = check_sdgla(g, d)
    assert not rep.ok
    assert rep.witness["part"] == "square"


def test_check_sdgla_valid_two_step():
    space = graded_space(["u", "v", "w"], [-1, 0, 1])
    g = sgla(space, {})
    d = matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # d u = v, d v = 0
    assert check_sdgla(g, d).ok


def test_check_sdgla_compatibility_failure():
    # On the three-level instance, d q = r is square-zero but violates the
    # compatibility rule on the pair (p, q): d[p, q] = d q = r while
    # -[dp, q] + [p, dq] = [p, r] = 2r.
    from rotabaxter.catalog import three_level_sgla

    g = three_level_sgla()
    d = matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    rep = check_sdgla(g, d)
    assert not rep.ok
    assert rep.details["square_ok"]
    assert rep.witness["part"] == "compatibility"
    assert rep.witness["at"] == [1, 2]


def test_check_sdgla_rejects_inhomogeneous():
    g = two_level_sgla()
    skew = matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # x2 -> x1 has degree 0
    with pytest.raises(ShapeMismatchError):
        check_sdgla(g, skew)


def test_check_sdgla_rejects_a_non_square_differential():
    g = two_level_sgla()
    with pytest.raises(ShapeMismatchError) as exc:
        check_sdgla(g, matrix([[0, 0, 0], [0, 0, 0]]))
    assert str(exc.value) == "differential must be square of the algebra dimension"


def test_graded_rep_degree_violation():
    g = two_level_sgla()
    space = g.space
    bad = adjoint_graded(g)
    mats = list(bad.matrices)
    mats[2] = matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # rho(y) must have degree 2
    from rotabaxter.graded import GradedRepresentation

    rep = check_graded_rep(g, GradedRepresentation(space, tuple(mats)))
    assert not rep.ok
    assert rep.witness["part"] == "degree"


def test_graded_rep_homomorphism_violation():
    # Zero out one adjoint matrix of the three-level instance: degrees stay
    # fine but rho([p, q]) = rho(q) is nonzero while the commutator side
    # built from rho(p) = 0 vanishes.
    from rotabaxter.catalog import three_level_sgla
    from rotabaxter.graded import GradedRepresentation

    g = three_level_sgla()
    ad = adjoint_graded(g)
    z = matrix([[0] * 3] * 3)
    rep = check_graded_rep(g, GradedRepresentation(g.space, (z,) + ad.matrices[1:]))
    assert not rep.ok
    assert rep.witness["part"] == "homomorphism"


@pytest.mark.parametrize("check", ["check_sgla", "check_sdgla", "check_graded_rep"])
def test_a_table_shorter_than_the_basis_is_a_shape_error(check):
    # one bracket plane over a two-vector space, which each structure check
    # refuses before it reads the table
    space = graded_space(["a", "b"], [-1, -1])
    g = SGLA(space, (((Fraction(0),) * 2,) * 2,))
    zero = matrix([[0, 0], [0, 0]])
    run = {"check_sgla": lambda: check_sgla(g),
           "check_sdgla": lambda: check_sdgla(g, zero),
           "check_graded_rep": lambda: check_graded_rep(
               g, GradedRepresentation(space, (zero, zero)))}[check]
    with pytest.raises(ShapeMismatchError, match="bracket constants do not match the basis"):
        run()


def test_adjoint_graded_is_representation():
    for g in (two_level_sgla(), mixed_sgla(), from_lie(sl2())):
        assert check_graded_rep(g, adjoint_graded(g)).ok


def test_embedded_representation_reduces_to_ungraded():
    rng = random.Random(31)
    alg = affine_line()
    for rep in (adjoint(alg), natural_rep_affine()):
        assert check_representation(alg, rep).ok == \
            check_graded_rep(from_lie(alg), from_representation(rep)).ok
    # a broken ungraded representation stays broken after embedding
    from rotabaxter.lie import Representation

    bad = Representation(("v1", "v2"), (matrix([[1, 0], [0, 0]]),
                                        matrix([[1, 0], [0, 0]])))
    assert not check_representation(alg, bad).ok
    assert not check_graded_rep(from_lie(alg), from_representation(bad)).ok


def test_graded_space_shape_error():
    with pytest.raises(ShapeMismatchError):
        graded_space(["a", "b"], [0])


def test_canonical_words_are_the_sorted_words_without_a_repeated_odd_letter():
    # the definition, filtered from every weakly increasing word, is the oracle
    for dim in range(5):
        for degrees in itertools.product((-1, 0, 1, 2), repeat=dim):
            space = graded_space([f"e{i}" for i in range(dim)], degrees)
            for weight in range(7):
                want = [w for w in itertools.combinations_with_replacement(range(dim), weight)
                        if not any(a == b and degrees[a] % 2 for a, b in zip(w, w[1:]))]
                assert list(canonical_words(space, weight)) == want
                assert canonical_word_count(space, weight) == len(want)


def test_canonical_words_of_odd_letters_are_the_generic_walk():
    # the closed form for spaces without even letters, against the walk
    for dim in range(6):
        for degrees in itertools.product((-1, 1, 3), repeat=dim):
            space = graded_space([f"e{i}" for i in range(dim)], degrees)
            for weight in range(dim + 3):
                assert list(canonical_words(space, weight)) == list(_walk_words(space, weight))


def test_canonical_words_above_the_odd_letters_are_found_empty_at_once():
    space = graded_space(["a", "b", "c"], [-1, 1, 3])
    assert list(canonical_words(space, 3)) == [(0, 1, 2)]
    assert list(canonical_words(space, 10 ** 9)) == []
    assert list(_walk_words(space, 10 ** 9)) == []
    assert canonical_word_count(space, 10 ** 9) == 0
    # with an even letter, the count is polynomial in the weight
    line = graded_space(["a", "b"], [0, 1])
    assert canonical_word_count(line, 10 ** 9) == 2
