from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starkit import multi
from starkit.corpus import random_permutations, random_poly, random_poly_pairs
from starkit.errors import ArityError, InputError
from starkit.poly import SparsePoly
from starkit.scalars import ExactComplex


def test_copy_coordinates_interleave():
    ps = multi.ProductSpace(3)
    assert ps.dim == 6
    assert ps.zeta(2) == SparsePoly.variable(6, 3)
    assert ps.lam(3) == SparsePoly.variable(6, 6)


def test_conjugate_pairs_within_one_copy():
    ps = multi.ProductSpace(2, order=3)
    comm = ps.star.commutator(ps.zeta(1), ps.lam(1), 2)
    assert comm[1] == SparsePoly.const(4, -1).scale(ExactComplex(0, 1))
    # coordinates of distinct copies commute exactly
    assert ps.star.commutator(ps.zeta(1), ps.lam(2), 3).is_zero()
    assert ps.star.commutator(ps.lam(1), ps.lam(2), 3).is_zero()


def test_permutation_validation_and_group_ops():
    with pytest.raises(InputError):
        multi.Permutation((0, 0, 2))
    sigma = multi.Permutation((1, 2, 0))
    tau = multi.Permutation((1, 0, 2))
    assert sigma.compose(sigma.inverse()).is_identity()
    assert sigma.compose(tau).images != tau.compose(sigma).images
    assert len(list(multi.Permutation.all_of(3))) == 6
    assert multi.Permutation.transposition(4, 1, 3).images == (0, 3, 2, 1)
    with pytest.raises(InputError):
        multi.Permutation.transposition(4, 2, 4)


def test_permute_poly_relabels_whole_copies():
    ps = multi.ProductSpace(2)
    swap = multi.Permutation((1, 0))
    f = ps.zeta(1) * ps.lam(1) ** 2
    want = ps.zeta(2) * ps.lam(2) ** 2
    assert multi.permute_poly(swap, f) == want


def test_permutation_action_is_a_left_action():
    n = 3
    f = random_poly(2 * n, 3, seed=6)
    for s1 in random_permutations(n, 4, seed=1):
        for s2 in random_permutations(n, 4, seed=2):
            lhs = multi.permute_poly(s1.compose(s2), f)
            rhs = multi.permute_poly(s1, multi.permute_poly(s2, f))
            assert lhs == rhs


def test_permute_poly_arity_check():
    sigma = multi.Permutation((1, 0))
    with pytest.raises(ArityError):
        multi.permute_poly(sigma, SparsePoly.variable(3, 1))


def test_equivariance_full_s3():
    ps = multi.ProductSpace(3, order=4)
    pairs = random_poly_pairs(6, 2, 2, seed=11)
    for sigma in multi.Permutation.all_of(3):
        for f, g in pairs:
            rep = multi.equivariance_check(ps, sigma, f, g, order=4)
            assert rep.passed, (sigma, rep.failures())


def test_equivariance_seeded_n4():
    ps = multi.ProductSpace(4, order=3)
    pairs = random_poly_pairs(8, 2, 2, seed=13)
    for sigma in random_permutations(4, 3, seed=14):
        for f, g in pairs:
            rep = multi.equivariance_check(ps, sigma, f, g, order=3)
            assert rep.passed, (sigma, rep.failures())


def test_corrupted_action_breaks_equivariance():
    # relabel only the zeta coordinates, leaving the lambdas in place
    ps = multi.ProductSpace(2, order=4)

    def bad_permute(sigma, f):
        n = sigma.n
        out = {}
        for exps, coeff in f.terms():
            new = list(exps)
            for i in range(n):
                new[2 * sigma.images[i]] = exps[2 * i]
            out[tuple(new)] = coeff
        return SparsePoly(f.arity, out)

    swap = multi.Permutation((1, 0))
    f = ps.zeta(1) * ps.lam(1)
    g = ps.lam(1) ** 2
    lhs = ps.star.star(bad_permute(swap, f), bad_permute(swap, g), 4)
    rhs = ps.star.star(f, g, 4).map_coeffs(lambda p: bad_permute(swap, p))
    assert lhs != rhs


def test_symmetrize_basics():
    ps = multi.ProductSpace(2)
    lam1 = ps.lam(1)
    got = multi.symmetrize(lam1)
    want = (ps.lam(1) + ps.lam(2)).scale(Fraction(1, 2))
    assert got == want
    assert multi.is_symmetric(got)
    assert multi.symmetrize(got) == got


def brute_force_average(f):
    n = f.arity // 2
    total = SparsePoly.zero(f.arity)
    for sigma in multi.Permutation.all_of(n):
        total = total + multi.permute_poly(sigma, f)
    return total.scale(Fraction(1, factorial(n)))


def test_symmetrize_repeated_blocks_share_the_orbit():
    # q1*q2 at n = 3 has blocks (1,0), (1,0), (0,0): an orbit of 3!/2! = 3
    ps = multi.ProductSpace(3)
    got = multi.symmetrize(ps.zeta(1) * ps.zeta(2))
    want = (ps.zeta(1) * ps.zeta(2) + ps.zeta(1) * ps.zeta(3)
            + ps.zeta(2) * ps.zeta(3)).scale(Fraction(1, 3))
    assert got == want
    assert len(got) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrize_matches_the_n_factorial_average(n):
    ps = multi.ProductSpace(n, order=1)
    for seed in range(4):
        f = random_poly(2 * n, 3, seed=100 * n + seed)
        # repeated blocks: every copy alike, and two copies alike
        f = f + ps.lam(1) * (ps.zeta(1) + ps.lam(n)).scale(ExactComplex(1, -2))
        assert multi.symmetrize(f) == brute_force_average(f)
        # terms that cancel: f minus a relabelling of itself averages to 0
        sigma = multi.Permutation(list(range(1, n)) + [0])
        g = f - multi.permute_poly(sigma, f)
        assert multi.symmetrize(g) == brute_force_average(g)
        assert multi.symmetrize(g).is_zero()


def test_is_symmetric_needs_every_adjacent_swap():
    # fixed by swapping copies 1 and 2, not by swapping copies 2 and 3
    ps = multi.ProductSpace(3)
    f = ps.zeta(1) + ps.zeta(2)
    swap12 = multi.Permutation.transposition(3, 0, 1)
    swap23 = multi.Permutation.transposition(3, 1, 2)
    assert multi.permute_poly(swap12, f) == f
    assert multi.permute_poly(swap23, f) != f
    assert not multi.is_symmetric(f)
    assert multi.is_symmetric(f + ps.zeta(3))


def _fixed_by_adjacent_swaps(f):
    """is_symmetric by its definition: every adjacent swap of copies,
    applied to the whole polynomial, gives it back."""
    n = f.arity // 2
    return all(multi.permute_poly(multi.Permutation.transposition(
        n, i, i + 1), f) == f for i in range(n - 1))


_BLOCKS = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 1)])
_COEFFS = st.sampled_from([ExactComplex(1), ExactComplex(-1),
                           ExactComplex(0, 1), ExactComplex(Fraction(1, 2), 2)])


@st.composite
def _near_symmetric(draw):
    """A polynomial on 1..4 copies: as drawn, or its orbit average,
    or that average with one term dropped (its swap images then miss)
    or with one coefficient doubled (unequal on one orbit)."""
    n = draw(st.integers(1, 4))
    monomial = st.lists(_BLOCKS, min_size=n, max_size=n).map(
        lambda blocks: tuple(x for b in blocks for x in b))
    f = SparsePoly(2 * n, draw(st.dictionaries(monomial, _COEFFS,
                                               max_size=4)))
    if not draw(st.booleans()):
        return f
    terms = dict(multi.symmetrize(f).terms())
    edit = draw(st.sampled_from(["none", "drop", "double"]))
    if terms and edit != "none":
        e = draw(st.sampled_from(sorted(terms)))
        if edit == "drop":
            del terms[e]
        else:
            terms[e] = terms[e] * 2
    return SparsePoly(2 * n, terms)


@given(_near_symmetric())
def test_is_symmetric_is_the_swap_definition(f):
    assert multi.is_symmetric(f) == _fixed_by_adjacent_swaps(f)


def test_is_symmetric_edge_cases():
    # one copy: nothing to swap
    assert multi.is_symmetric(SparsePoly(2, {(3, 1): 2}))
    ps = multi.ProductSpace(3)
    avg = multi.symmetrize(ps.zeta(1) * ps.lam(2))
    assert multi.is_symmetric(avg)
    # a swap image that is not a term
    missing = dict(avg.terms())
    del missing[(1, 0, 0, 1, 0, 0)]
    assert not multi.is_symmetric(SparsePoly(6, missing))
    # every image present, one coefficient differs on the orbit
    unequal = dict(avg.terms())
    unequal[(0, 0, 1, 0, 0, 1)] = 1
    assert not multi.is_symmetric(SparsePoly(6, unequal))
    # fixed by the cyclic shift of the copies, moved by every swap
    cyclic = (ps.zeta(1) * ps.lam(2) + ps.zeta(2) * ps.lam(3)
              + ps.zeta(3) * ps.lam(1))
    assert multi.permute_poly(multi.Permutation([1, 2, 0]), cyclic) == cyclic
    assert not multi.is_symmetric(cyclic)
    with pytest.raises(ArityError):
        multi.is_symmetric(SparsePoly(3, {(1, 0, 0): 1}))


def test_symmetrize_fixes_symmetric_inputs():
    ps = multi.ProductSpace(3)
    p2 = multi.power_sum(ps, 2)
    assert multi.is_symmetric(p2)
    assert multi.symmetrize(p2) == p2


def test_power_sums():
    ps = multi.ProductSpace(2)
    p3 = multi.power_sum(ps, 3)
    assert p3 == ps.lam(1) ** 3 + ps.lam(2) ** 3
    assert multi.is_symmetric(p3)


def test_power_sums_commute_under_star():
    for n in (2, 3):
        ps = multi.ProductSpace(n, order=4)
        for j in range(1, 5):
            for k in range(1, 5):
                rep = multi.hitchin_commutation_check(ps, j, k, order=4)
                assert rep.passed, (n, j, k, rep.failures())


def test_configuration_check_flags_collisions():
    a = (ExactComplex(0), ExactComplex(1))
    b = (ExactComplex(2), ExactComplex(3))
    good = multi.Configuration((a, b))
    assert multi.configuration_check(good).passed
    bad = multi.Configuration((a, b, a))
    rep = multi.configuration_check(bad)
    assert not rep.passed
    assert [e.name for e in rep.failures()] == ["points 0 and 2 distinct"]


def test_configuration_check_needs_two_points():
    # one point has no pair: a report of zero checks is not a pass
    one = multi.Configuration([(1, 2)])
    with pytest.raises(InputError, match="at least two points"):
        multi.configuration_check(one)


def test_moduli_copy_counts():
    assert multi.moduli_copies(2, 2) == 5
    assert multi.moduli_copies(1, 2) == 2
    assert multi.moduli_copies(3, 2) == 10
    assert multi.moduli_copies(2, 3) == 9
    assert multi.moduli_copies(2, 1) == 1
    with pytest.raises(InputError):
        multi.moduli_copies(0, 2)
    with pytest.raises(InputError):
        multi.moduli_copies(2, 0)


@pytest.mark.parametrize("delta, j, k", [(5, 3, 5), (10, 4, 6), (17, 2, 3)])
def test_hitchin_reports_are_pinned(delta, j, k):
    rep = multi.hitchin_commutation_check(multi.ProductSpace(delta), j, k)
    assert rep.to_dict() == {
        "title": "power-sum commutation", "passed": True, "checks": [
            {"name": f"bracket p{j},p{k} vanishes", "passed": True,
             "detail": ""},
            {"name": f"star commutator p{j},p{k} vanishes", "passed": True,
             "detail": ""}]}
