import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from metaplectic.rootdata import (
    Character,
    Cocharacter,
    ParabolicSubset,
    RootDatumError,
    antidominant_above,
    cartan_inverse,
    coroot,
    coroot_of,
    coroot_pairings,
    fundamental_weight,
    is_antidominant,
    leq,
    pairing,
    positive_roots,
    simple_root,
)
from _reference import antidominant_rep, b_positive_roots, cartan_matrix, coroot_coordinates


def test_simple_root_values():
    assert simple_root(1, 2).coords == (1, -1)
    assert simple_root(2, 2).coords == (0, 2)
    assert simple_root(3, 4).coords == (0, 0, 1, -1)
    with pytest.raises(RootDatumError):
        simple_root(0, 2)
    with pytest.raises(RootDatumError):
        simple_root(3, 2)


def test_coroot_values():
    assert coroot(2, 2).coords == (0, 1)
    assert coroot(1, 3).coords == (1, -1, 0)
    for n in range(1, 7):
        expected = tuple(0 for _ in range(n - 1)) + (1,)
        assert coroot(n, n).coords == expected


def _short(i, n):
    """eps_i - eps_{i+1} at rank n, written out."""
    return (0,) * (i - 1) + (1, -1) + (0,) * (n - i - 1)


def test_root_rule_reproduces_the_hand_formulas():
    """simple_root, coroot and positive_roots equal the formulas they were
    written as before coroot_of, element for element and in order: alpha_n
    = 2 eps_n and alpha_n^vee = e_n; eps_i - eps_j and eps_i + eps_j for
    i < j in order, then 2 eps_i."""

    def unit(n, *entries):
        coords = [0] * n
        for k, v in entries:
            coords[k] += v
        return tuple(coords)

    for n in range(1, 9):
        for i in range(1, n):
            assert simple_root(i, n).coords == coroot(i, n).coords == _short(i, n)
        assert simple_root(n, n).coords == (0,) * (n - 1) + (2,)
        assert coroot(n, n).coords == (0,) * (n - 1) + (1,)
        if n <= 7:
            want = [unit(n, (i, 1), (j, s)) for i in range(n) for j in range(i + 1, n) for s in (-1, 1)]
            want += [unit(n, (i, 2)) for i in range(n)]
            assert [a.coords for a in positive_roots(n)] == want
    for f, name in ((simple_root, "simple root"), (coroot, "coroot")):
        with pytest.raises(RootDatumError, match=f"^{name} index 3 out of range 1..2$"):
            f(3, 2)


def test_root_rule_at_the_satake_rank_limit():
    # a short root comes back as the same tuple: one count of its zeros
    n = 1_200_000
    for i in (1, n - 1):
        assert simple_root(i, n).coords == coroot(i, n).coords == _short(i, n)
    alpha = simple_root(1, n)
    assert coroot_of(alpha).coords is alpha.coords
    assert simple_root(n, n).coords == (0,) * (n - 1) + (2,)
    assert coroot(n, n).coords == (0,) * (n - 1) + (1,)


def test_coroots_of_c_are_the_roots_of_b():
    """2 alpha / (alpha, alpha) takes the positive roots of C_n to those of
    B_n, written by hand, in order, and back; their sum is 2 rho^vee."""
    for n in range(1, 8):
        c_roots, b_roots = positive_roots(n), b_positive_roots(n)
        assert [coroot_of(a) for a in c_roots] == b_roots
        assert [coroot_of(Character(b.coords)).coords for b in b_roots] == [a.coords for a in c_roots]
        assert sum(b_roots, Cocharacter((0,) * n)).coords == tuple(range(2 * n - 1, 0, -2))


def _weyl_dimension(roots, lam):
    """dim V_lam = prod over the positive roots alpha of (lam + rho,
    alpha^vee) / (rho, alpha^vee), read at 2 lam and 2 rho, the sum of the
    positive roots, so that every factor is an integer."""
    two_rho = [sum(col) for col in zip(*roots)]
    num = den = 1
    for alpha in roots:
        co = coroot_of(Character(alpha)).coords
        num *= sum((2 * a + r) * c for a, r, c in zip(lam, two_rho, co))
        den *= sum(r * c for r, c in zip(two_rho, co))
    assert num % den == 0
    return num // den


def test_weyl_dimensions_of_the_standard_and_adjoint_modules():
    # Sp_2n on its 2n-dimensional space and on sym^2 = its Lie algebra;
    # SO_{2n+1} on its (2n + 1)-dimensional space and on its Lie algebra
    for n in range(1, 5):
        c_roots = [a.coords for a in positive_roots(n)]
        b_roots = [b.coords for b in b_positive_roots(n)]
        first, zeros = (1,) + (0,) * (n - 1), (0,) * (n - 2)
        assert _weyl_dimension(c_roots, first) == 2 * n
        assert _weyl_dimension(c_roots, (2,) + first[1:]) == n * (2 * n + 1)
        assert _weyl_dimension(b_roots, first) == 2 * n + 1
        if n >= 2:
            assert _weyl_dimension(b_roots, (1, 1) + zeros) == n * (2 * n + 1)


@given(st.lists(st.integers(-50, 50), max_size=6), st.integers(-3, 3))
def test_cocharacter_from_a_list_equals_the_one_from_its_tuple(coords, gsp):
    # the benchmark builds cocharacters from JSON lists
    from_list, from_tuple = Cocharacter(coords, gsp), Cocharacter(tuple(coords), gsp)
    assert type(from_list.coords) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert {from_list: 1}[from_tuple] == 1


def test_pairing_chi_lambda_dual_bases():
    # chi_i = eps_i and lambda_j = e_j, so the pairing is the Kronecker delta
    n = 4
    for i in range(n):
        for j in range(n):
            chi = Character(tuple(1 if k == i else 0 for k in range(n)))
            lam = Cocharacter(tuple(1 if k == j else 0 for k in range(n)))
            assert pairing(chi, lam) == (1 if i == j else 0)


@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_coroot_pairings_match_pairing_with_each_coroot(coords):
    chi, n = Character(tuple(coords)), len(coords)
    assert coroot_pairings(chi) == tuple(pairing(chi, coroot(i, n)) for i in range(1, n + 1))


def test_pairing_examples():
    assert pairing(simple_root(2, 2), coroot(1, 2)) == -2
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert pairing(simple_root(i, n), coroot(i, n)) == 2
    with pytest.raises(RootDatumError):
        pairing(Character((1, 0)), Cocharacter((1, 0, 0)))


def test_cartan_matrix_shape():
    for n in range(2, 9):
        C = cartan_matrix(n)
        for i in range(n):
            assert C[i][i] == 2
        assert C[n - 2][n - 1] == -1  # <alpha_{n-1}, alpha_n^vee>
        assert C[n - 1][n - 2] == -2  # <alpha_n, alpha_{n-1}^vee>
        for j, k in itertools.product(range(n - 1), repeat=2):
            if abs(j - k) == 1:
                assert C[j][k] == -1
            elif j != k and not (j == n - 1 or k == n - 1):
                assert C[j][k] == 0


def _assert_inverts_restricted_cartan(n, J):
    """C_J X = I and X >= 0 for X = cartan_inverse(n, J), where C_J keeps
    the rows and columns of cartan_matrix(n) indexed by J."""
    C = cartan_matrix(n)
    idx = sorted(J)
    inv = cartan_inverse(n, J)
    assert all(x >= 0 for row in inv for x in row), (n, idx)
    for r, j in enumerate(idx):
        for s in range(len(idx)):
            acc = sum(C[j - 1][k - 1] * inv[t][s] for t, k in enumerate(idx))
            assert acc == (1 if r == s else 0), (n, idx)


def test_cartan_inverse_nonnegative():
    # every J at small rank, so every shape of run (type A_m blocks, the
    # type C_m block ending at n, and their mixtures) is met; then the
    # full type C_n matrix up to rank 30
    for n in range(1, 9):
        for r in range(n + 1):
            for J in itertools.combinations(range(1, n + 1), r):
                _assert_inverts_restricted_cartan(n, J)
    for n in range(9, 31):
        _assert_inverts_restricted_cartan(n, range(1, n + 1))


def test_leq_examples():
    lam = Cocharacter((-2, -2))
    mu = Cocharacter((-1, -1))
    assert leq(lam, lam)
    assert leq(lam, mu)  # (1,1) = alpha_1^vee + 2 alpha_2^vee
    assert not leq(mu, lam)
    assert not leq(lam, Cocharacter((-3, -1)))  # prefix sums (-1, 0)



def test_leq_errors():
    with pytest.raises(RootDatumError, match=r"^rank mismatch: 2 != 1$"):
        leq(Cocharacter((-1, 0)), Cocharacter((0,)))
    # mu - lam has a similitude part: 1 - 0, then 1 - 2
    for lam, mu in ((Cocharacter((0,)), Cocharacter((1,), gsp=1)),
                    (Cocharacter((0,), gsp=2), Cocharacter((0,), gsp=1))):
        with pytest.raises(RootDatumError, match="^similitude part has no coroot coordinates$"):
            leq(lam, mu)
    assert leq(Cocharacter((0,), 1), Cocharacter((1,), 1))  # equal similitude parts cancel


def test_leq_agrees_with_coroot_coordinates():
    """leq stops at the first negative prefix sum; it answers as the
    reference coroot coordinates of mu - lam do, on every pair of
    cocharacters with coordinates in -2..2 at ranks 1-3."""
    for n in (1, 2, 3):
        points = [Cocharacter(c) for c in itertools.product(range(-2, 3), repeat=n)]
        for lam, mu in itertools.product(points, repeat=2):
            assert leq(lam, mu) == all(c >= 0 for c in coroot_coordinates(mu - lam)), (lam, mu)

@st.composite
def cochar_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    base = Cocharacter(tuple(draw(st.integers(-3, 3)) for _ in range(n)))
    a = [draw(st.integers(0, 2)) for _ in range(n)]
    step = base
    for k, ak in enumerate(a):
        step = step + ak * coroot(k + 1, n)
    return base, step


@given(cochar_pairs(), st.data())
@settings(max_examples=120, deadline=None)
def test_leq_partial_order(pair, data):
    lam, mu = pair
    n = lam.rank
    assert leq(lam, lam)
    assert leq(lam, mu)
    if leq(mu, lam):
        assert mu == lam  # antisymmetry
    b = [data.draw(st.integers(0, 2)) for _ in range(n)]
    nu = mu
    for k, bk in enumerate(b):
        nu = nu + bk * coroot(k + 1, n)
    assert leq(mu, nu) and leq(lam, nu)  # transitivity along chains


def test_is_antidominant():
    assert is_antidominant(Cocharacter((0, 0)))
    assert is_antidominant(Cocharacter((-2, -1)))
    assert not is_antidominant(Cocharacter((-1, -2)))
    assert not is_antidominant(Cocharacter((0, 1)))  # the long root pairs to 2


def _antidominant_by_pairing(lam):
    n = lam.rank
    return all(pairing(simple_root(j, n), lam) <= 0 for j in range(1, n + 1))


def _brute_antidominant_above(lam):
    """Independent oracle: box scan plus the pairing definition of
    antidominance and the leq predicate.

    Every coordinate of an antidominant mu >= lam lies between min(lam)
    and 0: the coordinates of mu ascend to mu_n <= 0, and mu_1 >= lam_1.
    """
    n = lam.rank
    lo = min(lam.coords + (0,))
    out = set()
    for coords in itertools.product(range(lo, 1), repeat=n):
        mu = Cocharacter(coords)
        if _antidominant_by_pairing(mu) and leq(lam, mu):
            out.add(mu)
    return out


def test_antidominant_above_zero():
    z = Cocharacter((0, 0, 0))
    assert antidominant_above(z) == {z}


def test_antidominant_above_walks_past_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    zero = Cocharacter((0,) * n)
    assert antidominant_above(zero) == {zero}
    lam = Cocharacter((-1,) + (0,) * (n - 1))
    assert antidominant_above(lam) == {lam, zero}


def test_antidominant_above_rank1():
    got = {c.coords for c in antidominant_above(Cocharacter((-2,)))}
    assert got == {(-2,), (-1,), (0,)}


def test_antidominant_above_sp4_cell():
    # note: this set has six elements; (0,0) = lam + 2a_1 + 4a_2 qualifies
    lam = Cocharacter((-2, -2))
    got = {c.coords for c in antidominant_above(lam)}
    expected = {(-2, -2), (-2, -1), (-2, 0), (-1, -1), (-1, 0), (0, 0)}
    assert got == expected
    assert got == {c.coords for c in _brute_antidominant_above(lam)}


def test_antidominant_above_matches_bruteforce_sweep():
    # every base with coordinates in -3..1 at n <= 3: is_antidominant
    # agrees with the pairing definition, and the walk with the box scan
    # or, off the cone, refuses the base
    for n in (1, 2, 3):
        for coords in itertools.product(range(-3, 2), repeat=n):
            lam = Cocharacter(coords)
            assert is_antidominant(lam) == _antidominant_by_pairing(lam)
            if not is_antidominant(lam):
                with pytest.raises(RootDatumError):
                    antidominant_above(lam)
                continue
            assert antidominant_above(lam) == _brute_antidominant_above(lam)


def test_cartan_inverse_same_for_every_spelling_of_J():
    for n in range(1, 7):
        assert cartan_inverse(n) == cartan_inverse(n, None) == cartan_inverse(n, range(1, n + 1))
        for r in range(n + 1):
            for idx in itertools.combinations(range(1, n + 1), r):
                want = cartan_inverse(n, list(idx))
                assert cartan_inverse(n, list(reversed(idx))) == want
                assert cartan_inverse(n, set(idx)) == want
                assert type(want) is tuple and all(type(row) is tuple for row in want)
                assert len(want) == r and all(len(row) == r for row in want)


def test_antidominant_above_downward_compatible():
    lam = Cocharacter((-2, -1))
    above = antidominant_above(lam)
    for mu in above:
        assert antidominant_above(mu) <= above


def test_antidominant_rep():
    assert antidominant_rep(Cocharacter((2, -1))).coords == (-2, -1)
    assert antidominant_rep(Cocharacter((0, 0))).coords == (0, 0)
    assert antidominant_rep(Cocharacter((-1, -3))).coords == (-3, -1)


def test_antidominant_rep_weyl_invariant():
    samples = [(0, 0, 0), (1, -2, 3), (-1, -1, 2), (0, 2, -2)]
    for coords in samples:
        lam = Cocharacter(coords)
        rep = antidominant_rep(lam)
        assert is_antidominant(rep)
        assert antidominant_rep(rep) == rep
        # the Weyl group of C_3: every signed permutation of the coordinates
        for perm in itertools.permutations(coords):
            for signs in itertools.product((1, -1), repeat=3):
                w_lam = Cocharacter(tuple(s * c for s, c in zip(signs, perm)))
                assert antidominant_rep(w_lam) == rep


def test_positive_roots_are_the_rho_positive_roots():
    """n^2 distinct roots, exactly those of +-eps_i +- eps_j (i < j) and
    +-2 eps_i that pair positively with rho^vee = (n, n-1, ..., 1)."""
    for n in range(1, 7):
        roots = set()
        for i in range(n):
            for s in (1, -1):
                long = [0] * n
                long[i] = 2 * s
                roots.add(Character(tuple(long)))
                for j in range(i + 1, n):
                    for t in (1, -1):
                        short = [0] * n
                        short[i], short[j] = s, t
                        roots.add(Character(tuple(short)))
        rho = Cocharacter(tuple(range(n, 0, -1)))
        pos = positive_roots(n)
        assert len(pos) == len(set(pos)) == n * n
        assert set(pos) == {r for r in roots if pairing(r, rho) > 0}
        assert all(simple_root(i, n) in pos for i in range(1, n + 1))


def test_fundamental_weights_dual_to_coroots():
    for n in range(1, 6):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert pairing(fundamental_weight(i, n), coroot(j, n)) == (
                    1 if i == j else 0
                )


def test_coroot_coordinates_roundtrip():
    for coords in itertools.product(range(-2, 3), repeat=3):
        lam = Cocharacter(coords)
        cs = coroot_coordinates(lam)
        # the e coordinates are the successive differences of the prefix sums
        assert tuple(b - a for a, b in zip((0,) + cs, cs)) == coords
    # alpha_i^vee has coroot coordinates e_i
    for n in range(1, 5):
        for i in range(1, n + 1):
            cs = coroot_coordinates(coroot(i, n))
            assert cs == tuple(1 if k == i - 1 else 0 for k in range(n))


def test_parabolic_subset_validation():
    with pytest.raises(RootDatumError):
        ParabolicSubset(2, frozenset({3}))
    assert ParabolicSubset.siegel(3).roots == {1, 2}


def test_parabolic_subset_range_messages():
    for n in (1, 3):
        for bad in (0, n + 1, -1):
            with pytest.raises(RootDatumError) as err:
                ParabolicSubset(n, frozenset({bad}))
            assert str(err.value) == f"indices out of range 1..{n}: [{bad}]"
    with pytest.raises(RootDatumError) as err:
        ParabolicSubset(2, {2, 0, 1})
    assert str(err.value) == "indices out of range 1..2: [0, 1, 2]"
    assert ParabolicSubset(2, frozenset()).roots == frozenset()
    assert ParabolicSubset(0, ()).roots == frozenset()
    # any iterable of indices is stored as a frozenset
    assert ParabolicSubset(3, [3, 1, 3]).roots == frozenset({1, 3})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fundamental_weight(0, 2), "index 0 out of range 1..2"),
        (lambda: cartan_inverse(2, [3]), "indices out of range 1..2: [3]"),
    ],
    ids=["fundamental-weight-index", "cartan-inverse-indices"],
)
def test_index_refusals_name_their_cause(build, message):
    with pytest.raises(RootDatumError) as err:
        build()
    assert str(err.value) == message
