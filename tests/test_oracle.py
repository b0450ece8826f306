import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metaplectic import oracle
from metaplectic.hecke import TorusHeckeElement, t2lambda_base
from metaplectic.oracle import (
    ORACLE_BOX_LIMIT,
    ChevalleyRealization,
    OracleError,
    PadicMatrix,
    StabilizationError,
    box_estimate,
    cartan_invariant_of_entries,
    count_cosets,
    matrix_product,
    oracle_rows,
    reductive_satake_row,
    smith_valuations,
    verify_metaplectic_pipeline,
)
from metaplectic.rootdata import Cocharacter, antidominant_above, antidominant_rep, pairing

P = 3


def _vp(x, p=P):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------
# matrix realizations

SL2 = ChevalleyRealization("sl2")
SP4 = ChevalleyRealization("sp4")


def _root_element(realization, units, num, den):
    """p^den (I + (num / p^den) sum sign E_ab), an integer matrix of shift den."""
    m = realization.identity(P**den)
    realization.right_multiply_generator(m, units, num, P**den)
    return m


def _symplectic_defect(entries, shift, realization):
    """g^T J g - J for g = p^(-shift) entries, scaled by p^(2 shift)."""
    J = realization.form_matrix()
    size = realization.size
    gt = [list(col) for col in zip(*entries)]
    prod = matrix_product(matrix_product(gt, J), entries)
    return [[prod[i][j] - P ** (2 * shift) * J[i][j] for j in range(size)] for i in range(size)]


def _transpose(units):
    """The positive root vector sum(sign E_ba) of a negative one sum(sign E_ab)."""
    return tuple(((b, a), sign) for (a, b), sign in units)


# the sl2 and sp4 tables written out by hand, an independent reference for
# the generated ones: (units, entry, window_col) in walk order
HAND_TABLES = {
    "sl2": [((((1, 0), 1),), (1, 0), 0)],  # -a1
    "sp4": [
        ((((1, 0), 1), ((3, 2), -1)), (1, 0), 0),  # -a1
        ((((2, 1), 1),), (2, 1), 1),  # -a2
        ((((2, 0), 1), ((3, 1), 1)), (2, 0), 0),  # -(a1 + a2)
        ((((3, 0), 1),), (3, 0), 0),  # -(2 a1 + a2)
    ],
}


def test_generated_tables_match_hand_tables():
    for tag, table in HAND_TABLES.items():
        neg = ChevalleyRealization(tag).neg
        assert [(g.units, g.entry, g.window_col) for g in neg] == table


def _form(n):
    """antidiag(1..1, -1..-1) of size 2n."""
    size = 2 * n
    return [[(1 if i < n else -1) * (i + j == size - 1) for j in range(size)] for i in range(size)]


def test_generated_root_vectors_preserve_form_to_rank_4():
    for n in (1, 2, 3, 4):
        neg = oracle._negative_roots(n)
        assert len(neg) == n * n
        J = _form(n)
        for units in [g.units for g in neg] + [_transpose(g.units) for g in neg]:
            # X^T J + J X = 0 for the root vector X, and X^2 = 0
            X = [[0] * (2 * n) for _ in range(2 * n)]
            for (a, b), sign in units:
                X[a][b] += sign
            XT = [list(col) for col in zip(*X)]
            assert all(
                x + y == 0
                for r1, r2 in zip(matrix_product(XT, J), matrix_product(J, X))
                for x, y in zip(r1, r2)
            )
            assert not any(map(any, matrix_product(X, X)))


def test_generators_preserve_form():
    assert SL2.form_matrix() == [[0, 1], [-1, 0]]
    assert SP4.form_matrix() == [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    for realization, mu in ((SL2, (-2,)), (SP4, (-2, 1))):
        size = realization.size
        zero = [[0] * size for _ in range(size)]
        for gen in realization.neg:
            for units in (gen.units, _transpose(gen.units)):
                m = _root_element(realization, units, 5, 1)
                assert _symplectic_defect(m, 1, realization) == zero
        t, k = realization.torus_matrix(Cocharacter(mu), P)
        assert _symplectic_defect(t, k, realization) == zero


def test_sp2_membership_is_determinant_one():
    """g^T J g = det(g) J in size 2, so Sp_2 membership is SL_2's."""
    for g in itertools.product(range(-2, 3), repeat=4):
        m = [list(g[:2]), list(g[2:])]
        det = g[0] * g[3] - g[1] * g[2]
        if det == 1:
            PadicMatrix(m, 0, SL2, P)
        else:
            with pytest.raises(OracleError):
                PadicMatrix(m, 0, SL2, P)


def test_padic_matrix_membership_check():
    good, k = SP4.torus_matrix(Cocharacter((-1, 0)), P)
    PadicMatrix(good, k, SP4, P)  # passes
    bad = SP4.identity()
    bad[0][0] = 2
    with pytest.raises(OracleError):
        PadicMatrix(bad, 0, SP4, P)
    good2, k2 = SL2.torus_matrix(Cocharacter((-3,)), P)
    PadicMatrix(good2, k2, SL2, P)
    bad2 = SL2.identity()
    bad2[0][0] = 3
    with pytest.raises(OracleError):
        PadicMatrix(bad2, 0, SL2, P)
    # the right entries under the wrong shift are not in the group
    with pytest.raises(OracleError):
        PadicMatrix(good, k + 1, SP4, P)


def test_torus_conjugation_scales_root_coordinates():
    # t u_{-beta}(x) t^{-1} = u_{-beta}(pi^{-<beta, mu>} x) at the bare entry
    from metaplectic.rootdata import Character

    positive_betas = {0: (1, -1), 1: (0, 2), 2: (1, 1), 3: (2, 0)}
    for mu in (Cocharacter((1, -2)), Cocharacter((0, 3))):
        t, kt = SP4.torus_matrix(mu, P)
        tinv, kinv = SP4.torus_matrix(-1 * mu, P)
        for k, gen in enumerate(SP4.neg):
            u = _root_element(SP4, gen.units, 2, 1)  # x = 2 / p
            conj = matrix_product(matrix_product(t, u), tinv)
            shift = kt + 1 + kinv
            i, j = gen.entry
            drop = pairing(Character(positive_betas[k]), mu)
            assert _vp(conj[i][j]) - shift == -1 - drop
            # exactly p^(-drop) x, as a fraction
            assert Fraction(conj[i][j], P**shift) == Fraction(2, P) * Fraction(P) ** -drop


def test_unipotent_direct_entry_property():
    # every enumerated coordinate appears bare at its designated entry
    rng = random.Random(4)
    width = 2
    q = P ** (2 * width)
    for _ in range(40):
        pairs = [(rng.randrange(1, 27), rng.randint(0, width)) for _ in range(4)]
        xs = [num * P ** (2 * width - den) for num, den in pairs]
        u = SP4.unipotent_from_entries(xs, q)
        for gen, (num, den) in zip(SP4.neg, pairs):
            i, j = gen.entry
            assert Fraction(u[i][j], q ** len(SP4.neg)) == Fraction(num, P**den)
        PadicMatrix(u, 2 * width * len(SP4.neg), SP4, P)  # and the product lies in Sp_4


# ---------------------------------------------------------------------
# exact coset reduction: the parametrization is a bijection


def _frac_identity(size):
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def _frac_apply_right(m, units, x):
    for (a, b), sign in units:
        for i in range(len(m)):
            m[i][b] += sign * x * m[i][a]


def _frac_apply_left(units, x, m):
    for (a, b), sign in units:
        for j in range(len(m)):
            m[a][j] += sign * x * m[b][j]


def _frac_unipotent(neg, size, entry_coords):
    """Unipotent element with the given canonical entry coordinates, over
    exact rationals: each group coordinate is its entry minus the read of
    that entry in the product so far."""
    m = _frac_identity(size)
    for gen, x in zip(neg, entry_coords):
        i, j = gen.entry
        _frac_apply_right(m, gen.units, x - m[i][j])
    return m


def _frac_unipotent_hand_sp4(entry_coords):
    """The same element of Sp_4 from the hand tables and their hand-derived
    commutator term: the -(2 a1 + a2) coordinate is its entry plus
    x_{-a1} x_{-(a1 + a2)}."""
    a, b, c, d = entry_coords
    m = _frac_identity(4)
    for (units, _, _), coord in zip(HAND_TABLES["sp4"], (a, b, c, d + a * c)):
        _frac_apply_right(m, units, coord)
    return m


def test_prefix_read_matches_hand_correction():
    rng = random.Random(21)
    for _ in range(200):
        coords = [Fraction(rng.randint(-40, 40), P ** rng.randint(0, 3)) for _ in range(4)]
        assert _frac_unipotent(SP4.neg, 4, coords) == _frac_unipotent_hand_sp4(coords)


def test_prefix_read_leaves_entries_bare_to_rank_4():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        neg = oracle._negative_roots(n)
        for _ in range(20):
            coords = [Fraction(rng.randint(-40, 40), P ** rng.randint(0, 2)) for _ in neg]
            u = _frac_unipotent(neg, 2 * n, coords)
            assert [u[i][j] for i, j in (g.entry for g in neg)] == coords
            J = _form(n)
            assert matrix_product(matrix_product([list(c) for c in zip(*u)], J), u) == J


def _canonical_fraction(x: Fraction, p: int) -> Fraction:
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    assert den == 1, "denominator must be a p power"
    pk = p**k
    num = x.numerator % pk
    return Fraction(num, pk)


def _frac_coset_reduce(realization, m, p):
    """Greedy left reduction by integral root elements; returns canonical
    coordinates of the coset (U^- cap K) m."""
    m = [row[:] for row in m]
    out = []
    for gen in realization.neg:
        i, j = gen.entry
        x = m[i][j]
        canon = _canonical_fraction(x, p)
        w = canon - x
        assert w.denominator == 1  # the correction is integral
        _frac_apply_left(gen.units, w, m)
        assert m[i][j] == canon
        out.append(canon)
    return tuple(out)


def _depth_tuples(realization, depth, p):
    reps = [Fraction(a, p**depth) for a in range(p**depth)]
    return itertools.product(reps, repeat=len(realization.neg))


def test_coset_parametrization_bijective_sp4_depth1():
    for coords in _depth_tuples(SP4, 1, P):
        u = _frac_unipotent(SP4.neg, 4, coords)
        assert _frac_coset_reduce(SP4, u, P) == coords


def test_coset_reduction_invariant_under_integral_left_multiplication():
    rng = random.Random(8)
    for _ in range(60):
        coords = tuple(Fraction(rng.randrange(9), 9) for _ in range(4))
        u = _frac_unipotent(SP4.neg, 4, coords)
        w = [row[:] for row in u]
        for _ in range(4):
            gen = SP4.neg[rng.randrange(4)]
            _frac_apply_left(gen.units, Fraction(rng.randint(-5, 5)), w)
        assert _frac_coset_reduce(SP4, w, P) == _frac_coset_reduce(SP4, u, P)
        assert _frac_coset_reduce(SP4, u, P) == coords


def test_coset_parametrization_bijective_sl2():
    for depth in (1, 2):
        for coords in _depth_tuples(SL2, depth, P):
            u = _frac_unipotent(SL2.neg, 2, coords)
            assert _frac_coset_reduce(SL2, u, P) == coords


# ---------------------------------------------------------------------
# Cartan invariants


def test_cartan_invariant_of_torus_points():
    for mu in ((-2,), (0,), (-5,)):
        t, k = SL2.torus_matrix(Cocharacter(mu), P)
        assert cartan_invariant_of_entries(t, SL2, P, k).coords == antidominant_rep(
            Cocharacter(mu)
        ).coords
    for mu in ((-2, -1), (0, 0), (-3, -3), (2, -1)):
        t, k = SP4.torus_matrix(Cocharacter(mu), P)
        assert (
            cartan_invariant_of_entries(t, SP4, P, k)
            == antidominant_rep(Cocharacter(mu))
        )


def test_cartan_invariant_sl2_example():
    # [[1,0],[p^{-1},1]] diag(p^{-1}, p): divisors (p^{-2}, p^2), as
    # p^(-2) [[p, 0], [1, p^3]]
    g = [
        [P, 0],
        [1, P**3],
    ]
    assert cartan_invariant_of_entries(g, SL2, P, 2).coords == (-2,)
    assert PadicMatrix(g, 2, SL2, P).cartan_invariant().coords == (-2,)


def test_cartan_invariant_identity():
    assert cartan_invariant_of_entries(SL2.identity(), SL2, P, 0).coords == (0,)
    assert cartan_invariant_of_entries(SP4.identity(), SP4, P, 0).coords == (0, 0)
    # the shift is carried exactly: p^(-3) (p^3 I) is still the identity
    assert cartan_invariant_of_entries(SP4.identity(P**3), SP4, P, 3).coords == (0, 0)


def _random_integral_element(realization, rng, p):
    m = realization.identity()
    for _ in range(6):
        units = realization.neg[rng.randrange(len(realization.neg))].units
        if rng.random() < 0.5:
            units = _transpose(units)
        realization.right_multiply_generator(m, units, rng.randrange(1, p**2), 1)
    return m


def test_cartan_invariant_bi_K_invariance():
    rng = random.Random(13)
    for realization, mu in ((SL2, (-2,)), (SP4, (-2, -1)), (SP4, (-1, 0))):
        t, k = realization.torus_matrix(Cocharacter(mu), P)
        lam = antidominant_rep(Cocharacter(mu))
        for _ in range(8):
            k1 = _random_integral_element(realization, rng, P)
            k2 = _random_integral_element(realization, rng, P)
            g = matrix_product(matrix_product(k1, t), k2)
            assert cartan_invariant_of_entries(g, realization, P, k) == lam


def test_cartan_invariant_of_inverse_on_diagonals():
    for mu in itertools.product(range(-2, 3), repeat=2):
        t, k = SP4.torus_matrix(Cocharacter(mu), P)
        lam = cartan_invariant_of_entries(t, SP4, P, k)
        tinv, kinv = SP4.torus_matrix(-1 * Cocharacter(mu), P)
        inv = cartan_invariant_of_entries(tinv, SP4, P, kinv)
        assert inv == antidominant_rep(-1 * lam)


def test_smith_valuations_exact_under_cancellation():
    # the elimination cancels the leading digits exactly: 1 + p^3 - 1 = p^3
    assert smith_valuations([[1, 1], [1, 1 + P**3]], P, 0) == [0, 3]
    assert smith_valuations([[P, P], [P, P + P**5]], P, 1) == [0, 4]
    with pytest.raises(OracleError):
        smith_valuations([[2, 2], [2, 2]], P, 0)  # cancels to exact zero


def test_smith_rejects_unpaired_divisors():
    g = [
        [1, 0],
        [0, 1],
    ]
    with pytest.raises(OracleError):
        cartan_invariant_of_entries(g, SL2, P, 1)  # p^(-1) I is not in SL_2


# ---------------------------------------------------------------------
# coset counts


def test_sl2_counts_exact():
    lam2 = Cocharacter((-2,))
    for p in (3, 5, 7):
        assert count_cosets(lam2, lam2, 3, "sl2", p).raw_count == 1
        r1 = count_cosets(Cocharacter((-1,)), lam2, 3, "sl2", p)
        assert r1.raw_count == p - 1 and r1.count_mod_p == p - 1
        r2 = count_cosets(Cocharacter((0,)), lam2, 3, "sl2", p)
        assert r2.raw_count == p * p - p and r2.count_mod_p == 0
        assert r1.stabilized and r2.stabilized and r1.depth_used == 3


def test_count_cosets_validation():
    lam2 = Cocharacter((-2,))
    with pytest.raises(OracleError):
        count_cosets(Cocharacter((1,)), lam2, 2, "sl2", 3)  # mu not above lam
    with pytest.raises(OracleError):
        count_cosets(lam2, Cocharacter((1,)), 2, "sl2", 3)  # lam not antidominant
    with pytest.raises(OracleError):
        count_cosets(lam2, lam2, 0, "sl2", 3)
    with pytest.raises(OracleError):
        count_cosets(Cocharacter((-1, 0)), lam2, 2, "sl2", 3)  # rank mismatch
    with pytest.raises(OracleError):
        count_cosets(Cocharacter((-1,), gsp=1), lam2, 2, "sl2", 3)  # mu has a gsp part
    with pytest.raises(OracleError):
        count_cosets(Cocharacter((-1,)), Cocharacter((-2,), gsp=1), 2, "sl2", 3)


def test_box_estimate_admits_p11_and_refuses_p13():
    zero = Cocharacter((0, 0))
    for i in (1, 2):
        lam = 2 * t2lambda_base(i, 2)
        # the mu = (0, 0) cell has windows summing to 4 at depth 1 and to 8
        # from depth 2 on, so depth 1 adds the re-run's box
        assert box_estimate(zero, lam, 1, "sp4", 11) == 11**4 + 11**8
        for depth in (2, 3, 4):
            assert box_estimate(zero, lam, depth, "sp4", 11) == 11**8
            assert box_estimate(zero, lam, depth, "sp4", 13) == 13**8
        for depth in (1, 2, 3, 4):
            for mu in antidominant_above(lam):
                assert box_estimate(mu, lam, depth, "sp4", 11) <= ORACLE_BOX_LIMIT["sp4"]
        assert box_estimate(zero, lam, 4, "sp4", 13) > ORACLE_BOX_LIMIT["sp4"]


def test_over_budget_row_is_refused_before_counting(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a cell was counted")

    monkeypatch.setattr(oracle, "_count_in_cell", no_walk)
    lam = 2 * t2lambda_base(2, 2)
    for p in (13, 31):
        with pytest.raises(OracleError) as err:
            oracle_rows(lam, 4, "sp4", p)
        assert f"{p**8:,} tuples" in str(err.value)
        with pytest.raises(OracleError):
            count_cosets(Cocharacter((0, 0)), lam, 4, "sp4", p)
        with pytest.raises(OracleError):
            verify_metaplectic_pipeline(2, 2, p)
    # sl2 boxes are p^2 at most, and every tuple is a leaf: p = 839 is the
    # first prime refused, at every depth
    sl2_cell = (Cocharacter((0,)), Cocharacter((-2,)), 4, "sl2")
    assert box_estimate(*sl2_cell, 829) <= ORACLE_BOX_LIMIT["sl2"]
    for depth in (1, 2, 3, 4):
        with pytest.raises(OracleError):
            count_cosets(Cocharacter((0,)), Cocharacter((-2,)), depth, "sl2", 839)


def test_sp4_shifted_cell_count_hand_value():
    # only the -a2 coordinate has a window: v(b) = -1 exactly, p - 1 choices
    lam = Cocharacter((-2, -2))
    res = count_cosets(Cocharacter((-2, -1)), lam, 3, "sp4", 3)
    assert res.raw_count == 2
    res5 = count_cosets(Cocharacter((-2, -1)), lam, 3, "sp4", 5)
    assert res5.raw_count == 4


def test_sp4_row_regression_p3():
    # raw counts frozen from a lossless full-box run (see the pruning
    # test); the mod-p zeros away from 2 lam and 2 lam + alpha_2^vee are
    # the theory-forced values
    rows = oracle_rows(Cocharacter((-2, -2)), 4, "sp4", 3)
    table = {r.mu.coords: (r.raw_count, r.count_mod_p) for r in rows}
    assert table == {
        (-2, -2): (1, 1),
        (-2, -1): (2, 2),
        (-2, 0): (6, 0),
        (-1, -1): (30, 0),
        (-1, 0): (72, 0),
        (0, 0): (1188, 0),
    }
    assert all(r.stabilized for r in rows)


# fixed points: the p = 7 rows of both Sp_4 targets, typed in from the
# table recorded in ROADMAP.md, never re-recorded from code
P7_ROWS = {
    (-2, 0): {(-2, 0): 1, (-1, -1): 6, (-1, 0): 42, (0, 0): 4116},
    (-2, -2): {
        (-2, -2): 1,
        (-2, -1): 6,
        (-2, 0): 42,
        (-1, -1): 546,
        (-1, 0): 3528,
        (0, 0): 275772,
    },
}


@pytest.mark.parametrize("lam_coords", sorted(P7_ROWS))
def test_sp4_row_fixed_points_p7(lam_coords):
    rows = oracle_rows(Cocharacter(lam_coords), 4, "sp4", 7)
    assert {r.mu.coords: r.raw_count for r in rows} == P7_ROWS[lam_coords]
    assert all(r.stabilized for r in rows)


@given(st.sampled_from((3, 5, 7)), st.integers(0, 4), st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_progression_matches_brute_force(p, e, w, data):
    # numbers u p^v with small v, so that the valuations of a and b vary
    num = st.builds(lambda u, v: u * p**v, st.integers(-50, 50), st.integers(0, 5))
    pairs = data.draw(st.lists(st.tuples(num, num), max_size=4))
    # every y in range(p^w) solving all the congruences, and only those
    want = {y for y in range(p**w) if all((a + y * b) % p**e == 0 for a, b in pairs)}
    found = oracle._progression(pairs, p, e)
    if found is None:
        assert not want
    else:
        y0, step = found
        assert 0 <= y0 < step and step == p ** _vp(step, p)
        assert set(range(y0, p**w, step)) == want


@given(st.sampled_from((3, 5, 7)), st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_progression_is_the_residue_class_of_all_solutions(p, e, data):
    """Every residue mod p^e is scanned, so the solutions are exactly one
    class y0 mod step, or none; slopes are often divisible by p."""
    pe = p**e
    num = st.builds(lambda u, v: u * p**v, st.integers(-30, 30), st.integers(0, 3))
    pairs = data.draw(st.lists(st.tuples(st.integers(-60, 60), num), min_size=1, max_size=4))
    want = [y for y in range(pe) if all((a + y * b) % pe == 0 for a, b in pairs)]
    found = oracle._progression(pairs, p, e)
    if not want:
        assert found is None
        return
    assert found is not None
    y0, step = found
    assert 0 <= y0 < step and pe % step == 0
    assert want == [y for y in range(pe) if y % step == y0]


def test_progression_examples():
    assert oracle._progression([], 3, 2) == (0, 1)
    assert oracle._progression([(1, 0)], 3, 0) == (0, 1)  # mod 1 everything holds
    assert oracle._progression([(1, 3)], 3, 2) is None  # 1 + 3y is never 0 mod 3
    assert oracle._progression([(3, 3)], 3, 2) == (2, 3)  # 3 + 3y = 0 mod 9
    assert oracle._progression([(3, 3), (1, 1)], 3, 2) == (8, 9)
    assert oracle._progression([(3, 3), (0, 1)], 3, 2) is None


def test_pruning_is_lossless_sp4_small_depth():
    # brute force with fully open windows and a full Smith step per tuple
    # agrees with the pruned count; lam = (-1, 0) has a nonzero second
    # expected divisor, which the per-node split Smith step scans for, and
    # the floor -2 targets have many nodes whose children the integrality
    # congruence rules out all at once
    for lam in (
        Cocharacter((-1, -1)),
        Cocharacter((-1, 0)),
        Cocharacter((-2, -1)),
        Cocharacter((-2, -2)),
    ):
        expect = sorted(lam.coords)
        for mu in antidominant_above(lam):
            pruned = count_cosets(mu, lam, 2, "sp4", 3, check_stabilization=False)
            exps = SP4.torus_exponents(mu)
            count = 0
            shift = 2 * 2 * len(SP4.neg) - min(exps)
            for nums in itertools.product(range(9), repeat=4):
                # entries a / 3^2 as numerators over q = 3^4
                u = SP4.unipotent_from_entries([9 * a for a in nums], 3**4)
                for i in range(4):
                    for j in range(4):
                        u[i][j] *= 3 ** (exps[j] - min(exps))
                if smith_valuations(u, 3, shift, stop_after=2, expect=expect) is not None:
                    count += 1
            assert pruned.raw_count == count, (lam, mu)


def test_widened_windows_keep_counts_through_the_congruence(monkeypatch):
    """The real windows leave every child integral, so `_progression`
    returns step 1 there.  Windowing each coordinate by the largest torus
    exponent instead lets non-integral children into the box; the walk
    must then rule them out through (y0, step), with the same counts."""
    found = []

    def spy(pairs, p, e):
        res = progression(pairs, p, e)
        found.append(res)
        return res

    progression = oracle._progression
    monkeypatch.setattr(oracle, "_progression", spy)
    rows = {SL2: [(-2,), (-3,)], SP4: [(-1, -1), (-1, 0), (-2, -1), (-2, -2)]}
    for real, lams in rows.items():
        wide = ChevalleyRealization(real.tag)
        wide.neg = tuple(dataclasses.replace(g, window_col=wide.size - 1) for g in wide.neg)
        for lam in map(Cocharacter, lams):
            for mu in antidominant_above(lam):
                want = oracle._count_in_cell(real, mu, lam, 2, P)
                assert oracle._count_in_cell(wide, mu, lam, 2, P) == want, (lam, mu)
    steps = [res for res in found if res is not None]
    assert any(step > 1 for _, step in steps) and any(y0 > 0 for y0, _ in steps)


def test_stabilization_reported_when_depth_too_small():
    lam2 = Cocharacter((-2,))
    res = count_cosets(Cocharacter((0,)), lam2, 1, "sl2", 3)
    assert res.raw_count == 0  # the depth-1 box misses all valuation -2 points
    assert not res.stabilized
    with pytest.raises(StabilizationError):
        reductive_satake_row(lam2, 1, "sl2", 3)


def test_reductive_satake_row_sl2():
    row = reductive_satake_row(Cocharacter((-2,)), 4, "sl2", 3)
    assert row == TorusHeckeElement(3, {(-2,): 1, (-1,): -1})
    row5 = reductive_satake_row(Cocharacter((-2,)), 4, "sl2", 5)
    assert row5 == TorusHeckeElement(5, {(-2,): 1, (-1,): -1})


def test_reductive_satake_row_sp4_p3():
    for i in (1, 2):
        lam = 2 * t2lambda_base(i, 2)
        row = reductive_satake_row(lam, 4, "sp4", 3)
        shifted = lam + Cocharacter((1, -1) if i == 1 else (0, 1))
        assert row == TorusHeckeElement(3, {lam.coords: 1, shifted.coords: -1})


def test_pipeline_p3():
    assert verify_metaplectic_pipeline(1, 1, 3)
    assert verify_metaplectic_pipeline(1, 2, 3)
    assert verify_metaplectic_pipeline(2, 2, 3)


def test_pipeline_rejects_large_rank():
    with pytest.raises(OracleError):
        verify_metaplectic_pipeline(1, 3, 3)


def test_determinism():
    lam = Cocharacter((-2, -2))
    a = count_cosets(Cocharacter((-1, -1)), lam, 3, "sp4", 3)
    b = count_cosets(Cocharacter((-1, -1)), lam, 3, "sp4", 3)
    assert a == b
