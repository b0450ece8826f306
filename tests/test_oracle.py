import collections
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from metaplectic import oracle
from metaplectic.hecke import TorusHeckeElement, t2lambda_base
from metaplectic.oracle import (
    ORACLE_NODE_LIMIT,
    ChevalleyRealization,
    OracleError,
    StabilizationError,
    count_cosets,
    oracle_rows,
    reductive_satake_row,
    smith_valuations,
    verify_metaplectic_pipeline,
)
from metaplectic.rootdata import Cocharacter, RootDatumError, antidominant_above, pairing
from _reference import antidominant_rep, torus_matrix, unipotent_from_entries

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


def _product(a, b):
    """Exact product of integer matrices; the shifts of the factors add."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _form(n):
    """antidiag(1..1, -1..-1) of size 2n."""
    size = 2 * n
    return [[(1 if i < n else -1) * (i + j == size - 1) for j in range(size)] for i in range(size)]


def _symplectic_defect(entries, shift, realization):
    """g^T J g - J for g = p^(-shift) entries, scaled by p^(2 shift)."""
    J = _form(realization.rank)
    size = realization.size
    gt = [list(col) for col in zip(*entries)]
    prod = _product(_product(gt, J), entries)
    return [[prod[i][j] - P ** (2 * shift) * J[i][j] for j in range(size)] for i in range(size)]


def _zero(size):
    return [[0] * size for _ in range(size)]


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


def test_walk_plans_match_hand_plans():
    # the columns final after s generators (the last column is never
    # written), every minor, and the torus-orbit rule of each step but the last
    for tag, closing, orbits in (
        ("sl2", [[1], [0]], ()),
        ("sp4", [[3], [2], [], [1], [0]], ("always", "always", "middle")),
    ):
        realization = ChevalleyRealization(tag)
        n = realization.rank
        assert realization.plan == (closing, oracle._pivot_minors(2 * n, n), orbits)


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
                for r1, r2 in zip(_product(XT, J), _product(J, X))
                for x, y in zip(r1, r2)
            )
            assert not any(map(any, _product(X, X)))


def test_generators_preserve_form():
    assert _form(1) == [[0, 1], [-1, 0]]
    assert _form(2) == [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    for realization, mus in ((SL2, [(-2,), (-3,)]), (SP4, [(-2, 1), (-1, 0)])):
        zero = _zero(realization.size)
        for gen in realization.neg:
            for units in (gen.units, _transpose(gen.units)):
                m = _root_element(realization, units, 5, 1)
                assert _symplectic_defect(m, 1, realization) == zero
        for mu in mus:
            t, k = torus_matrix(realization, Cocharacter(mu), P)
            assert _symplectic_defect(t, k, realization) == zero
            # the shift is exact: the same entries under k + 1 leave the group
            assert _symplectic_defect(t, k + 1, realization) != zero


def test_sp2_membership_is_determinant_one():
    """g^T J g = det(g) J in size 2, so Sp_2 membership is SL_2's."""
    for g in itertools.product(range(-2, 3), repeat=4):
        m = [list(g[:2]), list(g[2:])]
        det = g[0] * g[3] - g[1] * g[2]
        assert (_symplectic_defect(m, 0, SL2) == _zero(2)) == (det == 1)


def test_torus_conjugation_scales_root_coordinates():
    # t u_{-beta}(x) t^{-1} = u_{-beta}(pi^{-<beta, mu>} x) at the bare entry
    from metaplectic.rootdata import Character

    positive_betas = {0: (1, -1), 1: (0, 2), 2: (1, 1), 3: (2, 0)}
    for mu in (Cocharacter((1, -2)), Cocharacter((0, 3))):
        t, kt = torus_matrix(SP4, mu, P)
        tinv, kinv = torus_matrix(SP4, -1 * mu, P)
        for k, gen in enumerate(SP4.neg):
            u = _root_element(SP4, gen.units, 2, 1)  # x = 2 / p
            conj = _product(_product(t, u), tinv)
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
        u = unipotent_from_entries(SP4, xs, q)
        for gen, (num, den) in zip(SP4.neg, pairs):
            i, j = gen.entry
            assert Fraction(u[i][j], q ** len(SP4.neg)) == Fraction(num, P**den)
        # and the product lies in Sp_4
        assert _symplectic_defect(u, 2 * width * len(SP4.neg), SP4) == _zero(4)


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
            assert _product(_product([list(c) for c in zip(*u)], J), u) == J


def _canonical_fraction(x: Fraction, p: int) -> Fraction:
    """The representative a / p^k, 0 <= a < p^k, of x + Z_(p), for x with
    denominator p^k times a unit."""
    k = _vp(x.denominator, p)
    pk = p**k
    unit = x.denominator // pk
    return Fraction(x.numerator * pow(unit, -1, pk) % pk, pk)


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
        assert w.denominator % p  # the correction is integral over Z_(p)
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
# Cartan invariants, read off the elementary divisor valuations


def _cartan_invariant(entries, realization, shift):
    """The antidominant lam with p^(-shift) entries in K lam(pi) K: in
    Sp_2n the divisor valuations pair as (d, -d), and the first half,
    ascending, is lam."""
    vals = sorted(smith_valuations(entries, P, shift))
    assert vals == [-v for v in reversed(vals)]
    return Cocharacter(tuple(vals[: realization.rank]))


def test_cartan_invariant_of_torus_points():
    for mu in ((-2,), (0,), (-5,)):
        t, k = torus_matrix(SL2, Cocharacter(mu), P)
        assert _cartan_invariant(t, SL2, k).coords == antidominant_rep(
            Cocharacter(mu)
        ).coords
    for mu in ((-2, -1), (0, 0), (-3, -3), (2, -1)):
        t, k = torus_matrix(SP4, Cocharacter(mu), P)
        assert (
            _cartan_invariant(t, SP4, k)
            == antidominant_rep(Cocharacter(mu))
        )


def test_cartan_invariant_sl2_example():
    # [[1,0],[p^{-1},1]] diag(p^{-1}, p): divisors (p^{-2}, p^2), as
    # p^(-2) [[p, 0], [1, p^3]]
    g = [
        [P, 0],
        [1, P**3],
    ]
    assert _cartan_invariant(g, SL2, 2).coords == (-2,)


def test_cartan_invariant_identity():
    assert _cartan_invariant(SL2.identity(), SL2, 0).coords == (0,)
    assert _cartan_invariant(SP4.identity(), SP4, 0).coords == (0, 0)
    # the shift is carried exactly: p^(-3) (p^3 I) is still the identity
    assert _cartan_invariant(SP4.identity(P**3), SP4, 3).coords == (0, 0)


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
        t, k = torus_matrix(realization, Cocharacter(mu), P)
        lam = antidominant_rep(Cocharacter(mu))
        for _ in range(8):
            k1 = _random_integral_element(realization, rng, P)
            k2 = _random_integral_element(realization, rng, P)
            g = _product(_product(k1, t), k2)
            assert _cartan_invariant(g, realization, k) == lam


def test_cartan_invariant_of_inverse_on_diagonals():
    for mu in itertools.product(range(-2, 3), repeat=2):
        t, k = torus_matrix(SP4, Cocharacter(mu), P)
        lam = _cartan_invariant(t, SP4, k)
        tinv, kinv = torus_matrix(SP4, -1 * Cocharacter(mu), P)
        inv = _cartan_invariant(tinv, SP4, kinv)
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
    # p^(-1) I is not in SL_2: its divisors (-1, -1) do not pair as (d, -d)
    assert smith_valuations(g, P, 1) == [-1, -1]


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
        assert r1.stabilized and r2.stabilized


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



def test_oracle_rows_errors_keep_their_order():
    """A base that is not antidominant is refused before the group tag is
    read, and an unknown group tag before the depth."""
    with pytest.raises(RootDatumError, match="^base point must be antidominant$"):
        oracle_rows(Cocharacter((0, 1)), 0, "sp5", 3)
    with pytest.raises(OracleError, match="^unknown group tag 'sp5'; use sl2 or sp4$"):
        oracle_rows(Cocharacter((-2, 0)), 0, "sp5", 3)
    for lam, group, p in (((-2, 0), "sp4", 3), ((-2,), "sl2", 3), ((-2, 0), "sp4", 1000003)):
        # the depth before the node budget, which p = 1000003 would exceed
        with pytest.raises(OracleError, match="^depth must be >= 1$") as err:
            oracle_rows(Cocharacter(lam), 0, group, p)
        assert not isinstance(err.value, RootDatumError)

def test_node_estimate_admits_p3989_and_refuses_p4001():
    assert 3 * 3989 + 43 <= ORACLE_NODE_LIMIT < 3 * 4001 + 29
    zero = Cocharacter((0, 0))
    for i in (1, 2):
        lam = 2 * t2lambda_base(i, 2)
        # the mu = (0, 0) cell has windows (1, 1, 1, 1) at depth 1 and
        # (2, 2, 2, 2) unclipped, one step past depth 1, so depth 1 adds the
        # unclipped walk, which can prove its count complete; the walk at
        # (1, 1, 1, 1) visits 14 nodes, and the one at (2, 2, 2, 2) 3p + 29
        # (`_walk_nodes`), 3p of them below the middle step's translation
        # classes at pole 1
        assert oracle._plan_cell(SP4, zero, lam, 1, 3989).walks == [(1, 1, 1, 1), (2, 2, 2, 2)]
        with pytest.raises(OracleError, match=f" {3 * 4001 + 43:,} nodes, over its limit"):
            oracle._plan_cell(SP4, zero, lam, 1, 4001)
        for depth in (2, 3, 4):
            assert oracle._plan_cell(SP4, zero, lam, depth, 3989).walks == [(2, 2, 2, 2)]
            with pytest.raises(OracleError, match=f" {3 * 4001 + 29:,} nodes, over its limit"):
                oracle._plan_cell(SP4, zero, lam, depth, 4001)
        for depth in (1, 2, 3, 4):
            for mu in antidominant_above(lam):  # every cell at p = 3,989 is admitted
                oracle._plan_cell(SP4, mu, lam, depth, 3989)


def test_over_budget_row_is_refused_before_counting(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a cell was counted")

    monkeypatch.setattr(oracle, "_count_in_cell", no_walk)
    lam = 2 * t2lambda_base(2, 2)
    for p in (4001, 1000003):
        with pytest.raises(OracleError) as err:
            oracle_rows(lam, 4, "sp4", p)
        assert f"{3 * p + 29:,} nodes" in str(err.value)
        with pytest.raises(OracleError):
            count_cosets(Cocharacter((0, 0)), lam, 4, "sp4", p)
        with pytest.raises(OracleError):
            verify_metaplectic_pipeline(2, 2, p)
    # an sl2 cell has one coordinate, so each of its walks is one node:
    # nothing is refused, up to the largest prime below 2^31
    for depth in (1, 2, 3, 4):
        for mu in ((-2,), (-1,), (0,)):
            cell = (SL2, Cocharacter(mu), Cocharacter((-2,)), depth, 2**31 - 1)
            walks = oracle._plan_cell(*cell).walks
            assert 1 <= len(walks) <= 2 and all(len(windows) == 1 for windows in walks)



def test_each_cell_reads_its_exponents_and_plans_once(monkeypatch):
    """count_cosets reads mu's torus exponents once and plans its cell once,
    one budgeted walk per count; an oracle_rows row plans each cell once and
    budgets every walk of every cell before it counts the first."""
    log = []

    def logged(name, real):
        return lambda *args: log.append(name) or real(*args)

    real = ChevalleyRealization.torus_exponents
    monkeypatch.setattr(ChevalleyRealization, "torus_exponents", logged("exps", real))
    for name in ("_plan_cell", "_walk_nodes", "_count_in_cell"):
        monkeypatch.setattr(oracle, name, logged(name, getattr(oracle, name)))
    for group, lam in (("sp4", (-2, -2)), ("sp4", (-2, 0)), ("sl2", (-2,))):
        lam = Cocharacter(lam)
        for p, depth in itertools.product((3, 5), (1, 2, 4)):
            for mu in antidominant_above(lam):
                log.clear()
                count_cosets(mu, lam, depth, group, p)
                assert log.count("exps") == log.count("_plan_cell") == 1, log
                assert 1 <= log.count("_walk_nodes") == log.count("_count_in_cell") <= 2, log
            log.clear()
            rows = oracle_rows(lam, depth, group, p)
            first = log.index("_count_in_cell")
            assert log.count("exps") == log.count("_plan_cell") == len(rows), log
            assert log[first:].count("_walk_nodes") == 0 and log.count("_walk_nodes") >= len(rows)
            assert log.count("_count_in_cell") == log.count("_walk_nodes"), log

def test_sl2_row_at_a_large_prime_is_counted():
    # its leaves are decided at once, so the row is the closed form
    # 1, p - 1, p^2 - p, ... at any p the node budget admits; at lam = (-4,)
    # the mu = (-1,) and (0,) cells have p^4 > 2^63 leaves below one node,
    # more than a range may hold
    p = 2**31 - 1
    for lam, depth in (((-2,), 2), ((-2,), 4), ((-4,), 4)):
        rows = oracle_rows(Cocharacter(lam), depth, "sl2", p)
        assert [r.raw_count for r in rows] == [1] + [p**k - p ** (k - 1) for k in range(1, 1 - lam[0])]
        assert all(r.stabilized for r in rows)


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


# fixed points: the p = 7 and p = 11 rows of both Sp_4 targets, typed in
# from the table recorded in ROADMAP.md, never re-recorded from code
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
P11_ROWS = {
    (-2, 0): {(-2, 0): 1, (-1, -1): 10, (-1, 0): 110, (0, 0): 26620},
    (-2, -2): {
        (-2, -2): 1,
        (-2, -1): 10,
        (-2, 0): 110,
        (-1, -1): 2310,
        (-1, 0): 24200,
        (0, 0): 4552020,
    },
}


def _assert_fixed_row(lam_coords, p, want):
    rows = oracle_rows(Cocharacter(lam_coords), 4, "sp4", p)
    assert {r.mu.coords: r.raw_count for r in rows} == want
    assert all(r.stabilized for r in rows)


@pytest.mark.parametrize("lam_coords", sorted(P7_ROWS))
def test_sp4_row_fixed_points_p7(lam_coords):
    _assert_fixed_row(lam_coords, 7, P7_ROWS[lam_coords])


@pytest.mark.parametrize("lam_coords", sorted(P11_ROWS))
def test_sp4_row_fixed_points_p11(lam_coords):
    _assert_fixed_row(lam_coords, 11, P11_ROWS[lam_coords])


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


@given(st.sampled_from((3, 5)), st.sampled_from((2, 4)), st.integers(0, 3), st.data())
@settings(max_examples=530, deadline=None)
def test_leaf_hits_match_smith_per_leaf(p, size, mode, data):
    """The determinantal rule against a Smith step on every leaf.  h is
    lower triangular with a nonzero diagonal, and at leaf t its column 0
    is c with t slope added to the last entry.  In mode 0 every entry
    outside column 0 is divisible by p, so the first divisor's unit has
    to come from column 0; in mode 2 column 0 is divisible by p^gap, the
    gap between the two divisors, so the 2 x 2 minors off column 0 decide;
    in mode 3 every entry but the moving one is divisible by p^(first + 1),
    so only the moving entry can be the pivot."""
    rank = size // 2
    first, gap = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))
    divisors = [first, first + gap][:rank]
    num = st.builds(lambda u, v: u * p**v, st.integers(-20, 20), st.integers(0, 2))
    nonzero = num.filter(bool)
    # factors of the entries off column 0, of column 0 above the last row,
    # and of the last row's column-0 entry and its slope
    deep = p ** (first + 1)
    lift, sink, moving = ((p, 1, 1), (1, 1, 1), (1, p**gap, p**gap), (deep, deep, 1))[mode]
    h = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(1, i + 1):
            h[i][j] = lift * data.draw(nonzero if i == j else num)
    c = [sink * data.draw(nonzero)] + [sink * data.draw(num) for _ in range(size - 2)]
    c.append(moving * data.draw(num))
    slope = moving * data.draw(num)
    leaves = data.draw(st.integers(1, 2 * p * p))
    for i in range(size):
        h[i][0] = c[i]
    want = 0
    for t in range(leaves):
        h[-1][0] = c[-1] + t * slope
        want += smith_valuations(h, p, 0, expect=divisors) is not None
    h[-1][0] = c[-1]
    minors = oracle._pivot_minors(size, rank)
    assert oracle._leaf_hits(h, slope, leaves, p, divisors, minors) == want


def _det(m):
    """The determinant of a small integer matrix, by expansion along row 0."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, x in enumerate(m[0]) if x
    )


@pytest.mark.parametrize("size", [2, 4, 6])
def test_minor_indices_are_the_minors_of_a_generic_lower_triangular_matrix(size):
    rng = random.Random(size)
    h = [[rng.randint(1, 10**6) if j <= i else 0 for j in range(size)] for i in range(size)]
    for k, got in enumerate(oracle._minor_indices(size, size // 2), 1):
        nonzero = [
            rows + cols
            for rows in itertools.combinations(range(size), k)
            for cols in itertools.combinations(range(size), k)
            if _det([[h[i][j] for j in cols] for i in rows])
        ]
        # the same minors in the same order, with those off column 0 first
        assert got == sorted(nonzero, key=lambda minor: minor[k] == 0), (size, k)


@pytest.mark.parametrize("size", [2, 4, 6])
def test_pivot_minors_are_the_minors_through_each_entry(size):
    """Each entry's list for k = 2 .. rank is the k x k minors of a generic
    lower-triangular matrix that hold its row and column and are nonzero,
    in `_minor_indices` order, those off column 0 first."""
    rng = random.Random(size)
    h = [[rng.randint(1, 10**6) if j <= i else 0 for j in range(size)] for i in range(size)]
    rank = size // 2
    entries, through = oracle._pivot_minors(size, rank)
    assert entries == oracle._minor_indices(size, rank)[0]
    assert sorted(through) == sorted(entries) == [(i, j) for i in range(size) for j in range(i + 1)]
    for (i, j), lists in through.items():
        assert len(lists) == rank - 1
        for k, got in enumerate(lists, 2):
            want = [
                rows + cols
                for rows in itertools.combinations(range(size), k)
                for cols in itertools.combinations(range(size), k)
                if i in rows and j in cols and _det([[h[a][b] for b in cols] for a in rows])
            ]
            assert got == sorted(want, key=lambda minor: minor[k] == 0), (size, i, j, k)


# lam = (-1, 0) has a nonzero second expected divisor, which the
# determinantal rule reads off the 2 x 2 minors, and the floor -2 targets
# have many nodes whose children the integrality congruence rules out all
# at once
BRUTE_FORCE_LAMS = tuple(map(Cocharacter, ((-1, -1), (-1, 0), (-2, -1), (-2, -2))))


def _brute_force_count(mu, lam, depth, p):
    """|S_{mu, lam}| over the full depth box: no window, no orbit weight,
    and a full Smith step per tuple."""
    expect = sorted(lam.coords)
    exps = SP4.torus_exponents(mu)
    pd = p**depth
    shift = 2 * depth * len(SP4.neg) - min(exps)
    count = 0
    for nums in itertools.product(range(pd), repeat=4):
        # entries a / p^depth as numerators over q = p^(2 depth)
        u = unipotent_from_entries(SP4, [pd * a for a in nums], pd * pd)
        for i in range(4):
            for j in range(4):
                u[i][j] *= p ** (exps[j] - min(exps))
        count += smith_valuations(u, p, shift, expect=expect) is not None
    return count


def test_pruning_is_lossless_sp4_small_depth():
    # brute force with fully open windows agrees with the pruned count
    for lam in BRUTE_FORCE_LAMS:
        for mu in antidominant_above(lam):
            want = _brute_force_count(mu, lam, 2, 3)
            plan = oracle._plan_cell(SP4, mu, lam, 2, 3)
            assert oracle._count_in_cell(plan, plan.walks[0]) == want, (lam, mu)


def test_orbit_weights_are_lossless_sp4_p5_depth1():
    """At p = 5 each nonzero valuation class of a simple-root coordinate
    has 4 members, so its one walked child stands for 4; depth 1 truncates
    the mu = (0, 0) windows of the floor -2 targets."""
    for lam in BRUTE_FORCE_LAMS:
        for mu in antidominant_above(lam):
            want = _brute_force_count(mu, lam, 1, 5)
            plan = oracle._plan_cell(SP4, mu, lam, 1, 5)
            assert oracle._count_in_cell(plan, plan.walks[0]) == want, (lam, mu)


@pytest.mark.parametrize("p, want", ((3, 18), (5, 20)))
def test_middle_coordinate_walks_one_child_per_orbit_below_a_zero_simple_root(monkeypatch, p, want):
    """The mu = (0, 0) cells have windows (2, 2, 2, 2).  The simple-root
    steps walk 3 orbits each, and 6 of the 9 prefixes pass pruning, 5 of
    them with a 0 entry.  Below those 5 the middle step walks 3 orbits,
    and below the other, whose simple-root entries have least pole order
    1, one child per class mod p^(-1) O, p of them; one `_leaf_hits` call
    each: 15 + p calls, not 6 p^2."""
    calls = []
    real = oracle._leaf_hits
    monkeypatch.setattr(oracle, "_leaf_hits", lambda *args: calls.append(1) or real(*args))
    for lam in ((-2, 0), (-2, -2)):
        calls.clear()
        count_cosets(Cocharacter((0, 0)), Cocharacter(lam), 4, "sp4", p)
        assert len(calls) == want == 15 + p, lam


def _uncollapsed_sp4(monkeypatch):
    """An sp4 realization whose plan walks every child of the middle step:
    its entry is "never"."""
    plain = ChevalleyRealization("sp4")
    closing, minors, orbits = plain.plan
    monkeypatch.setattr(plain, "plan", (closing, minors, orbits[:-1] + ("never",)))
    return plain


def test_middle_collapse_keeps_every_count(monkeypatch):
    """The collapsed middle step, to torus orbits below a 0 simple-root
    entry and to translation classes below nonzero ones, counts what the
    child-by-child walk counts: every walk of every cell over lam in -4..0,
    mu >= lam, p in {3, 5, 7} and depths 1-4, clipped and unclipped."""
    plain = _uncollapsed_sp4(monkeypatch)
    lams = [Cocharacter(c) for c in itertools.product(range(-4, 1), repeat=2) if c[0] <= c[1]]
    seen = set()
    for lam, p, depth in itertools.product(lams, (3, 5, 7), (1, 2, 3, 4)):
        for mu in antidominant_above(lam):
            plan = oracle._plan_cell(SP4, mu, lam, depth, p)
            for windows in plan.walks:
                if (lam, mu, p, windows) not in seen:
                    seen.add((lam, mu, p, windows))
                    want = oracle._count_in_cell(plan._replace(group=plain), windows)
                    assert oracle._count_in_cell(plan, windows) == want, (lam, mu, p, windows)
    assert len(seen) == 879


@given(
    st.sampled_from((3, 5, 7, 11, 13)),
    st.tuples(st.integers(-6, 0), st.integers(-6, 0)).map(sorted),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_middle_collapse_keeps_drawn_counts(p, lam, depth, data):
    """The same on drawn cells, lam in -6..0 and p <= 13, clipped at the
    deepest depth up to the one drawn whose child-by-child walk may visit
    at most 5,000 nodes (`_walk_nodes`)."""
    lam = Cocharacter(tuple(lam))
    mu = data.draw(st.sampled_from(sorted(antidominant_above(lam), key=lambda m: m.coords)))
    plan = oracle._plan_cell(SP4, mu, lam, 1, p)
    with pytest.MonkeyPatch.context() as patch:
        plain = _uncollapsed_sp4(patch)
        while True:
            windows = tuple(min(depth, w) for w in plan.full)
            if depth == 1 or oracle._walk_nodes(plain, windows, p) <= 5_000:
                break
            depth -= 1
        want = oracle._count_in_cell(plan._replace(group=plain), windows)
    assert oracle._count_in_cell(plan, windows) == want, windows


def _walk_calls(plan, windows) -> int:
    """How many times `_count_in_cell(plan, windows)` enters its `walk`."""
    calls = []

    def trace(frame, event, arg):  # called at each new frame; traces no lines
        if frame.f_code.co_name == "walk" and frame.f_globals is vars(oracle):
            calls.append(1)

    tracing = sys.gettrace()
    sys.settrace(trace)
    try:
        oracle._count_in_cell(plan, windows)
    finally:
        sys.settrace(tracing)
    return len(calls)


def test_node_budget_bounds_the_walk(monkeypatch):
    """The budget `_walk_nodes` is exactly the `walk` calls of the walk with
    its pruning off, and the walk itself makes at most that many: sp4 over
    lam in -4..0, every mu >= lam, p in {3, 5, 7} and depths 1-4 (879
    distinct walks), and sl2 over lam = (-k,), k <= 8, at the same primes
    and depths 1, 4 and 8 (249 walks), one call each.  A floor of
    min(exps) - 2 width n, n the coordinates, makes every column integral
    at every node, so nothing is pruned; it changes no window.  The leaf
    decisions are stubbed out: no call depends on what they return."""
    monkeypatch.setattr(oracle, "_leaf_hits", lambda *args: 0)
    monkeypatch.setattr(oracle, "smith_valuations", lambda *args, **kwargs: None)
    cells = [(SP4, c, (1, 2, 3, 4)) for c in itertools.product(range(-4, 1), repeat=2) if c[0] <= c[1]]
    cells += [(SL2, (-k,), (1, 4, 8)) for k in range(9)]
    seen = set()
    for group, coords, depths in cells:
        lam = Cocharacter(coords)
        for p, depth, mu in itertools.product((3, 5, 7), depths, antidominant_above(lam)):
            plan = oracle._plan_cell(group, mu, lam, depth, p)
            for windows in plan.walks:
                if (group.tag, lam, mu, p, windows) in seen:
                    continue  # depths past the windows repeat a walk
                seen.add((group.tag, lam, mu, p, windows))
                unpruned = plan._replace(floor=min(plan.exps) - 2 * max(windows) * len(group.neg))
                nodes = oracle._walk_nodes(group, windows, p)
                assert _walk_calls(unpruned, windows) == nodes, (lam, mu, p, windows)
                assert _walk_calls(plan, windows) <= nodes, (lam, mu, p, windows)
                assert group is SP4 or nodes == 1
    assert sorted(collections.Counter(key[0] for key in seen).items()) == [("sl2", 249), ("sp4", 879)]


def test_walk_plan_collapses_only_the_proved_middle_step():
    """Only Sp_4's middle step, of eps_1 + eps_2 at entry (2, 0), is
    proved to visit one child per torus orbit below a 0 simple-root entry
    and one per translation class below nonzero ones (module docstring).
    A plan built at rank 3 or 4 collapses its simple roots alone, so
    registering `sp6` cannot switch on an unproved collapse."""
    assert SP4.plan[2] == ("always", "always", "middle")
    assert SL2.plan[2] == ()
    for n in (3, 4):
        orbits = oracle._walk_plan(n, oracle._negative_roots(n))[2]
        assert orbits == ("always",) * n + ("never",) * (n * n - n - 1)


def _frac_smith(m, p):
    """Elementary divisor valuations of a rational matrix whose
    denominators are p-powers times units."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return smith_valuations([[int(x * den) for x in row] for row in m], p, _vp(den, p))


@pytest.mark.parametrize("p", (3, 5))
def test_similitude_torus_conjugation_keeps_windowed_boxes(p):
    """Conjugation by d = diag(t1, t2, nu/t2, nu/t1), for units t1, t2 and
    nu, maps each windowed box into itself, scales the simple-root entries
    by t2/t1 and nu/t2^2 mod O, and keeps the elementary divisors of
    u mu(pi): the symmetry behind the walk's one child per torus orbit.
    When a simple-root entry is 0 and d fixes the other, the middle entry
    is scaled by nu/(t1 t2) mod O too: the walk's collapse of that step."""
    rng = random.Random(p)
    units = [t for t in range(-(p**3), p**3) if t % p]
    for lam in BRUTE_FORCE_LAMS:
        for mu in antidominant_above(lam):
            torus = [Fraction(p) ** e for e in SP4.torus_exponents(mu)]

            def divisors(u):
                return _frac_smith([[x * t for x, t in zip(row, torus)] for row in u], p)

            for depth in (1, 2):
                windows = oracle._plan_cell(SP4, mu, lam, depth, p).walks[0]
                for _, zero in itertools.product(range(4), (None, 0, 1)):
                    coords = [Fraction(rng.randrange(p**w), p**w) for w in windows]
                    t1, t2, nu = (rng.choice(units) for _ in range(3))
                    if zero is not None:
                        coords[zero] = Fraction(0)
                        if zero == 0:
                            nu = t2**2  # fixes the alpha_2 entry
                        else:
                            t1 = t2  # fixes the alpha_1 entry
                    d = (t1, t2, Fraction(nu, t2), Fraction(nu, t1))
                    u = _frac_unipotent(SP4.neg, 4, coords)
                    conj = [[d[i] * x / d[j] for j, x in enumerate(row)] for i, row in enumerate(u)]
                    image = _frac_coset_reduce(SP4, conj, p)
                    assert all((x * p**w).denominator == 1 for x, w in zip(image, windows))
                    assert image[0] == _canonical_fraction(coords[0] * t2 / t1, p)
                    assert image[1] == _canonical_fraction(coords[1] * nu / t2**2, p)
                    if zero is not None:
                        assert image[2] == _canonical_fraction(coords[2] * nu / (t1 * t2), p)
                    want = divisors(u)
                    assert divisors(conj) == want
                    assert divisors(_frac_unipotent(SP4.neg, 4, image)) == want


@pytest.mark.parametrize("p", (3, 5))
def test_similitude_torus_translates_the_middle_entry_below_nonzero_simple_roots(p):
    """With simple-root entries y1, y2 of pole orders v1, v2 >= 1,
    conjugation by d = diag(b, 1, b, 1), b in 1 + p^max(v1, v2) O, fixes
    y1 and y2, moves the middle entry y3 by -(b - 1) y2 y1 mod O and keeps
    the elementary divisors of u mu(pi); over b these moves fill
    p^(-m) O / O, m = min(v1, v2): the walk's translation classes."""
    rng = random.Random(p)
    for lam in BRUTE_FORCE_LAMS:
        for mu in antidominant_above(lam):
            windows = oracle._plan_cell(SP4, mu, lam, 2, p).walks[0]
            if min(windows[:2]) == 0:
                continue  # no prefix with two nonzero simple-root entries
            torus = [Fraction(p) ** e for e in SP4.torus_exponents(mu)]

            def divisors(u):
                return _frac_smith([[x * t for x, t in zip(row, torus)] for row in u], p)

            for _ in range(4):
                coords = [Fraction(rng.randrange(p**w), p**w) for w in windows]
                coords[:2] = (Fraction(rng.randrange(1, p**w), p**w) for w in windows[:2])
                v1, v2 = (_vp(y.denominator, p) for y in coords[:2])
                u = _frac_unipotent(SP4.neg, 4, coords)
                want = divisors(u)
                moves = set()
                for t in range(p ** min(v1, v2)):
                    b = 1 + p ** max(v1, v2) * t
                    d = (b, 1, b, 1)
                    conj = [[d[i] * x / d[j] for j, x in enumerate(row)] for i, row in enumerate(u)]
                    image = _frac_coset_reduce(SP4, conj, p)
                    assert all((x * p**w).denominator == 1 for x, w in zip(image, windows))
                    assert image[:2] == tuple(coords[:2])
                    move = _canonical_fraction(image[2] - coords[2], p)
                    assert move == _canonical_fraction(-(b - 1) * coords[1] * coords[0], p)
                    assert divisors(conj) == want
                    moves.add(move)
                assert moves == {Fraction(a, p ** min(v1, v2)) for a in range(p ** min(v1, v2))}


def test_closing_columns_read_an_unwritten_column_to_rank_7():
    """The walk prunes on the child with entry 0 alone, which decides for
    its siblings, because every slope of a closing column is integral:
    each unit writing a column at the step where it closes reads a column
    no generator writes (the root's last column, a multiple of e_(2n-1)
    at every node), and the written column is at or right of the
    generator's window column, so its torus exponent is at least the
    window's."""
    for n in range(1, 8):
        neg = oracle._negative_roots(n)
        last_write = {}
        for step, gen in enumerate(neg):
            for (_, b), _ in gen.units:
                last_write[b] = step
        assert set(last_write) == set(range(2 * n - 1)), n
        for step, gen in enumerate(neg):
            for (a, b), _ in gen.units:
                if last_write[b] == step:
                    assert a not in last_write, (n, gen)
                    assert b >= gen.window_col, (n, gen)


def test_stabilization_reported_when_depth_too_small():
    lam2 = Cocharacter((-2,))
    res = count_cosets(Cocharacter((0,)), lam2, 1, "sl2", 3)
    assert res.raw_count == 0  # the depth-1 box misses all valuation -2 points
    assert not res.stabilized
    with pytest.raises(StabilizationError, match=r"mu=\(0,\) not proved complete at depth 1"):
        reductive_satake_row(lam2, 1, "sl2", 3)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 101))
def test_counts_clipped_past_depth_plus_one_are_not_stabilized(p):
    """These cells' windows are 6 to 8, so depth 5 clips them as depth 4
    does: two clipped counts agreeing would prove nothing, and each
    depth-4 count here is wrong."""
    for lam, mu in ((-6, 0), (-7, 0), (-7, -1), (-8, 0), (-8, -1), (-8, -2)):
        lam, mu = Cocharacter((lam,)), Cocharacter((mu,))
        res = count_cosets(mu, lam, 4, "sl2", p)
        assert not res.stabilized, (lam, mu)
        exact = count_cosets(mu, lam, max(oracle._plan_cell(SL2, mu, lam, 1, p).full), "sl2", p)
        assert exact.stabilized and exact.raw_count != res.raw_count


def test_stabilized_means_proved_complete_sp4():
    """A stabilized count equals the count at the unclipped windows; with
    those windows at most one step past the depth the flag is exactly that
    equality, and deeper clipping leaves every count unproved."""
    lams = [Cocharacter(c) for c in itertools.product(range(-3, 1), repeat=2) if c[0] <= c[1]]
    for lam in lams:
        for mu in antidominant_above(lam):
            full = oracle._plan_cell(SP4, mu, lam, 1, 3).full
            exact = count_cosets(mu, lam, max(1, max(full)), "sp4", 3)
            assert exact.stabilized
            for depth in (1, 2, 3):
                res = count_cosets(mu, lam, depth, "sp4", 3)
                if max(full) <= depth + 1:
                    assert res.stabilized == (res.raw_count == exact.raw_count), (lam, mu, depth)
                else:
                    assert not res.stabilized, (lam, mu, depth)



# sha256 of every count on the regression grid per base, recorded before the
# oracle planned each cell once: a regression pin of the code's own output,
# not a fixed point (those are the p = 7 and p = 11 rows)
GRID_DIGESTS = {
    ("sp4", (-4, -4)): "15949ac5a7c3724c664faf32d7461605747a03201da41ca359a41fcca0e9919b",
    ("sp4", (-4, -3)): "571cdcf84f369c6ac8cd4dadde67a1b87750d102e62023b16d43fc41d90e00d2",
    ("sp4", (-4, -2)): "086470a08cc1de765e57698caef2389558183cc8c56da7f4a9d62a8dd32a1aec",
    ("sp4", (-4, -1)): "133839c2e856c2cdd3cbfdeba6161692873d2e6767750befc23c3628f14edc27",
    ("sp4", (-4, 0)): "5294f5e3a862baf9e5efd727488e456f77ee093a6567928fe536b8cfc75af2d4",
    ("sp4", (-3, -3)): "d2572d0050bf653514e6c09cf7cca6bc777dc81b53410cc19cacbb88719d76e2",
    ("sp4", (-3, -2)): "4090c6b95bb1a6cbb273343c646973bf147e0fc530e9144ff17169d280474a75",
    ("sp4", (-3, -1)): "7c0e35cf1594e30f935b48dc1fd0ab9c3d27a2ccfc9cc7872c48155a571b36be",
    ("sp4", (-3, 0)): "256ad708794a050ce0672ed7b193dc23f7f5e617e8bf761c0fd290b0a256fb1a",
    ("sp4", (-2, -2)): "1948a52be7b7e984d724d0f48a431ce2d3fd6a7b87a1aeeaca860c87678a58dc",
    ("sp4", (-2, -1)): "488f4dd0b0a43636f69c492029a5751b9d15796e4347464758f7f4a903e5477b",
    ("sp4", (-2, 0)): "a30b26626339fcb6227eb1640945cd2a89adbee608a90d111492363376625a46",
    ("sp4", (-1, -1)): "852f6f24c51a090d129448f151209b12dcbca229b0f8f040ae29730a88c87300",
    ("sp4", (-1, 0)): "7c6888f4314e90dc128978843cf61433a2c8ee12098c22278ad340f0b266e6d8",
    ("sp4", (0, 0)): "b00614b2c981f6cdafe89da0f85b5977b0cee3db386ceb2f2637568574b53212",
    ("sl2", (0,)): "2bc1b8516a9b9204f3a4b5a6015fd985591dbcbba671352ed14d30f25a7fd34a",
    ("sl2", (-1,)): "939e82071a3360acc9f8ebf853eea0c7c7eb859023985fb4662d0dfb2493784c",
    ("sl2", (-2,)): "d12b690df0fcea2f1f58e9090c4269154f1fae2984893f0b9f4589af85b8e42c",
    ("sl2", (-3,)): "c8fa0bea66e7cd15b5d6aeb50e29e8019f2dc9e4989ae3c1e2d3df92ea20b639",
    ("sl2", (-4,)): "89908bc6d7dab656aac1b925d5bbb47be5f13b8a4db59a46329081e87913d4e8",
    ("sl2", (-5,)): "3f5432f15d0ab93a011cdbfb773aa4c659262c723f5f3d97f15fccbc6077385e",
    ("sl2", (-6,)): "4fe6745eba4ea808b7697fc4812bc0f87791d4a7f33b48c6cf95fbe4eb7d7b1d",
    ("sl2", (-7,)): "f714f12c49d5187cb00b3adca51b8f1ec8a0d8d1e8595b3b9472b9e89045e391",
    ("sl2", (-8,)): "a67cbcb6c322cd6ffba44fbd673234b190d5f87d5ab418343c541f0ff028a795",
}


def test_regression_grid_counts_are_pinned():
    """Every raw count, `stabilized` flag and refusal on the grid: sp4 with
    lam antidominant in -4..0 at p in {3, 5, 7, 11, 13} and depths 1-4, sl2
    with lam = (-k,), k <= 8, at p in {3, 5, 7, 11, 13, 101} and depths 1,
    4 and 8, every antidominant mu >= lam; 3,130 cells, 10 of them refused
    by the node budget.  A failure names the bases whose digest moved."""
    sp4 = [c for c in itertools.product(range(-4, 1), repeat=2) if c[0] <= c[1]]
    grid = [("sp4", c, (3, 5, 7, 11, 13), (1, 2, 3, 4)) for c in sp4]
    grid += [("sl2", (-k,), (3, 5, 7, 11, 13, 101), (1, 4, 8)) for k in range(9)]
    got, cells, refused = {}, 0, 0
    for group, coords, primes, depths in grid:
        lam = Cocharacter(coords)
        digest = hashlib.sha256()
        mus = sorted(antidominant_above(lam), key=lambda m: m.coords)
        for p, depth, mu in itertools.product(primes, depths, mus):
            try:
                res = count_cosets(mu, lam, depth, group, p)
                line = f"{p} {depth} {mu.coords} {res.raw_count} {res.stabilized}\n"
            except OracleError as err:
                line = f"{p} {depth} {mu.coords} {err}\n"
                refused += 1
            cells += 1
            digest.update(line.encode())
        got[group, coords] = digest.hexdigest()
    assert (cells, refused) == (3130, 10)
    assert [base for base in GRID_DIGESTS if got[base] != GRID_DIGESTS[base]] == []

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
