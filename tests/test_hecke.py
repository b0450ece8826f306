import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic.hecke import (
    A_fiber,
    HeckeCharacter,
    HeckeError,
    TorusHeckeElement,
    change_of_weight_decision,
    distinct_fibers,
    enumerate_A,
    metaplectic_satake_T2lambda,
    parity_filter,
    pi_chi,
    t2lambda_base,
    vanishing_sum_check,
)
from metaplectic.rootdata import (
    Cocharacter,
    antidominant_above,
    cartan_inverse,
    cartan_matrix,
    coroot,
    is_antidominant,
    leq,
    pairing,
    simple_root,
)


def tau(mu, p=3, c=1):
    return TorusHeckeElement(p, {tuple(mu): c})


def test_element_pruning_and_ops():
    h = TorusHeckeElement(3, {(0, 0): 3, (1, 0): 4})
    assert h.coeffs == {(1, 0): 1}
    assert h.coeffs.get((0, 0), 0) == 0
    s = TorusHeckeElement.tau((0, 1), 3, 2)
    assert s.coeffs == {(0, 1): 2}
    assert s.terms() == [((0, 1), -1)]  # symmetric representative mod 3


def test_element_drops_coefficients_that_vanish_mod_p():
    for p in (2, 3, 5, 7):
        coeffs = {(k, -k): c for k, c in enumerate(range(-2 * p, 2 * p + 1))}
        h = TorusHeckeElement(p, coeffs)
        assert h.coeffs == {mu: c % p for mu, c in coeffs.items() if c % p}
        assert all(0 < c < p for c in h.coeffs.values())
        assert TorusHeckeElement(p, {(0,): p, (1,): -p, (2,): 0}).coeffs == {}


def test_metaplectic_satake_values():
    assert metaplectic_satake_T2lambda(1, 2, 3).coeffs == {(-2, 0): 1, (-1, -1): 2}
    assert metaplectic_satake_T2lambda(2, 2, 3).coeffs == {(-2, -2): 1}
    assert metaplectic_satake_T2lambda(1, 1, 3).coeffs == {(-2,): 1}
    assert metaplectic_satake_T2lambda(1, 1, 5).coeffs == {(-2,): 1}


def test_metaplectic_satake_support_properties():
    for n in range(1, 7):
        for i in range(1, n + 1):
            h = metaplectic_satake_T2lambda(i, n, 3)
            two_lam = 2 * t2lambda_base(i, n)
            assert h.coeffs.get(two_lam.coords, 0) == 1
            for mu in h.coeffs:
                assert is_antidominant(Cocharacter(mu))
                assert leq(two_lam, Cocharacter(mu))


def test_parity_filter_binding_example():
    # the i = n case at rank 2: the shifted term dies, coordinate sum odd
    lam = Cocharacter((-1, -1))
    two = 2 * lam
    row = TorusHeckeElement(3, {(-2, -2): 1, (-2, -1): -1})
    assert parity_filter(row, two) == tau((-2, -2))
    # same answer with the base point lam: its coordinate sum is even
    assert parity_filter(row, lam) == tau((-2, -2))


def test_parity_filter_keeps_tau_of_base():
    for coords in ((0, 0), (-1, -2), (-3, 0)):
        lam = Cocharacter(coords)
        assert parity_filter(tau(tuple(2 * c for c in coords)), 2 * lam) == tau(
            tuple(2 * c for c in coords)
        )


def test_parity_filter_zeroes_exactly_odd_sums():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        base = Cocharacter(tuple(rng.randint(-3, 3) for _ in range(n)))
        coeffs = {
            tuple(rng.randint(-3, 3) for _ in range(n)): rng.randint(1, 2)
            for _ in range(6)
        }
        h = TorusHeckeElement(3, coeffs)
        filtered = parity_filter(h, base)
        for mu, c in h.coeffs.items():
            odd = (sum(mu) + sum(base.coords)) % 2 == 1
            assert filtered.coeffs.get(mu, 0) == (0 if odd else c)


def _plus(a: TorusHeckeElement, b: TorusHeckeElement) -> TorusHeckeElement:
    """The sum of two elements mod the same p, read off their coefficients."""
    merged = dict(a.coeffs)
    for mu, c in b.coeffs.items():
        merged[mu] = merged.get(mu, 0) + c
    return TorusHeckeElement(a.p, merged)


def test_parity_filter_idempotent_linear():
    rng = random.Random(9)
    base = Cocharacter((-1, -1))
    mk = lambda: TorusHeckeElement(
        5, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(1, 4) for _ in range(5)}
    )
    for _ in range(20):
        a, b = mk(), mk()
        fa = parity_filter(a, base)
        assert parity_filter(fa, base) == fa
        assert parity_filter(_plus(a, b), base) == _plus(
            parity_filter(a, base), parity_filter(b, base)
        )


def test_enumerate_A_examples():
    A0 = enumerate_A(Cocharacter((0, 0)))
    assert A0.elements == frozenset({(0, 0)})
    A2 = enumerate_A(Cocharacter((-1, -1)))
    assert A2.sorted_elements() == [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]
    A1 = enumerate_A(Cocharacter((-1, 0)))
    assert A1.sorted_elements() == [(0, 0), (1, 0), (1, 1), (2, 2)]
    assert (0, 0) in A1.elements and (1, 0) in A1.elements
    with pytest.raises(HeckeError):
        enumerate_A(Cocharacter((0, -1)))


def test_enumerate_A_matches_antidominant_above():
    # mu = 2 lam + a . alpha^vee is a bijection onto the cell support
    bases = [Cocharacter(c) for c in ((-1,), (-2,), (-1, 0), (-1, -1), (-2, -1), (-1, -1, -1))]
    bases += [t2lambda_base(i, n) for n in range(1, 9) for i in range(1, n + 1)]
    for lam in bases:
        _assert_A_matches_antidominant_above(lam)


def _assert_A_matches_antidominant_above(lam):
    A = enumerate_A(lam)
    mus = {A.mu_of(a) for a in A.elements}
    assert len(mus) == len(A.elements)
    assert mus == antidominant_above(2 * lam), lam.coords


def _dense_A(lam):
    """The A-set by its definition: every a in the box 0 <= a <= ceil(C^{-1} b)
    with sum_k C[j][k] a_k <= b_j for every row j, over the dense matrix."""
    n = lam.rank
    C = cartan_matrix(n)
    b = [2 * pairing(simple_root(j, n), -1 * lam) for j in range(1, n + 1)]
    caps = [math.ceil(sum(f * bb for f, bb in zip(row, b))) for row in cartan_inverse(n)]
    return frozenset(
        a
        for a in itertools.product(*(range(c + 1) for c in caps))
        if all(sum(C[j][k] * a[k] for k in range(n)) <= b[j] for j in range(n))
    )


def test_enumerate_A_equals_dense_definition():
    bases = [t2lambda_base(i, n) for n in range(1, 7) for i in range(1, n + 1)]
    bases += [Cocharacter(c) for c in ((-3, -1, 0), (-2, -2, -1, 0), (-2, -1), (-3,))]
    for lam in bases:
        assert enumerate_A(lam).elements == _dense_A(lam), lam.coords


# ascending coordinates in -3..0 are exactly the antidominant bases there
_SMALL_ANTIDOMINANT = st.lists(st.integers(-3, 0), min_size=1, max_size=4).map(
    lambda c: Cocharacter(tuple(sorted(c)))
)


@settings(max_examples=40, deadline=None)
@given(lam=_SMALL_ANTIDOMINANT)
def test_enumerate_A_equals_dense_definition_random_bases(lam):
    assert enumerate_A(lam).elements == _dense_A(lam)
    _assert_A_matches_antidominant_above(lam)


def test_mu_of_matches_coroot_sum():
    for n in range(1, 6):
        for i in range(1, n + 1):
            A = enumerate_A(t2lambda_base(i, n))
            for a in A.elements:
                mu = 2 * A.base
                for k, ak in enumerate(a):
                    mu = mu + ak * coroot(k + 1, n)
                assert A.mu_of(a) == mu
    with pytest.raises(HeckeError):
        enumerate_A(t2lambda_base(1, 2)).mu_of((0, 0, 0))


def test_A_fiber():
    A = enumerate_A(Cocharacter((-1, 0)))  # i = 1 base at n = 2
    res = A_fiber(A, (0, 0), 1)
    assert res.vectors == frozenset({(0, 0), (1, 0)}) and res.conforms
    res = A_fiber(A, (1, 1), 1)
    assert res.vectors == frozenset({(1, 1)}) and res.conforms
    # the long-root fiber can exceed the dichotomy; reported raw
    A2 = enumerate_A(Cocharacter((-1, -1)))
    res = A_fiber(A2, (1, 2), 2)
    assert res.vectors == frozenset({(1, 2), (1, 3)})
    assert not res.conforms
    with pytest.raises(HeckeError):
        A_fiber(A, (5, 5), 1)


def test_fiber_dichotomy_short_roots():
    for n in range(2, 6):
        for i in range(1, n):
            A = enumerate_A(t2lambda_base(i, n))
            zero = tuple(0 for _ in range(n))
            eps = tuple(1 if k == i - 1 else 0 for k in range(n))
            seen = set()
            for fib in distinct_fibers(A, i):
                assert fib == frozenset({zero, eps}) or len(fib) == 1
                assert not (fib & seen)
                seen |= fib
            assert seen == set(A.elements)


def test_vanishing_sum_check():
    n, i = 2, 1
    A = enumerate_A(t2lambda_base(i, n))
    # the target family tau_{2 lam} - tau_{2 lam + alpha_1^vee}
    table = {A.mu_of(a).coords: 0 for a in A.elements}
    table[A.mu_of((0, 0)).coords] = 1
    table[A.mu_of((1, 0)).coords] = -1
    assert vanishing_sum_check(table, A, i)
    assert not vanishing_sum_check({**table, A.mu_of((1, 0)).coords: 0}, A, i)
    assert not vanishing_sum_check({**table, A.mu_of((2, 2)).coords: 1}, A, i)
    with pytest.raises(HeckeError):
        vanishing_sum_check(table, A, 2)  # long index rejected
    # the input must cover the support
    del table[A.mu_of((2, 2)).coords]
    with pytest.raises(HeckeError):
        vanishing_sum_check(table, A, i)


def test_pi_chi_face_characters():
    n, N = 3, 4
    for J in ({1}, {2, 3}, set(), {1, 2, 3}):
        chi = HeckeCharacter.from_face(J, (1, 2, 3), n, N)
        assert pi_chi(chi).roots == frozenset(J)
        # well-definedness: doubling the marker changes nothing
        for i in range(1, n + 1):
            doubled = chi.value_at(2 * t2lambda_base(i, n))
            assert (doubled is None) == (chi.value_at(t2lambda_base(i, n)) is None)


def test_face_character_multiplicative_where_defined():
    chi = HeckeCharacter.from_face({2}, (1, 3), 2, 4)
    rng = random.Random(2)
    for _ in range(60):
        a = Cocharacter((rng.randint(-3, 0), rng.randint(-3, 0)))
        b = Cocharacter((rng.randint(-3, 0), rng.randint(-3, 0)))
        if not (is_antidominant(a) and is_antidominant(b)):
            continue
        va, vb, vs = chi.value_at(a), chi.value_at(b), chi.value_at(a + b)
        # zero absorbs; otherwise the exponents add mod N
        if va is None or vb is None:
            assert vs is None
        else:
            assert vs == (va + vb) % 4


def test_face_character_value_at_zero_is_one():
    for J in (set(), {1}, {1, 2}):
        chi = HeckeCharacter.from_face(J, (1, 2), 2, 4)
        assert chi.value_at(Cocharacter((0, 0))) == 0


def test_change_of_weight_decision_cases():
    n, N = 2, 4
    # long root: applicable whenever defined
    chi = HeckeCharacter.from_face(set(), (0, 0), n, N)
    assert change_of_weight_decision(2, chi) is True
    # short root with trivial chi' at the coroot: not applicable
    assert change_of_weight_decision(1, chi) is False
    # short root with nontrivial chi' at the coroot: applicable
    chi2 = HeckeCharacter.from_face(set(), (1, 0), n, N)
    assert change_of_weight_decision(1, chi2) is True
    # short root not orthogonal to Pi(chi): applicable (value dies off-face)
    chi3 = HeckeCharacter.from_face({2}, (0, 0), n, N)
    assert change_of_weight_decision(1, chi3) is True
    with pytest.raises(HeckeError):
        change_of_weight_decision(2, chi3)  # alpha_2 lies in Pi(chi)


def test_t2lambda_base():
    assert t2lambda_base(1, 2).coords == (-1, 0)
    assert t2lambda_base(2, 2).coords == (-1, -1)
    # the defining pairings: -1 against the own short root, -2 for the long
    from metaplectic.rootdata import pairing, simple_root

    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            lam = t2lambda_base(i, n)
            for j in range(1, n + 1):
                v = pairing(simple_root(j, n), lam)
                if j != i:
                    assert v == 0
                else:
                    assert v == (-1 if i < n else -2)
