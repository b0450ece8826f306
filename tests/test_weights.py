import itertools

import pytest

from metaplectic.rootdata import Character, ParabolicSubset, coroot, pairing
from metaplectic.weights import (
    QRestrictedWeight,
    WeightError,
    change_of_weight_pair,
    is_M_regular,
    pi_nu,
    same_weight_class,
)


def weight_from_pairings(cs, q):
    """The unique nu with <nu, alpha_i^vee> = cs[i]; suffix sums in eps."""
    n = len(cs)
    coords = [0] * n
    coords[n - 1] = cs[n - 1]
    for i in range(n - 2, -1, -1):
        coords[i] = cs[i] + coords[i + 1]
    return QRestrictedWeight(Character(tuple(coords)), q)


def all_q_restricted(n, q):
    for cs in itertools.product(range(q), repeat=n):
        yield weight_from_pairings(cs, q)


def test_validation():
    with pytest.raises(WeightError):
        QRestrictedWeight(Character((0, -1)), 3)  # negative pairing at alpha_1
    with pytest.raises(WeightError):
        QRestrictedWeight(Character((3, 0)), 3)  # pairing q at alpha_1
    QRestrictedWeight(Character((2, 0)), 3)  # boundary q-1 is fine


def test_pi_nu():
    w = QRestrictedWeight(Character((0, 0)), 3)
    assert pi_nu(w).roots == {1, 2}
    w1 = QRestrictedWeight(Character((1, 0)), 3)  # omega_1 at n=2
    assert pi_nu(w1).roots == {2}
    w2 = weight_from_pairings((1, 1), 3)
    assert pi_nu(w2).roots == set()


def test_is_M_regular():
    w1 = QRestrictedWeight(Character((1, 0)), 3)
    full = ParabolicSubset(2, frozenset({1, 2}))
    assert is_M_regular(w1, full)
    assert is_M_regular(w1, ParabolicSubset(2, frozenset({2})))
    assert not is_M_regular(w1, ParabolicSubset(2, frozenset({1})))
    zero = QRestrictedWeight(Character((0, 0)), 3)
    assert is_M_regular(zero, full)
    assert not is_M_regular(zero, ParabolicSubset(2, frozenset({1})))


def test_change_of_weight_pair_examples():
    zero = QRestrictedWeight(Character((0, 0)), 3)
    w1 = change_of_weight_pair(zero, 1)
    assert w1.nu.coords == (2, 0)
    assert [pairing(w1.nu, coroot(k, 2)) for k in (1, 2)] == [2, 0]
    w2 = change_of_weight_pair(zero, 2)
    assert [pairing(w2.nu, coroot(k, 2)) for k in (1, 2)] == [0, 2]
    bumped = weight_from_pairings((1, 0), 3)
    with pytest.raises(WeightError):
        change_of_weight_pair(bumped, 1)


def test_change_of_weight_exhaustive():
    for n in (1, 2, 3):
        for q in (3, 5, 9):
            for w in all_q_restricted(n, q):
                zeros = pi_nu(w)
                for i in sorted(zeros.roots):
                    w2 = change_of_weight_pair(w, i)  # validates q-restriction
                    assert pairing(w2.nu, coroot(i, n)) == q - 1
                    assert pi_nu(w2).roots == zeros.roots - {i}
                    assert not same_weight_class(w, w2)


def test_same_weight_class():
    w = QRestrictedWeight(Character((1, 1)), 5)
    w2 = QRestrictedWeight(Character((1, 0)), 5)
    assert same_weight_class(w, w)
    assert not same_weight_class(w, w2)
    with pytest.raises(WeightError):
        same_weight_class(w, QRestrictedWeight(Character((1, 1)), 3))
    with pytest.raises(WeightError):
        same_weight_class(w, QRestrictedWeight(Character((1,)), 5))

