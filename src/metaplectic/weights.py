"""q-restricted weights of the maximal compact and their bookkeeping.

A weight of the (covering) maximal compact is parametrized by a
q-restricted highest weight nu, i.e. 0 <= <nu, alpha^vee> < q for every
simple alpha.  Only nu is carried around: vanishing sets Pi_nu, regularity
relative to a Levi and the change-of-weight companion
nu + (q-1) omega_alpha are all functions of nu alone.  The algebraic
representations themselves are never materialized.  The group is Sp_2n,
so n = 1 is SL_2, realized as Sp_2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import Character, ParabolicSubset, coroot_pairings, fundamental_weight


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class QRestrictedWeight:
    """Highest weight nu with 0 <= <nu, alpha^vee> < q."""

    nu: Character
    q: int

    def __post_init__(self):
        if self.q < 2:
            raise WeightError("q must be at least 2")
        for i, v in enumerate(coroot_pairings(self.nu), 1):
            if not 0 <= v < self.q:
                raise WeightError(
                    f"<nu, alpha_{i}^vee> = {v} is not in [0, {self.q})"
                )

    @property
    def rank(self) -> int:
        return self.nu.rank


def pi_nu(w: QRestrictedWeight) -> ParabolicSubset:
    """Pi_nu = {alpha in Pi : <nu, alpha^vee> = 0}."""
    pairings = coroot_pairings(w.nu)
    return ParabolicSubset(w.rank, frozenset(i for i, v in enumerate(pairings, 1) if v == 0))


def is_M_regular(w: QRestrictedWeight, J: ParabolicSubset) -> bool:
    """Regularity relative to the Levi indexed by J: Pi_nu inside J."""
    return pi_nu(w).issubset(J)


def change_of_weight_pair(w: QRestrictedWeight, i: int) -> QRestrictedWeight:
    """The companion nu' = nu + (q-1) omega_{alpha_i}, defined when
    <nu, alpha_i^vee> = 0; it is again q-restricted, with
    <nu', alpha_i^vee> = q - 1 and all other pairings unchanged."""
    n = w.rank
    if not 1 <= i <= n:
        raise WeightError(f"index {i} out of range 1..{n}")
    if coroot_pairings(w.nu)[i - 1] != 0:
        raise WeightError(f"<nu, alpha_{i}^vee> must vanish to change weight at {i}")
    nu2 = w.nu + (w.q - 1) * fundamental_weight(i, n)
    return QRestrictedWeight(nu2, w.q)


def same_weight_class(w: QRestrictedWeight, w2: QRestrictedWeight) -> bool:
    """Whether nu and nu' give isomorphic weights, i.e. whether
    nu - nu' lies in (q-1) X^0(T).  Sp_2n is semisimple: its coroots span
    a full-rank sublattice of X_*(T), so X^0(T) = {chi : <chi, alpha^vee>
    = 0 for all alpha} = 0 and the test is nu == nu'."""
    if w.q != w2.q:
        raise WeightError("weights carry different q")
    if w.rank != w2.rank:
        raise WeightError("rank mismatch")
    return w.nu == w2.nu
