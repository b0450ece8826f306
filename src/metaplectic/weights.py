"""q-restricted weights of the maximal compact and their bookkeeping.

A weight of the (covering) maximal compact is parametrized by a
q-restricted highest weight nu, i.e. 0 <= <nu, alpha^vee> < q for every
simple alpha.  Only nu is carried around: vanishing sets Pi_nu, regularity
relative to a Levi, the change-of-weight companion nu + (q-1) omega_alpha,
and restriction-to-Levi tagging are all functions of nu alone.  The
algebraic representations themselves are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rootdata import (
    Character,
    ParabolicSubset,
    coroot,
    fundamental_weight,
    pairing,
    row_reduce,
)


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class QRestrictedWeight:
    """Highest weight nu with 0 <= <nu, alpha^vee> < q, optionally tagged
    with the Levi subset it is currently regarded over (None = full)."""

    nu: Character
    q: int
    levi: Optional[ParabolicSubset] = None

    def __post_init__(self):
        if self.q < 2:
            raise WeightError("q must be at least 2")
        n = self.nu.rank
        for i in range(1, n + 1):
            v = pairing(self.nu, coroot(i, n))
            if not 0 <= v < self.q:
                raise WeightError(
                    f"<nu, alpha_{i}^vee> = {v} is not in [0, {self.q})"
                )
        if self.levi is not None and self.levi.n != n:
            raise WeightError("levi tag rank mismatch")

    @property
    def rank(self) -> int:
        return self.nu.rank


def pi_nu(w: QRestrictedWeight) -> ParabolicSubset:
    """Pi_nu = {alpha in Pi : <nu, alpha^vee> = 0}."""
    n = w.rank
    return ParabolicSubset(
        n,
        frozenset(i for i in range(1, n + 1) if pairing(w.nu, coroot(i, n)) == 0),
    )


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
    if pairing(w.nu, coroot(i, n)) != 0:
        raise WeightError(f"<nu, alpha_{i}^vee> must vanish to change weight at {i}")
    nu2 = w.nu + (w.q - 1) * fundamental_weight(i, n)
    return QRestrictedWeight(nu2, w.q, w.levi)


def x0_lattice_basis(n: int) -> list[tuple[Fraction, ...]]:
    """Rational basis of X^0(T) = {chi : <chi, alpha^vee> = 0 for all alpha},
    computed from the pairing data rather than hardcoded.

    For type C_n the coroots span a finite-index sublattice pairing
    nondegenerately, so this comes out empty; the computation is kept
    general regardless.
    """
    rows, pivots = row_reduce([coroot(i, n).coords for i in range(1, n + 1)])
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fcol] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -rows[rr][fcol]
        basis.append(tuple(vec))
    return basis


def same_weight_class(w: QRestrictedWeight, w2: QRestrictedWeight) -> bool:
    """Whether nu and nu' give isomorphic weights, i.e. whether
    nu - nu' lies in (q-1) X^0(T)."""
    if w.q != w2.q:
        raise WeightError("weights carry different q")
    if w.rank != w2.rank:
        raise WeightError("rank mismatch")
    diff = w.nu - w2.nu
    basis = x0_lattice_basis(w.rank)
    if not basis:
        return diff.coords == tuple(0 for _ in range(w.rank))
    # membership of diff/(q-1) in the span: solve with Fractions, then
    # demand integral coefficients
    k = len(basis)
    aug = [[b[i] for b in basis] + [Fraction(c, w.q - 1)] for i, c in enumerate(diff.coords)]
    rows, pivots = row_reduce(aug)
    if k in pivots:
        return False
    return all(rows[rr][k].denominator == 1 for rr in range(len(pivots)))


def restrict_weight_to_levi(w: QRestrictedWeight, J: ParabolicSubset) -> QRestrictedWeight:
    """Regard nu as the highest weight of the corresponding weight of the
    Levi indexed by J (invariants of the unipotent part keep the same
    highest weight); pure bookkeeping."""
    if J.n != w.rank:
        raise WeightError("levi rank mismatch")
    if w.levi is not None and not J.issubset(w.levi):
        raise WeightError("can only restrict to a smaller Levi")
    return QRestrictedWeight(w.nu, w.q, J)


def is_one_dimensional_over(w: QRestrictedWeight, J: ParabolicSubset) -> bool:
    """The weight of the J-Levi with highest weight nu is a character of
    the compact Levi exactly when nu pairs to zero with the J-coroots."""
    n = w.rank
    return all(pairing(w.nu, coroot(j, n)) == 0 for j in J)
