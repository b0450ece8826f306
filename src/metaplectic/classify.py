"""Supersingular data, triples, and the classification bookkeeping.

An irreducible admissible genuine representation is parametrized by a
triple (P, sigma, Q): a standard parabolic subset P, a supersingular
datum sigma on its Levi, and a parabolic subset Q with
P <= Q <= P + Pi(sigma).  P is determined by sigma, so a triple stores
only (sigma, Q).  The artifact never builds representation
spaces; sigma is carried as its Levi subset together with triviality
flags for the rank-one subgroups attached to the simple roots orthogonal
to the Levi ("the torus part of the root subgroup acts trivially").  In
the genuine world the long simple root can never flag, so Pi(sigma) stays
inside the short roots.

For the torus Levi the flags are computed from a genuine torus character;
for bigger Levis they are user-supplied facts about an abstract
supercuspidal, identified only by an opaque label.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .characters import GenuineTorusCharacter
from .rootdata import ParabolicSubset, first_four, parabolic_subset


class ClassifyError(ValueError):
    pass


def _mismatch(given: set, want) -> str:
    """The roots of `want` missing from `given` and those extra in it,
    counted, with the first four of each named: short at any rank."""
    gaps = (("missing", sorted(want - given)), ("extra", sorted(given - want)))
    return " and ".join(
        f"{len(r):,} {name} ({first_four(r)})"
        for name, r in gaps
        if r
    )


@functools.lru_cache(maxsize=64)
def eligible_flag_roots(levi: ParabolicSubset) -> frozenset[int]:
    """Simple roots orthogonal to the Levi: {alpha : <Pi_M, alpha^vee> = 0}.

    The Cartan matrix of type C_n is tridiagonal with nonzero
    off-diagonal entries, so <alpha_j, alpha_i^vee> != 0 exactly when
    |i - j| <= 1, and alpha_i is eligible exactly when none of
    alpha_{i-1}, alpha_i, alpha_{i+1} lies in the Levi.  Computed once per
    Levi (subsets are immutable and hashable) in a cache as small as
    `parabolic_subset`'s, and for the same reason.
    """
    roots = levi.roots
    return frozenset(
        i
        for i in range(1, levi.n + 1)
        if i not in roots and i - 1 not in roots and i + 1 not in roots
    )


@dataclass(frozen=True)
class SupersingularDatum:
    """A supersingular representation of the Levi indexed by `levi`, seen
    through its triviality flags on the eligible simple roots.

    Every datum is genuine, which forces the long-root flag to False
    whenever the long root is eligible.  A torus datum (empty Levi) may
    carry the underlying genuine torus character, in which case the flags
    must agree with the character's short-coroot restrictions.

    `top_roots` is the root set Pi_M + Pi(sigma) (a disjoint union: the
    Levi roots and the flagged eligible roots) that bounds every Q over
    this datum, computed once here; like `flags` of a torus character it is
    a plain attribute, not a field.
    """

    levi: ParabolicSubset
    flags: dict
    label: str = "sigma"
    torus_character: Optional[GenuineTorusCharacter] = None

    def __post_init__(self):
        n, flags = self.levi.n, self.flags
        eligible = eligible_flag_roots(self.levi)
        if flags.keys() != eligible:
            gap = _mismatch(set(flags), eligible)
            raise ClassifyError(f"flags must be given exactly on the eligible roots: {gap}")
        if n in eligible and flags[n]:
            raise ClassifyError(
                "genuineness forbids a triviality flag at the long simple root"
            )
        if self.torus_character is not None:
            if len(self.levi) != 0:
                raise ClassifyError("torus characters only parametrize empty-Levi data")
            if self.torus_character.rank != n:
                raise ClassifyError("torus character rank mismatch")
            for i, want in self.torus_character.flags:
                if flags.get(i) != want:
                    raise ClassifyError(
                        f"flag at alpha_{i} contradicts the torus character"
                    )
        top = self.levi.roots | {i for i, v in flags.items() if v}
        object.__setattr__(self, "top_roots", top)

    @property
    def n(self) -> int:
        return self.levi.n


def torus_datum(sigma: GenuineTorusCharacter) -> SupersingularDatum:
    """The empty-Levi datum of a genuine torus character."""
    n = sigma.rank
    flags = dict(sigma.flags)
    flags[n] = False
    return SupersingularDatum(ParabolicSubset.empty(n), flags, "xi", sigma)


def pi_sigma(sigma: SupersingularDatum) -> ParabolicSubset:
    """The flagged eligible roots; never contains the long simple root.
    Eligible roots lie outside the Levi, so they are the datum's top set
    minus its Levi roots."""
    return parabolic_subset(sigma.n, sigma.top_roots - sigma.levi.roots)


@dataclass(frozen=True)
class SupersingularTriple:
    """A triple (P, sigma, Q) stored as (sigma, Q): P is the Levi subset
    of sigma, read through the `P` property, and Q must satisfy
    P <= Q <= P + Pi(sigma) at sigma's rank."""

    sigma: SupersingularDatum
    Q: ParabolicSubset

    def __post_init__(self):
        levi = self.sigma.levi  # not the P property: one call fewer per triple
        P, Q = levi.roots, self.Q.roots
        top = self.sigma.top_roots
        if not (self.Q.n == levi.n and P <= Q <= top):
            raise ClassifyError(
                f"need P <= Q <= P + Pi(sigma); got P={sorted(P)},"
                f" Q={sorted(Q)}, top={sorted(top)}"
            )

    @property
    def P(self) -> ParabolicSubset:
        return self.sigma.levi


def composition_factors(sigma: SupersingularDatum) -> list[SupersingularTriple]:
    """The factors of parabolic induction from sigma's parabolic: one
    triple for every subset of Pi(sigma), so 2^{|Pi(sigma)|} in all."""
    n, levi = sigma.n, sigma.levi
    pis = sorted(pi_sigma(sigma).roots)
    out = []
    for r in range(len(pis) + 1):
        for S in itertools.combinations(pis, r):
            Q = parabolic_subset(n, levi.roots.union(S))
            out.append(SupersingularTriple(sigma, Q))
    return out


def ps_length(sigma: GenuineTorusCharacter) -> int:
    """Length of the principal series attached to sigma:
    2^(number of trivial short-coroot restrictions), at most 2^(n-1).
    The restriction at alpha_i is trivial exactly when the adjacent
    coordinates xi_i and xi_{i+1} are equal, so this counts equal
    adjacent pairs."""
    return 2 ** sum(flag for _, flag in sigma.flags)


def ps_irreducible(sigma: GenuineTorusCharacter) -> bool:
    """Irreducible exactly when every short-coroot restriction is
    somewhere nontrivial (length one)."""
    return ps_length(sigma) == 1


def siegel_lift(
    P: ParabolicSubset,
    rho_flags: dict,
    Q: ParabolicSubset,
    n: int,
    label: str = "rho",
) -> SupersingularTriple:
    """Lift a reductive GL_n triple (P, rho, Q) on the Siegel Levi to the
    metaplectic triple of the twisted representation.

    P and Q are subsets of the Siegel subset; rho's triviality flags live
    on the short roots orthogonal to P inside the GL_n root datum, and
    they transport unchanged (the short-root pairings agree between the
    two data).  The long root never flags on the lift, so the lifted
    vanishing set equals the reductive one and the lifted triple is valid
    exactly when the input triple was.  Only the Siegel containment and
    the placement of rho's flags are checked here; the datum and the
    triple check the rest, P <= Q <= P + Pi(rho) included.
    """
    siegel = ParabolicSubset.siegel(n)
    if not (P.issubset(siegel) and Q.issubset(siegel)):
        raise ClassifyError("a Siegel-Levi triple has P, Q inside the short roots")
    # the short-root block of the type C_n Cartan matrix is the GL_n one
    eligible_meta = eligible_flag_roots(P)
    eligible_in_gl = eligible_meta - {n}
    if set(rho_flags) != eligible_in_gl:
        gap = _mismatch(set(rho_flags), eligible_in_gl)
        raise ClassifyError(f"reductive flags must sit exactly on the GL_n eligible roots: {gap}")
    flags = dict(rho_flags)
    if n in eligible_meta:
        flags[n] = False
    return SupersingularTriple(SupersingularDatum(P, flags, label), Q)
