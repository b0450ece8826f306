"""Torus-level Hecke elements and the identities the Satake map satisfies.

A torus Hecke element is a finitely supported sum  sum_mu c(mu) tau_mu
with coefficients mod p, where tau_mu is the double-coset function at the
uniformizer point of the cocharacter mu.

The module records the two computed Satake values

    S(T_{2 lam_i}) = tau_{2 lam} - tau_{2 lam + alpha_i^vee}   (i short)
                   = tau_{2 lam}                               (i long),

with lam = -(e_1 + ... + e_i), the parity support filter (coefficients
die when the lambda-basis coefficient sum of mu + base is odd), the
A-set combinatorics behind the short-root case, and the change-of-weight
decision procedure for Hecke-algebra characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rootdata import (
    Cocharacter,
    ParabolicSubset,
    cartan_matrix,
    cartan_inverse,
    coroot,
    is_antidominant,
    pairing,
    simple_root,
)


class HeckeError(ValueError):
    pass


@dataclass(frozen=True)
class TorusHeckeElement:
    """Finitely supported map from cocharacters, as e-coordinate tuples, to
    coefficients mod p; coefficients that vanish mod p are pruned."""

    p: int
    coeffs: dict

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {mu: c % self.p for mu, c in self.coeffs.items() if c % self.p}
        )

    @staticmethod
    def tau(mu: tuple[int, ...], p: int, c: int = 1) -> "TorusHeckeElement":
        return TorusHeckeElement(p, {mu: c})

    def terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Sorted (mu, c) pairs with c the symmetric residue, for display."""
        out = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if c > self.p // 2:
                c -= self.p
            out.append((k, c))
        return out


def t2lambda_base(i: int, n: int) -> Cocharacter:
    """lam = -(e_1 + ... + e_i), the antidominant base point used by the
    change-of-weight computation; 2*lam indexes the Satake source cell."""
    if not 1 <= i <= n:
        raise HeckeError(f"index {i} out of range 1..{n}")
    return Cocharacter(tuple(-1 if j < i else 0 for j in range(n)))


def metaplectic_satake_T2lambda(i: int, n: int, p: int) -> TorusHeckeElement:
    """The metaplectic Satake value of T_{2 lam} at the torus:
    tau_{2 lam} - tau_{2 lam + alpha_i^vee} for short i, tau_{2 lam} for
    i = n."""
    lam = t2lambda_base(i, n)
    two = 2 * lam
    if i == n:
        return TorusHeckeElement.tau(two.coords, p)
    shifted = two + coroot(i, n)
    return TorusHeckeElement(p, {two.coords: 1, shifted.coords: -1})


def parity_filter(h: TorusHeckeElement, base: Cocharacter) -> TorusHeckeElement:
    """Zero every coefficient c(mu) for which the lambda-basis coefficients
    of mu + base sum to an odd number.

    `base` is the cocharacter indexing the Satake source cell (for the
    identities above that cell is 2*lam, whose coordinate sum is even, so
    the filter kills exactly the odd-coordinate-sum mu).
    """
    kept = {
        mu: c
        for mu, c in h.coeffs.items()
        if (sum(mu) + sum(base.coords)) % 2 == 0
    }
    return TorusHeckeElement(h.p, kept)


@dataclass(frozen=True)
class ASet:
    """Exponent vectors a >= 0 with  C a <= 2 <alpha_j, -lam>  for all j;
    equivalently mu = 2 lam + a . alpha^vee ranges over the antidominant
    cocharacters >= 2 lam."""

    base: Cocharacter
    elements: frozenset

    @property
    def n(self) -> int:
        return self.base.rank

    def mu_of(self, a) -> Cocharacter:
        """2 lam + a . alpha^vee, whose k-th e coordinate is
        2 lam_k + a_k - a_{k-1} (with a_0 = 0)."""
        a = (0, *a)
        if len(a) != self.n + 1:
            raise HeckeError(f"need {self.n} exponents, got {len(a) - 1}")
        return Cocharacter(
            tuple(2 * x + a[k + 1] - a[k] for k, x in enumerate(self.base.coords)),
            2 * self.base.gsp,
        )

    def sorted_elements(self) -> list[tuple[int, ...]]:
        return sorted(self.elements)


def enumerate_A(lam: Cocharacter) -> ASet:
    """Full enumeration of the A-set {a >= 0 : C a <= b}, with
    b_j = 2 <alpha_j, -lam>, inside the box 0 <= a <= ceil(C^{-1} b),
    which contains the A-set since C^{-1} >= 0.

    The enumeration is a depth-first walk that assigns a_1, ..., a_n in
    order, each over its whole box range.  Row j of C a <= b is tested as
    soon as its last nonzero column is set, and a prefix is dropped at the
    first row that fails: later coordinates cannot change a row whose
    variables are all set, so the walk keeps exactly the box points that
    pass every row.  It takes no lower bounds and nothing from the
    e-coordinate form of the rows, so it stays an independent reference
    for `antidominant_above`.  Each row is kept as its nonzero
    (k, C[j][k]) pairs, read off `cartan_matrix`.
    """
    n = lam.rank
    if not is_antidominant(lam):
        raise HeckeError("base point must be antidominant")
    b = [2 * pairing(simple_root(j, n), -1 * lam) for j in range(1, n + 1)]
    closing = [[] for _ in range(n)]  # closing[k]: the rows whose last column is k
    for row, bj in zip(cartan_matrix(n), b):
        terms = tuple((k, c) for k, c in enumerate(row) if c)
        closing[terms[-1][0]].append((terms, bj))
    bounds = []
    for row in cartan_inverse(n):
        v = sum(f * bb for f, bb in zip(row, b))
        bounds.append(int(v) if v.denominator == 1 else int(v) + 1)
    elems = set()
    stack = [()]
    while stack:
        prefix = stack.pop()
        k = len(prefix)
        if k == n:
            elems.add(prefix)
            continue
        for v in range(bounds[k] + 1):
            a = prefix + (v,)
            for terms, bj in closing[k]:
                s = 0
                for m, c in terms:
                    s += c * a[m]
                if s > bj:
                    break
            else:
                stack.append(a)
    return ASet(lam, frozenset(elems))


@dataclass(frozen=True)
class FiberResult:
    """Raw fiber of the A-set through a with the i-th coordinate freed,
    together with whether it matches the dichotomy {0, e_i} / {a}.

    The dichotomy is guaranteed only for short i; for i = n the raw
    fiber can be strictly larger, so `conforms` is advisory there.
    """

    vectors: frozenset
    conforms: bool


def A_fiber(A: ASet, a, i: int) -> FiberResult:
    """{b in A : b_j = a_j for all j != i}, reported raw; `a` is a tuple."""
    if a not in A.elements:
        raise HeckeError(f"{a} is not in the A-set")
    if not 1 <= i <= A.n:
        raise HeckeError(f"index {i} out of range 1..{A.n}")
    fiber = frozenset(
        b for b in A.elements if all(b[j] == a[j] for j in range(A.n) if j != i - 1)
    )
    if all(a[j] == 0 for j in range(A.n) if j != i - 1):
        predicted = {
            tuple(0 for _ in range(A.n)),
            tuple(1 if j == i - 1 else 0 for j in range(A.n)),
        }
    else:
        predicted = {a}
    return FiberResult(fiber, fiber == frozenset(predicted))


def distinct_fibers(A: ASet, i: int) -> list[frozenset]:
    """The partition of the A-set into fibers with the i-th entry freed."""
    seen = {}
    for a in sorted(A.elements):
        key = tuple(v for j, v in enumerate(a) if j != i - 1)
        seen.setdefault(key, set()).add(a)
    return [frozenset(v) for _, v in sorted(seen.items())]


def fiber_conforms(fiber: frozenset, i: int, n: int) -> bool:
    """The fiber dichotomy with the i-th coordinate freed: the fiber
    through 0 is exactly {0, e_i}, and every other fiber is a singleton."""
    zero = (0,) * n
    if zero in fiber:
        return fiber == {zero, tuple(int(j == i - 1) for j in range(n))}
    return len(fiber) == 1


def vanishing_sum_check(coeffs: dict, A: ASet, i: int) -> bool:
    """Whether every fiber sum of Satake coefficients vanishes.

    `coeffs` maps the cocharacters {2 lam + b . alpha^vee : b in A} (as
    coordinate tuples) to integers, and must cover all of them.  With the
    normalization c(2 lam) = 1 this accepts exactly the family of
    tau_{2 lam} - tau_{2 lam + alpha_i^vee}.  Only stated for short i.
    """
    if not 1 <= i <= A.n - 1:
        raise HeckeError("fiber sums are only meaningful for short indices")

    def lookup(mu):
        if mu not in coeffs:
            raise HeckeError(f"missing coefficient at {mu}")
        return coeffs[mu]

    return all(
        sum(lookup(A.mu_of(b).coords) for b in fiber) == 0
        for fiber in distinct_fibers(A, i)
    )


@dataclass(frozen=True)
class HeckeCharacter:
    """A character of the spherical Hecke algebra, seen through the torus.

    It follows the support law of an algebra character of the
    antidominant monoid: the value at mu is zero unless mu pairs to zero
    with every root in the intended vanishing set J = Pi(chi) (`face`),
    and on that face it is the homomorphism with the given exponents.
    Multiplicativity then holds wherever defined, and the change-of-weight
    dichotomy falls out of the face structure.  Build it with `from_face`.
    """

    n: int
    N: int
    face: frozenset
    exponents: tuple

    @staticmethod
    def from_face(J, exponents, n: int, N: int) -> "HeckeCharacter":
        exps = tuple(e % N for e in exponents)
        if len(exps) != n:
            raise HeckeError("need one exponent per coordinate")
        return HeckeCharacter(n=n, N=N, face=frozenset(J), exponents=exps)

    def value_at(self, mu: Cocharacter) -> Optional[int]:
        """The exponent of chi(tau_mu) in Z/N, reduced mod N, or None where
        chi vanishes (the absorbing zero of the coefficient field)."""
        if any(pairing(simple_root(j, self.n), mu) != 0 for j in self.face):
            return None
        return sum(c * e for c, e in zip(mu.coords, self.exponents)) % self.N


def pi_chi(chi: HeckeCharacter) -> ParabolicSubset:
    """Pi(chi) = {alpha : chi(tau_{lambda_alpha}) = 0}, with the marker
    lambda_alpha = `t2lambda_base(i, n)`: strictly negative against
    alpha_i, zero against the other simple roots.  Independent of the
    choice of marker (doubling it preserves vanishing)."""
    n = chi.n
    zero = frozenset(
        i for i in range(1, n + 1) if chi.value_at(t2lambda_base(i, n)) is None
    )
    return ParabolicSubset(n, zero)


def change_of_weight_decision(i: int, chi: HeckeCharacter) -> bool:
    """Decide whether the weight can be changed at alpha_i: whether the
    constant chi(tau_{2 lam}) - chi(tau_{2 lam + alpha_i^vee}) for short i,
    chi(tau_{2 lam}) for i = n, is nonzero.

    Requires alpha_i outside Pi(chi).  The long-root branch is always
    applicable (the constant is the nonzero chi(tau_{2 lam})); a short
    root fails exactly when tau_{2 lam} and tau_{2 lam + alpha_i^vee}
    carry the same value, which in the factored picture means
    <Pi(chi), alpha_i^vee> = 0 and chi'(tau_{alpha_i^vee}) = 1.
    """
    n = chi.n
    if not 1 <= i <= n:
        raise HeckeError(f"index {i} out of range 1..{n}")
    if i in pi_chi(chi).roots:
        raise HeckeError(f"alpha_{i} lies in Pi(chi); precondition violated")
    lam = t2lambda_base(i, n)
    a = chi.value_at(2 * lam)
    if i == n:
        return a is not None
    return a != chi.value_at(2 * lam + coroot(i, n))
