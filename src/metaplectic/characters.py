"""Smooth mod-p characters of F^x and genuine characters of the covering
torus.

A smooth character of F^x with values in roots of unity of order prime to
p kills 1 + pi*O, so it is determined by its restriction to the residue
units (an exponent mod q - 1 through a fixed generator) and its value at
the uniformizer.  Values live in a fixed finite cyclic group Z/N written
additively; N must be even so the +-1-valued Hilbert characters embed.

A genuine character of the covering torus is stored as the pair
(xi, psi_class) realizing the twist bijection xi -> xi (x) chi_psi: xi is
an n-tuple of smooth characters along the lambda_i = e_i coordinates and
psi_class records which square class of additive character was used.
chi_psi is trivial on the images of the short coroots, so restriction to
a short coroot is an honest character and never sees psi; the long coroot
section is not a homomorphism and is deliberately not represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cover import LocalFieldDescriptor, SquareClass, hilbert, PI_CLASS


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class SmoothCharacterFx:
    """Smooth character of F^x: unit-part exponent mod q - 1 and value at
    the uniformizer, an element of Z/N (additively)."""

    q: int
    N: int
    unit_exp: int
    pi_exp: int

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise CharacterError("value group order N must be even and >= 2")
        if (self.q - 1) % 2 != 0 or self.q < 3:
            raise CharacterError("q must be an odd prime power >= 3")
        # q = p^f (checked by LocalFieldDescriptor), so this is gcd(N, p) == 1
        if math.gcd(self.N, self.q) != 1:
            raise CharacterError("N must be coprime to the residue characteristic")
        object.__setattr__(self, "unit_exp", self.unit_exp % (self.q - 1))
        object.__setattr__(self, "pi_exp", self.pi_exp % self.N)

    def _check(self, other: "SmoothCharacterFx"):
        if (self.q, self.N) != (other.q, other.N):
            raise CharacterError("characters live over different (q, N)")

    def __mul__(self, other: "SmoothCharacterFx") -> "SmoothCharacterFx":
        self._check(other)
        return SmoothCharacterFx(
            self.q, self.N, self.unit_exp + other.unit_exp, self.pi_exp + other.pi_exp
        )



def hilbert_smooth_character(
    c: SquareClass, F: LocalFieldDescriptor, N: int
) -> SmoothCharacterFx:
    """The character x -> (x, c)_F of F^x inside the (q, N) model.

    On units it is the quadratic character of the residue field when c has
    odd valuation (exponent (q-1)/2) and trivial otherwise; the value at
    the uniformizer is the symbol (pi, c)_F.
    """
    q = F.q
    unit_exp = ((q - 1) // 2) * c.pi_parity
    pi_exp = 0 if hilbert(PI_CLASS, c, F) == 1 else N // 2
    return SmoothCharacterFx(q, N, unit_exp, pi_exp)


@dataclass(frozen=True)
class GenuineTorusCharacter:
    """Genuine character of the covering torus: xi (x) chi_{psi_a}.

    `flags` holds the triviality flags on the short simple roots as pairs
    (i, flag), computed once with the (q, N) check: the flag says whether
    the short-coroot restriction xi_i * xi_{i+1}^{-1} is trivial, which is
    exactly xi_i == xi_{i+1} (both exponents are normalised and the torus
    character has a single (q, N)).  The long root never flags (genuineness
    forbids it) and is therefore omitted there; datum builders add the
    forced False entry when the long root is eligible.  `flags` is a plain
    attribute, not a field, so it takes no part in repr, == or hash.
    """

    xi: tuple[SmoothCharacterFx, ...]
    psi_class: SquareClass

    def __post_init__(self):
        xi = tuple(self.xi)
        if not xi:
            raise CharacterError("rank must be >= 1")
        prev = xi[0]
        q, N = prev.q, prev.N
        flags = []
        for i, x in enumerate(xi[1:], 1):
            if x.q != q or x.N != N:
                raise CharacterError("mixed (q, N) inside one torus character")
            flags.append((i, x.unit_exp == prev.unit_exp and x.pi_exp == prev.pi_exp))
            prev = x
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "flags", tuple(flags))

    @property
    def rank(self) -> int:
        return len(self.xi)


def genuine_equal(
    sigma: GenuineTorusCharacter, sigma2: GenuineTorusCharacter, F: LocalFieldDescriptor
) -> bool:
    """Equality of xi (x) chi_{psi_a} and xi' (x) chi_{psi_a'}.

    Changing the additive character by the class c = a a'^{-1} twists every
    coordinate by the Hilbert character ( . , c)_F, so equality means
    xi'_i = xi_i * ( . , c)_F for all i.
    """
    if sigma.rank != sigma2.rank:
        raise CharacterError("rank mismatch")
    c = sigma.psi_class * sigma2.psi_class
    twist = hilbert_smooth_character(c, F, sigma.xi[0].N)
    return all(x2 == x * twist for x, x2 in zip(sigma.xi, sigma2.xi))
