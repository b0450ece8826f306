"""Arithmetic of the twofold cover of Sp_2n(F), p odd.

The cover is classified by the quadratic form

    Q(sum a_i lambda_i) = sum_{i<=n} (a_i^2 + a_i a_{n+1})

on the cocharacter lattice of the ambient similitude torus; B is the
associated bilinear form.  Commutators of lifted torus points are Hilbert
symbols raised to B.  For odd residue characteristic the quadratic
Hilbert symbol factors through F^x / (F^x)^2 = {1, u, pi, u*pi} and is
computed by the tame formula.
`hilbert_solvable` checks it independently (tests, selftest criterion 3
and `hilbert --verify`): a pure-Python scan of one free coordinate of
z^2 = x X^2 + y Y^2 mod p^4 against a table of squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: hilbert never loads rootdata
    from .rootdata import Cocharacter


class CoverError(ValueError):
    pass


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class SquareClass:
    """Class in F^x / (F^x)^2 for p odd: (valuation mod 2, unit class).

    `pi_parity` is the valuation mod 2 and `unit_nonsquare` says whether
    the unit part reduces to a nonsquare of the residue field.  The four
    classes multiply by componentwise XOR.
    """

    pi_parity: int
    unit_nonsquare: bool

    def __post_init__(self):
        if self.pi_parity not in (0, 1):
            raise CoverError("pi_parity must be 0 or 1")

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass(
            (self.pi_parity + other.pi_parity) % 2,
            self.unit_nonsquare != other.unit_nonsquare,
        )

    def is_square(self) -> bool:
        return self.pi_parity == 0 and not self.unit_nonsquare

    @property
    def name(self) -> str:
        return ("1", "u", "pi", "upi")[2 * self.pi_parity + self.unit_nonsquare]

    @staticmethod
    def from_name(name: str) -> "SquareClass":
        for c in ALL_CLASSES:
            if c.name == name:
                return c
        raise CoverError(f"unknown square class {name!r}; use 1|u|pi|upi")

    def __repr__(self):
        return f"SquareClass({self.name})"


ONE_CLASS = SquareClass(0, False)
UNIT_CLASS = SquareClass(0, True)
PI_CLASS = SquareClass(1, False)
UPI_CLASS = SquareClass(1, True)
ALL_CLASSES = (ONE_CLASS, UNIT_CLASS, PI_CLASS, UPI_CLASS)


# p is checked by trial division, so it is bounded before that test
P_LIMIT = 2**31
Q_LIMIT = 2**63


@dataclass(frozen=True)
class LocalFieldDescriptor:
    """A nonarchimedean local field with odd residue characteristic p and
    residue field of size q = p^f, together with a marked uniformizer.
    Units are seen only through their square class, so no nonsquare unit
    is fixed.

    This is the one place that checks "q = p^f with p an odd prime": p
    below P_LIMIT = 2^31 and q below Q_LIMIT = 2^63, refused before any
    trial division or large power.
    """

    p: int
    f: int = 1

    def __post_init__(self):
        if self.p >= P_LIMIT:
            raise CoverError(f"p must be below 2^31, got {self.p}")
        if not _is_prime(self.p) or self.p == 2:
            raise CoverError(f"p must be an odd prime, got {self.p}")
        if self.f < 1:
            raise CoverError("f must be >= 1")
        # p >= 3, so f >= 63 means q > 2^63 without computing the power
        if self.f >= 63 or self.p**self.f >= Q_LIMIT:
            raise CoverError(f"q = p^f must be below 2^63, got p = {self.p}, f = {self.f}")

    @property
    def q(self) -> int:
        return self.p**self.f

    def residue_char_minus_one(self) -> int:
        """Quadratic character of -1: +1 iff q = 1 mod 4."""
        return 1 if self.q % 4 == 1 else -1

    def square_class_of(self, x: int) -> SquareClass:
        """Class of a nonzero integer x prime to p (f = 1)."""
        if self.f != 1:
            raise CoverError("integer reduction only available for f = 1")
        if x % self.p == 0:
            raise CoverError("unit part must be prime to p")
        nonsq = pow(x, (self.p - 1) // 2, self.p) == self.p - 1
        return SquareClass(0, nonsq)


def eval_Q(lam: Cocharacter) -> int:
    """Q(sum a_i lambda_i + a_{n+1} lambda_{n+1}) = sum (a_i^2 + a_i a_{n+1})."""
    return sum(a * a + a * lam.gsp for a in lam.coords)


def eval_B(lam: Cocharacter, lam2: Cocharacter) -> int:
    """The bilinear form Q(x + y) - Q(x) - Q(y)."""
    return eval_Q(lam + lam2) - eval_Q(lam) - eval_Q(lam2)


def hilbert(x: SquareClass, y: SquareClass, F: LocalFieldDescriptor) -> int:
    """The quadratic Hilbert symbol (x, y)_F by the tame formula.

    For x = pi^a u_x and y = pi^b u_y the symbol is the quadratic residue
    character of (-1)^{ab} u_x^b u_y^a; valid exactly because p is odd.
    """
    a, b = x.pi_parity, y.pi_parity
    sign = 1
    if a and b and F.residue_char_minus_one() == -1:
        sign = -sign
    if b and x.unit_nonsquare:
        sign = -sign
    if a and y.unit_nonsquare:
        sign = -sign
    return sign


def commutator_sign(
    lam: Cocharacter, x: SquareClass, lam2: Cocharacter, y: SquareClass, F
) -> int:
    """Commutator of lifts of lam(x) and lam2(y): (x, y)_F ** B(lam, lam2)."""
    return hilbert(x, y, F) if eval_B(lam, lam2) % 2 else 1


def splits_over_Mprime(i: int, n: int) -> bool:
    """Whether the cover splits over the rank-one subgroup of alpha_i.

    True exactly for the short simple roots, equivalently when
    Q(alpha_i^vee) is even.
    """
    if not 1 <= i <= n:
        raise CoverError(f"index {i} out of range 1..{n}")
    return i != n


SOLVABILITY_MODULUS_LIMIT = 10**6


def hilbert_solvable(x: SquareClass, y: SquareClass, F: LocalFieldDescriptor) -> int:
    """Independent oracle for the symbol: (x, y)_F = 1 iff
    z^2 = x X^2 + y Y^2 has a nontrivial solution over F (f = 1).

    A field solution scales to a primitive integral triple, and then
    (X, Y) is primitive: X = Y = 0 mod p forces z = 0 mod p.  Conversely
    a solution mod p^4 with X or Y a unit Hensel-lifts, because that
    gradient coordinate 2xX or 2yY has valuation k <= 1 and 4 >= 2k + 1.
    So the symbol is 1 iff x X^2 + y Y^2 is a square mod p^4 for some
    pair with X or Y a unit.  Scaling the pair by the inverse of that unit
    multiplies the sum by a unit square, so the unit may be taken to be 1
    and one free coordinate remains: x + y Y^2 for every Y, and
    x X^2 + y for X divisible by p (a unit X is the first case again).

    Both scans and the table of squares mod p^4 cost O(p^4) time and
    memory; a modulus over SOLVABILITY_MODULUS_LIMIT is refused before
    any work.  The nonsquare unit is the least residue outside the
    table, so no step is shared with the tame formula.
    """
    if F.f != 1:
        raise CoverError("solvability oracle runs over Q_p only (f = 1)")
    p = F.p
    mod = p**4
    if mod > SOLVABILITY_MODULUS_LIMIT:
        raise CoverError(
            f"solvability oracle at p = {p} would scan p^4 = {mod:,} residues,"
            f" over its limit of {SOLVABILITY_MODULUS_LIMIT:,}"
        )
    squares = bytearray(mod)
    for z in range(mod // 2 + 1):  # (-z)^2 = z^2
        squares[z * z % mod] = 1
    u = next(r for r in range(2, p) if not squares[r])
    xv = p**x.pi_parity * (u if x.unit_nonsquare else 1)
    yv = p**y.pi_parity * (u if y.unit_nonsquare else 1)
    if any(squares[(xv + yv * Y * Y) % mod] for Y in range(mod)):
        return 1
    if any(squares[(xv * X * X + yv) % mod] for X in range(0, mod, p)):
        return 1
    return -1
