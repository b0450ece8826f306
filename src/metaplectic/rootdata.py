"""Exact combinatorics of the type C_n root datum.

Conventions.  Everything is written in the orthonormal realization: the
character lattice X^*(T) has basis eps_1, ..., eps_n and the cocharacter
lattice X_*(T) has the dual basis e_1, ..., e_n, so the perfect pairing is
the dot product.  Simple roots are

    alpha_i = eps_i - eps_{i+1}   (1 <= i < n,  short),
    alpha_n = 2 eps_n             (long),

with coroots alpha_i^vee = e_i - e_{i+1} and alpha_n^vee = e_n.  Unwinding
the recursive bases 2*chi_n = alpha_n, chi_i = alpha_i + chi_{i+1} and
lambda_n = alpha_n^vee, lambda_i = alpha_i^vee + lambda_{i+1} gives
chi_i = eps_i and lambda_i = e_i, so "coordinates in the chi/lambda basis"
coincide with the eps/e coordinates.  (The recursion for lambda_i is read
with alpha_i^vee, forced by types; see the ledger.)

The Weyl group is the group of signed permutations of the coordinates.
A cocharacter is antidominant when its coordinates are ascending and the
last one is <= 0.  The dominance order and the antidominant up-sets are
read in the same integer coordinates: mu >= lam when every prefix sum of
mu - lam is >= 0, and the walk over the up-set of an antidominant lam
caps its k-th coroot coordinate by the k-th prefix sum of -lam, which is
the k-th entry of C^{-1} <alpha, -lam> and an integer, so no rational
arithmetic is needed there.

A Cocharacter may carry one extra integer `gsp`, the coefficient of the
similitude cocharacter lambda_{n+1} of the ambient similitude group; the
root datum operations here ignore it (it pairs to zero with X^*(T)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction


class RootDatumError(ValueError):
    pass


@dataclass(frozen=True)
class Character:
    """Element of X^*(T) in eps coordinates (equivalently the chi_i basis)."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Character") -> "Character":
        _check_rank(self, other)
        return Character(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, k: int) -> "Character":
        return Character(tuple(k * a for a in self.coords))

    __rmul__ = __mul__


@dataclass(frozen=True)
class Cocharacter:
    """Element of X_*(T) in e coordinates (equivalently the lambda_i basis).

    `gsp` is the optional coefficient of the similitude cocharacter
    lambda_{n+1}; it is 0 for honest cocharacters of the symplectic torus.
    """

    coords: tuple[int, ...]
    gsp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Cocharacter") -> "Cocharacter":
        _check_rank(self, other)
        return Cocharacter(
            tuple(a + b for a, b in zip(self.coords, other.coords)),
            self.gsp + other.gsp,
        )

    def __sub__(self, other: "Cocharacter") -> "Cocharacter":
        _check_rank(self, other)
        return Cocharacter(
            tuple(a - b for a, b in zip(self.coords, other.coords)),
            self.gsp - other.gsp,
        )

    def __mul__(self, k: int) -> "Cocharacter":
        return Cocharacter(tuple(k * a for a in self.coords), k * self.gsp)

    __rmul__ = __mul__

    def coroot_coordinates(self) -> tuple[int, ...]:
        """Coordinates in the coroot basis (exists and is unique since
        X_*(T) = sum Z alpha_i^vee for the simply connected group).

        With alpha_i^vee = e_i - e_{i+1} and alpha_n^vee = e_n these are
        the prefix sums of the e coordinates.
        """
        if self.gsp != 0:
            raise RootDatumError("similitude part has no coroot coordinates")
        acc, out = 0, []
        for c in self.coords:
            acc += c
            out.append(acc)
        return tuple(out)


def _check_rank(a, b):
    if a.rank != b.rank:
        raise RootDatumError(f"rank mismatch: {a.rank} != {b.rank}")


@dataclass(frozen=True)
class ParabolicSubset:
    """Subset of {1, ..., n} indexing simple roots of a standard parabolic."""

    n: int
    roots: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        roots = frozenset(self.roots)
        if roots and not (1 <= min(roots) and max(roots) <= self.n):
            raise RootDatumError(f"indices out of range 1..{self.n}: {sorted(roots)}")
        object.__setattr__(self, "roots", roots)

    @staticmethod
    def empty(n: int) -> "ParabolicSubset":
        return parabolic_subset(n, frozenset())

    @staticmethod
    def siegel(n: int) -> "ParabolicSubset":
        """The Siegel subset {alpha_1, ..., alpha_{n-1}} (Levi GL_n)."""
        return ParabolicSubset(n, frozenset(range(1, n)))

    def __len__(self) -> int:
        return len(self.roots)

    def issubset(self, other: "ParabolicSubset") -> bool:
        return self.n == other.n and self.roots <= other.roots


@functools.lru_cache(maxsize=64)
def parabolic_subset(n: int, roots: frozenset) -> ParabolicSubset:
    """The subset `roots` of {1, ..., n}, built and checked once per key and
    then shared: subsets are immutable, so every datum and triple over the
    same roots can hold one object.  The cache is small (every subset of
    every rank up to 5) because each entry stays in memory: a larger one
    raised the peak RSS of a rank <= 7 sweep by 0.5 MB and saved under 1%
    of its time."""
    return ParabolicSubset(n, roots)


def simple_root(i: int, n: int) -> Character:
    """alpha_i in eps coordinates; alpha_n = 2 eps_n is the long one."""
    if not 1 <= i <= n:
        raise RootDatumError(f"simple root index {i} out of range 1..{n}")
    coords = [0] * n
    if i < n:
        coords[i - 1], coords[i] = 1, -1
    else:
        coords[n - 1] = 2
    return Character(tuple(coords))


def coroot(i: int, n: int) -> Cocharacter:
    """alpha_i^vee = e_i - e_{i+1} for i < n, alpha_n^vee = e_n."""
    if not 1 <= i <= n:
        raise RootDatumError(f"coroot index {i} out of range 1..{n}")
    coords = [0] * n
    if i < n:
        coords[i - 1], coords[i] = 1, -1
    else:
        coords[n - 1] = 1
    return Cocharacter(tuple(coords))


def fundamental_weight(i: int, n: int) -> Character:
    """omega_{alpha_i} = eps_1 + ... + eps_i, dual to the coroot basis."""
    if not 1 <= i <= n:
        raise RootDatumError(f"index {i} out of range 1..{n}")
    return Character(tuple(1 if j < i else 0 for j in range(n)))


def pairing(chi: Character, lam: Cocharacter) -> int:
    """The perfect pairing <chi, lam>, a dot product in these coordinates."""
    _check_rank(chi, lam)
    return sum(a * b for a, b in zip(chi.coords, lam.coords))


def coroot_pairings(chi: Character) -> tuple[int, ...]:
    """<chi, alpha_i^vee> for i = 1..n in one pass: chi_i - chi_{i+1} for
    i < n and chi_n at i = n."""
    c = chi.coords
    return tuple(a - b for a, b in zip(c, c[1:])) + c[-1:]


def cartan_matrix(n: int) -> list[list[int]]:
    """C[j][k] = <alpha_j, alpha_k^vee> (0-indexed rows/cols for roots 1..n)."""
    return [
        [pairing(simple_root(j, n), coroot(k, n)) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]


def row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, by Gauss-Jordan elimination, with
    the list of pivot columns.  The one exact linear solver of the
    package; the Cartan inverse is read off it."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((k for k in range(r, len(m)) if m[k][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                f = m[k][c]
                m[k] = [x - f * y for x, y in zip(m[k], m[r])]
        pivots.append(c)
    return m, pivots


def cartan_inverse(n: int, J=None) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the Cartan matrix restricted to the simple-root indices
    J, an iterable (default all of 1..n).

    All entries are nonnegative rationals; this is what makes the
    enumeration bounds below finite.
    """
    idx = range(1, n + 1) if J is None else sorted(set(J))
    return _cartan_inverse(n, tuple(idx))


@functools.lru_cache(maxsize=64)
def _cartan_inverse(n: int, idx: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """`cartan_inverse` on sorted indices, row-reduced once per key: the
    reduction over `Fraction` costs 0.3-1.3 ms at n = 3..6, and its
    callers, `hecke.enumerate_A` and the benchmark's tracer, ask for a few
    keys many times.  Rows are tuples, so no caller can alter the shared
    value."""
    m = len(idx)
    rows = [
        [pairing(simple_root(j, n), coroot(k, n)) for k in idx] + [int(j == k) for k in idx]
        for j in idx
    ]
    reduced, pivots = row_reduce(rows)
    if pivots != list(range(m)):
        raise RootDatumError("singular matrix")
    return tuple(tuple(row[m:]) for row in reduced)


def leq(lam: Cocharacter, mu: Cocharacter) -> bool:
    """mu - lam a nonnegative integer combination of the simple coroots,
    that is, every coroot coordinate (prefix sum) of mu - lam is >= 0."""
    _check_rank(lam, mu)
    return all(c >= 0 for c in (mu - lam).coroot_coordinates())


def is_antidominant(lam: Cocharacter) -> bool:
    """<alpha_j, lam> <= 0 for every simple root: the coordinates ascend
    and the last one is <= 0."""
    c = lam.coords
    return all(a <= b for a, b in zip(c, c[1:] + (0,)))


def antidominant_above(lam: Cocharacter) -> set[Cocharacter]:
    """The finite set {mu antidominant : mu >= lam}.

    Write mu = lam + sum_j a_j alpha_j^vee with a_j >= 0 and set a_0 = 0.
    In e coordinates mu_k = lam_k + a_k - a_{k-1}, so row k < n of
    C a <= b, with b_j = <alpha_j, -lam>, is mu_k <= mu_{k+1}: a lower
    bound a_{k+1} >= 2 a_k - a_{k-1} + lam_k - lam_{k+1} that involves no
    later coordinate.  An antidominant mu ascends to mu_n <= 0, so every
    mu_k <= 0: an upper bound a_k <= a_{k-1} - lam_k, which also makes the
    long-root row mu_n <= 0 hold by construction.  The search is a
    depth-first walk over a_1, ..., a_n that runs each a_k between these
    two bounds; every prefix it visits is ascending and <= 0, so it
    extends to an element (put mu_j = 0 after it) and no branch is dead.
    The branch is kept on an explicit stack, one iterator over the values
    still to visit per level, so the rank is not bounded by Python's
    recursion limit.
    """
    if not is_antidominant(lam):
        raise RootDatumError("base point must be antidominant")
    n = lam.rank
    x = (0,) + lam.coords  # x[k] = lam_k, 1-based
    a = [0] * (n + 1)  # a[k] = a_k on the current branch; a[0] = 0
    out = set()
    stack = [iter((0,))]  # stack[k] runs over the values of a_k; a_0 = 0
    while stack:
        k = len(stack) - 1
        for v in stack[k]:
            a[k] = v
            if k == n:
                mu = tuple(x[i] + a[i] - a[i - 1] for i in range(1, n + 1))
                out.add(Cocharacter(mu, lam.gsp))
                continue
            lo = max(0, 2 * v - a[k - 1] + x[k] - x[k + 1]) if k else 0
            stack.append(iter(range(lo, v - x[k + 1] + 1)))
            break
        else:
            stack.pop()
    return out


def antidominant_rep(lam: Cocharacter) -> Cocharacter:
    """The unique antidominant element of the signed-permutation orbit.

    Sort absolute values descending and negate: coordinates come out
    ascending with the last one <= 0.
    """
    return Cocharacter(tuple(sorted((-abs(c) for c in lam.coords))))


def positive_roots(n: int) -> list[Character]:
    """eps_i - eps_j and eps_i + eps_j for i < j, and 2 eps_i."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            short_minus = [0] * n
            short_minus[i], short_minus[j] = 1, -1
            out.append(Character(tuple(short_minus)))
            short_plus = [0] * n
            short_plus[i], short_plus[j] = 1, 1
            out.append(Character(tuple(short_plus)))
    for i in range(n):
        long = [0] * n
        long[i] = 2
        out.append(Character(tuple(long)))
    return out
