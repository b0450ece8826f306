"""Definitions the tests check the package against.  Nothing in the
package calls them, so they live with the tests that read them."""

from dataclasses import dataclass

from metaplectic.characters import CharacterError, GenuineTorusCharacter, SmoothCharacterFx
from metaplectic.hecke import ASet, HeckeError
from metaplectic.oracle import ChevalleyRealization
from metaplectic.rootdata import Cocharacter, RootDatumError, coroot, pairing, simple_root


def restrict_short_coroot(sigma: GenuineTorusCharacter, i: int) -> SmoothCharacterFx:
    """The character x -> sigma(lift of alpha_i^vee(x)) for a short simple
    root, which is xi_i * xi_{i+1}^{-1} since chi_psi drops out.

    The long coroot is rejected: its lift is not a homomorphism, so no
    honest character exists there.
    """
    n = sigma.rank
    if not 1 <= i <= n - 1:
        raise CharacterError(
            f"short coroot index must satisfy 1 <= i <= {n - 1}, got {i}"
        )
    a, b = sigma.xi[i - 1], sigma.xi[i]
    return SmoothCharacterFx(a.q, a.N, a.unit_exp - b.unit_exp, a.pi_exp - b.pi_exp)


def is_trivial(chi: SmoothCharacterFx) -> bool:
    return chi.unit_exp == 0 and chi.pi_exp == 0


def antidominant_rep(lam: Cocharacter) -> Cocharacter:
    """The unique antidominant element of the signed-permutation orbit.

    Sort absolute values descending and negate: coordinates come out
    ascending with the last one <= 0.
    """
    return Cocharacter(tuple(sorted((-abs(c) for c in lam.coords))))


def b_positive_roots(n: int) -> list[Cocharacter]:
    """The positive roots of B_n, of SO_{2n+1}, written by hand in e
    coordinates: e_i - e_j and e_i + e_j for i < j, then e_i."""

    def root(*entries):
        coords = [0] * n
        for k, v in entries:
            coords[k] += v
        return Cocharacter(tuple(coords))

    long = [root((i, 1), (j, s)) for i in range(n) for j in range(i + 1, n) for s in (-1, 1)]
    return long + [root((i, 1)) for i in range(n)]


def coroot_coordinates(mu: Cocharacter) -> tuple[int, ...]:
    """Coordinates in the coroot basis (exists and is unique since
    X_*(T) = sum Z alpha_i^vee for the simply connected group).

    With alpha_i^vee = e_i - e_{i+1} and alpha_n^vee = e_n these are
    the prefix sums of the e coordinates.
    """
    if mu.gsp != 0:
        raise RootDatumError("similitude part has no coroot coordinates")
    acc, out = 0, []
    for c in mu.coords:
        acc += c
        out.append(acc)
    return tuple(out)

def cartan_matrix(n: int) -> list[list[int]]:
    """C[j][k] = <alpha_j, alpha_k^vee> (0-indexed rows/cols for roots 1..n)."""
    return [
        [pairing(simple_root(j, n), coroot(k, n)) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]


@dataclass(frozen=True)
class FiberResult:
    """Raw fiber of the A-set through a with the i-th coordinate freed,
    together with whether it matches the dichotomy {0, e_i} / {a}."""

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


def torus_matrix(realization: ChevalleyRealization, mu: Cocharacter, p: int):
    """mu(pi) as a pair (m, k) with mu(pi) = p^(-k) m: the diagonal
    p^(e_i - min e) with k = -min e."""
    exps = realization.torus_exponents(mu)
    low = min(exps)
    m = realization.identity()
    for i, e in enumerate(exps):
        m[i][i] = p ** (e - low)
    return m, -low


def unipotent_from_entries(realization: ChevalleyRealization, xs, q: int):
    """q^len(neg) u, for the unipotent element u whose designated matrix
    entries are xs[k] / q, with q a multiple of the square of every
    entry denominator.  Generator k's group coordinate is xs[k] / q
    minus its entry in the product so far, at rank <= 2 at most a
    product of two entries, so an integer over q.  The first j
    generators then have a product in q^(-j) Z, and with the scale
    q^len(neg) fixed up front every column update divides exactly."""
    n = len(realization.neg)
    m = realization.identity(q**n)
    for x, gen in zip(xs, realization.neg):
        a, b = gen.entry
        realization.right_multiply_generator(m, gen.units, x - m[a][b] // q ** (n - 1), q)
    return m
