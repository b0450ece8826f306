"""Definitions the tests check the package against.  Nothing in the
package calls them, so they live with the tests that read them."""

from metaplectic.characters import CharacterError, GenuineTorusCharacter, SmoothCharacterFx
from metaplectic.rootdata import Cocharacter


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


def antidominant_rep(lam: Cocharacter) -> Cocharacter:
    """The unique antidominant element of the signed-permutation orbit.

    Sort absolute values descending and negate: coordinates come out
    ascending with the last one <= 0.
    """
    return Cocharacter(tuple(sorted((-abs(c) for c in lam.coords))))
