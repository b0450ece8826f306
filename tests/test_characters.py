import itertools
import random

import pytest

from metaplectic.characters import (
    CharacterError,
    GenuineTorusCharacter,
    SmoothCharacterFx,
    genuine_equal,
    hilbert_smooth_character,
)
from metaplectic.cover import (
    ALL_CLASSES,
    LocalFieldDescriptor,
    ONE_CLASS,
    PI_CLASS,
    UNIT_CLASS,
    hilbert,
)
from _reference import is_trivial, restrict_short_coroot

F3 = LocalFieldDescriptor(3)
Q, N = 3, 4


def chi(u, t, q=Q, n_ord=N):
    return SmoothCharacterFx(q, n_ord, u, t)


def _inverse(x):
    return SmoothCharacterFx(x.q, x.N, -x.unit_exp, -x.pi_exp)


def test_value_group_constraints():
    with pytest.raises(CharacterError):
        SmoothCharacterFx(3, 5, 0, 0)  # odd N cannot see -1
    for N in (0, -4):  # no group of order N, though N is even and prime to p
        with pytest.raises(CharacterError):
            SmoothCharacterFx(3, N, 0, 0)
    with pytest.raises(CharacterError):
        SmoothCharacterFx(3, 6, 0, 0)  # N not coprime to p


def test_smooth_character_group_ops():
    a, b = chi(1, 2), chi(1, 3)
    assert (a * b) == chi(0, 1)
    assert a * _inverse(a) == chi(0, 0)
    assert is_trivial(chi(0, 0)) and not is_trivial(a)
    with pytest.raises(CharacterError):
        a * SmoothCharacterFx(5, 4, 0, 0)


def test_restrict_short_coroot():
    c = chi(1, 1)
    sigma = GenuineTorusCharacter((c, c, c), ONE_CLASS)
    for i in (1, 2):
        assert is_trivial(restrict_short_coroot(sigma, i))
    sigma2 = GenuineTorusCharacter((chi(1, 0), chi(0, 0)), ONE_CLASS)
    assert restrict_short_coroot(sigma2, 1) == chi(1, 0)
    with pytest.raises(CharacterError):
        restrict_short_coroot(sigma, 3)  # the long coroot is not a character


def test_restrict_short_coroot_trivial_iff_adjacent_equal():
    chars = [chi(u, t) for u in range(Q - 1) for t in range(N)]
    for a, b in itertools.product(chars, repeat=2):
        sigma = GenuineTorusCharacter((a, b), ONE_CLASS)
        assert is_trivial(restrict_short_coroot(sigma, 1)) == (a == b)


def test_restrict_short_coroot_ignores_psi_class():
    xi = (chi(1, 2), chi(0, 1), chi(1, 1))
    for cls in ALL_CLASSES:
        sigma = GenuineTorusCharacter(xi, cls)
        assert restrict_short_coroot(sigma, 1) == xi[0] * _inverse(xi[1])
        assert restrict_short_coroot(sigma, 2) == xi[1] * _inverse(xi[2])


def test_hilbert_smooth_character_matches_symbol():
    for p in (3, 5, 7):
        F = LocalFieldDescriptor(p)
        n_ord = p - 1  # lcm(p - 1, 2) for odd p
        for c in ALL_CLASSES:
            smooth = hilbert_smooth_character(c, F, n_ord)
            # value at the uniformizer is the symbol (pi, c)
            want_pi = hilbert(PI_CLASS, c, F)
            assert (smooth.pi_exp == 0) == (want_pi == 1)
            # restriction to units is quadratic iff c has odd valuation
            want_unit = hilbert(UNIT_CLASS, c, F)
            assert (smooth.unit_exp == 0) == (want_unit == 1)
            assert is_trivial(smooth) == c.is_square()


def test_genuine_equal_basic():
    xi = (chi(1, 2), chi(0, 3))
    sigma = GenuineTorusCharacter(xi, ONE_CLASS)
    assert genuine_equal(sigma, sigma, F3)
    trivial = GenuineTorusCharacter((chi(0, 0),) * 2, ONE_CLASS)
    shifted = GenuineTorusCharacter(trivial.xi, UNIT_CLASS)
    assert not genuine_equal(trivial, shifted, F3)


def test_genuine_equal_twist_compensation():
    xi = (chi(1, 2), chi(0, 3))
    for a, a2 in itertools.product(ALL_CLASSES, repeat=2):
        c = a * a2
        twist = hilbert_smooth_character(c, F3, N)
        xi2 = tuple(x * twist for x in xi)
        sigma = GenuineTorusCharacter(xi, a)
        sigma2 = GenuineTorusCharacter(xi2, a2)
        assert genuine_equal(sigma, sigma2, F3)


def test_genuine_equal_is_equivalence():
    rng = random.Random(11)
    sample = [
        GenuineTorusCharacter(
            (chi(rng.randrange(Q - 1), rng.randrange(N)), chi(rng.randrange(Q - 1), rng.randrange(N))),
            rng.choice(ALL_CLASSES),
        )
        for _ in range(12)
    ]
    for s in sample:
        assert genuine_equal(s, s, F3)
    for s, t in itertools.product(sample, repeat=2):
        assert genuine_equal(s, t, F3) == genuine_equal(t, s, F3)
    for s, t, u in itertools.product(sample, repeat=3):
        if genuine_equal(s, t, F3) and genuine_equal(t, u, F3):
            assert genuine_equal(s, u, F3)


def test_genuine_equal_psi_square_collapse():
    xi = (chi(1, 1), chi(1, 3))
    for a in ALL_CLASSES:
        s1 = GenuineTorusCharacter(xi, a)
        s2 = GenuineTorusCharacter(xi, a * ONE_CLASS)  # multiplying by a square
        assert genuine_equal(s1, s2, F3)
        for b in ALL_CLASSES:
            expect = (a * b).is_square()
            assert genuine_equal(s1, GenuineTorusCharacter(xi, b), F3) == expect


def test_supersingular_flags():
    trivial = GenuineTorusCharacter((chi(0, 0),) * 3, ONE_CLASS)
    assert trivial.flags == ((1, True), (2, True))
    distinct = GenuineTorusCharacter((chi(0, 0), chi(0, 1), chi(0, 2)), ONE_CLASS)
    assert distinct.flags == ((1, False), (2, False))
    mixed = GenuineTorusCharacter((chi(1, 1), chi(1, 1), chi(0, 0)), ONE_CLASS)
    assert mixed.flags == ((1, True), (2, False))
    # the long index never appears
    assert 3 not in dict(trivial.flags)
    # computed once per character, as an immutable tuple
    assert trivial.flags is trivial.flags
    assert isinstance(trivial.flags, tuple)


def test_torus_character_validation():
    with pytest.raises(CharacterError):
        GenuineTorusCharacter((), ONE_CLASS)
    # a coordinate over another q or another N, at every place
    for other in (SmoothCharacterFx(5, 4, 0, 0), SmoothCharacterFx(3, 8, 0, 0)):
        for n in (2, 3, 4):
            for k in range(n):
                xi = [chi(0, 0)] * n
                xi[k] = other
                with pytest.raises(CharacterError, match="mixed"):
                    GenuineTorusCharacter(tuple(xi), ONE_CLASS)


def _torus_character(rank):
    return GenuineTorusCharacter((SmoothCharacterFx(3, 4, 0, 0),) * rank, ONE_CLASS)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SmoothCharacterFx(4, 2, 0, 0), "q must be an odd prime power >= 3"),
        (
            lambda: genuine_equal(_torus_character(1), _torus_character(2), LocalFieldDescriptor(3)),
            "rank mismatch",
        ),
    ],
    ids=["even-q", "genuine-equal-ranks"],
)
def test_character_refusals_name_their_cause(build, message):
    with pytest.raises(CharacterError) as err:
        build()
    assert str(err.value) == message
