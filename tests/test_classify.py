import dataclasses
import itertools
import random

import pytest

from metaplectic.characters import (
    GenuineTorusCharacter,
    SmoothCharacterFx,
    genuine_equal,
)
from metaplectic.classify import (
    ClassifyError,
    SupersingularDatum,
    SupersingularTriple,
    composition_factors,
    eligible_flag_roots,
    pi_sigma,
    ps_irreducible,
    ps_length,
    siegel_lift,
    torus_datum,
)
from metaplectic.cover import ALL_CLASSES, LocalFieldDescriptor, ONE_CLASS, UNIT_CLASS
from metaplectic.rootdata import ParabolicSubset, coroot, pairing, simple_root
from _reference import is_trivial, restrict_short_coroot

F3 = LocalFieldDescriptor(3)
Q, N = 3, 4


def chi(u, t):
    return SmoothCharacterFx(Q, N, u, t)


def _inverse(x):
    return SmoothCharacterFx(x.q, x.N, -x.unit_exp, -x.pi_exp)


def trivial_sigma(n):
    return GenuineTorusCharacter((chi(0, 0),) * n, ONE_CLASS)


def test_eligible_flag_roots():
    assert eligible_flag_roots(ParabolicSubset.empty(3)) == {1, 2, 3}
    # the Siegel subset leaves nothing orthogonal (alpha_n pairs with alpha_{n-1})
    for n in (2, 3, 4):
        assert eligible_flag_roots(ParabolicSubset.siegel(n)) == frozenset()
    assert eligible_flag_roots(ParabolicSubset(3, frozenset({1}))) == {3}
    assert eligible_flag_roots(ParabolicSubset(3, frozenset({1, 2, 3}))) == frozenset()
    # the closed form against the pairing definition, on every Levi at n <= 7;
    # a Levi inside the Siegel subset also fixes where siegel_lift puts flags
    for n in range(1, 8):
        for r in range(n + 1):
            for roots in itertools.combinations(range(1, n + 1), r):
                levi = ParabolicSubset(n, frozenset(roots))
                want = {
                    i
                    for i in range(1, n + 1)
                    if all(pairing(simple_root(j, n), coroot(i, n)) == 0 for j in roots)
                }
                assert eligible_flag_roots(levi) == want
                if n not in roots and n <= 5:
                    rho_flags = {i: False for i in want if i != n}
                    siegel_lift(levi, rho_flags, levi, n)
                    with pytest.raises(ClassifyError):
                        siegel_lift(levi, {**rho_flags, n: False}, levi, n)


def test_datum_validation():
    levi = ParabolicSubset.empty(2)
    SupersingularDatum(levi, {1: True, 2: False})
    with pytest.raises(ClassifyError):
        SupersingularDatum(levi, {1: True})  # missing eligible flag
    with pytest.raises(ClassifyError):
        SupersingularDatum(levi, {1: True, 2: True})  # long flag forbidden
    with pytest.raises(ClassifyError):
        SupersingularDatum(
            ParabolicSubset(2, frozenset({1})),
            {},
            torus_character=trivial_sigma(2),
        )  # torus character on a nonempty Levi
    with pytest.raises(ClassifyError):
        SupersingularDatum(
            levi,
            {1: False, 2: False},
            torus_character=trivial_sigma(2),
        )  # flags contradict the character


def test_pi_sigma_examples():
    d = torus_datum(trivial_sigma(3))
    assert pi_sigma(d).roots == {1, 2}
    assert d.top_roots == {1, 2}
    # Siegel Levi: no eligible roots at all
    sd = SupersingularDatum(ParabolicSubset.siegel(3), {}, label="sc")
    assert pi_sigma(sd).roots == set()
    assert sd.top_roots == sd.levi.roots
    d_false = SupersingularDatum(
        ParabolicSubset.empty(2), {1: False, 2: False}, label="x"
    )
    assert pi_sigma(d_false).roots == set()


def _subsets(items) -> set:
    items = sorted(items)
    return {
        frozenset(c)
        for r in range(len(items) + 1)
        for c in itertools.combinations(items, r)
    }


def _every_datum(n):
    """Every datum at rank n: each Levi with every pattern of short flags."""
    for roots in sorted(_subsets(range(1, n + 1)), key=sorted):
        levi = ParabolicSubset(n, roots)
        eligible = eligible_flag_roots(levi)
        free = sorted(i for i in eligible if i != n)
        for bits in itertools.product((False, True), repeat=len(free)):
            flags = dict(zip(free, bits))
            if n in eligible:
                flags[n] = False
            yield SupersingularDatum(levi, flags)


def test_pi_sigma_never_contains_long_root():
    for n in range(1, 6):
        for d in _every_datum(n):
            assert n not in pi_sigma(d).roots


def test_composition_factors():
    d0 = SupersingularDatum(ParabolicSubset.siegel(2), {}, label="sc")
    factors = composition_factors(d0)
    assert len(factors) == 1 and factors[0].Q == d0.levi
    d = torus_datum(trivial_sigma(2))
    factors = composition_factors(d)
    assert len(factors) == 2
    assert {tuple(sorted(t.Q.roots)) for t in factors} == {(), (1,)}
    assert len(composition_factors(torus_datum(trivial_sigma(3)))) == 4
    for n in range(1, 6):
        d = torus_datum(trivial_sigma(n))
        assert len(composition_factors(d)) == 2 ** (n - 1)


def test_triple_validation():
    d = torus_datum(trivial_sigma(2))  # Pi(sigma) = {1}
    assert SupersingularTriple(d, ParabolicSubset(2, frozenset({1}))).P is d.levi
    with pytest.raises(ClassifyError):
        SupersingularTriple(d, ParabolicSubset(2, frozenset({2})))


def test_triple_validation_messages():
    d = torus_datum(trivial_sigma(2))  # P = {}, Pi(sigma) = {1}
    with pytest.raises(ClassifyError) as err:
        SupersingularTriple(d, ParabolicSubset(3, frozenset({1})))
    assert str(err.value) == "need P <= Q <= P + Pi(sigma); got P=[], Q=[1], top=[1]"
    with pytest.raises(ClassifyError) as err:
        SupersingularTriple(d, ParabolicSubset(2, frozenset({1, 2})))
    assert str(err.value) == "need P <= Q <= P + Pi(sigma); got P=[], Q=[1, 2], top=[1]"
    # a nonempty Levi: Q must contain P as well as lie under P + Pi(sigma)
    levi = ParabolicSubset(4, frozenset({1}))
    sd = SupersingularDatum(levi, {3: True, 4: False})
    for roots in ({1}, {1, 3}):
        assert SupersingularTriple(sd, ParabolicSubset(4, frozenset(roots))).Q.roots == roots
    with pytest.raises(ClassifyError) as err:
        SupersingularTriple(sd, ParabolicSubset(4, frozenset({3})))
    assert str(err.value) == "need P <= Q <= P + Pi(sigma); got P=[1], Q=[3], top=[1, 3]"


def test_ps_length_and_irreducibility():
    for n in range(1, 5):
        assert ps_length(trivial_sigma(n)) == 2 ** (n - 1)
        assert ps_irreducible(trivial_sigma(n)) == (n == 1)
    generic = GenuineTorusCharacter((chi(0, 0), chi(0, 1), chi(0, 2)), ONE_CLASS)
    assert ps_length(generic) == 1 and ps_irreducible(generic)
    mixed = GenuineTorusCharacter((chi(1, 1), chi(1, 1), chi(0, 0)), ONE_CLASS)
    assert ps_length(mixed) == 2


def test_flags_and_length_match_restriction_definition():
    """Flags and lengths read off adjacent-coordinate equality agree with
    the definition through the character group operations: every rank-4
    character at (q, N) = (3, 4) and a seeded sample at (5, 8)."""
    small = [chi(u, t) for u in range(Q - 1) for t in range(N)]
    sample = list(itertools.product(small, repeat=4))
    big = [SmoothCharacterFx(5, 8, u, t) for u in range(4) for t in range(8)]
    rng = random.Random(8)
    for _ in range(3000):
        # repeat the previous coordinate half the time, so flags do occur
        xi = [rng.choice(big)]
        for _ in range(3):
            xi.append(xi[-1] if rng.random() < 0.5 else rng.choice(big))
        sample.append(tuple(xi))
    for xi in sample:
        sigma = GenuineTorusCharacter(xi, rng.choice(ALL_CLASSES))
        restrictions = {i: xi[i - 1] * _inverse(xi[i]) for i in range(1, 4)}
        want = {i: is_trivial(r) for i, r in restrictions.items()}
        assert dict(sigma.flags) == want
        assert ps_length(sigma) == 2 ** sum(want.values())
        for i, r in restrictions.items():
            assert restrict_short_coroot(sigma, i) == r


def test_ps_equivalent():
    xi = (chi(1, 2), chi(0, 1))
    s = GenuineTorusCharacter(xi, ONE_CLASS)
    assert genuine_equal(s, s, F3)
    for a in ALL_CLASSES:
        assert genuine_equal(s, GenuineTorusCharacter(xi, a), F3) == a.is_square()


def test_siegel_lift_supercuspidal():
    # rho supercuspidal on GL_2 = the full Siegel Levi at n = 2
    siegel = ParabolicSubset.siegel(2)
    t = siegel_lift(siegel, {}, siegel, 2, label="sc-gl2")
    assert t.P == siegel and t.Q == siegel
    assert pi_sigma(t.sigma).roots == set()
    assert len(composition_factors(t.sigma)) == 1


def test_siegel_lift_torus_datum():
    empty = ParabolicSubset.empty(2)
    t = siegel_lift(empty, {1: True}, ParabolicSubset(2, frozenset({1})), 2)
    assert t.P == empty and t.Q.roots == {1}
    assert pi_sigma(t.sigma).roots == {1}
    assert t.sigma.flags == {1: True, 2: False}


def test_siegel_lift_never_flags_long_root():
    for n in (2, 3, 4):
        for roots in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), r) for r in range(n)
        ):
            P = ParabolicSubset(n, frozenset(roots))
            eligible = [
                i
                for i in range(1, n)
                if i in eligible_flag_roots(ParabolicSubset(n, frozenset(roots)))
            ]
            for bits in itertools.product((False, True), repeat=len(eligible)):
                flags = dict(zip(eligible, bits))
                pi_rho = {i for i, v in flags.items() if v}
                t = siegel_lift(P, flags, P, n)
                assert n not in pi_sigma(t.sigma).roots
                # the lifted vanishing set matches the reductive one
                assert pi_sigma(t.sigma).roots == pi_rho


def test_siegel_lift_validation():
    siegel = ParabolicSubset.siegel(2)
    with pytest.raises(ClassifyError):
        siegel_lift(ParabolicSubset(2, frozenset({1, 2})), {}, siegel, 2)  # P not in Siegel
    empty = ParabolicSubset.empty(2)
    with pytest.raises(ClassifyError, match="need P <= Q"):
        # Q escapes P + Pi(rho); the triple, not siegel_lift, refuses it
        siegel_lift(empty, {1: False}, ParabolicSubset(2, frozenset({1})), 2)


def test_torus_factors_are_every_subset_of_equal_adjacent_pairs():
    """Every character at n <= 4 over (q, N) = (3, 4), 4,680 in all: the
    (P, Q) pairs of the torus datum's factors are the empty Levi with each
    subset of {i : xi_i == xi_{i+1}}, read off xi itself, and the length
    is their number."""
    small = [chi(u, t) for u in range(Q - 1) for t in range(N)]
    seen = 0
    for n in range(1, 5):
        for k, xi in enumerate(itertools.product(small, repeat=n)):
            sigma = GenuineTorusCharacter(xi, ALL_CLASSES[k % len(ALL_CLASSES)])
            equal = {i for i in range(1, n) if xi[i - 1] == xi[i]}
            pairs = [(t.P.roots, t.Q.roots) for t in composition_factors(torus_datum(sigma))]
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == {(frozenset(), S) for S in _subsets(equal)}
            assert ps_length(sigma) == len(pairs)
            seen += 1
    assert seen == 4680


def test_triple_checks_run_for_every_datum():
    """SupersingularTriple reads the datum's top set, computed once per
    datum, reads P as sigma's Levi, and still refuses every Q outside
    [P, P + Pi(sigma)] and a Q of another rank (all data, n <= 4)."""
    for n in range(1, 5):
        everything = _subsets(range(1, n + 1))
        for d in _every_datum(n):
            P = d.levi.roots
            top = P | {i for i, v in d.flags.items() if v}
            for roots in everything:
                q = ParabolicSubset(n, roots)
                if P <= roots <= top:
                    t = SupersingularTriple(d, q)
                    assert t.Q == q and t.P is d.levi
                else:
                    with pytest.raises(ClassifyError, match="need P <= Q"):
                        SupersingularTriple(d, q)
            with pytest.raises(ClassifyError, match="need P <= Q"):
                SupersingularTriple(d, ParabolicSubset(n + 1, P))


def test_datum_checks_run_for_every_levi_and_character():
    """Flags off the eligible roots, a long-root flag, and flags that
    contradict the torus character are refused: every Levi at n <= 4, and
    both short flags of every character at n = 3 over (3, 4)."""
    for n in range(1, 5):
        for roots in _subsets(range(1, n + 1)):
            levi = ParabolicSubset(n, roots)
            flags = {i: False for i in eligible_flag_roots(levi)}
            SupersingularDatum(levi, flags)
            for i in range(1, n + 1):
                off = dict(flags)
                if i in off:
                    del off[i]
                else:
                    off[i] = False
                with pytest.raises(ClassifyError, match="eligible roots"):
                    SupersingularDatum(levi, off)
            if n in flags:
                with pytest.raises(ClassifyError, match="genuineness"):
                    SupersingularDatum(levi, {**flags, n: True})
    small = [chi(u, t) for u in range(Q - 1) for t in range(N)]
    for xi in itertools.product(small, repeat=3):
        sigma = GenuineTorusCharacter(xi, ONE_CLASS)
        d = torus_datum(sigma)
        assert d.flags == {1: xi[0] == xi[1], 2: xi[1] == xi[2], 3: False}
        for i in (1, 2):
            with pytest.raises(ClassifyError, match="contradicts"):
                SupersingularDatum(
                    d.levi, {**d.flags, i: not d.flags[i]}, torus_character=sigma
                )


def test_derived_sets_are_not_fields():
    """Flags of a torus character and the top set of a datum are plain
    attributes: fields, repr, == and hash are those of the declared
    fields.  A triple's P is sigma's Levi, not a field."""
    sigma = GenuineTorusCharacter((chi(1, 2), chi(1, 2)), UNIT_CLASS)
    d = torus_datum(sigma)
    assert [f.name for f in dataclasses.fields(sigma)] == ["xi", "psi_class"]
    assert [f.name for f in dataclasses.fields(d)] == [
        "levi",
        "flags",
        "label",
        "torus_character",
    ]
    chars = (
        "GenuineTorusCharacter(xi=(SmoothCharacterFx(q=3, N=4, unit_exp=1, pi_exp=2),"
        " SmoothCharacterFx(q=3, N=4, unit_exp=1, pi_exp=2)), psi_class=SquareClass(u))"
    )
    assert repr(sigma) == chars
    assert repr(d) == (
        "SupersingularDatum(levi=ParabolicSubset(n=2, roots=frozenset()),"
        f" flags={{1: True, 2: False}}, label='xi', torus_character={chars})"
    )
    twin = GenuineTorusCharacter(list(sigma.xi), UNIT_CLASS)
    assert twin == sigma and hash(twin) == hash(sigma) and twin.xi == sigma.xi
    assert sigma.flags == ((1, True),) and d.top_roots == {1}
    assert [f.name for f in dataclasses.fields(SupersingularTriple)] == ["sigma", "Q"]


def test_parabolic_subsets_are_shared():
    n = 4
    assert ParabolicSubset.empty(n) is ParabolicSubset.empty(n)
    a = composition_factors(torus_datum(trivial_sigma(n)))
    b = composition_factors(torus_datum(trivial_sigma(n)))
    assert all(s.Q is t.Q and s.P is t.P for s, t in zip(a, b))
    assert pi_sigma(a[0].sigma) is pi_sigma(b[0].sigma)
    assert pi_sigma(a[0].sigma) == ParabolicSubset(n, frozenset({1, 2, 3}))


def test_torus_character_of_another_rank_is_refused():
    sigma = GenuineTorusCharacter((SmoothCharacterFx(3, 4, 0, 0),) * 2, ONE_CLASS)
    flags = {1: False, 2: False, 3: False}
    with pytest.raises(ClassifyError) as err:
        SupersingularDatum(ParabolicSubset.empty(3), flags, "xi", sigma)
    assert str(err.value) == "torus character rank mismatch"
