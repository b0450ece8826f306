import itertools
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from metaplectic.cover import (
    ALL_CLASSES,
    CoverError,
    LocalFieldDescriptor,
    ONE_CLASS,
    PI_CLASS,
    SquareClass,
    UNIT_CLASS,
    UPI_CLASS,
    commutator_sign,
    eval_B,
    eval_Q,
    hilbert,
    hilbert_solvable,
    splits_over_Mprime,
)
from metaplectic.rootdata import Cocharacter, coroot


def test_eval_Q_on_coroots():
    for n in range(1, 9):
        for i in range(1, n):
            assert eval_Q(coroot(i, n)) == 2
        assert eval_Q(coroot(n, n)) == 1


def test_eval_Q_similitude_alone():
    for n in (1, 2, 4):
        assert eval_Q(Cocharacter(tuple(0 for _ in range(n)), gsp=1)) == 0


def test_eval_Q_signed_permutation_invariance_sp_part():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 6)
        coords = [rng.randint(-4, 4) for _ in range(n)]
        q0 = eval_Q(Cocharacter(tuple(coords)))
        rng.shuffle(coords)
        signed = [c * rng.choice((1, -1)) for c in coords]
        assert eval_Q(Cocharacter(tuple(signed))) == q0


def test_eval_B_examples():
    # both arguments in the Sp part: B = sum 2 a_i a'_i, always even
    a = Cocharacter((1, 2, -1))
    b = Cocharacter((0, 3, 5))
    assert eval_B(a, b) == 2 * (0 + 6 - 5)
    # against the similitude cocharacter: B = sum a_i
    sim = Cocharacter((0, 0, 0), gsp=1)
    assert eval_B(a, sim) == 1 + 2 - 1
    zero = Cocharacter((0, 0, 0))
    assert eval_B(zero, zero) == 0


@given(st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_eval_B_even_on_sp_part(n, data):
    a = Cocharacter(tuple(data.draw(st.integers(-5, 5)) for _ in range(n)))
    b = Cocharacter(tuple(data.draw(st.integers(-5, 5)) for _ in range(n)))
    assert eval_B(a, b) % 2 == 0


def test_local_field_descriptor():
    with pytest.raises(CoverError):
        LocalFieldDescriptor(2)
    with pytest.raises(CoverError):
        LocalFieldDescriptor(9)
    assert LocalFieldDescriptor(3).square_class_of(2) == UNIT_CLASS
    assert LocalFieldDescriptor(7).q == 7
    assert LocalFieldDescriptor(3, 2).q == 9
    assert LocalFieldDescriptor(3).residue_char_minus_one() == -1
    assert LocalFieldDescriptor(5).residue_char_minus_one() == 1
    assert LocalFieldDescriptor(3, 2).residue_char_minus_one() == 1  # q = 9


def test_local_field_limits():
    """p below 2^31 and q = p^f below 2^63, refused before trial division
    or the power; the largest prime below 2^31 and 3^39 are accepted."""
    assert LocalFieldDescriptor(2**31 - 1).q == 2**31 - 1
    assert LocalFieldDescriptor(3, 39).q == 3**39
    for p, f, what in (
        (2**31, 1, "p must be below 2^31"),
        (1000000000000000003, 1, "p must be below 2^31"),
        (3, 40, "q = p^f must be below 2^63"),
        (3, 30000000, "q = p^f must be below 2^63"),
        (2**31 - 1, 3, "q = p^f must be below 2^63"),
    ):
        with pytest.raises(CoverError, match=what.replace("^", r"\^")):
            LocalFieldDescriptor(p, f)


def test_square_class_group():
    assert PI_CLASS * PI_CLASS == ONE_CLASS
    assert UNIT_CLASS * PI_CLASS == UPI_CLASS
    for c in ALL_CLASSES:
        assert c * c == ONE_CLASS
    assert SquareClass.from_name("upi") == UPI_CLASS
    for c in ALL_CLASSES:
        assert SquareClass.from_name(c.name) is c
    with pytest.raises(CoverError):
        SquareClass.from_name("2")


def test_hilbert_examples():
    F3, F5 = LocalFieldDescriptor(3), LocalFieldDescriptor(5)
    assert hilbert(ONE_CLASS, PI_CLASS, F3) == 1
    assert hilbert(UNIT_CLASS, UNIT_CLASS, F3) == 1  # two units, p odd
    assert hilbert(PI_CLASS, PI_CLASS, F3) == -1
    assert hilbert(PI_CLASS, PI_CLASS, F5) == 1
    # u = 2 over Q_3: (2, pi) = Legendre(2 mod 3) = -1
    assert F3.square_class_of(2) == UNIT_CLASS
    assert hilbert(UNIT_CLASS, PI_CLASS, F3) == -1


def test_hilbert_structure_exhaustive():
    for p in (3, 5, 7, 11):
        F = LocalFieldDescriptor(p)
        minus_one = F.square_class_of(-1)
        for x, y in itertools.product(ALL_CLASSES, repeat=2):
            assert hilbert(x, y, F) == hilbert(y, x, F)
            assert hilbert(x, minus_one * x, F) == 1
        for x, y, z in itertools.product(ALL_CLASSES, repeat=3):
            assert hilbert(x * y, z, F) == hilbert(x, z, F) * hilbert(y, z, F)


def test_hilbert_against_solvability_oracle():
    for p in (3, 5, 7, 11, 13):
        F = LocalFieldDescriptor(p)
        for x, y in itertools.product(ALL_CLASSES, repeat=2):
            assert hilbert(x, y, F) == hilbert_solvable(x, y, F), (p, x, y)


def _least_nonresidue(p):
    """The least u with u^((p-1)/2) = -1 mod p (Euler's criterion)."""
    return next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)


def _brute_solvable(x, y, F):
    """(x, y)_F = 1 iff x X^2 + y Y^2 is a square mod p^4 for a primitive
    pair (X, Y): every such pair is tried, with no scaling to one free
    coordinate."""
    p = F.p
    mod = p**4
    squares = {z * z % mod for z in range(mod)}
    u = _least_nonresidue(p)
    xv = p**x.pi_parity * (u if x.unit_nonsquare else 1)
    yv = p**y.pi_parity * (u if y.unit_nonsquare else 1)
    xs = [xv * X * X % mod for X in range(mod)]
    ys = [yv * Y * Y % mod for Y in range(mod)]
    pairs = itertools.product(range(mod), repeat=2)
    if any((xs[X] + ys[Y]) % mod in squares for X, Y in pairs if X % p or Y % p):
        return 1
    return -1


def test_solvability_oracle_against_brute_force():
    for p in (3, 5):
        F = LocalFieldDescriptor(p)
        for x, y in itertools.product(ALL_CLASSES, repeat=2):
            assert hilbert_solvable(x, y, F) == _brute_solvable(x, y, F), (p, x, y)


# On Linux a child's ru_maxrss starts from the RSS of the process that
# spawned it (here the whole pytest process), so the CLI runs under a small
# Python parent that reports the peak of its own children (in KiB) as the
# last line of stderr.
_REPORT_PEAK = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:]).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _run_cli(*argv):
    """Run the CLI in a child process; returns (exit code, stdout, stderr,
    peak RSS of the CLI process in MB)."""
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_PEAK, sys.executable, "-m", "metaplectic.cli", *argv],
        capture_output=True,
        text=True,
    )
    *err, peak_kib = proc.stderr.splitlines(keepends=True)
    return proc.returncode, proc.stdout, "".join(err), int(peak_kib) / 1024


def test_verify_at_p13_stays_under_50_mb():
    code, out, err, peak_mb = _run_cli("hilbert", "u", "pi", "--p", "13", "--verify")
    assert code == 0, err
    assert json.loads(out)["verified"] is True
    assert peak_mb < 50, peak_mb


def test_solvability_oracle_refuses_large_modulus():
    F = LocalFieldDescriptor(37)
    with pytest.raises(CoverError, match="1,874,161"):
        hilbert_solvable(UNIT_CLASS, PI_CLASS, F)
    code, out, err, _ = _run_cli("hilbert", "u", "pi", "--p", "37", "--verify")
    assert (code, out) == (2, "")
    assert err.startswith("error: solvability oracle at p = 37"), err


def test_commutator_sign():
    F = LocalFieldDescriptor(3)
    rng = random.Random(7)
    # Sp-part pairs commute in the cover
    for _ in range(500):
        n = rng.randint(1, 6)
        a = Cocharacter(tuple(rng.randint(-3, 3) for _ in range(n)))
        b = Cocharacter(tuple(rng.randint(-3, 3) for _ in range(n)))
        x, y = rng.choice(ALL_CLASSES), rng.choice(ALL_CLASSES)
        assert commutator_sign(a, x, b, y, F) == 1
    # sum of lambda_i against the similitude: exponent n
    for n in (1, 3, 5):
        lam = Cocharacter(tuple(1 for _ in range(n)))
        sim = Cocharacter(tuple(0 for _ in range(n)), gsp=1)
        assert commutator_sign(lam, PI_CLASS, sim, UNIT_CLASS, F) == hilbert(
            PI_CLASS, UNIT_CLASS, F
        )
    # a square class commutes with everything
    lam = Cocharacter((1, 0), gsp=0)
    sim = Cocharacter((0, 0), gsp=1)
    assert commutator_sign(lam, ONE_CLASS, sim, PI_CLASS, F) == 1


def test_commutator_sign_skew_symmetry():
    F = LocalFieldDescriptor(3)
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = Cocharacter(tuple(rng.randint(-2, 2) for _ in range(n)), gsp=rng.randint(-1, 1))
        b = Cocharacter(tuple(rng.randint(-2, 2) for _ in range(n)), gsp=rng.randint(-1, 1))
        for x, y in itertools.product(ALL_CLASSES, repeat=2):
            s = commutator_sign(a, x, b, y, F)
            t = commutator_sign(b, y, a, x, F)
            assert s == t  # values are +-1, so inverse equals equal


def test_splits_over_Mprime():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert splits_over_Mprime(i, n) == (i != n)
            assert splits_over_Mprime(i, n) == (eval_Q(coroot(i, n)) % 2 == 0)
    with pytest.raises(CoverError):
        splits_over_Mprime(0, 2)
