"""Acceptance criteria, one test per criterion.

Every check is exact; the only tolerances are the stated enumeration
depths and sweeps.  Each test prints its own pass/fail line (visible
with `pytest -s` or in the CLI selftest, which runs the same functions).
Criterion 1 includes the Sp_4 oracle runs; in process it takes about
4 ms (2-vCPU Xeon, Python 3.11).
The slowest criterion test is 9, which starts the CLI in a subprocess
(about 1 s).
"""

import subprocess
import sys

from metaplectic import cover, hecke, selftest


def _report(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_satake_identities():
    _report(selftest.criterion_1_satake_identities())


def test_criterion_2_sl2_counts():
    _report(selftest.criterion_2_sl2_counts())


def test_criterion_3_hilbert_symbol():
    _report(selftest.criterion_3_hilbert())


def test_criterion_4_cover_arithmetic():
    _report(selftest.criterion_4_cover())


def test_criterion_4_catches_an_odd_B_at_one_corner(monkeypatch):
    # B odd only when both cocharacters have rank 5 and every coordinate
    # odd; a random sample can miss this: 10,000 draws from random.Random(0)
    # (n in 1..6, coordinates in -4..4) hit it once, at the class pair
    # (u, u), whose symbol is 1
    eval_B = cover.eval_B

    def odd_at_rank_5(lam, lam2):
        if lam.rank == lam2.rank == 5 and all(c % 2 for c in lam.coords + lam2.coords):
            return 1
        return eval_B(lam, lam2)

    monkeypatch.setattr(cover, "eval_B", odd_at_rank_5)
    result = selftest.criterion_4_cover()
    assert not result.passed
    assert "(1, 1, 1, 1, 1),(1, 1, 1, 1, 1)" in result.detail


def test_criterion_5_aset_fibers():
    _report(selftest.criterion_5_aset())


def test_criterion_5_refuses_a_fiber_of_zero_alone(monkeypatch):
    # an A-set without e_i leaves {0} as the fiber through 0, which the
    # aset command reports as non-conforming; the criterion fails it too
    enumerate_A = hecke.enumerate_A

    def without_e1(lam):
        A = enumerate_A(lam)
        e1 = (1,) + (0,) * (A.n - 1)
        return hecke.ASet(A.base, A.elements - {e1})

    monkeypatch.setattr(hecke, "enumerate_A", without_e1)
    result = selftest.criterion_5_aset()
    assert not result.passed
    assert "fiber dichotomy n=2 i=1: [(0, 0)]" in result.detail


def test_criterion_6_classification_counts():
    _report(selftest.criterion_6_classification())


def test_criterion_7_psi_dependence():
    _report(selftest.criterion_7_psi_dependence())


def test_criterion_7_catches_a_wrong_answer_at_one_rank_3_character(monkeypatch):
    genuine_equal = selftest.genuine_equal
    planted = [(1, 3), (0, 2), (1, 1)]

    def wrong_at_one_xi(s1, s2, F):
        answer = genuine_equal(s1, s2, F)
        if [(c.unit_exp, c.pi_exp) for c in s1.xi] == planted:
            return not answer
        return answer

    monkeypatch.setattr(selftest, "genuine_equal", wrong_at_one_xi)
    result = selftest.criterion_7_psi_dependence()
    assert not result.passed
    assert f"at xi exponents {planted}" in result.detail


def test_criterion_8_change_of_weight():
    _report(selftest.criterion_8_change_of_weight())


def test_criterion_9_selftest_command_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", "selftest"],
        capture_output=True,
        text=True,
    )
    print("criterion 9", "PASS" if proc.returncode == 0 else "FAIL",
          "- selftest command exit code")
    assert proc.returncode == 0, proc.stderr
    assert '"all_pass": true' in proc.stdout
