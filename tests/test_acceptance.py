"""Acceptance criteria, one test per criterion.

Every check is exact; the only tolerances are the stated enumeration
depths and sweeps.  Each test prints its own pass/fail line (visible
with `pytest -s` or in the CLI selftest, which runs the same functions).
Criterion 1 includes the Sp_4 oracle runs; in process it takes about
0.02 s (2-vCPU Xeon, Python 3.11).
The slowest criterion test is 9, which starts the CLI in a subprocess
(about 1 s).
"""

import subprocess
import sys

from metaplectic import hecke, selftest


def _report(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_satake_identities():
    _report(selftest.criterion_1_satake_identities(run_sp4=True))


def test_criterion_2_sl2_counts():
    _report(selftest.criterion_2_sl2_counts())


def test_criterion_3_hilbert_symbol():
    _report(selftest.criterion_3_hilbert())


def test_criterion_4_cover_arithmetic():
    _report(selftest.criterion_4_cover(seed=0))


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
    _report(selftest.criterion_7_psi_dependence(seed=0))


def test_criterion_8_change_of_weight():
    _report(selftest.criterion_8_change_of_weight())


def test_criterion_9_selftest_command_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "metaplectic.cli", "selftest", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    print("criterion 9", "PASS" if proc.returncode == 0 else "FAIL",
          "- selftest command exit code")
    assert proc.returncode == 0, proc.stderr
    assert '"all_pass": true' in proc.stdout
