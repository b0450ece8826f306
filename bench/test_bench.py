"""Tests of the benchmark itself: its gate can fail, its work counts
repeat exactly, and it refuses to run without the package source.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def L():
    return wl.load_layers(ROOT)


@pytest.fixture(scope="module")
def expected():
    return wl.load_expected()


def small_requests(workload, seed, L, expected):
    """A cheap slice of one pass, the same kinds of request as the full one."""
    requests, _ = wl.make_requests(workload, seed, L, expected)
    if workload == "oracle-regression":
        return [r for r in requests if r[0] == "sl2" or r[2] == 3]
    if workload == "rank-sweep":
        return [
            r
            for r in requests
            if (r[0] == "aset" and r[1] <= 4)
            or (r[0] == "classify" and r[1] <= 5)
            or (r[0] == "ps_length" and r[1] < 8)
        ]
    return requests[:120]


def traced_counts(workload, requests, L, expected):
    tracer = tracing.Tracer(vars(L))
    proxies = tracer.install()
    try:
        tracer.reset()
        run.run_pass(workload, requests, proxies, expected, tracer)
        wall = tracer.finish()
    finally:
        tracer.uninstall()
    return tracer, wall


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_work_counts_repeat_exactly(workload, L, expected):
    requests = small_requests(workload, 7, L, expected)
    first, _ = traced_counts(workload, requests, L, expected)
    second, _ = traced_counts(workload, requests, L, expected)
    assert first.exact_counts() == second.exact_counts()
    if workload != "cli-mix":
        # only the order depends on the seed
        other = small_requests(workload, 8, L, expected)
        assert sorted(map(repr, other)) == sorted(map(repr, requests))
        third, _ = traced_counts(workload, other, L, expected)
        assert third.exact_counts() == first.exact_counts()


def test_oracle_counts_are_the_box_sizes(L, expected):
    requests = small_requests("oracle-regression", 1, L, expected)
    tracer, _ = traced_counts("oracle-regression", requests, L, expected)
    counts = tracer.exact_counts()
    assert counts["oracle.cells"] == len(requests) == 10 + 9
    # 3^(sum of windows) for the p = 3 Sp_4 cells: lam = (-2,0) has mu =
    # (-2,0), (-1,-1), (-1,0), (0,0); lam = (-2,-2) adds (-2,-2), (-2,-1)
    sp4 = sum(3**w for w in (2, 4, 5, 8, 0, 1, 2, 4, 5, 8))
    sl2 = sum(1 + p + p * p for p in (3, 5, 7))
    assert counts["oracle.tuples"] == sp4 + sl2
    assert counts["oracle.hits"] == sum(
        c["raw"] for c in expected["oracle_sp4"] if c["p"] == 3
    ) + sum(1 + (p - 1) + (p * p - p) for p in (3, 5, 7))


def test_layer_self_times_account_for_the_traced_pass(L, expected):
    requests = small_requests("cli-mix", 3, L, expected)
    tracer, wall = traced_counts("cli-mix", requests, L, expected)
    total = sum(tracer.self_time.values())
    assert total == pytest.approx(wall, rel=1e-9)
    assert tracer.counts["cli.requests"] == tracer.calls["cli"] == len(requests)
    assert 0 < tracer.schema_s < tracer.self_time["cli"]


def test_tracer_restores_the_package(L):
    before = {name: dict(vars(m)) for name, m in vars(L).items()}
    tracer = tracing.Tracer(vars(L))
    tracer.install()
    assert L.oracle.count_cosets is not before["oracle"]["count_cosets"]
    tracer.uninstall()
    for name, m in vars(L).items():
        assert dict(vars(m)) == before[name]


def test_wrong_expected_count_is_a_wrong_answer(L, expected):
    wrong = copy.deepcopy(expected)
    cell = ("sp4", (-2, 0), 3, (-1, 0))
    wrong["sp4_index"][cell[1:]] += 1
    assert wl.run_oracle_cell(cell, L, expected) == "ok"
    with pytest.raises(wl.WrongAnswer):
        wl.run_oracle_cell(cell, L, wrong)
    wrong["aset"]["3,2"][1] = "0" * 64
    with pytest.raises(wl.WrongAnswer):
        wl.run_rank_item(("aset", 3, 2), L, wrong)


def test_malformed_slice_holds_both_roadmap_cases(L):
    requests, _ = wl.make_requests("cli-mix", 5, L, None)
    assert len(requests) == sum(wl.CLI_QUOTAS.values())
    stdins = [r[2] for r in requests if r[0] == "malformed-traceback"]
    assert stdins.count('{"xi": 5}') == 4
    assert stdins.count('{"P": [], "flags": [], "Q": []}') == 4


def fake_cli(behaviour):
    def main(argv):
        return behaviour()

    return types.SimpleNamespace(cli=types.SimpleNamespace(main=main))


def test_malformed_request_outcomes():
    req = ("malformed-traceback", ("classify",), '{"xi": 5}')

    def usage_error():
        print("error: bad input", file=sys.stderr)
        return 2

    def crash():
        raise TypeError("'int' object is not iterable")

    def silent_exit_2():
        return 2

    assert wl.run_cli_request(req, fake_cli(usage_error), {}) == "ok"
    assert wl.run_cli_request(req, fake_cli(crash), {}) == "failed"
    assert wl.run_cli_request(req, fake_cli(silent_exit_2), {}) == "failed"
    assert wl.run_cli_request(req, fake_cli(lambda: 0), {}) == "failed"


def copy_checkout(dest, with_src=True):
    shutil.copytree(BENCH_DIR, os.path.join(dest, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(
            os.path.join(ROOT, "src"), os.path.join(dest, "src"),
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )


def bench_cmd(dest, workload, seed):
    return [
        sys.executable, os.path.join(dest, "bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0", "--trace", "0",
    ]


def test_changed_golden_byte_fails_the_run(tmp_path, L, expected):
    copy_checkout(tmp_path)
    requests, _ = wl.make_requests("cli-mix", 4, L, expected)
    first = next(r for r in requests if not r[0].startswith("malformed"))
    path = tmp_path / "bench" / "goldens.json"
    goldens = json.loads(path.read_text())
    entry = goldens["cli"][wl.request_key(first[1], first[2])]
    digest = entry["stdout_sha256"]
    entry["stdout_sha256"] = ("1" if digest[0] != "1" else "2") + digest[1:]
    path.write_text(json.dumps(goldens))
    proc = subprocess.run(
        bench_cmd(tmp_path, "cli-mix", 4), capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 1
    assert "WRONG ANSWER" in proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_package(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        bench_cmd(tmp_path, "oracle-regression", 1),
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_reference_seconds_scale_each_stretch_by_the_sampled_speed():
    import cpuclock

    clock = cpuclock.CpuClock()
    ref = cpuclock.REF_LOOP_S
    # one sample a second: full speed for five seconds, then half speed
    clock.samples = [(float(t), ref if t < 5 else 2 * ref) for t in range(10)]
    clock._stop.set()  # never started: no sampler thread to join
    assert clock.ref_seconds(0.0, 5.0) == pytest.approx(5.0)
    assert clock.ref_seconds(5.0, 9.0) == pytest.approx(2.0)
    assert clock.ref_seconds(4.5, 5.5) == pytest.approx(0.5 + 0.25)


def test_harrell_davis_percentile():
    # I_x(a, b) against its closed forms: I_x(1, b) = 1 - (1 - x)^b and
    # I_x(a, 1) = x^a
    assert run.betainc(1.0, 3.5, 0.3) == pytest.approx(1 - 0.7**3.5, rel=1e-12)
    assert run.betainc(40.5, 1.0, 0.9) == pytest.approx(0.9**40.5, rel=1e-12)
    assert run.betainc(900.0, 100.0, 0.9) == pytest.approx(0.5, abs=0.02)
    values = list(range(1, 100))
    assert run.percentile(values, 50) == pytest.approx(50.0)
    assert run.percentile(values, 90) == pytest.approx(90.0, abs=0.5)
    # a rank sitting between two clusters gives a value between them
    clustered = [1.0] * 45 + [2.0] * 10 + [3.0] * 45
    assert 1.0 < run.percentile(clustered, 50) < 3.0
