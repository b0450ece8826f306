"""Record bench/goldens.json from the package as it is now.

The goldens pin the outputs of a trusted commit: the stdout digest and
exit code of every well-formed request in the cli-mix request space, the
A-set of every rank-sweep (n, i), the classification counts and the
principal-series length histograms.  Re-record only when an output is
meant to change, and say so in the change that does it.

    python3 bench/record_goldens.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def record(L) -> dict:
    cli = {}
    for cat, reqs in wl.cli_space(L).items():
        for argv, stdin in reqs:
            code, out, err, raised = wl.call_cli(argv, stdin, L)
            if raised is not None or code != 0:
                raise SystemExit(f"well-formed request failed: {argv} {stdin} -> {code}\n{err}")
            cli[wl.request_key(argv, stdin)] = {"exit": code, "stdout_sha256": wl.digest(out)}
    aset = {}
    for n in wl.RANK_SWEEP_N:
        for i in range(1, n + 1):
            elements = L.hecke.enumerate_A(L.hecke.t2lambda_base(i, n)).sorted_elements()
            aset[f"{n},{i}"] = [len(elements), wl.digest(json.dumps(elements))]
    classify = {}
    for n in wl.CLASSIFY_N:
        data = list(wl.exhaustive_flag_data(n, L))
        classify[str(n)] = [
            len(data),
            sum(len(L.classify.composition_factors(d)) for d in data),
        ]
    ps_length = {}
    for k in range(wl.PS_CHUNKS):
        histogram = {}
        for xi in wl.ps_chunk(k, L):
            sigma = L.characters.GenuineTorusCharacter(xi, L.cover.ONE_CLASS)
            length = str(L.classify.ps_length(sigma))
            histogram[length] = histogram.get(length, 0) + 1
        ps_length[str(k)] = histogram
    return {"aset": aset, "classify": classify, "ps_length": ps_length, "cli": cli}


def main() -> int:
    root = os.path.dirname(wl.BENCH_DIR)
    L = wl.load_layers(root)
    goldens = record(L)
    path = os.path.join(wl.BENCH_DIR, "goldens.json")
    with open(path, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}: {len(goldens['cli'])} cli requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
