"""The three benchmark workloads: request lists made from a seed, one
executor per workload, and the checks every answer must pass.

A workload is a list of requests, run one after another by one client
(closed loop, one process, one thread).  The executor `runner(workload)`
returns "ok" or "failed" for a request and raises `WrongAnswer` when an
answer is wrong:

* a request *fails* when it raises, or when a CLI request exits with an
  unexpected code or, for a malformed request, prints a traceback or no
  `error:` line;
* an answer is *wrong* when it completes but differs from the expected
  count, fingerprint or golden stdout.  A wrong answer ends the run.

Layers are reached through the namespace `L` (`L.oracle`, `L.cli`, ...),
which holds the real modules for timed runs and the tracer's proxies for
traced runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import importlib
import json
import os
import random
import sys
import types

from tracing import LAYERS

WORKLOADS = ("oracle-regression", "cli-mix", "rank-sweep")
ORACLE_DEPTH = 4
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class SetupError(RuntimeError):
    pass


class WrongAnswer(AssertionError):
    pass


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _expect(cond, message):
    if not cond:
        raise WrongAnswer(message)


def _golden(expected: dict, section: str, key: str):
    try:
        return expected[section][key]
    except KeyError:
        raise WrongAnswer(f"no recorded {section} golden for {key!r}") from None


# ---------------------------------------------------------------------
# oracle-regression: the Sp_4 regression cells and the SL_2 row


def oracle_requests(expected: dict, seed: int) -> list:
    cells = [
        ("sp4", tuple(c["lam"]), c["p"], tuple(c["mu"])) for c in expected["oracle_sp4"]
    ]
    cells += [("sl2", (-2,), p, (m,)) for p in (3, 5, 7) for m in (-2, -1, 0)]
    random.Random(seed).shuffle(cells)
    return cells


def _sl2_closed_form(p: int, mu: tuple) -> int:
    # |S_{mu, (-2)}| for SL_2: 1 at mu = lam, p - 1 one coroot up, p^2 - p at 0
    return {(-2,): 1, (-1,): p - 1, (0,): p * p - p}[mu]


def run_oracle_cell(cell, L, expected: dict) -> str:
    group, lam, p, mu = cell
    Cocharacter = L.rootdata.Cocharacter
    res = L.oracle.count_cosets(Cocharacter(mu), Cocharacter(lam), ORACLE_DEPTH, group, p)
    if group == "sl2":
        want = _sl2_closed_form(p, mu)
    else:
        want = expected["sp4_index"][(lam, p, mu)]
    _expect(
        res.raw_count == want,
        f"{group} lam={lam} p={p} mu={mu}: raw count {res.raw_count}, expected {want}",
    )
    _expect(res.count_mod_p == want % p, f"{group} {cell}: wrong count mod p")
    _expect(res.stabilized, f"{group} {cell}: count did not stabilize")
    return "ok"


# ---------------------------------------------------------------------
# rank-sweep: A-sets against antidominant up-sets, fibers, classification

RANK_SWEEP_N = range(2, 7)
CLASSIFY_N = range(1, 8)
PS_RANK = 5
PS_Q, PS_N = 3, 4
# one ps_length request per choice of the first PS_PREFIX coordinates:
# 8^3 = 512 requests of 64 characters each.  Many equal-sized requests put
# the median and the 90th percentile latency inside one cluster, so they
# do not jump between requests of different sizes from run to run.
PS_PREFIX = 3
PS_CHUNKS = ((PS_Q - 1) * PS_N) ** PS_PREFIX


def rank_sweep_requests(seed: int) -> list:
    reqs = [("aset", n, i) for n in RANK_SWEEP_N for i in range(1, n + 1)]
    reqs += [("classify", n) for n in CLASSIFY_N]
    reqs += [("ps_length", k) for k in range(PS_CHUNKS)]
    random.Random(seed).shuffle(reqs)
    return reqs


def exhaustive_flag_data(n: int, L):
    """Every supersingular datum at rank n up to its label: each Levi
    subset with every flag pattern on its eligible short roots."""
    for r in range(n + 1):
        for roots in itertools.combinations(range(1, n + 1), r):
            levi = L.rootdata.ParabolicSubset(n, frozenset(roots))
            eligible = sorted(L.classify.eligible_flag_roots(levi))
            free = [i for i in eligible if i != n]
            for bits in itertools.product((False, True), repeat=len(free)):
                flags = dict(zip(free, bits))
                if n in eligible:
                    flags[n] = False
                yield L.classify.SupersingularDatum(levi, flags, label=f"L{list(roots)}")


def ps_chunk(k: int, L) -> list:
    """The xi tuples of ps_length request k: rank PS_RANK characters whose
    first PS_PREFIX coordinates are the base-8 digits of k."""
    chars = [
        L.characters.SmoothCharacterFx(PS_Q, PS_N, u, t)
        for u in range(PS_Q - 1)
        for t in range(PS_N)
    ]
    prefix = []
    for _ in range(PS_PREFIX):
        k, digit = divmod(k, len(chars))
        prefix.append(chars[digit])
    return [
        tuple(prefix) + rest
        for rest in itertools.product(chars, repeat=PS_RANK - PS_PREFIX)
    ]


def run_rank_item(req, L, expected: dict) -> str:
    kind = req[0]
    if kind == "aset":
        _, n, i = req
        return _check_aset(n, i, L, expected)
    if kind == "classify":
        n = req[1]
        data = factors = 0
        for datum in exhaustive_flag_data(n, L):
            got = len(L.classify.composition_factors(datum))
            want = 2 ** len(L.classify.pi_sigma(datum).roots)
            _expect(got == want, f"factor count n={n} levi={sorted(datum.levi.roots)}")
            data += 1
            factors += got
        want = _golden(expected, "classify", str(n))
        _expect(
            [data, factors] == want,
            f"classify n={n}: {data} data, {factors} factors; expected {want}",
        )
        return "ok"
    if kind == "ps_length":
        return _check_ps_chunk(req[1], L, expected)
    raise ValueError(f"unknown rank-sweep request {req!r}")


def _check_aset(n, i, L, expected) -> str:
    lam = L.hecke.t2lambda_base(i, n)
    A = L.hecke.enumerate_A(lam)
    up = L.rootdata.antidominant_above(2 * lam)
    _expect(
        {A.mu_of(a) for a in A.elements} == up,
        f"n={n} i={i}: A-set and antidominant_above(2 lam) disagree",
    )
    elements = A.sorted_elements()
    want = _golden(expected, "aset", f"{n},{i}")
    got = [len(elements), digest(json.dumps(elements))]
    _expect(got == want, f"n={n} i={i}: A-set {got}, expected {want}")
    if i == n:
        return "ok"
    # criterion 5: fiber dichotomy, and the target family is the only one
    # (with leading coefficient 1) whose fiber sums vanish
    zero = tuple(0 for _ in range(n))
    eps = tuple(1 if k == i - 1 else 0 for k in range(n))
    for fiber in L.hecke.distinct_fibers(A, i):
        _expect(
            fiber == frozenset({zero, eps}) or len(fiber) == 1,
            f"fiber dichotomy n={n} i={i}: {sorted(fiber)}",
        )
    target = {A.mu_of(b).coords: 0 for b in A.elements}
    target[A.mu_of(zero).coords] = 1
    target[A.mu_of(eps).coords] = -1
    _expect(L.hecke.vanishing_sum_check(target, A, i), f"target rejected n={n} i={i}")
    for b in elements:
        if b == zero:
            continue
        for delta in (1, -1):
            tweaked = dict(target)
            tweaked[A.mu_of(b).coords] += delta
            _expect(
                not L.hecke.vanishing_sum_check(tweaked, A, i),
                f"perturbed family accepted n={n} i={i} at {b}",
            )
    return "ok"


def _check_ps_chunk(k, L, expected) -> str:
    """Criterion-6 principal-series checks on one chunk of characters."""
    n = PS_RANK
    one = L.cover.ONE_CLASS
    histogram = {}
    for xi in ps_chunk(k, L):
        sigma = L.characters.GenuineTorusCharacter(xi, one)
        length = L.classify.ps_length(sigma)
        factors = L.classify.composition_factors(L.classify.torus_datum(sigma))
        _expect(length == len(factors), f"ps_length mismatch at {xi}")
        _expect(length <= 2 ** (n - 1), f"ps_length bound at {xi}")
        constant = all(x == xi[0] for x in xi)
        _expect((length == 2 ** (n - 1)) == constant, f"maximal length at {xi}")
        _expect(L.classify.ps_irreducible(sigma) == (length == 1), f"irreducible at {xi}")
        histogram[str(length)] = histogram.get(str(length), 0) + 1
    want = _golden(expected, "ps_length", str(k))
    _expect(histogram == want, f"ps_length chunk {k}: {histogram}, expected {want}")
    return "ok"


# ---------------------------------------------------------------------
# cli-mix: seeded in-process CLI requests against recorded goldens

SQUARE_CLASSES = ("1", "u", "pi", "upi")

# requests per pass, by category; every pass has the same composition
CLI_QUOTAS = {
    "hilbert": 110,
    "hilbert-verify": 36,
    "hilbert-verify-p7": 8,
    "cover": 36,
    "satake": 80,
    "satake-oracle": 12,
    "aset": 40,
    "weights": 110,
    "classify-xi": 50,
    "classify-levi": 50,
    "classify-siegel": 36,
    "oracle-sl2": 40,
    "malformed": 24,
    "malformed-traceback": 8,
}

# exit 2 with an `error:` line is the contract for these inputs; the last
# two end in a traceback at the seed commit
MALFORMED = {
    "malformed": [
        (("hilbert", "bogus", "pi"), None),
        (("hilbert", "pi", "pi", "--p", "9"), None),
        (("satake", "--i", "7", "--n", "2"), None),
        (("satake", "--n", "2"), None),
        (("cover", "--N", "3"), None),
        (("weights", "--nu", "0,1", "--n", "3"), None),
        (("weights", "--nu", "0,5", "--q", "3", "--n", "2"), None),
        (("aset", "--lam", "1,2", "--n", "2"), None),
        (("oracle", "satake", "--group", "sp4", "--i", "3"), None),
        (("classify",), "[1, 2]"),
        (("classify",), "not json"),
        (("classify",), '{"neither": 1}'),
    ],
    "malformed-traceback": [
        (("classify",), '{"xi": 5}'),
        (("classify", "--siegel", "--n", "3"), '{"P": [], "flags": [], "Q": []}'),
    ],
}


def request_key(argv, stdin) -> str:
    key = " ".join(argv)
    return key if stdin is None else f"{key} <<< {stdin}"


def cli_space(L) -> dict:
    """The finite space of well-formed requests, by category."""
    rootdata, classify = L.rootdata, L.classify
    space = {}
    space["hilbert"] = [
        (("hilbert", x, y, "--p", str(p)), None)
        for x in SQUARE_CLASSES
        for y in SQUARE_CLASSES
        for p in (3, 5, 7, 11, 13)
    ]
    for cat, primes in (("hilbert-verify", (3, 5)), ("hilbert-verify-p7", (7,))):
        space[cat] = [
            (("hilbert", x, y, "--p", str(p), "--verify"), None)
            for x in SQUARE_CLASSES
            for y in SQUARE_CLASSES
            for p in primes
        ]
    space["cover"] = [(("cover", "--n", str(n)), None) for n in range(1, 6)]
    space["satake"] = [
        (("satake", "--i", str(i), "--n", str(n), "--p", str(p)), None)
        for n in range(1, 6)
        for i in range(1, n + 1)
        for p in (3, 5, 7)
    ]
    space["satake-oracle"] = [
        (("satake", "--i", "1", "--n", "1", "--oracle", "--p", str(p)), None)
        for p in (3, 5, 7, 11, 13)
    ]
    space["aset"] = [
        (("aset", "--i", str(i), "--n", str(n)), None)
        for n in range(1, 6)
        for i in range(1, n + 1)
    ]
    space["weights"] = _weights_space()
    space["classify-xi"] = _classify_xi_space()
    space["classify-levi"] = []
    space["classify-siegel"] = []
    for n in range(1, 6):
        for r in range(n + 1):
            for roots in itertools.combinations(range(1, n + 1), r):
                levi = rootdata.ParabolicSubset(n, frozenset(roots))
                eligible = sorted(classify.eligible_flag_roots(levi))
                free = [i for i in eligible if i != n]
                for bits in itertools.product((False, True), repeat=len(free)):
                    flags = {str(i): b for i, b in zip(free, bits)}
                    if n in eligible:
                        flags[str(n)] = False
                    doc = {"levi": list(roots), "flags": flags}
                    space["classify-levi"].append(
                        (("classify", "--n", str(n)), json.dumps(doc, sort_keys=True))
                    )
        for P in _subsets(range(1, n)):
            gl_eligible = [
                i
                for i in range(1, n)
                if all(
                    rootdata.pairing(rootdata.simple_root(j, n), rootdata.coroot(i, n)) == 0
                    for j in P
                )
            ]
            for bits in itertools.product((False, True), repeat=len(gl_eligible)):
                flags = {str(i): b for i, b in zip(gl_eligible, bits)}
                flagged = [i for i, b in zip(gl_eligible, bits) if b]
                for extra in _subsets(flagged):
                    doc = {"P": list(P), "flags": flags, "Q": sorted(P + extra)}
                    space["classify-siegel"].append(
                        (
                            ("classify", "--siegel", "--n", str(n)),
                            json.dumps(doc, sort_keys=True),
                        )
                    )
    space["oracle-sl2"] = [
        (("oracle", "satake", "--group", "sl2", "--i", "1", "--p", str(p), "--depth", str(d)), None)
        for p in (3, 5, 7, 11, 13)
        for d in (3, 4)
    ]
    return space


def _subsets(items):
    items = tuple(items)
    return [
        c for r in range(len(items) + 1) for c in itertools.combinations(items, r)
    ]


def _weights_space() -> list:
    out = []
    for n in range(1, 6):
        for q in (3, 5):
            patterns = {
                tuple(0 for _ in range(n)),
                tuple(1 for _ in range(n)),
                tuple(q - 1 for _ in range(n)),
                tuple(k % q for k in range(n)),
                tuple(0 if k % 2 else (k + 1) % q for k in range(n)),
            }
            for c in sorted(patterns):
                nu = [0] * n
                acc = 0
                for k in reversed(range(n)):
                    acc += c[k]
                    nu[k] = acc
                base = ("weights", "--nu", ",".join(map(str, nu)), "--q", str(q), "--n", str(n))
                out.append((base, None))
                zeros = [k + 1 for k in range(n) if c[k] == 0]
                if zeros:
                    out.append((base + ("--i", str(zeros[-1])), None))
                out.append((base + ("--levi", ",".join(map(str, range(1, n + 1, 2)))), None))
    return out


def _classify_xi_space() -> list:
    out = []
    for n in range(1, 6):
        tuples = {
            tuple((0, 0) for _ in range(n)),
            tuple((1, 2) for _ in range(n)),
            tuple((k % 2, k % 4) for k in range(n)),
            tuple((0, 2 * (k % 2)) for k in range(n)),
            tuple((1, 0) if k == 0 else (0, 0) for k in range(n)),
        }
        for xi in sorted(tuples):
            for psi in ("1", "u"):
                doc = {"xi": [list(x) for x in xi], "psi_class": psi}
                out.append((("classify", "--n", str(n)), json.dumps(doc, sort_keys=True)))
    return out


def cli_requests(space: dict, seed: int) -> list:
    """One pass: exactly CLI_QUOTAS[c] requests of each category c, drawn
    with replacement from the category by the seed, in seeded order."""
    rng = random.Random(seed)
    reqs = []
    for cat, quota in CLI_QUOTAS.items():
        pool = MALFORMED.get(cat) or space[cat]
        if cat == "malformed-traceback":
            picks = [pool[k % len(pool)] for k in range(quota)]
        else:
            picks = [rng.choice(pool) for _ in range(quota)]
        reqs += [(cat, argv, stdin) for argv, stdin in picks]
    rng.shuffle(reqs)
    return reqs


def call_cli(argv, stdin, L):
    """Run one in-process CLI request; returns (exit code, stdout, stderr,
    raised).  `raised` is the exception that escaped main, if any."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = L.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught error would exit 1 with a traceback
        code, raised = 1, exc
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), raised


def run_cli_request(req, L, expected: dict) -> str:
    cat, argv, stdin = req
    code, out, err, raised = call_cli(argv, stdin, L)
    if raised is not None:
        return "failed"
    if cat.startswith("malformed"):
        has_error_line = any("error:" in line for line in err.splitlines())
        if code != 2 or not has_error_line or "Traceback" in err:
            return "failed"
        return "ok"
    want = _golden(expected, "cli", request_key(argv, stdin))
    if code != want["exit"]:
        return "failed"
    _expect(
        digest(out) == want["stdout_sha256"],
        f"stdout of `{request_key(argv, stdin)}` differs from its golden",
    )
    return "ok"


# ---------------------------------------------------------------------
# dispatch


def load_layers(root: str) -> types.SimpleNamespace:
    """Import the package from `root`/src, and only from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "metaplectic", "__init__.py")):
        raise SetupError(f"no package source under {src}")
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"metaplectic.{name}") for name in LAYERS}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(os.path.abspath(src), "metaplectic"):
        raise SetupError(f"metaplectic was imported from {origin}, not from {src}")
    return types.SimpleNamespace(**modules)


def load_expected(bench_dir: str = BENCH_DIR) -> dict:
    """Hand-written expectations (expected.json) merged with the goldens
    recorded from the seed commit (goldens.json)."""
    expected = {}
    for name in ("expected.json", "goldens.json"):
        with open(os.path.join(bench_dir, name)) as fh:
            expected.update(json.load(fh))
    expected["sp4_index"] = {
        (tuple(c["lam"]), c["p"], tuple(c["mu"])): c["raw"] for c in expected["oracle_sp4"]
    }
    return expected


def make_requests(workload: str, seed: int, L, expected: dict):
    """(requests of one pass, warm-up requests).  The warm-up touches every
    kind of request once, so lazy imports and caches fill before timing."""
    if workload == "oracle-regression":
        return oracle_requests(expected, seed), [("sl2", (-2,), 3, (0,))]
    if workload == "rank-sweep":
        return rank_sweep_requests(seed), [("aset", 2, 1), ("classify", 2)]
    if workload == "cli-mix":
        space = cli_space(L)
        warm = [(cat, *reqs[0]) for cat, reqs in space.items()]
        warm.append(("malformed", *MALFORMED["malformed"][0]))
        return cli_requests(space, seed), warm
    raise ValueError(f"unknown workload {workload!r}")


def runner(workload: str):
    """The request executor of a workload: f(request, L, expected) -> str."""
    return {
        "oracle-regression": run_oracle_cell,
        "rank-sweep": run_rank_item,
        "cli-mix": run_cli_request,
    }[workload]
