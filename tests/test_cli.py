import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import cli, cover, hecke, rootdata
from metaplectic.cli import SCHEMAS, UsageError, build_parser, emit, main
from metaplectic.rootdata import Cocharacter
from _reference import A_fiber
from test_hecke import _dense_A


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_command(capsys):
    code, out, _ = run(capsys, "hilbert", "pi", "pi", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbol"] == -1
    code, out, _ = run(capsys, "hilbert", "pi", "pi", "--p", "5")
    assert json.loads(out)["symbol"] == 1
    code, out, _ = run(capsys, "hilbert", "u", "pi", "--p", "3", "--verify")
    payload = json.loads(out)
    assert code == 0 and payload["symbol"] == -1 and payload["verified"]


def test_hilbert_rejects_bad_class(capsys):
    code, _, err = run(capsys, "hilbert", "bogus", "pi")
    assert code == 2 and "square class" in err


def test_satake_command(capsys):
    code, out, _ = run(capsys, "satake", "--i", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"c": 1, "mu": [-2, -2]}]
    code, out, _ = run(capsys, "satake", "--i", "1", "--n", "2")
    terms = json.loads(out)["terms"]
    assert terms == [{"c": 1, "mu": [-2, 0]}, {"c": -1, "mu": [-1, -1]}]
    code, _, err = run(capsys, "satake", "--i", "5", "--n", "2")
    assert code == 2


def test_satake_oracle_flag(capsys):
    code, out, _ = run(capsys, "satake", "--i", "1", "--n", "1", "--oracle", "--p", "3")
    assert code == 0
    assert json.loads(out)["oracle"] == "agree"


@pytest.mark.parametrize("i, n", ((1, 1), (1, 2), (2, 2)))
@pytest.mark.parametrize("p", ("3", "5"))
def test_satake_oracle_agrees_at_depth_1(capsys, i, n, p):
    """The Satake check's cells have windows of at most 2, one step past
    depth 1, so every depth >= 1 counts them complete and `satake` takes no
    depth."""
    code, out, _ = run(capsys, "satake", "--i", str(i), "--n", str(n), "--oracle", "--p", p)
    assert (code, json.loads(out)["oracle"]) == (0, "agree")


def test_satake_oracle_refuses_its_rank_before_the_symbolic_value(capsys, monkeypatch):
    def no_value(*args):
        raise AssertionError("built the symbolic value")

    monkeypatch.setattr(hecke, "metaplectic_satake_T2lambda", no_value)
    code, out, err = run(capsys, "satake", "--i", "1", "--n", str(cli.SATAKE_RANK_LIMIT), "--oracle")
    assert (code, out, err) == (2, "", "error: the oracle runs at n <= 2\n")


def test_oracle_command(capsys):
    code, out, _ = run(
        capsys, "oracle", "satake", "--group", "sl2", "--i", "1", "--p", "3", "--depth", "4"
    )
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(r["mu"]): (r["raw"], r["mod_p"]) for r in payload["rows"]}
    assert rows == {(-2,): (1, 1), (-1,): (2, 2), (0,): (6, 0)}
    assert payload["target"] == [-2, -2][0:1]



def test_oracle_depth_below_one_exits_2(capsys):
    code, out, err = run(capsys, "oracle", "satake", "--group", "sp4", "--i", "1", "--depth", "0")
    assert (code, out, err) == (2, "", "error: depth must be >= 1\n")

def _aset_reference(base, i):
    """The stdout of `aset`, built from the dense definition of the A-set
    (a box scan against the Cartan rows, `test_hecke._dense_A`), which
    shares no code with the command's antidominant_above."""
    A = hecke.ASet(base, _dense_A(base))
    payload = {
        "base": list(base.coords),
        "n": base.rank,
        "elements": [list(a) for a in A.sorted_elements()],
    }
    if i is not None:
        payload["i"] = i
        payload["fibers"] = [
            {
                "fiber": [list(b) for b in sorted(fib)],
                "conforms": A_fiber(A, min(fib), i).conforms,
            }
            for fib in hecke.distinct_fibers(A, i)
        ]
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def test_aset_command(capsys):
    code, out, _ = run(capsys, "aset", "--i", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["elements"] == [
        [0, 0], [0, 1], [0, 2], [1, 2], [1, 3], [2, 4]
    ]
    for n in range(1, 6):
        for i in range(1, n + 1):
            code, out, _ = run(capsys, "aset", "--i", str(i), "--n", str(n))
            assert code == 0
            assert out == _aset_reference(hecke.t2lambda_base(i, n), i)
    code, out, _ = run(capsys, "aset", "--lam=-3,-1,0", "--n", "3")
    assert code == 0 and out == _aset_reference(Cocharacter((-3, -1, 0)), None)
    code, out, err = run(capsys, "aset", "--lam=0,-1", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: base point must be antidominant\n"


def test_aset_refuses_empty_lam_and_lam_with_i(capsys):
    # an empty --lam= is parsed, not taken for a missing flag
    code, out, err = run(capsys, "aset", "--lam=", "--n", "2")
    assert (code, out, err) == (2, "", "error: expected 2 integers, got 0\n")
    # --lam and --i together are refused, not resolved by dropping --i
    for argv in (["--lam=", "--i", "1"], ["--lam=-1,0", "--i", "2"], ["--lam=-1,0", "--i", "0"]):
        code, out, err = run(capsys, "aset", *argv, "--n", "2")
        assert (code, out, err) == (2, "", "error: give --lam or --i, not both\n")
    # neither flag: --i is required
    code, out, err = run(capsys, "aset", "--n", "2")
    assert (code, out, err) == (2, "", "error: i must lie in 1..2\n")


def test_parser_reuse_after_usage_error(capsys):
    """The parser is built once per process; an argparse usage error
    (exit 2) must not change what the next request prints."""
    argv = ("aset", "--i", "2", "--n", "3")
    # the last row's error is raised after main has handed argv to the
    # command's own parser
    for bad in (
        ["aset", "--i", "x"],
        ["aset", "--lam"],
        ["bogus"],
        [],
        ["hilbert", "pi", "pi", "--bogus", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        after = run(capsys, *argv)
        build_parser.cache_clear()
        assert after == run(capsys, *argv)


def test_weights_command(capsys):
    code, out, _ = run(capsys, "weights", "--nu", "0,0", "--q", "3", "--i", "1", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi_nu"] == [1, 2]
    assert payload["companion"]["nu"] == [2, 0]
    assert payload["companion"]["pairings"] == [2, 0]
    # an explicit --q 0 is checked, not replaced by the default q
    code, out, err = run(capsys, "weights", "--nu", "0,0", "--q", "0")
    assert (code, out, err) == (2, "", "error: q must be at least 2\n")


def test_classify_torus_character(capsys, tmp_path):
    doc = {"xi": [[0, 0], [0, 0], [0, 0]], "psi_class": "1"}
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--input", str(path), "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 4
    assert payload["irreducible"] is False
    assert len(payload["triples"]) == 4


def test_classify_generic_character(capsys, tmp_path):
    doc = {"xi": [[0, 0], [0, 1]], "psi_class": "1"}
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--input", str(path), "--n", "2")
    payload = json.loads(out)
    assert payload["length"] == 1 and payload["irreducible"] is True
    assert len(payload["triples"]) == 1


def test_classify_siegel(capsys, tmp_path):
    doc = {"P": [], "flags": {"1": True}, "Q": [1], "label": "rho"}
    path = tmp_path / "siegel.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", "--input", str(path), "--n", "2", "--siegel")
    assert code == 0
    payload = json.loads(out)
    [triple] = payload["triples"]
    assert triple["P"] == [] and triple["Q"] == [1]
    assert triple["sigma"]["flags"] == {"1": True, "2": False}


def test_classify_csv(capsys, tmp_path):
    doc = {"levi": [1], "label": "sc"}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "classify", "--input", str(path), "--n", "2", "--emit", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "P;Q;levi;label;flags"
    assert lines[1].startswith("1;1;1;sc")


@pytest.mark.parametrize("label", ['a;b"c\nP;Q;levi;label;flags\n9;9;9;forged;', 'a\rb', 'x\r\n"y"'])
def test_classify_csv_reads_back_any_label(capsys, tmp_path, label):
    # a label holding the delimiter, a quote or a line break stays one field
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"levi": [], "flags": {"1": True, "2": False}, "label": label}))
    code, out, _ = run(capsys, "classify", "--input", str(path), "--n", "2")
    triples = json.loads(out)["triples"]
    code, out, _ = run(capsys, "classify", "--input", str(path), "--n", "2", "--emit", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline=""), delimiter=";"))
    assert rows[0] == ["P", "Q", "levi", "label", "flags"]
    assert rows[1:] == [
        [",".join(map(str, t["P"])), ",".join(map(str, t["Q"])), "", label, "1:1,2:0"]
        for t in triples
    ]
    assert len(triples) == 2


def test_classify_csv_prints_nothing_when_stdout_cannot_encode_a_label(tmp_path):
    # a lone surrogate, which the schema admits, has no UTF-8 encoding: the
    # answer is refused whole, not cut off after the header
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"levi": [1], "label": "\ud800"}))
    argv = ["classify", "--input", str(path), "--n", "2", "--emit", "csv"]
    code, out, err = _main_in_child(argv, subprocess.DEVNULL, PYTHONIOENCODING="utf-8")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_classify_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run(capsys, "classify", "--input", str(path), "--n", "2")
    assert code == 2


def _main_in_child(argv, stdin, **env):
    """`main(argv)` reading the open file `stdin`, in a child process with
    at most 1 GiB of address space, killed after 20 s; `env` adds to the
    child's environment.  `argv` reaches the child as a JSON file, since
    one command-line argument may hold at most 128 KiB on Linux."""
    script = "import json, sys\nfrom metaplectic.cli import main\nsys.exit(main(json.load(open(sys.argv[1]))))\n"
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    with tempfile.NamedTemporaryFile("w", suffix=".json") as args:
        json.dump(list(argv), args)
        args.flush()
        proc = subprocess.run(
            [sys.executable, "-c", script, args.name],
            stdin=stdin,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=package_root, **env),
            timeout=20,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case", ["stdin", "input-dev-zero", "stdin-dev-zero"])
def test_inputs_over_the_limit_are_refused_unparsed(case, tmp_path):
    # the long stdin is well-formed, so only its length refuses it;
    # /dev/zero never ends
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({"levi": [1]}) + " " * cli.INPUT_LIMIT)
    argv, stdin, name = {
        "stdin": (["classify"], doc, "classify input"),
        "input-dev-zero": (["classify", "--input", "/dev/zero"], os.devnull, "/dev/zero"),
        "stdin-dev-zero": (["classify"], "/dev/zero", "classify input"),
    }[case]
    with open(stdin) as fh:
        code, out, err = _main_in_child(argv, fh)
    assert (code, out) == (2, "")
    assert err == f"error: {name} is over the input limit of {cli.INPUT_LIMIT:,} characters\n"


def test_inputs_at_the_limit_are_read():
    doc = json.dumps({"levi": [1]})
    code, out, _ = run_captured(["classify"], doc + " " * (cli.INPUT_LIMIT - len(doc)))
    assert code == 0 and json.loads(out)["triples"]


def test_byte_stability(capsys):
    _, out1, _ = run(capsys, "cover", "--n", "3")
    _, out2, _ = run(capsys, "cover", "--n", "3")
    assert out1 == out2
    _, s1, _ = run(capsys, "satake", "--i", "1", "--n", "2")
    _, s2, _ = run(capsys, "satake", "--i", "1", "--n", "2")
    assert s1 == s2


def test_selftest_command(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 9))
    assert "criterion 8 PASS" in err
    # every criterion sweeps a fixed finite space, so two runs can be diffed
    assert run(capsys, "selftest") == (code, out, err)


def run_captured(argv, stdin="", run=main):
    """run(argv), main by default, with stdin given; returns (exit code,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, doc",
    [
        (("classify",), {"xi": 5}),
        (("classify",), {"xi": [[0, None]]}),
        (("classify",), {"levi": 5}),
        (("classify",), {"levi": [1], "flags": []}),
        (("classify", "--siegel", "--n", "3"), {"P": [], "flags": [], "Q": []}),
        (("classify", "--siegel", "--n", "3"), {"P": 3, "flags": {}, "Q": []}),
        # JSON booleans are not integers, and flags are not coerced to bool
        (("classify", "--n", "3"), {"levi": [], "flags": {"1": "false", "2": False, "3": False}}),
        (("classify", "--n", "3"), {"levi": [], "flags": {"1": 0, "2": False, "3": False}}),
        (("classify", "--n", "3"), {"levi": [True], "flags": {"3": False}}),
        (("classify", "--n", "2"), {"xi": [[True, 0], [0, 0]]}),
        (("classify", "--n", "2"), {"xi": [[0, 0], [0, False]]}),
        (("classify", "--siegel", "--n", "3"), {"P": [], "flags": {"1": "yes", "2": False}, "Q": []}),
        (("classify", "--siegel", "--n", "3"), {"P": [], "flags": {"1": True, "2": False}, "Q": [True]}),
        # flag keys are canonical integers: "01" and " 1" do not stand for root 1
        (("classify", "--n", "3"), {"levi": [], "flags": {"1": True, "01": False, "2": False, "3": False}}),
        (("classify", "--n", "3"), {"levi": [], "flags": {" 1": True, "2": False, "3": False}}),
        (("classify", "--n", "3"), {"levi": [], "flags": {"x": True, "2": False, "3": False}}),
        (("classify", "--siegel", "--n", "3"), {"P": [], "flags": {"01": True, "2": False}, "Q": []}),
        # a repeated root index does not stand for the root named once
        (("classify", "--n", "2"), {"levi": [1, 1]}),
        (("classify", "--siegel", "--n", "2"), {"P": [1, 1], "flags": {}, "Q": [1]}),
        (("classify", "--siegel", "--n", "2"), {"P": [1], "flags": {}, "Q": [2, 1, 2]}),
        (("weights", "--nu", "0,0", "--levi", "1,1"), {}),
        # the rank is checked before any entry is parsed
        (("classify", "--n", "2"), {"xi": [[0, 0], [0, 0], [0, "x"]]}),
    ],
)
def test_classify_rejects_mistyped_json(argv, doc):
    code, _, err = run_captured(argv, json.dumps(doc))
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    flags = doc.get("flags")
    for key in flags if isinstance(flags, dict) else ():
        if key not in ("1", "2", "3"):
            assert f"error: flag key {key!r}" in err
    for key in ("levi", "P", "Q"):
        if isinstance(doc.get(key), list) and len(set(doc[key])) < len(doc[key]):
            assert f"error: {key!r} repeats root index" in err
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else 2
    if isinstance(doc.get("xi"), list) and len(doc["xi"]) != n:
        assert f"error: character rank {len(doc['xi'])} != configured n = {n}" in err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"xi": ' * 50_000],
    ids=["open-lists", "closed-lists", "open-objects"],
)
def test_classify_refuses_deeply_nested_json(text, tmp_path):
    """JSON nested past the recursion limit is a usage error, from stdin
    and from a file, not a RecursionError traceback."""
    path = tmp_path / "nested.json"
    path.write_text(text)
    for argv, stdin in ((["classify"], text), (["classify", "--input", str(path)], "")):
        assert run_captured(argv, stdin) == (2, "", "error: classify input is nested too deeply\n")


def _dumped(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def test_classify_levi_payload():
    """The bytes `classify` prints for a datum given by its Levi, with the
    constant `injectivity_clean` and `merged` fields."""
    sc = {"flags": {}, "label": "sc", "levi": [1]}
    code, out, _ = run_captured(["classify", "--n", "2"], json.dumps({"levi": [1], "label": "sc"}))
    assert code == 0
    assert out == _dumped(
        {
            "injectivity_clean": True,
            "merged": [],
            "n": 2,
            "triples": [{"P": [1], "Q": [1], "sigma": sc}],
        }
    )
    flags = {"1": True, "2": False, "3": False}
    sigma = {"flags": flags, "label": "sigma", "levi": []}
    code, out, _ = run_captured(["classify", "--n", "3"], json.dumps({"levi": [], "flags": flags}))
    assert code == 0
    assert out == _dumped(
        {
            "injectivity_clean": True,
            "merged": [],
            "n": 3,
            "triples": [{"P": [], "Q": Q, "sigma": sigma} for Q in ([], [1])],
        }
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_SMALL_INTS = st.lists(st.integers(-1, 4), max_size=4)
_FLAGS = st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), _JSON, max_size=3)


def _field(plausible):
    return plausible | _JSON


_DOCS = {
    "xi": st.fixed_dictionaries(
        {"xi": _field(st.lists(_SMALL_INTS, max_size=3))},
        optional={"psi_class": _field(st.sampled_from(["1", "u", "pi", "upi"]))},
    ),
    "levi": st.fixed_dictionaries(
        {"levi": _field(_SMALL_INTS)},
        optional={"flags": _field(_FLAGS), "label": _JSON},
    ),
    "siegel": st.fixed_dictionaries(
        {"P": _field(_SMALL_INTS), "flags": _field(_FLAGS), "Q": _field(_SMALL_INTS)},
        optional={"label": _JSON},
    ),
}


@settings(max_examples=150, deadline=None)
@given(
    form=st.sampled_from(sorted(_DOCS)),
    n=st.integers(1, 3),
    data=st.data(),
)
def test_classify_json_fuzz_exits_cleanly(form, n, data):
    doc = data.draw(_DOCS[form])
    argv = ["classify", "--n", str(n)] + (["--siegel"] if form == "siegel" else [])
    code, _, err = run_captured(argv, json.dumps(doc))
    assert code in (0, 2)
    assert "Traceback" not in err


def test_config_checks_field_before_deriving_N(capsys):
    """N defaults to 2(p^f - 1); p and f are checked first, so p = 0,
    f = -1 is a usage error rather than a ZeroDivisionError."""
    code, out, err = run(capsys, "hilbert", "pi", "pi", "--p", "0", "--f", "-1")
    assert (code, out, err) == (2, "", "error: p must be an odd prime, got 0\n")
    code, out, err = run(capsys, "hilbert", "pi", "pi", "--p", "3", "--f", "-1")
    assert (code, out, err) == (2, "", "error: f must be >= 1\n")


_P_ERROR = "error: p must be an odd prime, got {}\n"


class _UnreadStdin(io.StringIO):
    """A valid classify input that fails the test if it is read."""

    def read(self, *args):
        raise AssertionError("stdin was read")


# p and f first, then N, then depth, then n, then the command's own checks
_FIRST_ERRORS = [
    (["satake", "--i", "9", "--n", "0", "--p", "9"], _P_ERROR.format(9)),
    (["satake", "--i", "9", "--n", "0"], "error: n must be >= 1\n"),
    (["oracle", "satake", "--group", "sp4", "--i", "3", "--depth", "0"], "error: depth must be >= 1\n"),
    (["oracle", "satake", "--group", "sp4", "--i", "3", "--depth", "0", "--p", "9"], _P_ERROR.format(9)),
    (["oracle", "satake", "--group", "sl2", "--i", "2", "--p", "4"], _P_ERROR.format(4)),
    (["hilbert", "bogus", "pi", "--p", "4"], _P_ERROR.format(4)),
    (["hilbert", "bogus", "pi", "--f", "0"], "error: f must be >= 1\n"),
    (["classify", "--N", "3", "--n", "0"], "error: N must be even\n"),
    (["classify", "--N", "3", "--p", "4"], _P_ERROR.format(4)),
    (["classify", "--N", "3", "--f", "0"], "error: f must be >= 1\n"),
    (["classify", "--N=-2", "--n", "0"], "error: N must be positive, or 0 to derive 2(q-1)\n"),
    (["classify", "--N", "6", "--n", "0"], "error: N must be coprime to p\n"),
    (["classify", "--siegel", "--N", "3"], "error: N must be even\n"),
    (["classify", "--n", "0"], "error: n must be >= 1\n"),
    (["cover", "--n", "0"], "error: n must be >= 1\n"),
    (["weights", "--nu=", "--n", "0"], "error: n must be >= 1\n"),
    (["aset", "--i", "1", "--n", "0"], "error: n must be >= 1\n"),
    (["aset", "--i", "1", "--lam", "0", "--n", "0"], "error: n must be >= 1\n"),
]


@pytest.mark.parametrize("argv, err", _FIRST_ERRORS, ids=[" ".join(argv) for argv, _ in _FIRST_ERRORS])
def test_first_error_line_is_unchanged(argv, err, monkeypatch):
    """Where a command line holds several bad values, the first refusal
    is the one reported; a classify refused by its flags never reads its
    input."""
    monkeypatch.setattr(sys, "stdin", _UnreadStdin('{"levi": [1]}'))
    out, got = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(got):
        code = main(argv)
    assert (code, out.getvalue(), got.getvalue()) == (2, "", err)


def test_classify_derives_N_from_q():
    """--N 0, the default, derives N = 2(q-1) with q = p^f: 16 at p = 3,
    f = 2, not 2(p-1) = 4, so a pi exponent of 5 is read mod 16."""
    for flags, xi in (([], [0, 5]), (["--N", "0"], [0, 5]), (["--N", "16"], [0, 5]), (["--N", "4"], [0, 1])):
        argv = ["classify", "--n", "1", "--p", "3", "--f", "2", *flags]
        code, out, err = run_captured(argv, '{"xi": [[0, 5]]}')
        assert (code, err) == (0, "")
        assert json.loads(out)["triples"][0]["sigma"]["torus_character"]["xi"] == [xi]


def test_emit_rejects_payload_outside_its_schema(capsys, monkeypatch):
    with pytest.raises(UsageError, match="output failed its schema"):
        emit({"x": "pi", "y": "pi", "p": 3, "f": 1, "symbol": 2}, "hilbert")
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cover, "hilbert", lambda x, y, field: 2)
    code, out, err = run(capsys, "hilbert", "pi", "pi", "--p", "3")
    assert (code, out) == (2, "")
    assert err == "error: output failed its schema: 2 is not one of [1, -1]\n"


def test_emit_refuses_an_invalid_schema_on_first_use(capsys):
    # a schema is first used when its validator is built, at import: each
    # schema the draft-07 metaschema refuses is refused there, every time
    for schema in (
        {"type": 5},
        {"type": []},
        {"type": ["integer", "integer"]},
        {"enum": 1},
        {"type": "object", "properties": []},
        {"type": "object", "required": "mu"},
        {"type": "object", "required": ["mu", 1]},
    ):
        with pytest.raises(jsonschema.SchemaError):
            jsonschema.Draft7Validator.check_schema(schema)
        for _ in range(2):
            with pytest.raises(ValueError, match="no predicate covers"):
                cli._OutputValidator(schema)
    assert capsys.readouterr().out == ""


def test_emit_checks_each_schema_once_and_every_payload(capsys, monkeypatch):
    # one validator per output schema, built at import on the schema itself,
    # so emit checks no schema and builds no validator
    assert cli._VALIDATORS.keys() == SCHEMAS.keys()
    for name, schema in SCHEMAS.items():
        assert cli._VALIDATORS[name].schema is SCHEMAS[name]
    payloads = {}
    real_emit = cli.emit

    def keep(payload, schema):
        payloads[schema] = payload
        real_emit(payload, schema)

    monkeypatch.setattr(cli, "emit", keep)
    for argv, stdin in _SCHEMA_SAMPLES.values():
        assert run_captured(argv, stdin)[0] == 0
    assert payloads.keys() == SCHEMAS.keys()
    monkeypatch.undo()

    def refuse(*args, **kwargs):
        raise AssertionError("emit checked a schema or built a validator")

    monkeypatch.setattr(jsonschema.Draft7Validator, "check_schema", refuse)
    monkeypatch.setattr(jsonschema, "Draft7Validator", refuse)
    monkeypatch.setattr(cli, "_OutputValidator", refuse)
    # ... and checks every payload against its schema's predicate
    checked = []
    for name, validator in cli._VALIDATORS.items():
        holds = validator.holds
        monkeypatch.setattr(
            validator,
            "holds",
            lambda value, name=name, holds=holds: checked.append(name) or holds(value),
        )
    for _ in range(3):
        for name, payload in payloads.items():
            emit(payload, name)
    assert checked == list(payloads) * 3
    capsys.readouterr()
    monkeypatch.undo()
    # draft-07 still explains a payload the predicate rejects
    with pytest.raises(UsageError) as bad:
        emit({"x": "pi", "y": "pi", "p": 3, "f": 1, "symbol": 2}, "hilbert")
    assert str(bad.value) == "output failed its schema: 2 is not one of [1, -1]"
    assert capsys.readouterr().out == ""


# one command line per output schema, and the stdin it reads
_SCHEMA_SAMPLES = {
    "hilbert": (["hilbert", "u", "pi", "--p", "3", "--verify"], ""),
    "cover": (["cover", "--n", "2"], ""),
    "satake": (["satake", "--i", "1", "--n", "1", "--oracle", "--p", "3"], ""),
    "aset": (["aset", "--i", "2", "--n", "2"], ""),
    "weights": (
        ["weights", "--nu", "0,0", "--q", "3", "--i", "1", "--levi", "1", "--n", "2"],
        "",
    ),
    "classify": (["classify", "--n", "2"], '{"xi": [[0, 0], [0, 0]], "psi_class": "u"}'),
    "oracle": (["oracle", "satake", "--group", "sl2", "--i", "1", "--p", "3"], ""),
    "selftest": (["selftest"], ""),
}

# the keywords the output schemas may use: they mean the same in draft-07,
# which `emit` validates with, and in 2020-12
_SHARED_KEYWORDS = {"type", "properties", "required", "additionalProperties", "enum", "items"}
_WRONG_VALUES = ("bogus", 7, 1.5, True, None, [], {})


def _keywords(schema):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        assert isinstance(schema["items"], dict), "items must be a single schema"
        yield from _keywords(schema["items"])


def _variants(schema, value):
    """Payloads that differ from `value` in one place: this node replaced
    by a wrong value, a required key dropped, an unknown key added, or
    the same change made one level down."""
    yield from _WRONG_VALUES
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield {k: v for k, v in value.items() if k != key}
        yield {**value, "unknown": 0}
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                for v in _variants(sub, value[key]):
                    yield {**value, key: v}
    if isinstance(value, list) and value and "items" in schema:
        for v in _variants(schema["items"], value[0]):
            yield [v, *value[1:]]


def _best_message(validator, payload):
    err = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    return None if err is None else err.message


def _best_error(validator, payload):
    """What `emit` reports of the best match, and where it points."""
    err = jsonschema.exceptions.best_match(validator.iter_errors(payload))
    return None if err is None else (err.message, list(err.path), list(err.schema_path))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_output_schemas_mean_the_same_in_draft07_and_2020_12(name):
    schema = SCHEMAS[name]
    jsonschema.Draft7Validator.check_schema(schema)
    jsonschema.Draft202012Validator.check_schema(schema)
    assert set(_keywords(schema)) <= _SHARED_KEYWORDS
    argv, stdin = _SCHEMA_SAMPLES[name]
    code, out, _ = run_captured(argv, stdin)
    assert code == 0
    draft7 = jsonschema.Draft7Validator(schema)
    draft2020 = jsonschema.Draft202012Validator(schema)
    leaf = cli._VALIDATORS[name]  # what `emit` validates with
    payload = json.loads(out)
    assert _best_message(draft7, payload) is None
    assert _best_error(leaf, payload) is None
    rejected = 0
    for bad in _variants(schema, payload):
        message = _best_message(draft7, bad)
        assert message == _best_message(draft2020, bad), bad
        assert _best_error(leaf, bad) == _best_error(draft7, bad), bad
        rejected += message is not None
    assert rejected > len(_WRONG_VALUES)


_LEAF_VALUES = (1, 1.0, True, "1", None, [], {})


def _all_errors(validator, payload):
    return [
        (e.message, list(e.path), list(e.schema_path))
        for e in validator.iter_errors(payload)
    ]


@pytest.mark.parametrize("kind", ["integer", "string", "boolean", "array", "object", "null"])
def test_leaf_values_are_checked_as_draft07_checks_them(kind):
    # a lone `type`, as an object property and as an array item: the
    # in-place check must give draft-07's errors, in its order, on every
    # value, including True where an integer is wanted and 1.0
    as_property = {
        "type": "object",
        "properties": {"a": {"type": kind}, "b": {"type": kind}},
    }
    as_item = {"type": "array", "items": {"type": kind}}
    for schema in (as_property, as_item):
        draft7 = jsonschema.Draft7Validator(schema)
        leaf = cli._OutputValidator(schema)
        rejected = 0
        for value in _LEAF_VALUES:
            for other in _LEAF_VALUES:
                payload = [value, other] if schema is as_item else {"a": value, "b": other}
                errors = _all_errors(draft7, payload)
                assert _all_errors(leaf, payload) == errors, payload
                assert _best_error(leaf, payload) == _best_error(draft7, payload)
                rejected += bool(errors)
        assert rejected > 0


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


_PROPERTY_NAMES = sorted(
    {key for name in SCHEMAS for sub in _subschemas(SCHEMAS[name]) for key in sub.get("properties", {})}
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.sampled_from(["1", "u", "pi", "upi", "agree", "sl2", ""]),
)
_JSON_LIKE = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from([*_PROPERTY_NAMES, "unknown"]), inner, max_size=4),
    ),
    max_leaves=12,
)
_OF_TYPE = {
    "integer": st.integers(-3, 3),
    "string": st.sampled_from(["1", "u", "pi", ""]),
    "boolean": st.booleans(),
    "array": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.sampled_from(["1", "2"]), _SCALARS, max_size=2),
    "null": st.none(),
}
# what a looser predicate would let through: True or 1.0 for 1, a
# scalar for a container, or any JSON-like value
_WRONG = st.one_of(st.sampled_from([True, False, 1.0, -1.0, 0.0, "", None, [], {}]), _JSON_LIKE)


def _near(schema):
    """Values shaped by `schema`, any node of which may instead be a wrong
    value, and any object of which may have an unknown key."""
    if "enum" in schema:
        shaped = st.sampled_from(schema["enum"])
    elif "properties" in schema:
        properties = {key: _near(sub) for key, sub in schema["properties"].items()}
        required = schema.get("required", ())
        shaped = st.fixed_dictionaries(
            {key: properties[key] for key in required},
            optional={
                **{key: s for key, s in properties.items() if key not in required},
                "unknown": _WRONG,
            },
        )
    elif "items" in schema:
        shaped = st.lists(_near(schema["items"]), max_size=3)
    else:
        kinds = schema.get("type", list(_OF_TYPE))
        shaped = st.one_of(*(_OF_TYPE[kind] for kind in ([kinds] if type(kinds) is str else kinds)))
    return st.integers(0, 3).flatmap(lambda k: shaped if k else _WRONG)  # wrong 1 in 4


# each output schema's subschemas, each with its strategy, built once
_NEAR = {name: [(sub, _near(sub)) for sub in _subschemas(SCHEMAS[name])] for name in SCHEMAS}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_predicate_is_never_looser_than_draft07(name, data):
    # for each output schema and every subschema of it: whatever the
    # predicate admits, draft-07 admits
    schema, near = data.draw(st.sampled_from(_NEAR[name]))
    value = data.draw(near)
    if cli._predicate(schema)(value):
        assert jsonschema.Draft7Validator(schema).is_valid(value), (schema, value)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_sample_payload_passes_its_predicate(name, monkeypatch):
    # the path real traffic takes: the payload a command hands to `emit`
    # never reaches draft-07
    emitted = []
    real = cli.emit
    monkeypatch.setattr(
        cli, "emit", lambda payload, schema: emitted.append(payload) or real(payload, schema)
    )
    argv, stdin = _SCHEMA_SAMPLES[name]
    code, _, _ = run_captured(argv, stdin)
    assert code == 0 and len(emitted) == 1
    assert cli._predicate(SCHEMAS[name])(emitted[0])


def test_predicate_refuses_schemas_it_does_not_cover():
    for schema in (
        True,
        {"type": "number"},
        {"minimum": 0},
        {"type": "object", "additionalProperties": {"type": "integer"}},
        {"type": "array", "items": [{"type": "integer"}]},
        {"type": "object", "properties": {"a": False}},
        # malformed values of the six keywords
        {"type": 5},
        {"type": []},
        {"type": ["integer", "integer"]},
        {"enum": 1},
        {"type": "object", "properties": []},
        {"type": "object", "required": "mu"},
        {"type": "object", "required": ["mu", 1]},
    ):
        with pytest.raises(ValueError, match="no predicate covers"):
            cli._predicate(schema)


# values of the six JSON classes, with the ints and strings that test an
# encoder: past +-2^64, and with quotes, backslashes, control characters,
# non-ASCII text and lone surrogates
_BIG_INTS = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
_ODD_TEXT = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00\n\t\x1f\x7f", "é ∑ 😀", "\ud800", "a\udfffb", " "]),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=8),
)
_ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _BIG_INTS, _ODD_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        # "10" sorts before "2" as a string
        st.dictionaries(st.one_of(st.sampled_from(["1", "2", "10", "a", ""]), _ODD_TEXT), inner, max_size=4),
    ),
    max_leaves=16,
)
_OF_CLASS = {
    "integer": _BIG_INTS,
    "string": _ODD_TEXT,
    "boolean": st.booleans(),
    "array": st.lists(_ANY_JSON, max_size=4),
    "object": st.dictionaries(st.sampled_from(["1", "2", "10", "mu", ""]), _ANY_JSON, max_size=4),
    "null": st.none(),
}


def _shaped(schema):
    """Values that pass `schema`, every unconstrained array or object in
    them holding any JSON value."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "properties" in schema:
        properties = {key: _shaped(sub) for key, sub in schema["properties"].items()}
        required = schema.get("required", ())
        return st.fixed_dictionaries(
            {key: properties[key] for key in required},
            optional={key: s for key, s in properties.items() if key not in required},
        )
    if "items" in schema:
        return st.lists(_shaped(schema["items"]), max_size=4)
    kinds = schema["type"]
    return st.one_of(*(_OF_CLASS[kind] for kind in ([kinds] if type(kinds) is str else kinds)))


_SHAPED = {name: _shaped(schema) for name, schema in SCHEMAS.items()}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_emit_prints_the_bytes_of_json_dumps(name, data):
    payload = data.draw(_SHAPED[name])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(payload, name)
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize(
    "value", [(1, 2), 0.5, {1: True}, [[1, 2.0]], {"1": {3: False}}], ids=repr
)
def test_output_json_cannot_print_is_refused(value, monkeypatch):
    # `splits_over_Mprime` is an unconstrained object in its schema, so a
    # value draft-07 admits but JSON cannot print reaches the encoder
    monkeypatch.setattr(cover, "splits_over_Mprime", lambda i, n: value)
    code, out, err = run_captured(["cover", "--n", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "goldens.json")


def test_every_cli_golden_replays_in_process():
    # the exit code and stdout digest of each well-formed request the
    # benchmark checks, recorded as `argv` or `argv <<< stdin`
    with open(_GOLDENS) as fh:
        goldens = json.load(fh)["cli"]
    assert len(goldens) == 665
    for key, want in goldens.items():
        argv, _, stdin = key.partition(" <<< ")
        code, out, _ = run_captured(argv.split(), stdin)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["stdout_sha256"]), key


def _flag(name, values):
    # "--lam=-1,0": as a separate word argparse would read "-1,0" as an option
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


_INT_LIST = st.lists(st.integers(-3, 3), max_size=5).map(lambda xs: ",".join(map(str, xs)))
_P = _flag("--p", st.integers(-3, 15))
_F = _flag("--f", st.integers(-1, 3))
_N = _flag("--n", st.integers(0, 4))
_SMALL = st.integers(-3, 4)
_CLASSES = st.sampled_from(["1", "u", "pi", "upi", "x"])
_VERIFY = st.sampled_from([[], ["--verify"]])


def _argv(*parts):
    """One command line from its words and its optional flags."""
    return st.tuples(*parts).map(lambda t: sum(t, []))


# the commands that run no counting oracle, each with its own flags and
# the parameter flags it reads
_COMMANDS = st.one_of(
    _argv(st.just(["hilbert"]), st.lists(_CLASSES, min_size=2, max_size=2), _VERIFY, _P, _F),
    _argv(st.just(["cover"]), _N),
    _argv(_SMALL.map(lambda i: ["satake", f"--i={i}"]), _N, _P),
    _argv(st.just(["aset"]), _flag("--i", _SMALL), _flag("--lam", _INT_LIST), _N),
    _argv(
        st.just(["weights"]),
        _INT_LIST.map(lambda v: [f"--nu={v}"]),
        _flag("--q", st.integers(-1, 9)),
        _flag("--i", _SMALL),
        _flag("--levi", _INT_LIST),
        _N,
    ),
)


def _assert_clean_exit(code, out, err):
    """Exit 0 with JSON on stdout, or exit 2 with an `error:` line and
    empty stdout; never a traceback."""
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == ""
        assert any(line.startswith("error:") for line in err.splitlines())


@settings(max_examples=200, deadline=None)
@given(command=_COMMANDS)
def test_flag_fuzz_exits_cleanly(command):
    _assert_clean_exit(*run_captured(command))


# each command line is valid but for the flags drawn below
_VALID = {
    "hilbert": ["hilbert", "pi", "pi"],
    "cover": ["cover"],
    "satake": ["satake", "--i", "1"],
    "aset": ["aset", "--i", "1"],
    "weights": ["weights", "--nu", "0,0"],
    "classify": ["classify"],
    "oracle": ["oracle", "satake", "--group", "sl2", "--i", "1"],
    "selftest": ["selftest"],
}
# the parameter flags each command reads, and the output option
_READS = {
    "hilbert": {"p", "f"},
    "cover": {"n"},
    "satake": {"n", "p"},
    "aset": {"n"},
    "weights": {"n"},
    "classify": {"n", "p", "f", "N", "emit"},
    "oracle": {"p", "depth"},
    "selftest": set(),
}
# no command reads seed or config, so every command must refuse --seed and --config
_FLAG_VALUES = {
    "p": "5", "f": "1", "n": "2", "N": "4", "depth": "3", "seed": "1", "emit": "json", "config": "/dev/zero",
}


def test_each_command_takes_the_configuration_flags_it_reads():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(_READS)
    # main emits each payload under the schema named after its subcommand
    assert sorted(sub.choices) == sorted(SCHEMAS)
    slots = 0
    for name, sp in sub.choices.items():
        got = {a.dest for a in sp._actions if a.dest in _FLAG_VALUES}
        assert got == _READS[name]
        slots += len(got)
    assert slots == 14


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c in sorted(_READS) for k in sorted(_FLAG_VALUES) if k not in _READS[c]],
)
def test_command_refuses_flags_it_does_not_read(command, key):
    """Exit 2 from argparse, with nothing on stdout and no traceback."""
    argv = _VALID[command] + [f"--{key}", _FLAG_VALUES[key]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2 and out.getvalue() == ""
    assert "unrecognized arguments" in err.getvalue() and "Traceback" not in err.getvalue()


def _top_level_main(argv):
    """What main did before it handed argv to the command's own parser:
    argparse's top-level pass, then the same command."""
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        if payload is not None:
            emit(payload, args.command)
        return code
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return cli.EXIT_USAGE


def _exit_code(run):
    """run, with argparse's SystemExit read as the exit code it carries."""

    def call(argv):
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code

    return call


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["-h"],
        ["--p", "3", "hilbert", "pi", "pi"],
        ["hilbert", "-h"],
        ["hilbert", "pi"],
        ["hilbert", "pi", "pi", "extra"],
        ["hilbert", "pi", "pi", "--bogus", "1"],
        ["cover", "--N", "3"],
        ["satake", "--i", "x"],
        ["hilbert", "--", "pi", "pi"],
        *_VALID.values(),
    ],
)
def test_main_prints_what_the_top_level_pass_prints(argv):
    """Exit code, stdout and stderr of main equal argparse's top-level
    pass byte for byte, compared in one process so that help text is
    wrapped at the same width."""
    assert run_captured(argv, run=_exit_code(main)) == run_captured(
        argv, run=_exit_code(_top_level_main)
    )


class _Parsed(Exception):
    pass


@pytest.mark.parametrize("command", sorted(_VALID))
def test_main_parses_what_the_top_level_pass_parses(command, monkeypatch):
    """For each command's valid argv, main's namespace equals the one
    argparse's top-level pass builds.  build_parser binds each cmd_* when
    it builds, so its cache is cleared around the patched command."""

    def stop(args):
        raise _Parsed(vars(args))

    monkeypatch.setattr(cli, f"cmd_{command}", stop)
    build_parser.cache_clear()
    try:
        with pytest.raises(_Parsed) as exc:
            main(list(_VALID[command]))
        assert exc.value.args[0] == vars(build_parser().parse_args(_VALID[command]))
    finally:
        monkeypatch.undo()
        build_parser.cache_clear()


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["hilbert", "pi", "pi", "--p", "1000000000000000003"], "", 2),
        (["hilbert", "pi", "pi", "--f", "30000000"], "", 2),
        # q = p^2 lies within the limits: the characters are built at once
        (["classify", "--n", "1", "--p", "1000000007", "--f", "2"], '{"xi": [[0, 0]]}', 0),
        (["classify", "--n", "1", "--p", "1000000007", "--f", "2"], '{"xi": [[0, 0]], "psi_class": "x"}', 2),
    ],
)
def test_large_field_parameters_answer_at_once(argv, stdin, code):
    start = time.perf_counter()
    got = run_captured(argv, stdin)
    assert time.perf_counter() - start < 1.0
    assert got[0] == code
    _assert_clean_exit(*got)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "satake", "--group", "sp4", "--i", "2", "--p", "4001"],
        ["satake", "--i", "2", "--n", "2", "--oracle", "--p", "4001"],
    ],
)
def test_over_budget_oracle_exits_at_once(argv):
    # the mu = (0, 0) cell at depth 4: windows (2, 2, 2, 2), 3p + 29 nodes
    _assert_refused_at_once(argv, 3 * 4001 + 29)


def test_sl2_row_at_a_large_prime_answers_at_once():
    # each SL_2 walk is one node, so no SL_2 row is over the oracle budget
    p = 2**31 - 1
    argv = ["oracle", "satake", "--group", "sl2", "--i", "1", "--p", str(p), "--depth", "4"]
    start = time.perf_counter()
    code, out, err = run_captured(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert [row["raw"] for row in json.loads(out)["rows"]] == [1, p - 1, p * p - p]


def _aset_cost(n, lam_1):
    """The bound ASET_SIZE_LIMIT caps: C(n - 2 lam_1, n) elements of
    n + 8 each."""
    return math.comb(n - 2 * lam_1, n) * (n + 8)


# every --i base has lam_1 = -1
_FIRST_ASET_I_RANK_OVER = next(
    n for n in itertools.count(1) if _aset_cost(n, -1) > cli.ASET_SIZE_LIMIT
)


def _levi_datum(n, flagged):
    """An empty-Levi datum at rank n with `flagged` true flags, on the odd
    short roots; the long root n is never flagged."""
    return {"levi": [], "flags": {str(i): i % 2 == 1 and i < 2 * flagged for i in range(1, n + 1)}}


@pytest.mark.parametrize(
    "argv, doc",
    [
        # 2^23 factors at rank 24, and 2^20 at rank 41
        (["classify", "--n", "24"], {"xi": [[0, 0]] * 24}),
        (["classify", "--n", "41"], _levi_datum(41, 20)),
        # just over the limit: 2^14 factors at rank 15, 2^13 at rank 29
        (["classify", "--n", "15"], {"xi": [[0, 0]] * 15}),
        (["classify", "--n", "29"], _levi_datum(29, 13)),
        (["cover", "--n", "300"], None),
        (["cover", "--n", "100000"], None),
        (["cover", "--n", str(cli.COVER_RANK_LIMIT + 1)], None),
        # constant -2 bases: 58,905 elements at rank 32 (4.0 s) and
        # 148,995 at rank 41 (12 s)
        (["aset", "--n", "32", "--lam=" + ",".join(["-2"] * 32)], None),
        (["aset", "--n", "41", "--lam=" + ",".join(["-2"] * 41)], None),
        # the first rank whose --i bases are over ASET_SIZE_LIMIT, and a
        # rank whose base would not fit in memory
        (["aset", "--n", str(_FIRST_ASET_I_RANK_OVER), "--i", "1"], None),
        (["aset", "--n", "1000000000", "--i", "1"], None),
        (["aset", "--n", "100000", "--lam=" + ",".join(["-1"] * 100000)], None),
        (["satake", "--i", "1", "--n", "10000000"], None),
        (["satake", "--i", "1", "--n", str(cli.SATAKE_RANK_LIMIT + 1)], None),
        (["weights", "--nu", ",".join(["0"] * 1_000_000), "--n", "1000000"], None),
        (["weights", "--nu", "0," * cli.WEIGHTS_RANK_LIMIT + "0", "--n", str(cli.WEIGHTS_RANK_LIMIT + 1)], None),
        # every datum has a factor, so the rank alone is over the classify
        # limit: refused before the n roots are walked, with or without --siegel
        (["classify", "--n", "10000000"], {"levi": [1]}),
        (["classify", "--siegel", "--n", "10000000"], {"P": [1], "Q": [1], "flags": {}}),
        # 2^14399 factors, a number of 4,335 digits, too long to format
        (["classify", "--n", "14400"], {"levi": [], "flags": {str(i): i < 14400 for i in range(1, 14401)}}),
        # 2^13 factors at rank 28, each repeating a 512 KB label: about 4 GB
        (["classify", "--n", "28"], {**_levi_datum(28, 13), "label": "x" * 2**19}),
    ],
)
def test_over_budget_jobs_exit_at_once(argv, doc, tmp_path):
    # in a child under 1 GiB of address space, so that a refusal that no
    # longer holds fails its row instead of building gigabytes here
    path = tmp_path / "doc.json"
    path.write_text("" if doc is None else json.dumps(doc))
    with open(path) as fh:
        start = time.perf_counter()
        code, out, err = _main_in_child(argv, fh)
        assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and "over its limit" in err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["classify", "--n", "12"], {**_levi_datum(12, 6), "label": 'a\u00e9"\n\U0001f600' * 50}),
        (["classify", "--n", "9"], {"levi": [2, 3], "flags": {"5": True, "6": False, "7": True, "8": True, "9": False}}),
        (["classify", "--n", "7", "--p", "1000003"], {"xi": [[10**6, 999], [-1, 1], [-1, 1], [5, 0]] + [[0, 0]] * 3}),
        (["classify", "--n", "28"], {**_levi_datum(28, 13), "label": "x" * 1094}),
    ],
)
def test_classify_charges_each_triple_at_least_what_it_prints(monkeypatch, argv, doc):
    # the last document is the longest label 2^13 factors at rank 28 may
    # carry: one byte more is over CLASSIFY_OUTPUT_LIMIT
    charges = []
    real = cli._triple_bytes
    monkeypatch.setattr(cli, "_triple_bytes", lambda datum: charges.append(real(datum)) or charges[-1])
    code, out, err = run_captured(argv, json.dumps(doc))
    assert (code, err) == (0, "")
    triples = json.loads(out)["triples"]
    assert len(charges) == 1 and len(triples) * charges[0] <= cli.CLASSIFY_OUTPUT_LIMIT
    assert max(len(cli._encode(t, "\n  ")) for t in triples) <= charges[0]


def test_classify_refuses_an_over_long_label_on_one_line():
    doc = {**_levi_datum(28, 13), "label": "x" * 1095}
    code, out, err = run_captured(["classify", "--n", "28"], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == (
        f"error: classify would print 2^13 composition factors of up to 4,097 bytes each,"
        f" over its limit of {cli.CLASSIFY_OUTPUT_LIMIT:,} bytes\n"
    )


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["classify", "--n", str(cli.CLASSIFY_SIZE_LIMIT)], {"levi": [1]}),
        (["classify", "--siegel", "--n", str(cli.CLASSIFY_SIZE_LIMIT)], {"P": [1], "Q": [1], "flags": {}}),
    ],
)
def test_flag_errors_stay_short_at_the_classify_rank_limit(argv, doc):
    # no flags are given, so every one of the 229,37x eligible roots is
    # missing; the line counts them and names the first few
    code, out, err = run_captured(argv, json.dumps(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "eligible roots" in err and "229,37" in err
    assert len(err.encode()) < 1000


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["classify", "--n", "2"], json.dumps({"levi": list(range(3, 200_003))})),
        (
            ["classify", "--siegel", "--n", "2"],
            json.dumps({"P": list(range(3, 200_003)), "Q": [], "flags": {}}),
        ),
        (["weights", "--nu", "0,0", "--levi", ",".join(map(str, range(3, 2003)))], ""),
    ],
    ids=["classify-levi", "classify-siegel-P", "weights-levi"],
)
def test_range_errors_stay_short_on_many_indices(argv, stdin):
    # every index is out of range; the line names four and counts them
    code, out, err = run_captured(argv, stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: indices out of range 1..2: [3, 4, 5, 6, ...] (")
    assert len(err.encode()) < 1000


def test_aset_zero_base_past_the_recursion_limit():
    # a zero base costs n + 8, so its rank is bounded by the limit alone
    n = 3 * sys.getrecursionlimit()
    code, out, err = run_captured(["aset", "--n", str(n), "--lam=" + ",".join(["0"] * n)])
    assert (code, err) == (0, "")
    assert json.loads(out)["elements"] == [[0] * n]


def test_over_budget_aset_base_is_refused_before_any_walk(monkeypatch):
    # the bound C(n - 2 lam_1, n) is exact on a constant base
    assert len(rootdata.antidominant_above(2 * Cocharacter((-2,) * 4))) == 70

    def no_walk(*args):
        raise AssertionError("the up-set was walked")

    monkeypatch.setattr(rootdata, "antidominant_above", no_walk)
    for k in (20, 25, 40):
        code, out, err = run_captured(["aset", f"--lam={-k},{-k},{-k},{-k}", "--n", "4"])
        assert (code, out) == (2, "")
        assert err == (
            f"error: aset may print up to C({4 + 2 * k}, 4) elements at rank 4,"
            f" each costing 4 + 8, over its limit of {cli.ASET_SIZE_LIMIT:,}\n"
        )
    # the refusal is exactly the bound over the limit, at every rank and
    # first coordinate tried, and at the two ends of a rank-1 and a zero base
    cases = [(n, -k) for n in range(1, 40) for k in range(0, 30)]
    top = cli.ASET_SIZE_LIMIT
    cases += [(1, -77_777), (1, -77_778), (top - 8, 0), (top - 7, 0)]
    for n, lam_1 in cases:
        if _aset_cost(n, lam_1) > cli.ASET_SIZE_LIMIT:
            with pytest.raises(UsageError, match="over its limit"):
                cli._refuse_aset_size(n, lam_1)
        else:
            cli._refuse_aset_size(n, lam_1)
    # every --i rank under the first one over is admitted
    for n in range(1, _FIRST_ASET_I_RANK_OVER):
        cli._refuse_aset_size(n, -1)
    # the bound is built until it is over, not in full: C(n - 2 lam_1, n)
    # has about 830,000 digits in the last case
    start = time.perf_counter()
    for n, lam_1 in ((10**9, -1), (65_000, -(10**9)), (10**6, -(10**6))):
        with pytest.raises(UsageError):
            cli._refuse_aset_size(n, lam_1)
    assert time.perf_counter() - start < 0.1


def _loaded_around_hilbert(expression):
    """`expression` on sys.modules in a fresh child process, after
    importing metaplectic.cli and after `main` runs `hilbert`: the first
    and last lines of its stdout."""
    script = (
        "import sys\n"
        "from metaplectic.cli import main\n"
        f"loaded = lambda: {expression}\n"
        "print(loaded())\n"
        "main(['hilbert', 'pi', 'pi', '--p', '3'])\n"
        "print(loaded())\n"
    )
    # the child imports the same package copy as this process
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    lines = proc.stdout.splitlines()
    return lines[0], lines[-1]


def test_hilbert_loads_only_the_cover_layer():
    got = _loaded_around_hilbert("sorted(m for m in sys.modules if m.split('.')[0] == 'metaplectic')")
    want = str(["metaplectic", "metaplectic.cli", "metaplectic.cover"])
    assert got == (want, want)


def test_jsonschema_loads_only_when_a_payload_is_validated():
    assert _loaded_around_hilbert("'jsonschema.validators' in sys.modules") == ("False", "True")


def _assert_refused_at_once(argv, nodes):
    start = time.perf_counter()
    code, out, err = run_captured(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{nodes:,} nodes" in err


def _oracle_argv(group, p, i, depth, via_satake):
    """`oracle satake` names the group and reads the depth; `satake
    --oracle` gives its rank and takes no depth."""
    if via_satake:
        return ["satake", "--oracle", f"--n={1 if group == 'sl2' else 2}", f"--p={p}", f"--i={i}"]
    return ["oracle", "satake", f"--group={group}", f"--p={p}", f"--i={i}"] + depth


# sp4 only at p <= 3 and depth <= 2, so that no example counts for long
_ORACLE_COMMANDS = st.tuples(
    st.one_of(
        st.tuples(st.just("sl2"), st.integers(-3, 15)),
        st.tuples(st.just("sp4"), st.integers(-3, 3)),
    ),
    _SMALL,
    _flag("--depth", st.integers(-1, 2)),
    st.booleans(),
).map(lambda t: _oracle_argv(*t[0], *t[1:]))


@settings(max_examples=60, deadline=None)
@given(command=_ORACLE_COMMANDS)
def test_oracle_flag_fuzz_exits_cleanly(command):
    _assert_clean_exit(*run_captured(command))


# each invalid parameter value, given to a command that reads its
# key, an input file that never ends, given to classify, which reads
# it, and a Satake oracle check past its rank or its node budget
@pytest.mark.parametrize(
    "flags",
    [
        ["hilbert", "pi", "pi", "--p", "0"],
        ["hilbert", "pi", "pi", "--p", "9"],
        ["hilbert", "pi", "pi", "--p", "-3"],
        ["hilbert", "pi", "pi", "--f", "0"],
        ["classify", "--N", "3"],
        ["classify", "--N", "6"],
        ["cover", "--n", "0"],
        ["oracle", "satake", "--group", "sl2", "--i", "1", "--depth", "0"],
        ["classify", "--input", "/dev/zero"],
        ["classify", "--N=-4"],
        ["satake", "--i", "1", "--n", "3", "--oracle"],
        ["satake", "--i", "2", "--n", "2", "--oracle", "--p", "4001"],
    ],
)
def test_selftest_flags_exit_cleanly(flags):
    code, out, err = run_captured(flags, '{"levi": [1]}')
    _assert_clean_exit(code, out, err)
    assert code == 2


def test_selftest_refuses_its_removed_options():
    """selftest takes no option: --sp4, --seed and --config each exit 2."""
    for argv in (["selftest", "--sp4"], ["selftest", "--seed", "0"], ["selftest", "--config", "/dev/zero"]):
        code, out, err = run_captured(argv, run=_exit_code(main))
        assert code == 2 and out == "" and "unrecognized arguments" in err
