import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import hecke
from metaplectic.cli import build_parser, main
from metaplectic.rootdata import Cocharacter


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


def test_oracle_command(capsys):
    code, out, _ = run(
        capsys, "oracle", "satake", "--group", "sl2", "--i", "1", "--p", "3", "--depth", "4"
    )
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(r["mu"]): (r["raw"], r["mod_p"]) for r in payload["rows"]}
    assert rows == {(-2,): (1, 1), (-1,): (2, 2), (0,): (6, 0)}
    assert payload["target"] == [-2, -2][0:1]


def _aset_reference(base, i):
    """The stdout of `aset`, built from the brute box of hecke.enumerate_A."""
    A = hecke.enumerate_A(base)
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
                "conforms": hecke.A_fiber(A, min(fib), i).conforms,
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


def test_parser_reuse_after_usage_error(capsys):
    """The parser is built once per process; an argparse usage error
    (exit 2) must not change what the next request prints."""
    argv = ("aset", "--i", "2", "--n", "3")
    for bad in (["aset", "--i", "x"], ["aset", "--lam"], ["bogus"], []):
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


def test_classify_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run(capsys, "classify", "--input", str(path), "--n", "2")
    assert code == 2


def test_config_file_and_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 5\nn = 1\n# comment\ndepth = 3\n")
    code, out, _ = run(capsys, "hilbert", "pi", "pi", "--config", str(cfg))
    assert json.loads(out)["symbol"] == 1  # p = 5 from the file
    code, out, _ = run(capsys, "hilbert", "pi", "pi", "--config", str(cfg), "--p", "3")
    assert json.loads(out)["symbol"] == -1  # flag wins


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shrubbery = 1\n")
    code, _, err = run(capsys, "hilbert", "pi", "pi", "--config", str(cfg))
    assert code == 2 and "unknown key" in err


def test_byte_stability(capsys):
    _, out1, _ = run(capsys, "cover", "--n", "3")
    _, out2, _ = run(capsys, "cover", "--n", "3")
    assert out1 == out2
    _, s1, _ = run(capsys, "satake", "--i", "1", "--n", "2")
    _, s2, _ = run(capsys, "satake", "--i", "1", "--n", "2")
    assert s1 == s2


def test_selftest_command(capsys):
    code, out, err = run(capsys, "selftest", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 9))
    assert "criterion 8 PASS" in err


def run_stdin(argv, stdin):
    """main() on a JSON document read from stdin; returns (exit code, stderr)."""
    err = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, err.getvalue()


@pytest.mark.parametrize(
    "argv, doc",
    [
        (("classify",), {"xi": 5}),
        (("classify",), {"xi": [[0, None]]}),
        (("classify",), {"levi": 5}),
        (("classify",), {"levi": [1], "flags": []}),
        (("classify", "--siegel", "--n", "3"), {"P": [], "flags": [], "Q": []}),
        (("classify", "--siegel", "--n", "3"), {"P": 3, "flags": {}, "Q": []}),
    ],
)
def test_classify_rejects_mistyped_json(argv, doc):
    code, err = run_stdin(argv, json.dumps(doc))
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())


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
    code, err = run_stdin(argv, json.dumps(doc))
    assert code in (0, 2)
    assert "Traceback" not in err
