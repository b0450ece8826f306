import contextlib
import copy
import io
import json
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaplectic import cover, hecke
from metaplectic.cli import SCHEMAS, UsageError, build_parser, emit, main
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
    # an explicit --q 0 is checked, not replaced by the configured q
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
    # a key set twice, or a value that is not an integer, names its line
    for text, what in (("p = 3\np = 5\n", "set twice"), ("p = 3\ndepth = x\n", "not an integer")):
        cfg.write_text(text)
        code, out, err = run(capsys, "hilbert", "pi", "pi", "--config", str(cfg))
        assert code == 2 and out == "" and f"{cfg}:2: " in err and what in err


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


def run_captured(argv, stdin=""):
    """main() with stdin given; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
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
    code, out, err = run(capsys, "cover", "--p", "0", "--f", "-1")
    assert (code, out, err) == (2, "", "error: p must be an odd prime, got 0\n")
    code, out, err = run(capsys, "cover", "--p", "3", "--f", "-1")
    assert (code, out, err) == (2, "", "error: f must be >= 1\n")


def test_emit_rejects_payload_outside_its_schema(capsys, monkeypatch):
    with pytest.raises(UsageError, match="output failed its schema"):
        emit({"x": "pi", "y": "pi", "p": 3, "f": 1, "symbol": 2}, "hilbert")
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cover, "hilbert", lambda x, y, field: 2)
    code, out, err = run(capsys, "hilbert", "pi", "pi", "--p", "3")
    assert (code, out) == (2, "")
    assert err == "error: output failed its schema: 2 is not one of [1, -1]\n"


_HILBERT_PAYLOAD = {"x": "pi", "y": "pi", "p": 3, "f": 1, "symbol": -1}


def test_emit_refuses_an_invalid_schema_on_first_use(capsys, monkeypatch):
    monkeypatch.setitem(SCHEMAS, "hilbert", {"type": 5})
    with pytest.raises(jsonschema.SchemaError):
        emit(_HILBERT_PAYLOAD, "hilbert")
    with pytest.raises(jsonschema.SchemaError):
        emit(_HILBERT_PAYLOAD, "hilbert")
    assert capsys.readouterr().out == ""


def test_emit_checks_each_schema_once_and_every_payload(capsys, monkeypatch):
    checked = []
    real = jsonschema.Draft7Validator.check_schema
    monkeypatch.setattr(
        jsonschema.Draft7Validator,
        "check_schema",
        lambda schema, **kwargs: checked.append(schema) or real(schema, **kwargs),
    )
    # fresh schema objects, so earlier emits in this process do not count
    hilbert, cover_ = copy.deepcopy(SCHEMAS["hilbert"]), copy.deepcopy(SCHEMAS["cover"])
    monkeypatch.setitem(SCHEMAS, "hilbert", hilbert)
    monkeypatch.setitem(SCHEMAS, "cover", cover_)
    for _ in range(3):
        emit(_HILBERT_PAYLOAD, "hilbert")
        emit({"n": 1, "Q_coroots": [1], "splits_over_Mprime": {}}, "cover")
    assert len(checked) == 2
    assert checked[0] is hilbert and checked[1] is cover_
    capsys.readouterr()
    with pytest.raises(UsageError) as bad:
        emit({**_HILBERT_PAYLOAD, "symbol": 2}, "hilbert")
    assert str(bad.value) == "output failed its schema: 2 is not one of [1, -1]"
    assert capsys.readouterr().out == ""
    assert len(checked) == 2


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
    payload = json.loads(out)
    assert _best_message(draft7, payload) is None
    rejected = 0
    for bad in _variants(schema, payload):
        message = _best_message(draft7, bad)
        assert message == _best_message(draft2020, bad), bad
        rejected += message is not None
    assert rejected > len(_WRONG_VALUES)


def _flag(name, values):
    # "--lam=-1,0": as a separate word argparse would read "-1,0" as an option
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


_INT_LIST = st.lists(st.integers(-3, 3), max_size=5).map(lambda xs: ",".join(map(str, xs)))
_CONFIG_FLAGS = st.tuples(
    _flag("--p", st.integers(-3, 15)),
    _flag("--f", st.integers(-1, 3)),
    _flag("--n", st.integers(0, 4)),
).map(lambda parts: sum(parts, []))
_SMALL = st.integers(-3, 4)
_CLASSES = st.sampled_from(["1", "u", "pi", "upi", "x"])
_VERIFY = st.sampled_from([[], ["--verify"]])
# the commands that run no counting oracle, with their own flags
_COMMANDS = st.one_of(
    st.tuples(_CLASSES, _CLASSES, _VERIFY).map(lambda t: ["hilbert", *t[:2], *t[2]]),
    st.just(["cover"]),
    _SMALL.map(lambda i: ["satake", f"--i={i}"]),
    st.tuples(
        st.just(["aset"]), _flag("--i", _SMALL), _flag("--lam", _INT_LIST)
    ).map(lambda t: sum(t, [])),
    st.tuples(
        st.just(["weights"]),
        _INT_LIST.map(lambda v: [f"--nu={v}"]),
        _flag("--q", st.integers(-1, 9)),
        _flag("--i", _SMALL),
        _flag("--levi", _INT_LIST),
    ).map(lambda t: sum(t, [])),
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
@given(command=_COMMANDS, config=_CONFIG_FLAGS)
def test_flag_fuzz_exits_cleanly(command, config):
    _assert_clean_exit(*run_captured(command + config))


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "satake", "--group", "sp4", "--i", "2", "--p", "31"],
        ["satake", "--i", "2", "--n", "2", "--oracle", "--p", "31"],
    ],
)
def test_over_budget_oracle_exits_at_once(argv):
    _assert_refused_at_once(argv, 31**8)


def test_over_budget_sl2_row_exits_at_once():
    # every SL_2 box tuple is a leaf, so its limit is far below Sp_4's
    argv = ["oracle", "satake", "--group", "sl2", "--i", "1", "--p", "1009", "--depth", "4"]
    _assert_refused_at_once(argv, 1009**2)


def _assert_refused_at_once(argv, tuples):
    start = time.perf_counter()
    code, out, err = run_captured(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{tuples:,} tuples" in err


# sp4 only at p <= 3 and depth <= 2, so that no example counts for long
_ORACLE_COMMANDS = st.tuples(
    st.one_of(
        st.tuples(st.just("sl2"), st.integers(-3, 15)),
        st.tuples(st.just("sp4"), st.integers(-3, 3)),
    ),
    _SMALL,
    _flag("--depth", st.integers(-1, 2)),
    _flag("--f", st.integers(-1, 2)),
).map(
    lambda t: ["oracle", "satake", f"--group={t[0][0]}", f"--p={t[0][1]}", f"--i={t[1]}"]
    + t[2]
    + t[3]
)


@settings(max_examples=60, deadline=None)
@given(command=_ORACLE_COMMANDS)
def test_oracle_flag_fuzz_exits_cleanly(command):
    _assert_clean_exit(*run_captured(command))


# without --sp4, so every valid value runs only the quick criteria
@pytest.mark.parametrize(
    "flags",
    [
        ["--p", "0"],
        ["--p", "9"],
        ["--p", "-3"],
        ["--f", "0"],
        ["--N", "3"],
        ["--N", "6"],
        ["--n", "0"],
        ["--depth", "0"],
        ["--seed", "-1"],
    ],
)
def test_selftest_flags_exit_cleanly(flags):
    _assert_clean_exit(*run_captured(["selftest", *flags]))
