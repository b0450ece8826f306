"""Command-line interface.

Subcommands: hilbert, cover, satake, aset, weights, classify, oracle,
selftest.  Each `cmd_*(args)` checks the parameters it reads and returns
`(payload, exit_code)`; `main` calls it and then emits the payload.
When argv names a subcommand, `main` hands the rest of argv straight to
that subcommand's parser, as argparse's top-level pass would after
reading the command word; help, usage errors and exit codes are
argparse's, unchanged.
Output is JSON (sorted keys, byte-stable for fixed parameters);
every payload is validated against the draft-07 schema in SCHEMAS named
after its subcommand before printing.  Each schema's one validator is
built at import.  It first tries a plain-Python predicate built from the
schema, which may be stricter than draft-07 but never looser; only a
payload the predicate rejects goes to draft-07 itself, so every error
printed is draft-07's.  Building the predicate refuses a malformed
schema; no metaschema check runs, as the tests check every schema
against the draft-07 and 2020-12 metaschemas.  A valid payload is printed
by one encoder, `_encode`, as exactly the bytes of `json.dumps(payload,
sort_keys=True, indent=1)`: it applies json's own C string escaper and
`int.__repr__`, and joins a list of one scalar class in one C-level pass.
A value outside the six classes of _JSON_CLASSES, such as a tuple or a
float in an unconstrained subtree, or a dict key that is no str, exits 2
before anything is printed.
`classify --emit csv` prints CSV itself, through the `csv` module with
";" between fields, and returns no payload.  Exit
codes: 0 success, 1 verification mismatch, 2 usage or schema error.

Each subcommand imports only the layers it calls, inside its `cmd_*`
function: `hilbert` loads `cover` alone, and nothing but `selftest`
loads the selftest module.

Jobs whose work grows without bound in a parameter are refused with
exit 2 before any work, at limits measured at about 3 s of work:
`cover`, `satake` and `weights` above ranks COVER_RANK_LIMIT,
SATAKE_RANK_LIMIT and WEIGHTS_RANK_LIMIT, `aset` when a bound on its
element count, read off the rank and the first coordinate of the base,
times the cost of an element is over ASET_SIZE_LIMIT, and `classify` when
its factor count times the rank is over CLASSIFY_SIZE_LIMIT, or times
the bytes of one triple (each repeats the label) over
CLASSIFY_OUTPUT_LIMIT.  Every classify input prints at least one
triple (a `--siegel` triple exactly one), so its rank alone is checked
against that limit before the input is read.  A classify input is read
up to INPUT_LIMIT characters and refused past it, unparsed.
JSON nested past the recursion limit and a negative N exit 2 as well.

Parameters come from flags alone, with defaults p=3, f=1, n=2, N=0,
depth=4, and q=3 for `weights`; N=0 derives N=2(q-1) with q=p^f.  Each
subcommand has a flag only for the parameters it reads, and checks them
in one order: p and f, then N, depth and n, then its own inputs.  Only
`oracle` reads depth: `satake --oracle` checks rows whose counts are
complete at every depth.  Environment variables are ignored.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib.util
import io
import json
import re
import sys
from typing import TYPE_CHECKING


def _lazy_import(name: str):
    """The module `name`, executed on its first attribute read: the
    standard library's LazyLoader recipe.  A module already loaded is
    returned as it is, and one that cannot be found raises
    ModuleNotFoundError here, not at the first read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# bound here, so that bench/tracing.py can patch cli.jsonschema, but loaded
# only when `emit` first validates: a process that validates no payload
# never runs jsonschema's code
jsonschema = _lazy_import("jsonschema")

# Each cmd_* imports the other layers it calls with `from . import x` and
# calls them as `x.f(...)`, so that a command loads only what it runs.
from . import cover

if TYPE_CHECKING:  # annotations only
    from . import characters, classify, rootdata

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# Job budgets, each measured at about 3 s of work (2-vCPU Xeon, Python
# 3.11).  `cover` evaluates B on n^2 basis pairs, each in O(n): 3.5 s at
# n = 200.  `satake` builds, validates and prints two terms of n
# coordinates each; with `--i 1` the whole process takes 1.1 s and 125 MB
# at n = 1,000,000 and 1.3 s and 150 MB at the limit.  `weights` reads
# every pairing <nu, alpha_i^vee> in one linear pass: with `--i` and
# `--levi 1,...,n` on nu = 0, 1.0-1.5 s and 136 MB at n = 400,000.  Both
# limits were set at about 3 s when json.dumps's pure-Python indented
# encoder printed the payload (satake 1.9 s and 195 MB at n = 1,000,000,
# weights 1.4-2.3 s and 235 MB at 400,000 on the same machine), and are
# kept so that no refusal moves.  `aset` spends about 1.2-2.2 us per
# unit of (n + 8) C(n - 2 lam_1, n), a bound on its up-set times the cost
# of one element of it, at every rank: near the limit `--i 135 --n 135`
# takes 2.4-3.0 s (it also prints the fibers), and constant `--lam` bases
# 1.6-2.1 s from n = 1 to n = 4; `--i 150 --n 150` (1.8e6) takes 4.4-5.5 s.
# Counted in coordinates alone (n C(...)), the rank-1 bases cost 17 us a
# unit against 1.5 us at n = 30.  `classify` prints
# 2^|Pi(sigma)| triples of O(n) entries each, slowest on `xi` input: 2^13
# factors take 1.4-1.8 s at n = 14 and 2.4 s at n = 28, 2^12 take 2.1 s at
# n = 56, and 2^14 at n = 15, the next size over the limit, take 4.2 s.
# The largest classify inputs that run, at its rank limit: a `levi`
# document with every flag written out, 3.8 MB (0.9-1.0 s, 120 MB), and
# the matching `xi` document, 1.8 MB (2.7-3.6 s, 170 MB), which prints
# 13.2 MB and is charged 23.4 MB (`_triple_bytes`).  CLASSIFY_OUTPUT_LIMIT
# bounds the output, not the time: it admits what the factor limit admits
# while the escaped label and xi digits take at most 1,096 bytes, and one
# factor whose label escapes to 33.5 MB would print in 0.6 s and 137 MB.
# INPUT_LIMIT admits the `levi` document with 10% to spare.  A 4.0 MB `xi`
# list of the wrong rank is refused by its length in 0.4 s and 96 MB.
COVER_RANK_LIMIT = 180
SATAKE_RANK_LIMIT = 1_200_000
WEIGHTS_RANK_LIMIT = 400_000
ASET_SIZE_LIMIT = 1_400_000  # elements of the up-set times (rank + 8)
CLASSIFY_SIZE_LIMIT = 7 * 2**15  # composition factors times the rank
CLASSIFY_OUTPUT_LIMIT = 2**25  # composition factors times the bytes of one triple
INPUT_LIMIT = 4 * 2**20  # characters of a classify input


class UsageError(ValueError):
    pass


def _read_bounded(fh, name: str) -> str:
    """The text of `fh`, refused once it runs past INPUT_LIMIT characters,
    so that an endless stream is never read to its end."""
    text = fh.read(INPUT_LIMIT + 1)
    if len(text) > INPUT_LIMIT:
        raise UsageError(f"{name} is over the input limit of {INPUT_LIMIT:,} characters")
    return text


# ---------------------------------------------------------------------
# output schemas

_TERMS = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "mu": {"type": "array", "items": {"type": "integer"}},
            "c": {"type": "integer"},
        },
        "required": ["mu", "c"],
        "additionalProperties": False,
    },
}

_SQUARE_CLASS = {"enum": [c.name for c in cover.ALL_CLASSES]}

_TRIPLE = {
    "type": "object",
    "properties": {
        "P": {"type": "array", "items": {"type": "integer"}},
        "Q": {"type": "array", "items": {"type": "integer"}},
        "sigma": {
            "type": "object",
            "properties": {
                "levi": {"type": "array", "items": {"type": "integer"}},
                "flags": {"type": "object"},
                "label": {"type": "string"},
                "torus_character": {"type": ["object", "null"]},
            },
            "required": ["levi", "flags", "label"],
        },
    },
    "required": ["P", "Q", "sigma"],
}

SCHEMAS = {
    "hilbert": {
        "type": "object",
        "properties": {
            "x": _SQUARE_CLASS,
            "y": _SQUARE_CLASS,
            "p": {"type": "integer"},
            "f": {"type": "integer"},
            "symbol": {"enum": [1, -1]},
            "verified": {"type": "boolean"},
        },
        "required": ["x", "y", "p", "f", "symbol"],
        "additionalProperties": False,
    },
    "cover": {
        "type": "object",
        "properties": {
            "n": {"type": "integer"},
            "Q_coroots": {"type": "array", "items": {"type": "integer"}},
            "B_lambda_basis": {"type": "array"},
            "B_with_similitude": {"type": "array", "items": {"type": "integer"}},
            "splits_over_Mprime": {"type": "object"},
        },
        "required": ["n", "Q_coroots", "splits_over_Mprime"],
        "additionalProperties": False,
    },
    "satake": {
        "type": "object",
        "properties": {
            "i": {"type": "integer"},
            "n": {"type": "integer"},
            "p": {"type": "integer"},
            "terms": _TERMS,
            "oracle": {"enum": ["agree", "disagree"]},
        },
        "required": ["i", "n", "p", "terms"],
        "additionalProperties": False,
    },
    "aset": {
        "type": "object",
        "properties": {
            "base": {"type": "array", "items": {"type": "integer"}},
            "i": {"type": "integer"},
            "n": {"type": "integer"},
            "elements": {"type": "array"},
            "fibers": {"type": "array"},
        },
        "required": ["base", "n", "elements"],
        "additionalProperties": False,
    },
    "weights": {
        "type": "object",
        "properties": {
            "nu": {"type": "array", "items": {"type": "integer"}},
            "q": {"type": "integer"},
            "levi": {"type": ["array", "null"]},
            "pi_nu": {"type": "array", "items": {"type": "integer"}},
            "M_regular": {"type": ["boolean", "null"]},
            "companion": {"type": ["object", "null"]},
        },
        "required": ["nu", "q", "pi_nu"],
        "additionalProperties": False,
    },
    "classify": {
        "type": "object",
        "properties": {
            "n": {"type": "integer"},
            "triples": {"type": "array", "items": _TRIPLE},
            "length": {"type": "integer"},
            "irreducible": {"type": "boolean"},
            "injectivity_clean": {"type": "boolean"},
            "merged": {"type": "array"},
        },
        "required": ["n", "triples"],
        "additionalProperties": False,
    },
    "oracle": {
        "type": "object",
        "properties": {
            "group": {"enum": ["sl2", "sp4"]},
            "i": {"type": "integer"},
            "p": {"type": "integer"},
            "depth": {"type": "integer"},
            "target": {"type": "array", "items": {"type": "integer"}},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "mu": {"type": "array", "items": {"type": "integer"}},
                        "raw": {"type": "integer"},
                        "mod_p": {"type": "integer"},
                        "stabilized": {"type": "boolean"},
                    },
                    "required": ["mu", "raw", "mod_p"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["group", "i", "p", "depth", "target", "rows"],
        "additionalProperties": False,
    },
    "selftest": {
        "type": "object",
        "properties": {
            "criteria": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "number": {"type": "integer"},
                        "name": {"type": "string"},
                        "pass": {"type": "boolean"},
                        "detail": {"type": "string"},
                    },
                    "required": ["number", "name", "pass"],
                    "additionalProperties": False,
                },
            },
            "all_pass": {"type": "boolean"},
        },
        "required": ["criteria", "all_pass"],
        "additionalProperties": False,
    },
}


# The draft-07 `type` names the output schemas use, each with the one
# Python class whose exact instances `_predicate` admits for it.
_JSON_CLASSES = {
    "integer": int,
    "string": str,
    "boolean": bool,
    "array": list,
    "object": dict,
    "null": type(None),
}
_PREDICATE_KEYWORDS = {"type", "properties", "required", "additionalProperties", "enum", "items"}


def _names(value) -> bool:
    """Whether `value` is a list of distinct strings, as draft-07 wants a
    `required` list and a list of types."""
    return type(value) is list and all(type(v) is str for v in value) and len(set(value)) == len(value)


def _classes(schema: dict) -> frozenset:
    """The classes `schema`'s `type` admits; all of _JSON_CLASSES without one."""
    kinds = schema.get("type", list(_JSON_CLASSES))
    kinds = [kinds] if type(kinds) is str else kinds
    if not (_names(kinds) and kinds and set(kinds) <= _JSON_CLASSES.keys()):
        raise ValueError(f"no predicate covers the type {kinds!r}")
    return frozenset(_JSON_CLASSES[kind] for kind in kinds)


def _predicate(schema: dict):
    """A plain-Python test that a value passes `schema`, stricter than
    draft-07 and never looser: a type admits exact instances of its class
    only (so True and 1.0 are no integers, and no subclass is a list or a
    dict), and an enum member only a scalar of its own type.  Raises
    ValueError on a boolean subschema, on any keyword but the six the
    output schemas use, on `additionalProperties` other than false, and on
    a value of the other five that draft-07's metaschema refuses, so that
    no schema is left to draft-07 alone and none is malformed."""
    if type(schema) is not dict or not schema.keys() <= _PREDICATE_KEYWORDS:
        raise ValueError(f"no predicate covers the schema {schema!r}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError(f"no predicate covers additionalProperties in {schema!r}")
    enum, subschemas = schema.get("enum", []), schema.get("properties", {})
    if type(enum) is not list or type(subschemas) is not dict or not _names(schema.get("required", [])):
        raise ValueError(f"no predicate covers the enum, properties or required of {schema!r}")
    classes = _classes(schema)
    if schema.keys() <= {"type"}:
        return lambda value: type(value) in classes
    members = [(type(v), v) for v in enum if type(v) not in (list, dict)] if "enum" in schema else None
    required = frozenset(schema.get("required", ()))
    properties = {name: _predicate(sub) for name, sub in subschemas.items()}
    closed = "additionalProperties" in schema
    each = None
    if "items" in schema:
        item = schema["items"]
        if type(item) is dict and item.keys() == {"type"}:  # a lone type, checked in C
            item_classes = _classes(item)
            each = lambda values: item_classes.issuperset(map(type, values))
        else:
            item_holds = _predicate(item)
            each = lambda values: all(map(item_holds, values))

    def holds(value) -> bool:
        kind = type(value)
        if kind not in classes or members is not None and (kind, value) not in members:
            return False
        if kind is dict:
            if not required <= value.keys() or closed and not value.keys() <= properties.keys():
                return False
            return all(test(value[name]) for name, test in properties.items() if name in value)
        if kind is list and each is not None:
            return each(value)
        return True

    return holds


class _OutputValidator:
    """The validator of one output schema: a value its predicate admits has
    no errors, and any other value gets draft-07's, so the errors, their
    order and their paths are draft-07's.  One is built per schema, at
    import, into _VALIDATORS.  `jsonschema.validate(value, schema, cls=v)`
    calls two hooks before it iterates the errors: `v.check_schema(schema)`,
    which checks nothing (module docstring), and `v(schema)`, which is v."""

    def __init__(self, schema: dict):
        self.schema = schema
        self.holds = _predicate(schema)

    def check_schema(self, schema: dict) -> None:
        pass

    def __call__(self, schema: dict) -> _OutputValidator:
        return self

    def iter_errors(self, instance):
        if self.holds(instance):
            return iter(())
        return jsonschema.Draft7Validator(self.schema).iter_errors(instance)


_VALIDATORS = {name: _OutputValidator(schema) for name, schema in SCHEMAS.items()}

# Each scalar class of _JSON_CLASSES with the function json.dumps applies
# to it: its C string escaper, with ensure_ascii, and int.__repr__.
_quote = json.encoder.encode_basestring_ascii
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(value, indent: str) -> str:
    """`value` exactly as json.dumps(value, sort_keys=True, indent=1) prints
    it, nested where `indent` is its line break and indentation, but at C
    speed for the long lists: any `indent` sends json.dumps to its
    pure-Python encoder.  A value of a class outside _JSON_CLASSES, or a
    dict key that is no str, is refused with UsageError."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is not dict and kind is not list:
        raise UsageError(f"output holds a {kind.__name__}, which is not a JSON value")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + " "
    if kind is dict:
        if not {str}.issuperset(map(type, value)):
            raise UsageError("output holds a dict key that is not a string")
        parts = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    classes = set(map(type, value))
    scalar = _SCALARS.get(classes.pop()) if len(classes) == 1 else None
    parts = map(scalar, value) if scalar else [_encode(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(parts) + indent + "]"


def emit(payload: dict, schema: str) -> None:
    validator = _VALIDATORS[schema]
    try:
        # through jsonschema.validate, bound lazily at the top and loaded
        # here on first use, which raises draft-07's best match:
        # bench/tracing.py patches cli.jsonschema to time this call as
        # cli.schema_s
        jsonschema.validate(payload, validator.schema, cls=validator)
    except jsonschema.ValidationError as err:
        raise UsageError(f"output failed its schema: {err.message}")
    print(_encode(payload, "\n"))


# ---------------------------------------------------------------------
# subcommands


def _refuse_rank(command: str, n: int, limit: int | None = None) -> None:
    if n < 1:
        raise UsageError("n must be >= 1")
    if limit is not None and n > limit:
        raise UsageError(f"{command} at rank {n} is over its limit of rank {limit}")


def _refuse_aset_size(n: int, lam_1: int) -> None:
    """Exit 2 before any walk if the up-set of 2 lam, at rank n and with
    first coordinate lam_1, may cost more than ASET_SIZE_LIMIT.  Each of
    its elements ascends with entries in [2 lam_1, 0], so there are at
    most C(n - 2 lam_1, n) of them; each costs n + 8, as its n coordinates
    and about 8 more for the element itself.  With k = min(n, -2 lam_1)
    the bound is (n + 8) C(n - 2 lam_1, k), built one factor at a time:
    each factor is at least 2, so the loop stops within about 20 steps
    however large n and lam_1 are."""
    m, k = n - 2 * lam_1, min(n, -2 * lam_1)
    cost = n + 8
    for j in range(1, k + 1):
        if cost > ASET_SIZE_LIMIT:
            break
        cost = cost * (m - k + j) // j  # (n + 8) C(m - k + j, j), exactly
    if cost > ASET_SIZE_LIMIT:
        raise UsageError(
            f"aset may print up to C({m}, {n}) elements at rank {n}, each costing"
            f" {n} + 8, over its limit of {ASET_SIZE_LIMIT:,}"
        )


def cmd_hilbert(args) -> tuple[dict | None, int]:
    field = cover.LocalFieldDescriptor(args.p, args.f)
    x = cover.SquareClass.from_name(args.x)
    y = cover.SquareClass.from_name(args.y)
    symbol = cover.hilbert(x, y, field)
    payload = {
        "x": x.name,
        "y": y.name,
        "p": args.p,
        "f": args.f,
        "symbol": symbol,
    }
    if args.verify:
        payload["verified"] = cover.hilbert_solvable(x, y, field) == symbol
    return payload, EXIT_MISMATCH if args.verify and not payload["verified"] else EXIT_OK


def cmd_cover(args) -> tuple[dict | None, int]:
    from . import rootdata

    n = args.n
    _refuse_rank("cover", n, COVER_RANK_LIMIT)
    basis = [
        rootdata.Cocharacter(tuple(1 if k == j else 0 for k in range(n)))
        for j in range(n)
    ]
    similitude = rootdata.Cocharacter(tuple(0 for _ in range(n)), gsp=1)
    payload = {
        "n": n,
        "Q_coroots": [cover.eval_Q(rootdata.coroot(i, n)) for i in range(1, n + 1)],
        "B_lambda_basis": [
            [cover.eval_B(a, b) for b in basis] for a in basis
        ],
        "B_with_similitude": [cover.eval_B(a, similitude) for a in basis],
        "splits_over_Mprime": {
            str(i): cover.splits_over_Mprime(i, n) for i in range(1, n + 1)
        },
    }
    return payload, EXIT_OK


def cmd_satake(args) -> tuple[dict | None, int]:
    from . import hecke

    n = args.n
    cover.LocalFieldDescriptor(args.p)  # checks p
    _refuse_rank("satake", n, SATAKE_RANK_LIMIT)
    if not 1 <= args.i <= n:
        raise UsageError(f"i must lie in 1..{n}")
    if args.oracle and n > 2:
        raise UsageError("the oracle runs at n <= 2")
    element = hecke.metaplectic_satake_T2lambda(args.i, n, args.p)
    payload = {
        "i": args.i,
        "n": n,
        "p": args.p,
        "terms": [{"mu": list(mu), "c": c} for mu, c in element.terms()],
    }
    mismatch = False
    if args.oracle:
        from . import oracle

        agree = oracle.verify_metaplectic_pipeline(args.i, n, args.p)
        payload["oracle"] = "agree" if agree else "disagree"
        mismatch = not agree
    return payload, EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_aset(args) -> tuple[dict | None, int]:
    from . import hecke, rootdata

    n = args.n
    _refuse_rank("aset", n)
    if args.lam is not None:
        if args.i is not None:
            raise UsageError("give --lam or --i, not both")
        base = rootdata.Cocharacter(_parse_ints(args.lam, n))
        if not rootdata.is_antidominant(base):
            raise hecke.HeckeError("base point must be antidominant")
        _refuse_aset_size(n, base.coords[0])
        i = None
    else:
        if args.i is None or not 1 <= args.i <= n:
            raise UsageError(f"i must lie in 1..{n}")
        # every --i base -(e_1 + ... + e_i) starts at -1; build it only if admitted
        _refuse_aset_size(n, -1)
        base = hecke.t2lambda_base(args.i, n)
        i = args.i
    A = hecke.enumerate_A(base)
    payload = {
        "base": list(base.coords),
        "n": n,
        "elements": [list(a) for a in A.sorted_elements()],
    }
    if i is not None:
        payload["i"] = i
        # `conforms` is advisory at i = n (hecke.fiber_conforms)
        payload["fibers"] = [
            {
                "fiber": [list(b) for b in sorted(fib)],
                "conforms": hecke.fiber_conforms(fib, i, n),
            }
            for fib in hecke.distinct_fibers(A, i)
        ]
    return payload, EXIT_OK


def cmd_weights(args) -> tuple[dict | None, int]:
    from . import rootdata, weights

    n = args.n
    _refuse_rank("weights", n, WEIGHTS_RANK_LIMIT)
    nu = rootdata.Character(_parse_ints(args.nu, n))
    w = weights.QRestrictedWeight(nu, args.q)
    payload = {
        "nu": list(nu.coords),
        "q": w.q,
        "pi_nu": sorted(weights.pi_nu(w).roots),
    }
    if args.levi is not None:
        J = _root_subset(n, _parse_ints(args.levi, None), "--levi")
        payload["levi"] = sorted(J.roots)
        payload["M_regular"] = weights.is_M_regular(w, J)
    if args.i is not None:
        w2 = weights.change_of_weight_pair(w, args.i)
        payload["companion"] = {
            "nu": list(w2.nu.coords),
            "pairings": list(rootdata.coroot_pairings(w2.nu)),
            "same_class_as_nu": weights.same_weight_class(w, w2),
        }
    return payload, EXIT_OK


def _parse_ints(text: str, n) -> tuple[int, ...]:
    try:
        vals = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"expected integers, got {text!r}")
    if n is not None and len(vals) != n:
        raise UsageError(f"expected {n} integers, got {len(vals)}")
    return vals


def _json_ints(value, what: str) -> list[int]:
    # bool is a subclass of int, but JSON true and false are not integers
    if not (isinstance(value, list) and all(type(x) is int for x in value)):
        raise UsageError(f"{what} must be a list of integers")
    return value


def _root_subset(n: int, indices, what: str) -> rootdata.ParabolicSubset:
    """The simple roots `indices` of {1, ..., n}, each named once: a set
    would silently read "1, 1" as "1"."""
    from . import rootdata

    twice = [r for r, k in collections.Counter(indices).items() if k > 1]
    if twice:
        raise UsageError(f"{what} repeats root index {twice[0]}")
    return rootdata.ParabolicSubset(n, frozenset(indices))


_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _json_field(data: dict, key: str, kind: type, default):
    value = data.get(key, default)
    if not isinstance(value, kind):
        raise UsageError(f"{key!r} must be {_JSON_TYPE_NAMES[kind]}")
    return value


_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


def _parse_flags(data: dict) -> dict:
    flags = _json_field(data, "flags", dict, {})
    if not all(isinstance(v, bool) for v in flags.values()):
        raise UsageError("'flags' values must be true or false")
    # canonical integers only (str(int(k)) == k): "01" or " 1" would
    # otherwise silently stand for the same root as "1"
    for k in flags:
        if not _CANONICAL_INT.fullmatch(k):
            raise UsageError(f"flag key {k!r} is not a root index written like \"1\"")
    return {int(k): v for k, v in flags.items()}


def _parse_torus_character(data: dict, n: int, q: int, N: int) -> characters.GenuineTorusCharacter:
    from . import characters

    pairs = _json_field(data, "xi", list, None)
    if len(pairs) != n:  # before any entry is parsed
        raise UsageError(f"character rank {len(pairs)} != configured n = {n}")
    xi = []
    for pair in pairs:
        if len(_json_ints(pair, "xi entries")) != 2:
            raise UsageError("xi entries are [unit_exp, pi_val] pairs")
        xi.append(characters.SmoothCharacterFx(q, N, pair[0], pair[1]))
    psi = cover.SquareClass.from_name(_json_field(data, "psi_class", str, "1"))
    return characters.GenuineTorusCharacter(tuple(xi), psi)


def _triple_bytes(datum: classify.SupersingularDatum) -> int:
    """At most the bytes one triple of `datum` prints, read off its rank,
    label and torus character: the label JSON-escaped, 100 a root (its
    index in P, Q, the Levi and the flags, and its xi pair's brackets, with
    their indentation, take at most 92 at a 6-digit rank), the digits of
    the xi pairs, and 200 for the rest."""
    size = len(_quote(datum.label)) + 100 * datum.n + 200
    if datum.torus_character is not None:
        size += sum(len(str(x.unit_exp)) + len(str(x.pi_exp)) for x in datum.torus_character.xi)
    return size


def _refuse_factors(datum: classify.SupersingularDatum) -> None:
    """Exit 2 before any triple is built if the 2^k factors of `datum`,
    k = |Pi(sigma)| the number of roots flagged true, times its rank are
    over CLASSIFY_SIZE_LIMIT (2^k is built only for k under its bit
    length), or times the bytes one triple prints over
    CLASSIFY_OUTPUT_LIMIT: every triple repeats the label."""
    n, k = datum.n, sum(datum.flags.values())
    if k >= CLASSIFY_SIZE_LIMIT.bit_length() or 2**k * n > CLASSIFY_SIZE_LIMIT:
        raise UsageError(
            f"classify would print 2^{k} composition factors at rank {n},"
            f" over its limit of {CLASSIFY_SIZE_LIMIT:,} factors times the rank"
        )
    size = _triple_bytes(datum)
    if 2**k * size > CLASSIFY_OUTPUT_LIMIT:
        raise UsageError(
            f"classify would print 2^{k} composition factors of up to {size:,} bytes"
            f" each, over its limit of {CLASSIFY_OUTPUT_LIMIT:,} bytes"
        )


def _triple_payload(t: classify.SupersingularTriple) -> dict:
    sigma = {
        "levi": sorted(t.sigma.levi.roots),
        "flags": {str(k): v for k, v in sorted(t.sigma.flags.items())},
        "label": t.sigma.label,
    }
    if t.sigma.torus_character is not None:
        tc = t.sigma.torus_character
        sigma["torus_character"] = {
            "xi": [[x.unit_exp, x.pi_exp] for x in tc.xi],
            "psi_class": tc.psi_class.name,
        }
    return {"P": sorted(t.P.roots), "Q": sorted(t.Q.roots), "sigma": sigma}


def cmd_classify(args) -> tuple[dict | None, int]:
    from . import classify, rootdata

    n, N = args.n, args.N
    # p and f before N is derived from q = p^f (0**-1 would raise)
    field = cover.LocalFieldDescriptor(args.p, args.f)
    if N < 0:
        raise UsageError("N must be positive, or 0 to derive 2(q-1)")
    if N == 0:
        N = 2 * (field.q - 1)
    if N % 2 != 0:
        raise UsageError("N must be even")
    if N % args.p == 0:
        raise UsageError("N must be coprime to p")
    # every datum has at least one factor and a Siegel lift prints one
    # triple, so any input costs at least 1 factor times the rank
    _refuse_rank("classify", n, CLASSIFY_SIZE_LIMIT)
    try:
        if args.input == "-":
            data = json.loads(_read_bounded(sys.stdin, "classify input"))
        else:
            with open(args.input) as fh:
                data = json.loads(_read_bounded(fh, args.input))
    except RecursionError:
        raise UsageError("classify input is nested too deeply") from None
    if not isinstance(data, dict):
        raise UsageError("classify input must be a JSON object")
    payload = {"n": n}
    if args.siegel:
        for key in ("P", "flags", "Q"):
            if key not in data:
                raise UsageError(f"siegel input needs {key!r}")
        P = _root_subset(n, _json_ints(data["P"], "'P'"), "'P'")
        Q = _root_subset(n, _json_ints(data["Q"], "'Q'"), "'Q'")
        triple = classify.siegel_lift(
            P, _parse_flags(data), Q, n, label=_json_field(data, "label", str, "rho")
        )
        payload["triples"] = [_triple_payload(triple)]
    elif "xi" in data:
        sigma = _parse_torus_character(data, n, field.q, N)
        datum = classify.torus_datum(sigma)
        _refuse_factors(datum)
        factors = classify.composition_factors(datum)
        payload["triples"] = [_triple_payload(t) for t in factors]
        payload["length"] = classify.ps_length(sigma)
        payload["irreducible"] = classify.ps_irreducible(sigma)
    elif "levi" in data:
        levi = _root_subset(n, _json_ints(data["levi"], "'levi'"), "'levi'")
        datum = classify.SupersingularDatum(
            levi, _parse_flags(data), label=_json_field(data, "label", str, "sigma")
        )
        _refuse_factors(datum)
        payload["triples"] = [_triple_payload(t) for t in classify.composition_factors(datum)]
        # constants, as one datum has no other to merge with; bench/goldens.json
        # still records both
        payload["injectivity_clean"] = True
        payload["merged"] = []
    else:
        raise UsageError("input must carry 'xi' (torus character) or 'levi' (datum)")
    if args.emit == "csv":
        _print_classify_csv(payload["triples"])
        return None, EXIT_OK
    return payload, EXIT_OK


def _print_classify_csv(triples: list[dict]) -> None:
    import csv

    # csv quotes a field holding ";", '"' or a character of the line end,
    # so a bare CR, which would end the row for a reader, goes out unquoted
    # under "\n" line ends; a row whose label holds one is quoted whole.
    # The rows go out in one write, so a label stdout cannot encode leaves
    # no partial answer behind.
    out = io.StringIO()
    plain = csv.writer(out, delimiter=";", lineterminator="\n")
    quoted = csv.writer(out, delimiter=";", lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(("P", "Q", "levi", "label", "flags"))
    for t in triples:
        label = t["sigma"]["label"]
        (quoted if "\r" in label else plain).writerow((
            ",".join(map(str, t["P"])),
            ",".join(map(str, t["Q"])),
            ",".join(map(str, t["sigma"]["levi"])),
            label,
            ",".join(f"{k}:{int(v)}" for k, v in sorted(t["sigma"]["flags"].items())),
        ))
    sys.stdout.write(out.getvalue())


def cmd_oracle(args) -> tuple[dict | None, int]:
    from . import hecke, oracle

    cover.LocalFieldDescriptor(args.p)  # checks p, which the oracle does not
    if args.depth < 1:
        raise UsageError("depth must be >= 1")
    group = args.group
    n = oracle.ChevalleyRealization(group).rank
    if not 1 <= args.i <= n:
        raise UsageError(f"i must lie in 1..{n} for {group}")
    lam = 2 * hecke.t2lambda_base(args.i, n)
    rows = oracle.oracle_rows(lam, args.depth, group, args.p)
    payload = {
        "group": group,
        "i": args.i,
        "p": args.p,
        "depth": args.depth,
        "target": list(lam.coords),
        "rows": [
            {
                "mu": list(r.mu.coords),
                "raw": r.raw_count,
                "mod_p": r.count_mod_p,
                "stabilized": r.stabilized,
            }
            for r in rows
        ],
    }
    return payload, EXIT_OK


def cmd_selftest(args) -> tuple[dict | None, int]:
    from . import selftest

    results = selftest.run_all()
    for r in results:
        print(r.line(), file=sys.stderr)
    payload = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "pass": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    return payload, EXIT_OK if payload["all_pass"] else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of `main` can share it."""
    parser = argparse.ArgumentParser(
        prog="metaplectic",
        description="symbolic and counting tools for the metaplectic cover of Sp_2n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    parameters = {  # each parameter's default and help
        "p": (3, "odd residue characteristic"),
        "f": (1, "residue extension degree"),
        "n": (2, "rank"),
        "N": (0, "value group order, even and prime to p; 0 derives 2(q-1), q = p^f"),
        "depth": (4, "oracle enumeration depth"),
    }

    def add_parameter_flags(sp, *keys):
        """A flag for each parameter the command reads."""
        for key in keys:
            default, text = parameters[key]
            sp.add_argument(f"--{key}", type=int, default=default, help=text)

    sp = sub.add_parser("hilbert", help="quadratic Hilbert symbol on square classes")
    sp.add_argument("x", help="square class: 1|u|pi|upi")
    sp.add_argument("y", help="square class: 1|u|pi|upi")
    sp.add_argument("--verify", action="store_true", help="cross-check by solvability")
    add_parameter_flags(sp, "p", "f")
    sp.set_defaults(func=cmd_hilbert)

    sp = sub.add_parser("cover", help="quadratic form, bilinear form, splitting table")
    add_parameter_flags(sp, "n")
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("satake", help="metaplectic Satake value of T_{2 lambda}")
    sp.add_argument("--i", type=int, required=True, help="simple root index")
    sp.add_argument(
        "--oracle", action="store_true", help="verify against the counting oracle"
    )
    add_parameter_flags(sp, "n", "p")
    sp.set_defaults(func=cmd_satake)

    sp = sub.add_parser("aset", help="enumerate the antidominance exponent set")
    sp.add_argument("--i", type=int, help="simple root index for the base")
    sp.add_argument("--lam", help="explicit antidominant base, comma separated")
    add_parameter_flags(sp, "n")
    sp.set_defaults(func=cmd_aset)

    sp = sub.add_parser("weights", help="q-restricted weight bookkeeping")
    sp.add_argument("--nu", required=True, help="weight coordinates, comma separated")
    sp.add_argument("--q", type=int, default=3, help="residue field size attached to the weight")
    sp.add_argument("--i", type=int, help="change-of-weight index")
    sp.add_argument("--levi", help="Levi subset for the regularity test")
    add_parameter_flags(sp, "n")
    sp.set_defaults(func=cmd_weights)

    sp = sub.add_parser("classify", help="composition factors of a datum")
    sp.add_argument("--input", default="-", help="JSON file ('-' for stdin)")
    sp.add_argument(
        "--siegel", action="store_true", help="input is a reductive Siegel triple"
    )
    add_parameter_flags(sp, "n", "p", "f", "N")
    sp.add_argument(
        "--emit", choices=("json", "csv"), default="json", help="output format"
    )
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("oracle", help="raw coset counts over Q_p")
    sp.add_argument("action", choices=("satake",))
    sp.add_argument("--group", choices=("sl2", "sp4"), required=True)
    sp.add_argument("--i", type=int, required=True)
    add_parameter_flags(sp, "p", "depth")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if argv and argv[0] in sub.choices:
        # the top-level pass would only read the command word and hand the
        # rest to its parser; leftovers get the top-level error it prints
        args, extra = sub.choices[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
        if payload is not None:
            emit(payload, args.command)
        return code
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
