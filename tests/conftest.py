"""Keep a failing property test from ending the whole session.

When a hypothesis test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write its patch, and that module imports
libcst where it is installed.  libcst raises a DeprecationWarning at import
(`mypy_extensions.TypedDict`), which under `-W error::DeprecationWarning`
ends the session in INTERNALERROR, so the tests after the failing one never
run.  The module is imported here once, with only that import's
DeprecationWarnings ignored; a config `filterwarnings` entry cannot do it, as
the command line's `-W` takes precedence over it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: nothing to import early
        pass
