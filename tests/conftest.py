"""Test-suite settings: hypothesis draws the same examples on every run,
and a failure prints the blob that reproduces it."""

import warnings

from hypothesis import settings

settings.register_profile("padicfourier", derandomize=True, print_blob=True)
settings.load_profile("padicfourier")

# After a failing example hypothesis imports its patch writer, which pulls
# in libcst -> mypy_extensions and raises a DeprecationWarning there; under
# filterwarnings = error that ends the whole run with INTERNALERROR and
# skips every later test.  Importing it once here, warnings ignored, leaves
# nothing to warn about later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis then writes no patches
        pass
