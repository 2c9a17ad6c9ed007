"""Test-suite settings: hypothesis draws the same examples on every run,
and a failure prints the blob that reproduces it."""

import warnings

from hypothesis import settings

from padicfourier import enumerate_cosets, valuation

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


def sphere_cosets(prime, gamma, l):
    """The B_l cosets of B_gamma that make up the sphere S_gamma, in
    enumeration order: a reference that does not read the oracle's own
    sphere words."""
    return [c for c in enumerate_cosets(prime, gamma, l) if valuation(c, prime) == -gamma]
