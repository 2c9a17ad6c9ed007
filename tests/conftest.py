"""Test-suite settings: hypothesis draws the same examples on every run,
and a failure prints the blob that reproduces it.  Also the sphere
references that more than one test module reads."""

import warnings
from fractions import Fraction as Fr

from hypothesis import settings

from padicfourier import chi, enumerate_cosets, eval_pi1, valuation

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


def brute_sphere_integral(chr_, gamma, t, depth=2):
    """The integral of pi_1(x) chi_p(xt) over S_gamma, refined far beyond
    constancy and summed pointwise: an oracle that reads no Gauss sum."""
    prime = chr_.prime
    level = gamma - max(chr_.k0, 1) - depth
    if t != 0:
        level = min(level, valuation(t, prime) - depth)
    total = 0j
    for c in sphere_cosets(prime, gamma, level):
        total += (
            eval_pi1(chr_, c)
            * chi(c * t, prime).to_complex()
            * float(Fr(prime.p) ** level)
        )
    return total
