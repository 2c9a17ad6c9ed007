"""Test-suite settings: hypothesis draws the same examples on every run,
and a failure prints the blob that reproduces it.  Also the sphere
references that more than one test module reads, among them the per-cell
reference of J split at any level l0 (``reference_j``), which the pairing
core itself splits at phi's l alone."""

import warnings
from fractions import Fraction as Fr

from hypothesis import settings

from padicfourier import PiAlphaLog, chi, enumerate_cosets, eval_pi1, j0_closed_form, valuation
from padicfourier import qp
from padicfourier.distributions import density_on_sphere

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


def j0_at(f, l0, t, prime):
    """J0 at one t, split at l0; t = None means chi_p == 1 on B_l0, the
    point (-l0, 1)."""
    k0 = f.pi1.k0 if isinstance(f, PiAlphaLog) else 0
    point = (-l0, 1) if t is None else qp.split(t, prime, k0)
    return j0_closed_form(f, l0, [point], prime)[0]


def cell_level(phi, chr_, gamma, t):
    """A level whose cells carry constant phi, pi_1 and chi_p(.t)."""
    lam = min(phi.l, gamma - max(chr_.k0, 1))
    return lam if t is None else min(lam, valuation(t, phi.prime))


def split_spheres(phi, l0):
    """The spheres of the split at l0: phi - phi(0) up to S_l0, phi beyond."""
    return range(min(phi.l, l0) + 1, max(phi.N, l0) + 1)


def p_power_denominator(x, p):
    """The rational with a p-power denominator that x equals modulo Z_p."""
    q = x.denominator
    while q % p == 0:
        q //= p
    pk = x.denominator // q
    return Fr(x.numerator * pow(q, -1, pk) % pk, pk)


def reference_j(f, chr_, phi, t, l0):
    """(J, sum of |terms|) split at l0: one exact-angle term per cell of every
    sphere, plus phi(0) J0(l0, t); t = None is the pairing <f, phi>."""
    prime = phi.prime
    terms = [phi.at_zero * j0_at(f, l0, t, prime)]
    for g in split_spheres(phi, l0):
        lam = cell_level(phi, chr_, g, t)
        weight = density_on_sphere(f, prime, g) * float(Fr(prime.p) ** lam)
        for c in sphere_cosets(prime, g, lam):
            value = phi.at(c) - (phi.at_zero if g <= l0 else 0)
            if t is not None:
                value *= chi(p_power_denominator(c * t, prime.p), prime).to_complex()
            terms.append(weight * value * eval_pi1(chr_, c))
    return sum(terms), sum(map(abs, terms))
