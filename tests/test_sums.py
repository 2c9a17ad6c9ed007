"""The batched sphere kernel: one DFT per (sphere, |t|_p) against an
exact-angle scalar reference, and the sweeps that ride on it."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfourier import (
    PiAlphaLog,
    PLog,
    Prime,
    SingularIntegralRequest,
    chi,
    enumerate_sphere_cosets,
    eval_pi1,
    quadratic_character,
    random_testfn,
    singular_fourier,
    table_character,
    trivial_character,
    valuation,
    verify_stabilization,
)
from padicfourier.errors import PadicError
from padicfourier.sums import sphere_cell_sum

#: reference (cell, t) evaluations allowed per example
BUDGET = 5000


def rank2_character(prime):
    """A primitive character of (Z/p^2)^*: pi_1(g^j) = e^(2 pi i j / phi(p^2))."""
    p = prime.p
    mod, order = p * p, p * (p - 1)
    g = next(
        g for g in range(2, mod)
        if g % p and len({pow(g, j, mod) for j in range(order)}) == order
    )
    return table_character(
        prime, 2, {pow(g, j, mod): Fr(j, order) for j in range(order)}
    )


def make_character(prime, kind):
    if kind == "trivial":
        return trivial_character(prime)
    if kind == "quadratic":
        return quadratic_character(prime)
    return rank2_character(prime)


def cell_level(phi, chr_, gamma, t):
    """A level whose cells carry constant phi, pi_1 and chi_p(.t)."""
    lam = min(phi.l, gamma - max(chr_.k0, 1))
    return lam if t is None else min(lam, valuation(t, phi.prime))


def p_power_denominator(x, p):
    """The rational with a p-power denominator that x equals modulo Z_p."""
    q = x.denominator
    while q % p == 0:
        q //= p
    pk = x.denominator // q
    return Fr(x.numerator * pow(q, -1, pk) % pk, pk)


def reference_sum(phi, chr_, gamma, t, subtract):
    """(integral, sum of |terms|) of (phi - [subtract] phi(0)) pi_1 chi_p(.t)
    over S_gamma, one exact-angle term per cell."""
    prime = phi.prime
    lam = cell_level(phi, chr_, gamma, t)
    measure = float(Fr(prime.p) ** lam)
    total, mass = 0j, 0.0
    for c in enumerate_sphere_cosets(prime, gamma, lam):
        value = phi.at(c) - (phi.at_zero if subtract else 0)
        angle = eval_pi1(chr_, c)
        if t is not None:
            angle = angle * chi(p_power_denominator(c * t, prime.p), prime)
        term = value * angle.to_complex() * measure
        total += term
        mass += abs(term)
    return total, mass


def sphere_units(p, M, gamma):
    """Every unit residue the kernel can tell apart on |t|_p = p^M (mod
    p^(gamma+M)), plus -1 and two units with a denominator."""
    q = 3 if p == 2 else 2
    K = max(gamma + M, 1)
    units = [Fr(u) for u in range(1, p**K) if u % p]
    return units + [Fr(-1), Fr(1, q), Fr(-1, q * q)]


@st.composite
def kernel_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    prime = Prime(p)
    kinds = ["trivial", "rank2"] + (["quadratic"] if p > 2 else [])
    chr_ = make_character(prime, draw(st.sampled_from(kinds)))
    width = draw(st.integers(0, {2: 5, 3: 3, 5: 2}[p]))
    l = draw(st.integers(-3, 1))
    phi = random_testfn(prime, l + width, l, seed=draw(st.integers(0, 2**16)))
    # spheres beyond S_N half of the time
    top = phi.N + 2 if draw(st.booleans()) else max(phi.N, l + 1)
    gamma = draw(st.integers(l + 1, top))
    subtract = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        return phi, chr_, gamma, None, subtract
    affordable = []
    for M in range(-gamma - 2, -l + 3):
        t = Fr(p) ** (-M)
        cells = p ** (gamma - cell_level(phi, chr_, gamma, t))
        if cells * len(sphere_units(p, M, gamma)) <= BUDGET:
            affordable.append(M)
    # mostly the norms that take the DFT: chi_p varies across the cells and
    # their ball integrals do not vanish
    lam = min(phi.l, gamma - max(chr_.k0, 1))
    dft = [M for M in affordable if -gamma < M <= -lam]
    M = draw(st.sampled_from(dft if dft and draw(st.booleans()) else affordable))
    ts = [u * Fr(p) ** (-M) for u in sphere_units(p, M, gamma)]
    return phi, chr_, gamma, ts, subtract


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_batched_kernel_matches_exact_angle_reference(case):
    phi, chr_, gamma, ts, subtract = case
    got = sphere_cell_sum(phi, chr_, gamma, ts, subtract_phi0=subtract)
    for i, t in enumerate([None] if ts is None else ts):
        want, mass = reference_sum(phi, chr_, gamma, t, subtract)
        assert abs(got[i] - want) <= 1e-12 * mass, (t, got[i], want)


@st.composite
def sweep_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    prime = Prime(p)
    kinds = ["trivial", "rank2", "plog"] + (["quadratic"] if p > 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "plog":
        f = PLog(draw(st.integers(1, 3)))
    else:
        alpha = draw(st.sampled_from([1.5, 0.7 + 0.3j, -0.4]))
        f = PiAlphaLog(alpha, make_character(prime, kind), draw(st.integers(0, 2)))
    width = draw(st.integers(0, {2: 5, 3: 3, 5: 2}[p]))
    l = draw(st.integers(-2, 1))
    phi = random_testfn(prime, l + width, l, seed=draw(st.integers(0, 2**16)))
    return f, phi, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(sweep_cases())
def test_sweep_rows_equal_single_t_evaluations(case):
    f, phi, units = case
    p = phi.prime.p
    rep = verify_stabilization(f, phi, -phi.l - 2, -phi.l + 3, units, strict=False)
    scale = float(Fr(p) ** phi.l) * float(abs(phi.values).sum())
    for row in rep.rows:
        t = row.t_unit * Fr(p) ** (-row.M)
        single = singular_fourier(SingularIntegralRequest(f, phi, t))
        assert abs(row.J - single) <= 1e-12 * scale, (row.M, row.t_unit)


def test_a_batch_must_share_one_norm():
    prime = Prime(3)
    phi = random_testfn(prime, 1, -2, seed=5)
    chr_ = trivial_character(prime)
    mixed = [Fr(1, 9), Fr(2, 27)]
    with pytest.raises(PadicError):
        sphere_cell_sum(phi, chr_, 0, mixed)
    with pytest.raises(PadicError):
        SingularIntegralRequest(PiAlphaLog(1.5, chr_, 0), phi, tuple(mixed))
    # one norm, several directions: one J per t, equal to the single-t values
    ts = (Fr(1, 9), Fr(2, 9), Fr(1, 18))
    f = PiAlphaLog(1.5, chr_, 1)
    batch = singular_fourier(SingularIntegralRequest(f, phi, ts))
    assert batch == [singular_fourier(SingularIntegralRequest(f, phi, t)) for t in ts]
