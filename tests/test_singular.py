"""Singular Fourier integrals: closed forms, decomposition, oracle."""

import cmath
import math
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as Fr
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicfourier import (
    DiracDelta,
    Jet,
    PiAlphaLog,
    PLog,
    NormedMultChar,
    Prime,
    SingularIntegralRequest,
    TestFunction,
    apply,
    brute_force_oracle,
    chi,
    delta_indicator,
    eval_pi1,
    faulhaber_sum,
    fourier,
    gamma_p,
    j0_closed_form,
    p_power_jet,
    predict_expansion,
    quadratic_character,
    random_testfn,
    singular_fourier,
    trivial_character,
    valuation,
)
from padicfourier import qp
from padicfourier.characters import gauss_sum
from padicfourier.distributions import char_of, density_on_sphere
from padicfourier.errors import BadWindow, NumericOverflow, PoleProximity, ZeroArgument
from padicfourier.singular import _oracle_tail, _roots

from conftest import (
    cell_level,
    j0_at,
    p_power_denominator,
    reference_j,
    sphere_cosets,
    split_spheres,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)
EPS = np.finfo(float).eps


def cubic_mod9():
    return NormedMultChar(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def req(f, phi, t):
    return SingularIntegralRequest(f, phi, t)


def test_request_validation():
    d0 = delta_indicator(P2, 0)
    f = PiAlphaLog(2, trivial_character(P2), 0)
    with pytest.raises(ZeroArgument):
        SingularIntegralRequest(f, d0, 0)
    with pytest.raises(ZeroArgument):
        SingularIntegralRequest(f, d0, ())


def test_alpha_one_is_plain_fourier_transform():
    for p in (2, 3):
        prime = Prime(p)
        f = PiAlphaLog(1, trivial_character(prime), 0)
        phi = random_testfn(prime, 1, -1, seed=41)
        F = fourier(phi)
        for t in (Fr(1), Fr(1, p), Fr(p), Fr(1, p**3)):
            assert abs(singular_fourier(req(f, phi, t)) - F.at(t)) < 1e-12


def test_pinned_value_power_case():
    # p = 2, alpha = 2, Delta_0, |t| = 2: J = Gamma_2(2)/|t|^2 = -1/3
    f = PiAlphaLog(2, trivial_character(P2), 0)
    d0 = delta_indicator(P2, 0)
    J = singular_fourier(req(f, d0, Fr(1, 2)))
    B = brute_force_oracle(req(f, d0, Fr(1, 2)))
    assert abs(J - (-1 / 3)) < 1e-12
    assert abs(B - (-1 / 3)) < 1e-12


def test_pinned_value_plog_case():
    # p = 3, P(1/|x|), Delta_0, |t| = 3: J = -1
    g = PLog(1)
    e0 = delta_indicator(P3, 0)
    assert abs(singular_fourier(req(g, e0, Fr(1, 3))) - (-1)) < 1e-12
    assert abs(brute_force_oracle(req(g, e0, Fr(1, 3))) - (-1)) < 1e-12


def test_log_weight_anchor():
    # direct absolutely convergent sum gives -2/9 at p=2, alpha=2, m=1, |t|=2
    f = PiAlphaLog(2, trivial_character(P2), 1)
    d0 = delta_indicator(P2, 0)
    assert abs(singular_fourier(req(f, d0, Fr(1, 2))) - (-2 / 9)) < 1e-12
    assert abs(brute_force_oracle(req(f, d0, Fr(1, 2))) - (-2 / 9)) < 1e-12


def test_plog_values_independent_of_declared_constancy():
    # the PLog pairing is pinned at B_0, so J depends on phi, not on l:
    # p = 2, |t| = 4, phi = Delta_{-1}: J = -1/p - (1-1/p) log_p|t| = -3/2
    J = singular_fourier(req(PLog(1), delta_indicator(P2, -1), Fr(1, 4)))
    assert abs(J - (-1.5)) < 1e-12
    # p = 2, |t| = 2, phi = Delta_1: J = -1
    J = singular_fourier(req(PLog(1), delta_indicator(P2, 1), Fr(1, 2)))
    assert abs(J - (-1.0)) < 1e-12


def test_ramified_anchor():
    # quadratic mod 3, alpha = 1, Delta_0, |t| = 9: J = i sqrt(3) / 9
    f = PiAlphaLog(1, quadratic_character(P3), 0)
    e0 = delta_indicator(P3, 0)
    want = 1j * math.sqrt(3) / 9
    assert abs(singular_fourier(req(f, e0, Fr(1, 9))) - want) < 1e-12
    assert abs(brute_force_oracle(req(f, e0, Fr(1, 9))) - want) < 1e-12


def test_j0_closed_form_branches():
    # near branch: (1-1/p)/(1-p^-alpha) p^{alpha l}
    for p, alpha, l, M in ((2, 1.5, 0, 0), (3, 0.7 - 0.3j, -1, 1), (2, 2, -1, 0)):
        prime = Prime(p)
        f = PiAlphaLog(alpha, trivial_character(prime), 0)
        t = Fr(p) ** (-M)
        want = (
            (1 - 1 / p)
            / (1 - complex(p) ** -complex(alpha))
            * complex(p) ** (complex(alpha) * l)
        )
        assert j0_at(f, l, t, prime) == pytest.approx(want)
    # far branch: Gamma_p(alpha)/|t|^alpha
    for p, alpha, l, M in ((2, 2, 0, 1), (3, 1.5, -1, 4)):
        prime = Prime(p)
        f = PiAlphaLog(alpha, trivial_character(prime), 0)
        t = Fr(p) ** (-M)
        want = gamma_p(prime, alpha, 0).value / complex(p) ** (complex(alpha) * M)
        assert j0_at(f, l, t, prime) == pytest.approx(want)
    # PLog core integral at l = 0, p = 3, |t| = 3: -1/3 - (2/3)(0+1) = -1
    assert j0_at(PLog(1), 0, Fr(1, 3), P3) == pytest.approx(-1)
    # every pi_1, near and far: the sphere-by-sphere sum over B_l0
    near = [(0, 0), (1, -1), (-1, 1), (2, -3)]  # M <= -l0
    far = [(0, 1), (0, 2), (1, 1), (-1, 3), (2, 0)]
    cases = [(l0, None) for l0 in (0, 1)] + [
        (l0, u * Fr(3) ** -M) for l0, M in near + far for u in (1, -4)
    ]
    for chr_, m in ((trivial_character(P3), 0), (quadratic_character(P3), 2),
                    (trivial_character(P3), 2), (cubic_mod9(), 1)):
        f = PiAlphaLog(1.3 + 0.2j, chr_, m)
        for l0, t in cases:
            want, mass = sphere_by_sphere_j0(f, l0, t, P3)
            assert abs(j0_at(f, l0, t, P3) - want) <= 1e-12 * mass


def sphere_by_sphere_j0(f, l0, t, prime, depth=50):
    """(J0, sum of |terms|) for Re alpha > 0: the integral of f chi_p(. t)
    over the spheres S_g of B_l0, g > l0 - depth, one exact-angle term per
    cell; the spheres below it add about depth^m p^(-depth Re alpha)."""
    p, k = prime.p, max(f.pi1.k0, 1)
    terms = []
    for g in range(l0 - depth + 1, l0 + 1):
        lam = g - k if t is None else min(g - k, valuation(t, prime))
        weight = complex(p) ** ((f.alpha - 1) * g) * g**f.m * float(Fr(p) ** lam)
        for c in sphere_cosets(prime, g, lam):
            value = eval_pi1(f.pi1, c)
            if t is not None:
                value *= chi(c * t, prime).to_complex()
            terms.append(weight * value)
    return sum(terms), sum(map(abs, terms))


def test_j0_near_branch_with_log_weight():
    # integral over B_0 of |x| log_2|x| dx = -2/9 (hand geometric series)
    f = PiAlphaLog(2, trivial_character(P2), 1)
    assert j0_at(f, 0, Fr(1), P2) == pytest.approx(-2 / 9)


def fraction_j0(f, l0, t, prime):
    # J0 as one call per t computed it, with Fraction constants, one jet
    # division per call and the sphere integral at t's unit part: the
    # reference the batched j0_closed_form must match bit for bit
    k = max(f.pi1.k0, 1) if isinstance(f, PiAlphaLog) else 0
    if t is not None:
        M, u = qp.split(t, prime, k)
    near = t is None or M <= -l0
    p = prime.p
    if isinstance(f, PLog):
        s, value = f.m - 1, 0
        if not near:
            value = -Fr(1, p) * (1 - M) ** s - (1 - Fr(1, p)) * (
                faulhaber_sum(s, l0) - faulhaber_sum(s, -M)
            )
        pinning = (1 - Fr(1, p)) * faulhaber_sum(s, l0) if l0 else 0
        return complex(value + pinning)
    value = 0j
    if f.pi1.is_trivial():
        den = Jet.constant(1, f.m) - p_power_jet(p, -1, f.alpha, f.m)
        q = (Jet.constant(1 - Fr(1, p), f.m) / den).coeffs
        lam = l0 if near else -M
        power = p_power_jet(p, lam, f.alpha, f.m).coeffs
        value = sum((power[j] * (math.comb(f.m, j) * q[f.m - j]) for j in range(f.m + 1)), -0j)
    if not near and k - M <= l0:
        power = p_power_jet(p, k - M, f.alpha, 0).value * qp.p_power(p, -k)
        sphere = (-1 + 0j) if f.pi1.is_trivial() else gauss_sum(f.pi1, u)
        value += (k - M) ** f.m * power * sphere
    return value


def test_j0_keeps_the_bits_of_the_fraction_closed_form():
    def bits(z):
        return complex(z).real.hex(), complex(z).imag.hex()

    cases = [(PLog(m), P3) for m in (1, 2, 4)] + [(PLog(3), P2)]
    cases += [(PiAlphaLog(1.3 - 0.4j, trivial_character(P2), m), P2) for m in (0, 2)]
    cases += [
        (PiAlphaLog(0.7 + 0.2j, quadratic_character(P5), 1), P5),
        (PiAlphaLog(1.5, quadratic_character(P3), 0), P3),
        (PiAlphaLog(0.8 + 0.5j, cubic_mod9(), 2), P3),
    ]
    for f, prime in cases:
        p = prime.p
        ts = [Fr(u, 1) * Fr(p) ** -M for M in range(-4, 7) for u in (1, 2 * p - 1, -1)]
        k0 = f.pi1.k0 if isinstance(f, PiAlphaLog) else 0
        points = [qp.split(t, prime, max(k0, 1)) for t in ts]
        for l0 in (-2, 0, 1, 3):
            want = [fraction_j0(f, l0, t, prime) for t in ts]
            assert list(map(bits, j0_closed_form(f, l0, points, prime))) == [
                bits(w) for w in want
            ], (f, l0)
            assert bits(j0_closed_form(f, l0, [(-l0, 1)], prime)[0]) == bits(
                fraction_j0(f, l0, None, prime)
            )


def test_vanishing_lemmas_exact():
    # F[h] vanishes beyond p^-lam, lam = l + 1 - max(k0, 1): there J, split
    # at phi's l, is phi(0) J0 exactly, with no rounding; the per-cell
    # reference split at l and at l + 1 agrees with it
    for p, seed in ((2, 51), (3, 52)):
        prime = Prime(p)
        phi = random_testfn(prime, 1, -1, seed=seed)
        chars = [trivial_character(prime)]
        if p == 3:
            chars += [quadratic_character(prime), cubic_mod9()]
        variants = [PLog(2)] + [PiAlphaLog(1.3, c, 1) for c in chars]
        for f in variants:
            chr_ = char_of(f, prime)
            lam = phi.l + 1 - max(chr_.k0, 1)
            for M in (-lam + 1, -lam + 2, -lam + 4):
                for u in (1, -1, Fr(1, p + 1)):
                    t = u * Fr(p) ** (-M)
                    J = singular_fourier(req(f, phi, t))
                    assert J == phi.at_zero * j0_at(f, phi.l, t, prime)
                    for l0 in (phi.l, phi.l + 1):
                        want, mass = reference_j(f, chr_, phi, t, l0)
                        assert abs(J - want) <= 1e-12 * mass, (f, t, l0)


def test_split_level_independence():
    rng = random.Random(53)
    cases = []
    for trial in range(20):
        p = rng.choice([2, 3])
        prime = Prime(p)
        pi1 = trivial_character(prime)
        if p == 3 and trial % 3 == 0:
            pi1 = quadratic_character(prime)
        kind = rng.choice(["pa", "plog"])
        if kind == "pa":
            f = PiAlphaLog(
                complex(rng.uniform(-1.5, 2.5), rng.uniform(-1, 1)),
                pi1,
                rng.randint(0, 2),
            )
        else:
            f = PLog(rng.randint(1, 3))
        phi = random_testfn(prime, 1, -1, seed=600 + trial)
        M = rng.randint(-1, 4)
        t = Fr(rng.choice([1, p + 1])) * Fr(p) ** (-M)
        cases.append((f, phi, t))
    # J splits at phi's l; the per-cell reference splits at every l0
    for f, phi, t in cases:
        base = singular_fourier(req(f, phi, t))
        for l0 in range(phi.l - 2, min(phi.N, phi.l + 2) + 1):
            v, _ = reference_j(f, char_of(f, phi.prime), phi, t, l0)
            assert abs(v - base) <= 1e-10 * (1 + abs(base)), (f, t, l0)


def test_oracle_agreement_and_refine_invariance():
    f = PiAlphaLog(2, trivial_character(P2), 0)
    d0 = delta_indicator(P2, 0)
    r0 = brute_force_oracle(req(f, d0, Fr(1, 2)), refine=0)
    for refine in (1, 2, 3):
        rr = brute_force_oracle(req(f, d0, Fr(1, 2)), refine=refine)
        assert abs(rr - r0) < 1e-10
    with pytest.raises(ValueError, match="refine must be >= 0, got -1"):
        brute_force_oracle(req(f, d0, Fr(1, 2)), refine=-1)
    # ramified case with log weight over several norms
    fq = PiAlphaLog(1.5, quadratic_character(P3), 1)
    phi = random_testfn(P3, 1, -1, seed=61)
    for M in (0, 1, 2, 3):
        t = Fr(1) * Fr(3) ** (-M)
        a = singular_fourier(req(fq, phi, t))
        b = brute_force_oracle(req(fq, phi, t), refine=1)
        assert abs(a - b) < 1e-9 * (1 + abs(a))


def test_oracle_shares_no_kernel_with_the_split_evaluator(monkeypatch):
    from padicfourier import distributions, testfn

    phi = random_testfn(P3, 1, -2, seed=67)
    # a table past the partial-transform floor, read at one word
    wide = random_testfn(P3, 1, -8, seed=69)
    cases = [
        (PiAlphaLog(1.5, trivial_character(P3), 1), phi, Fr(2, 27), 2),
        (PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1), phi, Fr(1, 9), 1),
        (PiAlphaLog(1.2, quadratic_character(P3), 0), phi, Fr(5, 3), 0),
        (PLog(2), phi, Fr(4, 81), 1),
        (PLog(3), phi, Fr(1, 2), 2),
        (PiAlphaLog(1.3, trivial_character(P3), 0), wide, Fr(1, 27), 0),
    ]
    want = [brute_force_oracle(req(f, g, t), refine=r) for f, g, t, r in cases]

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached a core transform")

    # both transform entries, where they are defined and where the core binds them
    monkeypatch.setattr(testfn, "fourier", broken)
    monkeypatch.setattr(testfn, "fourier_at", broken)
    monkeypatch.setattr(distributions, "fourier_at", broken)
    for g in (phi, wide):
        with pytest.raises(AssertionError, match="reached"):
            # the patch is live: |t|_3 = 9 lies inside F[h]'s support
            singular_fourier(req(cases[0][0], g, Fr(1, 9)))
    assert [brute_force_oracle(req(f, g, t), refine=r) for f, g, t, r in cases] == want


def test_deep_request_skips_the_transform(monkeypatch):
    # every |t|_p > p^-lam, lam = l + 1 - max(k0, 1): F[h] vanishes there,
    # so J is phi(0) J0 with no annulus product and no transform
    from padicfourier import distributions

    phi = random_testfn(P3, 2, -1, seed=68)
    cases = [
        (PiAlphaLog(1.5, trivial_character(P3), 1), Fr(1, 9)),
        (PiAlphaLog(1.2, quadratic_character(P3), 0), (Fr(2, 9), Fr(1, 3**12))),
        (PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1), (Fr(1, 27), Fr(5, 81))),
        (PLog(2), Fr(1, 3**12)),
    ]

    def unreachable(*args, **kwargs):
        raise AssertionError("a deep request built h or ran fourier")

    monkeypatch.setattr(distributions, "_AnnulusProduct", unreachable)
    monkeypatch.setattr(distributions, "fourier_at", unreachable)
    for f, t in cases:
        ts = t if isinstance(t, tuple) else (t,)
        want = [phi.at_zero * j0_at(f, phi.l, s, P3) for s in ts]
        got = singular_fourier(req(f, phi, t))
        assert (got if isinstance(t, tuple) else [got]) == want


def test_lone_t_inside_the_cutoff_reads_one_word_of_a_wide_table(monkeypatch):
    # 3^10 cosets: one t at |t|_3 = 27 <= p^-lam needs F[h] at one word
    from padicfourier import testfn

    phi = random_testfn(P3, 1, -9, seed=70)
    f = PiAlphaLog(1.3, trivial_character(P3), 0)
    want = brute_force_oracle(req(f, phi, Fr(1, 27)))

    def unreachable(phi):
        raise AssertionError("a lone t ran the full FFT")

    monkeypatch.setattr(testfn, "fourier", unreachable)
    got = singular_fourier(req(f, phi, Fr(1, 27)))
    assert abs(got - want) < 1e-12 * (1 + abs(want))


def test_a_few_word_sweep_of_a_wide_table_builds_no_h(monkeypatch):
    # phi has 3^9 words; 12 points inside the cutoff (4 spheres x 3 units,
    # fewer than the 15 bits of 3^9) are read off phi's own table with the
    # sphere factors folded in: neither h nor a full FFT is built, and J is
    # within 2 n eps ||p^lam h||_1 of the FFT of the built h (its values
    # carry the cell measure p^lam)
    from padicfourier import distributions, testfn

    phi = random_testfn(P3, 1, -8, seed=71)
    cases = [
        PiAlphaLog(1.3, trivial_character(P3), 1),
        PLog(2),
        PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1),  # h has 3^10 words
    ]
    wants = []
    for f in cases:
        chr_ = distributions.char_of(f, P3)
        h = distributions._AnnulusProduct(f, phi, chr_)
        n = h.N - h.l
        bound = 2 * n * np.finfo(float).eps * float(np.abs(h.values).sum())
        top = -h.l  # |t|_3 <= 3^-lam: M <= -lam
        ts = [Fr(u) * Fr(3) ** -M for M in range(top - 3, top + 1) for u in (1, 2, 4)]
        transform = fourier(h)
        want = [
            transform.at(t)
            + phi.at_zero * j0_closed_form(f, phi.l, [qp.split(t, P3, max(chr_.k0, 1))], P3)[0]
            for t in ts
        ]
        wants.append((f, ts, want, bound))

    def unreachable(*args, **kwargs):
        raise AssertionError("a few-word sweep built h or ran the full FFT")

    monkeypatch.setattr(distributions._AnnulusProduct, "values", property(unreachable))
    monkeypatch.setattr(testfn, "fourier", unreachable)
    for f, ts, want, bound in wants:
        got = singular_fourier(req(f, phi, ts))
        assert max(abs(a - b) for a, b in zip(got, want)) <= bound, f


def test_reduces_to_pairing_for_tiny_t():
    # |t| <= p^-N makes chi == 1 on the support: J = <f, phi>
    rng = random.Random(62)
    for trial in range(8):
        p = rng.choice([2, 3])
        prime = Prime(p)
        phi = random_testfn(prime, 1, -1, seed=700 + trial)
        f = rng.choice(
            [
                PiAlphaLog(1.1 - 0.6j, trivial_character(prime), 1),
                PLog(2),
                DiracDelta(),
            ]
        )
        t = Fr(p) ** 2  # |t| = p^-2
        assert abs(
            singular_fourier(req(f, phi, t)) - apply(f, phi)
        ) < 1e-11 * (1 + abs(apply(f, phi)))


def test_linearity_in_phi():
    f = PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1)
    a = random_testfn(P3, 1, -1, seed=63)
    b = random_testfn(P3, 1, -1, seed=64)
    c = 1.7 - 2.2j
    combo = TestFunction(P3, 1, -1, c * a.values + b.values)
    t = Fr(2, 27)
    lhs = singular_fourier(req(f, combo, t))
    rhs = c * singular_fourier(req(f, a, t)) + singular_fourier(req(f, b, t))
    assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))


def test_dirac_delta_case():
    phi = random_testfn(P2, 1, -1, seed=65)
    for t in (Fr(1, 8), Fr(3)):
        assert singular_fourier(req(DiracDelta(), phi, t)) == phi.at(0)


def test_degenerate_tiny_norm_t_uniform():
    f = PiAlphaLog(1.5, trivial_character(P2), 0)
    phi = random_testfn(P2, 1, -1, seed=66)
    t = Fr(2) ** 7  # |t| = 2^-7, far below p^-N
    a = singular_fourier(req(f, phi, t))
    b = brute_force_oracle(req(f, phi, t))
    assert abs(a - b) < 1e-11 * (1 + abs(a))


def test_pole_proximity_propagates():
    f = PiAlphaLog(1e-14, trivial_character(P2), 0)
    with pytest.raises(PoleProximity):
        singular_fourier(req(f, delta_indicator(P2, 0), Fr(1, 2)))


def batch_oracle_families(prime):
    chars = [trivial_character(prime)]
    if prime.p > 2:
        chars.append(quadratic_character(prime))
    if prime.p == 3:
        chars.append(cubic_mod9())
    return [PiAlphaLog(1.5 - 0.2j, c, m) for m, c in enumerate(chars)] + [
        PLog(m) for m in (1, 2, 3)
    ] + [DiracDelta()]


def test_oracle_takes_a_batch():
    # a batch equals its per-t evaluations bit for bit: norms interleaved
    # and repeated, and one t with E = N + log_p|t|_p <= 0, where chi_p == 1
    # on every sphere summed
    for p in (2, 3, 5):
        prime = Prime(p)
        q = 3 if p == 2 else 2
        for N, l in ((1, -2), (-1, -3)):
            phi = random_testfn(prime, N, l, seed=68 + N)
            top = max(N, 0)
            # t = u p^(top - E)
            ts = [u * Fr(p) ** (top - e) for e, u in ((3, 1), (2, q), (3, -1), (-1, 1))]
            ts += [q * Fr(p) ** (top - e) for e in (2, 4, 3)]
            for f in batch_oracle_families(prime):
                for refine in (0, 1, 2):
                    batch = brute_force_oracle(req(f, phi, tuple(ts)), refine=refine)
                    assert batch == [
                        brute_force_oracle(req(f, phi, t), refine=refine) for t in ts
                    ], (f, N, refine)


def test_oracle_batch_at_the_deepest_root_table():
    # E = 6 at p = 11 is the largest table under the 2^24 cap (11^7 is
    # past it): 1.6 million cells on the top sphere
    prime, E = Prime(11), 6
    assert 11**E <= qp.MAX_WORDS < 11 ** (E + 1)
    phi = random_testfn(prime, 1, -2, seed=69)
    ts = (Fr(1, 11 ** (E - 1)), Fr(2, 11), Fr(-2, 11 ** (E - 1)))
    for f in batch_oracle_families(prime):
        batch = brute_force_oracle(req(f, phi, ts))
        assert batch == [brute_force_oracle(req(f, phi, t)) for t in ts], f


def per_cell_oracle(f, phi, t, refine):
    """The oracle one t at a time, with phi, pi_1 and chi_p sampled on
    every cell of every sphere and each cell's term density x value x root
    x measure added exactly (math.fsum on the real and imaginary parts):
    J, and the sum of |term|, which bounds the rounding of any order of
    summation of those terms."""
    if isinstance(f, DiracDelta):
        return phi.at(0), abs(phi.at(0))
    prime, l = phi.prime, phi.l
    p = prime.p
    chr_ = f.pi1 if isinstance(f, PiAlphaLog) else trivial_character(prime)
    M = -valuation(t, prime)
    top = max(phi.N, 0) if isinstance(f, PLog) else phi.N
    E = top + M
    mod = p ** max(E, 0)
    u = qp.split(t, prime, max(E, 0))[1]
    gamma_star = min(-M, l) - refine
    terms = [np.array([phi.at_zero * _oracle_tail(f, prime)(gamma_star)])]
    for g in range(gamma_star + 1, top + 1):
        lam = min(l, -M, g - max(chr_.k0, 1)) - refine
        words = qp._sphere_words(p, g - lam)
        vals = phi.sample(words, g)
        pinned = isinstance(f, PLog) and g <= 0
        if pinned:
            vals -= phi.values[0]
        if chr_.k0:
            vals *= chr_.complex_table()[words % p**chr_.k0]
        step = u * pow(p, top - g, mod) % mod
        if step:
            vals *= _roots(p, E)[words * step % mod]
        density = density_on_sphere(f, prime, g)
        terms.append(vals * (density * qp.p_power(p, lam)))
        if pinned:
            # chi_p(xt) - 1 integrated over S_g: 0 while chi_p == 1 there,
            # then -p^g at d = g + M = 1 and minus the measure beyond
            drop, d = Fr(0), g + M
            if d == 1:
                drop = -Fr(p) ** g
            elif d > 1:
                drop = -(Fr(p) ** g - Fr(p) ** (g - 1))
            terms.append(np.array([density * phi.at_zero * float(drop)]))
    terms = np.concatenate(terms)
    return complex(math.fsum(terms.real), math.fsum(terms.imag)), float(np.abs(terms).sum())


#: the bound on the oracle's error against the exact sum of its terms, in
#: eps times the sum of |term|.  The worst seen over the tests below is 1.8,
#: for the folded sums and for the earlier word-order sum of every cell alike
ORACLE_ULPS = 8


def assert_per_cell(got, want):
    for value, (exact, mass) in zip(got, want):
        assert abs(value - exact) <= ORACLE_ULPS * EPS * mass, (value, exact, mass)


def test_oracle_keeps_the_per_cell_terms():
    # one row of cell values per sphere, shared by every norm, and each
    # sphere's periodic factor folded over the residues of the other once
    # for every direction, sum every cell's term to within a few rounding
    # errors of their exact sum
    rng = random.Random(71)
    shallow = 0
    for trial in range(300):
        p = rng.choice([2, 3, 5, 7, 11])
        prime = Prime(p)
        f = rng.choice(batch_oracle_families(prime))
        N = rng.randint(-2, 2)
        phi = random_testfn(prime, N, N - rng.randint(0, 8 // p + 1), seed=trial)
        top = max(N, 0) if isinstance(f, PLog) else N
        refine = rng.randint(0, 3)
        depth = {2: 12, 3: 8, 5: 5, 7: 4, 11: 4}[p] - refine
        units = [n for n in range(-(p**3), p**3) if n % p]
        ts = [
            Fr(rng.choice(units), rng.choice([1, 3 if p == 2 else 2]))
            * Fr(p) ** (top - rng.randint(-2, depth))
            for _ in range(rng.randint(1, 5))
        ]
        ts += rng.sample(ts, rng.randint(0, len(ts)))
        # a shallow norm, 0 < E = top + M < top - l: even unrefined, the
        # top sphere's words outnumber one period of its roots
        Ms = [-valuation(t, prime) for t in ts]
        shallow += refine == 0 and any(0 < top + M < top - phi.l for M in Ms)
        want = [per_cell_oracle(f, phi, t, refine) for t in ts]
        assert_per_cell(brute_force_oracle(req(f, phi, tuple(ts)), refine=refine), want)
    assert shallow >= 5
    # fixed directions: u = 1 reads each residue class at itself (no index
    # arithmetic), u = 1 + p^2 moves it only where the class modulus is
    # above p^2, and u = p^3 - 1 moves it at every modulus but 2; a batch
    # of all three at one norm shares each sphere's fold
    for p in (2, 3, 5, 7):
        prime = Prime(p)
        directions = (1, 1 + p**2, p**3 - 1)
        for N, l in ((1, -2), (0, -3)):
            phi = random_testfn(prime, N, l, seed=72 + N)
            for f in batch_oracle_families(prime):
                top = max(N, 0) if isinstance(f, PLog) else N
                for refine in (0, 1):
                    for E in (1, 2, 3, 5):
                        ts = tuple(u * Fr(p) ** (top - E) for u in directions)
                        want = [per_cell_oracle(f, phi, t, refine) for t in ts]
                        got = [brute_force_oracle(req(f, phi, t), refine=refine) for t in ts]
                        assert_per_cell(got, want)
                        assert brute_force_oracle(req(f, phi, ts), refine=refine) == got


def fold_branches(f, phi, M, refine):
    """Which sum each sphere of norm p^M takes in the oracle: its roots
    folded over the cell values' period p^h ("d >= h"), its cell values
    folded over the roots' period p^d ("0 < d < h"), or chi_p == 1 ("d <= 0")."""
    k0 = f.pi1.k0 if isinstance(f, PiAlphaLog) else 0
    top = max(phi.N, 0) if isinstance(f, PLog) else phi.N
    branches = set()
    for g in range(min(-M, phi.l) - refine + 1, top + 1):
        d, h = g + M, max(g - phi.l, k0, 1)
        branches.add("d <= 0" if d <= 0 else "d >= h" if d >= h else "0 < d < h")
    return branches


@pytest.mark.parametrize(
    "branch, M, refine",
    [("d >= h", 3, 0), ("d >= h", 3, 2), ("0 < d < h", 0, 0), ("d <= 0", -1, 0)],
    ids=["roots folded", "roots folded, refine 2", "values folded", "chi_p == 1"],
)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_each_fold_sums_every_cell(p, branch, M, refine):
    # phi in D^-2_1, three directions at |t|_p = p^M: the spheres reach the
    # branch, and every family's J is the exact sum of its cells' terms
    prime = Prime(p)
    phi = random_testfn(prime, 1, -2, seed=74 + p)
    families = [trivial_character(prime)]
    families += [quadratic_character(prime)] if p > 2 else []
    families += [cubic_mod9()] if p == 3 else []
    families = [PiAlphaLog(1.2 - 0.3j, c, 1) for c in families] + [PLog(2)]
    q = 3 if p == 2 else 2
    ts = tuple(Fr(u) * Fr(p) ** -M for u in (1, -q, Fr(1 + p, q)))
    for f in families:
        assert branch in fold_branches(f, phi, M, refine), f
        want = [per_cell_oracle(f, phi, t, refine) for t in ts]
        assert_per_cell(brute_force_oracle(req(f, phi, ts), refine=refine), want)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_plog_reads_one_row_on_each_side_of_zero(p, refine):
    # phi in D^1_3: every S_g with g <= l = 1 has phi == phi(0), but PLog
    # subtracts phi(0) on g <= 0 alone, so S_1 and S_0 hold two rows.
    # Norms from p^-1 to p^3 meet both at d <= 0, d = 1 and d > 1, and
    # every J is the exact sum of its cells' terms
    prime = Prime(p)
    phi = random_testfn(prime, 3, 1, seed=75 + p)
    assert abs(phi.at_zero) > 0.1
    q = 3 if p == 2 else 2
    ts = tuple(Fr(u) * Fr(p) ** -M for M in (-1, 0, 1, 3) for u in (1, -q))
    for m in (1, 2, 3):
        want = [per_cell_oracle(PLog(m), phi, t, refine) for t in ts]
        assert_per_cell(brute_force_oracle(req(PLog(m), phi, ts), refine=refine), want)


def test_oracle_refuses_a_cell_sum_past_the_float_range(monkeypatch):
    # eight table values near the float limit: a sphere's |cell| sum is
    # past it, where the folded sum once returned about 1e292 of rounding
    # noise (the split evaluator's J at t = 3 is -2.7e292); the request is
    # refused before any root table is built
    built = count_roots(monkeypatch)
    phi = TestFunction(P3, 1, -1, [0.5] + [1e308 + 1e308j] * 8)
    f = PiAlphaLog(1.5, quadratic_character(P3), 1)
    for t in (Fr(1, 3), Fr(3), (Fr(3), Fr(1, 3))):
        with pytest.raises(NumericOverflow, match=r"\|cell\| sum on S_"):
            brute_force_oracle(req(f, phi, t))
    assert built == []
    # the table scaled by 1e-10 passes, and builds one table per class, at
    # the depths d = g + M of t = 1/3's spheres S_0 and S_1: t = 3 has
    # N + M = 0, where chi_p == 1 on every sphere
    tame = TestFunction(P3, 1, -1, phi.values * 1e-10)
    assert all(map(cmath.isfinite, brute_force_oracle(req(f, tame, (Fr(3), Fr(1, 3))))))
    assert built == [(3, 1), (3, 2)]


def test_oracle_peak_memory_per_direction(monkeypatch):
    # one root table, one index and one cell array alive at a time: a
    # batch of three directions at p = 3, |t|_3 = 3^11 may not keep an
    # index or a gather per direction
    p, E = 3, 11
    phi = random_testfn(P3, 0, -2, seed=73)
    f = PiAlphaLog(1.5, trivial_character(P3), 0)
    request = req(f, phi, tuple(Fr(u, p**E) for u in (1, 2, 5)))
    brute_force_oracle(request)  # fills the word cache
    count_roots(monkeypatch)  # and no kept root classes: the table is built
    tracemalloc.start()
    try:
        brute_force_oracle(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 16 * p**E + 24 * (p - 1) * p ** (E - 1) + (64 << 10)
    assert peak <= bound, (peak, bound)


def test_oracle_checks_every_sphere_before_it_enumerates(monkeypatch):
    # at |t|_3 = 3^16 the top sphere needs 3^16 words, past the 2^24 cap:
    # the lower spheres' 3^15 cells are not summed before BadWindow
    enumerated = []
    real = qp._sphere_words

    def counted(p, n):
        enumerated.append((p, n))
        return real(p, n)

    monkeypatch.setattr(qp, "_sphere_words", counted)
    phi = random_testfn(P3, 0, -2, seed=70)
    for f in (PiAlphaLog(1.5, trivial_character(P3), 0), PLog(2)):
        for t in (Fr(1, 3**16), (Fr(1, 3), Fr(2, 3**16))):
            with pytest.raises(BadWindow, match=r"too large: 3\^16 words"):
                brute_force_oracle(req(f, phi, t))
            assert enumerated == []
    brute_force_oracle(req(PLog(2), phi, Fr(1, 3)))
    assert enumerated


def primitive_rank2(prime):
    """A character of (Z/p^2)^* of rank 2: pi_1(g^j) = e^(2 pi i j / phi(p^2))."""
    p = prime.p
    mod, order = p * p, p * (p - 1)
    g = next(
        g for g in range(2, mod)
        if g % p and len({pow(g, j, mod) for j in range(order)}) == order
    )
    return NormedMultChar(prime, 2, {pow(g, j, mod): Fr(j, order) for j in range(order)})


@st.composite
def whole_j_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    prime = Prime(p)
    kinds = ["trivial", "rank2", "plog"] + (["quadratic"] if p > 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "plog":
        f = PLog(draw(st.integers(1, 4)))
    else:
        chr_ = {
            "trivial": trivial_character,
            "quadratic": quadratic_character,
            "rank2": primitive_rank2,
        }[kind](prime)
        alpha = complex(
            draw(st.floats(0.2, 2.5, exclude_min=True, exclude_max=True)),
            draw(st.floats(-1, 1)),
        )
        f = PiAlphaLog(alpha, chr_, draw(st.integers(0, 3)))
    # at most 3^5 cosets
    width = draw(st.integers(0, {2: 7, 3: 5, 5: 3}[p]))
    l = draw(st.integers(-3, 1))
    phi = random_testfn(prime, l + width, l, seed=draw(st.integers(0, 2**16)))
    k0 = f.pi1.k0 if isinstance(f, PiAlphaLog) else 0
    M = draw(st.integers(-phi.N - 2, -l + k0 + 2))  # threshold -l + k0 inside
    u = draw(st.sampled_from([1, 2, -1, Fr(1, 2 if p > 2 else 3)]))
    if u % p == 0:
        u = 1
    return f, phi, u * Fr(p) ** (-M)


def pairing_scale(f, phi, spheres):
    """1 + p^l sum|phi| max|density| over the given spheres."""
    prime = phi.prime
    mass = float(Fr(prime.p) ** phi.l) * float(abs(phi.values).sum())
    return 1 + mass * max(abs(density_on_sphere(f, prime, g)) for g in spheres)


@settings(max_examples=150, deadline=None)
@given(whole_j_cases())
def test_whole_j_matches_the_oracle(case):
    f, phi, t = case
    p = phi.prime.p
    M = -valuation(t, phi.prime)
    spheres = range(min(phi.l, -M) - 2, max(phi.N, 0) + 3)
    scale = pairing_scale(f, phi, spheres)
    J = singular_fourier(req(f, phi, t))
    assert abs(J - brute_force_oracle(req(f, phi, t))) <= 1e-12 * scale, J
    # the pairing is J where chi_p == 1 on B_max(N, 0)
    tiny = Fr(p) ** (max(phi.N, 0) + 1)
    assert abs(apply(f, phi) - brute_force_oracle(req(f, phi, tiny))) <= 1e-12 * scale


def test_mixed_batch_equals_its_single_t_evaluations():
    phi = random_testfn(P3, 1, -2, seed=5)
    mixed = (Fr(1, 9), Fr(2, 27), Fr(1, 18), Fr(5), Fr(-4, 243), Fr(2, 9))
    for f in (
        PiAlphaLog(1.5, trivial_character(P3), 1),
        PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1),
        PLog(2),
        DiracDelta(),
    ):
        batch = singular_fourier(req(f, phi, mixed))
        assert batch == [singular_fourier(req(f, phi, t)) for t in mixed]


#: reference (cell, t) evaluations allowed per example
BUDGET = 5000


def character_of_kind(prime, kind):
    if kind == "trivial":
        return trivial_character(prime)
    if kind == "quadratic":
        return quadratic_character(prime)
    return primitive_rank2(prime)


@st.composite
def batch_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    prime = Prime(p)
    kinds = ["trivial", "rank2", "plog"] + (["quadratic"] if p > 2 else [])
    kind = draw(st.sampled_from(kinds))
    chr_ = character_of_kind(prime, "trivial" if kind == "plog" else kind)
    if kind == "plog":
        f = PLog(draw(st.integers(1, 3)))
    else:
        alpha = draw(st.sampled_from([1.5, 0.7 + 0.3j, -0.4]))
        f = PiAlphaLog(alpha, chr_, draw(st.integers(0, 2)))
    width = draw(st.integers(0, {2: 5, 3: 3, 5: 2}[p]))
    l = draw(st.integers(-3, 1))
    phi = random_testfn(prime, l + width, l, seed=draw(st.integers(0, 2**16)))
    if draw(st.integers(0, 3)) == 0:
        return f, chr_, phi, None, 0  # the pairing, defined at the split 0
    l0 = draw(st.integers(l - 2, phi.N))

    def cells(t):
        spheres = split_spheres(phi, l0)
        return sum(p ** (g - cell_level(phi, chr_, g, t)) for g in spheres)

    # mixed norms on both sides of the threshold -l + k0, mixed directions
    q = 3 if p == 2 else 2
    unit = st.builds(
        Fr,
        st.integers(-(p**4), p**4).filter(lambda n: n % p),
        st.sampled_from([1, q, q * q]),
    )
    norms = st.integers(-phi.N - 2, -l + chr_.k0 + 2)
    point = st.builds(lambda u, M: u * Fr(p) ** (-M), unit, norms)
    points = draw(st.lists(point, min_size=1, max_size=12))
    ts, cost = [], 0
    for t in sorted(points, key=cells):
        if cost + cells(t) <= BUDGET:
            ts.append(t)
            cost += cells(t)
    assume(ts)  # an empty batch is refused (ZeroArgument), not evaluated
    return f, chr_, phi, tuple(ts), l0


@settings(max_examples=150, deadline=None)
@given(batch_cases())
def test_batched_j_matches_exact_angle_reference(case):
    # J and <f, phi> split at phi's l; the reference splits at the drawn l0
    f, chr_, phi, ts, l0 = case
    if ts is None:
        want, mass = reference_j(f, chr_, phi, None, l0)
        assert abs(apply(f, phi) - want) <= 1e-12 * mass, (apply(f, phi), want)
        return
    got = singular_fourier(req(f, phi, ts))
    for t, J in zip(ts, got):
        want, mass = reference_j(f, chr_, phi, t, l0)
        assert abs(J - want) <= 1e-12 * mass, (t, J, want)


#: per-cell reference evaluations allowed per oracle example
ORACLE_BUDGET = 2200


def oracle_cells(f, N, l, M, refine):
    """The oracle's spheres with their cell levels, [(g, lam)], and its
    tail boundary gamma*, for phi in D^l_N and |t|_p = p^M."""
    gamma_star = min(-M, l) - refine
    k = max(f.pi1.k0, 1) if isinstance(f, PiAlphaLog) else 1
    top = max(N, 0) if isinstance(f, PLog) else N
    spheres = range(gamma_star + 1, top + 1)
    return [(g, min(l, -M, g - k) - refine) for g in spheres], gamma_star


def reference_oracle(f, phi, t, refine):
    """(J, sum of |terms|) on the oracle's cells, one exact-angle term per
    cell, plus the oracle's closed-form tail."""
    prime = phi.prime
    chr_ = f.pi1 if isinstance(f, PiAlphaLog) else trivial_character(prime)
    spheres, gamma_star = oracle_cells(f, phi.N, phi.l, -valuation(t, prime), refine)
    terms = [phi.at_zero * _oracle_tail(f, prime)(gamma_star)]
    for g, lam in spheres:
        weight = density_on_sphere(f, prime, g) * float(Fr(prime.p) ** lam)
        # the PLog integrand on B_0 is phi(x) chi_p(xt) - phi(0)
        pinned = phi.at_zero if isinstance(f, PLog) and g <= 0 else 0
        for c in sphere_cosets(prime, g, lam):
            ct = p_power_denominator(c * t, prime.p)
            angle = eval_pi1(chr_, c) * chi(ct, prime).to_complex()
            terms.append(weight * (phi.at(c) * angle - pinned))
    return sum(terms), sum(map(abs, terms))


@st.composite
def oracle_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    prime = Prime(p)
    kinds = ["trivial", "plog"] + ["quadratic"] * (p > 2) + ["cubic"] * (p == 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "plog":
        f = PLog(draw(st.integers(1, 3)))
    else:
        chr_ = {
            "trivial": trivial_character,
            "quadratic": quadratic_character,
            "cubic": lambda _: cubic_mod9(),
        }[kind](prime)
        alpha = draw(st.sampled_from([1.5, 0.7 + 0.3j, -0.4]))
        f = PiAlphaLog(alpha, chr_, draw(st.integers(0, 2)))
    # E = N + log_p|t|_p: a table of at least p^6 roots; p^3 for p = 5,
    # whose 5^6 cells would cost the reference about a second per example
    E = draw(st.integers(*{2: (6, 8), 3: (6, 7), 5: (3, 4)}[p]))

    def cells(width, N, refine):
        # |t|_p = p^M with M = E - top, whatever t's unit
        M = E - (max(N, 0) if kind == "plog" else N)
        spheres, _ = oracle_cells(f, N, N - width, M, refine)
        return sum((p - 1) * p ** (g - lam - 1) for g, lam in spheres)

    # phi's width is E - 1, E or E + 1 digits: from E on, chi_p(xt) turns
    # within phi's cosets, so the sum carries the direction of t.  N < 0
    # takes a PLog's spheres above phi's support, up to S_0; a (width, N)
    # whose cells are past the budget even at refine 0 is not drawn
    windows = [(w, N) for w in (E - 1, E, E + 1) for N in (-1, 0, 1)
               if cells(w, N, 0) <= ORACLE_BUDGET]
    width, N = draw(st.sampled_from(windows))
    phi = random_testfn(prime, N, N - width, seed=draw(st.integers(0, 2**16)))
    top = max(N, 0) if kind == "plog" else N
    q = 3 if p == 2 else 2
    unit = st.integers(-(p**4), p**4).filter(lambda n: n % p)
    t = Fr(draw(unit), draw(st.sampled_from([1, q, q * q]))) * Fr(p) ** (top - E)
    refine = draw(st.integers(0, max(r for r in range(3) if cells(width, N, r) <= ORACLE_BUDGET)))
    return f, phi, t, refine


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
# refine 2, and PLogs whose rows cover the spheres between N < 0 and S_0
@example((PLog(2), random_testfn(P3, -1, -4, seed=1), Fr(2, 3**4), 2))
@example((PLog(3), random_testfn(P2, -2, -6, seed=2), Fr(3, 2**6), 2))
@example(
    (
        PiAlphaLog(0.7 + 0.3j, cubic_mod9(), 1),
        random_testfn(P3, 0, -4, seed=3),
        Fr(-5, 3**4),
        2,
    )
)
@example(
    (
        PiAlphaLog(1.5, trivial_character(P2), 2),
        random_testfn(P2, 1, -5, seed=4),
        Fr(7, 96),
        2,
    )
)
@example(
    (
        PiAlphaLog(-0.4, quadratic_character(P5), 0),
        random_testfn(P5, 0, -2, seed=5),
        Fr(3, 25),
        2,
    )
)
def test_oracle_matches_exact_angle_cells(case):
    f, phi, t, refine = case
    want, mass = reference_oracle(f, phi, t, refine)
    got = brute_force_oracle(req(f, phi, t), refine=refine)
    assert abs(got - want) <= 1e-12 * mass, (got, want)


def test_root_table_is_exact_to_a_few_ulps():
    if np.finfo(np.longdouble).precision <= np.finfo(float).precision:
        pytest.skip("the reference needs an extended-precision long double")
    eps = np.finfo(float).eps
    turn = 8 * np.arctan(np.longdouble(1))
    for p in (2, 3, 5, 7):
        for E in range(9):
            roots, n = _roots(p, E), p**E
            assert roots.shape == (n,)
            for lo in range(0, n, 1 << 18):
                k = np.arange(lo, min(n, lo + (1 << 18)))
                angle = turn * k / n
                err = np.hypot(
                    roots[k].real - np.cos(angle), roots[k].imag - np.sin(angle)
                )
                assert err.max() <= 4 * eps, (p, E, err.max() / eps)


def count_roots(monkeypatch):
    """Empty the oracle's cache of root classes, and give the list of the
    (p, d) of each root table it builds from now on."""
    from padicfourier import singular

    built = []

    def counted(p, E):
        built.append((p, E))
        return _roots(p, E)

    monkeypatch.setattr(singular, "_roots", counted)
    singular._kept.cache_clear()
    return built


def class_keys(norms, l, k0):
    """The (d, k) of the root classes that norms p^M meet on phi with
    constancy l, d = g + M > 0 and k = min(d, max(g - l, k0, 1)), on the
    spheres S_g, -M < g <= N = l + 3."""
    return {
        (g + M, min(g + M, max(g - l, k0, 1)))
        for M in norms
        for g in range(1 - M, l + 4)
    }


def test_oracle_builds_one_root_table_per_class_not_kept(monkeypatch):
    from padicfourier import singular

    built = count_roots(monkeypatch)
    phi = random_testfn(P3, 1, -2, seed=5)
    ts = (Fr(1, 9), Fr(2, 27), Fr(1, 18), Fr(-4, 243), Fr(2, 9))
    for f, k0 in (
        (PiAlphaLog(1.5, trivial_character(P3), 1), 0),
        (PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1), 2),
        (PLog(2), 0),
    ):
        singular._kept.cache_clear()
        built.clear()
        brute_force_oracle(req(f, phi, ts), refine=1)
        # the norms 3^2, 3^3 and 3^5 sum S_g down to g = -M on phi in
        # D^-2_1: one table per class (d, k), d = g + M from 1 to N + 5,
        # each once, however many norms, spheres and directions read it
        keys = class_keys((2, 3, 5), phi.l, k0)
        assert sorted(built) == sorted((3, d) for d, _ in keys)
        assert singular._kept.cache_info().currsize == len(keys)


def oracle_bits(J):
    return [(z.real.hex(), z.imag.hex()) for z in (J if isinstance(J, list) else [J])]


@pytest.mark.parametrize("refine", [0, 1, 2])
@pytest.mark.parametrize("family", ["trivial", "quadratic", "cubic", "plog"])
def test_a_warm_oracle_call_builds_no_table_and_keeps_the_bits(monkeypatch, family, refine):
    # a sphere's root classes depend on (p, d, k) alone: calls with any
    # phi, alpha, norm or direction that meet the same shapes build no
    # table, and read the bits a cold call computes
    from padicfourier import singular

    built = count_roots(monkeypatch)
    f = {
        "trivial": PiAlphaLog(1.5, trivial_character(P3), 1),
        "quadratic": PiAlphaLog(0.8 - 0.3j, quadratic_character(P3), 2),
        "cubic": PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1),
        "plog": PLog(2),
    }[family]
    phi = random_testfn(P3, 1, -2, seed=5)
    ts = (Fr(1, 9), Fr(2, 27), Fr(1, 18), Fr(-4, 243), Fr(2, 9))
    cold = []
    for t in ts:
        singular._kept.cache_clear()
        cold += oracle_bits(brute_force_oracle(req(f, phi, t), refine=refine))
    singular._kept.cache_clear()
    built.clear()
    assert oracle_bits(brute_force_oracle(req(f, phi, ts), refine=refine)) == cold
    assert built and len(built) == singular._kept.cache_info().currsize
    built.clear()
    assert oracle_bits(brute_force_oracle(req(f, phi, ts), refine=refine)) == cold
    assert [oracle_bits(brute_force_oracle(req(f, phi, t), refine=refine))[0] for t in ts] == cold
    # another phi and direction at the same window and norms
    other = random_testfn(P3, 1, -2, seed=6)
    brute_force_oracle(req(f, other, tuple(-2 * t for t in ts)), refine=refine)
    assert built == []


def test_kept_root_classes_are_read_only_and_own_their_bytes(monkeypatch):
    from padicfourier import singular

    count_roots(monkeypatch)
    phi = random_testfn(P3, 1, -2, seed=5)
    brute_force_oracle(req(PLog(2), phi, (Fr(1, 9), Fr(-4, 243))), refine=1)
    misses = singular._kept.cache_info().misses
    kept = [singular._kept(3, d, k) for d, k in class_keys((2, 5), phi.l, 0)]
    assert singular._kept.cache_info().misses == misses  # each one was kept
    for classes in kept:
        # no view: it would keep its whole root table alive
        assert not classes.flags.writeable and classes.base is None
        with pytest.raises(ValueError, match="read-only"):
            classes[0] = 0


def test_root_classes_keep_no_oversize_array_and_no_view(monkeypatch):
    from padicfourier import singular

    tables = []

    def kept_table(p, E):
        tables.append(_roots(p, E))
        return tables[-1]

    monkeypatch.setattr(singular, "_roots", kept_table)
    singular._kept.cache_clear()
    # classes mod 3^2 = 3^d are the whole table: kept as a read-only copy,
    # and the table they were taken from is not frozen
    kept = singular._classes(3, 2, 2)
    assert kept.base is None and not kept.flags.writeable
    assert tables[0].flags.writeable and not np.shares_memory(kept, tables[0])
    assert singular._classes(3, 2, 2) is kept and len(tables) == 1
    # 2^6 = 64 values are kept, 3^4 = 81 are not: each read folds them afresh
    assert singular._classes(2, 6, 6) is singular._classes(2, 6, 6)
    wide = singular._classes(3, 4, 4)
    assert wide.size == 81 and wide.flags.writeable
    assert singular._classes(3, 4, 4) is not wide and len(tables) == 4
    assert singular._kept.cache_info().currsize == 2


def test_oracle_keeps_its_root_classes_within_their_bound(monkeypatch):
    # phi in D^-9_1 at |t|_3 = 3^9: S_g reads the p^d-th roots, d = g + 9,
    # in classes mod p^d.  Those of S_-8 .. S_-6, 3 to 27 values, are kept;
    # the 3^4 to 3^10 values of the spheres above are not, and each of
    # their class sums, one per direction, builds its own table.  The bits
    # stay those of a cold call
    from padicfourier import singular

    built = count_roots(monkeypatch)
    f = PiAlphaLog(0.7 + 0.3j, quadratic_character(P3), 1)
    phi = random_testfn(P3, 1, -9, seed=8)
    ts = (Fr(1, 3**9), Fr(-5, 3**9))
    cold = oracle_bits(brute_force_oracle(req(f, phi, ts)))
    wide = [(3, d) for d in range(4, 11) for _ in ts]
    assert built == [(3, 1), (3, 2), (3, 3)] + wide
    built.clear()
    assert cold == oracle_bits(brute_force_oracle(req(f, phi, ts)))
    assert built == wide
    assert singular._kept.cache_info().currsize == 3
    assert all(singular._kept(3, d, d).size == 3**d for d in (1, 2, 3))
    # a cache of 2 classes evicts all the while, and keeps the bits of no
    # cache at all
    fold = singular._kept.__wrapped__
    small = random_testfn(P3, 1, -2, seed=5)
    for f in (PLog(2), PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1)):
        for refine in range(3):
            request = req(f, small, (Fr(1, 9), Fr(2, 27), Fr(-4, 243), Fr(1, 3**7)))
            monkeypatch.setattr(singular, "_kept", fold)
            want = oracle_bits(brute_force_oracle(request, refine=refine))
            monkeypatch.setattr(singular, "_kept", lru_cache(maxsize=2)(fold))
            for _ in range(2):
                assert oracle_bits(brute_force_oracle(request, refine=refine)) == want
                assert singular._kept.cache_info().currsize <= 2
    monkeypatch.undo()
    # more keys than the cache holds: at most 256 are kept, and each read,
    # evicted and folded again or not, holds the bits of a fresh fold.  A
    # stand-in of 64 values for each table keeps 2 x 60 x 6 keys cheap
    monkeypatch.setattr(singular, "_roots", lambda p, d: _roots(2, 6) * (d + 1j))
    singular._kept.cache_clear()
    try:
        keys = [(2, d, k) for d in range(1, 61) for k in range(1, 7)]
        for _ in range(2):
            for key in keys:
                got = singular._classes(*key)
                assert got.tobytes() == fold(*key).tobytes()
                assert singular._kept.cache_info().currsize <= 256
        assert singular._kept.cache_info()[2:] == (256, 256)  # maxsize, currsize
    finally:
        singular._kept.cache_clear()  # the stand-in's classes are no roots'


def test_concurrent_oracle_calls_keep_the_bits():
    # four threads fill and read the one cache of root classes at once,
    # each with the same batch: every one gets the bits of a serial call
    from padicfourier import singular

    phi = random_testfn(P3, 1, -2, seed=5)
    request = req(
        PiAlphaLog(0.9 + 0.4j, cubic_mod9(), 1),
        phi,
        (Fr(1, 9), Fr(2, 27), Fr(1, 18), Fr(-4, 243), Fr(1, 3**7)),
    )
    singular._kept.cache_clear()
    serial = oracle_bits(brute_force_oracle(request, refine=1))
    start = threading.Barrier(4)

    def run(_):
        start.wait()
        return oracle_bits(brute_force_oracle(request, refine=1))

    for _ in range(3):
        singular._kept.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(run, range(4))) == [serial] * 4


def test_a_j0_past_the_float_range_is_a_numeric_error():
    # near the pole at 0 the ball tail's weight (1 - 1/p)/(1 - p^-alpha) is
    # about 6e9 and p^(l0 alpha) about 1e300: each is a float, their product
    # is not, and J0 at the near point once returned inf+0j
    f = PiAlphaLog(1e-10, trivial_character(P3), 0)
    l0 = 6_300_000_000_000
    with pytest.raises(NumericOverflow, match="J0 is not a finite float"):
        j0_closed_form(f, l0, [(-l0, 1)], P3)


def test_j0_at_a_depth_where_the_power_underflows():
    # at |t|_3 = 3^100000 with m = 64, gamma^m (about 1e320) is past the
    # float range while p^(alpha gamma) underflows to 0: J is 0 like the
    # right-hand side, for trivial pi_1 (whose ball tail's (c ln p)^64 also
    # overflowed) and ramified pi_1 alike
    t = Fr(1, 3**100000)
    phi = random_testfn(P3, 1, -1, seed=3)
    for pi1 in (trivial_character(P3), quadratic_character(P3)):
        f = PiAlphaLog(1.5, pi1, 64)
        J = singular_fourier(SingularIntegralRequest(f, phi, t))
        assert J == predict_expansion(f, phi.l, P3).rhs(phi.at_zero, t) == 0
    # where the power is tiny but not 0 the product is finite, and equal
    f = PiAlphaLog(0.001, trivial_character(P2), 64)
    t = Fr(1, 2**70001)
    J = singular_fourier(SingularIntegralRequest(f, delta_indicator(P2, 0), t))
    rhs = predict_expansion(f, 0, P2).rhs(1.0, t)
    assert math.isfinite(abs(rhs)) and abs(J - rhs) <= 1e-12 * abs(rhs)
    # and where the product itself is past the float range it is typed,
    # at any depth (at t = 3^-2001 J read nan+nanj, past a finite gamma^m)
    for alpha, M in ((1e-6, 70001), (-0.3, 2001)):
        f = PiAlphaLog(alpha, quadratic_character(P3), 64)
        t = Fr(1, 3**M)
        # the power's own jet names gamma = 1 - M as c, and the order m
        with pytest.raises(NumericOverflow, match=rf"c = {1 - M}, alpha = .* \(order 64\)"):
            singular_fourier(SingularIntegralRequest(f, delta_indicator(P3, 0), t))
        with pytest.raises(NumericOverflow):
            predict_expansion(f, 0, P3).rhs(1.0, t)
