"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import math
import random
import time
from fractions import Fraction as Fr
from math import comb

from padicfourier import (
    NormedMultChar,
    DiracDelta,
    PiAlphaLog,
    PLog,
    Prime,
    SingularIntegralRequest,
    apply,
    bernoulli,
    brute_force_oracle,
    delta_indicator,
    erdelyi_check,
    eval_pi1,
    faulhaber_sum,
    fourier,
    gamma_p,
    homogeneity_defect,
    quadratic_character,
    random_testfn,
    singular_fourier,
    trivial_character,
    verify_stabilization,
)
from padicfourier.distributions import char_of
from padicfourier.singular import j0_closed_form

from conftest import reference_j, sphere_cosets

P2, P3, P5 = Prime(2), Prime(3), Prime(5)

ALPHAS = [2, Fr(1, 2), -0.7 + 0.3j, 1.3 - 1.1j]


def cubic_mod9():
    return NormedMultChar(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def phi_family(prime, seeds=range(5)):
    out = [delta_indicator(prime, 0), delta_indicator(prime, -2)]
    out += [random_testfn(prime, 2, -2, seed=1000 + s) for s in seeds]
    return out


def test_criterion_1_power_case():
    t0 = time.monotonic()
    checked = 0
    for p in (2, 3, 5):
        prime = Prime(p)
        triv = trivial_character(prime)
        for alpha in ALPHAS:
            f = PiAlphaLog(complex(alpha), triv, 0)
            for phi in phi_family(prime):
                rep = verify_stabilization(
                    f, phi, -phi.l + 1, -phi.l + 6, units_per_sphere=3
                )
                assert rep.ok
                # the RHS really is phi(0) Gamma_p(alpha) / |t|^alpha
                g = gamma_p(prime, complex(alpha), 0).value
                for r in rep.rows:
                    want = phi.at_zero * g * p ** (-complex(alpha) * r.M)
                    assert abs(r.rhs - want) < 1e-12 * (1 + abs(want))
                    assert r.abs_err < 1e-9 * (1 + abs(r.rhs))
                checked += len(rep.rows)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 1 runtime {elapsed:.1f}s exceeds 30s"
    passed(1, f"power case exact on {checked} rows in {elapsed:.1f}s")


def test_criterion_2_log_weight_case():
    t0 = time.monotonic()
    checked = 0
    for p in (2, 3, 5):
        prime = Prime(p)
        triv = trivial_character(prime)
        for alpha in ALPHAS:
            for m in (1, 2, 3):
                f = PiAlphaLog(complex(alpha), triv, m)
                for phi in phi_family(prime, seeds=range(2)):
                    rep = verify_stabilization(f, phi, -phi.l + 1, -phi.l + 6)
                    assert rep.ok
                    checked += len(rep.rows)
    # theta-jets behind the RHS validated independently by central
    # differences, theta = log_p(e) d/dalpha
    h = 1e-5
    rng = random.Random(2024)
    for _ in range(12):
        prime = Prime(rng.choice([2, 3, 5]))
        alpha = complex(rng.uniform(0.3, 2.5), rng.uniform(-1.0, 1.0))
        jet = gamma_p(prime, alpha, 3)
        for k in range(1, 4):
            fd = (
                gamma_p(prime, alpha + h, 3).coeffs[k - 1]
                - gamma_p(prime, alpha - h, 3).coeffs[k - 1]
            ) / (2 * h) / math.log(prime.p)
            assert abs(jet.coeffs[k] - fd) < 1e-4 * (1 + abs(fd))
    elapsed = time.monotonic() - t0
    passed(2, f"log-weight case exact on {checked} rows, jets FD-validated "
              f"({elapsed:.1f}s)")


def test_criterion_3_principal_log_case():
    t0 = time.monotonic()
    checked = 0
    for p in (2, 3):
        prime = Prime(p)
        phis = [delta_indicator(prime, 0), delta_indicator(prime, -1)]
        phis += [random_testfn(prime, 1, -1, seed=2000 + s) for s in range(3)]
        for m in (1, 2, 3, 4):
            f = PLog(m)
            for phi in phis:
                rep = verify_stabilization(f, phi, -phi.l + 1, -phi.l + 6)
                assert rep.ok
                for r in rep.rows:
                    t = Fr(r.t_unit) * Fr(p) ** (-r.M)
                    oracle = brute_force_oracle(SingularIntegralRequest(f, phi, t))
                    assert abs(r.J - oracle) < 1e-9 * (1 + abs(r.J)), (p, m, r.M)
                checked += len(rep.rows)
    elapsed = time.monotonic() - t0
    passed(3, f"Bernoulli case exact and oracle-matched on {checked} rows "
              f"({elapsed:.1f}s)")


def test_criterion_4_ramified_case():
    t0 = time.monotonic()
    chars = [quadratic_character(P3), quadratic_character(P5), cubic_mod9()]
    checked = 0
    for chr_ in chars:
        prime = chr_.prime
        phis = [delta_indicator(prime, 0), random_testfn(prime, 1, -1, seed=31)]
        for alpha in (1, 1.5, -0.4 + 0.2j):
            for m in (0, 1, 2):
                f = PiAlphaLog(complex(alpha), chr_, m)
                for phi in phis:
                    e_pred = chr_.k0 - phi.l
                    rep = verify_stabilization(f, phi, e_pred + 1, e_pred + 4)
                    assert rep.ok
                    checked += len(rep.rows)
                    # unit-direction ratio J(u1 t)/J(u2 t) = pi_1(u2)/pi_1(u1)
                    M = e_pred + 2
                    u1, u2 = 1, 2
                    J1 = singular_fourier(
                        SingularIntegralRequest(f, phi, Fr(u1) * Fr(prime.p) ** -M)
                    )
                    J2 = singular_fourier(
                        SingularIntegralRequest(f, phi, Fr(u2) * Fr(prime.p) ** -M)
                    )
                    if abs(J1) > 1e-12:
                        want = eval_pi1(chr_, u2) / eval_pi1(chr_, u1)
                        assert abs(J1 / J2 - want) < 1e-9
    elapsed = time.monotonic() - t0
    passed(4, f"ramified case exact on {checked} rows incl. unit-direction "
              f"ratios ({elapsed:.1f}s)")


def test_criterion_5_pinned_values():
    f = PiAlphaLog(2, trivial_character(P2), 0)
    d0 = delta_indicator(P2, 0)
    req = SingularIntegralRequest(f, d0, Fr(1, 2))
    assert abs(singular_fourier(req) - (-1 / 3)) < 1e-12
    assert abs(brute_force_oracle(req) - (-1 / 3)) < 1e-12
    g = PLog(1)
    e0 = delta_indicator(P3, 0)
    req = SingularIntegralRequest(g, e0, Fr(1, 3))
    assert abs(singular_fourier(req) - (-1)) < 1e-12
    assert abs(brute_force_oracle(req) - (-1)) < 1e-12
    passed(5, "pinned values -1/3 and -1 reproduced by both code paths")


def test_criterion_6_erdelyi():
    t0 = time.monotonic()
    rng = random.Random(66)
    done = 0
    while done < 20:
        p = rng.choice([2, 3, 5])
        prime = Prime(p)
        use_quad = p != 2 and rng.random() < 0.5
        pi1 = quadratic_character(prime) if use_quad else trivial_character(prime)
        alpha = complex(rng.uniform(0.05, 2.95), rng.uniform(-1.0, 1.0))
        m = rng.randint(0, 2)
        N, l = rng.choice([(0, -1), (1, -1), (1, 0)])
        phi = random_testfn(prime, N, l, seed=4000 + done)
        e_pred = pi1.k0 - l
        rep = erdelyi_check(alpha, pi1, m, phi, e_pred + 1, e_pred + 4,
                            units_per_sphere=2)
        assert rep.ok, (p, alpha, m, pi1.k0)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 6 runtime {elapsed:.1f}s exceeds 60s"
    passed(6, f"Erdelyi direct-integral equality on 20 random configs "
              f"({elapsed:.1f}s)")


def test_criterion_7_structural_identities():
    rng = random.Random(77)
    # Fourier involution and window swap on 50 random phi
    for trial in range(50):
        p = rng.choice([2, 3, 5])
        prime = Prime(p)
        N = rng.randint(0, 2)
        l = N - rng.randint(1, 3 if p < 5 else 2)
        phi = random_testfn(prime, N, l, seed=5000 + trial)
        F = fourier(phi)
        assert (F.N, F.l) == (-l, -N)  # exact support/constancy swap
        FF = fourier(F)
        assert (FF.N, FF.l) == (N, l)
        from padicfourier import enumerate_cosets

        for c in enumerate_cosets(prime, N, l):
            assert abs(FF.at(c) - phi.at(-c)) < 1e-12
    # Gamma reflection on 50 random alpha
    for trial in range(50):
        alpha = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if abs(1 - 2.0 ** -complex(alpha)) < 1e-3:
            continue
        prod = gamma_p(P2, alpha, 0).value * gamma_p(P2, 1 - alpha, 0).value
        assert abs(prod - 1) < 1e-12
    # Bernoulli recurrence exact through B_20
    for g in range(2, 22):
        assert sum(comb(g, r) * bernoulli(r) for r in range(g)) == 0
    # Faulhaber polynomial vs brute force
    for s in range(9):
        for g0 in range(-12, 13):
            brute = (
                sum(Fr(g) ** s for g in range(1, g0 + 1))
                if g0 >= 0
                else -sum(Fr(g) ** s for g in range(g0 + 1, 1))
            )
            assert faulhaber_sum(s, g0) == brute
    # homogeneity defect for every implemented variant
    variants = [
        PiAlphaLog(1.5, trivial_character(P3), 0),
        PiAlphaLog(2.0, trivial_character(P3), 1),
        PiAlphaLog(-0.4 + 0.2j, trivial_character(P3), 2),
        PiAlphaLog(1.0, quadratic_character(P3), 1),
        PiAlphaLog(0.8 + 0.5j, cubic_mod9(), 2),
        PLog(1),
        PLog(2),
        PLog(3),
        DiracDelta(),
    ]
    for f in variants:
        for trial in range(10):
            phi = random_testfn(P3, 1, -1, seed=6000 + trial)
            for e in (-2, -1, 1, 2):
                d = homogeneity_defect(f, phi, Fr(3) ** e)
                scale = 1 + abs(apply(f, phi)) + abs(phi.at_zero)
                assert abs(d) < 1e-10 * scale
    # vanishing lemma: the sphere part F[h] is an exact zero beyond p^-l
    # (trivial pi_1), so J, split at phi's l, is phi(0) J0 exactly; the
    # per-cell reference split at l and at l + 1 agrees with it
    for p in (2, 3):
        prime = Prime(p)
        phi = random_testfn(prime, 1, -1, seed=7000 + p)
        chr_ = trivial_character(prime)
        for f in (PiAlphaLog(1.3, chr_, 1), PLog(2)):
            for M in (2, 4, 6):
                t = Fr(p) ** (-M)
                J = singular_fourier(SingularIntegralRequest(f, phi, t))
                assert J == phi.at_zero * j0_closed_form(f, phi.l, [(M, 1)], prime)[0]
                for l0 in (phi.l, phi.l + 1):
                    want, mass = reference_j(f, chr_, phi, t, l0)
                    assert abs(J - want) <= 1e-12 * mass, (f, t, l0)
    # log-Fourier identity on 10 pairings
    for p in (2, 3):
        prime = Prime(p)
        for trial in range(5):
            psi = random_testfn(prime, 1, -1, seed=8000 + trial)
            F = fourier(psi)
            acc = 0j
            for g in range(F.l + 1, F.N + 1):
                for c in sphere_cosets(prime, g, F.l):
                    acc += g * F.at(c) * float(Fr(p) ** F.l)
            x = Fr(1, p)
            tail = Fr(p) ** F.l * (F.l / (1 - x) - x / (1 - x) ** 2)
            acc += F.at(0) * float(tail) * (1 - 1 / p)
            lhs = (1 - 1 / p) * acc
            rhs = -apply(PLog(1), psi) - psi.at(0) / p
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))
    passed(7, "structural identities (Fourier, reflection, Bernoulli, "
              "Faulhaber, scaling law, vanishing lemmas, log-Fourier)")


def test_criterion_8_split_level_independence():
    rng = random.Random(88)
    done = 0
    while done < 20:
        p = rng.choice([2, 3])
        prime = Prime(p)
        pi1 = trivial_character(prime)
        if p == 3 and rng.random() < 0.4:
            pi1 = rng.choice([quadratic_character(prime), cubic_mod9()])
        if rng.random() < 0.3:
            f = PLog(rng.randint(1, 3))
        else:
            f = PiAlphaLog(
                complex(rng.uniform(-1.5, 2.5), rng.uniform(-1, 1)),
                pi1,
                rng.randint(0, 2),
            )
        phi = random_testfn(prime, 1, -1, seed=9000 + done)
        M = rng.randint(-1, 5)
        t = Fr(rng.choice([1, p + 1, 2 * p + 1])) * Fr(p) ** (-M)
        # J splits at phi's l; the per-cell reference splits at every l0
        base = singular_fourier(SingularIntegralRequest(f, phi, t))
        for l0 in range(phi.l - 2, min(phi.N, phi.l + 2) + 1):
            v, _ = reference_j(f, char_of(f, prime), phi, t, l0)
            assert abs(v - base) <= 1e-10 * (1 + abs(base)), (f, t, l0)
        done += 1
    passed(8, "split-level independence on 20 random requests, l0 in "
              "{l-2..l+2}")
