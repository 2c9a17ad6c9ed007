"""Regularized pairings of QAH distributions and the scaling law."""

import math
import random
from fractions import Fraction as Fr

import pytest

from padicfourier import (
    DiracDelta,
    NormedMultChar,
    PiAlphaLog,
    PLog,
    Prime,
    apply,
    brute_force_oracle,
    delta_indicator,
    enumerate_sphere_cosets,
    erdelyi_check,
    eval_pi1,
    fourier,
    gamma_pi,
    homogeneity_defect,
    j0_closed_form,
    quadratic_character,
    random_testfn,
    singular_fourier,
    table_character,
    trivial_character,
    verify_stabilization,
)
from padicfourier.distributions import (
    _annulus_product,
    _pairing,
    char_of,
    density_on_sphere,
)
from padicfourier.errors import BadWindow, NumericOverflow, PoleProximity, ZeroArgument
from padicfourier.gamma import logp_scaled
from padicfourier.singular import SingularIntegralRequest

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def cubic_mod9():
    return table_character(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def test_variant_validation():
    with pytest.raises(ValueError):
        PiAlphaLog(0, trivial_character(P2), 0)  # that's pi_0: use PLog/delta
    PiAlphaLog(0, quadratic_character(P3), 0)  # fine: ramified at alpha = 0
    with pytest.raises(ValueError):
        PLog(0)
    with pytest.raises(ValueError):
        PiAlphaLog(1, trivial_character(P2), -1)



def test_alpha_is_read_modulo_the_period_of_pi0():
    # |x|^alpha = p^(alpha gamma) with gamma an integer: alpha and
    # alpha + 2 pi i / ln p are one distribution, and its multiples are pi_0
    period = 2j * math.pi / math.log(3)
    for j in (1, 2, -1):
        with pytest.raises(ValueError, match="use PLog or DiracDelta"):
            PiAlphaLog(j * period, trivial_character(P3), 1)
    PiAlphaLog(period, quadratic_character(P3), 1)
    phi = random_testfn(P3, 1, -2, seed=81)
    ts = (Fr(1, 3), Fr(2, 27), Fr(5, 3**6), Fr(9))
    for chr_ in (trivial_character(P3), quadratic_character(P3)):
        f = PiAlphaLog(0.7 - 0.4j, chr_, 2)
        g = PiAlphaLog(f.alpha + period, chr_, 2)
        assert apply(g, phi) == pytest.approx(apply(f, phi), rel=1e-14)
        want = singular_fourier(SingularIntegralRequest(f, phi, ts))
        got = singular_fourier(SingularIntegralRequest(g, phi, ts))
        assert got == pytest.approx(want, rel=1e-14)

def test_apply_examples():
    # <P(1/|x|), Delta_0> = 0: no interior difference, no exterior support
    assert apply(PLog(1), delta_indicator(P3, 0)) == pytest.approx(0)
    # <pi_alpha, Delta_0> = (1 - 1/p)/(1 - p^-alpha)
    for p, alpha in ((2, 1.5), (3, 0.5 - 0.7j)):
        prime = Prime(p)
        f = PiAlphaLog(alpha, trivial_character(prime), 0)
        want = (1 - 1 / p) / (1 - complex(p) ** -alpha)
        assert apply(f, delta_indicator(prime, 0)) == pytest.approx(want)
    # ramified character: I_0 = 0, so <f, Delta_0> = 0
    for m in (0, 1, 3):
        f = PiAlphaLog(1.2, quadratic_character(P3), m)
        assert abs(apply(f, delta_indicator(P3, 0))) < 1e-14


def test_apply_dirac_delta():
    phi = random_testfn(P2, 1, -1, seed=1)
    assert apply(DiracDelta(), phi) == phi.at(0)


def test_apply_pole_proximity():
    with pytest.raises(PoleProximity):
        apply(PiAlphaLog(1e-15 + 0j, trivial_character(P2), 1), delta_indicator(P2, 0))


def test_apply_is_linear():
    rng = random.Random(31)
    fs = [
        PiAlphaLog(1.3 - 0.8j, trivial_character(P3), 1),
        PiAlphaLog(0.6, quadratic_character(P3), 2),
        PLog(2),
        DiracDelta(),
    ]
    for f in fs:
        for trial in range(5):
            a = random_testfn(P3, 1, -1, seed=100 + trial)
            b = random_testfn(P3, 1, -1, seed=200 + trial)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            combo = type(a)(P3, 1, -1, c * a.values + b.values)
            lhs = apply(f, combo)
            rhs = c * apply(f, a) + apply(f, b)
            assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))


def test_apply_agrees_with_direct_integral_for_positive_re_alpha():
    # with |t|_p <= p^-N, chi(xt) == 1 on the support, so the oracle's
    # absolutely convergent direct sum computes the plain pairing
    rng = random.Random(32)
    for trial in range(10):
        p = rng.choice([2, 3, 5])
        prime = Prime(p)
        pi1 = trivial_character(prime)
        if p == 3 and trial % 2:
            pi1 = quadratic_character(prime)
        alpha = complex(rng.uniform(0.2, 2.8), rng.uniform(-1.5, 1.5))
        f = PiAlphaLog(alpha, pi1, rng.randint(0, 2))
        phi = random_testfn(prime, 1, -1, seed=300 + trial)
        t = Fr(p) ** 1  # |t| = p^-1 <= p^-N
        direct = brute_force_oracle(SingularIntegralRequest(f, phi, t))
        reg = apply(f, phi)
        assert abs(direct - reg) < 1e-10 * (1 + abs(reg)), (p, alpha, f.m)


def test_homogeneity_defect_examples():
    phi = random_testfn(P2, 1, -1, seed=5)
    assert abs(homogeneity_defect(DiracDelta(), phi, Fr(1, 2))) < 1e-14
    d0 = delta_indicator(P2, 0)
    f = PiAlphaLog(2, trivial_character(P2), 0)
    assert abs(homogeneity_defect(f, d0, Fr(1, 2))) < 1e-12
    f1 = PiAlphaLog(2, trivial_character(P2), 1)
    assert abs(homogeneity_defect(f1, d0, Fr(1, 2))) < 1e-12
    with pytest.raises(ZeroArgument):
        homogeneity_defect(f, d0, 0)


def defect_scale(f, phi, t):
    lead = abs(apply(f, phi)) + abs(phi.at(0)) + 1
    return lead


def test_homogeneity_defect_all_variants():
    rng = random.Random(33)
    variants = [
        PiAlphaLog(1.5, trivial_character(P3), 0),
        PiAlphaLog(-0.4 + 0.2j, trivial_character(P3), 1),
        PiAlphaLog(2.0, trivial_character(P3), 2),
        PiAlphaLog(1.0, quadratic_character(P3), 1),
        PiAlphaLog(0.8 + 0.5j, cubic_mod9(), 2),
        PLog(1),
        PLog(2),
        PLog(3),
        DiracDelta(),
    ]
    for f in variants:
        for trial in range(10):
            phi = random_testfn(P3, 1, -1, seed=500 + trial)
            for e in (-2, -1, 1, 2):
                t = Fr(rng.choice([1, 2])) * Fr(3) ** e
                d = homogeneity_defect(f, phi, t)
                assert abs(d) < 1e-10 * defect_scale(f, phi, t), (f, e, abs(d))


def test_character_prime_must_match_test_function():
    # a p = 5 pi_1 against a p = 3 phi is rejected, not summed to 0j
    phi = delta_indicator(P3, 0)
    for pi1 in (quadratic_character(P5), trivial_character(P5)):
        f = PiAlphaLog(1.5, pi1, 0)
        req = SingularIntegralRequest(f, phi, Fr(1, 3))
        for call in (
            lambda: apply(f, phi),
            lambda: singular_fourier(req),
            lambda: brute_force_oracle(req),
            lambda: verify_stabilization(f, phi, 1, 3, strict=False),
            lambda: erdelyi_check(1.5, pi1, 0, phi, 1, 3, strict=False),
        ):
            with pytest.raises(BadWindow, match="pi_1 is over p = 5, phi over p = 3"):
                call()


def enumerated_pairing(f, phi):
    """<f, phi> for N <= 0 by plain cell enumeration of the interior spheres
    S_{l+1} .. S_0, where the integrand is (phi - phi(0)) pi_1."""
    prime = phi.prime
    chr_ = f.pi1 if isinstance(f, PiAlphaLog) else trivial_character(prime)
    total = 0j
    for g in range(phi.l + 1, 1):
        lam = min(phi.l, g - max(chr_.k0, 1))
        cells = sum(
            (phi.at(c) - phi.at_zero) * eval_pi1(chr_, c).to_complex()
            for c in enumerate_sphere_cosets(prime, g, lam)
        )
        total += density_on_sphere(f, prime, g) * cells * float(Fr(prime.p) ** lam)
    if isinstance(f, PiAlphaLog):
        total += phi.at_zero * j0_closed_form(f, 0, None, prime)  # I_0
    return total


def test_apply_beyond_the_support_matches_enumeration():
    # for N < 0 the spheres S_{N+1} .. S_0 carry the constant -phi(0) pi_1,
    # which apply takes in closed form instead of cell by cell
    for p in (2, 3, 5):
        prime = Prime(p)
        chars = [trivial_character(prime)]
        if p > 2:
            chars.append(quadratic_character(prime))
        variants = [PLog(1), PLog(3)] + [
            PiAlphaLog(alpha, c, m)
            for c in chars
            for alpha, m in ((1.5, 0), (-0.3 + 0.2j, 1))
        ]
        for N, width in ((-1, 1), (-2, 2), (-3, 0)):
            phi = random_testfn(prime, N, N - width, seed=900 + p - N)
            scale = float(Fr(p) ** phi.l) * float(abs(phi.values).sum())
            for f in variants:
                err = abs(apply(f, phi) - enumerated_pairing(f, phi))
                assert err <= 1e-12 * scale, (p, N, width, f)


def test_apply_below_the_unit_ball_is_the_ball_jet():
    # phi = Delta_{-8}: <f, phi> is phi(0) times the continued integral of
    # |x|^{alpha-1} over B_{-8}, (1-1/p) p^{-8 alpha} / (1-p^{-alpha}), with no
    # cancellation between sphere sums and I_0
    eps = 2.0**-52
    for p in (2, 3, 5):
        prime = Prime(p)
        f = PiAlphaLog(1.4, trivial_character(prime), 0)
        want = (1 - 1 / p) * p ** (-11.2) / (1 - p ** (-1.4))
        got = apply(f, delta_indicator(prime, -8))
        assert abs(got - want) <= 8 * eps * abs(want), (p, got, want)


def test_homogeneity_scale_overflow_is_a_numeric_error():
    # |t|_3^alpha = 3^2000 is beyond the floating range
    phi = random_testfn(P3, -10, -12, 1)
    with pytest.raises(NumericOverflow):
        homogeneity_defect(PiAlphaLog(400, trivial_character(P3), 0), phi, Fr(1, 3**5))


def inverse(pi1: NormedMultChar) -> NormedMultChar:
    angles = {u: -value.angle for u, value in pi1.unit_values.items()}
    return table_character(pi1.prime, pi1.k0, angles)


def test_fourier_duality():
    # <f, F[phi]> = <F[f], phi> with F[f] = sum_k C(m,k) (-1)^(m-k) g_k
    # PiAlphaLog(1 - alpha, pi_1^-1, m - k), g = the log_p-scaled Gamma jet
    characters = [
        trivial_character(P2),
        table_character(P2, 2, {1: Fr(0), 3: Fr(1, 2)}),
        trivial_character(P3),
        quadratic_character(P3),
        cubic_mod9(),
        trivial_character(P5),
        quadratic_character(P5),
    ]
    alphas = (1.3 + 0.2j, 0.7, 2.5 - 0.4j, -0.6 + 0.3j)
    worst = 0.0
    for pi1 in characters:
        prime, inv = pi1.prime, inverse(pi1)
        windows = [(1, -1), (0, -2), (2, 0)] if prime.p > 2 else [(1, -2), (0, -3), (3, 0)]
        for alpha in alphas:
            for m in (0, 1, 3):
                f = PiAlphaLog(alpha, pi1, m)
                g = logp_scaled(gamma_pi(alpha, pi1, m), prime.p).coeffs
                for seed, (N, l) in enumerate(windows):
                    phi = random_testfn(prime, N, l, seed)
                    lhs = apply(f, fourier(phi))
                    rhs = sum(
                        math.comb(m, k) * (-1) ** (m - k) * g[k]
                        * apply(PiAlphaLog(1 - alpha, inv, m - k), phi)
                        for k in range(m + 1)
                    )
                    err = abs(lhs - rhs) / (1 + abs(lhs))
                    assert err < 1e-12, (pi1, alpha, m, N, l, lhs, rhs)
                    worst = max(worst, err)
    assert worst > 0  # the two sides are computed on different paths


@pytest.mark.parametrize(
    "pi1", [trivial_character(P3), quadratic_character(P3), cubic_mod9()],
    ids=["trivial", "quadratic", "cubic"],
)
def test_f_h_read_by_index_equals_the_transform_at_t(pi1):
    # the pairing reads F[h] at t = u p^-M as the word u p^(-lam-M) of the
    # table; it must give the very floats TestFunction.at gives, on grids
    # that run from inside the cutoff |t|_p <= p^-lam to past it
    f = PiAlphaLog(0.8 - 0.3j, pi1, 1)
    units = [1, 2, 4, 5, -7, Fr(2, 5), Fr(-11, 7)]
    for phi in (random_testfn(P3, 1, -2, seed=90), delta_indicator(P3, -1)):
        l0 = phi.l
        transform = fourier(_annulus_product(f, phi, char_of(f, P3), l0))
        ts = [Fr(u) * Fr(3) ** -M for M in range(-3, 7) for u in units]
        got = _pairing(f, phi, ts, l0)
        for t, J in zip(ts, got):
            want = transform.at(t) + phi.at_zero * j0_closed_form(f, l0, t, P3)
            assert J == want, t
