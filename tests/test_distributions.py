"""Regularized pairings of QAH distributions and the scaling law."""

import math
import random
import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padicfourier import (
    DiracDelta,
    NormedMultChar,
    PiAlphaLog,
    PLog,
    Prime,
    apply,
    brute_force_oracle,
    delta_indicator,
    erdelyi_check,
    eval_pi1,
    fourier,
    gamma_pi,
    homogeneity_defect,
    j0_closed_form,
    quadratic_character,
    random_testfn,
    singular_fourier,
    trivial_character,
    verify_stabilization,
)
from padicfourier import qp
from padicfourier.distributions import (
    _AnnulusProduct,
    _pairing,
    char_of,
    density_on_sphere,
)
from padicfourier.errors import BadWindow, NumericOverflow, PoleProximity, ZeroArgument
from padicfourier.singular import SingularIntegralRequest
from padicfourier.testfn import TestFunction

from conftest import sphere_cosets

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def cubic_mod9():
    return NormedMultChar(
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


def test_the_delta_has_no_sphere_density_and_no_j0():
    # the pairing core answers the delta before either is asked
    with pytest.raises(TypeError, match="no sphere density"):
        density_on_sphere(DiracDelta(), P3, 1)
    with pytest.raises(TypeError, match="no J0 closed form"):
        j0_closed_form(DiracDelta(), 0, [(0, 1)], P3)


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
            (phi.at(c) - phi.at_zero) * eval_pi1(chr_, c)
            for c in sphere_cosets(prime, g, lam)
        )
        total += density_on_sphere(f, prime, g) * cells * float(Fr(prime.p) ** lam)
    if isinstance(f, PiAlphaLog):
        total += phi.at_zero * j0_closed_form(f, 0, [(0, 1)], prime)[0]  # I_0
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
    # negated angles: the integer numerators a_u over den, as pi1 keeps them
    den, angles = pi1._angles
    return NormedMultChar(pi1.prime, pi1.k0, {u: Fr(-a, den) for u, a in angles})


def test_fourier_duality():
    # <f, F[phi]> = <F[f], phi> with F[f] = sum_k C(m,k) (-1)^(m-k) g_k
    # PiAlphaLog(1 - alpha, pi_1^-1, m - k), g = the log_p-scaled Gamma jet
    characters = [
        trivial_character(P2),
        NormedMultChar(P2, 2, {1: Fr(0), 3: Fr(1, 2)}),
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
                g = gamma_pi(alpha, pi1, m).coeffs
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


def test_fourier_duality_of_the_degree_pi0_family():
    # F[delta] = 1 and F[P(1/|x|_p)](xi) = -(1 - 1/p) log_p|xi|_p - 1/p, the
    # second sphere by sphere; 1 and log_p|x|_p are PiAlphaLog at alpha = 1
    for p in (2, 3, 5):
        prime = Prime(p)
        one = PiAlphaLog(1, trivial_character(prime), 0)
        log = PiAlphaLog(1, trivial_character(prime), 1)
        windows = [(1, -1), (0, -2), (2, 0), (-1, -3), (3, 1)]
        for seed, (N, l) in enumerate(windows):
            phi = random_testfn(prime, N, l, 40 + seed)
            pairs = [
                (apply(DiracDelta(), fourier(phi)), apply(one, phi)),
                (
                    apply(PLog(1), fourier(phi)),
                    -(1 - 1 / p) * apply(log, phi) - apply(one, phi) / p,
                ),
            ]
            for lhs, rhs in pairs:
                err = abs(lhs - rhs) / (1 + abs(lhs))
                assert err < 1e-12, (p, N, l, lhs, rhs)


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
        transform = fourier(_AnnulusProduct(f, phi, char_of(f, P3), l0))
        ts = [Fr(u) * Fr(3) ** -M for M in range(-3, 7) for u in units]
        got = _pairing(f, phi, SingularIntegralRequest(f, phi, ts)._grid, l0)
        for t, J in zip(ts, got):
            point = qp.split(t, P3, pi1.k0)
            want = transform.at(t) + phi.at_zero * j0_closed_form(f, l0, [point], P3)[0]
            assert J == want, t


def broadcast_annulus_product(f, phi, chr_, l0):
    """The annulus product's values, each sphere's density times the cell
    measure p^lam, with each sphere multiplied as one broadcast over rows
    of p^k words, p - 1 words per numpy inner loop."""
    prime = phi.prime
    p, N, l = prime.p, phi.N, phi.l
    k = max(chr_.k0, 1)
    out = np.tile(phi.values, p ** (k - 1))
    out[:: p ** (N - l0)] -= phi.values[0]
    pi1 = np.resize(chr_.complex_table(), p**k).reshape(-1, p)[:, 1:]
    for v in range(N - l):
        sphere = out[:: p**v].reshape(-1, p ** (k - 1), p)[..., 1:]
        sphere *= density_on_sphere(f, prime, N - v, l + 1 - k) * pi1
    return out


def generated_character(prime, k0, g):
    """The character of (Z/p^k0)^* that sends the generator g to
    e^(2 pi i / order); primitive, so of rank k0."""
    mod = prime.p**k0
    order = mod - mod // prime.p
    angles, x = {}, 1
    for j in range(order):
        angles[x] = Fr(j, order)
        x = x * g % mod
    return NormedMultChar(prime, k0, angles)


ANNULUS_CHARACTERS = {
    2: [trivial_character(P2), generated_character(P2, 2, 3)],
    3: [trivial_character(P3), quadratic_character(P3), generated_character(P3, 3, 2)],
    5: [trivial_character(P5), quadratic_character(P5), generated_character(P5, 2, 2)],
}


@pytest.mark.parametrize("p", sorted(ANNULUS_CHARACTERS))
def test_annulus_product_keeps_the_broadcast_bits(p):
    # the sphere multiply runs along the rows, not the residues; every word
    # must still get the very product, to the bit, on every sphere down to
    # the deepest (p - 1 words on a one-digit window) and at every l0
    prime = Prime(p)
    fs = [PLog(m) for m in (1, 2, 3)] + [
        PiAlphaLog(1.3 - 0.6j, chr_, m)
        for chr_ in ANNULUS_CHARACTERS[p]
        for m in (0, 2)
    ]
    for width in range(1, 8):
        N = width % 3 - 1
        phi = random_testfn(prime, N, N - width, seed=10 * p + width)
        for f in fs:
            chr_ = char_of(f, prime)
            for l0 in range(phi.l, N + 1):
                got = _AnnulusProduct(f, phi, chr_, l0)
                want = broadcast_annulus_product(f, phi, chr_, l0)
                assert got.values.tobytes() == want.tobytes(), (width, f, l0)


#: the characters each fold table is read with: every rank up to mod 25,
#: and at p = 3 a rank-6 pi_1, which on the 3^8 table leaves phi 3^3
#: words, fewer than a 3^4-word row of the layout
FOLD_CHARACTERS = {
    2: [trivial_character(P2), generated_character(P2, 2, 3)],
    3: [
        trivial_character(P3),
        quadratic_character(P3),
        cubic_mod9(),
        generated_character(P3, 6, 2),
    ],
    5: [trivial_character(P5), quadratic_character(P5), generated_character(P5, 2, 2)],
}


@pytest.mark.parametrize(
    "prime, n", [(P3, 8), (P3, 9), (P2, 12), (P5, 6)], ids=["3^8", "3^9", "2^12", "5^6"]
)
def test_folded_partial_transform_equals_the_transform_of_h(monkeypatch, prime, n):
    # a few words of h's p^n-word table are read straight from phi's table,
    # the sphere factors folded into the partial transform: within
    # fourier_at's 2 n eps ||p^lam h||_1 of the FFT of the built h (its
    # values carry the cell measure p^lam), for every family, at every
    # split level and at words u p^s of every valuation
    from padicfourier import testfn

    p = prime.p
    fs = [PiAlphaLog(0.7 - 0.4j, chr_, 1) for chr_ in FOLD_CHARACTERS[p]]
    fs += [PLog(m) for m in (1, 2, 3)]
    cases = []
    for f in fs:
        chr_ = char_of(f, prime)
        phi = random_testfn(prime, 1, max(chr_.k0, 1) - n, seed=10 * n + chr_.k0)
        for l0 in (phi.l, phi.l + 1, phi.N):
            h = _AnnulusProduct(f, phi, chr_, l0)
            assert h.N - h.l == n
            values = h.values
            bound = 2 * n * np.finfo(float).eps * float(np.abs(values).sum())
            cases.append((f, l0, h, fourier(h).values, bound))

    def unreachable(phi):
        raise AssertionError("a few-word read of h ran the full FFT")

    monkeypatch.setattr(testfn, "fourier", unreachable)
    units = np.array([1, 2, p - 1, p + 1, 7 * p + 2])
    for f, l0, h, want, bound in cases:
        for s in range(n + 1):
            words = units * p**s % p**n
            got = testfn.fourier_at(h, words)
            assert np.abs(got - want[words]).max() <= bound, (f, l0, s)


#: phi in D^(N-1)_N at p = 3 with values (1, 0.5, 0.25).  At N = 700 the
#: density of S_700 and the cell measure 3^699 are each past the float range
#: for one of the families, while their product and <f, phi> are not: <f, phi>
#: is the continued integral over B_699, (2/3) sum_(g <= 699) g^m 3^(alpha g),
#: plus S_700's 700^m 3^(700 alpha - 1) (0.5 + 0.25).  At N = -670 the cell
#: measure 3^-671 is subnormal, with about ten of its bits left
ONE_ABOVE_A_DELTA = [
    (700, PLog(3), float(Fr(2, 3) * sum(g * g for g in range(700)) + Fr(700**2, 4)), 4 * 2**-52),
    (
        700,
        PiAlphaLog(0.5, trivial_character(P3), 0),
        (2 / 3) * 3**349.5 / (1 - 3**-0.5) + 0.75 * 3.0**349,
        1e-12,  # exp of a ~380 argument carries ~380 eps
    ),
    (
        700,
        PiAlphaLog(0.5, trivial_character(P3), 2),
        math.fsum((2 / 3) * g * g * 3 ** (g / 2) for g in range(-200, 700))
        + 0.75 * 700**2 * 3.0**349,
        1e-12,
    ),
    (
        -670,
        PiAlphaLog(0.5, trivial_character(P3), 0),
        (2 / 3) * 3**-335.5 / (1 - 3**-0.5) + 0.75 * 3.0**-336,
        1e-12,
    ),
]


def test_a_delta_window_with_a_finite_value_evaluates():
    # on Delta_700 (N = l) h is 0 and J is phi(0) J0: p^lam = 3^700 is no
    # float, and nothing multiplies by it.  |t|_3 = 3^-705 puts chi_p == 1
    # on B_700, so J is <f, phi> there
    phi = delta_indicator(P3, 700)
    f = PiAlphaLog(0.5, trivial_character(P3), 0)
    want = j0_closed_form(f, 700, [(-700, 1)], P3)[0]
    series = (2 / 3) * 3.0**350 / (1 - 3**-0.5)  # (2/3) sum_(g <= 700) 3^(g/2)
    assert want.real == pytest.approx(series, rel=1e-13) and want.imag == 0
    assert apply(f, phi) == want
    assert singular_fourier(SingularIntegralRequest(f, phi, 3**705)) == want
    # PLog(3): (1 - 1/p) S_2(700) = (2/3) sum_(g <= 700) g^2, to the bit
    assert apply(PLog(3), phi) == float(Fr(2, 3) * sum(g * g for g in range(701)))
    # one level up, phi in D^(N-1)_N: each sphere's density carries the cell
    # measure, so the split never forms 3^699 (or 3^700) as a float, nor
    # multiplies by a subnormal 3^-671.  |t|_3 = 3^-(N+4) puts chi_p == 1 on
    # B_N, so J there is <f, phi>
    for N, f, want, rel in ONE_ABOVE_A_DELTA:
        phi = TestFunction(P3, N, N - 1, [1, 0.5, 0.25])
        value = apply(f, phi)
        assert value.imag == 0 and value.real == pytest.approx(want, rel=rel, abs=0), (N, f)
        request = SingularIntegralRequest(f, phi, Fr(3) ** (N + 4))
        J = singular_fourier(request)
        assert J == pytest.approx(value, rel=1e-13, abs=0)
        # the oracle takes each sphere's mass g^m 3^(alpha g) once, with no
        # cell measure 3^699 or 3^-671 of its own
        oracle = brute_force_oracle(request)
        assert oracle.imag == 0 and oracle.real == pytest.approx(want, rel=rel, abs=0), (N, f)
        report = verify_stabilization(f, phi, -N - 6, -N + 5, 2)
        assert report.ok and len([r for r in report.rows if r.M <= -N]) == 14
        assert all(r.J == J for r in report.rows if r.M <= -N)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    N=st.integers(-2, 2),
    width=st.integers(1, 3),
    family=st.sampled_from(["trivial", "ramified", "plog"]),
    m=st.integers(0, 2),
    alpha=st.tuples(st.floats(0.3, 2.5), st.floats(-1, 1)),
    seed=st.integers(0, 2**16),
    flat=st.booleans(),
    # across the range, and near each end of it more often
    s=st.integers(-1074, 1023) | st.integers(-1074, -1000) | st.integers(1000, 1023),
)
# the FFT of h passes the float range: J is taken at phi 2^-e, times 2^e
@example(p=3, N=1, width=2, family="ramified", m=1, alpha=(1.5, 0.0), seed=4, flat=True, s=1023)
def test_j_scales_with_phi_by_powers_of_two_to_the_bit(
    p, N, width, family, m, alpha, seed, flat, s
):
    # J is linear in phi, and 2^s rounds nothing: across the float range,
    # wherever both sides are finite and neither an entry of phi 2^s nor a
    # value of 2^s J(phi) is subnormal (a subnormal rounds to fewer bits),
    # J(phi 2^s) is 2^s J(phi) bit for bit, at |t|_p inside and outside the
    # cutoff and for <f, phi>.  A flat phi (one value off B_l) with a
    # ramified pi_1 has F[h] = 0 while h is past the float range at large
    # s: there J is evaluated at phi 2^-e and multiplied by 2^e
    prime = Prime(p)
    pi1 = trivial_character(prime)
    if family == "ramified":  # of rank 1, or 2 at p = 2
        odd = p == 2 and NormedMultChar(prime, 2, {1: Fr(0), 3: Fr(1, 2)})
        pi1 = odd or quadratic_character(prime)
    f = PLog(m + 1) if family == "plog" else PiAlphaLog(complex(*alpha), pi1, m)
    phi = random_testfn(prime, N, N - width, seed)
    if flat:
        phi = TestFunction(prime, N, N - width, np.where(np.arange(p**width), *phi.values[1::-1]))

    def normal(values):
        parts = np.asarray(values, dtype=complex).view(float)
        return np.isfinite(parts).all() and not ((0 < abs(parts)) & (abs(parts) < 2**-1022)).any()

    v = phi.values
    scaled = TestFunction(prime, N, N - width, np.ldexp(v.real, s) + 1j * np.ldexp(v.imag, s))
    assume(normal(scaled.values))
    ts = tuple(Fr(p) ** -M for M in range(-N - 2, width - N + 3))
    try:
        got, want = (
            singular_fourier(SingularIntegralRequest(f, psi, ts)) + [apply(f, psi)]
            for psi in (scaled, phi)
        )
        want = [complex(math.ldexp(z.real, s), math.ldexp(z.imag, s)) for z in want]
    except (NumericOverflow, OverflowError):
        assume(False)
    assume(normal(want))
    assert [(z.real.hex(), z.imag.hex()) for z in got] == [
        (z.real.hex(), z.imag.hex()) for z in want
    ]


def test_plog_j0_keeps_its_digits_on_a_deep_window():
    # the pinning's S_2(700) (about 7.6e7) cancels in J0 exactly, so the
    # rows at |t|_3 > 3^-700 match the right-hand side to the bit
    report = verify_stabilization(PLog(3), delta_indicator(P3, 700), -3, 3)
    assert report.ok
    assert [r.abs_err for r in report.rows] == [0.0] * len(report.rows)
    J = {r.M: r.J for r in report.rows}
    assert (J[-2], J[-1], J[0]) == (1 / 3, -2 / 3, -1 / 3)


def test_delta_window_at_a_large_prime_builds_no_pi1_row():
    # on phi = Delta_0 (N = l) no sphere is multiplied, so h builds no
    # p-word row of pi_1: J is phi(0) J0 and the peak stays far below the
    # 16 MB such a row takes at p = 1000003
    prime = Prime(1000003)
    f = PiAlphaLog(1.5, trivial_character(prime), 0)
    phi = delta_indicator(prime, 0)
    tracemalloc.start()
    try:
        J = singular_fourier(SingularIntegralRequest(f, phi, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J == phi.at_zero * j0_closed_form(f, 0, [(0, 1)], prime)[0]
    assert peak < 1 << 20, peak


def test_annulus_table_keeps_the_word_cap(monkeypatch):
    # cubic mod 9 tiles phi's 3^4 words 3 times: a 3^5-word table
    f = PiAlphaLog(0.5, cubic_mod9(), 0)
    phi = random_testfn(P3, 1, -3, seed=11)
    far = Fr(1, 3**5)  # |t|_3 = 3^5 > p^-lam: F[h] is 0 there, J is J0 alone
    want = singular_fourier(SingularIntegralRequest(f, phi, far))
    monkeypatch.setattr(qp, "MAX_WORDS", 3**5 - 1)
    with pytest.raises(BadWindow, match="coset enumeration too large: 3\\^5 words"):
        singular_fourier(SingularIntegralRequest(f, phi, Fr(1, 3)))
    with pytest.raises(BadWindow, match="coset enumeration too large"):
        apply(f, phi)
    assert singular_fourier(SingularIntegralRequest(f, phi, far)) == want
