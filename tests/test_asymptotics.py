"""Theorem right-hand sides, the stabilization verifier, Erdelyi check."""

import dataclasses
import json
import math
import random
import sys
from fractions import Fraction as Fr
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfourier import (
    DiracDelta,
    Jet,
    PiAlphaLog,
    PLog,
    Prime,
    SingularIntegralRequest,
    apply,
    bernoulli,
    delta_indicator,
    erdelyi_check,
    eval_pi1,
    faulhaber_sum,
    fourier,
    gamma_p,
    gamma_pi,
    p_power_jet,
    quadratic_character,
    predict_expansion,
    random_testfn,
    singular_fourier,
    table_character,
    trivial_character,
    valuation,
    verify_stabilization,
)
from padicfourier import asymptotics, distributions
from padicfourier import gamma as gamma_module
from padicfourier.asymptotics import theorem_family, unit_directions
from padicfourier.cli import run
from padicfourier.errors import (
    BadAlpha,
    NumericOverflow,
    StabilizationMismatch,
    ZeroArgument,
)

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def cubic_mod9():
    return table_character(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def test_rhs_examples():
    f = PiAlphaLog(2, trivial_character(P2), 0)
    assert predict_expansion(f, 0, P2).rhs(1.0, Fr(1, 2)) == pytest.approx(-1 / 3)
    assert predict_expansion(PLog(1), 0, P3).rhs(1.0, Fr(1, 3)) == pytest.approx(-1)
    f1 = PiAlphaLog(1, trivial_character(P3), 0)
    for M in (1, 2, 5):
        assert abs(predict_expansion(f1, 0, P3).rhs(2.3 - 1j, Fr(3) ** (-M))) < 1e-13
    delta = predict_expansion(DiracDelta(), 0, P2)
    assert delta.rhs(0.7j, Fr(1, 2)) == pytest.approx(0.7j)
    # t = 0 is a zero point, as everywhere else, not an inadmissible alpha
    for f, prime in ((f1, P3), (PLog(2), P3), (DiracDelta(), P2)):
        with pytest.raises(ZeroArgument):
            predict_expansion(f, 0, prime).rhs(1.0, 0)


def test_rhs_ramified_includes_unit_direction():
    quad = quadratic_character(P3)
    f = PiAlphaLog(1.5, quad, 0)
    pred = predict_expansion(f, 0, P3)
    a, b = pred.rhs(1.0, Fr(1, 27)), pred.rhs(1.0, Fr(2, 27))
    want = eval_pi1(quad, 2).inverse().to_complex() / eval_pi1(quad, 1).to_complex()
    assert a != b
    assert b / a == pytest.approx(want)


def test_theorem_family_dispatch():
    assert theorem_family(PLog(2)) == "principal-log"
    assert theorem_family(PiAlphaLog(1, trivial_character(P2), 0)) == "unramified"
    assert theorem_family(PiAlphaLog(1, quadratic_character(P3), 0)) == "ramified"


def test_unit_directions():
    assert unit_directions(P2, 3) == [1, 3, 5]
    assert unit_directions(P3, 3) == [1, 2, 4]
    assert unit_directions(P5, 4) == [1, 2, 3, 4]


def test_verify_unramified_power_case():
    rep = verify_stabilization(
        PiAlphaLog(2, trivial_character(P2), 0), delta_indicator(P2, 0), -1, 6
    )
    assert rep.ok
    assert rep.s_pred_exponent == 0
    assert rep.s_emp_exponent <= rep.s_pred_exponent
    stabilized_rows = [r for r in rep.rows if r.M >= 1]
    assert all(r.stabilized for r in stabilized_rows)


def test_verify_log_weights_and_random_phi():
    phi = random_testfn(P2, 2, -2, seed=71)
    for m in (1, 2):
        rep = verify_stabilization(
            PiAlphaLog(1.3 - 1.1j, trivial_character(P2), m), phi, 3, 8
        )
        assert rep.ok and rep.s_pred_exponent == 2


def test_verify_principal_log_family():
    rep = verify_stabilization(PLog(3), random_testfn(P3, 1, -1, seed=72), 0, 7)
    assert rep.ok and rep.s_pred_exponent == 1
    assert rep.s_emp_exponent <= 1


def test_verify_ramified_thresholds():
    phi = random_testfn(P3, 1, -1, seed=73)
    rep = verify_stabilization(PiAlphaLog(1.5, quadratic_character(P3), 2), phi, 0, 6)
    assert rep.ok and rep.s_pred_exponent == 2
    rep = verify_stabilization(PiAlphaLog(1, cubic_mod9(), 0), phi, 1, 7)
    assert rep.ok and rep.s_pred_exponent == 3
    # a rank-2 character genuinely violates equality below the threshold
    assert rep.below_threshold_violation is True


def test_verify_strict_raises_on_forced_mismatch():
    # zero tolerance fails every row (|J - RHS| < 0 is unsatisfiable)
    with pytest.raises(StabilizationMismatch) as info:
        verify_stabilization(
            PiAlphaLog(2, trivial_character(P2), 0),
            delta_indicator(P2, 0),
            1,
            4,
            tolerance_scale=0.0,
        )
    assert info.value.report is not None
    rep = verify_stabilization(
        PiAlphaLog(2, trivial_character(P2), 0),
        delta_indicator(P2, 0),
        1,
        4,
        tolerance_scale=0.0,
        strict=False,
    )
    assert not rep.ok



def flipped_gamma_p(prime, alpha, order=0):
    """Gamma_p with the sign of its numerator's p^(alpha-1) flipped."""
    p = prime.p
    one = Jet.constant(1, order)
    num = one + p_power_jet(p, 1, alpha, order).scale(Fr(1, p))
    return num / (one - p_power_jet(p, -1, alpha, order))


def test_a_wrong_gamma_p_fails_the_trivial_sweep(monkeypatch, tmp_path):
    # above the threshold J is the ball tail plus the resonant sphere, with
    # no Gamma_p in it, so a wrong Gamma_p on the right-hand side must show
    f = PiAlphaLog(1.3 + 0.2j, trivial_character(P3), 2)
    phi = random_testfn(P3, 1, -3, 7)
    rep = verify_stabilization(f, phi, 0, 8)
    above = [r for r in rep.rows if r.M > rep.s_pred_exponent]
    assert rep.ok and len(above) == 15
    assert all(r.abs_err > 0 for r in above)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "prime": 3,
        "distribution": {
            "variant": "pi-alpha-log",
            "alpha": {"re": 1.3, "im": 0.2},
            "m": 2,
            "character": {"kind": "trivial"},
        },
        "test_function": {"kind": "delta", "k": 0},
        "t_grid": {"M_min": 0, "M_max": 8},
    }))
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    monkeypatch.setattr(gamma_module, "gamma_p", flipped_gamma_p)
    rep = verify_stabilization(f, phi, 0, 8, strict=False)
    assert not rep.ok
    assert min(r.abs_err for r in rep.rows if r.M > rep.s_pred_exponent) > 1e-3
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2


def test_deep_ramified_j_is_finite_and_equals_the_rhs():
    # p^((alpha-1) gamma) at the resonant sphere gamma = 1 - 1500 is beyond
    # the float range; J takes it as one power p^(alpha gamma - 1) instead
    f = PiAlphaLog(0.3, quadratic_character(P3), 1)
    phi = random_testfn(P3, 1, -3, 7)
    t = Fr(2, 3**1500)
    J = singular_fourier(SingularIntegralRequest(f, phi, t))
    rhs = predict_expansion(f, phi.l, P3).rhs(phi.at_zero, t)
    assert J != 0 and abs(J - rhs) <= 1e-12 * abs(rhs)


def test_the_rhs_is_probed_before_j_is_paid_for(monkeypatch, tmp_path):
    from padicfourier import asymptotics

    calls = []

    def counting(request):
        calls.append(request)
        return singular_fourier(request)

    monkeypatch.setattr(asymptotics, "singular_fourier", counting)
    f = PiAlphaLog(1.5, quadratic_character(P3), 1)
    phi = random_testfn(P3, 1, -1, seed=73)
    # |t|^-alpha = 3^(-M alpha) overflows at the first row of one grid and
    # at the last row of the other
    for g, M_min, M_max in ((f, -2500, 0), (PiAlphaLog(-1.5, f.pi1, 1), 0, 2500)):
        with pytest.raises(NumericOverflow):
            verify_stabilization(g, phi, M_min, M_max, units_per_sphere=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "prime": 3,
        "distribution": {
            "variant": "pi-alpha-log",
            "alpha": 1.5,
            "m": 1,
            "character": {"kind": "quadratic"},
        },
        "test_function": {"kind": "delta", "k": -1},
        "t_grid": {"M_min": -2500, "M_max": -1477, "units_per_sphere": 1},
    }))
    assert run(["verify", "--config", str(cfg)]) == 3
    assert calls == []
    verify_stabilization(f, phi, 0, 4)
    assert len(calls) == 1


def test_unit_direction_ratio_ramified():
    quad = quadratic_character(P3)
    f = PiAlphaLog(1.5, quad, 0)
    phi = random_testfn(P3, 1, -1, seed=74)
    M = 4
    J1 = singular_fourier(SingularIntegralRequest(f, phi, Fr(1, 3**M)))
    J2 = singular_fourier(SingularIntegralRequest(f, phi, Fr(2, 3**M)))
    assert abs(J1) > 0
    want = (
        eval_pi1(quad, 2).to_complex() / eval_pi1(quad, 1).to_complex()
    )
    assert J1 / J2 == pytest.approx(want, abs=1e-9)


def test_asymptotic_sequence_strictly_ordered():
    # |t|^-Re(alpha) log^{m-k}|t| strictly decreasing in k at the largest M
    alpha, m, M, p = 1.5, 3, 8, 3
    scales = [
        p ** (-alpha * M) * (math.log(p**M, p)) ** (m - k) for k in range(m + 1)
    ]
    assert all(a > b for a, b in zip(scales, scales[1:]))


def test_log_fourier_identity():
    # F[(1-1/p) log_p|x|](t) = -P(1/|t|) - (1/p) delta(t), paired with 10 phi
    rng = random.Random(75)
    for p in (2, 3):
        prime = Prime(p)
        for trial in range(5):
            N, l = 1, -1
            psi = random_testfn(prime, N, l, seed=800 + trial)
            F = fourier(psi)
            # lhs: (1-1/p) * integral of log_p|x| F[psi](x) dx, summed over
            # spheres within supp F plus the closed-form constant tail
            lam = F.l
            acc = 0j
            from padicfourier import enumerate_sphere_cosets

            for g in range(lam + 1, F.N + 1):
                for c in enumerate_sphere_cosets(prime, g, F.l):
                    acc += g * F.at(c) * float(Fr(p) ** F.l)
            # tail: F[psi] == psi-integral-value ... equals F at 0 coset times
            # sum_{g <= lam} g p^g (1-1/p)
            x = Fr(1, p)
            tail_sum = (
                Fr(p) ** lam * (lam / (1 - x) - x / (1 - x) ** 2)
            )
            acc += F.at(0) * float(tail_sum) * (1 - 1 / p)
            lhs = (1 - 1 / p) * acc
            rhs = -apply(PLog(1), psi) - psi.at(0) / p
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs)), (p, trial)


def test_alpha_one_reproduces_fourier_support():
    # at alpha = 1 the RHS vanishes, matching the Fourier support window
    phi = random_testfn(P3, 1, -1, seed=76)
    F = fourier(phi)
    f = PiAlphaLog(1, trivial_character(P3), 0)
    for M in (2, 3, 4):  # |t| > p^{-l} = 3
        t = Fr(2) * Fr(3) ** (-M)
        assert F.at(t) == 0
        assert abs(singular_fourier(SingularIntegralRequest(f, phi, t))) < 1e-12
        assert abs(predict_expansion(f, phi.l, P3).rhs(phi.at_zero, t)) < 1e-13


def test_erdelyi_check_cases():
    # direct integral at |t| = 2 equals -1/3 equals RHS
    rep = erdelyi_check(2, trivial_character(P2), 0, delta_indicator(P2, 0), 1, 4)
    assert rep.ok
    assert abs(rep.rows[0].J - (-1 / 3)) < 1e-12
    # alpha = 1: both sides vanish beyond p^-l
    rep = erdelyi_check(1, trivial_character(P3), 0, random_testfn(P3, 1, -1, seed=77), 2, 5)
    assert rep.ok
    for r in rep.rows:
        assert abs(r.J) < 1e-11 and abs(r.rhs) < 1e-11
    # ramified with log weight
    rep = erdelyi_check(0.5, quadratic_character(P5), 1, random_testfn(P5, 1, 0, seed=78), 2, 4)
    assert rep.ok
    with pytest.raises(BadAlpha):
        erdelyi_check(-0.5, trivial_character(P2), 0, delta_indicator(P2, 0), 1, 3)
    # an empty grid is rejected, not passed with zero rows
    with pytest.raises(ValueError):
        erdelyi_check(2, trivial_character(P2), 0, delta_indicator(P2, 0), 5, 1)
    with pytest.raises(ValueError):
        erdelyi_check(
            2, trivial_character(P2), 0, delta_indicator(P2, 0), 1, 5, units_per_sphere=0
        )


def test_report_roundtrip_and_csv_schema():
    rep = verify_stabilization(
        PiAlphaLog(1.5, quadratic_character(P3), 1),
        random_testfn(P3, 1, -1, seed=79),
        0,
        4,
    )
    # the JSON is lossless: every field, each row as a field dict and each
    # complex as [re, im]
    data = json.loads(rep.to_json())
    want = dataclasses.asdict(rep)
    want["alpha"] = list(rep.alpha)
    want["rows"] = [
        dict(row, J=[row["J"].real, row["J"].imag], rhs=[row["rhs"].real, row["rhs"].imag])
        for row in want["rows"]
    ]
    assert data == want
    csv_text = rep.to_csv()
    header = csv_text.splitlines()[0]
    assert header == (
        "M,t_unit,J_re,J_im,rhs_re,rhs_im,abs_err,stabilized,"
        "s_pred_exponent,s_emp_exponent"
    )
    assert len(csv_text.splitlines()) == 1 + len(rep.rows)


def test_s_emp_never_exceeds_s_pred_on_verified_cases():
    reps = [
        verify_stabilization(
            PiAlphaLog(0.5, trivial_character(P5), 1),
            delta_indicator(P5, -2),
            3,
            7,
        ),
        verify_stabilization(PLog(2), delta_indicator(P2, 0), 1, 6),
        verify_stabilization(
            PiAlphaLog(-0.4 + 0.2j, quadratic_character(P5), 1),
            random_testfn(P5, 1, 0, seed=80),
            0,
            4,
        ),
    ]
    for rep in reps:
        assert rep.ok
        assert rep.s_emp_exponent <= rep.s_pred_exponent


def test_prediction_type_and_scale_family():
    pred = predict_expansion(PLog(3), -1, P2)
    assert pred.s_pred_exponent == 1
    assert "PLog(3) = P(log^2|x|/|x|)" in pred.scale_family
    pred = predict_expansion(PiAlphaLog(1.5, quadratic_character(P3), 2), 0, P3)
    assert pred.s_pred_exponent == 1
    assert pred.alpha == 1.5 and len(pred.poly) == 3
    assert "pi_1^-1(t)" in pred.scale_family
    rep = verify_stabilization(PLog(2), delta_indicator(P2, 0), 1, 4)
    assert "PLog(2)" in rep.scale_family
    # l moves only the threshold: the right-hand side is the same
    families = [
        (DiracDelta(), P2),
        (PLog(1), P5),
        (PLog(4), P2),
        (PiAlphaLog(1.3 - 1.1j, trivial_character(P2), 2), P2),
        (PiAlphaLog(1.5, quadratic_character(P3), 1), P3),
        (PiAlphaLog(0.5 + 0.3j, cubic_mod9(), 1), P3),
    ]
    phi0 = 0.7 - 0.2j
    for f, prime in families:
        pred = predict_expansion(f, -1, prime)
        for M in range(-2, 6):
            for u in (1, 2):
                t = Fr(u) * Fr(prime.p) ** (-M)
                assert pred.rhs(phi0, t) == predict_expansion(f, 2, prime).rhs(phi0, t)


def test_plog_rhs_is_the_power_sum_form():
    # PLog(m) at pinning level 0: -(1/p)(1 - M)^{m-1} + (1 - 1/p) S_{m-1}(-M)
    for prime, m in ((P2, 1), (P3, 2), (P2, 4), (P5, 3)):
        p, s = prime.p, m - 1
        for M in range(-3, 8):
            want = -Fr(1, p) * (1 - M) ** s + (1 - Fr(1, p)) * faulhaber_sum(s, -M)
            t = Fr(p) ** (-M)
            assert predict_expansion(PLog(m), 0, prime).rhs(1.0, t) == complex(want)


def test_each_sweep_builds_its_prediction_once(monkeypatch):
    from padicfourier import asymptotics

    calls = []
    real = asymptotics.gamma_pi

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "gamma_pi", counting)
    quad = quadratic_character(P5)
    phi = random_testfn(P5, 1, 0, seed=82)
    rep = verify_stabilization(PiAlphaLog(0.5, quad, 1), phi, 0, 4)
    assert rep.ok and len(rep.rows) == 15
    assert len(calls) == 1
    rep = erdelyi_check(0.5, quad, 1, phi, 0, 4)
    assert rep.ok and len(rep.rows) == 15
    assert len(calls) == 2


def test_verify_plog3_wide_grid_with_oracle():
    from padicfourier import brute_force_oracle

    f = PLog(3)
    d0 = delta_indicator(P2, 0)
    rep = verify_stabilization(f, d0, 1, 8)
    assert rep.ok and rep.s_pred_exponent == 0
    for r in rep.rows:
        t = Fr(r.t_unit) * Fr(2) ** (-r.M)
        oracle = brute_force_oracle(SingularIntegralRequest(f, d0, t))
        assert abs(r.J - oracle) < 1e-10 * (1 + abs(r.J))


def test_each_sweep_runs_one_fourier_transform(monkeypatch):
    from padicfourier import distributions

    calls = []
    real = distributions.fourier

    def counting(phi):
        calls.append(phi)
        return real(phi)

    monkeypatch.setattr(distributions, "fourier", counting)
    phi = random_testfn(P3, 2, -3, seed=83)
    for f in (
        PiAlphaLog(1.5, trivial_character(P3), 1),
        PiAlphaLog(0.7 + 0.3j, cubic_mod9(), 0),
        PLog(2),
    ):
        calls.clear()
        rep = verify_stabilization(f, phi, -3, 6, 3, strict=False)
        assert len(rep.rows) == 30 and len(calls) == 1


def test_j0_once_per_norm_sphere(monkeypatch):
    from padicfourier import distributions

    calls = []
    real = distributions.j0_closed_form

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distributions, "j0_closed_form", counting)
    phi = random_testfn(P2, 1, -1, seed=84)
    rep = verify_stabilization(PiAlphaLog(1.5, trivial_character(P2), 1), phi, -2, 5, 3)
    assert len(rep.rows) == 24 and len(calls) == 8
    # ramified J0 depends on the direction of t only through u mod p^k0:
    # units 1, 2, 4 are two residues mod 3, so one call per (sphere, residue)
    calls.clear()
    phi = random_testfn(P3, 1, -1, seed=85)
    f = PiAlphaLog(1.5, quadratic_character(P3), 0)
    rep = verify_stabilization(f, phi, -2, 5, 3)
    assert len(rep.rows) == 24 and len(calls) == 16


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


@st.composite
def sweep_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    prime = Prime(p)
    kinds = ["trivial", "rank2", "plog"] + (["quadratic"] if p > 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "plog":
        f = PLog(draw(st.integers(1, 3)))
    else:
        chr_ = {
            "trivial": trivial_character,
            "quadratic": quadratic_character,
            "rank2": rank2_character,
        }[kind](prime)
        alpha = draw(st.sampled_from([1.5, 0.7 + 0.3j, -0.4]))
        f = PiAlphaLog(alpha, chr_, draw(st.integers(0, 2)))
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


def reference_rhs(f, prime, phi0, t):
    """The right-hand side written out per row, as it was first coded: the
    Leibniz product of the Gamma jet with the p^(-M alpha) jet, and the
    printed Bernoulli sum in exact rationals."""
    M = -valuation(t, prime)
    p = prime.p
    if isinstance(f, DiracDelta):
        return complex(phi0)
    if isinstance(f, PiAlphaLog):
        a = gamma_pi(f.alpha, f.pi1, f.m).coeffs
        b = p_power_jet(p, -M, f.alpha, f.m).coeffs
        top = sum(comb(f.m, j) * a[j] * b[f.m - j] for j in range(f.m + 1))
        value = phi0 * (top * (1.0 / math.log(p)) ** f.m)
        if not f.pi1.is_trivial():
            value *= eval_pi1(f.pi1, t).inverse().to_complex()
        return value
    s = f.m - 1
    power_sum = sum(
        comb(s + 1, r) * bernoulli(r) * Fr(M) ** (s + 1 - r) for r in range(s + 1)
    )
    value = Fr((M - 1) ** s, p) + (1 - Fr(1, p)) * power_sum / (s + 1)
    return phi0 * complex((-1) ** (s + 1) * value)


@st.composite
def rhs_cases(draw):
    kind = draw(st.sampled_from(["trivial", "quadratic", "cubic", "plog", "delta"]))
    p = {"quadratic": draw(st.sampled_from([3, 5, 7])), "cubic": 3}.get(
        kind, draw(st.sampled_from([2, 3, 5, 7]))
    )
    prime = Prime(p)
    if kind == "plog":
        f = PLog(draw(st.integers(1, 6)))
    elif kind == "delta":
        f = DiracDelta()
    else:
        chr_ = {
            "trivial": trivial_character,
            "quadratic": quadratic_character,
            "cubic": lambda _: cubic_mod9(),
        }[kind](prime)
        re = draw(st.floats(-2, 3).filter(lambda x: abs(x) > 0.05))
        alpha = complex(re, draw(st.floats(-2, 2)))
        f = PiAlphaLog(alpha, chr_, draw(st.integers(0, 6)))
    u = draw(st.integers(1, 50).filter(lambda u: u % p))
    M = draw(st.integers(-40, 40))
    phi0 = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    return f, prime, phi0, Fr(u) * Fr(p) ** (-M)


@settings(max_examples=300, deadline=None)
@given(rhs_cases())
def test_rhs_matches_the_per_row_leibniz_and_bernoulli_forms(case):
    f, prime, phi0, t = case
    pred = predict_expansion(f, 0, prime)
    got, want = pred.rhs(phi0, t), reference_rhs(f, prime, phi0, t)
    if not isinstance(f, PiAlphaLog) or f.m == 0:
        assert got == want
        return
    # Horner on P(M) times one power against the Leibniz sum of jet terms
    M = -valuation(t, prime)
    scale = abs(phi0) * abs(p_power_jet(prime.p, -M, f.alpha, 0).value)
    bound = 16 * sys.float_info.epsilon * scale * sum(
        abs(c) * abs(M) ** j for j, c in enumerate(pred.poly)
    )
    assert abs(got - want) <= bound


def test_rhs_overflow_is_typed_for_every_family():
    t = Fr(1, 3**200000)
    for f in (
        PLog(64),
        PiAlphaLog(-1.5, trivial_character(P3), 1),
        PiAlphaLog(-1.5, quadratic_character(P3), 2),
    ):
        with pytest.raises(NumericOverflow):
            predict_expansion(f, 0, P3).rhs(1.0, t)



def test_rhs_past_an_overflowing_polynomial_is_decided_in_logarithms():
    # P(M) = O(M^64) is beyond the float range at M = 200000, and inf * 0
    # would be NaN: p^(-alpha M) takes the product below the float range
    # (0j), into it (the true value) or leaves it above it (NumericOverflow)
    M = 200000
    t = Fr(1, 3**M)
    pi1 = quadratic_character(P3)
    assert predict_expansion(PiAlphaLog(1.5, pi1, 64), 0, P3).rhs(1.0, t) == 0
    with pytest.raises(NumericOverflow):
        predict_expansion(PiAlphaLog(1e-4, pi1, 64), 0, P3).rhs(1.0, t)
    pred = predict_expansion(PiAlphaLog(0.0025, pi1, 64), 0, P3)
    exact = [
        sum(Fr(part(c)) * M**j for j, c in enumerate(pred.poly)) / 3**500
        for part in (lambda c: c.real, lambda c: c.imag)
    ]
    want = complex(*map(float, exact))
    got = pred.rhs(1.0, t)
    assert math.isfinite(abs(want)) and abs(got - want) <= 1e-9 * abs(want)

def cubic_cfg(tmp_path):
    cfg = tmp_path / "cubic.json"
    cfg.write_text(json.dumps({
        "prime": 3,
        "distribution": {
            "variant": "pi-alpha-log",
            "alpha": {"re": 0.8, "im": -0.3},
            "m": 1,
            "character": {
                "kind": "table",
                "modulus_exponent": 2,
                "values": {"1": "0", "2": "2/3", "4": "1/3", "5": "1/3", "7": "2/3", "8": "0"},
            },
        },
        "test_function": {"kind": "delta", "k": -1},
        "t_grid": {"M_min": 0, "M_max": 6},
    }))
    return str(cfg)


def test_pi1_in_place_of_its_inverse_fails_verify(monkeypatch, tmp_path):
    # the cubic character is not its own inverse (a quadratic one could
    # not tell pi_1(t) from pi_1^-1(t))
    f = PiAlphaLog(0.8 - 0.3j, cubic_mod9(), 1)
    phi = random_testfn(P3, 1, -1, seed=86)
    assert verify_stabilization(f, phi, 0, 6).ok
    cfg = cubic_cfg(tmp_path)
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "ok.csv")]) == 0
    real = asymptotics.eval_pi1
    monkeypatch.setattr(asymptotics, "eval_pi1", lambda c, x: real(c, x).inverse())
    assert not verify_stabilization(f, phi, 0, 6, strict=False).ok
    assert run(["verify", "--config", cfg, "--out", str(tmp_path / "bad.csv")]) == 2


@pytest.mark.parametrize(
    "f, prime",
    [
        (PiAlphaLog(1.3 - 1.1j, trivial_character(P2), 2), P2),
        (PiAlphaLog(0.5 + 0.3j, cubic_mod9(), 2), P3),
        (PLog(3), P3),
    ],
    ids=["trivial", "cubic", "plog"],
)
def test_one_flipped_coefficient_of_p_fails_verify(monkeypatch, f, prime):
    phi = random_testfn(prime, 1, -1, seed=87)
    assert verify_stabilization(f, phi, 0, 6).ok
    real = asymptotics.predict_expansion
    poly = real(f, phi.l, prime).poly
    for j in (j for j, c in enumerate(poly) if c):
        flipped = poly[:j] + (-poly[j],) + poly[j + 1:]
        monkeypatch.setattr(
            asymptotics,
            "predict_expansion",
            lambda *args: dataclasses.replace(real(*args), poly=flipped),
        )
        assert not verify_stabilization(f, phi, 0, 6, strict=False).ok, j


def test_dropping_the_plog_pinning_fails_verify(monkeypatch):
    real = distributions.j0_closed_form

    def unpinned(f, l0, t, prime):
        # J0 without (1 - 1/p) S_{m-1}(l0), the shift from B_l0 to B_0
        pinning = (1 - Fr(1, prime.p)) * faulhaber_sum(f.m - 1, l0)
        return real(f, l0, t, prime) - complex(pinning)

    phi = random_testfn(P3, 2, -1, seed=88)
    for m in (1, 2, 3):
        assert verify_stabilization(PLog(m), phi, 0, 6, split_level=1).ok
    monkeypatch.setattr(distributions, "j0_closed_form", unpinned)
    for m in (1, 2, 3):
        # split level 0 needs no pinning, so the mutation is invisible there
        assert verify_stabilization(PLog(m), phi, 0, 6, split_level=0).ok
        rep = verify_stabilization(PLog(m), phi, 0, 6, split_level=1, strict=False)
        assert not rep.ok, m


def test_j_zeroed_above_some_m_fails_verify(monkeypatch):
    def zeroed(request):
        return [
            0j if -valuation(t, request.phi.prime) > 4 else J
            for t, J in zip(request.points(), singular_fourier(request))
        ]

    cases = [
        (PiAlphaLog(1.3 + 0.2j, trivial_character(P3), 2), P3),
        (PiAlphaLog(1.5, quadratic_character(P3), 1), P3),
        (PLog(2), P3),
        (DiracDelta(), P3),
    ]
    phi = random_testfn(P3, 1, -1, seed=89)
    monkeypatch.setattr(asymptotics, "singular_fourier", zeroed)
    for f, prime in cases:
        rep = verify_stabilization(f, phi, 0, 6, strict=False)
        assert not rep.ok, f
        failing = {r.M for r in rep.rows if not r.stabilized and r.M > rep.s_pred_exponent}
        assert failing and failing <= {5, 6}, f
