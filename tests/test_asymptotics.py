"""Theorem right-hand sides, the stabilization verifier, Erdelyi check."""

import math
import random
from fractions import Fraction as Fr

import pytest

from padicfourier import (
    DiracDelta,
    PiAlphaLog,
    PLog,
    Prime,
    SingularIntegralRequest,
    StabilizationReport,
    apply,
    delta_indicator,
    erdelyi_check,
    eval_pi1,
    faulhaber_sum,
    fourier,
    gamma_p,
    quadratic_character,
    random_testfn,
    rhs_predict,
    singular_fourier,
    table_character,
    trivial_character,
    verify_stabilization,
)
from padicfourier.asymptotics import theorem_family, unit_directions
from padicfourier.errors import BadAlpha, StabilizationMismatch

P2, P3, P5 = Prime(2), Prime(3), Prime(5)


def cubic_mod9():
    return table_character(
        P3, 2, {1: Fr(0), 2: Fr(2, 3), 4: Fr(1, 3), 5: Fr(1, 3), 7: Fr(2, 3), 8: Fr(0)}
    )


def test_rhs_examples():
    f = PiAlphaLog(2, trivial_character(P2), 0)
    assert rhs_predict(f, 1.0, 0, Fr(1, 2), P2) == pytest.approx(-1 / 3)
    assert rhs_predict(PLog(1), 1.0, 0, Fr(1, 3), P3) == pytest.approx(-1)
    f1 = PiAlphaLog(1, trivial_character(P3), 0)
    for M in (1, 2, 5):
        assert abs(rhs_predict(f1, 2.3 - 1j, 0, Fr(3) ** (-M), P3)) < 1e-13
    assert rhs_predict(DiracDelta(), 0.7j, 0, Fr(1, 2), P2) == pytest.approx(0.7j)


def test_rhs_ramified_includes_unit_direction():
    quad = quadratic_character(P3)
    f = PiAlphaLog(1.5, quad, 0)
    a = rhs_predict(f, 1.0, 0, Fr(1, 27), P3)
    b = rhs_predict(f, 1.0, 0, Fr(2, 27), P3)
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
        assert abs(rhs_predict(f, phi.at_zero, phi.l, t, P3)) < 1e-13


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
    again = StabilizationReport.from_json(rep.to_json())
    assert again == rep
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
    from padicfourier.asymptotics import predict_expansion

    pred = predict_expansion(PLog(3), -1, P2)
    assert pred.s_pred_exponent == 1
    assert pred.bernoulli_terms == (Fr(1), Fr(-1, 2), Fr(1, 6))
    assert "PLog(3) = P(log^2|x|/|x|)" in pred.scale_family
    pred = predict_expansion(PiAlphaLog(1.5, quadratic_character(P3), 2), 0, P3)
    assert pred.s_pred_exponent == 1
    assert pred.gamma_jet is not None and len(pred.gamma_jet) == 3
    assert "pi_1^-1(t)" in pred.scale_family
    rep = verify_stabilization(PLog(2), delta_indicator(P2, 0), 1, 4)
    assert "PLog(2)" in rep.scale_family
    # the prediction's right-hand side is the one rhs_predict evaluates
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
                assert pred.rhs(phi0, t) == rhs_predict(f, phi0, -1, t, prime)


def test_plog_rhs_is_the_power_sum_form():
    # PLog(m) at pinning level 0: -(1/p)(1 - M)^{m-1} + (1 - 1/p) S_{m-1}(-M)
    for prime, m in ((P2, 1), (P3, 2), (P2, 4), (P5, 3)):
        p, s = prime.p, m - 1
        for M in range(-3, 8):
            want = -Fr(1, p) * (1 - M) ** s + (1 - Fr(1, p)) * faulhaber_sum(s, -M)
            t = Fr(p) ** (-M)
            assert rhs_predict(PLog(m), 1.0, 0, t, prime) == complex(want)


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


def test_thread_cap_does_not_change_results(monkeypatch):
    f = PiAlphaLog(1.5, quadratic_character(P3), 1)
    phi = random_testfn(P3, 1, -1, seed=81)
    base = verify_stabilization(f, phi, 0, 5)
    monkeypatch.setenv("PADIC_THREADS", "4")
    threaded = verify_stabilization(f, phi, 0, 5)
    assert threaded == base


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
