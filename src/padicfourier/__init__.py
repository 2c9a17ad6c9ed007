"""Exact p-adic harmonic analysis: singular Fourier integrals of quasi
associated homogeneous distributions and their stabilized asymptotics."""

from .qp import (
    INFINITE_VALUATION,
    Prime,
    enumerate_cosets,
    fractional_part,
    valuation,
)
from .characters import (
    NormedMultChar,
    RootOfUnity,
    chi,
    eval_pi1,
    make_character,
    quadratic_character,
    trivial_character,
)
from .jets import Jet, p_power_jet
from .gamma import (
    POLE_TOLERANCE,
    bernoulli,
    faulhaber_sum,
    gamma_p,
    gamma_pi,
)
from .testfn import (
    TestFunction,
    convolve,
    delta_indicator,
    dilate,
    fourier,
    random_testfn,
)
from .distributions import (
    DiracDelta,
    PiAlphaLog,
    PLog,
    QahDistribution,
    apply,
    homogeneity_defect,
)
from .singular import (
    SingularIntegralRequest,
    brute_force_oracle,
    j0_closed_form,
    singular_fourier,
)
from .asymptotics import (
    ReportRow,
    StabilizationReport,
    erdelyi_check,
    predict_expansion,
    verify_stabilization,
)
from . import errors

__version__ = "1.0.0"

__all__ = [
    "INFINITE_VALUATION",
    "Prime",
    "enumerate_cosets",
    "fractional_part",
    "valuation",
    "NormedMultChar",
    "RootOfUnity",
    "chi",
    "eval_pi1",
    "make_character",
    "quadratic_character",
    "trivial_character",
    "Jet",
    "p_power_jet",
    "POLE_TOLERANCE",
    "bernoulli",
    "faulhaber_sum",
    "gamma_p",
    "gamma_pi",
    "TestFunction",
    "convolve",
    "delta_indicator",
    "dilate",
    "fourier",
    "random_testfn",
    "DiracDelta",
    "PiAlphaLog",
    "PLog",
    "QahDistribution",
    "apply",
    "homogeneity_defect",
    "SingularIntegralRequest",
    "brute_force_oracle",
    "j0_closed_form",
    "singular_fourier",
    "ReportRow",
    "StabilizationReport",
    "erdelyi_check",
    "predict_expansion",
    "verify_stabilization",
    "errors",
]
