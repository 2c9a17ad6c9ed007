"""Exception hierarchy for the padicfourier package.

Every error carries the offending parameters in its message so that CLI
output and reports can point at the exact input that failed.
"""


class PadicError(Exception):
    """Base class for all padicfourier errors."""


class NonPadicDenominator(PadicError):
    """A p-adic fractional part was requested for a rational whose
    denominator has a factor coprime to p."""


class BadWindow(PadicError):
    """Invalid (support, constancy) window, e.g. l > N for a coset
    enumeration or l >= gamma for a sphere decomposition."""


class ZeroArgument(PadicError):
    """Zero passed where a nonzero p-adic point is required."""


class NotMultiplicative(PadicError):
    """A character table fails the multiplicativity law on some unit pair."""


class RankNotMinimal(PadicError):
    """A character table factors through a smaller modulus than claimed."""


class BadTable(PadicError):
    """Malformed character table (wrong keys, non-unit entries, bad values)."""


class PoleProximity(PadicError):
    """alpha is within pole tolerance of a pole 2*pi*i*j/ln(p) of the
    analytic continuation (1 - p^-alpha vanishes)."""


class NumericOverflow(PadicError):
    """A value past the floating range: a power c^k p^(c*alpha + b)
    (``jets.p_power_term``), a measure p^l, or a J, <f, phi>, F[phi] or
    right-hand side (e.g. Re alpha < 0 at a very large |t|_p)."""


class BadAlpha(PadicError):
    """alpha outside the admissible half-plane for a direct integral."""


class StabilizationMismatch(PadicError):
    """A verification sweep found |J - RHS| above tolerance inside the
    stabilized region.  Carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
