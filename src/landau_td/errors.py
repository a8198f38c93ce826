"""Exception types shared across the package.

Two broad classes matter for the command line interface: validation errors
(bad input, unsupported request) map to exit code 1, numerical failures
(a computation that was attempted but did not converge or left its domain
of reliability) map to exit code 2.
"""


class LandauError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LandauError):
    """Bad or unsupported input; the computation was never started."""


class NumericalError(LandauError):
    """The computation ran but failed to produce a trustworthy result."""


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

class MissingParameter(ValidationError):
    """A required entry is absent from a profile/state parameter map."""


class NonPositiveMassOrFrequency(ValidationError):
    """M(t) or omega(t) is not strictly positive somewhere on the domain."""


class OutOfDomain(ValidationError):
    """Evaluation time lies outside the profile's [t0, t1] window."""


class UnsupportedKind(ValidationError):
    """Unknown profile kind tag."""


class GridTooShort(ValidationError):
    """A grid has too few points for the requested stencil or fit."""


class SingularParameter(ValidationError):
    """Closed-form parameters hit a singular configuration (zero Wronskian,
    a root of the trigonometric envelope inside the window, ...)."""


class ZeroFrequency(ValidationError):
    """omega(t) = 0 where the gauge-center shift needs 1/omega**2."""


class ZeroFrequencyParticular(ValidationError):
    """Constant-coefficient particular solution needs omega != 0 when the
    drive is nonzero."""


class UnsupportedInstance(ValidationError):
    """Meijer G order tuple other than the two accepted instances."""


class PoleError(ValidationError):
    """Gamma function evaluated at a nonpositive integer."""


class DomainError(ValidationError):
    """Special-function argument outside the supported real domain."""


class CutoffTooSmall(ValidationError):
    """Requested truncation too small for the check to say anything."""


class CutoffOverflow(ValidationError):
    """Automatic truncation selection exceeded the hard cap."""


class CutoffMismatch(ValidationError):
    """Two state vectors with different truncations were combined."""


class WrongFamily(ValidationError):
    """Operation applied to a state family it is not defined for."""


class ZeroF(ValidationError):
    """Nonlinear deformation function vanishes on the needed range."""


class PTooLarge(ValidationError):
    """Photon-added SU(2) order p exceeds 2j."""


class EtaOutOfDisk(ValidationError):
    """Perelomov label eta must satisfy |eta| < 1."""


class UnsupportedFamily(ValidationError):
    """Unknown coherent-state family tag (or parameters off the lattice)."""


class InvalidState(ValidationError):
    """State support off the lattice, repeated, non-finite or over-normalized."""


# ---------------------------------------------------------------------------
# numerical failures
# ---------------------------------------------------------------------------

class BlowUp(NumericalError):
    """ODE solution escaped to infinity (or the solver gave up)."""


class ContourFailure(NumericalError):
    """Mellin-Barnes contour cannot separate the pole families."""


class DivergentSeries(NumericalError):
    """Hypergeometric series outside its convergence region."""


class NormalizationDiverges(NumericalError):
    """State normalization sum failed to converge below the cutoff cap."""


class QuadratureNonConvergent(NumericalError):
    """Quadrature refinement disagrees at the requested tolerance."""


class StepUnderflow(NumericalError):
    """Finite-difference step fell below the resolvable scale."""


class IntegralNonConvergent(NumericalError):
    """Adaptive integration error estimate exceeds the tolerance."""


class InconsistentPhase(NumericalError):
    """Two derivations of the phase rate disagree beyond roundoff."""
