"""Exception taxonomy.

Every failure mode that a caller is expected to branch on gets its own class;
anything raised here is a *diagnosed* condition, not a crash.  CLI code maps
these to exit code 1 together with the name of the failing stage.
"""


class SiegelcertError(Exception):
    """Base class for all library errors."""


# ---- numerics ----

class NonConvergence(SiegelcertError):
    """Root iteration hit its cap without meeting the tolerance."""


class ClusterUnresolved(SiegelcertError):
    """Root disks overlap and the caller demanded pairwise-simple roots."""


class BoundaryUndecidable(SiegelcertError):
    """A root ball straddles the unit circle: double precision cannot decide
    the Salem root pattern, and the run exits 1."""


class DegreeOverflow(SiegelcertError):
    """Sylvester elimination would exceed the configured size cap."""


class BadPrime(SiegelcertError):
    """Modulus is not prime or divides the leading coefficient."""


class BallDomainError(SiegelcertError):
    """Ball operation undefined (division or sqrt through a ball containing 0)."""


# ---- cuspidal family ----

class Indeterminate(SiegelcertError):
    """Point is an indeterminacy point of the map."""


class DegenerateTau(SiegelcertError):
    """tau in {-1, 2}: the off-curve fixed-point data degenerates."""


class PoleAtTau(SiegelcertError):
    """tau = -2 is a pole of the rotation-number function."""


class NoSalemFactor(SiegelcertError):
    """Polynomial is not a Salem polynomial, or has no Salem factor after
    cyclotomic stripping; the message names the failed check."""


# ---- three-lines family ----

class PoleInFormula(SiegelcertError):
    """A parameter formula denominator vanishes; message names the factor."""


class PoleAtParameter(SiegelcertError):
    """A fixed abscissa coincides with one of the map parameters."""


class PoleHit(SiegelcertError):
    """Moebius iterate denominator vanished."""


class OrbitCollision(SiegelcertError):
    """An indeterminacy orbit hit I(f) before its scheduled step."""


class DegenerateSpectrum(SiegelcertError):
    """Fixed-point abscissa polynomial has (numerically) multiple roots."""


class OffUnitCircle(SiegelcertError):
    """Operation requires |delta| = 1."""


class SearchFailed(SiegelcertError):
    """Parameter construction could not satisfy its bounds; message names the bound."""


class PerturbationFailed(SiegelcertError):
    """No perturbation size kept every verdict CertifiedOut."""


class BudgetExhausted(SiegelcertError):
    """Orbit-length sweep exceeded its cap before hitting both targets."""


# ---- cohomology / certification ----

class WitnessMismatch(SiegelcertError):
    """A witness value is not a certified unit-circle root of the run's Salem
    certificate, or a claimed witness polynomial does not vanish there."""


class ChartFailure(SiegelcertError):
    """No affine chart covers the requested point."""


class CheckFailed(SiegelcertError):
    """A computed result failed a consistency check that the construction
    guarantees (fixed-point residual, indeterminacy, criterion agreement,
    Siegel cap); the message names the check."""


class PipelineFailed(SiegelcertError):
    """A pipeline stage postcondition failed; message names the stage."""

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        super().__init__(f"{stage}: {detail}" if detail else stage)
