"""Exception types shared across the library."""


class Iet3Error(Exception):
    """Base class for all library errors."""


class DegenerateField(Iet3Error):
    """The quadratic equation has no real irrational root."""


class FieldMismatch(Iet3Error):
    """Two numbers from structurally different fields were combined."""


class NotInLattice(Iet3Error):
    """q*x is not in Z[eps], so x has no residue class mod Z[eps]."""


class PerfectSquare(Iet3Error):
    """Pell equation requested for a perfect-square D."""


class ParseError(Iet3Error):
    """Malformed exact-number string."""


class NoSquareRoot(Iet3Error):
    """sqrt(D) does not lie in the given quadratic field."""


class RationalSlope(Iet3Error):
    """The normalized slope is rational; the exchange is not minimal."""


class OutOfDomain(Iet3Error):
    """Point outside the interval the map acts on."""


class UnknownLetter(Iet3Error):
    """Word contains a letter outside the alphabet."""


class InvalidWindow(Iet3Error):
    """Acceptance window does not contain 0."""


class DangerousEta(Iet3Error):
    """eta in (-1, 0): the neighbor rule of the generator does not apply."""


class StepBudgetExceeded(Iet3Error):
    """The images of a witness would exceed `invariance.STEP_BUDGET` letters."""


class WitnessRejected(Iet3Error):
    """A synthesized witness fails one of the checks that verify it."""


class InvalidUnit(Iet3Error):
    """A scaling candidate that is no unit > 1 with conjugate in (0, 1), or a power s < 1."""
