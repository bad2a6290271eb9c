"""Exception taxonomy shared across the package."""


class PoissonError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PoissonError):
    """Syntax error in the expression mini-language, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class UnboundVariableError(PoissonError):
    pass


class DomainEvalError(PoissonError):
    """Evaluation left the real domain or produced a non-finite value."""


class FieldValidationError(PoissonError):
    """A scalar-field triple failed its construction-time checks."""


class FamilyValidationError(PoissonError):
    """A structure-family spec failed its construction-time checks."""


class OutOfRangeError(PoissonError):
    """Target value outside the range of a monotone primitive."""


class InvalidAxisError(PoissonError):
    pass


class DomainMembershipError(PoissonError):
    """Point is outside the configured domain (box or predicate)."""


class ConsistencyAlarmError(PoissonError):
    """Entry pattern impossible for the structure family (zero-sum violation)."""


class HypothesisViolationError(PoissonError):
    """A chart hypothesis (nonvanishing denominator/factor) failed at a point."""


class UndefinedAtPointError(PoissonError):
    """Casimir denominator below threshold at the requested point."""


class DegenerateParametersError(PoissonError):
    pass


class DomainSamplingError(PoissonError):
    """Rejection sampling could not find enough admissible points."""


class DomainExitError(PoissonError):
    """An integration ended early: a state left the domain or was not finite, or a step or the ledger faulted.

    t is the clock at which the run ended and state the state at that t: the
    state that failed its checks, or, when a step from it faulted, the last
    recorded state.  For a reduced run t holds tau and the state is y.
    partial is the trajectory of the rows recorded before the run ended.
    """

    def __init__(self, message: str, t: float, state, partial=None):
        super().__init__(message)
        self.t = t
        self.state = state
        self.partial = partial


class ReparametrizationBreakdownError(PoissonError):
    """The time-reparametrization factor crossed its vanishing threshold."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
