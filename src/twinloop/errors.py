"""Exception types shared across the simulator."""


class TwinloopError(Exception):
    """Base class for all package errors."""


class InvalidInputError(TwinloopError):
    """An argument violates an operation's preconditions (shape, range, finiteness)."""


class ConfigurationError(TwinloopError):
    """An experiment configuration is inconsistent or incomplete."""


class NumericalFailureError(TwinloopError):
    """A numerical operation produced non-finite or unusable results.

    Carries the query interval at which the failure occurred when known.
    """

    def __init__(self, message, qi=None):
        super().__init__(message if qi is None else f"{message} (QI {qi})")
        self.message = message
        self.qi = qi


class WeakLineOfSightError(TwinloopError):
    """Channel parameters fall outside the strong line-of-sight regime.

    The outage threshold starts from the paper's closed-form inversion, which
    requires sqrt(2*G) > Qinv(epsilon); below that the starting point has no
    support.
    """


class TrainingFailureError(TwinloopError):
    """Policy optimization produced a non-finite loss; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
