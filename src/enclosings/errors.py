"""Exception types shared across the library."""


class PreconditionError(ValueError):
    """A named precondition of an operation does not hold."""


class ConditionsFailedError(PreconditionError):
    """The regime's condition battery fails on the input; `report` is the
    failing `ConditionReport`."""

    def __init__(self, report):
        super().__init__(f"condition {report.first_failing()} fails")
        self.report = report


class InstanceFormatError(ValueError):
    """An instance file or in-memory instance is malformed."""


class CapExceededError(ValueError):
    """An input is larger than a cap: the exhaustive search's desk-scale cap,
    or the command line's size cap."""


class BudgetExhaustedError(RuntimeError):
    """A bounded search ran out of its node budget before finishing.

    Distinct from a completed search that found nothing: budget exhaustion
    says nothing about existence.
    """


class InternalInconsistencyError(RuntimeError):
    """A state that the construction guarantees impossible was reached.

    Raised instead of silently failing so that a bug in the constructive
    machinery is loud rather than masked as "no solution".
    """
