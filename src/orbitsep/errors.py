"""Exception types shared across the package."""


class OrbitsepError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OrbitsepError, ValueError):
    """Malformed parameters, points, schemas, or violated preconditions."""


class BudgetExhaustedError(OrbitsepError):
    """An orbit search ran out of budget (or the orbit closed) before success.

    This is a report of "unknown", not a disproof: the searched hypothesis may
    still hold beyond the explored horizon.
    """

    def __init__(self, message, explored=0):
        super().__init__(message)
        self.explored = explored
        # Filled in by separate_points when an escape runs out: one JSON-ready
        # entry per started level, innermost first, with the level's "pivot"
        # (point JSON), "eps" (rational string) and "stage" ("escape" or
        # "recursion"); "recursion" entries add "escape" and "restarts".
        self.partial_levels = []


class NotIsometricError(OrbitsepError):
    """A result whose proof assumes isometric generators failed its check,
    so some generator does not preserve distances."""


class TraceReplayError(OrbitsepError):
    """A recorded separation trace is inconsistent with its instance."""
