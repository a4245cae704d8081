"""Exception types shared across the package."""


class UsageError(ValueError):
    """An operation was called with structurally incompatible arguments,
    e.g. a point from the wrong space or a map of the wrong kind."""


class DomainError(ValueError):
    """A numeric argument is outside the operation's validity region."""


class SearchFailure(RuntimeError):
    """An orbit search exhausted its horizon before reaching its target.

    ``target`` is the point whose neighborhood was never visited, ``radius``
    the neighborhood radius, ``horizon`` the steps ruled out (all of them
    once the orbit is seen to cycle).
    """

    def __init__(self, message, target=None, radius=None, horizon=None):
        super().__init__(message)
        self.target = target
        self.radius = radius
        self.horizon = horizon


class EnclosureCapError(RuntimeError):
    """A set operation exceeded the fragment cap.

    ``partial`` carries the exact set that has too many fragments, so a
    caller can still use it as a sound outer bound.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InvariantViolation(RuntimeError):
    """A property that the computed bounds or the exact sets guarantee was
    observed to fail (an attractor trial leaving its absorbing band, a Yes
    witness that cannot be pulled back or fails its re-check), which
    signals a bug rather than bad input."""
