"""Exception types shared across the package."""

from typing import Optional


class StableVCError(Exception):
    """Base class for all package errors."""


class DomainExhausted(StableVCError):
    """No fresh sting is available in the label domain (misconfigured k)."""


class NotReady(StableVCError):
    """Bookkeeping has not run yet, so no maximal label is available."""


class PreconditionViolated(StableVCError):
    """An operation was invoked with arguments that violate its contract."""


class NoPivot(StableVCError):
    """Two vector clock pairs share no common reference item."""


class ActionNotEnabled(StableVCError):
    """A simulation step was requested for an action that is not enabled."""


class AlreadyCrashed(StableVCError):
    """crash() called on a processor that is already down."""


class NotCrashed(StableVCError):
    """restart_undetectable() called on a processor that is up."""


class BroadcastInProgress(StableVCError):
    """A new broadcast was started while the previous one is still draining."""


class NoBroadcast(StableVCError):
    """continue_broadcast() called with no pending broadcast."""


class ScenarioError(StableVCError):
    """A scenario or trace file is malformed or inconsistent.  The text is
    the message alone; ``line`` is the file's line at fault, or None."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line
