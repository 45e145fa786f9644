"""The deprecated arena-transport knobs, accepted and ignored until 1.4.0.

Parallel study and service workers lower their own cells, so there is
no transport left to choose.  ``RunOptions(transport=...)``,
``ServiceConfig(transport=...)`` and ``repro.api.TRANSPORTS`` warn with
a :class:`DeprecationWarning`; ``--transport`` on ``repro study`` and
``repro serve`` prints :func:`transport_note` to stderr (CONTRIBUTING.md,
"Deprecation policy").  The knobs still accept only the values 1.2
accepted (:data:`TRANSPORTS`), so a spelling that was an error stays one.
"""

from __future__ import annotations

import warnings

__all__ = ["TRANSPORTS", "check_transport", "transport_note", "warn_transport"]

#: The values the transport knobs accepted in 1.2.
TRANSPORTS = ("auto", "shm", "pickle")


def transport_note(old: str, fix: str) -> str:
    """The one-line deprecation message: the *old* spelling and the
    copy-pasteable *fix*."""
    return (
        f"{old} is deprecated and ignored (workers lower their own cells) "
        f"and will be removed in 1.4.0; {fix}"
    )


def warn_transport(old: str, fix: str, stacklevel: int = 2) -> None:
    """Warn that *old* is a no-op; *stacklevel* counts from the caller."""
    warnings.warn(
        transport_note(old, fix), DeprecationWarning, stacklevel=stacklevel + 1
    )


def check_transport(value: str, old: str, fix: str, stacklevel: int = 2) -> None:
    """Reject a *value* 1.2 rejected, else warn that *old* is a no-op."""
    if value not in TRANSPORTS:
        from .errors import ConfigurationError

        raise ConfigurationError(
            f"transport must be one of {TRANSPORTS} (or None), got {value!r}"
        )
    warn_transport(old, fix, stacklevel=stacklevel + 1)
