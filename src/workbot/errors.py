"""Common error base for every pipeline in the toolkit.

Each stage module defines its own error subclasses; they all derive from
:class:`WorkbotError` so callers (and the CLI) can catch pipeline failures
in one place.  The CLI reports one on stderr as ``{"error": <class name>,
"message": <text>}``.
"""

from __future__ import annotations


class WorkbotError(Exception):
    """Base class for all recoverable pipeline errors."""
