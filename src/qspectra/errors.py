"""Exception hierarchy shared by all qspectra modules.

Exit-code mapping used by the CLI lives in qspectra.cli; the classes here
only encode the failure kind.
"""

from __future__ import annotations


class QSpectraError(Exception):
    """Base class for all library errors."""


class PreconditionError(QSpectraError):
    """An operation was called outside its documented domain."""


class PrecisionExhaustedError(QSpectraError):
    """A certified decision could not be made within the precision budget."""


class ReducibleInputError(QSpectraError):
    """Exact arithmetic detected behaviour impossible for an irreducible
    minimal polynomial; the input polynomial may be reducible."""
