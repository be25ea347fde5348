"""Exception hierarchy.

Every error the library raises deliberately derives from :class:`TightBellError`,
so callers can catch one base class.  Validation errors double as ``ValueError``
for interoperability with generic input-checking code.

A solve that does not certify is a result, not an error: ``solve_quantum_bias``
returns it uncertified.  A failed exact check raises :class:`VerificationFailed`.
"""

from __future__ import annotations


class TightBellError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(TightBellError, ValueError):
    """Matrices or vectors have incompatible dimensions."""


class NegativePrior(TightBellError, ValueError):
    """A prior probability entry is negative."""


class NotNormalized(TightBellError, ValueError):
    """Prior entries do not sum to exactly 1 (rational arithmetic)."""


class EmptyGame(TightBellError, ValueError):
    """Every prior entry is zero; there is no game to reduce."""


class UnknownName(TightBellError, ValueError):
    """Requested named game family does not exist."""


class InvalidParameter(TightBellError, ValueError):
    """A family parameter is out of its valid range."""


class InvalidSpec(TightBellError, ValueError):
    """A shared-input game specification violates its invariants."""


class InvalidDims(TightBellError, ValueError):
    """Dimension arguments are inconsistent or out of range."""


class EmptyInput(TightBellError, ValueError):
    """An operation requiring a nonempty collection received an empty one."""


class GameFormatError(TightBellError, ValueError):
    """A game or spec file does not follow its documented format."""


class TooLarge(TightBellError):
    """An exact enumeration would exceed the configured cap."""


class Truncated(TightBellError):
    """A universally quantified claim was requested on a truncated vertex set."""


class VerificationFailed(TightBellError):
    """An exact or theoretical check on a computed result failed: a bug, not masked."""


class SingularLambda(TightBellError):
    """A dual diagonal entry is zero; the coupling matrix is undefined."""


class NotApplicable(TightBellError):
    """The operation's precondition on the game classification does not hold."""
