"""Exception types shared across the torus_hypo package.

Every failure mode that callers are expected to branch on gets its own class;
all of them derive from :class:`TorusHypoError` so CLI code can catch the whole
family and translate it into an exit code (see :mod:`torus_hypo.cli`).
"""

from __future__ import annotations


class TorusHypoError(Exception):
    """Base class for all torus_hypo errors."""


class MalformedInput(TorusHypoError):
    """Input file or inline specification could not be parsed."""


# --- continued fractions / Diophantine -----------------------------------

class NonPositiveDigit(TorusHypoError):
    """A continued-fraction digit was not a positive integer."""


class DigitStreamExhausted(TorusHypoError):
    """The digit source ran out before the requested index."""


class DigitCapExceeded(TorusHypoError):
    """An exact big-integer convergent was requested past the digit cap."""


class WitnessMismatch(TorusHypoError):
    """An approximation witness is empty or inconsistent with its ladder."""


# --- combinatorics / fitting ----------------------------------------------

class OutOfRange(TorusHypoError):
    """An order/index argument is outside the supported range."""


class InsufficientData(TorusHypoError):
    """Too few usable data points for a requested fit."""


class GeometryError(TorusHypoError):
    """Cutoff intervals are not properly nested inside (0, 2*pi)."""


class OrderError(TorusHypoError):
    """A regularity-order argument is outside the admissible range (s <= 1)."""


# --- system analysis -------------------------------------------------------

class MissingClassification(TorusHypoError):
    """A Diophantine classification is required but was not supplied."""


# --- solvers ----------------------------------------------------------------

class GridMismatch(TorusHypoError):
    """Two fields (or a field and a gauge) live on incompatible grids."""


class SolvabilityError(TorusHypoError):
    """The zero-frequency equation is obstructed (nonzero mean data)."""


class ProfileError(TorusHypoError):
    """A coefficient's sign profile is incompatible with the requested step."""


class ZeroDivisorError(TorusHypoError):
    """A division denominator vanished (rational resonance)."""


class CompatibilityError(TorusHypoError):
    """Right-hand sides fail the cross-derivative compatibility relations."""


class MeanNotZero(TorusHypoError):
    """A coefficient that must have zero average does not."""


# --- singular constructions -------------------------------------------------

class LadderMismatch(TorusHypoError):
    """Factor solutions do not share the required frequency ladder."""


class IntegralityError(TorusHypoError):
    """q times a tube average is not an integer where it must be."""


class RefusedHypoelliptic(TorusHypoError):
    """A singular solution was requested for a system that is hypoelliptic."""
