"""Exception types shared across the torus_hypo package.

Every failure mode that callers are expected to branch on gets its own class;
all of them derive from :class:`TorusHypoError`.  Each class carries the CLI's
exit status for it as the class attribute ``exit_code`` (2 for unusable input,
30-33, 40 and 41 for the solver and construction failures, 50 for any other
domain error), so the CLI catches the whole family and returns ``exc.exit_code``.
The field readers at the end name the input field a failure came from.
"""

from __future__ import annotations


class TorusHypoError(Exception):
    """Base class for all torus_hypo errors."""
    exit_code = 50


class MalformedInput(TorusHypoError):
    """Input file or inline specification could not be parsed."""
    exit_code = 2

    @classmethod
    def refuse_unknown_keys(cls, obj: dict, known) -> None:
        """Raise naming the first key of ``obj`` that is not in ``known``."""
        for key in obj:
            if key not in known:
                raise cls(f"unknown key {key!r}")


# --- continued fractions / Diophantine -----------------------------------

class NonPositiveDigit(MalformedInput):
    """A continued-fraction digit was not a positive integer."""


class DigitStreamExhausted(TorusHypoError):
    """The digit source ran out before the requested index."""
    exit_code = 2


class DigitCapExceeded(TorusHypoError):
    """An exact big-integer convergent was requested past the digit cap."""
    exit_code = 2


class WitnessMismatch(TorusHypoError):
    """An approximation witness is empty or inconsistent with its ladder."""
    exit_code = 41


# --- fitting / cutoffs ----------------------------------------------------

class InsufficientData(TorusHypoError):
    """Too few usable data points for a requested fit."""


class GeometryError(TorusHypoError):
    """Cutoff intervals are not properly nested inside (0, 2*pi)."""
    exit_code = 33


class OrderError(TorusHypoError):
    """A regularity-order argument is outside the admissible range (s <= 1)."""
    exit_code = 2


# --- system analysis -------------------------------------------------------

class MissingClassification(TorusHypoError):
    """A Diophantine classification is required but was not supplied."""


# --- solvers ----------------------------------------------------------------

class GridMismatch(TorusHypoError):
    """Two fields (or a field and a gauge) live on incompatible grids."""
    exit_code = 33


class SolvabilityError(TorusHypoError):
    """The zero-frequency equation is obstructed (nonzero mean data)."""
    exit_code = 30


class ProfileError(TorusHypoError):
    """A coefficient's sign profile is incompatible with the requested step."""
    exit_code = 33


class ZeroDivisorError(TorusHypoError):
    """A division denominator vanished (rational resonance)."""
    exit_code = 32


class CompatibilityError(TorusHypoError):
    """Right-hand sides fail the cross-derivative compatibility relations."""
    exit_code = 31


# --- singular constructions -------------------------------------------------

class LadderMismatch(TorusHypoError):
    """Factor solutions do not share the required frequency ladder."""
    exit_code = 41


class RefusedHypoelliptic(TorusHypoError):
    """A singular solution was requested for a system that is hypoelliptic."""
    exit_code = 40


# --- field readers -----------------------------------------------------------

def _parse_field(name: str, parse, value):
    """``parse(value)``; a value it cannot parse raises MalformedInput (or the
    OrderError it raised) naming the field."""
    try:
        return parse(value)
    except (MalformedInput, OrderError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{name}: {type(exc).__name__}: {exc}") from exc


def _integer(value) -> int:
    """An int, or a string that spells one; a bool, a float or any other
    value is refused rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise MalformedInput(f"expected an integer, got {value!r}")


def _list_field(obj: dict, key: str, default=None) -> list:
    """``obj[key]`` (``default`` when absent), refused unless it is a list."""
    value = obj.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"{key}: expected a list, got {value!r}")
    return value
