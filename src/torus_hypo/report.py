"""Deterministic machine-readable reports.

Every CLI command emits one report: a JSON document with sorted keys and a
fixed float rendering (17 significant digits), so identical inputs produce
byte-identical output across runs and platforms.  Reports carry a format
version, an echo of the command, a SHA-256 digest of the primary input file,
the command-specific body, and *deterministic* runtime statistics (counters
such as frequencies processed or grid sizes — never wall-clock times, which
would break the byte-determinism contract).

Artifacts (the ``solve`` field and the ``singular`` certificate) are plain
compact JSON with sorted keys, written by :func:`write_json`.  The fields in
them hold trigonometric coefficients, where a stored 0.0 means |c| <= eps *
max|c| of its block (eps = machine epsilon): below the rounding error of the
FFT that produced it (``FourierField.coeffs``).  A block's real and
imaginary parts reach :func:`write_json` as float64 vectors, and a run of
stored zeros is written as text, so a mostly-zero certificate costs what its
nonzero coefficients cost.

The artifact text is ``json.dumps``' text, byte for byte, but the digits of
the nonzero coefficients come from orjson: its shortest round-trip digits
(Ryu) are ``repr``'s, printed about ten times faster than ``float.__repr__``.
orjson's format differs from ``repr``'s in three places, each moved back:
1e-5 <= |x| < 1e-4 is written positionally (``0.0000125`` for
``1.25e-05``), a one-digit negative exponent unpadded (``e-7`` for
``e-07``) and a positive exponent unsigned (``e16`` for ``e+16``).  A vector
holding NaN or an infinity is encoded by the C encoder of ``json`` instead,
since orjson writes ``null`` for those, and so is one whose orjson text is
not laid out as the fix-ups expect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .errors import MalformedInput

FORMAT_VERSION = "torus-hypo-report/1"


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _canon_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        # Stable integral rendering (avoids "2" vs "2.0" ambiguity).
        return f"{int(x)}.0"
    return format(x, ".17g")


def _int_text(n: int) -> str:
    """Decimal text of an int of any size (``str`` refuses past 4300 digits)."""
    return str(Decimal(n))


def canonical_json(obj) -> str:
    """Canonical rendering: sorted keys, fixed 17-digit floats, no spaces."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, int):
        return _int_text(int(obj))
    if isinstance(obj, Fraction):
        # the string str(Fraction) gives: "p/q", or "p" when q = 1
        text = _int_text(obj.numerator)
        if obj.denominator != 1:
            text += "/" + _int_text(obj.denominator)
        return json.dumps(text)
    if isinstance(obj, float):
        return _canon_float(float(obj))
    if isinstance(obj, complex):
        return canonical_json({"im": obj.imag, "re": obj.real})
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return canonical_json(obj.tolist())
    if hasattr(obj, "to_json"):
        return canonical_json(obj.to_json())
    raise MalformedInput(f"cannot serialize {type(obj).__name__} canonically")


#: the encoder of every artifact leaf; ``json.dumps`` with these options
#: would build a new encoder per call
_ARTIFACT_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def write_json(obj, fh) -> None:
    """Write ``json.dumps(obj, separators=(",", ":"), sort_keys=True)`` to ``fh``,
    where a 1-D float64 numpy array stands for its ``tolist()``.

    Dicts and lists of containers are written item by item, an array by
    :func:`_write_floats`, everything else by the C encoder: only one piece
    of the text is held at a time (a RationalJ certificate is 4.3 MB of
    text) and the pure-Python encoder of ``json.dump`` is never used.
    """
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write(f"{',' if i else ''}{_ARTIFACT_ENCODER.encode(key)}:")
            write_json(obj[key], fh)
        fh.write("}")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        fh.write("[")
        for i, value in enumerate(obj):
            fh.write("," if i else "")
            write_json(value, fh)
        fh.write("]")
    elif getattr(obj, "ndim", 0) == 1:  # a numpy vector; numpy is loaded if one exists
        _write_floats(obj, fh)
    else:
        fh.write(_ARTIFACT_ENCODER.encode(obj))


def _write_floats(values, fh) -> None:
    """Write ``json.dumps(values.tolist())`` for a 1-D float64 array.

    A run of +0.0 is repeated ``0.0`` text.  The other entries (-0.0 among
    them) are encoded in one call and cut at the commas, which no float's
    text holds, so a run of them is one slice of that text; the loop runs
    once per run.  The digits are orjson's, which are ``repr``'s, and
    :func:`_repr_format` moves orjson's text to ``repr``'s format.  A
    vector with NaN or an infinity goes through the C encoder instead,
    because orjson writes ``null`` where ``json.dumps`` writes ``NaN`` and
    ``Infinity``; so does one whose orjson text :func:`_repr_format` does
    not recognise.  Either way the text is what ``json.dumps`` writes.
    """
    import numpy as np

    if values.dtype != np.float64:
        raise TypeError(f"cannot write a {values.dtype} array as floats")
    zero = values.view(np.int64) == 0  # +0.0 is the one float whose bits are all 0
    starts = np.flatnonzero(np.diff(zero, prepend=~zero[:1])).tolist()
    nonzero = values[~zero]
    text = None
    if np.isfinite(nonzero).all():
        import orjson

        text = _repr_format(orjson.dumps(nonzero, option=orjson.OPT_SERIALIZE_NUMPY), nonzero, np)
    if text is None:
        text = _ARTIFACT_ENCODER.encode(nonzero.tolist()).encode()
    cuts = _delimiters(text, np)
    runs, at = [], 0
    for lo, hi in zip(starts, starts[1:] + [values.size]):
        if zero[lo]:
            runs.append(b"0.0," * (hi - lo - 1) + b"0.0")
        else:
            runs.append(text[cuts[at] + 1 : cuts[at + hi - lo]])
            at += hi - lo
    fh.write("[" + b",".join(runs).decode() + "]")


def _delimiters(text: bytes, np):
    """Positions of the ``[``, each ``,`` and the ``]`` of a JSON list of floats."""
    delimiter = np.frombuffer(text, np.uint8) == ord(",")
    delimiter[[0, -1]] = True
    return np.flatnonzero(delimiter)


def _repr_format(raw: bytes, finite, np):
    """orjson's text of the finite float64 vector ``finite`` in ``repr``'s
    format, or None if ``raw`` is not laid out as these fix-ups expect.

    Which of the three fix-ups (module docstring) a float needs is read off
    its value, and where it goes off the float's delimiters; all are applied
    by one delete and one insert, without searching the text.  Before that
    the bytes around each fix-up are checked (the ``0.0000`` to delete, the
    ``e-`` before an unpadded digit, the ``e`` before an unsigned exponent),
    so an orjson release that writes these floats otherwise is caught, not
    given wrong digits.
    """
    cuts = _delimiters(raw, np)
    end = cuts[1:]
    # 1: [1e-9, 1e-5), 2: [1e-5, 1e-4), 4: [1e16, 1e100), 5: 1e100 and up
    form = np.searchsorted((1e-9, 1e-5, 1e-4, 1e16, 1e100), np.abs(finite), side="right")
    positional = form == 2
    first = (cuts[:-1] + 1 + np.signbit(finite))[positional]  # its "0.0000"
    last = end[positional]
    dot = first[last - first > 7] + 7  # after the first digit, when it has more
    pad = end[form == 1] - 1
    big = form >= 4
    plus = end[big] - (form[big] - 2)  # before the exponent's 2 or 3 digits
    at = np.concatenate([dot, np.repeat(last, 4), pad, plus])
    if not at.size:
        return raw
    gone = (first[:, None] + np.arange(6)).ravel()
    byte = np.frombuffer(raw, np.uint8)
    seen = byte[np.concatenate([gone, pad - 2, pad - 1, plus - 1])].tobytes()
    if seen != b"0.0000" * first.size + b"e" * pad.size + b"-" * pad.size + b"e" * plus.size:
        return None
    text = np.delete(byte, gone)
    new = b"." * dot.size + b"e-05" * last.size + b"0" * pad.size + b"+" * plus.size
    # np.insert keeps equal indices in order, so each "e-05" stays in order
    return np.insert(text, at - np.searchsorted(gone, at), np.frombuffer(new, np.uint8)).tobytes()


def input_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """One command's machine-readable result."""

    command: list
    body: dict
    digest: str | None = None
    runtime: dict = field(default_factory=dict)
    version: str = FORMAT_VERSION

    def to_obj(self) -> dict:
        return {
            "format": self.version,
            "command": list(self.command),
            "input_sha256": self.digest,
            "body": self.body,
            "runtime": self.runtime,
        }

    def to_text(self) -> str:
        return canonical_json(self.to_obj()) + "\n"
