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
imaginary parts reach :func:`write_json` as float64 vectors.

Every float in an artifact parses back to its stored bits.  A vector's floats
are orjson's text: the shortest round-trip digits (Ryu, the digits of
``repr``), printed about ten times faster than ``float.__repr__``, in
orjson's layout (``1e-7``, ``1e16`` and ``0.0000125`` where ``repr`` writes
``1e-07``, ``1e+16`` and ``1.25e-05``).  A vector holding NaN or an infinity
is written by the C encoder of ``json`` instead, since orjson writes
``null`` for those.  Every other leaf is the C encoder's text, so an artifact
without vectors is ``json.dumps``' text byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterator
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
    """Write ``obj`` to ``fh`` as ``json.dumps(obj, separators=(",", ":"),
    sort_keys=True)`` would, where a 1-D float64 numpy array stands for its
    ``tolist()`` and any other iterator for the list of its items, except
    that a float vector is orjson's text of it (module docstring): the same
    floats once parsed, bit for bit.

    Dicts, iterators and lists of containers are walked item by item
    (:func:`_pieces`); every other leaf is one encoder call, and its text is
    written before the next leaf is encoded, so the text held at a time is
    one leaf's (a RationalJ certificate is 4.3 MB of text, a solve field can
    be larger).  The pure-Python encoder of ``json.dump`` is never used.
    """
    fh.writelines(_pieces(obj))


def _pieces(obj):
    """The text of ``obj``, as :func:`write_json` writes it, in order."""
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield f"{',' if i else ''}{_ARTIFACT_ENCODER.encode(key)}:"
            yield from _pieces(obj[key])
        yield "}"
    elif isinstance(obj, Iterator) or (
        isinstance(obj, list) and obj and isinstance(obj[0], (dict, list))
    ):
        yield "["
        for i, value in enumerate(obj):
            if i:
                yield ","
            yield from _pieces(value)
        yield "]"
    elif getattr(obj, "ndim", 0) == 1:  # a numpy vector; numpy is loaded if one exists
        yield from _float_vector_pieces(obj)
    else:
        yield _ARTIFACT_ENCODER.encode(obj)


def _float_vector_pieces(vector):
    """The text of a float64 vector: orjson's, or the C encoder's if the
    vector holds NaN or an infinity, which orjson writes as ``null``.

    The +0.0 before the first other float and after the last one are
    written as repeated text, not printed one by one (+0.0 is the one float
    whose bits are all 0): a RationalJ block is one row of nonzero
    coefficients among rows of zeros.
    """
    import numpy as np

    if vector.dtype != "float64":
        raise TypeError(f"cannot write a {vector.dtype} array as floats")
    if not np.isfinite(vector).all():
        yield _ARTIFACT_ENCODER.encode(vector.tolist())
        return
    import orjson

    vector = np.ascontiguousarray(vector)
    bits = vector.view(np.int64)
    if not vector.size or bits[0] and bits[-1]:
        yield orjson.dumps(vector, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        return
    nonzero = np.flatnonzero(bits)
    if not nonzero.size:
        yield f"[{','.join(['0.0'] * vector.size)}]"
        return
    lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
    text = orjson.dumps(vector[lo:hi], option=orjson.OPT_SERIALIZE_NUMPY)
    yield "[" + "0.0," * lo
    yield str(memoryview(text)[1:-1], "ascii")  # without its brackets, in one copy
    yield ",0.0" * (vector.size - hi) + "]"


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
