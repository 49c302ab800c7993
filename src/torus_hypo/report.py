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
imaginary parts reach :func:`write_json` as float64 vectors, which it
renders in bounded batches of consecutive vectors: one encoder call, one
format fix-up and one delimiter scan per batch.  A run of stored zeros is
written as text, so a mostly-zero certificate costs what its nonzero
coefficients cost.

The artifact text is ``json.dumps``' text, byte for byte, but the digits of
the nonzero coefficients come from orjson: its shortest round-trip digits
(Ryu) are ``repr``'s, printed about ten times faster than ``float.__repr__``.
orjson's format differs from ``repr``'s in three places, each moved back:
1e-5 <= |x| < 1e-4 is written positionally (``0.0000125`` for
``1.25e-05``), a one-digit negative exponent unpadded (``e-7`` for
``e-07``) and a positive exponent unsigned (``e16`` for ``e+16``).  A batch
holding NaN or an infinity is encoded by the C encoder of ``json`` instead,
since orjson writes ``null`` for those, and so is one whose orjson text is
not laid out as the fix-ups expect.
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

#: a render batch of :func:`write_json` closes once it holds this many
#: float64 entries, or this much text (a nonzero float counts 24 characters)
_BATCH_ENTRIES = 1 << 17
_BATCH_CHARS = 1 << 18

#: a run of this many +0.0 or more is joined in as a string of its own
_LONG_ZERO_RUN = 16


def write_json(obj, fh) -> None:
    """Write ``json.dumps(obj, separators=(",", ":"), sort_keys=True)`` to ``fh``,
    where a 1-D float64 numpy array stands for its ``tolist()`` and any other
    iterator for the list of its items.

    Dicts, iterators and lists of containers are walked item by item
    (:func:`_pieces`); every other leaf is one C-encoder call.  The float
    vectors are rendered in batches of consecutive vectors by
    :func:`_render_floats`, one pass per batch, and a batch is written as
    soon as it closes, so the text held at a time is bounded (a RationalJ
    certificate is 4.3 MB of text, a solve field can be larger).  The
    pure-Python encoder of ``json.dump`` is never used.
    """
    batch, entries, chars = [], 0, 0
    for piece in _pieces(obj):
        batch.append(piece)
        if isinstance(piece, str):
            chars += len(piece)
        else:
            from numpy import count_nonzero

            entries += piece.size
            chars += 24 * count_nonzero(piece)
        if not entries or entries >= _BATCH_ENTRIES or chars >= _BATCH_CHARS:
            fh.write(_render(batch))
            batch, entries, chars = [], 0, 0
    fh.write(_render(batch))


def _pieces(obj):
    """The text of ``obj`` (as :func:`write_json` writes it) in order, with
    each nonempty float64 vector in place of its text."""
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
        if obj.dtype != "float64":
            raise TypeError(f"cannot write a {obj.dtype} array as floats")
        yield obj if obj.size else "[]"
    else:
        yield _ARTIFACT_ENCODER.encode(obj)


def _render(batch: list) -> str:
    """The text of a batch of :func:`_pieces`."""
    vectors = [piece for piece in batch if not isinstance(piece, str)]
    if not vectors:
        return "".join(batch)
    texts, parts = iter(_render_floats(vectors)), []
    for piece in batch:
        if isinstance(piece, str):
            parts.append(piece)
        else:
            parts += next(texts)
    return "".join(parts)


def _render_floats(vectors: list) -> list:
    """The text of each of the nonempty float64 vectors, as the strings whose
    join is ``json.dumps(v.tolist())``.

    All of them are rendered in one pass.  The nonzero entries (-0.0 among
    them) are encoded by one orjson call, whose digits are ``repr``'s; if an
    entry is NaN or an infinity, they are encoded by the C encoder instead,
    because orjson writes ``null`` where ``json.dumps`` writes ``NaN`` and
    ``Infinity``, and so they are when :func:`_repr_format` does not
    recognise orjson's text.  Either way the text is what ``json.dumps``
    writes once :func:`_repr_format`'s edits are made.

    The entries are cut into runs of +0.0 and runs of other entries, no run
    crossing a vector.  A run of other entries is one slice of the encoded
    text, a run of +0.0 is repeated ``0.0`` text.  The runs are laid out by
    one splice of that text, which makes the format edits and inserts the
    runs of +0.0, except that a run of ``_LONG_ZERO_RUN`` or more +0.0 is
    joined in as a string: a mostly-zero certificate costs what its runs
    cost.
    """
    import numpy as np

    values = np.concatenate(vectors)
    zero = values.view(np.int64) == 0  # +0.0 is the one float whose bits are all 0
    nonzero = values[~zero]
    edits = None
    if np.isfinite(nonzero).all():
        import orjson

        text = np.frombuffer(orjson.dumps(nonzero, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8)
        edits = _repr_format(text, nonzero, np)
    if edits is None:
        text = np.frombuffer(_ARTIFACT_ENCODER.encode(nonzero.tolist()).encode(), np.uint8)
        cuts = _delimiters(text, np)
        edits = cuts, cuts, cuts[:0], cuts[:0], b""
    cuts, moved, gone, at, new = edits
    cuts, moved = cuts[: nonzero.size + 1], moved[: nonzero.size + 1]  # "[]" holds no float

    ends = np.cumsum([v.size for v in vectors])
    begins = np.empty(values.size, bool)  # a run begins here
    begins[0] = True
    np.not_equal(zero[1:], zero[:-1], out=begins[1:])
    begins[ends[:-1]] = True
    start = np.flatnonzero(begins)
    length = np.append(start[1:], values.size) - start
    is_zero = zero[start]
    # An entry's unit is its text and the delimiter after it.  A run of k
    # nonzero entries is the units text[cuts[n] + 1 : cuts[n + k] + 1], made
    # moved[n + k] - moved[n] long by the edits; a run of +0.0 is "0.0,"
    # repeated, inserted before the next nonzero unit.
    counted = np.where(is_zero, 0, length)
    seen = np.cumsum(counted)  # nonzero entries up to each run's end
    size = np.where(is_zero, 4 * length, moved[seen] - moved[seen - counted])
    long = is_zero & (length >= _LONG_ZERO_RUN)
    size[long] = 0
    short = is_zero & ~long
    at = np.concatenate([at, np.repeat(cuts[seen[short]] + 1, 4 * length[short])])
    new = np.frombuffer(new + b"0.0," * int(length[short].sum()), np.uint8)
    # the text without its "[" (and the "]" of an empty one), so every
    # position moves down by 1
    out = _splice(text[1 : cuts[-1] + 1], gone - 1, at - 1, new, np)
    stop = np.cumsum(size)
    last = np.searchsorted(start, ends) - 1  # each vector's last run
    if nonzero.size:  # the "]" after the last nonzero unit
        out[stop[np.flatnonzero(~is_zero)[-1]] - 1] = ord(",")
    out[stop[last[~long[last]]] - 1] = ord("]")  # each vector's last delimiter
    text = str(out, "ascii")

    stop, length = stop.tolist(), length.tolist()
    splices = iter(np.flatnonzero(long).tolist() + [start.size])
    splice = next(splices)
    texts, pos = [], 0
    for end in last.tolist():
        parts = ["["]
        while splice <= end:
            parts += [text[pos : stop[splice]], "0.0," * length[splice]]
            pos = stop[splice]
            splice = next(splices)
        if pos < stop[end]:
            parts.append(text[pos : stop[end]])
            pos = stop[end]
        else:  # the vector ends in a long run
            parts[-1] = parts[-1][:-1] + "]"
        texts.append(parts)
    return texts


def _splice(byte, gone, at, new, np):
    """The uint8 array ``byte`` without the bytes at ``gone`` (ascending) and
    with ``new[i]`` inserted before ``byte[at[i]]`` (``at`` may equal
    ``byte.size``; inserts at one place keep their order), as a new array."""
    order = np.argsort(at, kind="stable")
    at = at[order]
    landed = at - np.searchsorted(gone, at) + np.arange(at.size)
    out = np.empty(byte.size - gone.size + at.size, np.uint8)
    out[landed] = new[order]
    kept = np.ones(out.size, bool)
    kept[landed] = False
    if gone.size:
        keep = np.ones(byte.size, bool)
        keep[gone] = False
        byte = byte[keep]
    out[kept] = byte
    return out


def _delimiters(text, np):
    """Positions of the ``[``, each ``,`` and the ``]`` in the uint8 array
    ``text`` of a JSON list of floats."""
    delimiter = text == ord(",")
    delimiter[[0, -1]] = True
    return np.flatnonzero(delimiter)


def _repr_format(text, finite, np):
    """The edits that move orjson's text of the finite float64 vector
    ``finite`` (a uint8 array) to ``repr``'s format, for :func:`_splice`,
    or None if ``text`` is not laid out as they expect.

    Returns the positions of the text's delimiters (:func:`_delimiters`),
    where they move to, the bytes to delete, the places to insert at and
    the bytes to insert there.  Which of the three fix-ups (module
    docstring) a float needs is read off its value, and where it goes off
    the float's delimiters, so the text is not searched.  Before that the
    bytes around each fix-up are checked (the ``0.0000`` to delete, the
    ``e-`` before an unpadded digit, the ``e`` before an unsigned exponent),
    so an orjson release that writes these floats otherwise is caught, not
    given wrong digits.
    """
    cuts = _delimiters(text, np)
    end = cuts[1:]
    # 1: [1e-9, 1e-5), 2: [1e-5, 1e-4), 4: [1e16, 1e100), 5: 1e100 and up
    form = np.searchsorted((1e-9, 1e-5, 1e-4, 1e16, 1e100), np.abs(finite), side="right")
    positional = form == 2
    first = (cuts[:-1] + 1 + np.signbit(finite))[positional]  # its "0.0000"
    last = end[positional]
    long = last - first > 7  # a first digit and more
    dot = first[long] + 7  # after the first digit
    pad = end[form == 1] - 1
    big = form >= 4
    plus = end[big] - (form[big] - 2)  # before the exponent's 2 or 3 digits
    gone = (first[:, None] + np.arange(6)).ravel()
    seen = text[np.concatenate([gone, pad - 2, pad - 1, plus - 1])].tobytes()
    if seen != b"0.0000" * first.size + b"e" * pad.size + b"-" * pad.size + b"e" * plus.size:
        return None
    at = np.concatenate([dot, np.repeat(last, 4), pad, plus])
    new = b"." * dot.size + b"e-05" * last.size + b"0" * pad.size + b"+" * plus.size
    grown = ((form == 1) | big).astype(np.int64)
    grown[positional] = long - 2  # -6 + 4, and 1 for the dot
    return cuts, cuts + np.concatenate([[0], np.cumsum(grown)]), gone, at, new


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
