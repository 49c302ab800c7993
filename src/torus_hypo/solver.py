"""Solvers for the partial Fourier transforms of tube-system equations.

The equations decouple in the x-frequency ξ.  For a right-hand side with
x-transform f̂(t, ξ), the equation along tube ``j`` reads

    ∂_{t_j} û(t, ξ) + iξ (a_j0 + i b_j(t_j)) û(t, ξ) = f̂(t, ξ),

a first-order periodic ODE in t_j with the other t-variables as spectators.
Two solution regimes are implemented:

* :func:`solve_single_tube` — one tube whose imaginary part ``b_j`` is
  one-signed and not identically zero.  The periodic problem then has a
  unique solution for every ξ (the holonomy factor ``e^{-i2πξc_0}`` stays off
  the unit circle because ``ξ b_0 ≠ 0``).  The solution operator is applied
  exactly in Fourier-mode space along t_j: a banded linear system of
  bandwidth d = ``deg b`` over modes |m| ≤ K/2, solved for a chunk of ξ at a
  time by LAPACK's ``zgtsv`` (tridiagonal, d = 1) or ``zgbsv`` (banded LU,
  every other d).  Both are called through scipy's f2py binding
  ``scipy.linalg._flapack``, loaded from its file by :func:`_flapack`: the
  ``scipy.linalg`` package import would cost about 0.2 s of a cold ``solve``
  for these two routines.  K is chosen per ξ a posteriori: it starts at
  N + 4d + 2 (N the grid size) and doubles until the outermost 2d modes of the
  solution are at most ε·max|û| (ε = machine epsilon), up to the ceiling
  K = max(1024, 4|ξ|), where the solution is accepted and counted as capped.
  This evaluates the same solution the closed-form damped integral
  represents, without quadrature error and without the ``e^{ξ·osc(∫b)}``
  roundoff amplification a gauge transform would incur.

* :func:`solve_by_division` — every tube carries ``b_j ≡ 0`` and constant
  ``a_j``; division by the linear form ``ξ a_{M0} + η_M`` of the tube M with
  the largest divisor inverts the system mode by mode, a chunk of ξ at a time.
  The averaged constants are used as rationals, so that near-resonant
  divisors are evaluated exactly rather than in float64: a float as the
  dyadic rational it holds, a digit-defined constant to within
  10**-``DIVISION_DIGITS``.

:func:`solve_system` is the whole-system pipeline behind ``torus-hypo solve``:
the averaging gauge, the compatibility check of one field per tube
(:func:`_check_compatible`), the choice between the two routes above, and the
residual rows.

:class:`FourierField` is the shared container: a sorted int64 vector of the
stored ξ and one complex array stacking their grid values over the
n-dimensional t-torus, axis 0 running over ξ.  Whole-field operations (the
FFTs, t-derivatives, tube operators and norms) act on the whole stack at
once; both serialized forms, which store the trigonometric coefficients,
and the magnitudes take it a chunk of rows at a time, and the solvers above
take its rows in chunks or one by one.  Only this module reads or writes
single rows of a field.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import io
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from stat import S_ISREG
from typing import Mapping, Sequence

import numpy as np

from .diophantine import RealConstant
from .errors import (
    CompatibilityError,
    GridMismatch,
    InsufficientData,
    MalformedInput,
    ProfileError,
    SolvabilityError,
    ZeroDivisorError,
    _parse_field,
)
from .gevrey import GevreyWitness, estimate_decay
from .normalform import apply_gauge, build_normal_form
from .report import write_json
from .system import (
    CHANGES_SIGN,
    IDENTICALLY_ZERO,
    NON_NEGATIVE_NOT_ZERO,
    NON_POSITIVE_NOT_ZERO,
    SystemSpec,
    analyze,
    sign_analysis,
)

__all__ = [
    "FourierField",
    "solve_system",
    "solve_single_tube",
    "solve_by_division",
    "residual",
    "decay_report",
    "MIN_INTERNAL_MODES",
    "DIVISION_DIGITS",
    "ZERO_DIVISOR_FLOOR",
    "MEAN_TOL",
    "COMPAT_TOL",
]


#: Ceiling on the internal t_j-modes of the single-tube solver: a ξ whose
#: solution is still not resolved at K = max(MIN_INTERNAL_MODES, 4|ξ|) modes is
#: accepted there and counted as capped.  The ceiling grows with |ξ| to follow
#: the width ~ |ξ|^{1/2} concentration of the solution operator's kernel.
MIN_INTERNAL_MODES = 1024

#: ξ per stacked banded solve of the single-tube solver and per chunk of a
#: residual; bounds the size of the temporary arrays.
_XI_CHUNK = 64

#: Grid values per chunk of a field's serialized forms and magnitudes
#: (1 MB of coefficients); a block larger than this is a chunk of its own.
_CHUNK_ENTRIES = 1 << 16

#: Significant digits of the averaged constants in the division solver.
DIVISION_DIGITS = 60

#: Divisors smaller than this signal a rational resonance in the division
#: solver (unreachable for exactly-evaluated irrational averages).
ZERO_DIVISOR_FLOOR = 1e-300

#: Relative size above which the ξ = 0 data of the single-tube solver has a
#: nonzero t_j-mean (:class:`SolvabilityError`).
MEAN_TOL = 1e-10

#: Relative tolerance of the compatibility check L_j f_k = L_k f_j.
COMPAT_TOL = 1e-8

_BINARY_MAGIC = b"TFF1"
_BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<4sIqqqqq")


# ---------------------------------------------------------------------------
# FourierField
# ---------------------------------------------------------------------------


def _integral(value) -> int:
    """A JSON integer: ``2.0`` passes, ``2.5``, ``True`` and ``"2"`` do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise MalformedInput(f"{value!r} is not an integer")
    return int(value)


def _along(vec: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """The 1-D ``vec`` shaped to broadcast along ``axis`` of ``ndim`` axes."""
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


#: Largest block, in bits of its grid_size**n values: numpy refuses an
#: array past 2**63 bytes, even an empty stack of such blocks.
_MAX_BLOCK_BITS = 58


def _check_layout(n: int, grid_size: int) -> tuple:
    """``(n, grid_size)`` as ints: n >= 1 axes of a power-of-two grid >= 4,
    with blocks of at most 2**_MAX_BLOCK_BITS values.  The bound is checked
    on the exponents, so a huge n costs nothing."""
    n, grid_size = int(n), int(grid_size)
    if n < 1:
        raise MalformedInput(f"need n >= 1 t-variables, got {n}")
    if grid_size < 4 or grid_size & (grid_size - 1):
        raise MalformedInput(f"grid_size must be a power of two >= 4, got {grid_size}")
    if 2 * n > _MAX_BLOCK_BITS:  # grid_size >= 4 adds 2 bits per axis
        raise MalformedInput(f"n = {n} t-variables make blocks past 2**{_MAX_BLOCK_BITS} values")
    bits = n * (grid_size.bit_length() - 1)
    if bits > _MAX_BLOCK_BITS:
        raise MalformedInput(
            f"grid_size {grid_size} over n = {n} t-variables makes blocks of 2**{bits} values, "
            f"past 2**{_MAX_BLOCK_BITS}"
        )
    return n, grid_size


def _block_part(block, part: str, size: int):
    """``block[part]``, a list (or 1-D array) of ``size`` numbers; a scalar
    would be broadcast over the block, so it is refused."""
    values = block[part]
    if not isinstance(values, (list, np.ndarray)):
        kind = type(values).__name__
        raise MalformedInput(f"{part}: expected a list of {size} numbers, got {kind}")
    if len(values) != size:
        raise MalformedInput(f"{part}: expected {size} numbers (grid_size**n), got {len(values)}")
    return values


@dataclass(eq=False)  # arrays have no single truth value
class FourierField:
    """Partial x-Fourier data û(t, ξ) over the n-dimensional t-torus.

    ``xi`` is the sorted, repeat-free int64 vector of the stored frequencies
    (a dense window for solver data, a sparse ladder for singular
    constructions).  ``data`` stacks their grid *values* in one complex array
    of shape ``(len(xi),) + (grid_size,) * n``: row k holds û(·, xi[k]) on the
    uniform tensor grid ``t = 2πj/grid_size`` per axis, so axis 0 is ξ and
    axes 1..n are t_1..t_n.  Values and trigonometric coefficients are
    interchangeable for band-limited data; :meth:`coeffs` returns the
    coefficient stack (``fftn(values)/N^n`` over axes 1..n, ``fftfreq``
    layout), which is also what the serialized forms store.

    Whole-field operations act on the stack at once, the serialized forms a
    chunk of rows at a time.  Only this module reads or writes single rows;
    other modules build a stack and hand it to the constructor or to
    :meth:`from_coeffs`, and read rows with :meth:`take`.
    """

    n: int
    grid_size: int
    xi: np.ndarray = ()
    data: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.n, self.grid_size = _check_layout(self.n, self.grid_size)
        self.xi = np.asarray(self.xi, dtype=np.int64).reshape(-1)
        shape = (self.xi.size,) + (self.grid_size,) * self.n
        data = np.zeros(shape) if self.data is None else self.data
        self.data = np.asarray(data, dtype=complex)
        if self.data.shape != shape:
            raise GridMismatch(f"data shape {self.data.shape} != {shape}")
        if np.any(self.xi[1:] <= self.xi[:-1]):
            raise MalformedInput("xi must be ascending without repeats")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_coeffs(
        cls, n: int, grid_size: int, xi, coeffs, labels=None, *, overwrite: bool = False
    ) -> "FourierField":
        """The field whose coefficient stack (the layout :meth:`coeffs`
        returns) is ``coeffs``, row k at ξ = ``xi[k]``: one inverse FFT over
        axes 1..n, in place in ``coeffs`` when ``overwrite`` is set and it is
        a complex array (a reader's own buffer).

        The rows may come in any order; they are sorted by ξ.  A repeated ξ,
        a coefficient that is not finite, or finite coefficients whose grid
        values pass the float range raise :class:`MalformedInput` naming the
        row by ``labels[k]`` (default ``xi: <ξ>``).
        """
        layout = cls(n=n, grid_size=grid_size)
        xi = np.asarray(xi, dtype=np.int64).reshape(-1)
        coeffs = np.asarray(coeffs, dtype=complex)
        labels = labels if labels is not None else [f"xi: {x}" for x in xi.tolist()]
        axes = tuple(range(1, layout.n + 1))
        finite = np.isfinite(coeffs).all(axis=axes)
        if not finite.all():
            raise MalformedInput(f"{labels[np.argmin(finite)]} holds a non-finite coefficient")
        order = np.argsort(xi, kind="stable")
        ascending = xi[order]
        repeats = np.flatnonzero(ascending[1:] == ascending[:-1])
        if repeats.size:
            raise MalformedInput(f"{labels[order[repeats[0] + 1]]} repeats an earlier block")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            out = coeffs if overwrite else np.empty_like(coeffs)
            data = np.fft.ifftn(coeffs, axes=axes, out=out)
            data *= layout.grid_size**layout.n
        finite = np.isfinite(data).all(axis=axes)
        if not finite.all():
            label = labels[np.argmin(finite)]
            raise MalformedInput(f"{label} has grid values past the float range")
        if np.any(order[1:] < order[:-1]):
            data = data[order]
        return cls(layout.n, layout.grid_size, ascending, data)

    @classmethod
    def from_modes(cls, n: int, grid_size: int, modes: Mapping) -> "FourierField":
        """Exact synthesis from {(η, ξ): coefficient} (η an int when n = 1).

        η components must satisfy |η_i| < grid_size/2 (representable band).
        """
        layout = cls(n=n, grid_size=grid_size)
        N = layout.grid_size
        row = {xi: k for k, xi in enumerate(sorted({int(xi) for _, xi in modes}))}
        coeffs = np.zeros((len(row),) + (N,) * layout.n, dtype=complex)
        for (eta, xi), coeff in modes.items():
            eta = tuple(int(e) for e in np.atleast_1d(eta))
            if len(eta) != layout.n:
                raise MalformedInput(f"mode {eta} has wrong arity for n={layout.n}")
            for e in eta:
                if abs(e) >= N // 2:
                    raise MalformedInput(f"t-frequency {e} outside representable band for grid {N}")
            coeffs[(row[int(xi)],) + tuple(e % N for e in eta)] = complex(coeff)
        return cls.from_coeffs(layout.n, N, list(row), coeffs, overwrite=True)

    # -- access ----------------------------------------------------------------

    def take(self, xi) -> np.ndarray:
        """The grid values at ξ = ``xi`` (one int: one block; a sequence: a
        stack of blocks in that order); :class:`GridMismatch` names a ξ that
        is not stored."""
        missing = set(np.atleast_1d(xi).tolist()).difference(self.xi.tolist())
        if missing:
            raise GridMismatch(f"no data block at xi={min(missing)}")
        return self.data[np.searchsorted(self.xi, xi)]

    def coeffs(self, rows=slice(None)) -> np.ndarray:
        """Trigonometric coefficient stack of ``data[rows]`` (fftfreq layout).

        ``fftn(values)/N^n`` over axes 1..n, with every entry of modulus at
        most ε·max|c| (ε = machine epsilon, the max over the entry's own
        block) set to exactly 0.0; the other entries keep their bits, and an
        all-zero block stays zero.  By the FFT's error bound (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 24.2)
        such an entry cannot be told from zero at the transform's precision.
        Both serialized forms store these coefficients, so a stored 0.0 means
        |c| ≤ ε·max|c| of its block.

        Each block is transformed and floored on its own, so a block's bits
        do not depend on ``rows``: the serialized forms take the stack a
        chunk of rows at a time (:meth:`_coeff_chunks`) and never hold a
        whole-field copy.
        """
        values, axes = self.data[rows], tuple(range(1, self.n + 1))
        c = np.fft.fftn(values, axes=axes, out=np.empty_like(values))
        c /= self.grid_size**self.n
        mag = np.abs(c)
        c[mag <= np.finfo(float).eps * mag.max(axis=axes, keepdims=True)] = 0.0
        return c

    def _chunks(self):
        """Consecutive row slices of the stack, each of ``_CHUNK_ENTRIES``
        grid values or one row."""
        step = max(1, _CHUNK_ENTRIES // self.grid_size**self.n)
        return (slice(lo, lo + step) for lo in range(0, self.xi.size, step))

    def _coeff_chunks(self):
        """:meth:`coeffs` of the stack, one :meth:`_chunks` slice at a time."""
        return (self.coeffs(rows) for rows in self._chunks())

    def t_grid(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size

    # -- layout compatibility and arithmetic ----------------------------------

    def require_same_frequencies(self, other: "FourierField") -> None:
        if self.n != other.n or self.grid_size != other.grid_size:
            raise GridMismatch(
                f"layout ({self.n}, {self.grid_size}) != ({other.n}, {other.grid_size})"
            )
        if not np.array_equal(self.xi, other.xi):
            raise GridMismatch("fields carry different xi frequency sets")

    def __sub__(self, other: "FourierField") -> "FourierField":
        self.require_same_frequencies(other)
        return FourierField(self.n, self.grid_size, self.xi, self.data - other.data)

    # -- calculus ---------------------------------------------------------------

    def t_derivative(self, axis: int) -> "FourierField":
        """Spectral ∂/∂t_axis (axis 0-based)."""
        if not 0 <= axis < self.n:
            raise MalformedInput(f"axis {axis} out of range for n={self.n}")
        freqs = np.fft.fftfreq(self.grid_size, 1.0 / self.grid_size)
        hat = np.fft.fft(self.data, axis=axis + 1)
        np.multiply(_along(1j * freqs, axis + 1, self.n + 1), hat, out=hat)
        np.fft.ifft(hat, axis=axis + 1, out=hat)
        return FourierField(self.n, self.grid_size, self.xi, hat)

    # -- norms / summaries --------------------------------------------------------

    def max_abs(self) -> float:
        return float(np.abs(self.data).max()) if self.xi.size else 0.0

    def magnitudes(self) -> dict:
        """{ξ: max_t |û(t, ξ)|} — the decay profile the Gevrey fits consume,
        taken one :meth:`_chunks` slice at a time."""
        axes, peaks = tuple(range(1, self.n + 1)), []
        for rows in self._chunks():
            peaks += np.abs(self.data[rows]).max(axis=axes).tolist()
        return dict(zip(self.xi.tolist(), peaks))

    # -- serialization ---------------------------------------------------------------

    def _window(self) -> tuple:
        return (int(self.xi[0]), int(self.xi[-1])) if self.xi.size else (0, 0)

    def to_json_obj(self) -> dict:
        """The JSON form, each block's ``re`` and ``im`` a float64 vector
        (views of its coefficients), which :func:`~.report.write_json`
        writes as the list of its floats in orjson's shortest round-trip
        text: each parses back to its stored bits.

        ``blocks`` is an iterator over the block dicts: the coefficients are
        computed a chunk of rows at a time as it is consumed, so writing
        the form holds one chunk of them, not a copy of the field.
        :func:`~.report.write_json` writes it as a list, and ``list()``
        materializes it."""
        lo, hi = self._window()
        size = self.grid_size**self.n
        chunks = (c.reshape(-1, size) for c in self._coeff_chunks())
        rows = itertools.chain.from_iterable(chunks)
        blocks = ({"xi": xi, "re": c.real, "im": c.imag} for xi, c in zip(self.xi.tolist(), rows))
        return {
            "format": "tff",
            "version": _BINARY_VERSION,
            "n": self.n,
            "grid_size": self.grid_size,
            "xi_min": lo,
            "xi_max": hi,
            "meta": dict(self.meta),
            "blocks": blocks,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FourierField":
        """Parse :meth:`to_json_obj`'s form; a bad field raises
        :class:`MalformedInput` naming it."""
        if not isinstance(obj, dict) or obj.get("format") != "tff":
            raise MalformedInput("not a Fourier-field JSON object")
        n = _parse_field("n", _integral, obj.get("n"))
        grid_size = _parse_field("grid_size", _integral, obj.get("grid_size"))
        layout = cls(n=n, grid_size=grid_size)
        meta = _parse_field("meta", dict, obj.get("meta", {}))
        blocks = _parse_field("blocks", list, obj.get("blocks"))
        shape = (layout.grid_size,) * layout.n
        size = layout.grid_size**layout.n
        for k, block in enumerate(blocks):  # every block's size, before allocating
            for part in ("re", "im"):
                _parse_field(f"blocks[{k}]", lambda b: _block_part(b, part, size), block)
        xi = np.empty(len(blocks), dtype=np.int64)
        coeffs = np.empty((len(blocks),) + shape, dtype=complex)

        def read_block(k, block):
            xi[k] = _parse_field("xi", _integral, block["xi"])
            re, im = np.asarray(block["re"], dtype=float), np.asarray(block["im"], dtype=float)
            with np.errstate(invalid="ignore"):  # 1j * inf; from_coeffs refuses it
                coeffs[k] = (re + 1j * im).reshape(shape, order="C")

        for k, block in enumerate(blocks):
            _parse_field(f"blocks[{k}]", lambda b: read_block(k, b), block)
        labels = [f"blocks[{k}]: xi: {x}" for k, x in enumerate(xi.tolist())]
        out = cls.from_coeffs(layout.n, layout.grid_size, xi, coeffs, labels, overwrite=True)
        out.meta = meta
        return out

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            write_json(self.to_json_obj(), fh)

    @classmethod
    def load_json(cls, path) -> "FourierField":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))

    def to_bytes(self) -> bytes:
        """Binary layout (all little-endian):

        ========  =====  =====================================================
        offset    type   content
        ========  =====  =====================================================
        0         4s     magic ``b"TFF1"``
        4         u32    format version (1)
        8         i64    n (number of t-variables)
        16        i64    grid_size per axis
        24        i64    xi_min of the window
        32        i64    xi_max of the window
        40        i64    num_xi (number of stored frequencies)
        48        i64[]  the ξ values, ascending
        48+8k     c128[] per-ξ coefficient tensors, C-order, float64 re/im
                         pairs, ``grid_size**n`` entries each
        ========  =====  =====================================================
        """
        return b"".join(self._binary_parts())

    def _binary_parts(self):
        """Header, ξ list and the coefficient stack of :meth:`to_bytes`, the
        stack a chunk of rows at a time."""
        layout = (self.n, self.grid_size, *self._window(), len(self.xi))
        yield _BINARY_HEADER.pack(_BINARY_MAGIC, _BINARY_VERSION, *layout)
        yield self.xi.astype("<i8").tobytes()
        for c in self._coeff_chunks():
            yield np.ascontiguousarray(c, dtype="<c16")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FourierField":
        return cls._read_binary(io.BytesIO(raw), len(raw))

    def save_binary(self, path) -> None:
        """Write :meth:`to_bytes` to ``path`` part by part: one chunk of
        coefficients is held at a time, and the bytes are those of
        :meth:`to_bytes`."""
        with open(path, "wb") as fh:
            fh.writelines(self._binary_parts())

    @classmethod
    def load_binary(cls, path) -> "FourierField":
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if not S_ISREG(info.st_mode):  # a pipe has no size to check first
                return cls.from_bytes(fh.read())
            return cls._read_binary(fh, info.st_size)

    @classmethod
    def _read_binary(cls, fh, size: int) -> "FourierField":
        """The field in the :meth:`to_bytes` data of ``size`` bytes that
        ``fh`` reads.  The coefficient stack is read into one array and
        inverted in place, so the field is held once."""
        head = fh.read(_BINARY_HEADER.size)
        if len(head) < _BINARY_HEADER.size:
            raise MalformedInput("binary field data truncated (short header)")
        magic, version, n, grid, lo, hi, num = _BINARY_HEADER.unpack(head)
        if magic != _BINARY_MAGIC:
            raise MalformedInput(f"bad magic {magic!r}, expected {_BINARY_MAGIC!r}")
        if version != _BINARY_VERSION:
            raise MalformedInput(f"unsupported field format version {version}")
        layout = cls(n=int(n), grid_size=int(grid))
        block = layout.grid_size**layout.n
        if num < 0 or size < _BINARY_HEADER.size + (8 + 16 * block) * num:
            raise MalformedInput(f"binary field data truncated: the header counts {num} blocks")
        xi = np.frombuffer(fh.read(8 * num), dtype="<i8")
        coeffs = np.empty((num,) + (layout.grid_size,) * layout.n, dtype="<c16")
        if fh.readinto(coeffs) < coeffs.nbytes:  # the file shrank after its size was read
            raise MalformedInput("binary field data truncated while it was read")
        return cls.from_coeffs(layout.n, layout.grid_size, xi, coeffs, overwrite=True)


# ---------------------------------------------------------------------------
# Single-tube solver
# ---------------------------------------------------------------------------


def _check_finite(xis, coeffs: np.ndarray, what: str = "the solution") -> None:
    """Refuse coefficients (row k at ξ = ``xis[k]``) that are not finite: the
    right-hand side is finite but ``what`` (its solution, or its transform
    along the solved axes) passes the float range.  :class:`MalformedInput`
    names rhs and the first such ξ."""
    finite = np.isfinite(coeffs).reshape(len(xis), -1).all(axis=1)
    if not finite.all():
        raise MalformedInput(
            f"rhs: {what} at xi = {xis[np.argmin(finite)]} passes the float range; "
            "scale the right-hand side down"
        )


def _constant_tube_coefficients(spec: SystemSpec, tube_index: int):
    """The (a0, b) pair of a normalized tube; a must be constant."""
    if not 1 <= tube_index <= spec.n:
        raise MalformedInput(f"tube index {tube_index} out of range 1..{spec.n}")
    tube = spec.tubes[tube_index - 1]
    if not tube.a_is_constant:
        raise MalformedInput(
            f"tube {tube_index} has non-constant real part; normalize the "
            "system first (build_normal_form)"
        )
    a0 = float(tube.a) if isinstance(tube.a, RealConstant) else float(tube.a.mean())
    return a0, tube.b


def _solve_zero_frequency(block: np.ndarray, grid_size: int) -> np.ndarray:
    """Spectral antidifferentiation along axis 0; mean must vanish."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        hat = np.fft.fft(block, axis=0) / grid_size
    _check_finite([0], hat, "the transform")
    scale = float(np.abs(hat).max())
    mean_size = float(np.abs(hat[0]).max()) if hat.size else 0.0
    if mean_size > MEAN_TOL * (1.0 + scale):
        raise SolvabilityError(
            f"xi=0 data has nonzero tube-mean (|mean| = {mean_size:.3e}); "
            "the equation d/dt u = f is unsolvable on the torus"
        )
    freqs = np.fft.fftfreq(grid_size, 1.0 / grid_size)
    div = 1j * freqs
    div[0] = 1.0  # mean row: set below
    out_hat = hat / _along(div, 0, block.ndim)
    out_hat[0] = 0.0
    return np.fft.ifft(out_hat * grid_size, axis=0)


def _mode_ceiling(xis: np.ndarray, grid_size: int, d: int) -> np.ndarray:
    """The largest half-width K/2 the single-tube solve gives each ξ, with
    K = max(MIN_INTERNAL_MODES, 4|ξ|); never below the rhs band plus d."""
    return np.maximum(np.maximum(MIN_INTERNAL_MODES, 4 * np.abs(xis)) // 2, grid_size // 2 + d + 1)


def _block_starts(halves: np.ndarray) -> np.ndarray:
    """First row of each block in a stack of blocks of 2·half + 1 modes."""
    sizes = 2 * halves + 1
    return np.cumsum(sizes) - sizes


@functools.cache
def _flapack():
    """scipy's f2py LAPACK binding, loaded from its shared library alone.

    ``import scipy.linalg`` runs the package ``__init__``, whose array-API
    shim imports numpy's lazy submodules (``numpy.f2py``, ``numpy.testing``,
    ``numpy.random``, ...): about 0.2 s of a cold ``solve``, against about
    4 ms for the extension module itself (the median over 21 fresh
    processes on 2 vCPU; 3-9 ms).  ``find_spec("scipy")`` locates the
    package without importing it.  The module's teardown, with numpy's
    (about 25 ms), is skipped by :func:`torus_hypo.cli.run`.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; the single-tube solver uses its LAPACK binding")
    where = os.path.join(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"scipy's LAPACK binding _flapack not found in {where}")
    name = "scipy.linalg._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


def _band_lu_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_banded((d, d), ab, rhs, overwrite_ab=True,
    overwrite_b=True)`` without the ``scipy.linalg`` import, where ``ab`` has
    2d + 1 rows.

    It dispatches as scipy 1.17's ``_solve_banded`` does, so the bits agree:
    ``zgtsv`` for d = 1, otherwise ``zgbsv`` on a copy of ``ab`` with d more
    rows on top for the fill-in of its LU (scipy's 1×1 and empty cases do
    not arise here).  ``ab`` (complex, ``ab[d + i − j, j] = A[i, j]``) may be
    overwritten; ``rhs`` has shape (rows, R).  Raises ``ValueError`` on a
    non-finite entry (scipy's ``check_finite``) and
    ``numpy.linalg.LinAlgError`` on an exactly singular matrix.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    d = (ab.shape[0] - 1) // 2
    lapack = _flapack()
    if d == 1:
        flags = dict(overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True)
        *_, x, info = lapack.zgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs, **flags)
    else:
        work = np.zeros((3 * d + 1, ab.shape[1]), dtype=complex)
        work[d:] = ab
        _, _, x, info = lapack.zgbsv(d, d, work, rhs, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv/gtsv")
    return x


def _stacked_band_system(
    xis: np.ndarray,
    halves: np.ndarray,
    a0: float,
    b_exp: np.ndarray,
    rhs_hat: np.ndarray,
) -> tuple:
    """The band ``ab`` and the right-hand side that :func:`_stacked_band_solve`
    hands to :func:`_band_lu_solve`; the arguments are its own."""
    d = (b_exp.size - 1) // 2
    sizes = 2 * halves + 1
    starts = _block_starts(halves)
    xi_col = np.repeat(xis, sizes)
    half_col = np.repeat(halves, sizes)
    m = np.arange(int(sizes.sum())) - np.repeat(starts, sizes) - half_col  # mode of each row

    # Column j of ab holds the entries of column j of A; an entry whose row
    # lies in another block stays 0.
    ab = np.zeros((2 * d + 1, m.size), dtype=complex)
    ab[d] = 1j * (m + xi_col * a0) - xi_col * b_exp[d]
    for l in range(1, d + 1):
        b_plus = complex(b_exp[d + l])
        b_minus = complex(b_exp[d - l])
        if b_plus != 0:  # A[row, row - l] — subdiagonal l
            ab[d + l] = np.where(m + l <= half_col, -xi_col * b_plus, 0)
        if b_minus != 0:  # A[row, row + l] — superdiagonal l
            ab[d - l] = np.where(m - l >= -half_col, -xi_col * b_minus, 0)

    grid_size = rhs_hat.shape[1]
    freqs = np.fft.fftfreq(grid_size, 1.0 / grid_size).astype(int)
    # Fortran order: LAPACK solves it in place, without f2py's copy
    rhs = np.zeros((m.size, rhs_hat.shape[2]), dtype=complex, order="F")
    rhs[(starts + halves)[:, None] + freqs] = rhs_hat
    return ab, rhs


def _stacked_band_solve(
    xis: np.ndarray,
    halves: np.ndarray,
    a0: float,
    b_exp: np.ndarray,
    rhs_hat: np.ndarray,
) -> np.ndarray:
    """Solve û' + iξ(a0 + ib)û = f̂ in t_j-mode space for several ξ in one LU.

    ``b_exp`` is the centered exponential-coefficient array of b (index
    i ↔ frequency i − d).  Block k is ξ = ``xis[k]`` over the modes
    |m| ≤ ``halves[k]``; ``rhs_hat[k]`` has shape (grid_size, R) and holds the
    fft/N coefficients of its right-hand side in fftfreq layout.  Returns the
    blocks' solutions over all of their modes, stacked in one (rows, R) array:
    mode m of block k is row ``_block_starts(halves)[k] + halves[k] + m``.

    In mode space the operator is i(m + ξa0)δ_{mk} − ξ b̂_{m−k}: banded with
    bandwidth d = deg b.  The diagonal dominates for |m| large, and the only
    possible singular direction (m + ξa0 = 0 together with ξ b̂_0 = 0) is
    excluded since b0 ≠ 0, so the banded LU is well posed for every ξ ≠ 0.
    The blocks sit on the diagonal of one band whose couplings between blocks
    are exact zeros, so partial pivoting never leaves a block and each block
    gets the same bits as a solve of its ξ alone.  The band goes to LAPACK's
    ``zgtsv`` when d = 1 and to ``zgbsv`` otherwise, through scipy's binding
    loaded by :func:`_flapack` without the ``scipy.linalg`` package import.
    """
    return _band_lu_solve(*_stacked_band_system(xis, halves, a0, b_exp, rhs_hat))


def _adaptive_band_solve(
    xis: np.ndarray,
    a0: float,
    b_exp: np.ndarray,
    coeffs: np.ndarray,
) -> tuple:
    """:func:`_stacked_band_solve` with each ξ's mode count chosen a posteriori.

    Every ξ starts at half-width N/2 + 2d + 1.  Its solution is accepted when
    the outermost 2d modes are at most ε·max|û| of its block (ε = machine
    epsilon, the floor of :meth:`FourierField.coeffs`); otherwise that ξ is
    solved again at twice the half-width, up to :func:`_mode_ceiling`, where
    it is accepted as it stands.  Constant b (d = 0) is diagonal, so the
    first pass is exact.  The ξ still open are solved together each round.

    ``coeffs`` holds the right-hand side's coefficients (``rhs_hat`` of
    :func:`_stacked_band_solve`) and is overwritten with the solution's, row
    by row as each ξ is accepted: a solved row's right-hand side is not read
    again.  Returns the half-width each ξ ended at, and whether it reached
    the ceiling without passing the edge test.
    """
    grid_size = coeffs.shape[1]
    d = (b_exp.size - 1) // 2
    eps = np.finfo(float).eps
    freqs = np.fft.fftfreq(grid_size, 1.0 / grid_size).astype(int)
    ceiling = _mode_ceiling(xis, grid_size, d)
    halves = np.minimum(grid_size // 2 + 2 * d + 1, ceiling)
    capped = np.zeros(xis.size, dtype=bool)
    todo = np.arange(xis.size)
    while todo.size:
        half = halves[todo]
        starts = _block_starts(half)
        rhs_hat = coeffs if todo.size == xis.size else coeffs[todo]  # no copy in round 1
        sol = _stacked_band_solve(xis[todo], half, a0, b_exp, rhs_hat)
        del rhs_hat
        row_max = np.zeros(sol.shape[0])
        for column in sol.T:  # max |sol| per row without a temporary of sol's size
            np.maximum(row_max, np.abs(column), out=row_max)
        ends = starts + 2 * half + 1
        outer = np.hstack([starts[:, None] + np.arange(d), ends[:, None] - np.arange(1, d + 1)])
        edge = row_max[outer].max(axis=1, initial=0.0)
        resolved = edge <= eps * np.maximum.reduceat(row_max, starts)
        done = resolved | (half == ceiling[todo])
        coeffs[todo[done]] = sol[(starts + half)[done, None] + freqs]
        capped[todo[done]] = ~resolved[done]
        todo = todo[~done]
        halves[todo] = np.minimum(2 * halves[todo], ceiling[todo])
    return halves, capped


def solve_single_tube(tube_index: int, spec: SystemSpec, f: FourierField) -> FourierField:
    """Solve L_j u = f along tube ``tube_index`` (1-based).

    Requires a normalized tube (constant real part) whose imaginary-part
    profile is certified one-signed and not identically zero; raises
    :class:`ProfileError` otherwise.  The ξ = 0 block, where the equation
    degenerates to ``∂_{t_j} û = f̂``, is integrated spectrally and requires
    zero t_j-mean (:class:`SolvabilityError` otherwise); its own t_j-mean is
    fixed to zero.

    The other ξ are solved in chunks of ``_XI_CHUNK``, one stacked banded LU
    per chunk and round, each ξ on the mode count :func:`_adaptive_band_solve`
    picks for it.  A ξ's result does not depend on the rest of its chunk.  A
    chunk's coefficients are transformed, solved and scaled in place, so the
    solve holds f, u and one chunk's temporaries.
    ``meta`` records ``internal_modes_max``, the largest K any ξ used, and
    ``internal_modes_capped``, the number of ξ accepted at the ceiling
    without passing the edge test.
    """
    if f.n != spec.n:
        raise GridMismatch(f"field has n={f.n} but system has n={spec.n}")
    a0, b = _constant_tube_coefficients(spec, tube_index)
    profile = sign_analysis(b)
    if profile == IDENTICALLY_ZERO:
        raise ProfileError(
            f"tube {tube_index} has vanishing imaginary part; use solve_by_division"
        )
    if profile == CHANGES_SIGN:
        raise ProfileError(
            f"tube {tube_index} imaginary part changes sign; the damped "
            f"solution formulas do not apply"
        )

    N = f.grid_size
    b_exp = b.exp_coeffs()
    # Both stacks with t_j as axis 1: row k of f_t is f̂(·, xi[k]) with t_j first.
    u = np.empty_like(f.data)
    f_t = np.moveaxis(f.data, tube_index, 1)
    u_t = np.moveaxis(u, tube_index, 1)
    zero = np.flatnonzero(f.xi == 0)  # at most one row
    if zero.size:
        u_t[zero[0]] = _solve_zero_frequency(f_t[zero[0]], N)
    nonzero = np.flatnonzero(f.xi)
    modes_max = capped = 0
    for lo in range(0, nonzero.size, _XI_CHUNK):
        rows = nonzero[lo : lo + _XI_CHUNK]
        if rows[-1] - rows[0] == rows.size - 1:  # consecutive: a view, not a copy
            rows = slice(rows[0], rows[-1] + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            coeffs = np.fft.fft(f_t[rows].reshape(len(f.xi[rows]), N, -1), axis=1)
            coeffs /= N
        _check_finite(f.xi[rows], coeffs, "the transform")
        halves, at_ceiling = _adaptive_band_solve(f.xi[rows], a0, b_exp, coeffs)
        _check_finite(f.xi[rows], coeffs)
        coeffs *= N
        np.fft.ifft(coeffs, axis=1, out=coeffs)
        u_t[rows] = coeffs.reshape((len(coeffs),) + u_t.shape[1:])
        modes_max = max(modes_max, 2 * int(halves.max()))
        capped += int(at_ceiling.sum())
    meta = {"method": "banded-mode-solve", "tube": tube_index, "internal_modes_max": modes_max}
    meta["internal_modes_capped"] = capped
    return FourierField(f.n, N, f.xi, u, meta)


# ---------------------------------------------------------------------------
# Division solver (all-real tubes)
# ---------------------------------------------------------------------------


def _signed_divisors(xi: np.ndarray, frac: Fraction, eta: np.ndarray) -> np.ndarray:
    """ξ a_0 + η over (ξ, η) as a ``(len(xi), len(eta))`` array, with ``frac``
    the exact approximant of a_0.

    Entries smaller than 1e-6 in float64 are recomputed in exact rational
    arithmetic, where ``frac`` is a_0 itself or, for a digit-defined a_0, within
    10**-``DIVISION_DIGITS`` of it.
    """
    signed = xi[:, None] * float(frac) + eta.astype(float)
    for k, i in zip(*np.nonzero(np.abs(signed) < 1e-6)):
        signed[k, i] = float(int(xi[k]) * frac + int(eta[i]))
    return signed


def solve_by_division(
    spec: SystemSpec,
    f_list: Sequence[FourierField],
) -> FourierField:
    """Solve L_j u = f_j (j = 1..n) for a system whose every tube is real.

    Every b_j must be identically zero (:class:`MalformedInput` names the
    first tube that is not), and ``f_list`` supplies one field per tube.  For
    every joint frequency (η, ξ) ≠ 0 the solution is
    ``û = −i f̂_M / (ξ a_{M0} + η_M)`` with M the first tube of largest divisor
    magnitude.  The averaged constants are read as rationals (a
    digit-defined one to within 10**-``DIVISION_DIGITS``) so near-resonant
    divisors are computed exactly; a
    divisor below ``ZERO_DIVISOR_FLOOR`` raises :class:`ZeroDivisorError`
    naming the first such ξ and, within it, the first η of least divisor.

    The ξ are divided ``_XI_CHUNK`` rows at a time, one FFT per tube and
    chunk over the t-axes; a ξ's result does not depend on the rest of its
    chunk.  The (0, 0) mode is not determined by the divided equations: it is
    set to zero and flagged in ``meta["zero_mode_normalized"]``.  The
    relations L_j f_k = L_k f_j are not checked here; :func:`solve_system`
    checks them before it solves.
    """
    n = spec.n
    analysis = analyze(spec)
    for j, profile in enumerate(analysis.profiles, start=1):
        if profile != IDENTICALLY_ZERO:
            raise MalformedInput(
                f"tube {j} is not identically real (profile {profile}); "
                "the division solver needs b_j = 0 on every tube"
            )
    if len(f_list) != n:
        raise MalformedInput(f"need one field per tube ({n}), got {len(f_list)}")
    base = f_list[0]
    for g in f_list[1:]:
        base.require_same_frequencies(g)
    if base.n != n:
        raise GridMismatch(f"fields have n={base.n} but system has n={n}")

    N = base.grid_size
    eta = np.fft.fftfreq(N, 1.0 / N).astype(int)
    fracs = [a.approx_fraction(DIVISION_DIGITS) for a in analysis.a0]
    divisors = [_signed_divisors(base.xi, frac, eta) for frac in fracs]
    axes = tuple(range(1, n + 1))
    u = np.empty_like(base.data)
    min_divisor = math.inf
    for lo in range(0, base.xi.size, _XI_CHUNK):
        rows = slice(lo, lo + _XI_CHUNK)
        shape = u[rows].shape
        # Per (ξ, η): the quotient of the first tube of largest |divisor|.
        u_hat = np.empty(shape, dtype=complex)
        best = np.full(shape, -1.0)
        for j in range(n):
            d_j = divisors[j][rows].reshape((-1,) + tuple(N if i == j else 1 for i in range(n)))
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                f_hat = np.fft.fftn(f_list[j].data[rows], axes=axes) / N**n
            _check_finite(base.xi[rows], f_hat, "the transform")
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                quotient = -1j * f_hat / d_j
            size = np.abs(d_j)
            np.copyto(u_hat, quotient, where=size > best)
            np.maximum(best, size, out=best)

        zero = (np.flatnonzero(base.xi[rows] == 0)[:1],) + (0,) * n  # at most one row
        best[zero] = math.inf  # excluded from the resonance check
        worst = best.reshape(shape[0], -1).min(axis=1)
        bad = np.flatnonzero(worst < ZERO_DIVISOR_FLOOR)
        if bad.size:
            k = int(bad[0])
            eta_bad = tuple(int(eta[i]) for i in np.unravel_index(np.argmin(best[k]), shape[1:]))
            raise ZeroDivisorError(
                f"divisor below {ZERO_DIVISOR_FLOOR:g} at (eta, xi) = "
                f"({eta_bad}, {int(base.xi[lo + k])}); rational resonance"
            )
        min_divisor = min(min_divisor, float(worst.min()))
        u_hat[zero] = 0.0
        _check_finite(base.xi[rows], u_hat)
        u[rows] = np.fft.ifftn(u_hat * N**n, axes=axes)

    meta = {"method": "division", "digits": DIVISION_DIGITS}
    meta.update(zero_mode_normalized=True, min_divisor=min_divisor)
    return FourierField(n, N, base.xi, u, meta)


# ---------------------------------------------------------------------------
# Residual and decay reporting
# ---------------------------------------------------------------------------


def _tube_multiplier(spec: SystemSpec, j: int, grid: np.ndarray, n: int):
    """(a_j + i b_j)(t_j) on the grid, shaped to broadcast along axis j-1."""
    tube = spec.tubes[j - 1]
    if isinstance(tube.a, RealConstant):
        a_vals = np.full_like(grid, float(tube.a))
    else:
        a_vals = np.asarray(tube.a(grid), dtype=float)
    b_vals = np.asarray(tube.b(grid), dtype=float)
    return _along(a_vals + 1j * b_vals, j - 1, n)


def apply_tube_operator(spec: SystemSpec, j: int, u: FourierField) -> FourierField:
    """L_j u = ∂_{t_j} u + (a_j + i b_j)(t_j) ∂_x u, evaluated spectrally."""
    if u.n != spec.n:
        raise GridMismatch(f"field has n={u.n} but system has n={spec.n}")
    if not 1 <= j <= spec.n:
        raise MalformedInput(f"tube index {j} out of range 1..{spec.n}")
    mult = _tube_multiplier(spec, j, u.t_grid(), u.n)
    out = (mult * (1j * u.xi).reshape((-1,) + (1,) * u.n)) * u.data
    out += u.t_derivative(j - 1).data
    return FourierField(u.n, u.grid_size, u.xi, out)


def residual(spec: SystemSpec, u: FourierField, f_list: Sequence[FourierField]) -> list:
    """max-norm of L_j u − f_j per tube (1-based order)."""
    if len(f_list) != spec.n:
        raise GridMismatch(f"need one right-hand side per tube ({spec.n}), got {len(f_list)}")
    return [_residual_row(spec, j, u, f_list[j - 1]) for j in range(1, spec.n + 1)]


def _residual_row(spec: SystemSpec, j: int, u: FourierField, fj: FourierField) -> float:
    """‖L_j u − f_j‖_∞, ``_XI_CHUNK`` rows at a time: the residual runs when
    the solve holds u and f, and whole-field temporaries would add two fields
    to the command's peak memory."""
    u.require_same_frequencies(fj)
    worst = 0.0
    for lo in range(0, len(u.xi), _XI_CHUNK):
        rows = slice(lo, lo + _XI_CHUNK)
        lu = apply_tube_operator(spec, j, _rows(u, rows))
        lu.data -= fj.data[rows]
        worst = float(np.maximum(worst, lu.max_abs()))  # a NaN row stays NaN
    return worst


def _rows(u: FourierField, rows: slice) -> FourierField:
    """The field restricted to ``xi[rows]``; its data is a view."""
    return FourierField(u.n, u.grid_size, u.xi[rows], u.data[rows])


def _check_compatible(spec: SystemSpec, f_list: Sequence[FourierField]) -> None:
    """Refuse per-tube data with L_j f_k ≠ L_k f_j (j < k).

    The tube operators commute, so L_j u = f_j for every j forces these
    relations; data that break them by more than ``COMPAT_TOL``·(1 + scale)
    raise :class:`CompatibilityError`.  Gap and scale are maxima over the
    whole field, computed ``_XI_CHUNK`` rows at a time as in :func:`_residual_row`.
    """
    for j, k in itertools.combinations(range(1, spec.n + 1), 2):
        f_list[k - 1].require_same_frequencies(f_list[j - 1])
        scale = gap = 0.0
        for lo in range(0, len(f_list[j - 1].xi), _XI_CHUNK):
            rows = slice(lo, lo + _XI_CHUNK)
            lhs = apply_tube_operator(spec, j, _rows(f_list[k - 1], rows))
            rhs = apply_tube_operator(spec, k, _rows(f_list[j - 1], rows))
            scale = max(scale, lhs.max_abs(), rhs.max_abs())
            gap = max(gap, (lhs - rhs).max_abs())
        if gap > COMPAT_TOL * (1.0 + scale):
            raise CompatibilityError(
                f"tubes {j} and {k} are inconsistent: |L_{j} f_{k} - L_{k} f_{j}| = "
                f"{gap:.3e} exceeds tolerance"
            )


def decay_report(
    u: FourierField,
    s: float,
    *,
    xi_min: int = 16,
    xi_max: int | None = None,
) -> GevreyWitness:
    """Fit the Gevrey-s decay of ξ ↦ max_t |û(t, ξ)|."""
    mags = u.magnitudes()
    if len(mags) < 8:
        raise InsufficientData(
            f"decay report needs at least 8 frequencies, field has {len(mags)}"
        )
    return estimate_decay(mags, s, xi_min=xi_min, xi_max=xi_max)


# ---------------------------------------------------------------------------
# Whole-system solve
# ---------------------------------------------------------------------------


def solve_system(
    spec: SystemSpec,
    f_list: Sequence[FourierField],
) -> tuple[FourierField, dict]:
    """Solve L_j u = f_j for the system ``spec``, one x-frequency at a time.

    One field per tube must first satisfy L_j f_k = L_k f_j
    (:func:`_check_compatible`, :class:`CompatibilityError` otherwise).  Each
    a_j is gauged to its average.  When every tube is identically real
    (ℓ = n) the normalized system is solved by division from one field per
    tube; otherwise along the first tube whose b_j is one-signed and not
    identically zero, from one field or one per tube (:class:`ProfileError`
    when no tube qualifies).  Returns u in the original frame and a summary:
    ``normalized`` (and the gauge ``primitives``), ``route``, the ``tube``
    solved along, ``residual`` rows of ‖L_j u − f_j‖_∞ (one per tube when one
    field per tube is given, else the solved tube's), the division ``meta``,
    for a Gevrey order the ``decay_fit`` of u, and the ``runtime`` counters
    ``rhs_fields``, ``frequencies`` and ``grid``, with, on the single-tube
    route, ``internal_modes_max`` and ``internal_modes_capped`` of
    :func:`solve_single_tube`.  Both routes
    refuse an rhs whose transform, or whose solution, passes the float range
    (:func:`_check_finite`), the ξ = 0 row included.
    """
    n = spec.n
    if len(f_list) == n:
        _check_compatible(spec, f_list)
    nf = build_normal_form(spec)
    normalized = not nf.is_trivial()
    runtime = {"rhs_fields": len(f_list)}
    summary = {"normalized": normalized, "runtime": runtime}
    if normalized:
        summary["primitives"] = [p.to_json() for p in nf.A]

    def gauged(field, direction):
        return apply_gauge(field, nf.A, direction) if normalized else field

    analysis = analyze(nf.normalized)
    if analysis.ell == n:
        if len(f_list) != n:
            raise MalformedInput(
                f"the all-real route needs {n} right-hand sides "
                f'(rhs file with {{"fields": [...]}}), got {len(f_list)}'
            )
        u_n = solve_by_division(nf.normalized, [gauged(f, "forward") for f in f_list])
        summary["route"] = "division"
        keep = ("zero_mode_normalized", "min_divisor")
        summary["meta"] = {k: v for k, v in u_n.meta.items() if k in keep}
    else:
        one_signed = (NON_NEGATIVE_NOT_ZERO, NON_POSITIVE_NOT_ZERO)
        tube = next((j for j, p in enumerate(analysis.profiles, 1) if p in one_signed), 0)
        if not tube:
            raise ProfileError(
                "no tube is one-signed with b not identically zero and not all "
                "tubes are real: no direct solve route exists for this system"
            )
        if len(f_list) not in (1, n):
            raise MalformedInput(
                f"the single-tube route needs 1 or {n} right-hand sides, got {len(f_list)}"
            )
        f = f_list[tube - 1 if len(f_list) == n else 0]
        u_n = solve_single_tube(tube, nf.normalized, gauged(f, "forward"))
        counters = ("internal_modes_max", "internal_modes_capped")
        runtime |= {k: u_n.meta.pop(k) for k in counters}
        summary["route"] = "single-tube"
        summary["tube"] = tube

    u = gauged(u_n, "inverse")
    runtime |= {"frequencies": len(u.xi), "grid": u.grid_size}
    if len(f_list) == n:
        rows = enumerate(residual(spec, u, f_list), start=1)
    else:
        rows = [(tube, _residual_row(spec, tube, u, f_list[0]))]
    summary["residual"] = [{"tube": j, "max_abs": r} for j, r in rows]

    if spec.order.is_gevrey:
        try:
            summary["decay_fit"] = decay_report(u, spec.order.s).to_json()
        except InsufficientData as exc:
            summary["decay_fit"] = {"skipped": str(exc)}
    return u, summary
