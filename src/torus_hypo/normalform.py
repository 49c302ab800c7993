"""Gauge reduction of the real parts to their averages.

Multiplying each partial Fourier coefficient by ``e^{iξA(t)}`` with

    A(t) = Σ_j A_j(t_j),   A_j(t_j) = ∫_0^{t_j} (a_j(s) − a_j0) ds,

conjugates the tube operator with real part ``a_j(t_j)`` into the one with
constant real part ``a_j0``; the imaginary parts are untouched.  Since each
``a_j − a_j0`` has zero mean, every ``A_j`` is a 2π-periodic trig polynomial,
so the gauge is an automorphism of the periodic setting and its inverse is
the conjugate multiplication.

``A`` is represented as one single-variable :class:`~.gevrey.TrigPoly` per
t-variable (the separable sum above).  The conjugation defect
``T L_j T^{-1} − L̃_j`` is multiplication by ``iξ(a_j − a_j0 − A_j')``, so
:func:`conjugation_residual` reads it off the coefficients, and building the
gauge and its row loads no numpy.  Only :func:`apply_gauge`, which ``solve``
runs on sampled fields, imports numpy and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .diophantine import RealConstant
from .errors import GridMismatch, MalformedInput
from .gevrey import TrigPoly
from .system import SystemSpec, Tube, average

__all__ = [
    "NormalFormData",
    "build_normal_form",
    "apply_gauge",
    "conjugation_residual",
]


@dataclass(frozen=True)
class NormalFormData:
    """Primitive list A_1..A_n plus the spec with a_j replaced by a_j0."""

    A: tuple  # one TrigPoly per t-variable
    normalized: SystemSpec

    def is_trivial(self) -> bool:
        return all(p.is_zero for p in self.A)


def build_normal_form(spec: SystemSpec) -> NormalFormData:
    """Split each real part into average plus periodic primitive.

    ``A_j = ∫_0^{t_j}(a_j − a_j0)`` is computed termwise on the trig
    coefficients (each cos/sin mode integrates exactly; the linear part
    cancels because the mean is removed first), so already-constant tubes
    contribute ``A_j = 0`` and the map is idempotent: normalizing a
    normalized spec yields the trivial gauge.
    """
    primitives = []
    tubes = []
    for tube in spec.tubes:
        a = tube.a
        if isinstance(a, RealConstant):
            primitives.append(TrigPoly())
            tubes.append(Tube(a=a, b=tube.b))
            continue
        primitives.append(a.primitive_from_zero())
        tubes.append(Tube(a=average(a), b=tube.b))
    normalized = replace(spec, tubes=tubes)
    return NormalFormData(A=tuple(primitives), normalized=normalized)


def _total_gauge_on_grid(A: Sequence[TrigPoly], field: "FourierField") -> "np.ndarray":
    import numpy as np

    from .solver import _along

    if len(A) != field.n:
        raise GridMismatch(f"gauge has {len(A)} components but field has n={field.n}")
    t = field.t_grid()
    total = np.zeros((field.grid_size,) * field.n)
    for axis, p in enumerate(A):
        if not isinstance(p, TrigPoly):
            raise MalformedInput("gauge components must be TrigPolys")
        total = total + _along(np.asarray(p(t), dtype=float), axis, field.n)
    return total


def apply_gauge(field: "FourierField", A, direction: str) -> "FourierField":
    """Multiply each û(·, ξ) by e^{+iξA} (forward) or e^{−iξA} (inverse).

    ``A`` is the sequence of per-variable TrigPolys (``NormalFormData.A``).
    The multiplication is pointwise on the t-grid; since A is real the
    per-frequency magnitude |û(t, ξ)| is preserved exactly.
    """
    if direction not in ("forward", "inverse"):
        raise MalformedInput(f"direction must be 'forward' or 'inverse', got {direction!r}")
    import numpy as np

    from .solver import FourierField

    sign = 1.0 if direction == "forward" else -1.0
    total = _total_gauge_on_grid(A, field)
    gauged = (1j * sign * field.xi).reshape((-1,) + (1,) * field.n) * total
    np.exp(gauged, out=gauged)
    gauged *= field.data
    return FourierField(field.n, field.grid_size, field.xi, gauged, dict(field.meta))


def conjugation_residual(spec: SystemSpec, nf: NormalFormData) -> float:
    """Sup-norm bound, per unit ξ, of the gauge's conjugation defect.

    ``T L_j T^{-1} − L̃_j`` (L̃_j the tube operator of the normalized spec) is
    exactly multiplication by ``iξ·d_j`` with ``d_j = a_j − a_j0 − A_j'``;
    this returns ``max_j Σ_k (|Δcos_k| + |Δsin_k|)`` of ``d_j``.  Fractions
    stay exact, so the gauge :func:`build_normal_form` makes gives 0; float
    coefficients give their rounding; a constant real part (digit-defined
    included) has the zero gauge and gives 0.
    """
    if len(nf.A) != spec.n:
        raise GridMismatch(f"gauge has {len(nf.A)} components but system has n={spec.n}")
    worst = 0.0
    for tube, A in zip(spec.tubes, nf.A):
        a = tube.a if isinstance(tube.a, TrigPoly) else TrigPoly()
        dA = A.derivative()
        defect = sum(
            abs(a.coefficient(kind, k) - dA.coefficient(kind, k))
            for k in range(1, max(a.degree, dA.degree) + 1)
            for kind in ("cos", "sin")
        )
        worst = max(worst, float(defect))
    return worst
