"""Constructive obstructions: solution families with prescribed slow decay.

:func:`build_obstruction` is the API.  It refuses systems that are not
certified irregular, checks the spec's outside input, chooses q, the ladder,
the materialized rungs and the field grid, dispatches each tube to Prop51 or
Prop52, chains the product and the lift over the identically-real tubes, and
returns a :class:`SingularSolution` and the ``singular`` report body.

The five builders are its steps, and build on the lists it hands them
without checking them again; they keep their names so that a tracer can
time each step.  Two single-tube mechanisms exist:

* rational average with one-signed-free ``b`` of zero mean
  (:func:`build_prop51`): the coefficients ``e^{qk(B(t) − B(t_0))}`` ride the
  homogeneous solution, have unit modulus at the peak ``t_0`` for every rung,
  and solve the homogeneous equation exactly;

* irrational average with sign-changing ``b`` (:func:`build_prop52`): a
  Laplace-type integral whose peak value decays only like ``ξ^{−1/2}`` while
  the corresponding right-hand side decays like ``e^{−B_0 ξ}`` — the
  smooth-data/non-smooth-solution dichotomy.

Products over tubes (:func:`build_product`) and the two lifts to systems with
identically-real tubes (:func:`build_rational_J`, :func:`build_expliouville_J`)
assemble the single-tube families into full obstructions.  Every rung is one
product of per-axis factors (``_embed_factors``); both lifts share one core
(``_lift``) that multiplies in the real tubes' integer phases.

A certificate stores rows, never a fitted number: each entry is a direct
evaluation of a formula or a closed-form bound, which a checker reading only
the spec and the artifact can recompute.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .diophantine import (
    LiouvilleWitness,
    RealConstant,
    certified_le,
    ln_abs_fraction,
    scale_witness,
    verify_witness_rows,
)
from .errors import (
    LadderMismatch,
    MalformedInput,
    ProfileError,
    RefusedHypoelliptic,
    WitnessMismatch,
    _parse_field,
)
from .gevrey import TrigPoly, least_squares, make_cutoff
from .solver import FourierField, apply_tube_operator
from .system import (
    CHANGES_SIGN,
    NOT_HYPOELLIPTIC,
    SystemAnalysis,
    SystemSpec,
    classify_system,
    real_zeros,
    sign_analysis,
)

__all__ = [
    "LaplaceProfile",
    "SingularSolution",
    "build_obstruction",
    "locate_laplace_profile",
    "fit_lower_bound_power",
]

TWO_PI = 2.0 * math.pi

#: Complex samples allowed in a singular solution's materialized blocks.
_DENSE_SAMPLE_BUDGET = 1 << 19

#: Highest rung that :func:`build_obstruction` materializes.
_FIELD_CAP = 64


def _integer_phases(ms: Sequence[int], grid: int) -> np.ndarray:
    """Samples of e^{i m t} on the uniform grid, one row per m in ``ms``,
    angle-reduced exactly.

    The reduction m·k mod grid happens in integer arithmetic, so the sample
    arguments stay in [0, 2π) and the result is accurate to one rounding of
    exp even for huge |m|.
    """
    m_red = np.array([int(m) % grid for m in ms], dtype=np.int64).reshape(-1, 1)
    idx = (m_red * np.arange(grid)) % grid
    return np.exp(2j * math.pi * idx / grid)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceProfile:
    """Peak data of the kernel exponent ``(t, r) ↦ ∫_{t−r}^{t} b``.

    ``B0`` is the maximum (or the minimum of ``∫_t^{t+r} b`` in the mirrored
    ``b_0 > 0`` case, where it is negative), attained at ``(t0, r0)``, where
    ``t0`` and the foot ``t0 − r0`` are zeros of b; ``psi_curvature`` is the
    second r-derivative of the exponent there, ``ψ''(r0) = −b'(t0 − r0)``
    (sign flipped in the mirror case).
    """

    B0: float
    t0: float
    r0: float
    psi_curvature: float
    mirror: bool = False

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SingularSolution:
    """Ladder-supported partial Fourier data plus its certificate block."""

    construction: str  # Prop51 | Prop52 | Product | RationalJ | ExpLiouvilleJ
    coefficients: FourierField
    ladder: list
    certificates: dict
    rhs: dict = field(default_factory=dict)  # tube index -> FourierField

    def __post_init__(self):
        self.ladder = [int(x) for x in self.ladder]
        if not set(self.coefficients.xi.tolist()) <= set(self.ladder):
            raise LadderMismatch("coefficient blocks exist off the declared ladder")

    @functools.cached_property
    def _lower_bounds(self) -> dict:
        """ξ → certified lower bound, the first row of the table winning."""
        table = reversed(self.certificates.get("lower_bound_table", ()))
        return {int(xi): float(bound) for xi, bound in table}

    def lower_bound(self, xi: int) -> float:
        try:
            return self._lower_bounds[int(xi)]
        except KeyError:
            raise LadderMismatch(f"no certified lower bound at xi={xi}") from None

    def to_json_obj(self) -> dict:
        return {
            "field": self.coefficients.to_json_obj(),
            "certificate": {
                "construction": self.construction,
                "ladder": self.ladder,
                **self.certificates,
            },
            "rhs": {str(j): f.to_json_obj() for j, f in self.rhs.items()},
        }


# ---------------------------------------------------------------------------
# Rational-average single tube
# ---------------------------------------------------------------------------


def build_prop51(
    a0: Fraction,
    b: TrigPoly,
    *,
    ladder: Sequence[int],
    grid_size: int,
    dense_rungs: Sequence[int],
) -> SingularSolution:
    """Homogeneous ladder solutions for a rational average p/q.

    With ``B`` the periodic primitive of the zero-mean ``b`` and ``t_0`` its
    peak, the rung at ξ = qk is ``û(t, qk) = e^{−iqk a_0 t} e^{qk(B(t)−B(t_0))}``.
    Every rung kills the tube operator exactly, ``|û(t_0, qk)| = 1`` for all
    k (the certified lower bound), and ``|û(t, qk)| ≤ 1`` everywhere.  B' = b,
    so ``t_0`` is the zero of b (:func:`real_zeros`) with the largest float
    B, the smallest such zero on a tie, and 0 when b ≡ 0.

    ``ladder`` lists the rungs ξ, each a multiple of q.  The bound table
    covers the ladder, and the coefficient blocks are computed on the
    ascending ladder rungs ``dense_rungs``.
    """
    frac = Fraction(a0)
    q = frac.denominator
    xis = [int(xi) for xi in ladder]

    B = b.primitive_from_zero()
    t0 = max(real_zeros(b), key=lambda t: (float(B(t)), -t), default=0.0)
    B_peak = float(B(t0))

    t = TWO_PI * np.arange(grid_size) / grid_size
    B_vals = np.asarray(B(t), dtype=float)
    dense = list(dense_rungs)
    phases = _integer_phases([-frac.numerator * (xi // q) for xi in dense], grid_size)  # ξ a0 ∈ ℤ
    blocks = phases * np.exp(np.multiply.outer(dense, B_vals - B_peak))
    out = FourierField(1, grid_size, dense, blocks)
    table = [[xi, 1.0] for xi in xis]

    cert = {
        "lower_bound_table": table,
        "a0": str(frac),
        "q": q,
        "t0": t0,
        "B_peak": B_peak,
        "m": 0,
    }
    return SingularSolution(
        construction="Prop51",
        coefficients=out,
        ladder=xis,
        certificates=cert,
    )


# ---------------------------------------------------------------------------
# Laplace profile location
# ---------------------------------------------------------------------------


def _kernel_exponent(b0: float, Bper: TrigPoly, t, r):
    """The kernel exponent Im H(t, r) = ∫_{t−r}^{t} b = b0·r + B(t) − B(t − r),
    with b0 the mean of b and ``Bper`` = B the periodic primitive of b − b0
    (arrays broadcast)."""
    return b0 * r + np.asarray(Bper(t), dtype=float) - np.asarray(Bper(t - r), dtype=float)


def locate_laplace_profile(b: TrigPoly) -> LaplaceProfile:
    """Peak of the kernel exponent G(t, r) = ∫_{t−r}^{t} b
    (:func:`_kernel_exponent`) for a certified sign-changing ``b``.

    ∂G/∂t = b(t) − b(t − r) and ∂G/∂r = b(t − r), so every critical point
    pairs two zeros of b, t and the foot t − r, and G is 0 at r = 0 and
    2π·b_0 at r = 2π.  So for b_0 ≤ 0 the peak is the largest G over ordered
    pairs of distinct zeros s ≠ t (:func:`real_zeros`), r = (t − s) mod 2π;
    it is positive, as b is positive between some two zeros.  The profile
    depends only on ``b`` and is memoized on it, so tubes with one b share
    one search.
    """
    # repr(b) keys the memo as well: an exact b and a float b of equal value
    # are equal TrigPolys, but their primitives round differently
    return _laplace_profile(repr(b), b)


@functools.lru_cache(maxsize=64)
def _laplace_profile(key: str, b: TrigPoly) -> LaplaceProfile:
    """:func:`locate_laplace_profile`, once per process for each of the 64
    polynomials used last.  Ties go to the largest float G, then the
    smallest t0, then the smallest r0."""
    if sign_analysis(b) != CHANGES_SIGN:
        raise ProfileError("profile location requires a certified sign-changing b")
    zeros = real_zeros(b)
    pairs = [(t, (t - s) % TWO_PI) for t in zeros for s in zeros if s != t]
    t, r = np.array(pairs).T
    G = _kernel_exponent(float(b.mean()), b.primitive_from_zero(), t, r)
    best = max(range(len(pairs)), key=lambda k: (G[k], -t[k], -r[k]))
    t0, r0 = pairs[best]
    return LaplaceProfile(float(G[best]), t0, r0, psi_curvature=-float(b.derivative()(t0 - r0)))


# ---------------------------------------------------------------------------
# Irrational-average single tube (Laplace construction)
# ---------------------------------------------------------------------------


def fit_lower_bound_power(solution: SingularSolution) -> dict | None:
    """Least-squares fit ln|v| ≈ ln C + power·ln ξ of a solution's certified
    lower-bound table over [max(16, 4·min rung), max rung]: {power, C,
    fit_r2, n_points}, or None when that window holds fewer than 4 positive
    rows.  A product of m Laplace-type tubes should fit power ≈ −m/2.  The
    fit is an observable of the report; no certificate stores it.
    """
    table = {int(xi): float(v) for xi, v in solution.certificates["lower_bound_table"]}
    rungs = sorted(table)
    if not rungs:
        raise MalformedInput("solution carries no certified lower bounds")
    lo = max(16, 4 * rungs[0])
    xs = [xi for xi in rungs if xi >= lo and table[xi] > 0]
    if len(xs) < 4:
        return None
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray([table[k] for k in xs], dtype=float))
    coef, r2 = least_squares(np.column_stack([np.ones_like(x), x]), y)
    return {
        "power": float(coef[1]),
        "C": math.exp(float(coef[0])),
        "fit_r2": r2,
        "n_points": len(xs),
    }


def _build_prop52_forward(
    a0_value: float,
    b: TrigPoly,
    s: float,
    xi_max: int,
    dense_rungs: Sequence[int],
    grid_size: int,
) -> tuple:
    """Core construction for the b0 ≤ 0 branch; returns (field, rhs, cert,
    profile).

    A rung sums the exact periodic solution operator applied to f̂ over n_r
    r-nodes, with the holonomy e^{−i2πξa₀} where t' − r wraps below 0.  With
    s = t' − r, ξ(Im H − B0) = ξ(b0 t' + B(t') − B0) − ξ(b0 s + B(s)), plus
    2πξb0 on a wrapped node.  So, on the s-nodes of n_r, the least multiple
    of the grid ≥ max(1024, 4ξ), û' at a point t' is e^{ξ(b0 t' + B(t') − B0)}
    times a log-domain prefix sum of g(s) = e^{−ξ(b0 s + B(s))} φ(s) over the
    support cells s ≤ t', plus the holonomy times e^{2πξb0} times the suffix
    sum over s > t', times the phase e^{−iξa₀(t' − t0')}.  One helper sums
    them: at the grid points for the dense rows, and at t0' alone for the
    ``lower_bound_table`` row |û'(t0', ξ)| of every ξ ≤ xi_max.
    """
    profile = locate_laplace_profile(b)
    b0 = float(b.mean())

    # Cutoff centered at the peak foot t0 - r0.  The whole picture is
    # translated (grid-aligned) to put the foot within h/2 of π, so the bump
    # lives well inside the fundamental interval: delta = 0.5 on every grid
    # of 4 or more points.
    center = (profile.t0 - profile.r0) % TWO_PI
    h = TWO_PI / grid_size
    sigma = round(((math.pi - center) % TWO_PI) / h) * h  # t' = t + sigma
    center_sh = (center + sigma) % TWO_PI
    t0_sh = (profile.t0 + sigma) % TWO_PI
    delta = min(0.5, min(center_sh, TWO_PI - center_sh) / 2.0)
    cutoff = make_cutoff(
        s,
        (center_sh - delta, center_sh + delta),
        (center_sh - delta / 2.0, center_sh + delta / 2.0),
    )

    Bper_sh = b.translate(sigma).primitive_from_zero()  # b'(t') = b(t' - sigma)

    c0 = complex(a0_value, b0)
    lo, hi = cutoff.support
    t_sh_grid = TWO_PI * np.arange(grid_size) / grid_size

    def laplace_rows(xis, points):
        """The Laplace integral e^{iξa0(t' − t0')} û'(t', ξ) at each t' of
        ``points``, one row per ξ of the ascending ``xis``, by the window sums.
        The ξ-free cells come once per n_r, the least multiple of the grid
        ≥ max(1024, 4ξ); each sum stops at the last cell a point needs."""
        points = np.asarray(points, dtype=float)
        lead = b0 * points + np.asarray(Bper_sh(points), dtype=float) - profile.B0
        rows = [np.empty((0, points.size), dtype=complex)]
        for n_r, group in itertools.groupby(xis, lambda xi: -(-max(1024, 4 * xi) // grid_size)):
            xs, n_r = np.array(list(group)), n_r * grid_size
            nodes = TWO_PI * np.arange(n_r) / n_r
            cells = np.nonzero((nodes > lo) & (nodes < hi))[0]
            bump = cutoff(nodes[cells])
            cells, bump = cells[bump > 0], bump[bump > 0]
            ln_g = np.log(bump) - np.multiply.outer(xs, b0 * nodes[cells] + Bper_sh(nodes[cells]))
            top = ln_g.max(axis=1, keepdims=True)
            ln_g = np.pad(ln_g - top, ((0, 0), (1, 1)), constant_values=-np.inf)
            # the node at t', even a rounding away from it, counts as s ≤ t'
            at = np.floor(points * (n_r / TWO_PI) + 1e-6).astype(np.int64)
            k = np.searchsorted(cells, at, side="right")
            k_lo, k_hi = int(k.min()), int(k.max())
            upto = np.logaddexp.accumulate(ln_g[:, : k_hi + 1], axis=1)[:, k]  # cells s ≤ t'
            past = np.logaddexp.accumulate(ln_g[:, :k_lo:-1], axis=1)[:, ::-1][:, k - k_lo]  # s > t'
            ln_lead = np.multiply.outer(xs, lead) + top
            hol = np.exp(-2j * math.pi * xs * a0_value)[:, None]
            u = np.exp(ln_lead + upto) + hol * np.exp(ln_lead + (TWO_PI * b0) * xs[:, None] + past)
            rows.append(u * (TWO_PI / n_r))
        return np.concatenate(rows)

    # Certificate tables over the full frequency range: |û'(t0', ξ)|, the
    # integral at t0', and |f̂|.
    xis = np.arange(1, xi_max + 1)
    u_table, f_table = [], []
    for xi, peak in zip(xis.tolist(), np.abs(laplace_rows(xis, [t0_sh])[:, 0]).tolist()):
        pref = abs(1.0 - np.exp(-2j * math.pi * xi * c0))
        ln_f = -profile.B0 * xi
        u_table.append([xi, peak])
        f_table.append([xi, float(pref * math.exp(ln_f) if ln_f > -745.0 else 0.0)])

    # Dense blocks (and the matching right-hand side) on the listed rungs,
    # rolled to the original frame: u(t) = u'(t + sigma).
    dense = np.array(dense_rungs, dtype=np.int64)
    shift_steps = int(round(sigma / h)) % grid_size
    phase = np.exp(-1j * np.multiply.outer(dense * a0_value, t_sh_grid - t0_sh))
    pref = 1.0 - np.exp(-2j * math.pi * dense * c0)
    pref *= np.exp(np.maximum(-profile.B0 * dense, -745.0))
    u_dense = np.roll(laplace_rows(dense, t_sh_grid) * phase, -shift_steps, axis=1)
    f_dense = np.roll(pref[:, None] * phase * cutoff(t_sh_grid), -shift_steps, axis=1)
    field_out = FourierField(1, grid_size, dense, u_dense)
    rhs_out = FourierField(1, grid_size, dense, f_dense)

    cert = {
        "lower_bound_table": u_table,
        "profile": profile.to_json(),
        "translation": sigma,
        "delta": delta,
        "cutoff_bound": cutoff.bound.to_json(),
        "f_table": f_table,
        "m": 1,
    }
    return field_out, rhs_out, cert, profile


def build_prop52(
    a0: RealConstant,
    b: TrigPoly,
    s: float,
    xi_max: int,
    *,
    grid_size: int,
    dense_rungs: Sequence[int],
) -> SingularSolution:
    """Laplace-peak solutions: Gevrey right-hand side, non-Gevrey solution.

    Requires an irrational-leaning average (the construction never divides,
    so only ``ξ c_0 ∉ ℤ`` matters for the prefactor) and a certified
    sign-changing ``b``.  The rung at frequency ξ is

        û(t, ξ) = e^{−iξ a_0 (t − t_0)} ∫_0^{2π} e^{ξ(Im H(t,r) − B_0)} φ(t−r) dr

    with φ a Gevrey-s cutoff at the peak foot; the matching right-hand side
    is ``f̂(t, ξ) = (1 − e^{−i2πξc_0}) e^{−B_0 ξ} e^{−iξa_0(t−t_0)} φ(t)``.
    Certificates store rows only: |û(t_0, ξ)| for 1 ≤ ξ ≤ xi_max (the
    ``C·ξ^{−1/2}`` table), the closed-form |f̂| table (``f_table``), the
    Gevrey-s row of φ (``cutoff_bound``, derived in closed form), the peak
    ``profile`` and the cutoff's ``translation`` and half-width ``delta``;
    no fitted number.  The peak t_0 is ``profile.t0``.  Coefficient blocks
    (and the right-hand side) are materialized only on the ascending rungs
    ``dense_rungs``, each in 1..xi_max; each row is the same whatever else
    the list holds.

    The solution rows apply the exact periodic solution operator to f̂ (one
    prefix and one suffix sum per rung, see :func:`_build_prop52_forward`), so
    the stored pair satisfies the tube equation to quadrature/roundoff
    accuracy.  The |û(t_0, ξ)| table comes from the same sums at t_0 alone,
    so where t_0 is a grid point a dense rung's row is the stored row's
    modulus there; all certified quantities are direct evaluations of the
    formulas.
    """
    s = float(s)
    a0_value = float(a0)
    b0 = float(b.mean())
    mirror = b0 > 0

    if not mirror:
        field_out, rhs_out, cert, _ = _build_prop52_forward(
            a0_value, b, s, xi_max, dense_rungs, grid_size
        )
    else:
        # b0 > 0: build for c(t) = -b(-t) (same a0) and map back by
        # u(t) = conj(v(-t)), f(t) = -conj(g(-t)); magnitudes are unchanged.
        reflected = b.reflect().scale(-1)
        field_c, rhs_c, cert, profile_c = _build_prop52_forward(
            a0_value, reflected, s, xi_max, dense_rungs, grid_size
        )
        idx = (-np.arange(grid_size)) % grid_size
        field_out = FourierField(1, grid_size, field_c.xi, np.conj(field_c.data[:, idx]))
        rhs_out = FourierField(1, grid_size, rhs_c.xi, -np.conj(rhs_c.data[:, idx]))
        cert["profile"] = LaplaceProfile(
            B0=-profile_c.B0,
            t0=(-profile_c.t0) % TWO_PI,
            r0=profile_c.r0,
            psi_curvature=-profile_c.psi_curvature,
            mirror=True,
        ).to_json()
    cert["a0"] = a0.to_json()

    return SingularSolution(
        construction="Prop52",
        coefficients=field_out,
        ladder=list(range(1, xi_max + 1)),
        certificates=cert,
        rhs={1: rhs_out},
    )


# ---------------------------------------------------------------------------
# Products over tubes and lifts across the identically-real tubes
# ---------------------------------------------------------------------------


def _embed_factors(n: int, grid: int, count: int, axis_rows: dict, blocks=None, block_axes=()):
    """Stack over ``count`` rungs of the product of per-axis factors (axis ->
    one row per rung), times an optional stack of joint blocks on
    ``block_axes``.  Products and lifts both assemble their rungs here."""
    shape = (count,) + (grid,) * n
    if blocks is None:
        out = np.ones(shape, dtype=complex)
    else:
        spread = [count] + [grid if ax in block_axes else 1 for ax in range(n)]
        out = np.broadcast_to(blocks.reshape(spread), shape).astype(complex)
    for ax, rows in axis_rows.items():
        row_shape = [count] + [1] * n
        row_shape[ax + 1] = grid
        np.multiply(out, rows.reshape(row_shape), out=out)
    return out


def build_product(
    per_tube: Sequence[SingularSolution],
    q: int,
    k_max: int,
    *,
    dense_rungs: Sequence[int],
    field_grid: int,
) -> SingularSolution:
    """Tensor the per-tube ladders: û(t, qk) = ∏_j û_j(t_j, qk), one
    t-variable per tube solution.

    The certified lower bound per rung is the product of the stored per-tube
    bounds, exactly as stored and in tube order, for the whole ladder qk
    (k = 1..k_max).  The n-dimensional coefficient blocks are materialized
    only on the ladder rungs ``dense_rungs``, at each of which every per-tube
    solution holds a block, one axis factor per tube; the bound table is
    grid-free and covers the full ladder either way.  ``m`` counts the
    Laplace-type factors (bounds of order ``ξ^{−m/2}``).  ``per_tube`` keeps each tube's
    construction and certificate rows (for Prop52: ``profile``,
    ``cutoff_bound``, ``f_table``, ``translation``, ``delta``), all but its
    ``lower_bound_table``, which the product table multiplies in.  A tube's
    peak is its Prop51 ``t0`` or its Prop52 ``profile.t0``.

    ``field_grid`` materializes the blocks on a grid dividing the per-tube
    grid that all the tubes share: grid data are pointwise samples, so
    striding them is exact and keeps n-dimensional blocks small.
    """
    n = len(per_tube)
    rungs = [q * k for k in range(1, k_max + 1)]
    dense = list(dense_rungs)
    stride = per_tube[0].coefficients.grid_size // field_grid
    rows = {ax: sol.coefficients.take(dense)[:, ::stride] for ax, sol in enumerate(per_tube)}
    out = FourierField(n, field_grid, dense, _embed_factors(n, field_grid, len(dense), rows))

    cert = {
        "lower_bound_table": [
            [xi, math.prod(sol.lower_bound(xi) for sol in per_tube)] for xi in rungs
        ],
        "per_tube": [
            {"construction": sol.construction}
            | {k: v for k, v in sol.certificates.items() if k != "lower_bound_table"}
            for sol in per_tube
        ],
        "m": sum(1 for sol in per_tube if sol.construction == "Prop52"),
        "q": q,
    }
    return SingularSolution(
        construction="Product",
        coefficients=out,
        ladder=rungs,
        certificates=cert,
    )


def _lift(spec: SystemSpec, v, rungs, phases: dict, grid: int) -> tuple:
    """The lifted blocks at ``rungs``: v's block on the tubes outside J times
    the phase e^{i m t_j} on each real tube j, ``phases`` mapping j to one
    integer m per rung; returns the field and the phase rows, axis j − 1
    mapping to one grid row per rung.

    v is None exactly when every tube is real, and the blocks then live on a
    ``grid`` grid; otherwise v covers the other tubes' variables and holds a
    block at every rung, and the blocks live on v's grid.
    """
    rest = [j for j in range(1, spec.n + 1) if j not in phases]
    blocks = None
    if v is not None:
        grid, blocks = v.coefficients.grid_size, v.coefficients.take(rungs)
    axis_rows = {j - 1: _integer_phases(ms, grid) for j, ms in phases.items()}
    stack = _embed_factors(spec.n, grid, len(rungs), axis_rows, blocks, [j - 1 for j in rest])
    return FourierField(spec.n, grid, rungs, stack), axis_rows


def _inherited(v: SingularSolution | None, rungs) -> dict:
    """The certificate entries a lift takes from v: the lower-bound table
    over ``rungs``, m and v's ``per_tube`` rows, which hold each tube's peak;
    bound 1.0, m = 0 and no tube rows when there is no v."""
    if v is None:
        table, cert = [[xi, 1.0] for xi in rungs], {}
    else:
        table, cert = [[xi, v.lower_bound(xi)] for xi in rungs], v.certificates
    return {
        "lower_bound_table": table,
        "m": cert.get("m", 0),
        "per_tube": cert.get("per_tube", []),
    }


def build_rational_J(
    spec: SystemSpec,
    analysis: SystemAnalysis,
    v: SingularSolution | None,
    q: int,
    *,
    k_max: int,
    dense_rungs: Sequence[int],
    grid_size: int,
) -> SingularSolution:
    """Lift a product solution across rational-average real tubes.

    For each rung ξ = qk the real tubes contribute pure phases
    ``e^{−iqk a_{j0} t_j}`` (integral frequencies, as q·a_{j0} ∈ ℤ), so
    ``L_j u = 0`` exactly for j in the real set; the other tubes keep v's
    certificates.  When every tube is real (ℓ = n), ``v`` is None and the
    rungs are pure phase products with certified bound 1.  ``analysis`` is
    the spec's :class:`SystemAnalysis`.

    The ladder is qk for k = 1..k_max.  Coefficient blocks are materialized
    on the ascending ladder rungs ``dense_rungs``, on v's grid (``grid_size``
    when every tube is real), where v holds a block at each; the bound table
    covers the full ladder.  Each materialized phase is below the grid
    Nyquist limit, so the stored samples determine the mode.
    """
    J = list(analysis.J)
    fracs = {j: analysis.a0[j - 1].approx_fraction() for j in J}
    rungs = [q * k for k in range(1, k_max + 1)]
    grid = grid_size if v is None else v.coefficients.grid_size
    dense = list(dense_rungs)
    phases = {j: [-int(xi * fracs[j]) for xi in dense] for j in J}
    out, rows = _lift(spec, v, dense, phases, grid)
    # L_j acts on t_j alone: on each rung, max|L_j u| is max|L_j e^{imt_j}|
    # times max|v| and the other real tubes' phase peaks
    mags = v.coefficients.magnitudes() if v is not None else dict.fromkeys(dense, 1.0)
    v_peaks = np.array([mags[xi] for xi in dense])
    peaks = {j: np.abs(rows[j - 1]).max(axis=1) for j in J}
    residual = []
    for j in J:
        line = FourierField(1, grid, dense, rows[j - 1])
        lu = apply_tube_operator(SystemSpec(1, [spec.tubes[j - 1]], spec.order), 1, line)
        scale = math.prod((peaks[k] for k in J if k != j), start=v_peaks)
        residual.append([j, float((np.abs(lu.data).max(axis=1) * scale).max(initial=0.0))])

    cert = {
        **_inherited(v, rungs),
        "q": q,
        "J": J,
        "a_J0": {str(j): str(fracs[j]) for j in J},
        # spectral residual of the real tubes (zero in exact arithmetic)
        "residual_real_tubes": residual,
    }
    return SingularSolution(
        construction="RationalJ",
        coefficients=out,
        ladder=rungs,
        certificates=cert,
    )


def build_expliouville_J(
    spec: SystemSpec,
    analysis: SystemAnalysis,
    witness: LiouvilleWitness,
    v: SingularSolution | None,
    q: int,
    *,
    grid_size: int,
) -> SingularSolution:
    """Lift across irrational real tubes along a fast-approximation ladder.

    ``witness`` is the q-rescaled simultaneous-approximation witness for
    the real-tube averages: rows (p_k, ξ_k) with ξ_k ∈ q·ℕ strictly
    increasing, and ``max_j |p_k^{(j)} + ξ_k a_{j0}| ≤ scale·e^{−δ ξ_k^{1/s}}``
    on each row, which :class:`WitnessMismatch` refuses otherwise.
    Rungs are resampled to ξ_k with ``û = v̂(t'', ξ_k) e^{i p_k·t'}``; the
    real tubes' right-hand sides ``f̂_j = i(p_k^{(j)} + a_{j0} ξ_k) û`` then
    decay at the witness rate.  The certificate holds rows only, no fitted
    number: the ``witness`` (with its δ and ``bound_scale``), ``order`` (the
    s of each row's ``ln_bound``), ``row_checks`` (ln|p_k^{(j)} + ξ_k a_{j0}|
    against ln(scale) − δ ξ_k^{1/s}, the witness verified in exact
    arithmetic first) and ``f_tables`` (|f̂_j| per rung, the divisor times
    max|v̂|), plus v's ``per_tube`` rows.  When every tube is real (ℓ = n),
    ``v`` is None and the rungs are pure phase products with certified
    bound 1, on a ``grid_size`` grid.  ``analysis`` is the spec's
    :class:`SystemAnalysis`, and ``spec.order`` is a Gevrey order.

    Witness frequencies may exceed the grid Nyquist limit: the stored grid
    samples are pointwise-exact values of the phases, but spectral reads of
    such a block (FFT, grid derivatives) need a grid larger than twice the
    largest phase frequency.  The certificate rows are grid-free.
    """
    J = list(analysis.J)
    s = float(spec.order.s)
    components = [analysis.a0[j - 1] for j in J]
    checks = verify_witness_rows(witness, components, s)
    if not all(checks):
        bad = [k for k, ok in enumerate(checks) if not ok]
        raise WitnessMismatch(f"witness rows {bad} fail verification")

    rungs = [s_k for _, s_k in witness.pairs]
    phases = {j: [p_vec[i] for p_vec, _ in witness.pairs] for i, j in enumerate(J)}
    out, _ = _lift(spec, v, rungs, phases, grid_size)
    v_max = v.coefficients.magnitudes() if v is not None else dict.fromkeys(rungs, 1.0)

    a_fracs = [c.approx_fraction(60) for c in components]
    row_checks = []
    f_tables = {j: [] for j in J}
    d_floats = {j: [] for j in J}
    for p_vec, xi in witness.pairs:
        ln_bound = math.log(witness.bound_scale) - witness.delta * xi ** (1.0 / s)
        for i, j in enumerate(J):
            divisor = Fraction(p_vec[i]) + a_fracs[i] * xi
            d_float = float(divisor)
            d_floats[j].append(d_float)
            ln_d = ln_abs_fraction(divisor)
            row_checks.append(
                {
                    "xi": xi,
                    "tube": j,
                    "ln_divisor": ln_d,
                    "ln_bound": ln_bound,
                    "within_bound": certified_le(ln_d, ln_bound),
                }
            )
            f_tables[j].append([xi, abs(d_float) * v_max[xi]])
    # f̂_j = i(p_k^{(j)} + a_{j0} ξ_k) û, rung by rung
    shape = (-1,) + (1,) * spec.n
    rhs = {
        j: FourierField(spec.n, out.grid_size, rungs, 1j * np.reshape(d, shape) * out.data)
        for j, d in d_floats.items()
    }

    cert = {
        **_inherited(v, rungs),
        "q": q,
        "J": J,
        "witness": witness.to_json(),
        "order": s,
        "row_checks": row_checks,
        "f_tables": {str(j): rows for j, rows in f_tables.items()},
    }
    return SingularSolution(
        construction="ExpLiouvilleJ",
        coefficients=out,
        ladder=rungs,
        certificates=cert,
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# The obstruction pipeline
# ---------------------------------------------------------------------------


def _exponent_bound(b: TrigPoly, xi_top: int) -> float:
    """xi_top·(2·Σ_k (|c_k| + |s_k|)/k + 2π|b0|) for b = b0 + Σ_k c_k cos kt
    + s_k sin kt, or inf past the float range.  For ξ ≤ xi_top it bounds
    ξ·|b0 t + B(t)| on [0, 2π], ξ·|B(t) − B(t')| and ξ·|Im H|, the exponents
    from which Prop51 and Prop52 build their rows."""
    try:
        size = sum(
            (abs(b.coefficient("cos", k)) + abs(b.coefficient("sin", k))) / k
            for k in range(1, b.degree + 1)
        )
        return xi_top * (2.0 * float(size) + TWO_PI * abs(float(b.mean())))
    except OverflowError:
        return math.inf


def build_obstruction(spec: SystemSpec, *, xi_max: int, grid: int) -> tuple:
    """Build the slow-decay family of a system certified not regular; returns
    ``(solution, summary)``, the :class:`SingularSolution` and the body of
    the ``singular`` report.

    Raises :class:`RefusedHypoelliptic` unless the verdict is
    NotHypoelliptic.  Refuses with :class:`MalformedInput`, before the
    verdict, a ``grid`` that is not a power of two of at least 4, an
    ``xi_max`` below 1 and a tube whose a_j is not constant (the
    constructions use its average alone; ``normalform`` prints the
    normalized spec); after it, a tube with nonvanishing b whose
    :func:`_exponent_bound` or holonomy phase 2π·ξ·|a0| at the top rung
    passes 1e300, which keeps every sum of the builders' exponents and
    phases far inside the float range.  The ladder is qk for
    k = 1..max(1, xi_max // q), with q the least common multiple of the
    rational averages' denominators.
    Each tube with nonvanishing b gets Prop51 (rational average, zero-mean
    b) or Prop52 on ``grid``; their product is lifted across the
    identically-real tubes (RationalJ, or ExpLiouvilleJ along the spec's
    rescaled ``vector_witness``, which :class:`WitnessMismatch` refuses on
    the smooth scale, when absent, with no row within the ladder, or with
    rows of the wrong length).  The materialized rungs are chosen once:
    the ladder rungs up to ``_FIELD_CAP`` that fit a fixed sample budget, or
    the witness rungs under ExpLiouvilleJ, which keeps only those.  Every
    builder computes coefficient blocks on those rungs alone; the certified
    bound table always covers the full ladder.  ``summary`` adds the verdict,
    the constructions in order (``chain``), ``q``, ``k_max``, the highest
    materialized rung ``field_cap`` and :func:`fit_lower_bound_power`'s fit.
    """
    if not (isinstance(grid, int) and grid >= 4 and not grid & (grid - 1)):
        raise MalformedInput(f"--grid: {grid!r} is not a power of two of at least 4")
    if not (isinstance(xi_max, int) and xi_max >= 1):
        raise MalformedInput(f"--xi-max: {xi_max!r} is not a positive integer")
    for i, tube in enumerate(spec.tubes):
        if not tube.a_is_constant:
            raise MalformedInput(
                f"tubes[{i}]: a: the real part is not constant; run singular on the "
                '"normalized" spec that normalform prints'
            )
    analysis, _, verdict = classify_system(spec)
    if verdict.decision != NOT_HYPOELLIPTIC:
        raise RefusedHypoelliptic(
            f"the system is not certified irregular (verdict: {verdict.decision}); "
            f"{verdict.explanation}"
        )
    order = spec.order
    s = order.s if order.is_gevrey else 2.0
    J = list(analysis.J)
    rest = [j for j in range(1, spec.n + 1) if j not in J]

    # Common ladder multiple: clear every rational denominator in sight.
    q = math.lcm(*(a.approx_fraction().denominator for a in analysis.a0 if a.is_rational))
    k_max = max(1, xi_max // q)
    rungs = [q * k for k in range(1, k_max + 1)]
    xi_top = rungs[-1]
    rates = [
        _parse_field(f"tubes[{i}]: a", lambda x: abs(float(x)), a) for i, a in enumerate(analysis.a0)
    ]
    for j in rest:
        if not (bound := _exponent_bound(spec.tubes[j - 1].b, xi_top)) <= 1e300:
            raise MalformedInput(
                f"tubes[{j - 1}]: b: its exponents reach {bound:.3g} at xi = {xi_top}, "
                "past 1e300; scale b down or lower --xi-max"
            )
        if not (phase := TWO_PI * xi_top * rates[j - 1]) <= 1e300:
            raise MalformedInput(
                f"tubes[{j - 1}]: a: the phase 2*pi*xi*a0 reaches {phase:.3g} at xi = {xi_top}, "
                "past 1e300; lower --xi-max"
            )

    # Materialized n-dimensional blocks are limited two ways (the scalar
    # certificate tables are grid-free and always cover the full ladder):
    # every integer phase written to the field must stay below the grid
    # Nyquist limit, and the total sample count must fit a fixed budget.
    # The field may live on a coarser divisor grid — grid data are pointwise
    # samples, so striding is exact — picked to maximize the dense rungs.
    rate = max(rates)
    choices = []
    g = grid
    while True:
        cap = min(_FIELD_CAP, xi_top)
        if rate > 0:
            cap = min(cap, int((g // 2 - max(8, g // 8)) / rate))
        cap = max(cap, 0)
        count = min(k_max, cap // q, _DENSE_SAMPLE_BUDGET // (g**spec.n))
        choices.append((count, g, cap))
        if g // 2 < 32:  # g is a power of two, so g // 2 divides it
            break
        g //= 2
    n_dense, field_grid, cap = max(choices)
    dense = rungs[:n_dense]

    all_rational_J = bool(J) and all(analysis.a0[j - 1].is_rational for j in J)
    witness = None
    if J and not all_rational_J:
        if not order.is_gevrey:
            raise WitnessMismatch(
                "the averaged vector over the real tubes is irrational, and "
                "the witness-driven construction is defined on the Gevrey "
                "scale only, not on the smooth scale; rerun with --s"
            )
        if spec.vector_witness is None:
            raise WitnessMismatch(
                "the averaged vector over the real tubes is irrational: the "
                "construction needs an explicit approximation witness "
                "(vector_witness) and none was supplied"
            )
        scaled = scale_witness(spec.vector_witness, q, s)
        rows = [(r, s_k) for r, s_k in scaled.pairs if s_k <= xi_top]
        if not rows:
            raise WitnessMismatch(
                f"no witness row has denominator <= {xi_top}; raise --xi-max"
            )
        if scaled.length != len(J):
            raise WitnessMismatch(
                f"witness covers {scaled.length} components but {len(J)} tubes are real"
            )
        witness = LiouvilleWitness(
            delta=scaled.delta, pairs=rows, bound_scale=scaled.bound_scale
        )
        dense = [s_k for _, s_k in rows]  # the only rungs ExpLiouvilleJ keeps

    per_tube = []
    chain = []
    for j in rest:
        a0 = analysis.a0[j - 1]
        b0 = analysis.b0[j - 1]
        b = spec.tubes[j - 1].b
        if a0.is_rational and b0.is_rational and b0.approx_fraction() == 0:
            frac = a0.approx_fraction()
            sol = build_prop51(frac, b, ladder=rungs, grid_size=grid, dense_rungs=dense)
        else:
            sol = build_prop52(a0, b, s, xi_top, grid_size=grid, dense_rungs=dense)
        per_tube.append(sol)
        chain.append({"tube": j, "construction": sol.construction})

    solution = None
    if rest:
        solution = build_product(per_tube, q, k_max, dense_rungs=dense, field_grid=field_grid)
    if J:
        if all_rational_J:
            solution = build_rational_J(
                spec, analysis, solution, q,
                k_max=k_max, dense_rungs=dense, grid_size=field_grid,
            )
        else:
            solution = build_expliouville_J(
                spec, analysis, witness, solution, q, grid_size=field_grid
            )
        chain.append({"tubes": J, "construction": solution.construction})
    cert = solution.certificates
    summary = {
        "construction": solution.construction,
        "chain": chain,
        "q": q,
        "k_max": k_max,
        "field_cap": cap,
        "field_grid": solution.coefficients.grid_size,
        "dense_rungs": len(solution.coefficients.xi),
        "m": cert.get("m", 0),
        "ladder_head": solution.ladder[:8],
        "ladder_size": len(solution.ladder),
        "lower_bound_head": cert["lower_bound_table"][:8],
        "verdict": verdict.to_json(),
        "runtime": {"rungs": len(solution.ladder), "grid": grid, "tubes": spec.n},
    }
    if (fit := fit_lower_bound_power(solution)) is not None:
        summary["table_power_fit"] = fit
    summary |= {k: cert[k] for k in ("residual_real_tubes", "row_checks") if k in cert}
    return solution, summary
