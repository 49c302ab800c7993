"""Periodic-function data model and Gevrey-regularity toolbox.

This module provides the pieces of the package that are about *regularity*
rather than about any particular equation:

* :class:`TrigPoly` — finite real trigonometric polynomials with exact
  rational or float coefficients.  These carry the tube coefficients and all
  closed-form antiderivatives used elsewhere.
* stretched-exponential decay diagnostics: fit ln|c_xi| against
  ln C - eps*|xi|^{1/s} and report the fitted rate as a
  :class:`GevreyWitness`.
* compactly supported order-s cutoff functions (s > 1) built from the
  mollifier psi(x) = exp(-x^{-1/(s-1)}), each with a :class:`CutoffBound`:
  Gevrey-s derivative and Fourier bounds derived in closed form from
  Cauchy estimates, not fitted to samples.

Everything here is a pure function of its inputs and safe to call from
multiple threads.  numpy is imported inside the functions that evaluate or
fit on arrays, so parsing and exact arithmetic of trig polynomials load no
numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import GeometryError, InsufficientData, MalformedInput, OrderError, _list_field

Coeff = Union[Fraction, float]

#: magnitudes below this are treated as underflow noise, not signal
UNDERFLOW_FLOOR = 1e-300

#: default lower end of the decay-fitting window (preasymptotic cutoff)
DEFAULT_FIT_XI_MIN = 16


def _parse_coeff(x) -> Coeff:
    """Normalize a scalar coefficient: Fractions, ints and strings become
    exact Fractions, finite floats stay floats (the JSON convention: strings
    are exact, non-integer numbers are floats)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise MalformedInput("boolean is not a coefficient")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise MalformedInput(f"non-finite coefficient {x!r}")
        return x
    raise MalformedInput(f"unsupported coefficient {x!r}")


# ---------------------------------------------------------------------------
# TrigPoly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial  const + sum_k cos[k]*cos((k+1)t) + sin[k]*sin((k+1)t).

    Coefficients are stored as :class:`fractions.Fraction` (exact; given as a
    Fraction, an int or a string) or as finite floats; exact inputs stay
    exact through differentiation, antidifferentiation and arithmetic.  The
    JSON form uses string coefficients for exact values::

        {"const": "1/2", "cos": ["0", "1/3"], "sin": ["1"]}

    means 1/2 + (1/3)cos(2t) + sin(t): array index k corresponds to frequency
    k+1.
    """

    const: Coeff = 0
    cos: tuple = ()
    sin: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "cos", tuple(_parse_coeff(c) for c in self.cos))
        object.__setattr__(self, "sin", tuple(_parse_coeff(c) for c in self.sin))
        object.__setattr__(self, "const", _parse_coeff(self.const))

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Largest frequency with a (possibly zero) stored coefficient."""
        return max(len(self.cos), len(self.sin))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in (self.const, *self.cos, *self.sin))

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and all(c == 0 for c in self.cos) and all(
            c == 0 for c in self.sin
        )

    def coefficient(self, kind: str, k: int) -> Coeff:
        arr = self.cos if kind == "cos" else self.sin
        if 1 <= k <= len(arr):
            return arr[k - 1]
        return Fraction(0)

    def mean(self) -> Coeff:
        """The average over one period (the constant Fourier coefficient)."""
        return self.const

    # -- arithmetic -----------------------------------------------------------

    def scale(self, factor: Coeff) -> "TrigPoly":
        factor = _parse_coeff(factor)
        return TrigPoly(
            self.const * factor,
            tuple(c * factor for c in self.cos),
            tuple(c * factor for c in self.sin),
        )

    def reflect(self) -> "TrigPoly":
        """t -> -t: cosines invariant, sines flip."""
        return TrigPoly(self.const, self.cos, tuple(-c for c in self.sin))

    def translate(self, tau: float) -> "TrigPoly":
        """Return the float-coefficient polynomial t -> self(t - tau)."""
        cos = []
        sin = []
        for k in range(1, self.degree + 1):
            ck = float(self.coefficient("cos", k))
            sk = float(self.coefficient("sin", k))
            # cos(k(t-tau)) = cos kt cos ktau + sin kt sin ktau
            # sin(k(t-tau)) = sin kt cos ktau - cos kt sin ktau
            ckt, skt = math.cos(k * tau), math.sin(k * tau)
            cos.append(ck * ckt - sk * skt)
            sin.append(ck * skt + sk * ckt)
        return TrigPoly(float(self.const), tuple(cos), tuple(sin))

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "TrigPoly":
        cos = []
        sin = []
        for k in range(1, self.degree + 1):
            ck = self.coefficient("cos", k)
            sk = self.coefficient("sin", k)
            cos.append(k * sk)
            sin.append(-k * ck)
        return TrigPoly(0, tuple(cos), tuple(sin))

    def antiderivative_periodic(self) -> "TrigPoly":
        """Pure periodic antiderivative of the oscillating part (no constant).

        Maps cos(kt) -> sin(kt)/k and sin(kt) -> -cos(kt)/k and drops the
        constant term; the full antiderivative is ``mean()*t`` plus this.
        """
        cos = []
        sin = []
        for k in range(1, self.degree + 1):
            ck = self.coefficient("cos", k)
            sk = self.coefficient("sin", k)
            cos.append(-sk / k)
            sin.append(ck / k)
        return TrigPoly(0, tuple(cos), tuple(sin))

    def primitive_from_zero(self) -> "TrigPoly":
        """The periodic function t -> integral_0^t (self - mean).

        Requires no assumption on the mean (it is removed); the result P
        satisfies P(0) = 0 and P' = self - mean.
        """
        p = self.antiderivative_periodic()
        # value at 0: sin terms vanish, cos terms contribute their coefficient
        at_zero = sum(p.cos, Fraction(0) if self.is_exact else 0.0)
        return TrigPoly(-at_zero, p.cos, p.sin)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, t):
        import numpy as np

        t = np.asarray(t, dtype=float)
        out = np.full_like(t, float(self.const), dtype=float)
        for k in range(1, self.degree + 1):
            ck = float(self.coefficient("cos", k))
            sk = float(self.coefficient("sin", k))
            if ck:
                out = out + ck * np.cos(k * t)
            if sk:
                out = out + sk * np.sin(k * t)
        return out

    def exp_coeffs(self):
        """Complex exponential coefficients (a numpy array), index i <->
        frequency i - degree."""
        import numpy as np

        d = self.degree
        out = np.zeros(2 * d + 1, dtype=complex)
        out[d] = float(self.const)
        for k in range(1, d + 1):
            ck = float(self.coefficient("cos", k))
            sk = float(self.coefficient("sin", k))
            out[d + k] = 0.5 * (ck - 1j * sk)
            out[d - k] = 0.5 * (ck + 1j * sk)
        return out

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        def enc(x: Coeff):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, int):
                return str(x)
            return float(x)

        return {
            "const": enc(self.const),
            "cos": [enc(c) for c in self.cos],
            "sin": [enc(c) for c in self.sin],
        }

    @classmethod
    def from_json(cls, obj) -> "TrigPoly":
        if obj is None:
            return cls()
        if isinstance(obj, (int, float, str)):
            return cls(const=obj)
        if not isinstance(obj, dict):
            raise MalformedInput(f"cannot parse TrigPoly from {obj!r}")
        MalformedInput.refuse_unknown_keys(obj, ("const", "cos", "sin", "zero"))
        if obj.get("zero"):
            return cls()
        cos, sin = (tuple(_list_field(obj, key, ())) for key in ("cos", "sin"))
        return cls(obj.get("const", 0), cos, sin)


# ---------------------------------------------------------------------------
# Decay diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GevreyWitness:
    """Fitted stretched-exponential decay model  |c_xi| ~ C |xi|^power e^{-epsilon |xi|^{1/s}}.

    ``power`` is a nuisance parameter absorbing algebraic prefactors (Laplace
    corrections, root singularities); the headline rate is ``epsilon``.
    """

    s: float
    epsilon: float
    C: float
    fit_r2: float = 0.0
    power: float = 0.0
    n_points: int = 0

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError("C must be positive")
        if self.fit_r2 > 1 + 1e-12:
            raise ValueError("fit_r2 must be <= 1")

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "epsilon": self.epsilon,
            "C": self.C,
            "fit_r2": self.fit_r2,
            "power": self.power,
            "n_points": self.n_points,
        }


def least_squares(design, y) -> tuple:
    """Least-squares coefficients of ``design @ coef ≈ y`` (numpy arrays)
    and the fit's R² (1 when ``y`` is constant)."""
    import numpy as np

    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum((y - pred) ** 2)) / ss_tot
    return coef, r2


def _coeff_items(coeffs) -> Iterable:
    if isinstance(coeffs, Mapping):
        return coeffs.items()
    return coeffs


def estimate_decay(
    coeffs,
    s: float,
    xi_min: int = DEFAULT_FIT_XI_MIN,
    xi_max: int | None = None,
) -> GevreyWitness:
    """Least-squares fit of ln|c_xi| ~ ln C + power*ln|xi| - epsilon*|xi|^{1/s}.

    ``coeffs`` maps frequency -> magnitude (dict or iterable of pairs).  Zero,
    non-finite and underflowed magnitudes (< 1e-300) are excluded, as are
    frequencies outside [xi_min, xi_max].  At least 8 usable points are
    required.  The ln|xi| column absorbs algebraic decay so that pure
    power-law data fits with epsilon ~ 0 while exact stretched-exponential
    data recovers its rate exactly.
    """
    import numpy as np

    s = float(s)
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    xs = []
    ys = []
    for xi, mag in _coeff_items(coeffs):
        axi = abs(int(xi))
        mag = float(mag)
        if axi < max(1, xi_min):
            continue
        if xi_max is not None and axi > xi_max:
            continue
        if not math.isfinite(mag) or mag < UNDERFLOW_FLOOR:
            continue
        xs.append(axi)
        ys.append(math.log(mag))
    if len(xs) < 8:
        raise InsufficientData(
            f"decay fit needs >= 8 usable coefficients, got {len(xs)}"
        )
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    design = np.column_stack([np.ones_like(x), np.log(x), x ** (1.0 / s)])
    coef, r2 = least_squares(design, y)
    eps_hat = -float(coef[2])
    return GevreyWitness(
        s=s,
        epsilon=max(eps_hat, UNDERFLOW_FLOOR),
        C=math.exp(min(float(coef[0]), 700.0)),
        fit_r2=r2,
        power=float(coef[1]),
        n_points=len(xs),
    )


# ---------------------------------------------------------------------------
# Gevrey cutoffs
# ---------------------------------------------------------------------------


def _mollifier_exponent(s: float) -> float:
    return 1.0 / (s - 1.0)


def shoulder(x, s: float):
    """Monotone order-s shoulder: 0 for x<=0, 1 for x>=1, psi/(psi+psi(1-.)) between."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    p = _mollifier_exponent(s)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            a = np.exp(-xm ** (-p))
            b = np.exp(-((1.0 - xm) ** (-p)))
        out[mid] = a / (a + b)
    return out


def _exp(x: float) -> float:
    """e^x, or inf past the float range."""
    return math.exp(x) if x < 709.0 else math.inf


def _bisect(ok, lo: float, hi: float) -> float:
    """The largest point of [lo, hi] that 40 bisection steps find with
    ``ok``, for ``ok`` true up to one point and false past it: ``hi`` when
    ``ok(hi)``, and ``lo`` (not evaluated) when no step is ok."""
    if ok(hi):
        return hi
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


#: relative slack of each disc condition, far above the rounding of its terms
_SLACK = 1e-9


@functools.lru_cache(maxsize=None)
def _shoulder_bound(p: float) -> tuple:
    """(h, theta, x_split, radius) with sup|H^(k)| <= 2e*h^k*(k!)^(1+1/p) on
    (0, 1) for every k >= 0, where H = 1/(1 + e^g), g(x) = x^-p - (1-x)^-p,
    is the shoulder psi/(psi + psi(1-.)) of psi(x) = exp(-x^-p).

    H(1-x) = 1 - H(x), so x <= 1/2 is enough.  H is holomorphic near there,
    and Cauchy's estimate |H^(k)(x)| <= k!*max|H|/r^k on the disc of radius r
    about x is used on two kinds of disc:

    * x <= x_split, r = theta*x.  There Re (z/x)^-p >= kappa =
      (1+theta)^-p*cos(p*asin(theta)) and |1-z|^-p <= E =
      (1-(1+theta)*x_split)^-p, and x_split keeps Re g >= kappa*x^-p - E >=
      ln 2, so |1 + e^g| >= |e^g|/2 and |H| <= 2e^(-Re g).  E*x^p grows
      with x, so E <= 1 + (E-1)*x_split^p*x^-p and |H| <= 2e*exp(-k1*x^-p),
      k1 = kappa - (E-1)*x_split^p.  The largest k!*(theta*x)^-k*exp(-k1*x^-p)
      over x > 0 is at most (k!)^(1+1/p)*(theta^-1*(p*k1)^(-1/p))^k, by
      k^k <= e^k*k!.
    * x_split <= x <= 1/2, r = radius.  |g'| <= p(|z|^(-p-1) + |1-z|^(-p-1))
      bounds |Im g| on the disc by
      radius*p*((x_split-radius)^(-p-1) + (1/2-radius)^(-p-1)).  Where that
      is at most pi/2, Re e^g >= 0, so |H| <= 1 and |H^(k)| <= k!/radius^k.

    Every admissible (theta, x_split, radius) gives a valid bound.  Twelve
    values of theta under the sector limit p*asin(theta) < pi/2 are tried,
    with the largest x_split and radius that bisection finds for each, and
    the smallest h is kept (inf when no choice is admissible in floats).
    The conditions are checked in logarithms, so nothing overflows.
    """
    theta_max = math.sin(math.pi / (2.0 * p)) if p > 1 else 1.0
    ln_half_pi = math.log(math.pi / 2)
    best = (math.inf, 0.0, 0.0, 0.0)
    for i in range(1, 13):
        theta = theta_max * i / 13
        ln_kappa = -p * math.log1p(theta) + math.log(math.cos(p * math.asin(theta)))

        def ln_E(ln_x):
            return -p * math.log1p(-(1 + theta) * math.exp(ln_x))

        def sector(ln_x):  # ln(kappa*x^-p) >= ln(E + ln 2)
            a, lhs = ln_E(ln_x), ln_kappa - p * ln_x
            return lhs - a - math.log1p(math.log(2) * math.exp(-a)) >= _SLACK * (1 + abs(lhs))

        ln_split = _bisect(sector, -745.0, math.log(0.5))
        if not sector(ln_split):
            continue
        x_split = math.exp(ln_split)

        def flat(ln_r):  # ln(r*p*((x_split-r)^(-p-1) + (1/2-r)^(-p-1))) <= ln(pi/2)
            r = math.exp(ln_r)
            la, lb = -(p + 1) * math.log(x_split - r), -(p + 1) * math.log(0.5 - r)
            lhs = ln_r + math.log(p) + max(la, lb) + math.log1p(math.exp(-abs(la - lb)))
            return lhs <= ln_half_pi - _SLACK * (1 + abs(lhs))

        ln_radius = _bisect(flat, -745.0, ln_split + math.log1p(-_SLACK))
        if not flat(ln_radius):
            continue
        k1 = math.exp(ln_kappa) - _exp(ln_E(ln_split) + p * ln_split) + math.exp(p * ln_split)
        h = max(_exp(-math.log(p * k1) / p) / theta, _exp(-ln_radius))
        best = min(best, (h, theta, x_split, math.exp(ln_radius)))
    return best


class CutoffBound(NamedTuple):
    """Gevrey-s certificate row of a cutoff phi, derived in closed form:

    * sup|phi^(k)| <= C*h^k*(k!)^s for every k >= 0;
    * |phi_hat(xi)| <= C_fourier*exp(-epsilon*|xi|^(1/s)) for xi != 0, with
      phi_hat(xi) = (1/2pi) * integral of phi(t)*e^(-i*xi*t) over one period.

    ``theta``, ``x_split`` and ``radius`` are the disc parameters of the
    shoulder estimate (:func:`_shoulder_bound`), so the row can be derived
    again from them.  A named tuple, not a dataclass: every command that
    reads a trig polynomial imports this module.
    """

    s: float
    C: float
    h: float
    C_fourier: float
    epsilon: float
    theta: float
    x_split: float
    radius: float

    @classmethod
    def derive(cls, cutoff: "GevreyCutoff") -> "CutoffBound":
        """The row of ``cutoff``, from the shoulder bound with p = 1/(s-1).

        Off the two shoulders phi is 0 or 1, and on each it is H at the
        shoulder's coordinate, so sup|phi^(k)| <= sup|H^(k)|/w^k with w the
        narrower shoulder width (C = 2e >= sup|phi| covers k = 0), and
        ||phi^(k)||_L1 <= (r-l)*C*h^k*(k!)^s.  Integrating by parts k times,
        |phi_hat(xi)| <= inf_k ||phi^(k)||_L1/(2pi*|xi|^k); with
        k = floor(y), y = (|xi|/h)^(1/s), k! <= e*k^(k+1/2)*e^-k and
        y^(s/2) <= exp(s*y/(2e)), that is at most
        (r-l)*C*e^(2s)/(2pi) * exp(-s*(1 - 1/(2e))*y).
        """
        s = cutoff.s
        h_shoulder, theta, x_split, radius = _shoulder_bound(_mollifier_exponent(s))
        (l, r), (l2, r2) = cutoff.support, cutoff.plateau
        h = h_shoulder / min(l2 - l, r - r2)
        C = 2 * math.e
        return cls(
            s=s,
            C=C,
            h=h,
            C_fourier=(r - l) * C * _exp(2 * s) / (2 * math.pi),
            epsilon=s * (1 - 1 / (2 * math.e)) * h ** (-1 / s),
            theta=theta,
            x_split=x_split,
            radius=radius,
        )

    def to_json(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class GevreyCutoff:
    """Compactly supported order-s cutoff on (0, 2*pi).

    Identically 1 on ``plateau`` = [l', r'], identically 0 outside
    ``support`` = [l, r], monotone on each shoulder, and 0 <= phi <= 1
    everywhere.  Construction checks s > 1 (:class:`OrderError`) and
    0 < l < l' < r' < r < 2*pi (:class:`GeometryError`).  ``bound`` is its
    Gevrey-s certificate row; :func:`make_cutoff` attaches it.
    """

    s: float
    support: tuple
    plateau: tuple
    bound: CutoffBound | None = None

    def __post_init__(self):
        s = float(self.s)
        if s <= 1:
            raise OrderError(f"order-s cutoffs require s > 1, got s={s}")
        (l, r), (l2, r2) = map(float, self.support), map(float, self.plateau)
        if not (0.0 < l < l2 < r2 < r < 2.0 * math.pi):
            raise GeometryError(
                f"need 0 < {l} < {l2} < {r2} < {r} < 2*pi with plateau inside support"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "support", (l, r))
        object.__setattr__(self, "plateau", (l2, r2))

    def __call__(self, t):
        import numpy as np

        t = np.asarray(t, dtype=float)
        (l, r), (l2, r2) = self.support, self.plateau
        return shoulder((t - l) / (l2 - l), self.s) * shoulder((r - t) / (r - r2), self.s)

    def value_mp(self, t, mp):
        """Evaluate at one point in mpmath arithmetic (t an mpf)."""
        l, r = self.support
        l2, r2 = self.plateau
        p = _mollifier_exponent(self.s)

        def sh(x):
            if x <= 0:
                return mp.mpf(0)
            if x >= 1:
                return mp.mpf(1)
            a = mp.e ** (-(x ** (-p)))
            b = mp.e ** (-((1 - x) ** (-p)))
            return a / (a + b)

        return sh((t - l) / (l2 - l)) * sh((r - t) / (r - r2))

    def fourier_magnitudes_hiprec(self) -> dict:
        """|Fourier coefficient| at frequencies 1..4095 of 8192 samples, to about 1e-40.

        Only the samples in or next to a shoulder are evaluated, in 40-digit
        mpmath (:meth:`value_mp`): the others are exactly 1 or 0.  Samples and
        roots of unity become Python ints at scale 2**160 (finer than the 133
        bits of 40 digits), a radix-2 FFT runs on them with a 160-bit shift
        after each product, and each magnitude isqrt(re² + im²) / 2**160 / 8192
        is rounded to a float once.  The tail lies far below the float64 FFT
        roundoff floor.  No build reads it: it is the reference that the
        tests hold :class:`CutoffBound` against, and it needs mpmath, which
        is in the ``test`` extra and not a runtime dependency.
        """
        from mpmath import mp, workdps

        n, bits = 8192, 160
        one, h = 1 << bits, 2.0 * math.pi / n
        (l, r), (l2, r2) = self.support, self.plateau
        # a one-sample margin keeps float rounding of t out of the split
        flat = range(math.ceil(l2 / h) + 1, math.floor(r2 / h))
        re = [0] * n
        with workdps(40):
            for k in range(max(0, math.floor(l / h) - 1), min(n, math.ceil(r / h) + 2)):
                value = 1 if k in flat else self.value_mp(2 * mp.pi * k / n, mp)
                re[k] = int(mp.ldexp(value, bits))
            # (cos, sin) of 2*pi*k/n on the first octant; the rest by symmetry
            octant = [mp.expjpi(mp.mpf(2 * k) / n) for k in range(n // 8 + 1)]
            octant = [(int(mp.ldexp(w.real, bits)), int(mp.ldexp(w.imag, bits))) for w in octant]
        quarter = octant + [(s, c) for c, s in reversed(octant[:-1])]
        roots = [(c, -s) for c, s in quarter[:-1]] + [(-s, -c) for c, s in quarter[:-1]]
        width = n.bit_length() - 1
        re = [re[int(f"{k:0{width}b}"[::-1], 2)] for k in range(n)]
        im = [0] * n
        size = 2
        while size <= n:
            half, step = size // 2, n // size
            for start in range(0, n, size):
                for k in range(half):
                    wr, wi = roots[k * step]
                    p, q = start + k, start + k + half
                    vr = (re[q] * wr - im[q] * wi) >> bits
                    vi = (re[q] * wi + im[q] * wr) >> bits
                    re[p], re[q] = re[p] + vr, re[p] - vr
                    im[p], im[q] = im[p] + vi, im[p] - vi
            size *= 2
        return {k: math.isqrt(re[k] ** 2 + im[k] ** 2) / one / n for k in range(1, n // 2)}


def make_cutoff(s: float, support: tuple, plateau: tuple) -> GevreyCutoff:
    """Build the order-s cutoff for plateau strictly inside support inside (0, 2pi).

    The construction composes two shoulders of the mollifier
    psi(x) = exp(-x^{-1/(s-1)}):  phi(t) = h((t-l)/(l'-l)) * h((r-t)/(r-r')).
    The returned cutoff carries its :class:`CutoffBound`, derived from
    (s, support, plateau) alone, in about a millisecond and without mpmath.
    """
    bare = GevreyCutoff(s, support, plateau)
    return GevreyCutoff(bare.s, bare.support, bare.plateau, bound=CutoffBound.derive(bare))
