"""Trig-polynomial data model, decay fitting, cutoffs."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_hypo.errors import GeometryError, InsufficientData, OrderError
from torus_hypo.gevrey import GevreyCutoff, TrigPoly, estimate_decay, make_cutoff, shoulder

# ---------------------------------------------------------------------------
# TrigPoly data model
# ---------------------------------------------------------------------------


def test_trig_poly_evaluation_and_mean():
    p = TrigPoly.from_json({"const": "1/2", "cos": ["0", "1/3"], "sin": ["1"]})
    t = 0.7
    assert p(t) == pytest.approx(0.5 + math.cos(2 * t) / 3 + math.sin(t))
    assert p.mean() == Fraction(1, 2)
    assert TrigPoly.from_json("0").is_zero
    assert TrigPoly.from_json({"sin": ["1"]}).mean() == 0


def test_trig_poly_json_round_trip():
    obj = {"const": "1/2", "cos": ["0", "1/3"], "sin": ["1"]}
    assert TrigPoly.from_json(obj).to_json() == obj
    assert TrigPoly.from_json("1/2").to_json() == {"const": "1/2", "cos": [], "sin": []}


def test_trig_poly_real_spectrum_symmetry():
    p = TrigPoly.from_json({"const": "1/2", "cos": ["0", "1/3"], "sin": ["1"]})
    c = p.exp_coeffs()
    deg = p.degree
    for eta in range(-deg, deg + 1):
        assert c[deg + eta] == pytest.approx(np.conj(c[deg - eta]))


def test_trig_poly_spectral_derivative_vs_finite_differences():
    # Degree-32 polynomial; 5-point central stencil at step 3e-4.
    rng = random.Random(7)
    cos = [str(Fraction(rng.randint(-3, 3), rng.randint(1, 5))) for _ in range(32)]
    sin = [str(Fraction(rng.randint(-3, 3), rng.randint(1, 5))) for _ in range(32)]
    p = TrigPoly.from_json({"const": "0", "cos": cos, "sin": sin})
    dp = p.derivative()
    h = 3e-4
    for t in (0.1, 1.3, 2.9, 5.0):
        fd = (-p(t + 2 * h) + 8 * p(t + h) - 8 * p(t - h) + p(t - 2 * h)) / (12 * h)
        assert abs(dp(t) - fd) <= 1e-7 * max(1.0, abs(dp(t)))


def test_trig_poly_translate_reflect_conventions():
    p = TrigPoly.from_json({"const": "1/2", "cos": ["0", "1/3"], "sin": ["1"]})
    t, tau = 0.7, 0.31
    assert p.translate(tau)(t) == pytest.approx(p(t - tau))
    assert p.reflect()(t) == pytest.approx(p(-t))


def test_trig_poly_antiderivatives():
    p = TrigPoly.from_json({"const": "1/2", "cos": ["0", "1/3"], "sin": ["1"]})
    B = p.antiderivative_periodic()
    assert B.mean() == 0
    t = 1.9
    assert B.derivative()(t) == pytest.approx(p(t) - float(p.mean()))
    P = p.primitive_from_zero()
    assert P(0.0) == pytest.approx(0.0)
    assert P.derivative()(t) == pytest.approx(p(t) - float(p.mean()))


@settings(max_examples=40, deadline=None)
@given(
    tau=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=6.28, allow_nan=False),
)
def test_trig_poly_periodicity_property(tau, t):
    p = TrigPoly.from_json({"const": "1/3", "cos": ["1/2"], "sin": ["0", "1/5"]})
    assert p(t + 2 * math.pi) == pytest.approx(p(t), abs=1e-9)
    assert p.translate(tau)(t) == pytest.approx(p(t - tau), abs=1e-9)


# ---------------------------------------------------------------------------
# Stretched-exponential decay fitting
# ---------------------------------------------------------------------------


def test_estimate_decay_exact_model():
    coeffs = {xi: math.exp(-2.0 * xi**0.5) for xi in range(16, 600)}
    w = estimate_decay(coeffs, 2.0)
    assert abs(w.epsilon - 2.0) <= 1e-6
    assert w.fit_r2 > 1 - 1e-9


def test_estimate_decay_algebraic_decay_is_not_gevrey():
    coeffs = {xi: xi**-0.5 for xi in range(64, 4097)}
    w = estimate_decay(coeffs, 2.0, xi_min=64, xi_max=4096)
    assert w.epsilon <= 1e-3


def test_estimate_decay_insufficient_data():
    with pytest.raises(InsufficientData):
        estimate_decay({7: 1.0}, 2.0)


def test_estimate_decay_witness_invariants():
    coeffs = {xi: 3.0 * math.exp(-1.5 * xi**0.5) for xi in range(16, 300)}
    w = estimate_decay(coeffs, 2.0)
    assert w.epsilon > 0 and w.C > 0
    assert w.fit_r2 <= 1.0


# ---------------------------------------------------------------------------
# Gevrey cutoffs
# ---------------------------------------------------------------------------


def test_shoulder_ramp():
    assert shoulder(-1.0, 2.0) == 0.0
    assert shoulder(0.0, 2.0) == 0.0
    assert shoulder(1.0, 2.0) == 1.0
    assert shoulder(2.0, 2.0) == 1.0
    xs = np.linspace(0.01, 0.99, 51)
    ys = [shoulder(x, 2.0) for x in xs]
    assert all(0.0 <= y <= 1.0 for y in ys)
    assert all(b >= a - 1e-15 for a, b in zip(ys, ys[1:]))  # monotone ramp


def test_make_cutoff_contract():
    phi = GevreyCutoff(2.0, (math.pi - 1, math.pi + 1), (math.pi - 0.5, math.pi + 0.5))
    assert phi(math.pi) == pytest.approx(1.0)
    assert phi(math.pi - 0.25) == pytest.approx(1.0)
    assert phi(math.pi - 1) == pytest.approx(0.0)
    assert phi(math.pi + 1.2) == 0.0
    assert phi(0.05) == 0.0
    ts = np.linspace(0, 2 * math.pi, 1024)
    vals = np.array([phi(t) for t in ts])
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # monotone shoulders
    left = np.array([phi(t) for t in np.linspace(math.pi - 1, math.pi - 0.5, 64)])
    assert np.all(np.diff(left) >= -1e-12)
    right = np.array([phi(t) for t in np.linspace(math.pi + 0.5, math.pi + 1, 64)])
    assert np.all(np.diff(right) <= 1e-12)


def test_make_cutoff_rejects_bad_geometry():
    """Checked before the bound is derived, and also for a bare cutoff."""
    for build in (make_cutoff, GevreyCutoff):
        with pytest.raises(GeometryError):
            build(2.0, (1.0, 2.0), (0.5, 1.5))  # plateau not inside
        with pytest.raises(GeometryError):
            build(2.0, (-0.5, 2.0), (0.5, 1.0))  # support leaves (0, 2pi)


def test_make_cutoff_rejects_analytic_order():
    for build in (make_cutoff, GevreyCutoff):
        with pytest.raises(OrderError):
            build(1.0, (2.0, 4.0), (2.5, 3.5))


#: the cutoff geometry every singular fixture uses: support π ± 0.5, plateau π ± 0.25
_SUPPORT = (math.pi - 0.5, math.pi + 0.5)
_PLATEAU = (math.pi - 0.25, math.pi + 0.25)
@pytest.mark.parametrize("s", ["5/4", "3/2", "2", "5/2", "3", "5"])
def test_cutoff_bound_holds_at_every_frequency(s):
    """Both Fourier bounds of the derived row hold over the high-precision
    transform at every j in 1..4095: the closed form
    C_fourier*exp(-epsilon*|xi|^(1/s)), and the derivative route
    (r-l)*C/(2pi)*inf_k (k!)^s*(h/|xi|)^k.  The transform is a DFT of 8192
    samples, so its j-th coefficient is the sum of phi_hat over j + 8192*m;
    each bound therefore gets its own aliasing sum over j -/+ 8192*m,
    m = 1..63 (cutting the sum short only makes the check stricter)."""
    phi = make_cutoff(float(Fraction(s)), _SUPPORT, _PLATEAU)
    row = phi.bound
    hiprec = phi.fourier_magnitudes_hiprec()
    mags = np.array([hiprec[j] for j in range(1, 4096)])
    (l, r), n = phi.support, 8192
    ln_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 4096)))])

    def closed(xi):
        return row.C_fourier * np.exp(-row.epsilon * xi ** (1 / row.s))

    def derivative_route(xi):
        # (k!)^s*(h/xi)^k falls while k < y = (xi/h)^(1/s): its least term is at floor(y)
        y = (xi / row.h) ** (1 / row.s)
        k = np.floor(y)
        return (r - l) * row.C / (2 * math.pi) * np.exp(row.s * (ln_factorial[k.astype(int)] - k * np.log(y)))

    j = np.arange(1, 4096, dtype=float)
    for bound in (closed, derivative_route):
        total = bound(j) + sum(bound(m * n - j) + bound(m * n + j) for m in range(1, 64))
        assert np.all(mags <= total), (bound.__name__, int(np.argmax(mags / total)) + 1)


def _shoulder_taylor(x, p, order):
    """Taylor coefficients at x of the shoulder 1/(1 + e^g), g = x^-p - (1-x)^-p,
    by power-series arithmetic in mpmath."""
    g = [mpmath.binomial(-p, n) * (x ** (-p - n) - (-1) ** n * (1 - x) ** (-p - n)) for n in range(order + 1)]
    e = [mpmath.exp(g[0])]
    for n in range(1, order + 1):  # (e^g)' = g'*e^g
        e.append(mpmath.fsum(j * g[j] * e[n - j] for j in range(1, n + 1)) / n)
    d = [1 + e[0]] + e[1:]
    out = [1 / d[0]]
    for n in range(1, order + 1):
        out.append(-mpmath.fsum(d[j] * out[n - j] for j in range(1, n + 1)) / d[0])
    return out


@pytest.mark.parametrize("s", ["5/4", "3/2", "2", "5/2", "3", "5"])
def test_cutoff_derivative_bound_holds_on_the_shoulder(s):
    """sup|phi^(k)| <= C*h^k*(k!)^s against exact derivatives: on the left
    shoulder phi(t) = H((t-l)/w), so phi^(k) = H^(k)/w^k, with H^(k) from its
    Taylor coefficients at 16 points of (0, 1/2] (H(1-x) = 1 - H(x) gives the
    rest) for every k <= 16."""
    phi = make_cutoff(float(Fraction(s)), _SUPPORT, _PLATEAU)
    row, w = phi.bound, _PLATEAU[0] - _SUPPORT[0]
    with mpmath.workdps(30):
        p = 1 / (mpmath.mpf(Fraction(s).numerator) / Fraction(s).denominator - 1)
        for i in range(1, 17):
            coeffs = _shoulder_taylor(mpmath.mpf(i) / 32, p, 16)
            for k in range(1, 17):
                derivative = abs(coeffs[k]) * mpmath.factorial(k) / w**k
                assert derivative <= row.C * row.h**k * mpmath.factorial(k) ** row.s, (i, k)


def test_cutoff_bound_is_derived_for_every_order():
    """The row needs only floats: orders near 1 and far above it give a
    row (a vacuous one, h = inf, where no disc choice is admissible), not
    an overflow."""
    for s in (1.001, 1.01, 1.25, 2.0, 5.0, 100.0, 400.0):
        row = make_cutoff(s, _SUPPORT, _PLATEAU).bound
        assert row.s == s and row.C == 2 * math.e and row.h > 0 and row.C_fourier > 0
        assert row.epsilon == s * (1 - 1 / (2 * math.e)) * row.h ** (-1 / s)
    assert math.isfinite(make_cutoff(100.0, _SUPPORT, _PLATEAU).bound.h)
    assert GevreyCutoff(2.0, _SUPPORT, _PLATEAU).bound is None


def test_hiprec_magnitudes_match_direct_dft():
    """A direct mp DFT over the nonzero samples, at a few window frequencies."""
    n_grid = 8192
    phi = GevreyCutoff(2.0, _SUPPORT, _PLATEAU)
    mags = phi.fourier_magnitudes_hiprec()
    mp = mpmath.mp
    with mpmath.workdps(40):
        # every nonzero sample lies in the support, |t - pi| < 0.5
        near = [j for j in range(n_grid) if abs(2 * math.pi * j / n_grid - math.pi) < 0.51]
        values = [phi.value_mp(2 * mp.pi * j / n_grid, mp) for j in near]
        assert values[0] == values[-1] == 0 and 0 < len(near) < n_grid // 4
        for xi in (32, 57, 128, 333, 512, 1000, 1531, 2048):
            # Horner in z = e^{-2 pi i xi / n}; the dropped factor z^near[0]
            # has modulus 1
            z = mp.expjpi(mp.mpf(-2 * xi) / n_grid)
            coeff = mp.mpc(0)
            for value in reversed(values):
                coeff = coeff * z + value
            direct = float(abs(coeff) / n_grid)
            assert math.isclose(mags[xi], direct, rel_tol=1e-12), xi
