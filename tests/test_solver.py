"""Single-tube solves, mode-wise division, residuals, field serialization."""

from __future__ import annotations

import cmath
import io
import json
import math
import random
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest

from torus_hypo.errors import (
    CompatibilityError,
    GridMismatch,
    MalformedInput,
    ProfileError,
    SolvabilityError,
    ZeroDivisorError,
)
from torus_hypo.gevrey import estimate_decay
from torus_hypo.report import write_json
from torus_hypo.solver import (
    _XI_CHUNK,
    MIN_INTERNAL_MODES,
    FourierField,
    _band_lu_solve,
    _block_starts,
    _check_compatible,
    _mode_ceiling,
    _stacked_band_solve,
    _stacked_band_system,
    apply_tube_operator,
    decay_report,
    residual,
    solve_by_division,
    solve_single_tube,
    solve_system,
)
from torus_hypo.system import SystemSpec


def spec_from(n, tubes, s="2") -> SystemSpec:
    return SystemSpec.from_json({"n": n, "s": s, "tubes": tubes})


HALF_DAMPED = {"const": "-1/2", "cos": ["-1/2"]}  # b(t) = -(1+cos t)/2


def manufactured_pair(spec: SystemSpec, modes: dict, grid: int = 128):
    """Exact u from modes, f = L_1 u evaluated in closed form on the grid."""
    u = FourierField.from_modes(1, grid, modes)
    tube, a = spec.tubes[0], spec.tubes[0].a
    a0 = float(a.approx_fraction(30)) if hasattr(a, "approx_fraction") else float(a.mean())
    t = u.t_grid()
    b_vals = tube.b(t)
    f_vals = np.empty_like(u.data)
    for row, xi in enumerate(u.xi.tolist()):
        du = np.zeros(grid, dtype=complex)
        for (eta, mxi), c in modes.items():
            if mxi == xi:
                du += c * 1j * eta * np.exp(1j * eta * t)
        f_vals[row] = du + 1j * xi * (a0 + 1j * b_vals) * u.data[row]
    return u, FourierField(1, grid, u.xi, f_vals)


def coeffs_at(f: FourierField, xi: int) -> np.ndarray:
    """The stored coefficient block of ξ."""
    return f.coeffs()[f.xi.tolist().index(xi)]


# ---------------------------------------------------------------------------
# FourierField data model
# ---------------------------------------------------------------------------


def test_field_from_modes_exact_synthesis():
    f = FourierField.from_modes(1, 64, {(2, 3): 1.5 + 0.5j})
    t = f.t_grid()
    assert np.abs(f.take(3) - (1.5 + 0.5j) * np.exp(2j * t)).max() < 1e-14
    assert coeffs_at(f, 3)[2] == pytest.approx(1.5 + 0.5j)
    assert coeffs_at(f, 3)[1] == pytest.approx(0.0, abs=1e-15)


def test_field_json_round_trip():
    # Storage is spectral, so the round trip is exact up to FFT rounding.
    f = FourierField.from_modes(1, 32, {(1, 2): 1 - 1j, (0, 5): 0.25})
    back = FourierField.from_json_obj(f.to_json_obj())
    assert back.n == f.n and back.grid_size == f.grid_size
    assert back.xi.tolist() == f.xi.tolist()
    for xi in f.xi.tolist():
        assert np.abs(back.take(xi) - f.take(xi)).max() < 1e-13


def _json_text(f: FourierField) -> str:
    fh = io.StringIO()
    write_json(f.to_json_obj(), fh)
    return fh.getvalue()


def test_field_json_round_trip_is_stable():
    # A second pass through the format must be byte-identical: the spectral
    # coefficients themselves round-trip exactly through shortest round-trip float text.
    f = FourierField.from_modes(1, 32, {(1, 2): 1 - 1j, (0, 5): 0.25})
    once = FourierField.from_json_obj(json.loads(_json_text(f)))
    twice = FourierField.from_json_obj(json.loads(_json_text(once)))
    assert _json_text(once) == _json_text(twice)
    for xi in once.xi.tolist():
        assert np.array_equal(once.take(xi), twice.take(xi))


def test_field_binary_round_trip(tmp_path):
    f = FourierField.from_modes(2, 16, {((1, -2), 3): 0.5j, ((0, 0), -1): 2.0})
    back = FourierField.from_bytes(f.to_bytes())
    assert back.n == 2 and back.grid_size == 16
    for xi in f.xi.tolist():
        assert np.abs(back.take(xi) - f.take(xi)).max() < 1e-13
    path = tmp_path / "field.tff"
    f.save_binary(path)
    again = FourierField.load_binary(path)
    assert again.xi.tolist() == f.xi.tolist()
    # Stable from the first round trip on: bytes(load(bytes(f))) == bytes once
    # the grid values have been snapped to the stored spectral coefficients.
    assert again.to_bytes() == back.to_bytes()


def test_binary_load_holds_the_field_once(tmp_path):
    """load_binary reads the coefficient stack into one array and inverts it
    there: the traced peak stays under 1.3 times the 4 MB field, and the
    grid values are bit for bit those of an out-of-place inversion."""
    rng = np.random.default_rng(7)
    shape = (64, 64, 64)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    path = tmp_path / "field.tff"
    FourierField.from_coeffs(2, 64, np.arange(-32, 32), c).save_binary(path)
    del c
    tracemalloc.start()
    try:
        f = FourierField.load_binary(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * f.data.nbytes
    raw = path.read_bytes()
    stored = np.frombuffer(raw, dtype="<c16", offset=48 + 8 * 64).reshape(shape)
    want = FourierField.from_coeffs(2, 64, np.arange(-32, 32), stored)
    assert f.xi.tolist() == want.xi.tolist() and f.data.tobytes() == want.data.tobytes()


def test_field_binary_rejects_data_shorter_than_its_header_says():
    """A file cut inside the ξ list or a block, or a header whose block count
    is negative, is malformed input, not a numpy error or an empty field."""
    raw = FourierField.from_modes(1, 8, {(1, 2): 1.0, (0, 3): 2.0}).to_bytes()
    negative = raw[:40] + struct.pack("<q", -1) + raw[48:]
    for bad in (raw[:56], raw[:100], negative):
        with pytest.raises(MalformedInput, match="truncated"):
            FourierField.from_bytes(bad)
    # a file that shrinks between the size check and the read
    with pytest.raises(MalformedInput, match="truncated while it was read"):
        FourierField._read_binary(io.BytesIO(raw[:-16]), len(raw))


EPS = np.finfo(float).eps


def _stored_blocks(f: FourierField) -> tuple:
    """{ξ: coefficients} as the JSON form and as the binary form store them."""
    shape = (f.grid_size,) * f.n
    from_json = {
        b["xi"]: (np.asarray(b["re"]) + 1j * np.asarray(b["im"])).reshape(shape)
        for b in f.to_json_obj()["blocks"]
    }
    raw = f.to_bytes()
    pos = 48 + 8 * len(f.xi.tolist())
    size = f.grid_size**f.n
    from_bytes = {
        xi: np.frombuffer(raw, dtype="<c16", count=size, offset=pos + 16 * size * i).reshape(shape)
        for i, xi in enumerate(f.xi.tolist())
    }
    return from_json, from_bytes


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<c16").view("<u8")


@pytest.mark.parametrize("n, grid", [(1, 64), (2, 16), (3, 8)])
def test_coeffs_floor_zeroes_only_fft_rounding_noise(n, grid):
    """Coefficients spread over 24 decades: the stored ones are the FFT's
    bits, the zeroed ones are at most ε·max|c| of their block, and both
    serialized forms carry the same numbers.  The floor is each block's own:
    with one block's max|c| 10^20 below the others', a floor taken over the
    whole stack would zero that block."""
    rng = np.random.default_rng(n)
    shape = (grid,) * n
    values = np.empty((5,) + shape, dtype=complex)
    for row in range(5):
        scale = 10.0 ** rng.uniform(-24, 0, shape)
        c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        values[row] = np.fft.ifftn(c) * c.size
    spread = values.copy()
    spread[1] *= 1e-20
    for f in (FourierField(n, grid, range(-2, 3), values), FourierField(n, grid, range(-2, 3), spread)):
        zeroed = 0
        from_json, from_bytes = _stored_blocks(f)
        for xi in f.xi.tolist():
            raw = np.fft.fftn(f.take(xi)) / grid**n
            floor = EPS * np.abs(raw).max()
            got = coeffs_at(f, xi)
            kept = got != 0
            assert np.array_equal(_bits(got[kept]), _bits(raw[kept]))
            assert (np.abs(raw[~kept]) <= floor).all()
            assert (np.abs(raw[kept]) > floor).all()
            assert np.array_equal(_bits(from_json[xi]), _bits(got))
            assert np.array_equal(_bits(from_bytes[xi]), _bits(got))
            zeroed += int((~kept).sum())
        assert zeroed > 0


@pytest.mark.parametrize("entries", [1, 3 * 64, 1 << 16])
def test_chunked_serialized_forms_equal_the_whole_field_transform(entries, tmp_path, monkeypatch):
    """save_binary, to_bytes, to_json_obj and magnitudes take the field a
    chunk of rows at a time (one row, three rows and all seven here).  Each
    block is transformed and floored on its own, so the bytes are those of
    the whole-field transform and the magnitudes those of the whole stack."""
    rng = np.random.default_rng(31)
    data = rng.standard_normal((7, 8, 8)) + 1j * rng.standard_normal((7, 8, 8))
    data[2] = 0.0  # an all-zero block
    f = FourierField(2, 8, np.arange(-3, 4), data)
    whole = f.coeffs()  # every row in one transform
    head = f.to_bytes()[: 48 + 8 * 7]
    want_magnitudes = dict(zip(range(-3, 4), np.abs(data).max(axis=(1, 2)).tolist()))
    monkeypatch.setattr("torus_hypo.solver._CHUNK_ENTRIES", entries)
    f.save_binary(tmp_path / "f.tff")
    assert (tmp_path / "f.tff").read_bytes() == f.to_bytes() == head + _bits(whole).tobytes()
    blocks = list(f.to_json_obj()["blocks"])
    assert [b["xi"] for b in blocks] == list(range(-3, 4))
    for block, c in zip(blocks, whole.reshape(7, -1)):
        assert block["re"].tobytes() == c.real.tobytes() and block["im"].tobytes() == c.imag.tobytes()
    assert f.magnitudes() == want_magnitudes


def test_all_zero_and_exact_single_mode_blocks_round_trip_exactly():
    """A zero block stays zero; a mode with η_i ∈ {0, ±N/4} has exact samples
    (powers of i), so it is stored as the one coefficient it was built from
    and reloads to the same grid values through either form."""
    zero = FourierField(2, 8, [4], np.zeros((1, 8, 8)))
    single = FourierField.from_modes(3, 8, {((2, 0, -2), -1): 0.3 - 1.7j})
    want = np.zeros((8, 8, 8), dtype=complex)
    want[2, 0, 6] = 0.3 - 1.7j
    assert np.array_equal(_bits(coeffs_at(single, -1)), _bits(want))
    assert np.array_equal(_bits(coeffs_at(zero, 4)), _bits(np.zeros((8, 8))))
    for f in (zero, single):
        for back in (FourierField.from_json_obj(f.to_json_obj()), FourierField.from_bytes(f.to_bytes())):
            assert back.xi.tolist() == f.xi.tolist()
            for xi in f.xi.tolist():
                assert np.array_equal(back.take(xi), f.take(xi))
            assert back.to_bytes() == f.to_bytes()


def test_field_spectral_derivatives():
    f = FourierField.from_modes(1, 64, {(3, 2): 1.0})
    t = f.t_grid()
    dt = f.t_derivative(0)
    assert np.abs(dt.take(2) - 3j * np.exp(3j * t)).max() < 1e-12


def test_field_layout_guards():
    a = FourierField.from_modes(1, 32, {(0, 1): 1.0})
    b = FourierField.from_modes(1, 64, {(0, 1): 1.0})
    with pytest.raises(GridMismatch):
        a.require_same_frequencies(b)
    c = FourierField.from_modes(1, 32, {(0, 2): 1.0})
    with pytest.raises(GridMismatch):
        a.require_same_frequencies(c)
    # a missing block is named by the smallest absent xi
    with pytest.raises(GridMismatch, match=r"xi=4$"):
        FourierField.from_modes(1, 32, {(0, 1): 1.0, (0, 2): 1.0}).take([5, 4, 2])


# ---------------------------------------------------------------------------
# Single-tube solves
# ---------------------------------------------------------------------------


def test_solve_constant_coefficients_identity():
    spec = spec_from(1, [{"a": "0", "b": "-1"}])
    f = FourierField.from_modes(1, 64, {(0, 1): 1.0})  # e^{ix}
    u = solve_single_tube(1, spec, f)
    assert np.abs(u.take(1) - 1.0).max() < 1e-12  # u = e^{ix}


def test_solve_constant_coefficients_manufactured():
    spec = spec_from(1, [{"a": "1", "b": "-1"}])
    f = FourierField.from_modes(1, 64, {(1, 1): 1 + 2j})
    u = solve_single_tube(1, spec, f)
    t = u.t_grid()
    assert np.abs(u.take(1) - np.exp(1j * t)).max() < 1e-12


def test_solve_manufactured_trig_tube():
    spec = spec_from(1, [{"a": "0", "b": HALF_DAMPED}])
    u_true, f = manufactured_pair(spec, {(2, 3): 1.0})
    u = solve_single_tube(1, spec, f)
    assert np.abs(u.take(3) - u_true.take(3)).max() <= 1e-8
    assert residual(spec, u, [f])[0] <= 1e-8


def test_solve_mirror_profile_and_negative_frequencies():
    spec = spec_from(1, [{"a": "1/3", "b": {"const": "1/2", "cos": ["1/2"]}}])
    u_true, f = manufactured_pair(spec, {(1, -2): 0.7 - 0.2j, (-3, 4): 1.1j})
    u = solve_single_tube(1, spec, f)
    for xi in (-2, 4):
        assert np.abs(u.take(xi) - u_true.take(xi)).max() <= 1e-8, xi
    assert max(residual(spec, u, [f])) <= 1e-8


def test_solve_zero_frequency_antidifferentiation():
    spec = spec_from(1, [{"a": "0", "b": HALF_DAMPED}])
    f = FourierField.from_modes(1, 64, {(1, 0): 1.0})  # zero t-mean
    u = solve_single_tube(1, spec, f)
    t = u.t_grid()
    want = np.exp(1j * t) / 1j  # primitive with zero mean
    assert np.abs(u.take(0) - want).max() < 1e-12


def test_solve_zero_frequency_mean_obstruction():
    spec = spec_from(1, [{"a": "0", "b": HALF_DAMPED}])
    f = FourierField.from_modes(1, 64, {(0, 0): 1.0})
    with pytest.raises(SolvabilityError):
        solve_single_tube(1, spec, f)


def test_solve_rejects_sign_changing_profile():
    spec = spec_from(1, [{"a": "0", "b": {"sin": ["1"]}}])
    f = FourierField.from_modes(1, 64, {(0, 1): 1.0})
    with pytest.raises(ProfileError):
        solve_single_tube(1, spec, f)


def test_solve_linearity():
    spec = spec_from(1, [{"a": "0", "b": HALF_DAMPED}])
    _, f = manufactured_pair(spec, {(2, 3): 1.0})
    _, g = manufactured_pair(spec, {(-1, 3): 0.5 + 0.25j})
    al, be = 0.7 - 0.1j, -1.3 + 2j
    combo = FourierField(1, 128, [3], [al * f.take(3) + be * g.take(3)])
    lhs = solve_single_tube(1, spec, combo).take(3)
    rhs = al * solve_single_tube(1, spec, f).take(3) + be * solve_single_tube(1, spec, g).take(3)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_solve_matches_direct_quadrature_of_integral_formula():
    # Dual route: the mode-space solve must agree with high-precision
    # quadrature of  u(t,xi) = prefactor(xi) * int_0^{2pi} e^{-i xi H(t,tau)}
    # f(t-tau, xi) dtau  at sample points, where for b = -(1 + cos)/2
    # H(t,tau) = tau/2 + i int_{t-tau}^{t} b = tau/2 - i(tau + sin t - sin(t-tau))/2
    # and prefactor(xi) = 1/(1 - e^{-i 2 pi xi c0}) with c0 = (1 - i)/2.
    spec = spec_from(1, [{"a": "1/2", "b": HALF_DAMPED}])
    xi = 3

    def H(t: float, tau: float) -> complex:
        return tau / 2 - 0.5j * (tau + math.sin(t) - math.sin(t - tau))

    def f_hat(t: float) -> complex:
        b = -(1 + math.cos(t)) / 2
        return (2j + xi * 1j * (0.5 + 1j * b)) * cmath.exp(2j * t)

    tg = 2 * np.pi * np.arange(128) / 128
    f = FourierField(1, 128, [xi], [[f_hat(float(t)) for t in tg]])
    u = solve_single_tube(1, spec, f)
    pref = 1 / (1 - cmath.exp(-2j * math.pi * xi * (0.5 - 0.5j)))
    for idx in (0, 17, 63, 100):
        t0 = float(tg[idx])
        quad = mpmath.quad(
            lambda tau: cmath.exp(-1j * xi * H(t0, float(tau))) * f_hat(t0 - float(tau)),
            [0, 2 * math.pi],
        )
        assert abs(u.take(xi)[idx] - pref * complex(quad)) <= 1e-10


def test_solve_round_trip_stress():
    rng = random.Random(99)
    spec = spec_from(1, [{"a": "1/3", "b": HALF_DAMPED}])
    modes = {}
    for _ in range(6):
        xi = rng.choice([x for x in range(-16, 17) if x])
        eta = rng.randint(-8, 8)
        modes[(eta, xi)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    u_true, f = manufactured_pair(spec, modes)
    u = solve_single_tube(1, spec, f)
    for xi in u_true.xi.tolist():
        assert np.abs(u.take(xi) - u_true.take(xi)).max() <= 1e-7


# ---------------------------------------------------------------------------
# Stacked banded solves and mode counts chosen a posteriori
# ---------------------------------------------------------------------------

TOUCHING = {"const": "3/2", "cos": ["-2", "1/2"]}  # b(t) = (1 - cos t)^2 >= 0, b(0) = 0


def _random_field(xis, grid: int = 64, seed: int = 7) -> FourierField:
    """Random data band-limited to |η| < grid/2 and decaying in η."""
    rng = np.random.default_rng(seed)
    eta = np.fft.fftfreq(grid, 1.0 / grid)
    values = np.empty((len(xis), grid), dtype=complex)
    for row in range(len(xis)):
        c = rng.standard_normal(grid) + 1j * rng.standard_normal(grid)
        c *= np.exp(-0.3 * np.abs(eta)) * (np.abs(eta) < grid // 2)
        values[row] = np.fft.ifft(c) * grid
    return FourierField(1, grid, xis, values)


def _rhs_hat(f: FourierField, xis) -> np.ndarray:
    """The stacked (ξ, mode, column) coefficients the banded solve takes."""
    return np.stack([np.fft.fft(f.take(xi))[:, None] / f.grid_size for xi in xis])


@pytest.mark.parametrize("b", [{"const": "1", "cos": ["1/2"]}, TOUCHING])
def test_stacked_band_solve_equals_single_solves_bit_for_bit(b):
    """The couplings between blocks are exact zeros, so pivoting stays in
    each block: every block of one stacked LU has the bits of its ξ solved
    alone, at any mode count (deg b = 1 takes LAPACK's tridiagonal solver,
    deg b = 2 the general banded one)."""
    spec = spec_from(1, [{"a": "1/3", "b": b}])
    b_exp = spec.tubes[0].b.exp_coeffs()
    xis = np.array([-700, -5, -1, 1, 2, 37, 1000])
    halves = np.array([40, 37, 100, 37, 64, 35, 513])
    rhs_hat = np.concatenate([_rhs_hat(_random_field(xis, seed=s), xis) for s in (1, 2)], axis=2)
    stacked = _stacked_band_solve(xis, halves, 1 / 3, b_exp, rhs_hat)
    starts = _block_starts(halves)
    assert stacked.shape == (int((2 * halves + 1).sum()), 2)
    for k in range(xis.size):
        alone = _stacked_band_solve(xis[k : k + 1], halves[k : k + 1], 1 / 3, b_exp, rhs_hat[k : k + 1])
        block = stacked[starts[k] : starts[k] + 2 * halves[k] + 1]
        assert np.array_equal(_bits(block), _bits(alone)), xis[k]


@pytest.mark.parametrize(
    "b",
    [
        "-1",
        {"const": "1", "cos": ["1/2"]},
        TOUCHING,
        {"const": "-2", "cos": ["1/2", "0"], "sin": ["0", "1/4", "1/8"]},
    ],
    ids=["d0", "d1", "d2", "d3"],
)
def test_stacked_band_solve_matches_scipy_solve_banded_bit_for_bit(b):
    """The LAPACK call through scipy's binding gives the bits of
    ``scipy.linalg.solve_banded`` on the same band (``zgtsv`` for d = 1,
    ``zgbsv`` for every other d, d = 0 included)."""
    from scipy.linalg import solve_banded

    spec = spec_from(1, [{"a": "1/3", "b": b}])
    b_exp = spec.tubes[0].b.exp_coeffs()
    d = (b_exp.size - 1) // 2
    assert d == spec.tubes[0].b.degree
    xis = np.array([-700, -5, -1, 1, 2, 37, 1000])
    halves = np.array([40, 37, 100, 37, 64, 35, 513])
    rhs_hat = np.concatenate([_rhs_hat(_random_field(xis, seed=s), xis) for s in (3, 4, 5)], axis=2)
    ab, rhs = _stacked_band_system(xis, halves, 1 / 3, b_exp, rhs_hat)
    want = solve_banded((d, d), ab, rhs, overwrite_ab=True, overwrite_b=True)
    got = _stacked_band_solve(xis, halves, 1 / 3, b_exp, rhs_hat)
    assert got.shape == want.shape == (int((2 * halves + 1).sum()), 3)
    assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("d", [0, 1])
def test_band_solve_refuses_singular_and_non_finite_bands(d):
    """b ≡ 0 and a0 = 0 leave the mode-0 row of every block zero: LAPACK
    reports it (``zgbsv`` for d = 0, ``zgtsv`` for d = 1).  A NaN in the
    right-hand side or an infinite band entry is refused before LAPACK runs."""
    xis, halves = np.array([1, 2]), np.array([10, 10])
    rhs_hat = _rhs_hat(_random_field(xis, grid=16), xis)
    zero_b = np.zeros(2 * d + 1, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _stacked_band_solve(xis, halves, 0.0, zero_b, rhs_hat)

    b_exp = np.ones(2 * d + 1, dtype=complex)
    bad = rhs_hat.copy()
    bad[1, 3, 0] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        _stacked_band_solve(xis, halves, 0.0, b_exp, bad)
    ab, rhs = _stacked_band_system(xis, halves, 0.0, b_exp, rhs_hat)
    ab[d, 5] = math.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        _band_lu_solve(ab, rhs)


def test_adaptive_modes_match_the_ceiling_where_b_touches_zero():
    """b = (1 − cos t)² vanishes at t = 0, where the damping that keeps û
    narrow in t-modes is weakest.  Up to |ξ| = 1024 every ξ still passes the
    edge test below the ceiling K = max(1024, 4|ξ|), and u agrees with the
    solve at the ceiling.  Scaled by 4096, b spreads û past the ceiling at
    four ξ, and the report counts them."""
    xis = sorted({sign * round(2 ** (k / 2)) for k in range(21) for sign in (1, -1)})
    assert xis[0] == -1024 and xis[-1] == 1024
    f = _random_field(xis)
    u = solve_single_tube(1, spec_from(1, [{"a": "1/2", "b": TOUCHING}]), f)
    assert u.meta["internal_modes_capped"] == 0
    assert 64 < u.meta["internal_modes_max"] < MIN_INTERNAL_MODES

    b_exp = spec_from(1, [{"a": "1/2", "b": TOUCHING}]).tubes[0].b.exp_coeffs()
    xi_arr = np.array(xis)
    ceiling = _mode_ceiling(xi_arr, 64, 2)
    sol = _stacked_band_solve(xi_arr, ceiling, 1 / 2, b_exp, _rhs_hat(f, xis))
    eta = np.fft.fftfreq(64, 1 / 64).astype(int)
    at_ceiling = np.fft.ifft(sol[(_block_starts(ceiling) + ceiling)[:, None] + eta, 0] * 64, axis=1)
    scale = u.max_abs()
    for k, xi in enumerate(xis):
        assert np.abs(u.take(xi) - at_ceiling[k]).max() <= 1e-14 * scale, xi

    steep = {"const": "6144", "cos": ["-8192", "2048"]}
    wide = solve_single_tube(1, spec_from(1, [{"a": "1/2", "b": steep}]), f)
    assert wide.meta["internal_modes_capped"] == 4


@pytest.mark.parametrize("b", [{"const": "1", "cos": ["1/2"]}, "-1"])
def test_one_signed_b_resolves_every_xi_below_the_ceiling(b):
    """For b bounded away from zero no ξ with |ξ| ≤ 256 needs the ceiling
    K = 1024.  Constant b (d = 0) makes the system diagonal: the first pass,
    K = N + 2, is exact and has no edge modes to test."""
    xis = [xi for xi in range(-256, 257) if xi]
    f = _random_field(xis)
    spec = spec_from(1, [{"a": "1/3", "b": b}])
    u = solve_single_tube(1, spec, f)
    assert u.meta["internal_modes_capped"] == 0
    assert u.meta["internal_modes_max"] < MIN_INTERNAL_MODES
    if b == "-1":
        assert u.meta["internal_modes_max"] == 64 + 2
        eta = np.fft.fftfreq(64, 1 / 64)
        xi = f.xi[:, None]
        want = f.coeffs() / (1j * (eta + xi / 3) + xi)
        assert (np.abs(u.coeffs() - want).max(axis=1) <= 1e-15 * np.abs(want).max(axis=1)).all()


def _two_tube_spec() -> SystemSpec:
    """Tube 1 one-signed (a = 1/2, b = 1 + cos t), tube 2 real (a = 1/3)."""
    return spec_from(2, [
        {"a": "1/2", "b": {"const": "1", "cos": ["1"]}},
        {"a": "1/3", "b": "0"},
    ])


def test_single_tube_route_reports_every_tube_residual():
    """One field per tube, f_j = L_j u for a band-limited u with no ξ = 0
    block: the solve along tube 1 recovers u, and every tube's row is at
    rounding level.  With one field only the solved tube's row is reported."""
    spec = _two_tube_spec()
    u_true = FourierField.from_modes(
        2, 64, {((1, 0), 1): 1.0, ((0, 1), 2): 1.0, ((-3, 2), -1): 0.5j, ((2, -1), 3): 0.25}
    )
    f = [apply_tube_operator(spec, j, u_true) for j in (1, 2)]
    u, summary = solve_system(spec, f)
    rows = {row["tube"]: row["max_abs"] for row in summary["residual"]}
    assert summary["route"] == "single-tube" and summary["tube"] == 1
    assert set(rows) == {1, 2}
    assert max(rows.values()) <= 1e-12
    assert (u - u_true).max_abs() <= 1e-12
    _, single = solve_system(spec, f[:1])
    assert [row["tube"] for row in single["residual"]] == [1]
    assert single["residual"][0]["max_abs"] == rows[1]


def test_single_tube_route_refuses_incompatible_fields():
    """Equal fields for both tubes break L_1 f_2 = L_2 f_1: the solve is
    refused before anything is solved, with the compatibility exit code."""
    f = FourierField.from_modes(2, 64, {((1, 0), 1): 1.0, ((0, 1), 2): 1.0})
    with pytest.raises(CompatibilityError, match="tubes 1 and 2") as info:
        solve_system(_two_tube_spec(), [f, f])
    assert info.value.exit_code == 31


# ---------------------------------------------------------------------------
# Division solver
# ---------------------------------------------------------------------------


def test_division_closed_form():
    spec = spec_from(1, [{"a": {"cf": "constant:2"}, "b": "0"}])
    f = FourierField.from_modes(1, 64, {(1, -2): 1.0})
    u = solve_by_division(spec, [f])
    # -i / ((-2)(sqrt2 - 1) + 1) = -i (3 + 2 sqrt 2)
    want = -1j * (3 + 2 * math.sqrt(2))
    assert coeffs_at(u, -2)[1] == pytest.approx(want, abs=1e-12)


def test_division_zero_input_zero_output():
    spec = spec_from(1, [{"a": {"cf": "constant:2"}, "b": "0"}])
    u = solve_by_division(spec, [FourierField(n=1, grid_size=64)])
    assert u.xi.tolist() == [] and u.max_abs() == 0.0


def test_division_rational_resonance():
    """Two exact resonances of a = 1/2: the error names the lower ξ."""
    spec = spec_from(1, [{"a": "1/2", "b": "0"}])
    f = FourierField.from_modes(1, 64, {(-1, 2): 1.0, (-2, 4): 1.0})
    with pytest.raises(ZeroDivisorError, match=r"\(\(-1,\), 2\)"):
        solve_by_division(spec, [f])


def test_division_tiny_float_average_is_not_a_resonance():
    """a = 1e-70 is the dyadic rational it holds, not 0: the divisor at
    (η, ξ) = (0, 1) is 1e-70, and u is recovered.  The two modes sit in
    different ξ rows, whose f have sizes 1e-70 and 2, so each row of the
    float grid holds its mode exactly."""
    spec = spec_from(1, [{"a": 1e-70, "b": "0"}])
    modes = {(0, 1): 1.0 - 0.5j, (2, 2): 1.0}
    u_true = FourierField.from_modes(1, 8, modes)
    f = FourierField.from_modes(
        1, 8, {(eta, xi): 1j * (eta + xi * 1e-70) * c for (eta, xi), c in modes.items()}
    )
    u, summary = solve_system(spec, [f])
    assert summary["route"] == "division"
    assert (u - u_true).max_abs() <= 1e-12


def test_division_refuses_a_tube_that_is_not_real():
    spec = spec_from(2, [
        {"a": {"cf": "constant:2"}, "b": "0"},
        {"a": "1/3", "b": {"const": "1", "cos": ["1"]}},
    ])
    f = FourierField.from_modes(2, 16, {((1, 0), 2): 1.0})
    with pytest.raises(MalformedInput, match="tube 2 is not identically real"):
        solve_by_division(spec, [f, f])


def test_division_chunks_equal_single_solves_bit_for_bit():
    """Every row of a solve over several chunks has the bits of its ξ solved
    alone."""
    spec = spec_from(2, [
        {"a": {"cf": "constant:2"}, "b": "0"},
        {"a": {"cf": "constant:6"}, "b": "0"},
    ])
    xis = np.arange(2 * _XI_CHUNK + 5) - _XI_CHUNK - 3  # ξ = 0 inside the second chunk
    rng = np.random.default_rng(3)
    shape = (xis.size, 8, 8)
    f = [
        FourierField(2, 8, xis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(2)
    ]
    u = solve_by_division(spec, f)
    for k, xi in enumerate(xis.tolist()):
        alone = solve_by_division(spec, [FourierField(2, 8, [xi], g.data[k : k + 1]) for g in f])
        assert np.array_equal(_bits(u.data[k]), _bits(alone.data[0])), xi


def test_division_compatibility_guard():
    """Equal fields for two real tubes break L_1 f_2 = L_2 f_1: solve_system
    refuses them with the compatibility exit code."""
    spec = spec_from(2, [
        {"a": {"cf": "constant:2"}, "b": "0"},
        {"a": {"cf": "constant:6"}, "b": "0"},
    ])
    f1 = FourierField.from_modes(2, 32, {((1, 0), 2): 1.0})
    f2 = FourierField.from_modes(2, 32, {((1, 0), 2): 1.0})  # inconsistent pair
    with pytest.raises(CompatibilityError, match="tubes 1 and 2") as info:
        solve_system(spec, [f1, f2])
    assert info.value.exit_code == 31


def test_compatibility_check_reaches_the_last_chunk():
    """The check runs ``_XI_CHUNK`` rows at a time: a pair whose only
    inconsistency is the last of 2·_XI_CHUNK + 5 rows is still refused, the
    same pair unperturbed passes, and fields on different ξ sets are refused
    before any chunk."""
    spec = spec_from(2, [
        {"a": {"cf": "constant:2"}, "b": "0"},
        {"a": {"cf": "constant:6"}, "b": "0"},
    ])
    xis = np.arange(2 * _XI_CHUNK + 5) - _XI_CHUNK
    rng = np.random.default_rng(5)
    shape = (xis.size, 8, 8)
    u = FourierField(2, 8, xis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = [apply_tube_operator(spec, j, u) for j in (1, 2)]
    _check_compatible(spec, f)
    f[1].data[-1] *= 1 + 1e-6
    with pytest.raises(CompatibilityError, match="tubes 1 and 2") as info:
        _check_compatible(spec, f)
    assert info.value.exit_code == 31
    with pytest.raises(GridMismatch, match="different xi"):
        _check_compatible(spec, [f[0], FourierField(2, 8, xis + 1, f[1].data)])


def test_division_three_real_tubes():
    """n = 3, f_j = i(η_j + ξα_j)u for a u without a (0, 0) mode: the
    division route recovers u; a perturbed f_3 is refused naming a pair."""
    spec = spec_from(3, [{"a": {"cf": f"constant:{k}"}, "b": "0"} for k in (2, 3, 5)])
    alphas = [float(tube.a.approx_fraction(30)) for tube in spec.tubes]
    modes = {
        ((1, -2, 0), 3): 0.8 - 0.3j,
        ((0, 0, 0), -1): 0.5,
        ((-3, 1, 2), -1): 0.25j,
        ((2, 0, -1), 0): 1.0,
        ((0, 1, 1), 5): -0.4,
    }
    u_true = FourierField.from_modes(3, 16, modes)
    f = [
        FourierField.from_modes(
            3, 16, {(eta, xi): 1j * (eta[j] + xi * alphas[j]) * c for (eta, xi), c in modes.items()}
        )
        for j in range(3)
    ]
    u, summary = solve_system(spec, f)
    assert summary["route"] == "division"
    assert (u - u_true).max_abs() <= 1e-12
    assert max(row["max_abs"] for row in summary["residual"]) <= 1e-12
    f[2] = FourierField(3, 16, f[2].xi, f[2].data * (1 + 1e-6))
    with pytest.raises(CompatibilityError, match="tubes 1 and 3") as info:
        solve_system(spec, f)
    assert info.value.exit_code == 31


def test_division_consistent_two_tube_system():
    # Manufacture f_j = L_j u for u with a single (eta, xi) mode; the division
    # solver must reproduce u.
    spec = spec_from(2, [
        {"a": {"cf": "constant:2"}, "b": "0"},
        {"a": {"cf": "constant:6"}, "b": "0"},
    ])
    alpha = math.sqrt(2) - 1
    beta = math.sqrt(10) - 3
    eta, xi = (1, -2), 3
    c = 0.8 - 0.3j
    f1 = FourierField.from_modes(2, 32, {(eta, xi): 1j * (eta[0] + xi * alpha) * c})
    f2 = FourierField.from_modes(2, 32, {(eta, xi): 1j * (eta[1] + xi * beta) * c})
    u = solve_by_division(spec, [f1, f2])
    assert coeffs_at(u, xi)[eta] == pytest.approx(c, rel=1e-9)
    assert u.meta["zero_mode_normalized"]


def test_division_decay_preservation():
    # Gevrey-decaying data stays Gevrey after division by the small divisors
    # of the factorial continued fraction (numeric shadow of the a-priori
    # estimate): fitted rate of u at least half the rate of f, minus slack.
    spec = spec_from(1, [{"a": {"cf": "factorial_pow10"}, "b": "0"}], s="2")
    alpha = float(spec.tubes[0].a.approx_fraction(60))
    modes = {}
    for xi in range(16, 1025):
        eta = -round(alpha * xi)  # most resonant integer pairing
        modes[(eta, xi)] = math.exp(-2.0 * xi**0.5)
    f = FourierField.from_modes(1, 256, modes)
    u = solve_by_division(spec, [f])
    eps_f = estimate_decay({xi: math.exp(-2.0 * xi**0.5) for xi in range(16, 1025)}, 2.0).epsilon
    w_u = decay_report(u, 2.0, xi_min=16, xi_max=1024)
    assert w_u.epsilon >= eps_f / 2 - 0.05


# ---------------------------------------------------------------------------
# Residual diagnostics
# ---------------------------------------------------------------------------


def test_residual_zero_pair():
    spec = spec_from(1, [{"a": "0", "b": "-1"}])
    z = FourierField(n=1, grid_size=32)
    assert residual(spec, z, [z]) == [0.0]


def test_residual_scales_linearly_with_mode_perturbation():
    spec = spec_from(1, [{"a": "1/3", "b": "-1"}])
    eta, xi = 2, 5
    c0 = 1 / 3 - 1j
    for delta in (1e-3, 1e-6):
        u = FourierField.from_modes(1, 64, {(eta, xi): delta})
        zero = FourierField.from_modes(1, 64, {(0, xi): 0.0})
        got = residual(spec, u, [zero])[0]
        want = abs(1j * (eta + xi * c0)) * delta
        assert got == pytest.approx(want, rel=1e-9)


def test_residual_propagates_a_nan_row():
    """A NaN in the last chunk of u reads NaN in the residual, where the
    running max(0.0, nan) of the earlier rows would read 0.0."""
    spec = spec_from(1, [{"a": "1/3", "b": "-1"}])
    u = FourierField(1, 8, range(_XI_CHUNK + 1))
    u.data[-1, 3] = np.nan
    assert math.isnan(residual(spec, u, [FourierField(1, 8, range(_XI_CHUNK + 1))])[0])


def test_decay_report_delegates_to_fit():
    modes = {(0, xi): math.exp(-1.5 * xi**0.5) for xi in range(8, 200)}
    f = FourierField.from_modes(1, 32, modes)
    w = decay_report(f, 2.0)
    assert w.epsilon == pytest.approx(1.5, abs=1e-6)
