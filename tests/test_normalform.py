"""Gauge transform: primitives and conjugation defect."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from torus_hypo import cli
from torus_hypo import normalform as NF
from torus_hypo.gevrey import TrigPoly
from torus_hypo.solver import FourierField, apply_tube_operator
from torus_hypo.system import SystemSpec

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def spec_from(n, tubes, s="2") -> SystemSpec:
    return SystemSpec.from_json({"n": n, "s": s, "tubes": tubes})


def random_field(n: int, grid: int, degree: int, xi_values, seed: int) -> FourierField:
    rng = random.Random(seed)
    modes = {}
    for xi in xi_values:
        for _ in range(4):
            if n == 1:
                eta = rng.randint(-degree, degree)
            else:
                eta = tuple(rng.randint(-degree, degree) for _ in range(n))
            modes[(eta, xi)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FourierField.from_modes(n, grid, modes)


# ---------------------------------------------------------------------------
# Normal-form construction
# ---------------------------------------------------------------------------


def test_build_normal_form_cosine():
    spec = spec_from(1, [{"a": {"cos": ["1"]}, "b": {"const": "-1"}}])
    nf = NF.build_normal_form(spec)
    # primitive of cos is sin; average is 0
    assert nf.A[0].to_json() == {"const": "0", "cos": ["0"], "sin": ["1"]}
    assert nf.normalized.tubes[0].a.fraction == 0


def test_build_normal_form_constant_is_trivial():
    spec = spec_from(1, [{"a": "1/2", "b": {"const": "-1"}}])
    nf = NF.build_normal_form(spec)
    assert nf.is_trivial()
    assert nf.A[0].is_zero


def test_build_normal_form_shifted_cosine():
    spec = spec_from(1, [{"a": {"const": "1/2", "cos": ["0", "1"]}, "b": {"const": "-1"}}])
    nf = NF.build_normal_form(spec)
    assert nf.A[0].to_json() == {"const": "0", "cos": ["0", "0"], "sin": ["0", "1/2"]}
    assert nf.normalized.tubes[0].a.fraction == pytest.approx(0.5)


def test_build_normal_form_idempotent():
    spec = spec_from(2, [
        {"a": {"const": "1/3", "cos": ["1", "1/2"]}, "b": {"sin": ["1"]}},
        {"a": {"sin": ["2"]}, "b": "0"},
    ])
    nf = NF.build_normal_form(spec)
    again = NF.build_normal_form(nf.normalized)
    assert again.is_trivial()
    assert all(p.is_zero for p in again.A)


def test_normal_form_primitive_identity():
    # A_j' = a_j - a_{j0} pointwise for each variable.
    spec = spec_from(2, [
        {"a": {"const": "1/3", "cos": ["1", "1/2"], "sin": ["0", "2"]}, "b": {"sin": ["1"]}},
        {"a": {"sin": ["2"]}, "b": "0"},
    ])
    nf = NF.build_normal_form(spec)
    ts = np.linspace(0, 2 * math.pi, 97)
    for j, tube in enumerate(spec.tubes):
        a = tube.a
        mean = float(a.mean())
        dA = nf.A[j].derivative()
        for t in ts:
            assert dA(t) == pytest.approx(a(t) - mean, abs=1e-12)
        assert abs(nf.A[j](0.0) - nf.A[j](2 * math.pi)) < 1e-12  # periodic


def test_normal_form_json_round_trip():
    spec = spec_from(1, [{"a": {"cos": ["1"]}, "b": {"const": "-1"}}])
    nf = NF.build_normal_form(spec)
    back = SystemSpec.from_json(nf.normalized.to_json())
    assert back.to_json() == nf.normalized.to_json()


# ---------------------------------------------------------------------------
# Gauge application
# ---------------------------------------------------------------------------


def test_apply_gauge_identity_for_zero_A():
    f = random_field(1, 64, 8, [1, 2, 5], seed=3)
    g = NF.apply_gauge(f, [TrigPoly()], "forward")
    for xi in f.xi.tolist():
        assert np.allclose(g.take(xi), f.take(xi), atol=0, rtol=0)


def test_apply_gauge_round_trip():
    A = [TrigPoly.from_json({"sin": ["1"], "cos": ["0", "1/3"]})]
    f = random_field(1, 128, 8, [1, 3, 9, 16], seed=11)
    back = NF.apply_gauge(NF.apply_gauge(f, A, "forward"), A, "inverse")
    for xi in f.xi.tolist():
        num = np.abs(back.take(xi) - f.take(xi)).max()
        assert num <= 1e-13 * max(1.0, np.abs(f.take(xi)).max())


def test_apply_gauge_pointwise_formula():
    A = [TrigPoly.from_json({"sin": ["1"]})]
    f = FourierField.from_modes(1, 64, {(0, 1): 1.0})
    g = NF.apply_gauge(f, A, "forward")
    t = f.t_grid()
    assert np.abs(g.take(1) - np.exp(1j * np.sin(t))).max() == 0.0


def test_apply_gauge_preserves_magnitudes():
    A = [TrigPoly.from_json({"sin": ["1"], "cos": ["1/2"]})]
    f = random_field(1, 128, 8, [1, 2, 7, 33], seed=5)
    g = NF.apply_gauge(f, A, "forward")
    for xi in f.xi.tolist():
        diff = np.abs(np.abs(g.take(xi)) - np.abs(f.take(xi))).max()
        assert diff <= 1e-14 * max(1.0, np.abs(f.take(xi)).max())


def test_gauge_factor_unit_modulus():
    A = TrigPoly.from_json({"sin": ["1"]})
    t = np.linspace(0, 2 * math.pi, 256, endpoint=False)
    for xi in (1, 17, 1024):
        vals = np.exp(1j * xi * A(t))
        assert np.abs(np.abs(vals) - 1.0).max() <= 1e-14


# ---------------------------------------------------------------------------
# Conjugation defect
# ---------------------------------------------------------------------------


def spectral_conjugation_defect(spec: SystemSpec, field: FourierField) -> float:
    """Reference for the gauge that ``solve`` applies on a grid: checks
    ``T L_j T^{-1} v = L̃_j v`` on the sampled field ``v``, gauging back,
    applying the variable-coefficient operator and gauging forward, against
    the constant-coefficient operator of the normalized spec.  Returns
    ``max_j ‖T L_j T^{-1} v − L̃_j v‖_∞ / (1 + ‖L̃_j v‖_∞)``.

    For band-limited fields on a 64–128 point grid, with |ξ|·sup|a_j − a_j0|
    well inside the Nyquist band, this sits at the 1e-10 level or below: both
    sides are exact trig interpolation up to aliasing of the gauged field's
    Bessel-type tail."""
    nf = NF.build_normal_form(spec)
    back = NF.apply_gauge(field, nf.A, "inverse")
    worst = 0.0
    for j in range(1, spec.n + 1):
        lhs = NF.apply_gauge(apply_tube_operator(spec, j, back), nf.A, "forward")
        rhs = apply_tube_operator(nf.normalized, j, field)
        worst = max(worst, (lhs - rhs).max_abs() / (1.0 + rhs.max_abs()))
    return worst


def exact_row(spec: SystemSpec) -> float:
    return NF.conjugation_residual(spec, NF.build_normal_form(spec))


def test_conjugation_residual_constant_coefficients():
    spec = spec_from(1, [{"a": "1/2", "b": {"const": "-1"}}])
    f = random_field(1, 64, 8, [1, 2], seed=1)
    assert spectral_conjugation_defect(spec, f) == 0.0
    assert exact_row(spec) == 0.0


def test_conjugation_residual_cosine_tube():
    spec = spec_from(1, [{"a": {"cos": ["1"]}, "b": {"const": "-1"}}])
    f = FourierField.from_modes(1, 128, {(1, 1): 1.0})
    assert spectral_conjugation_defect(spec, f) <= 1e-10
    assert exact_row(spec) == 0.0


def test_conjugation_residual_random_fields():
    spec = spec_from(1, [{"a": {"cos": ["1"]}, "b": {"const": "-1", "cos": ["-1"]}}])
    for seed in range(5):
        f = random_field(1, 128, 8, [1, 2, 3, 5, 8], seed=seed)
        assert spectral_conjugation_defect(spec, f) <= 1e-10, seed
    assert exact_row(spec) == 0.0


def test_conjugation_residual_two_variables():
    spec = spec_from(2, [
        {"a": {"cos": ["1"]}, "b": {"const": "-1"}},
        {"a": {"const": "1/3", "sin": ["0", "1"]}, "b": {"sin": ["1"]}},
    ])
    f = random_field(2, 64, 4, [1, 3], seed=9)
    assert spectral_conjugation_defect(spec, f) <= 1e-10
    assert exact_row(spec) == 0.0


#: real parts whose gauge a 32-point probe could not resolve: the gauged
#: golden input, a degree-3 real part of sup norm near 9, and float
#: coefficients beside a rational constant tube
EXACT_ROW_SPECS = {
    "gauged_spec": json.loads((INPUTS / "gauged_spec.json").read_text(encoding="utf-8")),
    "degree3": {
        "n": 1,
        "s": "2",
        "tubes": [
            {
                "a": {"const": "1/2", "cos": ["3", "0", "2"], "sin": ["0", "4"]},
                "b": {"const": "1", "cos": ["1"]},
            }
        ],
    },
    "float": {
        "n": 2,
        "s": "2",
        "tubes": [
            {"a": {"const": 0.5, "cos": [0.3, 0.7], "sin": [0.1]}, "b": {"const": "1", "cos": ["1"]}},
            {"a": "1/3", "b": {"sin": ["1"]}},
        ],
    },
}


@pytest.mark.parametrize("case", sorted(EXACT_ROW_SPECS))
def test_conjugation_residual_is_exact_from_the_coefficients(case, tmp_path, capsys):
    obj = EXACT_ROW_SPECS[case]
    assert exact_row(SystemSpec.from_json(obj)) <= 1e-15
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["normalform", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["body"]["conjugation_residual"] <= 1e-15
    assert report["runtime"] == {"tubes": obj["n"]}


def test_conjugation_residual_of_a_tampered_gauge():
    """With A_2 doubled, d_2 = a_2 − a_20 − 2A_2' = −(a_2 − a_20), whose
    coefficient sum 1 + 1/2 + 2 is the row."""
    spec = spec_from(2, [
        {"a": {"const": "1/3", "cos": ["1"]}, "b": {"sin": ["1"]}},
        {"a": {"const": "1/5", "cos": ["1", "-1/2"], "sin": ["0", "0", "2"]}, "b": "0"},
    ])
    nf = NF.build_normal_form(spec)
    tampered = NF.NormalFormData(A=(nf.A[0], nf.A[1].scale(2)), normalized=nf.normalized)
    assert NF.conjugation_residual(spec, nf) == 0.0
    assert NF.conjugation_residual(spec, tampered) == 3.5
