"""The benchmark's own tests: every output check accepts a right output and
rejects a deliberately wrong one; the generators, the TFF reader/writer,
the importtime parser and the span tracer do what the checks rely on.

Run with ``python -m pytest -q coldbench``.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


def verdict_report(decision: str, J: list) -> dict:
    return {"body": {"verdict": {"decision": decision}, "analysis": {"J": J}}}


def test_verdict_check():
    checks.check_verdict(verdict_report("NotHypoelliptic", [3]), 10, "NotHypoelliptic", [3])
    checks.check_verdict(verdict_report("Unknown", [1]), 20, "Unknown", [1])
    rejects(checks.check_verdict, verdict_report("Hypoelliptic", [3]), 0, "NotHypoelliptic", [3])
    rejects(checks.check_verdict, verdict_report("Unknown", []), 20, "Hypoelliptic", [])
    rejects(checks.check_verdict, verdict_report("NotHypoelliptic", [3]), 0, "NotHypoelliptic", [3])
    rejects(checks.check_verdict, verdict_report("NotHypoelliptic", [2]), 10, "NotHypoelliptic", [3])


def test_unknown_only_for_the_finite_horizon_fixtures():
    unknown = {k for k, (v, _) in workloads.FIXTURE_VERDICTS.items() if v == "Unknown"}
    assert unknown == {"ex64_lemmaA_order_s", "ex64_lemmaA_order_sprime"}
    on_disk = {p.stem for p in (ROOT / "fixtures").glob("*.json")}
    specs = {p for p in on_disk if "tubes" in json.loads((ROOT / "fixtures" / f"{p}.json").read_text())}
    assert specs == set(workloads.FIXTURE_VERDICTS)


@pytest.mark.parametrize("category", ["one_signed", "sign_change", "rational_J", "quadratic_J"])
def test_generated_specs_follow_their_category(category):
    for seed in range(50):
        spec, expected, J, _ = workloads.gen_spec(random.Random(seed), category)
        zero = [j for j, t in enumerate(spec["tubes"], start=1) if checks._is_zero(t["b"])]
        assert zero == J
        t = np.linspace(0, 2 * math.pi, 4097)
        signs = []
        for tube in spec["tubes"]:
            b = tube["b"]
            vals = np.full_like(t, float(checks.coeff(b.get("const", 0) if isinstance(b, dict) else b)))
            if isinstance(b, dict):
                for k, c in enumerate(b.get("cos", ()), start=1):
                    vals += float(checks.coeff(c)) * np.cos(k * t)
                for k, c in enumerate(b.get("sin", ()), start=1):
                    vals += float(checks.coeff(c)) * np.sin(k * t)
            signs.append((vals.min(), vals.max()))
        one_signed = any((lo >= -1e-12 or hi <= 1e-12) and max(abs(lo), abs(hi)) > 0 for lo, hi in signs)
        assert one_signed == (category == "one_signed"), (seed, spec)
        assert (expected == "Hypoelliptic") == (category in ("one_signed", "quadratic_J"))


def test_normalform_check():
    spec = {"n": 1, "tubes": [{"a": {"const": "1/2", "cos": ["1/3"], "sin": []}, "b": {"const": "1", "cos": ["1"]}}]}

    def report(a, b=None, trivial=False):
        b = b or {"const": "1", "cos": ["1"], "sin": []}
        return {"body": {"is_trivial": trivial, "normalized": {"tubes": [{"a": a, "b": b}]}}}

    checks.check_normalform(report("1/2"), spec)
    rejects(checks.check_normalform, report("1/3"), spec)
    rejects(checks.check_normalform, report(0.5), spec)
    rejects(checks.check_normalform, report({"const": "1/2", "cos": ["1/3"]}), spec)
    rejects(checks.check_normalform, report("1/2", {"const": "1", "cos": ["2"]}), spec)
    rejects(checks.check_normalform, report("1/2", trivial=True), spec)


def test_cf_checks():
    digits = [3, 7, 15, 1, 292]
    rows = [{"n": i + 1, "p": p, "q": q} for i, (p, q) in enumerate(checks.convergents(digits))]
    assert rows[-1]["p"] == 33102 and rows[-1]["q"] == 103993
    checks.check_convergents({"body": {"convergents": rows}}, digits)
    rows[2] = dict(rows[2], q=rows[2]["q"] + 1)
    rejects(checks.check_convergents, {"body": {"convergents": rows}}, digits)

    k, n = 3, 6
    q = checks.convergents([k] * n)[-1][1]
    right = {"body": {"lower": str(Fraction(1, (k + 2) * q)), "upper": str(Fraction(1, k * q))}}
    checks.check_bounds(right, k, n)
    shifted = {"body": {"lower": str(Fraction(1, k * q)), "upper": str(Fraction(1, (k - 1) * q))}}
    rejects(checks.check_bounds, shifted, k, n)

    checks.check_cf_classify({"body": {"verdict": {"kind": "NotLiouvilleTrend"}}})
    rejects(checks.check_cf_classify, {"body": {"verdict": {"kind": "LiouvilleTrend"}}})


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_apply_tube_matches_grid_evaluation():
    rng = np.random.default_rng(3)
    a = {"const": "1/3", "cos": ["1/50"], "sin": ["0", "1/100"]}
    b = {"const": "2", "cos": ["1"], "sin": ["1/2"]}
    u = workloads._u_true(rng, 1, 32, 5, 10)
    f = workloads.apply_tube(u, 0, a, b)
    t = 2 * math.pi * np.arange(32) / 32
    coef = lambda p: float(Fraction(p))  # noqa: E731
    av = coef(a["const"]) + coef(a["cos"][0]) * np.cos(t) + coef(a["sin"][1]) * np.sin(2 * t)
    bv = coef(b["const"]) + np.cos(t) + 0.5 * np.sin(t)
    eta = np.fft.fftfreq(32, 1 / 32)
    for xi, c in u.items():
        values = checks.grid_values(c)
        deriv = checks.grid_values(1j * eta * c)
        want = deriv + (av + 1j * bv) * 1j * xi * values
        assert np.abs(checks.grid_values(f[xi]) - want).max() < 1e-12


def test_tff_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    blocks = {xi: rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for xi in (-2, 0, 5)}
    checks.write_tff(tmp_path / "f.tff", 2, 8, blocks)
    n, grid, back = checks.read_tff(tmp_path / "f.tff")
    assert (n, grid, sorted(back)) == (2, 8, [-2, 0, 5])
    assert all(np.array_equal(back[k], blocks[k]) for k in blocks)
    n, grid, back = checks.read_field_json(json.loads(json.dumps(checks.field_json(2, 8, blocks))))
    assert all(np.array_equal(back[k], blocks[k]) for k in blocks)
    raw = (tmp_path / "f.tff").read_bytes()
    (tmp_path / "g.tff").write_bytes(raw[:-16])
    rejects(checks.read_tff, tmp_path / "g.tff")


def test_solve_check():
    rng = np.random.default_rng(1)
    u_true = workloads._u_true(rng, 2, 16, 4, 6)
    report = {"body": {"route": "single-tube"}}
    u = {xi: c.copy() for xi, c in u_true.items()}
    u[0][0, 3] += 5.0  # the xi = 0 t_1-mean is free
    checks.check_solve(report, u, u_true, 0, "single-tube")
    rejects(checks.check_solve, report, u, u_true, None, "single-tube")
    rejects(checks.check_solve, report, u, u_true, 0, "division")
    wrong = {xi: c.copy() for xi, c in u_true.items()}
    wrong[3][1, 2] += 1e-6
    rejects(checks.check_solve, report, wrong, u_true, 0, "single-tube")
    rejects(checks.check_solve, report, {k: v for k, v in u.items() if k != 4}, u_true, 0, "single-tube")


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------


def rational_j_case():
    """Tube 1: a = 1/2, b = 0 (J); tube 2: b = sin t.  Blocks at xi = 2, 4
    carry the phase e^{-i xi t_1 / 2} times a profile in t_2."""
    spec = {"n": 2, "s": "2", "tubes": [{"a": "1/2", "b": "0"}, {"a": "0", "b": {"sin": ["1"]}}]}
    grid = 16
    t = 2 * math.pi * np.arange(grid) / grid
    blocks = {}
    for xi in (2, 4):
        c = np.zeros((grid, grid), dtype=complex)
        c[(-xi // 2) % grid] = np.fft.fft(np.exp(xi * (np.cos(t) - 1))) / grid
        blocks[xi] = c
    artifact = {
        "field": checks.field_json(2, grid, blocks),
        "certificate": {"q": 2, "ladder": [2, 4, 6, 8], "lower_bound_table": [[x, 1.0] for x in (2, 4, 6, 8)]},
    }
    report = {"body": {"verdict": {"decision": "NotHypoelliptic"}, "ladder_size": 4}}
    return spec, artifact, report


def test_singular_check():
    spec, artifact, report = rational_j_case()
    checks.check_singular(report, 0, artifact, spec)

    rejects(checks.check_singular, {"body": dict(report["body"], verdict={"decision": "Hypoelliptic"})}, 0, artifact, spec)
    rejects(checks.check_singular, report, 1, artifact, spec)

    high = json.loads(json.dumps(artifact))
    high["certificate"]["lower_bound_table"][0][1] = 1.0 + 1e-9
    rejects(checks.check_singular, report, 0, high, spec)

    off_q = json.loads(json.dumps(artifact))
    off_q["certificate"]["ladder"][2] = 5
    off_q["certificate"]["lower_bound_table"][2][0] = 5
    rejects(checks.check_singular, report, 0, off_q, spec)

    n, grid, blocks = checks.read_field_json(artifact["field"])
    blocks[4] = np.roll(blocks[4], 1, axis=0)  # phase off the resonance eta_1 = -xi/2
    shifted = dict(artifact, field=checks.field_json(n, grid, blocks))
    rejects(checks.check_singular, report, 0, shifted, spec)


def test_singular_witness_rule():
    # alpha = [0; 3, 11] = 11/34: the rung xi = 34 resonates exactly at eta = -11
    spec = {
        "n": 1, "s": "2",
        "tubes": [{"a": {"cf": "3,11"}, "b": "0"}],
        "vector_witness": {"bound_scale": 1, "delta": 1.0, "pairs": [{"q": "34", "r": ["-11"]}]},
    }
    c = np.zeros(64, dtype=complex)
    c[-11 % 64] = 1.0
    artifact = {
        "field": checks.field_json(1, 64, {34: c}),
        "certificate": {"q": 1, "ladder": [34], "lower_bound_table": [[34, 1.0]]},
    }
    report = {"body": {"verdict": {"decision": "NotHypoelliptic"}, "ladder_size": 1}}
    checks.check_singular(report, 0, artifact, spec)
    wrong = dict(artifact, field=checks.field_json(1, 64, {34: np.roll(c, 1)}))
    rejects(checks.check_singular, report, 0, wrong, spec)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


IMPORTTIME = f"""\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | early
{tracer.IMPORT_BEGIN}
import time:        50 |         50 |       mpmath.libmp
import time:       200 |        250 |     mpmath
import time:       300 |        550 |   sympy.core
import time:        10 |        560 | sympy
import time:        40 |         40 |   scipy._lib
import time:        60 |        100 | scipy.linalg
import time:        70 |         70 | mpmath.rational
error: some message of the command
"""


def test_import_times():
    got = run.import_times(IMPORTTIME)
    assert got["import.total_s"] == pytest.approx((560 + 100 + 70) * 1e-6)
    assert got["import.sympy_s"] == pytest.approx(560e-6)
    assert got["import.scipy_s"] == pytest.approx(100e-6)
    assert got["import.mpmath_s"] == pytest.approx((250 + 70) * 1e-6)


def test_tracer_self_times_and_rebinding(monkeypatch):
    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake = types.ModuleType("torus_hypo._bench_fake")
    fake.inner, fake.outer = inner, outer
    other = types.ModuleType("torus_hypo._bench_other")
    other.inner = inner  # bound by name in a second module
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    monkeypatch.setitem(sys.modules, other.__name__, other)
    monkeypatch.setattr(tracer, "LAYERS", {"cli.self_s": [], "solver.banded_s": []})
    t = tracer.Tracer()
    t._wrap_module(fake, [("outer", "cli.self_s"), ("inner", "solver.banded_s"), ("gone", "solver.banded_s")])
    assert t.missing == ["torus_hypo._bench_fake:gone"]
    assert other.inner is fake.inner and other.inner is not inner
    assert fake.outer(1) == 4
    out = t.to_json()
    assert out["self_s"]["solver.banded_s"] > 0
    assert sum(out["self_s"].values()) == pytest.approx(out["inproc_s"], rel=1e-12)


def test_traced_command_end_to_end(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(Path(tracer.__file__)), str(trace),
         "cf", "convergents", "3,7,15", "--n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    checks.check_convergents(json.loads(proc.stdout), [3, 7, 15])
    raw = json.loads(trace.read_text())
    assert raw["missing"] == []
    assert sum(raw["self_s"].values()) == pytest.approx(raw["inproc_s"], rel=1e-9)
    assert raw["self_s"]["diophantine.classify_s"] > 0
    assert run.import_times(proc.stderr)["import.total_s"] > 0
