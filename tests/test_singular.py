"""Slow-decay constructions: the b0 > 0 mirror branch of Prop52, and the
certified lower bounds against the coefficients a certificate stores."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torus_hypo import singular
from torus_hypo.diophantine import LiouvilleWitness, RealConstant
from torus_hypo.errors import MalformedInput, ProfileError, WitnessMismatch
from torus_hypo.gevrey import GevreyCutoff, TrigPoly, make_cutoff
from torus_hypo.report import canonical_json
from torus_hypo.singular import (
    build_expliouville_J,
    build_obstruction,
    build_prop51,
    build_prop52,
)
from torus_hypo.solver import apply_tube_operator
from torus_hypo.system import CHANGES_SIGN, SystemSpec, analyze, sign_analysis

from conftest import PKG_ROOT, load_fixture


@pytest.mark.parametrize(
    "stem", ["singular_expL", "singular_rationalJ", "crit9_three_tube", "singular_allsign"]
)
def test_written_certificate_bounds_hold_on_its_stored_coefficients(stem, golden_run):
    """Each lower_bound_table row of a materialized rung is at most
    max_t |u(t, xi)| rebuilt from the coefficients the artifact stores."""
    code, _, _, workdir = golden_run(f"singular-{stem}")
    assert code == 0
    artifact = json.loads((workdir / "out.json").read_text(encoding="utf-8"))
    field = artifact["field"]
    shape = (field["grid_size"],) * field["n"]
    bounds = dict(artifact["certificate"]["lower_bound_table"])
    assert field["blocks"]
    for block in field["blocks"]:
        c = (np.asarray(block["re"]) + 1j * np.asarray(block["im"])).reshape(shape)
        peak = float(np.abs(np.fft.ifftn(c) * c.size).max())
        assert bounds[block["xi"]] <= peak * (1 + 1e-12), block["xi"]


@pytest.mark.parametrize(
    "stem", ["singular_expL", "singular_rationalJ", "crit9_three_tube", "singular_allsign"]
)
def test_pipeline_summary_is_the_golden_report_body(stem):
    """build_obstruction returns the singular report's body at the CLI
    defaults: with ``output`` added it is the golden body, and the runtime
    it carries is the golden runtime."""
    golden = json.loads((PKG_ROOT / "tests" / "golden" / f"singular-{stem}.json").read_text("utf-8"))
    spec = SystemSpec.from_json(load_fixture(f"{stem}.json"))
    _, summary = build_obstruction(spec, xi_max=256, grid=128)
    runtime = summary.pop("runtime")
    assert json.loads(canonical_json({**summary, "output": "out.json"})) == golden["body"]
    assert runtime == golden["runtime"]


SINE = {"sin": ["1"]}

#: golden singular case -> the construction of each tube its certificate keeps
PER_TUBE = {
    "singular_expL": [],
    "singular_rationalJ": ["Prop51"],
    "crit9_three_tube": ["Prop52", "Prop52"],
    "singular_allsign": ["Prop52", "Prop52"],
}

FITTED_KEYS = {"decay_fits", "f_fit", "peak_power", "u_at_t0", "proof_constant", "fit_r2"}

#: construction -> the keys a per-tube certificate leaves out, as each restates
#: another (a Prop52 peak is profile.t0, its mirror flag profile.mirror)
RESTATED_KEYS = {
    "Prop51": {"peak_is_exact_unit"},
    "Prop52": {"t0", "B_offset", "mirror_mapped"},
}


def _keys(obj):
    """Every dict key at any depth of a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


@pytest.mark.parametrize("stem", list(PER_TUBE))
def test_written_certificates_hold_rows_not_fits(stem, golden_run):
    """No stored certificate holds a fitted number or restates a key, and
    each Prop52 tube's rows (its profile, cutoff row and right-hand-side
    table over the whole ladder) reach the artifact through the product's
    per_tube, which alone holds each tube's peak."""
    code, _, _, workdir = golden_run(f"singular-{stem}")
    assert code == 0
    cert = json.loads((workdir / "out.json").read_text(encoding="utf-8"))["certificate"]
    assert not FITTED_KEYS & set(_keys(cert))
    assert not {"t0", "dense_rungs"} & set(cert)
    assert [tube["construction"] for tube in cert["per_tube"]] == PER_TUBE[stem]
    for tube in cert["per_tube"]:
        assert "lower_bound_table" not in tube
        assert not RESTATED_KEYS[tube["construction"]] & set(tube)
        if tube["construction"] == "Prop52":
            assert {"profile", "cutoff_bound", "f_table", "translation", "delta"} <= set(tube)
            assert [xi for xi, _ in tube["f_table"]] == list(range(1, cert["ladder"][-1] + 1))


def _prop52(b_const: str):
    spec = SystemSpec.from_json(
        {"n": 1, "s": "2", "tubes": [{"a": {"cf": "constant:2"}, "b": {"const": b_const, "sin": ["1"]}}]}
    )
    a0 = analyze(spec).a0[0]
    sol = build_prop52(a0, spec.tubes[0].b, 2.0, 16, grid_size=128, dense_rungs=range(1, 17))
    lu = apply_tube_operator(spec, 1, sol.coefficients)
    residual = {
        xi: float(np.abs(lu.take(xi) - sol.rhs[1].take(xi)).max())
        for xi in sol.coefficients.xi.tolist()
    }
    return sol, residual


def test_prop52_mirror_branch_matches_forward_branch(monkeypatch):
    transforms = []
    hiprec = GevreyCutoff.fourier_magnitudes_hiprec
    monkeypatch.setattr(
        GevreyCutoff, "fourier_magnitudes_hiprec", lambda cut: transforms.append(cut) or hiprec(cut)
    )
    # b = 1/2 + sin t (b0 > 0) is built through the reflection c(t) = -b(-t)
    # = -1/2 + sin t and mapped back by u(t) = conj(v(-t)): it has the same
    # certified table as the forward build for -1/2 + sin t, and the mapped
    # pair solves its own tube equation as well as the forward pair does.
    mirror, res_mirror = _prop52("1/2")
    forward, res_forward = _prop52("-1/2")
    assert mirror.certificates["lower_bound_table"] == forward.certificates["lower_bound_table"]
    # both builds put their cutoff on one geometry, so they derive one row,
    # and neither runs the high-precision transform
    assert transforms == []
    assert mirror.certificates["cutoff_bound"] == forward.certificates["cutoff_bound"]
    assert mirror.certificates["cutoff_bound"]["s"] == 2.0

    pm, pf = mirror.certificates["profile"], forward.certificates["profile"]
    assert (pm["mirror"], pf["mirror"]) == (True, False)
    assert pm["B0"] == -pf["B0"] and pm["psi_curvature"] == -pf["psi_curvature"]
    assert pm["t0"] == (-pf["t0"]) % (2 * math.pi)

    assert sorted(res_mirror) == list(range(1, 17))
    for xi, r in res_mirror.items():
        assert math.isclose(r, res_forward[xi], rel_tol=1e-8)
        if xi >= 8:
            # 1.29e-4 at xi = 8, roughly halving per rung
            assert r <= 2e-4 * 0.53 ** (xi - 8)


def test_prop52_rows_do_not_depend_on_the_other_listed_rungs():
    """Rungs 2, 4 and 6 alone are the rows of a 1..6 build, bit for bit, on
    both branches."""
    for b in ({"const": "-1/2", "sin": ["1"]}, {"const": "1/2", "sin": ["1"]}):
        args = (RealConstant.from_json({"cf": "constant:2"}), TrigPoly.from_json(b), 2.0, 8)
        some = build_prop52(*args, grid_size=64, dense_rungs=[2, 4, 6])
        every = build_prop52(*args, grid_size=64, dense_rungs=range(1, 7))
        assert some.coefficients.xi.tolist() == [2, 4, 6]
        for xi in (2, 4, 6):
            assert some.coefficients.take(xi).tobytes() == every.coefficients.take(xi).tobytes()
            assert some.rhs[1].take(xi).tobytes() == every.rhs[1].take(xi).tobytes()
        assert some.certificates == every.certificates


def test_expliouville_lift_of_a_product_receives_only_the_witness_rungs(monkeypatch):
    """On singular_expL with a Prop52 tube (a = constant:2, b = sin t) the
    product is built on the three witness rungs the lift keeps, not on the
    whole dense window as well."""
    received = []
    lift = singular.build_expliouville_J
    monkeypatch.setattr(
        singular,
        "build_expliouville_J",
        lambda *args, **kw: received.append(args[3].coefficients.xi.tolist()) or lift(*args, **kw),
    )
    expl = load_fixture("singular_expL.json")
    expl["n"] = 2
    expl["tubes"].append({"a": {"cf": "constant:2"}, "b": SINE})
    solution, summary = build_obstruction(SystemSpec.from_json(expl), xi_max=256, grid=128)
    assert [c["construction"] for c in summary["chain"]] == ["Prop52", "ExpLiouvilleJ"]
    assert received == [[3, 34, 68]]
    assert solution.coefficients.xi.tolist() == [3, 34, 68]


@pytest.fixture
def empty_profile_cache():
    """The process-wide Laplace profile memo, empty before and after the test."""
    singular._laplace_profile.cache_clear()
    yield
    singular._laplace_profile.cache_clear()


def test_tubes_with_one_b_share_one_laplace_search(empty_profile_cache):
    """singular_allsign has two Prop52 tubes with b = sin t: the search of
    the kernel exponent's peak runs once for both."""
    spec = SystemSpec.from_json(load_fixture("singular_allsign.json"))
    solution, _ = build_obstruction(spec, xi_max=64, grid=128)
    assert solution.construction == "Product"
    info = singular._laplace_profile.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_laplace_memo_keeps_exact_and_float_b_apart(empty_profile_cache):
    """b = sin t given exactly and as a float are equal TrigPolys, but each
    gets the profile of its own search."""
    exact, floating = TrigPoly.from_json({"sin": ["1"]}), TrigPoly.from_json({"sin": [1.0]})
    assert exact == floating
    assert singular.locate_laplace_profile(exact) == singular.locate_laplace_profile(floating)
    assert singular._laplace_profile.cache_info().currsize == 2


def _sign_changing_b(rng, exact: bool) -> TrigPoly:
    """A seeded b of degree <= 4 with mean <= 0 that changes sign."""
    def draw():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if exact else rng.uniform(-1, 1)

    while True:
        k = rng.randint(1, 4)
        b = TrigPoly(-abs(draw()) / 2, [draw() for _ in range(k)], [draw() for _ in range(k)])
        if sign_analysis(b) == CHANGES_SIGN:
            return b


def test_peaks_are_critical_points_above_every_lattice_point():
    """On seeded sign-changing b, exact and float: the Laplace peak (t0, r0)
    pairs two zeros of b, and B0 is at least the kernel exponent on a 256²
    lattice, so the Laplace kernel e^{ξ(Im H − B0)} is at most 1 up to
    rounding; Prop51's B(t0) is at least B on 4096 points."""
    rng = random.Random(20261019)
    lattice = 2 * math.pi * np.arange(256) / 256
    grid = 2 * math.pi * np.arange(4096) / 4096
    for case in range(40):
        b = _sign_changing_b(rng, exact=case % 2 == 0)
        size = sum(abs(float(c)) for c in (b.const, *b.cos, *b.sin))
        profile = singular.locate_laplace_profile(b)
        assert abs(float(b(profile.t0))) <= 1e-12 * size, b
        assert abs(float(b(profile.t0 - profile.r0))) <= 1e-12 * size, b
        expo = singular._kernel_exponent(
            float(b.mean()), b.primitive_from_zero(), lattice[:, None], lattice[None, :]
        )
        assert profile.B0 >= float(expo.max()) - 1e-12, b

        zero_mean = TrigPoly(0, b.cos, b.sin)
        peak = build_prop51(Fraction(0), zero_mean, ladder=[1], grid_size=8, dense_rungs=[1]).certificates
        B = zero_mean.primitive_from_zero()
        assert abs(float(zero_mean(peak["t0"]))) <= 1e-12 * size, b
        assert peak["B_peak"] >= float(B(grid).max()) - 1e-12, b


def _table_rows(a0: float, b: TrigPoly, s: float, grid: int, xis, cert: dict, at=None) -> np.ndarray:
    """Forward Prop52 rows by the (t', r) table route, the reference for the
    window form: e^{ξ(Im H(t', r) − B0)} φ(t' − r), times the holonomy where
    t' − r wraps below 0, over every output point t' and r-node whose bump
    argument lies in the cutoff's support, summed per t' on the build's n_r
    nodes, then phased and rolled back to the original frame.  With ``at``,
    the one point t' = ``at`` of the translated frame instead, with
    r = t' − s mod 2π over the support's s-nodes, one column per row."""
    profile = singular.locate_laplace_profile(b)
    sigma, delta, b0, two_pi = cert["translation"], cert["delta"], float(b.mean()), 2 * math.pi
    center = ((profile.t0 - profile.r0) % two_pi + sigma) % two_pi
    t0_sh = (profile.t0 + sigma) % two_pi
    cutoff = make_cutoff(s, (center - delta, center + delta), (center - delta / 2, center + delta / 2))
    Bper = b.translate(sigma).primitive_from_zero()
    t = two_pi * np.arange(grid) / grid if at is None else np.array([at])
    rows, supports = [], {}
    for xi in xis:
        n_r = -(-max(1024, 4 * xi) // grid) * grid
        if n_r not in supports:
            supports[n_r] = np.nonzero(cutoff(two_pi * np.arange(n_r) / n_r) > 0)[0]
        support = supports[n_r]
        j, i = np.divmod(np.arange(t.size * support.size), support.size)
        if at is None:
            r = two_pi * ((j * (n_r // grid) - support[i]) % n_r) / n_r  # t'_j − r ≡ s_i
        else:
            r = np.mod(at - two_pi * support[i] / n_r, two_pi)
        expo = singular._kernel_exponent(b0, Bper, t[j], r) - profile.B0
        vals = np.exp(xi * expo) * cutoff(np.mod(t[j] - r, two_pi))
        vals = vals * np.where(t[j] < r, np.exp(-2j * math.pi * xi * a0), 1.0)
        u = np.bincount(j, vals.real, t.size) + 1j * np.bincount(j, vals.imag, t.size)
        rows.append(np.exp(-1j * xi * a0 * (t - t0_sh)) * u * (two_pi / n_r))
    if at is not None:
        return np.array(rows)
    return np.roll(np.array(rows), -round(sigma * grid / two_pi) % grid, axis=1)


def _mirror(b: TrigPoly) -> TrigPoly:
    """c(t) = −b(−t): the b that Prop52's mirror branch builds on."""
    return b.reflect().scale(-1)


#: case -> (b per draw, grid, rungs); b0 ≤ 0 unless the mirror maps it.
WINDOW_CASES = {
    "exact-b": ("exact", 64, [1, 7, 64, 200]),
    "float-b": ("float", 64, [1, 7, 64, 200]),
    "mirror-branch": ("mirror", 64, [3, 50, 256]),
    "grid-2048": ("sine", 2048, [1, 100, 600]),
    "large-xi": ("sine", 128, [400, 1000]),
}


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_rows_match_the_table_route(case):
    """The dense Prop52 rows from the prefix/suffix window sums agree with the
    (t', r) table route at every grid point, to 1e-12 of each row's maximum:
    on seeded sign-changing b, exact and float, through the mirror branch, on
    a grid (2048) whose n_r differs from max(1024, 4ξ), and at ξ with
    ξ·(max B − min B) > 745, where the split exponentials would overflow
    outside the log domain.  The average √2 − 1 makes the holonomy differ
    from 1 on every rung."""
    kind, grid, xis = WINDOW_CASES[case]
    a0 = RealConstant.from_json({"cf": "constant:2"})
    rng = random.Random(20261019)
    draws = [_sign_changing_b(rng, exact=kind == "exact") for _ in range(3)]
    draws = [TrigPoly.from_json({"const": "-1/5", "sin": ["1"]})] if kind == "sine" else draws
    for b in draws:
        built = _mirror(b) if kind == "mirror" else b
        sol = build_prop52(a0, built, 2.0, max(xis), grid_size=grid, dense_rungs=xis)
        want = _table_rows(float(a0), b, 2.0, grid, xis, sol.certificates)
        if kind == "mirror":
            want = np.conj(want[:, (-np.arange(grid)) % grid])
        got = sol.coefficients.take(xis)
        assert np.isfinite(got).all()
        top = np.abs(want).max(axis=1)
        assert (np.abs(got - want).max(axis=1) <= 1e-12 * top).all(), (b, xis)
    assert all(abs(np.exp(-2j * math.pi * xi * float(a0)) - 1) > 1e-3 for xi in xis)
    if case == "large-xi":
        B = b.primitive_from_zero()(2 * math.pi * np.arange(4096) / 4096)
        assert xis[0] * (B.max() - B.min()) > 745


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_peak_table_is_the_table_route_at_the_peak(case):
    """Each lower_bound_table row, the window sums at t0' alone, agrees with
    the (t', r) table route at t0' to 1e-12 relative for every ξ ≤ xi_max,
    on the draws of test_window_rows_match_the_table_route.  On b = sin t,
    t0' is the grid point 0 (a node, counted as s ≤ t0'), and there each
    row is the modulus of the stored row at t0 to 1e-14."""
    kind, grid, xis = WINDOW_CASES[case]
    a0 = RealConstant.from_json({"cf": "constant:2"})
    rng = random.Random(20261019)
    draws = [_sign_changing_b(rng, exact=kind == "exact") for _ in range(3)]
    if kind == "sine":
        draws = [TrigPoly.from_json(b) for b in ({"const": "-1/5", "sin": ["1"]}, SINE)]
    for b in draws:
        built = _mirror(b) if kind == "mirror" else b
        sol = build_prop52(a0, built, 2.0, max(xis), grid_size=grid, dense_rungs=xis)
        cert = sol.certificates
        t0_sh = (singular.locate_laplace_profile(b).t0 + cert["translation"]) % (2 * math.pi)
        rungs = range(1, max(xis) + 1)
        want = np.abs(_table_rows(float(a0), b, 2.0, grid, rungs, cert, at=t0_sh)[:, 0])
        table = np.array(cert["lower_bound_table"])
        assert table[:, 0].tolist() == list(rungs)
        assert (np.abs(table[:, 1] - want) <= 1e-12 * want).all(), b
        if b == TrigPoly.from_json(SINE):
            assert t0_sh == 0.0
            at = round(cert["profile"]["t0"] * grid / (2 * math.pi)) % grid
            stored = np.abs(sol.coefficients.take(xis)[:, at])
            assert np.allclose(stored, table[np.array(xis) - 1, 1], rtol=1e-14, atol=0)


@pytest.mark.parametrize("stem", ["singular_rationalJ", "crit9_three_tube"])
def test_real_tube_residual_on_the_factor_is_the_block_residual(stem, monkeypatch):
    """residual_real_tubes, from L_j on the 1-D phase rows, equals
    max|L_j u| on the assembled n-dimensional block to 1e-13; with one
    phase m off by one both routes report that rung's max|v|, not ~0."""
    spec = SystemSpec.from_json(load_fixture(f"{stem}.json"))

    def both_routes():
        sol, _ = build_obstruction(spec, xi_max=256, grid=128)
        block = [apply_tube_operator(spec, j, sol.coefficients).max_abs() for j in sol.certificates["J"]]
        return [r for _, r in sol.certificates["residual_real_tubes"]], block

    factor, block = both_routes()
    assert np.allclose(factor, block, rtol=0, atol=1e-13) and max(block) < 1e-12
    lift = singular._lift

    def off_by_one(spec_, v, rungs, phases, grid):
        phases[min(phases)][0] += 1
        return lift(spec_, v, rungs, phases, grid)

    monkeypatch.setattr(singular, "_lift", off_by_one)
    factor, block = both_routes()
    assert np.allclose(factor, block, rtol=1e-12) and min(block) > 0.1


@pytest.mark.parametrize("b", [{"const": "1", "cos": ["1"]}, "0"], ids=["one-signed", "zero"])
def test_laplace_profile_refuses_a_b_that_does_not_change_sign(b, empty_profile_cache):
    """The one refusal the profile keeps: b must be certified sign-changing."""
    with pytest.raises(ProfileError, match="certified sign-changing"):
        singular.locate_laplace_profile(TrigPoly.from_json(b))


def test_prop51_ladder_is_in_xi():
    """Prop51's ladder lists rungs ξ, like every other builder's: with
    a0 = 1/2 the rung 4 is ξ = 4."""
    b = TrigPoly.from_json(SINE)
    assert build_prop51(Fraction(1, 2), b, ladder=[2, 4], grid_size=32, dense_rungs=[4]).ladder == [2, 4]


def test_prop51_builds_blocks_on_the_dense_rungs_alone():
    """The bound table covers the ladder; the blocks are the dense rungs',
    each with the bits of the full-ladder build."""
    b = TrigPoly.from_json(SINE)
    full = build_prop51(Fraction(1, 2), b, ladder=[2, 4, 6, 8], grid_size=32, dense_rungs=[2, 4, 6, 8])
    some = build_prop51(Fraction(1, 2), b, ladder=[2, 4, 6, 8], grid_size=32, dense_rungs=[4, 8])
    assert some.ladder == [2, 4, 6, 8]
    assert some.certificates == full.certificates
    assert some.coefficients.xi.tolist() == [4, 8]
    assert some.coefficients.take([4, 8]).tobytes() == full.coefficients.take([4, 8]).tobytes()


def _generated_spec(rng) -> dict:
    """A seeded NotHypoelliptic spec of 1–3 tubes with constant real parts:
    each tube is a Prop51 tube (rational a, exact zero-mean sign-changing b),
    a Prop52 tube (rational, float or quadratic-irrational a; sign-changing
    b, exact or float) or a J tube (rational a, b = 0).  No b is one-signed
    and the averages over J are rational, so neither condition holds."""
    def ratio():
        return Fraction(rng.randint(-7, 7), rng.randint(1, 4))

    tubes = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("Prop51", "Prop52", "J"))
        if kind == "J":
            tubes.append({"a": str(ratio()), "b": "0"})
            continue
        exact = kind == "Prop51" or rng.random() < 0.5
        big = Fraction(rng.randint(2, 12), rng.randint(1, 4))  # |const| + |sin| <= 0.6 big
        const = 0 if kind == "Prop51" else big * Fraction(rng.randint(-3, 3), 10)
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        cos, sin = [0] * (k - 1) + [big], [0] * (m - 1) + [big * Fraction(rng.randint(-3, 3), 10)]
        b = {key: [str(x) if exact else float(x) for x in v] for key, v in (("cos", cos), ("sin", sin))}
        b["const"] = str(const) if exact else float(const)
        a = rng.choice((str(ratio()), rng.uniform(-3, 3), {"cf": f"constant:{rng.randint(1, 9)}"}))
        tubes.append({"a": str(ratio()) if kind == "Prop51" else a, "b": b})
    return {"n": len(tubes), "s": rng.choice(("3/2", "2", "3", "smooth")), "tubes": tubes}


def _expl_spec(extra: list) -> dict:
    """singular_expL with ``extra`` tubes appended after its real tube."""
    spec = load_fixture("singular_expL.json")
    spec["tubes"] += extra
    spec["n"] = len(spec["tubes"])
    return spec


#: ExpLiouvilleJ specs: the fixture alone, and with a Prop51 and a Prop52 tube
EXPL_SPECS = [
    _expl_spec([]),
    _expl_spec([{"a": "1/2", "b": SINE}]),
    _expl_spec([{"a": {"cf": "constant:2"}, "b": {"const": "-1/5", "sin": ["1"]}}]),
]


#: the steps of build_obstruction, each wrapped by name by coldbench's tracer
BUILDERS = ("build_prop51", "build_prop52", "build_product", "build_rational_J", "build_expliouville_J")


def _ascending_on(rungs, ladder) -> bool:
    return list(rungs) == sorted(set(rungs)) and set(rungs) <= set(ladder)


def _lift_fits(v, spec, analysis, rungs) -> bool:
    """v is None when every tube is real, else it covers the other tubes'
    variables and holds a block at every rung."""
    if len(analysis.J) == spec.n:
        return v is None
    held = set(v.coefficients.xi.tolist())
    return v.coefficients.n == spec.n - len(analysis.J) and set(rungs) <= held


def test_pipeline_hands_each_builder_what_it_builds_on(monkeypatch):
    """build_obstruction is the one caller of the five builders, and they
    check none of its choices again.  On 80 seeded generated specs and the
    ExpLiouvilleJ specs, at several xi_max and grids, every builder call
    receives what its construction needs: ascending stored rungs on the
    ladder, q·a_j0 ∈ ℤ for each J tube, 2·|ξ·a_j0| below the field grid at
    every stored RationalJ rung, each Prop51 tube a zero-mean b and a ladder
    in multiples of its q, each Prop52 tube s > 1, and each lift a v that
    covers the other tubes at every rung, or no v when every tube is real."""
    calls = []
    for name in BUILDERS:
        def record(*args, _name=name, _build=getattr(singular, name), **kw):
            calls.append((_name, args, kw))
            return _build(*args, **kw)

        monkeypatch.setattr(singular, name, record)

    rng = random.Random(20261020)
    cases = [(_generated_spec(rng), rng.choice((1, 7, 64, 128)), rng.choice((4, 32, 64))) for _ in range(80)]
    cases += [(spec, 256, grid) for spec in EXPL_SPECS for grid in (32, 128)]
    built = set()
    for raw, xi_max, grid in cases:
        calls.clear()
        solution, summary = build_obstruction(SystemSpec.from_json(raw), xi_max=xi_max, grid=grid)
        q, k_max = summary["q"], summary["k_max"]
        ladder = [q * k for k in range(1, k_max + 1)]
        assert _ascending_on(solution.ladder, ladder), raw
        assert _ascending_on(solution.coefficients.xi.tolist(), solution.ladder), raw
        for name, args, kw in calls:
            built.add(name)
            if name == "build_prop51":
                a0, b = args
                assert isinstance(b, TrigPoly) and b.mean() == 0, raw
                assert kw["ladder"] == ladder and all(xi % a0.denominator == 0 for xi in ladder), raw
                assert _ascending_on(kw["dense_rungs"], ladder), raw
            elif name == "build_prop52":
                _, _, s, xi_top = args
                assert s > 1 and xi_top == ladder[-1], raw
                assert _ascending_on(kw["dense_rungs"], ladder), raw
            elif name == "build_product":
                per_tube, *ladder_args = args
                assert ladder_args == [q, k_max] and _ascending_on(kw["dense_rungs"], ladder), raw
                assert len({sol.coefficients.grid_size for sol in per_tube}) == 1, raw
                assert per_tube[0].coefficients.grid_size % kw["field_grid"] == 0, raw
                for sol in per_tube:
                    assert sol.coefficients.n == 1, raw
                    assert set(kw["dense_rungs"]) <= set(sol.coefficients.xi.tolist()), raw
            elif name == "build_rational_J":
                spec, analysis, v, _ = args
                dense = kw["dense_rungs"]
                assert _ascending_on(dense, ladder) and _lift_fits(v, spec, analysis, dense), raw
                field_grid = kw["grid_size"] if v is None else v.coefficients.grid_size
                for j in analysis.J:
                    a = analysis.a0[j - 1].approx_fraction()
                    assert (q * a).denominator == 1, raw
                    assert all(2 * abs(xi * a) < field_grid for xi in dense), raw
            else:
                spec, analysis, witness, v, _ = args
                rungs = [s_k for _, s_k in witness.pairs]
                assert spec.order.is_gevrey and witness.length == len(analysis.J), raw
                assert rungs and witness.bound_scale % q == 0 and _ascending_on(rungs, ladder), raw
                assert _lift_fits(v, spec, analysis, rungs), raw
    assert built == set(BUILDERS)


@pytest.mark.parametrize(
    "extra, refusal",
    [([], "covers 2 components but 1 tubes"), ([{"a": "1/3", "b": "0"}], "covers 1 components but 2")],
    ids=["two-entries-one-real-tube", "one-entry-two-real-tubes"],
)
def test_an_asserted_witness_must_cover_the_real_tubes(extra, refusal):
    """An asserted ExpLiouvilleTrend skips the verdict's witness check, so
    the pipeline itself refuses a witness whose rows do not hold one entry
    per identically-real tube."""
    raw = _expl_spec(extra) | {"vector_assertion": "ExpLiouvilleTrend"}
    if not extra:
        for row in raw["vector_witness"]["pairs"]:
            row["r"] = row["r"] * 2  # two entries for singular_expL's one real tube
    with pytest.raises(WitnessMismatch, match=refusal):
        build_obstruction(SystemSpec.from_json(raw), xi_max=256, grid=32)


@pytest.mark.parametrize(
    "flags, field",
    [
        ({"grid": 1}, "--grid: 1 "),
        ({"grid": 2}, "--grid: 2 "),
        ({"grid": 129}, "--grid: 129 "),
        ({"xi_max": 0}, "--xi-max: 0 "),
    ],
    ids=["grid-1", "grid-2", "grid-129", "xi-max-0"],
)
def test_the_pipeline_refuses_its_grid_and_ladder_before_the_verdict(flags, field, monkeypatch):
    """A grid that is not a power of two of at least 4, or an xi_max below 1,
    is refused naming the field before the verdict or any builder runs."""
    called = []
    for name in ("classify_system", "build_prop52"):
        monkeypatch.setattr(singular, name, lambda *a, name=name, **kw: called.append(name))
    spec = SystemSpec.from_json(load_fixture("crit9_three_tube.json"))
    with pytest.raises(MalformedInput) as exc:
        build_obstruction(spec, **({"xi_max": 256, "grid": 128} | flags))
    assert str(exc.value).startswith(field)
    assert called == []


def test_a_row_just_above_its_bound_is_not_within_it(monkeypatch):
    """within_bound certifies with the Diophantine layer's margin: a divisor
    5e-13 above its bound in ln reads False, one 1e-6 below it True.  The
    witness check, which refuses the first row too, is bypassed here."""
    monkeypatch.setattr(singular, "verify_witness_rows", lambda w, comps, s: [True] * len(w.pairs))
    spec = SystemSpec.from_json({"s": "2", "tubes": [{"a": "10/29", "b": "0"}]})
    # the divisor |-3 + 9*(10/29)| = 3/29 against exp(-delta * 9^{1/2})
    ln_d = math.log(Fraction(3, 29))
    for delta, within in (((-ln_d + 5e-13) / 3, False), (-ln_d / 3 * (1 - 1e-6), True)):
        w = LiouvilleWitness(delta, [((-3,), 9)])
        sol = build_expliouville_J(spec, analyze(spec), w, None, 1, grid_size=32)
        assert [row["within_bound"] for row in sol.certificates["row_checks"]] == [within]
