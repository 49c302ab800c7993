"""End-to-end CLI runs, checked byte for byte against golden outputs.

Each case calls ``cli.main`` in-process with a temporary working directory,
so the artifact paths that ``solve`` and ``singular`` echo are fixed relative
names.  ``tests/golden/<case>.json`` holds the report the case prints, and
``tests/golden/manifest.json`` its exit code and the sha256 of its artifact.
After a deliberate change to the output, regenerate both with
``PYTHONPATH=src python tests/test_cli.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from torus_hypo import cli
from torus_hypo.solver import FourierField

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
GOLDEN = TESTS / "golden"
INPUTS = GOLDEN / "inputs"

SPECS = (
    "cond1",
    "crit9_three_tube",
    "ex63",
    "ex64_factorial",
    "ex64_lemmaA_order_s",
    "ex64_lemmaA_order_sprime",
    "remark64_pair",
    "singular_allsign",
    "singular_expL",
    "singular_rationalJ",
    "solve_spec",
)

#: case name -> argv; "@name" stands for fixtures/name.json and "%name" for
#: tests/golden/inputs/name.json
CASES = {
    f"{command}-{stem}": [command, f"@{stem}"]
    for command in ("classify", "diagnose", "normalform")
    for stem in SPECS
}
CASES.update(
    {
        "cf-convergents-constant2": ["cf", "convergents", "constant:2", "--n", "8"],
        "cf-convergents-explicit": ["cf", "convergents", "1,2,3,4,5", "--n", "5"],
        "cf-bounds-factorial": ["cf", "bounds", "factorial_pow10", "--n", "5"],
        "cf-classify-factorial": ["cf", "classify", "factorial_pow10", "--s", "2", "--n", "6"],
        "cf-condition-b-constant3": ["cf", "condition-b", "constant:3", "--s", "2", "--n", "6"],
    }
)
for rhs in ("solve_rhs", "solve_rhs_zero", "solve_rhs_badmean"):
    CASES[f"solve-{rhs}"] = ["solve", "@solve_spec", f"@{rhs}", "u.json"]
# the gauged single-tube route and the division route over two real tubes
for route in ("gauged", "division"):
    CASES[f"solve-{route}"] = ["solve", f"%{route}_spec", f"%{route}_rhs", "u.json"]
for stem in ("singular_expL", "singular_rationalJ", "crit9_three_tube", "singular_allsign"):
    CASES[f"singular-{stem}"] = ["singular", f"@{stem}", "out.json"]
# alpha = [0; 1, 1, ...] is badly approximable: Hypoelliptic at any horizon
CASES["classify-golden_ratio_s3"] = ["classify", "%golden_ratio_s3", "--horizon", "16"]

#: the artifact a command writes, relative to the working directory
ARTIFACTS = {"solve": "u.json", "singular": "out.json"}


def _argv(case: str) -> list:
    where = {"@": FIXTURES, "%": INPUTS}
    return [str(where[a[0]] / f"{a[1:]}.json") if a[:1] in where else a for a in CASES[case]]


def run_case(case: str, workdir: Path, keep_artifact: bool = False):
    """(exit code, report text, artifact sha256 or None) of one case."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(_argv(case))
    finally:
        os.chdir(cwd)
    digest = None
    artifact = workdir / ARTIFACTS.get(CASES[case][0], "")
    if artifact.is_file():
        digest = hashlib.sha256(artifact.read_bytes()).hexdigest()
        if not keep_artifact:
            artifact.unlink()
    return code, out.getvalue(), digest


def _manifest() -> dict:
    with open(GOLDEN / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    want = _manifest()[case]
    code, report, digest = run_case(case, tmp_path)
    assert code == want["exit"]
    assert report.encode("utf-8") == (GOLDEN / f"{case}.json").read_bytes()
    assert digest == want["artifact_sha256"]


def test_solve_recovers_manufactured_solution(tmp_path):
    code, _, _ = run_case("solve-solve_rhs", tmp_path, keep_artifact=True)
    assert code == 0
    u = FourierField.load_json(tmp_path / "u.json")
    u_true = FourierField.load_json(FIXTURES / "solve_u_true.json")
    assert u.xi_values == u_true.xi_values
    err = max(float(np.abs(u.values(xi) - u_true.values(xi)).max()) for xi in u.xi_values)
    assert err < 1e-14


def test_subprocess_smoke():
    from conftest import run_cli

    proc = run_cli("classify", "fixtures/cond1.json")
    assert proc.returncode == _manifest()["classify-cond1"]["exit"]
    assert proc.stdout == (GOLDEN / "classify-cond1.json").read_text(encoding="utf-8")
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# Cold start: what a fresh interpreter loads, and the thread cap
# ---------------------------------------------------------------------------

THREAD_VARS = ("TORUS_HYPO_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: the names the package root exported when it imported every module eagerly
EXPORTS = """
    ApproxInterval ContinuedFraction DiophantineVerdict LiouvilleWitness RealConstant
    approx_interval condition_B_check convergents digit_stream_from_json exp_liouville_score
    liouville_exponent_trend scale_witness verify_witness_rows GevreyCutoff GevreyWitness
    TrigPoly check_lemma_product_bound estimate_decay exp_composition_derivatives make_cutoff
    sum_over_delta NormalFormData apply_gauge build_normal_form conjugation_residual
    gauge_derivative_growth LaplaceProfile Obstruction SingularSolution build_expliouville_J
    build_obstruction build_product build_prop51 build_prop52 build_rational_J
    fit_lower_bound_power locate_laplace_profile FourierField apply_tube_operator decay_report
    residual solve_by_division solve_single_tube solve_system Order SystemAnalysis SystemSpec
    Tube Verdict analyze average classify_system classify_vector decide sign_analysis
    TorusHypoError MalformedInput __version__
""".split()


def _fresh(args: list, cwd=TESTS, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter on this checkout's src/, with
    no thread variables inherited."""
    full = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    paths = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]
    full.update(PYTHONPATH=os.pathsep.join(filter(None, paths)), **env)
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, capture_output=True, env=full, cwd=cwd, timeout=300)


def _fresh_python(code: str, **env) -> str:
    proc = _fresh(["-c", code], **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode()


def _loaded_after(cases: list) -> list:
    """The heavy packages in sys.modules after the cases ran in-process, one
    after the other, in a fresh interpreter; each exits as its golden does."""
    code = f"""if True:
        import contextlib, io, json, sys
        from torus_hypo import cli
        codes = []
        for argv in {[_argv(case) for case in cases]!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        heavy = ("numpy", "scipy", "sympy", "mpmath")
        print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))
    """
    codes, loaded = json.loads(_fresh_python(code))
    assert codes == [_manifest()[case]["exit"] for case in cases]
    return loaded


def test_cli_import_loads_no_numeric_package():
    code = "import json, sys, torus_hypo.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(_fresh_python(code)))
    assert loaded.isdisjoint({"numpy", "scipy", "sympy", "mpmath"})
    assert "torus_hypo.system" not in loaded


def test_verdict_commands_load_neither_scipy_nor_sympy():
    cases = [case for case in CASES if case.split("-")[0] in ("classify", "diagnose", "normalform")]
    assert len(cases) == 3 * len(SPECS) + 1  # and classify-golden_ratio_s3
    loaded = _loaded_after(cases)
    assert "scipy" not in loaded and "sympy" not in loaded


def test_cf_loads_no_numpy():
    assert _loaded_after([case for case in CASES if case.startswith("cf-")]) == ["mpmath"]


def test_package_root_exports_resolve():
    code = f"""if True:
        import torus_hypo
        names = {EXPORTS!r}
        missing = [n for n in names if not hasattr(torus_hypo, n) or n not in dir(torus_hypo)]
        star = dict()
        exec("from torus_hypo import *", star)
        print(missing + [n for n in names if n[0] != "_" and n not in star])
    """
    assert _fresh_python(code).strip() == "[]"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_thread_cap_applies_before_numpy_loads():
    """Under TORUS_HYPO_THREADS=1 a command that loads numpy runs on one thread."""
    argv = ["classify", str(FIXTURES / "cond1.json")]
    code = f"""if True:
        import contextlib, io, sys
        from torus_hypo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main({argv!r})
        with open("/proc/self/status") as fh:
            threads = [line.split()[1] for line in fh if line.startswith("Threads:")]
        print("numpy" in sys.modules, threads[0])
    """
    assert _fresh_python(code, TORUS_HYPO_THREADS="1").split() == ["True", "1"]


@pytest.mark.parametrize("case", ["solve-solve_rhs", "singular-singular_expL"])
def test_reports_do_not_depend_on_the_thread_count(case, tmp_path):
    want = _manifest()[case]
    for threads in ("1", "2"):
        proc = _fresh(["-m", "torus_hypo.cli", *_argv(case)], tmp_path, TORUS_HYPO_THREADS=threads)
        assert proc.returncode == want["exit"], proc.stderr
        assert proc.stdout == (GOLDEN / f"{case}.json").read_bytes()
        artifact = tmp_path / ARTIFACTS[CASES[case][0]]
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == want["artifact_sha256"]



@pytest.mark.parametrize(
    "obj",
    [{}, [], [[], {}], {1: "int key"}, {"t": [[1, 2.5], [3, float("nan")]], "r": [{"x": "é"}, 1]}],
)
def test_piecewise_certificate_write_matches_json_dumps(obj):
    fh = io.StringIO()
    cli._write_json(obj, fh)
    assert fh.getvalue() == json.dumps(obj)


def test_canonical_json_renders_numpy_values_as_python_values():
    from torus_hypo.report import canonical_json

    values = [np.bool_(False), np.int64(-7), np.float64(0.1), np.float32(0.1), np.complex128(1j)]
    assert canonical_json(values) == canonical_json([v.item() for v in values])
    array = np.array([[1.5, np.nan], [-np.inf, 2.0]])
    assert canonical_json({"a": array}) == canonical_json({"a": array.tolist()})


#: one 8-point block of the rhs field (solve_spec has n = 1)
_BLOCK = {"xi": 1, "re": [0.0] * 8, "im": [0.0] * 8}
_RHS = {"format": "tff", "n": 1, "grid_size": 8, "blocks": [_BLOCK]}

#: case -> (what is malformed, the named field).  What is malformed is spec
#: fields over {"n": 1, "s": "2"} (run by classify), an rhs object (run by
#: solve on fixtures/solve_spec.json) or an argv ("@name" as in CASES).
MALFORMED = {
    "a-not-a-number": (("spec", {"tubes": [{"a": "abc", "b": "0"}]}), "tubes[0]: a:"),
    "s-zero-denominator": (("spec", {"s": "1/0", "tubes": [{"a": "1/2", "b": "0"}]}), "s:"),
    "b-list": (("spec", {"tubes": [{"a": "1/2", "b": [1, 2]}]}), "tubes[0]: b:"),
    "a-boolean": (("spec", {"tubes": [{"a": True, "b": "0"}]}), "tubes[0]: a:"),
    "b-boolean": (("spec", {"tubes": [{"a": "1/2", "b": {"cos": [True]}}]}), "tubes[0]: b:"),
    "a-nan": (("spec", {"tubes": [{"a": float("nan"), "b": "0"}]}), "tubes[0]: a:"),
    "b-inf": (("spec", {"tubes": [{"a": "1/2", "b": {"const": float("inf")}}]}), "tubes[0]: b:"),
    "s-inf": (("spec", {"s": float("inf"), "tubes": [{"a": "1/2", "b": "0"}]}), "s:"),
    "a-zero-digit": (("spec", {"tubes": [{"a": {"cf": "1,0,3"}, "b": "0"}]}), "tubes[0]: a:"),
    "cf-s-zero-denominator": (("argv", ["cf", "classify", "constant:2", "--s", "1/0"]), "--s:"),
    "cf-digits-not-integers": (("argv", ["cf", "convergents", "1,x"]), "digits:"),
    "cf-zero-digit": (("argv", ["cf", "convergents", "1,0,3"]), "digits:"),
    "rhs-no-n": (("rhs", {"format": "tff"}), "rhs: n:"),
    "rhs-short-block": (
        ("rhs", {**_RHS, "blocks": [{**_BLOCK, "re": [0.0, 1.0]}]}),
        "rhs: blocks[0]:",
    ),
    "rhs-fields-not-a-list": (("rhs", {"fields": 3}), "rhs: fields:"),
    "rhs-grid-not-a-number": (("rhs", {**_RHS, "grid_size": "x"}), "rhs: grid_size:"),
    "horizon-negative": (("argv", ["classify", "@cond1", "--horizon", "-3"]), "--horizon: -3"),
    "horizon-zero": (("argv", ["diagnose", "@ex63", "--horizon", "0"]), "--horizon: 0"),
    "cf-n-zero": (("argv", ["cf", "convergents", "constant:2", "--n", "0"]), "--n: 0"),
    "cf-n-negative": (("argv", ["cf", "convergents", "constant:2", "--n", "-1"]), "--n: -1"),
    "singular-grid-zero": (("argv", ["singular", "@singular_expL", "out.json", "--grid", "0"]), "--grid: 0"),
    "singular-grid-not-a-power-of-two": (
        ("argv", ["singular", "@singular_expL", "out.json", "--grid", "100000"]),
        "--grid: 100000",
    ),
    "singular-grid-too-large": (
        ("argv", ["singular", "@singular_expL", "out.json", "--grid", "65536"]),
        "--grid: 65536",
    ),
    "singular-field-cap-negative": (
        ("argv", ["singular", "@singular_expL", "out.json", "--field-cap", "-5"]),
        "--field-cap: -5",
    ),
    "singular-xi-max-negative": (
        ("argv", ["singular", "@singular_rationalJ", "out.json", "--xi-max", "-4"]),
        "--xi-max: -4",
    ),
    "solve-modes-zero": (
        ("argv", ["solve", "@solve_spec", "@solve_rhs", "u.json", "--modes", "0"]),
        "--modes: 0",
    ),
    "solve-modes-negative": (
        ("argv", ["solve", "@solve_spec", "@solve_rhs", "u.json", "--modes", "-3"]),
        "--modes: -3",
    ),
    "solve-precision-zero": (
        ("argv", ["solve", "@solve_spec", "@solve_rhs", "u.json", "--precision", "0"]),
        "--precision: 0",
    ),
    "cf-big-n-zero": (
        ("argv", ["cf", "condition-b", "constant:2", "--s", "2", "--big-n", "0"]),
        "--big-n: 0",
    ),
    "cf-big-n-past-n": (
        ("argv", ["cf", "condition-b", "constant:2", "--s", "2", "--n", "4", "--big-n", "5"]),
        "--big-n: 5",
    ),
    "cf-epsilon-negative": (
        ("argv", ["cf", "condition-b", "constant:2", "--s", "2", "--epsilon", "-1"]),
        "--epsilon: -1.0",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_the_field(case, tmp_path, capsys, monkeypatch):
    (kind, given), field = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{kind}.json"
    if kind == "argv":
        argv = [str(FIXTURES / f"{a[1:]}.json") if a[:1] == "@" else a for a in given]
    elif kind == "spec":
        path.write_text(json.dumps({"n": 1, "s": "2", **given}), encoding="utf-8")
        argv = ["classify", str(path)]
    elif kind == "rhs":
        path.write_text(json.dumps(given), encoding="utf-8")
        argv = ["solve", str(FIXTURES / "solve_spec.json"), str(path), str(tmp_path / "u.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} ")
    assert captured.err.count("\n") == 1


def test_convergents_past_the_int_str_limit(capsys):
    """Integers over 4300 digits are sized and rendered exactly."""
    from torus_hypo import diophantine as dio

    assert cli.main(["cf", "bounds", "factorial_pow10", "--n", "6"]) == 0
    lower = json.loads(capsys.readouterr().out)["body"]["lower"]
    cf = dio.ContinuedFraction(dio.digit_stream_from_json("factorial_pow10"))
    den = (cf.digit(7) + 2) * cf.exact_pair(6)[1]
    head, digits = lower.split("/")
    assert head == "1"
    assert 10 ** (len(digits) - 1) <= den < 10 ** len(digits)
    assert len(digits) > 4300
    assert int(digits[-18:]) == den % 10**18

    assert cli.main(["cf", "classify", "factorial_pow10", "--s", "2", "--n", "8"]) == 0
    assert cli.main(["classify", str(FIXTURES / "ex64_factorial.json"), "--horizon", "7"]) == 0


def test_golden_ratio_is_hypoelliptic_at_every_horizon(capsys):
    """The verdict rests on the stream's certificate, so no horizon changes
    it, and a horizon below the first evidence row gives an empty table."""
    spec = str(INPUTS / "golden_ratio_s3.json")
    for horizon in range(1, 21):
        for extra in ([], ["--mode", "smooth"]):
            assert cli.main(["classify", spec, "--horizon", str(horizon), *extra]) == 0
    assert cli.main(["cf", "classify", "constant:2", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["body"]["verdict"]["evidence"] == []


def test_single_tube_route_checks_the_rhs_field_count(tmp_path, capsys):
    """Two fields for three tubes are neither one field nor one per tube."""
    spec = {
        "n": 3,
        "s": "2",
        "tubes": [
            {"a": "1/2", "b": {"const": "1", "cos": ["1"]}},
            {"a": "1/3", "b": {"sin": ["1"]}},
            {"a": "1/5", "b": {"cos": ["1"]}},
        ],
    }
    block = {"xi": 1, "re": [0.0] * 64, "im": [0.0] * 64}
    field = {"format": "tff", "n": 3, "grid_size": 4, "blocks": [block]}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (tmp_path / "rhs.json").write_text(json.dumps({"fields": [field, field]}), encoding="utf-8")
    argv = ["solve", *(str(tmp_path / name) for name in ("spec.json", "rhs.json", "u.json"))]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the single-tube route needs 1 or 3 right-hand sides, got 2")
    assert not (tmp_path / "u.json").exists()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, report, digest = run_case(case, Path(tmp))
            (GOLDEN / f"{case}.json").write_bytes(report.encode("utf-8"))
            manifest[case] = {"exit": code, "artifact_sha256": digest}
            sys.stderr.write(f"{case}: exit {code}\n")
    with open(GOLDEN / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
