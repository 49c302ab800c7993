"""End-to-end CLI runs, checked byte for byte against golden outputs.

Each case calls ``cli.main`` in-process, once per test session (the
``golden_run`` fixture of ``conftest.py``), with a temporary working
directory, so the artifact paths that ``solve`` and ``singular`` echo are
fixed relative names.  ``tests/golden/<case>.json`` holds the report the
case prints, and ``tests/golden/manifest.json`` its exit code and the sha256
of its artifact.
After a deliberate change to the output, regenerate both with
``PYTHONPATH=src python tests/test_cli.py``.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_hypo import cli
from torus_hypo.solver import FourierField

from conftest import THREAD_VARS

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
        # the evidence stops at the last digit of a finite list
        "cf-classify-explicit": ["cf", "classify", "1,2,3", "--s", "2", "--n", "8"],
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
# the smooth scale: a = [0; 10^1!, 10^2!, ...] is Liouville, so NotHypoelliptic
CASES["classify-ex64_factorial-smooth"] = ["classify", "@ex64_factorial", "--s", "smooth"]

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
def test_output_matches_golden(case, golden_run):
    want = _manifest()[case]
    code, report, digest, _ = golden_run(case)
    assert code == want["exit"]
    assert report.encode("utf-8") == (GOLDEN / f"{case}.json").read_bytes()
    assert digest == want["artifact_sha256"]


def test_solve_recovers_manufactured_solution(golden_run):
    code, _, _, workdir = golden_run("solve-solve_rhs")
    assert code == 0
    u = FourierField.load_json(workdir / "u.json")
    u_true = FourierField.load_json(FIXTURES / "solve_u_true.json")
    assert u.xi.tolist() == u_true.xi.tolist()
    err = max(float(np.abs(u.take(xi) - u_true.take(xi)).max()) for xi in u.xi.tolist())
    assert err < 1e-14


def test_subprocess_smoke():
    from conftest import run_cli

    proc = run_cli("classify", "fixtures/cond1.json")
    assert proc.returncode == _manifest()["classify-cond1"]["exit"]
    assert proc.stdout == (GOLDEN / "classify-cond1.json").read_text(encoding="utf-8")
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# Cold start: what a fresh interpreter loads, and the thread count
# ---------------------------------------------------------------------------

#: the names the package root exported when it imported every module eagerly
EXPORTS = """
    ApproxInterval ContinuedFraction DiophantineVerdict LiouvilleWitness RealConstant
    approx_interval condition_B_check convergents digit_stream_from_json exp_liouville_score
    liouville_exponent_trend scale_witness verify_witness_rows GevreyCutoff GevreyWitness
    TrigPoly estimate_decay make_cutoff NormalFormData apply_gauge build_normal_form
    conjugation_residual LaplaceProfile SingularSolution build_obstruction
    fit_lower_bound_power locate_laplace_profile FourierField apply_tube_operator decay_report
    residual solve_by_division solve_single_tube solve_system Order SystemAnalysis SystemSpec
    Tube Verdict analyze average classify_system classify_vector decide sign_analysis
    TorusHypoError MalformedInput __version__
""".split()


def _fresh(
    args: list, cwd=TESTS, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env
) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter on this checkout's src/, with
    no thread variables inherited; stdout and stderr are captured unless
    given."""
    full = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    paths = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]
    full.update(PYTHONPATH=os.pathsep.join(filter(None, paths)), **env)
    cmd = [sys.executable, *args]
    return subprocess.run(cmd, stdout=stdout, stderr=stderr, env=full, cwd=cwd, timeout=300)


def _fresh_python(code: str, cwd=TESTS, **env) -> str:
    proc = _fresh(["-c", code], cwd, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.decode()


def _loaded_after(cases: list, cwd=TESTS, heavy=("numpy", "scipy", "sympy", "mpmath", "orjson")) -> list:
    """The ``heavy`` modules loaded after the cases ran in-process, one after
    the other, in a fresh interpreter in ``cwd``; each exits as its golden
    does.  A module counts when it is in sys.modules, and scipy also when
    the solver loaded its LAPACK binding, which stays out of sys.modules."""
    code = f"""if True:
        import contextlib, io, json, sys
        from torus_hypo import cli
        codes = []
        for argv in {[_argv(case) for case in cases]!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        solver = sys.modules.get("torus_hypo.solver")
        lapack = solver is not None and solver._flapack.cache_info().currsize > 0
        print(json.dumps([codes, [m for m in {heavy!r} if m in sys.modules or m == "scipy" and lapack]]))
    """
    codes, loaded = json.loads(_fresh_python(code, cwd))
    assert codes == [_manifest()[case]["exit"] for case in cases]
    return loaded


def test_cli_import_loads_no_numeric_package():
    code = "import json, sys, torus_hypo.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = set(json.loads(_fresh_python(code)))
    assert loaded.isdisjoint({"numpy", "scipy", "sympy", "mpmath", "orjson"})
    assert "torus_hypo.system" not in loaded


def test_verdict_commands_load_neither_scipy_nor_sympy():
    cases = [case for case in CASES if case.split("-")[0] in ("classify", "diagnose", "normalform")]
    assert len(cases) == 3 * len(SPECS) + 2  # and the two classify cases past SPECS
    loaded = _loaded_after(cases)
    assert "scipy" not in loaded and "sympy" not in loaded and "orjson" not in loaded


def _solve_loads(tmp_path, output: str, rhs: str | None = None) -> list:
    """The ``scipy.linalg``, ``numpy.f2py``, ``numpy.testing`` and orjson
    modules loaded by a fresh-interpreter solve of solve_rhs (or of ``rhs``,
    the same field in another file) into ``output``."""
    argv = _argv("solve-solve_rhs")
    argv[2:] = [rhs or argv[2], output]
    code = f"""if True:
        import contextlib, io, json, sys
        from torus_hypo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        heavy = ("scipy.linalg", "numpy.f2py", "numpy.testing", "orjson")
        print(json.dumps([code, [m for m in heavy if m in sys.modules]]))
    """
    proc = _fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == _manifest()["solve-solve_rhs"]["exit"]
    assert (tmp_path / output).is_file()
    return loaded


def test_solve_loads_no_scipy_linalg_package(tmp_path):
    """The banded solve reaches LAPACK through scipy's binding alone: the
    ``scipy.linalg`` package, whose import pulls in ``numpy.f2py`` and
    ``numpy.testing``, stays unloaded.  The JSON rhs read and the JSON field
    write load orjson."""
    assert _solve_loads(tmp_path, ARTIFACTS["solve"]) == ["orjson"]


def test_solve_to_binary_field_loads_no_orjson(tmp_path):
    """orjson parses JSON right-hand sides and prints the floats of JSON
    artifacts only: a binary rhs solved into a binary field is read and
    written without it, and a JSON rhs loads it at the read."""
    FourierField.load_json(FIXTURES / "solve_rhs.json").save_binary(tmp_path / "rhs.tff")
    assert _solve_loads(tmp_path, "u.tff", str(tmp_path / "rhs.tff")) == []
    assert _solve_loads(tmp_path, "u2.tff") == ["orjson"]


def test_cf_loads_no_numpy():
    assert _loaded_after([case for case in CASES if case.startswith("cf-")]) == []


def test_no_verdict_cf_table_or_witness_check_loads_mpmath(tmp_path):
    """The Diophantine layer works in exact integers and doubles: no verdict,
    no cf command and no witness check (singular_expL) reads mpmath."""
    cases = [case for case in CASES if case.split("-")[0] in ("classify", "diagnose", "cf")]
    assert _loaded_after([*cases, "singular-singular_expL"], tmp_path, ("mpmath",)) == []


def test_exact_b_verdicts_load_no_numpy():
    """Every fixture's b is exact, and exact sign analysis is pure Python."""
    cases = [f"{command}-{stem}" for command in ("classify", "diagnose") for stem in SPECS]
    assert "numpy" not in _loaded_after(cases)


def test_float_b_verdicts_load_no_numpy(tmp_path):
    """A float b is decided on the dyadic rational it holds, in pure Python,
    whether it changes sign or touches zero."""
    tubes = [{"a": "1/2", "b": {"sin": [0.5]}}, {"a": "1/3", "b": {"const": 0.1, "cos": [-0.1]}}]
    (tmp_path / "spec.json").write_text(json.dumps({"n": 2, "s": "2", "tubes": tubes}), encoding="utf-8")
    code = """if True:
        import contextlib, io, json, sys
        from torus_hypo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main([command, "spec.json"]) for command in ("classify", "diagnose")]
        print(json.dumps([codes, "numpy" in sys.modules]))
    """
    assert json.loads(_fresh_python(code, tmp_path)) == [[0, 0], False]


def test_verdicts_that_read_no_continued_fraction_load_no_numeric_package():
    """cond1 and solve_spec are decided by a one-signed b, and J is empty
    for singular_allsign, so no digit stream is read as a number."""
    stems = ("cond1", "solve_spec", "singular_allsign")
    assert _loaded_after([f"{c}-{stem}" for c in ("classify", "diagnose") for stem in stems]) == []


def test_cf_convergents_load_no_numeric_package():
    """Convergents under the digit cap are exact: no log table is built."""
    assert _loaded_after(["cf-convergents-constant2", "cf-convergents-explicit"]) == []


def test_normalform_loads_no_numeric_package():
    """The gauge and its conjugation row are coefficient arithmetic, for
    rational, float and digit-defined real parts alike."""
    cases = [case for case in CASES if case.startswith("normalform-")]
    assert len(cases) == len(SPECS)
    assert _loaded_after(cases) == []


def test_singular_on_rational_averages_loads_no_mpmath(tmp_path):
    """singular_rationalJ builds Prop51 and a RationalJ lift: no digit-defined
    average, so nothing reads mpmath; the certificate write loads orjson."""
    assert _loaded_after(["singular-singular_rationalJ"], tmp_path) == ["numpy", "orjson"]


def test_singular_on_prop52_tubes_loads_neither_mpmath_nor_numpy_ma(tmp_path):
    """The cutoff row is derived in floats, digit-defined averages are read
    as exact rationals, and rung sets are intersected in Python, so the
    Prop52 builds load neither mpmath nor numpy.ma (which np.unique pulls
    in)."""
    cases = ["singular-crit9_three_tube", "singular-singular_allsign"]
    heavy = ("numpy", "numpy.ma", "scipy", "mpmath", "orjson")
    assert _loaded_after(cases, tmp_path, heavy) == ["numpy", "orjson"]


def test_division_solve_and_normalform_on_digit_defined_averages_load_no_mpmath(tmp_path):
    """A digit-defined average is read as a float through one exact rational;
    the JSON field write loads orjson."""
    assert _loaded_after(["solve-division", "normalform-ex63"], tmp_path) == ["numpy", "orjson"]


def test_runtime_dependencies_are_what_the_commands_load(tmp_path):
    """The runtime dependencies in pyproject.toml are exactly the packages
    that the golden commands load, run one after another: numpy, scipy and
    orjson.  mpmath, which only the tests' reference transform
    GevreyCutoff.fourier_magnitudes_hiprec reads, is in the test extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0] for req in requirements}

    runtime = names(project["dependencies"])
    assert runtime == {"numpy", "scipy", "orjson"}
    assert "mpmath" in names(project["optional-dependencies"]["test"])
    assert set(_loaded_after(list(CASES), tmp_path)) == runtime


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


@pytest.mark.parametrize("case", ["solve-solve_rhs", "singular-singular_expL"])
def test_reports_do_not_depend_on_the_thread_count(case, tmp_path):
    want = _manifest()[case]
    for threads in (None, "1", "2"):  # None: no thread variable, the CLI's own default
        env = {} if threads is None else {"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        proc = _fresh(["-m", "torus_hypo.cli", *_argv(case)], tmp_path, **env)
        assert proc.returncode == want["exit"], proc.stderr
        assert proc.stdout == (GOLDEN / f"{case}.json").read_bytes()
        artifact = tmp_path / ARTIFACTS[CASES[case][0]]
        assert hashlib.sha256(artifact.read_bytes()).hexdigest() == want["artifact_sha256"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("given", [None, "2"], ids=["unset", "two"])
def test_blas_runs_on_one_thread_unless_the_variable_is_set(given, tmp_path):
    """A solve loads numpy's OpenBLAS and scipy's own; with no thread
    variable set, main leaves the process on its one thread, and an
    OPENBLAS_NUM_THREADS that is set is kept."""
    if given and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its thread count at the CPU count")
    code = f"""if True:
        import contextlib, io, json, os, sys
        from torus_hypo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({_argv("solve-solve_rhs")!r})
        lapack = sys.modules["torus_hypo.solver"]._flapack.cache_info().currsize
        print(json.dumps([code, lapack, len(os.listdir("/proc/self/task"))]))
    """
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    code, lapack, threads = json.loads(_fresh_python(code, tmp_path, **env))
    assert code == _manifest()["solve-solve_rhs"]["exit"] and lapack == 1
    assert threads == 1 if given is None else threads > 1


# ---------------------------------------------------------------------------
# The end of a command: cli.run flushes, then skips interpreter teardown
# ---------------------------------------------------------------------------

COND1 = str(FIXTURES / "cond1.json")


def test_large_report_on_a_pipe_arrives_whole(tmp_path):
    """A report far past a pipe's buffer reaches the reader whole before the
    process ends, the same bytes as its ``--out`` copy."""
    out = tmp_path / "report.json"
    argv = ["cf", "convergents", "constant:2", "--n", "1000", "--out", str(out)]
    proc = _fresh(["-m", "torus_hypo.cli", *argv], PYTHONUNBUFFERED="")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert len(proc.stdout) >= 256 * 1024
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["classify"], 2)], ids=["help", "usage"])
def test_argparse_exits_keep_their_code_and_text(argv, code, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    # a buffered stdout, which run must flush before the process ends
    proc = _fresh(["-m", "torus_hypo.cli", *argv], COLUMNS="80", PYTHONUNBUFFERED="")
    assert proc.returncode == code
    assert proc.stdout.decode() == captured.out
    assert proc.stderr.decode() == captured.err


def test_main_returns_its_code_and_leaves_the_interpreter_running():
    code = f"""if True:
        import contextlib, io
        from torus_hypo import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["classify", {COND1!r}])
        print(type(code).__name__, code)
    """
    assert _fresh_python(code).split() == ["int", str(_manifest()["classify-cond1"]["exit"])]


def test_an_unhandled_exception_prints_its_traceback_and_exits_1():
    proc = _fresh(["-c", "from torus_hypo import cli; cli.main = lambda argv=None: 1 / 0; cli.run()"])
    assert proc.returncode == 1
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("Traceback") and err.endswith("ZeroDivisionError: division by zero\n")


def test_console_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(TESTS.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"torus-hypo": "torus_hypo.cli:run"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["classify", COND1], "1"),
        (["classify", COND1], ""),
        # argparse drops its own write error; the parser writes its help
        # text as a report is written, so both modes fail in main
        (["--help"], ""),
        (["--help"], "1"),
        (["singular", "--help"], "1"),
    ],
    ids=["unbuffered", "buffered", "help-buffered", "help-unbuffered", "subcommand-help-unbuffered"],
)
def test_a_full_stdout_exits_2_naming_stdout(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _fresh(["-m", "torus_hypo.cli", *argv], stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_on_stdout_exits_2_naming_stdout(unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _fresh(["-m", "torus_hypo.cli", "classify", COND1], stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.decode() == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_error_on_a_full_stderr_keeps_its_exit_code(tmp_path):
    with open("/dev/full", "wb") as full:
        proc = _fresh(["-m", "torus_hypo.cli", "classify", str(tmp_path / "missing.json")], stderr=full)
    assert proc.returncode == 2
    assert proc.stdout == b""


def test_no_command_leaves_work_to_interpreter_teardown(tmp_path):
    """Each command kind, run in-process in a fresh interpreter, registers no
    ``atexit`` handler and closes every file it opens (an unclosed file warns
    when it is freed), so ending the process with ``os._exit`` loses nothing."""
    spec, rhs = str(FIXTURES / "solve_spec.json"), str(FIXTURES / "solve_rhs.json")
    runs = [
        ["classify", COND1, "--out", "report.json"],
        ["diagnose", str(FIXTURES / "ex64_factorial.json")],
        ["cf", "convergents", "constant:2", "--out", "cf.json"],
        ["normalform", spec],
        ["solve", spec, rhs, "u.json"],
        ["solve", spec, rhs, "u.tff"],
        ["solve", spec, "u.tff", "v.json"],
        ["singular", str(FIXTURES / "singular_expL.json"), "out.json"],
        ["singular", str(FIXTURES / "singular_rationalJ.json"), "out.json"],
    ]
    code = f"""if True:
        import atexit, contextlib, gc, io, json, warnings
        from torus_hypo import cli
        rows = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for argv in {runs!r}:
                before = atexit._ncallbacks()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                gc.collect()
                rows.append([code, atexit._ncallbacks() - before])
        print(json.dumps([rows, [str(w.message) for w in caught]]))
    """
    rows, warned = json.loads(_fresh_python(code, tmp_path))
    assert rows == [[0, 0]] * len(runs)
    assert warned == []


def test_tracer_names_resolve():
    """Every function coldbench's tracer wraps exists, so a traced run lists
    no missing name."""
    import importlib
    import importlib.util
    import pkgutil

    import torus_hypo

    spec = importlib.util.spec_from_file_location("tracer", TESTS.parent / "coldbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for info in pkgutil.iter_modules(torus_hypo.__path__, "torus_hypo."):
        importlib.import_module(info.name)
    names = {n for layer in tracer.LAYERS.values() for n in layer}
    names |= {name for _, name, _ in tracer.COUNTS}
    missing = []
    for name in sorted(names):
        module, qualname = name.split(":")
        holder = sys.modules.get(module)
        for attr in qualname.split("."):
            holder = getattr(holder, attr, None)
        if holder is None:
            missing.append(name)
    assert missing == []


def test_tracer_counts_solved_frequencies():
    """The tracer's ``solver.xi_solved`` count of a result is the number of
    frequencies that solve returns, on both routes."""
    import importlib.util

    from torus_hypo.solver import solve_by_division, solve_single_tube
    from torus_hypo.system import SystemSpec

    spec = importlib.util.spec_from_file_location("tracer", TESTS.parent / "coldbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    counts = {name: count for metric, name, count in tracer.COUNTS if metric == "solver.xi_solved"}
    modes = {(1, xi): 1.0 for xi in (-3, -1, 2, 5, 8)}
    f = FourierField.from_modes(1, 16, modes)
    damped = SystemSpec.from_json({"n": 1, "s": "2", "tubes": [{"a": "1/3", "b": "-1"}]})
    real = SystemSpec.from_json({"n": 1, "s": "2", "tubes": [{"a": {"cf": "constant:2"}, "b": "0"}]})
    results = {
        "torus_hypo.solver:solve_single_tube": solve_single_tube(1, damped, f),
        "torus_hypo.solver:solve_by_division": solve_by_division(real, [f]),
    }
    assert set(counts) == set(results)
    for name, result in results.items():
        assert counts[name](result) == len(modes), name


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[], {}],
        {1: "int key"},
        {"t": [[1, 2.5], [3, float("nan")]], "r": [{"x": "é"}, 1]},
        {"b": [{"z": [0.1, -2e-300], "a": []}, {"m": [[1.5], [], [[2, {"k": 1e300}]]]}], "a": 3.0},
    ],
)
def test_piecewise_certificate_write_matches_json_dumps(obj):
    from torus_hypo.report import write_json

    fh = io.StringIO()
    write_json(obj, fh)
    assert fh.getvalue() == json.dumps(obj, separators=(",", ":"), sort_keys=True)


def _finite_random_bits(count: int) -> list:
    """``count`` finite doubles drawn from uniform 64-bit patterns (seeded)."""
    values = np.random.default_rng(29).integers(0, 2**64, 2 * count, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)][:count].tolist()


#: float64 vectors that must be written so that each float parses back to
#: its bits
FLOAT_VECTORS = {
    "empty": [],
    "all-plus-zero": [0.0] * 9,
    "all-minus-zero": [-0.0] * 9,
    "zero-runs-everywhere": [0.0, 0.0, 1.5, 0.0, -0.0, 0.0, 0.0, -2.25, 3.0, 0.0, 0.0, 0.0],
    "leading-zeros": [0.0, 0.0, 0.0, 2.5],
    "single-zero": [0.0],
    "single-value": [-7.0],
    "subnormals": [5e-324, 0.0, -5e-324, 2.2250738585072014e-308 / 3, 0.0],
    "exponent-form": [1e16, 0.0, 1e-5, -2e-300, 1.7976931348623157e308, 0.0, 123456789012345680.0],
    "non-finite": [float("nan"), 0.0, float("inf"), -float("inf"), 0.0],
    "dense-random": np.random.default_rng(20).standard_normal(1000).tolist(),
    # where orjson's layout differs from repr's: positional 1e-5 <= |x| < 1e-4,
    # one-digit negative exponents, positive exponents
    "format-boundaries": [
        sign * x
        for x in (
            1e-5, np.nextafter(1e-4, 0), 1e-4, 1.25e-5, 1e-9, np.nextafter(1e-9, 0), 1e-10,
            np.nextafter(1e16, 0), 1e16, np.nextafter(1e100, 0), 1e100, 1.7976931348623157e308, 5e-324,
        )
        for sign in (1.0, -1.0)
    ],
    "random-bits": _finite_random_bits(65536),
}


def _written(obj) -> str:
    from torus_hypo.report import write_json

    fh = io.StringIO()
    write_json(obj, fh)
    return fh.getvalue()


@pytest.mark.parametrize("case", sorted(FLOAT_VECTORS))
def test_float_vector_parses_back_to_its_bits(case):
    """A float64 vector leaf is written as orjson's text of it, or as the C
    encoder's if it holds NaN or an infinity, and parses back to its bits,
    -0.0 keeping its sign, also inside a container and when the vector is a
    strided view (the real part of a complex block)."""
    import orjson

    values = np.array(FLOAT_VECTORS[case], dtype=float)
    want = values.tolist()
    text = _written(values)
    if np.isfinite(values).all():
        assert text == orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    else:
        assert text == json.dumps(want, separators=(",", ":"))
    assert _same(json.loads(text), want)
    assert _same(json.loads(_written({"b": [{"re": values}], "a": 1})), {"a": 1, "b": [{"re": want}]})
    block = np.empty(values.size, dtype=complex)
    block.real, block.imag = values, 1.0
    assert _written(block.real) == text


def test_orjson_text_of_the_format_boundaries_is_pinned():
    """orjson 3.8's layout of the floats where it differs from repr's; a
    release that lays them out otherwise changes every artifact digest, so
    it fails here first."""
    assert _written(np.array(FLOAT_VECTORS["format-boundaries"])) == (
        "[0.00001,-0.00001,0.00009999999999999999,-0.00009999999999999999,0.0001,-0.0001,"
        "0.0000125,-0.0000125,1e-9,-1e-9,9.999999999999999e-10,-9.999999999999999e-10,"
        "1e-10,-1e-10,9999999999999998.0,-9999999999999998.0,1e16,-1e16,"
        "9.999999999999998e99,-9.999999999999998e99,1e100,-1e100,"
        "1.7976931348623157e308,-1.7976931348623157e308,5e-324,-5e-324]"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, 0.0, 0.0, -0.0]), st.floats(allow_nan=True, width=64)),
        max_size=60,
    )
)
def test_float_vector_write_matches_json_dumps_on_mixed_vectors(values):
    """The written vector parses to the floats of json.dumps' text, bit for bit."""
    want = json.loads(json.dumps(values, separators=(",", ":")))
    assert _same(json.loads(_written(np.array(values, dtype=float))), want)


def test_non_float_vector_is_refused():
    with pytest.raises(TypeError, match="int64"):
        _written(np.arange(3))


def _as_lists(obj):
    """``obj`` with each float vector as its list and each iterator as a list."""
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list) or hasattr(obj, "__next__"):
        return [_as_lists(v) for v in obj]
    return obj


def _parses_as_json_dumps(text: str, obj) -> bool:
    """``text`` parses to the object that json.dumps' text of ``obj`` (its
    vectors and iterators as lists) parses to, each float bit for bit."""
    want = json.dumps(_as_lists(obj), separators=(",", ":"), sort_keys=True)
    return _same(json.loads(text), json.loads(want))


@pytest.mark.parametrize("batch", ["default", "small"])
def test_batched_write_of_every_float_vector_matches_json_dumps(batch):
    """Every FLOAT_VECTORS case at once, as sibling leaves and as a list (and
    an iterator) of blocks, with zero runs at a vector's ends and a NaN
    vector, which the C encoder writes, between finite ones, parses to
    json.dumps' values bit for bit.  Each block holds a vector's first 1000
    floats ("default") or its first 9 ("small": many short vectors, so
    most of the text is the separators between them)."""
    size = 1000 if batch == "default" else 9
    vectors = {case: np.array(values, dtype=float) for case, values in FLOAT_VECTORS.items()}
    zeros = np.zeros(19)
    tail = np.concatenate([[1.5, -2.0], zeros])  # a zero run at the end of a vector
    head = np.concatenate([zeros, [3.25]])  # and at the start of the next
    blocks = [{"re": v[:size], "im": v[size - 1 :: -1].copy(), "xi": k} for k, v in enumerate(vectors.values())]
    blocks += [{"re": tail, "im": head, "xi": -1}, {"re": np.array([1.0, np.nan]), "im": tail, "xi": -2}]
    obj = {"leaves": vectors, "blocks": blocks, "lazy": iter(blocks[-4:]), "n": 3}
    assert _parses_as_json_dumps(_written(obj), {**obj, "lazy": blocks[-4:]})


def test_write_holds_one_vector_of_text_at_a_time():
    """Each vector's text is written before the next is made: writing a
    field of 48 blocks, made one at a time, peaks under 8x the text of one
    of its 96 vectors, never near the whole document.  One vector's text
    costs about 4.3x its length at its peak (orjson's bytes object holds
    262 KB for these 80 KB of text, and the str is one more copy), beside
    the block's arrays."""
    import tracemalloc

    from torus_hypo.report import write_json

    class Sink(io.TextIOBase):
        size = 0

        def write(self, text):
            self.size += len(text)
            return len(text)

    size = 4096
    rng = np.random.default_rng(5)
    vector = len(_written(rng.standard_normal(size)))
    blocks = ({"xi": k, "re": rng.standard_normal(size), "im": rng.standard_normal(size)} for k in range(48))
    sink = Sink()
    tracemalloc.start()
    try:
        write_json({"format": "tff", "blocks": blocks}, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.size > 96 * vector * 0.95
    assert peak < 8 * vector, (peak, vector)


def _same(a, b) -> bool:
    """Equal JSON objects, each float compared by its bits (``hex``)."""
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _coldbench_division_rhs(path: Path) -> None:
    """A two-field right-hand side as coldbench's solve.division kind writes
    it (n = 2, grid 16, |xi| <= 96; about 4 MB of repr floats)."""
    sys.path.insert(0, str(TESTS.parent / "coldbench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.pop(0)
    u_true = workloads._u_true(np.random.default_rng(2), 2, 16, 96, 7)
    fields = [workloads.apply_tube(u_true, j, alpha, "0") for j, alpha in enumerate((0.38, 0.12))]
    workloads._write_json(path, {"fields": [checks.field_json(2, 16, f) for f in fields]})


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")) + ["coldbench_division_rhs"])
def test_native_read_gives_the_objects_of_json_load(name, tmp_path):
    """The rhs reader parses with orjson wherever that gives json.load's
    objects, and with json elsewhere: every fixture (the ones holding long
    digit runs take json) and a coldbench division rhs, which takes orjson."""
    path = FIXTURES / f"{name}.json"
    if name == "coldbench_division_rhs":
        path = tmp_path / "rhs.json"
        _coldbench_division_rhs(path)
        assert not cli._holds_long_integer(path.read_bytes())
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    assert _same(cli._read_json(str(path), native=True), want)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80).map(lambda b: b.translate(bytes(b"0123456789012 .-" * 16))))
def test_long_integer_scan_matches_its_definition(raw):
    """A run of 19 or more digits not after a digit or a ".", also across the
    edges of the scan's windows (8 bytes here)."""
    import re

    want = re.search(rb"(?:^|[^0-9.])[0-9]{19}", raw) is not None
    window, cli._SCAN_WINDOW = cli._SCAN_WINDOW, 8
    try:
        assert cli._holds_long_integer(raw) == want
    finally:
        cli._SCAN_WINDOW = window


_NUMBERS = b'"xi": 1, "re": [%s, 0, 0, 0, 0, 0, 0, 0], "im": [0, 0, 0, 0, 0, 0, 0, 0]'
_RHS_TEXT = b'{"format": "tff", "n": 1, "grid_size": 8, "meta": {%s}, "blocks": [{%s}]}'


#: rhs files that orjson 3.8 reads otherwise than json, or refuses
NATIVE_EDGES = {
    "nan": (_RHS_TEXT % (b"", _NUMBERS % b"NaN"), 2),
    "infinity": (_RHS_TEXT % (b"", _NUMBERS % b"-Infinity"), 2),
    "past-the-double-range": (_RHS_TEXT % (b"", _NUMBERS % b"1e400"), 2),
    "integer-past-64-bits": (_RHS_TEXT % (b"", _NUMBERS % b"100000000000000000000000"), 0),
    "xi-past-64-bits": (
        _RHS_TEXT % (b"", _NUMBERS.replace(b'"xi": 1', b'"xi": 100000000000000000000000') % b"1"),
        2,
    ),
    "negative-past-63-bits": (_RHS_TEXT % (b'"k": -9223372036854775809', _NUMBERS % b"1"), 0),
    "bom": (b"\xef\xbb\xbf" + _RHS_TEXT % (b"", _NUMBERS % b"1"), 2),
    "lone-surrogate": (_RHS_TEXT % (b'"k": "\\ud800"', _NUMBERS % b"1"), 0),
    "crlf-and-a-bad-token": (_RHS_TEXT.replace(b", ", b",\r\n") % (b"", _NUMBERS % b"1.5.0"), 2),
    "not-utf8": (_RHS_TEXT % (b'"\xff": 1', _NUMBERS % b"1"), 2),
}


@pytest.mark.parametrize("case", sorted(NATIVE_EDGES))
def test_native_read_ends_as_the_json_read(case, tmp_path, capsys, monkeypatch):
    """Each input gives the exit code, report and message it gives when json
    reads it (the reader before orjson), including the line and column of a
    JSON error in a CRLF file."""
    raw, code = NATIVE_EDGES[case]
    path = tmp_path / "rhs.json"
    path.write_bytes(raw)
    argv = ["solve", str(FIXTURES / "solve_spec.json"), str(path), str(tmp_path / "u.json")]
    monkeypatch.chdir(tmp_path)
    runs = []
    for native in (True, False):
        if not native:
            monkeypatch.setattr(cli, "_holds_long_integer", lambda raw: True)
        runs.append((cli.main(argv), *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    if code:
        assert runs[0][2].startswith("error: rhs: ") and runs[0][2].count("\n") == 1
    try:  # the read before orjson: json.load on the file opened as text
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    except json.JSONDecodeError as exc:
        assert runs[0][2] == f"error: rhs: {path} is not valid JSON: {exc}\n"
    except UnicodeDecodeError:
        assert case == "not-utf8"


@pytest.mark.parametrize(
    "tube, top, route",
    [
        ({"a": "0", "b": "1e-300"}, 1e10, "single-tube"),
        ({"a": {"cf": "constant:29"}, "b": "0"}, 1e307, "division"),
    ],
    ids=["single-tube", "division"],
)
def test_solution_past_the_float_range_is_refused(tube, top, route, tmp_path, capsys):
    """A finite right-hand side whose solution overflows (damping 1e-300, or
    a divisor of 0.034 against 1e307) exits 2 naming rhs and the ξ, with no
    numpy warning, instead of writing a field of infinities and NaN."""
    spec, data = tmp_path / "spec.json", tmp_path / "rhs.json"
    spec.write_text(json.dumps({"n": 1, "s": "2", "tubes": [tube]}), encoding="utf-8")
    field = {**_RHS, "blocks": [{**_BLOCK, "re": [top] + [0.0] * 7}]}
    data.write_text(json.dumps({"fields": [field]} if route == "division" else field), encoding="utf-8")
    assert cli.main(["solve", str(spec), str(data), str(tmp_path / "u.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: rhs: the solution at xi = 1 passes the float range; scale the right-hand side down\n"
    )


def test_canonical_json_renders_numpy_values_as_python_values():
    from torus_hypo.report import canonical_json

    values = [np.bool_(False), np.int64(-7), np.float64(0.1), np.float32(0.1), np.complex128(1j)]
    assert canonical_json(values) == canonical_json([v.item() for v in values])
    array = np.array([[1.5, np.nan], [-np.inf, 2.0]])
    assert canonical_json({"a": array}) == canonical_json({"a": array.tolist()})


#: one 8-point block of the rhs field (solve_spec has n = 1)
_BLOCK = {"xi": 1, "re": [0.0] * 8, "im": [0.0] * 8}
_RHS = {"format": "tff", "n": 1, "grid_size": 8, "blocks": [_BLOCK]}


def _tff_listing_xi_twice() -> bytes:
    """A TFF file whose header lists xi = 2 for both of its blocks."""
    raw = FourierField.from_modes(1, 8, {(1, 2): 1.0, (1, 3): 1.0}).to_bytes()
    return raw[:56] + raw[48:56] + raw[64:]


def _tff_holding_nan() -> bytes:
    """A TFF file whose xi = 3 block has a NaN real part."""
    raw = FourierField.from_modes(1, 8, {(1, 2): 1.0, (1, 3): 1.0}).to_bytes()
    at = 64 + 16 * 8 + 16 * 5  # block 1, coefficient 5
    return raw[:at] + struct.pack("<d", float("nan")) + raw[at + 8 :]


#: a real part 1/2 + cos t, whose average is 1/2
_COS_A = {"const": "1/2", "cos": ["1"]}


def _witness(row: dict) -> dict:
    return {"delta": 1, "pairs": [row]}


def _fixture_with(stem: str, edit) -> dict:
    """The spec fixture ``stem`` after ``edit`` has changed it in place."""
    spec = json.loads((FIXTURES / f"{stem}.json").read_text(encoding="utf-8"))
    edit(spec)
    return spec


#: case -> (what is malformed, the named field).  What is malformed is spec
#: fields over {"n": 1, "s": "2"} (run by classify, or by singular for
#: "singular-spec"), an rhs object or TFF
#: bytes (run by solve on fixtures/solve_spec.json), the bytes of a spec or
#: JSON rhs file, or an argv ("@name" as in CASES; relative paths are inside
#: an empty working directory).  "{path}" in the field is the input's path.
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
    "b-unknown-key": (
        ("spec", {"tubes": [{"a": "1/3", "b": {"const": "1", "sine": ["1"]}}]}),
        "tubes[0]: b: unknown key",
    ),
    "a-unknown-key": (
        ("spec", {"tubes": [{"a": {"const": "1/3", "cosine": ["1"]}, "b": "1"}]}),
        "tubes[0]: a: unknown key",
    ),
    "tube-unknown-key": (
        ("spec", {"tubes": [{"a": "1/3", "bb": {"const": "1"}}]}),
        "tubes[0]: unknown key",
    ),
    "spec-unknown-key": (("spec", {"tubes": [{"a": "1/3", "b": "1"}], "tube": []}), "unknown key"),
    "cf-s-zero-denominator": (("argv", ["cf", "classify", "constant:2", "--s", "1/0"]), "--s:"),
    "cf-digits-not-integers": (("argv", ["cf", "convergents", "1,x"]), "digits:"),
    "cf-zero-digit": (("argv", ["cf", "convergents", "1,0,3"]), "digits:"),
    "rhs-no-n": (("rhs", {"format": "tff"}), "rhs: n:"),
    "rhs-short-block": (
        ("rhs", {**_RHS, "blocks": [{**_BLOCK, "re": [0.0, 1.0]}]}),
        "rhs: blocks[0]:",
    ),
    "rhs-fields-not-a-list": (("rhs", {"fields": 3}), "rhs: fields:"),
    "rhs-xi-not-an-integer": (("rhs", {**_RHS, "blocks": [{**_BLOCK, "xi": 2.5}]}), "rhs: blocks[0]: xi:"),
    "rhs-xi-boolean": (("rhs", {**_RHS, "blocks": [{**_BLOCK, "xi": True}]}), "rhs: blocks[0]: xi:"),
    "rhs-xi-repeated": (("rhs", {**_RHS, "blocks": [_BLOCK, {**_BLOCK, "re": [1.0] * 8}]}), "rhs: blocks[1]: xi:"),
    "rhs-tff-xi-repeated": (("tff", _tff_listing_xi_twice()), "rhs: xi: 2"),
    "rhs-inf": (("rhs", {**_RHS, "blocks": [{**_BLOCK, "im": [float("inf")] * 8}]}), "rhs: blocks[0]:"),
    "rhs-tff-nan": (("tff", _tff_holding_nan()), "rhs: xi: 3"),
    "singular-out-unwritable": (
        ("argv", ["singular", "@singular_expL", "missing/out.json"]),
        "cannot write missing/out.json:",
    ),
    "solve-out-unwritable-json": (
        ("argv", ["solve", "@solve_spec", "@solve_rhs", "missing/u.json"]),
        "cannot write missing/u.json:",
    ),
    "solve-out-unwritable-tff": (
        ("argv", ["solve", "@solve_spec", "@solve_rhs", "missing/u.tff"]),
        "cannot write missing/u.tff:",
    ),
    "classify-out-unwritable": (
        ("argv", ["classify", "@cond1", "--out", "missing/r.json"]),
        "cannot write missing/r.json:",
    ),
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
    "singular-xi-max-negative": (
        ("argv", ["singular", "@singular_rationalJ", "out.json", "--xi-max", "-4"]),
        "--xi-max: -4",
    ),
    "s-analytic": (("spec", {"s": "analytic", "tubes": [{"a": "1/2", "b": "0"}]}), "s:"),
    "witness-not-an-object": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": "abc"}),
        "vector_witness:",
    ),
    "witness-unknown-key": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": {"delta": 1, "pair": []}}),
        "vector_witness: unknown key",
    ),
    "witness-row-unknown-key": (
        (
            "spec",
            {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": _witness({"r": ["-1"], "q": "2", "s": "2"})},
        ),
        "vector_witness: pairs[0]: unknown key",
    ),
    "witness-pairs-string": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": {"delta": 1, "pairs": "12"}}),
        "vector_witness: pairs:",
    ),
    "witness-r-string": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": _witness({"r": "12", "q": "2"})}),
        "vector_witness: pairs[0]: r:",
    ),
    "a-cf-unknown-key": (
        ("spec", {"tubes": [{"a": {"cf": "constant:2", "digits": "1,2"}, "b": "0"}]}),
        "tubes[0]: a: unknown key",
    ),
    "a-digit-stream-unknown-key": (
        (
            "spec",
            {"tubes": [{"a": {"cf": {"kind": "constant", "digit": "2", "digits": ["3"]}}, "b": "0"}]},
        ),
        "tubes[0]: a: unknown key",
    ),
    "a-digits-string": (
        ("spec", {"tubes": [{"a": {"cf": {"kind": "explicit", "digits": "12"}}, "b": "0"}]}),
        "tubes[0]: a: digits:",
    ),
    "b-cos-string": (("spec", {"tubes": [{"a": "1/2", "b": {"cos": "12"}}]}), "tubes[0]: b: cos:"),
    "b-sin-string": (("spec", {"tubes": [{"a": "1/2", "b": {"sin": "12"}}]}), "tubes[0]: b: sin:"),
    "cf-condition-b-without-s": (("argv", ["cf", "condition-b", "constant:2"]), "--s:"),
    "cf-condition-b-smooth": (("argv", ["cf", "condition-b", "constant:2", "--s", "smooth"]), "--s:"),
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
    "n-boolean": (("spec", {"n": True, "tubes": [{"a": "1/2", "b": "0"}]}), "n:"),
    "n-not-an-integer": (("spec", {"n": 1.5, "tubes": [{"a": "1/2", "b": "0"}]}), "n:"),
    "a-digit-string-not-an-integer": (
        ("spec", {"tubes": [{"a": {"cf": {"kind": "explicit", "digits": ["1", "1.5"]}}, "b": "0"}]}),
        "tubes[0]: a: digits[1]:",
    ),
    "a-digit-boolean": (
        ("spec", {"tubes": [{"a": {"cf": {"kind": "explicit", "digits": [True, 2]}}, "b": "0"}]}),
        "tubes[0]: a: digits[0]:",
    ),
    "a-constant-digit-not-an-integer": (
        ("spec", {"tubes": [{"a": {"cf": {"kind": "constant", "digit": 2.5}}, "b": "0"}]}),
        "tubes[0]: a: digit:",
    ),
    "witness-q-not-an-integer": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": _witness({"r": ["-1"], "q": "2.5"})}),
        "vector_witness: pairs[0]: q:",
    ),
    "witness-r-boolean": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": _witness({"r": [True], "q": 2})}),
        "vector_witness: pairs[0]: r[0]:",
    ),
    "witness-bound-scale-not-an-integer": (
        (
            "spec",
            {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": {"delta": 1, "pairs": [], "bound_scale": 1.5}},
        ),
        "vector_witness: bound_scale:",
    ),
    "witness-zero": (("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": 0}), "vector_witness:"),
    "witness-empty-list": (("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": []}), "vector_witness:"),
    "witness-empty-string": (("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": ""}), "vector_witness:"),
    "witness-delta-boolean": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": {"delta": True, "pairs": []}}),
        "vector_witness: delta:",
    ),
    "witness-delta-nan": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": {"delta": "nan", "pairs": []}}),
        "vector_witness: delta:",
    ),
    "witness-delta-inf": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": {"delta": "inf", "pairs": []}}),
        "vector_witness: delta:",
    ),
    "assertion-empty-string": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_assertion": ""}),
        "vector_assertion:",
    ),
    "assertion-unknown-kind": (
        ("spec", {"tubes": [{"a": "1/2", "b": "0"}], "vector_assertion": "Liouville"}),
        "vector_assertion:",
    ),
    "rhs-n-past-the-float-grid": (("rhs", {**_RHS, "n": 1e308}), "rhs: n ="),
    "rhs-n-huge-integer": (("rhs", {**_RHS, "n": 10**29}), "rhs: n ="),
    "rhs-grid-past-64-bits": (("rhs", {**_RHS, "grid_size": 2**64}), "rhs: grid_size"),
    "rhs-im-scalar": (("rhs", {**_RHS, "blocks": [{**_BLOCK, "im": 1.0}]}), "rhs: blocks[0]: im:"),
    "rhs-re-scalar": (("rhs", {**_RHS, "blocks": [{**_BLOCK, "re": 1.0}]}), "rhs: blocks[0]: re:"),
    "rhs-grid-values-overflow": (
        ("rhs", {**_RHS, "blocks": [{**_BLOCK, "im": [1e308] * 8}]}),
        "rhs: blocks[0]: xi: 1",
    ),
    "spec-not-utf8": (("spec-bytes", b'{"n": 1, "tubes": [\xff]}'), "{path} is not UTF-8 text:"),
    "spec-nested-1200-deep": (
        ("spec-bytes", b'{"n": 1, "tubes": ' + b"[" * 1200 + b"]" * 1200 + b"}"),
        "{path} is not valid JSON: maximum recursion depth",
    ),
    "witness-r-lengths-differ": (
        ("spec", _fixture_with("singular_expL", lambda s: s["vector_witness"]["pairs"][1].update(r=[]))),
        "vector_witness: pairs[1]: r has 0 entries,",
    ),
    "singular-average-past-the-float-range": (
        ("singular-spec", _fixture_with("singular_rationalJ", lambda s: s["tubes"][0].update(a=10**400))),
        "tubes[0]: a:",
    ),
    # a_j that is not constant: every construction uses its average alone
    "singular-a-not-constant-beside-a-real-tube": (
        ("singular-spec", {"n": 2, "tubes": [{"a": _COS_A, "b": "0"}, {"a": "0", "b": {"sin": ["1"]}}]}),
        "tubes[0]: a:",
    ),
    "singular-a-not-constant-prop51": (
        ("singular-spec", {"tubes": [{"a": _COS_A, "b": {"sin": ["1"]}}]}),
        "tubes[0]: a:",
    ),
    "singular-b-past-the-float-range": (
        ("singular-spec", _fixture_with("cond1", lambda s: s["tubes"][0].update(b={"sin": ["1e400"]}))),
        "tubes[0]: b:",
    ),
    "singular-b-exponent-past-the-float-range": (
        ("singular-spec", _fixture_with("cond1", lambda s: s["tubes"][0]["b"]["cos"].__setitem__(0, 1e308))),
        "tubes[0]: b:",
    ),
    "singular-phase-past-the-float-range": (
        ("singular-spec", _fixture_with("singular_rationalJ", lambda s: s["tubes"][1].update(a=1e308))),
        "tubes[1]: a:",
    ),
    "rhs-transform-overflows": (
        ("rhs", {**_RHS, "blocks": [{**_BLOCK, "im": [1e308] + [0.0] * 7}]}),
        "rhs: the transform at xi = 1",
    ),
    "rhs-transform-overflows-at-xi-0": (
        ("rhs", {**_RHS, "blocks": [{**_BLOCK, "xi": 0, "im": [1e308] + [0.0] * 7}]}),
        "rhs: the transform at xi = 0",
    ),
    "rhs-not-utf8": (
        ("rhs-bytes", b'{"format": "tff", "n": 1, "grid_size": 8, "meta": {"\xff": 1}}'),
        "rhs: {path} is not UTF-8 text:",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_naming_the_field(case, tmp_path, capsys, monkeypatch):
    (kind, given), field = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    path = tmp_path / f"{kind}.json"
    if kind == "argv":
        argv = [str(FIXTURES / f"{a[1:]}.json") if a[:1] == "@" else a for a in given]
    elif kind in ("spec", "singular-spec"):
        path.write_text(json.dumps({"n": 1, "s": "2", **given}), encoding="utf-8")
        argv = ["classify", str(path)] if kind == "spec" else ["singular", str(path), "out.json"]
    elif kind == "spec-bytes":
        path.write_bytes(given)
        argv = ["classify", str(path)]
    elif kind in ("rhs", "tff", "rhs-bytes"):
        if kind == "tff":
            path = tmp_path / "rhs.tff"
            path.write_bytes(given)
        elif kind == "rhs-bytes":
            path.write_bytes(given)
        else:
            path.write_text(json.dumps(given), encoding="utf-8")
        argv = ["solve", str(FIXTURES / "solve_spec.json"), str(path), str(tmp_path / "u.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field.format(path=path)} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"tubes": [{"a": {"cf": {"kind": "explicit", "digits": [1.5, 2]}}, "b": "0"}]}, "tubes[0]: a: digits[0]:"),
        (
            {"tubes": [{"a": "1/2", "b": "0"}], "vector_witness": _witness({"r": [1.9], "q": 2.5})},
            "vector_witness: pairs[0]: r[0]:",
        ),
    ],
    ids=["digit", "witness-row"],
)
def test_non_integer_digits_and_witness_entries_are_refused(spec, field, tmp_path, capsys):
    """A digit 1.5 or a witness entry 1.9 exits 2 naming the field instead
    of being truncated to 1."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 1, "s": "2", **spec}), encoding="utf-8")
    assert cli.main(["diagnose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} expected an integer, got ")


@pytest.mark.parametrize(
    "argv, pipeline",
    [
        (["solve", "@solve_spec", "@solve_rhs", "missing/u.json"], "solver.solve_system"),
        (
            ["solve", "@solve_spec", "@solve_rhs", "u.tff", "--out", "missing/r.json"],
            "solver.solve_system",
        ),
        (["singular", "@singular_allsign", "missing/out.json"], "singular.build_obstruction"),
        (
            ["singular", "@singular_expL", "out.json", "--out", "missing/r.json"],
            "singular.build_obstruction",
        ),
    ],
    ids=["solve-field", "solve-out", "singular-certificate", "singular-out"],
)
def test_unwritable_output_is_refused_before_the_pipeline_runs(
    argv, pipeline, tmp_path, capsys, monkeypatch
):
    """A missing output directory exits 2 without building anything and
    without creating a file."""
    import importlib

    module, name = pipeline.split(".")

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before the output path was checked")

    monkeypatch.setattr(importlib.import_module(f"torus_hypo.{module}"), name, refuse)
    monkeypatch.chdir(tmp_path)
    argv = [str(FIXTURES / f"{a[1:]}.json") if a[:1] == "@" else a for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write missing/")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("s", ["1/2", "1"])
def test_gevrey_order_at_most_one_is_refused_before_any_work(s, tmp_path, capsys):
    """s <= 1 exits 2 naming "s" (the spec) or "--s" on every command, and
    solve writes no artifact."""
    spec, rhs = FIXTURES / "solve_spec.json", str(FIXTURES / "solve_rhs.json")
    low, u = tmp_path / "spec.json", tmp_path / "u.json"
    low.write_text(json.dumps({**json.loads(spec.read_text()), "s": s}), encoding="utf-8")
    runs = [
        (["classify", str(low)], "s:"),
        (["solve", str(low), rhs, str(u)], "s:"),
        (["normalform", str(low)], "s:"),
        (["solve", str(spec), rhs, str(u), "--s", s], "--s:"),
        (["normalform", str(spec), "--s", s], "--s:"),
        (["cf", "classify", "constant:2", "--s", s], "--s:"),
    ]
    for argv, field in runs:
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} ")
        assert captured.err.count("\n") == 1
    assert not u.exists()


def test_the_scale_has_one_flag(capsys):
    """--s names the smooth scale too; argparse refuses --mode."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", str(FIXTURES / "ex64_factorial.json"), "--mode", "smooth"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode smooth" in capsys.readouterr().err


def test_solve_has_no_tuning_flags(capsys):
    """K and the division digits are fixed: argparse refuses --modes."""
    argv = ["solve", str(FIXTURES / "solve_spec.json"), str(FIXTURES / "solve_rhs.json"), "u.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--modes", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --modes 4" in capsys.readouterr().err


#: every option string of each subcommand, ``-h``/``--help`` included
OPTION_CENSUS = {
    "classify": ["--help", "--horizon", "--out", "--s", "-h"],
    "diagnose": ["--help", "--horizon", "--out", "--s", "-h"],
    "cf": ["--big-n", "--epsilon", "--help", "--n", "--out", "--s", "-h"],
    "solve": ["--help", "--out", "--s", "-h"],
    "normalform": ["--help", "--out", "--s", "-h"],
    "singular": ["--grid", "--help", "--out", "--s", "--xi-max", "-h"],
}


def test_option_census():
    """The options of every subcommand, pinned, so that a change adding or
    removing one edits this census in plain view.

    The rule for a new option: it needs two callers outside the tests that
    want different values from it.  A value that only one caller sets, or
    that no caller changes, is a constant in the library."""
    import argparse

    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    census = {
        name: sorted(s for action in p._actions for s in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert census == OPTION_CENSUS


def test_singular_has_no_field_cap_flag(tmp_path, capsys, monkeypatch):
    """The highest materialized rung is fixed: argparse refuses --field-cap
    before anything is built or written."""
    from torus_hypo import singular

    def refuse(*args, **kwargs):
        raise AssertionError("build_obstruction ran")

    monkeypatch.setattr(singular, "build_obstruction", refuse)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["singular", str(FIXTURES / "singular_expL.json"), str(out), "--field-cap", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field-cap 8" in capsys.readouterr().err
    assert not out.exists()


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


def test_factorial_rows_stop_where_the_logs_leave_the_double_range(capsys):
    """ln a_n = n!·ln 10 passes the largest double at n = 171, and row n reads
    ln a_{n+1}: the evidence stops at n = 169 and n_used says so, the kind
    still rests on the tail certificate, and condition-B rows past the range
    read not certified."""
    kinds = []
    for scale in ([], ["--s", "2"]):
        assert cli.main(["cf", "classify", "factorial_pow10", "--n", "175", *scale]) == 0
        verdict = json.loads(capsys.readouterr().out)["body"]["verdict"]
        assert verdict["evidence"][-1]["n"] == 169
        assert verdict["n_used"] == len(verdict["evidence"])
        kinds.append(verdict["kind"])
    assert kinds == ["LiouvilleTrend", "NotExpLiouvilleTrend"]
    argv = ["cf", "condition-b", "factorial_pow10", "--s", "2", "--n", "175"]
    assert cli.main(argv) == 0
    rows = {row["n"]: row["certified"] for row in json.loads(capsys.readouterr().out)["body"]["rows"]}
    assert rows[169] is True
    assert [rows[n] for n in range(170, 176)] == [False] * 6


#: fixture -> the --xi-max values it must build at, and extra arguments; the
#: Prop52 fixtures run on a small grid to keep each build cheap
SMALL_XI_MAX = {
    "singular_rationalJ": (range(8, 33), []),
    "singular_expL": (range(3, 33), []),
    "crit9_three_tube": (range(1, 16), ["--grid", "32"]),
    "singular_allsign": (range(1, 16), ["--grid", "32"]),
}


@pytest.mark.parametrize("stem", list(SMALL_XI_MAX))
def test_singular_takes_every_small_xi_max(stem, tmp_path, capsys):
    """No certificate holds a fit that needs rows, so a ladder of any length
    builds; where the report's power-fit window [max(16, 4·min rung), max
    rung] holds under 4 rows, table_power_fit is left out."""
    xi_maxes, extra = SMALL_XI_MAX[stem]
    argv = ["singular", str(FIXTURES / f"{stem}.json"), str(tmp_path / "out.json"), *extra]
    fitted = {}
    for xi_max in xi_maxes:
        assert cli.main([*argv, "--xi-max", str(xi_max)]) == 0, (xi_max, capsys.readouterr().err)
        fitted[xi_max] = "table_power_fit" in json.loads(capsys.readouterr().out)["body"]
    assert not any(fitted[xi_max] for xi_max in xi_maxes if xi_max <= 16)


def _materialized(obj):
    """``obj`` with each iterator as a list, so that it can be written twice."""
    if isinstance(obj, dict):
        return {k: _materialized(v) for k, v in obj.items()}
    if isinstance(obj, list) or hasattr(obj, "__next__"):
        return [_materialized(v) for v in obj]
    return obj


#: the four singular fixtures at the largest --xi-max (and the --grid) that
#: test_singular_takes_every_small_xi_max builds them at, and a JSON solve field
SMALL_ARTIFACTS = {
    f"singular-{stem}": ["--xi-max", str(max(xi_maxes)), *extra]
    for stem, (xi_maxes, extra) in SMALL_XI_MAX.items()
}
SMALL_ARTIFACTS["solve-gauged"] = []


@pytest.mark.parametrize("case", list(SMALL_ARTIFACTS))
def test_artifact_parses_to_what_json_dumps_writes(case, tmp_path, monkeypatch, capsys):
    """The artifact a command writes parses to what json.dumps' text of the
    same object parses to, every float bit for bit."""
    from torus_hypo import report, solver

    written = []

    def write_json(obj, fh):
        written.append(_materialized(obj))
        report.write_json(written[-1], fh)

    monkeypatch.setattr(cli, "write_json", write_json)
    monkeypatch.setattr(solver, "write_json", write_json)  # FourierField.save_json
    monkeypatch.chdir(tmp_path)
    assert cli.main([*_argv(case), *SMALL_ARTIFACTS[case]]) == 0, capsys.readouterr().err
    [obj] = written
    text = (tmp_path / ARTIFACTS[CASES[case][0]]).read_text(encoding="utf-8")
    assert _parses_as_json_dumps(text, obj)


def test_singular_below_the_first_witness_row_names_xi_max(tmp_path, capsys):
    """singular_expL's first witness row has denominator 3: below it the
    ladder is empty, and the refusal names the option that fixes it."""
    argv = ["singular", str(FIXTURES / "singular_expL.json"), str(tmp_path / "out.json")]
    for xi_max in (1, 2):
        assert cli.main([*argv, "--xi-max", str(xi_max)]) == 41
        assert "--xi-max" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_smooth_scale_refusal_names_the_scale(tmp_path, capsys):
    """The witness-driven lift is defined on the Gevrey scale only; no
    witness could help on the smooth scale, so the refusal names the scale."""
    argv = ["singular", str(FIXTURES / "ex64_factorial.json"), str(tmp_path / "out.json")]
    assert cli.main([*argv, "--s", "smooth"]) == 41
    err = capsys.readouterr().err
    assert "smooth scale" in err and "vector_witness" not in err
    assert not (tmp_path / "out.json").exists()


def test_golden_ratio_is_hypoelliptic_at_every_horizon(capsys):
    """The verdict rests on the stream's certificate, so no horizon changes
    it, and a horizon below the first evidence row gives an empty table."""
    spec = str(INPUTS / "golden_ratio_s3.json")
    for horizon in range(1, 21):
        for extra in ([], ["--s", "smooth"]):
            assert cli.main(["classify", spec, "--horizon", str(horizon), *extra]) == 0
    assert cli.main(["cf", "classify", "constant:2", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["body"]["verdict"]["evidence"] == []


def test_favorable_tail_beats_a_verified_witness(tmp_path, capsys):
    """sqrt(2) - 1 has bounded partial quotients, a proof that the system is
    regular for every q; three verified witness rows cannot override it."""
    spec = {
        "n": 1,
        "s": "2",
        "tubes": [{"a": {"cf": "constant:2"}, "b": "0"}],
        "vector_witness": {"delta": 0.5, "pairs": [[[-1], 2], [[-2], 5], [[-5], 12]]},
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert cli.main(["classify", str(tmp_path / "spec.json")]) == 0
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["verdict"]["decision"] == "Hypoelliptic"
    evidence = body["vector_classification"]["evidence"]
    assert {"source": "witness", "rows_verified": [True, True, True]} in evidence


#: one-signed float b, each read as the dyadic rational it holds: none is an
#: approximate zero and none is too flat to certify
FLOAT_B = {
    "tiny-constant": {"const": 1e-15},
    "tiny-one-plus-cos": {"const": 1e-15, "cos": [1e-15]},
    "touches-zero": {"const": 0.1, "cos": [-0.1]},
    "constant-above-1e-14": {"const": 1e-13},
}


@pytest.mark.parametrize("case", sorted(FLOAT_B))
def test_float_b_is_decided_on_its_exact_value(case, tmp_path, capsys):
    """A one-signed float b makes the system Hypoelliptic, however small or
    flat, and singular refuses to build a family for it."""
    spec = tmp_path / "spec.json"
    tube = {"a": "1/2", "b": FLOAT_B[case]}
    spec.write_text(json.dumps({"n": 1, "s": "2", "tubes": [tube]}), encoding="utf-8")
    assert cli.main(["classify", str(spec)]) == 0
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["analysis"]["profiles"] == ["NonNegativeNotZero"]
    assert body["analysis"]["J"] == []
    assert body["verdict"]["decision"] == "Hypoelliptic"
    assert cli.main(["singular", str(spec), str(tmp_path / "out.json")]) == 40
    assert not (tmp_path / "out.json").exists()


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
