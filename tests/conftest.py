"""Shared test helpers: fixture loading, a subprocess CLI runner and a
session cache of golden CLI runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = PKG_ROOT / "fixtures"


#: the variables that set a BLAS library's thread count; subprocess runs
#: leave them out, so each command runs with the CLI's own default
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_fixture(name: str) -> dict:
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*args: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess on this checkout's src/, with no thread
    variables inherited, and capture output."""
    cmd = [sys.executable, "-m", "torus_hypo.cli", *args]
    paths = [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout, cwd=PKG_ROOT, env=env
    )


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """Run a golden CLI case (``test_cli.CASES``) once per session.

    Returns ``run(case) -> (exit code, report text, artifact sha256 or None,
    working directory)``; the artifact stays in the working directory for
    every test that reads it."""
    from test_cli import run_case

    runs = {}

    def run(case: str):
        if case not in runs:
            workdir = tmp_path_factory.mktemp(case)
            runs[case] = (*run_case(case, workdir, keep_artifact=True), workdir)
        return runs[case]

    return run
