"""Shared test helpers: fixture loading and a subprocess CLI runner."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PKG_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = PKG_ROOT / "fixtures"


def load_fixture(name: str) -> dict:
    with open(FIXTURES / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(*args: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess and capture output."""
    cmd = [sys.executable, "-m", "torus_hypo.cli", *args]
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout, cwd=PKG_ROOT
    )
