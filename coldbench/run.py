"""Cold-command benchmark of the torus_hypo CLI.

    python3 coldbench/run.py --workload verdict --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the seed before timing starts.  The runner then repeats whole rounds of the
workload's commands, each in a fresh interpreter
(``python -m torus_hypo.cli ...``), one at a time, in a seeded order with
``import torus_hypo.cli`` probes mixed in, until about ``--seconds`` have
passed.  Every output is checked (see checks.py).  The last line of stdout
is one JSON object: correct, attempted, failed and the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
command twice, untraced and under tracer.py with ``-X importtime``, and
reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
COMMAND_TIMEOUT_S = 100.0
PROBE = "probe"

END_TO_END_UNITS = {
    "setup_s": "s",
    "command_s": "s",
    "commands_per_min": "1/min",
    "peak_rss_mb": "MB",
}
IMPORT_PACKAGES = ("sympy", "scipy", "mpmath")
COUNT_UNITS = {
    "gevrey.cutoff_calls": "count",
    "gevrey.hiprec_dft_calls": "count",
    "solver.xi_solved": "count",
    "normalform.gauge_calls": "count",
    "singular.rungs": "count",
    "singular.dense_rungs": "count",
    "cli.artifact_mb": "MB",
    "trace.overhead_pct": "%",
    "trace.missing_names": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric and its unit (one per command unless noted)."""
    units = {"import.total_s": "s"}
    units.update({f"import.{p}_s": "s" for p in IMPORT_PACKAGES})
    units.update({name: "s" for name in tracer.LAYERS})
    units["trace.inproc_s"] = "s"
    units.update(COUNT_UNITS)
    return units


@dataclass
class Result:
    """One finished command."""

    op: workloads.Op
    wall_s: float
    code: int
    rss_kb: int
    report_bytes: bytes = b""
    ok: bool = False
    trace: dict | None = None


class Runner:
    def __init__(self, work: Path):
        self.work = work
        # Commands import the checkout's src/ and cache its bytecode, as an
        # installed package would have it.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0
        self.errors: list = []

    def spawn(self, argv: list, tag: str) -> tuple:
        """Run ``python argv`` to its end: (wall s, exit code, maxrss KiB,
        stdout path, stderr path)."""
        self.count += 1
        out = self.work / f"{self.count}-{tag}.out"
        err = self.work / f"{self.count}-{tag}.err"
        with open(out, "wb") as so, open(err, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=so, stderr=se, env=self.env, cwd=self.work)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss, out, err

    def probe(self) -> float:
        wall, code, _, out, err = self.spawn(["-c", "import torus_hypo.cli"], PROBE)
        if code != 0:
            raise SystemExit(f"import torus_hypo.cli failed:\n{err.read_text()[-2000:]}")
        out.unlink()
        err.unlink()
        return wall

    def command(self, op: workloads.Op, traced: bool) -> Result:
        trace_path = self.work / f"{self.count + 1}.trace.json" if traced else None
        if traced:
            argv = ["-X", "importtime", str(BENCH / "tracer.py"), str(trace_path), *op.args]
        else:
            argv = ["-m", "torus_hypo.cli", *op.args]
        wall, code, rss, out, err = self.spawn(argv, "traced" if traced else "cmd")
        res = Result(op=op, wall_s=wall, code=code, rss_kb=rss, report_bytes=out.read_bytes())
        stderr = err.read_text(errors="replace")
        try:
            self._check(res, stderr, trace_path)
        finally:
            for path in (out, err, op.artifact, trace_path):
                if path is not None and path.exists():
                    path.unlink()
        return res

    def _check(self, res: Result, stderr: str, trace_path: Path | None) -> None:
        op = res.op
        label = f"{op.kind} {' '.join(op.args)}"
        if res.code not in op.ok_exits:
            self.errors.append(f"FAILED (exit {res.code}): {label}\n{stderr[-1500:]}")
            return
        try:
            report = json.loads(res.report_bytes)
        except ValueError:
            self.errors.append(f"FAILED (no report): {label}")
            return
        res.ok = True
        try:
            op.check(report, res.code)
            if trace_path is not None:
                res.trace = load_trace(trace_path, stderr, report, op)
        except (checks.CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            self.errors.append(f"WRONG OUTPUT: {label}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def import_times(stderr: str) -> dict:
    """Import seconds from ``-X importtime`` lines after the tracer's marker:
    the total over top-level imports, and per package the outermost entries
    of that package (so sympy's own import of mpmath counts once)."""
    lines = stderr.split(tracer.IMPORT_BEGIN, 1)[-1].splitlines()
    entries = []
    for line in lines:
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the command's own stderr, or the column header
        cumulative = int(parts[1])
        label = parts[2][1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        entries.append((depth, label.strip(), cumulative))
    out = {"import.total_s": sum(c for d, _, c in entries if d == 0) * 1e-6}
    for package in IMPORT_PACKAGES:
        out[f"import.{package}_s"] = 0.0
    ancestors: list = []
    # importtime prints a module after its children: walk backwards.
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in IMPORT_PACKAGES and all(a.split(".")[0] != top for a in ancestors):
            out[f"import.{top}_s"] += cumulative * 1e-6
        ancestors.append(name)
    return out


def load_trace(path: Path, stderr: str, report: dict, op: workloads.Op) -> dict:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    out = dict(raw["self_s"])
    out.update(raw["counts"])
    out.update(import_times(stderr))
    out["trace.inproc_s"] = raw["inproc_s"]
    out["trace.missing"] = raw["missing"]
    artifact = op.artifact
    out["cli.artifact_mb"] = artifact.stat().st_size / 2**20 if artifact and artifact.exists() else 0.0
    body = report.get("body", {})
    singular = op.args[0] == "singular"
    out["singular.rungs"] = body.get("ladder_size", 0) if singular else 0
    out["singular.dense_rungs"] = body.get("dense_rungs", 0) if singular else 0
    span_sum = sum(raw["self_s"].values())
    if not math.isclose(span_sum, raw["inproc_s"], rel_tol=1e-9, abs_tol=1e-8):
        raise checks.CheckFailed(
            f"span self times sum to {span_sum!r} s, in-process time is {raw['inproc_s']!r} s"
        )
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def schedule(workload: workloads.Workload, seed: int, round_index: int) -> list:
    items = list(workload.ops) + [PROBE] * workload.probes_per_round
    random.Random(f"{workload.name}-{seed}-{round_index}").shuffle(items)
    return items


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    """Whole rounds, as many as fit ``seconds`` at the workload's nominal
    round time (a traced round runs every command twice): the count depends
    on the arguments only, never on how fast this run happens to go."""
    round_s = workload.round_s * (2 if trace else 1)
    rounds = max(1, round(seconds / round_s))
    runner.probe()  # warm caches (and bytecode) before anything is timed
    probes, results, traced, untraced = [], [], [], []
    started = time.perf_counter()
    for index in range(rounds):
        for item in schedule(workload, seed, index):
            if item == PROBE:
                probes.append(runner.probe())
            elif trace:
                pair = [False, True]
                random.Random(f"{seed}-{index}-{item.kind}-{len(traced)}").shuffle(pair)
                for flag in pair:
                    res = runner.command(item, traced=flag)
                    (traced if flag else untraced).append(res)
                if traced[-1].ok and untraced[-1].ok and traced[-1].report_bytes != untraced[-1].report_bytes:
                    runner.errors.append(f"WRONG OUTPUT: traced report differs: {item.kind}")
            else:
                results.append(runner.command(item, traced=False))
    everything = results + traced + untraced
    sides = (traced, untraced) if trace else (results,)
    if not all(any(r.ok for r in side) for side in sides):
        raise SystemExit("coldbench: no command completed:\n" + "\n".join(runner.errors[:5]))
    summary = {
        "rounds": rounds,
        "elapsed_s": time.perf_counter() - started,
        "attempted": len(everything),
        "failed": sum(not r.ok for r in everything),
        "correct": not any(e.startswith("WRONG") for e in runner.errors),
        "errors": runner.errors,
    }
    if trace:
        summary["metrics"] = layer_metrics(traced, untraced)
    else:
        summary["metrics"], summary["kinds"] = end_to_end_metrics(results, probes)
    return summary


def end_to_end_metrics(results: list, probes: list) -> tuple:
    ok = [r for r in results if r.ok]
    kinds = {}
    for r in ok:
        kinds.setdefault(r.op.kind, []).append(r.wall_s)
    medians = {k: statistics.median(v) for k, v in sorted(kinds.items())}
    command_s = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
    values = {
        "setup_s": statistics.median(probes),
        "command_s": command_s,
        "commands_per_min": 60.0 * len(ok) / sum(r.wall_s for r in results),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {k: {"n": len(kinds[k]), "median_s": m} for k, m in medians.items()}
    return metrics, detail


def layer_metrics(traced: list, untraced: list) -> dict:
    units = per_layer_units()
    rows = [r.trace for r in traced if r.trace is not None]
    values = {}
    for name in units:
        if name in ("trace.overhead_pct", "trace.missing_names"):
            continue
        values[name] = statistics.fmean(row[name] for row in rows) if rows else 0.0
    base = sum(r.wall_s for r in untraced if r.ok)
    values["trace.overhead_pct"] = 100.0 * (sum(r.wall_s for r in traced if r.ok) - base) / base
    values["trace.missing_names"] = len({n for row in rows for n in row["trace.missing"]})
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torus_hypo" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.stderr.write(f"coldbench: {ROOT} holds no torus_hypo checkout (src/torus_hypo, fixtures)\n")
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, work, ROOT)
        setup = time.perf_counter() - setup
        summary = run(workload, args.seed, args.seconds, bool(args.trace), Runner(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary["input_generation_s"] = setup
    summary["notes"] = workload.notes
    with open(WORK / f"last-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    for line in summary["errors"]:
        sys.stderr.write(line + "\n")
    sys.stderr.write(
        f"coldbench: {args.workload} seed {args.seed}: {summary['rounds']} rounds, "
        f"{summary['attempted']} commands, {summary['failed']} failed, "
        f"{summary['elapsed_s']:.1f} s\n"
    )
    for kind, row in summary.get("kinds", {}).items():
        sys.stderr.write(f"  {kind:28s} n={row['n']:3d} median {row['median_s']:.3f} s\n")
    result = {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
