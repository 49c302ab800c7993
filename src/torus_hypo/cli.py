"""Command-line front end.

Subcommands
-----------
classify    decide global regularity of a tube system (exit 0/10/20)
diagnose    classify plus the full evidence trail
cf          continued-fraction tables: convergents | bounds | classify | condition-b
solve       solve L_j u = f (auto-normalizing; one-signed or all-real routes)
normalform  compute the averaging gauge and the normalized system
singular    build a certified slow-decay solution family for a non-regular system

Every command prints one deterministic report (see ``report.py``) to stdout;
``--out`` writes the same bytes to a file.  ``solve`` and ``singular``
additionally write their artifact (solution field / certified family) to a
positional output path.  ``--precision`` belongs to ``solve`` alone: the
significant digits of the averaged constants in its division route.

Each command loads its inputs, calls the library and renders the result.
``classify``/``diagnose``, ``solve`` and ``singular`` each call one pipeline:
:func:`torus_hypo.system.classify_system`, :func:`torus_hypo.solver.solve_system`
and :func:`torus_hypo.singular.build_obstruction`.

Exit codes
----------
0    success (classify/diagnose: verdict Hypoelliptic)
10   classify/diagnose: verdict NotHypoelliptic
20   classify/diagnose: verdict Unknown

A failure prints ``error: <message>`` to stderr and exits with the
``exit_code`` of its error class (see :mod:`torus_hypo.errors`):

2    malformed input: bad JSON/flags/paths/fields, unusable parameters
30   SolvabilityError          31   CompatibilityError
32   ZeroDivisorError          33   ProfileError / GeometryError / GridMismatch
34   MeanNotZero               40   RefusedHypoelliptic
41   WitnessMismatch / LadderMismatch / IntegralityError
50   any other domain error

``TORUS_HYPO_THREADS`` caps BLAS/OpenMP parallelism: ``main`` copies it into
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` (unless
they are set) before any command imports numpy.  That takes effect because
this module and the package root load no numpy; a process that imported
numpy before ``main`` keeps its threads.  Reports are byte-deterministic
regardless of thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from .errors import MalformedInput, TorusHypoError
from .report import Report, input_digest

VERDICT_EXITS = {"Hypoelliptic": 0, "NotHypoelliptic": 10, "Unknown": 20}


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _apply_thread_cap() -> str | None:
    cap = os.environ.get("TORUS_HYPO_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)
    return cap


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise MalformedInput(f"{flag}: {value} is not a positive integer")


#: largest ``singular --grid``: the Laplace tables take grid x max(1024, 4 xi)
#: entries, and 2048 already peaks near 300 MB
MAX_SINGULAR_GRID = 2048


def _parse_s(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"--s: cannot parse {text!r} as a rational ({exc})") from exc


def _parse_order(args, default):
    """Resolve the regularity scale: --mode smooth > --s > spec default."""
    from .system import Order

    mode = getattr(args, "mode", None)
    if mode == "smooth":
        return Order.smooth()
    s = getattr(args, "s", None)
    if s is not None:
        return Order.gevrey(_parse_s(s))
    if mode == "gevrey" and not default.is_gevrey:
        raise MalformedInput("--mode gevrey needs --s (spec declares no Gevrey order)")
    return default


def _load_spec(args):
    from .system import SystemSpec

    spec = SystemSpec.from_json(_read_json(args.spec))
    order = _parse_order(args, spec.order)
    return spec if order is spec.order else dataclasses.replace(spec, order=order)


def _load_field(path) -> list:
    """The right-hand side fields: one, or a JSON ``{"fields": [...]}``."""
    from .solver import FourierField
    from .system import _parse_field

    try:
        if path.endswith((".bin", ".tff")):
            try:
                return [FourierField.load_binary(path)]
            except OSError as exc:
                raise MalformedInput(f"cannot read {path}: {exc}") from exc
        obj = _read_json(path)
        if not (isinstance(obj, dict) and "fields" in obj):
            return [FourierField.from_json_obj(obj)]
        fields = _parse_field("fields", list, obj["fields"])
        return [
            _parse_field(f"fields[{i}]", FourierField.from_json_obj, x)
            for i, x in enumerate(fields)
        ]
    except MalformedInput as exc:
        raise MalformedInput(f"rhs: {exc}") from exc


def _write_field(field, path) -> None:
    if path.endswith((".bin", ".tff")):
        field.save_binary(path)
    else:
        field.save_json(path)


def _write_json(obj, fh) -> None:
    """Write ``json.dumps(obj)`` to ``fh`` piece by piece.

    Dicts and lists of containers are written item by item, everything else
    by the C encoder: the bytes are those of ``json.dumps``, but only one
    piece of the text is held at a time (a RationalJ certificate is 18 MB of
    text) and the pure-Python encoder of ``json.dump`` is never used.
    """
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(value, fh)
        fh.write("}")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        fh.write("[")
        for i, value in enumerate(obj):
            fh.write(", " if i else "")
            _write_json(value, fh)
        fh.write("]")
    else:
        fh.write(json.dumps(obj))


def _emit(report: Report, args) -> None:
    text = report.to_text()
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# classify / diagnose
# ---------------------------------------------------------------------------


def cmd_classify(args, verbose: bool = False) -> int:
    from .system import classify_system

    _check_positive("--horizon", args.horizon)
    spec = _load_spec(args)
    analysis, dio_verdict, verdict = classify_system(spec, n_max=args.horizon)
    body = {
        "verdict": verdict.to_json(),
        "order": spec.order.to_json(),
        "analysis": analysis.to_json(),
    }
    if dio_verdict is not None:
        body["vector_classification"] = dio_verdict.to_json()
    if verbose:
        body["tubes"] = [t.to_json() for t in spec.tubes]
        if spec.vector_witness is not None:
            body["vector_witness"] = spec.vector_witness.to_json()
        if spec.vector_assertion is not None:
            body["vector_assertion"] = spec.vector_assertion
    report = Report(
        command=[args.command, "--s", str(spec.order.to_json())],
        body=body,
        digest=input_digest(args.spec),
        runtime={"tubes": spec.n, "horizon": args.horizon, "ell": analysis.ell},
    )
    _emit(report, args)
    return VERDICT_EXITS[verdict.decision]


# ---------------------------------------------------------------------------
# cf
# ---------------------------------------------------------------------------


def cmd_cf(args) -> int:
    from . import diophantine as dio

    _check_positive("--n", args.n)
    if args.cf_command == "condition-b":
        if not 1 <= args.big_n <= args.n:
            raise MalformedInput(f"--big-n: {args.big_n} is not in 1..{args.n} (--n)")
        if not 0 < args.epsilon < float("inf"):
            raise MalformedInput(f"--epsilon: {args.epsilon} is not a positive number")
    try:
        stream = dio.digit_stream_from_json(args.digits)
    except (MalformedInput, ValueError) as exc:
        raise MalformedInput(f"digits: {exc}") from exc
    cf = dio.ContinuedFraction(stream)
    body = {"digits": args.digits, "subcommand": args.cf_command}
    n = args.n
    if args.cf_command == "convergents":
        rows = []
        for i in range(1, n + 1):
            pair = cf.pair(i)
            if isinstance(pair, tuple):
                rows.append({"n": i, "p": pair[0], "q": pair[1]})
            else:
                rows.append({"n": i, "ln_p": pair.ln_p, "ln_q": pair.ln_q})
        body["convergents"] = rows
    elif args.cf_command == "bounds":
        iv = dio.approx_interval(cf, n)
        body["n"] = n
        body["lower"] = iv.lower
        body["upper"] = iv.upper
    elif args.cf_command == "classify":
        s = float(_parse_s(args.s)) if args.s is not None else None
        verdict = dio.classify(cf, s=s, n_max=n)
        body["verdict"] = verdict.to_json()
        if n >= 2:
            body["mu_rows"] = [
                {"n": i, "mu": mu} for i, mu in dio.liouville_exponent_trend(cf, n)
            ]
        if s is not None:
            body["beta_rows"] = [
                {"n": i, "beta": b} for i, b in dio.exp_liouville_score(cf, s, n)
            ]
    elif args.cf_command == "condition-b":
        if args.s is None:
            raise MalformedInput("condition-b needs --s")
        s = float(_parse_s(args.s))
        rows = dio.condition_B_check(cf, s, args.epsilon, args.big_n, n)
        body["rows"] = [
            {"n": args.big_n + i, "certified": bool(ok)} for i, ok in enumerate(rows)
        ]
        body["epsilon"] = args.epsilon
        body["N"] = args.big_n
    report = Report(
        command=["cf", args.cf_command, args.digits],
        body=body,
        digest=None,
        runtime={"n": n},
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# normalform
# ---------------------------------------------------------------------------


def _probe_field(n: int, grid: int = 32, seed: int = 0):
    import numpy as np

    from .solver import FourierField

    rng = np.random.default_rng(seed)
    out = FourierField(n=n, grid_size=grid)
    shape = (grid,) * n
    for xi in (1, 2, 3):
        out.data[xi] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out


def cmd_normalform(args) -> int:
    from .normalform import build_normal_form, conjugation_residual

    spec = _load_spec(args)
    nf = build_normal_form(spec)
    resid = conjugation_residual(spec, _probe_field(spec.n))
    body = {
        "is_trivial": nf.is_trivial(),
        "primitives": [p.to_json() for p in nf.A],
        "normalized": nf.normalized.to_json(),
        "conjugation_residual": resid,
    }
    report = Report(
        command=["normalform"],
        body=body,
        digest=input_digest(args.spec),
        runtime={"tubes": spec.n, "probe_grid": 32},
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    from .solver import solve_system

    if args.modes is not None:
        _check_positive("--modes", args.modes)
    _check_positive("--precision", args.precision)
    spec = _load_spec(args)
    f_list = _load_field(args.rhs)
    u, body = solve_system(spec, f_list, internal_modes=args.modes, digits=args.precision)
    _write_field(u, args.out_field)
    body["output"] = args.out_field
    report = Report(
        command=["solve"],
        body=body,
        digest=input_digest(args.spec),
        runtime={
            "frequencies": len(u.xi_values),
            "grid": u.grid_size,
            "rhs_fields": len(f_list),
        },
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------


def cmd_singular(args) -> int:
    from .singular import build_obstruction, fit_lower_bound_power

    if not 4 <= args.grid <= MAX_SINGULAR_GRID or args.grid & (args.grid - 1):
        raise MalformedInput(
            f"--grid: {args.grid} is not a power of two in 4..{MAX_SINGULAR_GRID}"
        )
    _check_positive("--xi-max", args.xi_max)
    _check_positive("--field-cap", args.field_cap)
    spec = _load_spec(args)
    ob = build_obstruction(
        spec, xi_max=args.xi_max, grid=args.grid, field_cap=args.field_cap
    )
    solution = ob.solution
    table = solution.certificates["lower_bound_table"]
    body = {
        "construction": solution.construction,
        "chain": ob.chain,
        "q": ob.q,
        "k_max": ob.k_max,
        "field_cap": ob.field_cap,
        "field_grid": solution.coefficients.grid_size,
        "dense_rungs": len(solution.coefficients.xi_values),
        "m": solution.certificates.get("m", 0),
        "ladder_head": solution.ladder[:8],
        "ladder_size": len(solution.ladder),
        "lower_bound_head": table[:8],
        "verdict": ob.verdict.to_json(),
    }
    if len(table) >= 8:
        body["table_power_fit"] = fit_lower_bound_power(solution)
    if "residual_real_tubes" in solution.certificates:
        body["residual_real_tubes"] = solution.certificates["residual_real_tubes"]
    if "row_checks" in solution.certificates:
        body["row_checks"] = solution.certificates["row_checks"]

    with open(args.out_solution, "w", encoding="utf-8") as fh:
        _write_json(solution.to_json_obj(), fh)
    body["output"] = args.out_solution

    report = Report(
        command=["singular"],
        body=body,
        digest=input_digest(args.spec),
        runtime={
            "rungs": len(solution.ladder),
            "grid": args.grid,
            "tubes": spec.n,
        },
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="torus-hypo",
        description="Certified global regularity analysis for tube systems on the torus.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="system spec JSON path")
        p.add_argument("--s", default=None, help="Gevrey order (decimal or rational, e.g. 2 or 3/2)")
        p.add_argument("--mode", choices=("gevrey", "smooth"), default=None)
        p.add_argument("--out", default=None, help="also write the report to this path")

    horizon_help = (
        "rows of the continued-fraction evidence table; a verdict never "
        "depends on it (it rests on a digit-stream certificate, a verified "
        "vector_witness or a vector_assertion)"
    )
    for name, text in (
        ("classify", "decide global regularity"),
        ("diagnose", "classify with the full evidence trail"),
    ):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--horizon", type=int, default=6, help=horizon_help)

    p = sub.add_parser("cf", help="continued-fraction tables")
    p.add_argument("cf_command", choices=("convergents", "bounds", "classify", "condition-b"))
    p.add_argument("digits", help='digit stream: "constant:2", "factorial_pow10", or "a1,a2,..."')
    p.add_argument("--s", default=None)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--big-n", dest="big_n", type=int, default=2)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve the tube equation(s)")
    common(p)
    p.add_argument("rhs", help="right-hand side field (JSON, or binary .bin/.tff)")
    p.add_argument("out_field", help="output path for the solution field")
    p.add_argument("--modes", type=int, default=None, help="internal mode count override")
    p.add_argument(
        "--precision",
        type=int,
        default=60,
        help="significant digits of the averaged constants in the division route",
    )

    p = sub.add_parser("normalform", help="averaging gauge and normalized system")
    common(p)

    p = sub.add_parser("singular", help="build a certified slow-decay family")
    common(p)
    p.add_argument("out_solution", help="output path for the solution + certificate JSON")
    p.add_argument("--xi-max", dest="xi_max", type=int, default=256)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument(
        "--field-cap",
        dest="field_cap",
        type=int,
        default=64,
        help="materialize coefficient blocks only up to this frequency "
        "(the certified bound table always covers the full ladder)",
    )

    return top


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "classify": cmd_classify,
        "diagnose": lambda a: cmd_classify(a, verbose=True),
        "cf": cmd_cf,
        "normalform": cmd_normalform,
        "solve": cmd_solve,
        "singular": cmd_singular,
    }
    try:
        return commands[args.command](args)
    except TorusHypoError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
