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
positional output path, as compact JSON with sorted keys whose vector
floats are orjson's shortest round-trip text, each parsing back to its
stored bits, and whose other leaves are ``json``'s text
(:func:`torus_hypo.report.write_json`); ``solve`` writes the binary field
format instead when the path ends in ``.bin`` or ``.tff``.  Fields are stored
as trigonometric coefficients, and a stored 0.0 means |c| <= eps * max|c| of
its block (see ``FourierField.coeffs``).  ``solve`` has no
tuning flags: the banded route picks each ξ's internal modes K a posteriori,
doubling from N + 4 deg b + 2 until the solution's outer modes fall to
eps * max|u|, up to the ceiling K = max(1024, 4|ξ|) (the report's runtime
gives ``internal_modes_max`` and ``internal_modes_capped``), and the
division route evaluates the averaged constants to 60 significant digits.
On either route one field per tube must satisfy L_j f_k = L_k f_j (exit 31).

``--s`` names the regularity scale on every command: a Gevrey order s > 1,
given as a rational (``2``, ``3/2``), or ``smooth``.  It replaces the spec's
``"s"``; ``cf`` takes the smooth scale without it, and ``cf condition-b``
needs a Gevrey order.

Each command loads its inputs, calls the library and renders the result.
``classify``/``diagnose``, ``solve`` and ``singular`` each call one pipeline:
:func:`torus_hypo.system.classify_system`, :func:`torus_hypo.solver.solve_system`
and :func:`torus_hypo.singular.build_obstruction`; ``solve`` and ``singular``
take their report body, runtime counters included, from it.

Commands run BLAS on one thread: :func:`main` sets ``OPENBLAS_NUM_THREADS``
to 1 when it is unset, before any command loads numpy or scipy's LAPACK
binding.  Set that variable to change it.

A command ends at its last byte.  :func:`main` returns the exit code, so the
tests and coldbench's tracer call it in-process; the console script and
``python -m torus_hypo.cli`` call :func:`run`, which flushes stdout and
stderr and ends the process with ``os._exit``.  That skips the interpreter's
teardown (module cleanup, the garbage collector, ``atexit`` handlers and the
C libraries' destructors, such as OpenBLAS's shutdown): on 2 vCPU with one
BLAS thread, about 6 ms of a bare interpreter, 15 ms once numpy is loaded
and 27 ms once scipy's LAPACK binding is too, none of it work of the
command.  So every file a command writes is closed before :func:`main`
returns, and nothing may rely on teardown.  A report or help
text that cannot be written to stdout (a full device, a pipe whose reader
has gone) ends with ``error: cannot write stdout: ...`` and exit 2; an error
whose line cannot be written to stderr still exits with its code.

Exit codes
----------
0    success (classify/diagnose: verdict Hypoelliptic)
10   classify/diagnose: verdict NotHypoelliptic
20   classify/diagnose: verdict Unknown

A failure prints ``error: <message>`` to stderr and exits with the
``exit_code`` of its error class (see :mod:`torus_hypo.errors`):

2    malformed input: bad JSON (or not UTF-8)/flags/paths/fields, unusable
     parameters, a ``singular`` spec whose a_j is not constant or whose
     exponents pass 1e300, an rhs whose transform or solution passes the
     float range, an output path that cannot be written (a missing or
     read-only directory is refused before any work), a stdout that cannot
     be written
30   SolvabilityError          31   CompatibilityError
32   ZeroDivisorError          33   ProfileError / GeometryError / GridMismatch
40   RefusedHypoelliptic       41   WitnessMismatch / LadderMismatch
50   any other domain error
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from typing import NoReturn

from .errors import MalformedInput, TorusHypoError, _parse_field
from .report import Report, input_digest, write_json

VERDICT_EXITS = {"Hypoelliptic": 0, "NotHypoelliptic": 10, "Unknown": 20}


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


#: ``bytes.translate`` table: a digit becomes "0", "." stays, any other
#: byte becomes " "
_DIGIT_SHAPE = bytes(48 if 48 <= b < 58 else 46 if b == 46 else 32 for b in range(256))

#: the shortest integers that orjson may read as floats: below -2**63 or
#: past 2**64 - 1
_LONG_INTEGER = b"0" * 19

#: bytes per window of :func:`_holds_long_integer`
_SCAN_WINDOW = 1 << 16


def _holds_long_integer(raw: bytes) -> bool:
    """Whether ``raw`` holds a run of 19 or more digits that does not follow
    a "." (the digits of a fraction).

    It is read in overlapping windows: a whole translated copy of a large
    file, once freed, raises glibc's mmap threshold and leaves the parse
    that follows a few MB more resident."""
    if raw[: len(_LONG_INTEGER)].isdigit() and len(raw) >= len(_LONG_INTEGER):
        return True
    after = b" " + _LONG_INTEGER  # a digit run that follows neither a digit nor a "."
    for at in range(0, len(raw), _SCAN_WINDOW):
        window = raw[max(at - 1, 0) : at + _SCAN_WINDOW + 19].translate(_DIGIT_SHAPE)
        if window.rfind(after) >= 0:  # rfind: on digit-heavy text it is faster than find
            return True
    return False


def _read_json(path, native: bool = False):
    """The JSON document in the file ``path``, read as ``json.load`` reads it
    from the file opened as UTF-8 text.

    With ``native``, orjson parses it where orjson's result is ``json``'s,
    and ``json`` does elsewhere, so an input gives the same object or the
    same error either way.  orjson 3.8 refuses some inputs that ``json``
    reads (the ``NaN`` and ``Infinity`` literals, numbers past the double
    range, a BOM, lone surrogates): those go to ``json`` on orjson's error.
    It reads an integer outside [-2**63, 2**64) as a float without a word,
    so a document that :func:`_holds_long_integer` goes to ``json``
    unparsed.  One difference stays: orjson has no nesting limit, so with
    ``native`` it reads a document that ``json`` refuses as too deep.

    The text that ``json`` parses is decoded as a text-mode read decodes
    it, with universal newlines, so its error messages name the same
    positions.  A file that is not UTF-8, or that ``json`` finds nested past
    about a thousand levels, is malformed input naming the path.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    if native and not _holds_long_integer(raw):
        import orjson

        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc
    del raw
    try:
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


#: the arguments that name a file a command writes
OUTPUT_ARGS = ("out", "out_field", "out_solution")


def _check_writable(path) -> None:
    """Refuse an output path whose directory is missing or not writable.

    ``main`` runs this on every output path before the command does any work,
    so a mistyped path does not cost a full build; it creates no file."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise MalformedInput(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise MalformedInput(f"cannot write {path}: directory {parent} is not writable")


@contextlib.contextmanager
def _writing(path):
    """An OSError inside the block (opening or writing ``path``) is malformed
    input naming the path."""
    try:
        yield
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise MalformedInput(f"{flag}: {value} is not a positive integer")


#: largest ``singular --grid``: at 2048, ``singular_allsign.json --xi-max
#: 1024`` peaks at 53 MB resident, cold (Python 3.11, numpy 2.4)
MAX_SINGULAR_GRID = 2048


def _order(text: str):
    """The regularity scale that ``--s`` names."""
    from .diophantine import Order

    return _parse_field("--s", Order.from_json, text)


def _load_spec(args):
    from .system import SystemSpec

    spec = SystemSpec.from_json(_read_json(args.spec))
    return spec if args.s is None else dataclasses.replace(spec, order=_order(args.s))


def _load_field(path) -> list:
    """The right-hand side fields: one, or a JSON ``{"fields": [...]}``.

    A JSON file is parsed before numpy is imported: the parser's buffers are
    gone by the time numpy's pages and the field arrays are in memory."""
    try:
        obj = None if path.endswith((".bin", ".tff")) else _read_json(path, native=True)
        from .solver import FourierField

        if obj is None:
            try:
                return [FourierField.load_binary(path)]
            except OSError as exc:
                raise MalformedInput(f"cannot read {path}: {exc}") from exc
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
    with _writing(path):
        if path.endswith((".bin", ".tff")):
            field.save_binary(path)
        else:
            field.save_json(path)


def _emit(report: Report, args) -> None:
    """Write the report to ``--out`` (if given), then to stdout, so that a
    failed write prints no report.  stdout is flushed here, so that a report
    it cannot take is an error of the command, naming stdout."""
    text = report.to_text()
    out = getattr(args, "out", None)
    if out:
        with _writing(out), open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))
    with _writing("stdout"):
        sys.stdout.write(text)
        sys.stdout.flush()


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
    s = _order(args.s).s
    if args.cf_command == "condition-b":
        if s is None:
            raise MalformedInput("--s: condition-b needs a Gevrey order, not smooth")
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
        for i, pair in enumerate(dio.convergents(cf, n), start=1):
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
        body["verdict"] = dio.classify(cf, s=s, n_max=n).to_json()
    elif args.cf_command == "condition-b":
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


def cmd_normalform(args) -> int:
    from .normalform import build_normal_form, conjugation_residual

    spec = _load_spec(args)
    nf = build_normal_form(spec)
    resid = conjugation_residual(spec, nf)
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
        runtime={"tubes": spec.n},
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    spec = _load_spec(args)
    f_list = _load_field(args.rhs)  # first: it imports numpy after a JSON parse
    from .solver import solve_system

    u, body = solve_system(spec, f_list)
    del f_list  # the write holds u alone
    _write_field(u, args.out_field)
    runtime = body.pop("runtime")
    body["output"] = args.out_field
    report = Report(command=["solve"], body=body, digest=input_digest(args.spec), runtime=runtime)
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------


def cmd_singular(args) -> int:
    from .singular import build_obstruction

    if args.grid > MAX_SINGULAR_GRID:
        raise MalformedInput(f"--grid: {args.grid} is above the largest grid, {MAX_SINGULAR_GRID}")
    spec = _load_spec(args)
    solution, body = build_obstruction(spec, xi_max=args.xi_max, grid=args.grid)
    with _writing(args.out_solution), open(args.out_solution, "w", encoding="utf-8") as fh:
        write_json(solution.to_json_obj(), fh)
    runtime = body.pop("runtime")
    body["output"] = args.out_solution
    report = Report(
        command=["singular"], body=body, digest=input_digest(args.spec), runtime=runtime
    )
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse drops an error writing its ``--help`` text; here, as in
    :func:`_emit`, a stdout that cannot take the text is an error naming it."""

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            return super()._print_message(message, file)
        with _writing("stdout"):
            file.write(message)
            file.flush()


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="torus-hypo",
        description="Certified global regularity analysis for tube systems on the torus.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    s_help = "regularity scale: a Gevrey order > 1 (e.g. 2 or 3/2) or smooth"

    def common(p):
        p.add_argument("spec", help="system spec JSON path")
        p.add_argument("--s", default=None, help=s_help + "; default: the spec's \"s\"")
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
    p.add_argument("--s", default="smooth", help=s_help + "; default: smooth")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--big-n", dest="big_n", type=int, default=2)
    p.add_argument("--out", default=None)

    p = sub.add_parser("solve", help="solve the tube equation(s)")
    common(p)
    p.add_argument("rhs", help="right-hand side field (JSON, or binary .bin/.tff)")
    p.add_argument("out_field", help="output path for the solution field")

    p = sub.add_parser("normalform", help="averaging gauge and normalized system")
    common(p)

    p = sub.add_parser("singular", help="build a certified slow-decay family")
    common(p)
    p.add_argument("out_solution", help="output path for the solution + certificate JSON")
    p.add_argument("--xi-max", dest="xi_max", type=int, default=256)
    p.add_argument("--grid", type=int, default=128)

    return top


def _fail(exc: TorusHypoError) -> int:
    """Print ``error: <message>`` to stderr, where stderr can be written, and
    return the exit code of the error's class."""
    with contextlib.suppress(OSError):
        sys.stderr.write(f"error: {exc}\n")
    return exc.exit_code


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Sets the process variable ``OPENBLAS_NUM_THREADS`` to 1 when it is
    unset, before any command loads numpy or scipy's LAPACK binding: the
    program's BLAS work (a banded LU, small least-squares fits) never splits
    across threads, and an idle worker pool spins on the command's CPU.  A
    value already set is kept.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    commands = {
        "classify": cmd_classify,
        "diagnose": lambda a: cmd_classify(a, verbose=True),
        "cf": cmd_cf,
        "normalform": cmd_normalform,
        "solve": cmd_solve,
        "singular": cmd_singular,
    }
    try:
        args = _build_parser().parse_args(argv)
        for name in OUTPUT_ARGS:
            if path := getattr(args, name, None):
                _check_writable(path)
        return commands[args.command](args)
    except TorusHypoError as exc:
        return _fail(exc)


def run(argv=None) -> NoReturn:
    """The console entry point: :func:`main`, then the end of the process.

    It flushes stdout and stderr and ends the process with ``os._exit``, so
    the interpreter's teardown never runs.  Nothing may rely on that
    teardown: every file a command opens is closed before :func:`main`
    returns, and the program registers no ``atexit`` handler
    (``test_no_command_leaves_work_to_interpreter_teardown`` checks both).

    argparse's exits keep their codes (0 after ``--help``, 2 after a usage
    error), and an exception that :func:`main` does not handle propagates,
    so the interpreter prints its traceback and exits 1.  stdout that cannot be
    flushed here exits 2 with an ``error:`` line, unless :func:`main` has
    already failed: a failed report leaves its bytes in the buffer, and
    :func:`_emit` has reported them.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    try:
        with _writing("stdout"):
            sys.stdout.flush()
    except MalformedInput as exc:
        if code in VERDICT_EXITS.values():  # else main's failure stands
            code = _fail(exc)
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
