"""Output checks for the cold-command benchmark.

Every check rests on a computation made here, apart from ``torus_hypo``:
verdicts derived by hand from the paper's two conditions (recorded with each
input), continued-fraction recurrences, the benchmark's own reading of the
TFF field format, and properties of the stored singular coefficients.  A
check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import math
import struct
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

VERDICT_EXIT = {"Hypoelliptic": 0, "NotHypoelliptic": 10, "Unknown": 20}

#: max|u - u_true| allowed, as a share of max|u_true| (observed: ~1e-15).
SOLVE_REL_TOL = 1e-10
#: slack on "certified lower bound <= max_t |u(t, xi)|" (observed: 1.1e-16).
LOWER_BOUND_REL_TOL = 1e-12
#: max |(eta_j + xi a_j) c_eta| on a rational J tube, as a share of max|c|.
J_RESONANCE_REL_TOL = 1e-9

_TFF_HEAD = "<4sIqqqqq"


class CheckFailed(Exception):
    """An output disagrees with the benchmark's independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Coefficients and fields
# ---------------------------------------------------------------------------


def coeff(x):
    """Spec coefficient convention: strings and ints are exact, floats are not."""
    if isinstance(x, (str, int)):
        return Fraction(x)
    return float(x)


def trig_exp_coeffs(p, degree: int) -> np.ndarray:
    """Exponential coefficients (index l + degree <-> frequency l) of a real
    trig polynomial given as {"const", "cos", "sin"} or a bare constant."""
    out = np.zeros(2 * degree + 1, dtype=complex)
    if not isinstance(p, dict):
        out[degree] = float(coeff(p))
        return out
    out[degree] = float(coeff(p.get("const", 0)))
    for k, c in enumerate(p.get("cos", ()), start=1):
        out[degree + k] += 0.5 * float(coeff(c))
        out[degree - k] += 0.5 * float(coeff(c))
    for k, c in enumerate(p.get("sin", ()), start=1):
        out[degree + k] += -0.5j * float(coeff(c))
        out[degree - k] += 0.5j * float(coeff(c))
    return out


def trig_degree(p) -> int:
    if not isinstance(p, dict):
        return 0
    return max(len(p.get("cos", ())), len(p.get("sin", ())))


def write_tff(path, n: int, grid: int, blocks: dict) -> None:
    """Write coefficient tensors {xi: (grid,)*n complex} in the TFF1 layout."""
    xi = sorted(blocks)
    head = struct.pack(_TFF_HEAD, b"TFF1", 1, n, grid, xi[0], xi[-1], len(xi))
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(np.asarray(xi, dtype="<i8").tobytes())
        for k in xi:
            fh.write(np.ascontiguousarray(blocks[k], dtype="<c16").tobytes())


def read_tff(path) -> tuple:
    """(n, grid, {xi: coefficient tensor}) from a TFF1 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    size = struct.calcsize(_TFF_HEAD)
    require(len(raw) >= size, f"{path}: truncated TFF header")
    magic, version, n, grid, _, _, num = struct.unpack(_TFF_HEAD, raw[:size])
    require(magic == b"TFF1" and version == 1, f"{path}: not a TFF1 file")
    xi = np.frombuffer(raw, dtype="<i8", count=num, offset=size)
    pos = size + 8 * num
    cells = grid**n
    require(len(raw) == pos + 16 * cells * num, f"{path}: TFF size mismatch")
    blocks = {}
    for k in xi:
        blocks[int(k)] = np.frombuffer(
            raw, dtype="<c16", count=cells, offset=pos
        ).reshape((grid,) * n)
        pos += 16 * cells
    return n, grid, blocks


def field_json(n: int, grid: int, blocks: dict) -> dict:
    """The JSON form of a field: coefficient tensors flattened in C order."""
    xi = sorted(blocks)
    return {
        "format": "tff",
        "version": 1,
        "n": n,
        "grid_size": grid,
        "xi_min": xi[0],
        "xi_max": xi[-1],
        "meta": {},
        "blocks": [
            {
                "xi": k,
                "re": blocks[k].real.ravel().tolist(),
                "im": blocks[k].imag.ravel().tolist(),
            }
            for k in xi
        ],
    }


def read_field_json(obj: dict) -> tuple:
    require(obj.get("format") == "tff", "field JSON lacks format 'tff'")
    n, grid = int(obj["n"]), int(obj["grid_size"])
    blocks = {}
    for b in obj["blocks"]:
        c = np.asarray(b["re"], dtype=float) + 1j * np.asarray(b["im"], dtype=float)
        blocks[int(b["xi"])] = c.reshape((grid,) * n)
    return n, grid, blocks


def grid_values(c: np.ndarray) -> np.ndarray:
    """Samples on the uniform grid of the trig polynomial with coefficients c."""
    return np.fft.ifftn(c) * c.size


# ---------------------------------------------------------------------------
# verdict workload
# ---------------------------------------------------------------------------


def check_verdict(report: dict, exit_code: int, expected: str, expected_J: list) -> None:
    """``expected`` is the hand-derived verdict; "Unknown" is expected only
    for inputs whose verdict lies beyond the finite horizon."""
    body = report["body"]
    got = body["verdict"]["decision"]
    require(got == expected, f"verdict {got}, derived by hand: {expected}")
    require(
        exit_code == VERDICT_EXIT[got],
        f"exit code {exit_code} does not match verdict {got}",
    )
    J = body["analysis"]["J"]
    require(J == expected_J, f"J = {J}, tubes with b identically zero: {expected_J}")


def check_normalform(report: dict, spec: dict) -> None:
    """Normalized real parts are the averages of the input real parts and
    the imaginary parts are untouched."""
    body = report["body"]
    tubes = body["normalized"]["tubes"]
    require(len(tubes) == len(spec["tubes"]), "normalized spec has the wrong tube count")
    trivial = True
    for j, (got, tube) in enumerate(zip(tubes, spec["tubes"]), start=1):
        a = tube["a"]
        mean = coeff(a.get("const", 0)) if isinstance(a, dict) else coeff(a)
        if isinstance(a, dict):
            trivial = trivial and all(coeff(c) == 0 for c in (*a.get("cos", ()), *a.get("sin", ())))
        got_a = got["a"]
        require(
            not isinstance(got_a, dict), f"tube {j}: normalized real part is not constant"
        )
        require(
            coeff(got_a) == mean and type(coeff(got_a)) is type(mean),
            f"tube {j}: normalized real part {got_a!r} != average {mean}",
        )
        want_b = trig_exp_coeffs(tube["b"], trig_degree(tube["b"]))
        got_b = trig_exp_coeffs(got["b"], trig_degree(got["b"]))
        size = max(want_b.size, got_b.size)
        pad = lambda v: np.pad(v, (size - v.size) // 2)  # noqa: E731
        require(np.array_equal(pad(want_b), pad(got_b)), f"tube {j}: b changed")
    require(body["is_trivial"] == trivial, "is_trivial disagrees with the real parts")


def convergents(digits: list) -> list:
    """(p_n, q_n) of [0; a_1, a_2, ...] by the three-term recurrence."""
    p0, p1, q0, q1 = 1, 0, 0, 1
    out = []
    for a in digits:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        out.append((p1, q1))
    return out


def check_convergents(report: dict, digits: list) -> None:
    rows = report["body"]["convergents"]
    want = convergents(digits)
    require(len(rows) == len(want), f"{len(rows)} convergent rows, expected {len(want)}")
    for row, (p, q) in zip(rows, want):
        require((row["p"], row["q"]) == (p, q), f"convergent {row['n']}: {row} != {p}/{q}")


def check_bounds(report: dict, k: int, n: int) -> None:
    """lower <= |p_n - alpha q_n| <= upper for alpha = [0; k, k, ...]
    = (sqrt(k^2 + 4) - k) / 2, evaluated in 80-digit decimal arithmetic."""
    body = report["body"]
    lo, hi = Fraction(body["lower"]), Fraction(body["upper"])
    p, q = convergents([k] * n)[-1]
    with localcontext() as ctx:
        ctx.prec = 80
        alpha = ((Decimal(k * k + 4).sqrt()) - k) / 2
        err = abs(p - alpha * q)
        require(
            Decimal(lo.numerator) / lo.denominator <= err <= Decimal(hi.numerator) / hi.denominator,
            f"|p_n - alpha q_n| = {err:.6e} outside [{lo}, {hi}]",
        )


def check_cf_classify(report: dict) -> None:
    """A quadratic irrational is badly approximable: never Liouville."""
    kind = report["body"]["verdict"]["kind"]
    require(kind == "NotLiouvilleTrend", f"quadratic irrational classified {kind}")


# ---------------------------------------------------------------------------
# solve workload
# ---------------------------------------------------------------------------


def solve_error(u: dict, u_true: dict, axis: int | None) -> float:
    """max|u - u_true| over the grid, after removing at xi = 0 the t-mean
    along ``axis`` (a mean the equation leaves free), or only the full mean
    when ``axis`` is None."""
    require(sorted(u) == sorted(u_true), "solution frequencies differ from the input's")
    worst = 0.0
    for xi, c_true in u_true.items():
        diff = u[xi] - c_true
        if xi == 0:
            index = [slice(None) if axis is not None else 0] * diff.ndim
            index[axis or 0] = 0
            diff = diff.copy()
            diff[tuple(index)] = 0.0
        worst = max(worst, float(np.abs(grid_values(diff)).max()))
    return worst


def check_solve(report: dict, u: dict, u_true: dict, axis: int | None, route: str) -> None:
    body = report["body"]
    require(body["route"] == route, f"route {body['route']}, expected {route}")
    scale = max(float(np.abs(grid_values(c)).max()) for c in u_true.values())
    err = solve_error(u, u_true, axis)
    require(
        err <= SOLVE_REL_TOL * scale,
        f"max|u - u_true| = {err:.3e} exceeds {SOLVE_REL_TOL:g} * {scale:.3e}",
    )


# ---------------------------------------------------------------------------
# singular workload
# ---------------------------------------------------------------------------


def cf_value(digits: list) -> Fraction:
    """[0; a_1, ..., a_m] exactly."""
    p, q = convergents(digits)[-1]
    return Fraction(p, q)


def check_singular(report: dict, exit_code: int, artifact: dict, spec: dict) -> None:
    body = report["body"]
    require(exit_code == 0, f"exit code {exit_code}")
    require(
        body["verdict"]["decision"] == "NotHypoelliptic",
        f"singular ran on a verdict {body['verdict']['decision']}",
    )
    cert = artifact["certificate"]
    n, grid, blocks = read_field_json(artifact["field"])
    require(n == spec["n"], f"field has n={n}, spec has n={spec['n']}")
    q = int(cert["q"])
    ladder = [int(x) for x in cert["ladder"]]
    require(q >= 1 and all(xi % q == 0 for xi in ladder), f"a ladder rung is not a multiple of q={q}")
    require(len(ladder) == body["ladder_size"], "report and certificate ladders differ")
    require(set(blocks) <= set(ladder), "stored blocks lie off the ladder")
    bounds = {int(xi): float(v) for xi, v in cert["lower_bound_table"]}
    require(set(bounds) == set(ladder), "lower-bound table does not cover the ladder")

    for xi, c in blocks.items():
        peak = float(np.abs(grid_values(c)).max())
        require(
            bounds[xi] <= peak * (1.0 + LOWER_BOUND_REL_TOL),
            f"xi={xi}: certified bound {bounds[xi]!r} > max|u| {peak!r}",
        )

    eta = np.fft.fftfreq(grid, 1.0 / grid)
    witness = spec.get("vector_witness")
    for j, tube in enumerate(spec["tubes"], start=1):
        if not _is_zero(tube["b"]):
            continue
        a = tube["a"]
        if isinstance(a, dict) and "cf" in a:
            alpha = cf_value([int(d) for d in a["cf"].split(",")])
            rule = "witness"
        else:
            alpha = coeff(a.get("const", 0)) if isinstance(a, dict) else coeff(a)
            require((q * alpha).denominator == 1, f"q={q} does not clear a_{j}={alpha}")
            rule = "exact"
        shape = [1] * n
        shape[j - 1] = grid
        for xi, c in blocks.items():
            div = np.abs(eta + float(xi * alpha)).reshape(shape)
            top = float(np.abs(c).max())
            if rule == "exact":
                allowed = J_RESONANCE_REL_TOL * top
            else:
                ln_bound = math.log(witness["bound_scale"]) - witness["delta"] * xi ** (
                    1.0 / float(Fraction(spec["s"]))
                )
                allowed = (math.exp(ln_bound) + J_RESONANCE_REL_TOL) * top
            worst = float((div * np.abs(c)).max())
            require(
                worst <= allowed,
                f"tube {j}, xi={xi}: (eta + xi a_j) c_eta = {worst:.3e} > {allowed:.3e}",
            )


def _is_zero(b) -> bool:
    if isinstance(b, dict):
        vals = [b.get("const", 0), *b.get("cos", ()), *b.get("sin", ())]
    else:
        vals = [b]
    return all(coeff(v) == 0 for v in vals)
