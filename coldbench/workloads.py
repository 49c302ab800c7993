"""Seeded inputs and the command rounds of the three workloads.

``build(name, seed, work, root)`` writes every input a workload needs into
``work`` and returns its :class:`Workload`: one round of operations (a CLI
command line, its kind, and the check of its output) that the runner repeats
in seeded orders.  The same seed gives the same inputs and the same rounds.

Verdicts of generated specs are known by construction from the paper's two
conditions:

* (I)  some b_j is one-signed and not identically zero  -> Hypoelliptic;
* (II) J = {j : b_j = 0} is nonempty and the vector of averages of a_j over
  J is irrational and not approximable at the scale's rate -> Hypoelliptic;
* neither holds -> NotHypoelliptic.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI command and the check of its output."""

    kind: str
    args: list
    #: check(report_dict, exit_code) -> None; raises checks.CheckFailed
    check: Callable
    #: exit codes that mean the command ran to its end
    ok_exits: tuple = (0,)
    #: file the command writes besides its report (removed after the check)
    artifact: Path | None = None


@dataclass
class Workload:
    name: str
    ops: list
    probes_per_round: int
    #: nominal wall time of one untraced round on 2 vCPU (sets the round count)
    round_s: float
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fixture verdicts, derived by hand (reasons in README.md)
# ---------------------------------------------------------------------------

FIXTURE_VERDICTS = {
    "cond1": ("Hypoelliptic", []),
    "crit9_three_tube": ("NotHypoelliptic", [3]),
    "ex63": ("Hypoelliptic", [1, 2]),
    "ex64_factorial": ("Hypoelliptic", [1]),
    "ex64_lemmaA_order_s": ("Unknown", [1]),
    "ex64_lemmaA_order_sprime": ("Unknown", [1]),
    "remark64_pair": ("Hypoelliptic", [1, 2]),
    "singular_allsign": ("NotHypoelliptic", []),
    "singular_expL": ("NotHypoelliptic", [1]),
    "singular_rationalJ": ("NotHypoelliptic", [1]),
    "solve_spec": ("Hypoelliptic", []),
}

SINGULAR_FIXTURES = ("singular_allsign", "crit9_three_tube", "singular_rationalJ", "singular_expL")

ORDERS = ("3/2", "2", "5/2", "3", "smooth")
PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


# ---------------------------------------------------------------------------
# Random coefficients
# ---------------------------------------------------------------------------


def _frac(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def _enc(x, exact: bool):
    return str(x) if exact else float(x)


def _poly(const, cos: dict, sin: dict, exact: bool) -> dict:
    """{"const", "cos", "sin"} with frequency k at list index k - 1."""
    deg = max([*cos, *sin, 0])
    zero = Fraction(0)
    return {
        "const": _enc(const, exact),
        "cos": [_enc(cos.get(k, zero), exact) for k in range(1, deg + 1)],
        "sin": [_enc(sin.get(k, zero), exact) for k in range(1, deg + 1)],
    }


def one_signed_b(rng: random.Random, exact: bool, touch: bool, deg: int | None = None) -> dict:
    """b >= 0 or b <= 0, not identically zero, of degree ``deg`` (random when
    None); ``touch`` makes b vanish somewhere (exact coefficients only: a
    float b that touches zero cannot be certified by sampling)."""
    sign = rng.choice((1, -1))
    if touch:
        if (rng.random() < 0.5) if deg is None else deg % 2:
            # m (r + p cos kt + q sin kt) with p^2 + q^2 = r^2: minimum 0
            p, q, r = rng.choice(PYTHAGOREAN)
            k = deg or rng.randint(1, 3)
            m = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * sign
            return _poly(m * r, {k: m * p * rng.choice((1, -1))}, {k: m * q * rng.choice((1, -1))}, True)
        # m (1 - cos kt)^2 = m (3/2 - 2 cos kt + 1/2 cos 2kt): double zeros
        k = deg // 2 if deg else rng.randint(1, 2)
        m = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * sign
        return _poly(m * Fraction(3, 2), {k: -2 * m, 2 * k: m / 2}, {}, True)
    deg = deg or rng.randint(1, 3)
    if exact:
        cos = {k: _frac(rng) for k in range(1, deg + 1)}
        sin = {k: _frac(rng) for k in range(1, deg + 1)}
        total = sum(abs(v) for v in (*cos.values(), *sin.values()))
        const = (total + Fraction(rng.randint(1, 8), 8)) * sign
    else:
        cos = {k: rng.uniform(-1, 1) for k in range(1, deg + 1)}
        sin = {k: rng.uniform(-1, 1) for k in range(1, deg + 1)}
        total = sum(abs(v) for v in (*cos.values(), *sin.values()))
        const = (1.25 * total + rng.uniform(0.1, 1.0)) * sign
    return _poly(const, cos, sin, exact)


def sign_changing_b(rng: random.Random, exact: bool) -> dict:
    """b = c0 + A cos kt + B sin mt with |c0| + |B| <= 0.6 A: b > 0 where
    cos kt = 1 and b < 0 where cos kt = -1."""
    k, m = rng.randint(1, 3), rng.randint(1, 3)
    if exact:
        A = Fraction(rng.randint(2, 12), rng.randint(1, 4))
        c0 = A * Fraction(rng.randint(-3, 3), 10)
        B = A * Fraction(rng.randint(-3, 3), 10)
    else:
        A = rng.uniform(0.5, 3.0)
        c0 = A * rng.uniform(-0.3, 0.3)
        B = A * rng.uniform(-0.3, 0.3)
    sin = {m: B} if B != 0 else {}
    return _poly(c0, {k: A}, sin, exact)


def rational_a(rng: random.Random, variable: bool) -> object:
    """An exact real part with rational average: constant, or a trig poly."""
    mean = _frac(rng, -7, 7)
    if not variable:
        return str(mean)
    deg = rng.randint(1, 2)
    return _poly(mean, {k: _frac(rng) for k in range(1, deg + 1)}, {1: _frac(rng)}, True)


def any_a(rng: random.Random) -> object:
    """A real part for a tube outside J: its value never enters the verdict."""
    pick = rng.randrange(4)
    if pick == 0:
        return rational_a(rng, variable=False)
    if pick == 1:
        return rational_a(rng, variable=True)
    if pick == 2:
        return rng.uniform(-3, 3)
    return _poly(rng.uniform(-2, 2), {1: rng.uniform(-1, 1)}, {2: rng.uniform(-1, 1)}, False)


# ---------------------------------------------------------------------------
# Generated verdict specs
# ---------------------------------------------------------------------------


def gen_spec(rng: random.Random, category: str) -> tuple:
    """(spec, expected verdict, J, reason) for one verdict category."""
    n = rng.randint(1, 3)
    order = rng.choice(ORDERS)
    tubes = []
    J = []
    if category == "one_signed":
        j0 = rng.randrange(n)
        exact = rng.random() < 0.6
        touch = exact and rng.random() < 0.5
        for j in range(n):
            if j == j0:
                b = one_signed_b(rng, exact, touch)
            else:
                b = sign_changing_b(rng, rng.random() < 0.5)
            tubes.append({"a": any_a(rng), "b": b})
        kind = "touches zero" if touch else ("exact" if exact else "float")
        return _spec(n, order, tubes), "Hypoelliptic", J, f"(I): b_{j0 + 1} one-signed ({kind})"
    if category == "sign_change":
        for _ in range(n):
            tubes.append({"a": any_a(rng), "b": sign_changing_b(rng, rng.random() < 0.5)})
        return _spec(n, order, tubes), "NotHypoelliptic", J, "every b_j changes sign, J empty"
    if category == "rational_J":
        zero = set(rng.sample(range(n), rng.randint(1, n)))
        for j in range(n):
            if j in zero:
                tubes.append({"a": rational_a(rng, rng.random() < 0.5), "b": "0"})
                J.append(j + 1)
            else:
                tubes.append({"a": any_a(rng), "b": sign_changing_b(rng, rng.random() < 0.5)})
        return _spec(n, order, tubes), "NotHypoelliptic", J, "J averages rational, other b_j change sign"
    if category == "quadratic_J":
        # smooth scale: a quadratic irrational is badly approximable, so the
        # averaged vector over J is not Liouville and (II) holds.
        k = rng.randint(1, 40)
        jq = rng.randrange(n)
        for j in range(n):
            if j == jq:
                tubes.append({"a": {"cf": f"constant:{k}"}, "b": "0"})
                J.append(j + 1)
            elif rng.random() < 0.5:
                tubes.append({"a": rational_a(rng, False), "b": "0"})
                J.append(j + 1)
            else:
                tubes.append({"a": any_a(rng), "b": sign_changing_b(rng, rng.random() < 0.5)})
        return _spec(n, "smooth", tubes), "Hypoelliptic", J, f"(II): a_{jq + 1} = [0; {k}, {k}, ...]"
    raise ValueError(category)


def _spec(n: int, order: str, tubes: list) -> dict:
    return {"n": n, "s": order, "tubes": tubes}


def gen_normalform_spec(rng: random.Random, n: int) -> dict:
    """A spec of n tubes whose real parts are non-constant trig polynomials
    (exact or float); b is any of the generated kinds."""
    tubes = []
    for _ in range(n):
        exact = rng.random() < 0.5
        if exact:
            a = rational_a(rng, variable=True)
        else:
            a = _poly(rng.uniform(-2, 2), {1: rng.uniform(-1, 1)}, {2: rng.uniform(-1, 1)}, False)
        pick = rng.randrange(3)
        if pick == 0:
            b = one_signed_b(rng, exact, False)
        elif pick == 1:
            b = sign_changing_b(rng, exact)
        else:
            b = "0"
        tubes.append({"a": a, "b": b})
    return _spec(n, rng.choice(ORDERS), tubes)


def _write_json(path: Path, obj) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _verdict_op(kind: str, spec_path: Path, expected: str, J: list) -> Op:
    def check(report, code):
        checks.check_verdict(report, code, expected, J)

    return Op(kind=kind, args=[kind, str(spec_path)], check=check, ok_exits=(0, 10, 20))


def build_verdict(seed: int, work: Path, root: Path) -> Workload:
    rng = random.Random(f"verdict-{seed}")
    ops = []
    notes = {}
    # Every spec fixture once per round, split between classify and diagnose.
    names = sorted(FIXTURE_VERDICTS)
    rng.shuffle(names)
    for i, name in enumerate(names):
        expected, J = FIXTURE_VERDICTS[name]
        ops.append(_verdict_op(("classify", "diagnose")[i % 2], root / "fixtures" / f"{name}.json", expected, J))
    # Generated specs: each category once under each command.
    for kind in ("classify", "diagnose"):
        for category in ("one_signed", "sign_change", "rational_J", "quadratic_J"):
            spec, expected, J, reason = gen_spec(rng, category)
            path = _write_json(work / f"{kind}-{category}.json", spec)
            notes[path.name] = f"{expected}: {reason}"
            ops.append(_verdict_op(kind, path, expected, J))
    # normalform on specs with non-constant real parts; n is fixed per
    # command because the probe field of normalform grows as 32^n.
    for i in range(3):
        spec = gen_normalform_spec(rng, i + 1)
        path = _write_json(work / f"normalform-{i}.json", spec)
        ops.append(Op(
            kind="normalform",
            args=["normalform", str(path)],
            check=lambda report, code, spec=spec: checks.check_normalform(report, spec),
        ))
    # cf: convergents of an explicit digit list, bounds and classify of a
    # quadratic irrational [0; k, k, ...].
    digits = [rng.randint(1, 999) for _ in range(rng.randint(6, 12))]
    ops.append(Op(
        kind="cf",
        args=["cf", "convergents", ",".join(map(str, digits)), "--n", str(len(digits))],
        check=lambda report, code: checks.check_convergents(report, digits),
    ))
    k, nb = rng.randint(1, 60), rng.randint(3, 10)
    ops.append(Op(
        kind="cf",
        args=["cf", "bounds", f"constant:{k}", "--n", str(nb)],
        check=lambda report, code: checks.check_bounds(report, k, nb),
    ))
    kc = rng.randint(1, 60)
    ops.append(Op(
        kind="cf",
        args=["cf", "classify", f"constant:{kc}", "--n", "8"],
        check=lambda report, code: checks.check_cf_classify(report),
    ))
    return Workload("verdict", ops, probes_per_round=3, round_s=35.0, notes=notes)


# ---------------------------------------------------------------------------
# solve workload: manufactured problems
# ---------------------------------------------------------------------------

#: (kind, n, grid, xi_max, real part) of each solve command; the all-real
#: kind ("cf") reads a multi-field JSON right-hand side, the others TFF.
SOLVE_KINDS = (
    ("solve.tube1", 1, 64, 320, "constant"),
    ("solve.tube2", 2, 32, 256, "constant"),
    ("solve.gauged", 1, 64, 160, "variable"),
    ("solve.division", 2, 16, 96, "cf"),
)


def _u_true(rng: np.random.Generator, n: int, grid: int, xi_max: int, band: int) -> dict:
    """Random coefficients band-limited to |eta_i| <= band, decaying in eta
    and xi, in fftfreq layout."""
    eta = np.fft.fftfreq(grid, 1.0 / grid)
    mesh = np.meshgrid(*([eta] * n), indexing="ij")
    radius = sum(np.abs(m) for m in mesh)
    inside = np.ones(mesh[0].shape, dtype=bool)
    for m in mesh:
        inside &= np.abs(m) <= band
    out = {}
    for xi in range(-xi_max, xi_max + 1):
        c = rng.standard_normal(mesh[0].shape) + 1j * rng.standard_normal(mesh[0].shape)
        c *= np.exp(-0.4 * radius - 0.3 * math.sqrt(abs(xi))) * inside
        out[xi] = c
    return out


def apply_tube(c: dict, axis: int, a, b) -> dict:
    """Coefficients of L u = d/dt_j u + (a + i b)(t_j) d/dx u, by exact
    convolution along ``axis`` (inputs band-limited, so nothing wraps)."""
    deg = max(checks.trig_degree(a), checks.trig_degree(b))
    coef = checks.trig_exp_coeffs(a, deg) + 1j * checks.trig_exp_coeffs(b, deg)
    out = {}
    for xi, u in c.items():
        grid = u.shape[axis]
        eta = np.fft.fftfreq(grid, 1.0 / grid)
        shape = [1] * u.ndim
        shape[axis] = grid
        f = 1j * eta.reshape(shape) * u
        if xi:
            for l in range(-deg, deg + 1):
                if coef[l + deg] != 0:
                    f = f + 1j * xi * coef[l + deg] * np.roll(u, l, axis=axis)
        out[xi] = f
    return out


def _solve_spec(rng: random.Random, n: int, real: str) -> tuple:
    """(spec, the digits k_j of the all-real kind or None) for one solve kind."""
    tubes = []
    if real == "cf":
        ks = rng.sample(range(1, 30), n)
        for k in ks:
            tubes.append({"a": {"cf": f"constant:{k}"}, "b": "0"})
        return _spec(n, rng.choice(ORDERS), tubes), ks
    # deg b = 2 fixed: the banded solve's cost grows with the bandwidth
    exact = rng.random() < 0.5
    b = one_signed_b(rng, exact, touch=exact and rng.random() < 0.5, deg=2)
    if real == "variable":
        eps = Fraction(rng.randint(1, 4), 200)
        a = _poly(_frac(rng, -3, 3), {1: eps}, {2: eps / 2}, True)
    else:
        a = str(_frac(rng, -5, 5))
    tubes.append({"a": a, "b": b})
    for _ in range(n - 1):
        # constant real parts keep the gauge off the spectator axes
        tubes.append({"a": rational_a(rng, False), "b": sign_changing_b(rng, rng.random() < 0.5)})
    return _spec(n, rng.choice(ORDERS[:4]), tubes), None


def build_solve(seed: int, work: Path, root: Path) -> Workload:
    rng = random.Random(f"solve-{seed}")
    nrng = np.random.default_rng(rng.getrandbits(64))
    ops = []
    notes = {}
    for kind, n, grid, xi_max, real in SOLVE_KINDS:
        spec, ks = _solve_spec(rng, n, real)
        spec_path = _write_json(work / f"{kind}.spec.json", spec)
        if real == "cf":
            # all-real route: f_j = i (eta_j + xi alpha_j) u for every tube
            u_true = _u_true(nrng, n, grid, xi_max, grid // 2 - 1)
            alphas = [(math.sqrt(k * k + 4) - k) / 2 for k in ks]
            fields = [apply_tube(u_true, j, alphas[j], "0") for j in range(n)]
            rhs_path = _write_json(
                work / f"{kind}.rhs.json",
                {"fields": [checks.field_json(n, grid, f) for f in fields]},
            )
            out_path, route, axis = work / f"{kind}.out.json", "division", None
        else:
            tube = spec["tubes"][0]
            deg = max(checks.trig_degree(tube["a"]), checks.trig_degree(tube["b"]))
            band = 8 if real == "variable" else grid // 2 - 1 - deg
            u_true = _u_true(nrng, n, grid, xi_max, band)
            f = apply_tube(u_true, 0, tube["a"], tube["b"])
            rhs_path = work / f"{kind}.rhs.tff"
            checks.write_tff(rhs_path, n, grid, f)
            out_path, route, axis = work / f"{kind}.out.tff", "single-tube", 0
        notes[kind] = {
            "n": n, "grid": grid, "xi": [-xi_max, xi_max],
            "rhs_bytes": rhs_path.stat().st_size,
        }

        def check(report, code, u_true=u_true, out_path=out_path, route=route, axis=axis):
            if out_path.suffix == ".tff":
                _, _, u = checks.read_tff(out_path)
            else:
                with open(out_path, encoding="utf-8") as fh:
                    _, _, u = checks.read_field_json(json.load(fh))
            checks.check_solve(report, u, u_true, axis, route)

        ops.append(Op(
            kind=kind,
            args=["solve", str(spec_path), str(rhs_path), str(out_path)],
            check=check,
            artifact=out_path,
        ))
    return Workload("solve", ops, probes_per_round=1, round_s=8.3, notes=notes)


# ---------------------------------------------------------------------------
# singular workload
# ---------------------------------------------------------------------------


def build_singular(seed: int, work: Path, root: Path) -> Workload:
    ops = []
    for name in SINGULAR_FIXTURES:
        spec_path = root / "fixtures" / f"{name}.json"
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        out_path = work / f"{name}.solution.json"

        def check(report, code, spec=spec, out_path=out_path):
            with open(out_path, encoding="utf-8") as fh:
                artifact = json.load(fh)
            checks.check_singular(report, code, artifact, spec)

        ops.append(Op(
            kind=f"singular.{name}",
            args=["singular", str(spec_path), str(out_path)],
            check=check,
            artifact=out_path,
        ))
    return Workload("singular", ops, probes_per_round=2, round_s=21.5)


BUILDERS = {"verdict": build_verdict, "solve": build_solve, "singular": build_singular}


def build(name: str, seed: int, work: Path, root: Path) -> Workload:
    return BUILDERS[name](seed, work, root)


def main(argv: list) -> int:
    """Write a workload's inputs for one seed and list its command lines."""
    if len(argv) != 3 or argv[0] not in BUILDERS:
        sys.stderr.write(f"usage: python3 coldbench/workloads.py {{{','.join(BUILDERS)}}} SEED DIR\n")
        return 2
    work = Path(argv[2]).resolve()
    work.mkdir(parents=True, exist_ok=True)
    workload = build(argv[0], int(argv[1]), work, Path(__file__).resolve().parent.parent)
    for op in workload.ops:
        print(f"{op.kind}: python -m torus_hypo.cli {' '.join(op.args)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
