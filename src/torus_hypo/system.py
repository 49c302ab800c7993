"""System model and the global-regularity verdict oracle.

A system of n commuting vector fields on the (n+1)-torus is described by n
"tubes", the j-th acting in the variables (t_j, x) as

    d/dt_j + (a_j + i*b_j)(t_j) * d/dx,

with real trigonometric-polynomial (or constant) coefficients.  The analysis
workflow is:

1. ``average`` each coefficient (exact when the input is exact);
2. ``sign_analysis`` of each b_j: identically zero / one-signed / changes
   sign, with an exact algebraic certificate for exact coefficients and a
   grid-plus-Lipschitz certificate for float coefficients;
3. assemble the index set J of tubes with b_j identically zero and the
   averaged vector over J;
4. ``decide``: the system is globally regular (order-s Gevrey, or smooth)
   exactly when either some b_j is one-signed and nonzero, or J is nonempty
   and the averaged vector over J is irrational and not approximable at
   stretched-exponential (resp. power-law) rate.

Verdicts carry machine-readable witnesses; Unknown is returned whenever the
available evidence cannot certify either direction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import diophantine as dio
from .diophantine import (
    DiophantineVerdict,
    LiouvilleWitness,
    RealConstant,
    EXP_LIOUVILLE_TREND,
    LIOUVILLE_TREND,
    NOT_EXP_LIOUVILLE_TREND,
    NOT_LIOUVILLE_TREND,
    RATIONAL,
    UNKNOWN,
)
from .errors import (
    MalformedInput,
    MissingClassification,
    OrderError,
)
from .gevrey import TrigPoly

# sign profiles
IDENTICALLY_ZERO = "IdenticallyZero"
NON_NEGATIVE_NOT_ZERO = "NonNegativeNotZero"
NON_POSITIVE_NOT_ZERO = "NonPositiveNotZero"
CHANGES_SIGN = "ChangesSign"
UNCERTIFIABLE = "Uncertifiable"

# decisions
HYPOELLIPTIC = "Hypoelliptic"
NOT_HYPOELLIPTIC = "NotHypoelliptic"
DECISION_UNKNOWN = "Unknown"

#: float coefficients all below this are treated as an approximate zero
ZERO_COEFF_TOL = 1e-14


# ---------------------------------------------------------------------------
# Order (the regularity scale being decided)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    """Regularity scale: Gevrey of order s > 1, smooth, or analytic.

    ``s_exact`` keeps the user-supplied rational when one was given (several
    combinatorial checks are exact for rational s).
    """

    kind: str  # "gevrey" | "smooth" | "analytic"
    s: float | None = None
    s_exact: Fraction | None = None

    @classmethod
    def gevrey(cls, s) -> "Order":
        if isinstance(s, str):
            s = Fraction(s)
        if isinstance(s, (int, Fraction)):
            exact = Fraction(s)
            return cls(kind="gevrey", s=float(exact), s_exact=exact)
        if not math.isfinite(s):
            raise MalformedInput(f"non-finite Gevrey order {s!r}")
        return cls(kind="gevrey", s=float(s), s_exact=None)

    @classmethod
    def smooth(cls) -> "Order":
        return cls(kind="smooth")

    @classmethod
    def from_json(cls, obj) -> "Order":
        if isinstance(obj, Order):
            return obj
        if isinstance(obj, str):
            text = obj.strip().lower()
            if text == "smooth":
                return cls.smooth()
            if text == "analytic":
                return cls(kind="analytic", s=1.0, s_exact=Fraction(1))
            return cls.gevrey(obj.strip())
        if isinstance(obj, (int, float)):
            return cls.gevrey(obj)
        raise MalformedInput(f"cannot parse regularity order from {obj!r}")

    @property
    def is_gevrey(self) -> bool:
        return self.kind == "gevrey"

    def validate_for_decision(self) -> None:
        if self.kind == "analytic":
            raise OrderError(
                "the analytic scale is out of scope; use a Gevrey order s > 1 or smooth"
            )
        if self.kind == "gevrey" and not (self.s > 1):
            raise OrderError(f"Gevrey verdicts require s > 1, got s={self.s}")

    def to_json(self):
        if self.kind == "gevrey":
            return str(self.s_exact) if self.s_exact is not None else self.s
        return self.kind


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class Tube:
    """One tube: coefficient pair (a_j, b_j) of d/dt_j + (a_j+i b_j) d/dx."""

    a: object  # TrigPoly | RealConstant
    b: TrigPoly

    def __post_init__(self):
        if not isinstance(self.b, TrigPoly):
            raise MalformedInput("b must be a real trigonometric polynomial")
        if not isinstance(self.a, (TrigPoly, RealConstant)):
            raise MalformedInput("a must be a trig polynomial or a real constant")

    @classmethod
    def from_json(cls, obj: dict) -> "Tube":
        if not isinstance(obj, dict):
            raise MalformedInput(f"tube must be an object, got {obj!r}")
        return cls(
            a=_parse_field("a", _coefficient_from_json, obj.get("a", 0)),
            b=_parse_field("b", TrigPoly.from_json, obj.get("b")),
        )

    def to_json(self) -> dict:
        a = self.a.to_json() if isinstance(self.a, (TrigPoly, RealConstant)) else self.a
        return {"a": a, "b": self.b.to_json()}


def _parse_field(name: str, parse, value):
    """``parse(value)``; a value it cannot parse raises MalformedInput naming
    the field."""
    try:
        return parse(value)
    except MalformedInput as exc:
        raise MalformedInput(f"{name}: {exc}") from exc
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise MalformedInput(f"{name}: {type(exc).__name__}: {exc}") from exc


def _coefficient_from_json(obj) -> object:
    """A tube coefficient: variable trig polynomial or a real constant."""
    if isinstance(obj, (TrigPoly, RealConstant)):
        return obj
    if isinstance(obj, dict):
        if "cf" in obj or "rational" in obj:
            return RealConstant.from_json(obj)
        return TrigPoly.from_json(obj)
    # bare numbers/strings are constants
    return RealConstant.from_json(obj)


@dataclass
class SystemSpec:
    """Full system description: n tubes and the regularity scale to decide.

    Optional fields carry user-supplied vector-level approximation evidence
    for the averaged constants over J (see Remark-style non-compositional
    examples): ``vector_witness`` is a simultaneous-approximation witness to
    be verified best-effort, ``vector_assertion`` a trusted classification.
    """

    n: int
    tubes: list
    order: Order
    vector_witness: LiouvilleWitness | None = None
    vector_assertion: str | None = None

    def __post_init__(self):
        if self.n < 1 or len(self.tubes) != self.n:
            raise MalformedInput(
                f"need n >= 1 tubes with len(tubes) == n, got n={self.n}, "
                f"{len(self.tubes)} tubes"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "SystemSpec":
        if not isinstance(obj, dict):
            raise MalformedInput("system spec must be a JSON object")
        if "tubes" not in obj:
            raise MalformedInput("system spec missing field 'tubes'")
        if not isinstance(obj["tubes"], list):
            raise MalformedInput("tubes: expected a list of tube objects")
        tubes = [
            _parse_field(f"tubes[{i}]", Tube.from_json, t)
            for i, t in enumerate(obj["tubes"])
        ]
        n = _parse_field("n", int, obj.get("n", len(tubes)))
        order_key = "s" if "s" in obj else "order"
        order = _parse_field(order_key, Order.from_json, obj.get(order_key, "smooth"))
        witness = obj.get("vector_witness")
        assertion = obj.get("vector_assertion")
        return cls(
            n=n,
            tubes=tubes,
            order=order,
            vector_witness=(
                _parse_field("vector_witness", LiouvilleWitness.from_json, witness)
                if witness
                else None
            ),
            vector_assertion=str(assertion) if assertion else None,
        )

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "s": self.order.to_json(),
            "tubes": [t.to_json() for t in self.tubes],
        }
        if self.vector_witness is not None:
            out["vector_witness"] = self.vector_witness.to_json()
        if self.vector_assertion is not None:
            out["vector_assertion"] = self.vector_assertion
        return out


@dataclass
class SystemAnalysis:
    """Averaged constants, zero set J, and per-tube sign profiles."""

    a0: list  # RealConstant per tube
    b0: list  # RealConstant per tube
    J: list  # 1-based indices with b_j identically zero
    profiles: list  # sign profile string per tube
    approx_zero: list  # True where IdenticallyZero rests on a float tolerance

    @property
    def ell(self) -> int:
        return len(self.J)

    def a_J0(self) -> list:
        """The averaged vector over J, in J order."""
        return [self.a0[j - 1] for j in self.J]

    def to_json(self) -> dict:
        return {
            "a0": [c.to_json() for c in self.a0],
            "b0": [c.to_json() for c in self.b0],
            "J": list(self.J),
            "ell": self.ell,
            "profiles": list(self.profiles),
            "approx_zero": list(self.approx_zero),
        }


@dataclass
class Verdict:
    """Decision plus a machine-readable witness and a prose explanation."""

    decision: str
    witness: dict
    explanation: str

    def to_json(self) -> dict:
        return {
            "decision": self.decision,
            "witness": self.witness,
            "explanation": self.explanation,
        }


# ---------------------------------------------------------------------------
# Averaging and sign analysis
# ---------------------------------------------------------------------------


def average(p) -> RealConstant:
    """Mean value over one period; exact for exact inputs, and the identity
    on constants."""
    if isinstance(p, RealConstant):
        return p
    if isinstance(p, TrigPoly):
        m = p.mean()
        if isinstance(m, (Fraction, int)):
            return RealConstant.from_fraction(m)
        return RealConstant.from_float(m)
    raise MalformedInput(f"cannot average {p!r}")


def sign_analysis(b: TrigPoly) -> str:
    """Classify b as IdenticallyZero / NonNegativeNotZero /
    NonPositiveNotZero / ChangesSign (or Uncertifiable).

    Exact coefficients get an exact algebraic certificate: on the half-angle
    substitution u = tan(t/2) the function b(t)*(1+u^2)^D is a polynomial
    with rational coefficients, and b changes sign on the circle exactly
    when that polynomial has a real root of odd multiplicity or odd degree
    (the latter is a sign change across t = pi).  One-signed profiles that
    merely touch zero are certified this way.

    Float coefficients use dense sampling with the global Lipschitz bound
    M = sum_k k(|cos_k|+|sin_k|): a grid value with |b(t_k)| > M*pi/N
    certifies a strict sign on the surrounding cell; the grid is refined by
    doubling until every cell is certified or the refinement cap is hit, in
    which case the profile is Uncertifiable.
    """
    profile, _ = sign_analysis_detail(b)
    return profile


def sign_analysis_detail(b: TrigPoly):
    if not isinstance(b, TrigPoly):
        raise MalformedInput("sign analysis expects a trig polynomial")
    if b.is_exact:
        if b.is_zero:
            return IDENTICALLY_ZERO, {"certificate": "exact", "approx_zero": False}
        return _exact_profile(b), {"certificate": "exact", "approx_zero": False}
    coeffs = [b.const, *b.cos, *b.sin]
    if all(abs(float(c)) < ZERO_COEFF_TOL for c in coeffs):
        return IDENTICALLY_ZERO, {"certificate": "tolerance", "approx_zero": True}
    return _grid_profile(b), {"certificate": "grid+lipschitz", "approx_zero": False}


def _halfangle_polynomial(b: TrigPoly) -> list:
    """Coefficients (ascending, Fractions) of Q(u) = b(t(u)) * (1+u^2)^D
    under u = tan(t/2), using cos(kt) + i sin(kt) = (1+iu)^{2k} / (1+u^2)^k."""
    D = b.degree
    size = 2 * D + 1
    out = [Fraction(0)] * size

    def add_scaled(target, poly, scale):
        for i, c in enumerate(poly):
            target[i] += scale * c

    def one_plus_u2_pow(j):
        # ascending coefficients of (1+u^2)^j
        out = [Fraction(0)] * (2 * j + 1)
        for m in range(j + 1):
            out[2 * m] = Fraction(math.comb(j, m))
        return out

    def mul(p1, p2):
        res = [Fraction(0)] * (len(p1) + len(p2) - 1)
        for i, c1 in enumerate(p1):
            if c1 == 0:
                continue
            for j, c2 in enumerate(p2):
                if c2 == 0:
                    continue
                res[i + j] += c1 * c2
        return res

    add_scaled(out, one_plus_u2_pow(D), Fraction(b.const))
    for k in range(1, D + 1):
        ck = Fraction(b.coefficient("cos", k))
        sk = Fraction(b.coefficient("sin", k))
        if ck == 0 and sk == 0:
            continue
        # (1+iu)^{2k}: real part has even powers, imaginary part odd powers
        re = [Fraction(0)] * (2 * k + 1)
        im = [Fraction(0)] * (2 * k + 1)
        for m in range(0, 2 * k + 1):
            c = Fraction(math.comb(2 * k, m))
            if m % 4 == 0:
                re[m] = c
            elif m % 4 == 1:
                im[m] = c
            elif m % 4 == 2:
                re[m] = -c
            else:
                im[m] = -c
        base = one_plus_u2_pow(D - k)
        if ck != 0:
            add_scaled(out, mul(re, base), ck)
        if sk != 0:
            add_scaled(out, mul(im, base), sk)
    return out


def _exact_profile(b: TrigPoly) -> str:
    coeffs = _poly_trim(_halfangle_polynomial(b))
    if not coeffs:
        return IDENTICALLY_ZERO
    if (len(coeffs) - 1) % 2 == 1:
        # odd degree: opposite signs as u -> +-infinity, i.e. across t = pi
        return CHANGES_SIGN
    for factor, mult in _squarefree_factors(coeffs):
        if mult % 2 == 1 and len(factor) > 1 and _real_root_count(factor) > 0:
            return CHANGES_SIGN
    lc = coeffs[-1]
    return NON_NEGATIVE_NOT_ZERO if lc > 0 else NON_POSITIVE_NOT_ZERO


# Exact polynomials: ascending Fraction coefficient lists without trailing
# zeros ([] is the zero polynomial).


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(num: list, den: list):
    rem, quo = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in reversed(range(len(quo))):
        c = quo[i] = rem[i + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            rem[i + j] -= c * d
    return quo, _poly_trim(rem[: len(den) - 1])


def _poly_derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _poly_gcd(p: list, q: list) -> list:
    """Monic greatest common divisor of p != 0 and q (Euclid)."""
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    return [c / p[-1] for c in p]


def _squarefree_factors(f: list) -> list:
    """Yun's square-free decomposition (Yun, SYMSAC 1976): pairs (a_i, i)
    with f = lc(f) * prod a_i^i, the a_i monic, square-free and coprime."""
    df = _poly_derivative(f)
    g = _poly_gcd(f, df)
    b, c = _poly_divmod(f, g)[0], _poly_divmod(df, g)[0]
    out = []
    while len(b) > 1:
        db = _poly_derivative(b)
        d = _poly_trim([x - y for x, y in itertools.zip_longest(c, db, fillvalue=0)])
        a = _poly_gcd(b, d)
        out.append((a, len(out) + 1))
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
    return out


def _real_root_count(p: list) -> int:
    """Distinct real roots of p (degree >= 1) by Sturm's theorem (Sturm
    1829): sign changes of the Sturm sequence at -inf minus those at +inf."""
    seq = [p, _poly_derivative(p)]
    while rem := _poly_divmod(seq[-2], seq[-1])[1]:
        seq.append([-c for c in rem])
    at_minus = [(q[-1] > 0) == (len(q) % 2 == 1) for q in seq]
    at_plus = [q[-1] > 0 for q in seq]
    minus, plus = (sum(x != y for x, y in zip(s, s[1:])) for s in (at_minus, at_plus))
    return minus - plus


def _grid_profile(b: TrigPoly, max_refinements: int = 6) -> str:
    D = max(b.degree, 1)
    M = b.lipschitz_bound()
    N0 = 64 * (D + 1)
    for r in range(max_refinements + 1):
        N = N0 << r
        tk = 2.0 * np.pi * np.arange(N) / N
        vals = b(tk)
        margin = M * np.pi / N
        pos = bool((vals > margin).any())
        neg = bool((vals < -margin).any())
        uncovered = bool((np.abs(vals) <= margin).any())
        if pos and neg:
            return CHANGES_SIGN
        if not uncovered:
            if pos:
                return NON_NEGATIVE_NOT_ZERO
            if neg:
                return NON_POSITIVE_NOT_ZERO
            return UNCERTIFIABLE
    return UNCERTIFIABLE


def analyze(spec: SystemSpec) -> SystemAnalysis:
    """Averages, sign profiles, and the zero set J for every tube."""
    a0 = []
    b0 = []
    profiles = []
    approx_zero = []
    J = []
    for idx, tube in enumerate(spec.tubes, start=1):
        a0.append(average(tube.a))
        profile, meta = sign_analysis_detail(tube.b)
        profiles.append(profile)
        approx_zero.append(bool(meta["approx_zero"]))
        if profile == IDENTICALLY_ZERO:
            J.append(idx)
            b0.append(RealConstant.from_fraction(0))
        else:
            b0.append(average(tube.b))
    return SystemAnalysis(a0=a0, b0=b0, J=J, profiles=profiles, approx_zero=approx_zero)


# ---------------------------------------------------------------------------
# Vector-level classification over J
# ---------------------------------------------------------------------------

_ASSERTION_KINDS = {
    RATIONAL,
    LIOUVILLE_TREND,
    NOT_LIOUVILLE_TREND,
    NOT_EXP_LIOUVILLE_TREND,
    EXP_LIOUVILLE_TREND,
    UNKNOWN,
}


def classify_vector(
    components: Sequence[RealConstant],
    order: Order,
    witness: LiouvilleWitness | None = None,
    assertion: str | None = None,
    n_max: int = dio.DEFAULT_HORIZON,
) -> DiophantineVerdict:
    """Approximation verdict for a vector of averaged constants.

    Sound composition rules only:

    * every component rational  ->  Rational (the vector is rational);
    * some component certified irrational with a favorable trend (not
      stretched-exponentially / not power-law approximable)  ->  the vector
      inherits that favorable trend, because a simultaneous approximation of
      the vector approximates every coordinate at once;
    * exactly one irrational component, with an unfavorable trend, all other
      components rational  ->  the vector inherits the unfavorable trend
      (rational coordinates ride along after an integer rescaling);
    * two or more irrational components never combine by themselves —
      componentwise unfavorable verdicts do NOT imply a vector verdict (the
      scale of simultaneous approximation is genuinely stronger), so the
      result is Unknown unless the caller supplies vector-level evidence.

    ``witness`` (verified row by row) is finite-horizon unfavorable
    evidence; ``assertion`` is a trusted classification and wins outright.
    """
    if not components:
        raise MalformedInput("vector classification needs at least one component")
    s = order.s if order.is_gevrey else None
    if assertion is not None:
        if assertion not in _ASSERTION_KINDS:
            raise MalformedInput(
                f"unknown vector assertion {assertion!r}; expected one of "
                f"{sorted(_ASSERTION_KINDS)}"
            )
        return DiophantineVerdict(
            kind=assertion,
            s=s,
            evidence=[{"source": "assertion"}],
            n_used=0,
        )

    per = [c.classify(s=s, n_max=n_max) for c in components]
    favorable = NOT_EXP_LIOUVILLE_TREND if order.is_gevrey else NOT_LIOUVILLE_TREND
    unfavorable = EXP_LIOUVILLE_TREND if order.is_gevrey else LIOUVILLE_TREND

    if all(c.is_rational for c in components):
        return DiophantineVerdict(
            kind=RATIONAL,
            s=s,
            evidence=[{"component": i + 1, "kind": RATIONAL} for i in range(len(per))],
            n_used=0,
        )

    evidence = [
        {"component": i + 1, "kind": v.kind, "rows": v.evidence}
        | ({"certificate": v.certificate} if v.certificate else {})
        for i, v in enumerate(per)
    ]

    if witness is not None:
        checks = dio.verify_witness_rows(witness, list(components), s if s else 1.0)
        evidence.append({"source": "witness", "rows_verified": checks})
        if len(checks) >= 3 and all(checks):
            return DiophantineVerdict(
                kind=unfavorable,
                s=s,
                evidence=evidence,
                n_used=len(checks),
            )

    for i, v in enumerate(per):
        if v.kind == favorable and components[i].is_certified_irrational:
            return DiophantineVerdict(
                kind=favorable, s=s, evidence=evidence, n_used=v.n_used
            )

    irrational_idx = [
        i for i, c in enumerate(components) if not c.is_rational
    ]
    if len(irrational_idx) == 1:
        i = irrational_idx[0]
        if per[i].kind == unfavorable and components[i].is_certified_irrational:
            return DiophantineVerdict(
                kind=unfavorable, s=s, evidence=evidence, n_used=per[i].n_used
            )

    return DiophantineVerdict(kind=UNKNOWN, s=s, evidence=evidence, n_used=0)


# ---------------------------------------------------------------------------
# The decision oracle
# ---------------------------------------------------------------------------


def decide(
    analysis: SystemAnalysis,
    order: Order,
    dio_verdict: DiophantineVerdict | None = None,
) -> Verdict:
    """Apply the two-condition dichotomy to an analyzed system.

    Route I: some b_j one-signed and not identically zero -> regular.
    Route II: J nonempty and the averaged vector over J irrational and not
    approximable at the relevant rate -> regular.  Both certified to fail ->
    not regular.  Anything resting on an Unknown classification or an
    uncertifiable sign profile -> Unknown.
    """
    order.validate_for_decision()
    for idx, profile in enumerate(analysis.profiles, start=1):
        if profile in (NON_NEGATIVE_NOT_ZERO, NON_POSITIVE_NOT_ZERO):
            return Verdict(
                decision=HYPOELLIPTIC,
                witness={"kind": "ConditionI", "tube": idx, "profile": profile},
                explanation=(
                    f"tube {idx}: b_{idx} is one-signed ({profile}) and not "
                    f"identically zero, which forces regularity on its own"
                ),
            )

    scale = f"order-{order.s} Gevrey" if order.is_gevrey else "smooth"
    route2_failed_reason = None
    if analysis.J:
        if dio_verdict is None:
            raise MissingClassification(
                "J is nonempty: deciding needs a classification of the averaged "
                "vector over J"
            )
        favorable = NOT_EXP_LIOUVILLE_TREND if order.is_gevrey else NOT_LIOUVILLE_TREND
        unfavorable = EXP_LIOUVILLE_TREND if order.is_gevrey else LIOUVILLE_TREND
        if dio_verdict.kind == favorable:
            return Verdict(
                decision=HYPOELLIPTIC,
                witness={
                    "kind": "ConditionII",
                    "J": list(analysis.J),
                    "vector": dio_verdict.to_json(),
                },
                explanation=(
                    f"J={analysis.J}: averaged vector is irrational and its "
                    f"approximation scores rule out the {scale}-breaking rate "
                    f"({dio_verdict.kind})"
                ),
            )
        if dio_verdict.kind == RATIONAL:
            route2_failed_reason = "averaged vector over J is rational"
        elif dio_verdict.kind == unfavorable:
            route2_failed_reason = (
                f"averaged vector over J is approximable at the breaking rate "
                f"({dio_verdict.kind})"
            )
        else:
            return Verdict(
                decision=DECISION_UNKNOWN,
                witness={
                    "kind": "MissingClassification",
                    "J": list(analysis.J),
                    "vector": dio_verdict.to_json(),
                },
                explanation=(
                    f"J={analysis.J} but the averaged vector could not be "
                    f"classified at desk scale; no verdict"
                ),
            )

    if any(p == UNCERTIFIABLE for p in analysis.profiles):
        bad = [i + 1 for i, p in enumerate(analysis.profiles) if p == UNCERTIFIABLE]
        return Verdict(
            decision=DECISION_UNKNOWN,
            witness={"kind": "MissingClassification", "uncertified_tubes": bad},
            explanation=(
                f"tubes {bad} have uncertifiable sign profiles, so failure of "
                f"the one-signed route cannot be certified"
            ),
        )

    reasons = []
    for idx, profile in enumerate(analysis.profiles, start=1):
        if profile == CHANGES_SIGN:
            reasons.append(f"b_{idx} changes sign")
        elif profile == IDENTICALLY_ZERO:
            reasons.append(f"b_{idx} is identically zero")
    if route2_failed_reason:
        reasons.append(route2_failed_reason)
    else:
        reasons.append("J is empty")
    return Verdict(
        decision=NOT_HYPOELLIPTIC,
        witness={"kind": "FailureBothConditions", "reasons": reasons},
        explanation=(
            f"no tube is one-signed and the averaged-vector route fails "
            f"({'; '.join(reasons)}); the system is not {scale} regular"
        ),
    )


def classify_system(
    spec: SystemSpec, n_max: int = dio.DEFAULT_HORIZON
) -> tuple:
    """One-call orchestration: analyze, classify the J-vector, decide.

    Returns (analysis, dio_verdict_or_None, verdict).
    """
    analysis = analyze(spec)
    dio_verdict = None
    if analysis.J:
        dio_verdict = classify_vector(
            analysis.a_J0(),
            spec.order,
            witness=spec.vector_witness,
            assertion=spec.vector_assertion,
            n_max=n_max,
        )
    verdict = decide(analysis, spec.order, dio_verdict)
    return analysis, dio_verdict, verdict
