"""System model and the global-regularity verdict oracle.

A system of n commuting vector fields on the (n+1)-torus is described by n
"tubes", the j-th acting in the variables (t_j, x) as

    d/dt_j + (a_j + i*b_j)(t_j) * d/dx,

with real trigonometric-polynomial (or constant) coefficients.  The analysis
workflow is:

1. ``average`` each coefficient (exact when the input is exact);
2. ``sign_analysis`` of each b_j: identically zero / one-signed / changes
   sign, with an exact algebraic certificate; a float coefficient is read
   as the dyadic rational it holds, so floats get the same certificate;
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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import diophantine as dio
from .diophantine import (
    DiophantineVerdict,
    LiouvilleWitness,
    Order,
    RealConstant,
    EXP_LIOUVILLE_TREND,
    LIOUVILLE_TREND,
    NOT_EXP_LIOUVILLE_TREND,
    NOT_LIOUVILLE_TREND,
    RATIONAL,
    UNKNOWN,
)
from .errors import MalformedInput, MissingClassification, _integer, _parse_field
from .gevrey import TrigPoly

# sign profiles
IDENTICALLY_ZERO = "IdenticallyZero"
NON_NEGATIVE_NOT_ZERO = "NonNegativeNotZero"
NON_POSITIVE_NOT_ZERO = "NonPositiveNotZero"
CHANGES_SIGN = "ChangesSign"

# decisions
HYPOELLIPTIC = "Hypoelliptic"
NOT_HYPOELLIPTIC = "NotHypoelliptic"
DECISION_UNKNOWN = "Unknown"


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

    @property
    def a_is_constant(self) -> bool:
        """Whether a_j is constant: a real constant, or a trig polynomial
        whose cos and sin coefficients are all zero."""
        return isinstance(self.a, RealConstant) or not any(self.a.cos + self.a.sin)

    @classmethod
    def from_json(cls, obj: dict) -> "Tube":
        if not isinstance(obj, dict):
            raise MalformedInput(f"tube must be an object, got {obj!r}")
        MalformedInput.refuse_unknown_keys(obj, ("a", "b"))
        return cls(
            a=_parse_field("a", _coefficient_from_json, obj.get("a", 0)),
            b=_parse_field("b", TrigPoly.from_json, obj.get("b")),
        )

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json()}


def _coefficient_from_json(obj) -> object:
    """A tube coefficient: a trig polynomial object, or a real constant (a
    number, a string or a ``{"cf": ...}`` object)."""
    if isinstance(obj, dict) and "cf" not in obj:
        return TrigPoly.from_json(obj)
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
        MalformedInput.refuse_unknown_keys(
            obj, ("n", "s", "order", "tubes", "vector_witness", "vector_assertion")
        )
        if "tubes" not in obj:
            raise MalformedInput("system spec missing field 'tubes'")
        if not isinstance(obj["tubes"], list):
            raise MalformedInput("tubes: expected a list of tube objects")
        tubes = [
            _parse_field(f"tubes[{i}]", Tube.from_json, t)
            for i, t in enumerate(obj["tubes"])
        ]
        n = _parse_field("n", _integer, obj.get("n", len(tubes)))
        order_key = "s" if "s" in obj else "order"
        order = _parse_field(order_key, Order.from_json, obj.get(order_key, "smooth"))
        witness = obj.get("vector_witness")
        assertion = obj.get("vector_assertion")
        return cls(
            n=n,
            tubes=tubes,
            order=order,
            vector_witness=(
                None
                if witness is None
                else _parse_field("vector_witness", LiouvilleWitness.from_json, witness)
            ),
            vector_assertion=(
                None
                if assertion is None
                else _parse_field("vector_assertion", _assertion_kind, assertion)
            ),
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
    NonPositiveNotZero / ChangesSign, with an exact algebraic certificate.

    On the half-angle substitution u = tan(t/2) the function
    b(t)*(1+u^2)^D is a polynomial Q with rational coefficients, and b
    changes sign on the circle exactly when Q has a real root of odd
    multiplicity or odd degree (the latter is a sign change across t = pi).
    One-signed profiles that merely touch zero are certified this way.  A
    float coefficient is the dyadic rational ``Fraction(x)``, so float b is
    decided by the same rule, about the value the float holds: a b of 1e-15
    is positive, not zero.

    With g_0 = Q and g_(k+1) = gcd(g_k, g_k'), a real root of multiplicity m
    is a root of g_0 .. g_(m-1) and of no later g_k, so it adds 1 to the
    alternating sum N_0 - N_1 + N_2 - ... of their numbers of distinct real
    roots when m is odd, and 0 when m is even.  Q and every remainder are
    kept primitive in Z[u] (Collins 1967, Brown 1971): a positive scaling
    moves no sign or root, and the coefficients stop growing.
    :func:`real_zeros` locates the zeros on the same Sturm sequences.
    """
    if not isinstance(b, TrigPoly):
        raise MalformedInput("sign analysis expects a trig polynomial")
    q = _halfangle_polynomial(b)
    if not q:
        return IDENTICALLY_ZERO
    if len(q) % 2 == 0:
        # odd degree: opposite signs as u -> +-infinity, i.e. across t = pi
        return CHANGES_SIGN
    counts, g = [], q
    while len(g) > 1:
        seq = _sturm(g)
        counts.append(_variations(seq, -1, 0) - _variations(seq, 1, 0))
        g = _primitive(seq[-1])
    if sum(counts[::2]) > sum(counts[1::2]):
        return CHANGES_SIGN
    return NON_NEGATIVE_NOT_ZERO if q[-1] > 0 else NON_POSITIVE_NOT_ZERO


#: the same function under the name that coldbench/tracer.py wraps
sign_analysis_detail = sign_analysis


def _halfangle_polynomial(b: TrigPoly) -> list:
    """Q(u) = b(t(u)) * (1+u^2)^D under u = tan(t/2), times the positive
    rational that makes it a primitive integer polynomial.

    (1+u^2)^k (cos kt + i sin kt) = w^k for w = (1+iu)^2 = 1 + 2iu - u^2, so
    Q = sum_k (1+u^2)^(D-k) (c_k Re w^k + s_k Im w^k), summed by Horner's rule
    in 1+u^2 while w^k is multiplied by w.  Re w^k has only even powers of u
    and Im w^k only odd ones, so one list ``w`` holds both."""
    coeffs = [Fraction(b.const)] + [
        Fraction(b.coefficient(kind, k)) for k in range(1, b.degree + 1) for kind in ("cos", "sin")
    ]
    scale = math.lcm(*(c.denominator for c in coeffs))
    const, *cos_sin = (int(c * scale) for c in coeffs)
    q, w = [const], [1]
    for c, s in zip(cos_sin[::2], cos_sin[1::2]):
        w = [x - z + (2 if m % 2 else -2) * y for m, (x, y, z) in enumerate(_shifts(w))]
        q = [x + z + (s if m % 2 else c) * y for m, ((x, _, z), y) in enumerate(zip(_shifts(q), w))]
    return _primitive(_poly_trim(q))


# Integer polynomials: ascending int coefficient lists without trailing
# zeros ([] is the zero polynomial).


def _shifts(p: list):
    """(p, u p, u^2 p) coefficient by coefficient."""
    return zip(p + [0, 0], [0] + p + [0], [0, 0] + p)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p: list) -> list:
    """p divided by its content, a positive integer."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _poly_rem(num: list, den: list) -> list:
    """Primitive part of the pseudo-remainder of num by den, taken with the
    multiplier |lc(den)|: a positive multiple of the remainder."""
    sign, rem = (1 if den[-1] > 0 else -1), list(num)
    while len(_poly_trim(rem)) >= len(den):
        c = sign * rem.pop()
        rem = [abs(den[-1]) * x for x in rem]
        for j, d in enumerate(den[:-1], start=len(rem) - len(den) + 1):
            rem[j] -= c * d
    return _primitive(rem)


def _sturm(p: list) -> list:
    """The Sturm sequence of p (Sturm 1829) for p of degree >= 1: p, p' and
    the negated remainders down to gcd(p, p').  Its variations at -inf minus
    those at +inf count the distinct real roots of p.  Square-free p is not
    needed, and positive factors on the remainders move no sign.
    :func:`real_zeros` isolates the roots on the same sequence."""
    seq = [p, [k * c for k, c in enumerate(p)][1:]]
    while rem := _poly_rem(seq[-2], seq[-1]):
        seq.append([-c for c in rem])
    return seq


def _value(p: list, n: int, d: int) -> int:
    """d^deg(p) * p(n/d) in integers: the sign of p(n/d) for d > 0, and of p
    at n * infinity for d = 0."""
    v, dk = 0, 1
    for c in reversed(p):
        v, dk = v * n + c * dk, dk * d
    return v


def _variations(seq: list, n: int, d: int) -> int:
    """Sign changes along ``seq`` at u = n/d, or at n * infinity for d = 0,
    zero terms skipped."""
    signs = [v > 0 for p in seq if (v := _value(p, n, d))]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _poly_quo(num: list, den: list) -> list:
    """num / den for a primitive den that divides num in Z[u]."""
    rem, quo = list(num), []
    while len(rem) >= len(den):
        quo.insert(0, rem.pop() // den[-1])
        for j, d in enumerate(den[:-1], start=len(rem) - len(den) + 1):
            rem[j] -= quo[0] * d
    return quo


def real_zeros(b: TrigPoly) -> list:
    """The distinct zeros of b on the circle, as ascending angles.

    Sturm counts on the square-free part p of the half-angle polynomial Q
    isolate each real root u of Q in a dyadic interval (lo, hi]/scale, as p's
    only root there, a simple one.  Exact signs of p then bisect it until
    both ends round to one double (a midpoint that is a root is kept), and
    t = 2*atan(u) mod 2*pi; t = pi is a zero when deg Q < 2 deg b.  A float
    counts as the rational it holds."""
    q = _halfangle_polynomial(b)
    zeros = [math.pi] if q and len(q) <= 2 * b.degree else []
    if len(q) < 2:
        return zeros
    seq = _sturm(q)
    if len(seq[-1]) > 1:  # a repeated root: isolate on the square-free part
        seq = _sturm(_poly_quo(q, _primitive(seq[-1])))
    p = seq[0]
    # Cauchy: every root has |u| < big, so the variations at +-big are those at +-inf
    big = 1 << (max(map(abs, p)) // abs(p[-1]) + 1).bit_length()
    todo = [(-big, big, 1, _variations(seq, -1, 0), _variations(seq, 1, 0))]
    while todo:
        lo, hi, scale, v_lo, v_hi = todo.pop()
        if v_lo - v_hi > 1:
            mid, scale = lo + hi, 2 * scale
            v_mid = _variations(seq, mid, scale)
            todo += [(2 * lo, mid, scale, v_lo, v_mid), (mid, 2 * hi, scale, v_mid, v_hi)]
        elif v_lo - v_hi == 1:
            right = _value(p, hi, scale)  # 0 if hi is the root, else p's sign right of it
            while right and lo / scale != hi / scale:
                mid, lo, hi, scale = lo + hi, 2 * lo, 2 * hi, 2 * scale
                v = _value(p, mid, scale)  # right's sign: root < mid; 0: root = mid
                lo, hi = (lo, mid) if v * right > 0 else (mid, hi) if v else (mid, mid)
            zeros.append(2 * math.atan(hi / scale) % (2 * math.pi))
    return sorted(zeros)


def analyze(spec: SystemSpec) -> SystemAnalysis:
    """Averages, sign profiles, and the zero set J for every tube."""
    a0 = []
    b0 = []
    profiles = []
    J = []
    for idx, tube in enumerate(spec.tubes, start=1):
        a0.append(average(tube.a))
        profile = sign_analysis(tube.b)
        profiles.append(profile)
        if profile == IDENTICALLY_ZERO:
            J.append(idx)
            b0.append(RealConstant.from_fraction(0))
        else:
            b0.append(average(tube.b))
    return SystemAnalysis(a0=a0, b0=b0, J=J, profiles=profiles)


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


def _assertion_kind(assertion) -> str:
    """A ``vector_assertion``: one of the verdict kinds, spelled exactly."""
    if not isinstance(assertion, str) or assertion not in _ASSERTION_KINDS:
        raise MalformedInput(
            f"unknown vector assertion {assertion!r}; expected one of "
            f"{sorted(_ASSERTION_KINDS)}"
        )
    return assertion


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

    ``witness`` (verified row by row) is finite-horizon unfavorable evidence
    that a certified favorable tail overrides; ``assertion`` wins outright.
    """
    if not components:
        raise MalformedInput("vector classification needs at least one component")
    s = order.s
    if assertion is not None:
        return DiophantineVerdict(
            kind=_assertion_kind(assertion),
            s=s,
            evidence=[{"source": "assertion"}],
            n_used=0,
        )

    per = [c.classify(s=s, n_max=n_max) for c in components]
    favorable, unfavorable = order.favorable, order.unfavorable

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

    checks = []
    if witness is not None:
        checks = dio.verify_witness_rows(witness, list(components), s if s else 1.0)
        evidence.append({"source": "witness", "rows_verified": checks})

    # a certified favorable tail holds for every q; finitely many rows cannot beat it
    for i, v in enumerate(per):
        if v.kind == favorable and components[i].is_certified_irrational:
            return DiophantineVerdict(
                kind=favorable, s=s, evidence=evidence, n_used=v.n_used
            )
    if len(checks) >= 3 and all(checks):
        return DiophantineVerdict(kind=unfavorable, s=s, evidence=evidence, n_used=len(checks))

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
    not regular.  Anything resting on an Unknown classification -> Unknown.
    """
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
        if dio_verdict.kind == order.favorable:
            asserted = dio_verdict.evidence[:1] == [{"source": "assertion"}]
            source = "the vector_assertion" if asserted else "a digit-stream tail certificate"
            return Verdict(
                decision=HYPOELLIPTIC,
                witness={
                    "kind": "ConditionII",
                    "J": list(analysis.J),
                    "vector": dio_verdict.to_json(),
                },
                explanation=(
                    f"J={analysis.J}: averaged vector is irrational and {source} "
                    f"rules out the {scale}-breaking rate ({dio_verdict.kind})"
                ),
            )
        if dio_verdict.kind == RATIONAL:
            route2_failed_reason = "averaged vector over J is rational"
        elif dio_verdict.kind == order.unfavorable:
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
