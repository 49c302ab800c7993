"""Averages, sign profiles, the zero set J, and the two-condition oracle."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from torus_hypo import diophantine as D
from torus_hypo import system as S
from torus_hypo.errors import MalformedInput, MissingClassification, OrderError
from torus_hypo.gevrey import TrigPoly

from conftest import load_fixture

SIN = {"sin": ["1"]}
ONE_PLUS_COS = {"const": "1", "cos": ["1"]}


def rc(obj) -> D.RealConstant:
    return D.RealConstant.from_json(obj)


def spec_from(n, tubes, s="2", **extra) -> S.SystemSpec:
    return S.SystemSpec.from_json({"n": n, "s": s, "tubes": tubes, **extra})


# ---------------------------------------------------------------------------
# Averages
# ---------------------------------------------------------------------------


def test_average_of_trig_polys():
    assert S.average(TrigPoly.from_json(SIN)).fraction == 0
    assert S.average(TrigPoly.from_json({"const": "1/2", "cos": ["1"]})).fraction == Fraction(1, 2)


def test_average_passes_constants_through():
    c = rc({"cf": "factorial_pow10"})
    assert S.average(c) is c


# ---------------------------------------------------------------------------
# Sign profiles
# ---------------------------------------------------------------------------


def test_sign_analysis_basic_profiles():
    assert S.sign_analysis(TrigPoly.from_json(SIN)) == S.CHANGES_SIGN
    assert S.sign_analysis(TrigPoly.from_json(ONE_PLUS_COS)) == S.NON_NEGATIVE_NOT_ZERO
    assert S.sign_analysis(TrigPoly.from_json({"const": "-1", "cos": ["-1"]})) == S.NON_POSITIVE_NOT_ZERO
    assert S.sign_analysis(TrigPoly.from_json("0")) == S.IDENTICALLY_ZERO
    assert S.sign_analysis(TrigPoly.from_json("-3")) == S.NON_POSITIVE_NOT_ZERO


def test_sign_analysis_tiny_float_is_one_signed_not_zero():
    # a float is the dyadic rational it holds: 1e-16 > 0, not an approximate zero
    assert S.sign_analysis(TrigPoly(const=1e-16)) == S.NON_NEGATIVE_NOT_ZERO
    assert S.sign_analysis(TrigPoly(const=0.0, cos=[0.0])) == S.IDENTICALLY_ZERO


def test_sign_analysis_touching_zero_is_one_signed():
    # 1 + cos t vanishes at t = pi but never changes sign.
    prof = S.sign_analysis(TrigPoly.from_json(ONE_PLUS_COS))
    assert prof == S.NON_NEGATIVE_NOT_ZERO


def _trig_product(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact product of two trig polynomials by the product-to-sum formulas."""
    terms = {}  # ("cos" | "sin", k >= 0) -> coefficient; ("cos", 0) is the constant

    def add(kind, k, c):
        if k < 0:
            k, c = -k, (c if kind == "cos" else -c)
        if k or kind == "cos":
            terms[kind, k] = terms.get((kind, k), Fraction(0)) + c

    def parts(b):
        yield "cos", 0, Fraction(b.const)
        for k in range(1, b.degree + 1):
            yield "cos", k, Fraction(b.coefficient("cos", k))
            yield "sin", k, Fraction(b.coefficient("sin", k))

    for k1, j, c1 in parts(p):
        for k2, m, c2 in parts(q):
            c = c1 * c2 / 2
            if k1 == k2 == "cos":  # cos cos = (cos(j-m) + cos(j+m)) / 2
                add("cos", j - m, c), add("cos", j + m, c)
            elif k1 == k2 == "sin":  # sin sin = (cos(j-m) - cos(j+m)) / 2
                add("cos", j - m, c), add("cos", j + m, -c)
            else:  # sin(x) cos(y) = (sin(x+y) + sin(x-y)) / 2
                x, y = (j, m) if k1 == "sin" else (m, j)
                add("sin", x + y, c), add("sin", x - y, c)
    D = max(k for _, k in terms)
    return TrigPoly(
        const=terms["cos", 0],
        cos=[terms.get(("cos", k), Fraction(0)) for k in range(1, D + 1)],
        sin=[terms.get(("sin", k), Fraction(0)) for k in range(1, D + 1)],
    )


def _checked_halfangle_polynomial(b: TrigPoly) -> list:
    """``S._halfangle_polynomial(b)``, checked against b(t) (1+u^2)^D at 2D+1
    rational u, with cos t = (1-u^2)/(1+u^2), sin t = 2u/(1+u^2) and cos kt,
    sin kt from the Chebyshev recurrences.  Both sides have degree <= 2D, so
    they are one polynomial up to the positive factor their ratio must be."""
    q, D = S._halfangle_polynomial(b), b.degree
    assert len(q) <= 2 * D + 1
    ratios = set()
    for m in range(-D, D + 1):
        u = Fraction(m, 3)
        cos, sin = [Fraction(1), (1 - u * u) / (1 + u * u)], [Fraction(0), 2 * u / (1 + u * u)]
        for _ in range(2, D + 1):
            cos.append(2 * cos[1] * cos[-1] - cos[-2])
            sin.append(2 * cos[1] * sin[-1] - sin[-2])
        value = (1 + u * u) ** D * (
            Fraction(b.const)
            + sum(Fraction(b.coefficient("cos", k)) * cos[k] for k in range(1, D + 1))
            + sum(Fraction(b.coefficient("sin", k)) * sin[k] for k in range(1, D + 1))
        )
        q_at_u = sum(c * u**i for i, c in enumerate(q))
        assert (value == 0) == (q_at_u == 0)
        if q_at_u:
            ratios.add(value / q_at_u)
    assert len(ratios) == (1 if q else 0) and all(r > 0 for r in ratios)
    return q


def _sympy_profile(b: TrigPoly) -> str:
    """The reference rule, in sympy: b changes sign exactly when its
    half-angle polynomial has odd degree or a real root of odd multiplicity."""
    sympy = pytest.importorskip("sympy")
    coeffs = _checked_halfangle_polynomial(b)
    if not coeffs:
        return S.IDENTICALLY_ZERO
    if (len(coeffs) - 1) % 2 == 1:
        return S.CHANGES_SIGN
    u = sympy.Symbol("u")
    poly = sympy.Poly([sympy.Integer(c) for c in reversed(coeffs)], u, domain="ZZ")
    for factor, mult in poly.sqf_list()[1]:
        if mult % 2 == 1 and factor.degree() >= 1 and factor.intervals():
            return S.CHANGES_SIGN
    return S.NON_NEGATIVE_NOT_ZERO if coeffs[-1] > 0 else S.NON_POSITIVE_NOT_ZERO


def _sympy_roots(b: TrigPoly) -> list:
    """sympy's real roots of the half-angle polynomial, ascending, each as
    (the integer coefficients of the square-free part ``poly.sqf_part()``,
    ascending; the root's isolating interval [a, c] from ``intervals()``)."""
    sympy = pytest.importorskip("sympy")
    coeffs = S._halfangle_polynomial(b)
    if len(coeffs) < 2:
        return []
    poly = sympy.Poly([sympy.Integer(c) for c in reversed(coeffs)], sympy.Symbol("u"), domain="ZZ")
    part = poly.sqf_part()
    f = [int(c) for c in reversed(part.all_coeffs())]
    return [(f, Fraction(a.p, a.q), Fraction(c.p, c.q)) for a, c in part.intervals(sqf=True)]


def _within(t: float, root: tuple, tol: float = 1e-12) -> bool:
    """Whether the simple root of f isolated in [a, c], mapped through
    2 atan, is within tol of t in (-pi, pi): f changes sign on [a, c] cut
    down to tan((t -+ tol) / 2), exactly in rationals, so the root is there."""
    f, a, c = root
    lo, hi = max(a, Fraction(math.tan((t - tol) / 2))), min(c, Fraction(math.tan((t + tol) / 2)))

    def sign(u: Fraction) -> int:  # of den^deg f(num/den)
        n, d = u.numerator, u.denominator
        value = sum(k * n**i * d ** (len(f) - 1 - i) for i, k in enumerate(f))
        return (value > 0) - (value < 0)

    return lo <= hi and sign(lo) * sign(hi) <= 0


def _random_factor(rng) -> TrigPoly:
    """One factor: generic, touching zero, or a Pythagorean r + p cos kt + q sin kt."""
    k = rng.randint(1, 3)
    m = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 4))
    kind = rng.randrange(4)
    if kind == 0:  # m (1 - cos kt)^2
        one_minus_cos = TrigPoly(const=1, cos=[0] * (k - 1) + [-1])
        return _trig_product(one_minus_cos, one_minus_cos).scale(m)
    if kind == 1:  # m (r + p cos kt + q sin kt) with p^2 + q^2 = r^2: touches zero
        p, q, r = rng.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17), (1, 0, 1), (0, 1, 1)])
        p, q = rng.choice([1, -1]) * p, rng.choice([1, -1]) * q
        return TrigPoly(const=r, cos=[0] * (k - 1) + [p], sin=[0] * (k - 1) + [q]).scale(m)
    frac = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5))  # noqa: E731
    return TrigPoly(const=frac(), cos=[frac() for _ in range(k)], sin=[frac() for _ in range(k)])


def test_exact_profile_matches_sympy_rule():
    """The exact sign certificate equals the sympy rule on random products of
    factors that change sign, touch zero, or repeat, and on float b: random
    floats of degree <= 3, dense floats of degree 8 and 12, and exact b moved
    by ``translate``.  Up to degree 6, the zeros that ``real_zeros`` isolates
    on the same Sturm sequences are sympy's real roots, to 1e-12."""
    cases = [
        TrigPoly(const=1, cos=[-1]),
        _trig_product(TrigPoly(const=1, cos=[0, -1]), TrigPoly(const=1, cos=[0, -1])),
        TrigPoly(const=5, cos=[0, 3], sin=[0, -4]),
        TrigPoly(const=0, sin=[1]),
        TrigPoly(const=Fraction(-1, 2), cos=[0, 0, 1]),
        TrigPoly(const=1e-15, cos=[1e-15]),
        TrigPoly(const=0.1, cos=[-0.1]),
    ]
    rng = random.Random(20261018)
    for _ in range(200):
        b = _random_factor(rng)
        for _ in range(rng.randint(0, 2)):
            f = _random_factor(rng)
            for _ in range(rng.choice([1, 1, 2, 3])):  # repeated factors
                if b.degree + f.degree <= 6:
                    t = rng.uniform(0, 2 * math.pi)
                    product = _trig_product(b, f)
                    assert math.isclose(product(t), b(t) * f(t), rel_tol=1e-9, abs_tol=1e-9)
                    b = product
        cases.append(b)
    for _ in range(12):
        k = rng.randint(1, 3)
        coeff = lambda: rng.choice([0.0, rng.uniform(-2, 2)])  # noqa: E731
        cos, sin = [coeff() for _ in range(k)], [coeff() for _ in range(k)]
        cases.append(TrigPoly(const=rng.uniform(-2, 2), cos=cos, sin=sin))
    for _ in range(8):
        cases.append(_random_factor(rng).translate(rng.uniform(0, 2 * math.pi)))
    for k, ratio in itertools.product((8, 12), (0.3, 1.1)):  # mean / sum of |coefficients|
        cos, sin = [rng.uniform(-1, 1) for _ in range(k)], [rng.uniform(-1, 1) for _ in range(k)]
        const = rng.choice([1, -1]) * ratio * sum(map(abs, cos + sin))
        cases.append(TrigPoly(const=const, cos=cos, sin=sin))
    profiles, located = set(), 0
    for b in cases:
        want = _sympy_profile(b)
        assert S.sign_analysis(b) == want, b
        profiles.add(want)
        if b.degree <= 6:
            zeros = S.real_zeros(b)
            assert zeros == sorted(set(zeros)) and all(0 <= t <= 2 * math.pi for t in zeros), b
            # in u order: t in (-pi, pi), then t = pi, a zero when deg Q < 2 deg b
            got = sorted(t - 2 * math.pi if t > math.pi else t for t in zeros)
            q = S._halfangle_polynomial(b)
            assert (got[-1:] == [math.pi]) == (0 < len(q) <= 2 * b.degree), b
            got = got[:-1] if got[-1:] == [math.pi] else got
            roots = _sympy_roots(b)
            assert len(got) == len(roots) and all(map(_within, got, roots)), b
            located += bool(zeros)
    assert profiles == {S.CHANGES_SIGN, S.NON_NEGATIVE_NOT_ZERO, S.NON_POSITIVE_NOT_ZERO}
    assert located >= 200


def test_sign_analysis_translation_invariance():
    base = TrigPoly.from_json({"const": "1/4", "cos": ["1/2"], "sin": ["0", "1/3"]})
    want = S.sign_analysis(base)
    for k in (1, 7, 31):
        tau = 2 * math.pi * k / 64
        assert S.sign_analysis(base.translate(tau)) == want


# ---------------------------------------------------------------------------
# System analysis
# ---------------------------------------------------------------------------


def test_analyze_j_set_examples():
    a = spec_from(2, [{"a": "0", "b": SIN}, {"a": "0", "b": "0"}])
    ana = S.analyze(a)
    assert ana.J == [2]
    assert ana.profiles == [S.CHANGES_SIGN, S.IDENTICALLY_ZERO]

    b = spec_from(1, [{"a": "0", "b": ONE_PLUS_COS}])
    assert S.analyze(b).J == []

    c = spec_from(3, [{"a": "0", "b": "0"}] * 3)
    ana_c = S.analyze(c)
    assert ana_c.J == [1, 2, 3]
    assert all(p == S.IDENTICALLY_ZERO for p in ana_c.profiles)


def test_analyze_invariant_j_iff_zero_profile():
    spec = spec_from(
        3,
        [{"a": "1/2", "b": SIN}, {"a": "0", "b": "0"}, {"a": "0", "b": ONE_PLUS_COS}],
    )
    ana = S.analyze(spec)
    for j in range(1, 4):
        assert (j in ana.J) == (ana.profiles[j - 1] == S.IDENTICALLY_ZERO)
    for j in ana.J:
        assert ana.b0[j - 1].fraction == 0


# ---------------------------------------------------------------------------
# The two-condition decision
# ---------------------------------------------------------------------------


def test_decide_condition_one():
    spec = spec_from(2, [{"a": "1/7", "b": ONE_PLUS_COS}, {"a": "0", "b": SIN}])
    ana = S.analyze(spec)
    v = S.decide(ana, S.Order.gevrey(2))
    assert v.decision == S.HYPOELLIPTIC
    assert v.witness["kind"] == "ConditionI"
    assert v.witness["tube"] == 1
    assert v.witness["profile"] == S.NON_NEGATIVE_NOT_ZERO


def test_decide_rational_j_not_hypoelliptic():
    spec = spec_from(2, [{"a": "1/2", "b": "0"}, {"a": "0", "b": SIN}])
    ana = S.analyze(spec)
    dio = S.classify_vector([ana.a0[0]], S.Order.gevrey(2))
    v = S.decide(ana, S.Order.gevrey(2), dio)
    assert v.decision == S.NOT_HYPOELLIPTIC


def test_decide_all_change_sign_not_hypoelliptic():
    spec = spec_from(2, [{"a": {"cf": "constant:2"}, "b": SIN}, {"a": "3/4", "b": SIN}])
    v = S.decide(S.analyze(spec), S.Order.gevrey(2))
    assert v.decision == S.NOT_HYPOELLIPTIC
    assert v.witness["kind"] == "FailureBothConditions"


def test_decide_requires_dio_when_j_nonempty():
    spec = spec_from(1, [{"a": {"cf": "factorial_pow10"}, "b": "0"}])
    with pytest.raises(MissingClassification):
        S.decide(S.analyze(spec), S.Order.gevrey(2))


def test_decide_condition_two_example_63():
    spec = spec_from(2, [{"a": {"cf": "factorial_pow10"}, "b": "0"}, {"a": "0", "b": "0"}])
    ana = S.analyze(spec)
    order = S.Order.gevrey(2)
    dio = S.classify_vector(ana.a0, order)
    v = S.decide(ana, order, dio)
    assert v.decision == S.HYPOELLIPTIC
    assert v.witness["kind"] == "ConditionII"
    smooth = S.Order.smooth()
    v2 = S.decide(ana, smooth, S.classify_vector(ana.a0, smooth))
    assert v2.decision == S.NOT_HYPOELLIPTIC


def test_decide_unknown_only_when_dio_unknown():
    spec = spec_from(1, [{"a": {"cf": "2,2,2,2,2,2,2,2"}, "b": "0"}])
    ana = S.analyze(spec)
    order = S.Order.gevrey(2)
    dio = S.classify_vector(ana.a0, order)
    assert dio.kind == S.UNKNOWN  # a finite digit list: honest Unknown
    v = S.decide(ana, order, dio)
    assert v.decision == S.DECISION_UNKNOWN
    assert v.witness["kind"] == "MissingClassification"


def test_decide_monotone_in_evidence():
    # Resolving an Unknown Diophantine verdict never flips a definite decision.
    cond1 = spec_from(1, [{"a": "0", "b": ONE_PLUS_COS}])
    allsign = spec_from(2, [{"a": "1/3", "b": SIN}, {"a": "0", "b": SIN}])
    kinds = [S.RATIONAL, S.LIOUVILLE_TREND, S.NOT_EXP_LIOUVILLE_TREND, S.EXP_LIOUVILLE_TREND, S.UNKNOWN]
    for spec, want in ((cond1, S.HYPOELLIPTIC), (allsign, S.NOT_HYPOELLIPTIC)):
        ana = S.analyze(spec)
        for kind in kinds:
            dio = D.DiophantineVerdict(kind=kind, s=2.0)
            assert S.decide(ana, S.Order.gevrey(2), dio).decision == want


def test_decide_condition_one_permutation_invariant():
    tubes = [
        {"a": "1/7", "b": ONE_PLUS_COS},
        {"a": "0", "b": SIN},
        {"a": "1/2", "b": {"const": "-2", "sin": ["1"]}},
    ]
    decisions = set()
    for perm in itertools.permutations(tubes):
        spec = spec_from(3, list(perm))
        decisions.add(S.decide(S.analyze(spec), S.Order.gevrey(2)).decision)
    assert decisions == {S.HYPOELLIPTIC}


def test_decide_hypoelliptic_witness_invariant():
    cases = [
        spec_from(1, [{"a": "0", "b": ONE_PLUS_COS}]),
        spec_from(2, [{"a": {"cf": "factorial_pow10"}, "b": "0"}, {"a": "0", "b": "0"}]),
    ]
    for spec in cases:
        ana = S.analyze(spec)
        order = S.Order.gevrey(2)
        dio = S.classify_vector(ana.a0, order) if ana.J else None
        v = S.decide(ana, order, dio)
        assert v.decision == S.HYPOELLIPTIC
        assert v.witness["kind"] in ("ConditionI", "ConditionII")


# ---------------------------------------------------------------------------
# Order validation
# ---------------------------------------------------------------------------


def test_gevrey_order_must_exceed_one():
    with pytest.raises(OrderError):
        S.Order.gevrey(1)
    with pytest.raises(OrderError):
        S.Order.gevrey("1/2")
    S.Order.gevrey("3/2")  # fine
    assert S.Order.gevrey("3/2").s == pytest.approx(1.5)
    assert S.Order.smooth().is_gevrey is False


def test_order_json_round_trip():
    for obj in ("2", "3/2", "smooth"):
        o = S.Order.from_json(obj)
        assert S.Order.from_json(o.to_json()).to_json() == o.to_json()


# ---------------------------------------------------------------------------
# Vector classification composition rules
# ---------------------------------------------------------------------------


def test_vector_all_rational():
    v = S.classify_vector([rc("1/3"), rc("1/2")], S.Order.gevrey(2))
    assert v.kind == S.RATIONAL


def test_vector_favorable_component_composes():
    # One certified not-exp-Liouville component rules the whole vector out.
    v = S.classify_vector([rc({"cf": "factorial_pow10"}), rc("1/2")], S.Order.gevrey(2))
    assert v.kind == S.NOT_EXP_LIOUVILLE_TREND
    v2 = S.classify_vector(
        [rc({"cf": "factorial_pow10"}), rc({"cf": "constant:2"})], S.Order.gevrey(2)
    )
    assert v2.kind == S.NOT_EXP_LIOUVILLE_TREND


def test_vector_single_unfavorable_plus_rationals_composes():
    v = S.classify_vector([rc({"cf": "factorial_pow10"}), rc("1/2")], S.Order.smooth())
    assert v.kind == S.LIOUVILLE_TREND


def test_vector_two_unfavorable_never_combine_componentwise():
    # Component verdicts do not determine the vector verdict with >= 2
    # irrational coordinates in the unfavorable direction.
    v = S.classify_vector(
        [rc({"cf": "factorial_pow10"}), rc({"cf": "factorial_pow10"})], S.Order.smooth()
    )
    assert v.kind == S.UNKNOWN


def test_vector_two_unknown_irrationals():
    v = S.classify_vector([rc({"cf": "2,2,2,2,2,2"}), rc({"cf": "6,6,6,6,6,6"})], S.Order.gevrey(2))
    assert v.kind == S.UNKNOWN


def test_vector_witness_route():
    spec = load_fixture("singular_expL.json")
    alpha = rc(spec["tubes"][0]["a"])
    w = D.LiouvilleWitness.from_json(spec["vector_witness"])
    assert S.classify_vector([alpha], S.Order.gevrey(2)).kind == S.UNKNOWN
    v = S.classify_vector([alpha], S.Order.gevrey(2), witness=w)
    assert v.kind == S.EXP_LIOUVILLE_TREND


def test_vector_witness_needs_three_verified_rows():
    spec = load_fixture("singular_expL.json")
    alpha = rc(spec["tubes"][0]["a"])
    w = D.LiouvilleWitness(1.0, [((-1,), 3), ((-11,), 34)])  # only two rows
    v = S.classify_vector([alpha], S.Order.gevrey(2), witness=w)
    assert v.kind == S.UNKNOWN


def test_vector_favorable_tail_beats_a_verified_witness():
    """A certified favorable tail is a proof for every q: three verified
    witness rows are recorded in the evidence but do not decide."""
    w = D.LiouvilleWitness(0.5, [((-1,), 2), ((-2,), 5), ((-5,), 12)])
    v = S.classify_vector([rc({"cf": "constant:2"})], S.Order.gevrey(2), witness=w)
    assert v.kind == S.NOT_EXP_LIOUVILLE_TREND
    assert {"source": "witness", "rows_verified": [True, True, True]} in v.evidence


def test_vector_assertion_route():
    v = S.classify_vector(
        [rc({"cf": "constant:2"}), rc({"cf": "constant:6"})],
        S.Order.gevrey(2),
        assertion="NotExpLiouvilleTrend",
    )
    assert v.kind == S.NOT_EXP_LIOUVILLE_TREND


def test_vector_assertion_validated():
    with pytest.raises(MalformedInput):
        S.classify_vector([rc("1/2")], S.Order.gevrey(2), assertion="Bogus")


# ---------------------------------------------------------------------------
# Spec serialization and end-to-end classification
# ---------------------------------------------------------------------------


def test_system_spec_json_round_trip():
    obj = {
        "n": 2,
        "s": "2",
        "tubes": [
            {"a": {"cf": "factorial_pow10"}, "b": "0"},
            {"a": "1/2", "b": {"const": "0", "cos": [], "sin": ["1"]}},
        ],
        "vector_assertion": "NotExpLiouvilleTrend",
    }
    spec = S.SystemSpec.from_json(obj)
    again = S.SystemSpec.from_json(spec.to_json())
    assert again.to_json() == spec.to_json()
    assert again.vector_assertion == "NotExpLiouvilleTrend"


@pytest.mark.parametrize(
    "given, message",
    [
        (
            {"tubes": [{"a": "1/3", "b": {"const": "1", "sine": ["1"]}}]},
            "tubes[0]: b: unknown key 'sine'",
        ),
        ({"tubes": [{"a": "1/3", "bb": {"const": "1"}}]}, "tubes[0]: unknown key 'bb'"),
        ({"tubes": [{"a": "1/3", "b": "1"}], "vector_witnes": {}}, "unknown key 'vector_witnes'"),
    ],
)
def test_system_spec_refuses_unknown_keys_naming_them(given, message):
    with pytest.raises(MalformedInput) as info:
        S.SystemSpec.from_json({"n": 1, "s": "2", **given})
    assert str(info.value) == message


def test_system_spec_accepts_zero_and_order_keys():
    spec = S.SystemSpec.from_json({"order": "3", "tubes": [{"a": "1/3", "b": {"zero": True}}]})
    assert spec.tubes[0].b.is_zero and spec.order.to_json() == "3"


def test_system_spec_validates_tube_count():
    with pytest.raises(MalformedInput):
        S.SystemSpec.from_json({"n": 2, "s": "2", "tubes": [{"a": "0", "b": "0"}]})


def test_classify_system_fixture_sweep():
    table = {
        "ex63.json": S.HYPOELLIPTIC,
        "ex64_factorial.json": S.HYPOELLIPTIC,
        "ex64_lemmaA_order_s.json": S.DECISION_UNKNOWN,
        "ex64_lemmaA_order_sprime.json": S.DECISION_UNKNOWN,
        "remark64_pair.json": S.HYPOELLIPTIC,
        "cond1.json": S.HYPOELLIPTIC,
        "singular_expL.json": S.NOT_HYPOELLIPTIC,
        "crit9_three_tube.json": S.NOT_HYPOELLIPTIC,
    }
    for name, want in table.items():
        spec = S.SystemSpec.from_json(load_fixture(name))
        _, _, verdict = S.classify_system(spec)
        assert verdict.decision == want, name


def test_remark_pair_needs_its_assertion():
    obj = load_fixture("remark64_pair.json")
    obj.pop("vector_assertion")
    spec = S.SystemSpec.from_json(obj)
    _, _, verdict = S.classify_system(spec)
    assert verdict.decision == S.DECISION_UNKNOWN
