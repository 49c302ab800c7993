"""Continued-fraction engine, approximation classifiers, witness algebra."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_hypo import diophantine as D
from torus_hypo.errors import (
    DigitStreamExhausted,
    MalformedInput,
    NonPositiveDigit,
)

from conftest import load_fixture


def cf_from(obj) -> D.ContinuedFraction:
    return D.ContinuedFraction(D.digit_stream_from_json(obj))


def explicit(*digits) -> D.ContinuedFraction:
    return cf_from({"kind": "explicit", "digits": [str(d) for d in digits]})


CONST_ONE = {"kind": "constant", "digit": "1"}
FACTORIAL = {"kind": "factorial_pow10"}


def truncated_value(digits: list[int]) -> Fraction:
    """Exact value of the finite continued fraction [a_1, ..., a_N] in (0, 1)."""
    x = Fraction(0)
    for a in reversed(digits):
        x = Fraction(1, a + x)
    return x


# ---------------------------------------------------------------------------
# Convergents
# ---------------------------------------------------------------------------


def test_convergents_all_ones_are_fibonacci():
    assert D.convergents(cf_from(CONST_ONE), 4) == [(1, 1), (1, 2), (2, 3), (3, 5)]


def test_convergents_factorial_stream():
    got = D.convergents(cf_from(FACTORIAL), 3)
    assert got == [(1, 10), (100, 1001), (100000001, 1001000010)]


def test_convergents_base_case():
    assert D.convergents(explicit(7, 3), 1) == [(1, 7)]


def test_convergents_requires_digits():
    with pytest.raises(DigitStreamExhausted):
        D.convergents(explicit(3, 7), 5)


def test_nonpositive_digit_rejected():
    with pytest.raises(NonPositiveDigit):
        D.convergents(explicit(3, 0), 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=16, max_size=16))
def test_convergent_recurrence_against_independent_route(digits):
    # Dual route: re-run the recurrence from scratch here and compare, then
    # check the classical determinant identity exactly.
    pairs = D.convergents(explicit(*digits), 15)
    p = [1, digits[1]]
    q = [digits[0], digits[1] * digits[0] + 1]
    for a in digits[2:15]:
        p.append(a * p[-1] + p[-2])
        q.append(a * q[-1] + q[-2])
    assert pairs == list(zip(p, q))
    for n in range(1, 15):
        det = pairs[n][0] * pairs[n - 1][1] - pairs[n - 1][0] * pairs[n][1]
        assert det in (1, -1)
        assert math.gcd(pairs[n][0], pairs[n][1]) == 1
    qs = [pq[1] for pq in pairs]
    assert all(b > a for a, b in zip(qs, qs[1:]))


# ---------------------------------------------------------------------------
# Approximation interval (exact error bracketing from digits alone)
# ---------------------------------------------------------------------------


def test_approx_interval_all_ones():
    iv = D.approx_interval(cf_from(CONST_ONE), 2)
    assert (iv.lower, iv.upper) == (Fraction(1, 6), Fraction(1, 2))


def test_approx_interval_explicit_digits():
    iv = D.approx_interval(explicit(10, 100, 10**6), 2)
    assert iv.lower == Fraction(1, 1001 * (10**6 + 2))
    assert iv.upper == Fraction(1, 1001 * 10**6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=8, max_size=8))
def test_approx_interval_brackets_true_error(digits):
    cf = explicit(*digits)
    # alpha from a truncation four levels deeper than any tested index: its
    # distance to the true alpha is far below the interval floor.
    for n in range(1, 5):
        iv = D.approx_interval(cf, n)
        assert 0 < iv.lower < iv.upper
        alpha = truncated_value(digits[: n + 4])
        p, q = D.convergents(cf, n)[-1]
        err = abs(Fraction(p) - alpha * q)
        assert iv.lower <= err <= iv.upper, (digits, n)


def test_convergents_are_best_approximations():
    # Brute force over every denominator q <= q_n for q_n up to 10^4.
    for digits in [[1] * 21, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [2] * 12, [1, 2, 3, 4, 5, 6, 7]]:
        cf = explicit(*digits)
        alpha = truncated_value(digits)
        pairs = D.convergents(cf, len(digits) - 2)
        for p_n, q_n in pairs:
            if q_n > 10**4 or q_n >= pairs[-1][1]:
                break
            best = abs(Fraction(p_n) - alpha * q_n)
            for q in range(1, q_n + 1):
                p = round(alpha * q)
                assert abs(Fraction(p) - alpha * q) >= best or q == q_n, (digits, q_n, q)


# ---------------------------------------------------------------------------
# Exact-to-log-scale continued-fraction internals
# ---------------------------------------------------------------------------


def test_log_q_mirrors_exact_values():
    cf = cf_from(FACTORIAL)
    for n in range(1, 6):
        _, q = cf.exact_pair(n)
        assert abs(cf.log_q(n) - math.log(q)) <= 1e-12 * math.log(q)


def test_digit_cap_switches_to_log_scale():
    cf = D.ContinuedFraction(D.digit_stream_from_json(FACTORIAL), digit_cap=50)
    # q_5 has 154 decimal digits, past the 50-digit cap
    assert cf.log_q(5) > 50 * math.log(10)
    with mpmath.workdps(400):
        # the log-scale mirror still tracks ln q_n; reproduce independently
        digits = [10 ** math.factorial(k) for k in range(1, 7)]
        q = [mpmath.mpf(digits[0]), mpmath.mpf(digits[1] * digits[0] + 1)]
        for a in digits[2:6]:
            q.append(a * q[-1] + q[-2])
        for n in range(1, 7):
            want = float(mpmath.log(q[n - 1]))
            assert abs(cf.log_q(n) - want) <= 1e-9 * want


def test_mpf_value_of_golden_type_cf():
    # all-ones CF in the purely fractional convention is 1/phi = (sqrt(5)-1)/2
    val = cf_from(CONST_ONE).mpf(40)
    with mpmath.workdps(40):
        want = (mpmath.sqrt(5) - 1) / 2
        assert abs(val - want) < mpmath.mpf(10) ** -35


def test_mpf_value_of_sqrt2_type_cf():
    val = cf_from({"kind": "constant", "digit": "2"}).mpf(40)
    with mpmath.workdps(40):
        want = mpmath.sqrt(2) - 1
        assert abs(val - want) < mpmath.mpf(10) ** -35


# ---------------------------------------------------------------------------
# Trend tables
# ---------------------------------------------------------------------------


def test_liouville_trend_all_ones_settles_near_two():
    rows = D.liouville_exponent_trend(cf_from(CONST_ONE), 12)
    for n, mu in rows:
        if n >= 8:
            assert abs(mu - 2.0) <= 0.2


def test_liouville_trend_factorial_majorizes_n_plus_one():
    rows = dict(D.liouville_exponent_trend(cf_from(FACTORIAL), 5))
    for n in range(2, 6):
        assert rows[n] >= n + 1


def test_liouville_trend_boundary_single_row():
    assert len(D.liouville_exponent_trend(cf_from(CONST_ONE), 2)) == 1


def test_exp_liouville_score_factorial_collapses():
    for s in (1.0, 2.0, 3.0):
        rows = D.exp_liouville_score(cf_from(FACTORIAL), s, 5)
        betas = [b for _, b in rows]
        assert all(x > y for x, y in zip(betas, betas[1:]))
        assert betas[-1] < 1e-6
    assert len(D.exp_liouville_score(cf_from(CONST_ONE), 1.0, 1)) == 1


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 5.0])
def test_longer_horizon_never_loses_a_definite_trend(s):
    """beta_n of factorial_pow10 drops below the float range from n = 6 or 7
    on; the verdict must not drop with it."""
    kinds = [D.classify(cf_from(FACTORIAL), s=s, n_max=h).kind for h in range(4, 12)]
    for shorter, longer in zip(kinds, kinds[1:]):
        assert shorter == D.UNKNOWN or longer != D.UNKNOWN, kinds
    assert kinds[-1] == D.NOT_EXP_LIOUVILLE_TREND


def test_exp_liouville_score_matches_direct_formula():
    cf = explicit(3, 11, 5, 7, 2)
    pairs = D.convergents(cf, 4)
    digits = [3, 11, 5, 7, 2]
    for (n, beta), (_, q) in zip(D.exp_liouville_score(cf, 2.0, 4), pairs):
        want = math.log(digits[n] * q) / q**0.5
        assert beta == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Classifier verdicts
# ---------------------------------------------------------------------------


def test_classify_factorial_both_scales():
    assert D.classify(cf_from(FACTORIAL), 2.0).kind == D.NOT_EXP_LIOUVILLE_TREND
    assert D.classify(cf_from(FACTORIAL), None).kind == D.LIOUVILLE_TREND


def test_classify_badly_approximable_is_never_positive():
    # The golden-type number has bounded partial quotients: favorable at
    # every horizon, including those where beta_n still rises or is flat.
    for n_max in (1, 6, 12, 14, 16, 50):
        kind = D.classify(cf_from(CONST_ONE), 2.0, n_max).kind
        assert kind == D.NOT_EXP_LIOUVILLE_TREND, n_max
    assert D.classify(cf_from(CONST_ONE), None, 12).kind == D.NOT_LIOUVILLE_TREND


def test_classify_needs_three_rows():
    v = D.classify(explicit(3, 7, 2), 2.0)  # only 2 usable score rows
    assert v.kind == D.UNKNOWN
    assert v.n_used < 3


def test_classify_explicit_stream_is_unknown_with_beta_evidence():
    # A finite digit list has no tail to certify, however its rows look.
    spec = load_fixture("singular_expL.json")
    digits = spec["tubes"][0]["a"]["cf"].split(",")
    cf = cf_from({"kind": "explicit", "digits": digits})
    v = D.classify(cf, 2.0)
    assert v.kind == D.UNKNOWN
    assert v.certificate is None
    betas = [row["beta"] for row in v.evidence]
    assert len(betas) >= 3
    assert all(b > 1.9 for b in betas)  # flat near 2 by construction


def test_classify_evidence_rows_monotone_in_n():
    v = D.classify(cf_from(FACTORIAL), 2.0)
    ns = [row["n"] for row in v.evidence]
    assert ns == sorted(ns)
    assert all(set(row) == {"n", "beta"} for row in v.evidence)
    assert v.certificate["n0"] == 1


# ---------------------------------------------------------------------------
# Tail certificates
# ---------------------------------------------------------------------------

GEVREY_ORDERS = [1.5, 2.0, 2.5, 3.0, 5.0]


@pytest.mark.parametrize("s", GEVREY_ORDERS + [None])
@pytest.mark.parametrize("k", range(1, 12))
def test_bounded_digits_are_favorable_at_every_horizon(k, s):
    cf = cf_from({"kind": "constant", "digit": str(k)})
    favorable = D.NOT_LIOUVILLE_TREND if s is None else D.NOT_EXP_LIOUVILLE_TREND
    for n_max in range(6, 21):
        v = D.classify(cf, s, n_max)
        assert v.kind == favorable, n_max
        assert f"1/({k + 2}*q)" in v.certificate["bound"]


@pytest.mark.parametrize(
    "stream", [CONST_ONE, {"kind": "constant", "digit": "7"}, FACTORIAL, "3,11,5,7,2"]
)
@pytest.mark.parametrize("s", [None, 2.0])
def test_no_verdict_depends_on_the_horizon(stream, s):
    cf = cf_from(stream)
    verdicts = {(v.kind, str(v.certificate)) for v in (D.classify(cf, s, h) for h in range(1, 21))}
    assert len(verdicts) == 1


def test_factorial_certificate_bounds_hold_on_the_rows():
    """mu_n >= n + 1, and beta_n <= (((n+1)! + S_n) ln 10 + n ln 2) /
    10^{S_n/s} with S_n = 1! + ... + n!, on every evidence row."""
    cf = cf_from(FACTORIAL)
    smooth = D.classify(cf, None, 12)
    assert smooth.kind == D.LIOUVILLE_TREND and smooth.certificate["n0"] == 2
    assert [row["n"] for row in smooth.evidence] == list(range(2, 13))
    for row in smooth.evidence:
        assert row["mu"] >= row["n"] + 1
    for s in GEVREY_ORDERS:
        v = D.classify(cf, s, 12)
        assert v.kind == D.NOT_EXP_LIOUVILLE_TREND and v.certificate["n0"] == 1
        with mpmath.workdps(30):
            for row in v.evidence:
                n = row["n"]
                S_n = sum(math.factorial(k) for k in range(1, n + 1))
                num = (math.factorial(n + 1) + S_n) * mpmath.log(10) + n * mpmath.log(2)
                assert mpmath.mpf(row["beta"]) <= num / mpmath.power(10, mpmath.mpf(S_n) / s)


def test_condition_b_frozen_rows():
    cf = cf_from(FACTORIAL)
    # Honest output: the n=3 row genuinely violates the bound at eps=0.5, s=2
    # (|p_3 - alpha q_3| ~ 1e-33 < e^{-0.5 sqrt(q_2)} ~ 1.4e-7).
    assert D.condition_B_check(cf, 2.0, 0.5, 3, 5) == [False, True, True]
    assert D.condition_B_check(cf, 2.0, 0.5, 4, 5) == [True, True]


def test_condition_b_huge_epsilon_trivially_true():
    rows = D.condition_B_check(cf_from(CONST_ONE), 1.0, 1e9, 1, 6)
    assert rows and all(rows)


def test_condition_b_independent_log_route():
    # Cross-check each row against a direct mpmath evaluation of
    # ln lower-bound >= -eps * q_{n-1}^{1/s}.
    cf = cf_from(FACTORIAL)
    got = D.condition_B_check(cf, 2.0, 0.5, 3, 5)
    want = []
    for n in range(3, 6):
        _, q_n = cf.exact_pair(n)
        _, q_prev = cf.exact_pair(n - 1)
        a_next = 10 ** math.factorial(n + 1)
        lhs_ln = -mpmath.log(mpmath.mpf(a_next + 2) * q_n)
        want.append(bool(lhs_ln >= -0.5 * mpmath.sqrt(q_prev)))
    assert got == want


# ---------------------------------------------------------------------------
# Witness algebra
# ---------------------------------------------------------------------------


def test_witness_json_round_trip():
    w = D.LiouvilleWitness(0.75, [((-1, 2), 3), ((-11, 23), 34)], bound_scale=2)
    back = D.LiouvilleWitness.from_json(w.to_json())
    assert back.delta == w.delta
    assert back.bound_scale == w.bound_scale
    assert back.pairs == w.pairs
    assert back.length == 2


def test_witness_rejects_nonincreasing_denominators():
    with pytest.raises(MalformedInput):
        D.LiouvilleWitness.from_json(
            {"delta": 1.0, "pairs": [{"r": ["1"], "q": "5"}, {"r": ["1"], "q": "3"}]}
        )


def test_scale_witness_identity_and_examples():
    w = D.LiouvilleWitness(1.0, [((-1,), 2), ((-2,), 5)])
    same = D.scale_witness(w, 1, 1.0)
    assert same.delta == 1.0 and same.pairs == w.pairs and same.bound_scale == 1

    s4 = D.scale_witness(w, 4, 1.0)
    assert s4.delta == pytest.approx(0.25)
    assert s4.pairs == [((-4,), 8), ((-8,), 20)]
    assert s4.bound_scale == 4

    w8 = D.LiouvilleWitness(2.0, [((-1,), 2)])
    s8 = D.scale_witness(w8, 8, 3.0)
    assert s8.delta == pytest.approx(1.0)  # 2 / 8^{1/3}


def test_scale_witness_preserves_verifiability():
    alpha = D.RealConstant.from_json({"cf": "constant:2"})
    w = D.LiouvilleWitness(0.2, [((-1,), 2), ((-2,), 5), ((-5,), 12)])
    assert D.verify_witness_rows(w, [alpha], 1.0) == [True, True, True]
    scaled = D.scale_witness(w, 3, 1.0)
    assert D.verify_witness_rows(scaled, [alpha], 1.0) == [True, True, True]


def test_verify_witness_rows_fixture_vector():
    spec = load_fixture("singular_expL.json")
    alpha = D.RealConstant.from_json(spec["tubes"][0]["a"])
    w = D.LiouvilleWitness.from_json(spec["vector_witness"])
    assert D.verify_witness_rows(w, [alpha], 2.0) == [True, True, True]


def test_verify_witness_rows_rejects_wrong_numerator():
    spec = load_fixture("singular_expL.json")
    alpha = D.RealConstant.from_json(spec["tubes"][0]["a"])
    w = D.LiouvilleWitness(1.0, [((-2,), 3)])  # true row is (-1, 3)
    assert D.verify_witness_rows(w, [alpha], 2.0) == [False]


def test_verify_witness_rows_honest_false_on_digit_exhaustion():
    # The row at q_3 = 116079 is mathematically valid but needs a bracket two
    # digits past the stream's end; the verifier must refuse to certify it.
    spec = load_fixture("singular_expL.json")
    alpha = D.RealConstant.from_json(spec["tubes"][0]["a"])
    w = D.LiouvilleWitness(1.0, [((-37555,), 116079)])
    assert D.verify_witness_rows(w, [alpha], 2.0) == [False]


# ---------------------------------------------------------------------------
# RealConstant flavors
# ---------------------------------------------------------------------------


def test_real_constant_kinds_and_json():
    r = D.RealConstant.from_json("1/2")
    assert r.kind == "rational" and r.fraction == Fraction(1, 2)
    assert not r.is_certified_irrational
    assert r.classify(2.0).kind == D.RATIONAL

    c = D.RealConstant.from_json({"cf": "factorial_pow10"})
    assert c.kind == "cf" and c.is_certified_irrational
    assert c.classify(2.0).kind == D.NOT_EXP_LIOUVILLE_TREND

    f = D.RealConstant.from_float(0.7071)
    assert f.kind == "float"
    assert not f.is_certified_irrational
    assert f.classify(2.0).kind == D.UNKNOWN


def test_real_constant_finite_stream_not_certified():
    spec = load_fixture("singular_expL.json")
    c = D.RealConstant.from_json(spec["tubes"][0]["a"])
    assert c.kind == "cf"
    assert not c.is_certified_irrational  # explicit finite digit list
    v = c.classify(2.0)
    assert v.kind == D.UNKNOWN  # no tail, no verdict
    assert all(row["beta"] > 1.9 for row in v.evidence)  # the rows stay evidence


def test_real_constant_round_trips():
    for obj in ["1/2", {"cf": "constant:2"}, {"cf": "factorial_pow10"}]:
        r = D.RealConstant.from_json(obj)
        again = D.RealConstant.from_json(r.to_json())
        assert again.kind == r.kind


def test_real_constant_numeric_value():
    r = D.RealConstant.from_json({"cf": "constant:2"})
    assert float(r.mpf(30)) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    fr = r.approx_fraction(30)
    assert abs(float(fr) - (math.sqrt(2) - 1)) < 1e-12
    lo, hi = r.cf.alpha_bracket(20)
    assert lo < hi
    with mpmath.workdps(50):
        truth = mpmath.sqrt(2) - 1
        assert mpmath.mpf(lo.numerator) / lo.denominator <= truth
        assert truth <= mpmath.mpf(hi.numerator) / hi.denominator
