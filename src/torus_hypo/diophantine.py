"""Exact continued-fraction engine and approximation-rate classification.

A positive digit stream a_1, a_2, ... defines the number

    alpha = 1/(a_1 + 1/(a_2 + 1/(a_3 + ...)))  in (0, 1)

through the convergent recurrence

    p_1 = 1,  q_1 = a_1,  p_2 = a_2,  q_2 = a_2*a_1 + 1,
    p_n = a_n*p_{n-1} + p_{n-2},   q_n = a_n*q_{n-1} + q_{n-2}   (n >= 3).

The module keeps convergents exact (arbitrary-size integers) while q_n stays
under a configurable decimal-digit cap and mirrors ln(q_n) in high-precision
floats throughout, switching to a pure log-scale recurrence past the cap.
On top of the engine it provides:

* exact two-sided brackets for |p_n - alpha*q_n| in terms of the digits only;
* growth scores mu_n (power-law approximability) and beta_n (stretched-
  exponential approximability at order s), kept as evidence;
* verdicts from a tail certificate of each infinite digit stream: a bound
  that holds for every n >= n0, so no verdict depends on how many rows were
  computed (a finite digit list has no tail, and its verdict is Unknown);
* a per-row certificate for the lower-bound condition
  |p_n - alpha*q_n| >= exp(-eps * q_{n-1}^{1/s});
* witness records for simultaneously well-approximable vectors, with the
  rational rescaling that converts a unit-numerator witness into the general
  form, and best-effort verification of witness rows against digit-defined
  components.

Everything is deterministic and side-effect free; instances extend their
internal tables lazily but never mutate published values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from mpmath import mp, workdps

from .errors import (
    DigitCapExceeded,
    DigitStreamExhausted,
    MalformedInput,
    NonPositiveDigit,
    OrderError,
    WitnessMismatch,
)

#: default cap on the decimal-digit count of exactly materialized integers
DEFAULT_DIGIT_CAP = 100_000

#: working precision (decimal digits) for the log-scale mirrors
LOG_DPS = 50

# verdict kinds
RATIONAL = "Rational"
LIOUVILLE_TREND = "LiouvilleTrend"
NOT_LIOUVILLE_TREND = "NotLiouvilleTrend"
NOT_EXP_LIOUVILLE_TREND = "NotExpLiouvilleTrend"
EXP_LIOUVILLE_TREND = "ExpLiouvilleTrend"
UNKNOWN = "Unknown"


# ---------------------------------------------------------------------------
# Digit streams
# ---------------------------------------------------------------------------


class DigitStream:
    """A source of positive integer digits a_1, a_2, ...

    ``digit(n)`` materializes the exact integer (1-based), raising
    :class:`DigitCapExceeded` when its decimal size would exceed ``cap``
    digits; ``ln_digit(n)`` returns ln(a_n) in the working precision without
    materializing anything.  ``has(n)`` reports availability; infinite
    streams always have every index.
    """

    kind: str = "abstract"
    is_infinite: bool = False

    def has(self, n: int) -> bool:
        raise NotImplementedError

    def digit(self, n: int, cap: int = DEFAULT_DIGIT_CAP) -> int:
        raise NotImplementedError

    def ln_digit(self, n: int):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def tail_certificate(self, s: float | None):
        """(kind, certificate) at order ``s`` (None: the smooth scale) from
        a bound on the whole tail of the stream, or (Unknown, None) when the
        stream has no certified tail."""
        return UNKNOWN, None

    def _require(self, n: int) -> None:
        if n < 1:
            raise MalformedInput(f"digit index {n} must be >= 1")
        if not self.has(n):
            raise DigitStreamExhausted(
                f"{self.kind} digit stream has no digit a_{n}"
            )


class ExplicitDigits(DigitStream):
    """A finite list of explicitly given digits (a prefix of some number)."""

    kind = "explicit"
    is_infinite = False

    def __init__(self, digits: Sequence[int]):
        digits = [int(d) for d in digits]
        if not digits:
            raise MalformedInput("explicit digit stream must be nonempty")
        for d in digits:
            if d <= 0:
                raise NonPositiveDigit(f"digit {d} is not a positive integer")
        self._digits = digits

    def has(self, n: int) -> bool:
        return 1 <= n <= len(self._digits)

    def digit(self, n: int, cap: int = DEFAULT_DIGIT_CAP) -> int:
        self._require(n)
        return self._digits[n - 1]

    def ln_digit(self, n: int):
        self._require(n)
        return mp.log(self._digits[n - 1])

    def to_json(self) -> dict:
        return {"kind": "explicit", "digits": [str(d) for d in self._digits]}


class ConstantDigits(DigitStream):
    """The infinite stream a_n = d; d = 1 gives the golden-ratio tail,
    d = 2 gives sqrt(2) - 1."""

    kind = "constant"
    is_infinite = True

    def __init__(self, d: int):
        d = int(d)
        if d <= 0:
            raise NonPositiveDigit(f"digit {d} is not a positive integer")
        self._d = d

    def has(self, n: int) -> bool:
        return n >= 1

    def digit(self, n: int, cap: int = DEFAULT_DIGIT_CAP) -> int:
        self._require(n)
        return self._d

    def ln_digit(self, n: int):
        self._require(n)
        return mp.log(self._d)

    def to_json(self) -> dict:
        return {"kind": "constant", "digit": str(self._d)}

    def tail_certificate(self, s: float | None):
        """Bounded partial quotients (Khinchin, *Continued Fractions*, 1935):
        |q*alpha - p| >= 1/((d+2) q) for all integers p and q >= 1, so alpha
        is neither Liouville nor approximable at rate exp(-eps q^{1/s})."""
        d = self._d
        kind = NOT_LIOUVILLE_TREND if s is None else NOT_EXP_LIOUVILLE_TREND
        return kind, {
            "n0": 1,
            "bound": f"a_n <= {d} for every n, so |q*alpha - p| >= 1/({d + 2}*q)"
            " for all integers p and q >= 1",
        }


class FactorialPow10Digits(DigitStream):
    """The infinite stream a_n = 10**(n!): an extremely well approximable
    number whose power-law approximation exponent grows without bound while
    its stretched-exponential score decays to zero."""

    kind = "factorial_pow10"
    is_infinite = True

    def has(self, n: int) -> bool:
        return n >= 1

    def digit(self, n: int, cap: int = DEFAULT_DIGIT_CAP) -> int:
        self._require(n)
        ndigits = math.factorial(n) + 1
        if ndigits > cap:
            raise DigitCapExceeded(
                f"a_{n} = 10^{n}! has {ndigits} decimal digits, over the cap {cap}"
            )
        return 10 ** math.factorial(n)

    def ln_digit(self, n: int):
        self._require(n)
        return mp.mpf(math.factorial(n)) * mp.log(10)

    def to_json(self) -> dict:
        return {"kind": "factorial_pow10"}

    def tail_certificate(self, s: float | None):
        """From a_n q_{n-1} <= q_n <= 2 a_n q_{n-1}, with S_n = 1! + ... + n!:
        10^{S_n} <= q_n <= 2^n 10^{S_n}.  Then mu_n >= n + 1 (Liouville, the
        smooth scale) and beta_n <= (((n+1)! + S_n) ln 10 + n ln 2) /
        10^{S_n/s} -> 0 (not approximable at rate exp(-eps q^{1/s}), every
        Gevrey order s)."""
        q_n = "10^S_n <= q_n <= 2^n*10^S_n with S_n = 1! + ... + n!"
        if s is None:
            return LIOUVILLE_TREND, {"n0": 2, "bound": f"{q_n}, so mu_n >= n + 1"}
        return NOT_EXP_LIOUVILLE_TREND, {
            "n0": 1,
            "bound": f"{q_n}, so beta_n <= (((n+1)! + S_n)*ln 10 + n*ln 2)"
            f"/10^(S_n/{float(s):g}), which tends to 0",
        }


def digit_stream_from_json(obj) -> DigitStream:
    """Parse a digit-stream description.

    Accepted forms: {"kind": "explicit", "digits": ["10", "100", ...]},
    {"kind": "constant", "digit": "2"}, {"kind": "factorial_pow10"}; the
    CLI shorthand strings "constant:2", "factorial_pow10" and "1,2,3" are
    also understood.
    """
    if isinstance(obj, str):
        text = obj.strip()
        if text == "factorial_pow10":
            return FactorialPow10Digits()
        if text.startswith("constant:"):
            return ConstantDigits(int(text.split(":", 1)[1]))
        return ExplicitDigits([int(x) for x in text.split(",") if x.strip()])
    if isinstance(obj, (list, tuple)):
        return ExplicitDigits(obj)
    if not isinstance(obj, dict):
        raise MalformedInput(f"cannot parse digit stream from {obj!r}")
    kind = obj.get("kind")
    if kind == "explicit":
        return ExplicitDigits([int(d) for d in obj["digits"]])
    if kind == "constant":
        return ConstantDigits(int(obj["digit"]))
    if kind == "factorial_pow10":
        return FactorialPow10Digits()
    raise MalformedInput(f"unknown digit stream kind {kind!r}")


# ---------------------------------------------------------------------------
# ContinuedFraction
# ---------------------------------------------------------------------------


class _LogPair:
    """Log-scale stand-in for a convergent pair past the exact-digit cap."""

    __slots__ = ("ln_p", "ln_q")

    def __init__(self, ln_p, ln_q):
        self.ln_p = float(ln_p)
        self.ln_q = float(ln_q)

    def __repr__(self):
        return f"_LogPair(ln_p={self.ln_p:.6g}, ln_q={self.ln_q:.6g})"

    def __iter__(self):
        return iter((self.ln_p, self.ln_q))


class ContinuedFraction:
    """Lazy convergent tables for one digit stream.

    Exact integers p_n, q_n are kept while their decimal size stays within
    ``digit_cap`` (default 100000); ln(p_n), ln(q_n) are always maintained at
    ``LOG_DPS`` decimal digits via the same recurrence in log space
    (log-sum-exp), so every classifier keeps working arbitrarily far past
    the cap.
    """

    def __init__(self, stream: DigitStream, digit_cap: int = DEFAULT_DIGIT_CAP):
        if not isinstance(stream, DigitStream):
            stream = digit_stream_from_json(stream)
        self.stream = stream
        self.digit_cap = int(digit_cap)
        # index 0 is the conventional seed p_0 = 0, q_0 = 1
        self._p: list = [0]
        self._q: list = [1]
        self._ln_p: list = [mp.ninf]
        self._ln_q: list = [mp.mpf(0)]
        self._a: list = [None]
        self._ln_a: list = [None]

    # -- table maintenance --------------------------------------------------

    def _fetch_digit(self, n: int) -> None:
        while len(self._a) <= n:
            i = len(self._a)
            self.stream._require(i)
            with workdps(LOG_DPS):
                self._ln_a.append(self.stream.ln_digit(i))
            try:
                self._a.append(self.stream.digit(i, cap=self.digit_cap))
            except DigitCapExceeded:
                self._a.append(None)

    def _ensure(self, n: int) -> None:
        """Extend convergent tables through index n."""
        while len(self._p) <= n:
            i = len(self._p)
            self._fetch_digit(i)
            a = self._a[i]
            with workdps(LOG_DPS):
                ln_a = self._ln_a[i]
                if i == 1:
                    ln_p, ln_q = mp.mpf(0), ln_a
                else:
                    # ln(a*x + y) = ln_a + ln_x + log1p(exp(ln_y - ln_a - ln_x))
                    def lse(ln_x, ln_y):
                        if ln_y == mp.ninf:
                            return ln_a + ln_x
                        return ln_a + ln_x + mp.log1p(mp.e ** (ln_y - ln_a - ln_x))

                    ln_p = lse(self._ln_p[i - 1], self._ln_p[i - 2])
                    ln_q = lse(self._ln_q[i - 1], self._ln_q[i - 2])
                self._ln_p.append(ln_p)
                self._ln_q.append(ln_q)
            exact_ok = (
                a is not None
                and self._p[i - 1] is not None
                and self._q[i - 1] is not None
                and (i < 2 or (self._p[i - 2] is not None and self._q[i - 2] is not None))
            )
            if exact_ok:
                if i == 1:
                    p, q = 1, a
                else:
                    p = a * self._p[i - 1] + self._p[i - 2]
                    q = a * self._q[i - 1] + self._q[i - 2]
                if _decimal_size(q) > self.digit_cap:
                    p = q = None
            else:
                p = q = None
            self._p.append(p)
            self._q.append(q)

    # -- public accessors -----------------------------------------------------

    def digit(self, n: int) -> int:
        """Exact digit a_n (1-based); DigitCapExceeded past the cap."""
        self._fetch_digit(n)
        if self._a[n] is None:
            ndig = int(self._ln_a[n] / mp.log(10)) + 1
            raise DigitCapExceeded(
                f"a_{n} has about {ndig} decimal digits, over the cap {self.digit_cap}"
            )
        return self._a[n]

    def ln_digit(self, n: int):
        self._fetch_digit(n)
        return self._ln_a[n]

    def has_digit(self, n: int) -> bool:
        return self.stream.has(n)

    def pair(self, n: int):
        """(p_n, q_n) as exact ints, or a log-scale pair past the cap."""
        if n < 1:
            raise MalformedInput(f"convergent index {n} must be >= 1")
        self._ensure(n)
        if self._q[n] is not None:
            return (self._p[n], self._q[n])
        return _LogPair(self._ln_p[n], self._ln_q[n])

    def exact_pair(self, n: int):
        got = self.pair(n)
        if isinstance(got, _LogPair):
            raise DigitCapExceeded(
                f"convergent {n} exceeds the exact-integer cap of {self.digit_cap} digits"
            )
        return got

    def log_q(self, n: int):
        """ln(q_n) at LOG_DPS digits (n = 0 gives ln 1 = 0)."""
        self._ensure(n)
        return self._ln_q[n]

    # -- derived values -------------------------------------------------------

    def alpha_bracket(self, n: int):
        """Exact rationals (lo, hi) with p_n/q_n and p_{n+1}/q_{n+1} as
        endpoints; the defined number lies strictly between consecutive
        convergents whenever the stream continues past n+1."""
        p1, q1 = self.exact_pair(n)
        p2, q2 = self.exact_pair(n + 1)
        lo, hi = Fraction(p1, q1), Fraction(p2, q2)
        return (lo, hi) if lo <= hi else (hi, lo)

    def approx_fraction(self, digits: int = 60) -> Fraction:
        """A rational within 10**-digits of the defined number (bracket
        midpoint; a finite stream's last convergent is the number itself);
        raises DigitCapExceeded if the cap prevents that width."""
        target = Fraction(1, 10**digits)
        n = 1
        while True:
            if not self.has_digit(n + 1):
                p, q = self.exact_pair(self._last_index())
                return Fraction(p, q)
            lo, hi = self.alpha_bracket(n)
            if hi - lo <= target:
                return (lo + hi) / 2
            n += 1

    def _last_index(self) -> int:
        n = 1
        while self.has_digit(n + 1):
            n += 1
        return n

    def mpf(self, dps: int = 60):
        """High-precision float value of the defined number."""
        frac = self.approx_fraction(digits=dps + 5)
        with workdps(dps + 10):
            return mp.mpf(frac.numerator) / mp.mpf(frac.denominator)

    def to_json(self) -> dict:
        return {"cf": self.stream.to_json()}


def _decimal_size(x: int) -> int:
    """Decimal digit count of |x| (1 for 0), without an int→str conversion
    (which CPython refuses past 4300 digits).

    With b = bit_length, |x| has floor(b·log10 2) + 1 digits or one fewer,
    and one comparison decides.  The float product is exact enough below a
    million digits: there b·log10 2 stays over 1e-7 away from any integer.
    """
    x = abs(x) or 1
    d = int(x.bit_length() * math.log10(2)) + 1
    return d if x >= 10 ** (d - 1) else d - 1


# ---------------------------------------------------------------------------
# Domain value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxInterval:
    """Exact bounds  lower <= |p_n - alpha*q_n| <= upper  from digits alone."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not (0 < self.lower < self.upper):
            raise MalformedInput("approximation interval requires 0 < lower < upper")


@dataclass
class LiouvilleWitness:
    """Evidence that a vector alpha in R^l is simultaneously approximable:
    for each pair (r_k, s_k), max_j |r_k^(j) + s_k*alpha_j| <= bound_scale *
    exp(-delta * s_k^{1/s}).  ``bound_scale`` is 1 for the plain form and q
    after rescaling by q."""

    delta: float
    pairs: list  # [(tuple of ints, int), ...] with strictly increasing s_k
    bound_scale: int = 1

    def __post_init__(self):
        if self.delta <= 0:
            raise MalformedInput("witness delta must be positive")
        cleaned = []
        prev = 0
        for r, s_k in self.pairs:
            r = tuple(int(x) for x in r)
            s_k = int(s_k)
            if s_k <= prev:
                raise MalformedInput("witness denominators must be strictly increasing")
            prev = s_k
            cleaned.append((r, s_k))
        self.pairs = cleaned
        if self.bound_scale < 1:
            raise MalformedInput("bound scale must be a positive integer")

    @property
    def length(self) -> int:
        return len(self.pairs[0][0]) if self.pairs else 0

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "bound_scale": self.bound_scale,
            "pairs": [
                {"r": [str(x) for x in r], "q": str(s_k)} for r, s_k in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LiouvilleWitness":
        pairs = []
        for row in obj.get("pairs", ()):
            if isinstance(row, dict):
                pairs.append((tuple(int(x) for x in row["r"]), int(row["q"])))
            else:
                pairs.append((tuple(int(x) for x in row[0]), int(row[1])))
        return cls(
            delta=float(obj["delta"]),
            pairs=pairs,
            bound_scale=int(obj.get("bound_scale", 1)),
        )


@dataclass
class DiophantineVerdict:
    """Classification of one number (or one vector component).

    ``kind`` is one of Rational, LiouvilleTrend, NotLiouvilleTrend,
    NotExpLiouvilleTrend, ExpLiouvilleTrend, Unknown.  For a digit-defined
    number a definite trend kind rests on ``certificate``, the tail bound of
    its digit stream; the evidence rows (per-n scores) are observables that
    never decide the kind.
    """

    kind: str
    s: float | None = None
    evidence: list = field(default_factory=list)
    n_used: int = 0
    certificate: dict | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "s": self.s,
            "evidence": self.evidence,
            "n_used": self.n_used,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def convergents(cf: ContinuedFraction, n: int) -> list:
    """First n convergent pairs; exact (p, q) under the digit cap, log-scale
    markers beyond it."""
    if n < 1:
        raise MalformedInput(f"need n >= 1, got {n}")
    return [cf.pair(i) for i in range(1, n + 1)]


def approx_interval(cf: ContinuedFraction, n: int) -> ApproxInterval:
    """Exact rationals [1/((a_{n+1}+2) q_n), 1/(a_{n+1} q_n)] bracketing
    |p_n - alpha*q_n|, from the digits alone."""
    _, q_n = cf.exact_pair(n)
    a_next = cf.digit(n + 1)
    return ApproxInterval(
        lower=Fraction(1, (a_next + 2) * q_n),
        upper=Fraction(1, a_next * q_n),
    )


def ln_approx_bounds(cf: ContinuedFraction, n: int):
    """(ln lower, ln upper) of the |p_n - alpha*q_n| bracket, valid past the
    exact-integer cap (uses ln-digit data only)."""
    with workdps(LOG_DPS):
        ln_q = cf.log_q(n)
        ln_a = cf.ln_digit(n + 1)
        ln_upper = -(ln_a + ln_q)
        # ln(a+2) = ln a + log1p(2/a)
        ln_a2 = ln_a + mp.log1p(2 * mp.e ** (-ln_a))
        ln_lower = -(ln_a2 + ln_q)
        return ln_lower, ln_upper


def liouville_exponent_trend(cf: ContinuedFraction, n_max: int) -> list:
    """Rows (n, mu_n) for 2 <= n <= n_max (none when n_max < 2) with
    mu_n = ln(a_{n+1} q_n^2)/ln(q_n): the power-law exponent certified by the
    bracket at level n.  Unbounded mu_n along a subsequence is the signature
    of a Liouville number."""
    rows = []
    with workdps(LOG_DPS):
        for n in range(2, n_max + 1):
            if not cf.has_digit(n + 1):
                raise DigitStreamExhausted(
                    f"mu_{n} needs digit a_{n + 1}, stream ended"
                )
            mu = 2 + cf.ln_digit(n + 1) / cf.log_q(n)
            rows.append((n, float(mu)))
    return rows


def exp_liouville_score(cf: ContinuedFraction, s: float, n_max: int) -> list:
    """Rows (n, beta_n) for 1 <= n <= n_max with
    beta_n = ln(a_{n+1} q_n)/q_n^{1/s}: the largest eps such that
    |p_n - alpha*q_n| <= exp(-eps * q_n^{1/s}) is certified at level n.
    beta_n bounded below by a positive margin indicates stretched-exponential
    approximability at order s; beta_n -> 0 indicates its failure."""
    s = float(s)
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    rows = []
    with workdps(LOG_DPS):
        for n in range(1, n_max + 1):
            if not cf.has_digit(n + 1):
                raise DigitStreamExhausted(
                    f"beta_{n} needs digit a_{n + 1}, stream ended"
                )
            ln_q = cf.log_q(n)
            rows.append((n, float((cf.ln_digit(n + 1) + ln_q) / mp.e ** (ln_q / s))))
    return rows


def condition_B_check(
    cf: ContinuedFraction,
    s: float,
    epsilon: float,
    N: int,
    n_max: int,
) -> list:
    """For each n in [N, n_max], certify
    |p_n - alpha*q_n| >= exp(-epsilon * q_{n-1}^{1/s})
    using the exact lower bound 1/((a_{n+1}+2) q_n) of the bracket.

    A True row is a proof (the lower bound already clears the threshold);
    a False row is inconclusive, because the bracket is one-sided here.
    """
    s = float(s)
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise MalformedInput("epsilon must be positive")
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    if not 1 <= N <= n_max:
        raise MalformedInput(f"need 1 <= N <= n_max, got N={N}, n_max={n_max}")
    out = []
    with workdps(LOG_DPS):
        for n in range(N, n_max + 1):
            ln_lower, _ = ln_approx_bounds(cf, n)
            rhs_ln = -mp.mpf(epsilon) * mp.e ** (cf.log_q(n - 1) / s)
            out.append(bool(ln_lower >= rhs_ln))
    return out


def scale_witness(w: LiouvilleWitness, q: int, s: float) -> LiouvilleWitness:
    """Multiply witness pairs through by the positive integer q.

    If max_j |r_k + s_k*alpha_j| <= exp(-delta*s_k^{1/s}), the scaled pairs
    (q*r_k, q*s_k) satisfy max_j |q*r_k + (q*s_k)*alpha_j|
    <= q * exp(-delta' * (q*s_k)^{1/s}) with delta' = delta / q^{1/s}.
    """
    q = int(q)
    if q < 1:
        raise MalformedInput(f"scale factor must be a positive integer, got {q}")
    s = float(s)
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    return LiouvilleWitness(
        delta=w.delta / q ** (1.0 / s),
        pairs=[(tuple(q * x for x in r), q * s_k) for r, s_k in w.pairs],
        bound_scale=w.bound_scale * q,
    )


def verify_witness_rows(
    w: LiouvilleWitness,
    components: Sequence["RealConstant"],
    s: float,
) -> list:
    """Best-effort check of each witness row against digit-defined components.

    Returns one bool per pair: True when every coordinate inequality
    |r^(j) + s_k*alpha_j| <= bound_scale*exp(-delta*s_k^{1/s}) is certified
    from exact brackets of alpha_j (rational components are exact; digit-
    defined components are bracketed by consecutive convergents at adaptive
    depth).  False means "not certified", not "false".
    """
    s = float(s)
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    if w.length != len(components):
        raise WitnessMismatch(
            f"witness has {w.length} coordinates, vector has {len(components)}"
        )
    out = []
    with workdps(LOG_DPS):
        for r, s_k in w.pairs:
            rhs_ln = mp.log(w.bound_scale) - mp.mpf(w.delta) * mp.mpf(s_k) ** (
                mp.mpf(1) / s
            )
            ok = True
            for j, comp in enumerate(components):
                sup_ln = _sup_ln_linear_form(comp, r[j], s_k, rhs_ln)
                if sup_ln is None or not (sup_ln <= rhs_ln):
                    ok = False
                    break
            out.append(ok)
    return out


def _sup_ln_linear_form(comp: "RealConstant", r: int, s_k: int, target_ln):
    """ln of a certified upper bound for |r + s_k*alpha|, or None.

    Rational alpha: exact.  Digit-defined alpha: refine the convergent
    bracket until the interval either certifies a value comfortably or the
    bracket width passes below the target, whichever comes first.
    """
    if comp.kind == "rational":
        val = abs(Fraction(r) + s_k * comp.fraction)
        if val == 0:
            return mp.ninf
        return mp.log(mp.mpf(val.numerator)) - mp.log(mp.mpf(val.denominator))
    if comp.kind != "cf":
        return None
    cf = comp.cf
    n = 1
    while True:
        if not cf.has_digit(n + 2):
            return None
        try:
            lo, hi = cf.alpha_bracket(n)
        except DigitCapExceeded:
            return None
        a, b = Fraction(r) + s_k * lo, Fraction(r) + s_k * hi
        sup = max(abs(a), abs(b))
        if sup == 0:
            return mp.ninf
        sup_ln = mp.log(mp.mpf(sup.numerator)) - mp.log(mp.mpf(sup.denominator))
        if sup_ln <= target_ln:
            return sup_ln
        # interval already much narrower than its distance from the target:
        # further refinement cannot change the outcome
        width = hi - lo
        if a * b > 0 and width * s_k < min(abs(a), abs(b)):
            return sup_ln
        n += 1
        if n > 64:
            return sup_ln


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

#: default evidence horizon (rows computed per number)
DEFAULT_HORIZON = 6


def classify(
    cf: ContinuedFraction,
    s: float | None = None,
    n_max: int = DEFAULT_HORIZON,
) -> DiophantineVerdict:
    """Verdict for the number defined by ``cf`` at order ``s`` (``None``:
    the smooth scale).

    The kind and its certificate come from the digit stream's tail bound
    (:meth:`DigitStream.tail_certificate`), so no kind depends on
    ``n_max``.  The evidence holds the beta_n rows (Gevrey) or mu_n rows
    (smooth) for n <= n_max, cut at the last digit of a finite stream.
    """
    if not cf.stream.is_infinite:
        n_max = min(n_max, cf._last_index() - 1)
    if s is None:
        mode, rows = "mu", liouville_exponent_trend(cf, n_max)
    else:
        mode, rows = "beta", exp_liouville_score(cf, s, n_max)
    kind, certificate = cf.stream.tail_certificate(s)
    return DiophantineVerdict(
        kind=kind,
        s=float(s) if s is not None else None,
        evidence=[{"n": n, mode: val} for n, val in rows],
        n_used=len(rows),
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# RealConstant
# ---------------------------------------------------------------------------


@dataclass
class RealConstant:
    """A real constant in one of three flavors.

    * ``rational``: exact Fraction (JSON strings and integers);
    * ``float``: a double with no exactness claim (JSON non-integer numbers);
    * ``cf``: defined by a continued-fraction digit stream; certified
      irrational exactly when the stream is infinite by construction.
    """

    kind: str
    fraction: Fraction | None = None
    value: float | None = None
    cf: ContinuedFraction | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_fraction(cls, x) -> "RealConstant":
        return cls(kind="rational", fraction=Fraction(x))

    @classmethod
    def from_float(cls, x: float) -> "RealConstant":
        return cls(kind="float", value=float(x))

    @classmethod
    def from_cf(cls, cf) -> "RealConstant":
        if not isinstance(cf, ContinuedFraction):
            cf = ContinuedFraction(cf)
        return cls(kind="cf", cf=cf)

    @classmethod
    def from_json(cls, obj) -> "RealConstant":
        if isinstance(obj, RealConstant):
            return obj
        if isinstance(obj, bool):
            raise MalformedInput("boolean is not a real constant")
        if isinstance(obj, str):
            return cls.from_fraction(Fraction(obj))
        if isinstance(obj, int):
            return cls.from_fraction(obj)
        if isinstance(obj, float):
            if not math.isfinite(obj):
                raise MalformedInput(f"non-finite real constant {obj!r}")
            return cls.from_float(obj)
        if isinstance(obj, dict) and "cf" in obj:
            return cls.from_cf(ContinuedFraction(digit_stream_from_json(obj["cf"])))
        if isinstance(obj, dict) and "rational" in obj:
            return cls.from_fraction(Fraction(obj["rational"]))
        raise MalformedInput(f"cannot parse real constant from {obj!r}")

    # -- predicates -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    @property
    def is_certified_irrational(self) -> bool:
        return self.kind == "cf" and self.cf.stream.is_infinite

    # -- numeric access ---------------------------------------------------------

    def approx_fraction(self, digits: int = 60) -> Fraction:
        if self.kind == "rational":
            return self.fraction
        if self.kind == "float":
            return Fraction(self.value).limit_denominator(10**digits)
        return self.cf.approx_fraction(digits)

    def mpf(self, dps: int = 60):
        with workdps(dps):
            if self.kind == "rational":
                return mp.mpf(self.fraction.numerator) / self.fraction.denominator
            if self.kind == "float":
                return mp.mpf(self.value)
            return self.cf.mpf(dps)

    def __float__(self) -> float:
        if self.kind == "rational":
            return float(self.fraction)
        if self.kind == "float":
            return self.value
        return float(self.cf.mpf(30))

    def classify(
        self, s: float | None = None, n_max: int = DEFAULT_HORIZON
    ) -> DiophantineVerdict:
        """Exact rationals are Rational; floats are Unknown (nothing is
        certifiable from a double); digit-defined constants take the kind
        of their stream's tail certificate (:func:`classify`)."""
        if self.kind == "rational":
            return DiophantineVerdict(kind=RATIONAL, s=s)
        if self.kind == "float":
            return DiophantineVerdict(kind=UNKNOWN, s=s)
        return classify(self.cf, s=s, n_max=n_max)

    def to_json(self):
        if self.kind == "rational":
            return str(self.fraction)
        if self.kind == "float":
            return self.value
        return self.cf.to_json()

    def __repr__(self):
        if self.kind == "rational":
            return f"RealConstant({self.fraction})"
        if self.kind == "float":
            return f"RealConstant({self.value!r})"
        return f"RealConstant(cf={self.cf.stream.kind})"
