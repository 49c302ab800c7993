"""Exact continued-fraction engine and approximation-rate classification.

A positive digit stream a_1, a_2, ... defines the number

    alpha = 1/(a_1 + 1/(a_2 + 1/(a_3 + ...)))  in (0, 1)

through the convergent recurrence

    p_1 = 1,  q_1 = a_1,  p_2 = a_2,  q_2 = a_2*a_1 + 1,
    p_n = a_n*p_{n-1} + p_{n-2},   q_n = a_n*q_{n-1} + q_{n-2}   (n >= 3).

The module keeps convergents exact (arbitrary-size integers) while q_n stays
under a configurable decimal-digit cap.  It works in one number system:
exact integers and rationals, and doubles for their logarithms.  ln a_n,
ln p_n and ln q_n are ``math.log`` of the exact integer under the cap (one
rounding, for an int of any size), and the same recurrence in log space
past it.  A boolean built on doubles certifies only with room to spare
(:data:`CERTIFY_MARGIN`).  On top of the engine it provides:

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

from .errors import (
    DigitCapExceeded,
    DigitStreamExhausted,
    MalformedInput,
    NonPositiveDigit,
    OrderError,
    WitnessMismatch,
    _integer,
    _list_field,
    _parse_field,
)
from .gevrey import _parse_coeff

#: default cap on the decimal-digit count of exactly materialized integers
DEFAULT_DIGIT_CAP = 100_000

#: relative room by which a double inequality must hold to certify a row,
#: far above the rounding of the logs it compares
CERTIFY_MARGIN = 1e-9

# verdict kinds
RATIONAL = "Rational"
LIOUVILLE_TREND = "LiouvilleTrend"
NOT_LIOUVILLE_TREND = "NotLiouvilleTrend"
NOT_EXP_LIOUVILLE_TREND = "NotExpLiouvilleTrend"
EXP_LIOUVILLE_TREND = "ExpLiouvilleTrend"
UNKNOWN = "Unknown"


# ---------------------------------------------------------------------------
# Order (the regularity scale being decided)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    """Regularity scale: Gevrey of order s > 1, or smooth (``s`` is None).

    ``s_exact`` keeps the user-supplied rational when one was given, so that
    ``to_json`` writes it back as given.
    """

    kind: str  # "gevrey" | "smooth"
    s: float | None = None
    s_exact: Fraction | None = None

    def __post_init__(self):
        if self.is_gevrey and not 1 < self.s < math.inf:
            raise OrderError(f"a Gevrey order must be finite and > 1, got s={self.s}")

    @classmethod
    def gevrey(cls, s) -> "Order":
        if isinstance(s, str):
            s = Fraction(s)
        exact = Fraction(s) if isinstance(s, (int, Fraction)) else None
        return cls(kind="gevrey", s=float(s), s_exact=exact)

    @classmethod
    def smooth(cls) -> "Order":
        return cls(kind="smooth")

    @classmethod
    def from_json(cls, obj) -> "Order":
        """``"smooth"``, or a Gevrey order: a rational string or a number."""
        if isinstance(obj, str) and obj.strip().lower() == "smooth":
            return cls.smooth()
        if isinstance(obj, (str, int, float)):
            return cls.gevrey(obj)
        raise MalformedInput(f"cannot parse regularity order from {obj!r}")

    @property
    def is_gevrey(self) -> bool:
        return self.kind == "gevrey"

    @property
    def favorable(self) -> str:
        """The kind of an averaged vector over J that proves regularity."""
        return NOT_EXP_LIOUVILLE_TREND if self.is_gevrey else NOT_LIOUVILLE_TREND

    @property
    def unfavorable(self) -> str:
        """The kind of an averaged vector over J that rules regularity out."""
        return EXP_LIOUVILLE_TREND if self.is_gevrey else LIOUVILLE_TREND

    def to_json(self):
        if self.is_gevrey:
            return str(self.s_exact) if self.s_exact is not None else self.s
        return self.kind


# ---------------------------------------------------------------------------
# Digit streams
# ---------------------------------------------------------------------------


class DigitStream:
    """A source of positive integer digits a_1, a_2, ...

    ``digit(n)`` materializes the exact integer (1-based), raising
    :class:`DigitCapExceeded` when its decimal size would exceed ``cap``
    digits; ``ln_digit(n)`` returns ln(a_n) as a double, and a stream whose
    digits can pass the cap computes it without materializing the digit.
    ``has(n)`` reports availability; infinite streams always have every
    index.
    """

    kind: str = "abstract"
    is_infinite: bool = False

    def has(self, n: int) -> bool:
        raise NotImplementedError

    def digit(self, n: int, cap: int = DEFAULT_DIGIT_CAP) -> int:
        raise NotImplementedError

    def ln_digit(self, n: int) -> float:
        return math.log(self.digit(n))

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
        digits = [_parse_field(f"digits[{k}]", _integer, d) for k, d in enumerate(digits)]
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

    def to_json(self) -> dict:
        return {"kind": "explicit", "digits": [str(d) for d in self._digits]}


class ConstantDigits(DigitStream):
    """The infinite stream a_n = d; d = 1 gives the golden-ratio tail,
    d = 2 gives sqrt(2) - 1."""

    kind = "constant"
    is_infinite = True

    def __init__(self, d: int):
        d = _parse_field("digit", _integer, d)
        if d <= 0:
            raise NonPositiveDigit(f"digit {d} is not a positive integer")
        self._d = d

    def has(self, n: int) -> bool:
        return n >= 1

    def digit(self, n: int, cap: int = DEFAULT_DIGIT_CAP) -> int:
        self._require(n)
        return self._d

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
        if math.factorial(n) + 1 > cap:
            raise DigitCapExceeded(
                f"a_{n} = 10^{n}! has {n}! + 1 decimal digits, over the cap {cap}"
            )
        return 10 ** math.factorial(n)

    def ln_digit(self, n: int) -> float:
        """n!·ln 10 as a double; inf from n = 171 on, where n! alone passes
        the largest double."""
        self._require(n)
        if n > 170:
            return math.inf
        return math.factorial(n) * math.log(10)

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
    if not isinstance(obj, dict):
        raise MalformedInput(f"cannot parse digit stream from {obj!r}")
    kind = obj.get("kind")
    if kind == "explicit":
        MalformedInput.refuse_unknown_keys(obj, ("kind", "digits"))
        return ExplicitDigits(_list_field(obj, "digits"))
    if kind == "constant":
        MalformedInput.refuse_unknown_keys(obj, ("kind", "digit"))
        return ConstantDigits(obj["digit"])
    if kind == "factorial_pow10":
        MalformedInput.refuse_unknown_keys(obj, ("kind",))
        return FactorialPow10Digits()
    raise MalformedInput(f"unknown digit stream kind {kind!r}")


# ---------------------------------------------------------------------------
# ContinuedFraction
# ---------------------------------------------------------------------------


class _LogPair:
    """Log-scale stand-in for a convergent pair past the exact-digit cap."""

    __slots__ = ("ln_p", "ln_q")

    def __init__(self, ln_p: float, ln_q: float):
        self.ln_p = ln_p
        self.ln_q = ln_q

    def __repr__(self):
        return f"_LogPair(ln_p={self.ln_p:.6g}, ln_q={self.ln_q:.6g})"

    def __iter__(self):
        return iter((self.ln_p, self.ln_q))


class ContinuedFraction:
    """Lazy convergent tables for one digit stream.

    Exact integers p_n, q_n are kept while their decimal size stays within
    ``digit_cap`` (default 100000).  ln(p_n), ln(q_n) live in double tables
    of their own that grow only when read (:meth:`log_q`, a :meth:`pair`
    past the cap): ``math.log`` of the exact pair under the cap, and the
    same recurrence in log space (log-sum-exp) past it, so every classifier
    keeps working past the cap.  A log past the double range reads inf
    (``factorial_pow10`` from n = 171 on).
    """

    def __init__(self, stream: DigitStream, digit_cap: int = DEFAULT_DIGIT_CAP):
        self.stream = stream
        self.digit_cap = int(digit_cap)
        # index 0 is the conventional seed p_0 = 0, q_0 = 1
        self._p: list = [0]
        self._q: list = [1]
        self._a: list = [None]
        # the log tables, seeded with ln p_0 = -inf, ln q_0 = 0
        self._ln_p: list = [-math.inf]
        self._ln_q: list = [0.0]

    # -- table maintenance --------------------------------------------------

    def _fetch_digit(self, n: int) -> None:
        while len(self._a) <= n:
            i = len(self._a)
            self.stream._require(i)
            try:
                self._a.append(self.stream.digit(i, cap=self.digit_cap))
            except DigitCapExceeded:
                self._a.append(None)

    def _ensure(self, n: int) -> None:
        """Extend the exact convergent tables through index n."""
        while len(self._p) <= n:
            i = len(self._p)
            self._fetch_digit(i)
            a = self._a[i]
            # p and q go inexact together, and never come back
            if a is not None and self._q[i - 1] is not None:
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

    def _ensure_logs(self, n: int) -> None:
        """Extend the log convergent tables through index n."""
        self._ensure(n)
        while len(self._ln_p) <= n:
            i = len(self._ln_p)
            if self._q[i] is not None:
                p = self._p[i]
                ln_p, ln_q = (math.log(p) if p else -math.inf), math.log(self._q[i])
            else:
                ln_a = self.ln_digit(i)
                ln_p = _ln_axpy(ln_a, self._ln_p[i - 1], self._ln_p[i - 2])
                ln_q = _ln_axpy(ln_a, self._ln_q[i - 1], self._ln_q[i - 2])
            self._ln_p.append(ln_p)
            self._ln_q.append(ln_q)

    # -- public accessors -----------------------------------------------------

    def digit(self, n: int) -> int:
        """Exact digit a_n (1-based); DigitCapExceeded past the cap."""
        self._fetch_digit(n)
        if self._a[n] is None:
            return self.stream.digit(n, cap=self.digit_cap)  # raises DigitCapExceeded
        return self._a[n]

    def ln_digit(self, n: int) -> float:
        """ln(a_n) as a double: ``math.log`` of the exact digit under the
        cap, the stream's own log past it."""
        self._fetch_digit(n)
        a = self._a[n]
        return math.log(a) if a is not None else self.stream.ln_digit(n)

    def has_digit(self, n: int) -> bool:
        return self.stream.has(n)

    def pair(self, n: int):
        """(p_n, q_n) as exact ints, or a log-scale pair past the cap."""
        if n < 1:
            raise MalformedInput(f"convergent index {n} must be >= 1")
        self._ensure(n)
        if self._q[n] is not None:
            return (self._p[n], self._q[n])
        self._ensure_logs(n)
        return _LogPair(self._ln_p[n], self._ln_q[n])

    def exact_pair(self, n: int):
        got = self.pair(n)
        if isinstance(got, _LogPair):
            raise DigitCapExceeded(
                f"convergent {n} exceeds the exact-integer cap of {self.digit_cap} digits"
            )
        return got

    def log_q(self, n: int) -> float:
        """ln(q_n) as a double (n = 0 gives ln 1 = 0)."""
        self._ensure_logs(n)
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

    def to_json(self) -> dict:
        return {"cf": self.stream.to_json()}


def _ln_axpy(ln_a: float, ln_x: float, ln_y: float) -> float:
    """ln(a*x + y) from the logs, for 0 <= y <= x: ln(a*x) + log1p(y/(a*x)).
    An infinite ln(a*x) stays infinite."""
    top = ln_a + ln_x
    if top == math.inf or ln_y == -math.inf:
        return top
    return top + math.log1p(math.exp(ln_y - top))


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
        for k, (r, s_k) in enumerate(self.pairs):
            r = tuple(int(x) for x in r)
            s_k = int(s_k)
            if s_k <= prev:
                raise MalformedInput("witness denominators must be strictly increasing")
            if cleaned and len(r) != (first := len(cleaned[0][0])):
                raise MalformedInput(f"pairs[{k}]: r has {len(r)} entries, pairs[0] has {first}")
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
    def from_json(cls, obj) -> "LiouvilleWitness":
        """{"delta", "pairs", "bound_scale"}; each row of ``pairs`` is
        {"r": [...], "q": ...} or the pair [r, q]."""
        if not isinstance(obj, dict):
            raise MalformedInput(f"expected an object, got {obj!r}")
        MalformedInput.refuse_unknown_keys(obj, ("delta", "pairs", "bound_scale"))
        rows = enumerate(_list_field(obj, "pairs", ()))
        return cls(
            delta=_parse_field("delta", lambda d: float(_parse_coeff(d)), obj.get("delta")),
            pairs=[_parse_field(f"pairs[{k}]", _witness_row, row) for k, row in rows],
            bound_scale=_parse_field("bound_scale", _integer, obj.get("bound_scale", 1)),
        )


def _witness_row(row) -> tuple:
    if isinstance(row, list) and len(row) == 2:
        row = {"r": row[0], "q": row[1]}
    if not isinstance(row, dict):
        raise MalformedInput(f"expected an object or an [r, q] pair, got {row!r}")
    MalformedInput.refuse_unknown_keys(row, ("r", "q"))
    r = [_parse_field(f"r[{k}]", _integer, x) for k, x in enumerate(_list_field(row, "r"))]
    return tuple(r), _parse_field("q", _integer, row["q"])


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


def _log_rows(cf: ContinuedFraction, first: int, n_max: int, name: str):
    """(n, ln a_{n+1}, ln q_n) for first <= n <= n_max, stopping before the
    first n whose logs leave the double range."""
    for n in range(first, n_max + 1):
        if not cf.has_digit(n + 1):
            raise DigitStreamExhausted(f"{name}_{n} needs digit a_{n + 1}, stream ended")
        ln_a, ln_q = cf.ln_digit(n + 1), cf.log_q(n)
        if not math.isfinite(ln_a + ln_q):
            return
        yield n, ln_a, ln_q


def liouville_exponent_trend(cf: ContinuedFraction, n_max: int) -> list:
    """Rows (n, mu_n) for 2 <= n <= n_max (none when n_max < 2) with
    mu_n = ln(a_{n+1} q_n^2)/ln(q_n): the power-law exponent certified by the
    bracket at level n.  Unbounded mu_n along a subsequence is the signature
    of a Liouville number.  The rows stop where the logs pass the largest
    double."""
    return [(n, 2 + ln_a / ln_q) for n, ln_a, ln_q in _log_rows(cf, 2, n_max, "mu")]


def exp_liouville_score(cf: ContinuedFraction, s: float, n_max: int) -> list:
    """Rows (n, beta_n) for 1 <= n <= n_max with
    beta_n = ln(a_{n+1} q_n)/q_n^{1/s}: the largest eps such that
    |p_n - alpha*q_n| <= exp(-eps * q_n^{1/s}) is certified at level n.
    beta_n bounded below by a positive margin indicates stretched-exponential
    approximability at order s; beta_n -> 0 indicates its failure.  The rows
    stop where the logs pass the largest double."""
    s = float(s)
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    return [
        (n, (ln_a + ln_q) * math.exp(-ln_q / s))
        for n, ln_a, ln_q in _log_rows(cf, 1, n_max, "beta")
    ]


def certified_le(lhs: float, rhs: float) -> bool:
    """lhs <= rhs between doubles, certified only when it holds with room
    CERTIFY_MARGIN*(1 + |rhs|), far above the rounding of either side.  So
    a row can read "not certified" where the exact inequality holds, never
    True where it fails; an infinite rhs (past the double range) never
    certifies."""
    return math.isfinite(rhs) and lhs <= rhs - CERTIFY_MARGIN * (1 + abs(rhs))


def condition_B_check(
    cf: ContinuedFraction,
    s: float,
    epsilon: float,
    N: int,
    n_max: int,
) -> list:
    """For each n in [N, n_max], certify
    |p_n - alpha*q_n| >= exp(-epsilon * q_{n-1}^{1/s})
    using the exact lower bound 1/((a_{n+1}+2) q_n) of the bracket.  In logs,
    and so without overflow, that is
    ln ln((a_{n+1}+2) q_n) <= ln epsilon + ln(q_{n-1})/s.

    A True row is a proof (the lower bound clears the threshold by
    :data:`CERTIFY_MARGIN`); a False row is inconclusive, because the
    bracket is one-sided here, and so is a row whose logs pass the largest
    double.
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
    for n in range(N, n_max + 1):
        ln_a = cf.ln_digit(n + 1)
        # ln((a+2) q_n), with ln(a+2) = ln a + log1p(2/a)
        ln_inv_lower = ln_a + math.log1p(2 * math.exp(-ln_a)) + cf.log_q(n)
        rhs = math.log(epsilon) + cf.log_q(n - 1) / s
        out.append(certified_le(math.log(ln_inv_lower), rhs))
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
    in logs, with :func:`certified_le`'s margin, from exact brackets of
    alpha_j (rational components are exact; digit-defined components are
    bracketed by consecutive convergents at adaptive depth).  False means
    "not certified", not "false".
    """
    s = float(s)
    if s < 1:
        raise OrderError(f"order s={s} must be >= 1")
    if w.length != len(components):
        raise WitnessMismatch(
            f"witness has {w.length} coordinates, vector has {len(components)}"
        )
    out = []
    for r, s_k in w.pairs:
        try:  # s_k^{1/s} through logs: s_k may pass the largest double
            rhs_ln = math.log(w.bound_scale) - w.delta * math.exp(math.log(s_k) / s)
        except OverflowError:  # a bound under exp(-delta * 1.8e308) certifies nothing
            rhs_ln = -math.inf
        out.append(
            all(_linear_form_certified(c, r[j], s_k, rhs_ln) for j, c in enumerate(components))
        )
    return out


def ln_abs_fraction(x: Fraction) -> float:
    """ln|x| of an exact rational of any size as a double (-inf at 0).  An
    int over 900 bits is read as its top 53 bits times a power of two."""
    if x == 0:
        return -math.inf

    def ln_int(n: int) -> float:
        if n.bit_length() <= 900:
            return math.log(n)
        shift = n.bit_length() - 53
        return math.log(n >> shift) + shift * math.log(2.0)

    return ln_int(abs(x.numerator)) - ln_int(x.denominator)


def _linear_form_certified(comp: "RealConstant", r: int, s_k: int, target_ln: float) -> bool:
    """Whether ln|r + s_k*alpha| <= target_ln is certified.

    Rational alpha: exact.  Digit-defined alpha: refine the convergent
    bracket until its far end certifies the target, or until its near end
    cannot (no refinement can certify the row then).
    """
    if comp.kind == "rational":
        return certified_le(ln_abs_fraction(Fraction(r) + s_k * comp.fraction), target_ln)
    if comp.kind != "cf":
        return False
    cf = comp.cf
    for n in range(1, 65):
        if not cf.has_digit(n + 2):
            return False
        try:
            lo, hi = cf.alpha_bracket(n)
        except DigitCapExceeded:
            return False
        a, b = Fraction(r) + s_k * lo, Fraction(r) + s_k * hi
        if certified_le(ln_abs_fraction(max(abs(a), abs(b))), target_ln):
            return True
        # the bracket excludes 0 and its near end already misses the target:
        # |r + s_k*alpha| lies above it, whatever the refinement
        if a * b > 0 and not certified_le(ln_abs_fraction(min(abs(a), abs(b))), target_ln):
            return False
    return False


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
    (smooth) for n <= n_max, cut at the last digit of a finite stream and
    at the last n whose logs ln a_{n+1}, ln q_n are finite doubles
    (``factorial_pow10``: n = 169); ``n_used`` reports the cut.
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
    def from_cf(cls, cf: ContinuedFraction) -> "RealConstant":
        return cls(kind="cf", cf=cf)

    @classmethod
    def from_json(cls, obj) -> "RealConstant":
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
            MalformedInput.refuse_unknown_keys(obj, ("cf",))
            return cls.from_cf(ContinuedFraction(digit_stream_from_json(obj["cf"])))
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
            return Fraction(self.value)  # the dyadic rational the float holds
        return self.cf.approx_fraction(digits)

    def __float__(self) -> float:
        if self.kind == "rational":
            return float(self.fraction)
        if self.kind == "float":
            return self.value
        # a 35-digit rational, rounded once
        return float(self.cf.approx_fraction(35))

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
