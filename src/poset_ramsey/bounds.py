"""Exact big-integer evaluation of the upper-bound formulas.

Every inequality that decides a bound is compared over Python integers;
logarithms appear only in display and cross-check fields, always as certified
rational intervals so they can never silently flip a verdict near the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from poset_ramsey.posets import MultipartiteSpec, SpindleSpec

#: Default width exponent for log intervals: endpoints are 2**-16 apart.
DEFAULT_LOG_PRECISION = 16

#: Bits of mantissa kept between squarings in ``_power_bit_length_bracket``.
_MANTISSA_BITS = 96

#: The factorial eventually dominates, so a bound scan past this many steps
#: can only mean broken inputs.
SCAN_CAP_FACTOR = 8

#: At small n, 8n can fall below k*; the cap is then the proven bound on k*
#: (see ``spindle_bound_report``), clipped to this many steps.
SCAN_CAP_SMALL_N = 1024

#: The scan's right side starts at 2^((r+t)(n+1)); inputs that would make it
#: longer than this many bits are rejected before it is built.
SCAN_MAX_POWER_BITS = 1 << 26


# ---------------------------------------------------------------------------
# Certified base-2 logarithm intervals (integer arithmetic only)


def _log2_int_interval(m: int, q: int) -> tuple[Fraction, Fraction]:
    # m**(2**q) has floor(2**q * log2 m) + 1 bits, giving directed bounds
    # of width 2**-q without any floating point.
    if m <= 0:
        raise ValueError("logarithm argument must be positive")
    if m & (m - 1) == 0:
        exact = Fraction(m.bit_length() - 1)
        return exact, exact
    bits, bits_hi = _power_bit_length_bracket(m, q)
    if bits != bits_hi:
        bits = (m ** (1 << q)).bit_length()
    return Fraction(bits - 1, 1 << q), Fraction(bits, 1 << q)


def _power_bit_length_bracket(m: int, q: int) -> tuple[int, int]:
    # q squarings of a truncated mantissa: lo * 2**shift <= m**(2**i) <=
    # hi * 2**shift after step i, so the bit lengths of the two ends bracket
    # that of the power.  Each truncation costs at most about 2**-95 in
    # relative width, and squaring doubles it, so the ends agree unless
    # m**(2**q) lies within about 2**(q-95) of a power of two.
    lo = hi = m
    shift = 0
    for _ in range(q):
        excess = hi.bit_length() - _MANTISSA_BITS
        if excess > 0:
            lo >>= excess
            hi = -(-hi >> excess)
            shift += excess
        lo *= lo
        hi *= hi
        shift <<= 1
    return lo.bit_length() + shift, hi.bit_length() + shift


def log2_interval(
    x: int | Fraction, precision_bits: int = DEFAULT_LOG_PRECISION
) -> tuple[Fraction, Fraction]:
    """Rational interval certainly containing log2(x).

    Exact (zero-width) for powers of two; otherwise the width is at most
    2**(1-precision_bits).  Each precision bit costs one squaring of a
    short mantissa; the exact integer power is built only in the rare case
    where the truncated ends cannot decide a bit length.
    """
    if precision_bits < 1:
        raise ValueError("precision must be positive")
    x = Fraction(x)
    if x <= 0:
        raise ValueError("logarithm argument must be positive")
    num_lo, num_hi = _log2_int_interval(x.numerator, precision_bits)
    den_lo, den_hi = _log2_int_interval(x.denominator, precision_bits)
    return num_lo - den_hi, num_hi - den_lo


def format_sci(x: int, digits: int = 3) -> str:
    """Scientific-notation rendering of an arbitrarily large integer.

    For nonzero x, the same string as ``f"{Decimal(x):.{digits}E}"`` (round
    half to even), but a large x costs one division with a short quotient
    instead of a full decimal conversion.
    """
    if x == 0:
        return "0"
    # 0.30102999 < log10(2), so e never exceeds floor(log10 x)
    e = (x.bit_length() - 1) * 30102999 // 100000000
    if x < 0 or not 0 <= digits < e:
        return f"{Decimal(x):.{digits}E}"
    unit = 10 ** (e - digits)
    head, rest = divmod(x, unit)
    limit = 10 ** (digits + 1)
    while head >= limit:
        head, figure = divmod(head, 10)
        rest += figure * unit
        unit *= 10
        e += 1
    twice = rest << 1
    if twice > unit or (twice == unit and head & 1):
        head += 1
        if head == limit:
            head //= 10
            e += 1
    figures = str(head)
    mantissa = f"{figures[0]}.{figures[1:]}" if digits else figures
    return f"{mantissa}E+{e}"


# ---------------------------------------------------------------------------
# The factorial-versus-exponential inequality


def _validate_claim_args(n: int, k: int, r: int, t: int, s: int) -> None:
    if n < 1:
        raise ValueError("dimension must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    SpindleSpec(r, s, t)


def claim_sides(n: int, k: int, r: int, t: int, s: int) -> tuple[int, int]:
    """Exact (left, right) sides: k! versus 2^((r+t)(n+k)) * (s-1)^(k+1)."""
    _validate_claim_args(n, k, r, t, s)
    return math.factorial(k), (1 << ((r + t) * (n + k))) * (s - 1) ** (k + 1)


def claim_holds(n: int, k: int, r: int, t: int, s: int) -> bool:
    """Whether k! exceeds 2^((r+t)(n+k)) * (s-1)^(k+1), exactly.

    For s = 1 the right side vanishes and the convention is that the claim
    holds exactly when k >= 1.
    """
    _validate_claim_args(n, k, r, t, s)
    if s == 1:
        return k >= 1
    lhs, rhs = claim_sides(n, k, r, t, s)
    return lhs > rhs


# ---------------------------------------------------------------------------
# Spindle bounds


@dataclass(frozen=True)
class SpindleBoundParams:
    """Closed-form ingredients eps, delta, c as certified rational intervals.

    eps = log s / log n, delta = 2(r+1)(log log n + r + t)/log n and
    c = (r+t+delta)/(1-eps); k is then predicted near c*n/log n.  These are
    display and cross-check values; the bound itself never consumes them.
    """

    n: int
    r: int
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension must be at least 2")
        SpindleSpec(self.r, self.s, self.t)

    def log_n(self) -> tuple[Fraction, Fraction]:
        return log2_interval(self.n)

    def eps(self) -> tuple[Fraction, Fraction]:
        if self.s == 1:
            return Fraction(0), Fraction(0)
        s_lo, s_hi = log2_interval(self.s)
        n_lo, n_hi = self.log_n()
        return s_lo / n_hi, s_hi / n_lo

    def delta(self) -> tuple[Fraction, Fraction]:
        n_lo, n_hi = self.log_n()
        ll_lo = log2_interval(n_lo)[0]
        ll_hi = log2_interval(n_hi)[1]
        scale = 2 * (self.r + 1)
        base = self.r + self.t
        return scale * (ll_lo + base) / n_hi, scale * (ll_hi + base) / n_lo

    def c(self) -> tuple[Fraction, Fraction]:
        e_lo, e_hi = self.eps()
        if e_hi >= 1:
            raise ValueError("log s / log n must stay below 1 for c to exist")
        d_lo, d_hi = self.delta()
        base = self.r + self.t
        return (base + d_lo) / (1 - e_lo), (base + d_hi) / (1 - e_hi)

    def k_formula(self) -> tuple[Fraction, Fraction]:
        c_lo, c_hi = self.c()
        n_lo, n_hi = self.log_n()
        return c_lo * self.n / n_hi, c_hi * self.n / n_lo


@dataclass(frozen=True)
class SpindleBoundReport:
    """Everything the bound scan established, for tables and cross-checks.

    ``k_star`` is None in the degenerate one-column case where the chain rule
    answers directly.  ``realized`` brackets k* log n / n, the per-instance
    stand-in for r + t + o(1).  ``tail_certified`` records that the factorial
    side's per-step growth already beats the right side's, so the claim keeps
    holding beyond k*.
    """

    n: int
    r: int
    s: int
    t: int
    bound: int
    k_star: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    tail_certified: bool | None = None
    realized: tuple[Fraction, Fraction] | None = None


def spindle_upper_bound(n: int, r: int, s: int, t: int) -> int:
    """Dimension bound n + k for the r/s/t spindle (see ``spindle_bound_report``)."""
    return spindle_bound_report(n, r, s, t).bound


def spindle_bound_report(n: int, r: int, s: int, t: int) -> SpindleBoundReport:
    """Dimension bound n + k for the r/s/t spindle, with the scan's evidence.

    s = 1 degenerates to a chain on r+1+t vertices and uses the chain rule.
    Otherwise k is the least value making the factorial side win, found by
    an exact upward scan with incrementally maintained sides.
    """
    _validate_claim_args(n, 0, r, t, s)
    if s == 1:
        return SpindleBoundReport(n=n, r=r, s=s, t=t, bound=n + r + t)
    if (r + t) * (n + 1) > SCAN_MAX_POWER_BITS:
        raise ValueError(
            f"bound scan would start from a {(r + t) * (n + 1)}-bit power of two, "
            f"past the {SCAN_MAX_POWER_BITS}-bit cap; inputs look wrong"
        )
    k = 1
    lhs = 1
    rhs = (1 << ((r + t) * (n + 1))) * (s - 1) ** 2
    step = (1 << (r + t)) * (s - 1)
    # k! >= (k/e)^k makes the claim hold at every k >= 8*step + (r+t)*n + s
    k_bound = 8 * step + (r + t) * n + s
    cap = max(SCAN_CAP_FACTOR * n, min(k_bound, SCAN_CAP_SMALL_N))
    while lhs <= rhs:
        k += 1
        if k > cap:
            raise ValueError(f"bound scan exceeded {cap} steps; inputs look wrong")
        lhs *= k
        rhs *= step
    log_lo, log_hi = log2_interval(n)
    return SpindleBoundReport(
        n=n,
        r=r,
        s=s,
        t=t,
        bound=n + k,
        k_star=k,
        lhs=lhs,
        rhs=rhs,
        tail_certified=k + 1 > step,
        realized=(Fraction(k) * log_lo / n, Fraction(k) * log_hi / n),
    )


# ---------------------------------------------------------------------------
# Iterated composition over complete multipartite targets


@dataclass(frozen=True)
class MultipartiteBoundReport:
    """Per-step spindle reports for the iterated bound plus the final value."""

    n: int
    layer_sizes: tuple[int, ...]
    t: int
    steps: tuple[SpindleBoundReport, ...]
    value: int


def multipartite_upper_bound(n: int, spec: MultipartiteSpec | Sequence[int]) -> int:
    """Iterated bound for an l-layer complete multipartite target.

    One composition step per layer, each bounding a 1/t/1 spindle at the
    dimension the previous step produced; t is the largest layer size.
    """
    return multipartite_bound_report(n, spec).value


def multipartite_bound_report(
    n: int, spec: MultipartiteSpec | Sequence[int]
) -> MultipartiteBoundReport:
    if not isinstance(spec, MultipartiteSpec):
        spec = MultipartiteSpec(tuple(spec))
    t = max(spec.layer_sizes)
    steps = []
    value = n
    for _ in spec.layer_sizes:
        report = spindle_bound_report(value, 1, t, 1)
        steps.append(report)
        value = report.bound
    return MultipartiteBoundReport(
        n=n, layer_sizes=spec.layer_sizes, t=t, steps=tuple(steps), value=value
    )


# ---------------------------------------------------------------------------
# Baselines and composition


def chain_bound(ell: int, n: int) -> int:
    """n + ell - 1, the exact value for a chain on ell vertices."""
    if ell < 1:
        raise ValueError("chain length must be positive")
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return n + ell - 1


def antichain_alpha(t: int) -> int:
    """Least a whose central binomial coefficient reaches t."""
    if t < 1:
        raise ValueError("antichain size must be positive")
    a = 0
    while math.comb(a, a // 2) < t:
        a += 1
    return a
