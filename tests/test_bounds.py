"""Exact big-integer bound formulas and certified logarithm intervals."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest

from poset_ramsey.bounds import (
    MultipartiteBoundReport,
    _log2_int_interval,
    SpindleBoundParams,
    antichain_alpha,
    chain_bound,
    claim_holds,
    claim_sides,
    format_sci,
    log2_interval,
    multipartite_bound_report,
    multipartite_upper_bound,
    spindle_bound_report,
    spindle_upper_bound,
)


# -------------------------------------------------------------- logarithms


def test_log2_interval_exact_on_powers_of_two():
    for e in range(0, 12):
        lo, hi = log2_interval(1 << e)
        assert lo == hi == e
    lo, hi = log2_interval(Fraction(1, 8))
    assert lo == hi == -3


def test_log2_interval_brackets_true_value():
    for x in (3, 5, 7, 100, 12345, Fraction(3, 7), Fraction(1, 1000)):
        lo, hi = log2_interval(x, 20)
        true = math.log2(x if isinstance(x, int) else x.numerator / x.denominator)
        assert float(lo) <= true <= float(hi)
        assert hi - lo <= Fraction(2, 1 << 20)


def test_log2_interval_narrows_with_precision():
    w8 = log2_interval(3, 8)
    w16 = log2_interval(3, 16)
    assert w16[1] - w16[0] < w8[1] - w8[0]
    assert w8[0] <= w16[0] and w16[1] <= w8[1]


def test_log2_interval_rejects_nonpositive():
    with pytest.raises(ValueError):
        log2_interval(0)
    with pytest.raises(ValueError):
        log2_interval(Fraction(-3, 2))
    with pytest.raises(ValueError):
        log2_interval(5, 0)


def _exact_bracket(m: int, q: int) -> tuple[Fraction, Fraction]:
    """The bracket from the exact power; powers of two are exact points."""
    if m & (m - 1) == 0:
        return Fraction(m.bit_length() - 1), Fraction(m.bit_length() - 1)
    bits = (m ** (1 << q)).bit_length()
    return Fraction(bits - 1, 1 << q), Fraction(bits, 1 << q)


@lru_cache(maxsize=None)
def _decimal_log2(m: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(m).ln() / Decimal(2).ln()


def _reference_bracket(m: int, q: int) -> tuple[Fraction, Fraction]:
    """Same bracket as ``_exact_bracket``: the power has floor(2**q log2 m) + 1
    bits, read off a 60-digit correctly rounded logarithm, with the exact
    power only where the product sits within 1e-40 of an integer."""
    if m & (m - 1) == 0:
        return _exact_bracket(m, q)
    with localcontext() as ctx:
        ctx.prec = 60
        scaled = _decimal_log2(m) * (1 << q)
        floor = int(scaled)
        frac = scaled - floor
        if frac < Decimal("1e-40") or frac > 1 - Decimal("1e-40"):
            return _exact_bracket(m, q)
    return Fraction(floor, 1 << q), Fraction(floor + 1, 1 << q)


def _bracket_test_values() -> list[int]:
    rng = random.Random(2024)
    edges = [(1 << j) + d for j in range(2, 65) for d in (-1, 1)]
    return edges + [rng.randrange(1, 1 << 64) for _ in range(500 - len(edges))]


def test_log2_int_interval_equals_exact_power_bracket():
    values = list(range(1, 1 << 12)) + _bracket_test_values()
    for q in (1, 8):
        for m in values:
            assert _log2_int_interval(m, q) == _exact_bracket(m, q), (m, q)
    for m in (3, 5, 1023, 4095, (1 << 32) - 1, (1 << 32) + 1):
        assert _log2_int_interval(m, 16) == _exact_bracket(m, 16), m
    # m**2 lies just past an odd power of two, closer than a 96-bit mantissa
    # resolves: only a rounded-up upper end sends these to the exact power
    for b in (193, 201, 255, 1001):
        for m in (math.isqrt(1 << b), math.isqrt(1 << b) + 1):
            for q in (1, 8):
                assert _log2_int_interval(m, q) == _exact_bracket(m, q), (b, q)


def test_log2_int_interval_at_high_precision():
    for q in (16, 20):
        for m in list(range(1, 1 << 12)) + _bracket_test_values():
            assert _log2_int_interval(m, q) == _reference_bracket(m, q), (m, q)


def test_log2_interval_on_fractions():
    rng = random.Random(77)
    cases = [Fraction(3, 7), Fraction(1, 1000), Fraction(65537, 65536), Fraction(10**6, 3)]
    cases += [Fraction(rng.randrange(1, 1 << 40), rng.randrange(1, 1 << 40)) for _ in range(40)]
    for x in cases:
        for q, bracket in ((1, _exact_bracket), (8, _exact_bracket), (16, _reference_bracket)):
            num_lo, num_hi = bracket(x.numerator, q)
            den_lo, den_hi = bracket(x.denominator, q)
            assert log2_interval(x, q) == (num_lo - den_hi, num_hi - den_lo), (x, q)
        lo, hi = log2_interval(x)
        assert float(lo) <= math.log2(x.numerator) - math.log2(x.denominator) <= float(hi)


def test_format_sci():
    assert format_sci(0) == "0"
    assert format_sci(12345) == "1.234E+4"  # half to even
    assert format_sci(12355) == "1.236E+4"
    assert format_sci(99995) == "1.000E+5"
    assert format_sci(7000, 0) == "7E+3"
    assert format_sci(-12345) == "-1.234E+4"
    big = format_sci(math.factorial(300))
    assert "E+" in big and len(big) < 12


def _format_sci_cases() -> list[int]:
    rng = random.Random(99)
    cases = [math.factorial(k) for k in range(0, 300)]
    cases += [math.factorial(k) for k in (2000, 12842, 21890, 25000)]
    for j in range(0, 80):
        power = 10 ** j
        cases += [power, power - 1, power + 1]
        # ties and carries at every rounding position used below
        cases += [c * power for c in (5, 15, 25, 125, 1235, 12345, 12355, 99995, 99985, 9999995)]
        cases += [c * power + 1 for c in (5, 15, 12345, 99995)]
    for _ in range(12):
        n = rng.randint(1 << 10, 1 << 12)
        r, s, t = rng.randint(0, 2), rng.randint(2, 4), rng.randint(0, 2)
        report = spindle_bound_report(n, r, s, t)
        cases += [report.lhs, report.rhs]
    return [x for x in cases if x]  # format_sci prints 0 as "0"


def test_format_sci_matches_decimal():
    for x in _format_sci_cases():
        reference = Decimal(x)
        for digits in (0, 1, 3, 6):
            assert format_sci(x, digits) == f"{reference:.{digits}E}", (x, digits)


# ------------------------------------------------------------------- claim


def test_claim_sides_by_hand():
    assert claim_sides(4, 2, 1, 1, 2) == (2, 4096)
    assert claim_sides(1, 3, 0, 0, 3) == (6, 16)
    assert claim_sides(1, 1, 1, 0, 1) == (1, 0)


def test_claim_holds_examples():
    assert claim_holds(4, 2, 1, 1, 2) is False
    assert claim_holds(1, 3, 0, 0, 3) is False  # 6 vs 2^4
    assert claim_holds(1, 4, 0, 0, 3) is False  # 24 vs 2^5
    assert claim_holds(1, 5, 0, 0, 3) is True   # 120 vs 2^6


def test_claim_validation():
    for bad in [(0, 1, 1, 1, 2), (1, -1, 1, 1, 2), (1, 1, -1, 1, 2),
                (1, 1, 1, -1, 2), (1, 1, 1, 1, 0)]:
        with pytest.raises(ValueError):
            claim_holds(*bad)


def test_claim_s1_convention():
    # right side vanishes; by convention the claim needs k >= 1
    assert claim_holds(10, 0, 1, 1, 1) is False
    assert claim_holds(10, 1, 1, 1, 1) is True
    assert claim_holds(10, 7, 0, 0, 1) is True


@lru_cache(maxsize=None)
def _log2_int(m: int) -> tuple[Fraction, Fraction]:
    # independent certified bracket: m**16384 has floor(16384*log2 m)+1 bits
    power = m ** 16384
    bits = power.bit_length()
    return Fraction(bits - 1, 16384), Fraction(bits, 16384)


def _oracle_claim(n: int, k: int, r: int, t: int, s: int) -> bool:
    """Interval-arithmetic comparison of the two sides' logarithms, with an
    exact integer fallback when the intervals touch."""
    lhs_lo = lhs_hi = Fraction(0)
    for i in range(2, k + 1):
        lo, hi = _log2_int(i)
        lhs_lo += lo
        lhs_hi += hi
    rhs_lo = rhs_hi = Fraction((r + t) * (n + k))
    if s > 2:
        lo, hi = _log2_int(s - 1)
        rhs_lo += (k + 1) * lo
        rhs_hi += (k + 1) * hi
    if lhs_lo > rhs_hi:
        return True
    if lhs_hi <= rhs_lo:
        return False
    return math.factorial(k) > (1 << ((r + t) * (n + k))) * (s - 1) ** (k + 1)


def test_claim_agrees_with_log_oracle():
    rng = random.Random(101)
    for trial in range(1000):
        n = rng.randint(1, 300)
        k = rng.randint(0, 60)
        r = rng.randint(0, 3)
        t = rng.randint(0, 3)
        s = rng.randint(2, 8)
        assert claim_holds(n, k, r, t, s) == _oracle_claim(n, k, r, t, s), (n, k, r, t, s)


# ---------------------------------------------------------- spindle bounds


def test_spindle_bound_frozen_value():
    report = spindle_bound_report(1 << 10, 1, 2, 1)
    assert report.k_star == 395
    assert report.bound == (1 << 10) + 395 == 1419
    assert report.tail_certified is True
    assert report.lhs > report.rhs
    lo, hi = report.realized
    assert lo == hi == Fraction(395 * 10, 1 << 10)


def test_spindle_bound_minimal_k():
    for n in (16, 64, 256, 1024):
        for r, s, t in ((1, 2, 1), (0, 2, 1), (1, 3, 2), (2, 2, 0), (0, 4, 0)):
            report = spindle_bound_report(n, r, s, t)
            k = report.k_star
            assert claim_holds(n, k, r, t, s)
            assert not claim_holds(n, k - 1, r, t, s)
            assert report.bound == n + k


def test_spindle_bound_one_column_uses_chain_rule():
    assert spindle_upper_bound(100, 2, 1, 3) == 105
    report = spindle_bound_report(100, 2, 1, 3)
    assert report.k_star is None and report.lhs is None
    assert report.bound == 105


def test_spindle_bound_degenerate_antichain_row():
    # r = t = 0, s = 2: right side is constantly 1, first win at k = 2
    assert spindle_upper_bound(50, 0, 2, 0) == 52


def test_spindle_scan_cap():
    with pytest.raises(ValueError):
        spindle_upper_bound(2, 0, 1 << 40, 1)


def test_spindle_scan_small_n_grid():
    # 8n is below k* at small n; the cap must admit every such input
    for n in range(1, 31):
        for r in range(3):
            for t in range(3):
                for s in range(2, 6):
                    k = spindle_bound_report(n, r, s, t).k_star
                    assert claim_holds(n, k, r, t, s), (n, r, s, t)
                    assert not claim_holds(n, k - 1, r, t, s), (n, r, s, t)
    assert spindle_bound_report(1, 1, 2, 1).k_star == 11


def test_realized_ratio_decreases_toward_two():
    """k* log2(n) / n falls toward r + t as the dimension grows."""
    ratios = []
    for e in (10, 12, 14, 16):
        report = spindle_bound_report(1 << e, 1, 2, 1)
        lo, hi = report.realized
        assert lo == hi  # exact at powers of two
        ratios.append(lo)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > 2 for r in ratios)
    # the log log n / log n overhead decays slowly; 2^16 sits near 3.14
    assert ratios[-1] < Fraction(63, 20)


def test_spindle_params_intervals_cross_check():
    params = SpindleBoundParams(1 << 10, 1, 2, 1)
    e_lo, e_hi = params.eps()
    assert e_lo == e_hi == Fraction(1, 10)
    d_lo, d_hi = params.delta()
    want = 2 * 2 * (math.log2(10) + 2) / 10
    assert float(d_lo) <= want <= float(d_hi)
    c_lo, c_hi = params.c()
    want_c = (2 + want) / (1 - 0.1)
    assert float(c_lo) <= want_c <= float(c_hi)
    k_lo, k_hi = params.k_formula()
    assert float(k_lo) <= want_c * 1024 / 10 <= float(k_hi)


def test_spindle_params_eps_must_stay_below_one():
    params = SpindleBoundParams(4, 1, 8, 1)
    with pytest.raises(ValueError):
        params.c()


def test_spindle_params_validation():
    with pytest.raises(ValueError):
        SpindleBoundParams(1, 1, 2, 1)
    with pytest.raises(ValueError):
        SpindleBoundParams(16, -1, 2, 1)


# ------------------------------------------------------ multipartite bounds


def test_multipartite_is_iterated_spindle():
    n = 1 << 10
    report = multipartite_bound_report(n, (2, 2))
    assert isinstance(report, MultipartiteBoundReport)
    assert report.t == 2
    step1 = spindle_bound_report(n, 1, 2, 1)
    step2 = spindle_bound_report(step1.bound, 1, 2, 1)
    assert report.steps[0] == step1
    assert report.steps[1] == step2
    assert report.value == step2.bound
    assert multipartite_upper_bound(n, (2, 2)) == report.value


def test_multipartite_uses_largest_layer():
    n = 1 << 10
    report = multipartite_bound_report(n, (1, 3, 2))
    assert report.t == 3
    value = n
    for _ in range(3):
        value = spindle_upper_bound(value, 1, 3, 1)
    assert report.value == value


# ---------------------------------------------------------------- baselines


def test_chain_bound_values():
    assert chain_bound(1, 5) == 5
    assert chain_bound(3, 1) == 3
    assert chain_bound(2, 2) == 3
    with pytest.raises(ValueError):
        chain_bound(0, 5)
    with pytest.raises(ValueError):
        chain_bound(2, -1)


def test_antichain_alpha_frozen_table():
    assert [antichain_alpha(t) for t in range(1, 8)] == [0, 2, 3, 4, 4, 4, 5]
    with pytest.raises(ValueError):
        antichain_alpha(0)
