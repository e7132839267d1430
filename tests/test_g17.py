"""The ``profile`` CSV formatter: exactly the bytes of Python's ``"%.17g"``."""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone._g17 import _significand, format_rows


def _reference(table: np.ndarray) -> bytes:
    return b"".join(b",".join(b"%.17g" % x for x in row) + b"\n" for row in table.tolist())


def _assert_formats(values, columns: int = 5) -> None:
    values = np.asarray(values, dtype=float).ravel()
    table = np.concatenate([values, np.ones(-values.size % columns)]).reshape(-1, columns)
    assert format_rows(table) == _reference(table)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=60), st.integers(1, 6))
def test_hypothesis_floats(values, columns):
    # Subnormals, signed zeros, infinities and nan included.
    _assert_formats(values, columns)


def test_random_bit_patterns():
    bits = np.random.default_rng(20260809).integers(0, 2**64, size=2**20, dtype=np.uint64)
    for block in np.split(bits.view(float), 16):
        _assert_formats(block)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    _assert_formats(np.concatenate(near + [-x for x in near]))


def test_notation_boundaries():
    # Fixed notation exactly for -4 <= exponent < 17, after rounding to 17 digits.
    edges = [1e-4, 1e-5, 1e16, 1e17, 0.001, 0.1, 1.0, 10.0, 123.0, 0.5, 2.0**53, 2.0**56, 2.0**60]
    _assert_formats([y for x in edges for y in (x, np.nextafter(x, 0.0), np.nextafter(x, 2 * x), -x)])
    _assert_formats([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])


def _ties() -> np.ndarray:
    """Doubles whose exact decimal value has 18 significant digits, the last a 5."""
    n = np.random.default_rng(7).integers(10**15, 2**51, size=400).astype(float)
    scaled = 1234567890123456.25 * 2.0 ** -np.arange(60)
    candidates = np.concatenate([n + 0.25, n + 0.75, (n + 0.25) / 2, scaled])
    exact = [Decimal(x).as_tuple() for x in candidates.tolist()]
    return candidates[[len(t.digits) == 18 and t.digits[-1] == 5 for t in exact]]


def test_exact_ties_round_half_even_through_the_fallback():
    ties = _ties()
    assert ties.size >= 800
    assert b"%.17g" % 1234567890123456.25 == b"1234567890123456.2"
    assert not _significand(ties)[2].any()  # undecided in double-double: Python formats them
    _assert_formats(np.concatenate([ties, -ties]))


def test_values_out_of_range_take_the_fallback():
    outside = np.array([5e-324, 1e-300, 9e-241, 2e240, 1e300, math.inf, -math.inf, math.nan, -1e-300])
    assert not _significand(outside)[2].any()
    inside = np.array([0.0, -0.0, 1.1e-240, 0.9e240, 1.0, -2.5, 1e-5, 1e16])
    assert _significand(inside)[2].all()
    _assert_formats(np.concatenate([outside, inside]))


def _with_digits(k: int, digits: int) -> np.ndarray:
    """Doubles nearest to decimals of ``digits`` significant digits and exponent ``k``:
    random ones, all nines and, where there is one, a dyadic ``t / 2**j`` that prints
    exactly; and their neighbours on both sides."""
    rng = np.random.default_rng([k + 5, digits])
    m = rng.integers(10 ** (digits - 1), 10**digits, size=16) // 10 * 10 + rng.integers(1, 10, 16)
    m = [*m.tolist(), 10**digits - 1]
    q = k - digits + 1
    five = 5 ** max(-q, 0)
    t = -(-(10 ** (digits - 1)) // five) | 1  # odd: t * five ends in a nonzero digit
    if t * five < 10**digits:
        m.append(t * five)
    x = np.array([float(f"{d}e{q}") for d in m])
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


def test_every_exponent_and_digit_count_around_fixed_notation():
    # Fixed notation prints its point among the last 16 digits for 1 <= k <= 15, and
    # only when more than k + 1 digits are significant.
    values = np.concatenate([_with_digits(k, d) for k in range(-5, 18) for d in range(1, 18)])
    _assert_formats(np.concatenate([values, -values]))
    printed = [Decimal((b"%.17g" % x).decode()) for x in values.tolist()]
    shapes = {(p.adjusted(), len(p.normalize().as_tuple().digits)) for p in printed}
    # No double prints as one digit times 1e-5: the nearest to 1e-5 is 1.0000000000000001e-05.
    wanted = {(k, d) for k in range(-5, 18) for d in range(1, 18)} - {(-5, 1)}
    assert wanted <= shapes
    # Seventeen nines round up across 10**(k + 1): 9.9999999999999999e15 is the double 1e16.
    nines = [float(f"{10**17 - 1}e{k - 16}") for k in range(-5, 18)]
    assert [Decimal(x).adjusted() for x in nines] == list(range(-4, 19))


@pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025])
def test_row_blocks_concatenate_to_one_call(rows):
    # profile formats its CSV in blocks of rows; the blocks must join to one call's bytes.
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(3000, 5)) * 10.0 ** rng.integers(-7, 20, size=(3000, 5))
    table[rng.random(table.shape) < 0.05] = 0.0
    table[::97, 2] = _ties()[: table[::97].shape[0]]
    whole = format_rows(table)
    assert whole == _reference(table)
    assert b"".join(format_rows(table[s : s + rows]) for s in range(0, len(table), rows)) == whole
