"""Tests for the trigonometric Laurent polynomial algebra."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone import (
    AffineForm,
    FirstOrderPoly,
    FullForm,
    NotDivisibleError,
    PureNegForm,
    ZeroDivisorError,
    ZeroPolynomialError,
    exact_div,
    expand,
    factorize,
    has_second_order,
    mul,
)

from phaseclone.trigpoly import SCALE_FLOOR, ZERO_COEFF_REL, _divide

from helpers import eval_on_grid, fp, grid, random_first_order, root_multiplicity

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------- evaluation

def test_eval_quarter_square():
    p = fp(0.25, 0.25, 0.5)  # (1/4)(e^{i phi}+1)(e^{-i phi}+1)
    assert p.eval(0.0) == pytest.approx(1.0)
    assert abs(p.eval(math.pi)) < 1e-15


def test_eval_zero_poly():
    z = FirstOrderPoly.zero()
    for phi in (0.0, 1.0, 2.5, math.pi):
        assert z.eval(phi) == 0


def test_eval_rejects_non_finite():
    with pytest.raises(ValueError):
        FirstOrderPoly(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        FirstOrderPoly(0, complex(0, float("inf")), 0)


# ------------------------------------------------------------- real-valued

def test_real_valued_examples():
    assert fp(0.25, 0.25, 0.5).is_real_valued(1e-12)
    assert not fp(1j, 1j, 0).is_real_valued(1e-12)


def test_real_valued_random_conjugate_pair():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alpha = rng.normal() + 1j * rng.normal()
        p = FirstOrderPoly(alpha, alpha.conjugate(), rng.normal())
        assert p.is_real_valued(1e-12)
        # independent oracle: imaginary part vanishes on a phase grid
        assert np.max(np.abs(eval_on_grid(p, grid(64)).imag)) < 1e-12


# -------------------------------------------------------------------- mul

# Products hold degrees (-2, -1, 0, 1, 2) on axis 0.

def test_mul_opposite_frequencies():
    assert mul(fp(1, 0, 0).coeffs, fp(0, 1, 0).coeffs).tolist() == [0, 0, 1, 0, 0]


def test_mul_negative_shift_square():
    assert mul(fp(0, 1, 1).coeffs, fp(0, 1, 1).coeffs).tolist() == [1, 2, 1, 0, 0]


def test_mul_counterexample_offdiagonals():
    # product of the two (e^{-i phi}+1) entries feeding the 4 e^{-i phi} slot
    lp = mul(fp(0, 1, 1).coeffs, fp(0, 1, 1).coeffs)
    assert np.abs(lp - [1, 2, 1, 0, 0]).max() <= 0


def test_mul_commutative_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q = random_first_order(rng), random_first_order(rng)
        assert np.array_equal(mul(p.coeffs, q.coeffs), mul(q.coeffs, p.coeffs))


@pytest.mark.xfail(
    strict=True,
    reason="numpy's complex multiply loop fuses a multiply-add on array operands, so "
    "mul(p, q) and mul(q, p) differ in the last bit (CHANGES.md FOUND on trigpoly.mul)",
)
def test_mul_commutative_exact_on_stacks():
    rng = np.random.default_rng(11)
    differ = 0
    for _ in range(200):
        p, q = (rng.normal(size=(3, 200)) + 1j * rng.normal(size=(3, 200)) for _ in range(2))
        differ += mul(p, q).tobytes() != mul(q, p).tobytes()
    assert differ == 0


finite = st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e2)
polys = st.builds(FirstOrderPoly, finite, finite, finite)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_mul_bilinear(p, q, r):
    left = mul((p + r).coeffs, q.coeffs)
    right = mul(p.coeffs, q.coeffs) + mul(r.coeffs, q.coeffs)
    scale = 1.0 + np.abs(left).max() + np.abs(right).max()
    assert np.abs(left - right).max() <= 1e-12 * scale


# --------------------------------------------------------------- exact_div

def test_exact_div_counterexample_entry():
    q = exact_div([1, 2, 1, 0, 0], fp(0.25, 0.25, 0.5).coeffs)
    assert FirstOrderPoly(*q).distance(fp(0, 4, 0)) == 0


def test_exact_div_self_quotient():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_first_order(rng)
        num = mul(p.coeffs, fp(0, 0, 1).coeffs)
        q = exact_div(num, p.coeffs, 1e-10)
        assert FirstOrderPoly(*q).distance(fp(0, 0, 1)) < 1e-12


def test_exact_div_degree_overflow():
    num = [0, 0, 0, 0, 1]
    den = fp(0, 1, 0)
    with pytest.raises(NotDivisibleError) as exc:
        exact_div(num, den.coeffs)
    assert exc.value.residual > 0.5
    # Oracle: the pointwise ratio e^{3 i phi} has no first-order content, so
    # projecting it onto span{e^{i phi}, 1, e^{-i phi}} leaves a large residual.
    phis = grid(64)
    ratio = np.exp(3j * phis)
    coeffs = [np.mean(ratio * np.exp(-1j * k * phis)) for k in (1, 0, -1)]
    fit = sum(c * np.exp(1j * k * phis) for c, k in zip(coeffs, (1, 0, -1)))
    assert np.max(np.abs(ratio - fit)) > 0.9


def test_exact_div_zero_divisor():
    with pytest.raises(ZeroDivisorError):
        exact_div([0, 0, 1, 0, 0], FirstOrderPoly.zero().coeffs)


def test_exact_div_zero_numerator():
    q = exact_div(np.zeros(5), fp(1, 2, 3).coeffs)
    assert FirstOrderPoly(*q) == FirstOrderPoly.zero()


def test_exact_div_inverts_mul():
    rng = np.random.default_rng(17)
    for _ in range(500):
        p = random_first_order(rng)
        q = random_first_order(rng)
        got = FirstOrderPoly(*exact_div(mul(p.coeffs, q.coeffs), q.coeffs, 1e-10))
        assert got.distance(p) <= 1e-10 * (1.0 + p.max_abs())


def test_exact_div_affine_and_pure_divisors():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = random_first_order(rng)
        affine = fp(0, rng.normal() + 1j * rng.normal(), rng.normal() + 2.0)
        got = exact_div(mul(p.coeffs, affine.coeffs), affine.coeffs, 1e-10)
        assert FirstOrderPoly(*got).distance(p) <= 1e-9
        pure = fp(0, rng.normal() + 2.0, 0)
        got = exact_div(mul(p.coeffs, pure.coeffs), pure.coeffs, 1e-10)
        assert FirstOrderPoly(*got).distance(p) <= 1e-9


def test_exact_div_batched_matches_entrywise():
    rng = np.random.default_rng(41)
    den = random_first_order(rng)
    ps = [[random_first_order(rng) for _ in range(3)] for _ in range(2)]
    coeffs = np.moveaxis(np.array([[p.coeffs for p in row] for row in ps]), -1, 0)
    got = exact_div(mul(coeffs, den.coeffs[:, None, None]), den.coeffs, 1e-10)
    assert got.shape == (3, 2, 3)
    for r in range(2):
        for c in range(3):
            one = exact_div(mul(ps[r][c].coeffs, den.coeffs), den.coeffs, 1e-10)
            # numpy's vector and scalar loops may round differently
            assert np.abs(got[:, r, c] - one).max() <= 1e-14 * np.abs(one).max()


def test_exact_div_names_first_failing_entry():
    den = fp(0.25, 0.25, 0.5)
    num = np.zeros((5, 2, 3), dtype=complex)
    num[:, 0, 2] = [0, 0, 0, 0, 1]  # e^{2 i phi}: not divisible
    num[:, 1, 0] = [0, 0, 0, 0, 1]
    num[:, 0, 1] = mul(fp(1, 2, 3).coeffs, den.coeffs)
    with pytest.raises(NotDivisibleError) as exc:
        exact_div(num, den.coeffs)
    assert exc.value.index == (0, 2)
    assert exc.value.residual > 0.5


def _mixed_divisors(rng, n: int) -> np.ndarray:
    """``(3, n)`` divisors cycling through the generic, affine and pure-negative shapes."""
    dens = []
    for i in range(n):
        p = random_first_order(rng)
        if i % 3 == 1:
            p = fp(0, p.b, p.c)
        elif i % 3 == 2:
            p = fp(0, p.b, 0)
        dens.append(p.coeffs)
    return np.array(dens).T


def test_exact_div_per_member_divisors_match_single_calls():
    rng = np.random.default_rng(59)
    n = 12
    den = _mixed_divisors(rng, n)
    quot = np.moveaxis(
        np.array([[[random_first_order(rng).coeffs for _ in range(3)] for _ in range(2)]
                  for _ in range(n)]),
        -1,
        0,
    )
    num = mul(quot, den[:, :, None, None])
    got = exact_div(num, den[:, :, None, None], 1e-10)
    assert got.shape == (3, n, 2, 3)
    for k in range(n):
        one = exact_div(num[:, k], den[:, k], 1e-10)
        assert np.abs(got[:, k] - one).max() <= 1e-14 * np.abs(one).max()
        assert np.abs(got[:, k] - quot[:, k]).max() <= 1e-9 * (1.0 + np.abs(quot[:, k]).max())


def _reference_quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Long division masked by each lead degree in turn, one coefficient at a time.

    ``num`` and ``den`` have the same trailing shape.  The serial definition
    of the quotients of ``_divide``.
    """
    d = den[[1, 2, 0]]
    mags = np.abs(d)
    floor = ZERO_COEFF_REL * np.maximum(mags.max(axis=0), SCALE_FLOOR)
    lead = 2 - np.argmin((mags <= floor)[::-1], axis=0)
    q = np.empty((3,) + num.shape[1:], dtype=complex)
    for value in range(3):
        members = lead == value
        if members.any():
            rem, dm = num[:, members].copy(), d[:, members]
            shifted = np.zeros_like(rem)
            for k in range(4, value - 1, -1):
                qk = shifted[k - value] = rem[k] / dm[value]
                for m in range(value + 1):
                    rem[k - value + m] -= qk * dm[m]
            q[:, members] = shifted[[2, 0, 1]]
    return q


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_divide_quotients_equal_the_masked_long_division_bit_for_bit(noise):
    # A stack of mixed lead degrees, one of a single lead degree, and each
    # member alone (a scalar): every path of _divide gives the reference's bits.
    rng = np.random.default_rng(67)
    den = _mixed_divisors(rng, 30)
    num = mul(np.array([random_first_order(rng).coeffs for _ in range(30)]).T, den)
    num = num + noise * rng.normal(size=num.shape)
    cases = [(num, den), (num[:, ::3], den[:, ::3])] + [(num[:, k], den[:, k]) for k in range(30)]
    for n, d in cases:
        assert _divide(n, d)[0].tobytes() == _reference_quotients(n, d).tobytes()


def test_exact_div_per_member_divisors_name_first_failing_member():
    rng = np.random.default_rng(61)
    den = _mixed_divisors(rng, 6)
    num = mul(
        np.moveaxis(np.array([[random_first_order(rng).coeffs] * 2 for _ in range(6)]), -1, 0),
        den[:, :, None],
    )
    num[:, 4, 1] = [0, 0, 0, 0, 1]  # e^{2 i phi} has no first-order quotient
    num[:, 5, 0] = [1, 0, 0, 0, 1]
    with pytest.raises(NotDivisibleError) as exc:
        exact_div(num, den[:, :, None], 1e-10)
    assert exc.value.index == (4, 1)
    with pytest.raises(NotDivisibleError) as one:
        exact_div(num[:, 4, 1], den[:, 4], 1e-10)
    assert exc.value.residual == one.value.residual
    q, residual, limit = _divide(num, den[:, :, None], 1e-10)
    assert (residual > limit).tolist() == [[False, False]] * 4 + [[False, True], [True, False]]
    assert np.array_equal(q[:, :4], exact_div(num[:, :4], den[:, :4, None], 1e-10))


@pytest.mark.parametrize("s", [1e-14, 1e-100])
def test_exact_div_of_a_small_constant_is_relative(s):
    # A divisor's coefficients are negligible relative to the divisor, at any
    # scale above SCALE_FLOOR.
    assert np.array_equal(exact_div([0, 0, s * s, 0, 0], [0, 0, s]), [0, 0, s])


def test_exact_div_below_the_scale_floor_is_by_zero():
    with pytest.raises(ZeroDivisorError):
        exact_div([0, 0, 1, 0, 0], [0, 0, 0.1 * ZERO_COEFF_REL * SCALE_FLOOR])


def test_exact_div_rejects_bad_divisor_shapes():
    with pytest.raises(ValueError):
        exact_div(np.zeros(5), np.ones(2))
    with pytest.raises(ZeroDivisorError):
        exact_div(np.zeros((5, 2)), np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))


# --------------------------------------------------------------- factorize

def test_factorize_double_root():
    form = factorize(fp(0.25, 0.25, 0.5))
    assert isinstance(form, FullForm)
    assert form.scale == pytest.approx(0.25)
    assert form.w0 == pytest.approx(1.0)
    assert form.w1 == pytest.approx(1.0)


def test_factorize_separated_roots():
    form = factorize(fp(0.125, 0.125, 0.5))
    assert isinstance(form, FullForm)
    roots = sorted((form.w0, form.w1), key=abs)
    assert roots[0] == pytest.approx(2.0 - SQRT3, abs=1e-10)
    assert roots[1] == pytest.approx(2.0 + SQRT3, abs=1e-10)
    # canonical order puts the smaller-magnitude root first
    assert abs(form.w0) <= abs(form.w1)


def test_factorize_pure_negative():
    form = factorize(fp(0, 1, 0))
    assert isinstance(form, PureNegForm)
    assert form.b == 1


def test_factorize_affine():
    form = factorize(fp(0, 0.5, 2.0))
    assert isinstance(form, AffineForm)
    assert form.scale == 2.0
    assert form.w == pytest.approx(0.25)


def test_factorize_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        factorize(FirstOrderPoly.zero())
    with pytest.raises(ZeroPolynomialError):
        factorize(FirstOrderPoly(0.1 * ZERO_COEFF_REL * SCALE_FLOOR, 0, 0))


def test_factorize_is_relative_below_unit_scale():
    form = factorize(FirstOrderPoly(1e-14, 0, 0))
    assert isinstance(form, FullForm)
    assert (form.scale, form.w0, form.w1) == (1e-14, 0, 0)


# ------------------------------------------------------------------ expand

def test_expand_double_root():
    assert expand(FullForm(0.25, 1.0, 1.0)).distance(fp(0.25, 0.25, 0.5)) == 0


def test_expand_affine_constant():
    assert expand(AffineForm(3.5, 0.0)).distance(fp(0, 0, 3.5)) == 0


def test_expand_pure_negative():
    assert expand(PureNegForm(2 - 1j)).distance(fp(0, 2 - 1j, 0)) == 0
    assert expand(factorize(fp(0, 1e-3j, 0))).distance(fp(0, 1e-3j, 0)) == 0


@settings(max_examples=150, deadline=None)
@given(
    st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=1e-2, max_magnitude=1e2),
    st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e2),
    st.complex_numbers(allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e2),
)
def test_expand_factorize_round_trip_random_full(scale, w0, w1):
    p = expand(FullForm(scale, w0, w1))
    q = expand(factorize(p))
    phis = grid(64)
    diff = np.max(np.abs(eval_on_grid(p, phis) - eval_on_grid(q, phis)))
    ref = 1.0 + np.max(np.abs(eval_on_grid(p, phis)))
    assert diff <= 1e-9 * ref


def test_factorize_root_with_an_underflowing_phase():
    # The free root is 2 + 5e-324i, on which cmath.phase raises OverflowError.
    p = fp(2.225073858507203e-309 + 3j, 0, 4.450147717014407e-309 + 6j)
    form = factorize(p)
    assert isinstance(form, FullForm)
    assert (form.w0, form.w1) == (0j, 2 + 5e-324j)
    assert expand(form).distance(p) <= 1e-15 * p.max_abs()


def test_round_trip_bulk_and_scale_invariance():
    rng = np.random.default_rng(101)
    phis = grid(64)
    for _ in range(2000):
        p = random_first_order(rng)
        q = expand(factorize(p))
        ref = 1.0 + np.max(np.abs(eval_on_grid(p, phis)))
        assert np.max(np.abs(eval_on_grid(p, phis) - eval_on_grid(q, phis))) <= 1e-9 * ref

        k = rng.uniform(0.25, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        fa, fb = factorize(p), factorize(k * p)
        assert isinstance(fa, FullForm) and isinstance(fb, FullForm)
        assert abs(fa.w0 - fb.w0) <= 1e-7 * (1 + abs(fa.w0))
        assert abs(fa.w1 - fb.w1) <= 1e-7 * (1 + abs(fa.w1))


# ------------------------------------------------------------ root content

def test_contains_root_double():
    assert root_multiplicity(factorize(fp(0.125, 0.125, 0.25)), 1.0) == 2


def test_contains_root_single():
    assert root_multiplicity(factorize(fp(0, 1, 1)), 1.0) == 1


def test_contains_root_constant():
    assert root_multiplicity(factorize(fp(0, 0, 1)), 1.0) == 0


def test_contains_root_rejects_zero():
    with pytest.raises(ValueError):
        root_multiplicity(factorize(fp(1, 1, 1)), 0.0)


def test_contains_root_matches_grid_zero_for_unit_roots():
    # For |z| = 1 the factor (x + z) vanishes exactly at e^{i phi} = -z;
    # check containment against that evaluation, which is an independent
    # criterion.
    rng = np.random.default_rng(29)
    for _ in range(100):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        other = rng.uniform(0.2, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        with_root = expand(FullForm(1.0 + rng.random(), z, other))
        without = random_first_order(rng)
        phi_star = cmath.phase(-z) % (2 * math.pi)
        assert root_multiplicity(factorize(with_root), z) >= 1
        assert abs(with_root.eval(phi_star)) < 1e-10
        has = root_multiplicity(factorize(without), z) >= 1
        vanishes = abs(without.eval(phi_star)) < 1e-10
        assert has == vanishes


# --------------------------------------------------------- second order

def test_has_second_order_true():
    assert has_second_order([1, 2, 1, 0, 0])


def test_has_second_order_false_constant():
    assert not has_second_order([0, 0, 1, 0, 0])


def test_has_second_order_footnote_product():
    assert not has_second_order(mul(fp(0, 0, 1).coeffs, fp(1, 0, 0).coeffs))


@pytest.mark.parametrize("k", [2.0**-900, 1e-12, 1.0, 1e12, 2.0**900])
def test_has_second_order_is_relative(k):
    # A degree +-2 coefficient counts iff it exceeds tol times the products'
    # largest coefficient modulus, at any scale.
    assert has_second_order(k * np.array([2e-9, 0, 1, 0, 0]), 1e-9)
    assert not has_second_order(k * np.array([0, 0, 1, 0, 5e-10]), 1e-9)
    assert has_second_order(k * np.array([[0, 0], [0, 0], [1, 0], [0, 0], [0, 2e-9]]), 1e-9)


@pytest.mark.parametrize("shape", [(3,), (6, 2), (4, 5), ()])
def test_has_second_order_needs_the_degree_axis(shape):
    # A (3,) array used to raise IndexError and a (6, 2) one of ones to read True.
    with pytest.raises(ValueError, match="degrees -2..2 on axis 0"):
        has_second_order(np.ones(shape))


# ------------------------------------------------------------- structure

def test_laurent_degree_bounds():
    # Products span exactly the degrees -2..2; a numerator with any other
    # number of degrees is refused.
    assert mul(fp(1, 1, 1).coeffs, fp(1, 1, 1).coeffs).shape == (5,)
    with pytest.raises(ValueError):
        exact_div(np.zeros(6), fp(1, 0, 0).coeffs)
    with pytest.raises(ValueError):
        exact_div(np.zeros(3), fp(1, 0, 0).coeffs)


def test_conjugate_matches_pointwise():
    rng = np.random.default_rng(31)
    p = random_first_order(rng)
    q = p.conjugate()
    for phi in grid(16):
        assert q.eval(phi) == pytest.approx(p.eval(phi).conjugate())
