"""Evaluation kernels: recurrences against independent constructions and frozen values."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from hermspec import (
    binom_reflection_holds,
    eval_laguerre,
    gamma_duplication_residual,
    gauss_rule,
    hermite_functions,
    laguerre_exp_integral,
    laguerre_hermite_bridge_residual,
)
from hermspec.hermite import PI_Q, SCALED_START_RADIUS, SQRT2

from oracles import binom_reflection_residual, half_line_integral_even, hermite_poly, x_odd

T = np.linspace(-6.0, 6.0, 241)


def test_ground_state_value():
    got = hermite_functions(0, np.array([0.0, 1.0]))[0]
    ref = math.pi ** -0.25 * np.exp(-np.array([0.0, 1.0]) ** 2 / 2.0)
    assert np.allclose(got, ref, rtol=0, atol=1e-15)


def _recurrence_by_expression(k_max, t):
    # each degree as one expression, with its temporaries
    t = np.asarray(t, dtype=float)
    out = np.empty((k_max + 1,) + t.shape)
    out[0] = PI_Q * np.exp(-0.5 * t * t)
    if k_max >= 1:
        out[1] = SQRT2 * t * out[0]
    for k in range(1, k_max):
        out[k + 1] = t * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


@pytest.mark.parametrize("k_max", [0, 1, 2, 40])
def test_in_place_recurrence_is_bit_identical_to_the_expression(k_max):
    rng = np.random.default_rng(k_max)
    for t in (rng.normal(scale=5.0, size=300), rng.normal(scale=3.0, size=(4, 6)),
              rng.normal(size=(30, 3))[:, 1], 1.7, np.zeros(0)):
        got = hermite_functions(k_max, t)
        want = _recurrence_by_expression(k_max, t)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_scaled_start_leaves_every_column_within_its_radius_bit_identical():
    # inside SCALED_START_RADIUS every column is the plain recurrence's, also
    # beside columns past it in the same call
    near = np.linspace(-SCALED_START_RADIUS, SCALED_START_RADIUS, 601)
    far = np.array([-53.9, -37.5, 38.5, 45.0])
    for k_max in (0, 1, 40, 727):
        got = hermite_functions(k_max, np.concatenate([near, far]))
        assert np.array_equal(got[:, : near.size], _recurrence_by_expression(k_max, near))


def _mpmath_hermite(k, x):
    # h_k(x) by the recurrence in 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        prev, cur = 0, mpmath.pi ** -0.25 * mpmath.exp(-x * x / 2)
        for j in range(k):
            prev, cur = cur, x * mpmath.sqrt(mpmath.mpf(2) / (j + 1)) * cur - mpmath.sqrt(
                mpmath.mpf(j) / (j + 1)) * prev
        return float(cur)


@pytest.mark.parametrize("k, x", [(727, 38.5), (1455, 53.9), (400, 33.0), (727, 31.0)])
def test_scaled_start_matches_mpmath_where_the_plain_start_fails(k, x):
    # near the turning point of a mode.  Past t = 37.6 the plain start value
    # PI_Q e^(-x^2/2) leaves the normal float range and only the scaled start
    # holds; inside it the plain start holds to 1e-14, which the scaled
    # start's e^(log scale) rounding misses (3.0e-14 at (400, 33.0))
    want = _mpmath_hermite(k, x)
    got = hermite_functions(k, np.array([x, -x]))[k]
    plain_start_normal = PI_Q * math.exp(-0.5 * x * x) >= sys.float_info.min
    assert abs(got[0] - want) <= (1e-14 if plain_start_normal else 1e-13) * abs(want)
    assert got[1] == (-1) ** k * got[0]
    if not plain_start_normal:
        plain = _recurrence_by_expression(k, np.array([x]))[k, 0]
        assert abs(plain - want) > 1e-3 * abs(want)


def test_recurrence_matches_explicit_polynomial():
    # independent route: exact integer coefficients of the degree-k polynomial,
    # normalized in log space, times the Gaussian
    h = hermite_functions(12, T)
    for k in range(13):
        log_c = -0.25 * math.log(math.pi) - 0.5 * (k * math.log(2.0) + math.lgamma(k + 1))
        ref = hermite_poly(k, T) * np.exp(log_c - T * T / 2.0)
        assert np.max(np.abs(h[k] - ref)) < 1e-12, k


def test_parity_is_exact_in_floating_point():
    h_plus = hermite_functions(40, T)
    h_minus = hermite_functions(40, -T)
    for k in range(41):
        assert np.array_equal(h_minus[k], (-1.0) ** k * h_plus[k]), k


def test_orthonormality_via_gauss_hermite():
    # the compensated weights w e^(x^2) leave w times a polynomial, so a
    # 41-node rule integrates every pair with k <= 40 exactly
    x, comp = gauss_rule("hermite", 41)
    h = hermite_functions(40, x)
    gram = (h * comp) @ h.T
    assert np.max(np.abs(gram - np.eye(41))) < 1e-12


def test_lowering_identity_against_finite_differences():
    # (d/dt + t) h_k = sqrt(2k) h_{k-1}, derivative by 5-point central stencil
    t = np.linspace(-4.0, 4.0, 17)
    dt = 1e-3
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * dt
    for k in range(1, 13):
        dh = sum(c * hermite_functions(k, t + o)[k] for c, o in zip(stencil, offsets))
        lhs = dh + t * hermite_functions(k, t)[k]
        rhs = math.sqrt(2.0 * k) * hermite_functions(k - 1, t)[k - 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-8, k


def test_raising_identity_against_finite_differences():
    t = np.linspace(-4.0, 4.0, 17)
    dt = 1e-3
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * dt
    for k in range(12):
        dh = sum(c * hermite_functions(k, t + o)[k] for c, o in zip(stencil, offsets))
        lhs = -dh + t * hermite_functions(k, t)[k]
        rhs = math.sqrt(2.0 * (k + 1)) * hermite_functions(k + 1, t)[k + 1]
        assert np.max(np.abs(lhs - rhs)) < 1e-8, k


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError):
        hermite_functions(-1, T)


def test_half_line_even_frozen_values():
    assert half_line_integral_even(0) == pytest.approx(0.9413962637767155, abs=1e-13)
    assert half_line_integral_even(1) == pytest.approx(0.665667681900195, abs=1e-12)


def _half_line_odd(k):
    # integral_0^inf h_(2k+1) is minus the odd antiderivative's value at 0,
    # which antideriv.odd_coefficients gives as a finite expansion
    return -float(x_odd(k, 0.0))


def test_half_line_odd_frozen_value():
    # integral_0^inf h_1 = sqrt(2) / pi^(1/4)
    assert _half_line_odd(0) == pytest.approx(math.sqrt(2.0) * math.pi ** -0.25, abs=1e-14)
    assert _half_line_odd(0) == pytest.approx(1.0622519320271967, abs=1e-12)


@pytest.mark.parametrize("k", range(0, 11))
def test_half_line_even_against_quadrature(k):
    val, err = quad(lambda t: float(hermite_functions(2 * k, np.array([t]))[2 * k][0]), 0.0, 30.0, limit=200)
    assert half_line_integral_even(k) == pytest.approx(val, abs=1e-10)


@pytest.mark.parametrize("k", range(0, 11))
def test_half_line_odd_against_quadrature(k):
    val, err = quad(
        lambda t: float(hermite_functions(2 * k + 1, np.array([t]))[2 * k + 1][0]), 0.0, 30.0, limit=200
    )
    assert _half_line_odd(k) == pytest.approx(val, abs=1e-10)


def test_laguerre_recurrence_against_scipy():
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 20.0, size=50)
    for k in range(0, 11):
        for alpha in (-0.5, 0.0, 0.5, 1.5):
            got = eval_laguerre(k, alpha, u)
            ref = eval_genlaguerre(k, alpha, u)
            assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-12


def test_laguerre_exp_integral_against_quadrature():
    for k, alpha, beta in [(0, 0.5, 1.5), (2, 0.5, 2.0), (3, -0.25, 1.0), (5, 1.0, 3.0)]:
        closed = laguerre_exp_integral(k, alpha, beta)
        val, err = quad(
            lambda u: float(eval_laguerre(k, alpha, np.array([u]))[0]) * math.exp(-beta * u),
            0.0,
            80.0,
            limit=400,
        )
        assert closed == pytest.approx(val, rel=1e-9)


def test_laguerre_params_validation():
    with pytest.raises(ValueError, match="degree"):
        laguerre_exp_integral(-1, 0.5, 1.0)
    with pytest.raises(ValueError, match="type exponent"):
        laguerre_exp_integral(2, -1.5, 1.0)
    with pytest.raises(ValueError, match="decay rate"):
        laguerre_exp_integral(2, 0.5, 0.0)


@pytest.mark.parametrize("k", range(0, 11))
def test_laguerre_hermite_bridge(k):
    # a polynomial identity on integer coefficients holds exactly
    assert laguerre_hermite_bridge_residual(k) == 0.0


@pytest.mark.parametrize("k", range(1, 11))
def test_laguerre_hermite_bridge_detects_wrong_prefactor(k):
    # dropping one factor of 2 from the prefactor must be loudly visible
    assert laguerre_hermite_bridge_residual(k, drop_factor_two=True) >= 0.3


def test_laguerre_hermite_bridge_rejects_a_negative_degree():
    with pytest.raises(ValueError, match="k must be >= 0"):
        laguerre_hermite_bridge_residual(-1)


def test_gamma_duplication_residual():
    for z in [0.5, 1.0, 1.7, 3.25, 10.0, 25.5]:
        assert gamma_duplication_residual(z) < 1e-13


def test_binomial_reflection_exact_rational():
    for alpha in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4)):
        for k in range(0, 21):
            assert binom_reflection_residual(alpha, k) == 0


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(-5, 3)])
def test_binomial_reflection_in_integers_matches_the_fraction_residual(a):
    p, q = a.numerator, a.denominator
    for k in range(41):
        assert binom_reflection_holds(p, q, k) == (binom_reflection_residual(a, k) == 0), k
        assert binom_reflection_holds(p, q, k)

