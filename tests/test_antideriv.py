"""Antiderivatives: expansion vs quadrature oracles, norms three ways, binomial sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from hermspec import gauss_rule, hermite_functions
from hermspec.antideriv import (
    _norm_rule,
    merge_identity_holds,
    norm_sq_quadrature_all,
    norm_sq_routes_all,
    odd_coefficients,
    partial_binomial_numerators,
)

from oracles import (
    _SEG_NODES,
    _SEG_WIDTH,
    _cumulative_half_line,
    half_line_integral_even,
    half_line_integral_even_binomial,
    merge_identity_check,
    merge_identity_exact,
    norm_sq_even_closed,
    norm_sq_even_quadrature,
    norm_sq_even_recursive,
    norm_sq_odd_closed,
    norm_sq_odd_expansion,
    norm_sq_odd_quadrature,
    norm_sq_odd_recursive,
    odd_series,
    partial_binomial_sum,
    partial_binomial_sum_exact,
    x_even,
    x_even_at_zero_normalized,
    x_even_at_zero_sq,
    x_odd,
)

SQRT2 = math.sqrt(2.0)


def cumulative_oracle(degree, x, lo=-12.0):
    val, _ = quad(
        lambda t: float(hermite_functions(degree, np.array([t]))[degree][0]), lo, x, limit=400
    )
    return val


def test_odd_series_structure():
    s = odd_series(2)
    assert [d for d, _ in s] == [4, 2, 0]
    assert s[0][1] == pytest.approx(-math.sqrt(2.0 / 5.0), rel=1e-15)
    # the shipped matrix holds the same pairs in row 2, zeros at odd degrees
    row = odd_coefficients(2)[2]
    assert [d for d in range(5) if row[d]] == [0, 2, 4]
    assert [row[d] for d, _ in s] == [c for _, c in s]
    with pytest.raises(ValueError):
        odd_coefficients(-1)


def test_odd_value_at_origin():
    got = float(x_odd(0, np.array([0.0]))[0])
    assert got == pytest.approx(-SQRT2 * math.pi ** -0.25, abs=1e-14)
    assert got == pytest.approx(-1.06225, abs=1e-5)


def test_odd_vanishes_at_both_ends_small_k():
    for k in range(0, 3):
        vals = x_odd(k, np.array([-8.0, 8.0]))
        assert np.max(np.abs(vals)) <= 1e-10, k


def test_odd_vanishes_at_degree_aware_radius():
    # beyond the turning point the Gaussian envelope wins; the fixed x = 8
    # window only suffices through k = 2
    for k in (5, 10, 20, 40):
        edge = max(8.0, math.sqrt(2.0 * (2 * k + 1) + 1.0) + 5.0)
        vals = x_odd(k, np.array([-edge, edge]))
        assert np.max(np.abs(vals)) <= 1e-10, k


def test_odd_expansion_against_cumulative_quadrature():
    assert float(x_odd(3, np.array([0.4]))[0]) == pytest.approx(
        cumulative_oracle(7, 0.4, lo=-9.0), abs=1e-9
    )
    for k in (0, 1, 2, 5, 8):
        for x in (-2.3, -0.7, 0.0, 0.4, 1.9, 3.8):
            got = float(x_odd(k, np.array([x]))[0])
            assert got == pytest.approx(cumulative_oracle(2 * k + 1, x), abs=1e-10), (k, x)


def test_odd_derivative_recovers_integrand():
    dt = 1e-3
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * dt
    x = np.linspace(-4.0, 4.0, 50)
    for k in (0, 2, 7):
        dX = sum(c * x_odd(k, x + o) for c, o in zip(stencil, offsets))
        ref = hermite_functions(2 * k + 1, x)[2 * k + 1]
        assert np.max(np.abs(dX - ref)) < 1e-6, k


def test_even_derivative_recovers_signed_integrand():
    dt = 1e-3
    stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * dt
    x = np.concatenate([np.linspace(-4.0, -0.5, 25), np.linspace(0.5, 4.0, 25)])
    for k in (0, 2, 5):
        dX = sum(c * x_even(k, x + o) for c, o in zip(stencil, offsets))
        ref = np.sign(x) * hermite_functions(2 * k, x)[2 * k]
        assert np.max(np.abs(dX - ref)) < 1e-6, k


def test_even_value_at_origin():
    got = float(x_even(0, np.array([0.0]))[0])
    assert got == pytest.approx(-(math.pi ** 0.25) / SQRT2, abs=1e-13)
    assert got == pytest.approx(-half_line_integral_even(0), abs=1e-13)


def test_even_symmetry():
    assert float(x_even(2, np.array([-1.1]))[0]) == pytest.approx(
        float(x_even(2, np.array([1.1]))[0]), abs=1e-14
    )


def test_even_vanishes_at_infinity():
    # the k = 0 signed integral over the whole line cancels exactly
    assert abs(float(x_even(0, np.array([30.0]))[0])) < 1e-14
    for k in (1, 4, 10):
        edge = math.sqrt(2.0 * (2 * k + 1.0)) + 10.0
        assert abs(float(x_even(k, np.array([edge]))[0])) < 1e-12, k


def test_even_against_erf_closed_form():
    # independent oracle for the cumulative machinery at k = 0
    x = np.linspace(-6.0, 6.0, 49)
    got = x_even(0, x)
    ref = (math.pi ** 0.25 / SQRT2) * (erf(np.abs(x) / SQRT2) - 1.0)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_even_against_direct_quadrature():
    for x in (0.3, 1.7, 2.9):
        got = float(x_even(3, np.array([x]))[0])
        ref, _ = quad(
            lambda t: math.copysign(1.0, t) * float(hermite_functions(6, np.array([t]))[6][0]),
            -15.0,
            x,
            limit=400,
            points=[0.0],
        )
        assert got == pytest.approx(ref, abs=1e-9), x


def test_norm_sq_odd_closed_and_recursive():
    assert norm_sq_odd_closed(0) == 2.0
    assert norm_sq_odd_closed(5) == 2.0
    assert norm_sq_odd_closed(40) == 2.0
    assert norm_sq_odd_recursive(0) == 2.0
    assert norm_sq_odd_recursive(1) == pytest.approx(2.0, abs=1e-15)
    assert norm_sq_odd_recursive(25) == pytest.approx(2.0, abs=1e-14)


def test_norm_sq_odd_quadrature_and_expansion():
    for k in (0, 3, 40):
        assert norm_sq_odd_quadrature(k) == pytest.approx(2.0, abs=1e-8), k
        assert norm_sq_odd_expansion(k) == pytest.approx(2.0, abs=1e-13), k


def test_partial_binomial_sum_values():
    assert partial_binomial_sum(0, 0.5) == 1.0
    assert partial_binomial_sum(2, 0.5) == pytest.approx(11.0 / 8.0, abs=1e-15)
    tail = partial_binomial_sum(2000, 0.5)
    assert tail == pytest.approx(SQRT2, abs=1e-3)
    gaps = [abs(partial_binomial_sum(k, 0.5) - SQRT2) for k in (10, 50, 200, 1000, 2000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        partial_binomial_sum(3, 0.25)


def test_norm_sq_even_closed_values():
    assert norm_sq_even_closed(0) == pytest.approx(2.0 * (SQRT2 - 1.0), abs=1e-15)
    assert norm_sq_even_closed(1) == pytest.approx(3.0 * SQRT2 - 2.0, abs=1e-15)
    assert norm_sq_even_closed(200) == pytest.approx(2.0, abs=5e-3)
    assert all(norm_sq_even_closed(k) <= 3.0 for k in range(0, 201))


def test_norm_sq_even_recursive_matches_closed():
    assert norm_sq_even_recursive(0) == pytest.approx(2.0 * (SQRT2 - 1.0), abs=1e-15)
    assert norm_sq_even_recursive(1) == pytest.approx(norm_sq_even_closed(1), abs=1e-13)
    assert norm_sq_even_recursive(50) == pytest.approx(norm_sq_even_closed(50), abs=1e-12)


def test_norm_sq_even_quadrature_matches_closed():
    for k in (0, 1, 7, 40):
        assert norm_sq_even_quadrature(k) == pytest.approx(
            norm_sq_even_closed(k), abs=1e-8
        ), k


def test_uniform_norm_bound_up_to_sixty():
    vals = [norm_sq_odd_quadrature(k) for k in range(0, 61)]
    vals += [norm_sq_even_quadrature(k) for k in range(0, 61)]
    assert max(vals) <= 3.01


def test_even_norm_oscillates_toward_two():
    # the maximum sits at k = 1; after it the sequence alternates around 2
    # with strictly shrinking envelope, monotone along each parity class
    vals = [norm_sq_even_closed(k) for k in range(0, 101)]
    assert max(vals) == vals[1]
    assert vals[1] == pytest.approx(3.0 * SQRT2 - 2.0, abs=1e-14)
    env = [abs(v - 2.0) for v in vals[1:]]
    assert all(a > b for a, b in zip(env, env[1:]))
    odd_side = vals[1::2]
    even_side = vals[2::2]
    assert all(a > b > 2.0 for a, b in zip(odd_side, odd_side[1:]))
    assert all(a < b < 2.0 for a, b in zip(even_side, even_side[1:]))


def test_junk_orthogonality():
    # the antiderivative of an odd eigenfunction spans only lower even modes,
    # so it is orthogonal to the next even eigenfunction up
    from scipy.special import roots_legendre

    x_ref, w_ref = roots_legendre(16)
    T = 20.0
    edges = np.linspace(-T, T, 161)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x_ref[None, :]).ravel()
    weights = (half[:, None] * w_ref[None, :]).ravel()
    for k in range(1, 21):
        integrand = hermite_functions(2 * k, nodes)[2 * k] * x_odd(k - 1, nodes)
        assert abs(float(np.dot(weights, integrand))) < 1e-9, k


def test_x_even_at_zero_values():
    assert x_even_at_zero_sq(0) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-14)
    assert x_even_at_zero_sq(1) == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-14)
    assert x_even_at_zero_normalized(30) <= 2.0
    assert all(x_even_at_zero_normalized(k) <= 2.0 for k in range(1, 101))
    with pytest.raises(ValueError):
        x_even_at_zero_normalized(0)


def test_merge_identity():
    assert merge_identity_check(0) < 1e-15
    assert max(merge_identity_check(k) for k in range(0, 101)) <= 1e-13
    for k in range(0, 21):
        assert merge_identity_exact(k) == Fraction(0), k


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7), Fraction(-5, 3)])
def test_partial_binomial_numerators_are_the_fraction_sums(a):
    # T_k over q^k k! is the exact partial sum, at every k <= 40
    p, q = a.numerator, a.denominator
    numerators = partial_binomial_numerators(40, p, q)
    assert len(numerators) == 41
    for k, t in enumerate(numerators):
        assert isinstance(t, int)
        assert Fraction(t, q ** k * math.factorial(k)) == partial_binomial_sum_exact(k, a), k


def test_merge_identity_holds_in_integers():
    # the integer predicate reads what the rational residual reads, k <= 40
    assert merge_identity_holds(40) == [merge_identity_exact(k) == 0 for k in range(41)]
    assert all(merge_identity_holds(40)) and merge_identity_holds(0) == [True]


def test_partial_binomial_sum_exact_matches_float():
    half = Fraction(1, 2)
    for k in (0, 3, 10):
        assert partial_binomial_sum(k, 0.5) == pytest.approx(
            float(partial_binomial_sum_exact(k, half)), rel=1e-14
        )


def cumulative_half_line_loop(degree, targets):
    """The per-target panel-edge loop that _cumulative_half_line replaced."""
    x_ref, w_ref = gauss_rule("legendre", _SEG_NODES)
    edges = [0.0]
    target_idx = []
    for t in targets:
        prev = edges[-1]
        gap = t - prev
        if gap <= 0.0:
            target_idx.append(len(edges) - 1)
            continue
        n_sub = max(1, int(math.ceil(gap / _SEG_WIDTH)))
        for j in range(1, n_sub):
            edges.append(prev + gap * j / n_sub)
        edges.append(t)
        target_idx.append(len(edges) - 1)
    edges = np.asarray(edges)
    if len(edges) == 1:
        return np.zeros(len(targets))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x_ref[None, :]).ravel()
    vals = hermite_functions(degree, nodes)[degree].reshape(-1, _SEG_NODES)
    seg = (vals * w_ref[None, :]).sum(axis=1) * half
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return cum[np.asarray(target_idx, dtype=int)]


@pytest.mark.parametrize(
    "targets",
    [
        [0.0, 0.0, 0.1, 0.3, 2.0],  # leading zeros
        [0.2, 0.2, 0.2, 1.7, 1.7, 3.0],  # duplicates
        [0.05, 1.3, 7.77, 7.8, 19.123456789],  # gaps wider than _SEG_WIDTH
        [5.4321],  # a single target
        [0.0, 0.0, 0.0],  # all zeros
        [],  # empty
    ],
)
def test_cumulative_half_line_edges_match_the_loop(targets):
    t = np.asarray(targets, dtype=float)
    got = _cumulative_half_line((0, 6, 13), t)
    assert got.shape == (3, t.size)
    for row, degree in zip(got, (0, 6, 13)):
        assert np.array_equal(row, cumulative_half_line_loop(degree, t))


def test_cumulative_half_line_matches_the_loop_on_the_norm_rules():
    for k in (0, 7, 20):
        for refine in (1, 2):
            t = np.sort(_norm_rule(k, refine)[0])
            got = _cumulative_half_line((2 * k,), t)[0]
            assert np.array_equal(got, cumulative_half_line_loop(2 * k, t))


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("k_max", [0, 1, 20, 40])
def test_norm_sq_quadrature_all_matches_the_per_k_routes(k_max, refine):
    # one rule for every k against each k's own rule
    odd, even = norm_sq_quadrature_all(k_max, refine)
    assert odd.shape == even.shape == (k_max + 1,)
    for k in range(k_max + 1):
        ref = norm_sq_odd_quadrature(k, refine)
        assert abs(odd[k] - ref) <= 1e-14 * ref, k
        ref = norm_sq_even_quadrature(k, refine)
        assert abs(even[k] - ref) <= 1e-14 * ref, k


@pytest.mark.parametrize("k_max", [0, 1, 7, 60])
def test_one_pass_routes_are_the_per_k_routes_bit_for_bit(k_max):
    # the same float operations in the same order as each k's own function
    routes = norm_sq_routes_all(k_max)
    pairs = ((routes.odd_recursive, norm_sq_odd_recursive),
             (routes.odd_expansion, norm_sq_odd_expansion),
             (routes.even_closed, norm_sq_even_closed),
             (routes.even_recursive, norm_sq_even_recursive),
             (routes.merge, merge_identity_check))
    for got, per_k in pairs:
        assert got.shape == (k_max + 1,)
        assert got.tolist() == [per_k(k) for k in range(k_max + 1)], per_k.__name__
    coeffs = odd_coefficients(k_max)
    for k in range(k_max + 1):
        row = np.zeros(2 * k_max + 1)
        for degree, c in odd_series(k):
            row[degree] = c
        assert np.array_equal(coeffs[k], row), k


def _cumulative_quadrature_all(k_max, refine):
    # the even rows by the cumulative half-line route, less the binomial
    # half-line integrals, and the odd rows from the per-k odd_series
    # coefficients
    nodes, weights = _norm_rule(k_max, refine)
    coeffs = np.zeros((k_max + 1, 2 * k_max + 1))
    for k in range(k_max + 1):
        for degree, c in odd_series(k):
            coeffs[k, degree] = c
    odd = coeffs @ hermite_functions(2 * k_max, nodes)
    order = np.argsort(nodes)
    even = np.empty_like(odd)
    even[:, order] = _cumulative_half_line(tuple(range(0, 2 * k_max + 1, 2)), nodes[order])
    even -= np.array([half_line_integral_even_binomial(k) for k in range(k_max + 1)])[:, None]
    return 2.0 * ((odd * odd) @ weights), 2.0 * ((even * even) @ weights)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("k_max", [20, 60, 200])
def test_ladder_even_rows_match_the_cumulative_route(k_max, refine):
    odd, even = norm_sq_quadrature_all(k_max, refine)
    odd_ref, even_ref = _cumulative_quadrature_all(k_max, refine)
    assert np.array_equal(odd, odd_ref)
    # the cumulative route's own error on these rules, against a 40-digit
    # evaluation of the same sums, is 1.2e-14 at k_max = 60 and 4.0e-14
    # (refine 1) and 7.2e-14 (refine 2) at 200; the ladder's, against the
    # exact norms, is below 3.2e-15 at 60 and 1.3e-14 at 200
    tol = 2e-14 if k_max <= 60 else 1e-13
    assert np.max(np.abs(even - even_ref)) <= tol


def test_ladder_even_rows_against_a_40_digit_evaluation():
    # the same rule sums, with F_k(t) = -integral_t^inf h_2k from the ladder
    # in 40-digit arithmetic, started at -pi^(1/4)/sqrt(2) erfc(t/sqrt(2))
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    k_max = 20
    nodes, weights = _norm_rule(k_max)
    t = [mp.mpf(float(x)) for x in nodes]
    h = [[mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2) for x in t]]
    h.append([mp.sqrt(2) * x * a for x, a in zip(t, h[0])])
    for n in range(1, 2 * k_max - 1):
        h.append([x * mp.sqrt(mp.mpf(2) / (n + 1)) * a - mp.sqrt(mp.mpf(n) / (n + 1)) * b
                  for x, a, b in zip(t, h[n], h[n - 1])])
    F = [-mp.pi ** mp.mpf(0.25) / mp.sqrt(2) * mp.erfc(x / mp.sqrt(2)) for x in t]
    _, even = norm_sq_quadrature_all(k_max)
    for k in range(k_max + 1):
        if k:
            F = [(mp.sqrt(mp.mpf(2 * k - 1) / 2) * f - a) / mp.sqrt(k)
                 for f, a in zip(F, h[2 * k - 1])]
        ref = 2 * mp.fsum(mp.mpf(float(w)) * f ** 2 for w, f in zip(weights, F))
        assert abs(even[k] - float(ref)) <= 5e-15, k


def test_binomial_half_line_integrals_against_40_digits():
    # the limits E_k(inf) that the ladder's erfc start subtracts implicitly:
    # the binomial closed form within a few ulps, the log-gamma one within 3e-13
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    for k in (0, 1, 2, 5, 13, 20, 60, 100, 200, 353):
        ref = mp.pi ** mp.mpf(0.25) / mp.sqrt(2) * mp.sqrt(mp.mpf(math.comb(2 * k, k)) / 4 ** k)
        assert abs(half_line_integral_even_binomial(k) - ref) <= 1e-15 * ref, k
        assert abs(half_line_integral_even(k) - ref) <= 3e-13 * ref, k
