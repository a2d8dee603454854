"""Antiderivatives of the oscillator eigenfunctions and their exact norms.

The odd-degree antiderivative telescopes into a finite combination of
even-degree eigenfunctions, so it evaluates in closed form and vanishes at
both infinities.  The even-degree case uses the signed integrand, whose
antiderivative is an even function computed by panelized cumulative
Gauss-Legendre on the half line and reflected.

Squared norms come three independent ways: a closed form (2 on odd degrees; a
partial binomial sum on even degrees), a one-step recursion, and direct
quadrature.  The harness holds all three to pairwise agreement.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .hermite import half_line_integral_even, hermite_functions
from .quadrature import gauss_legendre_panels, gauss_rule

SQRT2 = math.sqrt(2.0)

# cumulative quadrature: Gauss-Legendre nodes per segment, max segment width
_SEG_NODES = 12
_SEG_WIDTH = 0.25


def odd_series(k: int) -> tuple[tuple[int, float], ...]:
    """Exact expansion of the antiderivative of h_{2k+1} over even-degree modes,
    as (degree, coefficient) pairs.

    Unrolls the one-step reduction: each step trades the degree-(2m+1)
    integrand for a degree-2m term with coefficient -sqrt(2/(2m+1)) plus a
    sqrt(2m/(2m+1))-scaled copy of the next problem down, bottoming out at the
    pure Gaussian with total coefficient -sqrt(2) * prefix product.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    pairs = []
    prefix = 1.0
    for i in range(k):
        pairs.append((2 * k - 2 * i, -math.sqrt(2.0 / (2 * k + 1 - 2 * i)) * prefix))
        prefix *= math.sqrt((2 * k - 2 * i) / (2 * k + 1 - 2 * i))
    pairs.append((0, -SQRT2 * prefix))
    return tuple(pairs)


def _cumulative_half_line(degrees: tuple, targets: np.ndarray) -> np.ndarray:
    """integral_0^t h_d for each degree d and each t in targets (nonnegative,
    ascending), shape (len(degrees), len(targets)), from one Hermite table."""
    x_ref, w_ref = gauss_rule("legendre", _SEG_NODES)
    targets = np.asarray(targets, dtype=float)
    # each target t past the last edge prev adds n_sub equal panels up to t
    prev = np.maximum.accumulate(np.concatenate(([0.0], targets)))[:-1]
    gap = targets - prev
    n_sub = np.where(gap > 0.0, np.ceil(gap / _SEG_WIDTH), 0.0).astype(int)
    if not n_sub.any():
        return np.zeros((len(degrees), len(targets)))
    ends = np.cumsum(n_sub)
    owner = np.repeat(np.arange(len(targets)), n_sub)
    j = np.arange(1, ends[-1] + 1) - (ends - n_sub)[owner]
    edges = np.concatenate(([0.0], prev[owner] + gap[owner] * j / n_sub[owner]))
    edges[ends[n_sub > 0]] = targets[n_sub > 0]
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x_ref[None, :]).ravel()
    rows = hermite_functions(max(degrees), nodes)[list(degrees)]
    seg = (rows.reshape(len(degrees), -1, _SEG_NODES) * w_ref).sum(axis=2) * half
    cum = np.concatenate((np.zeros((len(degrees), 1)), np.cumsum(seg, axis=1)), axis=1)
    return cum[:, ends]


def norm_sq_odd_closed(k: int) -> float:
    """Squared norm of the odd antiderivative; identically 2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 2.0


def norm_sq_odd_recursive(k: int) -> float:
    """Iterates I_{2k+1} = 2/(2k+1) + (2k/(2k+1)) I_{2k-1} up from I_1 = 2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    val = 2.0
    for j in range(1, k + 1):
        val = 2.0 / (2 * j + 1) + (2 * j / (2 * j + 1)) * val
    return val


def norm_sq_odd_expansion(k: int) -> float:
    """Sum of squared expansion coefficients (orthonormality makes this the norm)."""
    return math.fsum(c * c for _, c in odd_series(k))


def partial_binomial_sum(k: int, numerator: float) -> float:
    """sum_{i=0}^k C(numerator, i) for numerator +1/2 or -1/2, terms built multiplicatively."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if numerator not in (0.5, -0.5):
        raise ValueError("numerator must be +1/2 or -1/2")
    term = 1.0
    total = 1.0
    for i in range(k):
        term *= (numerator - i) / (i + 1)
        total += term
    return total


def partial_binomial_sum_exact(k: int, numerator: Fraction) -> Fraction:
    """sum_{i<=k} C(a, i) exactly, a = p/q: each step moves the integer sum onto
    the next denominator q^(i+1) (i+1)! and adds C(a, i+1) there; normalized once."""
    a, k = Fraction(numerator), max(k, 0)
    p, q = a.numerator, a.denominator
    term = total = 1
    for i in range(k):
        term *= p - i * q
        total = total * q * (i + 1) + term
    return Fraction(total, q ** k * math.factorial(k))


def norm_sq_even_closed(k: int) -> float:
    """2(-1 + sqrt(2) * sum_{i<=k} C(1/2, i)); at most 3, tending to 2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 2.0 * (-1.0 + SQRT2 * partial_binomial_sum(k, 0.5))


def norm_sq_even_recursive(k: int) -> float:
    """Iterates the even half-norm recursion from V_0 = sqrt(2) - 1; returns 2 V_{2k}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    v = SQRT2 - 1.0
    for j in range(k):
        v = (
            -1.0 / (2 * j + 2)
            + (SQRT2 / (j + 1)) * partial_binomial_sum(j, -0.5)
            + ((2 * j + 1) / (2 * j + 2)) * v
        )
    return 2.0 * v


def _norm_rule(k_max: int, refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    T = math.sqrt(2.0 * (2 * k_max + 1)) + 10.0
    n_panels = int(math.ceil(2.0 * T)) * max(1, int(refine))
    rule = gauss_legendre_panels(0.0, T, n_panels, 16)
    return rule.nodes, rule.weights


def norm_sq_quadrature_all(k_max: int, refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even squared norms for k = 0..k_max by direct quadrature on the
    one rule _norm_rule(k_max, refine).

    The odd antiderivatives are one odd_series coefficient matrix times one
    Hermite table on the rule nodes; the even ones are one cumulative
    half-line pass over every even degree.  The per-k routes in the tests'
    oracles are its reference.
    """
    nodes, weights = _norm_rule(k_max, refine)
    coeffs = np.zeros((k_max + 1, 2 * k_max + 1))
    for k in range(k_max + 1):
        for degree, c in odd_series(k):
            coeffs[k, degree] = c
    odd = coeffs @ hermite_functions(2 * k_max, nodes)
    order = np.argsort(nodes)
    even = np.empty_like(odd)
    even[:, order] = _cumulative_half_line(tuple(range(0, 2 * k_max + 1, 2)), nodes[order])
    even -= np.array([half_line_integral_even(k) for k in range(k_max + 1)])[:, None]
    return 2.0 * ((odd * odd) @ weights), 2.0 * ((even * even) @ weights)


def merge_identity_check(k: int) -> float:
    """Residual of the partial-sum merge identity in floating point."""
    lhs = partial_binomial_sum(k, -0.5) / (k + 1) + (
        (2 * k + 1) / (2 * k + 2)
    ) * partial_binomial_sum(k, 0.5)
    rhs = partial_binomial_sum(k + 1, 0.5)
    return abs(lhs - rhs)


def merge_identity_exact(k: int) -> Fraction:
    """Same residual in exact rational arithmetic; zero when the identity holds."""
    half = Fraction(1, 2)
    lhs = partial_binomial_sum_exact(k, -half) / (k + 1) + Fraction(
        2 * k + 1, 2 * k + 2
    ) * partial_binomial_sum_exact(k, half)
    rhs = partial_binomial_sum_exact(k + 1, half)
    return lhs - rhs
