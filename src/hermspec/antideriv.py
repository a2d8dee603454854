"""Antiderivatives of the oscillator eigenfunctions and their exact norms.

The odd-degree antiderivative telescopes into a finite combination of
even-degree eigenfunctions, so it evaluates in closed form and vanishes at
both infinities.  The even-degree case uses the signed integrand, whose
antiderivative is an even function; on the half line the ladder relation
h_n' = sqrt(n/2) h_(n-1) - sqrt((n+1)/2) h_(n+1) telescopes it into odd modes
plus one erfc term, and it is reflected.

Squared norms come three independent ways: a closed form (2 on odd degrees; a
partial binomial sum on even degrees), a one-step recursion, and direct
quadrature.  The harness holds all three to pairwise agreement.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hermite import hermite_functions
from .quadrature import gauss_legendre_panels

SQRT2 = math.sqrt(2.0)


def odd_coefficients(k_max: int) -> np.ndarray:
    """Exact expansions of the antiderivatives of h_1, h_3, ..., h_(2 k_max + 1)
    over even-degree modes: row k holds, by degree, the coefficients of the
    antiderivative of h_(2k+1); shape (k_max + 1, 2 k_max + 1).

    Unrolls the one-step reduction: each step trades the degree-(2m+1)
    integrand for a degree-2m term with coefficient -sqrt(2/(2m+1)) plus a
    sqrt(2m/(2m+1))-scaled copy of the next problem down, bottoming out at the
    pure Gaussian with total coefficient -sqrt(2) * prefix product.  Step i
    writes the degree-2(k - i) entry of every row k >= i and multiplies that
    row's prefix by its factor.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    m = np.arange(k_max + 1)
    lead = -np.sqrt(2.0 / (2 * m + 1))
    factor = np.sqrt(2 * m / (2 * m + 1))
    prefix = np.ones(k_max + 1)
    out = np.zeros((k_max + 1, 2 * k_max + 1))
    for i in range(k_max + 1):
        down = m[: k_max + 1 - i]
        out[m[i:], 2 * down] = lead[down] * prefix[i:]
        prefix[i:] *= factor[down]
    return out


class NormRoutes(NamedTuple):
    """Every k <= k_max's squared norms by the closed forms, the recursions
    and the odd expansion, with the float residual of the merge identity.
    The odd closed form is the constant 2."""

    odd_recursive: np.ndarray
    odd_expansion: np.ndarray
    even_closed: np.ndarray
    even_recursive: np.ndarray
    merge: np.ndarray


def norm_sq_routes_all(k_max: int) -> NormRoutes:
    """The non-quadrature routes for k = 0..k_max from one running pass.

    S_i(+-1/2) = sum_{j<=i} C(+-1/2, j) runs with its last term built
    multiplicatively; the even closed form is 2(-1 + sqrt(2) S_k(1/2)), the
    even recursion V_(j+1) = -1/(2j+2) + sqrt(2)/(j+1) S_j(-1/2)
    + (2j+1)/(2j+2) V_j from V_0 = sqrt(2) - 1 gives 2 V_k, the odd one
    I_(2j+1) = 2/(2j+1) + (2j/(2j+1)) I_(2j-1) from I_1 = 2, and the merge
    residual is |S_k(-1/2)/(k+1) + (2k+1)/(2k+2) S_k(1/2) - S_(k+1)(1/2)|.
    The odd expansion sums each row of squared odd_coefficients.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    odd_rec, even_closed, even_rec, merge = (np.empty(k_max + 1) for _ in range(4))
    plus = minus = term_plus = term_minus = 1.0
    odd, even = 2.0, SQRT2 - 1.0
    for i in range(k_max + 1):
        odd_rec[i], even_rec[i] = odd, 2.0 * even
        even_closed[i] = 2.0 * (-1.0 + SQRT2 * plus)
        term_plus *= (0.5 - i) / (i + 1)
        term_minus *= (-0.5 - i) / (i + 1)
        merge[i] = abs(minus / (i + 1) + ((2 * i + 1) / (2 * i + 2)) * plus
                       - (plus + term_plus))
        even = (-1.0 / (2 * i + 2) + (SQRT2 / (i + 1)) * minus
                + ((2 * i + 1) / (2 * i + 2)) * even)
        j = i + 1
        odd = 2.0 / (2 * j + 1) + (2 * j / (2 * j + 1)) * odd
        plus += term_plus
        minus += term_minus
    sq = odd_coefficients(k_max) ** 2
    expansion = np.array([math.fsum(row) for row in sq.tolist()])
    return NormRoutes(odd_rec, expansion, even_closed, even_rec, merge)


def partial_binomial_numerators(k_max: int, p: int, q: int) -> list:
    """T_0..T_k_max, with sum_(i<=k) C(p/q, i) = T_k / (q^k k!) exactly: each step
    moves the integer sum onto the next denominator and adds the next term,
    T_(i+1) = (i+1) q T_i + prod_(j<=i) (p - j q)."""
    term = total = 1
    out = [total]
    for i in range(k_max):
        term *= p - i * q
        total = total * q * (i + 1) + term
        out.append(total)
    return out


def _norm_rule(k_max: int, refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    T = math.sqrt(2.0 * (2 * k_max + 1)) + 10.0
    n_panels = int(math.ceil(2.0 * T)) * max(1, int(refine))
    return gauss_legendre_panels(0.0, T, n_panels, 16)


def norm_sq_quadrature_all(k_max: int, refine: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even squared norms for k = 0..k_max by direct quadrature on the
    one rule _norm_rule(k_max, refine), from one Hermite table on its nodes.

    The odd antiderivatives are the odd_coefficients matrix times the
    table.  The even ones are F_k(t) = -integral_t^inf h_2k: the ladder
    h_(2k-1)' = sqrt((2k-1)/2) h_(2k-2) - sqrt(k) h_2k integrated from t to
    inf, where h_(2k-1) vanishes, gives
    F_k = (sqrt((2k-1)/2) F_(k-1) - h_(2k-1)) / sqrt(k) from
    F_0 = -pi^(1/4)/sqrt(2) erfc(t/sqrt(2)), with no half-line integral to
    subtract.  The per-k routes in the tests' oracles are its reference.
    """
    nodes, weights = _norm_rule(k_max, refine)
    table = hermite_functions(2 * k_max, nodes)
    odd = odd_coefficients(k_max) @ table
    even = np.empty_like(odd)
    even[0] = [math.erfc(t) for t in (nodes / SQRT2).tolist()]
    even[0] *= -math.pi ** 0.25 / SQRT2
    for k in range(1, k_max + 1):
        np.multiply(even[k - 1], math.sqrt((2 * k - 1) / 2.0), out=even[k])
        even[k] -= table[2 * k - 1]
        even[k] /= math.sqrt(k)
    return 2.0 * ((odd * odd) @ weights), 2.0 * ((even * even) @ weights)


def merge_identity_holds(k_max: int) -> list:
    """Whether S_k(-1/2)/(k+1) + (2k+1)/(2k+2) S_k(1/2) = S_(k+1)(1/2), each S_k(a)
    the partial sum sum_(i<=k) C(a, i), at every k <= k_max, in integers: over
    the common denominator 2^(k+1) (k+1)! it reads
    2 T_k(-1/2) + (2k+1) T_k(1/2) = T_(k+1)(1/2), with T the numerators of
    partial_binomial_numerators."""
    minus, plus = (partial_binomial_numerators(k_max + 1, p, 2) for p in (-1, 1))
    return [2 * minus[k] + (2 * k + 1) * plus[k] == plus[k + 1] for k in range(k_max + 1)]
