"""Hermite and Laguerre evaluation kernels.

Normalized Hermite functions h_k (unit L2 norm, Gaussian weight folded in) are
evaluated by the stable three-term recurrence; the classical polynomials H_k and
L_k^alpha and the closed-form integrals built from them live here too.
All closed forms are evaluated in log-gamma space so nothing overflows below
degree a few hundred.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SQRT2 = math.sqrt(2.0)
PI_Q = math.pi ** -0.25  # pi^(-1/4), the h_0 amplitude

# past this radius (about 37.6) the recurrence's start value h_0 = PI_Q e^(-t^2/2)
# leaves the normal float range, and every row built from it loses precision
UNDERFLOW_RADIUS = math.sqrt(2.0 * math.log(PI_Q / sys.float_info.min))


def hermite_functions(k_max: int, t) -> np.ndarray:
    """All normalized Hermite functions h_0..h_k_max at t, shape (k_max+1,) + t.shape.

    Three-term recurrence h_{k+1} = t sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1};
    every value stays O(1), no overflow at any degree.  Each step runs in
    place, in the order of that expression, so no temporary is allocated.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    t = np.asarray(t, dtype=float)
    out = np.empty((k_max + 1,) + t.shape)
    # one row per degree, so scalar and n-d t share the loop
    rows, x = out.reshape(k_max + 1, -1), t.ravel()
    rows[0] = PI_Q * np.exp(-0.5 * x * x)
    if k_max >= 1:
        rows[1] = SQRT2 * x * rows[0]
    lower = np.empty_like(x)
    for k in range(1, k_max):
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=rows[k + 1])
        rows[k + 1] *= rows[k]
        np.multiply(math.sqrt(k / (k + 1.0)), rows[k - 1], out=lower)
        rows[k + 1] -= lower
    return out


def eval_hermite_poly(k: int, t) -> np.ndarray:
    """Classical Hermite polynomial H_k(t) from its explicit alternating sum.

    Coefficients k!/(i!(k-2i)!) (-1)^i 2^(k-2i) are exact integers; fine to
    degree ~40 in float64 evaluation.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for i in range(k // 2 + 1):
        coef = (
            (-1) ** i
            * math.factorial(k)
            // (math.factorial(i) * math.factorial(k - 2 * i))
            * 2 ** (k - 2 * i)
        )
        out = out + coef * t ** (k - 2 * i)
    return out


def eval_laguerre(k: int, alpha: float, u) -> np.ndarray:
    """Generalized Laguerre polynomial L_k^alpha(u) by the standard recurrence;
    alpha may be an array broadcasting against u, one recurrence for them all."""
    if k < 0:
        raise ValueError("k must be >= 0")
    u = np.asarray(u, dtype=float)
    prev = np.ones(u.shape)
    if k == 0:
        return prev
    cur = 1.0 + alpha - u
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - u) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def laguerre_exp_integral(k: int, alpha: float, beta: float) -> float:
    """Closed form for the Laguerre exponential integral, degree k >= 0, type
    exponent alpha > -1 and decay rate beta > 0.

    integral_0^inf L_k^alpha(u) e^(-beta u) du
        = sum_{i=0}^k C(alpha+i-1, i) (beta-1)^(k-i) / beta^(k-i+1).
    The i-th coefficient obeys term_i = term_{i-1} (alpha+i-1)/i, so the sum is
    a short stable product chain. At beta = 1 only i = k survives.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    if alpha <= -1.0:
        raise ValueError("type exponent must be > -1")
    if beta <= 0.0:
        raise ValueError("decay rate must be > 0")
    term = 1.0  # C(alpha-1, 0)
    total = 0.0
    for i in range(k + 1):
        if i > 0:
            term *= (alpha + i - 1) / i
        total += term * (beta - 1.0) ** (k - i) / beta ** (k - i + 1)
    return total


def gamma_duplication_residual(z: float) -> float:
    """Relative residual of Gamma(z + 1/2) = 2^(1-2z) sqrt(pi) Gamma(2z)/Gamma(z).

    Evaluated in log space; residual is |exp(log lhs - log rhs) - 1|.
    """
    if z <= 0:
        raise ValueError("z must be > 0")
    lhs = math.lgamma(z + 0.5)
    rhs = (1.0 - 2.0 * z) * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(
        2.0 * z
    ) - math.lgamma(z)
    return abs(math.expm1(lhs - rhs))


def binom_reflection_holds(p: int, q: int, k: int) -> bool:
    """Whether C(a, k) = (-1)^k C(k - a - 1, k) at a = p/q, in integers: k - a - 1
    is ((k - 1) q - p)/q, so both sides lie over q^k k!, and the identity holds
    iff their numerators, each a product prod_(j<k) (top - j q), agree."""
    lhs, rhs = (math.prod(top - j * q for j in range(k)) for top in (p, (k - 1) * q - p))
    return lhs == (-1) ** k * rhs


def verify_laguerre_hermite_relation(
    k: int, t_samples, drop_factor_two: bool = False
) -> float:
    """Max residual of H_{2k+1}(t) = (-1)^k 2^(2k+1) k! L_k^(1/2)(t^2) t over samples.

    Residual is |lhs - rhs| / (1 + |lhs|). With drop_factor_two the deliberately
    wrong prefactor 2^(2k) is used; the residual then sits near 1/2, which is the
    negative control for the verification harness.
    """
    t = np.asarray(t_samples, dtype=float)
    lhs = eval_hermite_poly(2 * k + 1, t)
    power = 2 * k if drop_factor_two else 2 * k + 1
    rhs = (-1.0) ** k * 2.0 ** power * math.factorial(k) * eval_laguerre(
        k, 0.5, t * t
    ) * t
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
