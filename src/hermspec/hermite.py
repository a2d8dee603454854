"""Hermite and Laguerre evaluation kernels.

Normalized Hermite functions h_k (unit L2 norm, Gaussian weight folded in) are
evaluated by the stable three-term recurrence, with a scaled start far out on
the line; no other routine evaluates Hermite polynomials in floats.  The
Laguerre polynomials L_k^alpha and their exponential integral come from
recurrences and product chains, the duplication residual from log-gamma, and
the Laguerre-Hermite bridge and the binomial reflection are decided on exact
integers.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
PI_Q = math.pi ** -0.25  # pi^(-1/4), the h_0 amplitude

# past this radius the recurrence starts from h_0 = PI_Q (_scaled_rows): the
# plain start PI_Q e^(-t^2/2) leaves the normal float range past t = 37.6, and
# inside it the plain route is the more accurate (no e^(log scale) rounding)
SCALED_START_RADIUS = 37.0
_RESCALE = 2.0 ** 500


def hermite_functions(k_max: int, t) -> np.ndarray:
    """All normalized Hermite functions h_0..h_k_max at t, shape (k_max+1,) + t.shape.

    Three-term recurrence h_{k+1} = t sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1};
    every value stays O(1), no overflow at any degree.  Each step runs in
    place, in the order of that expression, so no temporary is allocated.
    Where |t| > SCALED_START_RADIUS the columns are then rebuilt by
    _scaled_rows; every other column is the plain recurrence's.
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
    far = np.flatnonzero(np.abs(x) > SCALED_START_RADIUS)
    if far.size:
        rows[:, far] = _scaled_rows(k_max, x[far])
    return out


def _scaled_rows(k_max: int, x: np.ndarray) -> np.ndarray:
    """hermite_functions' rows at the points x, by the same recurrence from
    h_0 = PI_Q, with e^(-x^2/2) carried as a per-point log scale: a point's
    pair of rows that passes 2^500 is multiplied by 2^-500, its log scale
    raised by 500 log 2, and each row is stored times e^(log scale)."""
    out = np.empty((k_max + 1, x.size))
    log_scale = -0.5 * x * x
    prev, cur = np.zeros_like(x), np.full_like(x, PI_Q)
    out[0] = cur * np.exp(log_scale)
    for k in range(k_max):
        prev, cur = cur, x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1.0)) * prev
        big = np.abs(cur) > _RESCALE
        if big.any():
            prev[big] /= _RESCALE
            cur[big] /= _RESCALE
            log_scale[big] += math.log(_RESCALE)
        out[k + 1] = cur * np.exp(log_scale)
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


def laguerre_hermite_bridge_residual(k: int, drop_factor_two: bool = False) -> float:
    """Largest coefficient residual |a - b| / (1 + |a|) of the bridge
    H_(2k+1)(t) = (-1)^k 2^(2k+1) k! t L_k^(1/2)(t^2), in integers: a runs over
    H_(2k+1)'s coefficients, from H_(j+1) = 2t H_j - 2j H_(j-1), and b over
    (-1)^k 2^(k+1) t P_k(t^2)'s, where P_j = 2^j j! L_j^(1/2) obeys
    P_(j+1) = (4j+3-2x) P_j - 2j(2j+1) P_(j-1).  Exactly 0.0 when the identity
    holds.  With drop_factor_two the deliberately wrong prefactor 2^(2k) is
    used; the residual then sits near 1/2 (6/13 at k = 1), which is the
    negative control for the verification harness.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    # coefficient lists, lowest power first; each step pads to the next degree
    h_prev, h = [0], [1]
    for j in range(2 * k + 1):
        h_prev, h = h, [2 * a - 2 * j * b for a, b in zip([0] + h, h_prev + [0, 0])]
    p_prev, p = [0], [1]
    for j in range(k):
        p_prev, p = p, [(4 * j + 3) * a - 2 * b - 2 * j * (2 * j + 1) * c
                        for a, b, c in zip(p + [0], [0] + p, p_prev + [0, 0])]
    scale = (-1) ** k * 2 ** (k if drop_factor_two else k + 1)
    rhs = [0] * len(h)
    rhs[1::2] = [scale * c for c in p]
    return max(abs(a - b) / (1 + abs(a)) for a, b in zip(h, rhs))
