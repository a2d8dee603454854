"""Reference routes that no run calls, kept as the tests' oracles.

Each re-derives a quantity that hermspec computes by a faster route, so the
tests hold the two against each other.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from hermspec import hermite_functions
from hermspec.antideriv import _norm_rule, odd_coefficients
from hermspec.errors import CapabilityError
from hermspec.hermite import eval_laguerre
from hermspec.quadrature import (
    MAX_LAGUERRE_NODES,
    _christoffel,
    _golub_welsch,
    gauss_rule,
    radial_rule_panels,
)
from hermspec.spectral import (
    _collapse_nodes,
    _collapse_triples,
    _indices_upto,
    _level_indices,
    _mode_matrix,
    _quadratic_rows,
    _sobolev_panels,
    _weight_axes,
    check_admissible,
    enumerate_multiindices,
    poch,
    sobolev_twisted_form,
)

TWO_PI = 2.0 * math.pi

# (-i)^k for k mod 4: the transform's phase on a mode of total degree k
_QUARTER_PHASES = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


class ToleranceError(ArithmeticError):
    """A computed quantity failed its internal accuracy gate (rule doubling moved the value)."""


def kernel_diagonal(n: int, k: int, points) -> np.ndarray:
    """Phi_k(x, x) for each row of points (N, n), via a level value matrix:
    the oracle of spectral.kernel_diagonals, one level at a time."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    tabs = [hermite_functions(k, pts[:, c]) for c in range(n)]
    B = _mode_matrix(tabs, np.array(enumerate_multiindices(n, k)))
    return (B * B).sum(axis=0)


def kernel_diagonal_ratio(n: int, k: int, grid) -> float:
    """max over grid of |Phi_k(x,x)| / k^(n/2 - 1); the ratio the kernel bound controls."""
    if k < 1:
        raise ValueError("k must be >= 1")
    vals = np.abs(kernel_diagonal(n, k, grid))
    return float(vals.max() / k ** (n / 2.0 - 1.0))


def radial_rule_absorbing(dim: int, delta: float, m: int) -> tuple:
    """Nodes and weights of the absorbing rule for integral_0^inf G(r) r^(dim-1-2*delta) dr, Gaussian-decaying G.

    Substituting s = r^2 gives (1/2) integral q(s) s^alpha e^(-s) ds with
    alpha = (dim - 2*delta - 2)/2 and q(s) = G(sqrt(s)) e^(+s); generalized
    Gauss-Laguerre handles s^alpha e^(-s) exactly, so the rule is exact whenever
    G is (even polynomial of r-degree <= 2(2m-1)) * e^(-r^2).  Requires
    alpha > -1, the same admissibility window as the integral itself.
    """
    exponent = dim - 1 - 2.0 * delta
    alpha = (exponent - 1.0) / 2.0
    if alpha <= -1.0:
        raise ValueError(
            f"weight exponent {exponent:g} is not integrable at r=0 "
            f"(dim={dim}, delta={delta:g})"
        )
    if m > MAX_LAGUERRE_NODES:
        raise ValueError(
            f"absorbing rule limited to {MAX_LAGUERRE_NODES} nodes (e^s weight overflow)"
        )
    s, lam = gauss_rule("laguerre", m, alpha)
    return np.sqrt(s), 0.5 * lam * np.exp(s)


def _even_count(x: float) -> int:
    m = int(math.ceil(x))
    return m + (m % 2)


def _radial_nodes(k: int, scale: float) -> int:
    # absorbing-rule node count of the level-k grid at a rule scale
    return max(3, int(math.ceil((k / 2.0 + 3.0) * scale)))


def _level_grid(n: int, k: int, delta: float, wd: tuple, scale: float, divide: bool):
    """Product grid and weights for one level integral with weight on axes wd.

    Every route uses the absorbing radial rule, which is exact on polynomial
    levels: the antipodally symmetric direction set cancels odd-in-r parts, so
    only integer powers of r^2 reach the Laguerre nodes.  A one-axis weight
    with delta >= 1/2 divides the state by the coordinate first, shifting the
    weight exponent by +2 (hence the delta - 1 below).
    """
    dw = len(wd)
    m_r = _radial_nodes(k, scale)
    if dw == 1:
        radial = radial_rule_absorbing(1, delta - 1.0 if divide else delta, m_r)
        dirs = np.array([[1.0], [-1.0]])
        dwts = np.array([1.0, 1.0])
    elif dw == 2:
        radial = radial_rule_absorbing(2, delta, m_r)
        dirs, dwts = circle_directions(_even_count((2 * k + 4) * scale))
    elif dw == 3:
        radial = radial_rule_absorbing(3, delta, m_r)
        dirs, dwts = sphere_directions(
            max(2, int(math.ceil((k + 2) * scale))), _even_count((2 * k + 4) * scale)
        )
    else:
        raise ValueError("weighted-axis count must be 1, 2, or 3")
    r, w = radial
    base_pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dw)
    base_w = (w[:, None] * dwts[None, :]).ravel()
    return base_pts, base_w


def _tensor_free_axes(base_pts, base_w, n, wd, k, scale):
    """Extend the weighted-axes grid over the free axes with compensated Gauss-Hermite."""
    free = [c for c in range(n) if c not in wd]
    pts = np.zeros((base_pts.shape[0], n))
    for j, c in enumerate(wd):
        pts[:, c] = base_pts[:, j]
    w = base_w
    for c in free:
        m_h = max(4, int(math.ceil((k + 3) * scale)))
        nodes, comp = gauss_rule("hermite", m_h)
        n_old = pts.shape[0]
        pts = np.repeat(pts, m_h, axis=0)
        pts[:, c] = np.tile(nodes, n_old)
        w = np.repeat(w, m_h) * np.tile(comp, n_old)
    return pts, w


def grid_level_form(n, k, delta, wd, scale, divide, indices) -> np.ndarray:
    """The weighted gram of one index set of level <= k on the product grid of
    level k: the absorbing radial rule, sphere or circle directions and
    compensated Gauss-Hermite free axes, each mode divided by x_w first on the
    one-axis divide path (delta >= 1/2 on odd modes).  The oracle of
    level_form."""
    base_pts, base_w = _level_grid(n, k, delta, wd, scale, divide)
    pts, w = _tensor_free_axes(base_pts, base_w, n, wd, k, scale)
    idx = np.array(indices)
    B = _mode_matrix([hermite_functions(int(idx[:, c].max()), pts[:, c]) for c in range(n)], idx)
    if divide:
        B /= pts[:, wd[0]]
    return (B * w) @ B.T


def level_gram(
    n: int,
    k: int,
    weight_power: float,
    rule_scale: float = 1.0,
    weight_dims=None,
) -> np.ndarray:
    """Gram matrix of the level-k eigenfunctions under a power-law weight:
    the oracle of spectral.level_tops for the whole level spectrum.

    Entry (alpha, beta) is integral Phi_alpha Phi_beta w(x)^(-1) dx where
    w = (sum of squares over weight_dims)^(weight_power/2); indices ordered as
    enumerate_multiindices.  Default weight_dims is all n axes.  The full
    level mixes parities, so integrability demands weight_power below the
    weighted-axis count; exact by the absorbing radial rule.
    """
    if n not in (2, 3):
        raise ValueError("gram assembly supports n = 2 or 3")
    wd = _weight_axes(n, weight_dims)
    if weight_power < 0:
        raise ValueError("weight_power must be >= 0")
    if weight_power >= len(wd):
        raise ValueError("weight_power must stay below the weighted-axis count")
    M = grid_level_form(n, k, weight_power / 2.0, wd, rule_scale, False,
                        enumerate_multiindices(n, k))
    return 0.5 * (M + M.T)


def _radial_mode_exponents(dw: int, j: int, l: int, weight_power: float) -> tuple:
    if dw < 1 or j < 0 or l < 0 or (dw == 1 and l > 1):
        raise ValueError(f"no radial mode (j={j}, l={l}) in {dw} dimensions")
    a = l + dw / 2.0 - 1.0
    mu = weight_power / 2.0
    if weight_power < 0 or a - mu <= -1.0:
        raise ValueError(
            f"weight power {weight_power:g} is not integrable against the mode "
            f"(j={j}, l={l}) in {dw} dimensions"
        )
    return a, mu


def radial_eigenvalue(dw: int, j: int, l: int, weight_power: float) -> float:
    """Eigenvalue of the |x|^(-weight_power) level gram on the radial mode (j, l),
    one mode at a time: the oracle of spectral.level_spectrum's exact half.

    With mu = weight_power/2, a = l + dw/2 - 1 and s = r^2 it is the Laguerre ratio
    int s^(a-mu) e^-s L_j^(a)(s)^2 ds / int s^a e^-s L_j^(a)(s)^2 ds, which the
    expansion of L_j^(a) over the L_i^(a-mu) turns into a sum of positive terms
        T_i = C(mu+j-i-1, j-i)^2 Gamma(a-mu+i+1)/i! * j!/Gamma(j+a+1),  i = 0..j.
    T_j = 1/poch(a-mu+j+1, mu) and each lower term is the next one times a
    rational factor.
    """
    a, mu = _radial_mode_exponents(dw, j, l, weight_power)
    b = a - mu
    i = np.arange(j, dtype=float)
    m = j - i
    factors = ((mu + m - 1.0) / m) ** 2 * (i + 1.0) / (b + i + 1.0)
    ratios = np.append(np.cumprod(factors[::-1])[::-1], 1.0)
    return math.fsum(ratios / poch(b + j + 1.0, mu))


def radial_eigenvalue_quadrature(dw: int, j: int, l: int, weight_power: float) -> float:
    """The same eigenvalue by (j+1)-node generalized Gauss-Laguerre in s = r^2,
    one rule per mode: the oracle of spectral.level_spectrum's quadrature half.

    The rule for s^(a-mu) e^-s is exact on the degree-2j integrand L_j^(a)^2;
    the denominator is its closed form Gamma(j+a+1)/j!.
    """
    a, mu = _radial_mode_exponents(dw, j, l, weight_power)
    if j + 1 > MAX_LAGUERRE_NODES:
        raise CapabilityError(
            f"Gauss-Laguerre route limited to {MAX_LAGUERRE_NODES} nodes (j={j})"
        )
    s, w = gauss_rule("laguerre", j + 1, a - mu)
    vals = eval_laguerre(j, a, s)
    return math.fsum(w * vals * vals) * math.exp(math.lgamma(j + 1) - math.lgamma(j + a + 1))


@dataclass(frozen=True)
class LevelTop:
    """Top eigenvalue of a weighted level gram and a radial mode attaining it.

    The mode is r^l L_j^(a)(r^2) e^(-r^2/2) times a degree-l spherical
    harmonic on the weighted axes (a = l + dw/2 - 1), at level 2j + l there.
    """

    value: float
    j: int
    l: int


def level_top(n: int, k: int, weight_power: float, weight_dims=None) -> LevelTop:
    """Top eigenvalue of the level-k gram under |x_w|^(-weight_power), one
    radial_eigenvalue per mode with no node cap: the per-level oracle of
    spectral.level_tops' exact tops.

    With free axes, level k splits into (weighted level k_w) x (free level
    k - k_w) and the top is the largest weighted top over k_w <= k; the first
    maximum, over k_w and then l ascending, names the mode.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    dw = len(_weight_axes(n, weight_dims))
    check_admissible(dw, weight_power / 2.0)
    # a dw-dimensional level k_w holds the modes 2j + l = k_w; in 1D only l = k_w mod 2
    modes = [((kw - l) // 2, l) for kw in ((k,) if dw == n else range(k + 1))
             for l in ((kw % 2,) if dw == 1 else range(kw % 2, kw + 1, 2))]
    return max((LevelTop(radial_eigenvalue(dw, j, l, weight_power), j, l) for j, l in modes),
               key=lambda t: t.value)


# ---------------------------------------------------------------------------
# the Gamma-identity tau route: every weighted level form as one Gauss-Jacobi
# sum in tau of per-axis Hermite matrices.  spectral's exact routes replaced
# it for odd_identity and even_3d; time_avg_levels still reads it


def _jacobi_poly(n: int, alpha: float, beta: float, x: np.ndarray) -> tuple:
    """(P_(n-1)^(alpha,beta) / C(n-1+alpha, n-1), P_n^(alpha,beta) / C(n+alpha, n))(x),
    n >= 1, in one pass of the difference form of the recurrence in x - 1."""
    xm1 = x - 1
    d = (alpha + beta + 2) * xm1 / (2 * (alpha + 1))
    prev, p = np.ones_like(x), d + 1
    for k in range(1, n):
        c = 2 * k + alpha + beta
        d = (c * (c + 1) * (c + 2) * xm1 * p + 2 * k * (k + beta) * (c + 2) * d) / (
            2 * (k + alpha + 1) * (k + alpha + beta + 1) * c)
        prev, p = p, p + d
    return prev, p


@lru_cache(maxsize=512)
def jacobi_rule(m: int, alpha: float, beta: float) -> tuple:
    """Nodes (ascending) and weights of the m-point Gauss-Jacobi rule for
    (1-x)^alpha (1+x)^beta on [-1, 1] (alpha, beta > -1), memoized, read-only.
    Golub-Welsch as quadrature.gauss_rule, polished by one Newton step; the
    weights are 1/((1-x^2) P_m'^2) at the polished nodes, scaled to the mass."""
    if m < 1:
        raise ValueError("node count must be >= 1")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi exponents must be > -1")
    k = np.arange(1, m, dtype=float)
    s = alpha + beta
    mass = 2.0 ** (s + 1) * math.exp(
        math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(s + 2))
    # the monic recurrence, with t = 2k + s; off the diagonal the factor
    # (k + s)/(t - 1) is 1 at k = 1
    t = 2 * np.arange(m, dtype=float) + s
    diag = np.append((beta - alpha) / (s + 2), (beta - alpha) * s / (t[1:] * (t[1:] + 2)))
    t = t[1:]
    off = 2 / t * np.sqrt(k * (k + alpha) * (k + beta) / (t + 1)
                          * np.divide(k + s, t - 1, out=np.ones(m - 1), where=k > 1))

    def slope(x):
        # (2m+s)(1-x^2) P_m' = m((a-b) - (2m+s) x) P_m + 2m(m+b) P_(m-1)
        p, y = _jacobi_poly(m, alpha, beta, x)
        return y, (m * ((alpha - beta) - (2 * m + s) * x) * y + 2 * m * (m + beta) * p) / (
            (2 * m + s) * (1 - x * x))

    x = _golub_welsch(diag, off)
    y, dy = slope(x)
    x = x - y / dy
    # 1/((1 - x^2) P_m'^2) at the polished nodes: near +-1 it moves far
    # less with a node's rounding than 1/(P_(m-1) P_m') does
    dy = slope(x)[1]
    w = _christoffel((1 - x * x) * dy, dy)
    w = w * (mass / w.sum())
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _tau_nodes(k: int, scale: float) -> int:
    # node count of the level-k tau rule at a rule scale, floored at 2; from
    # k // 2 + 1 nodes it is exact on every level up to k
    return max(2, int(math.ceil((k // 2 + 2) * scale)))


# entries per block of tau nodes in the form accumulation: a block's Hermite
# tables, tau matrices and gathered products stay near 8 MB each
_TAU_BLOCK = 1 << 20


def _tau_matrices(degs: np.ndarray, tau: np.ndarray, odd: bool) -> np.ndarray:
    """M[q, i, j] = tau_q^(-1/2) integral h_a h_b e^(-s_q x^2) dx, a = degs[i],
    b = degs[j], s_q = 1/tau_q - 1 (divided by tau_q when odd): in
    y = x / sqrt(tau_q) a polynomial of degree a + b times e^(-y^2), exact on
    the (max(degs) + 1)-node Gauss-Hermite rule at sqrt(tau_q) y."""
    m = int(degs[-1]) + 1
    y, comp = gauss_rule("hermite", m)
    w = comp * np.exp(-np.outer(1.0 - tau, y * y))
    if odd:
        w /= tau[:, None]
    # (len(tau), len(degs), m): every degree at every tau's nodes
    T = hermite_functions(m - 1, np.outer(np.sqrt(tau), y))[degs].transpose(1, 0, 2)
    return (T * w[:, None, :]) @ T.transpose(0, 2, 1)


def _stacked_product(mats: list, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """spectral._gathered_product over a leading stack of matrices (one per
    tau node), shape (len(tau), len(rows), len(cols))."""
    def factor(c):
        mat = mats[c]
        flat = mat.reshape(mat.shape[0], -1)
        return np.take(flat, rows[:, c, None] * mat.shape[-1] + cols[:, c], axis=-1)

    out = factor(0)
    for c in range(1, len(mats)):
        out *= factor(c)
    return out


def level_form(n: int, k: int, delta: float, wd: tuple, scale: float,
               index_sets: tuple) -> tuple:
    """Weighted grams of index sets of level <= k, one per set, on the level-k rules.

    Entry (alpha, beta) of a set's form is integral Phi_alpha Phi_beta |x_w|^(-2 delta),
    and a level's functional is c^H G c.  By the Gamma identity
    |y|^(-2 delta) = Gamma(delta)^-1 integral s^(delta-1) e^(-s|y|^2) ds
    and tau = 1/(1+s),
        G[alpha, beta] = Gamma(delta)^-1 sum_q W_q prod_(c in wd) M_q[alpha_c, beta_c]
                         prod_(c not in wd) [alpha_c = beta_c],
    M the _tau_matrices of axis c: polynomials in tau of degree (a + b)/2, with
    a factor tau that is divided out on the p weighted axes where every index
    is odd.  So the tau rule is Gauss-Jacobi for (1 - tau)^(delta-1)
    tau^(dw/2 - delta - 1 + p), exact on every level up to k, and the sets of a
    scan share it; its exponents stay > -1 wherever check_admissible allows the
    weight, and delta = 0 is the identity.
    """
    subs = [np.array(indices) for indices in index_sets]
    idx = np.concatenate(subs)
    if idx.sum(axis=1).max() > k:
        raise ValueError(f"an index set reaches past its rules' level {k}")
    if delta == 0.0:
        return tuple(np.eye(len(sub)) for sub in subs)
    wd = list(wd)
    odd = (idx[:, wd] % 2 == 1).all(axis=0)
    a, b = delta - 1.0, len(wd) / 2.0 - delta - 1.0 + int(odd.sum())
    x, w = jacobi_rule(_tau_nodes(k, scale), a, b)
    tau = (1.0 + x) / 2.0
    w = w * (2.0 ** -(a + b + 1.0) / math.gamma(delta))
    # each weighted axis's degrees, and each set's rows as positions among them
    degs = [np.flatnonzero(np.bincount(idx[:, c])) for c in wd]
    pos = np.stack([np.searchsorted(d, idx[:, c]) for d, c in zip(degs, wd)], axis=1)
    rows = np.split(pos, np.cumsum([len(sub) for sub in subs])[:-1])
    forms = [np.zeros((len(sub), len(sub))) for sub in subs]
    per_node = max(max(len(sub) for sub in subs), int(idx.max()) + 1) ** 2
    step = max(1, _TAU_BLOCK // per_node)
    for lo in range(0, tau.size, step):
        mats = [_tau_matrices(d, tau[lo : lo + step], o) for d, o in zip(degs, odd)]
        wq = w[lo : lo + step]
        for G, r in zip(forms, rows):
            G += (wq @ _stacked_product(mats, r, r).reshape(wq.size, -1)).reshape(G.shape)
    free = [c for c in range(n) if c not in wd]
    if free:
        for G, sub in zip(forms, subs):
            G *= (sub[:, None, free] == sub[None, :, free]).all(axis=-1)
    return tuple(forms)


# ---------------------------------------------------------------------------
# the per-k antiderivative norms and the cumulative half-line quadrature that
# antideriv's one-pass routes and Hermite ladder replaced

SQRT2 = math.sqrt(2.0)

# cumulative quadrature: Gauss-Legendre nodes per segment, max segment width
_SEG_NODES = 12
_SEG_WIDTH = 0.25


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


def odd_series(k: int) -> tuple[tuple[int, float], ...]:
    """Exact expansion of the antiderivative of h_{2k+1} over even-degree modes,
    as (degree, coefficient) pairs: the per-k oracle of antideriv.odd_coefficients.

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


def merge_identity_check(k: int) -> float:
    """Residual of the partial-sum merge identity in floating point."""
    lhs = partial_binomial_sum(k, -0.5) / (k + 1) + (
        (2 * k + 1) / (2 * k + 2)
    ) * partial_binomial_sum(k, 0.5)
    rhs = partial_binomial_sum(k + 1, 0.5)
    return abs(lhs - rhs)


# the exact-rational binomial identities: the reference for the integer
# predicates hermite.binom_reflection_holds and antideriv.merge_identity_holds


def binom_general_exact(a: Fraction, i: int) -> Fraction:
    """C(a, i) exactly: prod_(j<i) (p - j q) / (q^i i!) for a = p/q, normalized once."""
    a, i = Fraction(a), max(i, 0)
    num = 1
    for j in range(i):
        num *= a.numerator - j * a.denominator
    return Fraction(num, a.denominator ** i * math.factorial(i))


def binom_reflection_residual(alpha: Fraction, k: int) -> Fraction:
    """Exact residual of C(alpha, k) = C(k - alpha - 1, k) (-1)^k in rationals."""
    lhs = binom_general_exact(Fraction(alpha), k)
    rhs = binom_general_exact(Fraction(k) - Fraction(alpha) - 1, k) * (-1) ** k
    return abs(lhs - rhs)


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


def merge_identity_exact(k: int) -> Fraction:
    """Residual of the partial-sum merge identity in exact rational arithmetic;
    zero when the identity holds."""
    half = Fraction(1, 2)
    lhs = partial_binomial_sum_exact(k, -half) / (k + 1) + Fraction(
        2 * k + 1, 2 * k + 2
    ) * partial_binomial_sum_exact(k, half)
    rhs = partial_binomial_sum_exact(k + 1, half)
    return lhs - rhs


def hermite_poly(k: int, t) -> np.ndarray:
    """Classical Hermite polynomial H_k(t) from its explicit alternating sum,
    with exact integer coefficients k!/(i!(k-2i)!) (-1)^i 2^(k-2i); fine to
    degree ~40 in float64 evaluation."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for i in range(k // 2 + 1):
        coef = (-1) ** i * math.factorial(k) // (math.factorial(i) * math.factorial(k - 2 * i))
        out = out + coef * 2 ** (k - 2 * i) * t ** (k - 2 * i)
    return out


def half_line_integral_even(k: int) -> float:
    """integral_0^inf h_{2k}(t) dt in closed form.

    Equals 2^k Gamma(k+1/2) / (sqrt(2) sqrt((2k)! sqrt(pi))); via the duplication
    formula this is 2^(1/2-k) pi^(1/4) Gamma(2k)/(Gamma(k) sqrt((2k)!)), whose
    k = 0 reading is the limit Gamma(2k)/Gamma(k) -> 1/2. The Gamma(k+1/2) form
    needs no special case.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lg = (
        k * math.log(2.0)
        + math.lgamma(k + 0.5)
        - 0.5 * math.log(2.0)
        - 0.5 * (math.lgamma(2 * k + 1) + 0.5 * math.log(math.pi))
    )
    return math.exp(lg)


def half_line_integral_even_binomial(k: int) -> float:
    """integral_0^inf h_{2k}(t) dt as pi^(1/4)/sqrt(2) sqrt(C(2k, k) / 4^k).

    The closed form of half_line_integral_even, with Gamma(k+1/2) written as
    (2k)! sqrt(pi) / (4^k k!): the central binomial ratio is rounded once from
    its exact rational, so the value stays within a few ulps at every k, where
    the log-gamma evaluation drifts to 1e-13.  It is also the t -> inf limit of
    the even ladder, E_k(inf) = sqrt((2k-1)/(2k)) E_(k-1)(inf).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ratio = Fraction(math.comb(2 * k, k), 4 ** k)
    return math.pi ** 0.25 / math.sqrt(2.0) * math.sqrt(ratio)


def x_odd(k: int, x) -> np.ndarray:
    """Antiderivative of h_{2k+1}, vanishing at both infinities, via its
    expansion: row k of antideriv.odd_coefficients, summed from the top degree."""
    t = np.asarray(x, dtype=float)
    h = hermite_functions(2 * k, t)
    coeffs = odd_coefficients(k)[k]
    out = np.zeros_like(t)
    for degree in range(2 * k, -1, -2):
        out += coeffs[degree] * h[degree]
    return out


def x_even(k: int, x) -> np.ndarray:
    """Antiderivative of sign(t) h_{2k}(t), an even function vanishing at infinity.

    Equals integral_0^|x| h_{2k} minus the half-line integral; computed by
    cumulative panel quadrature on the half line and reflected, with the
    half-line integral from its binomial closed form.
    """
    t = np.asarray(x, dtype=float)
    flat = np.abs(t).ravel()
    order = np.argsort(flat)
    sorted_vals = _cumulative_half_line((2 * k,), flat[order])[0]
    out = np.empty_like(flat)
    out[order] = sorted_vals
    out -= half_line_integral_even_binomial(k)
    return out.reshape(t.shape)


def norm_sq_odd_quadrature(k: int, refine: int = 1) -> float:
    """Direct quadrature of the squared odd antiderivative over the line, on
    its own rule: the per-k oracle of antideriv.norm_sq_quadrature_all."""
    nodes, weights = _norm_rule(k, refine)
    vals = x_odd(k, nodes)
    return 2.0 * float(np.dot(weights, vals * vals))


def norm_sq_even_quadrature(k: int, refine: int = 1) -> float:
    """Direct quadrature of the squared even antiderivative over the line, on
    its own rule: the per-k oracle of antideriv.norm_sq_quadrature_all."""
    nodes, weights = _norm_rule(k, refine)
    vals = x_even(k, nodes)
    return 2.0 * float(np.dot(weights, vals * vals))


def x_even_at_zero_sq(k: int) -> float:
    """Squared value at the origin: one quarter of the squared full-line integral."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 0.25 * (2.0 * half_line_integral_even(k)) ** 2


def x_even_at_zero_normalized(k: int) -> float:
    """x_even_at_zero_sq(k) * sqrt(2k), the quantity that stays bounded in k."""
    if k < 1:
        raise ValueError("k must be >= 1 for the normalized bound")
    return x_even_at_zero_sq(k) * math.sqrt(2.0 * k)


def collapse_trace_norm(state, rule_scale: float = 1.0) -> float:
    """Time average of the squared 9D solution restricted to the triple diagonal,
    one state at a time: the oracle of spectral._collapse_forms.

    Groups coefficients by eigenvalue, restricts each group to (x, x, x) with
    x in R^3, and integrates by a sqrt(3)-rescaled compensated Gauss-Hermite
    tensor rule matching the e^(-3|x|^2) density of the restriction.  Axis j
    of R^3 carries the 9D axes j, j+3 and j+6, so a mode restricts to a
    product of three 1D tables, one per triple (a_j, a_(j+3), a_(j+6)); each
    level is a dense tensor over its triples, contracted axis by axis.
    """
    if state.n != 9:
        raise ValueError("collapse restriction is defined for n = 9")
    if state.k_max > 4:
        raise CapabilityError("collapse supported for k_max <= 4")
    y, comp = gauss_rule("hermite", _collapse_nodes(state.k_max, rule_scale))
    tab = hermite_functions(state.k_max, y / math.sqrt(3.0))
    by_level = {}
    for alpha, coeff in state.coefficients.items():
        by_level.setdefault(sum(alpha), []).append((alpha, coeff))
    total = 0.0
    scale3 = 3.0 ** -1.5
    for k, items in sorted(by_level.items()):
        uniq, pos = _collapse_triples(tuple(alpha for alpha, _ in items))
        restricted = np.zeros((len(uniq),) * 3, dtype=complex)
        restricted[pos[:, 0], pos[:, 1], pos[:, 2]] = [coeff for _, coeff in items]
        F = _mode_matrix([tab, tab, tab], uniq)
        for _ in range(3):
            restricted = np.tensordot(restricted, F, axes=([0], [0]))
        val = np.abs(restricted) ** 2
        for _ in range(3):
            val = np.tensordot(val, comp, axes=([0], [0]))
        total += scale3 * float(val)
    return TWO_PI * total


# ---------------------------------------------------------------------------
# the per-state routes: a SpectralState's values, phases, projections and
# norms one state at a time, where the checks read coefficient rows against
# the forms


@dataclass(frozen=True)
class SpectralState:
    """A finite eigenbasis combination: sparse coefficients up to level k_max."""

    n: int
    coefficients: dict
    k_max: int

    def __post_init__(self):
        for alpha in self.coefficients:
            if len(alpha) != self.n:
                raise ValueError(f"index {alpha} has wrong length for n={self.n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"index {alpha} has negative entries")
            if sum(alpha) > self.k_max:
                raise ValueError(f"index {alpha} exceeds k_max={self.k_max}")


def stream_words(stream_key, count: int) -> list:
    """The first count 64-bit words of a stream, one at a time: the words
    random.Random(repr(tuple(stream_key))).getrandbits(64) returns in turn,
    stream_key the ints (seed, stream, ..., t) that key a trial's draws."""
    rng = random.Random(repr(tuple(stream_key)))
    return [rng.getrandbits(64) for _ in range(count)]


def gaussian_draws(stream_key, size: int, unit: bool = False) -> tuple:
    """The real and imaginary parts of size draws from a stream, one index at
    a time: the reference for a row of verify._trial_parts.  Index j reads
    words 2j and 2j + 1, whose top 53 bits make u1 and u2 in [0, 1), and
    draws sqrt(-2 log1p(-u1)) (cos 2 pi u2 + i sin 2 pi u2); with unit, the
    draws are scaled to unit norm."""
    words = stream_words(stream_key, 2 * size)
    re, im = np.empty(size), np.empty(size)
    for j in range(size):
        u1, u2 = ((w >> 11) * 2.0 ** -53 for w in words[2 * j:2 * j + 2])
        radius, angle = np.sqrt(-2.0 * np.log1p(-u1)), TWO_PI * u2
        re[j], im[j] = radius * np.cos(angle), radius * np.sin(angle)
    if unit:
        norm = math.sqrt(float(np.sum(re * re + im * im)))
        re, im = re / norm, im / norm
    return re, im


def random_state(
    n: int,
    k_max: int,
    seed_seq,
    parity: str | None = None,
    parity_axis: int = 0,
) -> SpectralState:
    """Unit-norm state with complex-Gaussian coefficients on all admissible indices,
    in level order: the per-trial route of the checks that draw trials.

    seed_seq is the stream key, a sequence of ints (gaussian_draws draws the
    coefficients); parity "odd"/"even" restricts the index set along parity_axis.
    """
    if parity not in (None, "odd", "even"):
        raise ValueError(f"parity must be None, 'odd' or 'even', not {parity!r}")
    if not 0 <= parity_axis < n:
        raise ValueError("axis out of range")
    indices = []
    for k in range(k_max + 1):
        for alpha in _level_indices(n, k):
            if parity == "odd" and alpha[parity_axis] % 2 == 0:
                continue
            if parity == "even" and alpha[parity_axis] % 2 == 1:
                continue
            indices.append(alpha)
    if not indices:
        raise ValueError("no admissible indices for the requested parity")
    re, im = gaussian_draws(seed_seq, len(indices), unit=True)
    coeffs = {a: complex(r, i) for a, r, i in zip(indices, re, im)}
    return SpectralState(n, coeffs, k_max)


def make_state(n: int, coefficients: dict, k_max: int | None = None) -> SpectralState:
    """Normalizing constructor: infers k_max and copies the coefficient map."""
    coeffs = {tuple(a): complex(c) for a, c in coefficients.items()}
    if k_max is None:
        k_max = max((sum(a) for a in coeffs), default=0)
    return SpectralState(n, coeffs, k_max)


def evaluate_phi(alpha: tuple, points) -> np.ndarray:
    """Product eigenfunction at points of shape (..., n) (or (n,) for one point)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != len(alpha):
        raise ValueError("point dimension does not match index length")
    flat = pts.reshape(-1, len(alpha))
    out = np.ones(flat.shape[0])
    for c, deg in enumerate(alpha):
        out *= hermite_functions(deg, flat[:, c])[deg]
    out = out.reshape(pts.shape[:-1])
    return float(out[0]) if single else out


def time_avg_levels(
    state: SpectralState,
    delta: float,
    weight_dims=None,
    rule_scale: float = 1.0,
) -> dict:
    """Each level's weighted integral int |P_k f|^2 / w, keyed by k.

    w = (sum of squares over weight_dims)^delta.  Admissibility is
    check_admissible, with the state's parity along a one-axis weight.  Each
    level's integral is c^H G c with G the level's form on its own rules
    (level_form, the Gamma-identity tau route).
    """
    wd = _weight_axes(state.n, weight_dims)
    odd = len(wd) == 1 and all(a[wd[0]] % 2 for a in state.coefficients)
    check_admissible(len(wd), delta, odd_in_axis=odd)
    by_level = {}
    for alpha, coeff in sorted(state.coefficients.items()):
        by_level.setdefault(sum(alpha), []).append((alpha, coeff))
    levels = {}
    for k, items in sorted(by_level.items()):
        (G,) = level_form(state.n, k, float(delta), wd, float(rule_scale),
                           (tuple(alpha for alpha, _ in items),))
        c = np.array([coeff for _, coeff in items])
        levels[k] = float(np.vdot(c, G @ c).real)
    return levels


def time_avg_weighted(
    state: SpectralState,
    delta: float,
    weight_dims=None,
    rule_scale: float = 1.0,
) -> float:
    """Time average over one period of the weighted squared solution.

    Equals 2*pi times the sum over levels of integral |P_k f|^2 / w, by phase
    orthogonality of distinct eigenvalues over a full period; the level terms
    and the admissibility rule are those of time_avg_levels.
    """
    return TWO_PI * math.fsum(
        time_avg_levels(state, delta, weight_dims, rule_scale).values())


def state_norm_sq(state: SpectralState) -> float:
    return math.fsum(abs(c) ** 2 for c in state.coefficients.values())


def oscillator_energy_sq(state: SpectralState) -> float:
    """Squared norm after applying the oscillator: sum (2|alpha|+n)^2 |a|^2."""
    return math.fsum(
        (2 * sum(a) + state.n) ** 2 * abs(c) ** 2 for a, c in state.coefficients.items()
    )


def evaluate_state(state: SpectralState, points) -> np.ndarray:
    """Sum of coefficient-weighted eigenfunctions at points (..., n)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    flat = pts.reshape(-1, state.n)
    out = _eval_items(list(state.coefficients.items()), flat)
    out = out.reshape(pts.shape[:-1])
    return complex(out[0]) if single else out


def _eval_items(items: list, flat: np.ndarray) -> np.ndarray:
    if not items:
        return np.zeros(flat.shape[0], dtype=complex)
    idx = np.array([alpha for alpha, _ in items])
    tabs = [hermite_functions(int(idx[:, c].max()), flat[:, c]) for c in range(flat.shape[1])]
    return np.array([coeff for _, coeff in items]) @ _mode_matrix(tabs, idx)


def evaluate_state_grid(state: SpectralState, axes_nodes: list) -> np.ndarray:
    """State values on a tensor grid, returned with shape (len(axis_0), ...).

    The coefficients are scattered into a dense tensor over the per-axis
    degrees, which is contracted with each axis's 1D mode table in turn, so
    no product over the full grid is formed per coefficient.
    """
    if len(axes_nodes) != state.n:
        raise ValueError("need one node array per axis")
    items = list(state.coefficients.items())
    if not items:
        return np.zeros(tuple(len(a) for a in axes_nodes), dtype=complex)
    idx = np.array([alpha for alpha, _ in items])
    degs = idx.max(axis=0)
    out = np.zeros(tuple(degs + 1), dtype=complex)
    out[tuple(idx.T)] = [coeff for _, coeff in items]
    for c in range(state.n):
        tab = hermite_functions(int(degs[c]), np.asarray(axes_nodes[c], dtype=float))
        out = np.tensordot(out, tab, axes=([0], [0]))
    return out


def propagate(state: SpectralState, t: float) -> SpectralState:
    """Rotate each coefficient by its eigenvalue phase: a -> e^(-i(2|alpha|+n)t) a."""
    coeffs = {
        alpha: coeff * complex(math.cos((2 * sum(alpha) + state.n) * t),
                               -math.sin((2 * sum(alpha) + state.n) * t))
        for alpha, coeff in state.coefficients.items()
    }
    return SpectralState(state.n, coeffs, state.k_max)


def project(state: SpectralState, k: int) -> SpectralState:
    """Keep only the level-k coefficients."""
    coeffs = {a: c for a, c in state.coefficients.items() if sum(a) == k}
    return SpectralState(state.n, coeffs, state.k_max)


def fourier_transform_state(state: SpectralState) -> SpectralState:
    """Unitary angular-frequency transform: coefficient a twists by (-i)^|alpha|."""
    coeffs = {
        alpha: coeff * _QUARTER_PHASES[sum(alpha) % 4]
        for alpha, coeff in state.coefficients.items()
    }
    return SpectralState(state.n, coeffs, state.k_max)


def hermite_sobolev_norm(state: SpectralState, s: float) -> float:
    """Spectral Sobolev norm: (sum (2|alpha|+n)^s |a|^2)^(1/2)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    total = math.fsum(
        (2 * sum(a) + state.n) ** s * abs(c) ** 2 for a, c in state.coefficients.items()
    )
    return math.sqrt(total)


def bessel_sobolev_norm(
    state: SpectralState,
    s: float,
    rule_scale: float = 1.0,
    gate_tol: float = 1e-8,
) -> float:
    """Flat-Laplacian Sobolev norm (integral (1+|xi|^2)^s |fhat|^2)^(1/2).

    The one-row case of check_hermite_sobolev's rows: the state's
    coefficients are one row over sobolev_twisted_form's indices, read
    against the twisted form at the configured and at the doubled rule.
    Drift beyond gate_tol max(1, |fine|) raises a tolerance error, as does a
    doubled rule with the configured rule's panel count (the panel floor),
    which would be no gate.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if state.n > 3:
        raise CapabilityError("tensor transform quadrature supported for n <= 3")
    panels = _sobolev_panels(state.n, state.k_max, rule_scale)
    if panels == _sobolev_panels(state.n, state.k_max, 2.0 * rule_scale):
        raise ToleranceError(
            f"transform-side norm has no doubling gate: both rules have {panels} panels"
        )
    pos = {a: i for i, a in enumerate(_indices_upto(state.n, state.k_max))}
    c = np.zeros((1, len(pos)), dtype=complex)
    for alpha, coeff in state.coefficients.items():
        c[0, pos[alpha]] = coeff
    (coarse,), (fine,) = (
        _quadratic_rows(sobolev_twisted_form(state.n, state.k_max, s, r)[1], c.real, c.imag)
        for r in (rule_scale, 2.0 * rule_scale))
    if not abs(fine - coarse) <= gate_tol * max(1.0, abs(fine)):
        raise ToleranceError(
            f"transform-side norm unstable under rule doubling "
            f"({coarse:.12g} vs {fine:.12g})"
        )
    return math.sqrt(fine)


# ---------------------------------------------------------------------------
# spherical and polar integrators: the radial-lift reference, the time
# quadrature's spatial integral and the directions of grid_level_form


def circle_directions(n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint rule on the unit circle: directions (n_phi, 2), weights sum 2*pi.

    Even n_phi keeps the node set antipodally symmetric, which cancels the
    odd-in-r part of level integrands exactly.
    """
    if n_phi < 2 or n_phi % 2:
        raise ValueError("n_phi must be even and >= 2")
    phi = TWO_PI * (np.arange(n_phi) + 0.5) / n_phi
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    return dirs, np.full(n_phi, TWO_PI / n_phi)


def sphere_directions(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on S^2: Gauss-Legendre in cos(theta) x midpoint in phi.

    Directions (n_theta*n_phi, 3); weights sum to 4*pi; antipodally symmetric
    for even n_phi (the Gauss-Legendre node set is already symmetric in u).
    """
    if n_phi < 2 or n_phi % 2:
        raise ValueError("n_phi must be even and >= 2")
    u, wu = gauss_rule("legendre", n_theta)
    phi = TWO_PI * (np.arange(n_phi) + 0.5) / n_phi
    su = np.sqrt(1.0 - u * u)
    dirs = np.empty((n_theta, n_phi, 3))
    dirs[:, :, 0] = su[:, None] * np.cos(phi)[None, :]
    dirs[:, :, 1] = su[:, None] * np.sin(phi)[None, :]
    dirs[:, :, 2] = u[:, None] * np.ones_like(phi)[None, :]
    w = (wu[:, None] * np.full(n_phi, TWO_PI / n_phi)[None, :]).ravel()
    return dirs.reshape(-1, 3), w


def _radial_angular_sum(radial: tuple, dirs, dw, F, chunk=262144) -> float:
    r, w = radial
    parts = []
    n_dir = dirs.shape[0]
    block = max(1, chunk // n_dir)
    for lo in range(0, r.size, block):
        rr = r[lo : lo + block]
        pts = rr[:, None, None] * dirs[None, :, :]
        vals = F(*(pts[..., c] for c in range(dirs.shape[1])))
        ang = np.dot(np.asarray(vals, dtype=float), dw)
        parts.append(float(np.dot(w[lo : lo + block], ang)))
    return math.fsum(parts)


def integrate_radial_3d(
    F,
    delta: float,
    R: float,
    n_panels: int = 400,
    nodes_per_panel: int = 16,
    n_theta: int = 64,
    n_phi: int = 64,
) -> float:
    """integral over R^3 of F(x)/|x|^(2*delta) dx by spherical coordinates.

    F is a vectorized callable F(x1, x2, x3).  The factor r^(2-2*delta) is
    absorbed into the graded radial rule (bounded for all delta <= 1); the
    angular part is sphere_directions (n_phi even).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1] for the 3D weight")
    radial = radial_rule_panels(3, delta, R, n_panels, nodes_per_panel)
    dirs, dw = sphere_directions(n_theta, n_phi)
    return _radial_angular_sum(radial, dirs, dw, F)


def integrate_cyl_2d(
    F,
    delta: float,
    R: float,
    n_panels: int = 400,
    nodes_per_panel: int = 16,
    n_phi: int = 64,
) -> float:
    """integral over R^2 of F(x)/(x1^2+x2^2)^delta dx by polar coordinates.

    delta must lie in [0, 1): at delta = 1 the integral diverges for any F
    with F(0) != 0, and the rule refuses to pretend otherwise.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1) for the 2D weight")
    radial = radial_rule_panels(2, delta, R, n_panels, nodes_per_panel)
    dirs, dw = circle_directions(n_phi)
    return _radial_angular_sum(radial, dirs, dw, F)
