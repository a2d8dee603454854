"""n-dimensional eigenbasis calculus for the harmonic oscillator.

Eigenspaces are indexed by multi-indices; the eigenfunction attached to alpha
is the product of 1D modes and has eigenvalue 2|alpha| + n.  The propagator
just rotates coefficient phases, so every time-averaged weighted functional
reduces to a level-by-level spatial integral, c^H G c against a form G
(level, Sobolev and collapse forms, level-spectrum tables); this module
never integrates in time, and the per-state routes are test oracles.

Level integrals carry singular radial weights on a subset of the axes.  A
radial weight is diagonal in the Laguerre x spherical-harmonic basis, so the
level spectra are closed forms (level_spectrum).  At delta = 1 the forms
themselves have exact routes: on odd 1D modes, h_d / x from one Hermite table
(odd_inverse_squares), and on R^3, where mode (j, l) reads 2 / (2l + 1), the
eigenvectors of the angular-momentum Casimir L^2 (even_casimir).

The Fourier convention throughout is the unitary angular-frequency transform
(2*pi)^(-1/2) integral f(x) e^(-i x xi) dx, under which the 1D mode of degree
k maps to (-i)^k times itself, so the transform twists coefficient alpha by
(-i)^|alpha|: the phases of sobolev_twisted_form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError
from .hermite import SQRT2, hermite_functions
from .quadrature import MAX_LAGUERRE_NODES, gauss_legendre_panels, gauss_rule, truncation_radius

_MAX_LEVEL_SIZE = 2_000_000


@lru_cache(maxsize=None)
def _level_indices(n: int, k: int) -> tuple:
    if n == 1:
        return ((k,),)
    out = []
    for first in range(k, -1, -1):
        for rest in _level_indices(n - 1, k - first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_multiindices(n: int, k: int) -> list:
    """All alpha with |alpha| = k, in descending lexicographic order."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if math.comb(k + n - 1, n - 1) > _MAX_LEVEL_SIZE:
        raise CapabilityError(f"level (n={n}, k={k}) has too many indices")
    return list(_level_indices(n, k))


def _mode_matrix(tabs: list, idx: np.ndarray) -> np.ndarray:
    """Product eigenfunction values, one row per multi-index row of idx.

    tabs[c] holds the 1D modes along axis c, shape (max degree + 1, N); row i
    of the result (shape (len(idx), N)) is the product over c of
    tabs[c][idx[i, c]].
    """
    out = tabs[0][idx[:, 0]]
    for c in range(1, len(tabs)):
        out *= tabs[c][idx[:, c]]
    return out


def kernel_diagonals(n: int, k_max: int, points) -> np.ndarray:
    """Phi_k(x, x) for every level k <= k_max at each row of points (N, n).

    Phi_k(x, x) = sum over |alpha| = k of prod_c h_(alpha_c)(x_c)^2 is a Cauchy
    product over degree (Mehler's formula on the diagonal), so every level
    comes from one squared Hermite table per axis, convolved axis by axis.
    Returns shape (k_max + 1, N).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, n)
    out = hermite_functions(k_max, pts[:, 0]) ** 2
    for c in range(1, n):
        sq = hermite_functions(k_max, pts[:, c]) ** 2
        acc = np.zeros_like(out)
        for j in range(k_max + 1):
            acc[j:] += out[j] * sq[: k_max + 1 - j]
        out = acc
    return out


def _indices_upto(n: int, k_max: int) -> list:
    # every alpha with |alpha| <= k_max, level by level, as enumerate_multiindices lists them
    return [a for k in range(k_max + 1) for a in _level_indices(n, k)]


def _quadratic_rows(G: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """c^H G c for each row c = re + i im, G real symmetric: the sum of the
    two real quadratic forms, the cross terms cancelling."""
    return np.einsum("ti,ti->t", re @ G, re) + np.einsum("ti,ti->t", im @ G, im)


def sobolev_twisted_form(n: int, k_max: int, s: float, rule_scale: float = 1.0) -> tuple:
    """The flat H^s form on the coefficients, (indices, F) with c^H F c = ||f||^2_{H^s}.

    indices are every alpha with |alpha| <= k_max, level by level in the
    order of enumerate_multiindices; F is _sobolev_form restricted to them
    and twisted by the transform phases, conj((-i)^|alpha|) (-i)^|beta|.  An
    entry of _sobolev_form is zero unless its two indices share every axis's
    parity, and then |alpha| - |beta| is even, so the phases multiply to
    sigma_alpha sigma_beta with sigma_alpha = (-1)^floor(|alpha|/2): F is
    real and symmetric, and is returned as such.
    """
    return _twisted(n, k_max, _sobolev_form(n, k_max, float(s), float(rule_scale)))


def sobolev_ladder_form(n: int, k_max: int) -> tuple:
    """sobolev_twisted_form at s = 1, exactly and with no rule.

    On the transform side (1 + |xi|^2) multiplies by 1 + sum_c X_c^2 on the
    degree box, X the Jacobi matrix of xi h_a = sqrt(a/2) h_(a-1) +
    sqrt((a+1)/2) h_(a+1): X^2 holds (2a + 1)/2 at (a, a) and
    sqrt((a+1)(a+2))/2 at (a, a+2) and (a+2, a), and is exact on the box
    because X maps degree k_max on to k_max + 1 and back.  Twisted, it is
    I + sum_c P_c^T P_c, P the ladder of the derivative: the H^1 norm
    ||f||^2 + ||grad f||^2.
    """
    d = k_max + 1
    a = np.arange(k_max - 1)
    X2 = np.diag(np.arange(d) + 0.5)
    X2[a, a + 2] = X2[a + 2, a] = 0.5 * np.sqrt((a + 1.0) * (a + 2.0))
    M = np.eye(d ** n)
    for c in range(n):
        M += np.kron(np.kron(np.eye(d ** c), X2), np.eye(d ** (n - 1 - c)))
    return _twisted(n, k_max, M)


def _twisted(n: int, k_max: int, M: np.ndarray) -> tuple:
    # a box form restricted to |alpha| <= k_max and twisted by the phases
    indices = _indices_upto(n, k_max)
    idx = np.array(indices)
    pos = np.ravel_multi_index(tuple(idx.T), (k_max + 1,) * n)
    sign = 1.0 - 2.0 * (idx.sum(axis=1) // 2 % 2)
    return indices, sign[:, None] * M[np.ix_(pos, pos)] * sign[None, :]


# grid values per block of the Sobolev-form contraction (32 KB of weights).
# At this size every slab's two GEMMs stay below OpenBLAS's multithreading
# threshold. At 1 << 14 they cross it again, and on 2 CPUs a Sobolev check
# at the defaults then took 68-84 ms in some processes against 7-13 ms here
_SOBOLEV_BLOCK = 1 << 12


def _sobolev_panels(n: int, k_max: int, scale: float) -> int:
    # panel count of the flat Sobolev rule, floored at 4: per unit length
    # sqrt(2 k_max + n) / pi, about the top mode's oscillations there, and at
    # least 2 (1 at n = 3)
    per_unit = max(2.0 if n < 3 else 1.0, math.sqrt(2 * k_max + n) / math.pi)
    return max(4, int(math.ceil(truncation_radius(k_max, n) * per_unit * scale)))


def _sobolev_form(n: int, k_max: int, s: float, scale: float) -> np.ndarray:
    """Weighted gram of the degree box on the flat Sobolev rule.

    Rows and columns run over the per-axis degree box (k_max+1)^n in C order;
    entry (a, b) is sum over the tensor grid of w(xi) (1+|xi|^2)^s Phi_a Phi_b
    on the panelized Gauss-Legendre rule over [-T, T]^n, T the truncation
    radius.  h_a(-x) = (-1)^a h_a(x) and w(xi) (1+|xi|^2)^s is even, so an
    entry is zero unless a and b share each axis's parity, and is otherwise
    2^n times its sum over the positive orthant: one Hermite table on the
    positive nodes, at double weight, gives the per-axis products h_a h_a'
    of the same-parity pairs a <= a', and the weight grid is contracted with
    them axis by axis, in slabs of the first axis.
    """
    T = truncation_radius(k_max, n)
    nodes, weights = gauss_legendre_panels(-T, T, _sobolev_panels(n, k_max, scale),
                                           10 if n < 3 else 8)
    # ascending nodes and an even count per panel, so none at 0: the upper half is positive
    N = nodes.size // 2
    assert nodes[N - 1] < 0.0 < nodes[N]
    xi, w = nodes[N:], 2.0 * weights[N:]
    d = k_max + 1
    tab = hermite_functions(k_max, xi)
    # one axis's same-parity pairs a <= a'; pair[a, a'] is its row, or one past the end
    pa, pb = np.nonzero(np.triu((np.arange(d)[:, None] + np.arange(d)) % 2 == 0))
    pair = np.full((d, d), pa.size)
    pair[pa, pb] = pair[pb, pa] = np.arange(pa.size)

    def products(sl):
        # (h_a h_a' w) at the nodes of sl, one row per pair a <= a'; np.take
        # on the slab's columns costs a small slab half what tab[pa, sl] does
        return np.take(tab[:, sl], pa, axis=0) * np.take(tab[:, sl], pb, axis=0) * w[sl]

    inner = products(slice(None)) if n > 1 else None
    xi_sq = xi ** 2
    rows = max(1, _SOBOLEV_BLOCK // max(N ** (n - 1), pa.size))
    acc = 0.0
    for lo in range(0, N, rows):
        sl = slice(lo, lo + rows)
        # (1 + |xi|^2)^s on the slab, from broadcast per-axis views
        slab = 1.0 + xi_sq[sl].reshape((-1,) + (1,) * (n - 1))
        for c in range(1, n):
            slab = slab + xi_sq.reshape((-1,) + (1,) * (n - 1 - c))
        slab **= s
        # last grid axis first, so the largest contraction runs on contiguous
        # data; the degree pairs then run over the axes 0, n-1, ..., 1, which
        # needs no reordering: one rule on every axis and a radial weight make
        # the form invariant under permuting the axes
        for c in range(n - 1, 0, -1):
            slab = np.tensordot(slab, inner, axes=([c], [1]))
        acc = acc + np.tensordot(products(sl), slab, axes=([1], [0]))
    # every (a, a') on every axis, mixed parities read a zero pad; rows take a, columns a'
    M = np.pad(acc, (0, 1))[np.ix_(*[pair.ravel()] * n)]
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return M.reshape((d, d) * n).transpose(order).reshape(d ** n, d ** n)


def _odd_nodes(d_max: int, scale: float) -> int:
    # node count of odd_inverse_squares' rule at a rule scale; from d_max
    # nodes it is exact on every odd degree up to d_max
    return int(math.ceil((d_max + 1) * scale))


def odd_inverse_squares(d_max: int, scale: float) -> np.ndarray:
    """<h_d, x^(-2) h_d> for every odd degree d <= d_max, ascending, on one
    compensated Gauss-Hermite rule of _odd_nodes(d_max, scale) nodes.

    Dividing h_d's recurrence by x gives q_d = h_d / x its own:
        q_1 = sqrt(2) h_0,  q_d = sqrt(2/d) h_(d-1) - sqrt((d-1)/d) q_(d-2),
    so one Hermite table gives every q_d, with no division by x.  q_d^2 is a
    polynomial of degree 2d - 2 times e^(-x^2), and sum c q_d^2 is exact on
    any rule of at least d nodes.
    """
    x, comp = gauss_rule("hermite", _odd_nodes(d_max, scale))
    h = hermite_functions(d_max - 1, x)
    q = np.empty(((d_max + 1) // 2, x.size))
    q[0] = SQRT2 * h[0]
    for i, d in enumerate(range(3, d_max + 1, 2), 1):
        q[i] = math.sqrt(2.0 / d) * h[d - 1] - math.sqrt((d - 1.0) / d) * q[i - 1]
    return (q * q) @ comp


def even_casimir(k: int) -> tuple:
    """L^2 on the fully even part of level k of R^3: its eigenvalues,
    ascending, and orthonormal eigenvectors, one column each.

    The rows run over the indices 2 beta, |beta| = k/2, in the order of
    enumerate_multiindices(3, k/2).  On level k, L^2 = k(k+1) I - A^T A with
    A = sum_c a_c^2, which maps 2 beta to sqrt(2 b (2 b - 1)) 2 (beta - e_c),
    b = beta_c, and so keeps every axis even; a radial mode (j, l), 2j + l = k,
    has eigenvalue l(l+1).  The position of beta in its level's order is
    r(r+1)/2 + r - beta_1, r = |beta| - beta_0.
    """
    beta = np.array(_level_indices(3, k // 2))
    # level k - 2's fully even part holds C(k/2 + 1, 2) indices
    A = np.zeros((k // 2 * (k // 2 + 1) // 2, len(beta)))
    for c in range(3):
        col = np.flatnonzero(beta[:, c])
        lower = beta[col].copy()
        lower[:, c] -= 1
        r = lower[:, 1] + lower[:, 2]
        b = 2.0 * beta[col, c]
        A[r * (r + 1) // 2 + r - lower[:, 1], col] = np.sqrt(b * (b - 1.0))
    return np.linalg.eigh(k * (k + 1.0) * np.eye(len(beta)) - A.T @ A)


def check_admissible(dw: int, delta: float, odd_in_axis: bool = False) -> None:
    """The admissibility rule for a weight |x_w|^(-2 delta) on dw axes.

    Raises ValueError naming the case violated: no weighted axis; a negative
    or non-finite delta; a one-axis weight past delta = 1, or at delta >= 1/2
    unless every mode is odd in that axis (odd_in_axis; a full level is not);
    a two-axis weight at delta >= 1, where the integral diverges; three or
    more axes past delta = 1.
    """
    if dw < 1:
        raise ValueError("the weight needs at least one axis")
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and >= 0")
    if dw == 1 and delta > 1.0:
        raise ValueError("one-axis weight needs delta <= 1")
    if dw == 1 and delta >= 0.5 and not odd_in_axis:
        raise ValueError(
            "one-axis weight with delta >= 1/2 needs every mode odd in that axis"
        )
    if dw == 2 and delta >= 1.0:
        raise ValueError("two-axis weight needs delta < 1 (the integral diverges at 1)")
    if dw >= 3 and delta > 1.0:
        raise ValueError("weight on three or more axes needs delta <= 1")


def _weight_axes(n: int, weight_dims) -> tuple:
    if weight_dims is None:
        return tuple(range(n))
    wd = tuple(sorted(set(int(c) for c in weight_dims)))
    if not wd or any(c < 0 or c >= n for c in wd):
        raise ValueError("weight_dims must be a nonempty subset of the axes")
    return wd


def poch(a: float, m: float) -> float:
    """Pochhammer ratio (a)_m = Gamma(a+m)/Gamma(a) for a > 0 and m >= 0.

    The integer part of m is peeled off as an exact product, so poch(x, 1.0)
    is x itself.  The fractional rest is a gamma ratio below 171, where
    Gamma stays finite, a three-term expansion in 1/a past 1e4, and a
    log-gamma difference between the two.
    """
    if not (a > 0.0 and m >= 0.0):
        raise ValueError("poch needs a > 0 and m >= 0")
    r = 1.0
    while m >= 1.0:
        m -= 1.0
        r *= a + m
    if m == 0.0:
        return r
    if a > 1e4:
        return r * a ** m * (
            1.0
            + m * (m - 1) / (2 * a)
            + m * (m - 1) * (m - 2) * (3 * m - 1) / (24 * a * a)
            + m * m * (m - 1) * (m - 1) * (m - 2) * (m - 3) / (48 * a * a * a)
        )
    if a + m < 171.0:
        return r * (math.gamma(a + m) / math.gamma(a))
    return r * math.exp(math.lgamma(a + m) - math.lgamma(a))


@dataclass(frozen=True, eq=False)
class LevelSpectrum:
    """A weighted level gram's radial eigenvalues up to level k_max by two routes,
    read-only: [k, l] is the mode (j, l), 2j + l = k, and -inf where there is none."""

    exact: np.ndarray
    quad: np.ndarray


# bounded: a run keys one table per (weighted axes, k_max, weight power)
@lru_cache(maxsize=64)
def level_spectrum(dw: int, k_max: int, weight_power: float) -> LevelSpectrum:
    """The |x|^(-weight_power) level grams' eigenvalues on dw weighted axes, levels <= k_max.

    With mu = weight_power/2, a = l + dw/2 - 1 and s = r^2, mode (j, l) has the
    Laguerre ratio int s^(a-mu) e^-s L_j^(a)(s)^2 ds / int s^a e^-s L_j^(a)(s)^2 ds.
    The exact half expands L_j^(a) over the L_i^(a-mu), a sum of positive terms
        T_i = C(mu+j-i-1, j-i)^2 Gamma(a-mu+i+1)/i! * j!/Gamma(j+a+1),  i = 0..j;
    T_j = 1/poch(a-mu+j+1, mu), each lower term the next one times a rational
    factor.  Per j, every l is one row of factors, reverse-cumprodded and fsummed.
    The quadrature half writes s^(a-mu) = s^c s^l: one (k_max//2 + 1)-node rule
    for s^c e^-s is exact on every s^l L_j^(a)(s)^2, of degree 2j + l <= k_max,
    and the orthonormal recurrence runs on sqrt(w s^l) times the polynomials,
    so nothing overflows up to the node cap (CapabilityError past it).
    """
    mu = weight_power / 2.0
    c = dw / 2.0 - 1.0 - mu
    if dw < 1 or k_max < 0 or not (weight_power >= 0 and c > -1.0):
        raise ValueError(f"no level spectrum for dw={dw}, k_max={k_max}, "
                         f"weight power {weight_power:g} (not integrable at level 0)")
    nodes = k_max // 2 + 1
    if nodes > MAX_LAGUERRE_NODES:
        raise CapabilityError(f"level scans are gated up to k_max = {2 * MAX_LAGUERRE_NODES - 1}")
    ls = np.arange(min(k_max, 1) + 1 if dw == 1 else k_max + 1)
    a = (ls + (dw / 2.0 - 1.0))[:, None]
    b = a - mu
    exact = np.full((k_max + 1, k_max + 1), -np.inf)
    quad = exact.copy()
    s, w = gauss_rule("laguerre", nodes, c)
    # g holds sqrt(w s^l) times the orthonormal L_j^(a)(s), one row per l;
    # at j = 0 that is sqrt(w s^l / Gamma(a + 1)), a product down the rows
    g = np.cumprod(np.vstack([np.sqrt(w / math.gamma(dw / 2.0)), np.sqrt(s / a[1:])]), axis=0)
    g_prev = np.zeros_like(g)
    for j in range(nodes):
        # the rows l <= k_max - 2j are the modes (j, l)
        live = min(ls.size, k_max - 2 * j + 1)
        l, a, b, g, g_prev = ls[:live], a[:live], b[:live], g[:live], g_prev[:live]
        i = np.arange(j, dtype=float)
        m = j - i
        factors = ((mu + m - 1.0) / m) ** 2 * (i + 1.0) / (b + i + 1.0)
        terms = np.hstack([np.cumprod(factors[:, ::-1], axis=1)[:, ::-1], np.ones((live, 1))])
        terms /= np.array([[poch(x, mu)] for x in (b[:, 0] + j + 1.0).tolist()])
        exact[2 * j + l, l] = [math.fsum(row) for row in terms.tolist()]
        quad[2 * j + l, l] = np.einsum("ln,ln->l", g, g)
        g, g_prev = ((2 * j + 1 + a - s) * g - np.sqrt(j * (j + a)) * g_prev) / np.sqrt(
            (j + 1) * (j + 1 + a)), g
    exact.flags.writeable = quad.flags.writeable = False
    return LevelSpectrum(exact, quad)


def level_tops(n: int, k_max: int, weight_power: float, weight_dims=None) -> tuple:
    """Top eigenvalue of every level k <= k_max's gram under |x_w|^(-weight_power),
    by both of level_spectrum's routes: (exact tops, quadrature tops), each its
    own route's maximum over the level's modes.

    A radial weight commutes with rotations of the weighted axes, so the level
    gram is diagonal in the Laguerre x spherical-harmonic basis there.  With
    free axes, level k splits into (weighted level k_w) x (free level k - k_w)
    and the top is the largest weighted top over k_w <= k.  The gram is
    symmetric positive semidefinite, so this is also its largest singular value.
    """
    if n < 1 or k_max < 0:
        raise ValueError("need n >= 1 and k_max >= 0")
    dw = len(_weight_axes(n, weight_dims))
    check_admissible(dw, weight_power / 2.0)
    table = level_spectrum(dw, k_max, float(weight_power))
    exact, quad = table.exact.max(axis=1), table.quad.max(axis=1)
    if dw < n:
        exact, quad = np.maximum.accumulate(exact), np.maximum.accumulate(quad)
    return exact.tolist(), quad.tolist()


def _collapse_triples(indices: tuple) -> tuple:
    """The distinct triples (a_j, a_(j+3), a_(j+6)) of a level's 9D indices,
    and for each index the rows of its three triples, shape (len(indices), 3).
    """
    # triples[i, j] is (a_j, a_(j+3), a_(j+6)) of the i-th index
    triples = np.array(indices).reshape(-1, 3, 3).transpose(0, 2, 1)
    uniq, pos = np.unique(triples.reshape(-1, 3), axis=0, return_inverse=True)
    return uniq, pos.reshape(-1, 3)


def _collapse_nodes(k_max: int, scale: float) -> int:
    # node count of the collapse rule's Gauss-Hermite rule, floored at 4
    return max(4, int(math.ceil((2 * k_max + 6) * scale)))


def _gathered_product(mats: list, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """prod_c mats[c][rows[i, c], cols[j, c]] at every (i, j): the Hadamard
    product of one gathered factor per axis, shape (len(rows), len(cols)).
    Each factor is one flat take from its matrix, at rows[i, c] * d +
    cols[j, c], multiplied into the product as soon as it is taken."""
    def factor(c):
        return np.take(mats[c], rows[:, c, None] * mats[c].shape[1] + cols[:, c])

    out = factor(0)
    for c in range(1, len(mats)):
        out *= factor(c)
    return out


def _collapse_forms(k_cap: int, scales) -> tuple:
    """The 9D triple-diagonal forms E_0..E_k_cap on the collapse rule of k_cap,
    one tuple of them per rule scale in scales.

    The squared restriction of level k's part of a 9D state to (x, x, x),
    x in R^3, integrated over R^3, is c^H E_k c, c the level's coefficients
    in the order of enumerate_multiindices(9, k).  Axis j of R^3 carries the
    9D axes j, j+3 and j+6, so a mode restricts to prod_j T[p_j, x_j], T the
    table of triple products h_a h_b h_d of _collapse_triples; on the
    sqrt(3)-rescaled compensated Gauss-Hermite rule, which matches the
    e^(-3|x|^2) density of the restriction,
        E_k[alpha, beta] = 3^(-3/2) prod_j G[p_j(alpha), p_j(beta)],
    with G = T diag(w e^(y^2)) T^T the gram of the triples.  The rule is exact
    on every level up to k_cap.  Each level's triples are found once and
    read by every scale's form.
    """
    rules = []
    for scale in scales:
        y, comp = gauss_rule("hermite", _collapse_nodes(k_cap, scale))
        rules.append((hermite_functions(k_cap, y / math.sqrt(3.0)), comp))
    forms = [[] for _ in rules]
    for k in range(k_cap + 1):
        uniq, pos = _collapse_triples(_level_indices(9, k))
        for out, (tab, comp) in zip(forms, rules):
            T = _mode_matrix([tab, tab, tab], uniq)
            out.append(3.0 ** -1.5 * _gathered_product([(T * comp) @ T.T] * 3, pos, pos))
    return tuple(tuple(out) for out in forms)
