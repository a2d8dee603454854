"""Deterministic quadrature: Gauss rules, graded and uniform panels.

* Gauss-Legendre, -Hermite, generalized -Laguerre and -Jacobi rules, each
  from one memoized routine, gauss_rule, so a run builds each (family, node
  count, exponents) once.  The Jacobi rules are the tau rules of the weighted
  level forms (spectral._level_form), where the weight's singularity sits in
  the rule's exponents.  The Hermite rules come with compensated weights
  w e^(x^2), which integrate against dx and stay finite where w underflows.
* Graded Gauss-Legendre panels (geometric refinement toward r = 0, uniform
  panels out to the truncation radius) for generic radial integrands and for
  the divergence demonstrations, which refuse a non-integrable exponent.
* Uniform panels, for the radial lift and the flat Sobolev forms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapabilityError
from .hermite import hermite_functions

TWO_PI = 2.0 * math.pi

# geometric panel refinement stops here; deep enough that the unresolved mass of
# any admissible weight r^a, a > -1, is below 1e-9, while r^(-2) * width stays
# finite in float64
MAX_GRADED_LEVELS = 160

# generalized Gauss-Laguerre rules stop here: their largest node s is about 4m,
# and the e^s scale of the integrands they serve nears float64 overflow beyond
MAX_LAGUERRE_NODES = 150

# Gauss-Hermite rules stop here: past it, h_0 = pi^(-1/4) e^(-x^2/2) at the outer
# node is subnormal (from 766 nodes it underflows to 0, and the nodes are NaN)
MAX_HERMITE_NODES = 728


def _legendre_poly(n: int, x: np.ndarray) -> tuple:
    """(P_(n-1), P_n)(x), n >= 1, in one pass of the difference form d_k = P_(k+1) - P_k
    of the recurrence, which keeps full relative accuracy toward x = +-1; the
    plain recurrence serves |x| < 1e-5, where the difference form cancels."""
    d = x - 1.0
    prev, p = np.ones_like(x), x.copy()
    for k in range(1, n):
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        prev, p = p, p + d
    small = np.abs(x) < 1e-5
    if small.any():
        xs = x[small]
        lo, cur = np.ones_like(xs), xs.copy()
        for k in range(1, n):
            lo, cur = cur, ((2 * k + 1) * xs * cur - k * lo) / (k + 1)
        prev[small], p[small] = lo, cur
    return prev, p


def _laguerre_poly(n: int, alpha: float, x: np.ndarray) -> tuple:
    """(L_(n-1)^alpha / C(n-1+alpha, n-1), L_n^alpha / C(n+alpha, n))(x),
    n >= 1, in one pass of the difference form of the recurrence."""
    d = -x / (alpha + 1)
    prev, p = np.ones_like(x), d + 1
    for k in range(1, n):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        prev, p = p, p + d
    return prev, p


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


def _golub_welsch(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal Jacobi matrix, ascending."""
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(jac)


def _christoffel(fm: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Unscaled Gauss weights 1/(p_(n-1) p_n') at the nodes.

    Both factors are first divided by the geometric middle of their range, so
    the product neither overflows nor underflows."""
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
    return 1.0 / (fm * dy)


# bounded: `hermspec all` uses about 25 distinct rules, but a long-lived
# caller may ask for arbitrary exponents
@lru_cache(maxsize=512)
def gauss_rule(family: str, m: int, alpha: float = 0.0,
               beta: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the m-point Gauss rule, memoized, read-only.

    family "legendre" is weight 1 on [-1, 1], "hermite" e^(-x^2) on the line,
    "laguerre" x^alpha e^(-x) on the half line (alpha > -1; at most
    MAX_LAGUERRE_NODES nodes, CapabilityError past it) and "jacobi"
    (1-x)^alpha (1+x)^beta on [-1, 1] (alpha, beta > -1).  Golub-Welsch: the
    nodes are the Jacobi matrix's eigenvalues, polished by one Newton step,
    for which one recurrence pass gives p_(m-1) and p_m (and so p_m'); a
    second pass gives p_(m-1) at the polished nodes, and the weights are
    1/(p_(m-1) p_m') (Jacobi: 1/((1-x^2) p_m'^2), from the second pass)
    scaled to the weight's total mass.
    Hermite rules use the normalized Hermite functions h_j, which never overflow,
    up to MAX_HERMITE_NODES nodes (CapabilityError past it), and their weights
    are compensated: c = w e^(x^2) = 1 / sum_(j<m) h_j^2, scaled so that
    sum e^(-x^2) c = sqrt(pi).  They integrate against dx, not e^(-x^2) dx
    (sum c f(x) is integral f dx for f a polynomial of degree < 2m times
    e^(-x^2)), and stay finite where w underflows; a caller that wants w
    multiplies them by e^(-x^2).
    """
    if m < 1:
        raise ValueError("node count must be >= 1")
    k = np.arange(1, m, dtype=float)
    if family == "legendre":
        mass = 2.0
        x = _golub_welsch(np.zeros(m), k * np.sqrt(1.0 / (4 * k * k - 1)))
        p, y = _legendre_poly(m, x)
        dy = (-m * x * y + m * p) / (1 - x ** 2)
        x = x - y / dy
        w = _christoffel(_legendre_poly(m, x)[0], dy)
        # symmetric weight: make the rule exactly antipodal
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    elif family == "hermite":
        if m > MAX_HERMITE_NODES:
            raise CapabilityError(f"Gauss-Hermite rules limited to {MAX_HERMITE_NODES} nodes")
        mass = math.sqrt(math.pi)
        x = _golub_welsch(np.zeros(m), np.sqrt(k / 2.0))
        # h_m' = sqrt(2m) h_(m-1) - x h_m; the polished nodes are made exactly
        # antipodal, and w e^(x^2) = 1 / sum_(j<m) h_j^2 at them
        h = hermite_functions(m, x)
        x = x - h[m] / (math.sqrt(2.0 * m) * h[m - 1] - x * h[m])
        x = (x - x[::-1]) / 2
        h = hermite_functions(m - 1, x)
        w = 1.0 / np.einsum("ij,ij->j", h, h)
    elif family == "laguerre":
        if alpha <= -1.0:
            raise ValueError("Laguerre exponent must be > -1")
        if m > MAX_LAGUERRE_NODES:
            raise CapabilityError(f"Gauss-Laguerre rules limited to {MAX_LAGUERRE_NODES} nodes")
        mass = math.gamma(alpha + 1.0)
        x = _golub_welsch(2 * np.arange(m, dtype=float) + alpha + 1, -np.sqrt(k * (k + alpha)))
        # in the scaled polynomials of _laguerre_poly, L_m' = m (L_m - L_(m-1)) / x
        p, y = _laguerre_poly(m, alpha, x)
        dy = (m * y - m * p) / x
        x = x - y / dy
        w = _christoffel(_laguerre_poly(m, alpha, x)[0], dy)
    elif family == "jacobi":
        if alpha <= -1.0 or beta <= -1.0:
            raise ValueError("Jacobi exponents must be > -1")
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
    else:
        raise ValueError("family must be legendre, hermite, laguerre or jacobi")
    # the compensated Hermite weights carry their mass against e^(-x^2)
    w = w * (mass / (np.dot(np.exp(-x * x), w) if family == "hermite" else w.sum()))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panels(edges: np.ndarray, m: int) -> tuple:
    """Nodes and weights of the m-point Gauss-Legendre rule mapped onto every
    panel between consecutive edges."""
    x, w = gauss_rule("legendre", m)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def gauss_legendre_panels(a: float, b: float, n_panels: int, m: int) -> tuple:
    """Nodes and weights of the composite Gauss-Legendre rule: n_panels uniform
    panels of m nodes on [a, b]."""
    if n_panels < 1:
        raise ValueError("panel count must be >= 1")
    return _panels(np.linspace(a, b, n_panels + 1), m)


def _graded_edges(R: float, n_panels: int) -> np.ndarray:
    """Panel edges on [0, R]: geometric refinement toward 0, uniform beyond.

    Half the panels shrink geometrically below r0 = min(1, R/2); doubling the
    panel count therefore doubles the resolved number of dyadic scales, which
    is what makes log-divergent integrands grow linearly under rule doubling.
    """
    n_graded = min(n_panels // 2, MAX_GRADED_LEVELS)
    n_uniform = n_panels - n_graded
    r0 = min(1.0, 0.5 * R)
    upper = np.linspace(r0, R, n_uniform + 1)
    graded = r0 * 2.0 ** -np.arange(1, n_graded + 1, dtype=float)
    return np.concatenate(([0.0], graded[::-1], upper))


def radial_rule_panels(
    dim: int,
    delta: float,
    R: float,
    n_panels: int,
    m: int,
    allow_divergent: bool = False,
) -> tuple:
    """Nodes and weights of the graded-panel rule for
    integral_0^R G(r) r^(dim-1-2*delta) dr.

    The weight power is folded into the quadrature weights; nodes never touch
    r = 0.  Exponents <= -1 are divergent and refused unless allow_divergent
    (the negative-control path, where growth under doubling is the point).
    """
    exponent = dim - 1 - 2.0 * delta
    if exponent <= -1.0 and not allow_divergent:
        raise ValueError(
            f"weight exponent {exponent:g} is not integrable at r=0 "
            f"(dim={dim}, delta={delta:g})"
        )
    if R <= 0:
        raise ValueError("R must be > 0")
    nodes, weights = _panels(_graded_edges(R, n_panels), m)
    return nodes, weights * nodes ** exponent


def truncation_radius(k_max: int, n: int) -> float:
    """Default truncation: spectral turning point sqrt(2*k_max + n) plus margin 10."""
    return math.sqrt(2.0 * k_max + n) + 10.0
