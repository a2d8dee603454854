"""Reference routes that no run calls, kept as the tests' oracles.

Each re-derives a quantity that hermspec computes by a faster route, so the
tests hold the two against each other.
"""

import math

import numpy as np

from hermspec import hermite_functions
from hermspec.antideriv import _cumulative_half_line, _norm_rule, odd_series
from hermspec.errors import CapabilityError
from hermspec.hermite import half_line_integral_even
from hermspec.quadrature import gauss_hermite, hermite_compensated_weights
from hermspec.spectral import (
    _collapse_nodes,
    _collapse_triples,
    _level_grid,
    _mode_matrix,
    _tensor_free_axes,
    _weight_axes,
    enumerate_multiindices,
)
from hermspec.verify import _config_dict, _json_text

TWO_PI = 2.0 * math.pi


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


def level_gram(
    n: int,
    k: int,
    weight_power: float,
    rule_scale: float = 1.0,
    weight_dims=None,
) -> np.ndarray:
    """Gram matrix of the level-k eigenfunctions under a power-law weight:
    the oracle of spectral.level_top for the whole level spectrum.

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
    base_pts, base_w = _level_grid(n, k, weight_power / 2.0, wd, rule_scale, False)
    pts, w = _tensor_free_axes(base_pts, base_w, n, wd, k, rule_scale)
    tabs = [hermite_functions(k, pts[:, c]) for c in range(n)]
    B = _mode_matrix(tabs, np.array(enumerate_multiindices(n, k)))
    M = (B * w) @ B.T
    return 0.5 * (M + M.T)


def x_odd(k: int, x) -> np.ndarray:
    """Antiderivative of h_{2k+1}, vanishing at both infinities, via its expansion."""
    t = np.asarray(x, dtype=float)
    h = hermite_functions(2 * k, t)
    out = np.zeros_like(t)
    for degree, coeff in odd_series(k):
        out += coeff * h[degree]
    return out


def x_even(k: int, x) -> np.ndarray:
    """Antiderivative of sign(t) h_{2k}(t), an even function vanishing at infinity.

    Equals integral_0^|x| h_{2k} minus the half-line integral; computed by
    cumulative panel quadrature on the half line and reflected.
    """
    t = np.asarray(x, dtype=float)
    flat = np.abs(t).ravel()
    order = np.argsort(flat)
    sorted_vals = _cumulative_half_line((2 * k,), flat[order])[0]
    out = np.empty_like(flat)
    out[order] = sorted_vals
    out -= half_line_integral_even(k)
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
    m = _collapse_nodes(state.k_max, rule_scale)
    y = gauss_hermite(m).nodes
    comp = hermite_compensated_weights(m)
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


def manifest_json_reference(manifest) -> bytes:
    """manifest.json through the generic renderer alone, one _json_text
    dispatch per value: the oracle of verify.manifest_to_json_bytes."""
    obj = {
        "version": manifest.version,
        "config": _config_dict(manifest.config),
        "reports": [
            {
                "estimate_id": r.estimate_id,
                "parameters": dict(r.parameters),
                "samples": [[lab, x] for lab, x in r.samples],
                "sup_ratio": r.sup_ratio,
                "tolerance": r.tolerance,
                "passed": r.passed,
                "status": r.status,
            }
            for r in manifest.reports
        ],
        "wall_time_s": dict(manifest.wall_time_s),
    }
    return (_json_text(obj) + "\n").encode("ascii")
