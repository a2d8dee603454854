"""Reference routes that no run calls, kept as the tests' oracles.

Each re-derives a quantity that hermspec computes by a faster route, so the
tests hold the two against each other.
"""

import numpy as np

from hermspec import hermite_functions
from hermspec.spectral import (
    _level_grid,
    _mode_matrix,
    _tensor_free_axes,
    _weight_axes,
    enumerate_multiindices,
)
from hermspec.verify import _config_dict, _json_text


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
