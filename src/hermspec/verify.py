"""The estimate harness: each smoothing identity or bound as a reproducible check.

Every check that draws random trial states draws each from its own
standard-library random.Random, seeded by a stream key rooted at the config
seed (Box-Muller turns its words into Gaussian coefficients; _trial_parts),
computes the relevant ratios, and folds the result into an EstimateReport.  Equality checks compare against exact targets two-sided;
inequality checks test a fixed bound plus a log-log growth trend, since
the underlying constants are existential.  A report may only read "passed"
when every constituent integral survived a rule-doubling gate; otherwise the
status is "inconclusive", never a silent pass.

The bounds in CHECKS are empirical: they were calibrated from the scans
themselves at the default configuration and carry generous headroom.  They
are thresholds for regression detection, not claimed sharp constants.
"""

from __future__ import annotations

import json
import math
import numbers
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .antideriv import (
    merge_identity_holds,
    norm_sq_quadrature_all,
    norm_sq_routes_all,
)
from .errors import CapabilityError
from .hermite import (
    binom_reflection_holds,
    eval_laguerre,
    gamma_duplication_residual,
    hermite_functions,
    laguerre_exp_integral,
    laguerre_hermite_bridge_residual,
)
from .quadrature import (
    MAX_HERMITE_NODES,
    MAX_LAGUERRE_NODES,
    TWO_PI,
    gauss_legendre_panels,
    gauss_rule,
    radial_rule_panels,
    truncation_radius,
)
# the writing half of the manifest, re-exported: callers such as
# perfbench/child.py read a run's serialization from verify
from .render import CSV_HEADER, RunManifest, emit_table, manifest_to_json_bytes  # noqa: F401
from . import spectral
from .spectral import (
    enumerate_multiindices,
    kernel_diagonals,
    level_tops,
    sobolev_ladder_form,
    sobolev_twisted_form,
)

FOUR_PI = 2.0 * TWO_PI

# growth-trend threshold: least-squares slope of log(ratio) vs log(k)
TREND_SLOPE_MAX = 0.05

# rule-doubling gates: |fine - coarse| <= GATE_TOL (1 + |fine|); also the
# relative slack of the below-sharp predicates
GATE_TOL = 1e-9


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters, all integers; the seed fixes every pseudo-random draw."""

    k_max: int = 20
    trials: int = 16
    seed: int = 42

    def __post_init__(self):
        for name, least in (("k_max", 0), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one check: labeled ratios, their sup, and the verdict."""

    check: str
    parameters: dict
    samples: tuple
    sup_ratio: float
    tolerance: float
    status: str

    def __post_init__(self):
        if self.check not in CHECKS:
            raise ValueError(f"unknown check {self.check!r}")
        if self.status not in ("passed", "failed", "inconclusive"):
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def passed(self) -> bool:
        return self.status == "passed"


class _Verdict:
    """One check's verdict by name: require records a predicate and gate a
    rule-doubling (or two-route) gate.  Each name that does not hold is kept
    once, in first-failure order; route_drift is the largest
    |fine - coarse| / |fine| of every gate, where fine != 0, and None until
    a gate runs."""

    def __init__(self):
        self.failed, self.unstable, self.route_drift = {}, {}, None

    def require(self, name: str, holds) -> None:
        # a bool or a bool array; a comparison with NaN is False, so it fails
        if not (holds.all() if isinstance(holds, np.ndarray) else holds):
            self.failed[name] = None

    def gate(self, name: str, coarse, fine):
        """Holds where |fine - coarse| <= GATE_TOL (1 + |fine|).  Returns where
        it held, a bool or (for arrays) a bool array; the name is kept unless
        it held everywhere.  A NaN neither holds nor raises route_drift."""
        drift, size = np.abs(np.subtract(fine, coarse)), np.abs(fine)
        held = drift <= GATE_TOL * (1.0 + size)
        rel = drift / np.where(size > 0, size, np.inf)
        self.route_drift = float(np.fmax.reduce(rel, axis=None, initial=self.route_drift or 0.0))
        if not held.all():
            self.unstable[name] = None
        return held if held.ndim else bool(held)

    def report(self, check, parameters, samples, tolerance) -> EstimateReport:
        """Inconclusive when a gate did not hold or there are no samples, else
        failed or passed; what did not hold is named under "failed" and
        "unstable", and a check that ran a gate records its route_drift."""
        samples = tuple((str(lab), float(r)) for lab, r in samples)
        if not samples:
            self.unstable["no_samples"] = None
        parameters = dict(parameters)
        if self.route_drift is not None:
            parameters["route_drift"] = self.route_drift
        for key, names in (("failed", self.failed), ("unstable", self.unstable)):
            if names:
                parameters[key] = ",".join(names)
        status = "inconclusive" if self.unstable else "failed" if self.failed else "passed"
        sup = float(max((r for _, r in samples), default=0.0))
        return EstimateReport(check, parameters, samples, sup, float(tolerance), status)


def trend_slope(pairs) -> float:
    """Least-squares slope of log(sup ratio) against log(k).

    The fit runs on the running supremum, restricted to the upper half of the
    scanned range and past its first level (level 0 or, for the kernel
    scans, level 1).  Both guards matter: several per-level sequences oscillate
    with parity while staying bounded (a raw fit reads the alternation as
    growth), and others step up once and then sit on an exact plateau (a
    full-range fit reads the single low start as growth).  A genuine power
    law k^p survives both reductions with slope p, so the test keeps its
    sensitivity to slow growth.
    """
    pairs = sorted(pairs)
    k_lo = max(pairs[0][0] + 1, pairs[-1][0] // 2) if pairs else 0
    sup = 0.0
    xs = []
    ys = []
    for k, r in pairs:
        sup = max(sup, r)
        if k >= k_lo and sup > 0:
            xs.append(math.log(k))
            ys.append(math.log(sup))
    if len(xs) < 2:
        return 0.0
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# memos


def clear_caches() -> None:
    """Drop every memo, for honest re-runs: the Gauss rules (the compensated
    Gauss-Hermite rules among them), the level index tuples and the
    level-spectrum tables."""
    gauss_rule.cache_clear()
    spectral._level_indices.cache_clear()
    spectral.level_spectrum.cache_clear()


def _require_k_max(cfg: ScanConfig, key: str) -> None:
    """Raise before any work when cfg.k_max is past the k_max limit of key's row."""
    row = CHECKS[key]
    if row.k_max_limit is not None and cfg.k_max > row.k_max_limit:
        raise CapabilityError(
            f"{key} is supported up to k_max = {row.k_max_limit}: {row.k_max_reason}")


def _row_key(key: str, refusal: str) -> str:
    """key when CHECKS has a row for it; a library argument that names no
    row is refused before any work."""
    if key not in CHECKS:
        raise ValueError(refusal)
    return key


def _ground_top(dw: int, weight_power: float) -> float:
    """Level 0's top under |x_w|^(-weight_power) on dw weighted axes: the
    ground state's weighted mean, Gamma(dw/2 - weight_power/2) / Gamma(dw/2)."""
    return math.gamma((dw - weight_power) / 2.0) / math.gamma(dw / 2.0)


def _trial_parts(cfg: ScanConfig, name: str, size: int, unit: bool = False,
                 prefix: tuple = (), trials: int | None = None) -> tuple:
    """Every trial's real and imaginary coefficient parts, one row per trial
    t < trials (default cfg.trials); with unit, each row is scaled to unit norm.

    Trial t's row comes from its own random.Random, seeded by the stream key
    repr((seed, CHECKS[name].stream, *prefix, t)): 16 bytes per coefficient,
    two little-endian 64-bit words whose top 53 bits give u1, u2 in [0, 1).
    Box-Muller in polar form, sqrt(-2 log1p(-u1)) e^(2 pi i u2), makes the
    two parts independent standard normals; 1 - u1 is in (0, 1], so none is
    infinite.  random is loaded with numpy, so no draw imports a module.
    """
    key = (int(cfg.seed), CHECKS[name].stream, *prefix)
    trials = cfg.trials if trials is None else trials
    words = np.frombuffer(b"".join(
        random.Random(repr((*key, t))).getrandbits(128 * size).to_bytes(16 * size, "little")
        for t in range(trials)), "<u8").reshape(trials, size, 2)
    u = (words >> 11) * 2.0 ** -53
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[..., 0])), TWO_PI * u[..., 1]
    re, im = radius * np.cos(angle), radius * np.sin(angle)
    if unit:
        norm = np.sqrt(np.sum(re * re + im * im, axis=1))[:, None]
        re, im = re / norm, im / norm
    return re, im


# ---------------------------------------------------------------------------
# identity checks


def check_odd_identity(cfg: ScanConfig) -> EstimateReport:
    """Time-averaged inverse-square functional on odd 1D states.

    The full functional over a period must equal 4*pi times the squared norm,
    and each level must contribute 2*pi times twice its squared coefficient.
    Each odd level's 1x1 form <h_k, x^(-2) h_k> comes from one Hermite table
    of h_k / x (spectral.odd_inverse_squares), on the configured and on the
    doubled rule.
    """
    _require_k_max(cfg, "odd_identity")
    tol = CHECKS["odd_identity"].tolerance
    per_level_tol = 1e-9
    mode_cap = 2 * cfg.k_max + 1
    # in 1D each odd level k holds the single mode (k,)
    ks = range(1, mode_cap + 1, 2)
    re, im = _trial_parts(cfg, "odd_identity", len(ks), unit=True)
    sq = np.hypot(re, im) ** 2

    def level_terms(scale):
        # g |c|^2 per trial and level, g each odd level's 1x1 form
        g = spectral.odd_inverse_squares(mode_cap, scale)
        return re * (g * re) + im * (g * im)

    verdict = _Verdict()
    lv1, lv2 = level_terms(1.0), level_terms(2.0)
    verdict.gate("levels", lv1, lv2)
    verdict.require("per_level", np.abs(lv1 - 2.0 * sq) <= per_level_tol)
    # every trial's functional on each rule
    v1, v2 = (TWO_PI * np.array([math.fsum(row) for row in lv]) for lv in (lv1, lv2))
    verdict.gate("functional", v1, v2)
    samples = []
    for t in range(cfg.trials):
        ratio = v1[t] / math.fsum(sq[t])
        samples.append((f"trial={t:02d}/functional", ratio))
        verdict.require("identity", abs(ratio - FOUR_PI) <= tol * FOUR_PI)
        samples += [(f"trial={t:02d}/level k={k:02d}", v)
                    for k, v in zip(ks, lv1[t] / (2.0 * sq[t]))]
    params = {
        "n": 1,
        "delta": 1.0,
        "mode_cap": mode_cap,
        "target": FOUR_PI,
        "per_level_tolerance": per_level_tol,
    }
    return verdict.report("odd_identity", params, samples, tol)


def _radial_mode_integrals(top, delta, R, n_panels, nodes_pp) -> np.ndarray:
    """Weighted 3D integrals of the lifted unit modes h_d(|x|)^2 / (2 pi |x|^2),
    one per degree d <= top, from one Hermite table on the radial rule.

    The integrand is radial, so its angular integral is exactly 4 pi and each
    integral is 2 sum_i w_i r_i^(-2 delta) h_d(r_i)^2 on n_panels uniform
    Gauss-Legendre panels over [0, R].  At odd d, h_d(r)^2 / r^2 is smooth at
    0, so the rule needs no grading; the even entries are never read.  A
    trial's level is its entry times |a|^2.  The full 3D integral of each
    lifted mode, on a graded spherical product rule, is the tests' reference
    for this route.
    """
    r, w = gauss_legendre_panels(0.0, R, n_panels, nodes_pp)
    h = hermite_functions(top, r)
    return 2.0 * ((h * h) @ (w * r ** (-2.0 * delta)))


def check_radial_3d_identity(cfg: ScanConfig) -> EstimateReport:
    """Same inverse-square identity through the 3D radial lift.

    An odd line state g lifts to the radial state g(|x|)/(sqrt(2 pi) |x|); the
    normalization is fixed by requiring equal norms, which is validated by
    quadrature on the doubled radial rule before the identity itself is
    trusted.  A trial that fails the
    validation ends the scan as inconclusive, with the failure in the
    parameters under "error".
    """
    _require_k_max(cfg, "radial_3d_identity")
    tol = CHECKS["radial_3d_identity"].tolerance
    corr_tol = 1e-10
    mode_cap = 2 * cfg.k_max + 1
    R = truncation_radius(mode_cap, 3)
    # panels about one oscillation of the top mode's square wide; the floor
    # of 20 only binds at small k_max
    n_panels = max(20, int(math.ceil(R * math.sqrt(2 * mode_cap + 1) / math.pi)))
    params = {
        "n": 3,
        "delta": 1.0,
        "mode_cap": mode_cap,
        "radial_panels": n_panels,
        "truncation": R,
        "target": FOUR_PI,
        "correspondence_tolerance": corr_tol,
    }
    # every trial's |a_d|^2 over the odd degrees d, one row per trial
    re, im = _trial_parts(cfg, "radial_3d_identity", cfg.k_max + 1, unit=True)
    sq = np.hypot(re, im) ** 2
    # each odd degree's lifted integral: the norm on the doubled rule, then
    # the functional on the configured and the doubled rule
    norm_lift, lift1, lift2 = (
        _radial_mode_integrals(mode_cap, delta, R, panels, nodes_pp)[1::2]
        for delta, panels, nodes_pp in
        ((0.0, 2 * n_panels, 16), (1.0, n_panels, 8), (1.0, 2 * n_panels, 16))
    )
    # every trial's sums: the line norm, the lifted norm and the functional on both rules
    norm1, norm3, v1, v2 = (np.array([math.fsum(row) for row in sq * lift])
                            for lift in (1.0, norm_lift, lift1, lift2))
    v1, v2 = TWO_PI * v1, TWO_PI * v2
    # the trials before the first whose lift fails validation are gated as one array
    miscalibrated = np.abs(np.sqrt(norm3) - np.sqrt(norm1)) > corr_tol * np.sqrt(norm1)
    valid = int(np.argmax(miscalibrated)) if miscalibrated.any() else cfg.trials
    verdict = _Verdict()
    verdict.gate("functional", v1[:valid], v2[:valid])
    ratio = v1[:valid] / norm3[:valid]
    verdict.require("identity", np.abs(ratio - FOUR_PI) <= tol * FOUR_PI)
    samples = []
    for t in range(valid):
        samples += [(f"trial={t:02d}/normsq", norm3[t] / norm1[t]),
                    (f"trial={t:02d}/functional", ratio[t])]
    if valid < cfg.trials:
        samples.append((f"trial={valid:02d}/normsq", norm3[valid] / norm1[valid]))
        params["error"] = (
            "radial lift normalization failed validation: "
            f"3D norm {math.sqrt(norm3[valid]):.15g} vs line norm "
            f"{math.sqrt(norm1[valid]):.15g} (trial {valid}); the identity check "
            "cannot proceed on a miscalibrated correspondence"
        )
        verdict.unstable["lift_normalization"] = None
    return verdict.report("radial_3d_identity", params, samples, tol)


# ---------------------------------------------------------------------------
# boundedness scans


def check_kato(cfg: ScanConfig, n: int, delta: float, axes=None) -> EstimateReport:
    """Per-level sharp constants of the weighted time-average functional.

    For each level k the supremum of the functional over unit states is the
    top eigenvalue s_k of the level gram under the squared weight, read off
    exactly in the radial basis (level_spectrum); the reported ratio is
    2*pi*s_k.  The top of the same level by one Gauss-Laguerre rule is the
    second route that gates each s_k.  Passes on a bounded, trend-free sequence.
    """
    axes = spectral._weight_axes(n, axes)
    tops, quads = level_tops(n, cfg.k_max, 2.0 * delta, axes)
    bound = CHECKS["kato_nd"].bound
    verdict = _Verdict()
    samples = [(f"k={k:02d}", TWO_PI * s_k) for k, s_k in enumerate(tops)]
    verdict.gate("level_top", quads, tops)
    verdict.require("bound", all(ratio <= bound for _, ratio in samples))
    slope = trend_slope((k, ratio) for k, (_, ratio) in enumerate(samples))
    verdict.require("trend", slope <= TREND_SLOPE_MAX)
    s0 = tops[0]
    verdict.require("ground", abs(s0 - _ground_top(len(axes), 2.0 * delta)) <= 1e-9)
    params = {
        "n": n,
        "delta": delta,
        "axes": ",".join(str(c) for c in axes),
        "trend_slope": slope,
        "s0": s0,
    }
    return verdict.report("kato_nd", params, samples, bound)


def check_operator_norms(cfg: ScanConfig, n: int, deltas=(0.5, 1.0)) -> EstimateReport:
    """Boundedness scan of the singular-kernel operator norms over levels.

    The operator acts within the finite level, so each norm is the largest
    singular value of the level matrix under the weight |x|^(-delta) (one
    sided) or its square (two sided): the matrix is symmetric positive
    semidefinite, so that is its exact level top, gated by the level's top
    on one Gauss-Laguerre rule.
    """
    key = _row_key(f"operator_norm_n{n}", "operator norm scan supports n = 3")
    bound = CHECKS[key].bound
    axes = tuple(range(n))
    samples = []
    verdict = _Verdict()
    slopes = {}
    norm0 = -1.0
    for delta in deltas:
        (ones, q1), (twos, q2) = (level_tops(n, cfg.k_max, p, axes) for p in (delta, 2 * delta))
        verdict.gate("level_top", q1, ones)
        verdict.gate("level_top", q2, twos)
        for k, (one, two) in enumerate(zip(ones, twos)):
            samples.append((f"delta={delta:g}/k={k:02d}/one_sided", one))
            samples.append((f"delta={delta:g}/k={k:02d}/two_sided", two))
            verdict.require("bound", one <= bound and two <= bound)
        verdict.require("ground", abs(ones[0] - _ground_top(n, delta)) <= 1e-8)
        if delta == 1.0:
            norm0 = ones[0]
        slopes[delta] = trend_slope(enumerate(ones))
        verdict.require("trend", slopes[delta] <= TREND_SLOPE_MAX)
    params = {
        "n": n,
        "deltas": ",".join(f"{d:g}" for d in deltas),
        "norm0_delta1": norm0,
    }
    for d, s in slopes.items():
        params[f"trend_slope_delta{d:g}"] = s
    return verdict.report(key, params, samples, bound)


def check_kernel_bound(cfg: ScanConfig, n: int) -> EstimateReport:
    """Diagonal level-kernel growth against the dimensional power law."""
    key = _row_key(f"kernel_n{n}", "diagonal kernel scan supports n = 2 or 3")
    bound = CHECKS[key].bound
    edge = math.sqrt(2.0 * cfg.k_max + n)
    r = np.linspace(0.0, edge + 6.0, 160)
    # the ray, then one far point, on the first axis
    pts = np.zeros((r.size + 1, n))
    pts[:, 0] = np.append(r, edge + 8.0)
    diag = np.abs(kernel_diagonals(n, cfg.k_max, pts))
    verdict = _Verdict()
    pairs = [(k, float(diag[k, :-1].max() / k ** (n / 2.0 - 1.0)))
             for k in range(1, cfg.k_max + 1)]
    samples = [(f"k={k:02d}", ratio) for k, ratio in pairs]
    verdict.require("bound", all(ratio <= bound for _, ratio in pairs))
    far_max = float(diag[1:, -1].max(initial=0.0))
    slope = trend_slope(pairs)
    verdict.require("trend", slope <= TREND_SLOPE_MAX)
    # super-Gaussian tail: the diagonal dies far beyond the classical radius
    verdict.require("far_tail", far_max <= 1e-10)
    params = {
        "n": n,
        "grid_points": int(r.size),
        "grid_edge": float(edge + 6.0),
        "trend_slope": slope,
        "far_diagonal_max": far_max,
    }
    return verdict.report(key, params, samples, bound)


def check_morawetz_2d(cfg: ScanConfig) -> EstimateReport:
    """Pointwise-in-space time integral of the squared 2D solution.

    Over one period the time integral at a point is 2*pi times the sum of the
    squared level projections there (phase orthogonality), so the scan needs
    no time quadrature; it maximizes over a polar grid and random states.
    """
    bound = CHECKS["morawetz_2d"].bound
    r = np.linspace(0.0, math.sqrt(2.0 * cfg.k_max + 2.0) + 4.0, 48)[1:]
    theta = 0.35 + TWO_PI * np.arange(16) / 16.0
    pts = np.concatenate(
        [
            np.zeros((1, 2)),
            np.stack(
                [np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
                axis=1,
            ),
        ]
    )
    h0, h1 = (hermite_functions(cfg.k_max, pts[:, c]) for c in range(2))
    base = TWO_PI * float(np.max((h0[0] * h1[0]) ** 2))
    samples = [("ground", base)]
    verdict = _Verdict()
    verdict.require("ground", abs(base - 2.0) <= 1e-10)
    verdict.require("bound", base <= bound)
    re, im = _trial_parts(cfg, "morawetz_2d", (cfg.k_max + 1) * (cfg.k_max + 2) // 2, unit=True)
    # sum over k of |P_k f|^2 per point and trial, one product per level k.
    # Level k's modes in enumerate_multiindices' order, alpha = (k - j, j), j = 0..k,
    # are the rows of h0[k::-1] * h1[:k+1], so each level's block comes from
    # the two 1D tables and no whole-grid mode matrix is built
    acc = 0.0
    for k in range(cfg.k_max + 1):
        r = slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2)
        block = h0[k::-1] * h1[: k + 1]
        acc = acc + np.hypot(re[:, r] @ block, im[:, r] @ block) ** 2
    for t in range(cfg.trials):
        ratio = TWO_PI * float(np.max(acc[t])) / math.fsum(np.hypot(re[t], im[t]) ** 2)
        samples.append((f"trial={t:02d}", ratio))
        verdict.require("bound", ratio <= bound)
    params = {"n": 2, "grid_points": int(pts.shape[0])}
    return verdict.report("morawetz_2d", params, samples, bound)


def check_even_3d(cfg: ScanConfig) -> EstimateReport:
    """Inverse-square functional on fully even 3D states against its sharp value.

    At even k every radial mode has even degree l, with l/2 + 1 fully even
    harmonics, so the fully even part of level k keeps the level's sharp value
    2*pi s_k, s_k its exact top in level_tops(3, k_max, 2), gated by the
    quadrature top.  On that part the form of |x|^(-2) is 2 (I + 4 L^2)^(-1/2),
    mode (j, l) reading 2/(2l + 1): V diag(2/(2l + 1)) V^T, with L^2's
    eigenvectors V from spectral.even_casimir, one eigh per level.  The
    casimir predicate holds every eigenvalue to l(l + 1) for an even l <= k.
    Random fully even states must stay below the largest sharp value; each
    trial's level term is read through V^T c.
    """
    _require_k_max(cfg, "even_3d")
    bound = CHECKS["even_3d"].bound
    verdict = _Verdict()
    levels = range(0, cfg.k_max + 1, 2)
    # the ratios are scale-free, so the trials stay unnormalized; level k's
    # fully even indices, C(k/2 + 2, 2) of them, are the columns lo:hi
    cols = np.cumsum([0] + [(k // 2 + 1) * (k // 2 + 2) // 2 for k in levels])
    re, im = _trial_parts(cfg, "even_3d", int(cols[-1]))
    terms = []
    for k, lo, hi in zip(levels, cols, cols[1:]):
        casimir, V = spectral.even_casimir(k)
        # each eigenvector's degree l, from its eigenvalue l(l + 1)
        l = np.rint((np.sqrt(1.0 + 4.0 * casimir) - 1.0) / 2.0)
        verdict.require("casimir", (l % 2 == 0) & (l <= k) & (
            np.abs(casimir - l * (l + 1.0)) <= GATE_TOL * k * (k + 1.0)))
        weights = 2.0 / (2.0 * l + 1.0)
        if k == 0:
            # the ground state's term: level 0's form is its one entry
            v0 = TWO_PI * float(V[0] ** 2 @ weights)
        # every trial's level term c^H G c at once; G and V are real
        for part in (re[:, lo:hi], im[:, lo:hi]):
            terms.append(((part @ V) ** 2) @ weights)
    samples = [("ground", v0)]
    verdict.require("ground", abs(v0 - FOUR_PI) <= 1e-9 * FOUR_PI)
    verdict.require("bound", v0 <= bound)
    tops, quads = level_tops(3, cfg.k_max, 2.0, (0, 1, 2))
    # each even level's exact top, gated by its quadrature top
    verdict.gate("level_top", [quads[k] for k in levels], [tops[k] for k in levels])
    sharp = TWO_PI * max(tops[k] for k in levels)
    samples += [(f"k={k:02d}", TWO_PI * tops[k]) for k in levels]
    verdict.require("bound", sharp <= bound)
    norm_sq = np.sum(re * re + im * im, axis=1)
    for t, row in enumerate(np.array(terms).T):
        ratio = TWO_PI * math.fsum(row) / norm_sq[t]
        samples.append((f"trial={t:02d}", ratio))
        verdict.require("below_sharp", ratio <= sharp * (1.0 + GATE_TOL))
        verdict.require("bound", ratio <= bound)
    params = {"n": 3, "delta": 1.0, "sharp": sharp}
    return verdict.report("even_3d", params, samples, bound)


def _sobolev_sharp(n: int, indices: list, F: np.ndarray, s: float) -> float:
    """sup over the indices of the flat/oscillator H^s ratio on one rule:
    sqrt of the top eigenvalue of D^(-1/2) F D^(-1/2), (indices, F) a twisted
    Sobolev form and D = diag((2|alpha| + n)^s).  F vanishes between indices
    whose per-axis parities differ, so the top is the largest over the 2^n
    parity blocks, each solved on its own."""
    idx = np.array(indices)
    d = (2.0 * idx.sum(axis=1) + n) ** (-0.5 * s)
    pencil = d[:, None] * F * d[None, :]
    parity = (idx % 2) @ (1 << np.arange(n))
    top = 0.0
    for p in range(1 << n):
        block = np.flatnonzero(parity == p)
        if block.size:
            top = max(top, float(np.linalg.eigvalsh(pencil[np.ix_(block, block)])[-1]))
    return math.sqrt(top)


def check_hermite_sobolev(cfg: ScanConfig, s: float) -> EstimateReport:
    """Flat Bessel norm against the oscillator Sobolev norm, ratio bounded.

    Each family (n = 1 up to k_max, n = 2 up to min(k_max, 12)) reports its
    sharp ratio, the top of its form pencil: at s = 1 on the exact ladder
    form, at s = 1/2 on the quadrature form of the doubled rule, gated
    against the configured rule.  With lambda_n = n (sqrt(n^2 + 4) - n) / 2,
    the largest lambda with -(1 - lambda) Lap + |x|^2 >= lambda (its ground
    energy is n sqrt(1 - lambda)), the ratio's supremum over every state at
    s = 1 is lambda_n^(-1/2) (sqrt(phi) at n = 1), and t -> t^(1/2) is
    operator monotone, so at s = 1/2 it is at most lambda_n^(-1/4)
    (Loewner-Heinz): the limit and heinz predicates.  Its
    modes (n = 1) and four random states are rows of one draw matrix, read
    against the same forms; at s = 1/2 each row keeps the flat norm's own
    doubling gate and a row whose gate trips is skipped.  Every other row
    must stay below its family's sharp value.
    """
    key = _row_key({0.5: "sobolev_s05", 1.0: "sobolev_s10"}.get(s, ""), "s must be 1/2 or 1")
    bound = CHECKS[key].bound
    samples = []
    verdict = _Verdict()
    k2 = min(cfg.k_max, 12)
    families = {1: cfg.k_max, 2: k2}
    # the quadrature's two rules; at s = 1 the one exact form has none
    scales = () if s == 1.0 else (1.0, 2.0)
    # each family's forms, read by its sharp value and its rows
    forms = {n: [sobolev_twisted_form(n, k, s, r) for r in scales] or [sobolev_ladder_form(n, k)]
             for n, k in families.items()}
    sharp = {}
    for n in families:
        *coarse, sharp[n] = (_sobolev_sharp(n, indices, F, s) for indices, F in forms[n])
        if coarse:
            verdict.gate("sharp", coarse[0], sharp[n])
        samples.append((f"n={n}/sharp", sharp[n]))
    # lambda_n^(-s/2), lambda_n = n (sqrt(n^2 + 4) - n) / 2: the supremum at
    # s = 1, and its square root by Loewner-Heinz at s = 1/2
    closed = {n: (n * (math.sqrt(n * n + 4.0) - n) / 2.0) ** (-s / 2.0) for n in families}
    closed_key = "heinz" if scales else "limit"
    verdict.require(closed_key, all(sharp[n] <= closed[n] * (1.0 + GATE_TOL) for n in families))
    verdict.require("bound", max(sharp.values()) <= bound)
    for n, k in families.items():
        # the rows run over |alpha| <= k, level by level, as enumerate_multiindices lists them
        sizes = [len(enumerate_multiindices(n, j)) for j in range(k + 1)]
        degree = np.repeat(np.arange(k + 1), sizes)
        re, im = _trial_parts(cfg, key, degree.size, unit=True, prefix=(n,),
                              trials=4)
        labels = [f"n={n}/trial={t:02d}" for t in range(4)]
        if n == 1:
            # every mode shares the rule of the n = 1 trials
            re = np.vstack([np.eye(degree.size), re])
            im = np.vstack([np.zeros((degree.size, degree.size)), im])
            labels = [f"n=1/mode k={j:02d}" for j in range(k + 1)] + labels
        *coarse, bess_sq = (spectral._quadratic_rows(F, re, im) for _, F in forms[n])
        held = verdict.gate("bessel_norm", coarse[0], bess_sq) if coarse else [True] * len(labels)
        herm_sq = (re * re + im * im) @ (2.0 * degree + n) ** s
        for label, b_sq, h_sq, gated in zip(labels, bess_sq, herm_sq, held):
            if not gated:
                continue
            ratio = math.sqrt(b_sq) / math.sqrt(h_sq)
            samples.append((label, ratio))
            verdict.require("below_sharp", ratio <= sharp[n] * (1.0 + GATE_TOL))
            verdict.require("bound", ratio <= bound)
    params = {
        "s": s,
        "k_max_2d": k2,
        "sharp": max(sharp.values()),
        closed_key: {f"n={n}": closed[n] for n in families},
        closed_key + "_gap": {f"n={n}": closed[n] - sharp[n] for n in families},
    }
    return verdict.report(key, params, samples, bound)


def check_collapse_9d(cfg: ScanConfig) -> EstimateReport:
    """Triple-diagonal trace functional against the squared oscillator energy.

    The functional is 2 pi times the sum over levels of c^H E_k c, E_k the
    level's collapse form (spectral._collapse_forms), and the energy is
    sum (2|alpha| + 9)^2 |c_alpha|^2.  The ground state and the trials are
    rows of one draw matrix, read against the forms at the configured and at
    the doubled rule.
    """
    bound = CHECKS["collapse_9d"].bound
    k_cap = min(cfg.k_max, 3)
    trials = min(cfg.trials, 8)
    verdict = _Verdict()
    # level k's indices, in enumerate_multiindices' order, are the columns cols[k]:cols[k + 1]
    sizes = [len(enumerate_multiindices(9, k)) for k in range(k_cap + 1)]
    cols = np.cumsum([0] + sizes)
    re, im = _trial_parts(cfg, "collapse_9d", int(cols[-1]), unit=True, trials=trials)
    # the ground state, the unit coefficient of (0,...,0), is row 0
    re, im = np.vstack([np.eye(1, cols[-1]), re]), np.vstack([np.zeros((1, cols[-1])), im])

    w1, w2 = (TWO_PI * sum(spectral._quadratic_rows(E, re[:, lo:hi], im[:, lo:hi])
                           for E, lo, hi in zip(forms, cols, cols[1:]))
              for forms in spectral._collapse_forms(k_cap, (1.0, 2.0)))
    verdict.gate("trace_norm", w1, w2)
    target = TWO_PI * 3.0 ** -1.5 * math.pi ** -3
    verdict.require("ground", abs(w1[0] - target) <= 1e-8)
    energy_sq = (re * re + im * im) @ (2.0 * np.repeat(np.arange(k_cap + 1), sizes) + 9.0) ** 2
    ratios = w1 / energy_sq
    verdict.require("bound", ratios <= bound)
    samples = [("ground", ratios[0])] + [(f"trial={t:02d}", r) for t, r in enumerate(ratios[1:])]
    params = {"n": 9, "ground_target": target}
    # the capped level and trial count, where the cap bites
    if k_cap != cfg.k_max:
        params["k_max"] = k_cap
    if trials != cfg.trials:
        params["trials"] = trials
    return verdict.report("collapse_9d", params, samples, bound)


# ---------------------------------------------------------------------------
# closed-form ledgers


def check_antideriv_norms(cfg: ScanConfig) -> EstimateReport:
    """Three-route agreement of the antiderivative norms, with the even bound."""
    _require_k_max(cfg, "antideriv_norms")
    tol = CHECKS["antideriv_norms"].tolerance
    samples = []
    verdict = _Verdict()
    # every k on one rule per refinement; refine 2 is the doubling gate
    odd1, even1 = norm_sq_quadrature_all(cfg.k_max)
    odd2, even2 = norm_sq_quadrature_all(cfg.k_max, refine=2)
    routes = norm_sq_routes_all(cfg.k_max)
    verdict.gate("odd_quadrature", odd1, odd2)
    verdict.gate("even_quadrature", even1, even2)
    for k in range(cfg.k_max + 1):
        # the odd closed form is 2 at every k
        orr = float(routes.odd_recursive[k])
        oe = float(routes.odd_expansion[k])
        oq = float(odd1[k])
        verdict.require("odd_routes", abs(orr - 2.0) <= tol and abs(oe - 2.0) <= tol
                        and abs(oq - 2.0) <= tol and abs(oq - orr) <= tol)
        samples.append((f"odd k={k:02d}", oq))
        ec = float(routes.even_closed[k])
        er = float(routes.even_recursive[k])
        eq = float(even1[k])
        verdict.require("even_routes",
                        abs(er - ec) <= tol and abs(eq - ec) <= tol and abs(eq - er) <= tol)
        verdict.require("even_bound", ec <= 3.0 + 1e-12)
        samples.append((f"even k={k:02d}", eq))
        verdict.require("merge", routes.merge[k] <= 1e-12)
    if cfg.k_max >= 40:
        # the even family settles toward 2; spot the gap at 40
        verdict.require("even_limit", abs(routes.even_closed[40] - 2.0) <= 0.05)
    params = {
        "even_bound": 3.0,
        "limit_gap_at_kmax": abs(float(routes.even_closed[cfg.k_max]) - 2.0),
    }
    return verdict.report("antideriv_norms", params, samples, tol)


def check_appendix_identities(cfg: ScanConfig) -> EstimateReport:
    """Bundled support identities: the polynomial bridge on integer
    coefficients, exact or failed (with its deliberate broken-prefactor
    control), the exponential integral, duplication, reflection and merge."""
    tol = CHECKS["appendix_identities"].tolerance
    control_min = 0.3
    dup_tol = 1e-12
    samples = []
    verdict = _Verdict()
    for k in range(11):
        res = laguerre_hermite_bridge_residual(k)
        samples.append((f"bridge k={k:02d}", res))
        verdict.require("bridge", res == 0.0)
    control = laguerre_hermite_bridge_residual(1, drop_factor_two=True)
    samples.append(("bridge-control k=01", control))
    verdict.require("bridge_control", control >= control_min)
    # every (alpha, beta) pair, alpha-major
    alphas, betas = np.repeat([0.5, 1.0, 1.5], 3), np.tile([0.7, 1.0, 2.0], 3)
    for k in (0, 1, 2, 4, 6):
        quads = []
        for m in (k + 6, 2 * (k + 6)):
            # v = beta u: plain Gauss-Laguerre is exact on each polynomial.  One
            # recurrence runs every pair's row; one dot per row keeps each the
            # float of a per-pair evaluation
            nodes, weights = gauss_rule("laguerre", m)
            vals = eval_laguerre(k, alphas[:, None], nodes / betas[:, None])
            quads.append([np.dot(weights, row) / beta for row, beta in zip(vals, betas)])
        verdict.gate("laguerre_quadrature", *quads)
        for alpha, beta, quad in zip(alphas.tolist(), betas.tolist(), quads[0]):
            closed = laguerre_exp_integral(k, alpha, beta)
            res = abs(closed - quad) / (1.0 + abs(closed))
            samples.append((f"laguerre k={k}/a={alpha:g}/b={beta:g}", res))
            verdict.require("laguerre", res <= tol)
    for z in (0.3, 0.5, 1.1, 2.7, 5.5, 9.25):
        res = gamma_duplication_residual(z)
        samples.append((f"duplication z={z:g}", res))
        verdict.require("duplication", res <= dup_tol)
    top = min(cfg.k_max, 20)
    verdict.require("reflection_merge", all(merge_identity_holds(top)) and all(
        binom_reflection_holds(p, 2, k) for p in (1, -1) for k in range(top + 1)))
    samples.append(("reflection+merge exact", 0.0))
    params = {
        "control_min_residual": control_min,
        "duplication_tolerance": dup_tol,
        "exact_k_max": top,
    }
    return verdict.report("appendix_identities", params, samples, tol)


def negative_control_divergence(cfg: ScanConfig) -> EstimateReport:
    """Divergence demonstration: 2D inverse-square weight on the ground state.

    The weighted integral is log-divergent at the origin, so deepening the
    graded panels must keep growing the value; the control passes when two
    panel doublings at least double it, and that factor is its tolerance.
    """
    required = 2.0
    R = truncation_radius(0, 2)
    values = []
    samples = []
    for n_panels in (40, 80, 160):
        r, w = radial_rule_panels(2, 1.0, R, n_panels, 12, allow_divergent=True)
        # |Phi_0(x)|^2 = e^(-|x|^2) / pi is radial: its angular integral is 2 e^(-r^2)
        v = 2.0 * float(np.dot(w, np.exp(-r * r)))
        values.append(v)
        samples.append((f"panels={n_panels:03d}", v))
    verdict = _Verdict()
    verdict.require("growth", values[0] > 0 and values[1] > values[0] and values[2] > values[1])
    verdict.require("doubling", values[2] >= required * values[0])
    params = {
        "n": 2,
        "delta": 1.0,
        "negative_control": True,
        "growth_factor": values[2] / values[0] if values[0] else 0.0,
    }
    # a divergent integral has no doubling gate: growth itself is the verdict
    return verdict.report("negative_control", params, samples, required)


# ---------------------------------------------------------------------------
# the check table


@dataclass(frozen=True)
class Check:
    """One check: run(cfg, options) returns its report, command is the command
    that runs it (None: only --negative-controls does), stream is the index in
    its stream keys (seed, stream, ..., trial), and k_max_limit is its largest
    k_max, for k_max_reason.  An equality check has a two-sided tolerance on
    its target; an inequality check has a one-sided bound on its sup ratio.
    A gated check builds its configured rule at scale 1 and its doubled rule
    at scale 2."""

    run: Callable
    command: str | None
    stream: int
    k_max_limit: int | None = None
    k_max_reason: str = ""
    tolerance: float | None = None
    bound: float | None = None


# the level scans' rows are level_spectrum's own cap
_LEVEL_SCAN_LIMIT = dict(
    k_max_limit=2 * MAX_LAGUERRE_NODES - 1,
    k_max_reason=f"its Gauss-Laguerre rules are limited to {MAX_LAGUERRE_NODES} nodes")

# Every check by its key, in the order `all` runs them.  The streams fix
# every trial row: the kernel and Sobolev pairs share one each.  The
# k_max_limit rows are read before any work: antideriv_norms, odd_identity,
# radial_3d_identity and even_3d read their own, and the command line reads
# those of every selected check before the first check runs.  The bounds sit
# 27% (even-3d) to 4x (collapse) above the scan records at the default
# configuration: kato 4*pi, kernel 0.32 (n=2) and 0.19 (n=3), operator 2.0,
# morawetz 2.0, even-3d 4*pi (the sharp value at every even level), sobolev 1.1231 (s=1/2)
# and 1.2720 (s=1; the sharp values of the n = 1 family), collapse 4.81e-4.
# Besides its bound, each Sobolev sharp value is held below its closed form:
# the limit predicate reads the s = 1 supremum (sqrt of the golden ratio at
# n = 1), and heinz its Loewner-Heinz square root at s = 1/2.
CHECKS = {
    # scanned at every k_max: the gate's drift is near 1.9e-10 up to 479,
    # 5.1e-10 at this k_max and 1.2e-9 at 481; at 482 the gate trips
    "antideriv_norms": Check(
        lambda cfg, opt: check_antideriv_norms(cfg), "norms", 9,
        k_max_limit=480,
        k_max_reason="its configured rule, two Gauss-Legendre panels per unit length, stops "
        "resolving the top integrand: past this k_max its doubling gate trips",
        tolerance=1e-8),
    "odd_identity": Check(
        lambda cfg, opt: check_odd_identity(cfg), "identities", 0,
        # the top mode 2 k_max + 1 reads a (2 k_max + 2)-node Hermite rule,
        # and its doubled rule has 4 k_max + 4 nodes
        k_max_limit=(MAX_HERMITE_NODES - 4) // 4,
        k_max_reason=f"the doubled Hermite rule of its top mode is limited to "
        f"{MAX_HERMITE_NODES} nodes",
        tolerance=1e-7),
    # the lifted norms hold to 3.1e-14 at 400 and 4.2e-14 at 500, against a
    # 1e-10 validation tolerance; the limit is odd_identity's
    "radial_3d_identity": Check(
        lambda cfg, opt: check_radial_3d_identity(cfg), "identities", 1, k_max_limit=363,
        k_max_reason="the Hermite table of its doubled radial rule grows as k_max^2, "
        "to 109 MB at this k_max",
        tolerance=1e-6),
    "appendix_identities": Check(
        lambda cfg, opt: check_appendix_identities(cfg), "identities", 10, tolerance=1e-9),
    "kato_nd": Check(lambda cfg, opt: check_kato(cfg, opt["n"], opt["delta"]), "kato", 2,
                     **_LEVEL_SCAN_LIMIT, bound=20.0),
    "kernel_n2": Check(lambda cfg, opt: check_kernel_bound(cfg, 2), "kernel", 3, bound=0.5),
    "kernel_n3": Check(lambda cfg, opt: check_kernel_bound(cfg, 3), "kernel", 3, bound=0.5),
    "operator_norm_n3": Check(lambda cfg, opt: check_operator_norms(cfg, 3), "kernel", 4,
                              **_LEVEL_SCAN_LIMIT, bound=3.0),
    "morawetz_2d": Check(lambda cfg, opt: check_morawetz_2d(cfg), "morawetz", 5, bound=4.0),
    # one eigh per even level, the largest C(k_max/2 + 2, 2) = 861 rows at
    # this k_max: about 1 s for every level, cold, on one BLAS thread
    "even_3d": Check(lambda cfg, opt: check_even_3d(cfg), "even3d", 6, k_max_limit=80,
                     k_max_reason="the limit bounds the size of its level forms", bound=16.0),
    "sobolev_s05": Check(lambda cfg, opt: check_hermite_sobolev(cfg, 0.5), "sobolev", 7,
                         bound=2.0),
    "sobolev_s10": Check(lambda cfg, opt: check_hermite_sobolev(cfg, 1.0), "sobolev", 7,
                         bound=2.0),
    "collapse_9d": Check(lambda cfg, opt: check_collapse_9d(cfg), "collapse", 8, bound=0.002),
    "negative_control": Check(lambda cfg, opt: negative_control_divergence(cfg), None, 11),
}


# ---------------------------------------------------------------------------
# reading a manifest back (render.py writes it)


def manifest_from_json_bytes(data: bytes) -> RunManifest:
    """The run record that manifest_to_json_bytes wrote, every field as written."""
    obj = json.loads(data.decode("ascii"))
    reports = tuple(EstimateReport(**{**r, "samples": tuple(map(tuple, r["samples"]))})
                    for r in obj["reports"])
    return RunManifest(**{**obj, "config": ScanConfig(**obj["config"]), "reports": reports})
