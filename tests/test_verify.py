"""Checks of the estimate harness itself: verdict logic, determinism,
serialization round-trips, and each scan at desk scale."""

import dataclasses
import hashlib
import inspect
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from hermspec.errors import CapabilityError
from hermspec import antideriv, hermite, spectral, verify
from hermspec.hermite import hermite_functions
from hermspec.quadrature import MAX_HERMITE_NODES, truncation_radius
from hermspec.verify import (
    CHECKS,
    CSV_HEADER,
    EstimateReport,
    RunManifest,
    ScanConfig,
    check_antideriv_norms,
    check_appendix_identities,
    check_even_3d,
    check_hermite_sobolev,
    check_kato,
    check_kernel_bound,
    check_morawetz_2d,
    check_odd_identity,
    check_operator_norms,
    check_collapse_9d,
    check_radial_3d_identity,
    clear_caches,
    emit_table,
    manifest_from_json_bytes,
    manifest_to_json_bytes,
    negative_control_divergence,
    trend_slope,
)

from oracles import (
    bessel_sobolev_norm,
    collapse_trace_norm,
    evaluate_state,
    gaussian_draws,
    hermite_sobolev_norm,
    integrate_radial_3d,
    kernel_diagonal,
    ToleranceError,
    kernel_diagonal_ratio,
    make_state,
    oscillator_energy_sq,
    project,
    random_state,
    state_norm_sq,
    stream_words,
    time_avg_levels,
    time_avg_weighted,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

SMALL = ScanConfig(k_max=6, trials=3)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(k_max=-1)
    with pytest.raises(ValueError):
        ScanConfig(trials=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ScanConfig(seed=-1)
    # every field is an integer; numpy's are accepted
    for field in ("k_max", "trials", "seed"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScanConfig(**{field: 2.0})
    assert ScanConfig(k_max=np.int64(3)).k_max == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scan_config_rejects_non_finite_values(bad):
    for field in ("k_max", "trials", "seed"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ScanConfig(**{field: bad})


def test_scan_config_overrides(monkeypatch):
    # a check's tolerance is its CHECKS row's, and a replaced row moves it
    equality = [key for key, row in CHECKS.items() if row.tolerance is not None]
    assert equality == ["antideriv_norms", "odd_identity", "radial_3d_identity",
                        "appendix_identities"]
    cfg = ScanConfig(k_max=4, trials=2)
    runs = {key: CHECKS[key].run for key in equality}
    for key in equality:
        assert runs[key](cfg, {}).tolerance == CHECKS[key].tolerance
        monkeypatch.setitem(CHECKS, key, dataclasses.replace(CHECKS[key], tolerance=1e-30))
        r = runs[key](cfg, {})
        assert (r.tolerance, r.status) == (1e-30, "failed"), key


def test_report_invariants():
    with pytest.raises(ValueError):
        EstimateReport("no_such_check", {}, (), 0.0, 1.0, "passed")
    with pytest.raises(ValueError):
        EstimateReport("kato_nd", {}, (), 0.0, 1.0, "amazing")
    r = EstimateReport("kato_nd", {}, (("k=0", 2.0),), 2.0, 4.0, "passed")
    assert r.sup_ratio == 2.0
    # the verdict is stored once: passed reads the status and cannot be set
    assert r.passed and not EstimateReport("kato_nd", {}, (), 0.0, 1.0, "failed").passed
    with pytest.raises(AttributeError):
        r.passed = False


def test_trend_slope_behaviour():
    flat = [(k, 0.23 if k == 1 else 0.3183) for k in range(1, 21)]
    grow = [(k, 0.1 * k**0.1) for k in range(1, 21)]
    alt = [(k, 2.0 if k % 2 == 0 else 0.67) for k in range(21)]
    assert abs(trend_slope(flat)) < 1e-12
    assert abs(trend_slope(grow) - 0.1) < 1e-6
    assert abs(trend_slope(alt)) < 1e-12
    assert trend_slope([(1, 1.0)]) == 0.0
    assert trend_slope([]) == 0.0
    # the fit drops the first scanned level, here 1, at any length: the one
    # step up is no trend at two and three levels, while k^0.2 growth still is
    for k_top in (2, 3):
        assert abs(trend_slope(flat[:k_top])) < 1e-12
    for k_top in (3, 20):
        grow = [(k, 0.1 * k**0.2) for k in range(1, k_top + 1)]
        assert trend_slope(grow) == pytest.approx(0.2, rel=1e-9)


def test_check_streams_are_pinned():
    # every trial row is drawn from [seed, stream, ...]: a moved stream moves
    # the rows, so each stream stays where the tables were written from
    assert {key: row.stream for key, row in CHECKS.items()} == {
        "odd_identity": 0,
        "radial_3d_identity": 1,
        "kato_nd": 2,
        "kernel_n2": 3,
        "kernel_n3": 3,
        "operator_norm_n3": 4,
        "morawetz_2d": 5,
        "even_3d": 6,
        "sobolev_s05": 7,
        "sobolev_s10": 7,
        "collapse_9d": 8,
        "antideriv_norms": 9,
        "appendix_identities": 10,
        "negative_control": 11,
    }


def test_verdict_recorder_names_what_did_not_hold():
    v = verify._Verdict()
    v.require("holds", True)
    v.require("nan", math.nan <= 1.0)
    v.require("array", np.array([1.0, math.nan]) <= 2.0)
    v.require("nan", False)
    v.gate("agrees", 1.0, 1.0 + 1e-12)
    v.gate("nan_drift", 1.0, math.nan)
    v.gate("nan_drift", 2.0, 1.0)
    assert list(v.failed) == ["nan", "array"]
    assert list(v.unstable) == ["nan_drift"]
    # the largest |fine - coarse| / |fine|; a NaN drift does not raise it
    assert v.route_drift == 1.0
    r = v.report("kato_nd", {"n": 3}, [("k=00", 2.0)], 20.0)
    assert r.status == "inconclusive"
    # a report whose check ran a gate carries its route_drift
    assert r.parameters == {"n": 3, "route_drift": 1.0, "failed": "nan,array",
                            "unstable": "nan_drift"}

    failing = verify._Verdict()
    failing.require("bound", 3.0 <= 2.0)
    assert failing.report("kato_nd", {}, [("k=00", 3.0)], 2.0).parameters == {"failed": "bound"}
    # a passing report with no gate gains no key; a report without samples
    # is inconclusive
    assert verify._Verdict().report("kato_nd", {}, [("k=00", 1.0)], 2.0).parameters == {}
    assert verify._Verdict().route_drift is None
    empty = verify._Verdict().report("kato_nd", {}, [], 2.0)
    assert (empty.status, empty.parameters) == ("inconclusive", {"unstable": "no_samples"})


def test_gate_returns_where_it_held():
    v = verify._Verdict()
    # an array gate holds entry by entry; a NaN entry does not hold
    held = v.gate("rows", np.array([1.0, 1.0, 2.0]), np.array([1.0, math.nan, 2.0 + 1e-6]))
    assert held.tolist() == [True, False, False]
    assert v.gate("everywhere", np.ones(2), np.ones(2)).tolist() == [True] * 2
    # a scalar gate returns a bool, also for numpy scalars
    assert v.gate("scalar", np.float64(1.0), np.float64(1.0)) is True
    assert v.gate("scalar_nan", 1.0, math.nan) is False
    assert list(v.unstable) == ["rows", "scalar_nan"]


def test_array_gates_feed_route_drift():
    # an array gate's drift is its largest |fine - coarse| / |fine| over the
    # entries where fine != 0; a NaN or zero entry does not raise it
    v = verify._Verdict()
    v.gate("rows", np.array([[1.0, 0.0], [4.0, math.nan]]), np.array([[1.5, 1e-3], [2.0, 1.0]]))
    assert v.route_drift == 1.0
    v.gate("scalar", 1.0, 1.25)
    assert v.route_drift == 1.0
    v.gate("rows", np.array([0.0, 1.5]), np.array([0.0, 0.25]))
    assert v.route_drift == 5.0
    assert v.gate("no_rows", np.zeros(0), np.zeros(0)).tolist() == []
    assert v.route_drift == 5.0


def test_every_doubled_rule_differs_from_its_configured_rule(monkeypatch):
    # each gated check builds its configured rule at scale 1 and its doubled
    # rule at scale 2, so the gate compares two rules at every k_max it runs at
    for k_max in range(CHECKS["odd_identity"].k_max_limit + 1):
        mode_cap = 2 * k_max + 1
        # both odd_identity rules are exact on its top mode, and fit the node cap
        assert mode_cap <= spectral._odd_nodes(mode_cap, 1.0) < spectral._odd_nodes(
            mode_cap, 2.0) <= MAX_HERMITE_NODES
        for n in (1, 2):
            assert spectral._sobolev_panels(n, k_max, 1.0) < spectral._sobolev_panels(
                n, k_max, 2.0), (n, k_max)
    # collapse_9d stops at level 3; sobolev_s05 has no k_max limit
    for k_cap in range(4):
        assert spectral._collapse_nodes(k_cap, 1.0) < spectral._collapse_nodes(k_cap, 2.0)
    for k_max in range(CHECKS["odd_identity"].k_max_limit + 1, 1000):
        assert spectral._sobolev_panels(1, k_max, 1.0) < spectral._sobolev_panels(1, k_max, 2.0)
    # the radial lift's functional, on (panels, nodes per panel): the norm and
    # the doubled rule share one rule, twice the configured one
    rules = []
    monkeypatch.setattr(verify, "_radial_mode_integrals",
                        lambda top, delta, R, panels, nodes_pp:
                        rules.append((delta, panels, nodes_pp)) or np.zeros(top + 1))
    for k_max in range(CHECKS["radial_3d_identity"].k_max_limit + 1):
        rules.clear()
        check_radial_3d_identity(ScanConfig(k_max=k_max, trials=1))
        (_, norm, nodes_n), (_, coarse, nodes_c), (_, fine, nodes_f) = rules
        assert (norm, nodes_n) == (fine, nodes_f) == (2 * coarse, 2 * nodes_c)
        assert coarse >= 20


def test_no_check_assigns_its_verdict_by_hand():
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(verify))
    checks = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and (node.name.startswith("check_") or node.name == "negative_control_divergence")]
    assert len(checks) == 12
    for check in checks:
        stored = {node.id for node in ast.walk(check)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        assert not stored & {"ok", "stable"}, check.name
    # one gate rule: outside the recorder, the only use of a verdict's names is
    # the lift validation's write, whose 1e-10 tolerance is tighter than
    # GATE_TOL and which ends the trial rows
    names = ("failed", "unstable")
    used, written = [], []
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == "_Verdict":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in names:
                used.append((top.name, node.attr))
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr in names):
                written.append((top.name, node.value.attr, ast.literal_eval(node.slice),
                                type(node.ctx).__name__))
    assert used == [("check_radial_3d_identity", "unstable")]
    assert written == [("check_radial_3d_identity", "unstable", "lift_normalization", "Store")]


def _perturbed_fine_sobolev_rows(monkeypatch):
    # the twisted form on the doubled rule (scale 2) moves by 1e-6, so every
    # flat norm read on it, and the sharp value read on it, moves too
    real = verify.sobolev_twisted_form

    def perturbed(n, k_max, s, scale):
        indices, F = real(n, k_max, s, scale)
        return indices, F * (1.0 + 1e-6) if scale == 2.0 else F

    monkeypatch.setattr(verify, "sobolev_twisted_form", perturbed)


def test_failed_and_unstable_reports_name_their_predicates_and_gates(monkeypatch):
    monkeypatch.setitem(CHECKS, "kato_nd", dataclasses.replace(CHECKS["kato_nd"], bound=1.0))
    r = check_kato(ScanConfig(), 3, 1.0)
    assert r.status == "failed"
    assert r.parameters["failed"] == "bound"
    assert "unstable" not in r.parameters
    # a perturbed fine form fails the sharp gate, and the flat norm's own
    # doubling gate on every row, so no row is reported
    _perturbed_fine_sobolev_rows(monkeypatch)
    r = check_hermite_sobolev(ScanConfig(k_max=44), 0.5)
    assert r.status == "inconclusive"
    assert r.parameters["unstable"] == "sharp,bessel_norm"
    assert "failed" not in r.parameters
    assert [lab for lab, _ in r.samples] == ["n=1/sharp", "n=2/sharp"]


@pytest.mark.parametrize("n, delta, axes", [
    (3, 1.0, None), (2, 0.9, None), (2, 0.25, (0,)), (4, 0.5, (1, 3)), (5, 1.0, (0, 2, 4)),
])
def test_kato_ground_level_is_the_closed_form(n, delta, axes):
    r = check_kato(ScanConfig(k_max=2), n, delta, axes)
    dw = n if axes is None else len(axes)
    closed = math.gamma(dw / 2.0 - delta) / math.gamma(dw / 2.0)
    assert abs(r.parameters["s0"] - closed) <= 1e-13 * closed
    assert "ground" not in r.parameters.get("failed", "")


# ---------------------------------------------------------------------------
# the individual checks at desk scale


def test_odd_identity_small():
    r = check_odd_identity(SMALL)
    assert r.status == "passed"
    assert r.check == "odd_identity"
    funcs = [v for lab, v in r.samples if lab.endswith("functional")]
    assert len(funcs) == SMALL.trials
    for v in funcs:
        assert abs(v - FOUR_PI) <= 1e-7 * FOUR_PI
    levels = [v for lab, v in r.samples if "level" in lab]
    for v in levels:
        # stored as ratio against 2|a_k|^2
        assert abs(v - 1.0) <= 1e-9


def test_odd_identity_node_cap_is_checked_up_front():
    # the top mode 2 k_max + 1 reads a (2 k_max + 2)-node Hermite rule, and its
    # doubled rule, 4 k_max + 4 nodes, is at most 1456
    assert check_odd_identity(ScanConfig(k_max=150, trials=1)).status == "passed"
    with pytest.raises(CapabilityError, match="up to k_max = 363"):
        check_odd_identity(ScanConfig(k_max=364, trials=1))


def test_radial_3d_small():
    r = check_radial_3d_identity(ScanConfig(k_max=4, trials=2))
    assert r.status == "passed"
    for lab, v in r.samples:
        if "functional" in lab:
            assert abs(v - FOUR_PI) <= 1e-6 * FOUR_PI
        else:
            assert abs(v - 1.0) <= 1e-9


def test_radial_lift_norm_holds_on_the_doubled_rule_up_to_the_cap():
    # the validation rule: every odd degree the scans reach (k_max <= 71, the
    # odd_identity cap) lifts to a unit 3D norm far inside corr_tol = 1e-10
    import hermspec.verify as V

    for k_max in (20, 26, 71):
        mode_cap = 2 * k_max + 1
        R = truncation_radius(mode_cap, 3)
        n_panels = max(20, int(math.ceil(R * math.sqrt(2 * mode_cap + 1) / math.pi)))
        lift = V._radial_mode_integrals(mode_cap, 0.0, R, 2 * n_panels, 16)
        assert np.max(np.abs(lift[1::2] - 1.0)) <= 1e-14, k_max


def test_kato_inadmissible_combinations():
    with pytest.raises(ValueError):
        check_kato(SMALL, 2, 1.0)
    with pytest.raises(ValueError):
        check_kato(SMALL, 3, 1.25)
    with pytest.raises(ValueError):
        check_kato(SMALL, 2, 0.5, axes=(0,))
    with pytest.raises(ValueError):
        check_kato(SMALL, 2, 0.5, axes=())
    with pytest.raises(ValueError):
        check_kato(SMALL, 2, 0.5, axes=(0, 5))
    with pytest.raises(ValueError):
        check_kato(SMALL, 2, -0.1)


def test_kato_3d_endpoint():
    r = check_kato(ScanConfig(k_max=8, trials=2), 3, 1.0)
    assert r.status == "passed"
    # ground level is one-dimensional with constant exactly 2
    assert abs(r.parameters["s0"] - 2.0) <= 1e-9
    k0 = dict(r.samples)["k=00"]
    assert abs(k0 - FOUR_PI) <= 1e-8
    assert r.parameters["trend_slope"] <= 0.05


def test_kato_partial_axes():
    # weight on one axis of a 2D problem: admissible for small delta
    r = check_kato(ScanConfig(k_max=5, trials=2), 2, 0.25, axes=(0,))
    assert r.status == "passed"
    assert r.parameters["axes"] == "0"


def test_kato_large_k_exact_route():
    r = check_kato(ScanConfig(k_max=200), 3, 1.0)
    assert r.status == "passed"
    assert len(r.samples) == 201
    # the inverse-square constant is 2 on even levels and 2/3 on odd ones
    for lab, v in r.samples:
        k = int(lab[2:])
        assert v == pytest.approx(FOUR_PI if k % 2 == 0 else FOUR_PI / 3, rel=1e-12)
    assert 0.0 <= r.parameters["route_drift"] <= 1e-11
    with pytest.raises(CapabilityError):
        check_kato(ScanConfig(k_max=300), 3, 1.0)


def test_level_scans_route_disagreement_is_inconclusive(monkeypatch):
    exact = spectral.level_spectrum
    monkeypatch.setattr(spectral, "level_spectrum", lambda *args: spectral.LevelSpectrum(
        exact(*args).exact, exact(*args).quad * (1.0 + 1e-6)))
    cfg = ScanConfig(k_max=3)
    for r in (check_kato(cfg, 3, 1.0), check_operator_norms(cfg, 3)):
        assert r.status == "inconclusive"
        assert r.parameters["route_drift"] == pytest.approx(1e-6, rel=1e-6)


def test_level_gate_sees_a_wrong_mode_below_the_top(monkeypatch):
    # one mode below level 6's top reads above it in the quadrature half only;
    # a gate on the exact maximizer's quadrature value alone cannot see that
    real = spectral.level_spectrum
    k = 6

    def mutated(dw, k_max, weight_power):
        table = real(dw, k_max, weight_power)
        top_l = int(np.argmax(table.exact[k]))
        low_l = next(l for l in range(k % 2, k + 1, 2) if l != top_l)
        quad = table.quad.copy()
        quad[k, low_l] = table.exact[k, top_l] * (1.0 + 1e-6)
        assert quad[k, top_l] == table.quad[k, top_l]
        return spectral.LevelSpectrum(table.exact, quad)

    monkeypatch.setattr(spectral, "level_spectrum", mutated)
    cfg = ScanConfig(k_max=8, trials=1)
    for r in (check_kato(cfg, 3, 1.0), check_operator_norms(cfg, 3), check_even_3d(cfg)):
        assert r.status == "inconclusive", r.check
        assert r.parameters["unstable"] == "level_top"


def test_operator_norms_ground_value():
    r = check_operator_norms(ScanConfig(k_max=4, trials=2), 3)
    assert r.status == "passed"
    assert abs(r.parameters["norm0_delta1"] - 2.0 / math.sqrt(math.pi)) <= 1e-8
    labels = [lab for lab, _ in r.samples]
    assert any("one_sided" in lab for lab in labels)
    assert any("two_sided" in lab for lab in labels)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_bound_rows_match_the_per_level_route(n):
    # oracle: each level's diagonal from its own mode matrix, at the ray and
    # at the far point
    cfg = ScanConfig(k_max=10)
    r = check_kernel_bound(cfg, n)
    edge = math.sqrt(2.0 * cfg.k_max + n)
    ray = np.zeros((160, n))
    ray[:, 0] = np.linspace(0.0, edge + 6.0, 160)
    far = np.zeros((1, n))
    far[0, 0] = edge + 8.0
    samples = dict(r.samples)
    for k in range(1, cfg.k_max + 1):
        want = kernel_diagonal_ratio(n, k, ray)
        assert abs(samples[f"k={k:02d}"] - want) <= 1e-13 * want, k
    far_max = max(float(abs(kernel_diagonal(n, k, far)[0]))
                  for k in range(1, cfg.k_max + 1))
    assert r.parameters["far_diagonal_max"] == pytest.approx(far_max, rel=1e-13)


def test_kernel_bound_small():
    with pytest.raises(ValueError):
        check_kernel_bound(SMALL, 4)
    for n in (2, 4):
        with pytest.raises(ValueError, match="n = 3"):
            check_operator_norms(SMALL, n)
    r = check_kernel_bound(ScanConfig(k_max=10), 2)
    assert r.status == "passed"
    assert r.check == "kernel_n2"
    assert r.parameters["far_diagonal_max"] <= 1e-10
    assert r.sup_ratio <= CHECKS["kernel_n2"].bound


def test_morawetz_ground_state_value():
    r = check_morawetz_2d(ScanConfig(k_max=5, trials=2))
    assert r.status == "passed"
    ground = dict(r.samples)["ground"]
    # 2*pi * |phi_00(0)|^2 = 2*pi / pi = 2
    assert abs(ground - 2.0) <= 1e-10


def _morawetz_grid(k_max: int) -> np.ndarray:
    # the check's polar grid: the origin, then 47 radii on 16 rays
    radii = np.linspace(0.0, math.sqrt(2.0 * k_max + 2.0) + 4.0, 48)[1:]
    theta = 0.35 + TWO_PI * np.arange(16) / 16.0
    return np.concatenate(
        [
            np.zeros((1, 2)),
            np.stack(
                [np.outer(radii, np.cos(theta)).ravel(), np.outer(radii, np.sin(theta)).ravel()],
                axis=1,
            ),
        ]
    )


@pytest.mark.parametrize("seed", [42, 1])
def test_morawetz_trials_match_the_per_level_route(seed):
    # oracle: project each trial on every level and evaluate it on its own
    cfg = ScanConfig(k_max=8, trials=3, seed=seed)
    r = check_morawetz_2d(cfg)
    pts = _morawetz_grid(cfg.k_max)
    assert pts.shape[0] == r.parameters["grid_points"]
    ground = make_state(2, {(0, 0): 1.0})
    expected = {"ground": TWO_PI * float(np.max(np.abs(evaluate_state(ground, pts)) ** 2))}
    for t in range(cfg.trials):
        f = random_state(2, cfg.k_max, [seed, CHECKS["morawetz_2d"].stream, t])
        acc = np.zeros(pts.shape[0])
        for k in range(cfg.k_max + 1):
            acc += np.abs(evaluate_state(project(f, k), pts)) ** 2
        expected[f"trial={t:02d}"] = TWO_PI * float(np.max(acc)) / state_norm_sq(f)
    assert [lab for lab, _ in r.samples] == list(expected)
    for lab, got in r.samples:
        assert abs(got - expected[lab]) <= 1e-13 * expected[lab], lab
    bound = CHECKS["morawetz_2d"].bound
    holds = abs(expected["ground"] - 2.0) <= 1e-10 and max(expected.values()) <= bound
    assert r.status == ("passed" if holds else "failed")


@pytest.mark.parametrize("k_max", [0, 1, 6, 20, 60])
def test_morawetz_level_rows_are_the_mode_matrix_rows(k_max):
    # reference: the whole mode matrix over every |alpha| <= k_max, in
    # random_state's order, read one level's rows at a time
    cfg = ScanConfig(k_max=k_max, trials=3)
    pts = _morawetz_grid(k_max)
    h0, h1 = (hermite_functions(k_max, pts[:, c]) for c in range(2))
    idx = np.array([a for k in range(k_max + 1) for a in spectral.enumerate_multiindices(2, k)])
    B = spectral._mode_matrix([h0, h1], idx)
    re, im = verify._trial_parts(cfg, "morawetz_2d", len(idx), unit=True)
    acc = 0.0
    for k in range(k_max + 1):
        rows = slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2)
        # a level's block from the two 1D tables is its rows of B, bit for bit
        assert np.array_equal(h0[k::-1] * h1[: k + 1], B[rows])
        acc = acc + np.hypot(re[:, rows] @ B[rows], im[:, rows] @ B[rows]) ** 2
    expected = [("ground", TWO_PI * float(np.max(B[0] ** 2)))] + [
        (f"trial={t:02d}", TWO_PI * float(np.max(acc[t])) / math.fsum(np.hypot(re[t], im[t]) ** 2))
        for t in range(cfg.trials)
    ]
    assert list(check_morawetz_2d(cfg).samples) == expected


@pytest.mark.parametrize("seed", [42, 1])
def test_trial_rows_are_the_oracle_draws_bit_for_bit(monkeypatch, seed):
    # every _trial_parts call of every check that draws trials, against the
    # oracle's draws from the same stream key, one index at a time
    real = verify._trial_parts
    calls = []

    def recording(cfg, name, size, unit=False, prefix=(), trials=None):
        rows = real(cfg, name, size, unit, prefix, trials)
        calls.append((name, size, unit, prefix, rows))
        return rows

    monkeypatch.setattr(verify, "_trial_parts", recording)
    cfg = ScanConfig(k_max=6, trials=3, seed=seed)
    for row in CHECKS.values():
        row.run(cfg, {"n": 3, "delta": 1.0})
    assert sorted({name for name, *_ in calls}) == [
        "collapse_9d", "even_3d", "morawetz_2d", "odd_identity", "radial_3d_identity",
        "sobolev_s05", "sobolev_s10"]
    for name, size, unit, prefix, (re, im) in calls:
        assert re.shape == im.shape == (4 if prefix else cfg.trials, size)
        for t in range(re.shape[0]):
            want_re, want_im = gaussian_draws([seed, CHECKS[name].stream, *prefix, t], size, unit)
            assert np.array_equal(re[t], want_re) and np.array_equal(im[t], want_im), (name, t)


def test_trial_stream_words_are_pinned():
    # string seeding and getrandbits are the same on every platform, so the
    # words of one stream (odd_identity's trial 0 at seed 42, 21 indices) are
    # pinned; the draws that read them are held to the oracle above
    words = stream_words((42, CHECKS["odd_identity"].stream, 0), 42)
    data = b"".join(w.to_bytes(8, "little") for w in words)
    assert hashlib.sha256(data).hexdigest() == (
        "231c9a32eeedbd462c475577e1e4a2e4af8812e8564b48e8f5fa9864ff0c12d5")


def test_trial_draws_are_standard_normal_and_do_not_depend_on_the_trial_count():
    # row t is its own stream's, however many trials are drawn
    few = verify._trial_parts(ScanConfig(trials=2), "morawetz_2d", 10, unit=True)
    many = verify._trial_parts(ScanConfig(trials=2), "morawetz_2d", 10, unit=True, trials=5)
    for a, b in zip(few, many):
        assert np.array_equal(a, b[:2])
    assert np.allclose(np.sum(many[0] ** 2 + many[1] ** 2, axis=1), 1.0, rtol=1e-15, atol=0)
    # 10^5 draws per part: each part's mean, variance and the mean of their
    # product within 5 sigma of 0, 1 and 0
    re, im = verify._trial_parts(ScanConfig(trials=16), "morawetz_2d", 6250)
    m = re.size
    assert m == 10 ** 5 and np.isfinite(re).all() and np.isfinite(im).all()
    for part in (re, im):
        assert abs(part.mean()) <= 5.0 / math.sqrt(m)
        assert abs(part.var() - 1.0) <= 5.0 * math.sqrt(2.0 / m)
    assert abs(np.mean(re * im)) <= 5.0 / math.sqrt(m)


def _traced_peak_mb(run) -> float:
    """Peak traced allocation (MB) while run() executes, from cold caches."""
    clear_caches()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run, budget_mb", [
    # one level's block at a time, never the (1891, 753) mode matrix, which
    # took about 24 MB traced at k_max = 60
    pytest.param(lambda: check_morawetz_2d(ScanConfig(k_max=60, trials=4)), 4.0,
                 id="morawetz_2d"),
    # 4,096-value slabs, never the whole weight grid (about 12 MB)
    pytest.param(lambda: check_hermite_sobolev(ScanConfig(k_max=60), 0.5), 2.0,
                 id="sobolev_s05"),
])
def test_scan_peak_memory(run, budget_mb):
    assert _traced_peak_mb(run) < budget_mb


def _count_calls(monkeypatch, real) -> list:
    """Count calls of real through every hermspec module that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "hermspec" or name.startswith("hermspec."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("check", [
    check_morawetz_2d, check_even_3d, check_odd_identity, check_collapse_9d,
    check_radial_3d_identity,
    pytest.param(lambda cfg: check_hermite_sobolev(cfg, 0.5), id="check_hermite_sobolev"),
])
def test_scan_tables_are_built_once_per_check_not_per_trial(monkeypatch, check):
    tables = _count_calls(monkeypatch, hermite.hermite_functions)
    levels = _count_calls(monkeypatch, spectral.enumerate_multiindices)
    counts = []
    for trials in (2, 5):
        clear_caches()
        tables.clear()
        levels.clear()
        check(ScanConfig(k_max=6, trials=trials))
        counts.append((len(tables), len(levels)))
    assert counts[0] == counts[1]
    # the 1D levels of odd_identity and radial_3d_identity hold one mode each,
    # morawetz_2d builds each level's rows from its two 1D tables, and
    # even_3d's Casimir places each index by arithmetic: these enumerate
    # nothing.  even_3d reads no Hermite table either: its forms come from
    # the Casimir's eigenvectors, and its tops are closed forms
    enumerates_nothing = check in (check_morawetz_2d, check_odd_identity,
                                   check_radial_3d_identity, check_even_3d)
    assert (counts[0][0] > 0) == (check is not check_even_3d)
    assert (counts[0][1] > 0) == (not enumerates_nothing)


def test_antideriv_norms_tables_per_rule_not_per_k(monkeypatch):
    tables = _count_calls(monkeypatch, hermite.hermite_functions)
    counts = []
    for k_max in (6, 12):
        clear_caches()
        tables.clear()
        assert check_antideriv_norms(ScanConfig(k_max=k_max)).status == "passed"
        counts.append(len(tables))
    assert counts[0] == counts[1] > 0


def test_odd_identity_one_form_call_per_rule_scale(monkeypatch):
    lookups = _count_calls(monkeypatch, spectral.odd_inverse_squares)
    for trials in (2, 5):
        lookups.clear()
        assert check_odd_identity(ScanConfig(k_max=6, trials=trials)).status == "passed"
        # the odd levels 1, 3, ..., 13 in one call on one table, at the
        # configured and at the doubled rule scale
        assert len(lookups) == 2


@pytest.mark.parametrize("seed", [42, 1])
def test_odd_identity_trials_match_the_per_trial_route(seed):
    # oracle: each trial as its own odd state through time_avg_levels
    cfg = ScanConfig(seed=seed)
    r = check_odd_identity(cfg)
    expected = {}
    ok = stable = True
    for t in range(cfg.trials):
        g = random_state(1, 2 * cfg.k_max + 1, [seed, CHECKS["odd_identity"].stream, t],
                         parity="odd")
        levels1 = time_avg_levels(g, 1.0, rule_scale=1.0)
        levels2 = time_avg_levels(g, 1.0, rule_scale=2.0)
        v1 = TWO_PI * math.fsum(levels1.values())
        v2 = TWO_PI * math.fsum(levels2.values())
        stable = stable and abs(v2 - v1) <= verify.GATE_TOL * (1.0 + abs(v2))
        ratio = v1 / state_norm_sq(g)
        expected[f"trial={t:02d}/functional"] = ratio
        ok = ok and abs(ratio - FOUR_PI) <= 1e-7 * FOUR_PI
        for (k,), c in sorted(g.coefficients.items()):
            lv1, lv2 = levels1[k], levels2[k]
            stable = stable and abs(lv2 - lv1) <= verify.GATE_TOL * (1.0 + abs(lv2))
            ok = ok and abs(lv1 - 2.0 * abs(c) ** 2) <= 1e-9
            expected[f"trial={t:02d}/level k={k:02d}"] = lv1 / (2.0 * abs(c) ** 2)
    assert [lab for lab, _ in r.samples] == list(expected)
    for lab, got in r.samples:
        assert abs(got - expected[lab]) <= 1e-13 * abs(expected[lab]), lab
    assert r.status == ("inconclusive" if not stable else "passed" if ok else "failed")


def test_collapse_triples_found_once_per_level(monkeypatch):
    found = _count_calls(monkeypatch, spectral._collapse_triples)
    counts = []
    for trials in (2, 5):
        found.clear()
        r = check_collapse_9d(ScanConfig(k_max=3, trials=trials))
        assert r.status == "passed"
        counts.append(len(found))
    # levels 0..3, shared by both rule scales; the ground state shares level 0's index set
    assert counts == [4, 4]


def _radial_per_trial_route(cfg):
    """The radial check's rows, status and validation-failed trial (None when
    every trial validates), each trial as its own odd state, its lifted sums
    over its own items."""
    mode_cap = 2 * cfg.k_max + 1
    R = truncation_radius(mode_cap, 3)
    n_panels = max(20, int(math.ceil(R * math.sqrt(2 * mode_cap + 1) / math.pi)))

    def lifted(g, delta, panels, nodes_pp):
        items = sorted(g.coefficients.items())
        lift = verify._radial_mode_integrals(max(a[0] for a, _ in items), delta, R, panels,
                                             nodes_pp)
        return math.fsum(abs(c) ** 2 * lift[a[0]] for a, c in items)

    expected = {}
    ok = stable = True
    for t in range(cfg.trials):
        g = random_state(1, mode_cap, [cfg.seed, CHECKS["radial_3d_identity"].stream, t],
                         parity="odd")
        norm3 = lifted(g, 0.0, 2 * n_panels, 16)
        norm1 = state_norm_sq(g)
        expected[f"trial={t:02d}/normsq"] = norm3 / norm1
        if abs(math.sqrt(norm3) - math.sqrt(norm1)) > 1e-10 * math.sqrt(norm1):
            return expected, "inconclusive", t
        v1 = TWO_PI * lifted(g, 1.0, n_panels, 8)
        v2 = TWO_PI * lifted(g, 1.0, 2 * n_panels, 16)
        stable = stable and abs(v2 - v1) <= verify.GATE_TOL * (1.0 + abs(v2))
        expected[f"trial={t:02d}/functional"] = v1 / norm3
        ok = ok and abs(v1 / norm3 - FOUR_PI) <= 1e-6 * FOUR_PI
    return expected, "inconclusive" if not stable else "passed" if ok else "failed", None


@pytest.mark.parametrize("seed", [42, 1])
def test_radial_trials_match_the_per_trial_route(seed):
    cfg = ScanConfig(seed=seed)
    r = check_radial_3d_identity(cfg)
    expected, status, _ = _radial_per_trial_route(cfg)
    assert [lab for lab, _ in r.samples] == list(expected)
    for lab, got in r.samples:
        assert abs(got - expected[lab]) <= 1e-13 * abs(expected[lab]), lab
    assert r.status == status


def test_radial_lift_validation_ends_the_trial_rows(monkeypatch):
    # degree 7's lifted norm 5e-9 off: the trials before the first that fails
    # the validation keep both rows, that trial keeps its normsq row, and no
    # later trial is read or gated
    real = verify._radial_mode_integrals

    def off(top, delta, R, n_panels, nodes_pp):
        lift = real(top, delta, R, n_panels, nodes_pp)
        if delta == 0.0:
            lift[7] *= 1.0 + 5e-9
        return lift

    monkeypatch.setattr(verify, "_radial_mode_integrals", off)
    cfg = ScanConfig()
    r = check_radial_3d_identity(cfg)
    expected, status, failed = _radial_per_trial_route(cfg)
    assert 0 < failed < cfg.trials - 1
    assert [lab for lab, _ in r.samples] == list(expected)
    for lab, got in r.samples:
        assert abs(got - expected[lab]) <= 1e-13 * abs(expected[lab]), lab
    assert r.status == status == "inconclusive"
    assert r.parameters["unstable"] == "lift_normalization"
    assert f"(trial {failed})" in r.parameters["error"]


@pytest.mark.parametrize("seed", [42, 1])
def test_sobolev_rows_match_the_per_state_route(seed):
    # oracle: each mode and trial as its own state through bessel_sobolev_norm
    # and hermite_sobolev_norm; the sharp rows are the check's own.  Both
    # orders draw their trials from the one stream they share
    cfg = ScanConfig(seed=seed)
    families = {1: cfg.k_max, 2: min(cfg.k_max, 12)}
    states = [(f"n=1/mode k={k:02d}", make_state(1, {(k,): 1.0}, cfg.k_max))
              for k in range(cfg.k_max + 1)]
    states += [(f"n={n}/trial={t:02d}",
                random_state(n, k, [seed, CHECKS["sobolev_s05"].stream, n, t]))
               for n, k in families.items() for t in range(4)]
    for s in (0.5, 1.0):
        r = check_hermite_sobolev(cfg, s)
        # the sharp rows and their gate are the check's own
        expected = {lab: v for lab, v in r.samples if lab.endswith("sharp")}
        sharp = {n: expected[f"n={n}/sharp"] for n in families}
        stable = "sharp" not in r.parameters.get("unstable", "")
        bound = CHECKS[r.check].bound
        ok = max(sharp.values()) <= bound
        for label, state in states:
            try:
                bess = bessel_sobolev_norm(state, s)
            except ToleranceError:
                stable = False
                continue
            expected[label] = bess / hermite_sobolev_norm(state, s)
            ok = ok and expected[label] <= sharp[state.n] * (1.0 + verify.GATE_TOL)
            ok = ok and expected[label] <= bound
        assert [lab for lab, _ in r.samples] == list(expected)
        for lab, got in r.samples:
            assert abs(got - expected[lab]) <= 1e-13 * abs(expected[lab]), (s, lab)
        assert r.status == ("inconclusive" if not stable else "passed" if ok else "failed")


@pytest.mark.parametrize("seed", [42, 1])
def test_collapse_trials_match_the_per_trial_route(seed):
    # oracle: the ground state and each trial as its own 9D state through the
    # per-state collapse_trace_norm on both rules
    cfg = ScanConfig(seed=seed)
    r = check_collapse_9d(cfg)
    k_cap = min(cfg.k_max, 3)
    states = [("ground", make_state(9, {(0,) * 9: 1.0}))]
    states += [(f"trial={t:02d}", random_state(9, k_cap, [seed, CHECKS["collapse_9d"].stream, t]))
               for t in range(min(cfg.trials, 8))]
    expected = {}
    ok = stable = True
    for label, f in states:
        w1 = collapse_trace_norm(f, rule_scale=1.0)
        w2 = collapse_trace_norm(f, rule_scale=2.0)
        stable = stable and abs(w2 - w1) <= verify.GATE_TOL * (1.0 + abs(w2))
        expected[label] = w1 / oscillator_energy_sq(f)
        ok = ok and expected[label] <= CHECKS["collapse_9d"].bound
        if label == "ground":
            ok = ok and abs(w1 - r.parameters["ground_target"]) <= 1e-8
    assert [lab for lab, _ in r.samples] == list(expected)
    for lab, got in r.samples:
        assert abs(got - expected[lab]) <= 1e-13 * abs(expected[lab]), lab
    assert r.status == ("inconclusive" if not stable else "passed" if ok else "failed")


def test_even_3d_small():
    r = check_even_3d(ScanConfig(k_max=4, trials=2))
    assert r.status == "passed"
    samples = dict(r.samples)
    assert abs(samples["ground"] - FOUR_PI) <= 1e-9 * FOUR_PI
    # one sharp row per even level, each exactly 4*pi
    assert [lab for lab, _ in r.samples if lab.startswith("k=")] == ["k=00", "k=02", "k=04"]
    for k in (0, 2, 4):
        assert abs(samples[f"k={k:02d}"] - FOUR_PI) <= 1e-14 * FOUR_PI
    assert abs(r.parameters["sharp"] - FOUR_PI) <= 1e-14 * FOUR_PI
    assert 0.0 <= r.parameters["route_drift"] <= verify.GATE_TOL
    for t in range(2):
        assert samples[f"trial={t:02d}"] <= r.parameters["sharp"] * (1.0 + 1e-9)


def test_even_3d_builds_one_casimir_per_even_level(monkeypatch):
    # the ground sample, the casimir predicate and the trials share one
    # eigh of each even level's L^2; no rule is built, so none has a scale
    real = spectral.even_casimir
    calls = []

    def recording(k):
        calls.append(k)
        return real(k)

    clear_caches()
    monkeypatch.setattr(spectral, "even_casimir", recording)
    check_even_3d(ScanConfig(k_max=6, trials=3))
    assert calls == [0, 2, 4, 6]


@pytest.mark.parametrize("seed", [42, 1])
def test_even_3d_trials_match_the_per_trial_route(seed):
    # oracle: each trial as its own state through time_avg_weighted
    cfg = ScanConfig(seed=seed)
    r = check_even_3d(cfg)
    indices = [tuple(2 * c for c in b) for k in range(0, cfg.k_max + 1, 2)
               for b in spectral.enumerate_multiindices(3, k // 2)]
    samples = dict(r.samples)
    expected = {}
    for t in range(cfg.trials):
        re, im = gaussian_draws([seed, CHECKS["even_3d"].stream, t], len(indices), unit=True)
        d = make_state(3, {a: complex(x, y) for a, x, y in zip(indices, re, im)}, cfg.k_max)
        expected[f"trial={t:02d}"] = time_avg_weighted(d, 1.0) / state_norm_sq(d)
    assert [lab for lab, _ in r.samples if lab.startswith("trial=")] == list(expected)
    for lab, want in expected.items():
        assert abs(samples[lab] - want) <= 1e-13 * want, lab
    sharp = r.parameters["sharp"]
    bound = CHECKS["even_3d"].bound
    holds = (abs(samples["ground"] - FOUR_PI) <= 1e-9 * FOUR_PI and sharp <= bound
             and all(v <= sharp * (1.0 + verify.GATE_TOL) and v <= bound
                     for v in expected.values()))
    assert r.status == ("passed" if holds else "failed")


def test_even_3d_form_lookups_do_not_grow_with_trials(monkeypatch):
    lookups = _count_calls(monkeypatch, spectral.even_casimir)
    counts = []
    for trials in (1, 4, 16):
        lookups.clear()
        assert check_even_3d(ScanConfig(k_max=8, trials=trials)).status == "passed"
        counts.append(len(lookups))
    # one for each even level, the ground state's among them
    assert counts == [5, 5, 5]


def test_even_3d_route_gate_trips_on_a_wrong_level_top(monkeypatch):
    real = verify.level_tops

    # the exact tops shift, and the quadrature tops' gate sees it
    def shifted(n, k_max, weight_power, weight_dims=None):
        tops, quads = real(n, k_max, weight_power, weight_dims)
        return [top * (1.0 + 1e-6) for top in tops], quads

    monkeypatch.setattr(verify, "level_tops", shifted)
    r = check_even_3d(ScanConfig(k_max=4, trials=1))
    assert r.status == "inconclusive"
    assert r.parameters["route_drift"] > 1e-7


def test_even_3d_casimir_eigenvalue_off_by_1e_6_fails(monkeypatch):
    # one eigenvalue of L^2 raised by 1e-6 on level 4 is no l(l + 1) within
    # GATE_TOL k(k + 1); the forms, read from the rounded l, do not move
    real = spectral.even_casimir

    def raised(k):
        casimir, vectors = real(k)
        if k == 4:
            casimir = casimir + np.eye(1, casimir.size, casimir.size - 1)[0] * 1e-6
        return casimir, vectors

    monkeypatch.setattr(spectral, "even_casimir", raised)
    r = check_even_3d(ScanConfig(k_max=4, trials=2))
    assert r.status == "failed"
    assert r.parameters["failed"] == "casimir"
    assert "unstable" not in r.parameters


def test_even_3d_node_cap_is_checked_up_front():
    # the limit bounds the size of its forms
    with pytest.raises(CapabilityError, match="up to k_max = 80"):
        check_even_3d(ScanConfig(k_max=81, trials=1))


def test_even_3d_limit_names_the_level_form_size(monkeypatch):
    # even_3d builds no doubled rule; its limit bounds the size of its forms
    def no_work(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(spectral, "even_casimir", no_work)
    with pytest.raises(CapabilityError) as info:
        check_even_3d(ScanConfig(k_max=81, trials=1))
    message = str(info.value)
    assert message == (
        "even_3d is supported up to k_max = 80: "
        "the limit bounds the size of its level forms"
    )
    assert "doubled rule" not in message
    with pytest.raises(CapabilityError, match="its top mode is limited to 1456 nodes"):
        check_odd_identity(ScanConfig(k_max=364, trials=1))


def test_antideriv_norms_refuses_a_kmax_past_its_limit_before_any_work(monkeypatch):
    # in process as on the command line: no quadrature runs past the limit
    def no_work(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(verify, "norm_sq_quadrature_all", no_work)
    with pytest.raises(CapabilityError, match="up to k_max = 480: ") as info:
        check_antideriv_norms(ScanConfig(k_max=481))
    assert "doubling gate trips" in str(info.value)


def test_sobolev_small_and_bad_order():
    for s in (0.75, 2.0):
        with pytest.raises(ValueError):
            check_hermite_sobolev(SMALL, s)
    r = check_hermite_sobolev(ScanConfig(k_max=6, trials=2), 1.0)
    assert r.status == "passed"
    assert r.check == "sobolev_s10"
    for _, v in r.samples:
        assert v <= CHECKS["sobolev_s10"].bound


def test_sobolev_gate_failure_is_inconclusive(monkeypatch):
    # s = 1/2, the one order with a quadrature form and so a doubling gate
    _perturbed_fine_sobolev_rows(monkeypatch)
    r = check_hermite_sobolev(ScanConfig(k_max=2, trials=1), 0.5)
    assert r.status == "inconclusive"
    assert not r.passed


@pytest.mark.parametrize("rule_scale", [1e-3, 0.25, 0.5, 0.75, 2.0])
def test_sobolev_s1_reads_no_rule(monkeypatch, rule_scale):
    # the exact ladder form has no rule to under-resolve: a shrunken or grown
    # flat rule leaves the default's rows, and the quadrature route is never
    # entered
    default = check_hermite_sobolev(ScanConfig(), 1.0)
    _perturbed_fine_sobolev_rows(monkeypatch)
    forms = _count_calls(monkeypatch, spectral._sobolev_form)
    real = spectral._sobolev_panels
    monkeypatch.setattr(spectral, "_sobolev_panels",
                        lambda n, k_max, scale: real(n, k_max, scale * rule_scale))
    r = check_hermite_sobolev(ScanConfig(), 1.0)
    assert (r.status, r.samples) == ("passed", default.samples)
    assert len(r.samples) == 2 + 21 + 8 and forms == []
    assert "route_drift" not in r.parameters


def test_sobolev_limit_fails_on_a_raised_exact_form(monkeypatch):
    # the n = 1 sharp sits 3e-14 below sqrt(phi) at the defaults, so a form
    # raised by 1e-6 puts it past the closed-form supremum; its rows follow it
    real = verify.sobolev_ladder_form

    def raised(n, k_max):
        indices, F = real(n, k_max)
        return indices, F * (1.0 + 1e-6)

    monkeypatch.setattr(verify, "sobolev_ladder_form", raised)
    r = check_hermite_sobolev(ScanConfig(), 1.0)
    assert (r.status, r.parameters["failed"]) == ("failed", "limit")
    assert "unstable" not in r.parameters
    assert r.parameters["limit_gap"]["n=1"] < 0.0 < r.parameters["limit_gap"]["n=2"]


def test_sobolev_heinz_fails_on_a_raised_half_order_sharp(monkeypatch):
    # the s = 1/2 sharps sit 0.3-0.4% below lambda_n^(-1/4); raised by 1% on
    # both rules they pass their gate and fail the Loewner-Heinz bound
    real = verify._sobolev_sharp
    monkeypatch.setattr(verify, "_sobolev_sharp",
                        lambda n, indices, F, s: 1.01 * real(n, indices, F, s))
    r = check_hermite_sobolev(ScanConfig(), 0.5)
    assert (r.status, r.parameters["failed"]) == ("failed", "heinz")
    assert "unstable" not in r.parameters
    assert all(gap < 0.0 for gap in r.parameters["heinz_gap"].values())


# sharp flat/oscillator ratios at the defaults: (n = 1 at k_max 20, n = 2 at 12)
SOBOLEV_SHARP = {
    0.5: (1.1230640355579662, 1.045312222609577),
    1.0: (1.2720196495140286, 1.0986762408587905),
}


# lambda_n^(-s/2), lambda_n = n (sqrt(n^2 + 4) - n) / 2: the s = 1 supremum
# (sqrt of the golden ratio at n = 1) and its Loewner-Heinz square root
SOBOLEV_CLOSED = {
    0.5: ("heinz", 1.1278384855616823, 1.0481813361569694),
    1.0: ("limit", 1.272019649514069, 1.0986841134678098),
}


@pytest.mark.parametrize("s", sorted(SOBOLEV_SHARP))
def test_sobolev_sharp_rows_hold_every_mode_and_trial(s):
    r = check_hermite_sobolev(ScanConfig(), s)
    assert r.status == "passed"
    samples = dict(r.samples)
    sharp = {1: samples["n=1/sharp"], 2: samples["n=2/sharp"]}
    for n, expected in zip((1, 2), SOBOLEV_SHARP[s]):
        assert abs(sharp[n] - expected) <= 1e-12 * expected
    assert r.parameters["sharp"] == sharp[1] == r.sup_ratio
    # the closed-form bound of each family and its gap, below it
    name, *closed = SOBOLEV_CLOSED[s]
    assert r.parameters[name] == pytest.approx({"n=1": closed[0], "n=2": closed[1]},
                                               rel=1e-15)
    for n in (1, 2):
        gap = r.parameters[f"{name}_gap"][f"n={n}"]
        assert gap == r.parameters[name][f"n={n}"] - sharp[n] and gap > 0.0
    # s = 1 has no rule, so no gates and no route drift
    if s == 1.0:
        assert "route_drift" not in r.parameters and "heinz" not in r.parameters
    else:
        assert 0.0 <= r.parameters["route_drift"] <= verify.GATE_TOL
        assert "limit" not in r.parameters
    rows = [lab for lab, _ in r.samples if "sharp" not in lab]
    assert len(rows) == 21 + 8
    for lab in rows:
        assert samples[lab] <= sharp[int(lab[2])] * (1.0 + 1e-9), lab


@pytest.mark.parametrize("n, k_max, s", [(1, 20, 0.5), (2, 12, 1.0), (3, 4, 2.0)])
def test_sobolev_sharp_parity_blocks_give_the_whole_pencil_top(n, k_max, s):
    # the form vanishes across per-axis parities, so the largest block top is
    # the top of the whole pencil
    indices, F = spectral.sobolev_twisted_form(n, k_max, s, 2.0)
    d = (2.0 * np.array([sum(a) for a in indices]) + n) ** (-0.5 * s)
    whole = math.sqrt(np.linalg.eigvalsh(d[:, None] * F * d[None, :])[-1])
    assert abs(verify._sobolev_sharp(n, indices, F, s) - whole) <= 1e-14 * whole


def test_sobolev_sharp_s1_is_the_square_root_of_the_golden_ratio():
    # sup (1 + p)/(p + 1/(4p)) over squeezed Gaussians, at 4p^2 - 2p - 1 = 0
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    indices, F = spectral.sobolev_ladder_form(1, 20)
    assert abs(verify._sobolev_sharp(1, indices, F, 1.0) - math.sqrt(golden)) <= 1e-12


def test_sobolev_sharp_gates(monkeypatch):
    real = verify._sobolev_sharp
    # a rule-dependent sharp value is inconclusive: each family reads its
    # configured rule's form first, and the doubled rule's second
    reads = []

    def rule_dependent(n, indices, F, s):
        reads.append(n)
        return real(n, indices, F, s) * (1.0 + 1e-6 * (len(reads) % 2 == 0))

    monkeypatch.setattr(verify, "_sobolev_sharp", rule_dependent)
    r = check_hermite_sobolev(ScanConfig(k_max=4, trials=1), 0.5)
    assert reads == [1, 1, 2, 2]
    assert (r.status, r.parameters["unstable"]) == ("inconclusive", "sharp")
    # a row above its family's sharp value fails
    monkeypatch.setattr(verify, "_sobolev_sharp",
                        lambda n, indices, F, s: 0.9 * real(n, indices, F, s))
    assert check_hermite_sobolev(ScanConfig(k_max=4, trials=1), 1.0).status == "failed"


def test_sobolev_forms_per_family_and_scale_not_per_state(monkeypatch):
    tables = _count_calls(monkeypatch, hermite.hermite_functions)
    forms = _count_calls(monkeypatch, spectral._sobolev_form)
    exact = _count_calls(monkeypatch, spectral.sobolev_ladder_form)
    counts = []
    for s in (0.5, 1.0):
        for k_max in (6, 20):
            tables.clear()
            forms.clear()
            exact.clear()
            assert check_hermite_sobolev(ScanConfig(k_max=k_max), s).status == "passed"
            counts.append((len(forms), len(tables), len(exact)))
    # two families, each form read by its sharp value and its rows: at s = 1/2
    # on two rule scales, at s = 1 one exact form each, with no Hermite table
    assert counts == [(4, 4, 0), (4, 4, 0), (0, 0, 2), (0, 0, 2)]


def test_collapse_ground_value():
    r = check_collapse_9d(ScanConfig(k_max=2, trials=2))
    assert r.status == "passed"
    assert abs(r.parameters["ground_target"] - TWO_PI * 3.0**-1.5 * math.pi**-3) == 0.0


def test_antideriv_norms_check():
    r = check_antideriv_norms(ScanConfig(k_max=12))
    assert r.status == "passed"
    for lab, v in r.samples:
        if lab.startswith("odd"):
            assert abs(v - 2.0) <= 1e-8
        else:
            assert v <= 3.0 + 1e-9


def test_appendix_identities_check():
    r = check_appendix_identities(ScanConfig(k_max=10))
    assert r.status == "passed"
    rows = dict(r.samples)
    # the bridge is decided on integer coefficients: every row is exactly 0
    assert [rows[f"bridge k={k:02d}"] for k in range(11)] == [0.0] * 11
    assert rows["bridge-control k=01"] == 6 / 13
    assert not any(lab.startswith("tail") for lab in rows)


def test_appendix_bridge_fails_on_an_off_recurrence_coefficient(monkeypatch):
    # the routine itself with 4j + 5 for 4j + 3 in P_j's recurrence: every
    # bridge row from k = 1 is nonzero, and the check reads failed: bridge
    source = inspect.getsource(hermite.laguerre_hermite_bridge_residual)
    assert source.count("(4 * j + 3)") == 1
    namespace = dict(vars(hermite))
    exec(source.replace("(4 * j + 3)", "(4 * j + 5)"), namespace)
    broken = namespace["laguerre_hermite_bridge_residual"]
    assert broken(0) == 0.0 and min(broken(k) for k in range(1, 11)) > 0.0
    monkeypatch.setattr(verify, "laguerre_hermite_bridge_residual", broken)
    r = check_appendix_identities(ScanConfig())
    assert (r.status, r.parameters["failed"]) == ("failed", "bridge")


def test_appendix_laguerre_rows_match_the_per_pair_route():
    # one recurrence over the nine (alpha, beta) pairs and one dot per pair
    # give every row the float of the per-pair evaluation, bit for bit
    rows = dict(check_appendix_identities(ScanConfig()).samples)
    checked = 0
    for k in (0, 1, 2, 4, 6):
        for alpha in (0.5, 1.0, 1.5):
            for beta in (0.7, 1.0, 2.0):
                nodes, weights = verify.gauss_rule("laguerre", k + 6)
                vals = hermite.eval_laguerre(k, alpha, nodes / beta)
                quad = float(np.dot(weights, vals)) / beta
                closed = hermite.laguerre_exp_integral(k, alpha, beta)
                res = abs(closed - quad) / (1.0 + abs(closed))
                assert rows[f"laguerre k={k}/a={alpha:g}/b={beta:g}"] == res
                checked += 1
    assert checked == 45


def test_appendix_reflection_merge_fails_on_a_broken_identity(monkeypatch):
    # the merge identity with (2k + 3) for (2k + 1), on the same integer
    # numerators, reads False at every k <= 40, and the check reads failed
    def broken_merge(k_max):
        minus, plus = (antideriv.partial_binomial_numerators(k_max + 1, p, 2) for p in (-1, 1))
        return [2 * minus[k] + (2 * k + 3) * plus[k] == plus[k + 1] for k in range(k_max + 1)]

    assert not any(broken_merge(40))
    monkeypatch.setattr(verify, "merge_identity_holds", broken_merge)
    r = check_appendix_identities(ScanConfig())
    assert (r.status, r.parameters["failed"]) == ("failed", "reflection_merge")
    monkeypatch.undo()
    # a reflection that fails at one k alone fails the same predicate
    monkeypatch.setattr(verify, "binom_reflection_holds", lambda p, q, k: k != 7)
    r = check_appendix_identities(ScanConfig())
    assert (r.status, r.parameters["failed"]) == ("failed", "reflection_merge")


def test_negative_control_grows():
    r = negative_control_divergence(SMALL)
    assert r.status == "passed"
    assert r.parameters["negative_control"] is True
    assert r.parameters["growth_factor"] >= 2.0
    vals = [v for _, v in r.samples]
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_determinism_across_cache_reset():
    cfg = ScanConfig(k_max=4, trials=2)
    r1 = check_kato(cfg, 3, 0.5)
    clear_caches()
    r2 = check_kato(cfg, 3, 0.5)
    assert r1.samples == r2.samples
    assert r1.sup_ratio == r2.sup_ratio
    m1 = RunManifest("x", cfg, (r1,))
    m2 = RunManifest("x", cfg, (r2,))
    assert manifest_to_json_bytes(m1) == manifest_to_json_bytes(m2)


def test_clear_caches_empties_every_memo():
    # every lru_cache bound in any hermspec module, found by walking them
    cfg = ScanConfig(k_max=4, trials=2)
    check_even_3d(cfg)
    check_hermite_sobolev(cfg, 0.5)
    check_radial_3d_identity(cfg)
    memos = {id(v): (f"{name}.{attr}", v)
             for name, module in list(sys.modules.items())
             if name == "hermspec" or name.startswith("hermspec.")
             for attr, v in vars(module).items() if hasattr(v, "cache_info")}
    filled = {label for label, memo in memos.values() if memo.cache_info().currsize}
    assert "hermspec.spectral._level_indices" in filled
    clear_caches()
    assert [label for label, memo in memos.values() if memo.cache_info().currsize] == []


def test_memo_caches_are_read_only_reused_and_cleared():
    import hermspec.spectral as S

    clear_caches()
    check_kato(ScanConfig(k_max=2), 3, 0.5)
    built = S.level_spectrum.cache_info().currsize
    assert built > 0
    # the same scan reads its table back: no new table is built
    check_kato(ScanConfig(k_max=2), 3, 0.5)
    assert S.level_spectrum.cache_info().currsize == built
    assert S.level_spectrum.cache_info().hits >= built
    table = S.level_spectrum(3, 2, 1.0)
    with pytest.raises(ValueError):
        table.exact[0, 0] = 0.0
    clear_caches()
    assert S.level_spectrum.cache_info().currsize == 0


@pytest.mark.parametrize("delta", [0.0, 1.0])
def test_radial_lift_table_matches_3d_integrator(delta):
    # each entry of the one-table lift against the full 3D integral of its
    # single lifted mode on integrate_radial_3d's graded rule, both on the
    # doubled rule, where each is converged
    import hermspec.verify as V

    mode_cap = 41
    R = truncation_radius(mode_cap, 3)
    n_panels = max(20, int(math.ceil(R * math.sqrt(2 * mode_cap + 1) / math.pi)))
    lift = V._radial_mode_integrals(mode_cap, delta, R, 2 * n_panels, 16)
    for d in range(1, mode_cap + 1, 2):
        def F(x1, x2, x3, d=d):
            r = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            return hermite_functions(d, r)[d] ** 2 / (2.0 * math.pi * r * r)

        ref = integrate_radial_3d(F, delta, R, n_panels=2 * n_panels, nodes_per_panel=16,
                                  n_theta=4, n_phi=4)
        assert abs(lift[d] - ref) <= 1e-13 * abs(ref), d


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_bound_with_no_level_is_inconclusive(n):
    # k_max = 0 scans no level k >= 1: an empty report has tested nothing
    r = check_kernel_bound(ScanConfig(k_max=0), n)
    assert r.samples == ()
    assert r.status == "inconclusive"


def test_ratio_scaling_covariance():
    # both sides quadratic in the state: rescaling must not move any ratio
    f = random_state(2, 5, [7, 1])
    g = make_state(2, {a: 3.0 * c for a, c in f.coefficients.items()}, f.k_max)
    r_f = time_avg_weighted(f, 0.5) / state_norm_sq(f)
    r_g = time_avg_weighted(g, 0.5) / state_norm_sq(g)
    assert abs(r_f - r_g) <= 1e-13 * max(1.0, abs(r_f))


# ---------------------------------------------------------------------------
# serialization


def _tiny_manifest():
    cfg = ScanConfig(k_max=3, trials=2)
    rep = check_kernel_bound(cfg, 2)
    return RunManifest("0.0-test", cfg, (rep,), {"kernel_n2": 0.25})


def test_manifest_json_roundtrip():
    m = _tiny_manifest()
    data = manifest_to_json_bytes(m)
    m2 = manifest_from_json_bytes(data)
    assert m2.config == m.config
    assert m2.reports == m.reports
    assert m2.wall_time_s == m.wall_time_s
    assert manifest_to_json_bytes(m2) == data


def test_manifest_empty_reports():
    cfg = ScanConfig()
    m = RunManifest("0.0-test", cfg, ())
    data = manifest_to_json_bytes(m)
    m2 = manifest_from_json_bytes(data)
    assert m2.reports == ()
    assert json.loads(data)["reports"] == []


def test_csv_shape_and_precision():
    m = _tiny_manifest()
    body = emit_table(m, "csv").decode("ascii")
    lines = body.split("\r\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""
    n_samples = len(m.reports[0].samples)
    assert len(lines) == 1 + n_samples + 1
    for line in lines[1:-1]:
        label, ratio, tol, flag = line.split(",")
        # 17 significant digits survive a float round-trip exactly
        assert float(ratio) == dict(m.reports[0].samples)[label]
        assert flag in ("true", "false")
    with pytest.raises(ValueError):
        emit_table(m, "yaml")


def test_csv_quotes_awkward_labels():
    rep = EstimateReport(
        "kato_nd", {}, (('k=0,extra "quoted"', 1.0),), 1.0, 2.0, "passed"
    )
    m = RunManifest("0.0-test", ScanConfig(), (rep,))
    body = emit_table(m, "csv").decode("ascii")
    line = body.split("\r\n")[1]
    assert line.startswith('"k=0,extra ""quoted""",')


def test_manifest_stores_each_fact_once(tmp_path):
    # the standard encoder's canonical bytes; the run's settings live in
    # config alone, each bound and tolerance in its report's tolerance
    from hermspec.cli import main

    argv = ["all", "--negative-controls", "--kmax", "4", "--trials", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / "manifest.json").read_bytes()
    obj = json.loads(data)
    assert data == (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    assert manifest_to_json_bytes(manifest_from_json_bytes(data)) == data
    assert obj["config"] == {"k_max": 4, "trials": 2, "seed": 42}
    assert obj["version"] == "0.4.0"
    reports = {r["check"]: r for r in obj["reports"]}
    assert len(reports) == len(CHECKS)
    for key, r in reports.items():
        assert "passed" not in r, key
        assert not {"seed", "trials", "bound"} & set(r["parameters"]), key
        # an equality check reads its tolerance, an inequality check its bound,
        # and the divergence demonstration its required growth, 2
        row = CHECKS[key]
        expected = row.tolerance or row.bound or 2.0
        assert r["tolerance"] == expected, key
    # collapse_9d caps k_max at 3: the one report that records a k_max
    assert {key: r["parameters"]["k_max"] for key, r in reports.items()
            if "k_max" in r["parameters"]} == {"collapse_9d": 3}


def test_reports_carry_config_seed():
    # the seed is stored once, in the manifest's config, and the config read
    # back reproduces every seeded report exactly
    cfg = ScanConfig(k_max=3, trials=2, seed=99)
    checks = (
        lambda c: check_kernel_bound(c, 2),
        check_morawetz_2d,
        check_antideriv_norms,
        negative_control_divergence,
    )
    reports = tuple(check(cfg) for check in checks)
    data = manifest_to_json_bytes(RunManifest("0.0-test", cfg, reports))
    m = manifest_from_json_bytes(data)
    assert m.config.seed == 99
    for check, rep in zip(checks, reports):
        assert "seed" not in rep.parameters
        clear_caches()
        assert check(m.config) == rep


def test_manifest_rendering_matches_the_generic_renderer_on_a_full_run(tmp_path):
    from hermspec.cli import main

    assert main(["all", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "manifest.json").read_bytes()
    m = manifest_from_json_bytes(data)
    generic = json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")) + "\n"
    assert manifest_to_json_bytes(m) == generic.encode() == data


def test_non_finite_samples_refused():
    rep = EstimateReport("kato_nd", {}, (("k=0", float("inf")),), 1.0, 2.0, "passed")
    with pytest.raises(ValueError):
        manifest_to_json_bytes(RunManifest("0.0-test", ScanConfig(), (rep,)))


def test_non_finite_floats_refused():
    rep = EstimateReport("kato_nd", {}, (("k=0", 1.0),), 1.0, 2.0, "passed")
    m = RunManifest("0.0-test", ScanConfig(), (rep,), {"kato_nd": float("nan")})
    with pytest.raises(ValueError):
        manifest_to_json_bytes(m)
