"""Spectral layer: eigenspaces, propagator, kernels, weighted level integrals."""

import math

import numpy as np
import pytest

from hermspec import CapabilityError, hermite_functions, spectral, verify
from hermspec.quadrature import gauss_legendre_panels, gauss_rule, truncation_radius
from hermspec.spectral import (
    check_admissible,
    enumerate_multiindices,
    kernel_diagonals,
    level_spectrum,
    level_tops,
    poch,
    sobolev_ladder_form,
    sobolev_twisted_form,
)
from hermspec.verify import ScanConfig, check_hermite_sobolev

from oracles import (
    _QUARTER_PHASES,
    SpectralState,
    ToleranceError,
    _level_grid,
    _tensor_free_axes,
    bessel_sobolev_norm,
    collapse_trace_norm,
    evaluate_phi,
    evaluate_state,
    evaluate_state_grid,
    fourier_transform_state,
    grid_level_form,
    hermite_sobolev_norm,
    integrate_cyl_2d,
    kernel_diagonal,
    kernel_diagonal_ratio,
    level_form,
    level_gram,
    level_top,
    make_state,
    oscillator_energy_sq,
    project,
    propagate,
    radial_eigenvalue,
    radial_eigenvalue_quadrature,
    random_state,
    state_norm_sq,
    time_avg_levels,
    time_avg_weighted,
)

TWO_PI = 2.0 * math.pi


def test_enumerate_multiindices():
    assert enumerate_multiindices(1, 7) == [(7,)]
    level = enumerate_multiindices(3, 2)
    assert len(level) == 6
    assert level == sorted(level, reverse=True)
    assert all(sum(a) == 2 for a in level)
    assert len(enumerate_multiindices(9, 4)) == 495


def test_evaluate_phi_values():
    assert evaluate_phi((0, 0, 0), (0.0, 0.0, 0.0)) == pytest.approx(
        math.pi ** -0.75, abs=1e-14
    )
    assert evaluate_phi((1, 2, 0), (0.0, 0.7, -0.3)) == 0.0
    h1_at_1 = float(hermite_functions(1, np.array([1.0]))[1][0])
    assert evaluate_phi((1, 1), (1.0, 1.0)) == pytest.approx(h1_at_1 ** 2, rel=1e-14)


def test_state_validation():
    with pytest.raises(ValueError):
        SpectralState(2, {(1, 2, 3): 1.0}, 6)
    with pytest.raises(ValueError):
        SpectralState(2, {(1, -1): 1.0}, 6)
    with pytest.raises(ValueError):
        SpectralState(2, {(3, 3): 1.0}, 4)


def _sobolev_rows(report) -> list:
    # the labels of a Sobolev report's mode and trial rows
    return [lab for lab, _ in report.samples if "sharp" not in lab]


def test_bessel_sobolev_gate_raises_on_nan(monkeypatch):
    # a NaN row does not hold the doubling gate of the s = 1/2 quadrature:
    # the check skips it and reports every other row, and the per-state norm
    # raises on it
    real = verify._trial_parts

    def nan_in_trial_one(*args, **kwargs):
        re, im = real(*args, **kwargs)
        re[1, 0] = np.nan
        return re, im

    monkeypatch.setattr(verify, "_trial_parts", nan_in_trial_one)
    r = check_hermite_sobolev(ScanConfig(k_max=4, trials=1), 0.5)
    assert r.status == "inconclusive"
    assert r.parameters["unstable"] == "bessel_norm"
    modes = [f"n=1/mode k={k:02d}" for k in range(5)]
    trials = [f"n={n}/trial={t:02d}" for n in (1, 2) for t in (0, 2, 3)]
    assert _sobolev_rows(r) == modes + trials
    assert all(math.isfinite(v) for _, v in r.samples)
    with pytest.raises(ToleranceError):
        bessel_sobolev_norm(make_state(1, {(0,): 1.0, (1,): complex(np.nan)}), 1.0)


def test_bessel_sobolev_gate_raises_on_the_panel_floor(monkeypatch):
    # at scales 1e-3 and 2e-3 both of the oracle's rules sit on the 4-panel
    # floor: one rule twice is no gate, so it raises for any row
    assert spectral._sobolev_panels(1, 20, 1e-3) == spectral._sobolev_panels(1, 20, 2e-3) == 4
    assert spectral._sobolev_panels(2, 12, 1e-3) == spectral._sobolev_panels(2, 12, 2e-3) == 4
    with pytest.raises(ToleranceError, match="no doubling gate"):
        bessel_sobolev_norm(random_state(1, 20, [7, 1]), 0.5, rule_scale=1e-3)
    # the check's rules shrunk to 4 and 8 panels: two rules, and neither
    # resolves any row, so every row is skipped
    monkeypatch.setattr(spectral, "_sobolev_panels", lambda n, k_max, scale: int(4 * scale))
    r = check_hermite_sobolev(ScanConfig(), 0.5)
    assert r.status == "inconclusive"
    assert r.parameters["unstable"] == "sharp,bessel_norm"
    assert _sobolev_rows(r) == []


def test_propagate_phases():
    state = random_state(2, 5, [3, 1])
    assert propagate(state, 0.0).coefficients == state.coefficients
    back = propagate(state, TWO_PI)
    drift = max(abs(back.coefficients[a] - state.coefficients[a]) for a in state.coefficients)
    assert drift < 1e-13
    mode = make_state(2, {(1, 1): 1.0})
    lam = 2 * 2 + 2
    rotated = propagate(mode, math.pi / lam)
    assert abs(rotated.coefficients[(1, 1)] + 1.0) < 1e-14


def test_propagate_unitarity():
    state = random_state(3, 6, [11, 2])
    for t in (0.37, 1.9, 5.51, 12.3):
        assert math.sqrt(state_norm_sq(propagate(state, t))) == pytest.approx(
            math.sqrt(state_norm_sq(state)), abs=1e-14
        )


def test_project_resolution():
    state = random_state(2, 6, [5, 9])
    mode = make_state(2, {(2, 1): 1.0})
    assert project(mode, 3).coefficients == mode.coefficients
    assert project(mode, 2).coefficients == {}
    recon = {}
    for k in range(7):
        recon.update(project(state, k).coefficients)
    assert recon == state.coefficients


def test_kernel_diagonal_ratio_bounded_2d():
    grid = np.stack(
        [g.ravel() for g in np.meshgrid(np.linspace(-6, 6, 25), np.linspace(-6, 6, 25))],
        axis=1,
    )
    for k in (1, 4, 12):
        assert kernel_diagonal_ratio(2, k, grid) <= 1.5, k
    with pytest.raises(ValueError):
        kernel_diagonal_ratio(2, 0, grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_diagonals_match_the_per_level_mode_matrix(n):
    rng = np.random.default_rng(31 + n)
    ray = np.zeros((20, n))
    ray[:, 0] = np.linspace(0.0, 9.0, 20)
    pts = np.concatenate([rng.normal(scale=2.5, size=(40, n)), ray])
    got = kernel_diagonals(n, 14, pts)
    assert got.shape == (15, 60)
    for k in range(15):
        want = kernel_diagonal(n, k, pts)
        assert np.all(np.abs(got[k] - want) <= 1e-13 * want), k


def test_eigenrelation_finite_differences():
    rng = np.random.default_rng(202)
    h = 1e-3
    coefs = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    cases = [(1, (7,)), (2, (3, 4)), (3, (2, 3, 5)), (3, (0, 0, 1)), (2, (10, 0))]
    for n, alpha in cases:
        lam = 2 * sum(alpha) + n
        pts = rng.uniform(-1.5, 1.5, size=(30, n))
        base = evaluate_phi(alpha, pts)
        lap = np.zeros(30)
        for axis in range(n):
            for c, o in zip(coefs, offsets):
                shifted = pts.copy()
                shifted[:, axis] += o
                lap += c * evaluate_phi(alpha, shifted)
        r_sq = np.sum(pts * pts, axis=1)
        resid = -lap + r_sq * base - lam * base
        rel = np.max(np.abs(resid)) / max(1.0, np.max(np.abs(lam * base)))
        assert rel <= 1e-4, (n, alpha)


def test_fourier_eigenrelation():
    # unitary angular-frequency transform sends the degree-k mode to (-i)^k itself
    T = 16.0
    nodes, weights = gauss_legendre_panels(-T, T, 64, 12)
    xi = np.linspace(-3.0, 3.0, 20)
    for k in (0, 1, 2, 5, 9, 15):
        hk = hermite_functions(k, nodes)[k]
        transform = np.array(
            [np.dot(weights, hk * np.exp(-1j * nodes * x)) for x in xi]
        ) / math.sqrt(TWO_PI)
        expected = (-1j) ** k * hermite_functions(k, xi)[k]
        assert np.max(np.abs(transform - expected)) < 1e-8, k


def test_fourier_transform_state_phases():
    state = make_state(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0, (3, 0): 1.0})
    out = fourier_transform_state(state)
    assert out.coefficients[(0, 0)] == 1.0
    assert out.coefficients[(1, 0)] == -1.0j
    assert out.coefficients[(1, 1)] == -1.0
    assert out.coefficients[(3, 0)] == 1.0j


def test_plancherel_against_grid_quadrature():
    nodes, comp = gauss_rule("hermite", 40)
    for n, k_max, seed in [(1, 12, 4), (2, 8, 5), (3, 4, 6)]:
        state = random_state(n, k_max, [seed, 77])
        vals = evaluate_state_grid(state, [nodes] * n)
        dens = np.abs(vals) ** 2
        for _ in range(n):
            dens = np.tensordot(dens, comp, axes=([0], [0]))
        assert float(dens) == pytest.approx(state_norm_sq(state), abs=1e-8)


def test_evaluate_state_grid_matches_pointwise_evaluation():
    states = [
        random_state(1, 9, [11, 1]),
        random_state(2, 6, [11, 2]),
        random_state(3, 4, [11, 3]),
        # the largest degree differs per axis
        make_state(3, {(4, 0, 1): 0.5 - 1j, (0, 2, 0): 0.25, (1, 0, 3): 1j}),
    ]
    for state in states:
        axes = [np.linspace(-3.0 - c, 2.5 + c, 7 - c) for c in range(state.n)]
        grid = evaluate_state_grid(state, axes)
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        flat = evaluate_state(state, mesh)
        assert grid.shape == tuple(len(a) for a in axes)
        assert np.max(np.abs(grid.ravel() - flat)) <= 1e-13


def _time_avg_reference(state, delta, wd):
    # evaluate_phi per index, summed in a loop on the oracle's level grid:
    # shares neither the separable route nor the memoized level forms
    divide = len(wd) == 1 and delta >= 0.5
    total = 0.0
    for k in sorted({sum(a) for a in state.coefficients}):
        base_pts, base_w = _level_grid(state.n, k, delta, wd, 1.0, divide)
        pts, w = _tensor_free_axes(base_pts, base_w, state.n, wd, k, 1.0)
        vals = np.zeros(w.size, dtype=complex)
        for alpha, coeff in state.coefficients.items():
            if sum(alpha) == k:
                vals += coeff * evaluate_phi(alpha, pts)
        if divide:
            vals /= pts[:, wd[0]]
        total += float(np.dot(w, np.abs(vals) ** 2))
    return TWO_PI * total


@pytest.mark.parametrize("state, delta, wd", [
    (random_state(1, 9, [12, 1], parity="odd"), 1.0, (0,)),  # odd in the weighted axis
    (random_state(2, 6, [12, 2]), 0.5, (0, 1)),
    (random_state(3, 5, [12, 3]), 1.0, (0, 1, 2)),
    (random_state(3, 4, [12, 4]), 0.5, (0, 1)),  # one free axis
])
def test_time_avg_matches_per_index_reference(state, delta, wd):
    got = time_avg_weighted(state, delta, wd)
    assert got == pytest.approx(_time_avg_reference(state, delta, wd), rel=1e-13)


def _fully_even_state(k_max, seed):
    # the states of even_3d: random coefficients on the indices 2 beta
    idx = [tuple(2 * c for c in b) for k in range(0, k_max + 1, 2)
           for b in enumerate_multiindices(3, k // 2)]
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return make_state(3, dict(zip(idx, c / np.linalg.norm(c))), k_max)


@pytest.mark.parametrize("state, wd", [
    (random_state(1, 11, [13, 1], parity="odd"), (0,)),  # odd in the weighted axis
    (_fully_even_state(6, [13, 3]), None),
])
@pytest.mark.parametrize("rule_scale", [1.0, 2.0])
def test_time_avg_levels_match_the_functional_bit_for_bit(state, wd, rule_scale):
    levels = time_avg_levels(state, 1.0, wd, rule_scale)
    assert list(levels) == sorted({sum(a) for a in state.coefficients})
    assert TWO_PI * math.fsum(levels.values()) == time_avg_weighted(
        state, 1.0, wd, rule_scale)
    # each level is the functional of that level's projection alone
    for k, term in levels.items():
        assert TWO_PI * term == time_avg_weighted(project(state, k), 1.0, wd, rule_scale)


def _even_level(k):
    return tuple(sorted(tuple(2 * c for c in b) for b in enumerate_multiindices(3, k // 2)))


@pytest.mark.parametrize("args", [
    # fully even 3D at three rule scales
    *[(3, k, 1.0, (0, 1, 2), scale, False, _even_level(k))
      for scale in (1.0, 1.5, 2.0) for k in (0, 2, 6)],
    # the odd 1D forms, which the grid oracle divides by x_w
    *[(1, k, 1.0, (0,), scale, True, ((k,),)) for scale in (1.0, 1.5) for k in (1, 9)],
    # two weighted axes and a free axis
    (3, 2, 0.5, (0, 1), 1.0, False, _even_level(2)),
])
def test_folded_level_form_matches_the_full_grid(args):
    # the separable forms against the product-grid oracle; the last two
    # arguments are the oracle's divide flag and the index set
    (got,) = level_form(*args[:5], (args[-1],))
    want = grid_level_form(*args)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _full_level(k):
    return tuple(sorted(enumerate_multiindices(3, k)))


@pytest.mark.parametrize("n, top, delta, wd, divide, sets", [
    # the odd 1D forms: every odd level on the top level's rules
    (1, 13, 1.0, (0,), True, tuple(((k,),) for k in range(1, 14, 2))),
    # fully even 3D: every even level's fully even indices on the top even level's rules
    (3, 8, 1.0, (0, 1, 2), False, tuple(_even_level(k) for k in range(0, 9, 2))),
    # a fully even set beside mixed-parity full levels, with a free axis
    (3, 3, 0.5, (0, 1), False, (_even_level(2), _full_level(1), _full_level(3))),
])
@pytest.mark.parametrize("scale", [1.0, 1.5])
def test_shared_grid_forms_match_each_level_own_form(n, top, delta, wd, divide, sets, scale):
    # each shared form against the grid oracle on its own level's grid
    shared = level_form(n, top, delta, wd, scale, sets)
    assert len(shared) == len(sets)
    for indices, got in zip(sets, shared):
        want = grid_level_form(n, sum(indices[0]), delta, wd, scale, divide, indices)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_level_form_refuses_a_set_past_its_grid_level():
    # per-axis degree 2 fits the level-2 rules, but the index is on level 4
    with pytest.raises(ValueError, match="past its rules' level 2"):
        level_form(3, 2, 1.0, (0, 1, 2), 1.0, (((2, 2, 0),),))


def test_odd_inverse_squares_match_the_tau_oracle_up_to_k_max_60():
    # every odd level odd_identity reads at k_max = 60, on both of its rules,
    # against the Gamma-identity tau forms on the top level's rules (which
    # drift from 2 by up to 1.5e-13 here), and against 2 itself
    mode_cap = 121
    ks = range(1, mode_cap + 1, 2)
    tau = [G[0, 0] for G in level_form(1, mode_cap, 1.0, (0,), 1.0, tuple(((k,),) for k in ks))]
    for scale in (1.0, 2.0):
        got = spectral.odd_inverse_squares(mode_cap, scale)
        assert got.shape == (len(ks),)
        assert np.max(np.abs(got - tau)) <= 1e-12
        assert np.max(np.abs(got - 2.0)) <= 1e-14


def _even_casimir_form(k):
    # V diag(2/(2l+1)) V^T, each l read off its eigenvalue l(l+1)
    casimir, V = spectral.even_casimir(k)
    l = np.rint((np.sqrt(1.0 + 4.0 * casimir) - 1.0) / 2.0)
    return (V * (2.0 / (2.0 * l + 1.0))) @ V.T


def test_even_casimir_forms_match_the_tau_oracle_up_to_k_max_60():
    # every even level even_3d reads at k_max = 60, its fully even indices in
    # the order of enumerate_multiindices(3, k/2), against the tau forms
    levels = range(0, 61, 2)
    sets = tuple(tuple(tuple(2 * c for c in b) for b in enumerate_multiindices(3, k // 2))
                 for k in levels)
    for k, want in zip(levels, level_form(3, 60, 1.0, (0, 1, 2), 1.0, sets)):
        got = _even_casimir_form(k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), k


@pytest.mark.parametrize("k", [0, 2, 8, 20, 40])
def test_even_casimir_eigenvalues_are_the_radial_degrees(k):
    # each even l <= k once per fully even harmonic of degree l, l/2 + 1 of them
    casimir, V = spectral.even_casimir(k)
    want = np.concatenate([np.full(l // 2 + 1, l * (l + 1.0)) for l in range(0, k + 1, 2)])
    assert casimir.shape == (len(enumerate_multiindices(3, k // 2)),)
    assert np.max(np.abs(casimir - want)) <= 1e-14 * max(1, k * (k + 1))
    assert np.max(np.abs(V.T @ V - np.eye(len(casimir)))) <= 1e-13


def test_time_avg_odd_single_mode_is_4pi():
    state = make_state(1, {(1,): 1.0})
    got = time_avg_weighted(state, 1.0, (0,))
    assert got == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_time_avg_ground_state_3d_inverse_square():
    state = make_state(3, {(0, 0, 0): 1.0})
    got = time_avg_weighted(state, 1.0)
    assert got == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_time_avg_unweighted_is_plancherel():
    for n in (1, 2, 3):
        state = random_state(n, 5, [n, 123])
        got = time_avg_weighted(state, 0.0)
        assert got == pytest.approx(TWO_PI * state_norm_sq(state), rel=1e-12), n


def test_time_avg_admissibility_gates():
    with pytest.raises(ValueError):
        time_avg_weighted(make_state(2, {(0, 0): 1.0}), 1.0)
    with pytest.raises(ValueError):
        time_avg_weighted(make_state(3, {(0, 0, 0): 1.0}), 1.1)
    with pytest.raises(ValueError):
        # even mode along a one-axis strong weight
        time_avg_weighted(make_state(1, {(2,): 1.0}), 1.0, (0,))
    with pytest.raises(ValueError):
        time_avg_weighted(make_state(2, {(1, 1): 1.0}), 0.5, (5,))


def test_time_avg_odd_levels_sum_coefficientwise():
    # each odd 1D level contributes exactly 2 |a|^2 to the delta = 1 functional
    coeffs = {(1,): 0.5 + 0.25j, (3,): -0.3j, (7,): 0.8}
    state = make_state(1, coeffs)
    got = time_avg_weighted(state, 1.0, (0,))
    expected = TWO_PI * sum(2.0 * abs(c) ** 2 for c in coeffs.values())
    assert got == pytest.approx(expected, rel=1e-12)


def test_time_avg_fractional_delta_panel_route():
    # mixed parity with a weak one-axis weight: a Jacobi exponent of -0.8 in tau
    state = make_state(1, {(0,): 1.0})
    got = time_avg_weighted(state, 0.3, (0,))
    # integral |h_0|^2 |x|^(-0.6) = pi^(-1/2) Gamma(0.2) 2^(... ) checked by oracle
    from scipy.integrate import quad

    oracle, _ = quad(
        lambda x: math.pi ** -0.5 * math.exp(-x * x) * abs(x) ** -0.6, -20, 20,
        points=[0.0], limit=400,
    )
    assert got == pytest.approx(TWO_PI * oracle, rel=1e-8)


def test_time_avg_lifted_two_axis_weight_inside_3d():
    # two weighted axes and one free axis: the free direction rides a
    # compensated Gauss-Hermite rule; value must be rule-stable and bounded
    state = random_state(3, 4, [21, 8])
    v1 = time_avg_weighted(state, 0.5, (0, 1), rule_scale=1.0)
    v2 = time_avg_weighted(state, 0.5, (0, 1), rule_scale=2.0)
    assert v1 == pytest.approx(v2, rel=1e-11)
    assert 0.0 < v1 < 50.0 * state_norm_sq(state)


def test_time_orthogonality_oracle_2d():
    # direct 200-node time quadrature against the level-sum reduction
    state = random_state(2, 4, [31, 5])
    delta = 0.25
    level_sum = time_avg_weighted(state, delta)
    times = TWO_PI * (np.arange(200) + 0.5) / 200.0

    def spatial(t):
        ut = propagate(state, t)

        def F(x, y):
            pts = np.stack([np.ravel(x), np.ravel(y)], axis=1)
            vals = evaluate_state(ut, pts)
            return (np.abs(vals) ** 2).reshape(np.shape(x))

        return integrate_cyl_2d(F, delta, 11.0, n_panels=120, nodes_per_panel=8, n_phi=48)

    direct = (TWO_PI / 200.0) * math.fsum(spatial(t) for t in times)
    assert direct == pytest.approx(level_sum, rel=1e-6)


def test_hermite_sobolev_values():
    mode = make_state(3, {(1, 2, 0): 2.0})
    lam = 2 * 3 + 3
    assert hermite_sobolev_norm(mode, 1.5) == pytest.approx(2.0 * lam ** 0.75, rel=1e-14)
    state = random_state(2, 6, [9, 1])
    assert hermite_sobolev_norm(state, 0.0) == pytest.approx(
        math.sqrt(state_norm_sq(state)), rel=1e-14
    )
    combo = make_state(1, {(0,): 1.0, (2,): 1.0})
    assert hermite_sobolev_norm(combo, 2.0) == pytest.approx(math.sqrt(26.0), rel=1e-14)


def test_bessel_sobolev_ground_state_values():
    h0 = make_state(1, {(0,): 1.0})
    assert bessel_sobolev_norm(h0, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert bessel_sobolev_norm(h0, 1.0) == pytest.approx(
        math.sqrt(1.5), abs=1e-10
    )
    assert bessel_sobolev_norm(h0, 2.0) == pytest.approx(
        math.sqrt(2.75), abs=1e-10
    )


def test_bessel_sobolev_plancherel_at_zero():
    state = random_state(2, 5, [41, 3])
    assert bessel_sobolev_norm(state, 0.0) == pytest.approx(
        math.sqrt(state_norm_sq(state)), abs=1e-9
    )


def _bessel_grid_reference(state, s, scale):
    # the per-state grid route: the twisted state on the full tensor grid of
    # the same panel rule, |fhat|^2 (1+|xi|^2)^s summed against the weights;
    # the grid is walked in slabs of the first axis so n = 3 stays small
    T = truncation_radius(state.k_max, state.n)
    n_panels = spectral._sobolev_panels(state.n, state.k_max, scale)
    nodes, weights = gauss_legendre_panels(-T, T, n_panels, 10 if state.n < 3 else 8)
    fhat = fourier_transform_state(state)
    xi_sq = nodes ** 2
    total = 0.0
    for lo in range(0, nodes.size, 16):
        sl = slice(lo, lo + 16)
        vals = evaluate_state_grid(fhat, [nodes[sl]] + [nodes] * (state.n - 1))
        weight = 1.0 + xi_sq[sl].reshape((-1,) + (1,) * (state.n - 1))
        for c in range(1, state.n):
            weight = weight + xi_sq.reshape((-1,) + (1,) * (state.n - 1 - c))
        dens = np.abs(vals) ** 2 * weight ** s
        dens = np.tensordot(dens, weights[sl], axes=([0], [0]))
        for _ in range(state.n - 1):
            dens = np.tensordot(dens, weights, axes=([0], [0]))
        total += float(dens)
    return total


@pytest.mark.parametrize("n, k_max", [(1, 20), (2, 8), (3, 3)])
def test_sobolev_form_matches_the_grid_route(n, k_max):
    states = [random_state(n, k_max, [61, n]),
              # sparse, with a k_max above its largest level
              make_state(n, {(1,) * n: 0.5 - 1j, (0,) * (n - 1) + (2,): 0.25}, k_max)]
    for state in states:
        # the state as one coefficient row over the twisted form's indices
        indices, _ = sobolev_twisted_form(n, k_max, 0.0)
        row = np.array([[state.coefficients.get(a, 0.0) for a in indices]], dtype=complex)
        for s in (0.0, 0.5, 1.0, 2.0):
            # 1.03 gives n = 2 an even panel count (30), so no panel straddles 0
            for scale in (1.0, 1.03, 2.0):
                ref = _bessel_grid_reference(state, s, scale)
                F = sobolev_twisted_form(n, k_max, s, scale)[1]
                (got,) = spectral._quadratic_rows(F, row.real, row.imag)
                assert abs(got - ref) <= 1e-13 * ref, (s, scale)


@pytest.mark.parametrize("n, k_max, scale", [(1, 20, 1.0), (2, 8, 1.03), (2, 12, 2.0), (3, 3, 1.0)])
def test_sobolev_form_is_symmetric_and_zero_across_parities(n, k_max, scale):
    # h_a(-x) = (-1)^a h_a(x) and an even weight: an entry whose degrees
    # differ in parity on some axis integrates an odd function to 0
    M = spectral._sobolev_form(n, k_max, 0.5, scale)
    box = np.array(np.unravel_index(np.arange(M.shape[0]), (k_max + 1,) * n)).T
    mixed = ((box[:, None, :] - box[None, :, :]) % 2 != 0).any(axis=2)
    assert mixed.any()
    assert np.all(M[mixed] == 0.0)
    assert np.all(M[~mixed] != 0.0)
    assert np.array_equal(M, M.T)


@pytest.mark.parametrize("n, k_max", [(1, 20), (2, 12), (3, 4)])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_sobolev_form_slabs_match_one_slab(monkeypatch, n, k_max, scale):
    # the slabbed contraction only regroups the sums over the first grid axis
    M = spectral._sobolev_form(n, k_max, 0.5, scale)
    monkeypatch.setattr(spectral, "_SOBOLEV_BLOCK", 1 << 30)
    whole = spectral._sobolev_form(n, k_max, 0.5, scale)
    assert np.abs(M - whole).max() <= 1e-14 * np.abs(whole).max()


@pytest.mark.parametrize("n, k_max", [(1, 20), (2, 12), (3, 4)])
def test_sobolev_twisted_form_is_the_real_part_of_the_phase_twist(n, k_max):
    # conj((-i)^|alpha|) (-i)^|beta| is +-1 wherever the form is nonzero, so
    # the signed real form is the complex twist, entry for entry
    indices, F = sobolev_twisted_form(n, k_max, 0.5, 2.0)
    idx = np.array(indices)
    pos = np.ravel_multi_index(tuple(idx.T), (k_max + 1,) * n)
    M = spectral._sobolev_form(n, k_max, 0.5, 2.0)[np.ix_(pos, pos)]
    phase = np.array(_QUARTER_PHASES)[idx.sum(axis=1) % 4]
    twisted = phase.conj()[:, None] * M * phase[None, :]
    assert F.dtype == np.float64
    assert np.all(twisted.imag == 0.0)
    assert np.array_equal(F, twisted.real)


def _ladder_form(n, k_max, indices):
    # I + sum_j P_j^T P_j: P maps h_k to h_k' = sqrt(k/2) h_(k-1) - sqrt((k+1)/2) h_(k+1)
    P = np.zeros((k_max + 2, k_max + 1))
    for k in range(k_max + 1):
        if k:
            P[k - 1, k] = math.sqrt(k / 2.0)
        P[k + 1, k] = -math.sqrt((k + 1) / 2.0)
    Q = P.T @ P
    idx = np.array(indices)
    form = np.eye(len(indices))
    for j in range(n):
        others = np.delete(idx, j, axis=1)
        same = (others[:, None, :] == others[None, :, :]).all(axis=2)
        form += same * Q[idx[:, j][:, None], idx[:, j][None, :]]
    return form


@pytest.mark.parametrize("n, k_max", [(1, 20), (2, 12)])
def test_sobolev_twisted_form_is_the_ladder_form_at_s1(n, k_max):
    # the exact form against its quadrature oracle, _sobolev_form at s = 1
    # restricted and twisted: ||f||^2_(H^1) = ||f||^2 + sum_j ||d_j f||^2
    indices, exact = sobolev_ladder_form(n, k_max)
    assert indices == [a for k in range(k_max + 1) for a in enumerate_multiindices(n, k)]
    assert np.array_equal(exact, exact.T)
    # built in index space from the derivative ladder, with no twist
    assert np.max(np.abs(exact - _ladder_form(n, k_max, indices))) <= 1e-14
    fine_indices, fine = sobolev_twisted_form(n, k_max, 1.0, 2.0)
    assert fine_indices == indices
    assert np.max(np.abs(exact - fine)) <= 1e-13
    # the coarse rule under-resolves the top degrees, within the doubling gate
    _, coarse = sobolev_twisted_form(n, k_max, 1.0, 1.0)
    assert np.max(np.abs(exact - coarse)) <= 1e-8


def test_collapse_ground_state_frozen_value():
    state = make_state(9, {(0,) * 9: 1.0})
    got = collapse_trace_norm(state)
    assert got == pytest.approx(TWO_PI * 3.0 ** -1.5 * math.pi ** -3.0, rel=1e-12)
    assert got == pytest.approx(0.03899854176701015, abs=1e-10)
    assert oscillator_energy_sq(state) == pytest.approx(81.0, rel=1e-15)


def test_collapse_single_mode_matches_direct_spatial():
    alpha = (1, 0, 0, 1, 0, 0, 0, 0, 0)
    state = make_state(9, {alpha: 1.0})
    got = collapse_trace_norm(state)
    # one eigenvalue: the time average is 2*pi times the fixed spatial integral
    nodes, comp = gauss_rule("hermite", 24)
    x = nodes / math.sqrt(3.0)
    tab = {d: hermite_functions(d, x)[d] for d in range(2)}
    f1 = tab[1] * tab[1] * tab[0]
    f2 = tab[0] * tab[0] * tab[0]
    dens = np.multiply.outer(np.multiply.outer(f1 * f1, f2 * f2), f2 * f2)
    val = dens
    for _ in range(3):
        val = np.tensordot(val, comp, axes=([0], [0]))
    direct = TWO_PI * 3.0 ** -1.5 * float(val)
    assert got == pytest.approx(direct, rel=1e-11)


def _collapse_per_coefficient(state, rule_scale):
    # reference: one outer product of the three restricted factors per
    # coefficient, axis j of R^3 carrying the 9D axes j, j+3 and j+6
    m = max(4, int(math.ceil((2 * state.k_max + 6) * rule_scale)))
    nodes, comp = gauss_rule("hermite", m)
    tab = hermite_functions(state.k_max, nodes / math.sqrt(3.0))
    total = 0.0
    for k in range(state.k_max + 1):
        restricted = np.zeros((m, m, m), dtype=complex)
        for alpha, coeff in state.coefficients.items():
            if sum(alpha) != k:
                continue
            f1, f2, f3 = (tab[alpha[j]] * tab[alpha[j + 3]] * tab[alpha[j + 6]] for j in range(3))
            restricted += coeff * np.multiply.outer(np.multiply.outer(f1, f2), f3)
        val = np.abs(restricted) ** 2
        for _ in range(3):
            val = np.tensordot(val, comp, axes=([0], [0]))
        total += 3.0 ** -1.5 * float(val)
    return TWO_PI * total


@pytest.mark.parametrize("rule_scale", [1.0, 2.0])
def test_collapse_cross_terms_match_per_coefficient_reference(rule_scale):
    # every index up to level 3 (220 coefficients on 4 levels), so the
    # restriction mixes many coefficients within each level
    state = random_state(9, 3, [11, 9])
    assert len(state.coefficients) == 220
    got = collapse_trace_norm(state, rule_scale=rule_scale)
    ref = _collapse_per_coefficient(state, rule_scale)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def _collapse_unique_per_call(state, rule_scale):
    # the route that finds every level's triples with np.unique on each call
    m = max(4, int(math.ceil((2 * state.k_max + 6) * rule_scale)))
    nodes, comp = gauss_rule("hermite", m)
    tab = hermite_functions(state.k_max, nodes / math.sqrt(3.0))
    by_level = {}
    for alpha, coeff in state.coefficients.items():
        by_level.setdefault(sum(alpha), []).append((alpha, coeff))
    total = 0.0
    for k, items in sorted(by_level.items()):
        triples = np.array([alpha for alpha, _ in items]).reshape(-1, 3, 3).transpose(0, 2, 1)
        uniq, pos = np.unique(triples.reshape(-1, 3), axis=0, return_inverse=True)
        pos = pos.reshape(-1, 3)
        restricted = np.zeros((len(uniq),) * 3, dtype=complex)
        restricted[pos[:, 0], pos[:, 1], pos[:, 2]] = [coeff for _, coeff in items]
        F = tab[uniq[:, 0]] * tab[uniq[:, 1]] * tab[uniq[:, 2]]
        for _ in range(3):
            restricted = np.tensordot(restricted, F, axes=([0], [0]))
        val = np.abs(restricted) ** 2
        for _ in range(3):
            val = np.tensordot(val, comp, axes=([0], [0]))
        total += 3.0 ** -1.5 * float(val)
    return TWO_PI * total


@pytest.mark.parametrize("seed", [21, 22])
def test_collapse_memoized_triples_match_the_per_call_route(seed):
    state = random_state(9, 3, [seed, 9])
    for rule_scale in (1.0, 2.0):
        first = collapse_trace_norm(state, rule_scale=rule_scale)
        again = collapse_trace_norm(state, rule_scale=rule_scale)
        assert first == again == _collapse_unique_per_call(state, rule_scale)


def test_collapse_guards():
    with pytest.raises(ValueError):
        collapse_trace_norm(make_state(3, {(0, 0, 0): 1.0}))
    big = make_state(9, {(5, 0, 0, 0, 0, 0, 0, 0, 0): 1.0})
    with pytest.raises(CapabilityError):
        collapse_trace_norm(big)


def test_level_gram_orthonormal_at_zero_power():
    M = level_gram(2, 3, 0.0)
    assert np.max(np.abs(M - np.eye(4))) < 1e-12


def test_level_gram_frozen_ground_state_entries():
    M2 = level_gram(3, 0, 2.0)
    assert M2.shape == (1, 1)
    assert M2[0, 0] == pytest.approx(2.0, rel=1e-12)
    M1 = level_gram(3, 0, 1.0)
    assert M1[0, 0] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)
    assert M1[0, 0] == pytest.approx(1.1283791670955126, abs=1e-12)


def test_level_gram_symmetric_and_rule_stable():
    M = level_gram(2, 5, 1.0)
    assert np.max(np.abs(M - M.T)) == 0.0
    M2 = level_gram(2, 5, 1.0, rule_scale=2.0)
    assert np.max(np.abs(M - M2)) < 1e-11
    with pytest.raises(ValueError):
        level_gram(2, 3, 2.0)


def _radial_spectrum(n, k, weight_power, wd):
    # level k: weighted level k_w times free level k - k_w; a dw-dimensional
    # level k_w holds the modes 2j + l = k_w, l with its harmonic multiplicity
    dw = len(wd)
    values = []
    for kw in (k,) if dw == n else range(k + 1):
        free = math.comb(k - kw + n - dw - 1, n - dw - 1) if n > dw else 1
        for l in range(kw % 2, kw + 1, 2):
            if dw == 1 and l > 1:
                break
            harmonics = 1 if dw == 1 or l == 0 else (2 if dw == 2 else 2 * l + 1)
            values += [radial_eigenvalue(dw, (kw - l) // 2, l, weight_power)] * (
                harmonics * free)
    return np.sort(values)


@pytest.mark.parametrize(
    "n, wd, powers",
    [
        (2, (0, 1), (0.5, 1.0, 1.5)),
        (3, (0, 1, 2), (0.5, 1.0, 2.0)),
        (2, (0,), (0.5,)),
        (3, (0, 1), (0.5, 1.0, 1.5)),
    ],
)
def test_radial_spectrum_matches_level_gram(n, wd, powers):
    for p in powers:
        tops, quads = level_tops(n, 10, p, wd)
        for k in range(11):
            exact = _radial_spectrum(n, k, p, wd)
            gram = np.linalg.eigvalsh(level_gram(n, k, p, weight_dims=wd))
            assert exact.shape == gram.shape
            assert np.max(np.abs(exact - gram) / gram) <= 1e-12, (p, k)
            top = level_top(n, k, p, wd)
            assert top.value == exact[-1]
            assert radial_eigenvalue(len(wd), top.j, top.l, p) == top.value
            assert tops[k] == top.value
            assert abs(quads[k] - top.value) <= 1e-14 * top.value, (p, k)


# the (weighted axes, weight power) pairs of the level-gram test above and of
# `hermspec all` (kato_nd, operator_norm_n3 and even_3d)
SPECTRUM_PAIRS = [(1, 0.5), (2, 0.5), (2, 1.0), (2, 1.5), (3, 0.5), (3, 1.0), (3, 2.0)]


@pytest.mark.parametrize("dw, p", SPECTRUM_PAIRS)
def test_level_spectrum_exact_half_is_the_per_mode_series_bit_for_bit(dw, p):
    table = level_spectrum(dw, 60, p)
    modes = [((k - l) // 2, l) for k in range(61) for l in range(k % 2, k + 1, 2)
             if dw > 1 or l <= 1]
    for j, l in modes:
        assert table.exact[2 * j + l, l] == radial_eigenvalue(dw, j, l, p), (j, l)
    # every other entry is no mode, in both halves
    assert np.isfinite(table.exact).sum() == len(modes)
    assert np.array_equal(np.isfinite(table.quad), np.isfinite(table.exact))


@pytest.mark.parametrize("k_max", [200, 299])
def test_level_spectrum_quadrature_half_matches_the_exact_half(k_max):
    for dw, p in SPECTRUM_PAIRS:
        table = level_spectrum(dw, k_max, p)
        modes = np.isfinite(table.exact)
        rel = np.abs(table.quad[modes] / table.exact[modes] - 1.0)
        assert rel.max() <= 1e-12, (dw, p)


def test_level_spectrum_limits_and_read_only():
    table = level_spectrum(3, 4, 2.0)
    for half in (table.exact, table.quad):
        with pytest.raises(ValueError):
            half[0, 0] = 0.0
    # the quadrature half's rule has k_max // 2 + 1 <= 150 nodes
    with pytest.raises(CapabilityError):
        level_spectrum(3, 300, 2.0)
    with pytest.raises(ValueError):
        level_spectrum(2, 4, 2.0)
    with pytest.raises(ValueError):
        level_spectrum(1, 4, 1.0)


def test_radial_eigenvalue_matches_mpmath_laguerre_integral():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for dw, j, l, p in [(3, 0, 0, 2.0), (3, 3, 0, 2.0), (3, 5, 2, 1.0),
                        (2, 4, 1, 0.5), (1, 6, 1, 1.5), (1, 7, 0, 0.5)]:
        a = l + mpmath.mpf(dw) / 2 - 1
        mu = mpmath.mpf(p) / 2

        def integral(power):
            # int s^power e^-s L_j^a(s)^2 ds with s = t^2, which tames the
            # endpoint singularity for tanh-sinh
            return mpmath.quad(
                lambda t: 2 * t ** (2 * power + 1) * mpmath.exp(-t * t)
                * mpmath.laguerre(j, a, t * t) ** 2,
                [0, 1, 2, 4, mpmath.inf],
            )

        expected = float(integral(a - mu) / integral(a))
        assert radial_eigenvalue(dw, j, l, p) == pytest.approx(expected, rel=1e-13)
        assert radial_eigenvalue_quadrature(dw, j, l, p) == pytest.approx(
            expected, rel=1e-12)


def test_poch_against_mpmath_no_worse_than_scipy():
    mpmath = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    mpmath.mp.dps = 30
    worst = {"own": 0.0, "scipy": 0.0, "own below 171": 0.0}
    # the arguments radial_eigenvalue feeds it: b + j + 1 with b = a - mu,
    # a = l + dw/2 - 1 over the weighted dimensions 1..3
    for mu in (0.25, 0.5, 1.0):
        for a in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0):
            b = a - mu
            if b <= -1.0:
                continue
            for j in range(300):
                x = b + j + 1.0
                ref = mpmath.rf(mpmath.mpf(x), mpmath.mpf(mu))
                for name, value in (("own", poch(x, mu)), ("scipy", special.poch(x, mu))):
                    err = float(abs((mpmath.mpf(float(value)) - ref) / ref))
                    worst[name] = max(worst[name], err)
                    if name == "own" and x + mu < 171.0:
                        worst["own below 171"] = max(worst["own below 171"], err)
    assert worst["own"] <= worst["scipy"]
    # where Gamma is finite the ratio of gammas is near full precision; the
    # log-gamma difference above it loses about 1e-13
    assert worst["own below 171"] <= 2e-15
    # the large-argument expansion
    for a, m in ((2.5e4, 0.5), (1e6, 0.25), (3e4, 1.5)):
        ref = mpmath.rf(mpmath.mpf(a), mpmath.mpf(m))
        assert float(abs((poch(a, m) - ref) / ref)) <= 1e-15


def test_poch_integer_shifts_are_exact_products():
    for x in (0.5, 1.25, 3.7, 170.5, 299.75, 2.5e4):
        assert poch(x, 1.0) == x
        assert poch(x, 2.0) == x * (x + 1.0)
        assert poch(x, 0.0) == 1.0
    assert poch(2.0, 0.5) == pytest.approx(math.gamma(2.5) / math.gamma(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        poch(0.0, 0.5)
    with pytest.raises(ValueError):
        poch(1.0, -0.5)


def test_radial_eigenvalue_ground_values_and_limits():
    # the constants the Kato and operator-norm scans pin at level 0
    assert level_tops(3, 0, 2.0)[0][0] == pytest.approx(2.0, rel=1e-15)
    assert level_tops(3, 0, 1.0)[0][0] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    assert level_tops(2, 7, 0.0)[0][7] == 1.0
    with pytest.raises(ValueError):
        radial_eigenvalue(1, 0, 2, 0.5)
    with pytest.raises(ValueError):
        radial_eigenvalue(2, 1, 0, 2.0)
    with pytest.raises(CapabilityError):
        radial_eigenvalue_quadrature(3, 150, 0, 2.0)
    with pytest.raises(ValueError):
        level_tops(2, 3, 2.0)
    with pytest.raises(ValueError):
        level_tops(2, 3, 1.0, (0,))
    # the per-level oracle keeps the exact series' range past the node cap
    assert level_top(3, 400, 2.0).value == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(CapabilityError):
        level_tops(3, 300, 2.0)


def test_admissibility_rule_names_each_case():
    for dw, delta, odd, text in [
        (0, 1.0, False, "the weight needs at least one axis"),
        (3, -0.1, False, "delta must be finite and >= 0"),
        (3, math.inf, False, "delta must be finite and >= 0"),
        (1, 1.5, True, "one-axis weight needs delta <= 1"),
        (1, 0.5, False, "needs every mode odd"),
        (2, 1.0, False, "two-axis weight needs delta < 1"),
        (3, 1.25, False, "three or more axes"),
    ]:
        with pytest.raises(ValueError, match=text):
            check_admissible(dw, delta, odd)
    check_admissible(1, 1.0, odd_in_axis=True)
    check_admissible(3, 1.0)


def test_random_state_determinism_and_parity():
    a = random_state(2, 6, [42, 0, 1])
    b = random_state(2, 6, [42, 0, 1])
    assert a.coefficients == b.coefficients
    assert state_norm_sq(a) == pytest.approx(1.0, rel=1e-14)
    odd = random_state(1, 9, [42, 3], parity="odd")
    assert all(alpha[0] % 2 == 1 for alpha in odd.coefficients)


def test_random_state_rejects_unknown_parity_and_axis():
    with pytest.raises(ValueError, match="parity"):
        random_state(2, 4, [42, 1], parity="Odd")
    for axis in (2, -1):
        with pytest.raises(ValueError, match="axis out of range"):
            random_state(2, 4, [42, 1], parity="even", parity_axis=axis)

