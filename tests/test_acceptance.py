"""Fourteen acceptance gates, one test each, at their stated tolerances.

Each test prints a single verdict line (visible under -s) and asserts it;
under plain -v the test name plus PASSED/FAILED is the per-criterion line.
"""

import math
import time

import numpy as np

from hermspec.antideriv import norm_sq_quadrature_all, norm_sq_routes_all
from hermspec.cli import main
from hermspec.verify import (
    GATE_TOL,
    ScanConfig,
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
    negative_control_divergence,
)

from oracles import (
    norm_sq_even_closed,
    norm_sq_even_quadrature,
    norm_sq_odd_closed,
    norm_sq_odd_expansion,
    norm_sq_odd_quadrature,
    norm_sq_odd_recursive,
    project,
    random_state,
    time_avg_weighted,
)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def _verdict(num, ok, text):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num:02d} failed: {text}"


def test_criterion_01_odd_antideriv_norm_routes():
    # the shipped one-pass routes and one-rule quadrature, with the per-k
    # oracles beside them
    shipped = norm_sq_routes_all(40)
    quad, _ = norm_sq_quadrature_all(40)
    worst = 0.0
    for k in range(41):
        routes = [
            2.0,
            shipped.odd_recursive[k],
            shipped.odd_expansion[k],
            quad[k],
            norm_sq_odd_closed(k),
            norm_sq_odd_recursive(k),
            norm_sq_odd_expansion(k),
            norm_sq_odd_quadrature(k),
        ]
        for a in routes:
            for b in routes:
                worst = max(worst, abs(a - b))
    _verdict(1, worst <= 1e-8,
             f"odd norms all equal 2 for k <= 40, route spread {worst:.3g}")


def test_criterion_02_even_antideriv_norms():
    closed = norm_sq_routes_all(40).even_closed
    _, quad = norm_sq_quadrature_all(40)
    worst = 0.0
    for k in range(41):
        ref_closed = norm_sq_even_closed(k)
        ref_quad = norm_sq_even_quadrature(k)
        worst = max(worst, abs(quad[k] - closed[k]), abs(closed[k] - ref_closed),
                    abs(quad[k] - ref_quad))
    peak = float(np.max(closed))
    gap40 = abs(float(closed[40]) - 2.0)
    ok = worst <= 1e-8 and peak <= 3.0 and gap40 <= 0.05
    _verdict(2, ok,
             f"even norms: quad vs closed {worst:.3g}, max {peak:.6f}, "
             f"k=40 gap {gap40:.4f}")


def test_criterion_03_odd_identity_16_states():
    r = check_odd_identity(ScanConfig())
    worst_f = max(
        abs(v - FOUR_PI) / FOUR_PI for lab, v in r.samples if "functional" in lab
    )
    worst_l = max(abs(v - 1.0) for lab, v in r.samples if "level" in lab)
    n_states = sum(1 for lab, _ in r.samples if "functional" in lab)
    ok = r.status == "passed" and n_states == 16 and worst_f <= 1e-7
    _verdict(3, ok,
             f"16 odd states: functional rel dev {worst_f:.3g}, "
             f"per-level ratio dev {worst_l:.3g}")


def test_criterion_04_radial_3d_identity():
    r = check_radial_3d_identity(ScanConfig())
    worst = max(
        abs(v - FOUR_PI) / FOUR_PI for lab, v in r.samples if "functional" in lab
    )
    ok = r.status == "passed" and worst <= 1e-6
    _verdict(4, ok, f"3D radial identity rel dev {worst:.3g}")


def test_criterion_05_ground_projection_endpoint():
    d = random_state(3, 6, [42, 5])
    p0 = project(d, 0)
    a0 = p0.coefficients[(0, 0, 0)]
    integral = time_avg_weighted(p0, 1.0) / TWO_PI
    dev = abs(integral - 2.0 * abs(a0) ** 2)
    _verdict(5, dev <= 1e-9, f"ground-level weighted integral dev {dev:.3g}")


def test_criterion_06_singular_operator_norms():
    cfg = ScanConfig()
    r = check_operator_norms(cfg, 3, (0.5, 1.0))
    k = check_kato(cfg, 3, 1.0)
    k5 = check_kato(cfg, 3, 0.5)
    norm0_dev = abs(r.parameters["norm0_delta1"] - 2.0 / math.sqrt(math.pi))
    ok = (
        r.status == "passed"
        and k.status == "passed"
        and k5.status == "passed"
        and norm0_dev <= 1e-8
        and r.parameters["trend_slope_delta0.5"] <= 0.05
        and r.parameters["trend_slope_delta1"] <= 0.05
    )
    _verdict(6, ok,
             f"operator norms bounded k <= {cfg.k_max}, ground dev {norm0_dev:.3g}")


def test_criterion_07_diagonal_kernel_bound():
    r2 = check_kernel_bound(ScanConfig(k_max=40), 2)
    r3 = check_kernel_bound(ScanConfig(k_max=30), 3)
    ok = r2.status == "passed" and r3.status == "passed"
    _verdict(7, ok,
             f"diagonal kernel ratios: n=2 sup {r2.sup_ratio:.4f} "
             f"slope {r2.parameters['trend_slope']:+.4f}, "
             f"n=3 sup {r3.sup_ratio:.4f} "
             f"slope {r3.parameters['trend_slope']:+.4f}")


def test_criterion_08_morawetz_2d():
    r = check_morawetz_2d(ScanConfig())
    ok = r.status == "passed"
    _verdict(8, ok, f"2D pointwise time-average sup {r.sup_ratio:.4f}")


def test_criterion_09_even_3d_and_cover():
    # the fully even part of every even level keeps its sharp constant 4*pi
    r = check_even_3d(ScanConfig())
    ok = (
        r.status == "passed"
        and abs(r.parameters["sharp"] - 4.0 * math.pi) <= 1e-14 * 4.0 * math.pi
        and r.parameters["route_drift"] <= GATE_TOL
    )
    _verdict(9, ok,
             f"fully-even 3D sharp {r.parameters['sharp']:.4f} (4 pi), "
             f"route drift {r.parameters['route_drift']:.1e}")


def test_criterion_10_sobolev_comparison():
    cfg = ScanConfig(k_max=30)
    r5 = check_hermite_sobolev(cfg, 0.5)
    r1 = check_hermite_sobolev(cfg, 1.0)
    n_random = sum(1 for lab, _ in r1.samples if "trial" in lab)
    ok = r5.status == "passed" and r1.status == "passed" and n_random == 8
    _verdict(10, ok,
             f"flat/oscillator norm ratios: s=1/2 sup {r5.sup_ratio:.4f}, "
             f"s=1 sup {r1.sup_ratio:.4f}, {n_random} random states")


def test_criterion_11_collapse_9d():
    r = check_collapse_9d(ScanConfig())
    ground = r.parameters["ground_target"]
    n_rand = sum(1 for lab, _ in r.samples if "trial" in lab)
    ok = r.status == "passed" and n_rand == 8 and r.parameters["k_max"] == 3
    _verdict(11, ok,
             f"triple-diagonal ratios bounded ({n_rand} states), "
             f"ground value target {ground:.12g} met")


def test_criterion_12_appendix_identities():
    r = check_appendix_identities(ScanConfig())
    bridge = [v for lab, v in r.samples if lab.startswith("bridge k")]
    control = dict(r.samples)["bridge-control k=01"]
    ok = r.status == "passed" and bridge == [0.0] * 11 and control >= 0.3
    _verdict(12, ok,
             f"appendix: {len(bridge)} bridge rows, largest residual {max(bridge):.3g} "
             f"(exact), broken-prefactor control {control:.3f}")


def test_criterion_13_negative_control():
    r = negative_control_divergence(ScanConfig())
    ok = r.status == "passed" and r.parameters["growth_factor"] >= 2.0
    _verdict(13, ok,
             f"2D endpoint diverges: growth {r.parameters['growth_factor']:.2f}x "
             "across two panel doublings")


def test_criterion_14_full_run_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["all", "--out", str(out1)]) == 0
    clear_caches()
    assert main(["all", "--out", str(out2)]) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names == sorted(p.name for p in out2.glob("*.csv")) and names
    identical = all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names
    )
    ok = identical and elapsed <= 900.0
    _verdict(14, ok,
             f"full run twice: {len(names)} tables byte-identical, "
             f"{elapsed:.1f}s total")
