"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q      # from the checkout root

The coverage test runs each workload once, traced (about 40 s on 2 CPUs, and
1.5 GB peak for gram_scan).  Child output goes under .perfbench_out/tests/.
"""

import json
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layertrace  # noqa: E402
import run  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # cli.main [0, 10] holds b [1, 5] (which holds c [2, 4]) and b [6, 7]
    rec = layertrace.Recorder(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    rec.enter("cli.main")
    rec.enter("b")
    rec.enter("c")
    rec.exit("c")
    rec.exit("b")
    rec.enter("b")
    rec.exit("b")
    rec.exit("cli.main")
    st = rec.stats
    assert st["cli.main"] == {"calls": 1, "wall_s": 10, "self_s": 5}
    assert st["b"] == {"calls": 2, "wall_s": 5, "self_s": 3}
    assert st["c"] == {"calls": 1, "wall_s": 2, "self_s": 2}
    assert layertrace.unaccounted_s(rec) == 0
    metrics = layertrace.layer_metrics(rec)
    assert metrics["trace.wall_s"] == 10
    assert metrics["cli.main.self_s"] == 5
    assert metrics["cli.self_s"] == 5


def test_span_closed_out_of_order_raises():
    rec = layertrace.Recorder()
    rec.enter("a")
    rec.enter("b")
    with pytest.raises(RuntimeError, match="closed while"):
        rec.exit("a")


def test_caller_filter_passes_other_modules_through():
    rec = layertrace.Recorder()
    mine = rec.wrap("mine", abs, caller_prefix=__name__)
    other = rec.wrap("other", abs, caller_prefix="hermspec")
    assert mine(-2) == 2 and other(-3) == 3
    assert rec.stats["mine"]["calls"] == 1
    assert "other" not in rec.stats


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def _child(name, commands, trace, seed=42):
    out = os.path.join(ROOT, ".perfbench_out", "tests", name)
    shutil.rmtree(out, ignore_errors=True)
    result = run.run_child(ROOT, out, commands, seed, trace, 170)
    assert "crash" not in result, result.get("crash")
    return result


# span -> function names that must each record a call, per workload
EXPECTED = {
    "all_default": {
        "hermite.eval_h_all": ["eval_h_all"],
        "hermite.eval_h": ["eval_h"],
        "quadrature.rule": ["gauss_hermite", "gauss_legendre_panels",
                            "radial_rule_absorbing", "radial_rule_panels",
                            "sphere_directions"],
        "quadrature.roots": ["roots_genlaguerre", "roots_hermite", "roots_laguerre",
                             "roots_legendre"],
        "quadrature.integrate_radial_3d": ["integrate_radial_3d"],
        "spectral.level_gram": ["level_gram"],
        **{f"spectral.{name}": [name] for name in layertrace.SPECTRAL_SELF},
        "antideriv.norm_quadrature": ["norm_sq_odd_quadrature",
                                      "norm_sq_even_quadrature"],
        "verify.eigensolve": ["eigvalsh", "operator_norm_singular_kernel"],
        "cli.emit_table": ["emit_table"],
        **{f"verify.{key}": ["<lambda>"] for key in layertrace.CHECK_KEYS},
    },
    "gram_scan": {
        "hermite.eval_h_all": ["eval_h_all"],
        "quadrature.rule": ["radial_rule_absorbing", "sphere_directions"],
        "quadrature.roots": ["roots_genlaguerre", "roots_legendre"],
        "spectral.level_gram": ["level_gram"],
        "verify.eigensolve": ["eigvalsh"],
        "cli.emit_table": ["emit_table"],
        "verify.kato_nd": ["<lambda>"],
    },
    "state_scan": {
        "hermite.eval_h_all": ["eval_h_all"],
        "hermite.eval_h": ["eval_h"],
        "quadrature.rule": ["radial_rule_absorbing", "radial_rule_panels",
                            "gauss_legendre_panels", "sphere_directions"],
        "quadrature.roots": ["roots_genlaguerre", "roots_laguerre", "roots_legendre"],
        "quadrature.integrate_radial_3d": ["integrate_radial_3d"],
        "spectral.time_avg_weighted": ["time_avg_weighted"],
        "spectral.evaluate_state_grid": ["evaluate_state_grid"],
        "spectral.bessel_sobolev_norm": ["bessel_sobolev_norm"],
        "cli.emit_table": ["emit_table"],
        **{f"verify.{key}": ["<lambda>"] for key in (
            "odd_identity", "radial_3d_identity", "appendix_identities",
            "even_3d", "sobolev_s05", "sobolev_s10")},
    },
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_every_wrapped_name_records_calls(workload):
    result = _child(workload, run.WORKLOADS[workload], True)
    assert all(cmd["problem"] is None for cmd in result["commands"])
    spans = result["spans"]
    missing = [f"{span}: {fn}" for span, fns in EXPECTED[workload].items()
               for fn in fns if spans.get(span, {}).get(f"calls.{fn}", 0) == 0]
    assert not missing
    assert abs(result["unaccounted_s"]) < 1e-6
    layers = result["layers"]
    expected_grams = {"all_default": 126, "gram_scan": 54, "state_scan": 0}
    assert layers["spectral.level_gram.calls"] == expected_grams[workload]
    if workload == "gram_scan":  # 27 levels of n=3, each at two rule scales
        assert layers["spectral.level_gram.rows"] == 2 * sum(
            (k + 1) * (k + 2) // 2 for k in range(27))


def test_numerical_abort_counts_every_check_failed():
    # radial_3d_identity aborts with ToleranceError for k_max >= 24
    result = _child("abort", [("identities", "--kmax", "24")], False)
    (cmd,) = result["commands"]
    assert cmd["rc"] == 1
    assert (cmd["attempted"], cmd["failed"]) == (3, 3)
    assert "numerical abort" in cmd["problem"]
    correct, attempted, failed, problems = run.verdict([dict(result, trace=False)])
    assert not correct and (attempted, failed) == (3, 3) and problems


def test_differing_tables_fail_the_gate():
    cmd = {"command": ["kato"], "attempted": 1, "failed": 0, "problem": None}
    children = [{"commands": [dict(cmd, tables={"kato_nd.csv": digest})]}
                for digest in ("aa", "bb")]
    correct, _, _, problems = run.verdict(children)
    assert not correct
    assert problems == ["kato: kato_nd.csv differs between same-seed runs"]
