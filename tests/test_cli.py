"""End-to-end command-line behaviour: flags, files, exit codes."""

import dataclasses
import math
import os
import subprocess
import sys

import pytest

from hermspec import spectral, verify
from hermspec.cli import (
    CHECK_REGISTRY,
    COMMAND_CHECKS,
    EX_CANTCREAT,
    EX_USAGE,
    _write_outputs,
    build_parser,
    main,
)
from hermspec.verify import (
    CSV_HEADER,
    EstimateReport,
    RunManifest,
    ScanConfig,
    manifest_from_json_bytes,
)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _shrink_identity_rules(monkeypatch):
    # odd_identity's Hermite rules cut to 2 and 4 nodes, and the radial lift's
    # functional to its 20-panel floor (its doubled rule to 40): under-resolved
    # rules, each doubled rule still a different rule
    monkeypatch.setattr(spectral, "_odd_nodes", lambda d_max, scale: int(2 * scale))
    real = verify._radial_mode_integrals
    monkeypatch.setattr(verify, "_radial_mode_integrals",
                        lambda top, delta, R, panels, nodes_pp:
                        real(top, delta, R, 20 * nodes_pp // 8, nodes_pp))


def test_every_command_maps_to_registered_checks():
    for cmd, keys in COMMAND_CHECKS.items():
        for key in keys:
            assert key in CHECK_REGISTRY


def test_all_runs_every_check_but_the_negative_control_in_order():
    # derived from the registry; the order fixes the CSVs' and the manifest's
    assert COMMAND_CHECKS["all"] == (
        "antideriv_norms",
        "odd_identity",
        "radial_3d_identity",
        "appendix_identities",
        "kato_nd",
        "kernel_n2",
        "kernel_n3",
        "operator_norm_n3",
        "morawetz_2d",
        "even_3d",
        "sobolev_s05",
        "sobolev_s10",
        "collapse_9d",
    )


def test_every_report_carries_the_key_its_files_are_written_under(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["all", "--negative-controls", "--kmax", "2", "--trials", "1", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    data = _read(out / "manifest.json")
    manifest = manifest_from_json_bytes(data)
    keys = [r.check for r in manifest.reports]
    assert keys == list(COMMAND_CHECKS["all"]) + ["negative_control"]
    assert set(manifest.wall_time_s) == set(keys)
    for report in manifest.reports:
        # each table is its own report's rendering
        single = RunManifest(version=manifest.version, config=manifest.config, reports=(report,))
        assert _read(out / f"{report.check}.csv") == verify.emit_table(single, "csv")
    assert verify.manifest_to_json_bytes(manifest) == data


def test_usage_errors_exit_64(capsys):
    assert main(["no-such-command"]) == EX_USAGE
    assert main(["norms", "--bogus"]) == EX_USAGE
    assert main([]) == EX_USAGE
    assert main(["norms", "--kmax", "-3"]) == EX_USAGE
    # the flag does nothing outside kato and all, so it is refused there
    assert main(["norms", "--negative-controls", "--kmax", "2"]) == EX_USAGE
    assert "only to the kato and all commands" in capsys.readouterr().err


def test_help_lists_every_command_and_its_checks(capsys):
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = {}
    for line in lines[lines.index("commands and the checks they run:") + 1:]:
        command, checks = line.split(None, 1)
        listed[command] = checks.split(", ")
    assert listed == {command: list(keys) for command, keys in COMMAND_CHECKS.items()}


@pytest.mark.parametrize("argv", [
    ["kernel", "--kmax", "0"],
    # options may come before the command
    ["--kmax", "0", "kernel"],
])
def test_kernel_scan_with_no_level_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    out = capsys.readouterr().out
    assert "kernel_n2: inconclusive" in out
    assert "kernel_n3: inconclusive" in out


@pytest.mark.parametrize("kmax", ["2", "3"])
def test_kernel_scan_at_two_and_three_levels_exits_0(tmp_path, capsys, kmax):
    # the kernel scans start at level 1, and their one step up from it is no trend
    assert main(["kernel", "--kmax", kmax, "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "kernel_n2: passed" in out and "kernel_n3: passed" in out


@pytest.mark.parametrize("argv", [
    ["kato", "--delta", "nan"],
    ["kato", "--delta", "inf"],
    ["kato", "--delta=-inf"],
    ["kato", "--n", "5", "--delta", "nan"],
])
def test_non_finite_values_exit_64_and_write_nothing(tmp_path, capsys, argv):
    # --delta is the one float option
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EX_USAGE
    assert "hermspec: error: delta must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["all", "--delta", "nan"], "delta must be finite and >= 0"),
    (["all", "--n", "2", "--delta", "1"], "two-axis weight needs delta < 1"),
    (["all", "--n", "0"], "the weight needs at least one axis"),
])
def test_inadmissible_n_and_delta_exit_64_before_any_check(
        tmp_path, capsys, monkeypatch, argv, message):
    # kato_nd's admissibility rule is read with the k_max limits, before the
    # checks ahead of it in `all` run
    calls = []
    for key in CHECK_REGISTRY:
        monkeypatch.setitem(CHECK_REGISTRY, key, lambda cfg, opt, key=key: calls.append(key))
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EX_USAGE
    assert f"hermspec: error: {message}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_the_option_set_is_pinned():
    # a run varies k_max, trials and seed; the other options pick the checks,
    # the per-level scan's dimension and weight, and the files written
    options = {action.dest for action in build_parser()._actions}
    assert options == {"help", "version", "command", "n", "delta", "kmax", "trials", "seed",
                       "out", "format", "negative_controls"}
    assert [f.name for f in dataclasses.fields(ScanConfig)] == ["k_max", "trials", "seed"]


@pytest.mark.parametrize("argv", [["all", "--rule-scale", "2"], ["norms", "--tol", "1e-3"]])
def test_removed_rule_and_tolerance_options_exit_64(tmp_path, capsys, argv):
    # each check's rules and tolerances live in its CHECKS row
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == EX_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["all", "kato"])
def test_negative_seed_exits_64_before_any_check(tmp_path, capsys, monkeypatch, command):
    # a negative seed is refused up front, not midway through the run
    def ran(cfg, opt):
        raise AssertionError("a check ran")

    for key in CHECK_REGISTRY:
        monkeypatch.setitem(CHECK_REGISTRY, key, ran)
    out = tmp_path / "run"
    assert main([command, "--seed", "-1", "--out", str(out)]) == EX_USAGE
    assert "hermspec: error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kmax, message", [
    ("81", "even_3d is supported up to k_max = 80"),
    ("300", "kato_nd is supported up to k_max = 299"),
])
def test_all_refuses_a_kmax_past_a_check_limit_before_any_check(
        tmp_path, capsys, monkeypatch, kmax, message):
    # every selected check's k_max limit is read first; the message is the
    # first refusing check's in command order
    def ran(cfg, opt):
        raise AssertionError("a check ran")

    for key in CHECK_REGISTRY:
        monkeypatch.setitem(CHECK_REGISTRY, key, ran)
    out = tmp_path / "run"
    assert main(["all", "--kmax", kmax, "--out", str(out)]) == EX_USAGE
    assert f"hermspec: error: {message}: " in capsys.readouterr().err
    assert not out.exists()


def test_norms_refuses_a_kmax_past_its_limit_before_any_check(tmp_path, capsys, monkeypatch):
    # past 480 the configured rule stops resolving the top integrand, and at
    # 482 the doubling gate trips; the run is refused up front
    limit = verify.CHECKS["antideriv_norms"].k_max_limit
    assert limit == 480

    def ran(cfg, opt):
        raise AssertionError("a check ran")

    monkeypatch.setitem(CHECK_REGISTRY, "antideriv_norms", ran)
    out = tmp_path / "run"
    assert main(["norms", "--kmax", str(limit + 1), "--out", str(out)]) == EX_USAGE
    err = capsys.readouterr().err
    assert "hermspec: error: antideriv_norms is supported up to k_max = 480: " in err
    assert "Gauss-Legendre panels per unit length" in err and "gate trips" in err
    assert not out.exists()


def test_identities_refuses_a_kmax_past_the_lift_limit_before_any_check(
        tmp_path, capsys, monkeypatch):
    # the radial lift stops at odd_identity's limit, where the Hermite table
    # of its doubled rule has grown as k_max^2; the run is refused up front
    limit = verify.CHECKS["radial_3d_identity"].k_max_limit
    assert limit == verify.CHECKS["odd_identity"].k_max_limit == 363

    def ran(cfg, opt):
        raise AssertionError("a check ran")

    for key in COMMAND_CHECKS["identities"]:
        monkeypatch.setitem(CHECK_REGISTRY, key, ran)
    out = tmp_path / "run"
    assert main(["identities", "--kmax", str(limit + 1), "--out", str(out)]) == EX_USAGE
    # odd_identity comes first in the command and refuses first
    assert ("hermspec: error: odd_identity is supported up to k_max = 363: "
            in capsys.readouterr().err)
    assert not out.exists()
    with pytest.raises(ValueError, match="radial_3d_identity is supported up to k_max = 363: "
                       "the Hermite table of its doubled radial rule"):
        verify.check_radial_3d_identity(ScanConfig(k_max=limit + 1))


@pytest.mark.parametrize("command, check, counter, shrunk", [
    ("identities", "odd_identity", "_odd_nodes", lambda d_max, scale: int(2 * scale)),
    ("sobolev", "sobolev_s05", "_sobolev_panels", lambda n, k, scale: int(4 * scale)),
    ("collapse", "collapse_9d", "_collapse_nodes", lambda k, scale: int(2 * scale)),
], ids=["identities-odd_identity", "sobolev-sobolev_s05", "collapse-collapse_9d"])
def test_coincident_doubling_rules_are_inconclusive(
        tmp_path, capsys, monkeypatch, command, check, counter, shrunk):
    # a check's configured and doubled rule can no longer be one rule (they are
    # built at rule scales 1 and 2; test_every_doubled_rule_differs_from_its_
    # configured_rule), so the floor case this test once ran is gone.  What it
    # held stays: when the doubling gate cannot vouch for a value, here two
    # shrunken rules (2 and 4 nodes, or 4 and 8 panels) that disagree, the
    # check is inconclusive and the run exits 2, with nothing failed
    monkeypatch.setattr(spectral, counter, shrunk)
    out = tmp_path / "run"
    assert main([command, "--out", str(out)]) == 2
    assert f"{check}: inconclusive" in capsys.readouterr().out
    manifest = manifest_from_json_bytes(_read(out / "manifest.json"))
    statuses = {key: r.status for key, r in zip(COMMAND_CHECKS[command], manifest.reports)}
    assert statuses[check] == "inconclusive"
    assert "failed" not in statuses.values()


def test_reports_name_why_they_did_not_pass_and_round_trip(tmp_path, capsys, monkeypatch):
    _shrink_identity_rules(monkeypatch)
    out = tmp_path / "run"
    assert main(["identities", "--out", str(out)]) == 2
    capsys.readouterr()
    data = _read(out / "manifest.json")
    manifest = manifest_from_json_bytes(data)
    odd, radial, appendix = manifest.reports
    assert (odd.status, radial.status) == ("inconclusive", "inconclusive")
    # the two shrunken rules disagree, and the per-level terms are off too
    assert odd.parameters["unstable"] == "levels,functional"
    assert odd.parameters["failed"] == "per_level,identity"
    assert radial.parameters["unstable"] == "functional"
    assert appendix.status == "passed"
    assert "failed" not in appendix.parameters and "unstable" not in appendix.parameters
    assert verify.manifest_to_json_bytes(manifest) == data


def test_exit_code_comes_from_the_worst_status(tmp_path, capsys, monkeypatch):
    def fixed(status):
        rep = EstimateReport("antideriv_norms", {}, (("k=0", 2.0),), 2.0, 1e-8, status)
        return lambda cfg, opt: rep

    for key, status in zip(COMMAND_CHECKS["identities"], ("inconclusive", "failed", "passed")):
        monkeypatch.setitem(CHECK_REGISTRY, key, fixed(status))
    assert main(["identities", "--out", str(tmp_path / "run")]) == 1
    monkeypatch.setitem(CHECK_REGISTRY, "radial_3d_identity", fixed("passed"))
    assert main(["identities", "--out", str(tmp_path / "run")]) == 2
    capsys.readouterr()


def test_outputs_are_serialized_before_any_file_is_opened(tmp_path):
    rep = EstimateReport(
        "antideriv_norms", {"seed": 42}, (("k=0", math.nan),), math.nan, 1e-8, "passed",
    )
    manifest = RunManifest(version="0", config=ScanConfig(), reports=(rep,))
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_outputs(manifest, ("antideriv_norms",), str(tmp_path / "run"), "csv")
    assert not (tmp_path / "run").exists()


def test_norms_writes_manifest_and_table(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["norms", "--kmax", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = manifest_from_json_bytes(_read(out / "manifest.json"))
    assert manifest.config.k_max == 6
    assert [r.check for r in manifest.reports] == ["antideriv_norms"]
    assert "antideriv_norms" in manifest.wall_time_s
    body = _read(out / "antideriv_norms.csv").decode("ascii")
    lines = body.split("\r\n")
    assert lines[0] == CSV_HEADER
    # every odd-antiderivative row carries the exact norm value 2
    odd = [ln for ln in lines[1:] if ln.startswith("odd")]
    assert odd and all(abs(float(ln.split(",")[1]) - 2.0) <= 1e-8 for ln in odd)


def test_json_format_round_trips(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["kato", "--kmax", "4", "--trials", "2", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    single = manifest_from_json_bytes(_read(out / "kato_nd.json"))
    assert [r.check for r in single.reports] == ["kato_nd"]
    assert single.reports[0].status == "passed"


def test_kato_2d_endpoint_needs_control_flag(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["kato", "--n", "2", "--delta", "1", "--out", str(out)]
    assert main(args) == EX_USAGE
    assert main(args + ["--negative-controls"]) == 0
    capsys.readouterr()
    manifest = manifest_from_json_bytes(_read(out / "manifest.json"))
    assert [r.check for r in manifest.reports] == ["negative_control"]
    assert manifest.reports[0].parameters["negative_control"] is True
    assert os.path.exists(out / "negative_control.csv")


def test_determinism_byte_identical_tables(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    base = ["norms", "--kmax", "8", "--seed", "7"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert _read(a / "antideriv_norms.csv") == _read(b / "antideriv_norms.csv")


def test_unwritable_out_exits_74(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["norms", "--kmax", "3", "--out", str(blocker / "sub")])
    assert code == EX_CANTCREAT
    capsys.readouterr()


def test_failure_exits_1(tmp_path, capsys, monkeypatch):
    # an impossible equality tolerance in the check's row forces a clean failure
    impossible = dataclasses.replace(verify.CHECKS["antideriv_norms"], tolerance=1e-30)
    monkeypatch.setitem(verify.CHECKS, "antideriv_norms", impossible)
    out = tmp_path / "run"
    code = main(["norms", "--kmax", "6", "--out", str(out)])
    assert code == 1
    capsys.readouterr()
    manifest = manifest_from_json_bytes(_read(out / "manifest.json"))
    assert manifest.reports[0].status == "failed"
    assert manifest.reports[0].tolerance == 1e-30


def test_inconclusive_exits_2(tmp_path, capsys, monkeypatch):
    rep = EstimateReport(
        "antideriv_norms", {"seed": 42}, (("k=0", 2.0),), 2.0, 1e-8, "inconclusive",
    )
    monkeypatch.setitem(CHECK_REGISTRY, "antideriv_norms", lambda cfg, opt: rep)
    out = tmp_path / "run"
    assert main(["norms", "--out", str(out)]) == 2
    capsys.readouterr()


def test_numerical_failure_is_recorded_not_aborted(tmp_path, capsys, monkeypatch):
    # a perturbed radial lift fails the norm validation at trial 0
    real = verify._radial_mode_integrals

    def perturbed(top, delta, *rule):
        return real(top, delta, *rule) * (1.0 + 1e-6)

    monkeypatch.setattr(verify, "_radial_mode_integrals", perturbed)
    out = tmp_path / "run"
    args = ["identities", "--kmax", "6", "--trials", "1", "--out", str(out)]
    assert main(args) == 2
    capsys.readouterr()
    manifest = manifest_from_json_bytes(_read(out / "manifest.json"))
    statuses = {r.check: r.status for r in manifest.reports}
    assert statuses == {"odd_identity": "passed", "radial_3d_identity": "inconclusive",
                        "appendix_identities": "passed"}
    radial = manifest.reports[1]
    assert "radial lift normalization failed" in radial.parameters["error"]
    for key in COMMAND_CHECKS["identities"]:
        assert os.path.exists(out / f"{key}.csv")


def test_identities_pass_at_kmax_26(tmp_path, capsys):
    # the coarse radial rule failed the lift validation here; the doubled one passes
    out = tmp_path / "run"
    args = ["identities", "--kmax", "26", "--out", str(out)]
    assert main(args) == 0
    capsys.readouterr()


def test_summary_lines_on_stdout(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["norms", "--kmax", "4", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "antideriv_norms: passed" in captured.out


def test_full_run_loads_no_scipy(tmp_path):
    # nor numpy.random: the trials draw from the standard library's generator,
    # which numpy already loads.  A fresh interpreter, so no other test's
    # import can hide a lazy one
    code = (
        "import sys\n"
        "from hermspec.cli import main\n"
        f"rc = main(['all', '--kmax', '4', '--trials', '1', '--out', {str(tmp_path)!r}])\n"
        "print(rc, sorted(m for m in sys.modules\n"
        "                 if m == 'scipy' or m.startswith(('scipy.', 'numpy.random'))))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
