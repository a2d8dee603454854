"""The benchmark's interface to the program: perfbench/child.py's gate reads
a run's manifest and `cli.COMMAND_CHECKS`, so a change that breaks either
fails here rather than as a refused benchmark run."""

import os

import hermspec.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_gate_reads_a_full_run_as_passed(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import child

    out = str(tmp_path / "run")
    argv = ["all", "--out", out]
    rc = hermspec.cli.main(argv)
    capsys.readouterr()
    verdict = child.gate(hermspec, {
        "command": ["all"], "argv": argv, "rc": rc, "wall_s": 0.0, "out": out, "stderr": ""})
    assert verdict["problem"] is None
    assert verdict["attempted"] == 13
    assert verdict["failed"] == 0
