"""One benchmark sample: a fresh interpreter runs a workload through hermspec.

    python3 perfbench/child.py SPEC.json SPAWNED

SPAWNED is the monotonic clock reading taken by the parent just before it
started this process.  SPEC names the checkout root, the hermspec commands to
run, the seed, the output directory, the result path and whether to trace.
Each command runs through `hermspec.cli.main(argv)` exactly as the `hermspec`
script would, cold: no warm-up, so the in-run caches are paid on every sample
as users pay them.  The result JSON holds the timings, the CPU time (to tell
a slower machine from waiting), the correctness verdict of every command and,
when traced, the per-layer metrics and every span.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import hermspec.cli

    setup_s = time.monotonic() - float(sys.argv[2])
    if not os.path.realpath(hermspec.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"hermspec imported from {hermspec.cli.__file__}, not {src}")

    recorder = None
    run_main = hermspec.cli.main
    if spec["trace"]:
        import layertrace

        recorder = layertrace.Recorder()
        layertrace.install(recorder)
        run_main = recorder.wrap("cli.main", run_main)

    runs = []
    for i, argv in enumerate(spec["commands"]):
        out = os.path.join(spec["out"], f"cmd{i}")
        full = list(argv) + ["--seed", str(spec["seed"]), "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            rc = run_main(full)
            wall = time.perf_counter() - t0
        runs.append({"command": list(argv), "argv": full, "rc": rc, "wall_s": wall,
                     "out": out, "stderr": stderr.getvalue()})
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": sum(r["wall_s"] for r in runs),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "commands": [gate(hermspec, r) for r in runs],
        "env": environment(),
    }
    if recorder is not None:
        result["layers"] = layertrace.layer_metrics(recorder)
        result["spans"] = recorder.stats
        result["unaccounted_s"] = layertrace.unaccounted_s(recorder)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def gate(hermspec, run: dict) -> dict:
    """Correctness of one command: exit 0, a manifest that round-trips byte
    for byte with every status `passed`, and the digests of its tables.

    A command that left no readable manifest (a numerical abort exits 1
    before writing one) counts every check it selects as failed.
    """
    from hermspec.verify import manifest_from_json_bytes, manifest_to_json_bytes

    out = run["out"]
    selected = len(hermspec.cli.COMMAND_CHECKS.get(run["argv"][0], ())) or 1
    verdict = {"command": run["command"], "argv": run["argv"], "rc": run["rc"], "wall_s": run["wall_s"],
               "attempted": selected, "failed": selected, "problem": None,
               "check_wall_s": {}, "tables": {}}
    path = os.path.join(out, "manifest.json")
    if not os.path.exists(path):
        verdict["problem"] = "no manifest; stderr: " + run["stderr"].strip()
        return verdict
    with open(path, "rb") as fh:
        data = fh.read()
    manifest = manifest_from_json_bytes(data)
    failed = sum(r.status != "passed" for r in manifest.reports)
    verdict["attempted"] = len(manifest.reports)
    verdict["failed"] = failed
    verdict["check_wall_s"] = dict(manifest.wall_time_s)
    if manifest_to_json_bytes(manifest) != data:
        verdict["failed"] = len(manifest.reports)
        verdict["problem"] = "manifest does not round-trip"
    elif run["rc"] != 0 or failed:
        verdict["failed"] = max(failed, 1)
        verdict["problem"] = f"exit {run['rc']}, {failed} checks not passed"
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(os.path.join(out, name), "rb") as fh:
                verdict["tables"][name] = hashlib.sha256(fh.read()).hexdigest()
    return verdict


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
