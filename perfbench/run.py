"""hermspec benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload all_default --seed 1 --seconds 30 --trace 0

Run from the root of a hermspec checkout; the program is imported from its
`src/`.  Each sample is a fresh child process (perfbench/child.py) that runs
the workload's commands through `hermspec.cli.main` with one worker
(`HK_JOBS=1`), closed loop: the next child starts when the previous one has
ended, until --seconds have passed.  With --trace 1 the children alternate
untraced and traced, and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
command of every child passed the correctness gate, 1 when one did not.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layertrace  # noqa: E402

# workload -> the hermspec commands one child runs, in order; the child adds
# --seed and --out.  README.md says why each was chosen.
WORKLOADS = {
    "all_default": (("all",),),
    "gram_scan": (("kato", "--n", "3", "--delta", "1", "--kmax", "26"),),
    "state_scan": (("identities",), ("even3d",), ("sobolev",)),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_ratio": "ratio",
}

# a run must exit within 180 s; no child is started that would end past this
DEADLINE_S = 170.0


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    names = list(layertrace.layer_metrics(layertrace.Recorder()))
    names += [f"verify.{key}.wall_s" for key in layertrace.CHECK_KEYS]
    names.append("trace.overhead_s")
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def run_child(root, child_dir, commands, seed, trace, timeout) -> dict:
    """One sample in a fresh process; its output directory is removed after."""
    os.makedirs(child_dir)
    spec_path = os.path.join(child_dir, "spec.json")
    result_path = os.path.join(child_dir, "result.json")
    spec = {
        "root": root,
        "commands": commands,
        "seed": seed,
        "trace": trace,
        "out": child_dir,
        "result": result_path,
    }
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
    env = dict(os.environ, HK_JOBS="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, child, spec_path, repr(spawned)],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
        crash = None if proc.returncode == 0 else (
            f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    except subprocess.TimeoutExpired:
        crash = f"child killed after {timeout:.0f} s"
    if crash is None:
        with open(result_path) as fh:
            result = json.load(fh)
    else:
        result = {"crash": crash, "commands": [
            {"attempted": 1, "failed": 1, "problem": crash, "tables": {}}
            for _ in commands]}
    result["trace"] = trace
    result["duration_s"] = time.monotonic() - spawned
    shutil.rmtree(child_dir)
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(children) -> tuple:
    """(correct, attempted, failed, problems) over every child of the run."""
    attempted = failed = 0
    problems = []
    digests = {}
    for i, child in enumerate(children):
        for cmd in child["commands"]:
            attempted += cmd["attempted"]
            failed += cmd["failed"]
            if cmd["problem"]:
                problems.append(f"child {i} {cmd.get('argv')}: {cmd['problem']}")
            for name, digest in cmd["tables"].items():
                digests.setdefault((tuple(cmd["command"]), name), set()).add(digest)
        if abs(child.get("unaccounted_s", 0.0)) > 1e-6:
            problems.append(f"child {i}: span self times miss "
                            f"{child['unaccounted_s']:.3g} s of the traced wall time")
    for (command, name), seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"{' '.join(command)}: {name} differs between same-seed runs")
    correct = not problems and failed == 0
    return correct, attempted, failed, problems


def environment(root, seed, load_at_start, children) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    env = next((c["env"] for c in children if "env" in c), {})
    return dict(env, git_sha=sha, seed=seed, nproc_visible=os.cpu_count(),
                loadavg_at_start=load_at_start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermspec", "cli.py")):
        sys.stderr.write(f"perfbench: no hermspec source under {root}/src; "
                         "run from the root of a hermspec checkout\n")
        return 2
    load_at_start = os.getloadavg()
    run_dir = os.path.join(root, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    children = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = bool(args.trace) and len(children) % 2 == 1
        child = run_child(root, os.path.join(run_dir, f"child{len(children)}"),
                          WORKLOADS[args.workload], args.seed, traced,
                          DEADLINE_S - elapsed)
        children.append(child)
        elapsed = time.monotonic() - start
        if "crash" in child:
            break
        kinds = {c["trace"] for c in children}
        if elapsed >= args.seconds and len(kinds) == 1 + args.trace:
            break
        if elapsed + max(c["duration_s"] for c in children) > DEADLINE_S:
            break

    correct, attempted, failed, problems = verdict(children)
    plain = [c for c in children if not c["trace"] and "crash" not in c]
    traced = [c for c in children if c["trace"] and "crash" not in c]
    env = environment(root, args.seed, load_at_start, children)
    print("env: " + json.dumps(env, sort_keys=True))
    for problem in problems:
        print("gate: " + problem)
    print(f"check_fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} checks)")

    metrics = {}
    if plain and not args.trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            values = [c[name] for c in plain]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": END_TO_END[name]}
            print(f"{name}: {med:.6g} {END_TO_END[name]} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        ratio = (attempted - failed) / attempted
        metrics["check_pass_ratio"] = {"value": ratio, "unit": "ratio"}
        print(f"check_pass_ratio: {ratio:.6g} ratio")
    elif plain and traced:
        values = layertrace.median_metrics([c["layers"] for c in traced])
        for key in layertrace.CHECK_KEYS:
            values[f"verify.{key}.wall_s"] = statistics.median(
                sum(cmd["check_wall_s"].get(key, 0.0) for cmd in c["commands"])
                for c in plain)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(c["wall_s"] for c in plain))
        for name, unit in per_layer_units().items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name}: {values[name]:.6g} {unit}")

    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump({"workload": args.workload, "env": env, "problems": problems,
                   "metrics": metrics, "children": children}, fh, indent=1)
    correct = correct and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
