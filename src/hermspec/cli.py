"""Command-line front end: pick checks, run them in order, write files.

Each command names a fixed set of checks.  The run always writes
<out>/manifest.json (config snapshot, every report, wall time per check) and
one table per check in the requested format.  Exit status: 0 all passed,
1 any failure, 2 inconclusive results only, 64 usage error, 74 unwritable
output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .render import RunManifest, emit_table
from .spectral import check_admissible
from .verify import CHECKS, ScanConfig, _require_k_max

# dispatch goes through this registry, key -> callable(cfg, options) -> EstimateReport
CHECK_REGISTRY = {key: row.run for key, row in CHECKS.items()}

# each command's checks in table order, the commands in order of first appearance
COMMAND_CHECKS = {
    command: tuple(key for key, row in CHECKS.items() if row.command == command)
    for command in dict.fromkeys(row.command for row in CHECKS.values() if row.command)
}
COMMAND_CHECKS["all"] = tuple(key for key, row in CHECKS.items() if row.command)

EX_USAGE = 64
EX_CANTCREAT = 74


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, which collides with the inconclusive code
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hermspec",
        description="Scan the oscillator smoothing identities and bounds.",
        epilog="commands and the checks they run:\n" + "\n".join(
            f"  {name:<11}{', '.join(keys)}" for name, keys in COMMAND_CHECKS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMAND_CHECKS, help="checks to run (listed below)")
    parser.add_argument("--n", type=int, default=3,
                        help="dimension for the per-level scan (default 3)")
    parser.add_argument("--delta", type=float, default=1.0,
                        help="weight exponent for the per-level scan (default 1)")
    parser.add_argument("--kmax", type=int, default=20,
                        help="highest level scanned (default 20)")
    parser.add_argument("--trials", type=int, default=16,
                        help="random states per randomized check (default 16)")
    parser.add_argument("--seed", type=int, default=42,
                        help="root seed for every random draw (default 42)")
    parser.add_argument("--out", default="hermspec-out",
                        help="output directory (default ./hermspec-out)")
    parser.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="per-check table format (default csv)")
    parser.add_argument("--negative-controls", action="store_true",
                        help="include the divergence demonstration")
    return parser


def _select_checks(args) -> tuple:
    keys = COMMAND_CHECKS[args.command]
    if args.negative_controls and args.command not in ("kato", "all"):
        raise ValueError("--negative-controls applies only to the kato and all commands")
    if args.command == "kato" and args.n == 2 and args.delta >= 1.0:
        # the 2D endpoint diverges; only the demonstration of that fact runs
        if not args.negative_controls:
            raise ValueError(
                "n=2 with delta>=1 is inadmissible (the weighted integral "
                "diverges); pass --negative-controls to run the "
                "divergence demonstration instead"
            )
        keys = ()
    return keys + ("negative_control",) * args.negative_controls


def run_checks(cfg: ScanConfig, keys, options) -> RunManifest:
    """Check every key's k_max limit and, for kato_nd, the admissibility of
    its n and delta, then run the checks in order, timing each."""
    for key in keys:
        _require_k_max(cfg, key)
    if "kato_nd" in keys:
        check_admissible(options["n"], options["delta"])
    wall: dict = {}
    reports = []
    for key in keys:
        t0 = time.perf_counter()
        reports.append(CHECK_REGISTRY[key](cfg, options))
        wall[key] = time.perf_counter() - t0
    return RunManifest(
        version=__version__, config=cfg, reports=tuple(reports), wall_time_s=wall
    )


def _write_outputs(manifest: RunManifest, keys, out_dir: str, fmt: str) -> None:
    # every file is serialized before any is opened, so a value that cannot
    # be serialized leaves no empty or partial file behind
    files = {"manifest.json": emit_table(manifest, "json")}
    for key, report in zip(keys, manifest.reports):
        single = RunManifest(
            version=manifest.version, config=manifest.config, reports=(report,)
        )
        files[f"{key}.{fmt}"] = emit_table(single, fmt)
    os.makedirs(out_dir, exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = ScanConfig(k_max=args.kmax, trials=args.trials, seed=args.seed)
        keys = _select_checks(args)
    except ValueError as exc:
        sys.stderr.write(f"hermspec: error: {exc}\n")
        return EX_USAGE
    options = {"n": args.n, "delta": args.delta}
    try:
        manifest = run_checks(cfg, keys, options)
    except ValueError as exc:
        sys.stderr.write(f"hermspec: error: {exc}\n")
        return EX_USAGE
    try:
        _write_outputs(manifest, keys, args.out, args.format)
    except OSError as exc:
        sys.stderr.write(f"hermspec: cannot write output: {exc}\n")
        return EX_CANTCREAT
    for key, report in zip(keys, manifest.reports):
        print(
            f"{key}: {report.status} "
            f"(sup ratio {report.sup_ratio:.6g}, "
            f"{len(report.samples)} samples, {manifest.wall_time_s[key]:.2f}s)"
        )
    statuses = {report.status for report in manifest.reports}
    return 1 if "failed" in statuses else 2 if "inconclusive" in statuses else 0


if __name__ == "__main__":
    raise SystemExit(main())
