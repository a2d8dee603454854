"""Command-line front end: pick checks, run them in order, write files.

Each command names a fixed set of checks.  The run always writes
<out>/manifest.json (config snapshot, every report, wall time per check) and
one table per check in the requested format.  Exit status: 0 all passed,
1 any failure, 2 inconclusive results only, 64 usage error, 74 unwritable
output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from .verify import (
    DEFAULT_TOLERANCES,
    RunManifest,
    ScanConfig,
    _require_k_max,
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
    emit_table,
    negative_control_divergence,
)

# registry: key -> callable(cfg, options) -> EstimateReport
CHECK_REGISTRY = {
    "antideriv_norms": lambda cfg, opt: check_antideriv_norms(cfg),
    "odd_identity": lambda cfg, opt: check_odd_identity(cfg),
    "radial_3d_identity": lambda cfg, opt: check_radial_3d_identity(cfg),
    "appendix_identities": lambda cfg, opt: check_appendix_identities(cfg),
    "kato_nd": lambda cfg, opt: check_kato(cfg, opt["n"], opt["delta"]),
    "kernel_n2": lambda cfg, opt: check_kernel_bound(cfg, 2),
    "kernel_n3": lambda cfg, opt: check_kernel_bound(cfg, 3),
    "operator_norm_n3": lambda cfg, opt: check_operator_norms(cfg, 3),
    "morawetz_2d": lambda cfg, opt: check_morawetz_2d(cfg),
    "even_3d": lambda cfg, opt: check_even_3d(cfg),
    "sobolev_s05": lambda cfg, opt: check_hermite_sobolev(cfg, 0.5),
    "sobolev_s10": lambda cfg, opt: check_hermite_sobolev(cfg, 1.0),
    "collapse_9d": lambda cfg, opt: check_collapse_9d(cfg),
    "negative_control": lambda cfg, opt: negative_control_divergence(cfg),
}

COMMAND_CHECKS = {
    "norms": ("antideriv_norms",),
    "identities": ("odd_identity", "radial_3d_identity", "appendix_identities"),
    "kato": ("kato_nd",),
    "kernel": ("kernel_n2", "kernel_n3", "operator_norm_n3"),
    "morawetz": ("morawetz_2d",),
    "even3d": ("even_3d",),
    "sobolev": ("sobolev_s05", "sobolev_s10"),
    "collapse": ("collapse_9d",),
    "all": tuple(key for key in CHECK_REGISTRY if key != "negative_control"),
}

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
    parser.add_argument("--rule-scale", type=float, default=1.0,
                        help="quadrature refinement multiplier (default 1)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the equality tolerances (defaults: "
                        + ", ".join(f"{k}={v:g}"
                                    for k, v in sorted(DEFAULT_TOLERANCES.items())))
    parser.add_argument("--out", default="hermspec-out",
                        help="output directory (default ./hermspec-out)")
    parser.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="per-check table format (default csv)")
    parser.add_argument("--negative-controls", action="store_true",
                        help="include the divergence demonstration")
    return parser


def _config_from_args(args) -> ScanConfig:
    tolerances = None
    if args.tol is not None:
        if not (args.tol > 0 and math.isfinite(args.tol)):
            raise ValueError("--tol must be finite and positive")
        tolerances = {key: args.tol for key in DEFAULT_TOLERANCES}
    return ScanConfig(
        k_max=args.kmax,
        trials=args.trials,
        seed=args.seed,
        rule_scale=args.rule_scale,
        tolerances=tolerances,
    )


def _select_checks(args) -> tuple:
    keys = list(COMMAND_CHECKS[args.command])
    if args.command == "kato":
        admissible = not (args.n == 2 and args.delta >= 1.0)
        if not admissible:
            # the 2D endpoint diverges; only the demonstration of that fact runs
            if not args.negative_controls:
                raise ValueError(
                    "n=2 with delta>=1 is inadmissible (the weighted integral "
                    "diverges); pass --negative-controls to run the "
                    "divergence demonstration instead"
                )
            keys = ["negative_control"]
        elif args.negative_controls:
            keys.append("negative_control")
    elif args.negative_controls and args.command == "all":
        keys.append("negative_control")
    return tuple(keys)


def run_checks(cfg: ScanConfig, keys, options) -> RunManifest:
    """Check every key's k_max limit, then run the checks in order, timing each."""
    for key in keys:
        _require_k_max(cfg, key)
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
        cfg = _config_from_args(args)
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
