"""Deterministic bytes of a run: manifest.json and the per-check tables.

manifest.json is the standard library's JSON encoding of the run record, with
sorted keys and no spaces; each dataclass is written as its fields, so the
manifest's keys are the field names, and every float as Python's shortest
round-trip repr.  The CSV tables print floats with 17 significant digits.  A
non-finite value raises ValueError in both.  verify.manifest_from_json_bytes
reads a manifest back, and the two round-trip byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RunManifest:
    """Everything one run produced: config snapshot, reports, wall times."""

    version: str
    config: object  # a verify.ScanConfig
    reports: tuple
    wall_time_s: dict = field(default_factory=dict)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def manifest_to_json_bytes(manifest: RunManifest) -> bytes:
    text = json.dumps(manifest, default=vars, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return (text + "\n").encode("ascii")


CSV_HEADER = "label,ratio,tolerance,passed"


def emit_table(manifest: RunManifest, fmt: str) -> bytes:
    """Deterministic byte rendering: full JSON object, or RFC-4180 CSV rows."""
    if fmt == "json":
        return manifest_to_json_bytes(manifest)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(CSV_HEADER.split(","))
        for report in manifest.reports:
            flag = "true" if report.passed else "false"
            tol = _fmt_float(report.tolerance)
            for label, ratio in report.samples:
                writer.writerow([label, _fmt_float(ratio), tol, flag])
        return buf.getvalue().encode("ascii")
    raise ValueError("format must be json or csv")
