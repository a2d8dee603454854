"""Deterministic bytes of a run: manifest.json and the per-check tables.

Floats print with 17 significant digits and JSON keys are sorted, so the same
run gives the same bytes.  verify.manifest_from_json_bytes reads a manifest
back, and the two round-trip byte for byte.
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


class _JsonText(str):
    """Text already rendered as JSON, which _json_text emits as it is."""


def _samples_json(samples) -> str:
    # one string per (label, ratio) row, not a dispatch per value
    return "[" + ",".join(f"[{json.dumps(lab)},{_fmt_float(r)}]" for lab, r in samples) + "]"


def _json_text(obj) -> str:
    if isinstance(obj, _JsonText):
        return obj
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(
            json.dumps(str(k)) + ":" + _json_text(v) for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _config_dict(cfg) -> dict:
    return {
        "k_max": cfg.k_max,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "rule_scale": cfg.rule_scale,
        "tolerances": dict(cfg.tolerances) if cfg.tolerances else None,
    }


def _report_dict(report) -> dict:
    # every field as it is (the keys are sorted when rendered), the samples pre-rendered
    return {**vars(report), "samples": _JsonText(_samples_json(report.samples))}


def manifest_to_json_bytes(manifest: RunManifest) -> bytes:
    obj = {
        "version": manifest.version,
        "config": _config_dict(manifest.config),
        "reports": [_report_dict(r) for r in manifest.reports],
        "wall_time_s": dict(manifest.wall_time_s),
    }
    return (_json_text(obj) + "\n").encode("ascii")


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
