"""Layer spans for the traced benchmark run, recorded from outside hermspec.

`install` wraps hermspec's public functions and rebinds each wrapper under
every name that refers to the original, in every loaded hermspec module, so a
call is recorded wherever the name is looked up (a function imported into
another module is a second binding; patching only its home module would miss
it).  Checks are wrapped where `hermspec.cli` dispatches them, in
`CHECK_REGISTRY`, so each span carries its check key.  Third-party entry
points are wrapped on their own module and recorded only for calls coming
from hermspec code: scipy's `roots_*` (also reached by in-function imports)
and `numpy.linalg.eigvalsh`.

Spans are aggregated in memory per name: calls, inclusive time, self time
(inclusive time minus the time of the spans directly inside it) and named
counters.  Nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# quadrature rule constructors, summed as quadrature.rule
RULES = (
    "gauss_hermite",
    "gauss_legendre",
    "gauss_legendre_panels",
    "radial_rule_absorbing",
    "radial_rule_panels",
    "circle_directions",
    "sphere_directions",
)

SPECTRAL_SELF = (
    "time_avg_weighted",
    "evaluate_state",
    "evaluate_state_grid",
    "bessel_sobolev_norm",
    "kernel_diagonal",
    "collapse_trace_norm",
)

LAYERS = ("hermite", "quadrature", "spectral", "antideriv", "verify", "cli")

# the checks hermspec all runs, in registry order
CHECK_KEYS = (
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


class Recorder:
    """Nested spans on one stack, aggregated per span name.

    One stack serves every thread: the benchmark runs hermspec with one
    worker, so the worker thread's spans nest inside the main thread's
    blocked `cli.main` span.  A span closed out of order raises.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, start, time of direct child spans]
        self.stats = {}  # name -> {"calls", "wall_s", "self_s", counters...}
        self.keys = {}  # name -> set of distinct argument keys

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, name: str) -> None:
        end = self.clock()
        top, start, inner = self.stack.pop()
        if top != name:
            raise RuntimeError(f"span {name!r} closed while {top!r} was open")
        dur = end - start
        st = self._entry(name)
        st["calls"] += 1
        st["wall_s"] += dur
        st["self_s"] += dur - inner
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name: str, **amounts) -> None:
        st = self._entry(name)
        for key, amount in amounts.items():
            st[key] = st.get(key, 0) + amount

    def note_key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def _entry(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
        return st

    def wrap(self, name, fn, counter=None, caller_prefix=None):
        """`fn` recorded as span `name`; `counter(result, *args, **kwargs)`
        returns counter increments; with `caller_prefix`, calls from modules
        outside that prefix pass through unrecorded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller_prefix is not None:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if not caller.startswith(caller_prefix):
                    return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name)
            self.count(name, **{f"calls.{fn.__name__}": 1})
            if counter is not None:
                self.count(name, **counter(result, *args, **kwargs))
            return result

        return wrapper


def _size(t) -> int:
    shape = getattr(t, "shape", None)
    if shape is not None:
        return math.prod(shape)
    return len(t) if hasattr(t, "__len__") else 1


def _eval_h_all_count(result, basis, k_max, t):
    return {"values": (k_max + 1) * _size(t)}


def _eval_h_count(result, basis, k, t):
    return {"useful": _size(t), "values": (k + 1) * _size(t)}


def _level_gram_count(result, n, k, *args, **kwargs):
    return {"rows": math.comb(k + n - 1, n - 1)}


def _emit_count(result, manifest, fmt):
    # the run manifest carries wall times, so only the per-check tables,
    # which hold none, give a byte count that repeats
    return {"bytes": 0 if manifest.wall_time_s else len(result)}


def _hermspec_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hermspec" or name.startswith("hermspec."))]


def _rebind(original, wrapper, modules) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every traced name in the loaded hermspec modules.

    A function missing from its home module
    (removed by a later change) is skipped: it does no work, so its metrics
    read zero.  Each call also counts `calls.<function name>` on its span, so
    a span shared by several functions shows which of them ran.
    """
    import numpy.linalg
    import scipy.special

    from hermspec import antideriv, cli, hermite, quadrature, spectral, verify

    modules = _hermspec_modules()
    targets = [
        (hermite, "eval_h_all", "hermite.eval_h_all", _eval_h_all_count),
        (hermite, "eval_h", "hermite.eval_h", _eval_h_count),
        (quadrature, "integrate_radial_3d", "quadrature.integrate_radial_3d", None),
        (spectral, "level_gram", "spectral.level_gram", _level_gram_count),
        (antideriv, "norm_sq_odd_quadrature", "antideriv.norm_quadrature", None),
        (antideriv, "norm_sq_even_quadrature", "antideriv.norm_quadrature", None),
        (verify, "operator_norm_singular_kernel", "verify.eigensolve", None),
        (verify, "emit_table", "cli.emit_table", _emit_count),
    ]
    targets += [(quadrature, name, "quadrature.rule", None) for name in RULES]
    targets += [(spectral, name, f"spectral.{name}", None) for name in SPECTRAL_SELF]

    for home, attr, span, counter in targets:
        fn = getattr(home, attr, None)
        if fn is None:
            continue
        _rebind(fn, recorder.wrap(span, fn, counter), modules)

    # scipy roots: bound into hermspec modules at import, and looked up on
    # scipy.special by in-function imports
    for attr in sorted(dir(scipy.special)):
        if not attr.startswith("roots_"):
            continue
        fn = getattr(scipy.special, attr)

        def roots_count(result, *args, _attr=attr, **kwargs):
            recorder.note_key("quadrature.roots",
                              (_attr, repr(args), repr(sorted(kwargs.items()))))
            return {}

        wrapper = recorder.wrap("quadrature.roots", fn, roots_count, "hermspec")
        _rebind(fn, wrapper, modules + [scipy.special])

    eig = numpy.linalg.eigvalsh
    numpy.linalg.eigvalsh = recorder.wrap("verify.eigensolve", eig,
                                          caller_prefix="hermspec.verify")

    registry = getattr(cli, "CHECK_REGISTRY", {})
    for key, fn in list(registry.items()):
        registry[key] = recorder.wrap(f"verify.{key}", fn)


def _ratio(num, den) -> float:
    # nothing attempted wastes nothing
    return num / den if den else 1.0


def layer_metrics(recorder: Recorder) -> dict:
    """The per-layer metrics of one traced child, by metric name."""
    st = recorder.stats

    def get(span, key="self_s"):
        return st.get(span, {}).get(key, 0)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = math.fsum(
            v["self_s"] for name, v in st.items() if name.split(".")[0] == layer
        )
    m["hermite.eval_h_all.calls"] = get("hermite.eval_h_all", "calls")
    m["hermite.eval_h_all.self_s"] = get("hermite.eval_h_all")
    m["hermite.eval_h_all.values"] = get("hermite.eval_h_all", "values")
    m["hermite.eval_h.calls"] = get("hermite.eval_h", "calls")
    m["hermite.eval_h.useful_ratio"] = _ratio(get("hermite.eval_h", "useful"),
                                              get("hermite.eval_h", "values"))
    m["quadrature.rule.calls"] = get("quadrature.rule", "calls")
    m["quadrature.rule.self_s"] = get("quadrature.rule")
    m["quadrature.roots.calls"] = get("quadrature.roots", "calls")
    m["quadrature.roots.self_s"] = get("quadrature.roots")
    m["quadrature.roots.distinct_ratio"] = _ratio(
        len(recorder.keys.get("quadrature.roots", ())), get("quadrature.roots", "calls"))
    m["quadrature.integrate_radial_3d.self_s"] = get("quadrature.integrate_radial_3d")
    m["spectral.level_gram.calls"] = get("spectral.level_gram", "calls")
    m["spectral.level_gram.self_s"] = get("spectral.level_gram")
    m["spectral.level_gram.rows"] = get("spectral.level_gram", "rows")
    for name in SPECTRAL_SELF:
        m[f"spectral.{name}.self_s"] = get(f"spectral.{name}")
    m["antideriv.norm_quadrature.calls"] = get("antideriv.norm_quadrature", "calls")
    m["antideriv.norm_quadrature.self_s"] = get("antideriv.norm_quadrature")
    m["verify.eigensolve.self_s"] = get("verify.eigensolve")
    for key in CHECK_KEYS:
        m[f"verify.{key}.self_s"] = get(f"verify.{key}")
    m["cli.main.self_s"] = get("cli.main")
    m["cli.emit_table.calls"] = get("cli.emit_table", "calls")
    m["cli.emit_table.self_s"] = get("cli.emit_table")
    m["cli.emit_table.bytes"] = get("cli.emit_table", "bytes")
    m["trace.wall_s"] = get("cli.main", "wall_s")
    return m


def unaccounted_s(recorder: Recorder) -> float:
    """Traced wall time minus the sum of every span's self time.

    The root spans (`cli.main`) cover the whole traced time, so this is zero
    up to rounding when every span nested properly.
    """
    total = math.fsum(v["self_s"] for v in recorder.stats.values())
    return recorder.stats.get("cli.main", {}).get("wall_s", 0.0) - total


def median_metrics(samples: list) -> dict:
    """Per-metric median over the traced children of one run."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
