"""The package namespace: every exported name resolves, once, and every
function in it is one that a run enters."""

import inspect
import os
import subprocess
import sys

import pytest

import hermspec
from hermspec import antideriv, cli, errors, hermite, quadrature, render, spectral, verify

MODULES = (antideriv, cli, errors, hermite, quadrature, render, spectral, verify)

# the per-state algebra and the random states, the spherical and polar
# integrators and the circle directions, the unused closed forms, the
# polynomial Gauss-Hermite route, the abort error no check raises, the per-k
# antiderivative norms, the cumulative half-line route, the even half-line
# integral, the Gauss-Hermite wrapper and second weight memo that
# gauss_rule("hermite", m) replaces, the Fraction-valued binomial
# identities that the integer predicates replace, the rule and Laguerre
# parameter records that plain tuples and arguments replace, the
# hand-rolled JSON writer that the standard encoder replaces, the
# Gamma-identity tau route and its Gauss-Jacobi rules that the h_d/x table
# and the Casimir eigenvectors replace, the underflow radius that the
# scaled Hermite start retires, and the float Hermite-polynomial evaluator
# and float bridge residual that the integer bridge replaces: deleted, or
# moved to the tests' oracles
RETIRED = (
    "KernelQuery", "LaguerreParams", "QuadratureRule", "SpectralState", "ToleranceError",
    "UNDERFLOW_RADIUS", "_JsonText", "_QUARTER_PHASES", "_SEG_NODES", "_TAU_BLOCK",
    "_jacobi_poly", "_level_form", "_tau_matrices", "_tau_nodes",
    "_SEG_WIDTH", "_config_dict", "_cumulative_half_line", "_hermite_poly", "_hermite_sq_sum",
    "_json_text", "_report_dict", "_samples_json",
    "bessel_sobolev_norm", "binom_general_exact", "binom_reflection_residual",
    "circle_directions",
    "coefficients_from_function", "eval_hermite_poly", "evaluate_phi", "evaluate_state",
    "evaluate_state_grid",
    "fourier_transform_state", "gauss_hermite", "gauss_legendre", "half_line_integral_even",
    "half_line_integral_odd", "hermite_compensated_weights",
    "hermite_sobolev_norm", "integrate_cyl_2d", "integrate_radial_3d", "make_state",
    "merge_identity_check", "merge_identity_exact", "norm_sq_even_closed",
    "norm_sq_even_recursive", "norm_sq_odd_closed", "norm_sq_odd_expansion",
    "norm_sq_odd_recursive", "oscillator_energy_sq", "parity_decompose",
    "partial_binomial_sum", "partial_binomial_sum_exact", "project",
    "projection_kernel",
    "propagate", "random_state", "sphere_directions", "state_norm_sq", "time_avg_levels",
    "time_avg_weighted", "verify_laguerre_hermite_relation",
)

# the functions no run of `hermspec all` enters, each with why it stays
NOT_RUN = {
    "verify.manifest_from_json_bytes": "contract: reads a manifest back (benchmark gate)",
    "verify.clear_caches": "contract: drops every memo, for honest re-runs",
    "cli._Parser.error": "argparse's usage-error hook, entered only on bad usage",
    "hermite._scaled_rows": "the scaled Hermite start, entered only past |t| = 37 "
    "(odd_identity from k_max 176, the radial lift from 182)",
}


def test_every_export_resolves_without_duplicates():
    names = hermspec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hermspec, name)]
    assert missing == []


def test_no_export_takes_a_basis_argument():
    # Hermite tables come from hermite_functions(k_max, t) alone, and the
    # retired routes are gone from the package and from their home modules
    for name in ("HermiteBasis", "eval_h", "eval_h_all") + RETIRED:
        assert name not in hermspec.__all__ and not hasattr(hermspec, name)
        assert not any(hasattr(module, name) for module in MODULES), name
    takes_basis = [name for name in hermspec.__all__
                   if "basis" in _parameters(getattr(hermspec, name))]
    assert takes_basis == []


def _defined_functions() -> dict:
    """Code object -> "module.qualname" of every module-level function and
    method written in src/hermspec (not the ones dataclasses generate)."""
    out = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                members = [inspect.unwrap(obj)]
            else:
                continue
            for f in members:
                if f.__code__.co_filename == module.__file__:
                    out[f.__code__] = f"{short}.{f.__qualname__}"
    return out


def test_every_function_in_src_runs(tmp_path):
    # memo hits would hide a function, so every memo starts empty
    defined = _defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in defined:
            entered.add(defined[frame.f_code])

    verify.clear_caches()
    sys.setprofile(profile)
    try:
        rc = cli.main(["all", "--negative-controls", "--kmax", "4", "--trials", "2",
                       "--out", str(tmp_path)])
    finally:
        sys.setprofile(None)
    assert rc == 0
    assert sorted(set(defined.values()) - entered - set(NOT_RUN)) == []
    # the allow-list names only what really does not run
    assert sorted(entered & set(NOT_RUN)) == []
    assert set(NOT_RUN) <= set(defined.values())


def test_every_memo_in_src_is_reused(tmp_path):
    # a memo that no run reads back only holds its values alive
    memos = {f"{module.__name__}.{attr}": v for module in MODULES
             for attr, v in vars(module).items()
             if hasattr(v, "cache_info") and v.__module__ == module.__name__}
    # one memo per Gauss rule (the compensated Hermite weights among them),
    # per level's index tuple and per level-spectrum table
    assert sorted(memos) == ["hermspec.quadrature.gauss_rule", "hermspec.spectral._level_indices",
                             "hermspec.spectral.level_spectrum"]
    verify.clear_caches()
    rc = cli.main(["all", "--negative-controls", "--kmax", "4", "--trials", "2",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(name for name, memo in memos.items() if memo.cache_info().hits == 0) == []


@pytest.mark.parametrize("command", ["identities", "sobolev", "all"])
def test_runs_load_no_exact_rational_modules(tmp_path, command):
    # the exact identities run in integers, so no command imports fractions,
    # nor decimal, which fractions loads (about 2.7 ms and 0.3 MB resident)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermspec.__file__)))
    code = ("import sys; from hermspec.cli import main; "
            f"rc = main([{command!r}, '--out', {str(tmp_path)!r}]); "
            "print(rc, sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"


def _parameters(obj) -> tuple:
    # the exception classes have no Python signature
    try:
        return tuple(inspect.signature(obj).parameters) if callable(obj) else ()
    except ValueError:
        return ()
