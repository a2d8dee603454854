"""The package namespace: every exported name resolves, once."""

import inspect

import hermspec


def test_every_export_resolves_without_duplicates():
    names = hermspec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hermspec, name)]
    assert missing == []


def test_no_export_takes_a_basis_argument():
    # Hermite tables come from hermite_functions(k_max, t) alone
    for name in ("HermiteBasis", "eval_h", "eval_h_all"):
        assert name not in hermspec.__all__ and not hasattr(hermspec, name)
    takes_basis = [name for name in hermspec.__all__
                   if "basis" in _parameters(getattr(hermspec, name))]
    assert takes_basis == []


def _parameters(obj) -> tuple:
    # the exception classes have no Python signature
    try:
        return tuple(inspect.signature(obj).parameters) if callable(obj) else ()
    except ValueError:
        return ()
