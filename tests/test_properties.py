"""Property tests: the Gauss rules (mass, antipodal symmetry, exactness), the
admissibility rule of the weighted functionals, the exact-rational binomials
and the integer numerators against a Fraction-by-Fraction reference, and byte-determinism of a full run
across cache state."""

import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hermspec.antideriv import partial_binomial_numerators  # noqa: E402
from hermspec.cli import COMMAND_CHECKS, main  # noqa: E402
from hermspec.hermite import binom_reflection_holds  # noqa: E402
from hermspec.quadrature import gauss_rule  # noqa: E402
from hermspec.spectral import check_admissible  # noqa: E402
from hermspec.verify import clear_caches  # noqa: E402

from oracles import binom_general_exact, jacobi_rule, partial_binomial_sum_exact  # noqa: E402

# deterministic across runs, and nothing written to disk
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# past about 40 nodes the top monomials of the Legendre rule lose digits to
# the node error near +-1; this range keeps every family within 1e-12
MAX_NODES = 40


@st.composite
def rules(draw, families=("legendre", "hermite", "laguerre", "jacobi")):
    family = draw(st.sampled_from(families))
    m = draw(st.integers(1, MAX_NODES))
    exponents = {"laguerre": 1, "jacobi": 2}.get(family, 0)
    return family, m, tuple(draw(st.floats(-0.95, 8.0)) for _ in range(exponents))


def _weighted_rule(family: str, m: int, exponents: tuple) -> tuple:
    """The rule's nodes and its weights against the family's weight: the
    Hermite rules' compensated weights w e^(x^2) times e^(-x^2), and the
    Jacobi rules from the tests' oracle."""
    if family == "jacobi":
        return jacobi_rule(m, *exponents)
    x, w = gauss_rule(family, m, *exponents)
    return x, (w * np.exp(-x * x) if family == "hermite" else w)


def _moment(family: str, exponents: tuple, d: int) -> float:
    """Exact integral of x^d against the family's weight."""
    if family == "laguerre":
        return math.exp(math.lgamma(d + exponents[0] + 1.0))
    if family == "jacobi":
        # (a+b+j+2) m_(j+1) = (b-a) m_j + j m_(j-1), from integrating
        # x^j d/dx[(1-x)^(a+1) (1+x)^(b+1)] by parts
        a, b = exponents
        lo, mom = 0.0, math.exp((a + b + 1) * math.log(2.0) + math.lgamma(a + 1)
                                + math.lgamma(b + 1) - math.lgamma(a + b + 2))
        for j in range(d):
            lo, mom = mom, ((b - a) * mom + j * lo) / (a + b + j + 2)
        return mom
    if d % 2:
        return 0.0
    if family == "legendre":
        return 2.0 / (d + 1)
    return math.gamma((d + 1) / 2.0)


@PROPERTY
@given(rules())
def test_gauss_rule_mass(rule):
    family, m, exponents = rule
    x, w = _weighted_rule(family, m, exponents)
    assert x.shape == w.shape == (m,)
    assert np.all(w > 0) and np.all(np.diff(x) > 0)
    assert math.isclose(math.fsum(w), _moment(family, exponents, 0), rel_tol=1e-14)


@PROPERTY
@given(rules(families=("legendre", "hermite")))
def test_gauss_rule_antipodal(rule):
    family, m, exponents = rule
    x, w = gauss_rule(family, m, *exponents)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])


@PROPERTY
@given(rules(), st.data())
def test_gauss_rule_exact_on_monomials(rule, data):
    family, m, exponents = rule
    d = data.draw(st.integers(0, 2 * m - 1), label="degree")
    x, w = _weighted_rule(family, m, exponents)
    got = math.fsum(w * x ** d)
    # relative to the integral of |x|^d, so odd degrees have a scale too
    scale = max(math.fsum(w * np.abs(x) ** d), 1e-300)
    assert abs(got - _moment(family, exponents, d)) <= 1e-12 * scale


def _violates(dw: int, delta: float, odd: bool) -> bool:
    """The cases check_admissible documents, one per line."""
    return (
        not delta >= 0.0  # negative or NaN
        or (dw == 1 and delta > 1.0)
        or (dw == 1 and delta >= 0.5 and not odd)
        or (dw == 2 and delta >= 1.0)
        or (dw >= 3 and delta > 1.0)
    )


# the case boundaries and their float neighbours, then anything in range
EDGES = [0.0, 0.5, 1.0, math.nextafter(0.0, -1.0), math.nextafter(0.5, 0.0),
         math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), math.nan, math.inf]
deltas = st.one_of(st.sampled_from(EDGES), st.floats(-2.0, 3.0))


@PROPERTY
@given(st.integers(1, 6), deltas, st.booleans())
def test_check_admissible_raises_exactly_when_a_condition_fails(dw, delta, odd):
    if _violates(dw, delta, odd):
        with pytest.raises(ValueError):
            check_admissible(dw, delta, odd)
        return
    check_admissible(dw, delta, odd)
    # an admitted weight |x_w|^(-2 delta) is locally integrable against the
    # modes: 2 delta < dw, or < 3 when every mode vanishes on the one axis
    assert 2.0 * delta < dw + (2 if dw == 1 and odd else 0)


def _binom_reference(a: Fraction, i: int) -> Fraction:
    # C(a, i) one Fraction factor at a time
    out = Fraction(1)
    for j in range(1, i + 1):
        out *= (a - j + 1) / j
    return out


def _partial_sum_reference(k: int, a: Fraction) -> Fraction:
    term = total = Fraction(1)
    for i in range(k):
        term *= Fraction(a - i, i + 1)
        total += term
    return total


@PROPERTY
@given(st.fractions(min_value=-10, max_value=10, max_denominator=12), st.integers(0, 30))
def test_exact_binomials_match_the_fraction_by_fraction_reference(a, k):
    assert binom_general_exact(a, k) == _binom_reference(a, k)
    assert partial_binomial_sum_exact(k, a) == _partial_sum_reference(k, a)
    # the integer routes src runs: the numerators over q^k k!, and the reflection
    p, q = a.numerator, a.denominator
    total = partial_binomial_numerators(k, p, q)[k]
    assert Fraction(total, q ** k * math.factorial(k)) == _partial_sum_reference(k, a)
    assert binom_reflection_holds(p, q, k)


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7),
                               Fraction(-5, 3), Fraction(2)])
def test_exact_binomials_match_the_reference_on_every_k(a):
    for k in range(31):
        assert binom_general_exact(a, k) == _binom_reference(a, k)
        assert partial_binomial_sum_exact(k, a) == _partial_sum_reference(k, a)


@settings(PROPERTY, max_examples=3)
@given(st.integers(0, 2**32 - 1))
def test_all_tables_byte_identical_cold_and_warm(seed):
    # the first run builds every memo, the second reads them back
    args = ["all", "--kmax", "4", "--trials", "2", "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp:
        cold, warm = os.path.join(tmp, "cold"), os.path.join(tmp, "warm")
        clear_caches()
        assert main(args + ["--out", cold]) == 0
        assert main(args + ["--out", warm]) == 0
        for key in COMMAND_CHECKS["all"]:
            with open(os.path.join(cold, f"{key}.csv"), "rb") as a, \
                    open(os.path.join(warm, f"{key}.csv"), "rb") as b:
                assert a.read() == b.read(), key
