"""Quadrature rules: textbook values, singular weights, and admissibility guards."""

import math

import numpy as np
import pytest

from hermspec import (
    gauss_legendre_panels,
    gauss_rule,
    hermite_functions,
    radial_rule_panels,
    truncation_radius,
)
from hermspec import quadrature
from hermspec.errors import CapabilityError
from hermspec.quadrature import MAX_HERMITE_NODES, MAX_LAGUERRE_NODES

from oracles import (
    _tau_matrices,
    circle_directions,
    integrate_cyl_2d,
    integrate_radial_3d,
    jacobi_rule,
    radial_rule_absorbing,
    sphere_directions,
)


def test_gauss_legendre_one_node():
    x, w = gauss_rule("legendre", 1)
    assert x == pytest.approx([0.0], abs=1e-15)
    assert w == pytest.approx([2.0], abs=1e-15)


def test_gauss_hermite_small_rules():
    # the weights are compensated, w e^(x^2): w = sqrt(pi) at x = 0, and
    # w = sqrt(pi) / 2 at x = +-1/sqrt(2)
    x, comp = gauss_rule("hermite", 1)
    assert x == pytest.approx([0.0], abs=1e-15)
    assert comp == pytest.approx([math.sqrt(math.pi)], abs=1e-14)
    x, comp = gauss_rule("hermite", 2)
    assert x == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], abs=1e-14)
    assert comp == pytest.approx([math.sqrt(math.pi) / 2.0 * math.exp(0.5)] * 2, abs=1e-14)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_rule("legendre", 6)
    assert np.dot(w, x ** 10) == pytest.approx(2.0 / 11.0, rel=1e-14)


def test_panels_integrate_smooth_function():
    x, w = gauss_legendre_panels(0.0, 2.0, 8, 10)
    assert np.dot(w, np.exp(x)) == pytest.approx(math.e ** 2 - 1.0, rel=1e-13)


def test_panel_rule_shape_and_domain():
    x, w = gauss_legendre_panels(-1.0, 3.0, 5, 4)
    assert x.shape == w.shape == (20,)
    assert np.all(np.diff(x) > 0)


def test_radial_3d_gaussian_plain():
    val = integrate_radial_3d(lambda x, y, z: np.exp(-(x * x + y * y + z * z)), 0.0, 12.0)
    assert val == pytest.approx(math.pi ** 1.5, abs=1e-10)


def test_radial_3d_gaussian_full_inverse_square():
    val = integrate_radial_3d(lambda x, y, z: np.exp(-(x * x + y * y + z * z)), 1.0, 12.0)
    assert val == pytest.approx(2.0 * math.pi ** 1.5, abs=1e-10)


def test_radial_3d_ground_state_inverse_square():
    # |h_0(x1) h_0(x2) h_0(x3)|^2 / r^2 integrates to exactly 2

    def F(x, y, z):
        return (hermite_functions(0, x)[0] * hermite_functions(0, y)[0]
                * hermite_functions(0, z)[0]) ** 2

    assert integrate_radial_3d(F, 1.0, 12.0) == pytest.approx(2.0, abs=1e-10)


def test_cyl_2d_gaussian_plain():
    val = integrate_cyl_2d(lambda x, y: np.exp(-(x * x + y * y)), 0.0, 12.0)
    assert val == pytest.approx(math.pi, abs=1e-12)


def test_cyl_2d_gaussian_half_weight():
    val = integrate_cyl_2d(lambda x, y: np.exp(-(x * x + y * y)), 0.5, 12.0)
    assert val == pytest.approx(math.pi ** 1.5, abs=1e-10)


def test_cyl_2d_disk_indicator_strong_weight():
    val = integrate_cyl_2d(lambda x, y: (x * x + y * y <= 1.0).astype(float), 0.9, 1.0)
    assert val == pytest.approx(10.0 * math.pi, abs=1e-8)


def test_rotation_invariance_of_3d_integrator():
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([1.0, 2.0, -2.0]) / 3.0

    def make(v):
        return lambda x, y, z: np.exp(-(x * x + y * y + z * z)) * (
            1.0 + (v[0] * x + v[1] * y + v[2] * z) ** 2
        )

    a = integrate_radial_3d(make(v1), 0.5, 12.0)
    b = integrate_radial_3d(make(v2), 0.5, 12.0)
    assert abs(a - b) < 1e-12


def test_admissibility_guards():
    with pytest.raises(ValueError):
        integrate_cyl_2d(lambda x, y: np.exp(-(x * x + y * y)), 1.0, 12.0)
    with pytest.raises(ValueError):
        integrate_radial_3d(lambda x, y, z: np.exp(-(x * x + y * y + z * z)), 1.2, 12.0)
    with pytest.raises(ValueError):
        radial_rule_panels(2, 1.0, 12.0, 64, 8)
    with pytest.raises(ValueError):
        radial_rule_absorbing(2, 1.0, 16)


def test_divergent_rule_requires_explicit_flag():
    r, w = radial_rule_panels(2, 1.0, 12.0, 64, 8, allow_divergent=True)
    assert np.all(np.isfinite(w))
    assert np.all(r > 0)


def test_absorbing_rule_polynomial_exactness():
    # integral_0^inf r^4 e^(-r^2) r^(2-2) dr = 3 sqrt(pi) / 8 with a 4-node rule
    r, w = radial_rule_absorbing(3, 1.0, 4)
    got = np.dot(w, r ** 4 * np.exp(-r ** 2))
    assert got == pytest.approx(3.0 * math.sqrt(math.pi) / 8.0, rel=1e-14)


def test_absorbing_matches_panels_on_eigenfunction_integrand():

    def G(r):
        return hermite_functions(9, r)[9] ** 2

    r_abs, w_abs = radial_rule_absorbing(3, 1.0, 12)
    r_pan, w_pan = radial_rule_panels(3, 1.0, 16.0, 200, 12)
    a = np.dot(w_abs, G(r_abs))
    b = np.dot(w_pan, G(r_pan))
    assert a == pytest.approx(b, rel=1e-11)


def test_absorbing_node_cap():
    with pytest.raises(ValueError):
        radial_rule_absorbing(3, 0.0, 200)


def test_circle_directions_weights_and_symmetry():
    dirs, w = circle_directions(16)
    assert w.sum() == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    # antipodal closure: midpoint nodes come in +/- pairs for even counts
    half = len(dirs) // 2
    assert np.allclose(dirs[:half], -dirs[half:], atol=1e-12)
    with pytest.raises(ValueError):
        circle_directions(7)


def test_sphere_directions_weights_and_symmetry():
    dirs, w = sphere_directions(12, 16)
    assert w.sum() == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-13)
    # every direction's antipode is present with matching weight
    table = {tuple(np.round(d, 9)): wi for d, wi in zip(dirs, w)}
    for d, wi in zip(dirs, w):
        key = tuple(np.round(-d, 9))
        assert key in table
        assert table[key] == pytest.approx(wi, rel=1e-13)


def test_sphere_rule_integrates_low_degree_harmonics():
    dirs, w = sphere_directions(8, 12)
    assert np.dot(w, dirs[:, 0] ** 2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
    assert np.dot(w, dirs[:, 0] * dirs[:, 1]) == pytest.approx(0.0, abs=1e-13)


def test_truncation_radius_formula():
    assert truncation_radius(20, 3) == pytest.approx(math.sqrt(43.0) + 10.0, rel=1e-15)


# the memo would keep every rule of the sweeps below; the unwrapped routine
# computes exactly what the memoized one returns
_build_rule = gauss_rule.__wrapped__

LAGUERRE_EXPONENTS = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


# (alpha, beta) of the oracle's Jacobi rules: the tau rules of the 3D and the
# odd 1D inverse-square forms, two-axis and 3D weights at delta = 1/2, the 1D
# weight at delta = 0.3, and two more
JACOBI_EXPONENTS = ((0.0, 0.5), (0.0, -0.5), (-0.5, -0.5), (-0.5, 0.0), (-0.7, -0.8),
                    (0.5, -0.5), (1.0, 1.5))

# scipy's Jacobi rules polish every node by the difference form from x = 1,
# so they hold a node only to about 2e-16 absolute (far from 1e-15 relative
# near 0), and their weights at the nodes nearest -1 drift: 3e-10 at 150
# nodes against 50-digit references, where these rules are within 4e-12.
# So the Jacobi nodes are held to 1e-15 on the scale of [-1, 1], and the
# weights to 1e-13 while scipy's keep that accuracy
JACOBI_SCIPY_WEIGHT_NODES = 11


def _hermite_weights_ref(m, x):
    """The m-point Gauss-Hermite weights 2^(m-1) m! sqrt(pi) / (m H_(m-1))^2, in
    long double from the classical recurrence, at the nodes x after one
    long-double Newton step on H_m (H_m' = 2m H_(m-1))."""

    def pair(t):
        # (H_(m-1), H_m)(t) by H_j = 2t H_(j-1) - 2(j-1) H_(j-2)
        prev, cur = np.zeros_like(t), np.ones_like(t)
        for j in range(1, m + 1):
            prev, cur = cur, 2 * t * cur - 2 * (j - 1) * prev
        return prev, cur

    t = np.asarray(x, dtype=np.longdouble)
    p, y = pair(t)
    p = pair(t - y / (2 * m * p))[0]
    scale = np.longdouble(2) ** (m - 1) * np.longdouble(math.factorial(m))
    return scale * np.sqrt(np.longdouble(math.pi)) / (m * p) ** 2


@pytest.mark.parametrize("family, alpha", [("legendre", 0.0), ("hermite", 0.0)]
                         + [("laguerre", a) for a in LAGUERRE_EXPONENTS]
                         + [pytest.param("jacobi", ab, id=f"jacobi-{ab[0]}-{ab[1]}")
                            for ab in JACOBI_EXPONENTS])
def test_gauss_rule_matches_scipy(family, alpha):
    special = pytest.importorskip("scipy.special")
    if family == "jacobi":
        for m in range(1, 151):
            x, w = jacobi_rule.__wrapped__(m, *alpha)
            xr, wr = special.roots_jacobi(m, *alpha)
            assert np.all(np.diff(x) > 0)
            assert np.max(np.abs(x - xr)) <= 1e-15, (alpha, m)
            if m <= JACOBI_SCIPY_WEIGHT_NODES:
                assert _max_rel(w, wr) <= 1e-13, (alpha, m)
        return
    ref = {
        "legendre": special.roots_legendre,
        "hermite": special.roots_hermite,
        "laguerre": lambda m: special.roots_genlaguerre(m, alpha),
    }[family]
    for m in range(1, 151):
        x, w = _build_rule(family, m, alpha)
        if family == "hermite":
            # the rule's weights are compensated: w e^(x^2)
            w = w * np.exp(-x * x)
        xr, wr = ref(m)
        assert np.all(np.diff(x) > 0)
        nonzero = xr != 0
        assert np.array_equal(x[~nonzero], xr[~nonzero])
        if nonzero.any():
            assert _max_rel(x[nonzero], xr[nonzero]) <= 1e-15, (family, alpha, m)
        if family == "hermite":
            # scipy's weights are off by up to 2.9e-12 at 150 nodes against this
            # long-double reference, where these rules are within 5e-14
            wr = _hermite_weights_ref(m, x)
        assert _max_rel(w, wr) <= 1e-13, (family, alpha, m)


def _legendre_ref(n, x):
    if n == 0:
        return np.ones_like(x)
    d = x - 1.0
    p = x.copy()
    for k in range(1, n):
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p = p + d
    small = np.abs(x) < 1e-5
    if small.any():
        xs = x[small]
        prev, cur = np.ones_like(xs), xs.copy()
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1) * xs * cur - k * prev) / (k + 1)
        p[small] = cur
    return p


def _laguerre_ref(n, alpha, x):
    if n == 0:
        return np.ones_like(x)
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
    return p


def _three_pass_rule(family, m, alpha=0.0):
    """The polynomial-range Gauss rule with one recurrence pass per value:
    p_m and p_(m-1) at the Jacobi eigenvalues, then p_(m-1) at the polished
    nodes."""
    k = np.arange(1, m, dtype=float)
    if family == "legendre":
        mass = 2.0
        x = quadrature._golub_welsch(np.zeros(m), k * np.sqrt(1.0 / (4 * k * k - 1)))
        y = _legendre_ref(m, x)
        dy = (-m * x * y + m * _legendre_ref(m - 1, x)) / (1 - x ** 2)
        x = x - y / dy
        w = quadrature._christoffel(_legendre_ref(m - 1, x), dy)
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    else:
        mass = math.gamma(alpha + 1.0)
        x = quadrature._golub_welsch(2 * np.arange(m, dtype=float) + alpha + 1,
                                     -np.sqrt(k * (k + alpha)))
        y = _laguerre_ref(m, alpha, x)
        dy = (m * y - m * _laguerre_ref(m - 1, alpha, x)) / x
        x = x - y / dy
        w = quadrature._christoffel(_laguerre_ref(m - 1, alpha, x), dy)
    return x, w * (mass / w.sum())


@pytest.mark.parametrize("family, alpha", [("legendre", 0.0)]
                         + [("laguerre", a) for a in LAGUERRE_EXPONENTS])
def test_gauss_rule_single_pass_is_bit_identical_to_three_passes(monkeypatch, family, alpha):
    # LAGUERRE_EXPONENTS holds every exponent a `hermspec all` run asks for;
    # both routes share each Jacobi eigen-solve, which they do not change
    real = quadrature._golub_welsch
    solved = {}

    def shared(diag, off):
        key = (diag.tobytes(), off.tobytes())
        if key not in solved:
            solved[key] = real(diag, off)
        return solved[key].copy()

    monkeypatch.setattr(quadrature, "_golub_welsch", shared)
    for m in range(1, 151):
        x, w = _build_rule(family, m, alpha)
        xr, wr = _three_pass_rule(family, m, alpha)
        assert np.array_equal(x, xr) and np.array_equal(w, wr), (family, alpha, m)


@pytest.mark.parametrize("m", [151, 200, 300])
def test_gauss_hermite_past_polynomial_range(m):
    special = pytest.importorskip("scipy.special")
    x, comp = _build_rule("hermite", m)
    w = comp * np.exp(-x * x)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w > 0)
    assert abs(w.sum() - math.sqrt(math.pi)) <= 1e-14
    xr, wr = special.roots_hermite(m)
    nonzero = xr != 0
    assert _max_rel(x[nonzero], xr[nonzero]) <= 1e-12
    assert _max_rel(w, wr) <= 1e-12
    # exact on h_k h_l with the Gaussian compensated: the Gram matrix of
    # h_0..h_(m-1) under the rule is the identity
    h = hermite_functions(m - 1, x)
    gram = (h * comp) @ h.T
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-12


def test_hermite_compensated_weights_past_underflow():
    # at 400 nodes the outer weights w = c e^(-x^2) underflow to 0, where the
    # compensated weights c = w e^(x^2) stay finite
    x, comp = gauss_rule("hermite", 400)
    assert (comp * np.exp(-x * x)).min() == 0.0
    assert np.all(np.isfinite(comp)) and np.all(comp > 0)
    assert np.array_equal(comp, comp[::-1])
    assert abs(np.dot(np.exp(-x * x), comp) - math.sqrt(math.pi)) <= 1e-13
    # the modes are orthonormal on the 400-node compensated rule: a mode's
    # coefficients come back through it
    h = hermite_functions(9, x)
    coeffs = (h * comp) @ h[7]
    for k, c in enumerate(coeffs):
        assert abs(c - (1.0 if k == 7 else 0.0)) <= 1e-12, k
    # where w stays finite, the compensated weights agree with scipy's w e^(x^2)
    special = pytest.importorskip("scipy.special")
    for m in (151, 300):
        x, comp = gauss_rule("hermite", m)
        assert _max_rel(comp, special.roots_hermite(m)[1] * np.exp(x * x)) <= 1e-12


def test_gauss_hermite_at_its_node_limit():
    # odd_identity's doubled rule at its k_max limit, 363: 4 * 363 + 4 nodes
    m = MAX_HERMITE_NODES
    assert m == 1456
    x, comp = _build_rule("hermite", m)
    w = comp * np.exp(-x * x)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    # past the scaled start's radius, where e^(-x^2/2) alone leaves the normal range
    assert x[-1] > 53.0 and np.exp(-0.5 * x[-1] ** 2) < np.finfo(float).tiny
    assert abs(w.sum() - math.sqrt(math.pi)) <= 1e-14
    assert np.all(np.isfinite(comp)) and np.all(comp > 0)
    assert abs(np.dot(np.exp(-x * x), comp) - math.sqrt(math.pi)) <= 1e-13
    # the modes are orthonormal on it
    h = hermite_functions(m - 1, x)
    assert np.max(np.abs((h * comp) @ h.T - np.eye(m))) <= 2e-14


def test_gauss_hermite_past_its_node_limit_raises():
    with pytest.raises(CapabilityError, match=f"limited to {MAX_HERMITE_NODES} nodes"):
        gauss_rule("hermite", MAX_HERMITE_NODES + 1)


def test_gauss_laguerre_past_its_node_limit_raises():
    # the same error type as the Hermite cap, still a ValueError
    gauss_rule("laguerre", MAX_LAGUERRE_NODES)
    with pytest.raises(CapabilityError, match=f"limited to {MAX_LAGUERRE_NODES} nodes"):
        gauss_rule("laguerre", 151, 0.5)
    assert MAX_LAGUERRE_NODES == 150 and issubclass(CapabilityError, ValueError)


def test_hermite_compensated_weights_memo():
    from hermspec.verify import clear_caches

    # at every node count: the Christoffel values 1/sum h_j^2 at the rule's
    # exactly antipodal nodes, scaled to its mass, byte for byte
    for m in (1, 24, 150, 151, 400):
        x, comp = gauss_rule("hermite", m)
        assert np.array_equal(x, -x[::-1])
        h = hermite_functions(m - 1, x)
        ref = 1.0 / np.einsum("ij,ij->j", h, h)
        ref *= math.sqrt(math.pi) / np.dot(np.exp(-x * x), ref)
        assert np.array_equal(comp, ref)
    # read-only, shared by every caller, and dropped by clear_caches
    x, comp = gauss_rule("hermite", 24)
    again = gauss_rule("hermite", 24)
    assert again[0] is x and again[1] is comp
    for arr in (x, comp):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    clear_caches()
    assert gauss_rule.cache_info().currsize == 0
    assert gauss_rule("hermite", 24)[1] is not comp


def test_one_hermite_rule_builds_two_hermite_tables(monkeypatch):
    # the Newton polish and the Christoffel sum: a form that reads the
    # rule's nodes and compensated weights builds them from one memo entry
    from hermspec import spectral
    from hermspec.verify import clear_caches

    real = quadrature.hermite_functions
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "hermite_functions", counting)
    clear_caches()
    _tau_matrices(np.arange(5), np.array([0.25, 0.75]), False)
    assert len(calls) == 2
    _tau_matrices(np.arange(5), np.array([0.5]), True)
    assert len(calls) == 2
    # so does odd_identity's table of h_d / x, at the rule's two scales
    clear_caches()
    calls.clear()
    for _ in range(2):
        spectral.odd_inverse_squares(9, 1.0)
        spectral.odd_inverse_squares(9, 2.0)
    assert len(calls) == 4


def test_gauss_rule_memo_is_read_only_shared_and_cleared():
    from hermspec.verify import clear_caches

    clear_caches()
    x, w = gauss_rule("laguerre", 9, 0.5)
    again = gauss_rule("laguerre", 9, 0.5)
    assert again[0] is x and again[1] is w
    assert gauss_rule.cache_info().currsize == 1
    for arr in (x, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    clear_caches()
    assert gauss_rule.cache_info().currsize == 0
    assert gauss_rule("laguerre", 9, 0.5)[0] is not x


def test_gauss_rule_guards():
    with pytest.raises(ValueError):
        gauss_rule("legendre", 0)
    with pytest.raises(ValueError):
        gauss_rule("chebyshev", 4)
    with pytest.raises(ValueError):
        gauss_rule("laguerre", 4, -1.0)
    # the Gauss-Jacobi family lives in the tests' oracle alone
    for args in ((), (0.5,)):
        with pytest.raises(ValueError, match="family must be legendre, hermite or laguerre"):
            gauss_rule("jacobi", 4, *args)
    for exponents in ((-1.0, 0.0), (0.0, -1.0)):
        with pytest.raises(ValueError):
            jacobi_rule(4, *exponents)
    with pytest.raises(ValueError):
        gauss_rule("laguerre", 151)
