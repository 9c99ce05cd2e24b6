"""Metric construction from potentials: block structure, jets, errors."""

import itertools

import numpy as np
import pytest

from kahlersym import metrics
from kahlersym.curvature import christoffel
from kahlersym.expressions import eval_jet, parse
from kahlersym.jets import JetScalar, jet_space
from kahlersym.metrics import MetricError, metric_from_potential
from kahlersym.tensor_algebra import standard_complex_structure

from helpers import (
    central_difference,
    dddg_oracle,
    evidence_at,
    kahler_checks_matmul,
    monomials_of,
    pair_second_partials,
    partials,
    position_of,
    rel_err,
    trace_table_loop,
)


def test_flat_metric_is_exactly_identity():
    pot = parse("absq(1)+absq(2)", 2)
    m = metric_from_potential(pot, [0.3, -0.7, 1.1, 0.2], 2)
    assert np.array_equal(m.g, np.eye(4))
    assert np.array_equal(m.dg, np.zeros((4, 4, 4)))
    assert np.array_equal(m.ddg, np.zeros((4, 4, 4, 4)))
    assert np.array_equal(m.t, np.zeros((4, 4, 4)))


def test_scaled_flat_metric():
    pot = parse("3*absq(1)", 1)
    m = metric_from_potential(pot, [0.5, -0.2], 1)
    assert np.array_equal(m.g, 3 * np.eye(2))


def test_hermitian_block_structure():
    """g must have the form [[A, B], [-B, A]] with A symmetric, B skew."""
    pot = parse("log(1+rsq) + 0.2*absq(1)*absq(2)", 2)
    rng = np.random.default_rng(7)
    for _ in range(4):
        point = rng.uniform(-0.5, 0.5, size=4)
        m = metric_from_potential(pot, point, 2)
        a = m.g[:2, :2]
        b = m.g[:2, 2:]
        assert np.allclose(m.g[2:, 2:], a, atol=1e-15)
        assert np.allclose(m.g[2:, :2], -b, atol=1e-15)
        assert np.allclose(a, a.T, atol=1e-15)
        assert np.allclose(b, -b.T, atol=1e-15)
        # equivalently J^T g J = g
        j = m.J
        assert np.allclose(j.T @ m.g @ j, m.g, atol=1e-15)


def test_metric_is_symmetric_and_positive():
    pot = parse("-log(1-rsq)", 2)
    m = metric_from_potential(pot, [0.1, 0.2, -0.1, 0.15], 2)
    assert np.allclose(m.g, m.g.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(m.g) > 0)


def test_fs_metric_value_at_origin():
    # at z=0 the Fubini-Study potential log(1+|z|^2) gives g = I/2... no:
    # H = 2*I there, so g = I with our quarter normalisation. Check that,
    # and check the conformal factor at a nonzero point for n=1.
    pot = parse("log(1+absq(1))", 1)
    m0 = metric_from_potential(pot, [0.0, 0.0], 1)
    assert np.allclose(m0.g, np.eye(2), atol=1e-15)
    r2 = 0.3**2 + 0.4**2
    m1 = metric_from_potential(pot, [0.3, 0.4], 1)
    assert np.allclose(m1.g, np.eye(2) / (1 + r2) ** 2, atol=1e-14)


def test_metric_derivatives_match_finite_differences():
    pot = parse("log(1+rsq)", 2)
    base = np.array([0.2, -0.3, 0.4, 0.1])

    def g_at(p):
        return metric_from_potential(pot, p, 2, depth=0).g

    def dg_at(p):
        return metric_from_potential(pot, p, 2, depth=1).dg

    def ddg_at(p):
        return metric_from_potential(pot, p, 2, depth=2).ddg

    m = metric_from_potential(pot, base, 2)
    ginv = np.linalg.inv(m.g)
    for c in range(4):
        fd = central_difference(g_at, base, c)
        assert rel_err(m.dg[c], fd) < 1e-9
        fd2 = central_difference(dg_at, base, c)
        assert rel_err(m.ddg[c], fd2) < 1e-8
        # t is twice the trace of d^3 g against G on the metric pair.
        fd3 = central_difference(ddg_at, base, c)
        assert rel_err(m.t[c], 2 * np.einsum("fhxy,xy->fh", fd3, ginv)) < 1e-7


def test_derivative_axes_are_symmetric():
    pot = parse("exp(absq(1)) + absq(2)^2", 2)
    m = metric_from_potential(pot, [0.3, 0.1, -0.2, 0.4], 2)
    assert np.allclose(m.ddg, np.swapaxes(m.ddg, 0, 1), atol=1e-15)
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(m.t, np.transpose(m.t, perm))


def test_depth_limits_populated_fields():
    pot = parse("absq(1)", 1)
    m0 = metric_from_potential(pot, [0.0, 0.0], 1, depth=0)
    assert m0.dg is None and m0.ddg is None and m0.t is None
    m1 = metric_from_potential(pot, [0.0, 0.0], 1, depth=1)
    assert m1.dg is not None and m1.ddg is None
    m2 = metric_from_potential(pot, [0.0, 0.0], 1, depth=2)
    assert m2.ddg is not None and m2.t is None
    with pytest.raises(ValueError, match="depth"):
        metric_from_potential(pot, [0.0, 0.0], 1, depth=4)


def test_point_shape_validation():
    pot = parse("absq(1)", 1)
    with pytest.raises(ValueError, match="length 2n"):
        metric_from_potential(pot, [0.0, 0.0, 0.0], 1)


def test_non_positive_potential_raises():
    pot = parse("-absq(1)", 1)
    with pytest.raises(MetricError, match="smallest eigenvalue"):
        metric_from_potential(pot, [0.1, 0.1], 1)


def test_hyperbolic_potential_outside_ball_raises():
    pot = parse("-log(1-rsq)", 1)
    # inside the unit ball this is fine
    metric_from_potential(pot, [0.3, 0.2], 1)
    # a saddle-type potential on part of the chart
    saddle = parse("absq(1) + x1^3*10", 1)
    with pytest.raises(MetricError):
        metric_from_potential(saddle, [-2.0, 0.0], 1)


def test_fundamental_two_form_skew_and_compatible():
    pot = parse("log(1+rsq)", 2)
    m = metric_from_potential(pot, [0.2, 0.1, -0.3, 0.25], 2)
    omega = m.J.T @ m.g  # omega_ab = g(J d_a, d_b)
    assert np.allclose(omega, -omega.T, atol=1e-15)
    # omega(Ju, Jv) = omega(u, v)
    assert np.allclose(m.J.T @ omega @ m.J, omega, atol=1e-15)


def test_two_form_closed_on_zoo_potentials():
    sources = [
        ("absq(1)+absq(2)", 2),
        ("log(1+rsq)", 2),
        ("-log(1-rsq)", 2),
        ("log(1+absq(1)) + 2*log(1+absq(2))", 2),
        ("absq(1)+absq(2)+0.1*absq(1)*absq(2)", 2),
    ]
    rng = np.random.default_rng(11)
    for source, n in sources:
        points = rng.uniform(-0.3, 0.3, size=(3, 2 * n))
        b = evidence_at(parse(source, n), points, n).bundle
        closed = kahler_checks_matmul(b.metric, b.gamma)["kahler_form_closed"]
        assert np.all(closed < 1e-13), source


def test_standard_complex_structure_squares_to_minus_identity():
    for n in (1, 2, 3):
        j = standard_complex_structure(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))


def test_metric_over_points_matches_each_point():
    pot = parse("log(1+rsq) + 0.1*x1^3*y2", 2)
    points = np.random.default_rng(3).uniform(-0.5, 0.5, size=(9, 4))
    stacked = metric_from_potential(pot, points, 2)
    assert np.array_equal(stacked.point, points)
    for i, point in enumerate(points):
        alone = metric_from_potential(pot, point, 2)
        for field in ("g", "dg", "ddg", "t"):
            assert np.array_equal(getattr(stacked, field)[i], getattr(alone, field)), field
    # A depth-1 jet (order 3) gives the g and dg of the order-5 one.
    shallow = metric_from_potential(pot, points, 2, depth=1)
    assert np.array_equal(shallow.g, stacked.g) and np.array_equal(shallow.dg, stacked.dg)
    b = evidence_at(pot, points, 2).bundle
    closed = kahler_checks_matmul(b.metric, b.gamma)["kahler_form_closed"]
    assert closed.shape == (9,)
    singles = [metric_from_potential(pot, p, 2, depth=1) for p in points]
    assert closed.tolist() == [kahler_checks_matmul(m, christoffel(m)[0])["kahler_form_closed"]
                               for m in singles]


def test_metric_error_names_the_first_indefinite_point():
    saddle = parse("absq(1) + x1^3*10", 1)
    points = np.array([[0.5, 0.0], [-2.0, 0.0], [-3.0, 0.0]])
    with pytest.raises(MetricError) as stacked:
        metric_from_potential(saddle, points, 1)
    with pytest.raises(MetricError) as alone:
        metric_from_potential(saddle, points[1], 1)
    assert "[-2.0, 0.0]" in str(stacked.value)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairing_gather_matches_block_oracle(n):
    # Bit for bit, -0.0 included: the zero B of rsq pairs to -0.0 below
    # the diagonal.
    points = np.random.default_rng(30 + n).uniform(-0.4, 0.4, size=(3, 2 * n))
    for source in ("rsq", f"log(1+rsq) + 0.1*x1*y{n}*absq(1) + 0.05*y1^3*x{n}"):
        pot = parse(source, n)
        m = metric_from_potential(pot, points, n)
        jet = eval_jet(pot, points, 5)
        for degree, got in zip(range(2, 5), (m.g, m.dg, m.ddg)):
            want = pair_second_partials(partials(jet, degree), n)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (source, degree)
        # The traces of d^3 g against G that dS takes, over the slot pairs
        # (x, y), (h, x) and (f, h) of dddg[e,f,h,x,y], all come from t.
        dddg, ginv = dddg_oracle(jet, n), np.linalg.inv(m.g)
        tjj = m.J.T @ m.t @ m.J
        for subscripts, want in (("pefhxy,pxy->pefh", m.t / 2),
                                 ("pefhxy,phx->pefy", m.t / 4),
                                 ("pefhxy,pfh->pexy", (m.t + tjj) / 4)):
            got = np.einsum(subscripts, dddg, ginv)
            assert rel_err(got, want) <= 1e-14, (source, subscripts)
        if source == "rsq":
            assert np.signbit(m.g[m.g == 0.0]).any()


def _j_conjugate_by_blocks(t: np.ndarray, n: int) -> np.ndarray:
    """J^T t J on the last two axes, from the half blocks: [[YY, -YX], [-XY, XX]]."""
    xx, xy = t[..., :n, :n], t[..., :n, n:]
    yx, yy = t[..., n:, :n], t[..., n:, n:]
    return np.concatenate([np.concatenate([yy, -yx], axis=-1),
                           np.concatenate([-xy, xx], axis=-1)], axis=-2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairing_is_j_invariant_bit_for_bit(n, monkeypatch):
    """J^T g J = g holds by construction of the pairing, for g, dg and ddg
    alike and for zeros of either sign.  So the metric is Hermitian
    without a check, and the pipeline makes none."""
    space = jet_space(2 * n, 5)
    rng = np.random.default_rng(70 + n)
    coeffs = rng.standard_normal((6, space.size))
    degrees = np.array([sum(mono) for mono in monomials_of(space)])
    coeffs[:, degrees == 2] *= 0.01
    for k in range(2 * n):  # a dominant rsq keeps g positive definite
        coeffs[:, position_of(space)[tuple(2 * (i == k) for i in range(2 * n))]] = 1.0
    coeffs[::2, 3::4] = 0.0
    coeffs[1::2, 2::3] = -0.0
    jet = JetScalar(space, coeffs)
    monkeypatch.setattr(metrics, "eval_jet", lambda potential, point, order: jet)
    m = metric_from_potential(None, np.zeros((6, 2 * n)), n)
    assert np.signbit(m.g[m.g == 0.0]).any() and not np.signbit(m.g[m.g == 0.0]).all()
    for field in (m.g, m.dg, m.ddg):
        assert np.array_equal(_j_conjugate_by_blocks(field, n).view(np.uint64),
                              field.view(np.uint64))


@pytest.mark.parametrize("nvars", range(1, 9))
def test_trace_table_matches_the_permutation_loop(nvars):
    space = jet_space(nvars, 5)
    table, expand = metrics._trace_table(space)
    assert expand.shape == (nvars,) * 3
    for got, want in zip((table, expand), trace_table_loop(space)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
