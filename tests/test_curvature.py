"""Connection and curvature against closed forms and finite differences."""

import itertools
import os

import numpy as np
import pytest

from kahlersym.classifier import SamplePlan, sample_points
from kahlersym.curvature import (
    christoffel,
    curvature_bundle,
    nabla_ricci,
    parallel_transport,
    ricci,
    riemann,
)
from kahlersym.expressions import eval_jet, parse
from kahlersym.metrics import metric_from_potential
from kahlersym.symmetry_tensors import parallelogram_loop
from kahlersym.tensor_algebra import max_norm, standard_complex_structure
from kahlersym.zoo import ManifoldSpec, load_spec, zoo

from helpers import (
    DegeneratePlane,
    central_difference,
    christoffel_einsum,
    dddg_oracle,
    dricci_einsum,
    gauss_curvature_conformal,
    hand_metric,
    holomorphic_sectional,
    pair_second_partials,
    parallel_transport_stagewise,
    rel_err,
    ricci_from_log_det,
    riemann_einsum,
    sectional,
)

FS1 = parse("log(1+absq(1))", 1)
FS2 = parse("log(1+rsq)", 2)
HYP2 = parse("-log(1-rsq)", 2)
FLAT2 = parse("absq(1)+absq(2)", 2)
PERT2 = parse("absq(1)+absq(2)+0.1*absq(1)*absq(2)", 2)
# n = 3 without U(3) symmetry: every Christoffel and curvature slot differs.
GEN3 = parse("rsq + 0.2*absq(1)*absq(2) + 0.1*absq(3)^2 + 0.05*x1*x2*y3", 3)
GEN3_BASE = np.array([0.2, -0.1, 0.3, 0.15, -0.25, 0.1])
GEN4 = parse("rsq + absq(1)*absq(4) + 0.5*absq(3)^2 + 0.3*x2*y3*y4", 4)
GEN4_BASE = np.array([0.2, -0.1, 0.3, 0.15, -0.25, 0.1, 0.05, -0.2])


def bundle(pot, point, n):
    return curvature_bundle(metric_from_potential(pot, point, n))


def rng_points(n, count, lo, hi, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(count, 2 * n))


def test_flat_curvature_exactly_zero():
    b = bundle(FLAT2, [0.4, -1.3, 0.2, 0.9], 2)
    assert np.array_equal(b.connection.gamma, np.zeros((4, 4, 4)))
    assert np.array_equal(b.r04, np.zeros((4, 4, 4, 4)))
    assert np.array_equal(b.ricci, np.zeros((4, 4)))
    assert np.array_equal(b.nabla_ricci, np.zeros((4, 4, 4)))
    assert b.scal == 0.0


def test_fs_cp1_constant_holomorphic_curvature():
    """Round sphere from log(1+|z|^2): K = +4, S = 4g, Scal = 8."""
    for point in rng_points(1, 6, -1.2, 1.2, 101):
        b = bundle(FS1, point, 1)
        g, j = b.metric.g, b.metric.J
        v = np.array([0.7, -0.4])
        k = holomorphic_sectional(b.r04, g, j, v)
        assert k == pytest.approx(4.0, rel=1e-10)
        assert np.allclose(b.ricci, 4.0 * g, atol=1e-10 * max_norm(g))
        assert b.scal == pytest.approx(8.0, rel=1e-10)
        assert max_norm(b.nabla_ricci) < 1e-10


def test_fs_cp1_matches_conformal_gauss_oracle():
    """Sectional curvature agrees with an independent conformal-factor
    finite-difference computation of the Gauss curvature."""
    for point in rng_points(1, 5, -0.9, 0.9, 103):
        b = bundle(FS1, point, 1)
        lib = sectional(b.r04, b.metric.g, [1.0, 0.0], [0.0, 1.0])
        oracle = gauss_curvature_conformal(FS1, point)
        assert rel_err(lib, oracle) < 1e-6


def test_hyperbolic_n1_negative_curvature_oracle():
    pot = parse("-log(1-absq(1))", 1)
    for point in rng_points(1, 4, -0.4, 0.4, 104):
        b = bundle(pot, point, 1)
        lib = sectional(b.r04, b.metric.g, [1.0, 0.0], [0.0, 1.0])
        oracle = gauss_curvature_conformal(pot, point)
        assert rel_err(lib, oracle) < 1e-6
        assert lib < 0


def test_fs_cp2_einstein_constant():
    for point in rng_points(2, 5, -1.0, 1.0, 105):
        b = bundle(FS2, point, 2)
        assert np.allclose(b.ricci, 6.0 * b.metric.g, atol=1e-9)
        assert b.scal == pytest.approx(24.0, rel=1e-9)


def test_fs_cp2_holomorphic_pinching():
    """Holomorphic planes have curvature 4; totally real planes land in
    [1, 4] for the quarter-pinched round metric."""
    rng = np.random.default_rng(106)
    for point in rng_points(2, 4, -0.8, 0.8, 107):
        b = bundle(FS2, point, 2)
        g, j = b.metric.g, b.metric.J
        v = rng.normal(size=4)
        assert holomorphic_sectional(b.r04, g, j, v) == pytest.approx(4.0, rel=1e-9)
        ks = []
        for _ in range(12):
            x, y = rng.normal(size=4), rng.normal(size=4)
            ks.append(sectional(b.r04, g, x, y))
        assert min(ks) > 1.0 - 1e-9
        assert max(ks) < 4.0 + 1e-9


def test_hyperbolic_ball_einstein_constant():
    for point in rng_points(2, 5, -0.35, 0.35, 108):
        b = bundle(HYP2, point, 2)
        assert np.allclose(b.ricci, -6.0 * b.metric.g, atol=1e-9)
        v = np.random.default_rng(1).normal(size=4)
        assert holomorphic_sectional(b.r04, b.metric.g, b.metric.J, v) == pytest.approx(
            -4.0, rel=1e-9
        )


def test_product_ricci_blocks():
    pot = parse("log(1+absq(1)) + 2*log(1+absq(2))", 2)
    for point in rng_points(2, 4, -1.0, 1.0, 109):
        b = bundle(pot, point, 2)
        g = b.metric.g
        s = b.ricci
        # factor Ricci constants 4 and 2 against the block metrics
        for idx in (0, 2):
            assert s[idx, idx] == pytest.approx(4.0 * g[idx, idx], rel=1e-9)
        for idx in (1, 3):
            assert s[idx, idx] == pytest.approx(2.0 * g[idx, idx], rel=1e-9)
        assert max_norm(b.nabla_ricci) < 1e-9 * max_norm(s)


def test_christoffel_against_metric_differences():
    base = np.array([0.25, -0.3, 0.15, 0.4])

    def g_at(p):
        return metric_from_potential(PERT2, p, 2, depth=0).g

    m = metric_from_potential(PERT2, base, 2)
    conn = christoffel(m)
    g = m.g
    dg_fd = np.stack([central_difference(g_at, base, c) for c in range(4)])
    t = np.einsum("adb->dab", dg_fd) + np.einsum("bda->dab", dg_fd) - dg_fd
    gamma_fd = 0.5 * np.einsum("cd,dab->cab", np.linalg.inv(g), t)
    assert rel_err(conn.gamma, gamma_fd) < 1e-8


def test_christoffel_derivatives_against_differences():
    for pot, n, base in ((FS2, 2, np.array([0.2, 0.1, -0.25, 0.3])),
                         (GEN3, 3, GEN3_BASE)):

        def gamma_at(p):
            return christoffel(metric_from_potential(pot, p, n, depth=1)).gamma

        def dgamma_at(p):
            return christoffel(metric_from_potential(pot, p, n, depth=2)).dgamma

        m = metric_from_potential(pot, base, n)
        conn = christoffel(m)
        ddgamma = christoffel_einsum(m, dddg_oracle(eval_jet(pot, base, 5), n))[2]
        for c in range(2 * n):
            assert rel_err(conn.dgamma[c], central_difference(gamma_at, base, c)) < 1e-8
            assert rel_err(ddgamma[c], central_difference(dgamma_at, base, c)) < 1e-7


def test_riemann_symmetries_and_bianchi():
    for pot, n, box in ((FS2, 2, 1.0), (HYP2, 2, 0.35), (PERT2, 2, 0.9)):
        for point in rng_points(n, 3, -box, box, 110):
            b = bundle(pot, point, n)
            r = b.r04
            scale = max_norm(r)
            assert max_norm(r + np.swapaxes(r, 0, 1)) < 1e-12 * scale
            assert max_norm(r + np.swapaxes(r, 2, 3)) < 1e-12 * scale
            assert max_norm(r - np.transpose(r, (2, 3, 0, 1))) < 1e-12 * scale
            cyclic = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
            assert max_norm(cyclic) < 1e-12 * scale
            # J-invariance of the curvature operator
            j = b.metric.J
            rot = np.einsum("ma,nb,mncd->abcd", j, j, r)
            assert max_norm(rot - r) < 1e-11 * scale


def test_ricci_trace_consistency():
    b = bundle(PERT2, [0.3, -0.2, 0.45, 0.1], 2)
    ginv = np.linalg.inv(b.metric.g)
    via_r04 = np.einsum("ad,abcd->bc", ginv, b.r04)
    assert rel_err(b.ricci, via_r04) < 1e-12
    assert np.allclose(b.ricci, b.ricci.T, atol=1e-12 * max_norm(b.ricci))
    assert ricci(b.r13) is not b.ricci or True  # ricci() reproduces the field
    assert rel_err(ricci(b.r13), b.ricci) == 0.0


def test_nabla_ricci_against_differences():
    for pot, n, base in ((PERT2, 2, np.array([0.2, -0.35, 0.1, 0.3])),
                         (GEN3, 3, GEN3_BASE), (GEN4, 4, GEN4_BASE)):

        def s_at(p):
            m = metric_from_potential(pot, p, n, depth=2)
            r13, _ = riemann(m, christoffel(m))
            return ricci(r13)

        b = bundle(pot, base, n)
        for c in range(2 * n):
            fd = central_difference(s_at, base, c)
            assert rel_err(b.dricci[c], fd) < 1e-7
        # covariant correction applied on top of the component derivative
        gamma = b.connection.gamma
        expected = b.dricci - np.einsum("mca,mb->cab", gamma, b.ricci) - np.einsum(
            "mcb,am->cab", gamma, b.ricci
        )
        assert rel_err(b.nabla_ricci, expected) == 0.0


def test_second_bianchi_contracted():
    """div S = d(scal)/2, a nontrivial consistency check of dricci."""
    for pot, n, base in ((PERT2, 2, np.array([0.15, -0.2, 0.35, 0.25])),
                         (GEN3, 3, GEN3_BASE)):
        b = bundle(pot, base, n)
        ginv = np.linalg.inv(b.metric.g)
        div_s = np.einsum("ab,acb->c", ginv, b.nabla_ricci)

        def scal_at(p):
            return np.array([bundle(pot, p, n).scal])

        for c in range(2 * n):
            dscal = central_difference(scal_at, base, c)[0]
            assert div_s[c] == pytest.approx(0.5 * dscal, rel=1e-6, abs=1e-8)


def test_sectional_rejects_degenerate_plane():
    b = bundle(FS2, [0.1, 0.2, 0.3, 0.4], 2)
    v = np.array([1.0, 2.0, -1.0, 0.5])
    with pytest.raises(DegeneratePlane):
        sectional(b.r04, b.metric.g, v, 3.0 * v)


def test_transport_preserves_norm_and_flat_identity():
    # flat space: transport along any polyline is the identity
    v0 = np.array([0.3, -1.2, 0.7, 0.4])
    path = [
        np.array([0.0, 0.0, 0.0, 0.0]),
        np.array([0.5, 0.2, -0.3, 0.1]),
        np.array([0.1, -0.4, 0.2, 0.6]),
    ]
    out = parallel_transport(FLAT2, 2, path, v0)
    # Gamma is exactly 0, so every step matrix is exactly I.
    assert np.array_equal(out, v0)

    # curved space: g-norm is preserved to solver accuracy
    sq = [
        np.array([0.1, 0.2, -0.1, 0.3]),
        np.array([0.4, 0.2, -0.1, 0.3]),
        np.array([0.4, 0.5, -0.1, 0.3]),
        np.array([0.1, 0.5, -0.1, 0.3]),
        np.array([0.1, 0.2, -0.1, 0.3]),
    ]
    g0 = metric_from_potential(FS2, sq[0], 2, depth=0).g
    moved = parallel_transport(FS2, 2, sq, v0, steps=48)
    assert np.sqrt(moved @ g0 @ moved) == pytest.approx(np.sqrt(v0 @ g0 @ v0), rel=1e-10)


def test_transport_input_validation():
    with pytest.raises(ValueError, match="at least two"):
        parallel_transport(FLAT2, 2, [np.zeros(4)], np.ones(4))
    with pytest.raises(ValueError, match="steps"):
        parallel_transport(FLAT2, 2, [np.zeros(4), np.ones(4)], np.ones(4), steps=0)
    ragged = [parallelogram_loop(np.zeros(4), 0, 1, 0.02), [np.zeros(4), np.ones(4)]]
    with pytest.raises(ValueError, match="equal lengths"):
        parallel_transport(FLAT2, 2, ragged, np.ones(4))


def test_bundle_requires_depth_three():
    m = metric_from_potential(FS2, [0.1, 0.2, 0.3, 0.4], 2, depth=2)
    with pytest.raises(ValueError, match="depth-3"):
        curvature_bundle(m)
    shallow = metric_from_potential(FS2, [0.1, 0.2, 0.3, 0.4], 2, depth=0)
    with pytest.raises(ValueError, match="at least one derivative"):
        christoffel(shallow)


@pytest.mark.parametrize("source", ["log(1+rsq)", "exp(x1)", "sqrt(1+rsq)", "1/(1+rsq)",
                                    "x1*y2"])
def test_an_empty_stack_of_points_gives_empty_arrays(source):
    tree = parse(source, 2)
    empty = np.zeros((0, 4))
    jet = eval_jet(tree, empty, 5)
    assert jet.coeffs.shape == (0, jet.space.size)
    assert jet.support == eval_jet(tree, np.full((1, 4), 0.3), 5).support
    for depth in (1, 3):
        m = metric_from_potential(tree, empty, 2, depth=depth)
        assert m.g.shape == m.G.shape == (0, 4, 4) and m.dg.shape == (0, 4, 4, 4)
    assert christoffel(metric_from_potential(tree, empty, 2, depth=1)).gamma.shape == (0, 4, 4, 4)
    b = curvature_bundle(metric_from_potential(tree, empty, 2))
    assert b.r13.shape == b.r04.shape == (0, 4, 4, 4, 4)
    assert b.nabla_ricci.shape == (0, 4, 4, 4) and np.shape(b.scal) == (0,)


def test_bundle_over_points_matches_each_point():
    # The bundle keeps gamma alone; d(gamma) is checked on christoffel of
    # the same stacked jet.
    points = rng_points(2, 6, -0.4, 0.4, seed=11)
    jet = metric_from_potential(PERT2, points, 2)
    stacked = curvature_bundle(jet)
    assert stacked.scal.shape == (6,)
    connection = christoffel(jet)
    for i, point in enumerate(points):
        alone = bundle(PERT2, point, 2)
        for field in ("r13", "r04", "ricci", "dricci", "nabla_ricci", "scal", "norm_dgamma"):
            assert np.array_equal(getattr(stacked, field)[i], getattr(alone, field)), field
        assert np.array_equal(stacked.connection.gamma[i], alone.connection.gamma)
        alone_connection = christoffel(metric_from_potential(PERT2, point, 2))
        for field in ("gamma", "dgamma"):
            assert np.array_equal(getattr(connection, field)[i],
                                  getattr(alone_connection, field)), field


def _random_jet_slot(rng, points, m, order):
    """A random order-``order`` metric derivative stacked over points,
    symmetric in its derivative slots and in its metric pair, as jets are."""
    t = rng.standard_normal((points,) + (m,) * (order + 2))
    t = sum(np.transpose(t, (0, *(1 + p for p in perm), order + 1, order + 2))
            for perm in itertools.permutations(range(order)))
    return t + np.swapaxes(t, -1, -2)


def _random_partials(rng, points, m, degree):
    """Random fully symmetric partials of one order, stacked over points."""
    p = rng.standard_normal((points,) + (m,) * degree)
    return sum(np.transpose(p, (0, *(1 + q for q in perm)))
               for perm in itertools.permutations(range(degree)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_match_einsum_references(n):
    # Random depth-3 jets stacked over 3 points: the batched matmuls of the
    # connection, the curvature and dS against their einsum forms.  As in
    # real jets, g is J-invariant and d^3 g is the pairing of fully
    # symmetric fifth partials p5, whose trace against G = g^-1 is t.  The
    # connection and curvature read a generic jet; dS, which is taken from
    # log det g, reads a Kahler one, whose dg and ddg are the pairings of
    # fully symmetric partials p3 and p4.
    rng = np.random.default_rng(20 + n)
    m = 2 * n
    j = standard_complex_structure(n)
    a = rng.standard_normal((3, m, m))
    g = np.swapaxes(a, 1, 2) @ a + m * np.eye(m)
    g = (g + j.T @ g @ j) / 2
    p5 = _random_partials(rng, 3, m, 5)
    t = np.einsum("pefhxy,pxy->pefh", p5, np.linalg.inv(g))
    point = rng.standard_normal((3, m))
    jet = hand_metric(point, n, g, *(_random_jet_slot(rng, 3, m, k) for k in (1, 2)), t)
    b = curvature_bundle(jet)
    conn = christoffel(jet)
    expected = christoffel_einsum(jet, pair_second_partials(p5, n))
    for got, want in zip((conn.gamma, conn.dgamma), expected):
        assert rel_err(got, want) <= 1e-13
    assert np.array_equal(b.connection.gamma, conn.gamma)
    r13, r04 = riemann_einsum(jet.g, conn.gamma, conn.dgamma)
    assert rel_err(b.r13, r13) <= 1e-13
    assert rel_err(b.r04, r04) <= 1e-13
    kahler = hand_metric(point, n, g, *(pair_second_partials(_random_partials(rng, 3, m, k), n)
                                        for k in (3, 4)), t)
    expected = christoffel_einsum(kahler, pair_second_partials(p5, n))
    assert rel_err(curvature_bundle(kahler).dricci, dricci_einsum(*expected)) <= 1e-13


# The zoo, two holomorphically Ricci-pseudosymmetric witnesses (n = 2 and
# n = 3), the semisymmetric witness and the curved Ricci-flat Eguchi-Hanson
# metric, whose S is roundoff.
LOG_DET_SPECS = {
    **zoo(),
    "exp_rsq": ManifoldSpec("exp_rsq", 2, "exp(rsq)", ((-0.5, 0.5),) * 4),
    "quartic_rsq": ManifoldSpec("quartic_rsq", 3, "rsq + 0.3*rsq^2", ((-0.5, 0.5),) * 6),
    "semisymmetric": ManifoldSpec("semisymmetric", 2,
                                  "log(1+absq(1)) + absq(2) + 0.2*absq(2)^2", ((-0.8, 0.8),) * 4),
    "eguchi_hanson": load_spec(os.path.join(os.path.dirname(__file__), "manifests",
                                            "eguchi_hanson.txt")),
}


@pytest.mark.parametrize("name", sorted(LOG_DET_SPECS))
def test_ricci_and_its_derivative_match_the_log_det_route(name):
    # S and dS from the Ricci potential log det g, by einsum.  S checks the
    # trace of riemann's r13; dS checks _ricci_derivative, which takes the
    # same route by batched matmuls.  Judged against the Ricci scale
    # max(|S|, m|R|), and for dS also against m|Gamma| times it.
    spec = LOG_DET_SPECS[name]
    points = sample_points(spec.domain, SamplePlan(points=8, seed=3))
    jet = metric_from_potential(spec.potential(), points, spec.n)
    s, ds = ricci_from_log_det(jet)
    b = curvature_bundle(jet)
    m = 2 * spec.n
    scale_s = np.maximum(max_norm(b.ricci, 2), m * max_norm(b.r13, 4))
    assert np.all(max_norm(s - b.ricci, 2) <= 1e-12 * scale_s)
    scale_ds = np.maximum(max_norm(b.dricci, 3),
                          m * max_norm(b.connection.gamma, 3) * scale_s)
    assert np.all(max_norm(ds - b.dricci, 3) <= 1e-10 * scale_ds)


def _closed_form_ricci(spec, points):
    """(S, dS) of a U(n)-invariant potential from the closed form of log det h
    in CLOSED_FORM_LOG_DET: S = -2 pairing(log det h), read off the metric
    of that potential and its first derivative."""
    expr, sign = CLOSED_FORM_LOG_DET[spec.name]
    closed = metric_from_potential(parse(expr, spec.n), points, spec.n, depth=1)
    return -2.0 * sign * closed.g, -2.0 * sign * closed.dg


# log det h = sign * expr, up to a constant, for K = f(rsq), where
# det h = f'^(n-1) (f' + rsq f''); expr is negated where its metric is not
# positive definite.
CLOSED_FORM_LOG_DET = {
    "fs_cp2": ("3*log(1+rsq)", -1.0),
    "hyperbolic_ball_2": ("-3*log(1-rsq)", 1.0),
    "fs_cp3": ("4*log(1+rsq)", -1.0),
    "exp_rsq": ("2*rsq + log(1+rsq)", 1.0),
    "steep_exp_rsq": ("600*rsq + log(1+300*rsq)", 1.0),
}
CLOSED_FORM_SPECS = {
    **{name: LOG_DET_SPECS[name] for name in ("fs_cp2", "hyperbolic_ball_2", "exp_rsq")},
    "fs_cp3": ManifoldSpec("fs_cp3", 3, "log(1+rsq)", ((-0.8, 0.8),) * 6),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_SPECS))
def test_ricci_and_its_derivatives_match_the_closed_form(name):
    # A third route for U(n)-invariant potentials, on the gates of the
    # log-det route: S, dS, and nabla S formed from the closed S and dS.
    spec = CLOSED_FORM_SPECS[name]
    points = sample_points(spec.domain, SamplePlan(points=8, seed=3))
    b = curvature_bundle(metric_from_potential(spec.potential(), points, spec.n))
    s, ds = _closed_form_ricci(spec, points)
    m = 2 * spec.n
    scale_s = np.maximum(max_norm(b.ricci, 2), m * max_norm(b.r13, 4))
    assert np.all(max_norm(s - b.ricci, 2) <= 1e-12 * scale_s)
    scale_ds = np.maximum(max_norm(b.dricci, 3),
                          m * max_norm(b.connection.gamma, 3) * scale_s)
    assert np.all(max_norm(ds - b.dricci, 3) <= 1e-10 * scale_ds)
    nabla_s = nabla_ricci(b.connection, s, ds)
    assert np.all(max_norm(nabla_s - b.nabla_ricci, 3) <= 1e-10 * scale_ds)


def test_steep_dricci_no_less_accurate_than_the_christoffel_route():
    # exp(300*rsq) near the edge of its float range: the K-jet's conditioning
    # costs both routes about 1e-7 of max|dS| against the closed form, and
    # the log det g route of the bundle must do no worse than the einsum
    # Christoffel route with the dense d^3 g.
    spec = ManifoldSpec("steep_exp_rsq", 2, "exp(300*rsq)", ((-0.76, 0.76),) * 4)
    points = sample_points(spec.domain, SamplePlan(points=40, seed=3))
    jet = metric_from_potential(spec.potential(), points, 2)
    _, ds = _closed_form_ricci(spec, points)
    christoffel_route = dricci_einsum(
        *christoffel_einsum(jet, dddg_oracle(eval_jet(spec.potential(), points, 5), 2)))
    assert max_norm(curvature_bundle(jet).dricci - ds) <= max_norm(christoffel_route - ds)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dricci_from_trace_matches_dense_oracle(n):
    # Potentials without symmetry: dS of the bundle, from log det g, against
    # the einsum Christoffel route, built from the dense d^3 g.
    pot = parse(f"log(1+rsq) + 0.1*x1*y{n}*absq(1) + 0.05*y1^3*x{n} + 0.07*x1^2*y1*x{n}^2", n)
    points = np.random.default_rng(40 + n).uniform(-0.4, 0.4, size=(4, 2 * n))
    m = metric_from_potential(pot, points, n)
    expected = christoffel_einsum(m, dddg_oracle(eval_jet(pot, points, 5), n))
    assert rel_err(curvature_bundle(m).dricci, dricci_einsum(*expected)) <= 1e-13


def assert_near_stagewise(moved, pot, loop, v, steps):
    """Step matrices against the vector RK4 oracle: the gap is roundoff,
    both of |v| and of the holonomy |v - v_h| the experiments read."""
    oracle = parallel_transport_stagewise(pot, 2, loop, v, steps=steps)
    gap = np.max(np.abs(moved - oracle))
    assert gap <= 1e-13 * np.max(np.abs(oracle))
    assert gap <= 1e-8 * np.max(np.abs(v - oracle))


def test_transport_matches_stage_by_stage_expansion():
    v0 = np.array([0.3, -1.2, 0.7, 0.4])
    square = [
        np.array([0.1, 0.2, -0.1, 0.3]),
        np.array([0.12, 0.2, -0.1, 0.3]),
        np.array([0.12, 0.22, -0.1, 0.3]),
        np.array([0.1, 0.22, -0.1, 0.3]),
        np.array([0.1, 0.2, -0.1, 0.3]),
    ]
    for pot, steps in ((FS2, 32), (PERT2, 7), (HYP2, 1)):
        got = parallel_transport(pot, 2, square, v0, steps=steps)
        # Stacked with another polyline, the square keeps its bits.
        stacked = parallel_transport(pot, 2, [square, square[::-1]], v0, steps=steps)
        assert np.array_equal(stacked[0], got)
        assert_near_stagewise(got, pot, square, v0, steps)


@pytest.mark.parametrize("steps", [1, 7, 32, 48])
def test_stacked_transport_matches_stage_by_stage_expansion(steps):
    # At 7 and 48 steps h is inexact: some k*h + h and (k+1)*h differ by
    # one ulp, and each keeps its own stage point.
    h = 1.0 / steps
    times = {t for k in range(steps) for t in (k * h, k * h + 0.5 * h, k * h + h)}
    assert (len(times) > 2 * steps + 1) == (steps in (7, 48))
    base = np.array([0.1, 0.2, -0.1, 0.3])
    loops = [parallelogram_loop(base, 0, 1, 0.02), parallelogram_loop(base, 3, 2, 0.01)]
    v0 = np.array([[0.3, -1.2, 0.7, 0.4], [-0.5, 0.1, 0.9, -0.2]])
    for pot in (FS2, PERT2, HYP2):
        got = parallel_transport(pot, 2, loops, v0, steps=steps)
        assert got.shape == (2, 4)
        for loop, v, moved in zip(loops, v0, got):
            assert np.array_equal(moved, parallel_transport(pot, 2, loop, v, steps=steps))
            assert_near_stagewise(moved, pot, loop, v, steps)
        # One vector for the whole stack is broadcast to every polyline.
        shared = parallel_transport(pot, 2, loops, v0[0], steps=steps)
        assert np.array_equal(shared[0], got[0])
