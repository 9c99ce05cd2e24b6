"""Wedge endomorphisms (the test oracle), symmetry checks, polarisation."""

import dataclasses

import numpy as np
import pytest

from kahlersym.classifier import SamplePlan, _scales, sample_evidence
from kahlersym.runner import identity_checks
from kahlersym.zoo import ManifoldSpec
from kahlersym.tensor_algebra import (
    ABS_FLOOR,
    check_rs_symmetries,
    j_conjugate_last_pair,
    j_invariance_violation,
    max_norm,
    rel_violation,
    standard_complex_structure,
)
from kahlersym.symmetry_tensors import _endo_family_dot_bilinear

from helpers import (
    ReconstructionError,
    identity_j_checks_matmul,
    j_first_pair,
    j_last_pair,
    j_skew_einsum,
    j_skew_last_pair,
    kahler_checks_matmul,
    on_first_pair,
    reconstruct_from_holomorphic,
    rel_violation_oracle,
    rs_symmetries_matmul,
    symmetrize_rs,
    wedge_g_matrix,
)


def random_hermitian_spd(rng, n):
    """Random positive-definite metric with J^T g J = g."""
    m = 2 * n
    a = rng.normal(size=(m, m))
    h = a @ a.T + m * np.eye(m)
    j = standard_complex_structure(n)
    return 0.5 * (h + j.T @ h @ j), j


def test_wedge_g_flat_basis_action():
    g = np.eye(4)
    e = np.eye(4)
    # (e1 ^ e2) z = g(e2, z) e1 - g(e1, z) e2
    w = wedge_g_matrix(g, e[0], e[1])
    assert np.array_equal(w @ e[0], -e[1])
    assert np.array_equal(w @ e[1], e[0])
    assert np.array_equal(w @ e[2], np.zeros(4))


def test_wedge_g_skew_adjoint():
    rng = np.random.default_rng(3)
    g, _ = random_hermitian_spd(rng, 2)
    x, y = rng.normal(size=4), rng.normal(size=4)
    w = wedge_g_matrix(g, x, y)
    assert np.allclose(g @ w, -(g @ w).T, atol=1e-12)
    # hence it annihilates g as a derivation: -g(w., .) - g(., w.) = 0
    assert max_norm(w.T @ g + g @ w) < 1e-12


def test_endo_dot_bilinear_loop_oracle():
    """The derivation action (A . S)(u, v) = -S(Au, v) - S(u, Av) for one
    endomorphism, as a family with one-element plane axes."""
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    s = rng.normal(size=(4, 4))
    s = s + s.T
    out = _endo_family_dot_bilinear(a[:, :, None, None], s)[:, :, 0, 0]
    e = np.eye(4)
    for i in range(4):
        for k in range(4):
            expect = -(a @ e[i]) @ s @ e[k] - e[i] @ s @ (a @ e[k])
            assert out[i, k] == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_j_skew_matches_einsum_reference(n):
    # J is a signed permutation, so the einsum form of t J + J^T t sums a
    # single nonzero product per entry: its violation equals the one read
    # off the half blocks, bit for bit.
    t = np.random.default_rng(40 + n).standard_normal((3,) + (2 * n,) * 4)
    scale = max_norm(t, 4)
    first, last = j_skew_einsum(t, standard_complex_structure(n))
    for skew, first_pair in ((first, True), (last, False)):
        assert np.array_equal(j_invariance_violation(t, scale, 4, first_pair),
                              rel_violation_oracle(skew, scale, 4))


def _bits(value):
    return np.asarray(value, float).view(np.uint64)


def _tensors(n, seed):
    """Three stacked (0,4)-tensors without symmetry, one point of which lies
    in the R.S class (its violations sit at roundoff or 0), with zeros of
    both signs."""
    j = standard_complex_structure(n)
    t = np.random.default_rng(seed).standard_normal((3,) + (2 * n,) * 4)
    t[1] = symmetrize_rs(t[1], j)
    t[2, ::2, 1::3] = 0.0
    t[2, 1::2, ::3] = -0.0
    return t, j


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_half_block_checks_match_the_matmul_oracle(n):
    """Each J check reads half blocks where the oracle multiplies by J: the
    violations agree bit for bit, and J-skewness equals J-invariance per
    pair in the oracle too, so j_pair_invariance covers both."""
    t, j = _tensors(n, 50 + n)
    scale = np.maximum(np.array([0.0, 1e-3, 2.0]), max_norm(t, 4))
    got = check_rs_symmetries(t, scale)
    want = rs_symmetries_matmul(t, j, scale)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(_bits(got[key]), _bits(want[key])), key
    for first, op in ((True, j_first_pair), (False, j_last_pair)):
        skew_pair = on_first_pair(j_skew_last_pair, t, j) if first else j_skew_last_pair(t, j)
        skew = rel_violation_oracle(skew_pair, scale, 4)
        invariance = rel_violation_oracle(t - op(t, j), scale, 4)
        assert np.array_equal(_bits(skew), _bits(invariance))
        assert np.array_equal(_bits(j_invariance_violation(t, scale, 4, first)),
                              _bits(invariance))
    q = t[::-1].copy()
    assert np.array_equal(
        _bits(rel_violation_oracle(t - q - j_conjugate_last_pair(q), scale, 4)),
        _bits(rel_violation_oracle(t - q - j_last_pair(q, j), scale, 4)))
    s = t[:, :, :, 0, 1]
    for got, want in ((j_invariance_violation(s, scale, 2),
                       rel_violation_oracle(j.T @ s @ j - s, scale, 2)),
                      (j_invariance_violation(s, scale, 2),
                       rel_violation_oracle(j.T @ s + s @ j, scale, 2))):
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_suite_j_checks_match_the_matmul_oracle(n):
    """The identity suite's J checks on evidence whose R.S, Qc, Riemann
    and Ricci tensors, dg, dS and Christoffel symbols are replaced by
    tensors without symmetry; the matmul oracle of the Kahler conditions
    that the suite leaves to the tests sees all three break."""
    spec = ManifoldSpec("witness", n, "log(1+rsq) + 0.1*x1*absq(1)", ((-0.5, 0.5),) * (2 * n))
    data = sample_evidence(spec, SamplePlan(points=3, directions=4, planes=4, seed=1))
    rng = np.random.default_rng(80 + n)
    shape = data.rs.shape
    b = data.bundle
    bundle = dataclasses.replace(
        b, r04=rng.standard_normal(shape), ricci=rng.standard_normal(shape[:3]),
        dricci=rng.standard_normal(shape[:4]),
        metric=dataclasses.replace(b.metric, dg=rng.standard_normal(shape[:4])),
        connection=dataclasses.replace(b.connection, gamma=rng.standard_normal(shape[:4])))
    rs, qc = _tensors(n, 90 + n)[0], rng.standard_normal(shape)
    data = dataclasses.replace(data, bundle=bundle, rs=rs, qc=qc,
                               scales=_scales(bundle, rs, qc))
    got = identity_checks(data)
    for key, want in identity_j_checks_matmul(data, spec.potential()).items():
        assert np.array_equal(_bits(got[key]), _bits(want)), key
    assert min(got[key][0] for key in ("rs_j_pair_invariance", "qc_j_pair_invariance",
                                       "kahler_j_invariance")) > 1e-3
    kahler = kahler_checks_matmul(bundle.metric, bundle.connection.gamma, bundle.dricci,
                                  data.scales["S"])
    assert min(values[0] for values in kahler.values()) > 1e-3


def test_rel_violation_floor():
    assert rel_violation(np.zeros(3), 0.0) == 0.0
    assert rel_violation(np.full(3, 1e-14), 0.0) == pytest.approx(1.0)
    assert rel_violation(np.full(3, 0.5), 2.0) == 0.25


def test_j_invariance_violation_detects_a_non_hermitian_metric():
    n = 2
    g, _ = random_hermitian_spd(np.random.default_rng(4), n)
    assert j_invariance_violation(g, max_norm(g), 2) < 1e-14
    bad = g.copy()
    bad[0, 0] += 0.5
    assert j_invariance_violation(bad, max_norm(bad), 2) > 1e-3


def _worst(violations):
    return max(float(np.max(v)) for v in violations.values())


def test_symmetrize_is_projection():
    rng = np.random.default_rng(21)
    j = standard_complex_structure(2)
    t = rng.normal(size=(4, 4, 4, 4))
    sym = symmetrize_rs(t, j)
    violations = check_rs_symmetries(sym, max_norm(sym, 4))
    assert _worst(violations) <= 1e-9, violations
    twice = symmetrize_rs(sym, j)
    assert np.allclose(twice, sym, atol=1e-12)


def test_check_rs_symmetries_flags_each_violation():
    rng = np.random.default_rng(22)
    j = standard_complex_structure(2)
    base = symmetrize_rs(rng.normal(size=(4, 4, 4, 4)), j)
    bump = np.zeros_like(base)
    bump[0, 1, 2, 3] = max_norm(base)
    violations = check_rs_symmetries(base + bump, max_norm(base + bump, 4))
    assert _worst(violations) > 0.1


def test_check_rs_symmetries_scale_parameter():
    """Roundoff tensors pass when judged against the scale they came from."""
    rng = np.random.default_rng(23)
    j = standard_complex_structure(2)
    noise = 1e-16 * rng.normal(size=(4, 4, 4, 4))
    own = check_rs_symmetries(noise, max_norm(noise, 4))
    assert _worst(own) > 1e-3  # relative to its own tiny norm
    scaled = check_rs_symmetries(noise, 1.0)
    assert _worst(scaled) < 1e-12


def test_rs_scale_is_at_least_the_norm_and_the_bound(fixtures, small_plan):
    """The scale "R.S" that check_rs_symmetries judges R.S by is never below
    the tensor's own norm |R.S|, nor below 2m |R13| |S|, at any zoo point,
    nor below the norm of a stand-in for R.S far above that bound."""
    for spec in fixtures.values():
        data = sample_evidence(spec, small_plan)
        b = data.bundle
        bound = 2 * (2 * spec.n) * max_norm(b.r13, 4) * max_norm(b.ricci, 2)
        for rs in (data.rs, data.rs + 1e3 * (1.0 + bound)[:, None, None, None, None]):
            sc = _scales(b, rs, data.qc)
            assert np.all(sc["R.S"] >= max_norm(rs, 4)), spec.name
            assert np.all(sc["R.S"] >= sc["|R.S|"]), spec.name
            assert np.all(sc["R.S"] >= bound), spec.name


def _holo_evaluator(t, j):
    def ev(u, x):
        return float(np.einsum("ijab,i,j,a,b->", t, u, u, x, j @ x))

    return ev


def test_reconstruct_round_trip():
    rng = np.random.default_rng(31)
    j = standard_complex_structure(2)
    t = symmetrize_rs(rng.normal(size=(4, 4, 4, 4)), j)
    rebuilt = reconstruct_from_holomorphic(_holo_evaluator(t, j), j)
    assert np.allclose(rebuilt, t, atol=1e-10)


def test_reconstruct_round_trip_n1():
    rng = np.random.default_rng(32)
    j = standard_complex_structure(1)
    t = symmetrize_rs(rng.normal(size=(2, 2, 2, 2)), j)
    rebuilt = reconstruct_from_holomorphic(_holo_evaluator(t, j), j)
    assert np.allclose(rebuilt, t, atol=1e-12)


def test_reconstruct_rejects_inconsistent_evaluator():
    rng = np.random.default_rng(33)
    j = standard_complex_structure(2)
    t = symmetrize_rs(rng.normal(size=(4, 4, 4, 4)), j)
    ev = _holo_evaluator(t, j)

    def corrupted(u, x):
        # quartic asymmetry that no symmetry-class tensor reproduces
        return ev(u, x) + 0.05 * float(u[0] ** 2 * x[1] ** 4)

    with pytest.raises(ReconstructionError, match="max violation"):
        reconstruct_from_holomorphic(corrupted, j)


def test_reconstruct_validate_flag_skips_check():
    rng = np.random.default_rng(34)
    j = standard_complex_structure(2)
    t = symmetrize_rs(rng.normal(size=(4, 4, 4, 4)), j)
    ev = _holo_evaluator(t, j)

    def corrupted(u, x):
        return ev(u, x) + 0.05 * float(u[0] ** 2 * x[1] ** 4)

    out = reconstruct_from_holomorphic(corrupted, j, validate=False)
    assert out.shape == t.shape


def test_noise_stability_constant():
    """Polarisation noise amplification stays below the documented bound."""
    rng = np.random.default_rng(35)
    j = standard_complex_structure(2)
    t = symmetrize_rs(rng.normal(size=(4, 4, 4, 4)), j)
    eps = 1e-9
    ev = _holo_evaluator(t, j)

    def noisy(u, x):
        return ev(u, x) + eps * float(rng.uniform(-1.0, 1.0))

    rebuilt = reconstruct_from_holomorphic(noisy, j, validate=False)
    assert max_norm(rebuilt - t) < 16 * eps


def test_floor_constant_positive():
    assert 0 < ABS_FLOOR < 1e-10
