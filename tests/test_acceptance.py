"""Acceptance gate: the eleven binding criteria, one test (and one
pass/fail line) each.

Every test prints `criterion NN [PASS|FAIL] summary` so a plain pytest -v
run shows the gate at a glance.  Tolerances here are frozen; loosening
them is a spec change, not a bug fix.
"""

import json

import numpy as np
import pytest

from kahlersym.classifier import (
    FAIL,
    PASS,
    SamplePlan,
    direction_samples,
    plane_samples,
    sample_evidence,
    sample_points,
)
from kahlersym.cli import _orthonormal_pair, main
from kahlersym.curvature import curvature_bundle, parallel_transport
from kahlersym.expressions import eval_jet
from kahlersym.jets import JetScalar, jet_space
from kahlersym.metrics import metric_from_potential
from kahlersym.symmetry_tensors import (
    _extrapolate_to_zero,
    parallelogram_loop,
    quad_eval,
    r_dot_s,
    rotation_experiment,
    tachibana_ricci,
    transport_experiment,
)
from kahlersym.tensor_algebra import max_norm

from helpers import (
    brute_r_dot_s,
    brute_tachibana,
    central_difference,
    dddg_oracle,
    gauss_curvature_conformal,
    holomorphic_sectional,
    multi_index_entry,
    partials,
    poly_eval,
    poly_partial,
    random_poly,
    reconstruct_from_holomorphic,
    rel_err,
    sectional,
)

EINSTEIN_OR_ABOVE = ("flat_c2", "fs_cp1", "fs_cp2", "hyperbolic_ball_2")

# Identity checks that are pure slot algebra on already-computed tensors;
# these sit at machine precision and get a tighter gate here.
ALGEBRAIC_IDENTITIES = frozenset(
    {
        "tachibana_holomorphic_double",
        "holomorphic_first_slot_zero",
        "rs_sym_first_pair",
        "rs_antisym_last_pair",
        "rs_j_pair_invariance",
        "qc_sym_first_pair",
        "qc_antisym_last_pair",
        "qc_j_pair_invariance",
    }
)


def _criterion(num: int, ok: bool, summary: str) -> None:
    state = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{state}] {summary}"
    print(line)
    assert ok, line


def test_criterion_01_identity_suite(full_reports):
    """Identity suite < 1e-8 everywhere, algebraic identities < 1e-12."""
    worst_all = 0.0
    worst_alg = 0.0
    ok = True
    for name, report in full_reports.items():
        assert report.plan.points == 25
        for check, value in report.identities.items():
            worst_all = max(worst_all, value)
            if value > 1e-8:
                ok = False
            if check in ALGEBRAIC_IDENTITIES:
                worst_alg = max(worst_alg, value)
                if value > 1e-12:
                    ok = False
    _criterion(
        1, ok,
        f"identity suite worst {worst_all:.2e} (gate 1e-08), "
        f"algebraic worst {worst_alg:.2e} (gate 1e-12)",
    )


def test_criterion_02_einstein_characterization(full_reports):
    """Both Einstein routes agree per fixture, with the expected split."""
    expectations = {
        "flat_c2": PASS,
        "fs_cp1": PASS,
        "fs_cp2": PASS,
        "hyperbolic_ball_2": PASS,
        "product_cp1_cp1_unequal": FAIL,
        "perturbed_flat": FAIL,
    }
    ok = True
    for name, report in full_reports.items():
        c = report.verdict.einstein
        if c.route_mismatch or c.status != expectations[name]:
            ok = False
    _criterion(2, ok, "einstein routes agree on all six fixtures, "
                      "3+1 pass / 2 fail split as required")


def test_criterion_03_ricci_parallel_characterization(full_reports):
    """Routes agree; product passes, perturbed fails, margins >= 10x."""
    tol = full_reports["fs_cp2"].plan.tolerance
    ok = all(
        not report.verdict.ricci_parallel.route_mismatch
        for report in full_reports.values()
    )
    passing = full_reports["product_cp1_cp1_unequal"].verdict.ricci_parallel
    failing = full_reports["perturbed_flat"].verdict.ricci_parallel
    ok &= passing.status == PASS
    ok &= passing.direct <= tol / 10 and passing.characterization <= tol / 10
    ok &= failing.status == FAIL
    ok &= failing.direct >= 10 * tol and failing.characterization >= 10 * tol
    _criterion(
        3, ok,
        f"parallel routes agree; product passes at {passing.direct:.1e}, "
        f"perturbed fails at {failing.direct:.1e} (tol {tol:.0e}, margin 10x)",
    )


def test_criterion_04_semisymmetric_characterization(full_reports):
    """Routes agree; perturbed fails route B by a 10x margin."""
    tol = full_reports["fs_cp2"].plan.tolerance
    ok = all(
        not report.verdict.ricci_semisymmetric.route_mismatch
        for report in full_reports.values()
    )
    failing = full_reports["perturbed_flat"].verdict.ricci_semisymmetric
    ok &= failing.status == FAIL
    ok &= failing.characterization >= 10 * tol
    for name in ("flat_c2", "fs_cp1", "fs_cp2", "hyperbolic_ball_2",
                 "product_cp1_cp1_unequal"):
        ok &= full_reports[name].verdict.ricci_semisymmetric.status == PASS
    _criterion(
        4, ok,
        f"semisymmetry routes agree; perturbed route B violation "
        f"{failing.characterization:.1e} >= 10x tol",
    )


def test_criterion_05_polarization_round_trip(fixtures):
    """Reconstruct R.S and Qc from holomorphic-plane samples to 1e-9."""
    plan = SamplePlan(points=10, directions=4, planes=4, seed=0)
    worst = 0.0
    for name in ("fs_cp2", "product_cp1_cp1_unequal", "perturbed_flat"):
        data = sample_evidence(fixtures[name], plan)
        j = data.bundle.metric.J
        for rs, qc, scale_rs, scale_qc in zip(data.rs, data.qc, data.scales["R.S"],
                                              data.scales["Qc"]):
            for tensor, scale in ((rs, scale_rs), (qc, scale_qc)):
                def ev(u, x, t=tensor):
                    return float(np.einsum("ijab,i,j,a,b->", t, u, u, x, j @ x))

                rebuilt = reconstruct_from_holomorphic(ev, j, validate=False)
                err = max_norm(rebuilt - tensor) / max(max_norm(tensor), scale)
                worst = max(worst, err)
    _criterion(5, worst <= 1e-9,
               f"polarization round trip worst {worst:.2e} (gate 1e-09) "
               f"over 10 points x 2 tensors x 3 fixtures")


def test_criterion_06_fubini_study_constants(fixtures, full_reports):
    """Constant holomorphic curvature, the Einstein-constant relation, and
    the n=1 conformal oracle."""
    report = full_reports["fs_cp2"]
    spec = fixtures["fs_cp2"]
    values = []
    for i, point in enumerate(report.points):
        b = curvature_bundle(metric_from_potential(spec.potential(), point, 2))
        for v in direction_samples(report.plan, i, 4):
            values.append(holomorphic_sectional(b.r04, b.metric.g, b.metric.J, v))
    values = np.array(values)
    assert values.shape == (500,)
    spread = (values.max() - values.min()) / abs(values.mean())
    c_hat = float(values.mean())
    lambda_hat = report.verdict.lambda_hat
    relation = abs(lambda_hat - (c_hat / 2.0) * 3.0) / abs(lambda_hat)

    cp1 = fixtures["fs_cp1"]
    pts1 = sample_points(cp1.domain, SamplePlan(points=5, directions=2, planes=2, seed=0))
    oracle_err = 0.0
    for p in pts1:
        b = curvature_bundle(metric_from_potential(cp1.potential(), p, 1))
        lib = sectional(b.r04, b.metric.g, [1.0, 0.0], [0.0, 1.0])
        oracle = gauss_curvature_conformal(cp1.potential(), p)
        oracle_err = max(oracle_err, abs(lib - oracle) / abs(oracle))

    ok = spread < 1e-8 and relation < 1e-8 and oracle_err < 1e-8
    _criterion(
        6, ok,
        f"fs_cp2 hol-sec spread {spread:.2e}, lambda relation {relation:.2e}, "
        f"fs_cp1 conformal oracle {oracle_err:.2e} (gates 1e-08)",
    )


def test_criterion_07_deszcz_quotient(fixtures, full_reports):
    """Basis invariance, Einstein undefinedness, perturbed oracle match."""
    spec = fixtures["perturbed_flat"]
    point = np.array([0.5, -0.4, 0.3, 0.6])
    b = curvature_bundle(metric_from_potential(spec.potential(), point, 2))
    rs = r_dot_s(b)
    q = tachibana_ricci(b.metric.g, b.ricci)
    v = np.array([0.8, 0.3, -0.5, 0.2])
    x = np.array([1.0, 0.0, 0.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 0.0])
    base = quad_eval(rs, v, v, x, y) / quad_eval(q, v, v, x, y)

    rng = np.random.default_rng(77)
    invariance = 0.0
    draws = 0
    while draws < 100:
        alpha = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        mat = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(mat)) < 0.3:
            continue
        draws += 1
        vv = alpha * v
        xx = mat[0, 0] * x + mat[0, 1] * y
        yy = mat[1, 0] * x + mat[1, 1] * y
        val = quad_eval(rs, vv, vv, xx, yy) / quad_eval(q, vv, vv, xx, yy)
        invariance = max(invariance, abs(val - base) / abs(base))

    undefined_ok = True
    for name in EINSTEIN_OR_ABOVE:
        details = full_reports[name].verdict.holo_ricci_pseudosymmetric.details
        defined = sum(details["defined_samples"])
        attempted = sum(details["attempted_samples"])
        if defined != 0 or attempted < 500:
            undefined_ok = False

    oracle = quad_eval(brute_r_dot_s(b.r13, b.ricci), v, v, x, y) / quad_eval(
        brute_tachibana(b.metric.g, b.ricci), v, v, x, y
    )
    oracle_err = abs(base - oracle) / abs(oracle)

    ok = invariance <= 1e-12 and undefined_ok and oracle_err < 1e-10
    _criterion(
        7, ok,
        f"L basis-invariant to {invariance:.2e} over 100 rescalings; "
        f"0 defined samples on all Einstein fixtures (>=500 attempted); "
        f"perturbed oracle match {oracle_err:.2e}",
    )


def test_criterion_08_rotation_experiment(fixtures):
    """Rotation slope matches -Qc(v,v;x,y): 1e-3 rel (perturbed), 1e-8 abs
    (fs_cp2)."""
    plan = SamplePlan(seed=0)

    def probe(name):
        spec = fixtures[name]
        point = sample_points(spec.domain, plan)[0]
        b = curvature_bundle(metric_from_potential(spec.potential(), point, spec.n))
        g = b.metric.g
        dirs = direction_samples(plan, 0, 2 * spec.n)
        planes = plane_samples(plan, 0, 2 * spec.n)
        x, y = _orthonormal_pair(g, planes[0], planes[1])
        return rotation_experiment(g, b.ricci, b.metric.J, dirs[0], x, y)

    perturbed = probe("perturbed_flat")
    einstein = probe("fs_cp2")
    ok = (
        abs(perturbed.predicted) > 1e-8
        and perturbed.rel_error <= 1e-3
        and abs(einstein.measured) < 1e-8
    )
    _criterion(
        8, ok,
        f"perturbed rel error {perturbed.rel_error:.2e} (gate 1e-03); "
        f"fs_cp2 slope {abs(einstein.measured):.2e} (gate 1e-08 abs)",
    )


def test_criterion_09_transport_experiment(fixtures):
    """Holonomy angle vs K*area, norm preservation, defect vs curvature."""
    spec = fixtures["fs_cp1"]
    potential = spec.potential()
    point = np.array([0.3, -0.2])
    b = curvature_bundle(metric_from_potential(potential, point, 1))
    g, j = b.metric.g, b.metric.J
    k = sectional(b.r04, g, [1.0, 0.0], [0.0, 1.0])
    area_factor = float(np.sqrt(np.linalg.det(g)))
    v = np.array([0.7, 0.4])
    f1 = v / np.sqrt(v @ g @ v)
    f2 = j @ f1

    ladder = (0.02, 0.01)
    coeffs = []
    for h in ladder:
        vh = parallel_transport(
            potential, 1, parallelogram_loop(point, 0, 1, h), v, steps=48
        )
        theta = float(np.arctan2(f2 @ g @ vh, f1 @ g @ vh))
        coeffs.append(theta / h**2)
    measured = _extrapolate_to_zero(ladder, coeffs)
    predicted = k * area_factor
    angle_err = abs(measured - predicted) / abs(predicted)

    vh = parallel_transport(
        potential, 1, parallelogram_loop(point, 0, 1, 0.2), v, steps=64
    )
    norm_drift = abs(np.sqrt(vh @ g @ vh) - np.sqrt(v @ g @ v)) / np.sqrt(v @ g @ v)

    result = transport_experiment(
        potential, 1, point, v, 0, 1, ladder=ladder, steps=48, bundle=b
    )
    d_coarse = np.array(result.details["vector_defects"][0])
    d_fine = np.array(result.details["vector_defects"][1])
    richardson = 2.0 * d_fine - d_coarse
    predicted_vec = np.array(result.details["vector_predicted"])
    defect_err = float(
        np.max(np.abs(richardson - predicted_vec)) / np.max(np.abs(predicted_vec))
    )

    ok = angle_err <= 5e-2 and norm_drift <= 1e-9 and defect_err <= 1e-3
    _criterion(
        9, ok,
        f"holonomy angle vs K*area {angle_err:.2e} (gate 5e-02); "
        f"norm drift {norm_drift:.2e} (gate 1e-09); "
        f"defect vs R contraction {defect_err:.2e} (gate 1e-03)",
    )


def test_criterion_10_differentiation_integrity(fixtures):
    """Metric jets vs central differences; exact polynomial jets."""
    plan = SamplePlan(points=2, directions=2, planes=2, seed=0)
    worst_fd = 0.0
    for spec in fixtures.values():
        potential = spec.potential()
        n = spec.n

        def g_at(p):
            return metric_from_potential(potential, p, n, depth=0).g

        def dg_at(p):
            return metric_from_potential(potential, p, n, depth=1).dg

        def ddg_at(p):
            return metric_from_potential(potential, p, n, depth=2).ddg

        for point in sample_points(spec.domain, plan):
            m = metric_from_potential(potential, point, n, depth=3)
            ginv = np.linalg.inv(m.g)
            dddg = dddg_oracle(eval_jet(potential, point, 5), n)
            for axis in range(2 * n):
                dddg_fd = central_difference(ddg_at, point, axis)
                worst_fd = max(
                    worst_fd,
                    rel_err(m.dg[axis], central_difference(g_at, point, axis)),
                    rel_err(m.ddg[axis], central_difference(dg_at, point, axis)),
                    # t is twice the trace of d^3 g against G on the metric pair.
                    rel_err(m.t[axis], 2 * np.einsum("fhxy,xy->fh", dddg_fd, ginv)),
                    rel_err(dddg[axis], dddg_fd),
                )

    rng = np.random.default_rng(2024)
    worst_poly = 0.0
    for _ in range(10):
        nvars = int(rng.integers(2, 5))
        poly = random_poly(rng, nvars, degree=5)
        point = rng.uniform(-1.0, 1.0, size=nvars)
        space = jet_space(nvars, 5)
        jet = JetScalar.constant(space, 0.0)
        for alpha, coeff in poly.items():
            term = JetScalar.constant(space, coeff)
            for axis, power in enumerate(alpha):
                for _ in range(power):
                    term = term * JetScalar.variable(space, axis, point[axis])
            jet = jet + term
        for alpha in space.monomials:
            expect = poly_eval(poly_partial(poly, alpha), point)
            got = partials(jet, sum(alpha))[multi_index_entry(alpha)]
            worst_poly = max(
                worst_poly, abs(got - expect) / max(abs(expect), 1.0)
            )

    ok = worst_fd <= 1e-5 and worst_poly <= 1e-12
    _criterion(
        10, ok,
        f"metric jets vs finite differences {worst_fd:.2e} (gate 1e-05); "
        f"degree-5 polynomial jets off by {worst_poly:.2e} (gate 1e-12)",
    )


def test_criterion_11_deterministic_reports(fixtures, tmp_path, capsys):
    """Two identically seeded classify runs emit byte-identical JSON."""
    ok = True
    for name in fixtures:
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        assert main(["classify", name, "--json", str(a)]) == 0
        assert main(["classify", name, "--json", str(b)]) == 0
        blob_a = a.read_bytes()
        if blob_a != b.read_bytes():
            ok = False
        json.loads(blob_a)  # well-formed
    capsys.readouterr()
    _criterion(11, ok, "classify JSON byte-identical across reruns on all "
                       "six fixtures at the default plan")
