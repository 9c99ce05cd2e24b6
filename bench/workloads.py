"""The benchmark's workloads: inputs made from the seed, the calls of one
pass, and the check each call's output must pass.

Every function of kahlersym is looked up through its module at call time
(``runner.run``, ``curvature.curvature_bundle``, ...), so the wrappers the
traced run installs on those module attributes see every call.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from kahlersym import classifier, curvature, metrics, runner, symmetry_tensors
from kahlersym.cli import _orthonormal_pair

# ``kahlersym.zoo`` as a package attribute is the re-exported zoo() function,
# which shadows the module of the same name.
zoo_module = importlib.import_module("kahlersym.zoo")

ROTATION_REL_GATE = 1e-3  # acceptance criterion 8, perturbed fixture
ROTATION_ABS_GATE = 1e-8  # acceptance criterion 8, Einstein fixture
TRANSPORT_DEFECT_GATE = 1e-3  # acceptance criterion 9, vector defect
LAMBDA_REL_GATE = 1e-9
# The CLI's default experiment settings, pinned so the work per pass stays
# fixed if the defaults change.
EPS_LADDER = (1e-2, 5e-3, 2.5e-3)
H_LADDER = (0.02, 0.01)
TRANSPORT_STEPS = 32


@dataclass
class Call:
    """One timed call: ``run`` does the work, ``check`` returns the problems
    found in its output and ``digest`` a fingerprint that must not change
    between passes of the same inputs."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]


@dataclass
class Workload:
    calls: list[Call]
    points_per_pass: int  # nominal chart points one pass works on


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- classify workloads ----------------------------------------------------------


def _classify_call(spec, plan, expected_lambda: float | None = None) -> Call:
    def run():
        report = runner.run(spec, plan)
        return report, report.to_json()

    def check(out) -> list[str]:
        report, _ = out
        problems = []
        if not report.identities_passed:
            name, value = report.worst_identity()
            problems.append(f"identity {name} = {value:.3e} over its gate")
        verdict = report.verdict
        if verdict.any_route_mismatch:
            problems.append("route mismatch")
        if verdict.classification != spec.expected_class:
            problems.append(
                f"classified {verdict.classification}, expected {spec.expected_class}"
            )
        if expected_lambda is not None:
            rel = abs(verdict.lambda_hat - expected_lambda) / abs(expected_lambda)
            if rel > LAMBDA_REL_GATE:
                problems.append(
                    f"lambda_hat {verdict.lambda_hat!r} is {rel:.2e} from {expected_lambda}"
                )
        return problems

    return Call(f"classify:{spec.name}", run, check, lambda out: _sha(out[1]))


def dense_points(seed: int) -> Workload:
    spec = zoo_module.zoo()["product_cp1_cp1_unequal"]
    plan = classifier.SamplePlan(points=400, seed=seed)
    return Workload([_classify_call(spec, plan)], plan.points)


def high_dim(seed: int) -> Workload:
    plan = classifier.SamplePlan(seed=seed)
    calls = []
    for n in (3, 4):
        spec = zoo_module.ManifoldSpec(
            f"fs_cp{n}", n, "log(1+rsq)", ((-1.2, 1.2),) * (2 * n), "einstein"
        )
        calls.append(_classify_call(spec, plan, expected_lambda=2.0 * (n + 1)))
    return Workload(calls, len(calls) * plan.points)


# -- experiments workload --------------------------------------------------------


def _experiment_digest(result) -> str:
    return _sha(repr((result.measured, result.predicted, result.defects)))


def _experiment_calls(spec, seed: int) -> list[Call]:
    """Rotation then transport at the point ``kahlersym experiment`` uses.

    The rotation call builds the curvature bundle at the base point and the
    transport call reuses it, as the CLI does.
    """
    plan = classifier.SamplePlan(seed=seed)
    point = classifier.sample_points(spec.domain, plan)[0]
    m = 2 * spec.n
    v = classifier.direction_samples(plan, 0, m)[0]
    planes = classifier.plane_samples(plan, 0, m)
    shared = {}

    def rotation():
        potential = spec.potential()
        bundle = curvature.curvature_bundle(
            metrics.metric_from_potential(potential, point, spec.n)
        )
        shared["potential"], shared["bundle"] = potential, bundle
        x, y = _orthonormal_pair(bundle.metric.g, planes[0], planes[1])
        return symmetry_tensors.rotation_experiment(
            bundle.metric.g, bundle.ricci, bundle.metric.J, v, x, y,
            ladder=EPS_LADDER,
        )

    def check_rotation(result) -> list[str]:
        if spec.expected_class == "einstein":
            if not abs(result.measured) <= ROTATION_ABS_GATE:
                return [f"rotation slope {result.measured:.3e} on an Einstein metric"]
            return []
        if not (abs(result.predicted) > ROTATION_ABS_GATE
                and result.rel_error <= ROTATION_REL_GATE):
            return [f"rotation rel error {result.rel_error:.3e}"]
        return []

    def transport():
        return symmetry_tensors.transport_experiment(
            shared["potential"], spec.n, point, v, 0, 1,
            ladder=H_LADDER, steps=TRANSPORT_STEPS, bundle=shared["bundle"],
        )

    def check_transport(result) -> list[str]:
        # Linear Richardson extrapolation of the defect vectors (v - v_h)/h^2
        # to h = 0, against the R contraction.  rel_error is not gated: on an
        # Einstein metric its predicted value is 0.
        (h0, h1) = result.ladder
        d0, d1 = (np.array(d) for d in result.details["vector_defects"])
        extrapolated = (h0 * d1 - h1 * d0) / (h0 - h1)
        predicted = np.array(result.details["vector_predicted"])
        err = float(np.max(np.abs(extrapolated - predicted)) / np.max(np.abs(predicted)))
        if not err <= TRANSPORT_DEFECT_GATE:
            return [f"transport vector defect {err:.3e}"]
        return []

    return [
        Call(f"rotation:{spec.name}", rotation, check_rotation, _experiment_digest),
        Call(f"transport:{spec.name}", transport, check_transport, _experiment_digest),
    ]


def experiments(seed: int) -> Workload:
    fixtures = zoo_module.zoo()
    calls = []
    for name in ("fs_cp2", "perturbed_flat"):
        calls.extend(_experiment_calls(fixtures[name], seed))
    # Per fixture: ladder sizes x 4 loop edges x steps x 3 RK4 stage points,
    # plus the base point of the curvature bundle.
    per_fixture = len(H_LADDER) * 4 * TRANSPORT_STEPS * 3 + 1
    return Workload(calls, 2 * per_fixture)


WORKLOADS = {
    "dense_points": dense_points,
    "high_dim": high_dim,
    "experiments": experiments,
}
