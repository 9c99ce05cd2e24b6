"""Command-line interface.

Subcommands: classify, verify-identities, experiment (rotation |
transport), zoo list.  Exit codes: 0 run completed, 1 input error,
2 metric not positive definite at a sampled point (the potential is not
Kahler there), 3 internal lattice/route inconsistency.

Targets name either a built-in zoo fixture or a manifest file path; an
exact fixture name wins when both exist.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .classifier import (
    LatticeError,
    SamplePlan,
    direction_samples,
    plane_samples,
    sample_points,
)
from .curvature import curvature_bundle
from .metrics import NotPositiveDefinite, metric_from_potential
from .runner import run
from .symmetry_tensors import (
    DEFAULT_EPS_LADDER,
    DEFAULT_H_LADDER,
    rotation_experiment,
    transport_experiment,
)
from .zoo import ManifestError, ManifoldSpec, load_spec, zoo

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_KAHLER = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; 2 is reserved for metrics
    # that are not positive definite here, so input problems are remapped
    # to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _resolve_target(target: str) -> ManifoldSpec:
    fixtures = zoo()
    if target in fixtures:
        return fixtures[target]
    if os.path.exists(target):
        return load_spec(target)
    raise ManifestError(
        f"{target!r} is neither a zoo fixture ({', '.join(fixtures)}) "
        f"nor an existing manifest file"
    )


def _plan_from_args(args) -> SamplePlan:
    return SamplePlan(
        points=args.points,
        directions=args.dirs,
        planes=args.planes,
        seed=args.seed,
        tolerance=args.tol,
    )


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", help="zoo fixture name or manifest file path")
    p.add_argument("--points", type=int, default=25, help="sample points (default 25)")
    p.add_argument("--dirs", type=int, default=20, help="directions per point (default 20)")
    p.add_argument("--planes", type=int, default=20, help="planes per point (default 20)")
    p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-7,
                   help="per-criterion relative tolerance (default 1e-7)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")


def _write_json(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err.strerror}") from None


def _cmd_run(args) -> int:
    """classify, or verify-identities (the same run without the ladder)."""
    spec = _resolve_target(args.target)
    report = run(spec, _plan_from_args(args),
                 with_classification=args.command == "classify")
    sys.stdout.write(report.human_summary())
    if args.json:
        _write_json(args.json, report.to_json())
        sys.stdout.write(f"report written to {args.json}\n")
    if not report.identities_passed:
        name, value = report.worst_identity()
        sys.stderr.write(f"identity check over gate: {name} = {value:.3e}\n")
        return EXIT_INCONSISTENT
    if report.verdict is not None and report.verdict.any_route_mismatch:
        sys.stderr.write(
            "route mismatch: direct and holomorphic-plane routes disagree\n"
        )
        return EXIT_INCONSISTENT
    return EXIT_OK


def _orthonormal_pair(g, first, second):
    x = first / np.sqrt(first @ g @ first)
    y = second - (x @ g @ second) * x
    y = y / np.sqrt(y @ g @ y)
    return x, y


def _cmd_experiment(args) -> int:
    spec = _resolve_target(args.target)
    potential = spec.potential()
    plan = SamplePlan(seed=args.seed)
    point = sample_points(spec.domain, plan)[0]
    m = 2 * spec.n
    bundle = curvature_bundle(metric_from_potential(potential, point, spec.n))
    dirs = direction_samples(plan, 0, m)
    planes = plane_samples(plan, 0, m)
    v = dirs[0]

    if args.kind == "rotation":
        ladder = tuple(args.eps) if args.eps else DEFAULT_EPS_LADDER
        x, y = _orthonormal_pair(bundle.metric.g, planes[0], planes[1])
        result = rotation_experiment(
            bundle.metric.g, bundle.ricci, bundle.metric.J, v, x, y, ladder=ladder
        )
    else:
        ladder = tuple(args.h) if args.h else DEFAULT_H_LADDER
        result = transport_experiment(
            potential, spec.n, point, v, 0, 1, ladder=ladder,
            steps=args.steps, bundle=bundle,
        )

    lines = [
        f"{args.kind} experiment on {spec.name} at {point.tolist()}",
        f"ladder:    {list(result.ladder)}",
        f"defects:   {[f'{d:.6e}' for d in result.defects]}",
        f"measured:  {result.measured:.9e}   predicted: {result.predicted:.9e}",
        f"abs error: {result.abs_error:.3e}   rel error: {result.rel_error:.3e}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.json:
        payload = {"experiment": args.kind, "fixture": spec.name, "point": point.tolist()}
        for key in ("ladder", "defects", "measured", "predicted", "abs_error", "rel_error"):
            payload[key] = getattr(result, key)
        _write_json(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        sys.stdout.write(f"report written to {args.json}\n")
    return EXIT_OK


def _cmd_zoo(args) -> int:
    fixtures = zoo()
    name_w = max(len(name) for name in fixtures)
    for spec in fixtures.values():
        domain = ", ".join(f"[{lo:g},{hi:g}]" for lo, hi in spec.domain)
        expected = spec.expected_class or "-"
        sys.stdout.write(
            f"{spec.name:<{name_w}}  n={spec.n}  expected={expected:<16}  "
            f"K = {spec.potential_source}   domain {domain}\n"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kahlersym",
                     description="Kahler symmetry-ladder classification engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="place a manifold on the symmetry ladder")
    _add_sampling_flags(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("verify-identities",
                       help="run only the tensor-identity suite")
    _add_sampling_flags(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("experiment",
                       help="physical cross-checks of the symmetry tensors")
    p.add_argument("kind", choices=("rotation", "transport"))
    p.add_argument("target", help="zoo fixture name or manifest file path")
    p.add_argument("--eps", type=float, nargs="+", default=None,
                   help="rotation parameter ladder")
    p.add_argument("--h", type=float, nargs="+", default=None,
                   help="transport loop-size ladder")
    p.add_argument("--steps", type=int, default=32,
                   help="integrator steps per loop edge (default 32)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("zoo", help="inspect the built-in fixtures")
    p.add_argument("action", choices=("list",))
    p.set_defaults(handler=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotPositiveDefinite as err:
        sys.stderr.write(f"not Kahler: {err}\n")
        return EXIT_NOT_KAHLER
    except ValueError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT
    except LatticeError as err:
        sys.stderr.write(f"internal inconsistency: {err}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    raise SystemExit(main())
