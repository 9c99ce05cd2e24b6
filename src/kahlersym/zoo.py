"""Built-in manifold fixtures and the plain-text manifest format.

A manifest is a flat key = value file (one pair per line, # comments):

    name = round_cp2
    n = 2
    potential = log(1+rsq)
    domain = -1.2 1.2, -1.2 1.2, -1.2 1.2, -1.2 1.2
    expected_class = einstein

``domain`` lists one "lo hi" interval per real coordinate (2n of them,
separated by commas), or a single interval applied to every coordinate.
``expected_class`` is optional: one of ricci_flat, einstein,
ricci_parallel, ricci_semisymmetric, holo_ricci_pseudosymmetric, none.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .expressions import Expr, parse

LADDER_CLASSES = (
    "ricci_flat",
    "einstein",
    "ricci_parallel",
    "ricci_semisymmetric",
    "holo_ricci_pseudosymmetric",
)
_CLASS_NAMES = LADDER_CLASSES + ("none",)


class ManifestError(ValueError):
    """A manifest file could not be understood."""


@dataclass(frozen=True)
class ManifoldSpec:
    """A chart-domain Kahler manifold given by a potential."""

    name: str
    n: int
    potential_source: str
    domain: tuple[tuple[float, float], ...]
    expected_class: str | None = None

    def potential(self) -> Expr:
        """The parsed potential: one immutable tree, shared by every call."""
        return parse(self.potential_source, self.n)


def _validated(spec: ManifoldSpec) -> ManifoldSpec:
    if spec.n < 1:
        raise ManifestError(f"n must be at least 1, got {spec.n}")
    if len(spec.domain) != 2 * spec.n:
        raise ManifestError(
            f"domain needs {2 * spec.n} intervals for n = {spec.n}, "
            f"got {len(spec.domain)}"
        )
    for lo, hi in spec.domain:
        if not lo < hi:
            raise ManifestError(f"empty domain interval [{lo}, {hi}]")
        if not math.isfinite(hi - lo):  # an infinite bound, or a width that overflows
            raise ManifestError(f"domain interval [{lo}, {hi}] is not of finite width")
    if spec.expected_class is not None and spec.expected_class not in _CLASS_NAMES:
        raise ManifestError(f"unknown expected_class {spec.expected_class!r}")
    try:
        spec.potential()
    except ValueError as err:
        raise ManifestError(f"invalid potential: {err}")
    return spec


def zoo() -> dict[str, ManifoldSpec]:
    """The built-in fixtures, keyed by name."""
    entries = [
        ManifoldSpec("flat_c2", 2, "absq(1)+absq(2)",
                     ((-2.0, 2.0),) * 4, "ricci_flat"),
        ManifoldSpec("fs_cp1", 1, "log(1+absq(1))",
                     ((-1.5, 1.5),) * 2, "einstein"),
        ManifoldSpec("fs_cp2", 2, "log(1+rsq)",
                     ((-1.2, 1.2),) * 4, "einstein"),
        ManifoldSpec("hyperbolic_ball_2", 2, "-log(1-rsq)",
                     ((-0.45, 0.45),) * 4, "einstein"),
        ManifoldSpec("product_cp1_cp1_unequal", 2,
                     "log(1+absq(1)) + 2*log(1+absq(2))",
                     ((-1.5, 1.5),) * 4, "ricci_parallel"),
        ManifoldSpec("perturbed_flat", 2,
                     "absq(1)+absq(2)+0.1*absq(1)*absq(2)",
                     ((-1.0, 1.0),) * 4, "none"),
    ]
    return {spec.name: _validated(spec) for spec in entries}


def load_spec(path: str) -> ManifoldSpec:
    """Read a manifest file; raises ManifestError with actionable messages."""
    if not os.path.exists(path):
        raise ManifestError(f"manifest file not found: {path}")
    fields: dict[str, str] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read manifest {path}: {err.strerror}") from None
    with fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise ManifestError(
                f"cannot read manifest {path}: not UTF-8 text ({err.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ManifestError(f"{path}:{lineno}: expected `key = value`")
        if key in fields:
            raise ManifestError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value

    for required in ("name", "n", "potential", "domain"):
        if required not in fields:
            raise ManifestError(f"{path}: missing required key {required!r}")
    known = {"name", "n", "potential", "domain", "expected_class"}
    for key in fields:
        if key not in known:
            raise ManifestError(f"{path}: unknown key {key!r}")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ManifestError(f"{path}: n must be an integer, got {fields['n']!r}")
    domain = _parse_domain(fields["domain"], n, path)
    return _validated(
        ManifoldSpec(fields["name"], n, fields["potential"], domain,
                     fields.get("expected_class"))
    )


def _parse_domain(text: str, n: int, path: str) -> tuple[tuple[float, float], ...]:
    chunks = [chunk.strip() for chunk in text.split(",")]
    intervals = []
    for chunk in chunks:
        parts = chunk.split()
        if len(parts) != 2:
            raise ManifestError(
                f"{path}: each domain interval needs two numbers, and intervals "
                f"are separated by commas; got {chunk!r}"
            )
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError:
            raise ManifestError(f"{path}: bad domain number in {chunk!r}")
        intervals.append((lo, hi))
    if len(intervals) == 1:
        intervals = intervals * (2 * n)
    return tuple(intervals)
