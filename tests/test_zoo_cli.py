"""Fixture zoo, manifest files, and the command-line front end."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from kahlersym import cli
from kahlersym.classifier import LatticeError, SamplePlan, sample_points
from kahlersym.cli import _plan_from_args, _resolve_target, build_parser, main
from kahlersym.zoo import LADDER_CLASSES, ManifestError, ManifoldSpec, load_spec, zoo

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SMALL_ARGS = ["--points", "4", "--dirs", "4", "--planes", "4", "--seed", "0"]

ZOO_NAMES = [
    "flat_c2",
    "fs_cp1",
    "fs_cp2",
    "hyperbolic_ball_2",
    "product_cp1_cp1_unequal",
    "perturbed_flat",
]


# -- fixtures and specs --------------------------------------------------------


def test_zoo_contents(fixtures):
    assert sorted(fixtures) == sorted(ZOO_NAMES)
    for name, spec in fixtures.items():
        assert spec.name == name
        assert len(spec.domain) == 2 * spec.n
        spec.potential()  # parses


def test_zoo_expected_classes(fixtures):
    assert fixtures["flat_c2"].expected_class == "ricci_flat"
    assert fixtures["fs_cp2"].expected_class == "einstein"
    assert fixtures["product_cp1_cp1_unequal"].expected_class == "ricci_parallel"
    assert fixtures["perturbed_flat"].expected_class == "none"
    for spec in fixtures.values():
        assert spec.expected_class in LADDER_CLASSES + ("none",)


def test_zoo_perturbation_knob():
    mild = zoo(0.05)["perturbed_flat"]
    assert "0.05" in mild.potential_source
    default = zoo()["perturbed_flat"]
    assert "0.1" in default.potential_source


def test_spec_validation_direct():
    from kahlersym.zoo import _validated

    with pytest.raises(ManifestError, match="at least 1"):
        _validated(ManifoldSpec("bad", 0, "1", ()))
    with pytest.raises(ManifestError, match="needs 4 intervals"):
        _validated(ManifoldSpec("bad", 2, "rsq", ((-1.0, 1.0),) * 3))
    with pytest.raises(ManifestError, match="empty domain"):
        _validated(ManifoldSpec("bad", 1, "absq(1)", ((1.0, 1.0), (-1.0, 1.0))))
    with pytest.raises(ManifestError, match="unknown expected_class"):
        _validated(ManifoldSpec("bad", 1, "absq(1)", ((-1.0, 1.0),) * 2, "shiny"))
    with pytest.raises(ManifestError, match="invalid potential"):
        _validated(ManifoldSpec("bad", 1, "absq(2)", ((-1.0, 1.0),) * 2))


# -- manifest files --------------------------------------------------------------


def write_manifest(tmp_path, text, name="m.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_manifest_round_trip(tmp_path, fixtures):
    reference = fixtures["flat_c2"]
    path = write_manifest(
        tmp_path,
        """
        # a flat chart
        name = flat_c2
        n = 2
        potential = absq(1)+absq(2)
        domain = -2 2
        expected_class = ricci_flat
        """,
    )
    spec = load_spec(path)
    assert spec.name == reference.name
    assert spec.n == reference.n
    assert spec.potential_source == reference.potential_source
    assert spec.domain == reference.domain
    assert spec.expected_class == reference.expected_class


def test_manifest_explicit_intervals(tmp_path):
    path = write_manifest(
        tmp_path,
        "name = box\nn = 1\npotential = absq(1)\ndomain = -1 1, -2 2\n",
    )
    spec = load_spec(path)
    assert spec.domain == ((-1.0, 1.0), (-2.0, 2.0))
    assert spec.expected_class is None


@pytest.mark.parametrize("n", [1, 2])
def test_manifest_domain_forms(tmp_path, n):
    """The two forms of docs/manifest-format.md: one interval for every
    coordinate, or 2n intervals separated by commas.  Intervals written
    with spaces alone are one interval of too many numbers."""
    head = f"name = box\nn = {n}\npotential = rsq\n"
    intervals = [(0.3 + k, 1.2 + k) for k in range(2 * n)]
    listed = ", ".join(f"{lo} {hi}" for lo, hi in intervals)
    assert load_spec(write_manifest(tmp_path, head + "domain = -1.5 1.5\n")).domain \
        == ((-1.5, 1.5),) * (2 * n)
    assert load_spec(write_manifest(tmp_path, head + f"domain = {listed}\n")).domain \
        == tuple(intervals)
    path = write_manifest(tmp_path, head + f"domain = {listed.replace(',', '')}\n")
    with pytest.raises(ManifestError, match="intervals are separated by commas"):
        load_spec(path)


def test_manifest_missing_file():
    with pytest.raises(ManifestError, match="not found"):
        load_spec("/nonexistent/manifest.txt")


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("n = 1\npotential = absq(1)\ndomain = -1 1\n", "missing required key 'name'"),
        ("name = a\npotential = absq(1)\ndomain = -1 1\n", "missing required key 'n'"),
        ("name = a\nn = 1\ndomain = -1 1\n", "missing required key 'potential'"),
        ("name = a\nn = 1\npotential = absq(1)\n", "missing required key 'domain'"),
        ("name = a\nn = one\npotential = absq(1)\ndomain = -1 1\n", "must be an integer"),
        ("name = a\nn = 0\npotential = 1\ndomain = -1 1\n", "at least 1"),
        ("name = a\nn = 2\npotential = absq(3)\ndomain = -1 1\n", "invalid potential"),
        ("name = a\nn = 1\npotential = absq(1)\ndomain = -1 1, 2 2\n", "empty domain"),
        ("name = a\nn = 1\npotential = absq(1)\ndomain = -1 1, -1 1, -1 1\n",
         "needs 2 intervals"),
        ("name = a\nn = 1\npotential = absq(1)\ndomain = -1\n", "two numbers"),
        ("name = a\nn = 1\npotential = absq(1)\ndomain = lo hi\n", "bad domain number"),
        ("name = a\nn = 1\npotential = absq(1)\ndomain = -1 1\ncolor = red\n",
         "unknown key 'color'"),
        ("name = a\nname = b\nn = 1\npotential = absq(1)\ndomain = -1 1\n",
         "duplicate key 'name'"),
        ("name = a\nn = 1\npotential = absq(1)\ndomain = -1 1\nexpected_class = tidy\n",
         "unknown expected_class"),
        ("just words\n", "expected `key = value`"),
        ("name =\nn = 1\npotential = absq(1)\ndomain = -1 1\n", "expected `key = value`"),
    ],
)
def test_manifest_errors(tmp_path, text, pattern):
    path = write_manifest(tmp_path, text)
    with pytest.raises(ManifestError, match=pattern):
        load_spec(path)


def test_manifest_error_carries_location(tmp_path):
    path = write_manifest(tmp_path, "name = a\nwhat is this\n")
    with pytest.raises(ManifestError, match=r"m\.txt:2:"):
        load_spec(path)


# -- target resolution ------------------------------------------------------------


def test_resolve_prefers_zoo_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fs_cp1").write_text("name = decoy\n", encoding="utf-8")
    spec = _resolve_target("fs_cp1", 0.1)
    assert spec.potential_source == "log(1+absq(1))"


def test_resolve_falls_back_to_manifest(tmp_path):
    path = write_manifest(tmp_path, "name = a\nn = 1\npotential = absq(1)\ndomain = -1 1\n")
    assert _resolve_target(path, 0.1).name == "a"


def test_resolve_unknown_target_lists_fixtures():
    with pytest.raises(ManifestError) as exc:
        _resolve_target("atlantis", 0.1)
    message = str(exc.value)
    assert "neither a zoo fixture" in message
    for name in ZOO_NAMES:
        assert name in message


# -- CLI ---------------------------------------------------------------------------


def test_cli_zoo_list(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    for name in ZOO_NAMES:
        assert name in out
    assert "log(1+rsq)" in out


def test_cli_classify_success(capsys):
    code = main(["classify", "fs_cp1", *SMALL_ARGS])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: einstein" in out
    assert "identities [ok]" in out


def test_readme_quick_start_matches_cli_output(capsys):
    """Each line of the README's quick-start block is a line the command
    prints, but for the elapsed time and the elided per-point list."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Quick start", 1)[1]
    command, *shown = re.search(r"```\n(.*?)```", section, re.S).group(1).splitlines()
    assert command.startswith("$ kahlersym ")
    assert main(command.split()[2:]) == 0
    printed = capsys.readouterr().out.splitlines()
    checked = [line for line in shown if not line.startswith("elapsed:")]
    assert len(checked) == len(shown) - 1
    for line in checked:
        pattern = re.escape(line).replace(re.escape("[20, 20, ...]"), r"\[20(, 20)*\]")
        assert any(re.fullmatch(pattern, out) for out in printed), line


def test_cli_classify_writes_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["classify", "fs_cp1", *SMALL_ARGS, "--json", str(target)])
    assert code == 0
    assert f"report written to {target}" in capsys.readouterr().out
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["verdict"]["classification"] == "einstein"


def test_cli_classify_json_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["classify", "perturbed_flat", *SMALL_ARGS, "--json", str(a)]) == 0
    assert main(["classify", "perturbed_flat", *SMALL_ARGS, "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_classify_manifest_target(tmp_path, capsys):
    path = write_manifest(
        tmp_path, "name = myflat\nn = 1\npotential = absq(1)\ndomain = -1 1\n"
    )
    code = main(["classify", path, *SMALL_ARGS])
    out = capsys.readouterr().out
    assert code == 0
    assert "manifold myflat" in out
    assert "classification: ricci_flat" in out


NATURAL_MANIFESTS = [
    ("log(1+absq(1)) - log(1-absq(2))", "-0.6 0.6", "ricci_parallel"),
    ("log(1+absq(1)) + log(1+absq(2))", "-1.5 1.5", "einstein"),
    ("absq(1)+absq(2) + 0.3*(x1^2 - y1^2) + x1*x2 - y1*y2", "-1 1", "ricci_flat"),
    ("rsq + log(rsq)", "0.3 1.2, -1.2 1.2, -1.2 1.2, -1.2 1.2",
     "holo_ricci_pseudosymmetric"),
]


@pytest.mark.parametrize("potential, domain, expected", NATURAL_MANIFESTS,
                         ids=[case[2] for case in NATURAL_MANIFESTS])
def test_cli_classifies_natural_metrics(tmp_path, capsys, potential, domain, expected):
    """Manifests a user would write: CP1 x CH1 (parallel Ricci), CP1 x CP1
    with equal factors (Einstein), a flat metric plus pluriharmonic terms
    (the Re of holomorphic z1^2 and z1 z2), and Burns' metric
    rsq + log(rsq) (holomorphically Ricci pseudosymmetric)."""
    path = write_manifest(tmp_path, f"name = natural\nn = 2\npotential = {potential}\n"
                                    f"domain = {domain}\nexpected_class = {expected}\n")
    code = main(["classify", path, "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"classification: {expected}  (expected: {expected})" in out


def test_cli_unknown_target_is_input_error(capsys):
    code = main(["classify", "atlantis", *SMALL_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error:")


def test_cli_exp_overflow_is_input_error(tmp_path, capsys):
    path = write_manifest(
        tmp_path, "name = steep\nn = 2\npotential = exp(200*rsq)\ndomain = -3 3\n"
    )
    code = main(["classify", path, *SMALL_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error:")
    assert "overflows a float in sub-expression `200*(" in err


def test_cli_float_range_failure_is_input_error(tmp_path, capsys):
    # log of a value near 1e-100: its Taylor coefficients 1/c0^k overflow
    path = write_manifest(
        tmp_path, "name = tiny\nn = 2\npotential = rsq + log(1e-100*rsq)\ndomain = 0.5 1\n"
    )
    code = main(["classify", path, *SMALL_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error:")
    assert "outside the float range in sub-expression `1e-100*(" in err


def test_cli_overflowing_jet_is_input_error(tmp_path, capsys):
    # (1e10*rsq)^40 overflows in the jet's products, not in an exp: the
    # metric jet holds inf and NaN, which must not reach the identity suite.
    # The overflow is reported once, as the input error, and raises no
    # floating-point warning on the way.
    path = write_manifest(
        tmp_path, "name = huge\nn = 1\npotential = rsq + (1e10*rsq)^40\ndomain = 0.5 1\n"
    )
    code = main(["classify", path, *SMALL_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error: metric jet is not finite at [")
    assert "overflow a float" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_cli_overflowing_jet_prints_one_line(tmp_path):
    # Under Python's default warning filters, as a user runs it: stderr is
    # the input error line and nothing else.
    path = write_manifest(
        tmp_path, "name = huge\nn = 1\npotential = rsq + (1e10*rsq)^40\ndomain = 0.5 1\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from kahlersym.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "classify", path, *SMALL_ARGS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 1
    assert re.fullmatch(r"input error: metric jet is not finite at \[[^]\n]*\] "
                        r"\(the potential's derivatives overflow a float\)\n", done.stderr), \
        done.stderr


def test_cli_indefinite_metric_names_the_point(tmp_path, capsys):
    # rsq - absq(1)^2 has g_11 = 1 - 2|z1|^2 - ..., indefinite where
    # |z1| is large: the potential is not Kahler there, exit 2, and the
    # message names a sampled point and the smallest eigenvalue of g.
    path = write_manifest(
        tmp_path, "name = indefinite\nn = 2\npotential = rsq - absq(1)^2\ndomain = -1 1\n"
    )
    plan = _plan_from_args(build_parser().parse_args(["classify", path, *SMALL_ARGS]))
    sampled = sample_points(load_spec(path).domain, plan).tolist()
    for argv in (["classify", path, *SMALL_ARGS], ["experiment", "rotation", path]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert out == ""
        match = re.fullmatch(r"not Kahler: metric is not positive definite at (\[[^]]*\]) "
                             r"\(smallest eigenvalue (-[0-9.e+-]+)\)\n", err)
        assert match, err
        assert json.loads(match.group(1)) in sampled
        assert float(match.group(2)) < 0.0


@pytest.mark.parametrize("domain, interval", [
    ("-inf 1, -1 1", "[-inf, 1.0]"),
    ("-1e308 1e308", "[-1e+308, 1e+308]"),
])
def test_cli_non_finite_domain_is_input_error(tmp_path, capsys, domain, interval):
    """An infinite bound or an overflowing width would sample NaN points."""
    path = write_manifest(
        tmp_path, f"name = wide\nn = 1\npotential = log(1+rsq)\ndomain = {domain}\n"
    )
    with pytest.raises(ManifestError, match=f"domain interval {re.escape(interval)}"):
        load_spec(path)
    code = main(["classify", path, *SMALL_ARGS])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error:")
    assert interval in err


def test_cli_bad_manifest_is_input_error(tmp_path, capsys):
    path = write_manifest(tmp_path, "nonsense\n")
    code = main(["classify", path, *SMALL_ARGS])
    assert code == 1
    assert "input error" in capsys.readouterr().err


def test_cli_unreadable_manifest_is_input_error(tmp_path, capsys):
    # A directory exists but cannot be opened as a manifest file.
    with pytest.raises(ManifestError, match="cannot read manifest"):
        load_spec(str(tmp_path))
    code = main(["classify", str(tmp_path), *SMALL_ARGS])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"input error: cannot read manifest {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("argv", [
    ["classify", "fs_cp1", *SMALL_ARGS],
    ["verify-identities", "fs_cp1", *SMALL_ARGS],
    ["experiment", "rotation", "fs_cp1"],
])
def test_cli_unwritable_json_is_input_error(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        code = main([*argv, "--json", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"input error: cannot write {target}: "), err
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_cli_bad_plan_is_input_error(capsys):
    code = main(["classify", "fs_cp1", "--points", "1"])
    assert code == 1
    assert "input error" in capsys.readouterr().err
    for tol in ("nan", "inf"):
        code = main(["classify", "fs_cp2", "--points", "4", "--tol", tol])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: tolerance must be finite and positive")


def test_cli_missing_argument_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 1


def test_cli_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["dance"])
    assert exc.value.code == 1


def test_cli_verify_identities(capsys):
    code = main(["verify-identities", "product_cp1_cp1_unequal", *SMALL_ARGS])
    out = capsys.readouterr().out
    assert code == 0
    assert "identities [ok]" in out
    assert "ladder:" not in out


def test_cli_preflight_failure_exit_two(tmp_path, capsys):
    # An indefinite metric exits 2 from every command that samples it, and
    # no report is written.
    path = write_manifest(
        tmp_path, "name = indefinite\nn = 2\npotential = rsq - absq(1)^2\ndomain = -1 1\n"
    )
    out_json = tmp_path / "report.json"
    for argv in (["verify-identities", path, *SMALL_ARGS, "--json", str(out_json)],
                 ["classify", path, *SMALL_ARGS, "--json", str(out_json)],
                 ["experiment", "transport", path, "--json", str(out_json)]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert out == ""
        assert err.startswith("not Kahler: metric is not positive definite at "), err
        assert not out_json.exists(), argv


def test_cli_lattice_failure_exit_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise LatticeError("einstein passed but implied ricci_parallel failed")

    monkeypatch.setattr("kahlersym.cli.run", boom)
    code = main(["classify", "fs_cp1", *SMALL_ARGS])
    assert code == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_cli_identity_failure_exit_three(monkeypatch, capsys):
    from kahlersym.runner import run as real_run

    def doctored(spec, plan, **kwargs):
        report = real_run(spec, plan, **kwargs)
        return dataclasses.replace(
            report, identities={**report.identities, "ricci_symmetric": 1.0}
        )

    monkeypatch.setattr("kahlersym.cli.run", doctored)
    code = main(["classify", "fs_cp1", *SMALL_ARGS])
    err = capsys.readouterr().err
    assert code == 3
    assert "identity check over gate" in err


def test_cli_route_mismatch_exit_three(monkeypatch, capsys):
    from kahlersym.runner import run as real_run

    def doctored(spec, plan, **kwargs):
        report = real_run(spec, plan, **kwargs)
        verdict = report.verdict
        flipped = dataclasses.replace(verdict.einstein, route_mismatch=True)
        return dataclasses.replace(
            report, verdict=dataclasses.replace(verdict, einstein=flipped)
        )

    monkeypatch.setattr("kahlersym.cli.run", doctored)
    code = main(["classify", "fs_cp1", *SMALL_ARGS])
    assert code == 3
    assert "route mismatch" in capsys.readouterr().err


def test_cli_experiment_rotation(capsys):
    code = main(["experiment", "rotation", "perturbed_flat"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rotation experiment on perturbed_flat" in out
    assert "rel error" in out


def test_cli_experiment_transport_with_json(tmp_path, capsys):
    target = tmp_path / "exp.json"
    code = main([
        "experiment", "transport", "perturbed_flat",
        "--h", "0.02", "0.01", "--steps", "16", "--json", str(target),
    ])
    assert code == 0
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["experiment"] == "transport"
    assert payload["fixture"] == "perturbed_flat"
    assert payload["rel_error"] < 1e-2
    capsys.readouterr()


def test_cli_experiment_custom_eps(capsys):
    code = main(["experiment", "rotation", "fs_cp2", "--eps", "0.01", "0.005"])
    assert code == 0
    assert "ladder:    [0.01, 0.005]" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["rotation", "fs_cp2", "--eps", "0.01", "0"],
    ["rotation", "fs_cp2", "--eps", "0.01", "0.01"],
    ["transport", "fs_cp2", "--h", "0.02", "0"],
])
def test_cli_experiment_degenerate_ladder_is_input_error(capsys, argv):
    """Extrapolation divides by each ladder value and each difference."""
    code = main(["experiment", *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ladder values must be nonzero and distinct")


@pytest.mark.parametrize("ladder", [["1e-200", "1e-201"], ["1e-20", "1e-21"]])
def test_cli_experiment_degenerate_loop_is_input_error(capsys, ladder):
    """h^2 underflowing to 0, or loop corners equal to the base point in
    floats, is an input error that names the value."""
    code = main(["experiment", "transport", "fs_cp2", "--h", *ladder])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: loop size h = {float(ladder[0])!r} is degenerate")


def test_cli_transport_names_the_first_failing_stage_point(tmp_path, capsys):
    """Stage points are expanded in loop, edge and stage order, so the
    first point outside the potential's domain is the one named."""
    path = write_manifest(tmp_path, "name = disc\nn = 1\npotential = -log(1-rsq)\n"
                                    "domain = -0.5 0.5\n")
    code = main(["experiment", "transport", path, "--h", "0.5", "0.9", "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "input error: log of non-positive value -0.007785778957257072 "
        "in sub-expression `1-(x1^2+y1^2)`\n"
    )


@pytest.mark.parametrize("argv", [
    ["rotation", "fs_cp2", "--eps", "0.01", "nan"],
    ["transport", "fs_cp2", "--h", "0.02", "inf"],
])
def test_cli_experiment_nonfinite_ladder_is_input_error(capsys, argv):
    """A NaN or infinite ladder value would make every defect NaN."""
    code = main(["experiment", *argv])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error: ladder values must be finite")


def test_every_plan_field_is_a_cli_flag(monkeypatch):
    """A SamplePlan field that no flag sets is a constant, not a setting."""
    passed = {}
    monkeypatch.setattr(cli, "SamplePlan", lambda **kwargs: passed.update(kwargs))
    _plan_from_args(build_parser().parse_args(["classify", "fs_cp2"]))
    assert set(passed) == {f.name for f in dataclasses.fields(SamplePlan)}


def test_build_parser_smoke():
    parser = build_parser()
    args = parser.parse_args(["classify", "fs_cp2", "--points", "7"])
    assert args.command == "classify"
    assert args.points == 7
    assert args.tol == pytest.approx(1e-7)


# -- golden reports ----------------------------------------------------------------


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_golden_report(tmp_path, capsys, name):
    """Byte-for-byte frozen CLI reports; regenerate with KAHLERSYM_REGOLD=1."""
    out_path = tmp_path / f"{name}.json"
    assert main(["classify", name, *SMALL_ARGS, "--json", str(out_path)]) == 0
    capsys.readouterr()
    produced = out_path.read_bytes()
    golden_path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if os.environ.get("KAHLERSYM_REGOLD"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(golden_path, "wb") as fh:
            fh.write(produced)
        pytest.skip("golden file regenerated")
    with open(golden_path, "rb") as fh:
        assert produced == fh.read(), f"report drifted from golden {name}.json"
