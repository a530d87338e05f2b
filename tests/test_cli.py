"""Command-line interface: exit codes, JSON schema, text output, file emission."""

import json
import math

import pytest

from snlab import __version__, bessel, bounds, cli, diagram, geom2d, profiles, sl1d
from snlab.cli import main
from snlab.fem2d import assemble, neumann_mu1, polygon_mesh, steklov_sigma1

PI2 = math.pi ** 2


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_json_schema_and_triangle_ratio(capsys):
    payload = run_json(capsys, ["triangle-ratio", "--x0", "0.3"])
    assert set(payload) == {"version", "command", "seed", "parameters", "results"}
    assert payload["version"] == __version__
    assert payload["command"] == "triangle-ratio"
    assert payload["parameters"] == {"x0": 0.3}
    res = payload["results"]
    assert res["ratio"] == pytest.approx(4.0, abs=1e-12)
    assert abs(res["ratio_minus_4"]) < 1e-12
    assert res["F_tent"] == pytest.approx(2.0, abs=1e-12)


def test_symmetric_tent_closed_form(capsys):
    res = run_json(capsys, ["triangle-ratio", "--x0", "0.5"])["results"]
    j01 = bessel.j0_first_zero()
    assert res["mu1_tent"] == pytest.approx(4.0 * j01 ** 2, rel=1e-12)
    assert res["sigma1_tent"] == pytest.approx(j01 ** 2, rel=1e-12)


def test_exit_code_1_on_usage_errors(capsys):
    assert main([]) == 1                          # no subcommand: help
    assert main(["no-such-command"]) == 1
    assert main(["f1d"]) == 1                     # missing required --profile
    assert main(["bounds", "--bogus"]) == 1
    capsys.readouterr()


def test_exit_code_2_on_computation_failure(capsys):
    rc = main(["f1d", "--profile", "tent:1.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "computation failed" in captured.err
    assert "tent peak must lie strictly inside (0, 1)" in captured.err


@pytest.mark.parametrize("spec, message", [
    ("disk:abc", "bad shape spec 'disk:abc'"),
    ("disk:3.5", "bad shape spec 'disk:3.5'"),
    ("rectangle:a:1", "bad shape spec 'rectangle:a:1'"),
    ("rectangle:1:0", "rectangle sides must be positive"),
])
def test_malformed_shape_specs_are_geometry_errors(capsys, spec, message):
    """An unparsable disk or rectangle number fails like an invalid one."""
    assert main(["fem", "--shape", spec]) == 2
    assert f"computation failed: GeometryError: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("elements, rc", [("32", 0), ("34", 2)])
def test_f1d_elements_floor_and_divisibility(capsys, elements, rc):
    """32 elements leave the coarsest Richardson grid its 8; past the floor,
    a count not divisible by 4 stays a computation failure."""
    assert main(["f1d", "--profile", "const", "--elements", elements]) == rc
    assert ("must be divisible by 4" in capsys.readouterr().err) == (rc == 2)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert f"snlab {__version__}" in capsys.readouterr().out


def test_f1d_text_output_has_stanza_and_12_digits(capsys):
    rc = main(["f1d", "--profile", "const", "--elements", "512"])
    out = capsys.readouterr().out
    assert rc == 0
    first = out.splitlines()[0]
    assert first.startswith(f"snlab {__version__} | f1d |")
    assert "profile=const" in first and "elements=512" in first
    # pi^2 printed to 12 significant digits
    assert "9.86960440109" in out


def test_f1d_parabolic_with_kernel_oracle(capsys):
    res = run_json(capsys, ["f1d", "--profile", "const",
                            "--elements", "512", "--oracle"])["results"]
    assert res["mu1"] == pytest.approx(PI2, abs=1e-3)  # raw 512-element value
    assert res["sigma1_extrapolated"] == pytest.approx(PI2, abs=1e-8)
    assert res["F_extrapolated"] == pytest.approx(1.0, abs=1e-9)
    assert res["oracle_gap"] < 1e-3


def test_f1d_json_reports_solver_certificates(capsys):
    res = run_json(capsys, ["f1d", "--profile", "tent:0.3", "--elements", "512"])["results"]
    for q in ("mu1", "sigma1"):
        assert 0.0 < res[f"{q}_residual"] <= 1e-9
        assert 1 <= res[f"{q}_iterations"] <= 8


def test_f1d_assembles_each_grid_once(capsys, monkeypatch):
    """f1d assembles the raw solve's grid and each Richardson grid once: the
    raw record and the limits share the --elements grid's pencils."""
    sl1d._pencils.cache_clear()
    sizes = []
    assemble = sl1d._assemble

    def counting_assemble(h, n):
        sizes.append(n)
        return assemble(h, n)

    monkeypatch.setattr(sl1d, "_assemble", counting_assemble)
    res = run_json(capsys, ["f1d", "--profile", "tent:0.5", "--elements", "512"])["results"]
    assert sorted(sizes) == [128, 256, 512]
    tent = profiles.triangular(0.5)
    rec = sl1d.f_record(tent, 512)
    assert (res["mu1"], res["sigma1"]) == (rec["mu1"], rec["sigma1"])
    assert (res["mu1_extrapolated"], res["sigma1_extrapolated"], res["F_extrapolated"]) == (
        sl1d.extrapolated_limits(tent, 512))


def test_f1d_parabolic_star_sigma(capsys):
    res = run_json(capsys, ["f1d", "--profile", "parabolic",
                            "--elements", "512"])["results"]
    assert res["sigma1_extrapolated"] == pytest.approx(12.0, abs=1e-3)
    assert res["integral"] == pytest.approx(1.0, rel=1e-12)


def test_bounds_values_and_csv(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    res = run_json(capsys, ["bounds", "--grid", "400", "--csv", str(path)])["results"]
    assert res["K"] == pytest.approx(3.50748347059, abs=1e-6)
    assert res["upper_bound_2(1+K)"] == pytest.approx(9.01496694118, abs=1e-6)
    assert res["lower_bound_constant"] == pytest.approx(
        PI2 / (6.0 * 18.0 ** (1.0 / 3.0)), rel=1e-12)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,g,f"
    assert len(lines) == 401


@pytest.mark.parametrize("grid", ["1", "7"])
def test_bounds_csv_tabulates_the_scanned_grid(capsys, tmp_path, grid):
    """The table lists the very points whose maximum seeds K, as plain floats."""
    path = tmp_path / "grid.csv"
    run_json(capsys, ["bounds", "--grid", grid, "--csv", str(path)])
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    taus = bounds.tau_grid(int(grid))
    assert [float(tau) for tau, _, _ in rows] == taus.tolist()
    assert [float(f) for _, _, f in rows] == [bounds.f_of_tau(t) for t in taus]


def test_bounds_on_one_grid_point_reaches_the_fine_grid_constant(capsys):
    res = run_json(capsys, ["bounds", "--grid", "1"])["results"]
    assert res["K"] == pytest.approx(bounds.constant_K(1000)[0], abs=1e-9)
    assert res["upper_bound_2(1+K)"] == pytest.approx(9.01496694118, abs=1e-6)


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_bounds_rejects_an_empty_grid_as_usage_error(capsys, grid):
    assert main(["bounds", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert "--grid must be at least 1" in captured.err
    assert captured.out == ""


_DIAGRAM_DEFAULTS = {"family": "randomPolygon", "n": 100, "seed": 7, "hmax": 0.03}
_PARAMETER_CASES = [
    (["f1d", "--profile", "const"], {"profile": "const", "elements": 2048, "oracle": False}),
    (["triangle-ratio", "--x0", "0.3"], {"x0": 0.3}),
    (["bounds"], {"grid": 1000}),
    (["bounds", "--csv", "t.csv"], {"grid": 1000, "csv": "t.csv"}),
    (["geom", "--shape", "T1"], {"shape": "T1"}),
    (["fem", "--shape", "T1"], {"shape": "T1", "hmax": 0.03, "levels": 1}),
    (["thin", "--profile", "const"], {"profile": "const", "eps": "0.2,0.1,0.05", "dx0": 0.005}),
    (["thin", "--profile", "const", "--eps", "0.4,0.2,,0.1", "--dx0", "1e-2"],
     {"profile": "const", "eps": "0.4,0.2,,0.1", "dx0": 0.01}),
    (["fem", "--shape", "T1", "--hmax", "0.1"], {"shape": "T1", "hmax": 0.1, "levels": 1}),
    (["diagram", "--hmax", "1e-1"], {**_DIAGRAM_DEFAULTS, "hmax": 0.1, "threads": 1}),
    (["variation-check"], {"all": False, "elements": 2048, "seed": 0}),
    (["optimize-h"], {"mode": "min", "knots": 21, "restarts": 20, "seed": 0, "elements": 512}),
    (["diagram"], {**_DIAGRAM_DEFAULTS, "threads": 1}),
    (["diagram", "--svg", "d.svg", "--csv", "d.csv"],
     {**_DIAGRAM_DEFAULTS, "csv": "d.csv", "svg": "d.svg", "threads": 1}),
]


@pytest.mark.parametrize("argv, expected", _PARAMETER_CASES,
                         ids=[" ".join(argv) for argv, _ in _PARAMETER_CASES])
def test_parameters_echo_every_option_set_in_parser_order(capsys, monkeypatch, argv, expected):
    """The payload's parameters are the parser's options, in its order; unset
    optional paths are left out.  Handlers are stubbed: only main's echo runs."""
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: {})
    payload = run_json(capsys, argv)
    assert list(payload["parameters"].items()) == list(expected.items())
    assert payload["seed"] == expected.get("seed")


def test_geom_named_shape(capsys):
    res = run_json(capsys, ["geom", "--shape", "T1"])["results"]
    assert res["vertices"] == 3
    assert res["area"] == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-12)
    assert res["perimeter"] == pytest.approx(3.0, rel=1e-12)
    assert res["per_domain_upper_bound"] > 2.0


def test_fem_square_levels(capsys):
    res = run_json(capsys, ["fem", "--shape", "square",
                            "--hmax", "0.2", "--levels", "2"])["results"]
    assert len(res["levels"]) == 2
    assert res["levels"][1]["dofs"] > res["levels"][0]["dofs"]
    assert res["mu1"] == pytest.approx(PI2, rel=1e-4)
    assert 1.0 < res["F"] < 2.0


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_fem_rejects_nonpositive_levels_as_usage_error(capsys, levels):
    assert main(["fem", "--shape", "square", "--hmax", "0.2", "--levels", levels]) == 1
    captured = capsys.readouterr()
    assert "--levels must be at least 1" in captured.err
    assert captured.out == ""


def test_fem_levels_report_solver_stats(capsys):
    (level,) = run_json(capsys, ["fem", "--shape", "T1", "--hmax", "0.2"])["results"]["levels"]
    assert level["mu_residual"] <= 1e-9 and level["sigma_residual"] <= 1e-9
    assert 2 < level["mu_iterations"] <= 40 and 2 < level["sigma_iterations"] <= 40
    system = assemble(polygon_mesh(geom2d.resolve("T1"), 0.2))
    mu, sigma = neumann_mu1(system), steklov_sigma1(system)
    assert level["mu_lu_nnz"] == mu.lu_nnz >= level["dofs"]
    assert level["sigma_lu_nnz"] == sigma.lu_nnz >= level["dofs"]
    # each shift lies below its eigenvalue; a fallback would show as negative
    assert 0.0 < level["mu_shift"] == mu.shift < level["mu1"]
    assert 0.0 < level["sigma_shift"] == sigma.shift < level["sigma1"]
    assert level["warning"] is None


def test_fem_levels_report_the_mesh_quality_warning(capsys):
    """A 1 x 0.01 rectangle meshes below the quality floor, and refinement
    keeps the angles, so every level carries the mesher's warning."""
    levels = run_json(capsys, ["fem", "--shape", "rectangle:1:0.01", "--hmax", "0.1",
                               "--levels", "2"])["results"]["levels"]
    assert [lv["warning"][:18] for lv in levels] == ["min angle 7.41 deg"] * 2


def test_thin_sweep_tent(capsys):
    res = run_json(capsys, ["thin", "--profile", "tent:0.5",
                            "--eps", "0.2,0.1,0.05", "--dx0", "0.02"])["results"]
    j01 = bessel.j0_first_zero()
    assert res["mu1_limit"] == pytest.approx(4.0 * j01 ** 2, rel=1e-12)
    assert res["F_limit"] == pytest.approx(2.0, rel=1e-12)
    assert res["F_extrapolated"] == pytest.approx(2.0, abs=0.05)
    assert len(res["eps"]) == 3


def test_thin_json_key_order(capsys):
    res = run_json(capsys, ["thin", "--profile", "tent:0.5",
                            "--eps", "0.2,0.1,0.05", "--dx0", "0.05"])["results"]
    assert list(res) == ["eps", "mu1", "sigma1_rescaled", "F", "mu1_extrapolated",
                         "sigma1_rescaled_extrapolated", "F_extrapolated", "mu1_limit",
                         "sigma1_limit", "F_limit", "relative_gaps"]
    assert list(res["relative_gaps"]) == ["mu1", "sigma1", "F"]


def test_variation_check_summary(capsys):
    res = run_json(capsys, ["variation-check", "--elements", "192",
                            "--seed", "1"])["results"]
    assert res["max_first_relative_error"] < 1e-3
    assert res["max_second_relative_error"] < 1e-2
    assert max(res["eigenfunction_residuals"].values()) < 1e-10
    q = res["second_variation_quadrature"]
    assert q["mu_ddot"] == pytest.approx(q["mu_ddot_closed"], abs=1e-10)
    assert abs(res["flat_direction"]["finite_difference"]) < 1e-6
    assert len(res["first_variations"]) == 15  # (3 named + 2 random) x 3 quantities


def test_optimize_h_min_reaches_constant(capsys):
    res = run_json(capsys, ["optimize-h", "--mode", "min", "--knots", "9",
                            "--restarts", "1", "--elements", "128"])["results"]
    assert res["value"] == pytest.approx(1.0, abs=1e-4)
    assert res["mode"] == "min"
    assert len(res["knots"]) == len(res["values"])


def test_diagram_writes_files_into_output_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SNLAB_OUTPUT_DIR", str(tmp_path))
    payload = run_json(capsys, ["diagram", "--family", "named", "--n", "2",
                                "--seed", "3", "--hmax", "0.1"])
    res = payload["results"]
    csv_path = tmp_path / "diagram-named-3.csv"
    svg_path = tmp_path / "diagram-named-3.svg"
    assert res["csv"] == str(csv_path) and csv_path.exists()
    assert res["svg"] == str(svg_path) and svg_path.exists()
    assert res["evaluated"] == 2 and res["failed"] == 0
    assert res["hard_bounds"]["band_violations"] == 0
    assert payload["seed"] == 3
    assert res["quality_warnings"] == []
    assert "quality_warning" not in csv_path.read_text()


def test_diagram_names_samples_with_mesh_quality_warnings(capsys, tmp_path, monkeypatch):
    """The thinnest rectangle of the tie campaign meshes below the quality
    floor: its summary and its CSV metadata name it, the header unchanged."""
    monkeypatch.setenv("SNLAB_OUTPUT_DIR", str(tmp_path))
    res = run_json(capsys, ["diagram", "--family", "collapsingRectangle", "--n", "4",
                            "--seed", "3", "--hmax", "0.1"])["results"]
    (warned,) = res["quality_warnings"]
    assert warned["id"] == "collapsingRectangle-0003"
    assert warned["message"].startswith("min angle 7.41 deg")
    lines = (tmp_path / "diagram-collapsingRectangle-3.csv").read_text().splitlines()
    assert [line for line in lines if "quality_warning" in line] == [
        f"# quality_warning collapsingRectangle-0003 = {warned['message']}"]
    assert lines[-5] == diagram.CSV_HEADER


def test_diagram_explicit_paths_override_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SNLAB_OUTPUT_DIR", str(tmp_path / "ignored"))
    csv_path = tmp_path / "direct.csv"
    svg_path = tmp_path / "direct.svg"
    res = run_json(capsys, ["diagram", "--family", "collapsingRectangle",
                            "--n", "1", "--hmax", "0.05",
                            "--csv", str(csv_path), "--svg", str(svg_path)])["results"]
    assert csv_path.exists() and svg_path.exists()
    assert res["evaluated"] == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_diagram_rejects_nonpositive_threads_as_usage_error(capsys, threads):
    assert main(["diagram", "--family", "named", "--n", "1", "--threads", threads]) == 1
    assert "--threads must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("restarts", ["0", "-1"])
def test_optimize_h_rejects_nonpositive_restarts_as_usage_error(capsys, restarts):
    assert main(["optimize-h", "--restarts", restarts, "--knots", "5",
                 "--elements", "64", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--restarts must be at least 1" in captured.err


_EPS_MESSAGE = "--eps must list at least three finite positive values, strictly decreasing"
_X0_MESSAGE = "--x0 must lie strictly between 0 and 1"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--grid", "0"], "--grid must be at least 1"),
    (["fem", "--shape", "square", "--levels", "0"], "--levels must be at least 1"),
    (["optimize-h", "--restarts", "0"], "--restarts must be at least 1"),
    (["diagram", "--n", "-1"], "--n must be at least 0"),
    (["diagram", "--threads", "0"], "--threads must be at least 1"),
    (["optimize-h", "--knots", "3"], "--knots must be at least 5"),
    (["optimize-h", "--elements", "4"], "--elements must be at least 8"),
    (["variation-check", "--elements", "4"], "--elements must be at least 8"),
    (["f1d", "--profile", "const", "--elements", "28"], "--elements must be at least 32"),
    (["fem", "--shape", "square", "--hmax", "0"], "--hmax must be finite and positive"),
    (["fem", "--shape", "square", "--hmax", "-0.1"], "--hmax must be finite and positive"),
    (["fem", "--shape", "square", "--hmax", "nan"], "--hmax must be finite and positive"),
    (["diagram", "--hmax", "0"], "--hmax must be finite and positive"),
    (["diagram", "--hmax", "inf"], "--hmax must be finite and positive"),
    (["thin", "--profile", "tent:0.5", "--dx0", "0"], "--dx0 must be finite and positive"),
    (["thin", "--profile", "tent:0.5", "--dx0", "inf"], "--dx0 must be finite and positive"),
    (["thin", "--profile", "tent:0.5", "--eps", "0"], _EPS_MESSAGE),
    (["thin", "--profile", "tent:0.5", "--eps", "0.2,0.1"], _EPS_MESSAGE),
    (["thin", "--profile", "tent:0.5", "--eps", "0.2,0.1,0"], _EPS_MESSAGE),
    (["thin", "--profile", "tent:0.5", "--eps", "0.2,0.1,nan"], _EPS_MESSAGE),
    (["thin", "--profile", "tent:0.5", "--eps", "inf,0.2,0.1"], _EPS_MESSAGE),
    (["thin", "--profile", "tent:0.5", "--eps", "0.1,0.2,0.05"], _EPS_MESSAGE),
    (["thin", "--profile", "tent:0.5", "--eps", "0.2,0.1,x"],
     "argument --eps: invalid number value: '0.2,0.1,x'"),
    (["triangle-ratio", "--x0", "1.5"], _X0_MESSAGE),
    (["triangle-ratio", "--x0", "0"], _X0_MESSAGE),
    (["triangle-ratio", "--x0", "1"], _X0_MESSAGE),
    (["triangle-ratio", "--x0", "nan"], _X0_MESSAGE),
    (["triangle-ratio", "--x0", "inf"], _X0_MESSAGE),
], ids=["grid", "levels", "restarts", "n", "threads", "knots", "optimize-h-elements",
        "variation-check-elements", "f1d-elements", "fem-hmax-0", "fem-hmax-negative",
        "fem-hmax-nan", "diagram-hmax-0", "diagram-hmax-inf", "dx0-0", "dx0-inf", "eps-0",
        "eps-two", "eps-zero-last", "eps-nan", "eps-inf", "eps-unsorted", "eps-text",
        "x0-1.5", "x0-0", "x0-1", "x0-nan", "x0-inf"])
def test_floor_errors_print_the_subcommand_usage(capsys, argv, message):
    """Each floor and each float range is checked while its subcommand
    parses, so the error shows that subcommand's usage, not the top-level one."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: snlab {argv[0]} [-h]")
    assert captured.err.rstrip().endswith(f"snlab {argv[0]}: error: {message}")


def test_diagram_rejects_negative_sample_count_as_usage_error(capsys):
    assert main(["diagram", "--family", "named", "--n", "-3"]) == 1
    assert "--n must be at least 0" in capsys.readouterr().err
