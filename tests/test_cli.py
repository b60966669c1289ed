"""Config validation, subcommand outputs, determinism and round-trips."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cellwave import (
    Branch,
    ContinuationStalledError,
    Shape,
    _kernels,
    chi_c_star,
    cli,
    solvers,
    stability,
)
from cellwave.cli import main
from cellwave.config import load_config
from cellwave.model import tw_concentration
from cellwave.solvers import _seed_grid
from cellwave.waves import (
    _boundary,
    collocation_nodes,
    continue_branch,
    project_cosine,
)


def base_config(outdir, **analysis):
    cfg = {
        "model": {"a": 0.8, "gamma": 10.0, "chi_c": 1.0, "chi_u": 0.25,
                  "R0": 1.0, "M": math.pi},
        "force_laws": {
            "active": {"family": "hill", "l_max": 2.0, "k_half": 0.75,
                       "exponent": 2},
            "undercooling": {"family": "linear", "slope": 1.0},
        },
        "analysis": {"N": 24, "V_max": 0.06, "ds": 0.02, "mode_max": 3,
                     "chi_c_grid": [0.8, 1.6, 2.4], **analysis},
        "output": {"directory": str(outdir)},
    }
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_missing_key_named(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        del cfg["model"]["gamma"]
        path = write_config(tmp_path, cfg)
        assert main(["resting-state", "-c", path]) == 2
        assert "model.gamma" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["viscosity"] = 1.0
        path = write_config(tmp_path, cfg)
        assert main(["resting-state", "-c", path]) == 2
        assert "model.viscosity" in capsys.readouterr().err

    def test_nonpositive_tolerance_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", newton_tol=-1e-9)
        path = write_config(tmp_path, cfg)
        assert main(["resting-state", "-c", path]) == 2
        assert "newton_tol" in capsys.readouterr().err

    def test_non_monotone_grid_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["analysis"]["chi_c_grid"] = [1.0, 0.5]
        path = write_config(tmp_path, cfg)
        assert main(["dispersion", "-c", path]) == 2

    @pytest.mark.parametrize("command, override, key", [
        ("dispersion", "analysis.root_region=[NaN,1,-1,1]",
         "analysis.root_region.0"),
        ("branch", "analysis.ds=NaN", "analysis.ds"),
        ("branch", "analysis.V_max=Infinity", "analysis.V_max"),
        ("resting-state", "force_laws.active.l_max=NaN",
         "force_laws.active.l_max"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, command,
                                        override, key):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main([command, "-c", path, "--set", override]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["branch"], ["verify"],
                                         ["shape", "--velocity", "0.1"]])
    @pytest.mark.parametrize("override", ["analysis.V_max=1e300",
                                          "analysis.ds=1e-300"])
    def test_step_below_double_spacing_exits_2_with_one_line(
            self, tmp_path, capsys, command, override):
        # A ds that no speed near V_max moves by asks for round(V_max/ds)
        # fixed-speed targets, more than an array can hold; every command
        # that traces the branch refuses the config on one stderr line.
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main([command[0], "-c", path, "--set", override,
                     *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: analysis.ds=")
        assert "spacing of doubles at analysis.V_max" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "out").exists()

    def test_output_directory_not_creatable(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        blocker = tmp_path / "file"
        blocker.write_text("")
        for outdir in (blocker, blocker / "sub"):
            assert main(["resting-state", "-c", path, "-o", str(outdir)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and str(outdir) in err
            assert "Traceback" not in err

    def test_output_file_not_writable(self, tmp_path, capsys):
        # The run completes, then its report cannot be written because a
        # directory holds the report's name.
        out = tmp_path / "out"
        (out / "resting_state.json").mkdir(parents=True)
        path = write_config(tmp_path, base_config(out))
        assert main(["resting-state", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output file: ")
        assert "resting_state.json" in err and "Traceback" not in err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["verify", "-c", path, "--set", "analysis.seed=-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "analysis.seed" in err
        assert not (tmp_path / "out" / "verify_report.json").exists()

    @pytest.mark.parametrize("override, key", [
        ("output.rho_width=true", "output.rho_width"),
        ('analysis.chi_c_grid={"start": 0.5, "stop": 1.5, "count": true}',
         "analysis.chi_c_grid.count"),
        ("analysis.seed_grid=[40, true]", "analysis.seed_grid.1"),
        ("force_laws.active.exponent=2.5", "force_laws.active"),
        ("analysis.mode_max=1", "analysis.mode_max"),
    ])
    def test_bad_integer_rejected(self, tmp_path, capsys, override, key):
        # A bool is not an integer, an exponent of 2.5 is not run as 2,
        # and resting-state needs modes up to 2 for its verdict.
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["resting-state", "-c", path, "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("family", ['"spline"', "[1]", "{}"])
    def test_unknown_family_rejected(self, tmp_path, capsys, family):
        # An unhashable family is a config error too, not a crash.
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["resting-state", "-c", path, "--set",
                     f"force_laws.active.family={family}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: force_laws.active.family must "
                              "be one of ['hill', 'linear', 'tanh'], got ")

    def test_negative_chi_grid_entry_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["dispersion", "-c", path, "--set",
                     "analysis.chi_c_grid=[-1.0, 1.0]"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: analysis.chi_c_grid must be "
                              "nonnegative")

    def test_non_object_root_with_override(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["resting-state", "-c", str(path), "--set",
                     "analysis.N=8"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config root must be an object\n"

    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys,
                                                     kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"model": "\xff\xfe"}')
        assert main(["resting-state", "-c", str(path), "-o",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: cannot read config file {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_set_override(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        run = load_config(path, ["analysis.V_max=0.2", "model.chi_c=2.5"])
        assert run.analysis["V_max"] == 0.2
        assert run.params.chi_c == 2.5


class TestRestingState:
    def test_minimal(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["model"].update({"a": 1.0, "gamma": 1.0, "chi_c": 0.0})
        path = write_config(tmp_path, cfg)
        assert main(["resting-state", "-c", path]) == 0
        payload = json.loads((out / "resting_state.json").read_text())
        assert payload["c0"] == 1.0
        assert payload["classification"]["stable"] is True

    def test_supercritical_reports_mode1(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        path = write_config(tmp_path, cfg)
        run = load_config(path)
        star = chi_c_star(run.params, run.f_act, run.f_und)
        assert main(["resting-state", "-c", path,
                     "--set", f"model.chi_c={2.0 * star}"]) == 0
        payload = json.loads((out / "resting_state.json").read_text())
        assert payload["classification"]["stable"] is False
        assert payload["classification"]["unstable_mode"] == 1

    def test_no_located_root_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["resting-state", "-c", path,
                     "--set", "analysis.root_region=[0,1,0,1]"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: no roots located")
        assert "Traceback" not in err
        assert not (out / "resting_state.json").exists()


class TestDispersion:
    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["analysis"]["chi_c_grid"] = []
        path = write_config(tmp_path, cfg)
        assert main(["dispersion", "-c", path]) == 0
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines == ["m,chi_c,re_lambda,im_lambda,is_principal,residual"]

    @pytest.mark.parametrize("mode_max", [0, 1])
    def test_low_mode_max_accepted(self, tmp_path, mode_max):
        cfg = base_config(tmp_path / "out", mode_max=mode_max,
                          chi_c_grid=[1.0])
        path = write_config(tmp_path, cfg)
        assert main(["dispersion", "-c", path]) == 0
        lines = (tmp_path / "out" / "dispersion.csv").read_text().splitlines()
        modes = {int(line.split(",")[0]) for line in lines[1:]}
        assert 0 in modes and modes <= set(range(mode_max + 1))

    def test_rows_sorted_and_mode0_values(self, tmp_path, j1_roots):
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["analysis"]["chi_c_grid"] = [1.0]
        cfg["analysis"]["mode_max"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["dispersion", "-c", path]) == 0
        lines = (out / "dispersion.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        keys = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]))
                for r in rows]
        assert keys == sorted(keys)
        j1 = j1_roots[:2]
        mode0 = [float(r[2]) for r in rows if r[0] == "0"]
        principal0 = [r for r in rows if r[0] == "0" and r[4] == "1"]
        for x in j1:
            assert any(abs(v + x * x) <= 1e-8 for v in mode0)
        assert len(principal0) == 1
        assert abs(float(principal0[0][2]) + j1[0] ** 2) <= 1e-8

    def test_real_roots_read_zero_imaginary_part(self, tmp_path,
                                                 monkeypatch):
        # The kernel's coefficients are real, so a root within DEDUP_TOL of
        # the real axis is its own conjugate: its row reads im_lambda 0.0,
        # and re_lambda is bit for bit the real part its Newton run ended
        # on (rounding-level imaginary parts such as 1e-16 used to leak).
        config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        ends = []
        accept = stability._accept_roots

        def recording(job_ends, region, **kw):
            ends.extend(job_ends)
            return accept(job_ends, region, **kw)

        monkeypatch.setattr(stability, "_accept_roots", recording)
        assert main(["dispersion", "-c", str(config),
                     "-o", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "dispersion.csv").read_text().splitlines()[1:]]
        near_axis = {z.real for z, _ in ends
                     if abs(z.imag) <= solvers.DEDUP_TOL}
        real = [r for r in rows if abs(float(r[3])) <= solvers.DEDUP_TOL]
        assert len(real) >= 13 * 2
        for row in real:
            assert row[3] == "0.0"
            assert float(row[2]) in near_axis

    def test_cached_scaffolding_leaves_csv_unchanged(self, tmp_path):
        # The seed grid and the psi tables are cached across spectra; a run
        # on warm caches and one after clearing both write the same bytes.
        config = Path(__file__).resolve().parents[1] / "configs" / "default.json"

        def run(name):
            out = tmp_path / name
            assert main(["dispersion", "-c", str(config), "-o", str(out)]) == 0
            return (out / "dispersion.csv").read_bytes()

        first, warm = run("first"), run("warm")
        _seed_grid.cache_clear()
        _kernels._psi_table.cache_clear()
        assert run("cleared") == warm == first
        assert _seed_grid.cache_info().hits > 0
        for arr in _seed_grid(-80.0, 20.0, -10.0, 10.0, 40, 20, True):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_resting_state_and_dispersion_share_one_table(self, tmp_path):
        # Every default mode reads the top-16 psi table of the default rest
        # radius and seed grid, so resting-state then dispersion in one
        # process build it once and write the bytes of commands that each
        # start on a cleared cache.
        config = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        files = {"resting-state": "resting_state.json",
                 "dispersion": "dispersion.csv"}
        _kernels._psi_table.cache_clear()
        for cmd in files:
            assert main([cmd, "-c", str(config), "-o",
                         str(tmp_path / "warm")]) == 0
        assert _kernels._psi_table.cache_info().misses == 1
        for cmd, name in files.items():
            _kernels._psi_table.cache_clear()
            assert main([cmd, "-c", str(config), "-o",
                         str(tmp_path / "cold")]) == 0
            assert ((tmp_path / "warm" / name).read_bytes()
                    == (tmp_path / "cold" / name).read_bytes())

    def test_mode_beyond_double_range_exits_3(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["dispersion", "-c", path,
                     "--set", "analysis.mode_min=148",
                     "--set", "analysis.mode_max=148"]) == 3
        assert "double range" in capsys.readouterr().err


class TestJson:
    def test_numpy_and_complex_values(self, tmp_path):
        # Each value is written as its plain Python counterpart would be;
        # a complex number becomes {"im", "re"}.
        payload = {
            "bool": [True, np.bool_(False)],
            "int": (3, np.int64(-4), np.int32(7)),
            "float": [0.1, np.float64(1e-300), np.float32(0.5)],
            "complex": [1.5 - 2j, np.complex128(0.25j)],
            "array": {"int": np.array([[1, 2]]),
                      "float": np.array([0.5, -2.0]),
                      "bool": np.array([True]),
                      "complex": np.array([1 + 1j])},
            "none": None,
            "text": "a",
        }
        plain = {
            "bool": [True, False],
            "int": [3, -4, 7],
            "float": [0.1, 1e-300, 0.5],
            "complex": [{"re": 1.5, "im": -2.0}, {"re": 0.0, "im": 0.25}],
            "array": {"int": [[1, 2]], "float": [0.5, -2.0],
                      "bool": [True], "complex": [{"re": 1.0, "im": 1.0}]},
            "none": None,
            "text": "a",
        }
        path = tmp_path / "report.json"
        cli._write_json(path, payload)
        assert path.read_text() == json.dumps(plain, indent=2,
                                              sort_keys=True) + "\n"
        assert '"im": -2.0,\n      "re": 1.5' in path.read_text()


class TestBranchCommand:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = base_config(out1)
        cfg["output"]["rho_width"] = 25     # full width at N=24
        path = write_config(tmp_path, cfg)
        assert main(["branch", "-c", path]) == 0
        assert main(["branch", "-c", path, "-o", str(out2)]) == 0
        assert (out1 / "branch.csv").read_bytes() == \
            (out2 / "branch.csv").read_bytes()
        assert (out1 / "branch_report.json").read_bytes() == \
            (out2 / "branch_report.json").read_bytes()

        lines = (out1 / "branch.csv").read_text().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        run = load_config(path)
        star = chi_c_star(run.params, run.f_act, run.f_und)
        assert float(first["V"]) == 0.0
        assert abs(float(first["chi_c"]) - star) <= 1e-12
        assert float(first["p1"]) == 0.0
        assert all(float(first[f"rho_{k}"]) == 0.0 for k in range(25))

        report = json.loads((out1 / "branch_report.json").read_text())
        assert abs(report["d_chi_ds_at_0"]) <= 1e-4
        assert report["verdict"] in ("coincident", "statement_third",
                                     "proof_quarter")
        assert report["arclength_from_V"] is None
        assert 0.0 < report["spectral_tail_max"] <= 1e-8

    def test_stalled_branch_partial_output(self, tmp_path):
        # An unreachable Newton tolerance stalls the first step; the command
        # still emits the partial branch (the root state) and exits 4.
        out = tmp_path / "out"
        cfg = base_config(out)
        path = write_config(tmp_path, cfg)
        code = main(["branch", "-c", path,
                     "--set", "analysis.newton_tol=1e-30"])
        assert code == 4
        lines = (out / "branch.csv").read_text().splitlines()
        assert len(lines) == 2          # header + the V=0 root state
        report = json.loads((out / "branch_report.json").read_text())
        # The expansion report's own solves fail too: the stop and the
        # branch summary only.
        assert set(report) == {"error", "states_completed",
                               "spectral_tail_max", "arclength_from_V"}
        assert report["states_completed"] == 1

    def test_unresolved_branch_exits_4(self, tmp_path):
        # At gamma = 0.1 the shapes stop being resolved at N = 64 before
        # V = 0.85: the command writes the resolved states only, exit 4.
        out = tmp_path / "out"
        cfg = base_config(out, N=64, V_max=1.5, ds=0.01)
        cfg["model"]["gamma"] = 0.1
        path = write_config(tmp_path, cfg)
        assert main(["branch", "-c", path]) == 4
        report = json.loads((out / "branch_report.json").read_text())
        assert report["error"].startswith("unresolved shape at V=0.85")
        assert report["arclength_from_V"] is None
        assert report["spectral_tail_max"] <= 1e-8
        lines = (out / "branch.csv").read_text().splitlines()
        assert len(lines) == 1 + report["states_completed"]
        assert float(lines[-1].split(",")[0]) < 0.85
        # The expansion report solves only up to report_step, so the
        # stopped branch reports what a branch that ends early reports.
        short = tmp_path / "short"
        assert main(["branch", "-c", path, "-o", str(short),
                     "--set", "analysis.V_max=0.3"]) == 0
        whole = json.loads((short / "branch_report.json").read_text())
        for key in ("d_chi_ds_at_0", "d2_chi_ds2_at_0", "verdict",
                    "symmetry"):
            assert report[key] == whole[key]

    def test_branch_rows_revalidate(self, tmp_path):
        # Re-ingest emitted rows: rebuild shapes from the full-width rho
        # columns and re-check the producing module's invariants.
        out = tmp_path / "out"
        cfg = base_config(out)
        cfg["output"]["rho_width"] = 25
        path = write_config(tmp_path, cfg)
        assert main(["branch", "-c", path]) == 0
        run = load_config(path)
        lines = (out / "branch.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            rho = np.array([float(row[f"rho_{k}"]) for k in range(25)])
            Shape(rho, run.params.R0)      # radius must stay positive
            assert float(row["residual"]) <= 1e-9
            assert float(row["area_error"]) <= 1e-10


class TestShapeCommand:
    def test_disk_at_zero_speed(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        path = write_config(tmp_path, cfg)
        assert main(["shape", "-c", path, "--velocity", "0.0"]) == 0
        lines = (out / "shape.csv").read_text().splitlines()[1:]
        run = load_config(path)
        assert len(lines) == 2 * run.analysis["N"]
        for line in lines:
            _, radius, _, kappa, _ = map(float, line.split(","))
            assert abs(radius - 1.0) <= 1e-12
            assert abs(kappa - 1.0) <= 1e-12

    def test_rear_concentration_maximal(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        path = write_config(tmp_path, cfg)
        assert main(["shape", "-c", path, "--velocity", "0.06"]) == 0
        lines = (out / "shape.csv").read_text().splitlines()[1:]
        thetas = np.array([float(l.split(",")[0]) for l in lines])
        conc = np.array([float(l.split(",")[4]) for l in lines])
        # markers accumulate at the rear (theta = pi)
        assert abs(thetas[np.argmax(conc)] - math.pi) <= 0.1

    def test_rows_revalidate(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out)
        path = write_config(tmp_path, cfg)
        assert main(["shape", "-c", path, "--velocity", "0.04"]) == 0
        run = load_config(path)
        lines = (out / "shape.csv").read_text().splitlines()[1:]
        radius = np.array([float(l.split(",")[1]) for l in lines])
        n1 = np.array([float(l.split(",")[2]) for l in lines])
        kappa = np.array([float(l.split(",")[3]) for l in lines])
        rho = project_cosine(radius - run.params.R0)
        shape = Shape(rho, run.params.R0)
        b = _boundary(shape.rho_cos, shape.R0)     # on the 2N nodes
        assert np.max(np.abs(b.n1 - n1)) <= 1e-9
        assert np.max(np.abs(b.kappa - kappa)) <= 1e-8

    def test_columns_are_one_boundary_evaluation(self, tmp_path):
        # radius, n1 and kappa are the fields of one _boundary evaluation
        # on the collocation nodes, and c_boundary is the closed-form
        # concentration at the emitted boundary points.
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["shape", "-c", path, "--velocity", "0.04"]) == 0
        run = load_config(path)
        state = continue_branch(run.params, run.f_act, run.f_und,
                                V_max=run.analysis["V_max"],
                                ds=run.analysis["ds"],
                                n=run.analysis["N"]).state_nearest(0.04)
        b = _boundary(state.shape.rho_cos, state.shape.R0)
        rows = np.array([list(map(float, line.split(","))) for line in
                         (out / "shape.csv").read_text().splitlines()[1:]])
        theta, radius, n1, kappa, conc = rows.T
        assert np.array_equal(theta, collocation_nodes(state.shape.N))
        assert np.array_equal(radius, b.r)
        assert np.array_equal(n1, b.n1)
        assert np.array_equal(kappa, b.kappa)
        x = radius * np.cos(theta)
        assert np.array_equal(
            conc, tw_concentration(run.params, state.V, state.c1, (x,)))

    def test_stalled_branch(self, tmp_path, capsys):
        # gamma = 0.1 stops before V = 0.85 (unresolved shapes): a speed
        # inside the partial branch gets its contour with exit 4, one
        # beyond it is a solver failure.
        out = tmp_path / "out"
        cfg = base_config(out, N=64, V_max=1.5, ds=0.01)
        cfg["model"]["gamma"] = 0.1
        path = write_config(tmp_path, cfg)
        assert main(["shape", "-c", path, "--velocity", "0.5"]) == 4
        assert "unresolved shape" in capsys.readouterr().err
        lines = (out / "shape.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 64
        (out / "shape.csv").unlink()
        assert main(["shape", "-c", path, "--velocity", "1.0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: unresolved shape at V=0.85: ")
        assert "; V=1 outside computed branch [0, 0.84]" in err
        assert not (out / "shape.csv").exists()

    def test_stalled_branch_refuses_speed_on_both_sheets(
            self, tmp_path, capsys, monkeypatch):
        # A partial branch past its fold refuses a speed on both sheets:
        # the stall exits 3 and its message says why the speed was refused.
        states = tuple(SimpleNamespace(V=v) for v in (0.0, 0.5, 1.17, 1.15))

        def stalled(config):
            raise ContinuationStalledError("unresolved shape at V=1.15",
                                           Branch(states))

        monkeypatch.setattr(cli, "_branch", stalled)
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["shape", "-c", path, "--velocity", "1.16"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error: unresolved shape at V=1.15; ")
        assert "both sheets" in err and "folds at V=1.17" in err
        assert not (out / "shape.csv").exists()

    def test_velocity_beyond_branch(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = base_config(out)
        path = write_config(tmp_path, cfg)
        for velocity in ("0.5", "nan"):
            assert main(["shape", "-c", path, "--velocity", velocity]) == 2
            assert "range error" in capsys.readouterr().err
            assert not (out / "shape.csv").exists()


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # An allocation the machine cannot make (analysis.N = 100000 asks
    # 74.5 GiB of the branch Jacobian) is a solver failure named on one
    # stderr line, not a traceback.
    message = ("Unable to allocate 74.5 GiB for an array with shape "
               "(100003, 100003) and data type float64")

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "continue_branch", exhausted)
    path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["branch", "-c", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"out of memory: {message}\n"
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out" / "branch.csv").exists()


def test_parser_reused_without_leaking_overrides(tmp_path, monkeypatch):
    # main builds its parser once per process; an override given to one
    # call does not reach the next, whose report matches a run made
    # before any override.
    def rebuilt():
        raise AssertionError("main built a second parser")

    path = write_config(tmp_path, base_config(tmp_path / "unused"))
    assert main(["resting-state", "-c", path, "-o",
                 str(tmp_path / "before")]) == 0
    assert main(["resting-state", "-c", path, "-o", str(tmp_path / "set"),
                 "--set", "analysis.mode_max=2",
                 "--set", "model.chi_c=2.5"]) == 0
    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(["resting-state", "-c", path, "-o",
                 str(tmp_path / "after")]) == 0
    report = lambda name: (tmp_path / name / "resting_state.json").read_bytes()
    assert report("before") == report("after") != report("set")


@pytest.mark.parametrize("command", [["resting-state"],
                                     ["shape", "--velocity", "0.04"]])
def test_reruns_byte_identical(tmp_path, command):
    # Two runs of one config into separate directories write the same
    # files, byte for byte.
    path = write_config(tmp_path, base_config(tmp_path / "unused"))
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([command[0], "-c", path, "-o", str(out),
                     *command[1:]]) == 0
        runs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert runs[0] and runs[0] == runs[1]
