import csv
import json
import os

import pytest
import scipy.sparse.linalg as spla

from conftest import KrylovStall, SpluFault
from macflow.cli import main
from macflow.config import ConfigError, load_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def small_run_config(tmp_path, **overrides):
    data = {
        "mesh": {"axes": [{"n": 4, "lo": 0.0, "hi": 1.0},
                          {"n": 4, "lo": 0.0, "hi": 1.0}]},
        "problem": {"name": "quiescent"},
        "solver": {"dt": 0.1, "t_end": 0.2},
        "output": {"vtk": True, "staggered": True},
    }
    data.update(overrides)
    return _write(tmp_path, data)


class TestConfigParsing:
    def test_missing_key_reports_path(self, tmp_path):
        path = _write(tmp_path, {"mesh": {"axes": [{"n": 4}, {"n": 4}]},
                                 "problem": {"name": "quiescent"}})
        with pytest.raises(ConfigError, match="solver"):
            load_config(path)

    def test_bad_breakpoints_report_axis(self, tmp_path):
        path = _write(tmp_path, {
            "mesh": {"axes": [{"breakpoints": [0.0, 0.0, 1.0]}, {"n": 4}]},
            "problem": {"name": "quiescent"},
            "solver": {"dt": 0.1, "t_end": 0.1}})
        with pytest.raises(ConfigError, match=r"axes\[0\]"):
            load_config(path)

    def test_unknown_problem(self, tmp_path):
        path = small_run_config(tmp_path, problem={"name": "vortex_pair"})
        with pytest.raises(ConfigError, match="problem.name"):
            load_config(path)

    def test_bad_solver_value(self, tmp_path):
        path = small_run_config(tmp_path, solver={"dt": -0.1, "t_end": 0.1})
        with pytest.raises(ConfigError, match="solver"):
            load_config(path)

    def test_unknown_solver_key(self, tmp_path):
        path = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.1,
                                                  "linear_solver": "saddle"})
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.path == "solver.linear_solver"

    def test_shipped_configs_parse(self):
        for name in os.listdir(CONFIGS):
            load_config(os.path.join(CONFIGS, name))


class TestRunCommand:
    def test_quiescent_run_writes_outputs(self, tmp_path):
        cfg = small_run_config(tmp_path)
        outdir = tmp_path / "out"
        code = main(["run", "--config", cfg, "--output-dir", str(outdir)])
        assert code == 0
        with open(outdir / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(float(r["kinetic_energy"]) == 0.0 for r in rows)
        assert all(r["violations"] == "" for r in rows)
        vtks = sorted(p.name for p in outdir.glob("*.vtk"))
        assert vtks, "expected VTK snapshots"
        stag = sorted(p.name for p in outdir.glob("*_staggered.csv"))
        assert stag, "expected staggered dumps"

    def test_config_error_exit_code(self, tmp_path):
        path = _write(tmp_path, {"mesh": {}, "problem": {}, "solver": {}})
        assert main(["run", "--config", path]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = small_run_config(
            tmp_path,
            problem={"name": "mms_b"},
            solver={"dt": 0.05, "t_end": 0.05, "picard_max": 1,
                    "picard_tol": 1e-14})
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 3

    def test_mms_run_reports_errors(self, tmp_path):
        cfg = small_run_config(
            tmp_path,
            problem={"name": "mms_a"},
            solver={"dt": 0.05, "t_end": 0.1})
        outdir = tmp_path / "mms"
        assert main(["run", "--config", cfg, "--output-dir", str(outdir)]) == 0
        text = (outdir / "errors.csv").read_text()
        assert "u," in text and "p," in text and "rho," in text

    def test_dump_operators(self, tmp_path):
        cfg = small_run_config(tmp_path)
        outdir = tmp_path / "dump"
        code = main(["run", "--config", cfg, "--output-dir", str(outdir),
                     "--dump-operators"])
        assert code == 0
        for name in ("divergence.coo", "pressure_gradient.coo", "diffusion.coo"):
            assert (outdir / name).exists()

    def test_factorization_failure_names_step(self, tmp_path, monkeypatch,
                                              capsys):
        real, real_gmres = spla.splu, spla.gmres
        one_step = SpluFault(real)
        one_step_gmres = KrylovStall(real_gmres)
        monkeypatch.setattr(spla, "splu", one_step)
        monkeypatch.setattr(spla, "gmres", one_step_gmres)
        cfg = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.1})
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "one")]) == 0
        # from step 2 on GMRES stagnates, which forces a refactorization;
        # fail at that first factorization after step 1 of a two-step run
        monkeypatch.setattr(spla, "gmres",
                            KrylovStall(real_gmres,
                                        stall_from=one_step_gmres.calls + 1))
        monkeypatch.setattr(spla, "splu",
                            SpluFault(real, fail_from=one_step.calls + 1))
        cfg = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.2})
        code = main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "two")])
        assert code == 3
        assert "solver failure at step 2" in capsys.readouterr().err

    def test_setup_factorization_failure_names_step_zero(self, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(spla, "splu", SpluFault(spla.splu, fail_from=1))
        cfg = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.1})
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 3
        assert "solver failure at step 0" in capsys.readouterr().err

    def test_bit_identical_reruns(self, tmp_path):
        cfg = small_run_config(tmp_path, problem={"name": "mms_b"},
                               solver={"dt": 0.02, "t_end": 0.06})
        outs = []
        for tag in ("a", "b"):
            outdir = tmp_path / tag
            assert main(["run", "--config", cfg, "--output-dir", str(outdir)]) == 0
            outs.append((outdir / "diagnostics.csv").read_bytes())
        assert outs[0] == outs[1]


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path):
        code = main(["verify", "--config",
                     os.path.join(CONFIGS, "verify.json"),
                     "--output-dir", str(tmp_path), "--trials", "10"])
        assert code == 0
        assert (tmp_path / "verification.csv").exists()

    def test_verify_stretched_passes(self, tmp_path):
        code = main(["verify", "--config",
                     os.path.join(CONFIGS, "verify-stretched.json"),
                     "--output-dir", str(tmp_path), "--trials", "5"])
        assert code == 0

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        import macflow.cli as cli_mod

        def broken(mesh, trials=0, seed=0, dt=0.1):
            return {"div_grad_duality": 1.0}

        monkeypatch.setattr(cli_mod, "check_dualities", broken)
        code = main(["verify", "--config",
                     os.path.join(CONFIGS, "verify.json"),
                     "--output-dir", str(tmp_path), "--trials", "1"])
        assert code == 4


class TestConvergenceCommand:
    def test_insufficient_levels_rejected(self, tmp_path):
        path = _write(tmp_path, {
            "mesh": {"axes": [{"n": 4}, {"n": 4}]},
            "problem": {"name": "mms_a"},
            "solver": {"dt": 0.1, "t_end": 0.2},
            "convergence": {"levels": [4, 8], "dt_coarsest": 0.1,
                            "t_end": 0.2}})
        assert main(["convergence", "--config", path]) == 2

    def test_small_study_runs(self, tmp_path):
        path = _write(tmp_path, {
            "mesh": {"axes": [{"n": 4}, {"n": 4}]},
            "problem": {"name": "mms_a"},
            "solver": {"dt": 0.1, "t_end": 0.2},
            "convergence": {"levels": [4, 8, 16], "dt_coarsest": 0.1,
                            "t_end": 0.2}})
        code = main(["convergence", "--config", path,
                     "--output-dir", str(tmp_path)])
        assert code == 0
        table = (tmp_path / "convergence.csv").read_text().splitlines()
        assert table[0].startswith("n,h,dt")
        assert len(table) == 4


class TestVtkOutput:
    def test_vtk_structure(self, tmp_path):
        from macflow.mesh import AxisPartition, build_mesh
        from macflow.output import write_vtk_rectilinear
        from macflow.problems import make_problem
        from macflow.solver import SolverConfig, run_simulation

        mesh = build_mesh([AxisPartition.uniform(0, 1, 4)] * 2)
        problem = make_problem("mms_a", mesh)
        result = run_simulation(problem, SolverConfig(dt=0.05, t_end=0.05))
        path = tmp_path / "snap.vtk"
        write_vtk_rectilinear(result.final_state, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET RECTILINEAR_GRID" in lines
        assert any(line.startswith("DIMENSIONS 5 5 1") for line in lines)
        assert any(line.startswith("SCALARS density") for line in lines)
        assert any(line.startswith("VECTORS velocity") for line in lines)

    def test_staggered_csv_layout(self, tmp_path):
        from macflow.mesh import AxisPartition, build_mesh
        from macflow.output import write_staggered_csv
        from macflow.problems import make_problem
        from macflow.solver import SolverConfig, run_simulation

        mesh = build_mesh([AxisPartition.uniform(0, 1, 2)] * 2)
        problem = make_problem("quiescent", mesh)
        result = run_simulation(problem, SolverConfig(dt=0.1, t_end=0.1))
        path = tmp_path / "snap.csv"
        write_staggered_csv(result.final_state, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        fields = {r["field"] for r in rows}
        assert fields == {"rho", "p", "u0", "u1"}
        n_u0 = sum(1 for r in rows if r["field"] == "u0")
        assert n_u0 == mesh.n_faces(0)
        # coordinates of cell entries are the cell centers
        first = next(r for r in rows if r["field"] == "rho")
        assert float(first["x"]) == pytest.approx(0.25)
