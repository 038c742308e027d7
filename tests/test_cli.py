import csv
import json
import os
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import GMRES, KrylovStall, SpluFault
from macflow.cli import main
from macflow.config import ConfigError, load_config
from macflow.mesh import AxisPartition, build_mesh, mesh_metrics
from macflow.problems import make_problem
from macflow.solver import _gmres

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

    def test_forcing_time_is_a_solver_setting(self, tmp_path):
        """``solver.forcing_time`` reaches ``forcing_faces`` through the
        solver config: for forcing linear in t the slab average is the
        midpoint value."""
        setup = load_config(small_run_config(
            tmp_path, solver={"dt": 0.2, "t_end": 0.2,
                              "forcing_time": "slab_average"}))
        problem = make_problem("quiescent", setup.mesh)
        problem.forcing = (lambda t, x, y: t * np.ones_like(x),
                           lambda t, x, y: 0.0 * x)
        f = problem.forcing_faces(0.2, setup.solver)
        assert np.allclose(f[0][setup.mesh.interior_mask(0)], 0.1, atol=1e-14)

    def test_bad_forcing_time(self, tmp_path):
        path = small_run_config(tmp_path, solver={
            "dt": 0.1, "t_end": 0.1, "forcing_time": "midpoint"})
        with pytest.raises(ConfigError, match="forcing_time") as info:
            load_config(path)
        assert info.value.path == "solver"


_AXIS = {"n": 4, "lo": 0.0, "hi": 1.0}
_STUDY = {"levels": [4, 6, 8], "dt_coarsest": 0.1, "t_end": 0.1}


class TestDeclaredKeys:
    """Every section rejects a key it does not declare, at its key path,
    and a problem parameter must be a JSON number."""

    @pytest.mark.parametrize("overrides, key_path", [
        ({"outputs": {"vtk": False}}, "<root>.outputs"),
        ({"mesh": {"axes": [_AXIS, _AXIS], "periodic": True}},
         "mesh.periodic"),
        ({"mesh": {"axes": [dict(_AXIS, strech=3.0), _AXIS]}},
         "mesh.axes[0].strech"),
        ({"mesh": {"axes": [_AXIS, {"breakpoints": [0.0, 0.5, 1.0], "n": 2}]}},
         "mesh.axes[1].n"),
        ({"problem": {"name": "quiescent", "parameters": {"rho": 2.0}}},
         "problem.parameters"),
        ({"problem": {"name": "mms_a", "params": {"rho0": 2.0}}},
         "problem.params.rho0"),
        ({"problem": {"name": "mms_b",
                      "params": {"velocity_amplitde": 1.0}}},
         "problem.params.velocity_amplitde"),
        ({"problem": {"name": "rayleigh_taylor", "params": {"atwood": 0.5}}},
         "problem.params.atwood"),
        ({"problem": {"name": "quiescent", "params": {"density": 2.0}}},
         "problem.params.density"),
        ({"output": {"vtkk": False}}, "output.vtkk"),
        ({"convergence": dict(_STUDY, refrence_n=8)},
         "convergence.refrence_n"),
        ({"problem": {"name": "mms_b", "params": {"gravity": True}}},
         "problem.params.gravity"),
        ({"problem": {"name": "mms_b", "params": {"gravity": "2.0"}}},
         "problem.params.gravity"),
    ], ids=["root", "mesh", "axis", "breakpoint_axis", "problem", "mms_a",
            "mms_b", "rayleigh_taylor", "quiescent", "output", "convergence",
            "bool_param", "string_param"])
    def test_rejected_at_key_path(self, tmp_path, capsys, overrides,
                                  key_path):
        cfg = small_run_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert f"configuration error: {key_path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("law, key", [
        ({"type": "constant", "value": 0.5, "a": 0.1}, "a"),
        ({"type": "linear", "a": 0.1, "b": 0.05, "value": 0.5}, "value"),
        ({"type": "table", "rho": [1.0, 2.0], "mu": [0.1, 0.2], "b": 0.05},
         "b"),
    ], ids=["constant", "linear", "table"])
    def test_undeclared_mu_law_key(self, tmp_path, capsys, law, key):
        cfg = small_run_config(tmp_path, problem={"name": "quiescent",
                                                  "params": {"mu_law": law}})
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: problem: mu_law.{key}: unknown key" in err

    def test_declared_defaults_fill_partial_sections(self, tmp_path):
        setup = load_config(small_run_config(
            tmp_path, output={"vtk": False},
            convergence=dict(_STUDY, reference_n=None)))
        assert setup.output == {"vtk": False, "staggered": True,
                                "diagnostics": "diagnostics.csv",
                                "snapshot_prefix": "snapshot",
                                "dump_operators": False}
        assert setup.convergence == dict(_STUDY, reference_n=None)


class TestOneSourcePerSetting:
    """Viscosity is set only by ``mu_law``, and a convergence section that
    loads is one ``macflow convergence`` can run."""

    @pytest.mark.parametrize("name, key", [
        ("mms_a", "mu"), ("mms_b", "mu_a"), ("mms_b", "mu_b"),
        ("rayleigh_taylor", "mu_a"), ("rayleigh_taylor", "mu_b"),
        ("quiescent", "mu")])
    def test_removed_viscosity_parameter(self, tmp_path, capsys, name, key):
        cfg = small_run_config(tmp_path, problem={"name": name,
                                                  "params": {key: 0.1}})
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert (f"configuration error: problem.params.{key}: unknown key"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("overrides, key_path", [
        ({"problem": {"name": "mms_a"},
          "convergence": dict(_STUDY, reference_n=12)},
         "convergence.reference_n"),
        ({"problem": {"name": "mms_b"}, "convergence": _STUDY},
         "convergence.reference_n"),
        ({"mesh": {"axes": [_AXIS, {"breakpoints": [0.0, 0.3, 1.0]}]},
          "convergence": _STUDY}, "mesh.axes[1]"),
    ], ids=["reference_n_with_exact", "no_reference_n", "breakpoint_axis"])
    def test_study_checked_at_load(self, tmp_path, capsys, overrides,
                                   key_path):
        cfg = small_run_config(tmp_path, **overrides)
        with pytest.raises(ConfigError) as info:
            load_config(cfg)
        assert info.value.path == key_path
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert f"configuration error: {key_path}:" in capsys.readouterr().err


class TestReadmeSchema:
    """The configuration the README documents is the one the code reads."""

    README = os.path.join(os.path.dirname(__file__), "..", "README.md")

    def test_documented_config_loads(self):
        with open(self.README) as fh:
            block = fh.read().split("```jsonc\n", 1)[1].split("```", 1)[0]
        setup = load_config(json.loads(re.sub(r"//[^\n]*", "", block)))
        assert setup.problem.name == "rayleigh_taylor"
        assert setup.convergence is not None

    def test_documented_problem_parameters(self):
        from macflow.problems import _LAWS, _PROBLEMS
        with open(self.README) as fh:
            rows = {m.group(1): m.group(2) for m in re.finditer(
                r"^\| `(\w+)` \| (.*) \|$", fh.read(), re.MULTILINE)}
        for name, (_, spec) in _PROBLEMS.items():
            documented = dict(re.findall(r"`(\w+)` \[([^]]+)\]", rows[name]))
            assert documented == {key: repr(default) for key, (_, default)
                                  in spec.items() if default is not None}
            assert ("mu_law" in spec) == ("`mu_law`" in rows[name])
        for kind, (_, keys) in _LAWS.items():
            cells = rows[kind].split(" | ")[0]
            assert re.findall(r"`(\w+)`", cells) == list(keys)


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

    @pytest.mark.parametrize("overrides, key_path", [
        ({"convergence": {"levels": [4, "x", 8], "dt_coarsest": 0.1,
                          "t_end": 0.1}}, "convergence.levels[1]"),
        ({"convergence": {"levels": [4, 6, 8], "dt_coarsest": 0.1,
                          "t_end": 0.1, "reference_n": "big"}},
         "convergence.reference_n"),
        ({"problem": {"name": "mms_b",
                      "params": {"mu_law": {"type": "constant"}}}}, "problem"),
        ({"mesh": {"axes": [{"n": True}, {"n": 4}]}}, "mesh.axes[0].n"),
        ({"solver": {"dt": True, "t_end": 1.0}}, "solver.dt"),
        ({"convergence": {"levels": [4, 6, 8], "dt_coarsest": 0.1,
                          "t_end": 0.1, "reference_n": True}},
         "convergence.reference_n"),
        ({"convergence": {"levels": [True, 8, 16], "dt_coarsest": 0.1,
                          "t_end": 0.1}}, "convergence.levels[0]"),
        ({"solver": {"dt": 0.3, "t_end": 1.0}}, "solver"),
    ], ids=["levels", "reference_n", "mu_law", "bool_axis_n", "bool_dt",
            "bool_reference_n", "bool_level", "partial_step"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, overrides,
                                       key_path):
        cfg = small_run_config(tmp_path, **overrides)
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert f"configuration error: {key_path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "convergence"])
    def test_non_positive_viscosity_law_exit_code(self, tmp_path, capsys,
                                                  command):
        # mu = -0.5 + 0.1 rho is negative on mms_b's densities in [1, 2];
        # the config loads, and the law fails at the first step
        cfg = small_run_config(
            tmp_path,
            problem={"name": "mms_b", "params": {
                "mu_law": {"type": "linear", "a": -0.5, "b": 0.1}}},
            solver={"dt": 0.05, "t_end": 0.05},
            convergence={"levels": [4, 6, 8], "dt_coarsest": 0.05,
                         "t_end": 0.05, "reference_n": 12})
        load_config(cfg)
        assert main([command, "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert ("configuration error: problem.params.mu_law: viscosity law "
                "produced non-positive" in capsys.readouterr().err)

    def test_flagged_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        from macflow import verification
        real = verification.step_audit

        def flagging(*args, **kwargs):
            record = real(*args, **kwargs)
            record.violations = ("divergence",)
            return record

        monkeypatch.setattr(verification, "step_audit", flagging)
        cfg = small_run_config(tmp_path)
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "o")]) == 3
        assert ("flagged invariant violations: divergence"
                in capsys.readouterr().err)

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
        cfg = small_run_config(tmp_path, output={
            "vtk": True, "staggered": True, "dump_operators": True})
        outdir = tmp_path / "dump"
        code = main(["run", "--config", cfg, "--output-dir", str(outdir)])
        assert code == 0
        for name in ("divergence.coo", "pressure_gradient.coo", "diffusion.coo"):
            assert (outdir / name).exists()

    # SuperLU raises RuntimeError on a singular matrix, and scipy
    # MemoryError when SuperLU cannot allocate
    @pytest.mark.parametrize("error", [RuntimeError, MemoryError],
                             ids=lambda error: error.__name__)
    def test_factorization_failure_names_step(self, tmp_path, monkeypatch,
                                              capsys, error):
        real = spla.splu
        one_step = SpluFault(real)
        one_step_gmres = KrylovStall(_gmres)
        monkeypatch.setattr(spla, "splu", one_step)
        monkeypatch.setattr(GMRES, one_step_gmres)
        cfg = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.1})
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "one")]) == 0
        assert one_step.calls >= 1
        # from step 2 on GMRES stagnates, which forces a refactorization;
        # fail at that first factorization after step 1 of a two-step run;
        # one_step_gmres only counts the calls of step 1, which may be none
        stall = KrylovStall(_gmres, stall_from=one_step_gmres.calls + 1)
        fault = SpluFault(real, fail_from=one_step.calls + 1, error=error)
        monkeypatch.setattr(GMRES, stall)
        monkeypatch.setattr(spla, "splu", fault)
        cfg = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.2})
        code = main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "two")])
        assert code == 3
        assert stall.calls == one_step_gmres.calls + 1
        assert fault.calls == one_step.calls + 1
        assert "solver failure at step 2" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [RuntimeError, MemoryError],
                             ids=lambda error: error.__name__)
    def test_3d_saddle_failure_names_step(self, tmp_path, monkeypatch,
                                          capsys, error):
        # in 3d a stalled GMRES builds fresh separable blocks, factors both
        # preconditioner blocks and then falls back to the direct saddle
        # LU; that LU fails in step 2
        real = spla.splu
        one_step = SpluFault(real)
        one_step_gmres = KrylovStall(_gmres)
        monkeypatch.setattr(spla, "splu", one_step)
        monkeypatch.setattr(GMRES, one_step_gmres)
        mesh = {"axes": [{"n": 3, "lo": 0.0, "hi": 1.0}] * 3}
        cfg = small_run_config(tmp_path, mesh=mesh,
                               solver={"dt": 0.1, "t_end": 0.1})
        assert main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "one")]) == 0
        assert one_step.calls == 0 and one_step_gmres.calls >= 1
        stall = KrylovStall(_gmres, stall_from=one_step_gmres.calls + 1)
        monkeypatch.setattr(GMRES, stall)
        fault = SpluFault(real, fail_from=one_step.calls + 3, error=error)
        monkeypatch.setattr(spla, "splu", fault)
        cfg = small_run_config(tmp_path, mesh=mesh,
                               solver={"dt": 0.1, "t_end": 0.2})
        code = main(["run", "--config", cfg,
                     "--output-dir", str(tmp_path / "two")])
        assert code == 3
        assert fault.calls == one_step.calls + 3
        assert stall.calls == one_step_gmres.calls + 3
        assert "solver failure at step 2" in capsys.readouterr().err

    def test_first_factorization_failure_names_step_one(self, tmp_path,
                                                        monkeypatch, capsys):
        # a 2d set-up factors nothing: the first factorization is step 1's
        fault = SpluFault(spla.splu, fail_from=1)
        monkeypatch.setattr(spla, "splu", fault)
        cfg = small_run_config(tmp_path, solver={"dt": 0.1, "t_end": 0.1})
        code = main(["run", "--config", cfg, "--output-dir", str(tmp_path)])
        assert code == 3 and fault.calls == 1
        assert "solver failure at step 1" in capsys.readouterr().err

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


    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_rejected(self, tmp_path, capsys, trials):
        code = main(["verify", "--config",
                     os.path.join(CONFIGS, "verify.json"),
                     "--output-dir", str(tmp_path), "--trials", trials])
        assert code == 2
        assert "--trials" in capsys.readouterr().err


def _study_rows(tmp_path, data):
    path = _write(tmp_path, data)
    assert main(["convergence", "--config", path,
                 "--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "convergence.csv") as fh:
        return list(csv.DictReader(fh))


class TestConvergenceCommand:
    def test_insufficient_levels_rejected(self, tmp_path):
        path = _write(tmp_path, {
            "mesh": {"axes": [{"n": 4}, {"n": 4}]},
            "problem": {"name": "mms_a"},
            "solver": {"dt": 0.1, "t_end": 0.2},
            "convergence": {"levels": [4, 8], "dt_coarsest": 0.1,
                            "t_end": 0.2}})
        assert main(["convergence", "--config", path]) == 2

    @pytest.mark.parametrize("levels", ["2", "0", "-1"])
    def test_too_few_levels_flag_rejected(self, tmp_path, capsys, levels):
        code = main(["convergence", "--config",
                     os.path.join(CONFIGS, "mms-a.json"),
                     "--output-dir", str(tmp_path), "--levels", levels])
        assert code == 2
        assert "configuration error: --levels:" in capsys.readouterr().err

    def test_too_many_levels_flag_rejected(self, tmp_path, capsys):
        code = main(["convergence", "--config",
                     os.path.join(CONFIGS, "mms-a.json"),
                     "--output-dir", str(tmp_path), "--levels", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: --levels:" in err
        assert "4 configured levels" in err

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

    def test_stretched_levels_keep_the_stretch(self, tmp_path):
        axis = {"n": 4, "lo": 0.0, "hi": 1.0, "stretch": 3.0}
        rows = _study_rows(tmp_path, {
            "mesh": {"axes": [axis, axis]},
            "problem": {"name": "mms_b"},
            "solver": {"dt": 0.05, "t_end": 0.05},
            "convergence": {"levels": [4, 6, 8], "dt_coarsest": 0.05,
                            "t_end": 0.05, "reference_n": 12}})
        assert [int(r["n"]) for r in rows] == [4, 6, 8]
        for r in rows:
            n = int(r["n"])
            mesh = build_mesh([AxisPartition.geometric(0.0, 1.0, n, 3.0)] * 2)
            assert float(r["h"]) == mesh_metrics(mesh).h

    def test_3d_levels_stay_3d(self, tmp_path):
        rows = _study_rows(tmp_path, {
            "mesh": {"axes": [{"n": 2}, {"n": 2}, {"n": 2}]},
            "problem": {"name": "quiescent"},
            "solver": {"dt": 0.1, "t_end": 0.1},
            "convergence": {"levels": [2, 3, 4], "dt_coarsest": 0.1,
                            "t_end": 0.1}})
        assert [int(r["n"]) for r in rows] == [2, 3, 4]
        for r in rows:
            assert float(r["h"]) == pytest.approx(3 ** 0.5 / int(r["n"]),
                                                  rel=1e-14)

    def test_breakpoint_axis_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "mesh": {"axes": [{"n": 4}, {"breakpoints": [0.0, 0.3, 1.0]}]},
            "problem": {"name": "mms_a"},
            "solver": {"dt": 0.1, "t_end": 0.2},
            "convergence": {"levels": [4, 8, 16], "dt_coarsest": 0.1,
                            "t_end": 0.2}})
        assert main(["convergence", "--config", path,
                     "--output-dir", str(tmp_path)]) == 2
        assert "configuration error: mesh.axes[1]:" in capsys.readouterr().err


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
