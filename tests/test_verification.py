import numpy as np
import pytest

from macflow import operators as ops
from macflow import verification
from macflow.fields import CellScalarField, VelocityField
from macflow.mesh import AxisPartition, build_mesh
from macflow.problems import make_problem
from macflow.solver import SolverConfig, initial_state, run_simulation
from macflow.verification import (DiagnosticsRecord, check_dualities,
                                  check_fortin, check_inequalities, step_audit)


@pytest.fixture(scope="module")
def mesh8():
    return build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)


class TestDualities:
    def test_all_identities_tight(self, mesh8):
        report = check_dualities(mesh8, trials=25, seed=3)
        for name, value in report.items():
            assert value <= 1e-12, name

    def test_stretched_grid(self):
        mesh = build_mesh([AxisPartition.geometric(0, 1, 12, 3.0)] * 2)
        report = check_dualities(mesh, trials=25, seed=4)
        for name, value in report.items():
            assert value <= 1e-12, name

    def test_corrupted_operator_is_caught(self, mesh8, monkeypatch):
        """Negative control: a biased pressure gradient must fail the
        div-grad duality, and only it."""
        original = ops.pressure_gradient

        def corrupted(p):
            g = original(p)
            comps = [c.copy() for c in g.components]
            comps[0][g.mesh.interior_mask(0).ravel()] *= 1.0 + 1e-6
            return VelocityField(g.mesh, comps)

        monkeypatch.setattr(ops, "pressure_gradient", corrupted)
        report = check_dualities(mesh8, trials=5, seed=5)
        assert report["div_grad_duality"] > 1e-9
        assert report["diffusion_duality"] <= 1e-12

    def test_zero_fields_give_zero_residual(self, mesh8):
        # the relative residual convention returns 0 for identically zero data
        q = CellScalarField(mesh8, np.zeros(mesh8.n_cells))
        v = VelocityField.zero(mesh8)
        a = float(np.dot(mesh8.cell_volumes.ravel() * q.values,
                         ops.divergence(v).values))
        assert a == 0.0


class TestInequalities:
    def test_bounds_hold(self, mesh8):
        report = check_inequalities(mesh8, trials=60, seed=6)
        assert report["korn_ratio_max"] <= np.sqrt(2.0) + 1e-12
        assert report["poincare_ratio_max"] <= mesh8.diameter + 1e-12
        assert report["viscosity_bound_violation"] <= 1e-12
        assert report["cell_face_reconstruction_ratio_max"] <= 1.0 + 1e-12
        assert report["face_cell_reconstruction_ratio_max"] <= 1.0 + 1e-12
        assert report["pair_reconstruction_ratio_max"] <= 1.0 + 1e-12
        assert report["trilinear_two_path"] <= 1e-12

    def test_fortin(self, mesh8):
        report = check_fortin(mesh8)
        assert report["fortin_divergence_free"] <= 1e-12
        assert report["fortin_commutes"] <= 1e-12


class TestStepAudit:
    def test_quiescent_step_all_zero(self, mesh8):
        problem = make_problem("quiescent", mesh8)
        cfg = SolverConfig(dt=0.1, t_end=0.1)
        result = run_simulation(problem, cfg)
        rec = result.records[0]
        assert rec.kinetic_energy == 0.0
        assert rec.dissipation == 0.0
        assert rec.bv_increment == 0.0
        assert rec.violations == ()

    def test_audit_catches_mass_violation(self, mesh8):
        problem = make_problem("quiescent", mesh8)
        cfg = SolverConfig(dt=0.1, t_end=0.1)
        state = initial_state(mesh8, problem.rho0, problem.u0)
        tampered = CellScalarField(mesh8, state.rho.values * 1.001)
        from macflow.solver import TimeState
        next_state = TimeState(cfg.dt, tampered, state.u, state.p,
                               rho_bounds=(0.0, 10.0))
        rec = step_audit(state, next_state, cfg, mu_law=problem.mu_law, step=1)
        assert "mass_conservation" in rec.violations

    @staticmethod
    def _tampered_audit(mesh, rho=None, u=None, **solver):
        """Violations ``step_audit`` flags from the quiescent initial state
        to a next state whose density values or velocity are replaced."""
        from macflow.solver import TimeState
        problem = make_problem("quiescent", mesh)
        cfg = SolverConfig(dt=0.1, t_end=0.1, **solver)
        state = initial_state(mesh, problem.rho0, problem.u0)
        rho = state.rho if rho is None else CellScalarField(mesh, rho)
        next_state = TimeState(cfg.dt, rho, state.u if u is None else u,
                               state.p, rho_bounds=state.rho_bounds)
        return step_audit(state, next_state, cfg, problem.mu_law,
                          step=1).violations

    @staticmethod
    def _one_face_velocity(mesh):
        comps = [np.zeros(mesh.faces_shape(i)) for i in range(mesh.dim)]
        comps[0][3, 3] = 1e-3
        return VelocityField.from_interior(mesh, comps)

    def test_untampered_state_is_clean(self, mesh8):
        assert self._tampered_audit(mesh8) == ()

    def test_audit_catches_maximum_principle_violation(self, mesh8):
        # above the audit's 1e-12 slack, inside the 1e-10 that TimeState
        # tolerates, so that the state can be built at all
        problem = make_problem("quiescent", mesh8)
        state = initial_state(mesh8, problem.rho0, problem.u0)
        rho = state.rho.values.copy()
        rho[5] = state.rho_bounds[1] * (1.0 + 1e-11)
        assert "maximum_principle" in self._tampered_audit(mesh8, rho=rho)
        rho[5] = state.rho_bounds[0] * (1.0 - 1e-11)
        assert "maximum_principle" in self._tampered_audit(mesh8, rho=rho)

    def test_audit_catches_divergence(self, mesh8):
        u = self._one_face_velocity(mesh8)
        assert "divergence" in self._tampered_audit(mesh8, u=u)

    @pytest.mark.parametrize("scheme, flag", [
        ("centered", "kinetic_energy_identity"),
        ("upwind", "kinetic_energy_inequality")])
    def test_audit_catches_energy_gain(self, mesh8, scheme, flag):
        # kinetic energy out of a fluid at rest, with no forcing to supply it
        u = self._one_face_velocity(mesh8)
        violations = self._tampered_audit(mesh8, u=u, advection_scheme=scheme)
        other = {"kinetic_energy_identity", "kinetic_energy_inequality"} - {flag}
        assert flag in violations and other.isdisjoint(violations)

    def test_record_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DiagnosticsRecord(
                step=1, t=0.0, kinetic_energy=np.nan, dissipation=0.0,
                total_mass=0.0, rho_l2=0.0, rho_min=0.0, rho_max=0.0,
                bv_increment=0.0, div_max=0.0, picard_iterations=0,
                mass_residual=0.0, momentum_residual=0.0,
                rho_identity_residual=0.0, dual_mass_residual=0.0,
                energy_residual=0.0, mass_drift=0.0, p_l2=0.0, u_l2=0.0,
                u_h1_sq=0.0)

    def test_energy_identity_on_decaying_flow(self, mesh8):
        """Centered advection, no forcing: the audited energy identity holds
        at solver precision and the energy decays."""
        problem = make_problem("mms_b", mesh8, {"gravity": 0.0})
        cfg = SolverConfig(dt=0.01, t_end=0.05)
        result = run_simulation(problem, cfg)
        energies = [rec.kinetic_energy for rec in result.records]
        for rec in result.records:
            assert abs(rec.energy_residual) <= 10 * cfg.picard_tol
        assert energies[-1] < energies[0]

    def test_bv_accumulator_monotone(self, mesh8):
        problem = make_problem("mms_b", mesh8)
        cfg = SolverConfig(dt=0.01, t_end=0.05)
        result = run_simulation(problem, cfg)
        assert all(rec.bv_increment >= 0.0 for rec in result.records)
        total = sum(rec.bv_increment for rec in result.records)
        assert result.bv_accumulated == pytest.approx(total)
        # the telescoped identity bounds the accumulated sum by ||rho^0||^2
        assert result.bv_accumulated <= result.initial_rho_l2 ** 2

    def test_velocity_estimate_bounds(self, mesh8):
        problem = make_problem("mms_b", mesh8)
        cfg = SolverConfig(dt=0.01, t_end=0.05)
        result = run_simulation(problem, cfg)
        est = verification.velocity_estimate_bounds(result, problem.mu_law)
        assert est["linf_l2_satisfied"]
        assert est["l2_h1_satisfied"]
        assert est["linf_l2_lhs"] > 0.0 and est["l2_h1_lhs"] > 0.0
