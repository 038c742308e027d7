"""Acceptance gate: every criterion is exercised at its stated tolerance and
prints one pass/fail line.  Shared heavy runs (Rayleigh-Taylor, the MMS-B
reference study) live in module-scoped fixtures."""

import csv
import math
import os
import time

import numpy as np
import pytest

from macflow import operators as ops
from macflow.cli import main
from macflow.config import load_config
from macflow.convergence import ERROR_FLOOR, convergence_study
from macflow.fields import CellScalarField, VelocityField
from macflow.mesh import AxisPartition, build_mesh
from macflow.solver import run_simulation, transport_solve
from macflow.verification import check_dualities, check_inequalities

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
RNG_SEED = 2024


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mesh33():
    return build_mesh([[0.0, 0.2, 0.5, 1.0], [0.0, 0.4, 0.7, 1.0]])


@pytest.fixture(scope="module")
def mesh345():
    """Stretched 3d grid: every cross-axis pair has its own anisotropy."""
    return build_mesh([AxisPartition.geometric(0.0, 1.0, 3, 2.0),
                       AxisPartition.geometric(0.0, 1.0, 4, 3.0),
                       AxisPartition.geometric(0.0, 1.0, 5, 1.5)])


@pytest.fixture(scope="module")
def rt_results():
    """Rayleigh-Taylor invariants run (gravity) and the decay variant
    (zero forcing, seeded velocity) on the 32x64 grid, 100 steps each."""
    t0 = time.time()
    out = {}
    for tag, name in (("forced", "rayleigh-taylor.json"),
                      ("decay", "rayleigh-taylor-decay.json")):
        setup = load_config(os.path.join(CONFIGS, name))
        out[tag] = (setup, run_simulation(setup.problem, setup.solver))
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def mms_tables():
    """Criterion 5/6 refinement data: the MMS-A analytic study and the MMS-B
    study against the 256^2 reference."""
    t0 = time.time()
    table_a = convergence_study(load_config(os.path.join(CONFIGS, "mms-a.json")))
    table_b = convergence_study(load_config(os.path.join(CONFIGS, "mms-b.json")))
    return {"a": table_a, "b": table_b, "elapsed": time.time() - t0}


class TestCriterion1ExactIdentities:
    def test_exact_identity_suite(self):
        t0 = time.time()
        names = ("div_grad_duality", "diffusion_duality", "convection_duality",
                 "trilinear_two_path", "dual_mass_balance")
        worst = {}
        grids = {
            "uniform 8x8": build_mesh([AxisPartition.uniform(0, 1, 8)] * 2),
            "stretched 16x16": build_mesh(
                [AxisPartition.geometric(0, 1, 16, 3.0)] * 2),
        }
        for label, mesh in grids.items():
            report = check_dualities(mesh, trials=100, seed=RNG_SEED)
            for name in names:
                worst[name] = max(worst.get(name, 0.0), report[name])
        elapsed = time.time() - t0
        bad = {k: v for k, v in worst.items() if v > 1e-12}
        _report("criterion 1 (exact identities)",
                not bad and elapsed < 10.0,
                f"max residuals {max(worst.values()):.2e} <= 1e-12 over "
                f"100 trials x {len(grids)} grids in {elapsed:.1f}s"
                + (f"; violations {bad}" if bad else ""))


class TestCriterion2Inequalities:
    def test_inequality_suite(self):
        t0 = time.time()
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        report = check_inequalities(mesh, trials=1000, seed=RNG_SEED)
        elapsed = time.time() - t0
        korn_ok = report["korn_ratio_max"] <= math.sqrt(2.0) + 1e-12
        poincare_ok = report["poincare_ratio_max"] <= mesh.diameter + 1e-12
        visc_ok = report["viscosity_bound_violation"] <= 1e-12
        _report("criterion 2 (inequalities)",
                korn_ok and poincare_ok and visc_ok and elapsed < 10.0,
                f"korn {report['korn_ratio_max']:.12f} <= sqrt(2), "
                f"poincare {report['poincare_ratio_max']:.6f} <= "
                f"{mesh.diameter:.6f}, viscosity-bound violation "
                f"{report['viscosity_bound_violation']:.2e}, 1000 trials in "
                f"{elapsed:.1f}s")


class TestCriteria1And2In3d:
    def test_verify_on_anisotropic_stretched_3d(self, tmp_path):
        # `macflow verify` at its default trial counts and its thresholds,
        # those of 2d, on a mesh stretched differently along every axis
        t0 = time.time()
        code = main(["verify", "--config",
                     os.path.join(CONFIGS, "verify-3d-stretched.json"),
                     "--seed", str(RNG_SEED), "--output-dir", str(tmp_path)])
        elapsed = time.time() - t0
        with open(tmp_path / "verification.csv", newline="") as fh:
            report = {row["check"]: float(row["value"])
                      for row in csv.DictReader(fh)}
        identities = ("div_grad_duality", "diffusion_duality",
                      "convection_duality", "trilinear_two_path",
                      "dual_mass_balance", "korn_identity",
                      "h1_norm_gradient", "fortin_divergence_free",
                      "fortin_commutes")
        worst = max(report[name] for name in identities)
        _report("criteria 1-2 in 3d (verify, stretched 8x6x10)",
                code == 0 and elapsed < 30.0,
                f"exit {code}, worst identity {worst:.2e} <= 1e-12, korn "
                f"{report['korn_ratio_max']:.4f} <= sqrt(2), in "
                f"{elapsed:.1f}s")


def _dense_from_apply(apply_fn, n_in, n_out):
    out = np.zeros((n_out, n_in))
    for k in range(n_in):
        e = np.zeros(n_in)
        e[k] = 1.0
        out[:, k] = apply_fn(e)
    return out


class TestCriterion3OracleEquivalence:
    @pytest.mark.parametrize("mesh_name", ["mesh33", "mesh345"])
    def test_assembled_matrices_match_applies(self, mesh_name, request):
        mesh = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(RNG_SEED)
        dofs = ops.FaceDofMap(mesh)
        rho = CellScalarField(mesh, rng.uniform(1.0, 2.0, mesh.n_cells))
        adv = VelocityField.from_interior(
            mesh, [rng.uniform(-1, 1, mesh.faces_shape(i))
                   for i in range(mesh.dim)])
        mu_t = ops.viscosity_tensor(rho, lambda r: 0.1 + 0.2 * r)
        fluxes = ops.mass_fluxes(rho, adv)

        def vel_apply(op):
            def fn(vec):
                u = VelocityField(mesh, dofs.unpack(vec))
                res = op(u)
                return dofs.pack([res.shaped(i) for i in range(mesh.dim)])
            return fn

        pairs = {
            "divergence": (
                ops.divergence_matrix(mesh, dofs).toarray(),
                _dense_from_apply(
                    lambda v: ops.divergence(
                        VelocityField(mesh, dofs.unpack(v))).values,
                    dofs.n_dofs, mesh.n_cells)),
            "pressure_gradient": (
                ops.pressure_gradient_matrix(mesh, dofs).toarray(),
                _dense_from_apply(
                    lambda q: dofs.pack([
                        ops.pressure_gradient(CellScalarField(mesh, q))
                        .shaped(i) for i in range(mesh.dim)]),
                    mesh.n_cells, dofs.n_dofs)),
            "diffusion": (
                ops.diffusion_matrix(mesh, mu_t, dofs).toarray(),
                _dense_from_apply(vel_apply(
                    lambda u: ops.diffusion_apply(mu_t, u)),
                    dofs.n_dofs, dofs.n_dofs)),
            "convection_centered": (
                ops.convection_matrix(fluxes, "centered", dofs).toarray(),
                _dense_from_apply(vel_apply(
                    lambda u: ops.convection_apply(fluxes, u, "centered")),
                    dofs.n_dofs, dofs.n_dofs)),
            "convection_upwind": (
                ops.convection_matrix(fluxes, "upwind", dofs).toarray(),
                _dense_from_apply(vel_apply(
                    lambda u: ops.convection_apply(fluxes, u, "upwind")),
                    dofs.n_dofs, dofs.n_dofs)),
            "transport": (
                ops.transport_matrix(mesh, adv).toarray(),
                _dense_from_apply(
                    lambda q: ops.mass_divergence(ops.primal_fluxes(
                        CellScalarField(mesh, q), adv)).values,
                    mesh.n_cells, mesh.n_cells)),
        }
        worst = {name: np.max(np.abs(a - b)) for name, (a, b) in pairs.items()}
        _report(f"criterion 3a (matrix vs matrix-free, {mesh})",
                max(worst.values()) <= 1e-13,
                "max abs diff " + ", ".join(f"{k}={v:.1e}"
                                            for k, v in worst.items()))

    def test_diffusion_matrix_symmetric(self, mesh33):
        rng = np.random.default_rng(RNG_SEED + 1)
        rho = CellScalarField(mesh33, rng.uniform(1.0, 2.0, mesh33.n_cells))
        mu_t = ops.viscosity_tensor(rho, lambda r: r)
        dofs = ops.FaceDofMap(mesh33)
        # rows scaled by |D_sigma|: the matrix of the bilinear form
        vol = dofs.pack([mesh33.dual_volumes(i) for i in range(mesh33.dim)])
        mat = vol[:, None] * ops.diffusion_matrix(mesh33, mu_t, dofs).toarray()
        asym = np.max(np.abs(mat - mat.T))
        scale = np.max(np.abs(mat))
        _report("criterion 3b (diffusion symmetry)", asym <= 1e-12 * scale,
                f"max asymmetry {asym:.2e} (scale {scale:.2e})")

    def test_transport_against_hand_built_solve(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 2)] * 2)
        dt = 0.1
        rho_n = CellScalarField(mesh, [1.0, 2.0, 3.0, 4.0])
        comps = [np.zeros(mesh.faces_shape(i)) for i in range(2)]
        comps[0][1, 0], comps[0][1, 1] = 0.8, -0.8
        comps[1][1, 1], comps[1][0, 1] = 0.8, -0.8
        u = VelocityField.from_interior(mesh, comps)
        out = transport_solve(rho_n, u, dt)
        # hand-built dense system: row K: (|K|/dt) rho_K + upwind flux terms
        A = np.zeros((4, 4))
        b = rho_n.values * 0.25 / dt
        cells = np.arange(4).reshape(2, 2)
        for cx in range(2):
            for cy in range(2):
                k = cells[cx, cy]
                A[k, k] += 0.25 / dt
                for i in range(2):
                    us = u.shaped(i)
                    for side, sgn in ((0, -1.0), (1, 1.0)):
                        fidx = [cx, cy]
                        fidx[i] += side
                        un = sgn * us[tuple(fidx)]     # outward velocity
                        nb = [cx, cy]
                        nb[i] += 1 if side == 1 else -1
                        if un >= 0:
                            A[k, k] += 0.5 * un
                        elif 0 <= nb[i] < 2:
                            A[k, cells[tuple(nb)]] += 0.5 * un
        expected = np.linalg.solve(A, b)
        diff = np.max(np.abs(out.values - expected))
        _report("criterion 3c (4-cell transport oracle)", diff <= 1e-12,
                f"max abs diff {diff:.2e}")


class TestCriterion4TimeSteppingInvariants:
    def test_rayleigh_taylor_invariants(self, rt_results):
        setup, result = rt_results["forced"]
        records = result.records
        ok = len(records) == 100
        details = [f"{len(records)} steps"]
        lo, hi = result.final_state.rho_bounds
        span = max(abs(lo), abs(hi))
        drift_lo = max(0.0, lo - min(r.rho_min for r in records)) / span
        drift_hi = max(0.0, max(r.rho_max for r in records) - hi) / span
        ok &= drift_lo <= 1e-12 and drift_hi <= 1e-12
        details.append(f"density bound drift {max(drift_lo, drift_hi):.1e}")
        masses = [r.total_mass for r in records]
        mass_drift = (max(masses) - min(masses)) / abs(masses[0])
        ok &= mass_drift <= 1e-12
        details.append(f"mass drift {mass_drift:.1e}")
        ident = max(r.rho_identity_residual for r in records)
        ok &= ident <= 10 * setup.solver.linear_tol
        details.append(f"rho L2 identity {ident:.1e}")
        div_max = max(r.div_max for r in records)
        ok &= div_max <= 1e-10
        details.append(f"div_max {div_max:.1e}")
        ok &= all(r.violations == () for r in records)
        ok &= rt_results["elapsed"] < 300.0
        details.append(f"both runs in {rt_results['elapsed']:.0f}s")
        _report("criterion 4a (Rayleigh-Taylor invariants)", ok,
                "; ".join(details))

    def test_energy_decay_without_forcing(self, rt_results):
        setup, result = rt_results["decay"]
        assert setup.solver.advection_scheme == "centered"
        assert setup.problem.forcing is None
        from macflow.solver import initial_state
        from macflow.verification import kinetic_energy
        state0 = initial_state(setup.mesh, setup.problem.rho0,
                               setup.problem.u0, setup.solver.quadrature_order)
        e0 = kinetic_energy(list(state0.rho_dual), state0.u)
        tol = 10 * setup.solver.picard_tol * max(e0, 1.0)
        dissipated = 0.0
        worst = -np.inf
        for rec in result.records:
            dissipated += setup.solver.dt * rec.dissipation
            worst = max(worst, rec.kinetic_energy + dissipated - e0)
        _report("criterion 4b (energy + dissipation non-increasing)",
                worst <= tol,
                f"max(E^n + sum dt*D - E^0) = {worst:.3e} <= {tol:.1e}; "
                f"E0={e0:.3e}, final E={result.records[-1].kinetic_energy:.3e}")


class TestCriterion5Convergence:
    def test_mms_a_orders(self, mms_tables):
        table = mms_tables["a"]
        errs_u = [lv.errors["u"] for lv in table.levels]
        errs_p = [lv.errors["p"] for lv in table.levels]
        errs_rho = [lv.errors["rho"] for lv in table.levels]
        order_u = table.orders["u"]
        ok = order_u is not None and order_u >= 0.9
        p_monotone = all(a > b for a, b in zip(errs_p, errs_p[1:]))
        ok &= p_monotone
        # constant-density transport is exact: density errors sit at the
        # roundoff floor, which counts as converged; otherwise they must drop
        rho_ok = all(e <= ERROR_FLOOR for e in errs_rho) or \
            all(a > b for a, b in zip(errs_rho, errs_rho[1:]))
        ok &= rho_ok
        _report("criterion 5a (MMS-A orders)", ok,
                f"velocity order {order_u:.3f} >= 0.9; pressure errors "
                f"{'monotone' if p_monotone else 'NOT monotone'} "
                f"{[f'{e:.2e}' for e in errs_p]}; density "
                + ("at roundoff floor" if all(e <= ERROR_FLOOR for e in errs_rho)
                   else "monotone"))

    def test_mms_b_errors_decrease(self, mms_tables):
        table = mms_tables["b"]
        ok = True
        details = []
        for key in ("u", "p", "rho"):
            errs = [lv.errors[key] for lv in table.levels]
            dec = all(a > b for a, b in zip(errs, errs[1:]))
            ok &= dec
            details.append(f"{key}: {[f'{e:.3e}' for e in errs]}"
                           + ("" if dec else " NOT DECREASING"))
        ok &= mms_tables["elapsed"] < 900.0
        details.append(f"studies in {mms_tables['elapsed']:.0f}s (< 900s)")
        _report("criterion 5b (MMS-B vs 256^2 reference)", ok,
                "; ".join(details))


class TestCriterion6BoundednessUnderRefinement:
    def test_bv_and_h1_bounded(self, mms_tables):
        table = mms_tables["b"]
        bv = [lv.bv_sum for lv in table.levels]
        h1 = [lv.h1_time_integral for lv in table.levels]
        bv_ratio = max(bv) / min(bv)
        h1_ratio = max(h1) / min(h1)
        ok = bv_ratio < 4.0 and h1_ratio < 4.0
        _report("criterion 6 (boundedness under refinement)", ok,
                f"BV sums {[f'{v:.3e}' for v in bv]} ratio {bv_ratio:.2f} < 4; "
                f"sum dt||u||^2 {[f'{v:.3e}' for v in h1]} ratio "
                f"{h1_ratio:.2f} < 4")
