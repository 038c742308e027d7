"""Batch entry point: run, convergence, verify.

Exit codes: 0 success, 2 configuration error (a viscosity law that is
non-positive on the run's densities is one), 3 solver failure, 4
verification failure.
"""

import argparse
import os
import sys

import numpy as np

from . import operators as ops
from .config import ConfigError, load_config
from .convergence import convergence_study
from .output import (DiagnosticsCsvWriter, report_summary, write_report_csv,
                     write_staggered_csv, write_vtk_rectilinear)
from .solver import SolverError, run_simulation
from .verification import (EXACT_IDENTITY_TOL, check_dualities, check_fortin,
                           check_inequalities)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


def _add_common(parser):
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--output-dir", default=".", help="directory for outputs")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macflow",
        description="Staggered-grid implicit solver for variable-density "
                    "incompressible flow, with an executable verification "
                    "suite for its discrete structure.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    _add_common(p_run)

    p_conv = sub.add_parser("convergence", help="refinement study")
    _add_common(p_conv)
    p_conv.add_argument("--levels", type=int, default=None,
                        help="run only the first K configured levels (K >= 3)")

    p_ver = sub.add_parser("verify", help="run the identity/inequality suites")
    _add_common(p_ver)
    p_ver.add_argument("--trials", type=int, default=100,
                       help="random trials per identity")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for randomized verification trials")

    return parser


def _cmd_run(args):
    setup = load_config(args.config)
    os.makedirs(args.output_dir, exist_ok=True)
    outdir = args.output_dir
    out = setup.output

    if out["dump_operators"]:
        mesh = setup.mesh
        dofs = ops.FaceDofMap(mesh)
        ops.dump_matrix_coo(ops.divergence_matrix(mesh, dofs),
                            os.path.join(outdir, "divergence.coo"))
        ops.dump_matrix_coo(ops.pressure_gradient_matrix(mesh, dofs),
                            os.path.join(outdir, "pressure_gradient.coo"))
        from .fields import CellScalarField
        rho = CellScalarField(mesh, np.ones(mesh.n_cells))
        mu_t = ops.viscosity_tensor(rho, setup.problem.mu_law)
        ops.dump_matrix_coo(ops.diffusion_matrix(mesh, mu_t, dofs),
                            os.path.join(outdir, "diffusion.coo"))

    def snapshot(state, step):
        tag = f"{out['snapshot_prefix']}_{step:06d}"
        if out["vtk"]:
            write_vtk_rectilinear(state, os.path.join(outdir, f"{tag}.vtk"))
        if out["staggered"]:
            write_staggered_csv(state, os.path.join(outdir, f"{tag}_staggered.csv"))

    diag_path = os.path.join(outdir, out["diagnostics"])
    with DiagnosticsCsvWriter(diag_path) as sink:
        try:
            result = run_simulation(setup.problem, setup.solver,
                                    diagnostics_sink=sink,
                                    snapshot_writer=snapshot)
        except SolverError as exc:
            step = getattr(exc, "step", "?")
            print(f"solver failure at step {step}: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    violations = sorted({v for rec in result.records for v in rec.violations})
    errors = setup.problem.errors_vs_exact(result.final_state)
    print(f"completed {len(result.records)} steps to t={result.final_state.t:g}; "
          f"diagnostics in {diag_path}")
    from .verification import velocity_estimate_bounds
    est = velocity_estimate_bounds(result, setup.problem.mu_law)
    print("a-priori velocity estimates: "
          f"L-inf(L2) {est['linf_l2_lhs']:.4e} <= {est['linf_l2_bound']:.4e} "
          f"({'ok' if est['linf_l2_satisfied'] else 'VIOLATED'}); "
          f"L2(H1) {est['l2_h1_lhs']:.4e} <= {est['l2_h1_bound']:.4e} "
          f"({'ok' if est['l2_h1_satisfied'] else 'VIOLATED'})")
    if errors is not None:
        print("errors vs analytic solution: "
              + ", ".join(f"{k}={v:.6e}" for k, v in errors.items()))
        with open(os.path.join(outdir, "errors.csv"), "w") as fh:
            fh.write("field,l2_error\n")
            for k, v in errors.items():
                fh.write(f"{k},{v:.17g}\n")
    if violations:
        print("flagged invariant violations: " + ", ".join(violations),
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_convergence(args):
    setup = load_config(args.config)
    levels = None
    if args.levels is not None and setup.convergence is not None:
        levels = setup.convergence["levels"]
        if not 3 <= args.levels <= len(levels):
            raise ConfigError("--levels", "a study runs from 3 to the "
                              f"{len(levels)} configured levels")
        levels = levels[:args.levels]
    os.makedirs(args.output_dir, exist_ok=True)
    try:
        table = convergence_study(setup, levels,
                                  progress=lambda msg: print(msg, flush=True))
    except SolverError as exc:
        print(f"solver failure during study: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(table.format())
    path = os.path.join(args.output_dir, "convergence.csv")
    with open(path, "w") as fh:
        fh.write("n,h,dt,err_u,err_p,err_rho,bv_sum,h1_time_integral,max_u_l2\n")
        for lv in table.levels:
            fh.write(f"{lv.n},{lv.h:.17g},{lv.dt:.17g},{lv.errors['u']:.17g},"
                     f"{lv.errors['p']:.17g},{lv.errors['rho']:.17g},"
                     f"{lv.bv_sum:.17g},{lv.h1_time_integral:.17g},"
                     f"{lv.max_u_l2:.17g}\n")
    print(f"table written to {path}")
    return EXIT_OK


def _cmd_verify(args):
    if args.trials < 1:
        raise ConfigError("--trials", "need at least 1 random trial")
    setup = load_config(args.config)
    mesh = setup.mesh
    os.makedirs(args.output_dir, exist_ok=True)
    dualities = check_dualities(mesh, trials=args.trials, seed=args.seed)
    inequalities = check_inequalities(mesh, trials=max(args.trials, 100),
                                      seed=args.seed + 1)
    fortin = check_fortin(mesh)
    report = {**dualities, **fortin, **inequalities, "seed": float(args.seed)}
    thresholds = {
        "div_grad_duality": EXACT_IDENTITY_TOL,
        "diffusion_duality": EXACT_IDENTITY_TOL,
        "convection_duality": EXACT_IDENTITY_TOL,
        "trilinear_two_path": EXACT_IDENTITY_TOL,
        "dual_mass_balance": EXACT_IDENTITY_TOL,
        "korn_identity": EXACT_IDENTITY_TOL,
        "h1_norm_gradient": EXACT_IDENTITY_TOL,
        "fortin_divergence_free": EXACT_IDENTITY_TOL,
        "fortin_commutes": EXACT_IDENTITY_TOL,
        "korn_ratio_max": np.sqrt(2.0) + 1e-12,
        "poincare_ratio_max": mesh.diameter + 1e-12,
        "viscosity_bound_violation": 1e-12,
        "cell_face_reconstruction_ratio_max": 1.0 + 1e-12,
        "face_cell_reconstruction_ratio_max": 1.0 + 1e-12,
        "pair_reconstruction_ratio_max": 1.0 + 1e-12,
    }
    text, ok = report_summary(f"verification on {mesh!r}", report, thresholds)
    print(text)
    write_report_csv(report, os.path.join(args.output_dir, "verification.csv"))
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "convergence":
            return _cmd_convergence(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ops.ViscosityError as exc:
        # transport answers are checked finite before the law sees them, so
        # only the configured law itself can give non-positive viscosities
        print(f"configuration error: problem.params.mu_law: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
