"""Finite-volume solver for incompressible flow with variable density and
viscosity on staggered non-uniform Cartesian grids, plus an executable
verification suite for the discrete structure (dualities, Korn/Poincare,
maximum principle, energy balance)."""

from .mesh import (AxisPartition, DualFace, MacMesh, MeshError, MeshMetrics,
                   build_mesh, dual_faces_of, mesh_metrics)
from .fields import (CellScalarField, DualGridField, FieldError,
                     QuadratureError, VelocityField, norm_h1, norm_l2,
                     norm_lp, project_cell, project_face,
                     reconstruct_cell_to_face, reconstruct_face_to_cell,
                     reconstruct_face_to_pair, velocity_inner)
from .solver import (PicardDivergenceError, SimulationResult, SolverConfig,
                     SolverError, StepSolver, TimeState, TransportSolveError,
                     advance_timestep, initial_state, run_simulation,
                     transport_solve)
from .problems import (Problem, constant_viscosity, linear_viscosity,
                       make_problem, table_viscosity)
from .verification import (DiagnosticsRecord, check_dualities, check_fortin,
                           check_inequalities, step_audit)

__version__ = "0.1.0"
