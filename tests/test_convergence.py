import numpy as np
import pytest

from macflow.config import ConfigError, load_config
from macflow.convergence import (cell_field_difference, convergence_study,
                                 fit_order, velocity_difference)
from macflow.mesh import AxisPartition, build_mesh


def study_setup(name, levels, **convergence):
    """A 2d unit-square study of ``name`` with dt_coarsest 0.1 and t_end 0.2;
    ``convergence`` adds keys to that section."""
    return load_config({
        "mesh": {"axes": [{"n": 4}, {"n": 4}]},
        "problem": {"name": name},
        "solver": {"dt": 0.1, "t_end": 0.2},
        "convergence": {"levels": levels, "dt_coarsest": 0.1, "t_end": 0.2,
                        **convergence}})


class TestOverlapComparator:
    def test_coarse_vs_fine_known_value(self):
        coarse = build_mesh([[0.0, 1.0], [0.0, 1.0]])
        fine = build_mesh([[0.0, 0.5, 1.0], [0.0, 1.0]])
        # coarse constant a against fine (b, c): 0.5(a-b)^2 + 0.5(a-c)^2
        a, b, c = 2.0, 1.0, 4.0
        err = cell_field_difference(coarse, [a], fine, [b, c])
        assert err == pytest.approx(np.sqrt(0.5 * (a - b) ** 2
                                            + 0.5 * (a - c) ** 2))

    def test_same_mesh_difference_is_exact(self, mesh33, rng):
        vals = rng.uniform(-1, 1, mesh33.n_cells)
        other = vals + 0.25
        err = cell_field_difference(mesh33, vals, mesh33, other)
        assert err == pytest.approx(0.25)    # constant offset, |Omega| = 1

    def test_nonnested_meshes(self, rng):
        mesh_a = build_mesh([AxisPartition.uniform(0, 1, 3)] * 2)
        mesh_b = build_mesh([AxisPartition.uniform(0, 1, 5)] * 2)
        vals_a = np.ones(mesh_a.n_cells) * 2.0
        vals_b = np.ones(mesh_b.n_cells) * 2.0
        assert cell_field_difference(mesh_a, vals_a, mesh_b, vals_b) \
            == pytest.approx(0.0, abs=1e-14)

    def test_velocity_difference_zero_for_same_field(self, mesh33, rng):
        from conftest import random_velocity
        u = random_velocity(mesh33, rng)
        assert velocity_difference(mesh33, u, mesh33, u) == pytest.approx(0.0)

    def test_velocity_difference_projection_consistency(self):
        """Piecewise-constant representations of the same smooth field on
        nested meshes differ by O(h)."""
        from macflow.fields import project_face
        fns = [lambda x, y: np.sin(np.pi * x) * y * (1 - y),
               lambda x, y: 0.0 * x]
        coarse = build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)
        fine = build_mesh([AxisPartition.uniform(0, 1, 32)] * 2)
        u_c = project_face(coarse, fns)
        u_f = project_face(fine, fns)
        diff = velocity_difference(coarse, u_c, fine, u_f)
        assert 0.0 < diff < 0.1

    def test_mismatched_domain_rejected(self):
        mesh_a = build_mesh([[0.0, 1.0], [0.0, 1.0]])
        mesh_b = build_mesh([[0.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            cell_field_difference(mesh_a, [1.0], mesh_b, [1.0])


class TestOrderFit:
    def test_recovers_synthetic_order(self):
        hs = [0.1, 0.05, 0.025]
        errs = [3.0 * h ** 1.5 for h in hs]
        assert fit_order(hs, errs) == pytest.approx(1.5, abs=1e-12)

    def test_repeated_h_undefined(self):
        assert fit_order([0.1, 0.1, 0.05], [1.0, 1.0, 0.5]) is None

    def test_floor_undefined(self):
        assert fit_order([0.1, 0.05], [1e-15, 1e-16]) is None


class TestStudyDriver:
    def test_requires_three_levels(self):
        with pytest.raises(ValueError, match="3 levels"):
            convergence_study(study_setup("mms_a", [8, 16, 32]), levels=[8, 16])

    def test_reference_required_without_exact(self):
        with pytest.raises(ValueError, match="reference"):
            convergence_study(study_setup("mms_b", [4, 8, 16]))

    def test_repeated_level_flagged(self):
        table = convergence_study(study_setup("mms_a", [4, 8, 16]),
                                  levels=[4, 4, 8])
        assert table.orders["u"] is None
        assert any("repeated mesh size" in f for f in table.flags)
        assert "undefined" in table.format()

    def test_reference_level_rejected_with_exact_solution(self):
        with pytest.raises(ConfigError) as info:
            study_setup("mms_a", [4, 6, 8], reference_n=12)
        assert info.value.path == "convergence.reference_n"
