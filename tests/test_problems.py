import numpy as np
import pytest

from macflow.mesh import AxisPartition, build_mesh
from macflow.problems import (_PROBLEMS, constant_viscosity,
                              linear_viscosity, make_problem, table_viscosity,
                              viscosity_from_params)


@pytest.fixture(scope="module")
def unit_square():
    return build_mesh([AxisPartition.uniform(0, 1, 8)] * 2)


class TestViscosityLaws:
    def test_constant(self):
        law = constant_viscosity(0.3)
        assert np.allclose(law(np.array([1.0, 2.0])), 0.3)
        with pytest.raises(ValueError):
            constant_viscosity(-1.0)

    def test_linear(self):
        law = linear_viscosity(0.1, 0.05)
        assert law(np.array([2.0]))[0] == pytest.approx(0.2)

    def test_table(self):
        law = table_viscosity([1.0, 2.0, 3.0], [0.1, 0.4, 0.2])
        assert law(np.array([1.5]))[0] == pytest.approx(0.25)
        with pytest.raises(ValueError):
            table_viscosity([2.0, 1.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            table_viscosity([1.0, 2.0], [0.1, -0.2])

    def test_law_selection_from_params(self, unit_square):
        problem = make_problem(
            "mms_b", unit_square,
            {"mu_law": {"type": "table", "rho": [1.0, 2.0], "mu": [0.1, 0.3]}})
        assert problem.mu_law(np.array([1.5]))[0] == pytest.approx(0.2)
        problem = make_problem("mms_a", unit_square,
                               {"mu_law": {"type": "constant", "value": 1.0}})
        assert problem.mu_law(np.array([1.5]))[0] == 1.0
        with pytest.raises(ValueError, match="unknown viscosity law"):
            make_problem("mms_b", unit_square, {"mu_law": {"type": "cubic"}})


class TestDeclaredParameters:
    """A problem takes exactly its declared parameters; from code, omitted
    ones take their declared defaults."""

    def test_omitted_parameters_take_declared_defaults(self, unit_square):
        x = np.linspace(0.1, 0.9, 7)
        partial = make_problem("mms_b", unit_square, {"gravity": 2})
        full = make_problem("mms_b", unit_square, {
            "velocity_amplitude": 5.0, "gravity": 2.0,
            "mu_law": {"type": "linear", "a": 0.1, "b": 0.05}})
        for u, v in zip(partial.u0, full.u0):
            assert np.array_equal(u(x, x), v(x, x))
        assert np.array_equal(partial.forcing[1](0.0, x, x),
                              full.forcing[1](0.0, x, x))
        assert np.array_equal(partial.mu_law(x), full.mu_law(x))

    @pytest.mark.parametrize("name", ["mms_a", "mms_b", "rayleigh_taylor",
                                      "quiescent"])
    def test_undeclared_parameter_rejected(self, unit_square, name):
        with pytest.raises(ValueError,
                           match=r"problem\.params\.strech: unknown key"):
            make_problem(name, unit_square, {"strech": 3.0})

    @pytest.mark.parametrize("value", [True, "2.0", None, [2.0]])
    def test_parameter_must_be_a_number(self, unit_square, value):
        with pytest.raises(ValueError,
                           match=r"problem\.params\.gravity: expected number"):
            make_problem("mms_b", unit_square, {"gravity": value})

    @pytest.mark.parametrize("law, message", [
        ({"type": "constant"}, r"mu_law\.value: missing required key"),
        ({"type": "linear", "a": 0.1, "b": True}, r"mu_law\.b: expected number"),
        ({"type": "table", "rho": [1.0, "2"], "mu": [0.1, 0.2]},
         r"mu_law\.rho\[1\]: expected number"),
        ({"value": 1.0}, "unknown viscosity law type None"),
    ])
    def test_mu_law_keys_are_checked(self, unit_square, law, message):
        with pytest.raises(ValueError, match=message):
            make_problem("quiescent", unit_square, {"mu_law": law})


class TestViscosityParameter:
    """``mu_law`` is each problem's one viscosity parameter, and its declared
    default is the law the problem used before it was the only one."""

    @pytest.mark.parametrize("name, law", [
        ("mms_a", constant_viscosity(0.1)),
        ("mms_b", linear_viscosity(0.1, 0.05)),
        ("rayleigh_taylor", linear_viscosity(0.1, 0.05)),
        ("quiescent", constant_viscosity(1.0)),
    ], ids=["mms_a", "mms_b", "rayleigh_taylor", "quiescent"])
    def test_default_law(self, unit_square, name, law):
        rho = np.random.default_rng(5).uniform(0.5, 4.0, 64)
        declared = _PROBLEMS[name][1]["mu_law"][1]
        assert np.array_equal(
            viscosity_from_params({"mu_law": declared})(rho), law(rho))
        assert np.array_equal(make_problem(name, unit_square).mu_law(rho),
                              law(rho))

    @pytest.mark.parametrize("name", ["mms_a", "mms_b", "rayleigh_taylor",
                                      "quiescent"])
    def test_null_law_is_a_type_error(self, unit_square, name):
        with pytest.raises(ValueError,
                           match=r"problem\.params\.mu_law: expected dict"):
            make_problem(name, unit_square, {"mu_law": None})

    def test_mms_a_takes_only_a_constant_law(self, unit_square):
        with pytest.raises(ValueError, match="constant viscosity"):
            make_problem("mms_a", unit_square,
                         {"mu_law": {"type": "linear", "a": 0.1, "b": 0.05}})


class TestRegistry:
    def test_unknown_problem(self, unit_square):
        with pytest.raises(ValueError, match="unknown problem"):
            make_problem("nonsense", unit_square)

    def test_mms_requires_unit_square(self):
        mesh = build_mesh([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="unit square"):
            make_problem("mms_a", mesh)


def _fd_grad(fn, t, x, y, h=1e-4):
    # 4th-order central differences
    def d(axis):
        if axis == 0:
            return (fn(t, x - 2 * h, y) - 8 * fn(t, x - h, y)
                    + 8 * fn(t, x + h, y) - fn(t, x + 2 * h, y)) / (12 * h)
        return (fn(t, x, y - 2 * h) - 8 * fn(t, x, y - h)
                + 8 * fn(t, x, y + h) - fn(t, x, y + 2 * h)) / (12 * h)
    return d(0), d(1)


def _fd_lap(fn, t, x, y, h=1e-4):
    return ((-fn(t, x + 2 * h, y) + 16 * fn(t, x + h, y) - 30 * fn(t, x, y)
             + 16 * fn(t, x - h, y) - fn(t, x - 2 * h, y)) / (12 * h * h)
            + (-fn(t, x, y + 2 * h) + 16 * fn(t, x, y + h) - 30 * fn(t, x, y)
               + 16 * fn(t, x, y - h) - fn(t, x, y - 2 * h)) / (12 * h * h))


def _fd_dt(fn, t, x, y, h=1e-5):
    return (fn(t - 2 * h, x, y) - 8 * fn(t - h, x, y)
            + 8 * fn(t + h, x, y) - fn(t + 2 * h, x, y)) / (12 * h)


class TestManufacturedSolutionA:
    """Cross-check the closed-form forcing against high-order finite
    differences of the analytic fields before trusting it anywhere."""

    def setup_method(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 4)] * 2)
        self.problem = make_problem("mms_a", mesh, {
            "rho": 1.0, "mu_law": {"type": "constant", "value": 0.1}})
        rng = np.random.default_rng(7)
        self.pts = rng.uniform(0.2, 0.8, size=(40, 2))
        self.t = 0.37

    def test_velocity_vanishes_on_boundary(self):
        u1, u2 = self.problem.exact.u
        s = np.linspace(0.0, 1.0, 33)
        for edge_x, edge_y in (((0.0 * s), s), ((1.0 + 0 * s), s),
                               (s, 0.0 * s), (s, 1.0 + 0 * s)):
            assert np.allclose(u1(self.t, edge_x, edge_y), 0.0, atol=1e-14)
            assert np.allclose(u2(self.t, edge_x, edge_y), 0.0, atol=1e-14)

    def test_velocity_divergence_free(self):
        u1, u2 = self.problem.exact.u
        x, y = self.pts[:, 0], self.pts[:, 1]
        d1x, _ = _fd_grad(u1, self.t, x, y)
        _, d2y = _fd_grad(u2, self.t, x, y)
        assert np.max(np.abs(d1x + d2y)) <= 1e-9

    def test_forcing_matches_finite_differences(self):
        u1, u2 = self.problem.exact.u
        p = self.problem.exact.p
        rho, mu = 1.0, 0.1
        x, y = self.pts[:, 0], self.pts[:, 1]
        t = self.t
        for comp, f_closed in ((0, self.problem.forcing[0]),
                               (1, self.problem.forcing[1])):
            ui = (u1, u2)[comp]
            dudt = _fd_dt(ui, t, x, y)
            dx, dy = _fd_grad(ui, t, x, y)
            conv = u1(t, x, y) * dx + u2(t, x, y) * dy
            lap = _fd_lap(ui, t, x, y)
            px, py = _fd_grad(p, t, x, y)
            gradp = (px, py)[comp]
            expected = rho * (dudt + conv) - 0.5 * mu * lap + gradp
            got = f_closed(t, x, y)
            assert np.max(np.abs(got - expected)) <= 1e-7

    def test_constant_law_value_reaches_forcing(self):
        """Only the viscous term -mu/2 lap u of the forcing depends on mu."""
        other = make_problem("mms_a", self.problem.mesh,
                             {"mu_law": {"type": "constant", "value": 0.7}})
        assert np.all(other.mu_law(np.array([1.0, 2.0])) == 0.7)
        x, y = self.pts[:, 0], self.pts[:, 1]
        for comp in range(2):
            lap = _fd_lap(self.problem.exact.u[comp], self.t, x, y)
            diff = (other.forcing[comp](self.t, x, y)
                    - self.problem.forcing[comp](self.t, x, y))
            assert np.max(np.abs(diff + 0.5 * (0.7 - 0.1) * lap)) <= 1e-7

    def test_pressure_mean_zero_analytically(self):
        # int sin(pi x) cos(pi y) over the unit square vanishes
        mesh = self.problem.mesh
        from macflow.fields import project_cell
        p = project_cell(mesh, lambda x, y: self.problem.exact.p(0.0, x, y))
        assert abs(np.dot(mesh.cell_volumes.ravel(), p.values)) <= 1e-14


class TestManufacturedSolutionB:
    def test_density_positive_and_velocity_boundary(self, unit_square):
        problem = make_problem("mms_b", unit_square)
        x = np.linspace(0, 1, 50)
        X, Y = np.meshgrid(x, x)
        assert problem.rho0(X, Y).min() >= 1.0 - 1e-12
        assert problem.rho0(X, Y).max() <= 2.0 + 1e-12
        s = np.linspace(0, 1, 20)
        for u in problem.u0:
            assert np.allclose(u(0 * s, s), 0.0, atol=1e-14)
            assert np.allclose(u(s, 1 + 0 * s), 0.0, atol=1e-14)

    def test_forcing_time_independent(self, unit_square):
        problem = make_problem("mms_b", unit_square)
        assert problem.time_independent_forcing
        f = problem.forcing[1]
        x = np.array([0.3])
        assert f(0.0, x, x) == f(17.0, x, x)


class TestRayleighTaylor:
    def test_heavy_over_light(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8),
                           AxisPartition.uniform(0, 2, 16)])
        problem = make_problem("rayleigh_taylor", mesh)
        x = np.full(5, 0.3)
        assert np.all(problem.rho0(x, np.full(5, 1.9)) > 2.5)
        assert np.all(problem.rho0(x, np.full(5, 0.1)) < 1.5)

    def test_perturbation_velocity_is_solenoidal(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 8),
                           AxisPartition.uniform(0, 2, 16)])
        problem = make_problem("rayleigh_taylor", mesh,
                               {"perturbation": 1.0, "gravity": 0.0})
        assert problem.forcing is None
        u1, u2 = problem.u0
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 0.9, 30)
        y = rng.uniform(0.2, 1.8, 30)
        h = 1e-5

        def fd_div(x, y):
            return ((u1(x + h, y) - u1(x - h, y)) / (2 * h)
                    + (u2(x, y + h) - u2(x, y - h)) / (2 * h))

        assert np.max(np.abs(fd_div(x, y))) <= 1e-8

    def test_invalid_densities_rejected(self):
        mesh = build_mesh([AxisPartition.uniform(0, 1, 4),
                           AxisPartition.uniform(0, 2, 8)])
        with pytest.raises(ValueError):
            make_problem("rayleigh_taylor", mesh,
                         {"rho_light": 2.0, "rho_heavy": 1.0})


class TestForcingProjection:
    def test_slab_average_of_linear_in_time(self, unit_square):
        """For forcing linear in t the slab average equals the midpoint
        value, not the endpoint one."""
        problem = make_problem("quiescent", unit_square)
        problem.forcing = (lambda t, x, y: t * np.ones_like(x),
                           lambda t, x, y: 0.0 * x)
        from macflow.solver import SolverConfig
        cfg = SolverConfig(dt=0.2, t_end=0.2, forcing_time="slab_average")
        f = problem.forcing_faces(0.2, cfg)
        interior = unit_square.interior_mask(0)
        assert np.allclose(f[0][interior], 0.1, atol=1e-14)
        cfg = SolverConfig(dt=0.2, t_end=0.2, forcing_time="endpoint")
        f = problem.forcing_faces(0.2, cfg)
        assert np.allclose(f[0][interior], 0.2, atol=1e-14)
