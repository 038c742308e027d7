import numpy as np
import pytest

from macflow.mesh import (AxisPartition, MeshError, build_mesh, dual_faces_of,
                          mesh_metrics)


class TestBuildMesh:
    def test_entity_counts(self):
        mesh = build_mesh([[0.0, 0.5, 1.0], [0.0, 1.0]])
        assert mesh.n_cells == 2
        assert mesh.n_faces(0) == 3
        assert mesh.n_faces(1) == 4

    def test_uniform_2x2_measures(self, mesh22):
        assert np.allclose(mesh22.cell_volumes, 0.25)
        dual = mesh22.dual_volumes(0)
        assert np.allclose(dual[1, :], 0.25)      # interior x-faces
        assert np.allclose(dual[0, :], 0.125)     # boundary half cells

    def test_nonuniform_dual_volume(self):
        mesh = build_mesh([[0.0, 0.25, 1.0], [0.0, 1.0]])
        # half cells 0.125 and 0.375 meet at the interior x-face
        assert mesh.dual_volumes(0)[1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(MeshError, match="axis 1"):
            build_mesh([[0.0, 1.0], [0.0, 0.5, 0.5, 1.0]])
        with pytest.raises(MeshError):
            AxisPartition([1.0, 0.0])
        with pytest.raises(MeshError):
            AxisPartition([0.0])

    def test_rejects_bad_dimension(self):
        with pytest.raises(MeshError):
            build_mesh([[0.0, 1.0]])

    def test_3d_construction(self):
        mesh = build_mesh([[0.0, 0.5, 1.0], [0.0, 1.0], [0.0, 0.25, 1.0]])
        assert mesh.dim == 3
        assert mesh.n_cells == 4
        assert mesh.cell_volumes.sum() == pytest.approx(1.0)
        for i in range(3):
            assert mesh.dual_volumes(i).sum() == pytest.approx(1.0)


class TestPartitions:
    """Measure partitions of the domain by every entity family."""

    @pytest.mark.parametrize("fixture", ["mesh22", "mesh33", "mesh_stretched"])
    def test_partition_of_unity(self, fixture, request):
        mesh = request.getfixturevalue(fixture)
        omega = mesh.domain_measure
        assert abs(mesh.cell_volumes.sum() - omega) <= 1e-12 * omega
        for i in range(mesh.dim):
            assert abs(mesh.dual_volumes(i).sum() - omega) <= 1e-12 * omega
            for j in range(mesh.dim):
                assert abs(mesh.pair_volumes(i, j).sum() - omega) <= 1e-12 * omega

    def test_pair_grids_symmetric(self, mesh33):
        for i in range(2):
            for j in range(2):
                assert mesh33.pair_shape(i, j) == mesh33.pair_shape(j, i)
                assert np.array_equal(mesh33.pair_volumes(i, j),
                                      mesh33.pair_volumes(j, i))
        assert mesh33.pair_shape(0, 0) == mesh33.cells_shape

    def test_geometric_partition(self):
        part = AxisPartition.geometric(0.0, 2.0, 8, 3.0)
        w = part.widths
        assert part.breakpoints[0] == 0.0 and part.breakpoints[-1] == 2.0
        assert w[-1] / w[0] == pytest.approx(3.0)
        ratios = w[1:] / w[:-1]
        assert np.allclose(ratios, ratios[0])
        assert np.array_equal(AxisPartition.geometric(0, 1, 4, 1.0).breakpoints,
                              AxisPartition.uniform(0, 1, 4).breakpoints)


class TestStoredFaceMetadata:
    """Face metadata is computed once at construction; the accessors return
    the stored values, and their arrays are read-only."""

    @pytest.fixture
    def mesh(self):
        return build_mesh([AxisPartition.geometric(0.0, 1.0, 3, 2.0),
                           AxisPartition.geometric(0.0, 2.0, 4, 0.5),
                           AxisPartition.geometric(-1.0, 1.0, 5, 3.0)])

    def test_values_match_their_formulas(self, mesh):
        for i in range(3):
            shape = tuple(mesh.n[a] + 1 if a == i else mesh.n[a]
                          for a in range(3))
            assert mesh.faces_shape(i) == shape
            assert mesh.n_faces(i) == int(np.prod(shape))
            mask = np.zeros(shape, dtype=bool)
            index = [slice(None)] * 3
            index[i] = slice(1, -1)
            mask[tuple(index)] = True
            assert mesh.interior_mask(i).dtype == bool
            assert np.array_equal(mesh.interior_mask(i), mask)
            for j in range(3):
                if j == i:
                    assert mesh.pair_volumes(i, j) is mesh.cell_volumes
                    continue
                widths = [mesh.dual_widths[a] if a in (i, j) else mesh.widths[a]
                          for a in range(3)]
                vols = np.multiply.outer(np.multiply.outer(widths[0], widths[1]),
                                         widths[2])
                assert np.array_equal(mesh.pair_volumes(i, j), vols)

    def test_arrays_are_read_only(self, mesh):
        for i in range(3):
            with pytest.raises(ValueError):
                mesh.interior_mask(i)[0] = True
            for j in range(3):
                with pytest.raises(ValueError):
                    mesh.pair_volumes(i, j)[0] = 1.0

    def test_one_array_per_unordered_pair(self, mesh):
        for i in range(3):
            for j in range(3):
                assert mesh.pair_volumes(i, j) is mesh.pair_volumes(j, i)

    def test_velocity_field_rejects_nonzero_exterior_entry(self, mesh):
        from macflow.fields import FieldError, VelocityField
        for i in range(3):
            for plane in (0, -1):       # the two boundary planes of axis i
                comps = [np.zeros(mesh.faces_shape(a)) for a in range(3)]
                index = [1] * 3
                index[i] = plane
                comps[i][tuple(index)] = 1.0
                with pytest.raises(FieldError, match="exterior"):
                    VelocityField(mesh, comps)


class TestMetrics:
    def test_uniform_eta(self, mesh22):
        assert mesh_metrics(mesh22).eta == pytest.approx(1.0)

    def test_cross_direction_eta(self):
        mesh = build_mesh([[0.0, 0.25, 1.0], [0.0, 1.0]])
        assert mesh_metrics(mesh).eta == pytest.approx(4.0)

    def test_max_diameter(self):
        mesh = build_mesh([[0.0, 0.5, 1.0], [0.0, 1.0]])
        assert mesh_metrics(mesh).h == pytest.approx(np.sqrt(0.25 + 1.0))

    def test_stretched_eta_at_least_ratio(self, mesh_stretched):
        assert mesh_metrics(mesh_stretched).eta >= 3.0 - 1e-12


class TestDualFaces:
    def test_interior_face_has_2d_entries(self, mesh22):
        # interior x-face: (f=1, row 0) -> flat id in the (3, 2) face grid
        fid = np.ravel_multi_index((1, 0), mesh22.faces_shape(0))
        faces = dual_faces_of(mesh22, 0, fid)
        assert len(faces) == 4
        parallel = [f for f in faces if f.case == "parallel"]
        transverse = [f for f in faces if f.case == "transverse"]
        assert len(parallel) == 2 and len(transverse) == 2
        assert all(not f.exterior for f in parallel)
        # bottom row: the lower transverse face lies on the boundary
        assert sorted(f.exterior for f in transverse) == [False, True]
        assert {f.normal_sign for f in faces} <= {-1, 1}

    def test_boundary_face_transverse_exterior(self, mesh22):
        fid = np.ravel_multi_index((0, 0), mesh22.faces_shape(0))
        faces = dual_faces_of(mesh22, 0, fid)
        transverse = [f for f in faces if f.case == "transverse"]
        assert any(f.exterior for f in transverse)
        # the boundary plane itself shows up as an exterior parallel face
        parallel = [f for f in faces if f.case == "parallel"]
        assert any(f.exterior for f in parallel)

    def test_transverse_measure_is_half_face_sum(self, mesh22):
        fid = np.ravel_multi_index((1, 0), mesh22.faces_shape(0))
        faces = dual_faces_of(mesh22, 0, fid)
        for f in faces:
            if f.case == "transverse":
                assert f.measure == pytest.approx(0.5)   # = 0.5|tau| + 0.5|tau'|
                assert len(f.perp_faces) == 2
                assert all(p is not None for p in f.perp_faces)

    def test_parallel_consistency_relation(self, mesh33):
        # |sigma| / |K| = 1 / d(x_sigma, x_sigma') for the enclosing cell
        for fid in range(mesh33.n_faces(0)):
            for f in dual_faces_of(mesh33, 0, fid):
                if f.case == "parallel" and not f.exterior:
                    vol = mesh33.cell_volumes.ravel()[f.cell]
                    assert f.measure / vol == pytest.approx(1.0 / f.distance)

    def test_pair_geometry_matches_face_by_face(self):
        """The (i, j) accessors give the distance and measure that
        dual_faces_of computes face by face, on every non-exterior dual face
        of a 3d mesh stretched differently along each axis."""
        mesh = build_mesh([AxisPartition.geometric(0.0, 1.0, n, ratio)
                           for n, ratio in ((4, 3.0), (5, 0.5), (3, 2.0))])
        for i in range(mesh.dim):
            blocks = {name: (shape, off)
                      for name, shape, off in mesh.dual_face_blocks(i)}
            for fid in range(mesh.n_faces(i)):
                for face in dual_faces_of(mesh, i, fid):
                    if face.exterior:
                        continue
                    j = face.direction
                    if face.case == "parallel":
                        idx = np.unravel_index(face.cell, mesh.cells_shape)
                    else:
                        shape, off = blocks[f"transverse{j}"]
                        idx = np.unravel_index(face.id - off, shape)
                    dist = np.broadcast_to(mesh.dual_face_distances(i, j),
                                           mesh.pair_shape(i, j))
                    assert dist[idx] == face.distance
                    measure = mesh.dual_face_measures(i, j)
                    assert measure.shape == mesh.pair_shape(i, j)
                    assert measure[idx] == pytest.approx(face.measure, rel=1e-14)
        for i in range(mesh.dim):
            for j in range(mesh.dim):
                assert not mesh.dual_face_measures(i, j).flags.writeable
                assert not mesh.dual_face_distances(i, j).flags.writeable

    def test_unknown_face_id(self, mesh22):
        with pytest.raises(MeshError):
            dual_faces_of(mesh22, 0, 10_000)
        with pytest.raises(MeshError):
            dual_faces_of(mesh22, 5, 0)
