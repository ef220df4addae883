import numpy as np
import pytest

from reeb_spectra.symplectic import (
    SymplecticPath,
    block_compose,
    conjugate_path,
    is_symplectic,
    path_product,
    rotation_path,
    standard_J,
    symplectic_defect,
)


class TestStandardJ:
    def test_sp2(self):
        J = standard_J(1)
        assert np.array_equal(J, [[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(J @ J, -np.eye(2))

    def test_block_diagonal(self):
        J = standard_J(2)
        assert np.array_equal(J[:2, :2], standard_J(1))
        assert np.array_equal(J[2:, 2:], standard_J(1))
        assert np.array_equal(J[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(J @ J, -np.eye(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_orthogonality(self, n):
        J = standard_J(n)
        assert np.array_equal(J.T @ J, np.eye(2 * n))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            standard_J(0)

    def test_omega_compatible(self):
        # omega(e_x, e_y) = +1 in every plane: sum dx_h ^ dy_h
        for h in range(3):
            ex, ey = np.zeros(6), np.zeros(6)
            ex[2 * h] = 1.0
            ey[2 * h + 1] = 1.0
            assert (standard_J(3) @ ex) @ ey == 1.0
            assert (standard_J(3) @ ey) @ ex == -1.0


class TestRotationPath:
    def test_full_turn_exact_identity(self):
        p = rotation_path([1.0])
        assert np.array_equal(p(1.0), np.eye(2))

    def test_half_turn(self):
        p = rotation_path([0.5])
        assert np.abs(p(1.0) + np.eye(2)).max() < 1e-15

    def test_mixed_endpoint(self):
        p = rotation_path([1.0, 0.5])
        end = p(1.0)
        expected = np.eye(4)
        expected[2:, 2:] = -np.eye(2)
        assert np.abs(end - expected).max() < 1e-15

    @pytest.mark.parametrize("turns", [1, 2, 5, 11])
    def test_integer_turns_bitwise_identity(self, turns):
        p = rotation_path([float(turns)])
        assert np.array_equal(p(1.0), np.eye(2))

    def test_symplectic_along_path(self):
        p = rotation_path([0.37, -2.12, 5.0])
        assert p.symplectic_defect(np.linspace(0, 1, 100)) < 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rotation_path([np.inf])


class TestBlockCompose:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            block_compose([])

    def test_single_block_identity_op(self):
        p = rotation_path([1.5])
        assert block_compose([p]) is p

    def test_dim_sums(self):
        q = block_compose([rotation_path([1.0]), rotation_path([0.5, 2.0])])
        assert q.dim == 6
        m = q(0.3)
        assert np.abs(m[:2, 2:]).max() == 0.0

    def test_identity_blocks(self):
        q = block_compose([rotation_path([0.0]), rotation_path([0.0])])
        for t in (0.0, 0.41, 1.0):
            assert np.array_equal(q(t), np.eye(4))

    def test_symplectic(self):
        q = block_compose([rotation_path([1.3]), rotation_path([-0.7])])
        assert q.symplectic_defect(np.linspace(0, 1, 64)) < 1e-10


class TestPathOps:
    def test_paths_start_at_identity(self):
        with pytest.raises(ValueError):
            SymplecticPath(
                dim=2,
                eval_batch=lambda ts: np.broadcast_to(2 * np.eye(2), (len(ts), 2, 2)).copy(),
                speed=0.0,
            )

    def test_product_of_rotations(self):
        p = path_product(rotation_path([1.0]), rotation_path([0.5]))
        assert np.abs(p(1.0) + np.eye(2)).max() < 1e-15

    def test_conjugation_stays_symplectic(self):
        P = np.array([[2.0, 0.0], [0.0, 0.5]])  # symplectic in Sp(2)
        q = conjugate_path(rotation_path([1.7]), P)
        assert q.symplectic_defect(np.linspace(0, 1, 50)) < 1e-9

    def test_defect_helpers(self):
        M = rotation_path([0.3])(0.77)
        assert is_symplectic(M)
        assert symplectic_defect(np.diag([2.0, 2.0])) > 1.0
