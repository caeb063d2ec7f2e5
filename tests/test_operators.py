import numpy as np
import pytest

from dotgates.operators import (
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    BasisMismatchError,
    DensityMatrix,
    NotHermitianError,
    OperatorMatrix,
    QuantumState,
    UnknownLabelError,
    matrix_exponential,
    product_basis,
    rotating_frame_tag,
)

B2 = Basis(("g", "e"), "two-level")
B3 = Basis(("0", "1", "X"), "dot")


def test_hbar_value():
    assert HBAR_MEV_PS == pytest.approx(0.6582119569, abs=0, rel=1e-15)


def test_basis_labels_and_index():
    assert B3.dim == 3
    assert B3.index("X") == 2
    assert B3.labels == ("0", "1", "X")
    with pytest.raises(UnknownLabelError):
        B3.index("Y")
    with pytest.raises(ValueError):
        Basis(("a", "a"))
    with pytest.raises(ValueError):
        Basis(())


def test_product_basis_major_index_order():
    pb = product_basis(B3, B3)
    assert pb.labels == ("00", "01", "0X", "10", "11", "1X", "X0", "X1", "XX")
    assert pb.index("1X") == 5
    assert pb.index("X1") == 7
    assert pb.index("11") == 3 * B3.index("1") + B3.index("1")


def test_rotating_frame_tag_distinct():
    assert rotating_frame_tag(2.5) == rotating_frame_tag(2.5)
    assert rotating_frame_tag(2.5) != rotating_frame_tag(2.6)
    assert rotating_frame_tag(2.5) != LAB_FRAME


def test_operator_matrix_validation():
    m = np.array([[0.0, 1.0], [1.0, 0.5]])
    op = OperatorMatrix(m, B2, hermitian=True)
    assert op.element("g", "e") == 1.0
    with pytest.raises(NotHermitianError):
        OperatorMatrix([[0, 1], [0, 0]], B2, hermitian=True)
    with pytest.raises(BasisMismatchError):
        OperatorMatrix(np.eye(3), B2)
    with pytest.raises(ValueError):
        OperatorMatrix([[np.nan, 0], [0, 0]], B2)
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros(4), B2)


def test_operator_matrix_is_frozen():
    op = OperatorMatrix(np.eye(2), B2, hermitian=True)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_quantum_state_norm_check():
    s = QuantumState.basis_state(B3, "1")
    np.testing.assert_array_equal(s.amplitudes, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0, 0.0]), B3)


def test_density_matrix_checks():
    rho = QuantumState.basis_state(B2, "e").density()
    np.testing.assert_array_equal(rho.matrix, np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]), B2)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), B2)
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), B2)


def test_matrix_exponential_two_level_rotation():
    # H = g sigma_x rotates g <-> e at angle 2 g dt / hbar
    g = 0.3
    h = OperatorMatrix([[0.0, g], [g, 0.0]], B2, hermitian=True)
    dt = 1.7
    u = matrix_exponential(h, dt)
    theta = g * dt / HBAR_MEV_PS
    expected = np.array([
        [np.cos(theta), -1j * np.sin(theta)],
        [-1j * np.sin(theta), np.cos(theta)],
    ])
    np.testing.assert_allclose(u.matrix, expected, atol=1e-14)
    np.testing.assert_allclose(u.matrix @ u.matrix.conj().T, np.eye(2), atol=1e-14)


def test_matrix_exponential_rejects_non_hermitian():
    bad = OperatorMatrix([[0.0, 1.0], [0.0, 0.0]], B2)
    with pytest.raises(NotHermitianError):
        matrix_exponential(bad, 1.0)


def test_matrix_exponential_free_phase():
    # diagonal generator: pure phase exp(-i E dt / hbar) on the excited level
    e = 2.0
    h = OperatorMatrix(np.diag([0.0, e]), B2, hermitian=True)
    u = matrix_exponential(h, 3.0)
    assert u.matrix[0, 0] == pytest.approx(1.0)
    assert u.matrix[1, 1] == pytest.approx(np.exp(-1j * e * 3.0 / HBAR_MEV_PS), abs=1e-14)
