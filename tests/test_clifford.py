"""The package's one Clifford representation of Cl(R^2) on the spinor fiber,

    e1 . = -i sigma_1 = [[0, -i], [-i, 0]],   e2 . = -i sigma_2 = [[0, -1], [1, 0]],

its Dirac-bundle axioms, and the written-out action that ``geometry`` uses."""

import numpy as np

from diracsphere.geometry import _frame_action

E1 = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
E2 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
# i e1. e2. , the complex volume element
VOLUME_ELEMENT = 1j * (E1 @ E2)


def clifford_matrix(x):
    """Matrix of Clifford multiplication by x = (x1, x2), stacked over (..., 2)."""
    x = np.asarray(x)
    return x[..., 0, None, None] * E1 + x[..., 1, None, None] * E2


def clifford_mul(x, phi):
    """X . phi for x of shape (..., 2) and phi of shape (..., 2)."""
    return (clifford_matrix(x) @ np.asarray(phi, dtype=complex)[..., None])[..., 0]


def hermitian(phi, chi):
    """Hermitian product (phi, chi) on the fiber, antilinear in chi."""
    return np.sum(np.asarray(phi) * np.conj(chi), axis=-1)


def fiber_norm_sq(phi):
    return np.sum(np.abs(np.asarray(phi)) ** 2, axis=-1)


def test_axiom_anticommutation_exact():
    ident = np.eye(2)
    mats = (E1, E2)
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            target = -2.0 * ident if i == j else np.zeros((2, 2))
            assert np.array_equal(a @ b + b @ a, target)


def test_axiom_skew_adjoint_random():
    for a in (E1, E2):
        assert np.allclose(a.conj().T, -a, atol=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(100):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = rng.normal(size=2)
        lhs = hermitian(clifford_mul(x, phi), chi)
        rhs = -hermitian(phi, clifford_mul(x, chi))
        assert abs(lhs - rhs) <= 1e-14 * (1 + abs(lhs))


def test_unit_action_is_isometry():
    rng = np.random.default_rng(1)
    for _ in range(50):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        # e1 . preserves the hermitian pairing
        assert abs(hermitian(E1 @ phi, E1 @ chi) - hermitian(phi, chi)) < 1e-14
        x = rng.normal(size=2)
        lhs = np.sqrt(fiber_norm_sq(clifford_mul(x, phi)))
        rhs = np.linalg.norm(x) * np.sqrt(fiber_norm_sq(phi))
        assert abs(lhs - rhs) <= 1e-13 * (1 + rhs)


def test_clifford_mul_linearity_and_squares():
    rng = np.random.default_rng(2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.allclose(clifford_mul(np.zeros(2), phi), 0.0)
    e1 = np.array([1.0, 0.0])
    assert np.allclose(clifford_mul(e1, clifford_mul(e1, phi)), -phi, atol=1e-15)
    x, y = rng.normal(size=2), rng.normal(size=2)
    lhs = clifford_mul(x + y, phi)
    rhs = clifford_mul(x, phi) + clifford_mul(y, phi)
    assert np.allclose(lhs, rhs, atol=1e-14)
    assert np.allclose(clifford_matrix(x) @ phi, clifford_mul(x, phi), atol=1e-14)


def test_hermitian_properties():
    assert hermitian(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(hermitian(phi, chi) - np.conj(hermitian(chi, phi))) < 1e-15
        sq = hermitian(phi, phi)
        assert abs(sq.imag) < 1e-15 and sq.real >= 0
        assert abs(sq.real - fiber_norm_sq(phi)) < 1e-14


def test_volume_element_is_sigma3():
    assert np.array_equal(VOLUME_ELEMENT, np.diag([1.0, -1.0]).astype(complex))


def test_geometry_frame_action_matches_representation():
    rng = np.random.default_rng(4)
    c = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    e1c, e2c = _frame_action(c)
    assert np.array_equal(e1c, (E1 @ c.T).T)
    assert np.array_equal(e2c, (E2 @ c.T).T)
