import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_orthogonal
from pframes import linalg


def test_sym_eig_identity():
    vals = linalg.sym_eig(np.eye(3))
    assert vals.dtype == np.float64 and vals.shape == (3,)
    assert np.allclose(vals, [1.0, 1.0, 1.0])


def test_sym_eig_diagonal_sorted_ascending():
    assert np.allclose(linalg.sym_eig(np.diag([4.0, 1.0])), [1.0, 4.0])


def test_sym_eig_uniform_basis_frame_operator():
    # S for the uniform measure on {e1, e2} with weights 1/2 each, summed by hand.
    s = 0.5 * np.outer([1, 0], [1, 0]) + 0.5 * np.outer([0, 1], [0, 1])
    assert np.allclose(linalg.sym_eig(s), [0.5, 0.5])


@pytest.mark.parametrize("seed", range(5))
def test_sym_eig_reconstruction_and_orthonormality(seed):
    # The spectrum of q diag(lam) q^T for an orthogonal q is lam, ascending.
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=6)
    q = random_orthogonal(rng, 6)
    m = q @ np.diag(lam) @ q.T
    vals = linalg.sym_eig(m)
    assert np.abs(vals - np.sort(lam)).max() <= 1e-12 * np.abs(lam).max() * 6


def test_sym_eig_rayleigh_sandwich():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(5, 5))
    m = a + a.T
    vals = linalg.sym_eig(m)
    lo, hi = vals[0], vals[-1]
    for _ in range(100):
        v = rng.normal(size=5)
        quotient = (v @ m @ v) / (v @ v)
        assert lo - 1e-10 <= quotient <= hi + 1e-10


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        linalg.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def test_real_eigenvalues_rotation_is_pure_imaginary():
    # A quarter turn has eigenvalues +-i, off the real axis; a half turn is -I.
    assert not linalg.has_negative_real_eigenvalue(rotation(np.pi / 2))
    assert not linalg.has_negative_real_eigenvalue(rotation(3.0))
    assert linalg.has_negative_real_eigenvalue(rotation(np.pi))


def test_real_eigenvalues_diagonal():
    assert linalg.has_negative_real_eigenvalue(np.diag([2.0, -3.0]))
    assert not linalg.has_negative_real_eigenvalue(np.diag([2.0, 3.0]))
    # Within the margin 1e-9 (1 + norm_F) of zero: not negative.
    assert not linalg.has_negative_real_eigenvalue(np.diag([2.0, -1e-12]))


def test_real_eigenvalues_canonical_dual_product():
    # For Psi a frame and Phi its canonical dual, pinv(Psi) @ Phi = (Psi^T Psi)^{-1},
    # which is positive definite: the segment test of the geodesics module
    # passes, and fails on the negated product.
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(6, 3))
    gram_inv = np.linalg.inv(psi.T @ psi)
    phi = psi @ gram_inv
    product = linalg.pinv(psi) @ phi
    assert linalg.sym_eig(gram_inv)[0] > 0.0
    assert not linalg.has_negative_real_eigenvalue(product)
    assert linalg.has_negative_real_eigenvalue(-product)


@pytest.mark.parametrize("seed", range(8))
def test_real_eigenvalues_det_trace_identities(seed):
    # Complex eigenvalues come in conjugate pairs of positive product, so a
    # negative determinant forces a negative real eigenvalue; in odd
    # dimension m or -m has one.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(5, 5))
    if np.linalg.det(m) < 0.0:
        assert linalg.has_negative_real_eigenvalue(m)
    else:
        assert linalg.has_negative_real_eigenvalue(-m)
    # On a symmetric matrix the spectrum sums to the trace, multiplies to the determinant.
    s = m + m.T
    vals = linalg.sym_eig(s)
    det, trace = np.linalg.det(s), np.trace(s)
    assert abs(det - np.prod(vals)) <= 1e-8 * (1.0 + abs(det))
    assert abs(trace - vals.sum()) <= 1e-8 * (1.0 + abs(trace))


@pytest.mark.parametrize("seed", range(5))
def test_real_eigenvalues_matches_sym_eig_on_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4))
    for m in (a + a.T, a @ a.T + np.eye(4)):
        assert linalg.has_negative_real_eigenvalue(m) == (linalg.sym_eig(m)[0] < 0.0)


def test_pinv_identity_and_zero():
    assert np.allclose(linalg.pinv(np.eye(3)), np.eye(3))
    z = linalg.pinv(np.zeros((2, 4)))
    assert z.shape == (4, 2)
    assert np.all(z == 0.0)


def test_pinv_tall_full_rank_matches_normal_equations():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(7, 3))
    expected = np.linalg.inv(phi.T @ phi) @ phi.T
    assert np.abs(linalg.pinv(phi) - expected).max() <= 1e-9


@pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5), (4, 4)])
def test_pinv_moore_penrose_identities(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.normal(size=shape)
    p = linalg.pinv(m)
    assert np.abs(m @ p @ m - m).max() <= 1e-9
    assert np.abs(p @ m @ p - p).max() <= 1e-9
    assert np.abs((m @ p) - (m @ p).T).max() <= 1e-9
    assert np.abs((p @ m) - (p @ m).T).max() <= 1e-9


def test_pinv_involution_on_full_rank():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 3))
    assert np.abs(linalg.pinv(linalg.pinv(m)) - m).max() <= 1e-8


def test_sqrt_psd_examples():
    assert np.allclose(linalg.sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(linalg.sqrt_psd(np.eye(4)), np.eye(4))


def test_sqrt_psd_from_known_eigendecomposition():
    rng = np.random.default_rng(9)
    q = random_orthogonal(rng, 4)
    vals = np.array([0.5, 1.0, 2.0, 7.0])
    m = q @ np.diag(vals) @ q.T
    expected = q @ np.diag(np.sqrt(vals)) @ q.T
    s = linalg.sqrt_psd(m)
    assert np.abs(s - expected).max() <= 1e-9
    assert np.linalg.norm(s @ s - m) <= 1e-8 * (1.0 + np.linalg.norm(m))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        linalg.sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_clamps_tiny_negative():
    m = np.diag([1.0, -1e-14])
    s = linalg.sqrt_psd(m)
    assert s[1, 1] == 0.0


def test_has_negative_real_eigenvalue():
    assert linalg.has_negative_real_eigenvalue(-np.eye(2))
    assert not linalg.has_negative_real_eigenvalue(np.eye(2))
    # rotation has eigenvalues +-i: on the imaginary axis, not the negative reals
    assert not linalg.has_negative_real_eigenvalue(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_numeric_rank():
    rng = np.random.default_rng(5)
    tall = rng.normal(size=(6, 3))
    assert linalg.numeric_rank(tall) == 3
    assert linalg.numeric_rank(np.zeros((3, 3))) == 0
    deficient = np.outer([1.0, 2.0, 3.0], [1.0, -1.0])
    assert linalg.numeric_rank(deficient) == 1


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_sym_eig_bounds_property(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    m = a @ a.T  # PSD
    vals = linalg.sym_eig(m)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] >= -1e-10 * max(1.0, vals[-1])
