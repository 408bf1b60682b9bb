"""Dense real linear algebra shared by every other module.

Thin, contract-checked wrappers around LAPACK-backed numpy routines: the
ascending eigenvalues of a symmetric matrix, the negative-real-eigenvalue
test on a general one, SVD pseudoinverse, and the symmetric PSD matrix
square root.  All functions are pure, take and return plain
``numpy.ndarray`` values, and work at desk scale (dimensions up to ~100).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

Array = np.ndarray

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-12
# Entries of a - a^T beyond SYMMETRY_RTOL * max(1, max|a|) reject a matrix.
SYMMETRY_RTOL = 1e-12


def as_matrix(m, name: str = "matrix") -> Array:
    """Coerce to a 2-d float array, rejecting empty or non-finite input."""
    try:
        a = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be a numeric 2-d array, got {type(m).__name__}") from err
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def require_square(a: Array, name: str = "matrix") -> None:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")


def require_symmetric(a: Array, name: str = "matrix") -> None:
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within {SYMMETRY_RTOL} relative tolerance")


def sym_eig(m) -> Array:
    """Eigenvalues of a symmetric matrix, ascending, as a real array."""
    a = as_matrix(m)
    require_square(a)
    require_symmetric(a)
    return np.linalg.eigvalsh(a)


def pinv(m) -> Array:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``RANK_RTOL * sigma_max`` are treated as zero.
    """
    a = as_matrix(m)
    return np.linalg.pinv(a, rcond=RANK_RTOL)


def numeric_rank(m) -> int:
    """Rank decision consistent with :func:`pinv`'s truncation threshold."""
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def sqrt_psd(m) -> Array:
    """Symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues in ``[-1e-10 * ||m||, 0)`` are clamped to zero; anything more
    negative means the input is genuinely indefinite and is rejected.
    """
    a = as_matrix(m)
    require_square(a)
    require_symmetric(a)
    w, q = np.linalg.eigh(a)
    scale = float(np.abs(w).max())
    if w[0] < -1e-10 * scale:
        raise ValueError(f"matrix is indefinite: lambda_min={w[0]:.3e}, scale={scale:.3e}")
    root = q @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ q.T
    return 0.5 * (root + root.T)


def has_negative_real_eigenvalue(m) -> bool:
    """Whether any eigenvalue lies on the (strictly) negative real axis.

    An eigenvalue counts as negative real iff Re(z) < -tol and |Im(z)| <= tol
    with tol = 1e-9 * (1 + ||m||_F); strict inequalities are not decidable in
    floating point, so the test carries this explicit margin.  This is the
    condition under which a convex segment (1-t)A + tB of full-rank matrices
    can lose rank; some statements of the underlying rank lemma instead
    exclude all nonnegative eigenvalues, but the rank argument only needs the
    negative real axis, which is what is tested here.
    """
    a = as_matrix(m)
    require_square(a)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR iteration did not converge
        raise NumericError(f"eigenvalue iteration failed: {exc}") from exc
    tol = 1e-9 * (1.0 + float(np.linalg.norm(a)))
    return bool(np.any((vals.real < -tol) & (np.abs(vals.imag) <= tol)))


def solve_linear(a, b) -> Array:
    """Solve ``a x = b`` for square nonsingular ``a``."""
    a = as_matrix(a)
    require_square(a)
    try:
        return np.linalg.solve(a, np.asarray(b, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"linear solve failed: {exc}") from exc
