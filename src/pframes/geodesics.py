"""Wasserstein geodesics between frames and frame certification along them.

Interpolating an optimal plan through ``(x, y) -> (1-t) x + t y`` produces
the constant-speed geodesic ``mu_t`` between two measures.  Every ``mu_t``
keeps a finite second moment; whether it stays a probabilistic frame depends
on the endpoints, and this module certifies it on all of [0, 1].  The frame
operator of ``mu_t`` is a quadratic in ``t`` with three moment matrices of
the plan as coefficients: a parameter grid samples its bounds, and the roots
of its determinant, from one companion eigenvalue problem, decide the points
in between.  Two sufficient conditions are implemented for uniform
equal-cardinality frames (the segment-rank eigenvalue test and the coherence
bound forcing the identity pairing), plus the closed-form Gaussian case
where the optimal coupling is a linear PSD map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .duality import DUAL_IDENTITY_TOL, TransportPlan, _dual_map
from .errors import NotAFrameError, NumericError
from .measures import (
    DiscreteMeasure,
    GaussianMeasure,
    frame_report,
    merge_duplicate_atoms,
    pd_threshold,
)
from .optim import MASS_EPS, certify_potentials
from .transport import optimal_permutation, squared_distance_matrix, wasserstein2

Array = np.ndarray

DEFAULT_GRID = 101
GEODESIC_IDENTITY_TOL = 1e-6
# Nearly real roots of det S(t) kept by ``_det_roots``, in units of the
# round-off split sqrt(eps cond(a)) of a double root.
SPLIT_FACTOR = 1e3


@dataclass(frozen=True)
class GeodesicProfile:
    """Frame bounds and second moments sampled along a geodesic.
    ``all_frames`` means a frame at every ``t`` in [0, 1], grid or not;
    otherwise ``singular_t`` is the first ``t`` where it is not."""

    ts: Array
    lower_bounds: Array
    upper_bounds: Array
    second_moments: Array
    all_frames: bool
    singular_t: float | None = None


@dataclass(frozen=True)
class GaussianPath:
    """Geodesic of zero-mean Gaussians: covariances conjugated by the
    interpolated optimal linear map."""

    sigma0: Array
    sigma1: Array
    optimal_map: Array
    ts: Array
    lower_bounds: Array
    upper_bounds: Array
    second_moments: Array


def geodesic_measure(
    mu0: DiscreteMeasure, mu1: DiscreteMeasure, plan: TransportPlan, t: float
) -> DiscreteMeasure:
    """The measure at parameter ``t`` of the interpolation of ``plan``.

    Atoms are ``(1-t) x_i + t y_j`` over the support of the coupling; the
    caller certifies that the plan is W2-optimal (this is not re-verified).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not (
        np.array_equal(plan.row_measure.atoms, mu0.atoms)
        and np.array_equal(plan.row_measure.weights, mu0.weights)
        and np.array_equal(plan.col_measure.atoms, mu1.atoms)
        and np.array_equal(plan.col_measure.weights, mu1.weights)
    ):
        raise ValueError("plan does not couple the given measures")
    rows, cols = np.nonzero(plan.coupling > MASS_EPS)
    atoms = (1.0 - t) * mu0.atoms[rows] + t * mu1.atoms[cols]
    # Endpoints merge back to the original measures' atoms, in their order.
    return merge_duplicate_atoms(DiscreteMeasure(atoms=atoms, weights=plan.coupling[rows, cols]))


def _certified_half(atoms, weights, fixed, ends, owners, mass) -> float:
    """Certified W2^2 between a measure and the interpolant ``sum mass_k
    delta_{ends_k}`` under the coupling ``atoms[owners[k]] -> ends[k]``.

    ``fixed`` is the measure's transported potential and the interpolant's
    is its c-transform (McCann's displacement interpolation keeps both
    optimal), so the check needs no solve.
    """
    cost = squared_distance_matrix(atoms, ends)
    free = (cost - fixed[:, None]).min(axis=0)
    coupling = np.zeros_like(cost)
    coupling[owners, np.arange(mass.size)] = mass
    certify_potentials(cost, coupling, weights, mass, fixed, free, "geodesic half plan")
    return float((coupling * cost).sum())


def _quadratic_path(ts: Array, a: Array, b: Array, c: Array) -> tuple[Array, Array]:
    """Ascending eigenvalues and traces of ``S(t) = (1-t)^2 a + t(1-t) (b +
    b^T) + t^2 c`` at every ``t`` of the grid, from one batched ``eigvalsh``.

    This is the frame operator along any interpolation ``(1-t) x + t y`` of
    paired points, with ``a``, ``b`` and ``c`` the moment matrices ``E[x
    x^T]``, ``E[x y^T]`` and ``E[y y^T]``.
    """
    s = (1.0 - ts)[:, None, None] ** 2 * a + (ts * (1.0 - ts))[:, None, None] * (b + b.T)
    s += ts[:, None, None] ** 2 * c
    return np.linalg.eigvalsh(s), np.trace(s, axis1=1, axis2=2)


def _det_roots(a: Array, b: Array, c: Array) -> Array:
    """The real parts of the nearly real roots in [0, 1] of ``det S(t)``,
    ``S(t) = (1-t)^2 a + t(1-t) (b + b^T) + t^2 c``, for positive definite
    ``a``: every ``t`` where ``S(t)`` can be singular, off any grid, for the
    caller to confirm.

    Written ``S(t) = a + t K1 + t^2 K2`` and scaled by ``R = a^{-1/2}``,
    ``det S(t) = 0`` exactly when ``s = 1/t`` is an eigenvalue of the
    companion matrix ``[[-R K1 R, -R K2 R], [I, 0]]``.  ``S(t)`` is PSD for
    every real ``t``, so its real roots are double, and round-off splits
    them by about ``sqrt(eps cond(a))`` into nearly real pairs: the roots
    kept have imaginary part within ``SPLIT_FACTOR`` times that split.
    """
    d = a.shape[0]
    k1, k2 = b + b.T - 2.0 * a, a - b - b.T + c
    w, q = np.linalg.eigh(a)
    r = (q / np.sqrt(w)) @ q.T
    companion = np.eye(2 * d, k=-d)
    companion[:d, :d], companion[:d, d:] = -r @ k1 @ r, -r @ k2 @ r
    s = np.linalg.eigvals(companion)
    t = 1.0 / s[s != 0.0]
    split = SPLIT_FACTOR * np.sqrt(np.finfo(float).eps * w[-1] / w[0])
    return t.real[(np.abs(t.imag) <= split) & (t.real >= 0.0) & (t.real <= 1.0)]


def geodesic_profile(
    mu0: DiscreteMeasure, mu1: DiscreteMeasure, grid_size: int = DEFAULT_GRID
) -> GeodesicProfile:
    """Frame bounds along the geodesic between two discrete frames.

    The optimal plan is computed once; ``wasserstein2`` certifies it by its
    own Kantorovich potentials (``optim.certify_potentials``) and returns
    them.  Over its support, with masses ``p_k`` on pairs ``(x_k, y_k)``,
    every interpolant has the frame operator ``S(t) = (1-t)^2 A + t(1-t)
    (B + B^T) + t^2 C`` for the moment matrices ``A = sum p_k x_k x_k^T``,
    ``B = sum p_k x_k y_k^T`` and ``C = sum p_k y_k y_k^T``; one batched
    ``eigvalsh`` over the grid gives the bounds, with ``frame_report``'s
    rules, and the second moment is the trace.  ``all_frames`` holds when
    ``S(t)`` is a frame at every ``t`` in [0, 1]: at every grid point and
    at every root of ``det S(t)`` (``_det_roots``), by the same rule;
    ``singular_t`` is the first ``t`` where it is not.  The constant-speed identity ``W(mu0, mu_t) + W(mu_t,
    mu1) = W(mu0, mu1)`` is checked at up to three interior grid points, each
    half certified by the potentials ``t u`` and ``(1-t) v`` carried along
    the geodesic.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    if not frame_report(mu0).is_frame:
        raise NotAFrameError("left endpoint is not a frame")
    if not frame_report(mu1).is_frame:
        raise NotAFrameError("right endpoint is not a frame")

    solution = wasserstein2(mu0, mu1)
    u, v = solution.potentials
    rows, cols = np.nonzero(solution.plan.coupling > MASS_EPS)
    mass = solution.plan.coupling[rows, cols]
    xs, ys = mu0.atoms[rows], mu1.atoms[cols]
    ts = np.linspace(0.0, 1.0, grid_size)

    base = float(np.sqrt(solution.distance_squared))
    if grid_size >= 3:
        interior = np.arange(1, grid_size - 1)
        checks = sorted({int(interior[np.argmin(np.abs(ts[interior] - tau))]) for tau in (0.25, 0.5, 0.75)})
        for idx in checks:
            t = float(ts[idx])
            ends = (1.0 - t) * xs + t * ys
            left = float(np.sqrt(_certified_half(mu0.atoms, mu0.weights, t * u, ends, rows, mass)))
            right = float(np.sqrt(_certified_half(mu1.atoms, mu1.weights, (1.0 - t) * v, ends, cols, mass)))
            if abs(left + right - base) > GEODESIC_IDENTITY_TOL:
                raise NumericError(
                    f"geodesic additivity violated at t={t:.4f}: {left} + {right} != {base}"
                )

    a = xs.T @ (mass[:, None] * xs)
    b = xs.T @ (mass[:, None] * ys)
    c = ys.T @ (mass[:, None] * ys)
    # The grid, then the roots of det S(t) between its points, in one solve.
    points = np.concatenate([ts, _det_roots(a, b, c)])
    spectra, moments = _quadratic_path(points, a, b, c)
    lows, highs = spectra[:, 0], spectra[:, -1]
    singular = points[lows <= pd_threshold(highs)]
    return GeodesicProfile(
        ts=ts,
        lower_bounds=np.maximum(lows[:grid_size], 0.0),
        upper_bounds=highs[:grid_size],
        second_moments=moments[:grid_size],
        all_frames=singular.size == 0,
        singular_t=float(singular.min()) if singular.size else None,
    )


def szulc_condition(phi: Array, psi_sigma: Array) -> bool:
    """Eigenvalue test certifying full rank of ``(1-t) Phi + t Psi_sigma``.

    Both analysis matrices (N x d) must have rank d.  The condition holds
    when ``pinv(Psi_sigma) @ Phi`` has no eigenvalue on the negative real
    axis; in that case the segment keeps rank d for every t in [0, 1], which
    is verified by ``numeric_rank`` at every root of ``det S(t)``
    (``_det_roots``), ``S(t)`` the Gram matrix of the segment whitened by
    ``R^{-1}`` (``Phi = Q R``): ``a = I``, ``b = Q^T Psi_sigma R^{-1}`` and
    ``c = R^{-T} Psi_sigma^T Psi_sigma R^{-1}``, so the Gram matrices never
    square the condition number of ``Phi``.  The rank is judged on that
    whitened segment ``(1-t) Q + t Psi_sigma R^{-1}``, which has the exact
    rank of the raw one: near ``t = 0`` the raw segment is as ill
    conditioned as ``Phi``, and round-off alone can take it across the rank
    cut that ``Phi`` itself passed.
    """
    phi = linalg.as_matrix(phi, "phi")
    psi_sigma = linalg.as_matrix(psi_sigma, "psi_sigma")
    if phi.shape != psi_sigma.shape:
        raise ValueError(f"shape mismatch: {phi.shape} vs {psi_sigma.shape}")
    d = phi.shape[1]
    if linalg.numeric_rank(phi) != d or linalg.numeric_rank(psi_sigma) != d:
        raise ValueError("both analysis matrices must have full column rank")
    ok = not linalg.has_negative_real_eigenvalue(linalg.pinv(psi_sigma) @ phi)
    if ok:
        q, r = np.linalg.qr(phi)
        psi_w = np.linalg.solve(r.T, psi_sigma.T).T
        for t in _det_roots(np.eye(d), q.T @ psi_w, psi_w.T @ psi_w):
            if linalg.numeric_rank((1.0 - t) * q + t * psi_w) != d:
                raise NumericError(f"segment rank dropped at t={t} despite eigenvalue test")
    return ok


def coherence_identity_test(phi: Array, psi: Array) -> bool:
    """Coherence-style sufficient condition for identity optimal pairing.

    ``phi`` must be a unit-norm frame and ``psi`` a dual of it
    (``Psi^T Phi = I``).  With ``z_i = psi_i - S^{-1} phi_i`` and ``a`` the
    minimal separation ``min_{i != j} <phi_i, S^{-1}(phi_i - phi_j)>``, the
    condition is ``max_j ||z_j|| <= a / N``.  When it holds, the identity is
    an optimal pairing for squared cost, which is cross-checked against
    ``optimal_permutation`` (whose ``optim.hungarian`` accepts the identity
    by its potentials before any solve).  The test is conservative: a False
    answer does not preclude identity optimality.
    """
    phi = linalg.as_matrix(phi, "phi")
    psi = linalg.as_matrix(psi, "psi")
    if phi.shape != psi.shape:
        raise ValueError(f"shape mismatch: {phi.shape} vs {psi.shape}")
    n, d = phi.shape
    norms = np.linalg.norm(phi, axis=1)
    if float(np.abs(norms - 1.0).max()) > 1e-10:
        raise ValueError("phi atoms must be unit norm")
    if float(np.abs(psi.T @ phi - np.eye(d)).max()) > DUAL_IDENTITY_TOL:
        raise ValueError("psi is not a dual of phi (Psi^T Phi != I)")
    sinv_phi = _dual_map(phi, phi.T @ phi)
    z = psi - sinv_phi
    gram = phi @ sinv_phi.T  # gram[i, j] = <phi_i, S^{-1} phi_j>
    separations = gram.diagonal()[:, None] - gram
    a = float(separations[~np.eye(n, dtype=bool)].min())
    holds = bool(float(np.linalg.norm(z, axis=1).max()) <= a / n)
    if holds and not np.array_equal(optimal_permutation(phi, psi), np.arange(n)):
        raise NumericError("coherence condition held but identity was not optimal")
    return holds


def _gaussian_pair(g0: GaussianMeasure, g1: GaussianMeasure) -> tuple[Array, Array]:
    """``S0^{1/2}`` and ``(S0^{1/2} S1 S0^{1/2})^{1/2}`` for two zero-mean
    Gaussians of one dimension."""
    for g, name in ((g0, "g0"), (g1, "g1")):
        if float(np.abs(g.mean).max()) > 1e-12:
            raise ValueError(f"{name} must have zero mean")
    if g0.dim != g1.dim:
        raise ValueError(f"dimension mismatch: {g0.dim} vs {g1.dim}")
    root0 = linalg.sqrt_psd(g0.covariance)
    return root0, linalg.sqrt_psd(root0 @ g1.covariance @ root0)


def gaussian_w2(g0: GaussianMeasure, g1: GaussianMeasure) -> float:
    """Squared 2-Wasserstein distance between zero-mean Gaussians.

    Computed in the symmetrized form ``Tr[S0 + S1 - 2 (S0^{1/2} S1
    S0^{1/2})^{1/2}]``, which agrees with the product form ``(S0 S1)^{1/2}``
    whenever the covariances commute.  Nonnegative, and zero iff the
    covariances coincide.
    """
    _, middle = _gaussian_pair(g0, g1)
    value = float(np.trace(g0.covariance) + np.trace(g1.covariance) - 2.0 * np.trace(middle))
    return max(value, 0.0)


def gaussian_optimal_map(g0: GaussianMeasure, g1: GaussianMeasure) -> Array:
    """The symmetric PSD linear map pushing ``g0`` optimally onto ``g1``:
    ``A = S0^{-1/2} (S0^{1/2} S1 S0^{1/2})^{1/2} S0^{-1/2}``."""
    root0, middle = _gaussian_pair(g0, g1)
    for g, name in ((g0, "g0"), (g1, "g1")):
        w = np.linalg.eigvalsh(g.covariance)
        if w[0] <= 1e-12 * max(1.0, float(w[-1])):
            raise ValueError(f"{name} covariance is singular")
    w, q = np.linalg.eigh(root0)
    inv_root0 = q @ np.diag(1.0 / w) @ q.T
    amap = inv_root0 @ middle @ inv_root0
    return 0.5 * (amap + amap.T)


def gaussian_path(
    g0: GaussianMeasure, g1: GaussianMeasure, grid_size: int = DEFAULT_GRID
) -> GaussianPath:
    """Geodesic between zero-mean nonsingular Gaussians.

    The covariance at parameter ``t`` is ``M_t S0 M_t`` with ``M_t = (1-t) I
    + t A`` and ``A`` the optimal map, which is the moment path with ``a =
    S0``, ``b = S0 A`` and ``c = A S0 A``.  Since ``A`` is symmetric PSD and
    nonsingular, every interpolated covariance stays positive definite,
    which is verified on the grid.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    amap = gaussian_optimal_map(g0, g1)
    s0 = g0.covariance
    ts = np.linspace(0.0, 1.0, grid_size)
    spectra, moments = _quadratic_path(ts, s0, s0 @ amap, amap @ s0 @ amap)
    lost = np.flatnonzero(spectra[:, 0] <= 0.0)
    if lost.size:
        raise NumericError(f"interpolated covariance lost definiteness at t={ts[lost[0]]}")
    return GaussianPath(
        sigma0=g0.covariance,
        sigma1=g1.covariance,
        optimal_map=amap,
        ts=ts,
        lower_bounds=spectra[:, 0],
        upper_bounds=spectra[:, -1],
        second_moments=moments,
    )


# --- CSV export -------------------------------------------------------------
# Columns: t, lambda_min, lambda_max, m2 (header row required).


def profile_csv_text(profile: GeodesicProfile | GaussianPath) -> str:
    lines = ["t,lambda_min,lambda_max,m2"]
    for t, lo, hi, m2 in zip(
        profile.ts, profile.lower_bounds, profile.upper_bounds, profile.second_moments
    ):
        lines.append(
            ",".join(format(float(v), ".17g") for v in (t, lo, hi, m2))
        )
    return "\n".join(lines) + "\n"
