"""Shared test utilities: random frames, brute-force oracles, feasible-plan
generators, and a ``solve_lp`` wrapper that injects a residual.  The oracles
are independent of the solver paths they check."""

import itertools

import numpy as np

from scipy.optimize import linear_sum_assignment

from pframes.measures import DiscreteMeasure, frame_operator
from pframes.optim import FEASIBILITY_TOL, LpOutcome

MERCEDES_BENZ = np.array(
    [[0.0, 1.0], [-np.sqrt(3.0) / 2.0, -0.5], [np.sqrt(3.0) / 2.0, -0.5]]
)


def remark_instance():
    """The worked 3-atom / 2-atom transport-dual pair (sign-corrected)."""
    s3 = np.sqrt(3.0)
    mu = DiscreteMeasure(
        atoms=[[1.0, 0.0], [s3 / 2.0, 0.5], [0.0, 1.0]],
        weights=[0.5, 1.0 / 6.0, 1.0 / 3.0],
    )
    den = 4.0 - s3
    nu = DiscreteMeasure(
        atoms=[[18.0 / den, -6.0 * (2.0 + s3) / den], [-12.0 / den, 24.0 / den]],
        weights=[0.5, 0.5],
    )
    return mu, nu


def random_frame_measure(rng, dim, count, uniform=False, min_lower=0.05):
    """Random discrete frame with a reasonably conditioned frame operator."""
    if count < dim:
        raise ValueError(f"need at least {dim} atoms to span, got {count}")
    while True:
        atoms = rng.normal(size=(count, dim))
        if uniform:
            weights = np.full(count, 1.0 / count)
        else:
            weights = rng.dirichlet(np.full(count, 2.0))
            weights = np.maximum(weights, 1e-3)
            weights /= weights.sum()
        measure = DiscreteMeasure(atoms=atoms, weights=weights)
        w = np.linalg.eigvalsh(frame_operator(measure))
        if w[0] > min_lower:
            return measure


def random_unit_norm_frame(rng, dim, count, min_lower=0.05):
    while True:
        atoms = rng.normal(size=(count, dim))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        if np.linalg.eigvalsh(atoms.T @ atoms)[0] > min_lower:
            return atoms


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def random_spd(rng, dim, cond_floor=0.05, cond_ceil=5.0):
    q = random_orthogonal(rng, dim)
    vals = rng.uniform(cond_floor, cond_ceil, size=dim)
    return q @ np.diag(vals) @ q.T


def brute_force_assignment(cost):
    """Exhaustive minimum over all permutations: (value, lexicographically
    smallest optimal permutation)."""
    n = cost.shape[0]
    idx = np.arange(n)
    best_val = np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        val = float(cost[idx, perm].sum())
        if val < best_val - 1e-12:
            best_val = val
            best_perm = perm
    tol = 1e-9 * (1.0 + abs(best_val))
    optimal = [
        perm
        for perm in itertools.permutations(range(n))
        if float(cost[idx, perm].sum()) <= best_val + tol
    ]
    return best_val, np.array(min(optimal))


def refined_assignment(cost):
    """Lexicographically smallest permutation costing at most ``best + tol``,
    fixed row by row with one ``linear_sum_assignment`` completion per
    candidate column: O(n^2) solves, a reference for small and tie-heavy
    costs only."""
    c = np.asarray(cost, dtype=float)
    n = c.shape[0]
    rows, cols = linear_sum_assignment(c)
    best = float(c[rows, cols].sum())
    tol = 1e-9 * (1.0 + abs(best))
    perm = np.empty(n, dtype=int)
    available = list(range(n))
    fixed_cost = 0.0
    for i in range(n):
        tail = np.arange(i + 1, n)
        for j in available:
            rest = [col for col in available if col != j]
            completion = 0.0
            if tail.size:
                sub = c[np.ix_(tail, rest)]
                rr, cc = linear_sum_assignment(sub)
                completion = float(sub[rr, cc].sum())
            if fixed_cost + c[i, j] + completion <= best + tol:
                perm[i] = j
                fixed_cost += float(c[i, j])
                available.remove(j)
                break
    return perm


def brute_force_monotone(xs, ys):
    """Exhaustive cyclical-monotonicity check (identity maximizes gains)."""
    gains = xs @ ys.T
    n = xs.shape[0]
    idx = np.arange(n)
    identity = float(np.trace(gains))
    best = max(float(gains[idx, perm].sum()) for perm in itertools.permutations(range(n)))
    return best <= identity + 1e-9 * (1.0 + abs(identity) + abs(best))


def ipf_plan(rng, row_weights, col_weights, iterations=400):
    """Random feasible coupling via iterative proportional fitting."""
    plan = rng.uniform(0.5, 1.5, size=(len(row_weights), len(col_weights)))
    for _ in range(iterations):
        plan *= (row_weights / plan.sum(axis=1))[:, None]
        plan *= (col_weights / plan.sum(axis=0))[None, :]
    return plan


def duality_feasible_bruteforce(mu, nu, tol=1e-8):
    """Independent feasibility oracle for the transport-dual system.

    Any feasible ``K a = t, a >= 0`` admits a basic feasible solution whose
    positive support indexes linearly independent columns, so enumerating all
    independent column subsets decides feasibility exactly (up to floating
    tolerances).  Exponential in N*M; intended for N, M <= 3.
    """
    phi, alpha = mu.atoms, mu.weights
    psi, beta = nu.atoms, nu.weights
    n, m, d = mu.count, nu.count, mu.dim
    kmat = np.vstack(
        [
            np.kron(phi.T, psi.T),
            np.kron(np.eye(n), np.ones((1, m))),
            np.kron(np.ones((1, n)), np.eye(m)),
        ]
    )
    target = np.concatenate([np.eye(d).ravel(), alpha, beta])
    cols = n * m
    scale = 1.0 + float(np.abs(target).max())
    rank = np.linalg.matrix_rank(kmat)
    for size in range(1, min(rank, cols) + 1):
        for subset in itertools.combinations(range(cols), size):
            sub = kmat[:, subset]
            if np.linalg.matrix_rank(sub) < size:
                continue
            coeffs, *_ = np.linalg.lstsq(sub, target, rcond=None)
            if coeffs.min() < -1e-9:
                continue
            if float(np.abs(sub @ coeffs - target).max()) <= tol * scale:
                return True
    return False


def with_row_residual(solve_lp, residual):
    """Wrap ``solve_lp`` so that feasible points come back with ``residual``
    added to their first entry.  The point must still pass ``solve_lp``'s own
    residual rule, ``FEASIBILITY_TOL * (1 + max|t|)``."""

    def perturbed(lp):
        outcome = solve_lp(lp)
        if outcome.status != "feasible":
            return outcome
        solution = outcome.solution.copy()
        solution[0] += residual
        assert residual <= FEASIBILITY_TOL * (1.0 + float(np.abs(lp.rhs).max()))
        return LpOutcome(status="feasible", solution=solution)

    return perturbed
