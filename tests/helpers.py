"""Shared test utilities: random frames, brute-force oracles, feasible-plan
generators, a call counter, a ``solve_lp`` wrapper that injects a residual,
a reference duplicate merge, a per-measure geodesic profile, a dense
determinant sign scan, a per-point Gaussian path, and power-cell helpers.
The oracles are independent of the solver paths they check."""

import dataclasses
import itertools

import numpy as np

from scipy.optimize import linear_sum_assignment

from pframes.geodesics import GeodesicProfile, gaussian_optimal_map, geodesic_measure
from pframes.measures import DiscreteMeasure, frame_operator, frame_report
from pframes.optim import FEASIBILITY_TOL

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


def counting(monkeypatch, module, *names):
    """Wrap each named attribute of ``module`` so that every call appends its
    name to the returned list, in call order."""
    calls = []
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def with_row_residual(solve_lp, residual):
    """Wrap ``solve_lp`` so that feasible points come back with ``residual``
    added to their first entry, after ``solve_lp``'s own residual check.
    A residual above ``FEASIBILITY_TOL`` stands for a fault past that check,
    which only ``TransportPlan.from_solver`` can still catch."""

    def perturbed(*args):
        outcome = solve_lp(*args)
        if outcome.status != "feasible":
            return outcome
        solution = outcome.solution.copy()
        solution[0] += residual
        assert residual > FEASIBILITY_TOL
        return dataclasses.replace(outcome, solution=solution)

    return perturbed


def merge_by_unique(measure):
    """Duplicate merge by ``np.unique(axis=0)``, first occurrences kept in
    order and weights summed with ``np.add.at``: a reference for the
    library's lexsort grouping only."""
    _, first, inverse = np.unique(measure.atoms, axis=0, return_index=True, return_inverse=True)
    if first.shape[0] == measure.count:
        return measure
    order = np.argsort(first)
    relabel = np.empty_like(order)
    relabel[order] = np.arange(order.size)
    weights = np.zeros(first.shape[0])
    np.add.at(weights, relabel[inverse], measure.weights)
    return DiscreteMeasure(atoms=measure.atoms[np.sort(first)], weights=weights)


def profile_by_measures(plan, grid_size):
    """Geodesic profile one interpolant at a time: ``geodesic_measure`` (with
    its duplicate-atom merge) and ``frame_report`` at every grid point, a
    reference for the closed-form profile only."""
    ts = np.linspace(0.0, 1.0, grid_size)
    reports = [frame_report(geodesic_measure(plan, float(t))) for t in ts]
    return GeodesicProfile(
        ts=ts,
        lower_bounds=np.array([r.lower_bound for r in reports]),
        upper_bounds=np.array([r.upper_bound for r in reports]),
        second_moments=np.array([r.second_moment for r in reports]),
        all_frames=all(r.is_frame for r in reports),
    )


def det_sign_changes(x, y, points=200_001):
    """The ``t`` of a dense grid on [0, 1] after which ``det((1-t) X + t Y)``
    changes sign, for square ``X`` and ``Y`` of size 2 or 3 (one atom a row):
    a reference for the off-grid frame test of ``geodesic_profile`` only."""
    ts = np.linspace(0.0, 1.0, points)
    m = (1.0 - ts)[:, None, None] * x + ts[:, None, None] * y
    if x.shape[0] == 2:
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    else:
        det = np.einsum("ij,ij->i", m[:, 0], np.cross(m[:, 1], m[:, 2]))
    return ts[np.flatnonzero(np.signbit(det[:-1]) != np.signbit(det[1:]))]


def gaussian_path_by_loop(g0, g1, grid_size):
    """Bounds and traces of ``M_t S0 M_t^T``, ``M_t = (1-t) I + t A``, one
    grid point at a time: a reference for the library's batched moment path
    only.  Returns ``(ts, lower, upper, second_moments)``."""
    amap = gaussian_optimal_map(g0, g1)
    ts = np.linspace(0.0, 1.0, grid_size)
    rows = []
    for t in ts:
        mt = (1.0 - t) * np.eye(g0.dim) + t * amap
        sigma_t = mt @ g0.covariance @ mt.T
        sigma_t = 0.5 * (sigma_t + sigma_t.T)
        w = np.linalg.eigvalsh(sigma_t)
        rows.append((w[0], w[-1], np.trace(sigma_t)))
    lower, upper, moments = np.array(rows).T
    return ts, lower, upper, moments


def broadcast_power_scores(sites, weights, points):
    """``||x - p||^2 - w(p)`` for every point and site, by broadcasting: an
    ``(S, n, d)`` temporary, a reference for the library's GEMM kernel only."""
    return ((points[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2) - weights[None, :]


def row_major_power_scores(sites, weights, points, rows):
    """Points-by-sites power scores ``x (-2 P^T) + |p|^2 - w`` by one GEMM
    per block of ``rows`` points, the transpose of the library's site-major
    blocks: a reference for its GEMM only."""
    blocks = []
    for start in range(0, points.shape[0], rows):
        block = points[start : start + rows] @ (-2.0 * sites.T)
        block += (sites**2).sum(axis=1) - weights
        blocks.append(block)
    return np.vstack(blocks)


def argmin_nearest_two(scores):
    """Best column, second-best column and their score gap per row of
    ``scores`` by ``argmin`` along rows, a reference for the library's
    minima over sites only."""
    rows = np.arange(scores.shape[0])
    scores = scores.copy()
    best = scores.argmin(axis=1)
    low = scores[rows, best]
    scores[rows, best] = np.inf
    second = scores.argmin(axis=1)
    return best, second, scores[rows, second] - low


def spread_sites(rng, reference, count):
    """Sites spread over ``reference`` by farthest-point sampling of a pool."""
    pool = reference.sample(rng, 4000)
    chosen = [0]
    gap = ((pool - pool[0]) ** 2).sum(axis=1)
    for _ in range(count - 1):
        chosen.append(int(np.argmax(gap)))
        gap = np.minimum(gap, ((pool - pool[chosen[-1]]) ** 2).sum(axis=1))
    return pool[chosen]


def gathered_analysis(x, coupling):
    """``analysis`` values by gathering one table row per sample: an ``(S, k)``
    temporary, a reference for the library's per-cell form only."""
    return coupling.site_map[coupling.sample_cells] @ np.asarray(x, dtype=float)


def gathered_synthesis(values, coupling):
    """``synthesis`` as the mean of ``values`` times each sample's gathered
    table row, a reference for the library's per-cell form only."""
    return (values[:, None] * coupling.site_map[coupling.sample_cells]).mean(axis=0)
