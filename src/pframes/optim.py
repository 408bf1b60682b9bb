"""Exact small-scale solvers: equality-form LP and linear assignment.

``solve_lp`` decides feasibility of ``K a = t, a >= 0`` and, with an
objective, optimizes over that set, using the HiGHS dual revised simplex
(Huangfu and Hall, Math. Prog. Comp. 2018) shipped with scipy.  Feasible
systems come back with a solution whose nonnegativity and residual are
re-checked here; a point that HiGHS accepts at its default tolerance but that
misses a bound or a row by more than round-off is re-solved once at the
tightest tolerance.  Infeasible systems come back with a Farkas certificate
``y`` satisfying ``y^T K >= 0`` and ``y^T t < 0`` (up to the stated
tolerances), read off the equality duals of the elastic LP
``min 1^T (s+ + s-)  s.t.  K a + s+ - s- = t``; the certificate is
re-validated before it is returned, never emitted unchecked.  The intended
scale is couplings up to roughly 50 x 50.

``hungarian`` makes one ``linear_sum_assignment`` solve (Crouse, IEEE TAES
2016), takes duals for its permutation by complementary slackness, and
returns the lexicographically smallest permutation on edges whose reduced
cost is at most ``tol / n``, ``tol = 1e-9 (1 + |best|)``; every such
permutation costs at most ``best + tol``, which is re-checked.  Rows are
fixed one at a time with ``maximum_bipartite_matching`` (Hopcroft-Karp)
deciding whether the rows below still match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, linprog, milp
from scipy.sparse import csr_array
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import NumericError
from .linalg import as_matrix

Array = np.ndarray

FEASIBILITY_TOL = 1e-8
# HiGHS counts bound and row violations up to its primal feasibility
# tolerance (1e-7 by default) as feasible; this is the tightest it accepts.
HIGHS_TIGHT_TOL = 1e-10


@dataclass(frozen=True)
class LinearProgram:
    """``constraint_matrix @ a == rhs`` with ``a >= 0``; objective optional."""

    constraint_matrix: Array
    rhs: Array
    objective: Array | None = None


@dataclass(frozen=True)
class LpOutcome:
    """Exactly one of ``solution`` (status feasible) or ``dual_certificate``
    (status infeasible) is set."""

    status: str
    solution: Array | None = None
    dual_certificate: Array | None = None


def _farkas_certificate(kmat: Array, rhs: Array) -> Array:
    """Equality duals of the elastic LP, scaled to unit max-norm.

    The elastic dual is ``max t^T z  s.t.  K^T z <= 0, |z| <= 1``; a positive
    optimum means ``y = -z`` separates ``t`` from the cone ``K a, a >= 0``.
    """
    m, n = kmat.shape
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(2 * m)]),
        A_eq=np.hstack([kmat, np.eye(m), -np.eye(m)]),
        b_eq=rhs,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )
    if res.status != 0:
        raise NumericError(f"elastic LP failed: {res.message}")
    cert = -np.asarray(res.eqlin.marginals, dtype=float)
    peak = float(np.abs(cert).max())
    if peak <= 0.0:
        raise NumericError("degenerate Farkas certificate")
    return cert / peak


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Decide ``K a = t, a >= 0`` and optimize ``objective @ a`` when given.

    Returns one of the two Farkas alternatives with a verifying witness:
    either a nonnegative solution with residual below the feasibility
    tolerance, or a certificate vector proving no such solution exists.
    """
    kmat = as_matrix(lp.constraint_matrix, "constraint matrix")
    rhs = np.asarray(lp.rhs, dtype=float)
    m, n = kmat.shape
    if rhs.shape != (m,):
        raise ValueError(f"rhs must have length {m}, got shape {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    cost = np.zeros(n)
    if lp.objective is not None:
        cost = np.asarray(lp.objective, dtype=float)
        if cost.shape != (n,):
            raise ValueError(f"objective must have length {n}, got shape {cost.shape}")
        if not np.all(np.isfinite(cost)):
            raise ValueError("objective contains non-finite entries")

    res = milp(
        cost,
        bounds=Bounds(0.0, np.inf),
        constraints=LinearConstraint(kmat, rhs, rhs),
        options={"presolve": False},
    )
    if res.status == 2:
        cert = _farkas_certificate(kmat, rhs)
        if float((cert @ kmat).min()) < -FEASIBILITY_TOL or float(cert @ rhs) > -FEASIBILITY_TOL:
            raise NumericError("Farkas certificate failed re-validation")
        return LpOutcome(status="infeasible", dual_certificate=cert)
    if res.status == 3:
        raise NumericError("objective is unbounded below on the feasible set")
    if res.status != 0:
        raise NumericError(f"LP solver failed: {res.message}")

    solution = np.array(res.x, dtype=float)
    rhs_scale = 1.0 + float(np.abs(rhs).max())
    if (
        solution.min() < -HIGHS_TIGHT_TOL
        or float(np.abs(kmat @ solution - rhs).max()) > HIGHS_TIGHT_TOL * rhs_scale
    ):
        # At its default tolerance HiGHS may return a point off the polytope
        # by up to 1e-7: a basic entry below zero, or the row of a tiny
        # marginal weight left unmet.  Re-solve once at the tightest one.
        res = linprog(
            cost,
            A_eq=kmat,
            b_eq=rhs,
            bounds=(0, None),
            method="highs",
            options={"presolve": False, "primal_feasibility_tolerance": HIGHS_TIGHT_TOL},
        )
        if res.status != 0:
            raise NumericError(f"LP solver failed at tight tolerance: {res.message}")
        solution = np.array(res.x, dtype=float)

    solution[(solution < 0.0) & (solution > -1e-10)] = 0.0
    if solution.min() < -1e-10:
        raise NumericError("LP solution has a negative entry")
    residual = float(np.abs(kmat @ solution - rhs).max())
    if residual > FEASIBILITY_TOL * rhs_scale:
        raise NumericError(f"LP solution residual too large: {residual:.3e}")
    return LpOutcome(status="feasible", solution=solution)


def _column_duals(c: Array, sigma: Array) -> Array:
    """Column duals ``v`` certifying the optimality of ``sigma``.

    Shortest distances in the column graph with an edge ``sigma(i) -> j`` of
    weight ``c_ij - c_i,sigma(i)`` (row ``i`` moving to column ``j``), from a
    virtual source at distance 0 to every column; then ``c_ij - u_i - v_j >=
    0`` with equality on ``sigma`` for ``u_i = c_i,sigma(i) - v_sigma(i)``.
    Vectorised Bellman-Ford, at most ``n`` rounds: a round-off cycle in a
    tie-heavy cost only stops it early, never raises.
    """
    n = c.shape[0]
    weights = c - c[np.arange(n), sigma][:, None]
    v = np.zeros(n)
    for _ in range(n):
        relaxed = (v[sigma][:, None] + weights).min(axis=0)
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    return v


def hungarian(cost) -> Array:
    """Minimum-cost assignment for a square cost matrix.

    Returns the permutation ``sigma`` (as an index array, ``i -> sigma[i]``)
    minimizing ``sum_i cost[i, sigma[i]]``; ties resolve deterministically.

    One ``linear_sum_assignment`` solve gives an optimal permutation; its
    duals ``(u, v)`` (complementary slackness, see ``_column_duals``) mark an
    edge tight when ``c_ij - u_i - v_j <= tol / n`` with ``tol = 1e-9 (1 +
    |best|)``.  The result is the lexicographically smallest permutation on
    tight edges: row by row, the smallest free tight column that still leaves
    a perfect tight matching of the rows below.  Every such permutation costs
    at most ``best + tol``, and every optimal one is on tight edges (up to
    round-off); the total is re-checked against ``best + tol``.
    """
    c = as_matrix(cost, "cost")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    rows, perm = linear_sum_assignment(c)
    best = float(c[rows, perm].sum())
    tol = 1e-9 * (1.0 + abs(best))
    v = _column_duals(c, perm)
    u = c[rows, perm] - v[perm]
    tight = c - u[:, None] - v[None, :] <= tol / n

    free = np.ones(n, dtype=bool)
    for i in range(n - 1):
        for j in np.flatnonzero(tight[i, : perm[i]] & free[: perm[i]]):
            rest = free.copy()
            rest[j] = False
            cols = np.flatnonzero(rest)
            match = maximum_bipartite_matching(
                csr_array(tight[i + 1 :][:, cols]), perm_type="column"
            )
            if (match >= 0).all():
                perm[i] = j
                perm[i + 1 :] = cols[match]
                break
        free[perm[i]] = False
    if float(c[rows, perm].sum()) > best + tol:
        raise NumericError("lexicographic assignment left the optimal cost")
    return perm
