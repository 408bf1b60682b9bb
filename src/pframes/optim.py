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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linear_sum_assignment, linprog, milp

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


def hungarian(cost) -> Array:
    """Minimum-cost assignment for a square cost matrix.

    Returns the permutation ``sigma`` (as an index array, ``i -> sigma[i]``)
    minimizing ``sum_i cost[i, sigma[i]]``; among all optimal assignments the
    lexicographically smallest one is returned, so ties resolve
    deterministically.
    """
    c = as_matrix(cost, "cost")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
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
            if tail.size:
                sub = c[np.ix_(tail, rest)]
                rr, cc = linear_sum_assignment(sub)
                completion = float(sub[rr, cc].sum())
            else:
                completion = 0.0
            if fixed_cost + c[i, j] + completion <= best + tol:
                perm[i] = j
                fixed_cost += float(c[i, j])
                available.remove(j)
                break
        else:  # pragma: no cover - optimum always extendable
            raise NumericError("assignment refinement failed to extend a partial optimum")
    return perm
