"""Discrete 2-Wasserstein distance, optimal plans, and cyclical monotonicity.

The squared distance between two finitely supported measures is the optimal
value of the transportation LP with squared-Euclidean cost.  When both
measures are uniform with equal support size, the Birkhoff-von Neumann
reduction applies: an optimal coupling is a permutation matrix over N, found
by the assignment solver; other pairs solve the LP.  Before either, a pair
of equal-weight measures tries the identity pairing, which the paper's pairs
often are optimally: a frame and its canonical dual pair by ``x -> S^{-1}
x``, the gradient of the convex ``x^T S^{-1} x / 2``, so the pairing is
cyclically monotone (Rockafellar 1966) and the diagonal coupling optimal.
``optim.identity_potentials`` accepts it when no transposition improves it
and its Kantorovich potentials bound its distance from the optimal
assignment to round-off; ``optim.hungarian`` applies that rule before its
solve, so uniform pairs and ``is_cyclically_monotone`` (after its own
transposition witness) get it from there.  Every plan is certified, not
re-solved: its Kantorovich potentials must be dual feasible and close the
primal-dual gap.  A permutation's potentials are the ones ``hungarian``
returns with it, an LP plan's are the LP's own row duals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import TransportPlan, deterministic_plan
from .linalg import as_matrix
from .measures import DiscreteMeasure, weights_equal
from .optim import (
    ASSIGNMENT_RTOL,
    best_transposition,
    certify_potentials,
    hungarian,
    identity_potentials,
    marginal_rows,
    solve_lp,
)

Array = np.ndarray


@dataclass(frozen=True)
class OtSolution:
    """Optimal squared distance, the realizing plan, (for uniform
    equal-cardinality inputs) the optimal permutation, and the Kantorovich
    potentials ``(u, v)`` that certify the plan: the identity's, those of
    the permutation ``linear_sum_assignment`` found (within ``tol / n`` of
    tight on the returned one, see ``optim.hungarian``), or the LP's row
    duals."""

    distance_squared: float
    plan: TransportPlan
    permutation: Array | None = None
    potentials: tuple[Array, Array] | None = None


def squared_distance_matrix(xs: Array, ys: Array) -> Array:
    diff = xs[:, None, :] - ys[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> OtSolution:
    """Optimal transport between two discrete measures for squared cost.

    Uniform inputs of equal cardinality (``weights_equal`` to ``1 / n``)
    take the assignment route, ``optim.hungarian``, which accepts the
    identity pairing before any solve.  Other inputs of equal cardinality
    whose weights are ``weights_equal`` atom by atom try the identity pairing
    (``optim.identity_potentials``); when it is accepted, the plan is the
    diagonal coupling and no solver runs.  All others solve the LP.  Every
    plan is certified on the one cost matrix: its Kantorovich potentials (the
    assignment's from ``hungarian``, the identity's, or the LP's row duals)
    must pass ``certify_potentials``, or ``NumericError`` names the minimum
    slack and the primal-dual gap; the potentials come back with the plan.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    cost = squared_distance_matrix(mu.atoms, nu.atoms)
    n, m = mu.count, nu.count
    sigma = potentials = None
    uniform = n == m and weights_equal(mu.weights, 1.0 / n) and weights_equal(nu.weights, 1.0 / n)
    if not uniform and n == m and weights_equal(mu.weights, nu.weights):
        potentials = identity_potentials(cost, mu.weights)
    if uniform:
        sigma, potentials = hungarian(cost)
        value = float(cost[np.arange(n), sigma].sum() / n)
        coupling = np.zeros((n, n))
        coupling[np.arange(n), sigma] = 1.0 / n
        plan = TransportPlan.from_solver(mu, nu, coupling)
    elif potentials is not None:
        plan = deterministic_plan(mu, nu)
        value = float((plan.coupling * cost).sum())
    else:
        rhs = np.concatenate([mu.weights, nu.weights])
        outcome = solve_lp(marginal_rows(n, m), rhs, cost.ravel())
        coupling = outcome.solution.reshape(n, m)
        value = float((coupling * cost).sum())
        plan = TransportPlan.from_solver(mu, nu, coupling)
        potentials = outcome.row_duals[:n], outcome.row_duals[n:]
    u, v = potentials
    certify_potentials(cost, plan.coupling, mu.weights, nu.weights, u, v, "transport plan")
    return OtSolution(
        distance_squared=max(value, 0.0), plan=plan, permutation=sigma, potentials=(u, v)
    )


def optimal_permutation(phi: Array, psi: Array) -> Array:
    """Permutation minimizing total squared displacement between two lists.

    Equivalently maximizes the total inner product (the squared norms do not
    depend on the pairing, so they cancel).  Ties resolve to the
    lexicographically smallest permutation.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != psi.shape or phi.ndim != 2:
        raise ValueError(f"inputs must share shape (N, d), got {phi.shape} and {psi.shape}")
    return hungarian(squared_distance_matrix(phi, psi))[0]


def is_cyclically_monotone(pairs) -> tuple[bool, Array | None]:
    """Whether the identity pairing maximizes the total inner product.

    ``pairs`` is a sequence of ``(x_i, y_i)`` vectors.  A subset permutation
    always extends to a full permutation by fixing the remaining indices, so
    checking a single N x N assignment over all pairs decides monotonicity of
    the whole set.  When the answer is no, a permutation beating the identity
    is returned as witness.

    On the negated gains, ``best_transposition`` finds the transposition
    that beats the identity most; by more than ``tol = ASSIGNMENT_RTOL (1 +
    |identity| + |best|)``, it is the witness.  Otherwise ``hungarian``
    decides, and accepts an optimal identity by its potentials without a
    solve.  Non-finite gains raise ``ValueError``.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must be nonempty")
    xs = np.asarray([np.asarray(p[0], dtype=float) for p in pairs])
    ys = np.asarray([np.asarray(p[1], dtype=float) for p in pairs])
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise ValueError("pairs must hold vectors of one common dimension")
    n = len(pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        gains = xs @ ys.T  # as_matrix rejects the non-finite entries
    gains = as_matrix(gains, "cost")
    identity_value = float(np.trace(gains))

    def beats_identity(sigma: Array) -> bool:
        value = float(gains[np.arange(n), sigma].sum())
        return value > identity_value + ASSIGNMENT_RTOL * (
            1.0 + abs(identity_value) + abs(value)
        )

    i, j, _ = best_transposition(-gains)
    sigma = np.arange(n)
    sigma[[i, j]] = j, i
    if beats_identity(sigma):
        return False, sigma
    sigma = hungarian(-gains)[0]
    if beats_identity(sigma):
        return False, sigma
    return True, None
