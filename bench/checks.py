"""Independent verification of every benchmark operation.

Each check recomputes what it needs with numpy and scipy directly and never
calls the library's own checkers.  A check raises ``CheckFailed`` when the
result is wrong and returns ``None`` when it holds.  Couplings are checked
by their defining properties, never byte for byte: another LP backend may
return a different optimal vertex.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

# The library's documented contracts, restated so the checks stand alone.
PLAN_TOL = 1e-8
PRODUCT_TOL = 1e-7
CERTIFICATE_TOL = 1e-8
# HiGHS stops at its own optimality tolerance, so values are compared
# relative to their scale at a tolerance HiGHS always meets.
VALUE_RTOL = 1e-6


class CheckFailed(Exception):
    """The operation returned, but its result is wrong."""


class NumericFailure(Exception):
    """The operation reported a numeric failure by other means than
    raising (the CLI's exit code 3)."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def merged(atoms: np.ndarray, weights: np.ndarray) -> dict[tuple, float]:
    """Mass per distinct support point: duplicates are combined exactly."""
    out: dict[tuple, float] = {}
    for atom, weight in zip(map(tuple, atoms), weights):
        out[atom] = out.get(atom, 0.0) + float(weight)
    return out


def check_same_measure(atoms, weights, ref_atoms, ref_weights, side: str) -> None:
    """The plan's side is the input measure with duplicates merged."""
    got = merged(np.asarray(atoms), np.asarray(weights))
    want = merged(np.asarray(ref_atoms), np.asarray(ref_weights))
    require(got.keys() == want.keys(), f"{side} support differs from the input")
    require(
        max(abs(got[k] - want[k]) for k in want) <= PLAN_TOL,
        f"{side} weights differ from the input",
    )


def check_coupling(coupling, row_weights, col_weights) -> None:
    a = np.asarray(coupling, dtype=float)
    require(a.shape == (len(row_weights), len(col_weights)), "coupling shape is wrong")
    require(bool(np.all(np.isfinite(a))), "coupling is not finite")
    require(float(a.min()) >= -1e-10, "coupling has negative mass")
    require(float(np.abs(a.sum(axis=1) - row_weights).max()) <= PLAN_TOL, "row marginal is wrong")
    require(float(np.abs(a.sum(axis=0) - col_weights).max()) <= PLAN_TOL, "column marginal is wrong")


def check_dual_plan(phi, coupling, psi, row_weights, col_weights) -> None:
    """A transport-dual coupling: marginals, and max|Phi^T A Psi - I|."""
    check_coupling(coupling, row_weights, col_weights)
    phi, psi = np.asarray(phi, dtype=float), np.asarray(psi, dtype=float)
    d = phi.shape[1]
    residual = float(np.abs(phi.T @ np.asarray(coupling) @ psi - np.eye(d)).max())
    require(residual <= PRODUCT_TOL, f"cross moment misses the identity by {residual:.3e}")


def check_certificate(B, u, v, phi, alpha, psi, beta) -> None:
    """The Farkas inequalities of the transport-dual system, evaluated directly:
    phi_i^T B psi_j + u_i + v_j >= 0 for all pairs, and
    trace(B) + u . alpha + v . beta < 0."""
    B, u, v = (np.asarray(x, dtype=float) for x in (B, u, v))
    phi, psi = np.asarray(phi, dtype=float), np.asarray(psi, dtype=float)
    require(B.shape == (phi.shape[1], phi.shape[1]), "certificate B has the wrong shape")
    require(u.shape == (phi.shape[0],) and v.shape == (psi.shape[0],), "certificate u/v shape")
    pairings = phi @ B @ psi.T + u[:, None] + v[None, :]
    combined = float(np.trace(B) + u @ np.asarray(alpha) + v @ np.asarray(beta))
    require(float(pairings.min()) >= -CERTIFICATE_TOL, "certificate pairing inequality fails")
    require(combined <= -CERTIFICATE_TOL, "certificate objective is not negative")


def squared_costs(xs, ys) -> np.ndarray:
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return (xs**2).sum(1)[:, None] + (ys**2).sum(1)[None, :] - 2.0 * xs @ ys.T


def highs_transport_value(alpha, beta, cost) -> float:
    """Optimal transport cost from HiGHS on the same cost matrix."""
    n, m = cost.shape
    a_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(n), np.ones((1, m))),
            sparse.kron(np.ones((1, n)), sparse.eye(m)),
        ]
    ).tocsr()
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([alpha, beta]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_value(got: float, want: float, what: str) -> None:
    require(
        abs(got - want) <= VALUE_RTOL * (1.0 + abs(want)),
        f"{what} {got!r} differs from the reference {want!r}",
    )


def check_permutation(perm, cost) -> None:
    """A permutation whose cost equals the assignment optimum."""
    perm = np.asarray(perm)
    n = cost.shape[0]
    require(perm.shape == (n,) and sorted(perm.tolist()) == list(range(n)), "not a permutation")
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    got = float(cost[np.arange(n), perm].sum())
    require(got <= best + 1e-9 * (1.0 + abs(best)), f"assignment cost {got} above optimum {best}")


def check_monotone(answer, witness, xs, ys) -> None:
    """Cyclical monotonicity decided against a scipy assignment."""
    gains = np.asarray(xs) @ np.asarray(ys).T
    n = gains.shape[0]
    identity = float(np.trace(gains))
    rows, cols = linear_sum_assignment(-gains)
    best = float(gains[rows, cols].sum())
    slack = 1e-8 * (1.0 + abs(identity) + abs(best))
    if answer:
        require(witness is None, "monotone answer carries a witness")
        require(best <= identity + slack, "identity pairing is not optimal")
    else:
        w = np.asarray(witness)
        require(sorted(w.tolist()) == list(range(n)), "witness is not a permutation")
        require(float(gains[np.arange(n), w].sum()) > identity, "witness does not beat identity")
        require(best > identity - slack, "identity is optimal but reported non-monotone")


def check_profile(ts, lows, highs, m2, mu0, mu1, grid: int) -> None:
    """Frame bounds at both ends, and the second moment along the whole path.

    Along a W2 geodesic E|x_t|^2 = (1-t)^2 m0 + t^2 m1 + 2t(1-t) c, with the
    optimal cross term c = (m0 + m1 - W2^2) / 2 taken from HiGHS.
    """
    ts, lows, highs, m2 = (np.asarray(x, dtype=float) for x in (ts, lows, highs, m2))
    require(ts.shape == (grid,) and np.allclose(ts, np.linspace(0.0, 1.0, grid)), "grid is wrong")
    for idx, (atoms, weights) in ((0, mu0), (-1, mu1)):
        w = np.linalg.eigvalsh(atoms.T @ (weights[:, None] * atoms))
        require(abs(lows[idx] - max(w[0], 0.0)) <= 1e-9 * (1 + w[-1]), "endpoint lower bound")
        require(abs(highs[idx] - w[-1]) <= 1e-9 * (1 + w[-1]), "endpoint upper bound")
    (x0, a0), (x1, a1) = mu0, mu1
    m0 = float(a0 @ (x0**2).sum(1))
    m1 = float(a1 @ (x1**2).sum(1))
    w2 = highs_transport_value(a0, a1, squared_costs(x0, x1))
    cross = 0.5 * (m0 + m1 - w2)
    expect = (1 - ts) ** 2 * m0 + ts**2 * m1 + 2 * ts * (1 - ts) * cross
    gap = float(np.abs(m2 - expect).max())
    require(gap <= VALUE_RTOL * (1.0 + m0 + m1), f"second moment leaves the geodesic by {gap:.3e}")
    require(bool(np.all(lows <= highs + 1e-12)), "lower bound above upper bound")


def power_cells(sites, weights, points, chunk: int = 65536) -> np.ndarray:
    """argmin_p |x - p|^2 - w_p in GEMM form, lowest index on ties."""
    sites = np.asarray(sites, dtype=float)
    offset = (sites**2).sum(1) - np.asarray(weights, dtype=float)
    cells = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], chunk):
        block = points[start : start + chunk]
        cells[start : start + chunk] = np.argmin(offset[None, :] - 2.0 * block @ sites.T, axis=1)
    return cells


def check_masses(achieved, cells, sites, weights, points, targets, tol: float) -> None:
    """Masses recomputed from the returned weights and the samples.

    The GEMM form rounds differently from a broadcast difference, so points
    within rounding of a cell boundary may land in the neighbouring cell;
    a handful of samples is allowed to move.
    """
    count = points.shape[0]
    mine = power_cells(sites, weights, points)
    moved = int(np.count_nonzero(mine != np.asarray(cells)))
    require(moved <= max(3, count // 100000), f"{moved} samples assigned to another cell")
    masses = np.bincount(mine, minlength=len(targets)) / count
    require(
        float(np.abs(masses - np.asarray(achieved)).max()) <= (moved + 1) / count,
        "achieved masses differ from the recomputed cell masses",
    )
    slack = tol + (moved + 1) / count
    require(float(np.abs(masses - targets).max()) <= slack, "cell masses miss their targets")
