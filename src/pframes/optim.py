"""Exact small-scale solvers: equality-form LP, linear assignment, and
Kantorovich potentials.

``solve_lp`` decides feasibility of ``K a = t, a >= 0`` and, with an
objective, optimizes over that set, using the HiGHS dual revised simplex
(Huangfu and Hall, Math. Prog. Comp. 2018) shipped with scipy.  Every LP is
one call into scipy's HiGHS bindings (``_highs``), at its tightest primal
feasibility tolerance ``HIGHS_TIGHT_TOL``, with no ``linprog`` or ``milp``
front-end, on a matrix in compressed sparse column form held as plain arrays
(``Csc``) and written column by column: ``marginal_rows`` builds the
transportation polytope's rows from index arrays, below dense head rows when
a caller has them.  Without an objective ``solve_lp`` solves one LP, the
elastic LP ``min 1^T (s+ + s-)  s.t.  K a + s+ - s- = t``: zero slack (up
to ``FEASIBILITY_TOL``) gives the solution, positive slack gives a Farkas
certificate ``y`` satisfying ``y^T K >= 0`` and ``y^T t < 0`` (up to the
stated tolerances), read off its row duals.
With an objective it solves the LP itself, returns its row duals with the
point, and any status but optimal is a ``NumericError``: W2, the one such
caller, solves over a transportation polytope, never empty and with its cost
bounded, and certifies its plan by those duals.  A solution's nonnegativity
and residual are re-checked here, the residual against ``FEASIBILITY_TOL``
itself, so no point off a weight row by more than ``PLAN_TOL`` is accepted.
The certificate is re-validated before it is returned, never emitted
unchecked.  The intended scale is couplings up to roughly 50 x 50, and W2 on
a few hundred atoms.

``kantorovich_potentials`` finds dual potentials ``(u, v)`` for a
permutation of a square cost by Bellman-Ford on its difference constraints,
and ``certify_potentials`` checks that potentials prove a coupling optimal:
dual feasibility and a zero primal-dual gap, both to ``OPTIMALITY_RTOL``.

``identity_potentials`` decides, without an assignment solve, whether the
identity coupling of two equal-weight measures is optimal: a transposition
that improves it, from ``best_transposition``'s one ``O(n^2)`` test, rejects
it; otherwise it is accepted when its own Kantorovich potentials leave no
reduced cost below ``-tol / n``.

``hungarian`` returns an optimal permutation with the potentials that
certify it.  It accepts the identity by ``identity_potentials`` first;
otherwise it makes one ``linear_sum_assignment`` solve (Crouse, IEEE TAES
2016), takes potentials for its permutation from Bellman-Ford, and returns
the lexicographically smallest permutation on edges whose reduced cost is at
most ``tol / n`` (``tol = ASSIGNMENT_RTOL (1 + |best|)``); it fixes rows in
order, rerouting the rows below along one alternating path of such edges.
That tie-break runs on Python integers used as bitsets, one per row and one
per column of the tight edges, packed once: each row's candidates are one
mask, and its search backwards through the rows below goes level by level,
each level a mask of columns, with no numpy call per row.

The only scipy code this module runs is two compiled modules,
``scipy.optimize._highspy._core`` (HiGHS) and ``scipy.optimize._lsap``
(``linear_sum_assignment``), loaded from their files on first use by
``_scipy_extension``.  Neither the ``scipy.optimize`` package, whose
``__init__`` imports ``scipy.sparse``, ``scipy.linalg`` and the rest of
scipy's optimizers, nor ``scipy.sparse`` is imported: importing the package
loads no scipy module, and a command that solves loads only those two.
``linear_sum_assignment`` is a module-level shim that ``hungarian`` calls
through the module global, so patching this module's attribute still
replaces or counts the solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .linalg import as_matrix

Array = np.ndarray

FEASIBILITY_TOL = 1e-8
# Coupling entries at or below this are exact zeros of the support (an LP
# returns zeros only up to tolerance).
MASS_EPS = 1e-12
# Potentials moving by less than this, relative to 1 + max|cost|, in a
# Bellman-Ford round have converged up to round-off.
ROUNDOFF_RTOL = 1e-14
# Relative bound, on 1 + |optimal value|, for the slack and the primal-dual
# gap of a Kantorovich potentials certificate.
OPTIMALITY_RTOL = 1e-8
# Every solve runs at HiGHS' tightest primal feasibility tolerance (its
# default, 1e-7, lets points off the polytope through); a returned LP entry
# above -HIGHS_TIGHT_TOL is round-off and reads as zero.
HIGHS_TIGHT_TOL = 1e-10
# Assignment values within ASSIGNMENT_RTOL * (1 + |value|) of each other tie.
ASSIGNMENT_RTOL = 1e-9


@dataclass(frozen=True)
class LpOutcome:
    """Exactly one of ``solution`` (status feasible) or ``dual_certificate``
    (status infeasible) is set, with the ``row_duals`` of an optimized LP."""

    status: str
    solution: Array | None = None
    dual_certificate: Array | None = None
    row_duals: Array | None = None


@dataclass(frozen=True)
class Csc:
    """A sparse matrix in compressed sparse column form, the layout HiGHS
    reads: column ``j`` holds the entries ``data[k]`` in rows ``indices[k]``
    for ``k`` in ``range(indptr[j], indptr[j + 1])``."""

    shape: tuple[int, int]
    indptr: Array
    indices: Array
    data: Array

    def matvec(self, a: Array) -> Array:
        """``K a``."""
        scaled = self.data * np.repeat(a, np.diff(self.indptr))
        return np.bincount(self.indices, weights=scaled, minlength=self.shape[0])

    def rmatvec(self, y: Array) -> Array:
        """``y^T K``."""
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return np.bincount(cols, weights=y[self.indices] * self.data, minlength=self.shape[1])


def _scipy_extension(name: str):
    """scipy's compiled module ``scipy.optimize.<name>``, loaded from its file.

    ``find_spec("scipy")`` locates the package without running its
    ``__init__``; the module is loaded under its real dotted name and
    registered in ``sys.modules``, so a later ``import scipy.optimize``
    reuses this very object (and one loaded by scipy first is returned
    here), and the extension is never initialised twice.
    """
    qualname = f"scipy.optimize.{name}"
    module = sys.modules.get(qualname)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"{qualname} needs scipy, which is not installed")
    base = os.path.join(spec.submodule_search_locations[0], "optimize", *name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = base + suffix
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(qualname, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(qualname, loader))
            sys.modules[qualname] = module
            loader.exec_module(module)
            return module
    from importlib.metadata import version

    raise ImportError(f"scipy {version('scipy')} has no compiled module {qualname}")


def _dense_csc(a: Array) -> Csc:
    """The nonzeros of a dense matrix, column by column, rows ascending."""
    cols, rows = np.nonzero(a.T)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=a.shape[1]))])
    return Csc(a.shape, indptr, rows, a[rows, cols])


def marginal_rows(n: int, m: int, head: Array | None = None) -> Csc:
    """Row sums, then column sums, of an ``n x m`` coupling flattened row-major:
    the ``n + m`` equality rows of the transportation polytope ``DS(alpha,
    beta)``, ahead of the right-hand side ``[alpha, beta]``, below the dense
    rows of ``head`` when given.

    Written column by column: column ``i m + j`` holds the nonzeros of
    ``head[:, i m + j]``, then a one in row ``i`` and a one in row ``n + j``
    of the marginal block.
    """
    if head is None:
        head = np.zeros((0, n * m))
    top = head.shape[0]
    cols, rows = np.nonzero(head.T)
    counts = np.bincount(cols, minlength=n * m) + 2
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    # Column c starts after the head entries of the columns before it and
    # their 2 c marginal entries, so the k-th head entry in column-major
    # order, in column c, lands at k + 2 c.
    slots = np.arange(cols.size) + 2 * cols
    indices[slots], data[slots] = rows, head[rows, cols]
    col = np.arange(n * m)
    indices[indptr[1:] - 2], indices[indptr[1:] - 1] = top + col // m, top + n + col % m
    data[indptr[1:] - 2] = data[indptr[1:] - 1] = 1.0
    return Csc((top + n + m, n * m), indptr, indices, data)


def _highs(cost: Array, kmat: Csc, rhs: Array) -> tuple[Array, Array, float]:
    """One HiGHS solve of ``min cost^T a  s.t.  K a = t, a >= 0``: presolve and
    output off, the primal feasibility tolerance ``HIGHS_TIGHT_TOL``.
    Returns the point, the row duals ``y`` (reduced costs ``cost - K^T y``)
    and the objective; any model status but optimal (infeasible, unbounded
    or failed) raises ``NumericError``.
    """
    # scipy's private HiGHS bindings (run on scipy 1.17.1).
    core = _scipy_extension("_highspy._core")
    m, n = kmat.shape
    lp = core.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = np.zeros(n), np.full(n, np.inf)
    lp.row_lower_ = lp.row_upper_ = rhs
    matrix = lp.a_matrix_
    matrix.format_ = core.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_, matrix.index_, matrix.value_ = kmat.indptr, kmat.indices, kmat.data
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("primal_feasibility_tolerance", HIGHS_TIGHT_TOL)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise NumericError(f"LP solver failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    objective = float(highs.getInfo().objective_function_value)
    return np.array(solution.col_value), np.array(solution.row_dual), objective


def _elastic_lp(kmat: Csc, rhs: Array) -> tuple[Array | None, Array | None]:
    """Solve ``min 1^T (s+ + s-)  s.t.  K a + s+ - s- = t`` with every
    variable nonnegative; return ``(a, None)`` or ``(None, y)``.

    The slack columns ``+I`` and ``-I`` are appended to the arrays of
    ``kmat``.  A slack within ``FEASIBILITY_TOL`` gives the ``a`` part, still
    to be checked by the caller.  A larger slack gives the row duals as a
    Farkas certificate: the elastic dual is ``max t^T z  s.t.  K^T z <= 0,
    |z| <= 1``, so ``y = -z`` scaled to unit max-norm has ``y^T K >= 0`` and
    ``y^T t <= -slack``.  It is re-validated before it is returned.
    """
    m, n = kmat.shape
    slack_rows = np.arange(m)
    elastic = Csc(
        (m, n + 2 * m),
        np.concatenate([kmat.indptr, kmat.indptr[-1] + np.arange(1, 2 * m + 1)]),
        np.concatenate([kmat.indices, slack_rows, slack_rows]),
        np.concatenate([kmat.data, np.ones(m), -np.ones(m)]),
    )
    x, duals, slack = _highs(np.concatenate([np.zeros(n), np.ones(2 * m)]), elastic, rhs)
    if slack <= FEASIBILITY_TOL:
        return x[:n], None
    cert = -duals
    peak = float(np.abs(cert).max())
    if peak <= 0.0:
        raise NumericError("degenerate Farkas certificate")
    cert = cert / peak
    if float(kmat.rmatvec(cert).min()) < -FEASIBILITY_TOL or float(cert @ rhs) > -FEASIBILITY_TOL:
        raise NumericError("Farkas certificate failed re-validation")
    return None, cert


def solve_lp(constraint_matrix, rhs, objective=None) -> LpOutcome:
    """Decide ``K a = t, a >= 0`` and optimize ``objective @ a`` when given.

    ``K`` is a dense matrix or a ``Csc``; a ``scipy.sparse`` matrix is
    rejected, not converted.  Returns one of the two Farkas alternatives with
    a verifying witness: either a nonnegative solution with residual at most
    ``FEASIBILITY_TOL``, or a certificate vector proving no such solution
    exists.  Without an objective this is one solve, of the elastic LP; with
    one it is one solve of the LP itself, whose row duals come back with the
    solution, and a system that HiGHS does not solve to optimality
    (infeasible, unbounded or failed) raises ``NumericError``.
    """
    if isinstance(constraint_matrix, Csc):
        kmat = constraint_matrix
    else:
        kmat = _dense_csc(as_matrix(constraint_matrix, "constraint matrix"))
    if min(kmat.shape) < 1 or not np.all(np.isfinite(kmat.data)):
        raise ValueError(f"constraint matrix must be nonempty and finite, got shape {kmat.shape}")
    rhs = np.asarray(rhs, dtype=float)
    m, n = kmat.shape
    if rhs.shape != (m,):
        raise ValueError(f"rhs must have length {m}, got shape {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    duals = None
    if objective is None:
        solution, cert = _elastic_lp(kmat, rhs)
        if cert is not None:
            return LpOutcome(status="infeasible", dual_certificate=cert)
    else:
        cost = np.asarray(objective, dtype=float)
        if cost.shape != (n,):
            raise ValueError(f"objective must have length {n}, got shape {cost.shape}")
        if not np.all(np.isfinite(cost)):
            raise ValueError("objective contains non-finite entries")
        solution, duals, _ = _highs(cost, kmat, rhs)

    solution[(solution < 0.0) & (solution > -HIGHS_TIGHT_TOL)] = 0.0
    if solution.min() < -HIGHS_TIGHT_TOL:
        raise NumericError("LP solution has a negative entry")
    residual = float(np.abs(kmat.matvec(solution) - rhs).max())
    if residual > FEASIBILITY_TOL:
        raise NumericError(f"LP solution residual too large: {residual:.3e}")
    return LpOutcome(status="feasible", solution=solution, row_duals=duals)


def kantorovich_potentials(cost: Array, sigma: Array) -> tuple[Array, Array]:
    """Potentials ``(u, v)`` with ``c_ij - u_i - v_j >= 0`` everywhere and
    ``= 0`` on the assignment ``i -> sigma[i]`` of a square ``cost``, when
    that assignment is optimal.

    ``v`` is the shortest distance in the column graph with an edge
    ``sigma_i -> j`` of weight ``c_ij - c_i,sigma_i`` for every row ``i``
    (row ``i`` moving from its column to ``j``), from a virtual source at
    distance 0 to every column; then ``u_i = c_i,sigma_i - v_sigma_i``.
    Vectorised Bellman-Ford, at most one round per column, stopping once no
    potential moves by more than round-off (``ROUNDOFF_RTOL``): ties in the
    cost close cycles of weight zero, along which the sums drift by an ulp a
    round.  A non-optimal assignment closes a negative cycle, which only
    runs out the rounds; nothing raises here, ``certify_potentials`` decides
    what the result proves.
    """
    rows = np.arange(cost.shape[0])
    on_support = cost[rows, sigma]
    weights = cost - on_support[:, None]
    floor = ROUNDOFF_RTOL * (1.0 + float(np.abs(cost).max()))
    v = np.zeros(cost.shape[1])
    for _ in range(cost.shape[1]):
        relaxed = np.minimum(v, (v[sigma][:, None] + weights).min(axis=0))
        moved = float((v - relaxed).max())
        v = relaxed
        if moved <= floor:
            break
    return on_support - v[sigma], v


def best_transposition(cost: Array) -> tuple[int, int, float]:
    """The transposition that lowers the identity assignment of a square
    ``cost`` most: ``(i, j, gain)`` maximizing ``gain = c_ii + c_jj - c_ij -
    c_ji`` by one vectorised ``O(n^2)`` test, ties to the first ``(i, j)`` in
    row-major order, so ``i <= j`` (``i == j`` with gain 0 when no
    transposition lowers the cost).
    """
    diag = cost.diagonal()
    gain = diag[:, None] + diag[None, :] - cost - cost.T
    best = int(gain.argmax())
    i, j = divmod(best, cost.shape[0])
    return i, j, float(gain.flat[best])


def identity_potentials(cost: Array, weights: Array) -> tuple[Array, Array] | None:
    """Potentials for the diagonal coupling of two measures with the same
    ``weights`` atom by atom, when its identity is accepted as optimal;
    otherwise ``None``.

    With ``tol = ASSIGNMENT_RTOL (1 + |value|) / n`` (``value = weights .
    diag c``), a transposition gaining more than ``tol`` rejects the identity
    without potentials (neighbours ``(i, i + 1)`` tested before the rest).
    Otherwise the identity is accepted when its potentials
    ``kantorovich_potentials(cost, arange(n))``, which satisfy ``u_i + v_i =
    c_ii`` by construction, leave no reduced cost below ``-tol / n``.  For
    uniform weights ``tol`` is within the tight-edge threshold ``ASSIGNMENT_RTOL
    (1 + |best|) / n`` of ``hungarian``'s solver route (``|value| = |trace| /
    n`` is at most ``|best| + tol``), so every diagonal edge would be tight
    there, and the identity, the smallest permutation of all, is what that
    route returns: ``hungarian`` tries this rule first.  An accepted plan is
    still certified by the caller.
    """
    n = cost.shape[0]
    diag = cost.diagonal()
    tol = ASSIGNMENT_RTOL * (1.0 + abs(float(weights @ diag))) / n
    # Swapping neighbours first: one O(n) test rejects most unpaired inputs.
    adjacent = diag[:-1] + diag[1:] - cost.diagonal(1) - cost.diagonal(-1)
    if float(adjacent.max(initial=0.0)) > tol or best_transposition(cost)[2] > tol:
        return None
    u, v = kantorovich_potentials(cost, np.arange(n))
    return (u, v) if float((cost - u[:, None] - v[None, :]).min()) >= -tol / n else None


def certify_potentials(
    cost: Array, coupling: Array, alpha: Array, beta: Array, u: Array, v: Array, what: str
) -> None:
    """Raise ``NumericError`` unless ``(u, v)`` proves ``coupling`` optimal.

    The proof is weak duality: ``min(c - u - v) >= -tol`` makes ``(u, v)``
    dual feasible, and a primal-dual gap ``|<c, coupling> - (alpha . u +
    beta . v)| <= tol`` then puts the coupling within ``2 tol`` of the
    optimum over every coupling of ``alpha`` and ``beta``, with ``tol =
    OPTIMALITY_RTOL (1 + |<c, coupling>|)``.
    """
    value = float((coupling * cost).sum())
    tol = OPTIMALITY_RTOL * (1.0 + abs(value))
    slack = float((cost - u[:, None] - v[None, :]).min())
    gap = value - float(alpha @ u + beta @ v)
    if slack < -tol or abs(gap) > tol:
        raise NumericError(
            f"{what} is not optimal: minimum slack {slack:.3e}, gap {gap:.3e} (tolerance {tol:.3e})"
        )


def linear_sum_assignment(cost: Array) -> tuple[Array, Array]:
    """scipy's ``linear_sum_assignment``, from its compiled module ``_lsap``."""
    return _scipy_extension("_lsap").linear_sum_assignment(cost)


def _bitsets(mask: Array) -> list[int]:
    """Each row of a boolean matrix as one Python int, bit ``j`` set when
    column ``j`` is."""
    # packbits reads a transposed view several times slower than a copy.
    packed = np.packbits(np.ascontiguousarray(mask), axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]


def hungarian(cost) -> tuple[Array, tuple[Array, Array]]:
    """Minimum-cost assignment for a square cost matrix, with its certificate.

    Returns ``(sigma, (u, v))``: the permutation ``sigma`` (as an index
    array, ``i -> sigma[i]``) minimizing ``sum_i cost[i, sigma[i]]``, ties
    resolved deterministically, and Kantorovich potentials under which every
    reduced cost ``c_ij - u_i - v_j`` is at least ``-tol / n`` and at most
    ``tol / n`` on ``sigma``, so they pass ``certify_potentials`` for
    ``sigma`` with uniform marginals.

    The identity, when ``identity_potentials`` accepts it with uniform
    weights, is returned with its own potentials and no solve.  Otherwise one
    ``linear_sum_assignment`` solve gives an optimal permutation; its
    Kantorovich potentials ``(u, v)``, returned, mark an edge tight when ``c_ij
    - u_i - v_j <= tol / n``, ``tol = ASSIGNMENT_RTOL (1 + |best|)``.  Every
    optimal permutation is on tight edges (up to round-off), and the
    lexicographically smallest one on tight edges, returned here, costs at
    most ``best + tol`` (re-checked).  Row ``i`` moves from its column ``t``
    to the smallest tight ``j < t`` whose row below ``i`` reaches ``t`` by an
    alternating path through the rows below (Berge: exactly then they still
    match).  Rows and columns of the tight edges are Python-int bitsets.  The
    search goes backwards from ``t`` in levels, each the mask of the columns
    held by the rows first reached from the level before, and stops once the
    smallest candidate's row is reached or no new row is; then the smallest
    candidate reached wins, and each row on its path moves to its lowest
    tight column in the level before its own.  The lexicographically
    smallest permutation on tight edges is unique, so the path taken does
    not change the result.
    """
    c = as_matrix(cost, "cost")
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    n = c.shape[0]
    potentials = identity_potentials(c, np.full(n, 1.0 / n))
    if potentials is not None:
        return np.arange(n), potentials
    rows, perm = linear_sum_assignment(c)
    best = float(c[rows, perm].sum())
    tol = ASSIGNMENT_RTOL * (1.0 + abs(best))
    u, v = kantorovich_potentials(c, perm)
    tight = c - u[:, None] - v[None, :] <= tol / n

    # Rows of ``tight`` and of its transpose as bitsets: bit j of rowbits[i]
    # is tight[i, j], bit i of colbits[j] is tight[i, j].
    rowbits, colbits = _bitsets(tight), _bitsets(tight.T)
    owner, perm = np.argsort(perm).tolist(), perm.tolist()
    fixed = 0  # the columns of the rows above i
    for i in range(n - 1):
        t = perm[i]
        cand = rowbits[i] & ((1 << t) - 1) & ~fixed
        if cand:
            # levels[k]: the columns of the rows first reached k steps back
            # from t.  Once the smallest candidate's row is reached, its column
            # alone stands for the last level and the search stops.
            first = cand & -cand
            target = owner[first.bit_length() - 1]
            levels, seen, reached = [1 << t], 1 << t, (2 << i) - 1
            hit = colbits[t]
            while not seen & first:
                hit &= ~reached
                if not hit:
                    break
                reached |= hit
                if hit >> target & 1:
                    cols = first
                else:
                    # The columns of the rows hit, and the rows tight on them.
                    cols = nxt = 0
                    while hit:
                        low = hit & -hit
                        col = perm[low.bit_length() - 1]
                        cols |= 1 << col
                        nxt |= colbits[col]
                        hit ^= low
                    hit = nxt
                levels.append(cols)
                seen |= cols
            ok = cand & seen
            if ok:
                # Row i takes j; each row on the way back moves one level
                # nearer t, to its lowest tight column there.
                j = (ok & -ok).bit_length() - 1
                depth = next(k for k, cols in enumerate(levels) if cols >> j & 1)
                r, perm[i], owner[j] = owner[j], j, i
                for cols in reversed(levels[:depth]):
                    free = rowbits[r] & cols
                    col = (free & -free).bit_length() - 1
                    perm[r], owner[col], r = col, r, owner[col]
        fixed |= 1 << perm[i]
    perm = np.array(perm)
    if float(c[rows, perm].sum()) > best + tol:
        raise NumericError("lexicographic assignment left the optimal cost")
    return perm, (u, v)
