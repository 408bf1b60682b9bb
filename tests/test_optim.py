import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pframes.optim
from helpers import brute_force_assignment, counting, refined_assignment
from pframes.errors import NumericError
from pframes.optim import (
    ASSIGNMENT_RTOL,
    FEASIBILITY_TOL,
    HIGHS_TIGHT_TOL,
    LpOutcome,
    best_transposition,
    certify_potentials,
    hungarian,
    identity_potentials,
    kantorovich_potentials,
    linear_sum_assignment,
    solve_lp,
)
from pframes.transport import squared_distance_matrix


def certificate_holds(cert, kmat, rhs):
    return float((cert @ kmat).min()) >= -FEASIBILITY_TOL and float(cert @ rhs) <= -FEASIBILITY_TOL


def test_simple_feasible_system():
    out = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]))
    assert out.status == "feasible"
    assert out.dual_certificate is None
    assert abs(out.solution.sum() - 1.0) <= 1e-8
    assert out.solution.min() >= -1e-10


def test_infeasible_with_mechanical_certificate():
    kmat = np.array([[1.0]])
    rhs = np.array([-1.0])
    out = solve_lp(kmat, rhs)
    assert out.status == "infeasible"
    assert out.solution is None
    assert certificate_holds(out.dual_certificate, kmat, rhs)


def test_transportation_polytope_feasible():
    # DS(alpha, beta) with alpha = beta = (1/2, 1/2): row and column sums fixed.
    constraints = np.vstack(
        [np.kron(np.eye(2), np.ones((1, 2))), np.kron(np.ones((1, 2)), np.eye(2))]
    )
    rhs = np.array([0.5, 0.5, 0.5, 0.5])
    out = solve_lp(constraints, rhs)
    assert out.status == "feasible"
    plan = out.solution.reshape(2, 2)
    assert np.abs(plan.sum(axis=1) - 0.5).max() <= 1e-8
    assert np.abs(plan.sum(axis=0) - 0.5).max() <= 1e-8


def test_phase2_known_optimum():
    # min x1 + 2 x2 subject to x1 + x2 = 1, x >= 0: optimum 1 at (1, 0).
    out = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0]))
    assert out.status == "feasible"
    assert np.allclose(out.solution, [1.0, 0.0], atol=1e-9)


def test_phase2_degenerate_redundant_rows():
    # Duplicated constraint row: phase 1 must drop the redundancy.
    constraints = np.array([[1.0, 1.0], [1.0, 1.0]])
    rhs = np.array([1.0, 1.0])
    out = solve_lp(constraints, rhs, np.array([-1.0, 0.0]))
    assert out.status == "feasible"
    assert np.allclose(out.solution, [1.0, 0.0], atol=1e-9)


def test_unbounded_objective_raises():
    with pytest.raises(NumericError):
        solve_lp(np.array([[0.0]]), np.array([0.0]), np.array([-1.0]))


def test_zero_weight_row_forces_zero():
    # Transportation row with zero marginal mass.
    constraints = np.vstack(
        [np.kron(np.eye(2), np.ones((1, 2))), np.kron(np.ones((1, 2)), np.eye(2))]
    )
    rhs = np.array([1.0, 0.0, 0.5, 0.5])
    out = solve_lp(constraints, rhs)
    assert out.status == "feasible"
    plan = out.solution.reshape(2, 2)
    assert np.abs(plan[1]).max() <= 1e-10


def test_exactly_one_alternative_on_random_systems():
    rng = np.random.default_rng(2024)
    infeasible_seen = feasible_seen = 0
    for trial in range(150):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 9))
        kmat = rng.normal(size=(m, n))
        if trial % 2 == 0:
            rhs = kmat @ np.abs(rng.normal(size=n))  # feasible by construction
        else:
            rhs = rng.normal(size=m)
        out = solve_lp(kmat, rhs)
        assert (out.solution is None) != (out.dual_certificate is None)
        if out.status == "feasible":
            feasible_seen += 1
            assert out.solution.min() >= -1e-10
            residual = np.abs(kmat @ out.solution - rhs).max()
            assert residual <= FEASIBILITY_TOL * (1.0 + np.abs(rhs).max())
        else:
            infeasible_seen += 1
            assert certificate_holds(out.dual_certificate, kmat, rhs)
    assert feasible_seen > 0 and infeasible_seen > 0


def test_infeasible_system_with_an_objective_raises():
    # Only W2 optimizes, over a transportation polytope that is never empty,
    # so an infeasible system with an objective is a numeric failure.
    with pytest.raises(NumericError, match="LP solver failed"):
        solve_lp(np.array([[1.0, 1.0]]), np.array([-1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("rhs", [[1.0], [-1.0]], ids=["feasible", "infeasible"])
def test_feasibility_question_is_one_elastic_solve(monkeypatch, rhs):
    import scipy.optimize

    wrappers = counting(monkeypatch, scipy.optimize, "linprog", "milp")
    calls = counting(monkeypatch, pframes.optim, "_highs")
    out = solve_lp(np.array([[1.0, 2.0]]), np.array(rhs))
    assert out.status == ("feasible" if rhs[0] > 0 else "infeasible")
    assert calls == ["_highs"]
    assert wrappers == []


# --- the private HiGHS binding against scipy's public linprog ----------------
# solve_lp calls HiGHS through scipy's private bindings; these oracles fail
# loudly if a scipy release moves or changes them.


def oracle(cost, kmat, rhs, tight=False):
    """scipy's public ``linprog(method="highs")`` on ``min cost^T a  s.t.  K a
    = t, a >= 0``, at the tightest tolerances when ``tight``."""
    from scipy.optimize import linprog

    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    return linprog(
        cost, A_eq=kmat, b_eq=rhs, bounds=(0, None), method="highs", options=options if tight else {}
    )


def assert_same_optimum(value, reference):
    assert abs(value - reference) <= 1e-9 * (1.0 + abs(reference))


def dense_of(kmat):
    """The dense matrix that a ``Csc`` record holds, read by scipy.sparse."""
    from scipy.sparse import csc_array

    return csc_array((kmat.data, kmat.indices, kmat.indptr), shape=kmat.shape).toarray()


def test_marginal_rows_match_the_dense_kron_blocks():
    rng = np.random.default_rng(3)
    head = rng.normal(size=(4, 15)) * (rng.random((4, 15)) < 0.6)
    for n, m, top in [(1, 1, None), (3, 5, None), (3, 5, head)]:
        dense = np.vstack([np.kron(np.eye(n), np.ones((1, m))), np.kron(np.ones((1, n)), np.eye(m))])
        if top is not None:
            dense = np.vstack([top, dense])
        rows = pframes.optim.marginal_rows(n, m, head=top)
        assert rows.shape == dense.shape
        assert np.array_equal(dense_of(rows), dense)
        assert rows.indptr[-1] == rows.indices.size == rows.data.size == np.count_nonzero(dense)
        # Rows ascend strictly within every column.
        cols = np.repeat(np.arange(rows.shape[1]), np.diff(rows.indptr))
        assert np.all((np.diff(rows.indices) > 0) | (np.diff(cols) > 0))
        # K a and y^T K from the arrays.
        a, y = rng.normal(size=n * m), rng.normal(size=rows.shape[0])
        assert np.allclose(rows.matvec(a), dense @ a, rtol=0.0, atol=1e-12)
        assert np.allclose(rows.rmatvec(y), y @ dense, rtol=0.0, atol=1e-12)


def test_elastic_systems_agree_with_linprog():
    rng = np.random.default_rng(4048)
    seen = set()
    for trial in range(60):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        kmat = rng.normal(size=(m, n))
        rhs = kmat @ np.abs(rng.normal(size=n)) if trial % 2 == 0 else rng.normal(size=m)
        out = solve_lp(kmat, rhs)
        reference = oracle(np.zeros(n), kmat, rhs)
        assert reference.status in (0, 2)
        assert out.status == ("feasible" if reference.status == 0 else "infeasible")
        seen.add(out.status)
        if out.status == "infeasible":
            assert certificate_holds(out.dual_certificate, kmat, rhs)
        # The elastic LP itself, through the binding and through linprog.
        elastic = np.hstack([kmat, np.eye(m), -np.eye(m)])
        cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
        value = pframes.optim._highs(cost, pframes.optim._dense_csc(elastic), rhs)[2]
        assert_same_optimum(value, oracle(cost, elastic, rhs).fun)
    assert seen == {"feasible", "infeasible"}


@pytest.mark.parametrize("alpha", [0.7, 2.0])
def test_w2_lps_agree_with_linprog(alpha):
    rng = np.random.default_rng([2, int(10 * alpha)])
    for n, m in [(8, 12), (20, 14), (30, 22), (6, 6)]:
        weights = [rng.dirichlet(np.full(k, alpha)) for k in (n, m)]
        cost = squared_distance_matrix(rng.normal(size=(n, 2)), rng.normal(size=(m, 2))).ravel()
        rows = pframes.optim.marginal_rows(n, m)
        rhs = np.concatenate(weights)
        out = solve_lp(rows, rhs, cost)
        reference = oracle(cost, dense_of(rows), rhs, tight=True)
        assert out.status == "feasible" and reference.status == 0
        assert_same_optimum(float(cost @ out.solution), reference.fun)


TINY_WEIGHT_SEEDS = [0, 13, 14, 17]


def tiny_weight_lp(seed):
    """The W2 LP ``(K, t, cost)`` of ``test_tiny_marginal_weights_are_met``:
    Dirichlet(1/5) weights on 20 atoms in 2-d, some near 1e-10."""
    rng = np.random.default_rng(seed)
    mu_atoms, mu_weights = rng.normal(size=(20, 2)), rng.dirichlet(np.full(20, 0.2))
    nu_atoms, nu_weights = rng.normal(size=(20, 2)), rng.dirichlet(np.full(20, 0.2))
    cost = squared_distance_matrix(mu_atoms, nu_atoms).ravel()
    return pframes.optim.marginal_rows(20, 20), np.concatenate([mu_weights, nu_weights]), cost


@pytest.mark.parametrize("seed", TINY_WEIGHT_SEEDS)
def test_tiny_weight_lps_agree_with_linprog(seed):
    kmat, rhs, cost = tiny_weight_lp(seed)
    out = solve_lp(kmat, rhs, cost)
    reference = oracle(cost, dense_of(kmat), rhs, tight=True)
    assert out.status == "feasible" and reference.status == 0
    assert_same_optimum(float(cost @ out.solution), reference.fun)


def test_tiny_weight_lps_are_one_tight_solve(monkeypatch):
    # HiGHS at its default tolerance left a tiny marginal weight of these
    # LPs unmet; at HIGHS_TIGHT_TOL one solve meets every row.
    calls = counting(monkeypatch, pframes.optim, "_highs")
    for seed in TINY_WEIGHT_SEEDS:
        calls.clear()
        kmat, rhs, cost = tiny_weight_lp(seed)
        out = solve_lp(kmat, rhs, cost)
        assert calls == ["_highs"]
        assert out.status == "feasible"
        assert float(np.abs(dense_of(kmat) @ out.solution - rhs).max()) <= HIGHS_TIGHT_TOL


@pytest.mark.parametrize("seed", range(4))
def test_transport_dual_systems_agree_with_linprog(seed):
    from pframes.duality import FarkasCertificate, canonical_dual, certificate_is_valid
    from pframes.measures import DiscreteMeasure

    # A zero-centroid frame against generic points off any common
    # hyperplane (infeasible), or against a split copy of its canonical dual
    # (feasible), as find_transport_dual poses them.
    rng = np.random.default_rng([seed, 5])
    n, d = 9, 2
    atoms = rng.normal(size=(n, d))
    mu = DiscreteMeasure(atoms - atoms.mean(axis=0), np.full(n, 1.0 / n))
    if seed % 2:
        dual = canonical_dual(mu).atoms
        psi = np.vstack([dual[:-1], dual[-1] + 0.3, dual[-1] - 0.3])
        nu = DiscreteMeasure(psi, np.append(mu.weights[:-1], [0.5 / n, 0.5 / n]))
    else:
        nu = DiscreteMeasure(rng.normal(size=(d + 2, d)), np.full(d + 2, 1.0 / (d + 2)))
    m = nu.count
    kmat = pframes.optim.marginal_rows(n, m, head=np.kron(mu.atoms.T, nu.atoms.T))
    rhs = np.concatenate([np.eye(d).ravel(), mu.weights, nu.weights])
    out = solve_lp(kmat, rhs)
    reference = oracle(np.zeros(n * m), dense_of(kmat), rhs)
    assert out.status == ("feasible" if reference.status == 0 else "infeasible")
    assert out.status == ("feasible" if seed % 2 else "infeasible")
    if out.status == "infeasible":
        y = out.dual_certificate
        cert = FarkasCertificate(B=y[: d * d].reshape(d, d), u=y[d * d : d * d + n], v=y[d * d + n :])
        assert certificate_is_valid(cert, mu, nu)


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_lp(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        solve_lp(np.ones((2, 2)), np.ones(2), np.ones(3))


def test_sparse_constraint_matrix_is_checked_and_solved_alike():
    infinite = pframes.optim._dense_csc(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError, match="nonempty and finite"):
        solve_lp(infinite, np.ones(1))
    empty = pframes.optim.Csc((0, 2), np.zeros(3, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    with pytest.raises(ValueError, match="nonempty and finite"):
        solve_lp(empty, np.ones(0))
    kmat, rhs = np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([1.0, 0.5])
    dense = solve_lp(kmat, rhs, np.array([1.0, 2.0]))
    sparse = solve_lp(pframes.optim._dense_csc(kmat), rhs, np.array([1.0, 2.0]))
    assert np.array_equal(dense.solution, sparse.solution)


def test_scipy_sparse_constraint_matrix_is_rejected():
    from scipy.sparse import csr_array, csr_matrix

    kmat = np.array([[1.0, 1.0], [1.0, -1.0]])
    for form in (csr_array, csr_matrix):
        with pytest.raises(ValueError, match="constraint matrix"):
            solve_lp(form(kmat), np.array([1.0, 0.5]))


@pytest.mark.parametrize(
    "rhs, objective",
    [([1.0, 0.5, 2.0], None), ([1.0, 0.5, -2.0], None), ([1.0, 0.5, 2.0], [1.0, 2.0, 0.5])],
    ids=["feasible", "infeasible", "objective"],
)
def test_dense_and_csc_systems_give_one_outcome(rhs, objective):
    # A zero entry, which the Csc form does not store.
    kmat = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 2.0], [0.0, 3.0, 1.0]])
    forms = (np.array, pframes.optim._dense_csc)
    outcomes = [solve_lp(form(kmat), np.array(rhs), objective) for form in forms]
    assert outcomes[1].status == ("infeasible" if rhs[2] < 0 else "feasible")
    assert outcomes[0].status == outcomes[1].status
    for field in ("solution", "dual_certificate", "row_duals"):
        got, want = getattr(outcomes[0], field), getattr(outcomes[1], field)
        assert (got is None and want is None) or np.array_equal(got, want)


def test_best_transposition_is_the_largest_gain_first_in_row_order():
    # Swapping rows (0, 2) or (1, 3) gains 4, rows (0, 1) gain 2.
    cost = np.array(
        [
            [2.0, 1.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
            [0.0, 2.0, 2.0, 2.0],
            [2.0, 0.0, 2.0, 2.0],
        ]
    )
    assert best_transposition(cost) == (0, 2, 4.0)
    # No transposition lowers an optimal identity.
    assert best_transposition(np.ones((3, 3)) - np.eye(3)) == (0, 0, 0.0)


IDENTITY_RULE_KINDS = ("random", "paired", "one swap", "rotated 3-cycle", "hidden 3-cycle", "ties")


def identity_rule_cost(rng, kind, n, dim):
    """A square cost: ``random`` inner products of points, the same
    ``paired`` optimally, paired with ``one swap`` of two far columns or a
    ``rotated 3-cycle`` of columns, paired plus a ``hidden 3-cycle`` that
    improves the identity while no transposition does, or small integers
    paired optimally (``ties``)."""
    if kind == "ties":
        cost = rng.integers(0, 3, size=(n, n)).astype(float)
    else:
        xs, ys = rng.normal(size=(n, dim)), rng.normal(size=(n, dim))
        cost = -(xs @ ys.T)
        if kind == "random":
            return cost
    cost = cost[:, linear_sum_assignment(cost)[1]]
    if kind == "one swap":
        cost[:, [0, n - 1]] = cost[:, [n - 1, 0]]
    elif kind == "rotated 3-cycle" and n >= 3:
        cost[:, :3] = cost[:, [1, 2, 0]]
    elif kind == "hidden 3-cycle" and n >= 3:
        # Each transposition of the first three gains -s, the 3-cycle 3 s.
        cyclic = np.array([[0.0, -1.0, 2.0], [2.0, 0.0, -1.0], [-1.0, 2.0, 0.0]])
        cost[:3, :3] += (1.0 + np.abs(cost).max()) * cyclic
    return cost


@pytest.mark.parametrize("seed", range(6))
def test_identity_bound_bounds_the_identity_excess(seed):
    # The rule's bound: the identity is accepted exactly when the optimal
    # assignment is within tol of the trace, with the identity's own
    # potentials, which certify the diagonal coupling.
    rng = np.random.default_rng([26, seed])
    accepted = 0
    for _ in range(8):
        n, dim = int(rng.integers(2, 60)), int(rng.integers(1, 4))
        for kind in IDENTITY_RULE_KINDS:
            cost = identity_rule_cost(rng, kind, n, dim)
            rows, perm = linear_sum_assignment(cost)
            excess = float(cost.trace()) - float(cost[rows, perm].sum())
            for weights in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))):
                tol = ASSIGNMENT_RTOL * (1.0 + abs(float(weights @ cost.diagonal()))) / n
                potentials = identity_potentials(cost, weights)
                assert (potentials is not None) == (excess <= tol), (kind, n, excess, tol)
                if potentials is None:
                    continue
                accepted += 1
                u, v = potentials
                want_u, want_v = kantorovich_potentials(cost, np.arange(n))
                assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
                certify_potentials(cost, np.diag(weights), weights, weights, u, v, "identity")
    assert accepted > 0


def test_identity_potentials_accept_only_an_optimal_identity():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(6, 2))
    weights = rng.dirichlet(np.ones(6))
    # x -> 2 x is the gradient of a convex function: the identity is optimal.
    cost = ((xs[:, None, :] - 2.0 * xs[None, :, :]) ** 2).sum(axis=2)
    u, v = identity_potentials(cost, weights)
    assert np.allclose(u + v, cost.diagonal(), atol=1e-12)
    assert (cost - u[:, None] - v[None, :]).min() >= -1e-12
    # Reversing the targets makes transpositions improve it.
    assert identity_potentials(cost[:, ::-1], weights) is None
    # Non-finite costs are never accepted.
    assert identity_potentials(np.where(np.eye(6, dtype=bool), np.nan, cost), weights) is None


def test_hungarian_identity_favoring():
    cost = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(hungarian(cost)[0], [0, 1, 2])


def test_hungarian_swapped_basis():
    phi = np.eye(2)
    psi = phi[::-1]
    cost = ((phi[:, None, :] - psi[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(hungarian(cost)[0], [1, 0])


def test_hungarian_three_by_three_reversal():
    cost = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])
    sigma = hungarian(cost)[0]
    assert np.array_equal(sigma, [2, 1, 0])
    assert cost[np.arange(3), sigma].sum() == 10.0


def test_hungarian_lexicographic_tie_break():
    assert np.array_equal(hungarian(np.zeros((4, 4)))[0], [0, 1, 2, 3])
    # Two optimal assignments; the lexicographically smaller one must win.
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(hungarian(cost)[0], [0, 1])


@pytest.mark.parametrize("n", range(1, 8))
def test_hungarian_matches_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        cost = rng.normal(size=(n, n))
        sigma = hungarian(cost)[0]
        value = float(cost[np.arange(n), sigma].sum())
        best_val, best_perm = brute_force_assignment(cost)
        assert abs(value - best_val) <= 1e-9 * (1.0 + abs(best_val))
        assert np.array_equal(sigma, best_perm)


def test_hungarian_rejects_nonsquare():
    with pytest.raises(ValueError):
        hungarian(np.ones((2, 3)))


def grid_points(rng, n):
    # 16 distinct points for n atoms: most costs tie.
    return rng.integers(0, 4, size=(n, 2)).astype(float)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 30, 40])
def test_hungarian_matches_refinement_on_small_integer_costs(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        cost = rng.integers(0, 3, size=(n, n)).astype(float)
        assert np.array_equal(hungarian(cost)[0], refined_assignment(cost))


@pytest.mark.parametrize("n", [50, 100, 150])
def test_hungarian_matches_refinement_on_grid_costs(n):
    rng = np.random.default_rng(200 + n)
    xs, ys = grid_points(rng, n), grid_points(rng, n)
    distances = squared_distance_matrix(xs, ys)
    assert np.array_equal(hungarian(distances)[0], refined_assignment(distances))
    # is_cyclically_monotone minimizes negated gains.
    gains = -(xs @ ys.T)
    assert np.array_equal(hungarian(gains)[0], refined_assignment(gains))


@pytest.mark.parametrize("n", [3, 10, 30, 60])
def test_hungarian_matches_refinement_on_random_costs(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(2):
        cost = rng.normal(size=(n, n))
        assert np.array_equal(hungarian(cost)[0], refined_assignment(cost))


@st.composite
def tie_heavy_costs(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    # 0.1 and 1/3 make sums that tie only up to round-off.
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, -1.0]))
    return scale * np.array(entries, dtype=float).reshape(n, n)


@given(tie_heavy_costs())
def test_hungarian_matches_brute_force_on_tie_heavy_costs(cost):
    assert np.array_equal(hungarian(cost)[0], brute_force_assignment(cost)[1])


@pytest.mark.parametrize("kind, solves", [("grid", 1), ("zeros", 0)], ids=["grid", "zeros"])
def test_hungarian_solves_one_assignment(monkeypatch, kind, solves):
    # At most one solve; none when the identity's potentials accept it.
    calls = []
    solve = pframes.optim.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(pframes.optim, "linear_sum_assignment", counting)
    rng = np.random.default_rng(7)
    if kind == "grid":
        cost = squared_distance_matrix(grid_points(rng, 150), grid_points(rng, 150))
    else:
        cost = np.zeros((150, 150))
    hungarian(cost)
    assert calls == [(150, 150)] * solves


@st.composite
def tie_heavy_larger_costs(draw):
    n = draw(st.integers(7, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, -1.0]))
        return scale * rng.integers(0, 3, size=(n, n)).astype(float)
    return squared_distance_matrix(grid_points(rng, n), grid_points(rng, n))


@settings(max_examples=60)
@given(tie_heavy_larger_costs())
def test_hungarian_matches_refinement_on_tie_heavy_costs(cost):
    assert np.array_equal(hungarian(cost)[0], refined_assignment(cost))


def solve_from(monkeypatch, perm, edges=()):
    """A cost of ones with zeros on ``perm`` and on ``edges``, whose solve is
    patched to return ``perm`` and whose identity is never accepted: the
    tie-break starts from ``perm``, and the zeros are its tight edges."""
    n = len(perm)
    cost = np.ones((n, n))
    cost[np.arange(n), perm] = 0.0
    for i, j in edges:
        cost[i, j] = 0.0
    monkeypatch.setattr(pframes.optim, "identity_potentials", lambda cost, weights: None)
    monkeypatch.setattr(pframes.optim, "linear_sum_assignment", lambda c: (np.arange(n), np.array(perm)))
    return cost


def test_hungarian_reroutes_along_a_long_alternating_path(monkeypatch):
    # Zero-cost edges form one cycle: the identity and the cyclic shift are
    # the only optimal permutations.  Starting from the shift, row 0 takes
    # column 0 only if rows 4, 3, 2 and 1 all move back one column.
    n = 5
    cost = solve_from(monkeypatch, np.roll(np.arange(n), -1), [(i, i) for i in range(n)])
    assert np.array_equal(hungarian(cost)[0], np.arange(n))


def test_hungarian_takes_a_larger_candidate_when_the_smallest_is_cut_off(monkeypatch):
    # Row 0 holds column 4 and is tight on columns 0 and 1.  Row 4 holds
    # column 0 and nothing else, so column 0 is out of reach; column 1's row
    # reaches column 4 three levels back (1 -> 3 -> 2 -> 4).
    cost = solve_from(monkeypatch, [4, 1, 2, 3, 0], [(0, 0), (0, 1), (1, 3), (3, 2), (2, 4)])
    assert np.array_equal(hungarian(cost)[0], [1, 3, 4, 2, 0])


def test_hungarian_keeps_a_column_when_no_candidate_is_reached(monkeypatch):
    # Row 0's one candidate, column 0, is held by row 3, tight there only;
    # the search from column 3 reaches row 2 and stops there.
    cost = solve_from(monkeypatch, [3, 1, 2, 0], [(0, 0), (2, 3)])
    assert np.array_equal(hungarian(cost)[0], [3, 1, 2, 0])


def test_hungarian_breaks_ties_past_one_machine_word(monkeypatch):
    # Rows and columns 64-69 tie among themselves; the solve returns them
    # reversed, and the identity is the smallest permutation.
    n = 70
    block = [(i, j) for i in range(64, n) for j in range(64, n)]
    cost = solve_from(monkeypatch, list(range(64)) + list(range(n - 1, 63, -1)), block)
    assert np.array_equal(hungarian(cost)[0], np.arange(n))


def certified_costs():
    """Square costs by name: the benchmark's grid distances and negated gains
    at n = 50, 100 and 150, random normal costs, an optimally paired set,
    and a 4-point set whose identity passes the transposition test but not
    the bound."""
    costs = {}
    for n in (50, 100, 150):
        rng = np.random.default_rng(n)
        xs, ys = grid_points(rng, n), grid_points(rng, n)
        costs[f"grid-{n}"] = squared_distance_matrix(xs, ys)
        costs[f"gains-{n}"] = -(xs @ ys.T)
    rng = np.random.default_rng(400)
    for n in (1, 2, 7, 40):
        costs[f"random-{n}"] = rng.normal(size=(n, n))
    xs, ys = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
    costs["paired-60"] = -(xs @ ys[hungarian(-(xs @ ys.T))[0]].T)
    xs = np.array([[-1.18, -0.85], [-0.05, -1.88], [1.43, 1.06], [1.25, -0.51]])
    ys = np.array([[0.24, -0.95], [1.55, -1.21], [-0.51, 1.42], [2.49, -0.09]])
    costs["four-cycle"] = -(xs @ ys.T)
    return costs


@pytest.mark.parametrize("name", list(certified_costs()))
def test_hungarian_returns_the_potentials_that_certify_its_permutation(name):
    cost = certified_costs()[name]
    n = cost.shape[0]
    sigma, (u, v) = hungarian(cost)
    coupling = np.zeros((n, n))
    coupling[np.arange(n), sigma] = 1.0 / n
    uniform = np.full(n, 1.0 / n)
    certify_potentials(cost, coupling, uniform, uniform, u, v, name)
    # The paired identity is accepted by its potentials; the four-cycle's
    # passes the transposition test but not the bound, so the solve decides.
    expected = {"paired-60": np.arange(60), "four-cycle": [2, 0, 3, 1]}
    if name in expected:
        assert np.array_equal(sigma, expected[name])
