import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pframes.optim
from helpers import brute_force_assignment, refined_assignment
from pframes.errors import NumericError
from pframes.optim import FEASIBILITY_TOL, LinearProgram, LpOutcome, hungarian, solve_lp
from pframes.transport import squared_distance_matrix


def certificate_holds(cert, kmat, rhs):
    return float((cert @ kmat).min()) >= -FEASIBILITY_TOL and float(cert @ rhs) <= -FEASIBILITY_TOL


def test_simple_feasible_system():
    out = solve_lp(LinearProgram(np.array([[1.0, 1.0]]), np.array([1.0])))
    assert out.status == "feasible"
    assert out.dual_certificate is None
    assert abs(out.solution.sum() - 1.0) <= 1e-8
    assert out.solution.min() >= -1e-10


def test_infeasible_with_mechanical_certificate():
    kmat = np.array([[1.0]])
    rhs = np.array([-1.0])
    out = solve_lp(LinearProgram(kmat, rhs))
    assert out.status == "infeasible"
    assert out.solution is None
    assert certificate_holds(out.dual_certificate, kmat, rhs)


def test_transportation_polytope_feasible():
    # DS(alpha, beta) with alpha = beta = (1/2, 1/2): row and column sums fixed.
    constraints = np.vstack(
        [np.kron(np.eye(2), np.ones((1, 2))), np.kron(np.ones((1, 2)), np.eye(2))]
    )
    rhs = np.array([0.5, 0.5, 0.5, 0.5])
    out = solve_lp(LinearProgram(constraints, rhs))
    assert out.status == "feasible"
    plan = out.solution.reshape(2, 2)
    assert np.abs(plan.sum(axis=1) - 0.5).max() <= 1e-8
    assert np.abs(plan.sum(axis=0) - 0.5).max() <= 1e-8


def test_phase2_known_optimum():
    # min x1 + 2 x2 subject to x1 + x2 = 1, x >= 0: optimum 1 at (1, 0).
    out = solve_lp(
        LinearProgram(np.array([[1.0, 1.0]]), np.array([1.0]), objective=np.array([1.0, 2.0]))
    )
    assert out.status == "feasible"
    assert np.allclose(out.solution, [1.0, 0.0], atol=1e-9)


def test_phase2_degenerate_redundant_rows():
    # Duplicated constraint row: phase 1 must drop the redundancy.
    constraints = np.array([[1.0, 1.0], [1.0, 1.0]])
    rhs = np.array([1.0, 1.0])
    out = solve_lp(LinearProgram(constraints, rhs, objective=np.array([-1.0, 0.0])))
    assert out.status == "feasible"
    assert np.allclose(out.solution, [1.0, 0.0], atol=1e-9)


def test_unbounded_objective_raises():
    with pytest.raises(NumericError):
        solve_lp(LinearProgram(np.array([[0.0]]), np.array([0.0]), objective=np.array([-1.0])))


def test_zero_weight_row_forces_zero():
    # Transportation row with zero marginal mass.
    constraints = np.vstack(
        [np.kron(np.eye(2), np.ones((1, 2))), np.kron(np.ones((1, 2)), np.eye(2))]
    )
    rhs = np.array([1.0, 0.0, 0.5, 0.5])
    out = solve_lp(LinearProgram(constraints, rhs))
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
        out = solve_lp(LinearProgram(kmat, rhs))
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


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(np.ones((2, 2)), np.ones(3)))
    with pytest.raises(ValueError):
        solve_lp(LinearProgram(np.ones((2, 2)), np.ones(2), objective=np.ones(3)))


def test_hungarian_identity_favoring():
    cost = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(hungarian(cost), [0, 1, 2])


def test_hungarian_swapped_basis():
    phi = np.eye(2)
    psi = phi[::-1]
    cost = ((phi[:, None, :] - psi[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(hungarian(cost), [1, 0])


def test_hungarian_three_by_three_reversal():
    cost = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]])
    sigma = hungarian(cost)
    assert np.array_equal(sigma, [2, 1, 0])
    assert cost[np.arange(3), sigma].sum() == 10.0


def test_hungarian_lexicographic_tie_break():
    assert np.array_equal(hungarian(np.zeros((4, 4))), [0, 1, 2, 3])
    # Two optimal assignments; the lexicographically smaller one must win.
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(hungarian(cost), [0, 1])


@pytest.mark.parametrize("n", range(1, 8))
def test_hungarian_matches_brute_force(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        cost = rng.normal(size=(n, n))
        sigma = hungarian(cost)
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
        assert np.array_equal(hungarian(cost), refined_assignment(cost))


@pytest.mark.parametrize("n", [50, 100, 150])
def test_hungarian_matches_refinement_on_grid_costs(n):
    rng = np.random.default_rng(200 + n)
    xs, ys = grid_points(rng, n), grid_points(rng, n)
    distances = squared_distance_matrix(xs, ys)
    assert np.array_equal(hungarian(distances), refined_assignment(distances))
    # is_cyclically_monotone minimizes negated gains.
    gains = -(xs @ ys.T)
    assert np.array_equal(hungarian(gains), refined_assignment(gains))


@pytest.mark.parametrize("n", [3, 10, 30, 60])
def test_hungarian_matches_refinement_on_random_costs(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(2):
        cost = rng.normal(size=(n, n))
        assert np.array_equal(hungarian(cost), refined_assignment(cost))


@st.composite
def tie_heavy_costs(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    # 0.1 and 1/3 make sums that tie only up to round-off.
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, -1.0]))
    return scale * np.array(entries, dtype=float).reshape(n, n)


@given(tie_heavy_costs())
def test_hungarian_matches_brute_force_on_tie_heavy_costs(cost):
    assert np.array_equal(hungarian(cost), brute_force_assignment(cost)[1])


@pytest.mark.parametrize("kind", ["grid", "zeros"])
def test_hungarian_solves_one_assignment(monkeypatch, kind):
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
    assert calls == [(150, 150)]
