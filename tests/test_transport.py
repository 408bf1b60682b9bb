import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    brute_force_assignment,
    brute_force_monotone,
    ipf_plan,
    random_frame_measure,
    with_row_residual,
)
import pframes.transport
from pframes.duality import canonical_dual
from pframes.errors import NumericError
from pframes.measures import DiscreteMeasure
from pframes.transport import (
    is_cyclically_monotone,
    optimal_permutation,
    squared_distance_matrix,
    wasserstein2,
)


def random_measure(rng, dim, count, uniform=False):
    weights = np.full(count, 1.0 / count) if uniform else rng.dirichlet(np.ones(count))
    return DiscreteMeasure(atoms=rng.normal(size=(count, dim)), weights=weights)


# --- wasserstein2 ------------------------------------------------------------


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(0)
    measure = random_measure(rng, 2, 4)
    sol = wasserstein2(measure, measure)
    assert sol.distance_squared <= 1e-10


def test_point_masses():
    x = DiscreteMeasure(atoms=[[1.0, 2.0]], weights=[1.0])
    y = DiscreteMeasure(atoms=[[4.0, -2.0]], weights=[1.0])
    sol = wasserstein2(x, y)
    assert abs(sol.distance_squared - 25.0) <= 1e-10
    assert np.allclose(sol.plan.coupling, [[1.0]])


def test_basis_versus_doubled_basis():
    mu = DiscreteMeasure(atoms=np.eye(2), weights=[0.5, 0.5])
    nu = DiscreteMeasure(atoms=2.0 * np.eye(2), weights=[0.5, 0.5])
    sol = wasserstein2(mu, nu)
    # Identity matching moves each e_i to 2 e_i at squared cost 1.
    assert abs(sol.distance_squared - 1.0) <= 1e-10
    assert np.array_equal(sol.permutation, [0, 1])


def test_uniform_equal_count_returns_permutation_plan():
    rng = np.random.default_rng(1)
    mu = random_measure(rng, 3, 5, uniform=True)
    nu = random_measure(rng, 3, 5, uniform=True)
    sol = wasserstein2(mu, nu)
    assert sol.permutation is not None
    expected = np.zeros((5, 5))
    expected[np.arange(5), sol.permutation] = 0.2
    assert np.allclose(sol.plan.coupling, expected)


def test_nonuniform_has_no_permutation():
    rng = np.random.default_rng(2)
    sol = wasserstein2(random_measure(rng, 2, 3), random_measure(rng, 2, 4))
    assert sol.permutation is None


def test_objective_matches_plan_cost():
    rng = np.random.default_rng(3)
    mu = random_measure(rng, 2, 4)
    nu = random_measure(rng, 2, 3)
    sol = wasserstein2(mu, nu)
    cost = squared_distance_matrix(mu.atoms, nu.atoms)
    assert abs(sol.distance_squared - float((sol.plan.coupling * cost).sum())) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_symmetry(seed):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng, 2, int(rng.integers(2, 5)))
    nu = random_measure(rng, 2, int(rng.integers(2, 5)))
    forward = wasserstein2(mu, nu).distance_squared
    backward = wasserstein2(nu, mu).distance_squared
    assert abs(forward - backward) <= 1e-8


def test_triangle_inequality_100_triples():
    rng = np.random.default_rng(100)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        measures = [random_measure(rng, d, int(rng.integers(1, 5))) for _ in range(3)]
        ab = np.sqrt(wasserstein2(measures[0], measures[1]).distance_squared)
        bc = np.sqrt(wasserstein2(measures[1], measures[2]).distance_squared)
        ac = np.sqrt(wasserstein2(measures[0], measures[2]).distance_squared)
        assert ac <= ab + bc + 1e-6


def test_lp_plan_beats_random_feasible_plans():
    rng = np.random.default_rng(7)
    mu = random_measure(rng, 2, 4)
    nu = random_measure(rng, 2, 5)
    cost = squared_distance_matrix(mu.atoms, nu.atoms)
    optimal = wasserstein2(mu, nu).distance_squared
    for _ in range(100):
        other = ipf_plan(rng, mu.weights, nu.weights)
        assert optimal <= float((other * cost).sum()) + 1e-7


@pytest.mark.parametrize("seed", [0, 13, 14, 17])
def test_tiny_marginal_weights_are_met(seed):
    # Dirichlet(1/5) weights reach 1e-10, below the solver's default primal
    # feasibility tolerance: every marginal must still be met, at the optimum.
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(atoms=rng.normal(size=(20, 2)), weights=rng.dirichlet(np.full(20, 0.2)))
    nu = DiscreteMeasure(atoms=rng.normal(size=(20, 2)), weights=rng.dirichlet(np.full(20, 0.2)))
    solution = wasserstein2(mu, nu)
    coupling = solution.plan.coupling
    assert np.abs(coupling.sum(axis=1) - mu.weights).max() <= 1e-8
    assert np.abs(coupling.sum(axis=0) - nu.weights).max() <= 1e-8
    cost = squared_distance_matrix(mu.atoms, nu.atoms)
    constraints = np.vstack(
        [np.kron(np.eye(20), np.ones((1, 20))), np.kron(np.ones((1, 20)), np.eye(20))]
    )
    reference = linprog(
        cost.ravel(),
        A_eq=constraints,
        b_eq=np.concatenate([mu.weights, nu.weights]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert reference.status == 0
    assert abs(solution.distance_squared - reference.fun) <= 1e-8


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        wasserstein2(
            DiscreteMeasure(atoms=[[1.0]], weights=[1.0]),
            DiscreteMeasure(atoms=[[1.0, 0.0]], weights=[1.0]),
        )


# --- cyclical monotonicity ---------------------------------------------------


def test_identity_orthonormal_pairs_are_monotone():
    pairs = [(e, e) for e in np.eye(3)]
    monotone, witness = is_cyclically_monotone(pairs)
    assert monotone and witness is None


def test_swapped_basis_pairs_are_not_monotone():
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
             (np.array([0.0, 1.0]), np.array([1.0, 0.0]))]
    monotone, witness = is_cyclically_monotone(pairs)
    assert not monotone
    assert np.array_equal(witness, [1, 0])  # the swap gains 2 over the identity


@pytest.mark.parametrize("seed", range(5))
def test_canonical_dual_pairs_are_monotone(seed):
    rng = np.random.default_rng(seed)
    measure = random_frame_measure(rng, 2, 5, uniform=True)
    psi = measure.atoms
    phi = psi @ np.linalg.inv(psi.T @ psi)  # canonical dual of the atom set
    monotone, _ = is_cyclically_monotone(list(zip(phi, psi)))
    assert monotone


@pytest.mark.parametrize("n", range(1, 7))
def test_monotone_checker_matches_enumeration(n):
    rng = np.random.default_rng(n)
    for _ in range(6):
        xs = rng.normal(size=(n, 2))
        ys = rng.normal(size=(n, 2))
        monotone, witness = is_cyclically_monotone(list(zip(xs, ys)))
        assert monotone == brute_force_monotone(xs, ys)
        if not monotone:
            gains = xs @ ys.T
            assert gains[np.arange(n), witness].sum() > np.trace(gains)


def test_monotone_validations():
    with pytest.raises(ValueError):
        is_cyclically_monotone([])
    with pytest.raises(ValueError):
        is_cyclically_monotone([(np.ones(2), np.ones(3))])


# --- optimal permutation -----------------------------------------------------


def test_optimal_permutation_self_is_identity():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=(5, 3))
    assert np.array_equal(optimal_permutation(phi, phi), np.arange(5))


def test_optimal_permutation_reversed():
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(4, 2))
    assert np.array_equal(optimal_permutation(phi, phi[::-1]), [3, 2, 1, 0])


def test_optimal_permutation_canonical_dual_is_identity():
    rng = np.random.default_rng(6)
    measure = random_frame_measure(rng, 2, 6, uniform=True)
    dual = canonical_dual(measure)
    assert np.array_equal(optimal_permutation(measure.atoms, dual.atoms), np.arange(6))


@pytest.mark.parametrize("n", range(2, 7))
def test_optimal_permutation_matches_brute_force(n):
    rng = np.random.default_rng(10 + n)
    phi = rng.normal(size=(n, 2))
    psi = rng.normal(size=(n, 2))
    sigma = optimal_permutation(phi, psi)
    cost = squared_distance_matrix(phi, psi)
    best_val, best_perm = brute_force_assignment(cost)
    assert np.array_equal(sigma, best_perm)
    # Maximizing total inner product gives the same optimizer set.
    gains = phi @ psi.T
    _, gain_perm = brute_force_assignment(-gains)
    assert abs(cost[np.arange(n), sigma].sum() - best_val) <= 1e-9 * (1 + abs(best_val))
    assert np.array_equal(gain_perm, best_perm)


def test_lp_coupling_failing_plan_checks_is_a_numeric_error(monkeypatch):
    # A 1.5e-8 row residual passes solve_lp (1e-8 * (1 + 0.6)) but not
    # PLAN_TOL: the solver's point is at fault, not the input.
    monkeypatch.setattr(
        pframes.transport, "solve_lp", with_row_residual(pframes.transport.solve_lp, 1.5e-8)
    )
    mu = DiscreteMeasure(atoms=[[1.0, 0.0], [0.0, 1.0]], weights=[0.6, 0.4])
    nu = DiscreteMeasure(atoms=[[1.0, 1.0], [-1.0, 0.5], [0.2, -1.0]], weights=[0.5, 0.3, 0.2])
    with pytest.raises(NumericError, match="not a valid plan"):
        wasserstein2(mu, nu)
