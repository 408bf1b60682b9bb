import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from helpers import (
    brute_force_assignment,
    brute_force_monotone,
    counting,
    ipf_plan,
    random_frame_measure,
    with_row_residual,
)
import pframes.optim
import pframes.transport
from pframes.duality import canonical_dual, psi_h_dual
from pframes.errors import NumericError
from pframes.measures import DiscreteMeasure
from pframes.optim import ASSIGNMENT_RTOL, OPTIMALITY_RTOL, hungarian
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


def test_potentials_certify_the_returned_plan():
    rng = np.random.default_rng(8)
    # Zero-weight atoms leave a row and a column without support.
    bare_mu = DiscreteMeasure(atoms=[[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], weights=[0.5, 0.5, 0.0])
    bare_nu = DiscreteMeasure(atoms=[[0.0, 1.0], [1.0, 1.0], [-4.0, 2.0]], weights=[0.3, 0.7, 0.0])
    for mu, nu in (
        (random_measure(rng, 3, 6, uniform=True), random_measure(rng, 3, 6, uniform=True)),
        (random_measure(rng, 2, 5), random_measure(rng, 2, 7)),
        (bare_mu, bare_nu),
    ):
        solution = wasserstein2(mu, nu)
        u, v = solution.potentials
        cost = squared_distance_matrix(mu.atoms, nu.atoms)
        assert (cost - u[:, None] - v[None, :]).min() >= -1e-12
        assert abs(mu.weights @ u + nu.weights @ v - solution.distance_squared) <= 1e-10


def test_lp_duals_certify_with_a_thousandfold_margin():
    # The LP plan's own row duals are its potentials: across sizes, weight
    # skews down to 1e-12 and cost scales up to 1e4, their slack and gap stay
    # a thousand times inside the certificate's tolerance.
    rng = np.random.default_rng(1414)
    for trial in range(300):
        n, m, dim = int(rng.integers(2, 31)), int(rng.integers(2, 31)), trial % 3 + 1
        concentration, scale = [0.2, 0.7, 5.0][trial // 3 % 3], [1.0, 10.0, 100.0][trial // 9 % 3]
        measures = []
        for count in (n, m):
            weights = np.maximum(rng.dirichlet(np.full(count, concentration)), 1e-12)
            atoms = scale * rng.normal(size=(count, dim))
            measures.append(DiscreteMeasure(atoms=atoms, weights=weights / weights.sum()))
        mu, nu = measures
        solution = wasserstein2(mu, nu)
        assert solution.permutation is None
        u, v = solution.potentials
        cost = squared_distance_matrix(mu.atoms, nu.atoms)
        value = float((solution.plan.coupling * cost).sum())
        tol = 1e-3 * OPTIMALITY_RTOL * (1.0 + abs(value))
        assert float((cost - u[:, None] - v[None, :]).min()) >= -tol
        assert abs(value - float(mu.weights @ u + nu.weights @ v)) <= tol


def test_uniform_w2_solves_no_lp(monkeypatch):
    calls = []
    solve = pframes.transport.solve_lp
    monkeypatch.setattr(pframes.transport, "solve_lp", lambda lp: calls.append(lp) or solve(lp))
    rng = np.random.default_rng(9)
    wasserstein2(random_measure(rng, 3, 40, uniform=True), random_measure(rng, 3, 40, uniform=True))
    assert calls == []


@pytest.mark.parametrize("uniform", [True, False], ids=["assignment", "lp"])
def test_one_cost_matrix_per_w2(monkeypatch, uniform):
    # The plan is solved and certified on the same squared-distance matrix.
    rng = np.random.default_rng(12)
    mu, nu = random_measure(rng, 3, 7, uniform=uniform), random_measure(rng, 3, 7, uniform=True)
    calls = counting(monkeypatch, pframes.transport, "squared_distance_matrix")
    solution = wasserstein2(mu, nu)
    assert (solution.permutation is not None) == uniform
    assert calls == ["squared_distance_matrix"]


def test_swapped_assignment_is_a_numeric_error(monkeypatch):
    # The true potentials come back with a swapped permutation: only the
    # certificate can reject it.
    assign = pframes.transport.hungarian

    def swapped(cost):
        sigma, potentials = assign(cost)
        sigma[[0, 1]] = sigma[[1, 0]]
        return sigma, potentials

    monkeypatch.setattr(pframes.transport, "hungarian", swapped)
    rng = np.random.default_rng(10)
    mu, nu = random_measure(rng, 2, 6, uniform=True), random_measure(rng, 2, 6, uniform=True)
    with pytest.raises(NumericError, match="minimum slack .*gap"):
        wasserstein2(mu, nu)


def test_product_coupling_from_the_lp_is_a_numeric_error(monkeypatch):
    # The independent coupling meets both marginals and comes with the real
    # LP's duals, so only the optimality certificate can reject it.
    rng = np.random.default_rng(11)
    mu, nu = random_measure(rng, 2, 4), random_measure(rng, 2, 5)
    solve = pframes.transport.solve_lp

    def product(*args):
        coupling = np.outer(mu.weights, nu.weights).ravel()
        return dataclasses.replace(solve(*args), solution=coupling)

    monkeypatch.setattr(pframes.transport, "solve_lp", product)
    with pytest.raises(NumericError, match="minimum slack .*gap"):
        wasserstein2(mu, nu)


def test_lp_plan_is_certified_by_its_own_row_duals(monkeypatch):
    rng = np.random.default_rng(13)
    mu, nu = random_measure(rng, 2, 6), random_measure(rng, 2, 9)
    calls = counting(monkeypatch, pframes.optim, "kantorovich_potentials")
    solve, outcomes = pframes.transport.solve_lp, []
    monkeypatch.setattr(
        pframes.transport, "solve_lp", lambda *args: outcomes.append(solve(*args)) or outcomes[-1]
    )
    u, v = wasserstein2(mu, nu).potentials
    assert calls == []
    assert np.array_equal(np.concatenate([u, v]), outcomes[0].row_duals)


def equal_weight_pairs():
    """Equal-weight pairs whose identity pairing is optimal, by name."""
    rng = np.random.default_rng(31)
    uniform = random_frame_measure(rng, 3, 8, uniform=True)
    skewed = random_frame_measure(rng, 3, 8)
    doubled = DiscreteMeasure(np.repeat(skewed.atoms[:4], 2, axis=0), np.full(8, 1.0 / 8))
    return {
        "canonical-uniform": (uniform, canonical_dual(uniform)),
        "canonical-dirichlet": (skewed, canonical_dual(skewed)),
        "psi-h-uniform": (uniform, psi_h_dual(uniform, 0.01 * rng.normal(size=(8, 3)))),
        "psi-h-dirichlet": (skewed, psi_h_dual(skewed, 0.01 * rng.normal(size=(8, 3)))),
        "duplicated-atoms": (doubled, canonical_dual(doubled)),
        "self-uniform": (uniform, uniform),
        "self-dirichlet": (skewed, skewed),
    }


@pytest.mark.parametrize("name", list(equal_weight_pairs()))
def test_identity_route_matches_the_solver_route(monkeypatch, name):
    # The identity pairing, accepted by its bound, gives the solver route's
    # value (within certification) and permutation, and solves nothing.
    # Uniform pairs reach it through hungarian, the others directly.
    mu, nu = equal_weight_pairs()[name]
    solves = counting(monkeypatch, pframes.optim, "linear_sum_assignment")
    lps = counting(monkeypatch, pframes.transport, "solve_lp")
    fast = wasserstein2(mu, nu)
    assert solves + lps == []
    for module in (pframes.optim, pframes.transport):
        monkeypatch.setattr(module, "identity_potentials", lambda cost, weights: None)
    slow = wasserstein2(mu, nu)
    assert len(solves + lps) == 1
    tol = OPTIMALITY_RTOL * (1.0 + abs(slow.distance_squared))
    assert abs(fast.distance_squared - slow.distance_squared) <= tol
    if slow.permutation is None:
        assert fast.permutation is None
        assert np.array_equal(fast.plan.coupling, np.diag(mu.weights))
    else:
        assert np.array_equal(fast.permutation, slow.permutation)
        assert np.array_equal(fast.plan.coupling, slow.plan.coupling)


def test_random_equal_weight_pairs_take_the_solver_route(monkeypatch):
    rng = np.random.default_rng(32)
    weights = rng.dirichlet(np.ones(12))
    mu = DiscreteMeasure(rng.normal(size=(12, 2)), weights)
    nu = DiscreteMeasure(rng.normal(size=(12, 2)), weights)
    calls = counting(monkeypatch, pframes.transport, "solve_lp")
    solution = wasserstein2(mu, nu)
    assert calls == ["solve_lp"]
    assert not np.array_equal(solution.plan.coupling, np.diag(weights))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
def test_monotone_rejects_non_finite_gains(bad):
    # 1e200 squared overflows to inf in the gains.
    points = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        is_cyclically_monotone(list(zip(points, points)))


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
    # A 1.5e-8 row residual, injected past solve_lp's own check, fails
    # PLAN_TOL: the solver's point is at fault, not the input.
    monkeypatch.setattr(
        pframes.transport, "solve_lp", with_row_residual(pframes.transport.solve_lp, 1.5e-8)
    )
    mu = DiscreteMeasure(atoms=[[1.0, 0.0], [0.0, 1.0]], weights=[0.6, 0.4])
    nu = DiscreteMeasure(atoms=[[1.0, 1.0], [-1.0, 0.5], [0.2, -1.0]], weights=[0.5, 0.3, 0.2])
    with pytest.raises(NumericError, match="not a valid plan"):
        wasserstein2(mu, nu)


def monotone_by_assignment(xs, ys):
    """The decision from one assignment solve: is the identity within
    ``ASSIGNMENT_RTOL (1 + |identity| + |best|)`` of the best pairing?"""
    gains = xs @ ys.T
    identity = float(np.trace(gains))
    sigma = hungarian(-gains)[0]
    best = float(gains[np.arange(len(xs)), sigma].sum())
    return best <= identity + ASSIGNMENT_RTOL * (1.0 + abs(identity) + abs(best))


def paired(xs, ys):
    """``ys`` reordered along an optimal assignment: monotone by construction."""
    return ys[hungarian(-(xs @ ys.T))[0]]


def near_tie(scale):
    """1-d points, embedded in 2-d, where swapping the first two pairs beats
    the identity by ``scale`` times the assignment tolerance and nothing
    beats it by more."""
    xs = np.arange(6.0)
    ys = np.arange(6.0)
    identity = float(xs @ ys)
    gain = scale * ASSIGNMENT_RTOL * (1.0 + 2.0 * identity)
    ys[0] = ys[1] + gain  # (x0 - x1)(y1 - y0) = gain
    return xs[:, None] * [1.0, 0.0], ys[:, None] * [1.0, 0.0]


def monotone_cases():
    rng = np.random.default_rng(33)
    cases = []
    for n in (2, 3, 5, 8, 20, 60):
        for _ in range(4):
            xs, ys = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            cases += [("random", xs, ys), ("paired", xs, paired(xs, ys))]
            xs, ys = rng.integers(0, 3, size=(n, 2)) * 1.0, rng.integers(0, 3, size=(n, 2)) * 1.0
            cases += [("grid", xs, ys), ("grid-paired", xs, paired(xs, ys))]
    cases += [("near-tie", *near_tie(0.5)), ("near-tie", *near_tie(2.0))]
    return cases


def test_monotone_answers_match_the_assignment_decision():
    kinds = set()
    for kind, xs, ys in monotone_cases():
        monotone, witness = is_cyclically_monotone(list(zip(xs, ys)))
        assert monotone == monotone_by_assignment(xs, ys), kind
        if monotone:
            assert witness is None
        else:
            gains = xs @ ys.T
            assert sorted(witness) == list(range(len(xs)))
            assert gains[np.arange(len(xs)), witness].sum() > np.trace(gains)
        kinds.add((kind, monotone))
    assert {("random", False), ("paired", True), ("grid", False), ("grid-paired", True)} <= kinds
    assert {("near-tie", True), ("near-tie", False)} <= kinds


def test_transposition_beyond_the_tolerance_is_the_witness(monkeypatch):
    xs, ys = near_tie(2.0)
    calls = counting(monkeypatch, pframes.transport, "hungarian")
    assert not is_cyclically_monotone(list(zip(xs, ys)))[0]
    assert np.array_equal(is_cyclically_monotone(list(zip(xs, ys)))[1], [1, 0, 2, 3, 4, 5])
    assert calls == []


@pytest.mark.parametrize("kind", ["random", "paired"])
def test_monotone_sets_are_decided_without_the_assignment_solver(monkeypatch, kind):
    rng = np.random.default_rng(34)
    xs, ys = rng.normal(size=(150, 3)), rng.normal(size=(150, 3))
    if kind == "paired":
        ys = paired(xs, ys)
    # A paired set reaches hungarian, whose identity potentials settle it.
    calls = counting(monkeypatch, pframes.optim, "linear_sum_assignment")
    monotone, witness = is_cyclically_monotone(list(zip(xs, ys)))
    assert calls == []
    assert monotone == (kind == "paired")
    if not monotone:  # a transposition
        assert np.count_nonzero(witness != np.arange(150)) == 2


def test_longer_improving_cycle_reaches_the_assignment_solver(monkeypatch):
    # No transposition beats the identity here, but the 4-cycle 0 -> 2 -> 3
    # -> 1 -> 0 does, so only the assignment solver finds the witness.
    xs = np.array([[-1.18, -0.85], [-0.05, -1.88], [1.43, 1.06], [1.25, -0.51]])
    ys = np.array([[0.24, -0.95], [1.55, -1.21], [-0.51, 1.42], [2.49, -0.09]])
    gains = xs @ ys.T
    diag = gains.diagonal()
    assert (gains + gains.T <= diag[:, None] + diag[None, :]).all()
    calls = counting(monkeypatch, pframes.optim, "linear_sum_assignment")
    monotone, witness = is_cyclically_monotone(list(zip(xs, ys)))
    assert calls == ["linear_sum_assignment"]
    assert not monotone
    assert np.array_equal(witness, [2, 0, 3, 1])
    assert gains[np.arange(4), witness].sum() > np.trace(gains)
