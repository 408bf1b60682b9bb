import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_assignment,
    counting,
    det_sign_changes,
    gaussian_path_by_loop,
    profile_by_measures,
    random_frame_measure,
    random_orthogonal,
    random_spd,
    random_unit_norm_frame,
)
import pframes.geodesics
import pframes.optim
import pframes.transport
from pframes.duality import TransportPlan, canonical_dual, dual_family_member
from pframes.errors import NotAFrameError, NumericError
from pframes.geodesics import (
    coherence_identity_test,
    gaussian_optimal_map,
    gaussian_path,
    gaussian_w2,
    geodesic_measure,
    geodesic_profile,
    profile_csv_text,
    szulc_condition,
)
from pframes.measures import (
    DiscreteMeasure,
    GaussianMeasure,
    frame_operator,
    pd_threshold,
    second_moment,
)
from pframes.transport import is_cyclically_monotone, optimal_permutation, wasserstein2


def as_measure_pair(rng, dim, count):
    mu = random_frame_measure(rng, dim, count, uniform=True)
    return mu, canonical_dual(mu)


# --- geodesic measures -------------------------------------------------------


def test_endpoints_reproduce_inputs():
    rng = np.random.default_rng(0)
    mu, nu = as_measure_pair(rng, 2, 4)
    plan = wasserstein2(mu, nu).plan
    at0 = geodesic_measure(plan, 0.0)
    at1 = geodesic_measure(plan, 1.0)
    assert np.allclose(at0.atoms, mu.atoms) and np.allclose(at0.weights, mu.weights)
    # The permutation plan lists target atoms in sigma order.
    sigma = wasserstein2(mu, nu).permutation
    assert np.allclose(at1.atoms, nu.atoms[sigma])
    assert np.allclose(at1.weights, nu.weights[sigma])


def test_midpoint_atoms_for_identity_pairing():
    rng = np.random.default_rng(1)
    mu, nu = as_measure_pair(rng, 3, 5)
    solution = wasserstein2(mu, nu)
    assert np.array_equal(solution.permutation, np.arange(5))  # canonical dual pairing
    mid = geodesic_measure(solution.plan, 0.5)
    assert np.allclose(mid.atoms, 0.5 * (mu.atoms + nu.atoms))
    assert np.allclose(mid.weights, mu.weights)


def test_geodesic_measure_validations():
    rng = np.random.default_rng(2)
    mu, nu = as_measure_pair(rng, 2, 3)
    plan = wasserstein2(mu, nu).plan
    for t in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            geodesic_measure(plan, t)


def test_interpolant_frame_operator_matches_segment_formula():
    rng = np.random.default_rng(3)
    mu, nu = as_measure_pair(rng, 2, 5)
    solution = wasserstein2(mu, nu)
    sigma = solution.permutation
    phi = mu.atoms
    psi_sigma = nu.atoms[sigma]
    for t in (0.2, 0.5, 0.9):
        mu_t = geodesic_measure(solution.plan, t)
        segment = (1.0 - t) * phi + t * psi_sigma
        expected = segment.T @ segment / 5.0
        assert np.abs(frame_operator(mu_t) - expected).max() <= 1e-10


# --- profiles ----------------------------------------------------------------


def test_profile_canonical_dual_pair_all_frames():
    rng = np.random.default_rng(4)
    mu, nu = as_measure_pair(rng, 2, 4)
    profile = geodesic_profile(mu, nu, grid_size=21)
    assert profile.all_frames
    assert profile.ts[0] == 0.0 and profile.ts[-1] == 1.0
    assert profile.lower_bounds.min() > 0.0
    assert np.all(np.isfinite(profile.second_moments))


def test_profile_disjoint_one_dimensional_frames():
    # Atoms {1, 1} and {1, -1}: the interpolant's second moment is the exact
    # quadratic 1 - 2t + 2t^2, bounded away from zero.
    mu = DiscreteMeasure(atoms=[[1.0], [1.0]], weights=[0.5, 0.5])
    nu = DiscreteMeasure(atoms=[[1.0], [-1.0]], weights=[0.5, 0.5])
    profile = geodesic_profile(mu, nu, grid_size=41)
    assert profile.all_frames
    expected = 1.0 - 2.0 * profile.ts + 2.0 * profile.ts**2
    assert np.abs(profile.lower_bounds - expected).max() <= 1e-12
    assert profile.lower_bounds.min() >= 0.5 - 1e-12


def test_profile_antipodal_pair_degenerates_at_midpoint():
    mu = DiscreteMeasure(atoms=np.eye(2), weights=[0.5, 0.5])
    nu = DiscreteMeasure(atoms=-np.eye(2), weights=[0.5, 0.5])
    # Optimal pairing is the swap (cost 2 per pair beats 4), so midpoint
    # atoms are +-(e1 - e2)/2: rank one.
    assert np.array_equal(wasserstein2(mu, nu).permutation, [1, 0])
    profile = geodesic_profile(mu, nu, grid_size=101)
    assert not profile.all_frames
    mid = np.argmin(np.abs(profile.ts - 0.5))
    assert profile.lower_bounds[mid] <= pd_threshold(profile.upper_bounds[mid])


@pytest.mark.parametrize("grid_size", [2, 100, 1000])
def test_antipodal_pair_is_singular_off_the_grid(grid_size):
    # No grid point of these sizes is t = 0.5, where the interpolant has
    # rank one; the grid alone reports every point a frame.
    mu = DiscreteMeasure(atoms=np.eye(2), weights=[0.5, 0.5])
    nu = DiscreteMeasure(atoms=-np.eye(2), weights=[0.5, 0.5])
    profile = geodesic_profile(mu, nu, grid_size=grid_size)
    assert not np.any(profile.ts == 0.5)
    assert not profile.all_frames
    assert profile.singular_t == pytest.approx(0.5, abs=1e-9)


def assert_singular_t_matches_the_scan(mu, nu):
    """``geodesic_profile`` of two uniform measures on ``d`` atoms in R^d
    against a dense sign scan of ``det`` along its optimal pairing."""
    sigma = wasserstein2(mu, nu).permutation
    roots = det_sign_changes(mu.atoms, nu.atoms[sigma])
    profile = geodesic_profile(mu, nu)
    assert profile.all_frames == (roots.size == 0)
    if roots.size:
        # A point within about 1e-5 sqrt(lambda_max / curvature) of a double
        # root of det S(t) is singular by pd_threshold too.
        assert abs(profile.singular_t - roots[0]) <= 1e-3
    else:
        assert profile.singular_t is None
    return roots.size > 0


def test_random_two_atom_pairs_agree_with_the_sign_scan():
    rng = np.random.default_rng(909)
    singular = 0
    for _ in range(150):
        mu = DiscreteMeasure(atoms=rng.normal(size=(2, 2)), weights=[0.5, 0.5])
        nu = DiscreteMeasure(atoms=rng.normal(size=(2, 2)), weights=[0.5, 0.5])
        singular += assert_singular_t_matches_the_scan(mu, nu)
    assert 30 <= singular <= 120


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 3), scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_square_frames_agree_with_the_sign_scan(seed, dim, scale):
    rng = np.random.default_rng(seed)
    weights = np.full(dim, 1.0 / dim)
    mu = DiscreteMeasure(atoms=scale * rng.normal(size=(dim, dim)), weights=weights)
    nu = DiscreteMeasure(atoms=rng.normal(size=(dim, dim)), weights=weights)
    assert_singular_t_matches_the_scan(mu, nu)


def test_profile_grid_two_is_endpoints_only():
    rng = np.random.default_rng(5)
    mu, nu = as_measure_pair(rng, 2, 3)
    profile = geodesic_profile(mu, nu, grid_size=2)
    assert np.array_equal(profile.ts, [0.0, 1.0])


def test_profile_validations():
    rng = np.random.default_rng(6)
    mu, nu = as_measure_pair(rng, 2, 3)
    with pytest.raises(ValueError):
        geodesic_profile(mu, nu, grid_size=1)
    thin = DiscreteMeasure(atoms=[[1.0, 0.0], [2.0, 0.0]], weights=[0.5, 0.5])
    with pytest.raises(NotAFrameError):
        geodesic_profile(thin, nu)


@pytest.mark.parametrize("seed", range(4))
def test_constant_speed_identity(seed):
    rng = np.random.default_rng(seed)
    mu = random_frame_measure(rng, 2, 4, uniform=True)
    nu = random_frame_measure(rng, 2, 4, uniform=True)
    solution = wasserstein2(mu, nu)
    base = np.sqrt(solution.distance_squared)
    for t in (0.25, 0.5, 0.75):
        mu_t = geodesic_measure(solution.plan, t)
        left = np.sqrt(wasserstein2(mu, mu_t).distance_squared)
        assert abs(left - t * base) <= 1e-6


def test_second_moment_continuity_under_refinement():
    rng = np.random.default_rng(7)
    mu, nu = as_measure_pair(rng, 2, 4)
    jumps = []
    for grid in (11, 21, 41):
        profile = geodesic_profile(mu, nu, grid_size=grid)
        jumps.append(np.abs(np.diff(profile.second_moments)).max())
    assert jumps[2] < jumps[1] < jumps[0]


def test_profile_csv_export():
    rng = np.random.default_rng(8)
    mu, nu = as_measure_pair(rng, 2, 3)
    text = profile_csv_text(geodesic_profile(mu, nu, grid_size=5))
    lines = text.strip().split("\n")
    assert lines[0] == "t,lambda_min,lambda_max,m2"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and len(first) == 4


def assert_matches_reference(mu0, mu1, grid_size=101):
    profile = geodesic_profile(mu0, mu1, grid_size=grid_size)
    reference = profile_by_measures(wasserstein2(mu0, mu1).plan, grid_size)
    scale = 1e-12 * (1.0 + reference.upper_bounds)
    assert np.array_equal(profile.ts, reference.ts)
    for got, want in (
        (profile.lower_bounds, reference.lower_bounds),
        (profile.upper_bounds, reference.upper_bounds),
        (profile.second_moments, reference.second_moments),
    ):
        assert np.all(np.abs(got - want) <= scale)
    assert profile.all_frames == reference.all_frames
    return profile


def test_closed_form_profile_matches_per_measure_path_on_acceptance_fixtures():
    # The A06 instances: 50 frames joined to their canonical duals, then the
    # antipodal pair, whose midpoint is not a frame.
    rng = np.random.default_rng(606)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        count = dim + int(rng.integers(1, 5))
        measure = random_frame_measure(rng, dim, count, uniform=True)
        assert assert_matches_reference(measure, canonical_dual(measure)).all_frames
    antipodal = assert_matches_reference(
        DiscreteMeasure(atoms=np.eye(2), weights=[0.5, 0.5]),
        DiscreteMeasure(atoms=-np.eye(2), weights=[0.5, 0.5]),
    )
    assert not antipodal.all_frames


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_profile_matches_per_measure_path_on_lp_plans(seed):
    rng = np.random.default_rng(40 + seed)
    dim = int(rng.integers(2, 4))
    mu = random_frame_measure(rng, dim, int(rng.integers(dim + 1, 30)))
    nu = random_frame_measure(rng, dim, int(rng.integers(dim + 1, 30)))
    assert wasserstein2(mu, nu).permutation is None  # Dirichlet weights: the LP plan
    assert_matches_reference(mu, nu)


@pytest.mark.parametrize("weights", [None, [0.1, 0.2, 0.3, 0.4]])
def test_closed_form_profile_matches_per_measure_path_when_atoms_merge(weights):
    # Repeated atoms paired with repeated atoms travel together, so every
    # interpolant merges them; with unequal weights the plan comes from the LP.
    atoms = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    mu = DiscreteMeasure(atoms=atoms, weights=weights or np.full(4, 0.25))
    nu = DiscreteMeasure(atoms=2.0 * atoms + 0.5, weights=weights or np.full(4, 0.25))
    mid = geodesic_measure(wasserstein2(mu, nu).plan, 0.5)
    assert mid.count == 3
    assert_matches_reference(mu, nu)


def bellman_ford_calls(monkeypatch):
    """Count ``kantorovich_potentials`` under every name a module of the
    package binds it by: one call list per binding."""
    calls = []
    for module in (pframes.optim, pframes.transport, pframes.geodesics):
        if hasattr(module, "kantorovich_potentials"):
            calls.append(counting(monkeypatch, module, "kantorovich_potentials"))
    return calls


def test_profile_certifies_its_plan_once(monkeypatch):
    # One Bellman-Ford: the assignment's potentials certify the plan, and
    # the profile does not certify again what wasserstein2 has certified.
    calls = bellman_ford_calls(monkeypatch)
    rng = np.random.default_rng(22)
    mu = random_frame_measure(rng, 3, 8, uniform=True)
    nu = random_frame_measure(rng, 3, 8, uniform=True)
    geodesic_profile(mu, nu)
    assert sum(map(len, calls)) == 1


def test_uniform_profile_makes_one_assignment_and_no_lp(monkeypatch):
    lp_calls = counting(monkeypatch, pframes.transport, "solve_lp")
    assignment_calls = counting(monkeypatch, pframes.transport, "hungarian")
    rng = np.random.default_rng(22)
    mu = random_frame_measure(rng, 3, 8, uniform=True)
    nu = random_frame_measure(rng, 3, 8, uniform=True)
    geodesic_profile(mu, nu)
    assert len(lp_calls) == 0
    assert len(assignment_calls) == 1


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "dirichlet"])
def test_paired_profile_makes_no_assignment_and_no_lp(monkeypatch, uniform):
    # A frame and its canonical dual pair by the identity, which its bound
    # accepts: no solver runs.
    solves = counting(monkeypatch, pframes.optim, "linear_sum_assignment")
    lps = counting(monkeypatch, pframes.transport, "solve_lp")
    # The plan is still certified once, by the identity's potentials from
    # optim.identity_potentials.
    certified = bellman_ford_calls(monkeypatch)
    mu = random_frame_measure(np.random.default_rng(22), 3, 8, uniform=uniform)
    profile = geodesic_profile(mu, canonical_dual(mu))
    assert solves + lps == []
    assert sum(map(len, certified)) == 1
    assert profile.all_frames


def test_profile_rejects_a_swapped_plan(monkeypatch):
    # wasserstein2 certifies its own plan; a plan that the returned
    # potentials do not certify fails the half-plan certificates of the
    # additivity guard.
    rng = np.random.default_rng(23)
    mu = random_frame_measure(rng, 2, 6, uniform=True)
    nu = random_frame_measure(rng, 2, 6, uniform=True)
    honest = wasserstein2

    def swapped(a, b):
        solution = honest(a, b)
        sigma = solution.permutation.copy()
        sigma[[0, 1]] = sigma[[1, 0]]
        coupling = np.zeros((6, 6))
        coupling[np.arange(6), sigma] = 1.0 / 6.0
        plan = TransportPlan(a, b, coupling)
        return dataclasses.replace(solution, plan=plan, permutation=sigma)

    monkeypatch.setattr(pframes.geodesics, "wasserstein2", swapped)
    with pytest.raises(NumericError, match="minimum slack .*gap"):
        geodesic_profile(mu, nu)


# --- segment-rank condition --------------------------------------------------


def test_szulc_condition_self():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(5, 2))
    assert szulc_condition(phi, phi)


def test_szulc_condition_canonical_dual():
    rng = np.random.default_rng(10)
    psi = random_unit_norm_frame(rng, 2, 5)
    phi = psi @ np.linalg.inv(psi.T @ psi)
    # pinv(Psi) @ Phi = (Psi^T Psi)^{-1}: positive definite.
    assert szulc_condition(phi, psi)


def test_szulc_condition_antipodal_fails():
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(4, 2))
    assert not szulc_condition(phi, -phi)


def test_szulc_condition_on_an_ill_conditioned_frame():
    # Phi has rank 2, but Phi^T Phi (condition about 1e20) is singular in
    # floating point; the segment is checked on its whitened Gram matrix.
    rng = np.random.default_rng(13)
    phi = rng.normal(size=(5, 2))
    phi[:, 1] = phi[:, 0] + 1e-10 * rng.normal(size=5)
    assert szulc_condition(phi, phi)
    assert szulc_condition(phi, 2.0 * phi)


def test_szulc_condition_on_a_barely_full_rank_frame():
    # Phi's smallest singular value ratio is just above RANK_RTOL; the raw
    # segment dips below that cut by round-off at t near 1e-12, while the
    # whitened segment the roots were computed from keeps rank 3.
    rng = np.random.default_rng(113)
    u = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    middle = rng.uniform(0.1, 1.0)
    smallest = rng.uniform(1.0, 1.5) * 1e-12
    phi = u @ np.diag([1.0, middle, smallest]) @ v.T
    psi = rng.standard_normal((5, 3))
    assert szulc_condition(phi, psi)


def test_szulc_condition_rejects_rank_deficient():
    ones = np.ones((3, 2))
    with pytest.raises(ValueError):
        szulc_condition(ones, np.eye(3)[:, :2] + 1.0)


def test_szulc_plus_monotone_implies_all_frames():
    rng = np.random.default_rng(12)
    for _ in range(5):
        mu = random_frame_measure(rng, 2, 5, uniform=True)
        nu = canonical_dual(mu)
        sigma = optimal_permutation(mu.atoms, nu.atoms)
        monotone, _ = is_cyclically_monotone(list(zip(mu.atoms, nu.atoms)))
        assert monotone
        assert szulc_condition(mu.atoms, nu.atoms[sigma])
        assert geodesic_profile(mu, nu, grid_size=21).all_frames


def canonical_monotonicity_margin(phi, psi):
    """Worst gap of the identity pairing's total gain over all other
    permutations (positive = strictly cyclically monotone)."""
    gains = phi @ psi.T
    n = len(phi)
    identity = np.trace(gains)
    import itertools

    best_other = max(
        gains[np.arange(n), perm].sum()
        for perm in itertools.permutations(range(n))
        if perm != tuple(range(n))
    )
    return identity - best_other


def test_offset_duals_keep_identity_optimal():
    # Offsets supported on indices i > d with (offset_i, psi_i) cyclically
    # monotone keep the dual pairing cyclically monotone when the member
    # stays within the canonical pairing's strict monotonicity margin;
    # checked against brute force for N <= 6.  (Generic large tail offsets
    # can break the pairing, so the perturbation is margin-scaled.)
    rng = np.random.default_rng(13)
    for n in (4, 5, 6):
        measure = random_frame_measure(rng, 2, n, uniform=True)
        psi = measure.atoms
        canonical = dual_family_member(measure, np.zeros((n, 2)))
        margin = canonical_monotonicity_margin(canonical.atoms, psi)
        assert margin > 0
        offsets = np.zeros((n, 2))
        offsets[2:] = psi[2:]  # tail pairs (c psi_i, psi_i) are monotone for c > 0
        member = dual_family_member(measure, offsets)
        displacement = np.linalg.norm(member.atoms - canonical.atoms, axis=1).max()
        budget = margin / (4.0 * n * np.linalg.norm(psi, axis=1).max())
        scale = min(1.0, budget / max(displacement, 1e-30))
        member = dual_family_member(measure, scale * offsets)
        tail_monotone, _ = is_cyclically_monotone(list(zip(scale * offsets[2:], psi[2:])))
        assert tail_monotone
        monotone, _ = is_cyclically_monotone(list(zip(member.atoms, psi)))
        assert monotone
        cost = ((member.atoms[:, None, :] - psi[None, :, :]) ** 2).sum(axis=2)
        _, best_perm = brute_force_assignment(cost)
        assert np.array_equal(best_perm, np.arange(n))
        assert np.array_equal(optimal_permutation(member.atoms, psi), np.arange(n))


def test_monotone_checker_decides_offset_duals():
    # For larger tail offsets the pairing may or may not stay monotone; the
    # checker must agree with brute force either way and produce a valid
    # witness when it breaks.
    rng = np.random.default_rng(21)
    outcomes = set()
    for _ in range(12):
        measure = random_frame_measure(rng, 2, 5, uniform=True)
        psi = measure.atoms
        offsets = np.zeros((5, 2))
        offsets[2:] = rng.uniform(0.2, 1.5) * psi[2:]
        member = dual_family_member(measure, offsets)
        monotone, witness = is_cyclically_monotone(list(zip(member.atoms, psi)))
        gains = member.atoms @ psi.T
        _, best_perm = brute_force_assignment(-gains)
        identity_optimal = np.array_equal(best_perm, np.arange(5))
        assert monotone == identity_optimal
        if not monotone:
            assert gains[np.arange(5), witness].sum() > np.trace(gains)
        outcomes.add(monotone)
    assert outcomes == {True, False}


# --- coherence condition -----------------------------------------------------


def positively_separated_unit_frame(rng, dim, count):
    # The separation constant min_{i!=j} <phi_i, S^{-1}(phi_i - phi_j)> can be
    # negative for valid unit-norm frames (the coherence condition is then
    # unsatisfiable), so draw until it is positive.
    while True:
        phi = random_unit_norm_frame(rng, dim, count)
        proj = phi @ np.linalg.solve(phi.T @ phi, phi.T)
        seps = proj.diagonal()[:, None] - proj
        if seps[~np.eye(count, dtype=bool)].min() > 1e-3:
            return phi


def test_coherence_canonical_dual_holds():
    rng = np.random.default_rng(14)
    phi = positively_separated_unit_frame(rng, 2, 5)
    psi = phi @ np.linalg.inv(phi.T @ phi)
    assert coherence_identity_test(phi, psi)


def test_coherence_small_perturbation_holds():
    rng = np.random.default_rng(15)
    phi = positively_separated_unit_frame(rng, 2, 5)
    n = 5
    s = phi.T @ phi
    sinv_phi = np.linalg.solve(s, phi.T).T
    gram = phi @ sinv_phi.T
    separations = gram.diagonal()[:, None] - gram
    a = separations[~np.eye(n, dtype=bool)].min()
    assert a > 0
    # Perturb within the dual family, scaled well inside the a/N budget.
    direction = rng.normal(size=(n, 2))
    member = dual_family_member(
        DiscreteMeasure(atoms=phi, weights=np.full(n, 1.0 / n)), direction
    )
    z = member.atoms - sinv_phi
    scale = 0.5 * (a / n) / max(np.linalg.norm(z, axis=1).max(), 1e-30)
    member = dual_family_member(
        DiscreteMeasure(atoms=phi, weights=np.full(n, 1.0 / n)), scale * direction
    )
    assert coherence_identity_test(phi, member.atoms)
    assert np.array_equal(optimal_permutation(phi, member.atoms), np.arange(n))


def test_coherence_identity_is_settled_by_its_bound(monkeypatch):
    rng = np.random.default_rng(14)
    phi = positively_separated_unit_frame(rng, 2, 5)
    psi = phi @ np.linalg.inv(phi.T @ phi)
    calls = counting(monkeypatch, pframes.optim, "linear_sum_assignment")
    assert coherence_identity_test(phi, psi)
    assert calls == []
    # A bound that settles nothing leaves the decision to the assignment.
    monkeypatch.setattr(pframes.optim, "identity_potentials", lambda cost, weights: None)
    assert coherence_identity_test(phi, psi)
    assert calls == ["linear_sum_assignment"]
    monkeypatch.setattr(pframes.geodesics, "optimal_permutation", lambda a, b: np.arange(5)[::-1])
    with pytest.raises(NumericError, match="identity was not optimal"):
        coherence_identity_test(phi, psi)


def test_coherence_large_perturbation_fails_conservatively():
    rng = np.random.default_rng(16)
    phi = random_unit_norm_frame(rng, 2, 5)
    member = dual_family_member(
        DiscreteMeasure(atoms=phi, weights=np.full(5, 0.2)), 25.0 * rng.normal(size=(5, 2))
    )
    assert not coherence_identity_test(phi, member.atoms)


def test_coherence_validations():
    rng = np.random.default_rng(17)
    phi = random_unit_norm_frame(rng, 2, 4)
    psi = phi @ np.linalg.inv(phi.T @ phi)
    with pytest.raises(ValueError):
        coherence_identity_test(2.0 * phi, psi)  # not unit norm
    with pytest.raises(ValueError):
        coherence_identity_test(phi, phi)  # not a dual


def test_coherence_one_atom_frame_holds_vacuously():
    # No pair of distinct atoms: the separation bound is +inf, and the
    # identity is the only permutation.
    assert coherence_identity_test([[1.0]], [[1.0]])


# --- Gaussian case -----------------------------------------------------------


def zero_mean(cov):
    return GaussianMeasure(mean=np.zeros(len(cov)), covariance=cov)


def test_gaussian_w2_examples():
    assert gaussian_w2(zero_mean(np.eye(2)), zero_mean(np.eye(2))) == 0.0
    value = gaussian_w2(zero_mean(np.eye(2)), zero_mean(np.diag([4.0, 1.0])))
    assert abs(value - 1.0) <= 1e-12
    for n in (2, 9):
        value = gaussian_w2(zero_mean(np.eye(3)), zero_mean(np.eye(3) / n))
        assert abs(value - 3.0 * (1.0 - 1.0 / np.sqrt(n)) ** 2) <= 1e-12


def test_gaussian_w2_isotropic_scaling_family():
    a = 1.7
    for c in (0.3, 0.5, 2.0):
        value = gaussian_w2(zero_mean(a * np.eye(2)), zero_mean(c**2 * a * np.eye(2)))
        assert abs(value - 2.0 * a * (1.0 - c) ** 2) <= 1e-10


def test_gaussian_w2_zero_iff_equal():
    rng = np.random.default_rng(18)
    s0 = random_spd(rng, 3)
    s1 = random_spd(rng, 3)
    assert gaussian_w2(zero_mean(s0), zero_mean(s0)) <= 1e-10
    assert gaussian_w2(zero_mean(s0), zero_mean(s1)) > 1e-6


def test_gaussian_w2_rejects_nonzero_mean():
    g = GaussianMeasure(mean=[0.1, 0.0], covariance=np.eye(2))
    with pytest.raises(ValueError):
        gaussian_w2(g, zero_mean(np.eye(2)))


def test_gaussian_path_constant_when_equal():
    rng = np.random.default_rng(19)
    s = random_spd(rng, 2)
    path = gaussian_path(zero_mean(s), zero_mean(s), grid_size=7)
    assert np.abs(path.optimal_map - np.eye(2)).max() <= 1e-9
    w = np.linalg.eigvalsh(s)
    assert np.abs(path.lower_bounds - w[0]).max() <= 1e-9


def test_gaussian_path_diagonal_example():
    path = gaussian_path(zero_mean(np.eye(2)), zero_mean(np.diag([4.0, 1.0])), grid_size=3)
    assert np.abs(path.optimal_map - np.diag([2.0, 1.0])).max() <= 1e-10
    mid = 0.5 * np.eye(2) + 0.5 * np.diag([2.0, 1.0])
    sigma_half = mid @ np.eye(2) @ mid.T
    assert np.allclose(sigma_half, np.diag([2.25, 1.0]))
    assert abs(path.second_moments[1] - 3.25) <= 1e-10


def test_gaussian_path_rotation_equivariance():
    rng = np.random.default_rng(20)
    q = random_orthogonal(rng, 2)
    s0 = np.diag([1.0, 3.0])
    s1 = np.diag([2.0, 0.5])
    base = gaussian_optimal_map(zero_mean(s0), zero_mean(s1))
    rotated = gaussian_optimal_map(
        zero_mean(q @ s0 @ q.T), zero_mean(q @ s1 @ q.T)
    )
    assert np.abs(rotated - q @ base @ q.T).max() <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_gaussian_path_stays_positive(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    path = gaussian_path(zero_mean(random_spd(rng, d)), zero_mean(random_spd(rng, d)), grid_size=31)
    assert path.lower_bounds.min() > 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gaussian_path_matches_per_point_loop(d):
    rng = np.random.default_rng(40 + d)
    g0, g1 = zero_mean(random_spd(rng, d)), zero_mean(random_spd(rng, d))
    path = gaussian_path(g0, g1, grid_size=41)
    ts, lower, upper, moments = gaussian_path_by_loop(g0, g1, 41)
    assert np.array_equal(path.ts, ts)
    for got, want in ((path.lower_bounds, lower), (path.upper_bounds, upper),
                      (path.second_moments, moments)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_gaussian_path_names_first_indefinite_t(monkeypatch):
    # A map through -I collapses the covariance at t = 1/2 and flips it back.
    monkeypatch.setattr(pframes.geodesics, "gaussian_optimal_map", lambda g0, g1: -np.eye(2))
    with pytest.raises(NumericError, match=r"definiteness at t=0\.5$"):
        gaussian_path(zero_mean(np.eye(2)), zero_mean(np.eye(2)), grid_size=5)


def test_gaussian_path_rejects_singular():
    # lambda_min = 1e-11 is within pd_threshold (1e-10): not a frame either.
    for cov in (np.diag([1.0, 0.0]), np.diag([1.0, 1e-11])):
        with pytest.raises(NotAFrameError, match="g0 covariance is singular"):
            gaussian_path(zero_mean(cov), zero_mean(np.eye(2)))


@pytest.mark.parametrize(
    "s0, s1, want",
    [
        (np.diag([0.01, -5e-11]), np.eye(2), 1.81),
        (np.eye(2), np.diag([0.01, -5e-11]), 1.81),
        (np.diag([1e-6, 1.0]), np.diag([1.0, -1e-11]), 1.998001),
    ],
    ids=["negative-first", "negative-second", "magnified-by-s0"],
)
def test_gaussian_w2_accepts_every_covariance_the_type_accepts(s0, s1, want):
    # Negative eigenvalues within pd_threshold pass GaussianMeasure; the
    # square roots behind W2 must not reject them afterwards.
    assert abs(gaussian_w2(zero_mean(s0), zero_mean(s1)) - want) <= 1e-12


def test_gaussian_dimension_mismatch():
    with pytest.raises(ValueError):
        gaussian_w2(zero_mean(np.eye(2)), zero_mean(np.eye(3)))
