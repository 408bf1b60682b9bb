"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines as
they complete.  Tolerances are pinned in the assertions; nothing is deferred
to runtime calibration.
"""

import math

import numpy as np

from helpers import (
    MERCEDES_BENZ,
    brute_force_assignment,
    brute_force_monotone,
    ipf_plan,
    random_frame_measure,
    random_orthogonal,
    random_spd,
    remark_instance,
)
from pframes.duality import (
    FarkasCertificate,
    TransportPlan,
    canonical_dual,
    certificate_is_valid,
    cross_moment_matrix,
    find_transport_dual,
    psi_h_dual,
)
from pframes.geodesics import (
    gaussian_optimal_map,
    gaussian_path,
    gaussian_w2,
    geodesic_measure,
    geodesic_profile,
)
from pframes.measures import DiscreteMeasure, GaussianMeasure, frame_report, pd_threshold
from pframes.optim import FEASIBILITY_TOL, hungarian, solve_lp
from pframes.semidiscrete import (
    GaussianReference,
    adapt_weights,
    reconstruct,
    resample,
    with_site_map,
)
from pframes.transport import is_cyclically_monotone, squared_distance_matrix, wasserstein2


def check(name, body):
    try:
        body()
    except BaseException:
        print(f"[{name}] FAIL", flush=True)
        raise
    print(f"[{name}] PASS", flush=True)


def mercedes_benz_measure():
    return DiscreteMeasure(atoms=MERCEDES_BENZ, weights=np.full(3, 1.0 / 3.0))


def test_01_remark_dual_instance():
    def body():
        mu, nu = remark_instance()
        result = find_transport_dual(mu, nu)
        assert isinstance(result, TransportPlan)
        assert np.abs(cross_moment_matrix(result) - np.eye(2)).max() <= 1e-7

    check("A01 different-cardinality dual instance", body)


def test_02_zero_centroid_obstruction():
    def body():
        mb = mercedes_benz_measure()
        rng = np.random.default_rng(202)
        for _ in range(20):
            candidate = DiscreteMeasure(atoms=rng.normal(size=(2, 2)), weights=[0.5, 0.5])
            result = find_transport_dual(mb, candidate)
            assert isinstance(result, FarkasCertificate)
            assert certificate_is_valid(result, mb, candidate)

    check("A02 equal-weight dual obstruction certificates", body)


def test_03_canonical_dual_identity():
    def body():
        rng = np.random.default_rng(303)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            count = dim + int(rng.integers(1, 13 - dim))
            measure = random_frame_measure(rng, dim, count)
            dual = canonical_dual(measure)
            gram = measure.atoms.T @ (measure.weights[:, None] * dual.atoms)
            assert np.abs(gram - np.eye(dim)).max() <= 1e-8

    check("A03 canonical dual identity (100 random frames)", body)


def test_04_transport_duals_are_frames():
    def body():
        rng = np.random.default_rng(404)
        feasible_seen = 0
        for _ in range(30):
            dim = int(rng.integers(2, 4))
            count = dim + int(rng.integers(1, 5))
            measure = random_frame_measure(rng, dim, count)
            dual = psi_h_dual(measure, rng.normal(size=(count, dim)))
            result = find_transport_dual(measure, dual)
            assert isinstance(result, TransportPlan)
            feasible_seen += 1
            report = frame_report(result.col_measure)
            assert report.is_frame
            assert report.lower_bound > pd_threshold(report.upper_bound)
        mu, nu = remark_instance()
        result = find_transport_dual(mu, nu)
        assert frame_report(result.col_measure).is_frame
        assert feasible_seen == 30

    check("A04 certified transport duals are frames", body)


def test_05_canonical_pairs_cyclically_monotone():
    def body():
        rng = np.random.default_rng(505)
        for trial in range(100):
            dim = int(rng.integers(2, 5))
            count = dim + int(rng.integers(1, 6))
            uniform = trial % 2 == 0
            measure = random_frame_measure(rng, dim, count, uniform=uniform)
            dual = canonical_dual(measure)
            monotone, _ = is_cyclically_monotone(list(zip(dual.atoms, measure.atoms)))
            assert monotone
        for _ in range(20):
            n = int(rng.integers(1, 7))
            xs = rng.normal(size=(n, 2))
            ys = rng.normal(size=(n, 2))
            monotone, _ = is_cyclically_monotone(list(zip(xs, ys)))
            assert monotone == brute_force_monotone(xs, ys)

    check("A05 canonical-dual pairs cyclically monotone", body)


def test_06_geodesic_frame_certification():
    def body():
        rng = np.random.default_rng(606)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            count = dim + int(rng.integers(1, 5))
            measure = random_frame_measure(rng, dim, count, uniform=True)
            profile = geodesic_profile(measure, canonical_dual(measure), grid_size=101)
            assert profile.all_frames
        antipodal = geodesic_profile(
            DiscreteMeasure(atoms=np.eye(2), weights=[0.5, 0.5]),
            DiscreteMeasure(atoms=-np.eye(2), weights=[0.5, 0.5]),
            grid_size=101,
        )
        mid = 50
        assert antipodal.ts[mid] == 0.5
        assert antipodal.lower_bounds[mid] <= pd_threshold(antipodal.upper_bounds[mid])
        assert not antipodal.all_frames

    check("A06 geodesic certification (50 dual pairs + antipodal dip)", body)


def test_07_constant_speed_geodesics():
    def body():
        rng = np.random.default_rng(707)
        for trial in range(20):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(2, 7))
            m = n if trial % 2 == 0 else int(rng.integers(2, 7))
            uniform = trial % 2 == 0
            mu = random_frame_measure(rng, dim, max(n, dim), uniform=uniform)
            nu = random_frame_measure(rng, dim, max(m, dim), uniform=uniform)
            solution = wasserstein2(mu, nu)
            base = math.sqrt(solution.distance_squared)
            for t in (0.25, 0.5, 0.75):
                mu_t = geodesic_measure(mu, nu, solution.plan, t)
                left = math.sqrt(wasserstein2(mu, mu_t).distance_squared)
                assert abs(left - t * base) <= 1e-6

    check("A07 constant-speed geodesic identity (20 pairs)", body)


def test_08_gaussian_case():
    def body():
        identity = GaussianMeasure(mean=np.zeros(2), covariance=np.eye(2))
        stretched = GaussianMeasure(mean=np.zeros(2), covariance=np.diag([4.0, 1.0]))
        assert abs(gaussian_w2(identity, stretched) - 1.0) <= 1e-9

        rng = np.random.default_rng(808)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            g0 = GaussianMeasure(mean=np.zeros(dim), covariance=random_spd(rng, dim))
            g1 = GaussianMeasure(mean=np.zeros(dim), covariance=random_spd(rng, dim))
            path = gaussian_path(g0, g1, grid_size=101)
            assert path.lower_bounds.min() > 0.0

        for _ in range(10):
            dim = int(rng.integers(2, 5))
            q = random_orthogonal(rng, dim)
            d0 = np.diag(rng.uniform(0.2, 3.0, size=dim))
            d1 = np.diag(rng.uniform(0.2, 3.0, size=dim))
            g0 = GaussianMeasure(mean=np.zeros(dim), covariance=q @ d0 @ q.T)
            g1 = GaussianMeasure(mean=np.zeros(dim), covariance=q @ d1 @ q.T)
            symmetric_map = gaussian_optimal_map(g0, g1)
            product_map = q @ np.sqrt(d1) @ np.sqrt(np.linalg.inv(d0)) @ q.T
            assert np.abs(symmetric_map - product_map).max() <= 1e-9

    check("A08 Gaussian distance, paths, commuting maps", body)


def test_09_semidiscrete_adaptation_and_reconstruction():
    def body():
        two_sites = np.array([[1.0, 0.0], [-1.0, 0.0]])
        coupling = adapt_weights(
            two_sites, [0.75, 0.25], GaussianReference(2), 200_000, seed=909
        )
        assert np.abs(coupling.achieved_masses - [0.75, 0.25]).max() <= 1e-3

        sites = np.vstack([MERCEDES_BENZ, [[0.9, 0.7]]])
        targets = np.array([0.3, 0.25, 0.25, 0.2])
        # Tight adaptation keeps the mass-mismatch bias well below the Monte
        # Carlo noise over the size range used for the rate fit.
        base = adapt_weights(
            sites, targets, GaussianReference(2), 200_000, seed=910, adapt_tol=2.5e-4
        )
        frame = sites
        weighted = frame.T @ (base.target_weights[:, None] * frame)
        dual = np.linalg.solve(weighted, frame.T).T
        rng = np.random.default_rng(911)
        unit_xs = rng.normal(size=(10, 2))
        unit_xs /= np.linalg.norm(unit_xs, axis=1, keepdims=True)
        ana = with_site_map(base, frame)
        syn = with_site_map(base, dual)
        for x in unit_xs:
            assert np.linalg.norm(reconstruct(x, ana, syn) - x) <= 5e-2

        sizes = np.array([256, 1024, 4096, 16384, 65536])
        mean_errors = []
        for size in sizes:
            errs = []
            for rep in range(6):
                fresh = resample(base, int(size), seed=1000 + rep)
                fresh_ana = with_site_map(fresh, frame)
                fresh_syn = with_site_map(fresh, dual)
                errs.extend(
                    np.linalg.norm(reconstruct(x, fresh_ana, fresh_syn) - x) for x in unit_xs
                )
            mean_errors.append(np.mean(errs))
        slope = np.polyfit(np.log(sizes), np.log(mean_errors), 1)[0]
        assert abs(slope - (-0.5)) <= 0.15

    check("A09 semi-discrete adaptation + Monte Carlo reconstruction", body)


def test_10_solver_oracles():
    def body():
        rng = np.random.default_rng(101)
        for n in range(1, 8):
            for _ in range(3):
                cost = rng.normal(size=(n, n))
                sigma = hungarian(cost)[0]
                best_val, best_perm = brute_force_assignment(cost)
                assert np.array_equal(sigma, best_perm)
                value = cost[np.arange(n), sigma].sum()
                assert abs(value - best_val) <= 1e-9 * (1.0 + abs(best_val))

        mu = random_frame_measure(rng, 2, 5)
        nu = random_frame_measure(rng, 2, 4)
        cost = squared_distance_matrix(mu.atoms, nu.atoms)
        optimal = wasserstein2(mu, nu).distance_squared
        for _ in range(100):
            plan = ipf_plan(rng, mu.weights, nu.weights)
            assert optimal <= float((plan * cost).sum()) + 1e-7

        feasible_seen = infeasible_seen = 0
        for trial in range(500):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 9))
            kmat = rng.normal(size=(m, n))
            if trial % 2 == 0:
                rhs = kmat @ np.abs(rng.normal(size=n))
            else:
                rhs = rng.normal(size=m)
            outcome = solve_lp(kmat, rhs)
            assert (outcome.solution is None) != (outcome.dual_certificate is None)
            if outcome.status == "feasible":
                feasible_seen += 1
                assert outcome.solution.min() >= -1e-10
                residual = np.abs(kmat @ outcome.solution - rhs).max()
                assert residual <= FEASIBILITY_TOL * (1.0 + np.abs(rhs).max())
            else:
                infeasible_seen += 1
                cert = outcome.dual_certificate
                assert float((cert @ kmat).min()) >= -FEASIBILITY_TOL
                assert float(cert @ rhs) <= -FEASIBILITY_TOL
        assert feasible_seen > 100 and infeasible_seen > 100

    check("A10 solver oracles (assignment, LP optimality, Farkas)", body)
