import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    argmin_nearest_two,
    broadcast_power_scores,
    gathered_analysis,
    gathered_synthesis,
    row_major_power_scores,
    spread_sites,
)
from pframes import semidiscrete
from pframes.errors import NumericError
from pframes.measures import DiscreteMeasure
from pframes.semidiscrete import (
    BoxReference,
    FunctionSamples,
    GaussianReference,
    PowerDiagram,
    adapt_weights,
    analysis,
    assign_cells,
    coupling_to_payload,
    cross_moment,
    reconstruct,
    resample,
    synthesis,
    with_site_map,
)

TWO_SITES = np.array([[1.0, 0.0], [-1.0, 0.0]])


def gaussian_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# --- power diagram geometry --------------------------------------------------


def cell_of(diagram, x):
    """The power cell of one point, by ``assign_cells`` on a one-point array."""
    return int(assign_cells(diagram.sites, diagram.weights, np.array([x], dtype=float))[0])


def test_voronoi_map_nearest_site():
    diagram = PowerDiagram(TWO_SITES, np.zeros(2), GaussianReference(2))
    assert cell_of(diagram, [0.1, 0.0]) == 0
    assert cell_of(diagram, [-0.1, 0.0]) == 1


def test_voronoi_map_weight_shifts_boundary():
    # Cell boundary solves ||x-p||^2 - w_p = ||x-q||^2 - w_q: for sites +-e1
    # the plane sits at x1 = (w_q - w_p) / 4 (q = -e1 relative to p = e1).
    diagram = PowerDiagram(TWO_SITES, np.array([0.0, 0.5]), GaussianReference(2))
    boundary = (0.5 - 0.0) / 4.0
    assert cell_of(diagram, [boundary + 0.01, 0.0]) == 0
    assert cell_of(diagram, [boundary - 0.01, 0.0]) == 1
    # x = (0.1, 0) lies left of the shifted boundary 0.125.
    assert cell_of(diagram, [0.1, 0.0]) == 1


def test_voronoi_map_tie_takes_lowest_index():
    diagram = PowerDiagram(TWO_SITES, np.zeros(2), GaussianReference(2))
    assert cell_of(diagram, [0.0, 0.3]) == 0


def test_assign_cells_matches_pointwise_map():
    rng = np.random.default_rng(0)
    sites = rng.normal(size=(4, 2))
    weights = rng.normal(size=4) * 0.3
    diagram = PowerDiagram(sites, weights, GaussianReference(2))
    points = rng.normal(size=(50, 2))
    bulk = assign_cells(sites, weights, points)
    assert all(bulk[i] == cell_of(diagram, p) for i, p in enumerate(points))


def test_assign_cells_agrees_with_broadcast_scores():
    # The GEMM kernel rounds differently from the broadcast difference, so
    # only points within rounding of a cell boundary may change cell.
    rng = np.random.default_rng(21)
    sites = rng.normal(size=(16, 3))
    weights = rng.normal(size=16) * 0.3
    points = rng.normal(size=(200_000, 3))
    cells = assign_cells(sites, weights, points)
    moved = np.flatnonzero(cells != np.argmin(broadcast_power_scores(sites, weights, points), axis=1))
    assert moved.size <= 3
    scores = broadcast_power_scores(sites, weights, points[moved])
    rows = np.arange(moved.size)
    low = scores.min(axis=1)
    assert np.all(scores[rows, cells[moved]] - low <= 1e-12 * (1.0 + np.abs(scores).max(axis=1)))


def nearest_two_instance(kind, n, count, dim):
    rng = np.random.default_rng([n, count, dim])
    if kind == "random":
        return rng.normal(size=(n, dim)), rng.normal(size=n) * 0.3, rng.normal(size=(count, dim))
    # Integer sites (repeats included) and weights with half-integer points:
    # every score is exact, and many points tie between two or more sites.
    sites = rng.integers(-2, 3, size=(n, dim)).astype(float)
    weights = rng.integers(-1, 2, size=n).astype(float)
    return sites, weights, rng.integers(-6, 7, size=(count, dim)) / 2.0


ROWS = semidiscrete.SCORE_ROWS


@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("n", [1, 2, 16, 255, 256])
@pytest.mark.parametrize("count", [1, ROWS - 1, ROWS, ROWS + 1])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_site_major_kernel_matches_row_argmin(kind, n, count, dim):
    # n = 255 and 256 are the most sites the uint8 and uint16 ranks hold.
    sites, weights, points = nearest_two_instance(kind, n, count, dim)
    scores = np.hstack([block for _, block in semidiscrete._power_scores(sites, weights, points)]).T
    best, second, gap = argmin_nearest_two(scores)
    got_best, got_second, got_gap = semidiscrete._nearest_two(sites, weights, points)
    assert np.array_equal(got_best, best)
    assert np.array_equal(got_second, second)
    assert np.array_equal(got_gap, gap)
    assert np.array_equal(assign_cells(sites, weights, points), best)
    if n == 1:
        assert np.all(second == 0) and np.all(gap == np.inf)
    elif kind == "grid" and n >= 16 and count > 1:
        assert np.any(gap == 0.0)
    # Against the points-by-sites GEMM: the same cells and runner-up cells.
    # Grid scores are exact, so they agree bit for bit.  OpenBLAS may round
    # the turned-around product differently (fused or separate multiply-add
    # per tile), so random scores agree to the rounding bound of a sum of
    # dim + 1 terms, taken twice.
    reference = row_major_power_scores(sites, weights, points, ROWS)
    ref_best, ref_second, _ = argmin_nearest_two(reference)
    assert np.array_equal(ref_best, best)
    assert np.array_equal(ref_second, second)
    if kind == "grid":
        assert np.array_equal(reference, scores)
    else:
        terms = np.abs((sites**2).sum(axis=1) - weights) + 2.0 * np.abs(points) @ np.abs(sites).T
        bound = (dim + 1) * np.finfo(float).eps * terms
        assert np.all(np.abs(reference - scores) <= bound)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_points_and_weights_are_rejected():
    points = np.zeros((5, 2))
    for bad in (np.nan, np.inf, -np.inf):
        points[3, 1] = bad
        with pytest.raises(ValueError):
            assign_cells(TWO_SITES, np.zeros(2), points)
    with pytest.raises(ValueError):
        assign_cells(TWO_SITES, np.array([0.0, np.nan]), np.zeros((5, 2)))
    # Finite coordinates whose squares overflow have no finite score either.
    with pytest.raises(ValueError):
        assign_cells(TWO_SITES * 1e200, np.zeros(2), np.full((5, 2), 1e200))


@pytest.mark.parametrize("shape", [(0, 2), (4,), (4, 3), (2, 4, 2)])
def test_assign_cells_rejects_misshapen_points(shape):
    with pytest.raises(ValueError):
        assign_cells(TWO_SITES, np.zeros(2), np.zeros(shape))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("x", [[np.nan, 0.0], [0.0, np.inf], [0.0, 0.0, 0.0], [1.0], []])
def test_voronoi_map_rejects_bad_points(x):
    diagram = PowerDiagram(TWO_SITES, np.zeros(2), GaussianReference(2))
    with pytest.raises(ValueError):
        cell_of(diagram, x)


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_power_cells_memory_is_bounded():
    # 16 sites and 200k samples in 3-d: an (S, n, d) broadcast temporary
    # alone takes 77 MB; the chunked kernel keeps the peak near the samples.
    rng = np.random.default_rng(22)
    box = BoxReference(lower=np.zeros(3), upper=np.ones(3))
    sites = box.sample(rng, 16)
    targets = np.full(16, 1.0 / 16.0)
    assert traced_peak_mb(lambda: adapt_weights(sites, targets, box, 200_000, seed=23)) < 32.0
    points = box.sample(rng, 200_000)
    assert traced_peak_mb(lambda: assign_cells(sites, np.zeros(16), points)) < 32.0


# --- weight adaptation -------------------------------------------------------


def count_mass_evaluations(monkeypatch):
    """Record the number of points each score-kernel call scores."""
    calls = []
    kernel = semidiscrete._power_scores

    def counted(sites, weights, points):
        calls.append(points.shape[0])
        return kernel(sites, weights, points)

    monkeypatch.setattr(semidiscrete, "_power_scores", counted)
    return calls


def test_newton_adapts_spread_sites_in_few_evaluations(monkeypatch):
    rng = np.random.default_rng(24)
    box = BoxReference(lower=[0.0, 0.0], upper=[1.0, 1.0])
    sites = spread_sites(rng, box, 16)
    targets = rng.dirichlet(np.full(16, 5.0))
    calls = count_mass_evaluations(monkeypatch)
    coupling = adapt_weights(sites, targets, box, 50_000, seed=25)
    assert np.abs(coupling.achieved_masses - coupling.target_weights).max() <= 1e-3
    assert len(calls) <= 20


def test_ascent_takes_over_when_newton_rejects_its_first_step(monkeypatch):
    # At w = 0 the cell whose target is largest holds 6 of 20k samples, so
    # the first Newton step overshoots: no fraction of it down to
    # MIN_NEWTON_STEP lowers the max mass error and keeps every cell above
    # the mass floor.
    # The ascent then starts from w = 0 and must still meet the tolerance.
    rng = np.random.default_rng(138)
    gaussian = GaussianReference(2)
    sites = spread_sites(rng, gaussian, 8)
    targets = rng.dirichlet(np.ones(8))
    starts = []
    ascent = semidiscrete._harmonic_ascent

    def spied(fit, w, *args):
        starts.append((w.copy(), fit.evaluations))
        return ascent(fit, w, *args)

    monkeypatch.setattr(semidiscrete, "_harmonic_ascent", spied)
    coupling = adapt_weights(sites, targets, gaussian, 20_000, seed=138)
    trials = int(np.log2(1.0 / semidiscrete.MIN_NEWTON_STEP)) + 1
    assert len(starts) == 1
    assert np.all(starts[0][0] == 0.0) and starts[0][1] == 1 + trials
    assert np.abs(coupling.achieved_masses - coupling.target_weights).max() <= 1e-3


def test_coarse_level_leaves_at_most_two_full_set_evaluations(monkeypatch):
    # Fails without the coarse level, which scores the full set 4 times here.
    rng = np.random.default_rng(31)
    box = BoxReference(lower=np.zeros(3), upper=np.ones(3))
    sites = spread_sites(rng, box, 16)
    targets = rng.dirichlet(np.full(16, 5.0))
    calls = count_mass_evaluations(monkeypatch)
    coupling = adapt_weights(sites, targets, box, 100_000, seed=32)
    assert np.abs(coupling.achieved_masses - coupling.target_weights).max() <= 1e-3
    assert calls.count(100_000) <= 2
    assert set(calls) == {100_000 // semidiscrete.COARSE_FACTOR, 100_000}


def single_level(monkeypatch, *args, **kwargs):
    """``adapt_weights`` with the coarse level switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(semidiscrete, "COARSE_MIN_SAMPLES", 10**9)
        return adapt_weights(*args, **kwargs)


def spread_instance(seed, n=8):
    rng = np.random.default_rng(seed)
    box = BoxReference(lower=[0.0, 0.0], upper=[1.0, 1.0])
    return spread_sites(rng, box, n), rng.dirichlet(np.full(n, 5.0)), box


@pytest.mark.parametrize("count", [20_000, 39_999])
def test_small_sample_sets_skip_the_coarse_level(monkeypatch, count):
    sites, targets, box = spread_instance(33)
    reference = single_level(monkeypatch, sites, targets, box, count, seed=34)
    calls = count_mass_evaluations(monkeypatch)
    coupling = adapt_weights(sites, targets, box, count, seed=34)
    assert set(calls) == {count}
    assert np.array_equal(coupling.diagram.weights, reference.diagram.weights)
    assert np.array_equal(coupling.sample_cells, reference.sample_cells)


def test_coarse_level_starts_at_forty_thousand_samples(monkeypatch):
    sites, targets, box = spread_instance(33)
    calls = count_mass_evaluations(monkeypatch)
    coupling = adapt_weights(sites, targets, box, 40_000, seed=34)
    assert calls[0] == semidiscrete.COARSE_MIN_SAMPLES
    assert np.abs(coupling.achieved_masses - coupling.target_weights).max() <= 1e-3


def test_failed_coarse_level_restarts_the_full_set_from_zero(monkeypatch):
    sites, targets, box = spread_instance(35, n=16)
    reference = single_level(monkeypatch, sites, targets, box, 80_000, seed=36)
    starts = []
    newton = semidiscrete._newton

    def coarse_fails(fit, adapt_tol, w):
        starts.append((fit.samples.shape[0], w.copy()))
        found = newton(fit, adapt_tol, w)
        return None if fit.samples.shape[0] < 80_000 else found

    monkeypatch.setattr(semidiscrete, "_newton", coarse_fails)
    coupling = adapt_weights(sites, targets, box, 80_000, seed=36)
    assert [count for count, _ in starts] == [10_000, 80_000]
    assert np.all(starts[1][1] == 0.0)
    assert np.abs(coupling.achieved_masses - coupling.target_weights).max() <= 1e-3
    assert np.array_equal(coupling.diagram.weights, reference.diagram.weights)


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 40])
def test_max_iter_bounds_coarse_and_fine_evaluations(monkeypatch, budget):
    # 40k samples cannot realize masses of 1/3 exactly, so the tolerance is
    # unreachable on either level; the best point is measured on all samples.
    monkeypatch.setattr(semidiscrete, "MAX_ITER", budget)
    calls = count_mass_evaluations(monkeypatch)
    with pytest.raises(NumericError) as info:
        adapt_weights(TWO_SITES, [1.0 / 3.0, 2.0 / 3.0], GaussianReference(2), 40_000, seed=6,
                      adapt_tol=1e-9)
    assert len(calls) == budget
    assert 40_000 in calls
    samples = GaussianReference(2).sample(np.random.default_rng(6), 40_000)
    cells = assign_cells(TWO_SITES, info.value.best_weights, samples)
    assert np.array_equal(np.bincount(cells, minlength=2) / 40_000, info.value.best_masses)


def two_cliques(n, split):
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[:split, :split] = True
    adjacency[split:, split:] = True
    np.fill_diagonal(adjacency, False)
    return adjacency


@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 2**32 - 1))
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    return upper | upper.T


@given(symmetric_graphs())
@example(two_cliques(7, 6))  # vertex 6 isolated
@example(two_cliques(12, 5))  # two components
@example(np.ones((9, 9), dtype=bool))  # complete graph
@example(np.zeros((1, 1), dtype=bool))  # one vertex
def test_connectivity_check_agrees_with_scipy(adjacency):
    from scipy.sparse.csgraph import connected_components

    expected = connected_components(adjacency, directed=False)[0] == 1
    assert semidiscrete._is_connected(adjacency) == expected


def test_single_site_is_trivial():
    coupling = adapt_weights(np.array([[0.5, -0.5]]), [1.0], GaussianReference(2), 1000, seed=1)
    assert coupling.achieved_masses[0] == 1.0
    assert coupling.diagram.weights[0] == 0.0


def test_symmetric_pair_has_equal_weights():
    coupling = adapt_weights(TWO_SITES, [0.5, 0.5], GaussianReference(2), 100_000, seed=2)
    assert abs(coupling.achieved_masses[0] - 0.5) <= 1e-3
    assert abs(coupling.diagram.weights[1]) <= 0.05


def test_symmetric_square_uniform_targets():
    sites = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    coupling = adapt_weights(sites, np.full(4, 0.25), GaussianReference(2), 100_000, seed=3)
    assert np.abs(coupling.achieved_masses - 0.25).max() <= 1e-3
    assert np.abs(coupling.diagram.weights).max() <= 0.08


def test_gaussian_quartile_matches_cdf_oracle():
    coupling = adapt_weights(TWO_SITES, [0.75, 0.25], GaussianReference(2), 120_000, seed=4)
    assert np.abs(coupling.achieved_masses - [0.75, 0.25]).max() <= 1e-3
    # True mass of the +e1 cell under the reference: P(X1 >= (w2 - w1)/4).
    boundary = (coupling.diagram.weights[1] - coupling.diagram.weights[0]) / 4.0
    true_mass = 1.0 - gaussian_cdf(boundary)
    assert abs(true_mass - 0.75) <= 8e-3
    assert abs(boundary - (-0.6744897501960817)) <= 0.05


def test_box_reference_boundary_oracle():
    # Uniform box [0,1]^2, sites on the horizontal axis: the separating plane
    # sits at x1 = 0.5 + (w_p - w_q), and uniform mass left of tau is tau.
    sites = np.array([[0.25, 0.5], [0.75, 0.5]])
    box = BoxReference(lower=[0.0, 0.0], upper=[1.0, 1.0])
    coupling = adapt_weights(sites, [0.3, 0.7], box, 120_000, seed=5)
    assert np.abs(coupling.achieved_masses - [0.3, 0.7]).max() <= 1e-3
    w = coupling.diagram.weights
    boundary = 0.5 + (w[0] - w[1])
    assert abs(boundary - 0.3) <= 8e-3


def test_adapt_input_validation():
    ref = GaussianReference(2)
    with pytest.raises(ValueError, match="pairwise distinct"):
        adapt_weights(np.array([[1.0, 0.0], [1.0, 0.0]]), [0.5, 0.5], ref, 100)
    with pytest.raises(ValueError, match="target weights must be positive"):
        adapt_weights(TWO_SITES, [0.0, 1.0], ref, 100)
    with pytest.raises(ValueError, match="non-finite"):
        adapt_weights(np.array([[1.0, np.nan], [0.0, 1.0]]), [0.5, 0.5], ref, 100)
    with pytest.raises(ValueError):
        adapt_weights(TWO_SITES, [0.7, 0.2], ref, 100)
    with pytest.raises(ValueError):
        adapt_weights(TWO_SITES, [1.2, -0.2], ref, 100)
    with pytest.raises(ValueError):
        adapt_weights(np.array([[1.0], [-1.0]]), [0.5, 0.5], ref, 100)
    with pytest.raises(ValueError):
        GaussianReference(4)
    with pytest.raises(ValueError):
        BoxReference(lower=[0.0, 1.0], upper=[1.0, 0.5])


def test_adapt_targets_are_renormalised_as_a_discrete_measure():
    # Targets within WEIGHT_SUM_TOL of 1 are renormalised as DiscreteMeasure
    # does, bit for bit.
    sites = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
    targets = np.array([0.2, 0.3, 0.5]) * (1.0 + 5e-7)
    coupling = adapt_weights(sites, targets, GaussianReference(2), 20_000, seed=7)
    want = DiscreteMeasure(atoms=sites, weights=targets).weights
    assert np.array_equal(coupling.target_weights, want)


def test_nonconvergence_carries_best_weights(monkeypatch):
    # 2000 samples cannot realize masses of 1/3 exactly, so a 1e-9 tolerance
    # is unreachable.  MAX_ITER bounds every mass evaluation, Newton's trial
    # steps included.
    monkeypatch.setattr(semidiscrete, "MAX_ITER", 40)
    calls = count_mass_evaluations(monkeypatch)
    with pytest.raises(NumericError) as info:
        adapt_weights(TWO_SITES, [1.0 / 3.0, 2.0 / 3.0], GaussianReference(2), 2000, seed=6,
                      adapt_tol=1e-9)
    assert len(calls) == 40
    assert info.value.best_weights.shape == (2,)
    assert info.value.best_masses.shape == (2,)
    samples = GaussianReference(2).sample(np.random.default_rng(6), 2000)
    cells = assign_cells(TWO_SITES, info.value.best_weights, samples)
    assert np.array_equal(np.bincount(cells, minlength=2) / 2000, info.value.best_masses)


def test_gradient_matches_finite_difference():
    # Central difference of the dual objective on independent sample sets,
    # compared against the analytic gradient target - mass within three
    # Monte Carlo standard errors.
    sites = TWO_SITES
    targets = np.array([0.6, 0.4])
    weights = np.array([0.0, -0.8])
    step = 0.25
    count = 100_000
    rng = np.random.default_rng(7)
    ref = GaussianReference(2)

    for coord in (0, 1):
        shift = np.zeros(2)
        shift[coord] = step
        pts_plus, pts_minus, pts_mass = (ref.sample(rng, count) for _ in range(3))
        up = broadcast_power_scores(sites, weights + shift, pts_plus).min(axis=1)
        down = broadcast_power_scores(sites, weights - shift, pts_minus).min(axis=1)
        f_plus = targets @ (weights + shift) + up.mean()
        f_minus = targets @ (weights - shift) + down.mean()
        fd = (f_plus - f_minus) / (2.0 * step)
        cells = assign_cells(sites, weights, pts_mass)
        mass = np.bincount(cells, minlength=2) / count
        grad = targets[coord] - mass[coord]
        se_fd = math.sqrt(up.var() / count + down.var() / count) / (2.0 * step)
        se_mass = math.sqrt(mass[coord] * (1.0 - mass[coord]) / count)
        assert abs(fd - grad) <= 3.0 * math.sqrt(se_fd**2 + se_mass**2) + 0.05 * step


def test_mass_monotone_in_own_weight():
    rng = np.random.default_rng(9)
    sites = rng.normal(size=(3, 2))
    pts = GaussianReference(2).sample(rng, 50_000)
    previous = -1.0
    for bump in np.linspace(-1.0, 1.0, 9):
        weights = np.array([0.0, bump, 0.2])
        mass = np.bincount(assign_cells(sites, weights, pts), minlength=3)[1] / 50_000
        assert mass >= previous - 1e-12
        previous = mass


# --- analysis / synthesis ----------------------------------------------------


def small_coupling(seed=10, count=40_000):
    sites = np.array([[1.0, 0.0], [-0.3, 1.0], [-0.7, -1.0]])
    return adapt_weights(sites, [0.4, 0.35, 0.25], GaussianReference(2), count, seed=seed)


def test_analysis_zero_vector():
    coupling = small_coupling()
    f = analysis(np.zeros(2), coupling)
    assert np.all(f.values == 0.0)


def test_analysis_orthonormal_table_gives_indicators():
    coupling = adapt_weights(np.eye(2), [0.5, 0.5], GaussianReference(2), 20_000, seed=11)
    tagged = with_site_map(coupling, np.eye(2))
    f = analysis(np.array([1.0, 0.0]), tagged)
    assert set(np.unique(f.values)) <= {0.0, 1.0}
    assert np.allclose(f.values, (tagged.sample_cells == 0).astype(float))


def test_single_cell_constant_coefficient():
    coupling = adapt_weights(np.array([[0.4, -0.2]]), [1.0], GaussianReference(2), 5000, seed=12)
    f = analysis(np.array([2.0, 1.0]), coupling)
    expected = 2.0 * 0.4 + 1.0 * (-0.2)
    assert np.allclose(f.values, expected)


@pytest.mark.parametrize("empty_cell", [False, True])
def test_per_cell_analysis_and_synthesis_match_gathered_tables(empty_cell):
    coupling = small_coupling(seed=21, count=30_000)
    rng = np.random.default_rng(22)
    if empty_cell:
        # Cell 2 holds no samples: its table row must not contribute.
        cells = np.where(coupling.sample_cells == 2, 0, coupling.sample_cells)
        coupling = dataclasses.replace(coupling, sample_cells=cells)
    tagged = with_site_map(coupling, rng.normal(size=(3, 4)) * [1.0, 10.0, 1e-3, 1e4])
    for _ in range(3):
        x = rng.normal(size=4) * 100.0
        values = analysis(x, tagged).values
        expected = gathered_analysis(x, tagged)
        assert np.abs(values - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())
        # Arbitrary coefficients, not only those analysis produces.
        f = FunctionSamples(values=rng.normal(size=coupling.sample_count) * 1e3,
                            samples=tagged.samples)
        out = synthesis(f, tagged)
        expected = gathered_synthesis(f.values, tagged)
        assert np.abs(out - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_synthesis_zero_function():
    coupling = small_coupling()
    f = analysis(np.zeros(2), coupling)
    assert np.allclose(synthesis(f, coupling), np.zeros(2))


def test_reconstruction_with_weighted_dual_table():
    coupling = small_coupling(count=60_000)
    frame = coupling.diagram.sites
    weighted = frame.T @ (coupling.target_weights[:, None] * frame)
    dual = np.linalg.solve(weighted, frame.T).T
    ana = with_site_map(coupling, frame)
    syn = with_site_map(coupling, dual)
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.normal(size=2)
        x /= np.linalg.norm(x)
        err = np.linalg.norm(reconstruct(x, ana, syn) - x)
        assert err <= 5e-2


def test_reconstruction_error_shrinks_with_samples():
    coupling = small_coupling(count=60_000)
    frame = coupling.diagram.sites
    weighted = frame.T @ (coupling.target_weights[:, None] * frame)
    dual = np.linalg.solve(weighted, frame.T).T
    x = np.array([0.6, -0.8])

    def mean_error(sample_count):
        errs = []
        for seed in range(5):
            fresh = resample(coupling, sample_count, seed=100 + seed)
            err = np.linalg.norm(reconstruct(x, with_site_map(fresh, frame),
                                             with_site_map(fresh, dual)) - x)
            errs.append(err)
        return np.mean(errs)

    assert mean_error(400) > mean_error(25_600)


def test_cell_dual_table_gives_identity_cross_moment():
    # Synthesis table chosen dual to the observed cell barycenters makes the
    # coupling's cross second moment the identity: exactly on the adaptation
    # samples, within Monte Carlo error on fresh ones.
    coupling = small_coupling(count=80_000)
    # Mass-weighted cell means (1/S) sum of the samples in each cell.
    bary = np.zeros(coupling.diagram.sites.shape)
    np.add.at(bary, coupling.sample_cells, coupling.samples)
    bary /= coupling.sample_count
    gram = bary.T @ bary
    dual_table = np.linalg.solve(gram, bary.T).T
    tagged = with_site_map(coupling, dual_table)
    assert np.abs(cross_moment(tagged) - np.eye(2)).max() <= 1e-10
    fresh = GaussianReference(2).sample(np.random.default_rng(14), 200_000)
    assert np.abs(cross_moment(tagged, fresh) - np.eye(2)).max() <= 0.05


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", ["nan", "inf", "dimension", "flat", "empty"])
def test_cross_moment_rejects_bad_points(bad):
    coupling = small_coupling(seed=20, count=5_000)
    points = GaussianReference(2).sample(np.random.default_rng(21), 100)
    points = {
        "nan": np.where(np.arange(100)[:, None] == 7, np.nan, points),
        "inf": np.where(np.arange(100)[:, None] == 7, np.inf, points),
        "dimension": np.hstack([points, points[:, :1]]),
        "flat": points[:, 0],
        "empty": points[:0],
    }[bad]
    with pytest.raises(ValueError):
        cross_moment(coupling, points)


def test_sample_set_mismatch_rejected():
    coupling = small_coupling(seed=15, count=10_000)
    other = resample(coupling, 10_000, seed=16)
    f = analysis(np.array([1.0, 0.0]), coupling)
    with pytest.raises(ValueError):
        synthesis(f, other)
    short = resample(coupling, 5_000, seed=17)
    with pytest.raises(ValueError):
        synthesis(f, short)


def test_with_site_map_validation():
    coupling = small_coupling(seed=18, count=5_000)
    with pytest.raises(ValueError):
        with_site_map(coupling, np.ones((2, 2)))


def test_resample_is_deterministic():
    coupling = small_coupling(seed=19, count=5_000)
    a = resample(coupling, 2_000, seed=5)
    b = resample(coupling, 2_000, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.achieved_masses, b.achieved_masses)


def test_coupling_payload_shape():
    coupling = small_coupling(seed=20, count=5_000)
    payload = coupling_to_payload(coupling)
    assert payload["samples"] == 5_000
    assert payload["seed"] == 20
    assert len(payload["sites"]) == 3
    assert abs(sum(payload["achieved"]) - 1.0) <= 1e-9
