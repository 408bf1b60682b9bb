"""Semi-discrete couplings through power (weighted Voronoi) diagrams.

An absolutely continuous reference measure is coupled to a discrete target
by partitioning space into power cells ``Vor_P^w(p) = {x : ||x-p||^2 - w(p)
<= ||x-q||^2 - w(q) for all q}`` and transporting each cell to its site.
Weights are *adapted* when every cell carries exactly its site's target
mass, i.e. at a maximiser of the concave semi-discrete dual

    F(w) = sum_p lambda_p w(p) + E[min_p(||X - p||^2 - w(p))],

whose p-th gradient component is ``lambda_p - mass_p(w)``.  They are found
by damped Newton steps on the cell masses, whose Jacobian is the Monte
Carlo graph Laplacian of the cell boundaries (Kitagawa, Merigot and
Thibert, JEMS 2019), with harmonic gradient ascent on ``F`` as the
fallback.  Newton runs coarse to fine (Merigot, Computer Graphics Forum
2011): on sample sets of at least ``COARSE_FACTOR * COARSE_MIN_SAMPLES``
it first adapts the weights on the first ``1/COARSE_FACTOR`` of the
samples, and the full set starts from them.  Cell masses are Monte Carlo
estimates on one fixed sample set (common random numbers), so a run is
deterministic given its seed.  Every power score comes from one chunked GEMM
kernel, ``_power_scores``, whose memory is linear in the number of sites.
Its blocks hold sites down and points across, so a point's cell comes from
elementwise minima over the rows of sites (``_lowest``), not from an argmin
along a short axis per point.  The resulting couplings realize probabilistic
analysis and synthesis: coefficient functions are sampled over
the reference and synthesized back by cell-indexed frame tables.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .measures import DiscreteMeasure

Array = np.ndarray

DEFAULT_SAMPLES = 200_000
ADAPT_TOL = 1e-3
# Mass evaluations per adaptation, on both levels together.
MAX_ITER = 10_000
# Step schedule scale*damp/(damp + k): harmonic decay from a travel-scale
# first step; the dual is concave, so no line search is needed at this scale.
STEP_DAMP = 50.0
# Points per block of the score kernel: a block holds n * SCORE_ROWS scores.
SCORE_ROWS = 4096
# Share of the samples, those closest to a cell boundary by score gap, that
# estimate the mass Jacobian.
BOUNDARY_SHARE = 0.05
# The coarse level is the first 1/COARSE_FACTOR of the samples; a larger
# factor makes coarse evaluations cheaper but their weights a worse start.
COARSE_FACTOR = 8
# Fewest samples on the coarse level, so that its boundary band still holds
# enough samples to estimate the mass Jacobian; smaller sets skip the level.
COARSE_MIN_SAMPLES = 5_000
# A Newton step is halved until it lowers the max mass error; below this
# fraction of the full step the ascent takes over.
MIN_NEWTON_STEP = 1.0 / 64.0


@dataclass(frozen=True)
class GaussianReference:
    """Standard Gaussian reference measure on R^d (d <= 3)."""

    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError(f"reference dimension must be 1..3, got {self.dim}")

    def sample(self, rng: np.random.Generator, count: int) -> Array:
        return rng.standard_normal((count, self.dim))


@dataclass(frozen=True)
class BoxReference:
    """Uniform reference on an axis-aligned box (d <= 3).

    Support-restricted: unlike the Gaussian it does not cover all of R^d, so
    it is offered for analytic oracles on bounded geometry.
    """

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or not 1 <= lo.shape[0] <= 3:
            raise ValueError("box bounds must be matching vectors of dimension 1..3")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(hi > lo)):
            raise ValueError("box must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def sample(self, rng: np.random.Generator, count: int) -> Array:
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))


Reference = GaussianReference | BoxReference


@dataclass(frozen=True)
class PowerDiagram:
    """Sites with weights over a reference measure; cells by minimal
    ``||x - p||^2 - w(p)``, ties to the lowest site index."""

    sites: Array
    weights: Array
    reference: Reference

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if sites.ndim != 2 or sites.shape[0] < 1:
            raise ValueError(f"sites must be a nonempty (n, d) array, got {sites.shape}")
        if weights.shape != (sites.shape[0],):
            raise ValueError("weights must have one entry per site")
        if not (np.all(np.isfinite(sites)) and np.all(np.isfinite(weights))):
            raise ValueError("sites/weights contain non-finite entries")
        if self.reference.dim != sites.shape[1]:
            raise ValueError("reference dimension does not match sites")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "weights", weights)


def _power_scores(sites: Array, weights: Array, points: Array):
    """Power scores ``||x - p||^2 - w(p) - ||x||^2`` in blocks of points.

    Yields ``(part, block)``, where ``block[p, i] = |p|^2 - w(p) - 2 p.x``
    for ``x = points[part][i]``: sites run down the block and points across
    it, one GEMM per ``SCORE_ROWS`` points, so memory stays
    ``O(SCORE_ROWS * n)``.  The dropped ``||x||^2`` is common to a column
    and does not move its minimum.  With sites down the block, the minimum
    over sites is an elementwise reduction of ``n`` contiguous rows; an
    argmin along a short last axis instead makes one inner numpy call per
    point, whose overhead dominates up to a few dozen sites.
    """
    offset = ((sites**2).sum(axis=1) - weights)[:, None]
    factor = -2.0 * sites
    for start in range(0, points.shape[0], SCORE_ROWS):
        part = slice(start, start + SCORE_ROWS)
        block = factor @ points[part].T
        block += offset
        yield part, block


def _lowest(block: Array) -> tuple[Array, Array]:
    """Each column's minimum and the lowest site index attaining it.

    The index is found without ``argmin``: site ``p`` gets rank ``n - p``,
    and the largest rank among a column's minima is its lowest site (the
    rule ``argmin`` follows on ties).  A column with a NaN score has no
    minimum and gets index ``n``, so callers must reject non-finite minima.
    """
    n = block.shape[0]
    rank = np.arange(n, 0, -1, dtype=np.min_scalar_type(n))[:, None]
    low = block.min(axis=0)
    return low, n - (rank * (block == low)).max(axis=0)


def assign_cells(sites: Array, weights: Array, points: Array) -> Array:
    """Cell index per point, ties to the lowest site index.

    Raises ``ValueError`` unless ``points`` is a nonempty ``(S, d)`` array in
    the sites' dimension whose power scores are all finite: a NaN score has
    no minimum to find, so non-finite points, weights or overflowing
    coordinates are rejected rather than given a cell.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] != sites.shape[1]:
        raise ValueError(
            f"points must be a nonempty (S, {sites.shape[1]}) array, got shape {points.shape}"
        )
    cells = np.empty(points.shape[0], dtype=np.intp)
    for part, block in _power_scores(sites, weights, points):
        low, cells[part] = _lowest(block)
        if not np.all(np.isfinite(low)):
            raise ValueError("points or weights give non-finite power scores")
    return cells


def _nearest_two(sites: Array, weights: Array, points: Array) -> tuple[Array, Array, Array]:
    """Best cell, second-best cell and the score gap between them, per point."""
    count = points.shape[0]
    best = np.empty(count, dtype=np.intp)
    second = np.empty(count, dtype=np.intp)
    gap = np.empty(count)
    for part, block in _power_scores(sites, weights, points):
        low, best[part] = _lowest(block)
        block[best[part], np.arange(block.shape[1])] = np.inf
        low_second, second[part] = _lowest(block)
        gap[part] = low_second - low
    return best, second, gap


@dataclass(frozen=True)
class SemiDiscreteCoupling:
    """Adapted power diagram plus the sample set realizing its masses.

    ``site_map`` is an index-aligned table (site i -> vector i) used by
    analysis/synthesis; it defaults to the sites themselves.
    """

    diagram: PowerDiagram
    target_weights: Array
    sample_count: int
    achieved_masses: Array
    samples: Array
    sample_cells: Array
    seed: int
    site_map: Array


@dataclass(frozen=True)
class FunctionSamples:
    """A scalar coefficient function sampled over a reference sample set."""

    values: Array
    samples: Array


def _validate_adapt_inputs(sites, target_weights, reference):
    """The target as a ``DiscreteMeasure``, plus the rules of adaptation."""
    target = DiscreteMeasure(atoms=sites, weights=target_weights)
    if np.any(target.weights <= 0.0):
        raise ValueError("target weights must be positive")
    if np.unique(target.atoms, axis=0).shape[0] != target.count:
        raise ValueError("sites must be pairwise distinct")
    if reference.dim != target.dim:
        raise ValueError("reference dimension does not match sites")
    return target.atoms, target.weights


class _MassFit:
    """Cell masses of candidate weights on one fixed sample set.

    Every evaluation counts against ``budget``; the weights with the smallest
    max mass error seen so far are kept with their masses.
    """

    def __init__(self, sites: Array, targets: Array, samples: Array, budget: int):
        self.sites = sites
        self.targets = targets
        self.samples = samples
        self.budget = budget
        self.evaluations = 0
        self.best_err = np.inf
        self.best_weights = np.zeros(targets.shape[0])
        self.best_masses = np.zeros(targets.shape[0])

    @property
    def spent(self) -> bool:
        return self.evaluations >= self.budget

    def _record(self, w: Array, cells: Array) -> tuple[Array, float]:
        self.evaluations += 1
        masses = np.bincount(cells, minlength=self.targets.shape[0]) / cells.shape[0]
        err = float(np.abs(self.targets - masses).max())
        if err < self.best_err:
            self.best_err, self.best_weights, self.best_masses = err, w, masses
        return masses, err

    def cells(self, w: Array) -> tuple[Array, Array, float]:
        cells = assign_cells(self.sites, w, self.samples)
        return (cells, *self._record(w, cells))

    def nearest_two(self, w: Array) -> tuple[Array, Array, Array, Array, float]:
        best, second, gap = _nearest_two(self.sites, w, self.samples)
        return (best, second, gap, *self._record(w, best))


def _is_connected(adjacency: Array) -> bool:
    """Whether the undirected graph of a symmetric boolean adjacency matrix
    is connected: breadth-first search from vertex 0, one frontier of
    boolean rows at a time (the empty graph counts as connected)."""
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[:1] = True
    frontier = reached
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    return bool(reached.all())


def _newton_direction(best: Array, second: Array, gap: Array, residual: Array) -> Array | None:
    """Solve ``L d = residual`` in the gauge ``d[0] = 0``, or ``None``.

    ``L`` is the Monte Carlo mass Jacobian, a graph Laplacian over the cell
    boundaries.  Raising ``w(q)`` by ``t`` moves into cell ``q`` the samples
    of a neighbouring cell ``p`` whose score gap to ``q`` is below ``t``, so
    the samples within a band ``h`` of the ``p``/``q`` boundary, divided by
    ``h``, estimate ``-dmass_p/dw(q)``; both sides of each boundary count.
    ``h`` is the gap below which the ``BOUNDARY_SHARE`` of samples lie.
    ``None`` when ``L`` is non-finite or singular, since no Newton step is
    defined there.  A Laplacian is singular in the gauge exactly when its
    graph, the cells joined by a boundary with samples in the band, is
    disconnected; ``_is_connected`` decides that by breadth-first search.
    """
    n = residual.shape[0]
    width = float(np.quantile(gap, BOUNDARY_SHARE))
    band = gap <= width
    counts = np.bincount(best[band] * n + second[band], minlength=n * n).reshape(n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = (counts + counts.T) / (2.0 * width * gap.shape[0])
    if not np.all(np.isfinite(rate)) or not _is_connected(rate > 0.0):
        return None
    laplacian = np.diag(rate.sum(axis=1)) - rate
    step = np.zeros(n)
    try:
        step[1:] = np.linalg.solve(laplacian[1:, 1:], residual[1:])
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def _newton(fit: _MassFit, adapt_tol: float, w: Array):
    """Damped Newton from ``w``: ``(w, cells, masses)`` on success.

    A step is accepted only when it strictly lowers the max mass error and
    keeps every cell mass at least half the smallest mass at ``w`` or target
    (Kitagawa, Merigot and Thibert's condition: the mass of an empty cell
    does not respond to small weight changes, so the Jacobian is singular
    there).  Otherwise the step is halved, down to ``MIN_NEWTON_STEP``.
    Returns ``None`` when no step is defined or accepted, or the budget runs
    out (also before the first evaluation); the current point is then
    ``fit.best_weights``.
    """
    if fit.spent:
        return None
    best, second, gap, masses, err = fit.nearest_two(w)
    floor = 0.5 * min(float(masses.min()), float(fit.targets.min()))
    while err > adapt_tol:
        direction = _newton_direction(best, second, gap, fit.targets - masses)
        if direction is None:
            return None
        fraction = 1.0
        while True:
            if fit.spent:
                return None
            trial = w + fraction * direction
            t_best, t_second, t_gap, t_masses, t_err = fit.nearest_two(trial)
            if t_err < err and t_masses.min() >= floor:
                break
            fraction /= 2.0
            if fraction < MIN_NEWTON_STEP:
                return None
        w, best, second, gap, masses, err = trial, t_best, t_second, t_gap, t_masses, t_err
    return w, best, masses


def _harmonic_ascent(fit: _MassFit, w: Array, adapt_tol: float):
    """Averaged gradient ascent on the dual from ``w``: ``(w, cells, masses)``
    once the max mass error reaches ``adapt_tol``, ``None`` when the budget
    runs out.

    Steps follow the ``scale * damp / (damp + k)`` schedule, with ``scale``
    the largest squared distance between sites; every 25th iteration also
    tries the running average of the iterates, and the gauge ``w[0] = 0`` is
    kept (the dual is invariant under a common shift).
    """
    pairwise = ((fit.sites[:, None, :] - fit.sites[None, :, :]) ** 2).sum(axis=2)
    scale = max(float(pairwise.max()), 1.0)
    running_sum = np.zeros_like(w)
    k = 0
    while not fit.spent:
        cells, masses, err = fit.cells(w)
        if err <= adapt_tol:
            return w, cells, masses
        running_sum += w
        if (k + 1) % 25 == 0 and not fit.spent:
            averaged = running_sum / (k + 1)
            averaged -= averaged[0]
            cells_a, masses_a, err_a = fit.cells(averaged)
            if err_a <= adapt_tol:
                return averaged, cells_a, masses_a
        w = w + (scale * STEP_DAMP / (STEP_DAMP + k)) * (fit.targets - masses)
        w -= w[0]
        k += 1
    return None


def adapt_weights(
    sites,
    target_weights,
    reference: Reference,
    sample_count: int = DEFAULT_SAMPLES,
    *,
    seed: int = 0,
    adapt_tol: float = ADAPT_TOL,
) -> SemiDiscreteCoupling:
    """Find power weights whose cell masses match the target weights.

    One sample set is drawn up front and every cell mass is counted on it.
    Damped Newton steps come first: the mass Jacobian is a Monte Carlo
    graph Laplacian over the samples nearest a cell boundary, solved in the
    gauge ``w[0] = 0``, and a step is halved until it strictly lowers the
    max mass error.  With at least ``COARSE_FACTOR * COARSE_MIN_SAMPLES``
    samples, Newton first runs from ``w = 0`` to ``adapt_tol`` on the first
    ``1/COARSE_FACTOR`` of them (a view, not a new draw), and Newton on the
    full set starts from the coarse weights, or from ``w = 0`` when the
    coarse level fails.  When the full-set Laplacian is singular or
    non-finite, or no step down to ``MIN_NEWTON_STEP`` is accepted, averaged
    harmonic gradient ascent on the dual continues from the best full-set
    point.  Terminates as soon as the max cell-mass error on the full set is
    at most ``adapt_tol``.  ``MAX_ITER``, read at call time, bounds the
    number of mass evaluations on both levels together, Newton's trial steps
    included, and keeps at least one for the full set; on non-convergence a
    ``NumericError`` is raised carrying the best weights seen on the full
    set (``best_weights``/``best_masses`` attributes).
    """
    sites, targets = _validate_adapt_inputs(sites, target_weights, reference)
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    samples = reference.sample(rng, sample_count)
    start = np.zeros(sites.shape[0])
    budget = MAX_ITER
    coarse_count = sample_count // COARSE_FACTOR
    if coarse_count >= COARSE_MIN_SAMPLES:
        # One evaluation is kept back: every result is measured on the full set.
        coarse = _MassFit(sites, targets, samples[:coarse_count], budget - 1)
        found = _newton(coarse, adapt_tol, start)
        if found is not None:
            start = found[0]
        budget -= coarse.evaluations
    fit = _MassFit(sites, targets, samples, budget)
    found = _newton(fit, adapt_tol, start) or _harmonic_ascent(fit, fit.best_weights, adapt_tol)
    if found is not None:
        w, cells, masses = found
        return SemiDiscreteCoupling(
            diagram=PowerDiagram(sites=sites, weights=w, reference=reference),
            target_weights=targets,
            sample_count=sample_count,
            achieved_masses=masses,
            samples=samples,
            sample_cells=cells,
            seed=seed,
            site_map=sites,
        )
    error = NumericError(
        f"weight adaptation did not reach tolerance {adapt_tol} in {MAX_ITER} "
        f"mass evaluations (best max error {fit.best_err:.3e})"
    )
    error.best_weights = fit.best_weights
    error.best_masses = fit.best_masses
    raise error


def with_site_map(coupling: SemiDiscreteCoupling, table) -> SemiDiscreteCoupling:
    """Attach a site-indexed frame table (site i -> vector i)."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] != coupling.diagram.sites.shape[0]:
        raise ValueError("site map must provide one vector per site")
    if not np.all(np.isfinite(table)):
        raise ValueError("site map contains non-finite entries")
    return dataclasses.replace(coupling, site_map=table)


def resample(coupling: SemiDiscreteCoupling, sample_count: int, seed: int) -> SemiDiscreteCoupling:
    """Same adapted diagram, fresh reference samples (for error studies)."""
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    samples = coupling.diagram.reference.sample(rng, sample_count)
    cells = assign_cells(coupling.diagram.sites, coupling.diagram.weights, samples)
    masses = np.bincount(cells, minlength=coupling.diagram.sites.shape[0]) / sample_count
    return dataclasses.replace(
        coupling,
        sample_count=sample_count,
        achieved_masses=masses,
        samples=samples,
        sample_cells=cells,
        seed=seed,
    )


def _require_same_samples(f: FunctionSamples, coupling: SemiDiscreteCoupling) -> None:
    if f.samples is coupling.samples:
        return
    if f.samples.shape != coupling.samples.shape or not np.array_equal(
        f.samples, coupling.samples
    ):
        raise ValueError("function samples were taken on a different sample set")


def analysis(x, coupling: SemiDiscreteCoupling) -> FunctionSamples:
    """Sampled coefficient function ``w -> <x, table[cell(w)]>``."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (coupling.site_map.shape[1],):
        raise ValueError(f"x must be a vector of dimension {coupling.site_map.shape[1]}")
    values = (coupling.site_map @ vec)[coupling.sample_cells]
    return FunctionSamples(values=values, samples=coupling.samples)


def synthesis(f: FunctionSamples, coupling: SemiDiscreteCoupling) -> Array:
    """Monte Carlo synthesis ``E[f(w) * table[cell(w)]]`` over the samples."""
    if f.values.shape != (coupling.sample_count,):
        raise ValueError("function samples do not match the coupling's sample count")
    _require_same_samples(f, coupling)
    per_cell = np.bincount(
        coupling.sample_cells, weights=f.values, minlength=coupling.site_map.shape[0]
    )
    return per_cell @ coupling.site_map / coupling.sample_count


def reconstruct(
    x, analysis_coupling: SemiDiscreteCoupling, synthesis_coupling: SemiDiscreteCoupling
) -> Array:
    """Synthesis applied to the analysis coefficients of ``x``."""
    return synthesis(analysis(x, analysis_coupling), synthesis_coupling)


def cross_moment(coupling: SemiDiscreteCoupling, points: Array | None = None) -> Array:
    """Monte Carlo ``E[x table[cell(x)]^T]`` for the cell-map coupling.

    With ``points`` given, evaluates on that fresh sample set instead of the
    coupling's own samples.
    """
    if points is None:
        pts, cells = coupling.samples, coupling.sample_cells
    else:
        pts = np.asarray(points, dtype=float)
        cells = assign_cells(coupling.diagram.sites, coupling.diagram.weights, pts)
    return pts.T @ coupling.site_map[cells] / pts.shape[0]


def coupling_to_payload(coupling: SemiDiscreteCoupling) -> dict:
    return {
        "sites": coupling.diagram.sites.tolist(),
        "weights": coupling.diagram.weights.tolist(),
        "targets": coupling.target_weights.tolist(),
        "achieved": coupling.achieved_masses.tolist(),
        "seed": coupling.seed,
        "samples": coupling.sample_count,
    }
