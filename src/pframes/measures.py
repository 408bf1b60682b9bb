"""Measure types and frame-theoretic functionals.

A probability measure with finite second moment is a probabilistic frame
exactly when its frame operator (the second-moment matrix) is positive
definite, equivalently when the linear span of its support is the whole
space.  This module provides the two measure types used throughout
(finitely supported, and Gaussian), the frame operator, optimal frame
bounds, and linear pushforwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg

Array = np.ndarray

# Constructors renormalize weights when |sum - 1| <= this; reject beyond.
WEIGHT_SUM_TOL = 1e-6
# Weights that differ atom by atom by at most this count as equal: uniform
# measures take the assignment route, and equal-weight pairs the diagonal
# coupling.
EQUAL_WEIGHT_TOL = 1e-12


def pd_threshold(lambda_max: float | Array) -> float | Array:
    """Scale-aware cutoff below which a frame operator counts as singular;
    elementwise on an array of largest eigenvalues."""
    return 1e-10 * np.maximum(1.0, lambda_max)


def weights_equal(weights: Array, other: float | Array) -> bool:
    """Whether ``weights`` match ``other`` (an array, or one value for every
    atom) atom by atom to ``EQUAL_WEIGHT_TOL``."""
    return bool(float(np.abs(weights - other).max()) <= EQUAL_WEIGHT_TOL)


def _readonly(a: Array) -> Array:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure: atoms (N, d) and weights (N,).

    Weights must be nonnegative and sum to one (small rounding from
    file-sourced data is renormalized away).  Duplicate atoms are legal.
    """

    atoms: Array
    weights: Array

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] < 1:
            raise ValueError(f"atoms must be a nonempty (N, d) array, got shape {atoms.shape}")
        if weights.shape != (atoms.shape[0],):
            raise ValueError(
                f"weights must have length {atoms.shape[0]}, got shape {weights.shape}"
            )
        if not np.all(np.isfinite(atoms)):
            raise ValueError("atoms contain non-finite coordinates")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights contain non-finite entries")
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 (got {total})")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "weights", _readonly(weights / total))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def count(self) -> int:
        return self.atoms.shape[0]


def merge_duplicate_atoms(measure: DiscreteMeasure) -> DiscreteMeasure:
    """Combine equal atoms (``-0.0`` equals ``0.0``), summing their weights.

    Distinct atoms keep their first-occurrence order; a measure without
    duplicates is returned as is.  One stable ``lexsort`` over the columns
    brings equal atoms together, earliest first.
    """
    order = np.lexsort(measure.atoms.T)
    ranked = measure.atoms[order]
    starts = np.concatenate([[True], (ranked[1:] != ranked[:-1]).any(axis=1)])
    if starts.all():
        return measure
    first = order[starts]
    relabel = np.empty_like(first)
    relabel[np.argsort(first)] = np.arange(first.size)
    labels = np.empty_like(order)
    labels[order] = relabel[np.cumsum(starts) - 1]
    weights = np.zeros(first.size)
    np.add.at(weights, labels, measure.weights)
    return DiscreteMeasure(atoms=measure.atoms[np.sort(first)], weights=weights)


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian measure: mean (d,) and symmetric PSD covariance (d, d)."""

    mean: Array
    covariance: Array

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1 or mean.shape[0] < 1:
            raise ValueError(f"mean must be a nonempty vector, got shape {mean.shape}")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError(f"covariance must be {mean.shape[0]}x{mean.shape[0]}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean/covariance contain non-finite entries")
        linalg.require_symmetric(cov, "covariance")
        w = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        if w[0] < -pd_threshold(float(w[-1])):
            raise ValueError(f"covariance is not PSD: lambda_min={w[0]:.3e}")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "covariance", _readonly(0.5 * (cov + cov.T)))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


Measure = DiscreteMeasure | GaussianMeasure


@dataclass(frozen=True)
class FrameReport:
    """Optimal frame bounds, second moment, and the frame predicate."""

    lower_bound: float
    upper_bound: float
    second_moment: float
    is_frame: bool


def frame_operator(measure: Measure) -> Array:
    """Second-moment matrix of the measure (symmetric PSD, d x d)."""
    if isinstance(measure, DiscreteMeasure):
        return measure.atoms.T @ (measure.weights[:, None] * measure.atoms)
    if isinstance(measure, GaussianMeasure):
        return measure.covariance + np.outer(measure.mean, measure.mean)
    raise ValueError(f"unsupported measure type: {type(measure).__name__}")


def second_moment(measure: Measure) -> float:
    """Expected squared norm; equals the trace of the frame operator."""
    if isinstance(measure, DiscreteMeasure):
        return float(measure.weights @ (measure.atoms**2).sum(axis=1))
    if isinstance(measure, GaussianMeasure):
        return float(np.trace(measure.covariance) + measure.mean @ measure.mean)
    raise ValueError(f"unsupported measure type: {type(measure).__name__}")


def frame_report(measure: Measure) -> FrameReport:
    """Frame bounds are the extreme eigenvalues of the frame operator."""
    spec = linalg.sym_eig(frame_operator(measure))
    lo = float(spec.eigenvalues[0].real)
    hi = float(spec.eigenvalues[-1].real)
    return FrameReport(
        lower_bound=max(lo, 0.0),
        upper_bound=hi,
        second_moment=second_moment(measure),
        is_frame=bool(lo > pd_threshold(hi)),
    )


def pushforward_linear(measure: DiscreteMeasure, transform) -> DiscreteMeasure:
    """Image measure under ``x -> T x``; atoms move, weights stay."""
    t = linalg.as_matrix(transform, "transform")
    if t.shape != (measure.dim, measure.dim):
        raise ValueError(f"transform must be {measure.dim}x{measure.dim}, got {t.shape}")
    return DiscreteMeasure(atoms=measure.atoms @ t.T, weights=measure.weights)


# --- JSON interchange -------------------------------------------------------
#
# Fixed field names for CLI interop:
#   discrete: {"dim": d, "atoms": [[...], ...], "weights": [...]}
#   gaussian: {"mean": [...], "cov": [[...], ...]}


def measure_to_payload(measure: Measure) -> dict:
    if isinstance(measure, DiscreteMeasure):
        return {
            "dim": measure.dim,
            "atoms": measure.atoms.tolist(),
            "weights": measure.weights.tolist(),
        }
    if isinstance(measure, GaussianMeasure):
        return {"mean": measure.mean.tolist(), "cov": measure.covariance.tolist()}
    raise ValueError(f"unsupported measure type: {type(measure).__name__}")


def measure_from_payload(payload: dict) -> Measure:
    if not isinstance(payload, dict):
        raise ValueError("measure payload must be a JSON object")
    if "atoms" in payload:
        for key in ("dim", "atoms", "weights"):
            if key not in payload:
                raise ValueError(f"discrete measure payload missing '{key}'")
        measure = DiscreteMeasure(atoms=payload["atoms"], weights=payload["weights"])
        if int(payload["dim"]) != measure.dim:
            raise ValueError(
                f"declared dim {payload['dim']} does not match atoms of dim {measure.dim}"
            )
        return measure
    if "mean" in payload:
        if "cov" not in payload:
            raise ValueError("gaussian measure payload missing 'cov'")
        return GaussianMeasure(mean=payload["mean"], covariance=payload["cov"])
    raise ValueError("measure payload must contain either 'atoms' or 'mean'")


def load_measure(path) -> Measure:
    with open(path, "r", encoding="utf-8") as fh:
        return measure_from_payload(json.load(fh))
