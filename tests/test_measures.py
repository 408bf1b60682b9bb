import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MERCEDES_BENZ, merge_by_unique, random_frame_measure, random_orthogonal
from pframes.measures import (
    DiscreteMeasure,
    GaussianMeasure,
    frame_operator,
    frame_report,
    measure_from_payload,
    merge_duplicate_atoms,
    measure_to_payload,
    pd_threshold,
    pushforward_linear,
    second_moment,
)


def uniform_basis(dim):
    return DiscreteMeasure(atoms=np.eye(dim), weights=np.full(dim, 1.0 / dim))


def test_frame_operator_uniform_basis():
    assert np.allclose(frame_operator(uniform_basis(2)), 0.5 * np.eye(2))


def test_frame_operator_mercedes_benz_is_tight():
    # Direct summation: (1/3) sum of the three rank-one outer products.
    expected = sum(np.outer(v, v) for v in MERCEDES_BENZ) / 3.0
    mb = DiscreteMeasure(atoms=MERCEDES_BENZ, weights=np.full(3, 1.0 / 3.0))
    assert np.allclose(frame_operator(mb), expected)
    assert np.allclose(frame_operator(mb), 0.5 * np.eye(2))


def test_frame_operator_gaussian():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    g = GaussianMeasure(mean=np.zeros(2), covariance=cov)
    assert np.allclose(frame_operator(g), cov)
    shifted = GaussianMeasure(mean=np.array([1.0, -2.0]), covariance=cov)
    assert np.allclose(frame_operator(shifted), cov + np.outer([1.0, -2.0], [1.0, -2.0]))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_frame_report_uniform_basis(dim):
    report = frame_report(uniform_basis(dim))
    assert report.is_frame
    assert abs(report.lower_bound - 1.0 / dim) <= 1e-12
    assert abs(report.upper_bound - 1.0 / dim) <= 1e-12


def test_frame_report_rank_deficient_support():
    measure = DiscreteMeasure(atoms=[[1.0, 0.0]], weights=[1.0])
    report = frame_report(measure)
    assert report.lower_bound == 0.0
    assert not report.is_frame


@pytest.mark.parametrize("n", [1, 4, 100])
def test_frame_report_shrinking_gaussians_stay_frames(n):
    g = GaussianMeasure(mean=np.zeros(2), covariance=np.eye(2) / n)
    report = frame_report(g)
    assert report.is_frame
    assert abs(report.lower_bound - 1.0 / n) <= 1e-12
    assert abs(report.upper_bound - 1.0 / n) <= 1e-12


def test_second_moment_examples():
    assert abs(second_moment(uniform_basis(2)) - 1.0) <= 1e-12
    g = GaussianMeasure(mean=np.zeros(2), covariance=np.diag([4.0, 1.0]))
    assert abs(second_moment(g) - 5.0) <= 1e-12


def test_second_moment_unit_norm_atoms():
    s3 = np.sqrt(3.0)
    measure = DiscreteMeasure(
        atoms=[[1.0, 0.0], [s3 / 2.0, 0.5], [0.0, 1.0]],
        weights=[0.5, 1.0 / 6.0, 1.0 / 3.0],
    )
    assert abs(second_moment(measure) - 1.0) <= 1e-12


def test_pushforward_identity_and_zero():
    measure = uniform_basis(3)
    same = pushforward_linear(measure, np.eye(3))
    assert np.allclose(same.atoms, measure.atoms)
    collapsed = pushforward_linear(measure, np.zeros((3, 3)))
    assert np.all(collapsed.atoms == 0.0)
    assert not frame_report(collapsed).is_frame


def test_pushforward_by_inverse_frame_operator():
    measure = uniform_basis(4)
    inverse = np.linalg.inv(frame_operator(measure))
    moved = pushforward_linear(measure, inverse)
    assert np.allclose(moved.atoms, 4.0 * np.eye(4))
    assert np.allclose(moved.weights, measure.weights)


def test_pushforward_dimension_mismatch():
    with pytest.raises(ValueError):
        pushforward_linear(uniform_basis(2), np.eye(3))


def test_weight_normalization_tolerance():
    atoms = [[1.0, 0.0], [0.0, 1.0]]
    noisy = DiscreteMeasure(atoms=atoms, weights=[0.5 + 3e-7, 0.5])
    assert abs(noisy.weights.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=atoms, weights=[0.6, 0.5])
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=atoms, weights=[1.1, -0.1])


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=[[np.inf, 0.0]], weights=[1.0])
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=[[1.0, 0.0]], weights=[1.0, 0.0])
    with pytest.raises(ValueError):
        GaussianMeasure(mean=np.zeros(2), covariance=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        GaussianMeasure(mean=np.zeros(2), covariance=np.diag([1.0, -1.0]))


def test_duplicate_atoms_are_legal():
    measure = DiscreteMeasure(atoms=[[1.0, 0.0], [1.0, 0.0]], weights=[0.5, 0.5])
    assert measure.count == 2
    assert np.allclose(frame_operator(measure), np.outer([1, 0], [1, 0]))


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 30),
    dim=st.integers(1, 3),
    repeats=st.integers(0, 10),
    negate_zeros=st.booleans(),
)
def test_merge_matches_unique_reference(seed, count, dim, repeats, negate_zeros):
    # Coordinates on a small grid make ties within and across columns; the
    # planted copies are exact duplicates, some of them with -0.0 for 0.0.
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, size=(count, dim)) / 3.0
    atoms = np.vstack([base, base[rng.integers(0, count, size=repeats)]])
    if negate_zeros:
        flip = rng.random(atoms.shape) < 0.5
        atoms[flip & (atoms == 0.0)] = -0.0
    measure = DiscreteMeasure(atoms=atoms, weights=rng.dirichlet(np.ones(atoms.shape[0])))
    merged, reference = merge_duplicate_atoms(measure), merge_by_unique(measure)
    assert (merged is measure) == (reference is measure)
    assert merged.atoms.tobytes() == reference.atoms.tobytes()
    assert merged.weights.tobytes() == reference.weights.tobytes()


def test_merge_treats_negative_zero_as_zero():
    measure = DiscreteMeasure(atoms=[[-0.0, 1.0], [2.0, 1.0], [0.0, 1.0]], weights=[0.25, 0.5, 0.25])
    merged = merge_duplicate_atoms(measure)
    assert np.signbit(merged.atoms[0, 0])
    assert merged.atoms.tolist() == [[0.0, 1.0], [2.0, 1.0]]
    assert merged.weights.tolist() == [0.5, 0.5]


def test_merge_returns_a_measure_without_duplicates_unchanged():
    measure = DiscreteMeasure(atoms=[[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], weights=[0.2, 0.3, 0.5])
    assert merge_duplicate_atoms(measure) is measure


def test_atoms_are_immutable():
    measure = uniform_basis(2)
    with pytest.raises(ValueError):
        measure.atoms[0, 0] = 5.0


def test_psd_on_500_random_measures():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        weights = rng.dirichlet(np.ones(n))
        measure = DiscreteMeasure(atoms=rng.normal(size=(n, d)), weights=weights)
        s = frame_operator(measure)
        assert np.abs(s - s.T).max() <= 1e-12
        assert np.linalg.eigvalsh(s)[0] >= -1e-12
        assert abs(second_moment(measure) - np.trace(s)) <= 1e-10


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_frame_predicate_invariances(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    n = int(rng.integers(1, 6))
    measure = DiscreteMeasure(atoms=rng.normal(size=(n, d)), weights=rng.dirichlet(np.ones(n)))
    base = frame_report(measure).is_frame

    order = rng.permutation(n)
    permuted = DiscreteMeasure(atoms=measure.atoms[order], weights=measure.weights[order])
    assert frame_report(permuted).is_frame == base

    q = random_orthogonal(rng, d)
    rotated = pushforward_linear(measure, q)
    assert frame_report(rotated).is_frame == base


def test_uniform_measure_matches_analysis_gram():
    rng = np.random.default_rng(4)
    atoms = rng.normal(size=(6, 3))
    measure = DiscreteMeasure(atoms=atoms, weights=np.full(6, 1.0 / 6.0))
    assert np.allclose(frame_operator(measure), atoms.T @ atoms / 6.0)


def test_json_round_trip():
    rng = np.random.default_rng(8)
    measure = random_frame_measure(rng, 3, 5)
    payload = json.loads(json.dumps(measure_to_payload(measure)))
    back = measure_from_payload(payload)
    assert np.array_equal(back.atoms, measure.atoms)
    assert np.array_equal(back.weights, measure.weights)

    g = GaussianMeasure(mean=[0.5, -1.0], covariance=[[2.0, 0.1], [0.1, 1.0]])
    back_g = measure_from_payload(json.loads(json.dumps(measure_to_payload(g))))
    assert np.array_equal(back_g.mean, g.mean)
    assert np.array_equal(back_g.covariance, g.covariance)


def test_payload_validation():
    with pytest.raises(ValueError):
        measure_from_payload({"atoms": [[1.0]], "weights": [1.0]})  # missing dim
    with pytest.raises(ValueError):
        measure_from_payload({"dim": 3, "atoms": [[1.0, 0.0]], "weights": [1.0]})
    with pytest.raises(ValueError):
        measure_from_payload({"mean": [0.0]})
    with pytest.raises(ValueError):
        measure_from_payload([1, 2, 3])


def test_pd_threshold_scale_awareness():
    assert pd_threshold(0.5) == 1e-10
    assert pd_threshold(100.0) == 1e-8


def test_pd_threshold_on_arrays_matches_scalars():
    highs = np.array([0.0, 0.5, 1.0, 1.0 + 1e-12, 100.0, 3e7])
    assert np.array_equal(pd_threshold(highs), [1e-10 * max(1.0, float(h)) for h in highs])
