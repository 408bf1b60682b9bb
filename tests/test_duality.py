import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MERCEDES_BENZ,
    duality_feasible_bruteforce,
    random_frame_measure,
    remark_instance,
    with_row_residual,
)
import pframes.duality
from pframes import linalg
from pframes.duality import (
    CERTIFICATE_TOL,
    PRODUCT_TOL,
    FarkasCertificate,
    TransportPlan,
    canonical_dual,
    certificate_is_valid,
    cross_moment_matrix,
    deterministic_plan,
    dual_family_member,
    find_transport_dual,
    psi_h_dual,
    verify_transport_dual,
    zero_centroid_obstruction,
)
from pframes.errors import NotAFrameError, NumericError
from pframes.measures import DiscreteMeasure, frame_operator, frame_report


def uniform_basis(dim):
    return DiscreteMeasure(atoms=np.eye(dim), weights=np.full(dim, 1.0 / dim))


def mercedes_benz():
    return DiscreteMeasure(atoms=MERCEDES_BENZ, weights=np.full(3, 1.0 / 3.0))


# --- canonical dual ----------------------------------------------------------


def test_canonical_dual_uniform_basis():
    dual = canonical_dual(uniform_basis(3))
    assert np.allclose(dual.atoms, 3.0 * np.eye(3))
    assert np.allclose(dual.weights, uniform_basis(3).weights)


def test_canonical_dual_tight_frame_scales():
    mb = mercedes_benz()
    dual = canonical_dual(mb)  # S = I/2, so atoms double
    assert np.allclose(dual.atoms, 2.0 * MERCEDES_BENZ)


@pytest.mark.parametrize("seed", range(6))
def test_canonical_dual_identity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    measure = random_frame_measure(rng, dim, dim + int(rng.integers(1, 5)))
    dual = canonical_dual(measure)
    gram = measure.atoms.T @ (measure.weights[:, None] * dual.atoms)
    assert np.abs(gram - np.eye(measure.dim)).max() <= 1e-8


def test_canonical_dual_rejects_non_frame():
    degenerate = DiscreteMeasure(atoms=[[1.0, 0.0], [2.0, 0.0]], weights=[0.5, 0.5])
    with pytest.raises(NotAFrameError):
        canonical_dual(degenerate)


# --- classical dual family ---------------------------------------------------


def test_dual_family_zero_offsets_is_pseudoinverse():
    rng = np.random.default_rng(1)
    measure = random_frame_measure(rng, 3, 6, uniform=True)
    member = dual_family_member(measure, np.zeros((6, 3)))
    assert np.abs(member.atoms - linalg.pinv(measure.atoms).T).max() <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_dual_family_reconstruction(seed):
    rng = np.random.default_rng(seed)
    measure = random_frame_measure(rng, 2, 5, uniform=True)
    member = dual_family_member(measure, rng.normal(size=(5, 2)))
    # x = sum_i <x, phi_i> psi_i for the classical (unweighted) duality.
    assert np.abs(member.atoms.T @ measure.atoms - np.eye(2)).max() <= 1e-8
    for _ in range(50):
        x = rng.normal(size=2)
        recon = (measure.atoms @ x) @ member.atoms
        assert np.abs(recon - x).max() <= 1e-8


def test_dual_family_offset_shape_check():
    with pytest.raises(ValueError):
        dual_family_member(uniform_basis(2), np.zeros((3, 2)))


# --- psi_h construction ------------------------------------------------------


def test_psi_h_zero_matches_canonical_exactly():
    rng = np.random.default_rng(3)
    measure = random_frame_measure(rng, 3, 7)
    via_h = psi_h_dual(measure, np.zeros((7, 3)))
    direct = canonical_dual(measure)
    assert np.abs(via_h.atoms - direct.atoms).max() <= 1e-12


def test_psi_h_constant_perturbation():
    measure = uniform_basis(2)
    shift = np.tile([0.3, -0.2], (2, 1))
    dual = psi_h_dual(measure, shift)
    # Deterministic coupling along the map has identity cross moment.
    plan = deterministic_plan(measure, dual)
    assert verify_transport_dual(plan)


@pytest.mark.parametrize("seed", range(4))
def test_psi_h_random_perturbation_keeps_duality(seed):
    rng = np.random.default_rng(seed)
    mu, _ = remark_instance()
    dual = psi_h_dual(mu, rng.normal(size=(3, 2)))
    plan = deterministic_plan(mu, dual)
    assert verify_transport_dual(plan)
    # Transport duals are themselves frames.
    assert frame_report(dual).is_frame


# --- LP route ----------------------------------------------------------------


def test_remark_instance_is_feasible():
    mu, nu = remark_instance()
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert np.abs(cross_moment_matrix(result) - np.eye(2)).max() <= 1e-7
    assert verify_transport_dual(result)


def test_scaled_basis_is_self_dual():
    # Atoms sqrt(d) e_i with weights 1/d have frame operator I, so the
    # diagonal coupling certifies self-duality.
    d = 3
    measure = DiscreteMeasure(atoms=np.sqrt(d) * np.eye(d), weights=np.full(d, 1.0 / d))
    result = find_transport_dual(measure, measure)
    assert isinstance(result, TransportPlan)


def test_plain_uniform_basis_is_not_self_dual():
    # Total coupling mass is 1, so the cross moment's trace is at most 1 < d.
    measure = uniform_basis(2)
    result = find_transport_dual(measure, measure)
    assert isinstance(result, FarkasCertificate)


def test_mercedes_benz_has_no_two_atom_equal_weight_dual():
    mb = mercedes_benz()
    rng = np.random.default_rng(0)
    for _ in range(5):
        candidate = DiscreteMeasure(atoms=rng.normal(size=(2, 2)), weights=[0.5, 0.5])
        result = find_transport_dual(mb, candidate)
        assert isinstance(result, FarkasCertificate)
        assert certificate_is_valid(result, mb, candidate)


def test_find_transport_dual_validations():
    mu, nu = remark_instance()
    with pytest.raises(ValueError):
        find_transport_dual(mu, DiscreteMeasure(atoms=[[1.0, 0.0, 0.0]], weights=[1.0]))
    not_frame = DiscreteMeasure(atoms=[[1.0, 0.0], [2.0, 0.0]], weights=[0.5, 0.5])
    with pytest.raises(NotAFrameError):
        find_transport_dual(not_frame, nu)


def test_duplicate_atoms_merge_before_solving():
    d = 2
    atoms = np.vstack([np.sqrt(d) * np.eye(d), [np.sqrt(d), 0.0]])
    measure = DiscreteMeasure(atoms=atoms, weights=[0.25, 0.5, 0.25])
    # Atom 0 and 2 coincide bitwise: merged weight 1/2 each coordinate axis.
    target = DiscreteMeasure(atoms=np.sqrt(d) * np.eye(d), weights=[0.5, 0.5])
    result = find_transport_dual(measure, target)
    assert isinstance(result, TransportPlan)
    assert result.row_measure.count == 2
    assert np.allclose(np.sort(result.row_measure.weights), [0.5, 0.5])


def test_feasibility_agrees_with_enumeration_oracle():
    rng = np.random.default_rng(77)
    feasible_count = infeasible_count = 0
    for trial in range(24):
        mu = random_frame_measure(rng, 2, int(rng.integers(2, 4)))
        if trial % 3 == 0:
            nu = canonical_dual(mu)  # always feasible
        else:
            m = int(rng.integers(2, 4))
            nu = DiscreteMeasure(atoms=rng.normal(size=(m, 2)), weights=rng.dirichlet(np.ones(m)))
        result = find_transport_dual(mu, nu)
        solver_feasible = isinstance(result, TransportPlan)
        oracle_feasible = duality_feasible_bruteforce(mu, nu)
        assert solver_feasible == oracle_feasible
        if solver_feasible:
            feasible_count += 1
            # Every certified transport dual is itself a frame.
            assert frame_report(result.col_measure).is_frame
        else:
            infeasible_count += 1
            assert certificate_is_valid(result, mu, nu)
    assert feasible_count > 0 and infeasible_count > 0


def merged_weights(atoms, weights):
    """Total weight per distinct atom, keyed by the atom's coordinates."""
    table = {}
    for atom, w in zip(np.asarray(atoms), np.asarray(weights)):
        key = tuple(atom.tolist())
        table[key] = table.get(key, 0.0) + float(w)
    return table


def assert_dual_plan(plan, mu, nu):
    """Check a returned plan from scratch: it couples the inputs (up to the
    duplicate merge) and has identity cross moment."""
    a = plan.coupling
    assert a.min() >= -1e-10
    for side, measure, sums in (
        (plan.row_measure, mu, a.sum(axis=1)),
        (plan.col_measure, nu, a.sum(axis=0)),
    ):
        assert np.abs(sums - side.weights).max() <= 1e-8
        want = merged_weights(measure.atoms, measure.weights)
        got = merged_weights(side.atoms, sums)
        assert got.keys() == want.keys()
        assert max(abs(got[k] - want[k]) for k in want) <= 1e-8
    cross = plan.row_measure.atoms.T @ a @ plan.col_measure.atoms
    assert np.abs(cross - np.eye(mu.dim)).max() <= PRODUCT_TOL


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [12, 14, 16, 18, 20, 30, 50])
def test_canonical_dual_of_uniform_3d_frame_gets_a_plan(n, seed):
    # Feasible by construction (the diagonal coupling along S^{-1}); the
    # LP must find some plan rather than raise.
    mu = random_frame_measure(np.random.default_rng(seed), 3, n, uniform=True)
    nu = canonical_dual(mu)
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert_dual_plan(result, mu, nu)


@pytest.mark.parametrize("seed", [5, 32, 45, 83])
def test_psi_h_dual_with_tiny_weights_gets_a_plan(seed):
    # Dirichlet(1/2) weights reach 1e-7, below the solver's default primal
    # feasibility tolerance; the plan must still meet every marginal.
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(atoms=rng.normal(size=(20, 3)), weights=rng.dirichlet(np.full(20, 0.5)))
    nu = psi_h_dual(mu, 0.3 * rng.normal(size=(20, 3)))
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert_dual_plan(result, mu, nu)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    extra=st.integers(0, 10),
    repeats=st.integers(1, 7),
    concentration=st.floats(0.2, 2.0),
)
def test_canonical_dual_with_duplicates_and_skewed_weights_gets_a_plan(
    seed, dim, extra, repeats, concentration
):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(dim + extra, dim))
    atoms = np.vstack([base, base[rng.integers(0, base.shape[0], size=repeats)]])
    weights = rng.dirichlet(np.full(atoms.shape[0], concentration))
    mu = DiscreteMeasure(atoms=atoms, weights=weights)
    assert mu.count <= 20
    assume(np.linalg.eigvalsh(frame_operator(mu))[0] > 0.05)
    nu = canonical_dual(mu)
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert_dual_plan(result, mu, nu)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30), dim=st.integers(2, 3))
def test_zero_centroid_obstruction_gets_a_certificate(seed, n, dim):
    rng = np.random.default_rng(seed)
    atoms = rng.normal(size=(n, dim))
    mu = DiscreteMeasure(atoms=atoms - atoms.mean(axis=0), weights=np.full(n, 1.0 / n))
    assume(frame_report(mu).is_frame)
    assert zero_centroid_obstruction(mu)
    nu = DiscreteMeasure(atoms=rng.normal(size=(dim, dim)), weights=np.full(dim, 1.0 / dim))
    result = find_transport_dual(mu, nu)
    assert isinstance(result, FarkasCertificate)
    # The Farkas alternative, evaluated here rather than by the library.
    pairings = mu.atoms @ result.B @ nu.atoms.T + result.u[:, None] + result.v[None, :]
    combined = np.trace(result.B) + result.u @ mu.weights + result.v @ nu.weights
    assert pairings.min() >= -CERTIFICATE_TOL
    assert combined <= -CERTIFICATE_TOL


# --- zero centroid -----------------------------------------------------------


def test_zero_centroid_examples():
    assert zero_centroid_obstruction(mercedes_benz())
    assert not zero_centroid_obstruction(uniform_basis(3))
    atoms = np.vstack([np.eye(2), -np.eye(2)])
    union = DiscreteMeasure(atoms=atoms, weights=np.full(4, 0.25))
    assert zero_centroid_obstruction(union)


def test_zero_centroid_requires_uniform_weights():
    skewed = DiscreteMeasure(atoms=np.vstack([np.eye(2), -np.eye(2)]), weights=[0.4, 0.1, 0.1, 0.4])
    with pytest.raises(ValueError):
        zero_centroid_obstruction(skewed)


# --- verification ------------------------------------------------------------


def test_verify_canonical_coupling():
    rng = np.random.default_rng(5)
    measure = random_frame_measure(rng, 3, 5)
    plan = deterministic_plan(measure, canonical_dual(measure))
    assert verify_transport_dual(plan)


def test_verify_rejects_independent_coupling_of_zero_centroid_pairs():
    mb = mercedes_benz()
    other = DiscreteMeasure(atoms=np.vstack([np.eye(2), -np.eye(2)]), weights=np.full(4, 0.25))
    independent = TransportPlan(mb, other, np.outer(mb.weights, other.weights))
    # Cross moment is the rank-one product of the (zero) centroids.
    assert np.abs(cross_moment_matrix(independent)).max() <= 1e-12
    assert not verify_transport_dual(independent)


def test_verify_rejects_identity_coupling_of_non_self_dual():
    measure = uniform_basis(2)
    plan = deterministic_plan(measure, measure)
    assert not verify_transport_dual(plan)


def test_transport_plan_validation():
    mu, nu = remark_instance()
    with pytest.raises(ValueError):
        TransportPlan(mu, nu, np.full((3, 2), 1.0 / 6.0))  # wrong marginals
    with pytest.raises(ValueError):
        TransportPlan(mu, nu, -np.ones((3, 2)) / 6.0)
    with pytest.raises(ValueError):
        TransportPlan(mu, nu, np.ones((2, 3)) / 6.0)


def test_lp_coupling_failing_plan_checks_is_a_numeric_error(monkeypatch):
    # A 1.5e-8 row residual passes solve_lp (1e-8 * (1 + 1)) but not
    # PLAN_TOL: the solver's point is at fault, not the input.
    monkeypatch.setattr(
        pframes.duality, "solve_lp", with_row_residual(pframes.duality.solve_lp, 1.5e-8)
    )
    mu, nu = remark_instance()
    with pytest.raises(NumericError, match="not a valid plan"):
        find_transport_dual(mu, nu)
