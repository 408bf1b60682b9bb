import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MERCEDES_BENZ,
    counting,
    duality_feasible_bruteforce,
    random_frame_measure,
    remark_instance,
    with_row_residual,
)
import pframes.duality
import pframes.optim
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


# --- paired coupling first, one LP otherwise ----------------------------------


def with_duplicates(mu, count):
    atoms = np.vstack([mu.atoms, mu.atoms[:count]])
    weights = np.concatenate([mu.weights, mu.weights[:count]])
    return DiscreteMeasure(atoms=atoms, weights=weights / weights.sum())


@pytest.mark.parametrize("kind", ["canonical", "psi_h", "duplicates"])
@pytest.mark.parametrize("seed", range(3))
def test_paired_duals_are_decided_without_an_lp(monkeypatch, kind, seed):
    calls = counting(monkeypatch, pframes.duality, "solve_lp")
    rng = np.random.default_rng(seed)
    mu = random_frame_measure(rng, 3, 12)
    if kind == "duplicates":
        mu = with_duplicates(mu, 4)
    if kind == "psi_h":
        nu = psi_h_dual(mu, 0.3 * rng.normal(size=(12, 3)))
    else:
        nu = canonical_dual(mu)
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert_dual_plan(result, mu, nu)
    assert calls == []


def test_permuted_canonical_dual_is_decided_by_one_lp(monkeypatch):
    # Counts and weights pair atom by atom, but the diagonal coupling sends
    # phi_i to S^{-1} phi_{i+1}: it fails the product check, and the LP
    # finds the shifted coupling.
    mu = random_frame_measure(np.random.default_rng(8), 3, 10, uniform=True)
    dual = canonical_dual(mu)
    nu = DiscreteMeasure(atoms=np.roll(dual.atoms, -1, axis=0), weights=dual.weights)
    assert not verify_transport_dual(deterministic_plan(mu, nu))
    calls = counting(monkeypatch, pframes.duality, "solve_lp")
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert verify_transport_dual(result)
    assert_dual_plan(result, mu, nu)
    assert calls == ["solve_lp"]


# Obstructions on d points are decided in closed form; a zero-centroid frame
# against d + 1 generic points is not, and takes the one elastic LP.
HIGHS_SOLVES = {"mercedes-benz": 0, "zero-centroid": 0, "off-hyperplane": 1}


@pytest.mark.parametrize("kind", list(HIGHS_SOLVES))
def test_infeasible_pair_makes_at_most_one_highs_solve(monkeypatch, kind):
    import scipy.optimize

    rng = np.random.default_rng(21)
    if kind == "mercedes-benz":
        mu = mercedes_benz()
        nu = DiscreteMeasure(atoms=rng.normal(size=(2, 2)), weights=[0.5, 0.5])
    elif kind == "zero-centroid":
        atoms = rng.normal(size=(12, 3))
        mu = DiscreteMeasure(atoms=atoms - atoms.mean(axis=0), weights=np.full(12, 1.0 / 12.0))
        nu = DiscreteMeasure(atoms=rng.normal(size=(3, 3)), weights=np.full(3, 1.0 / 3.0))
    else:
        atoms = rng.normal(size=(6, 2))
        mu = DiscreteMeasure(atoms=atoms - atoms.mean(axis=0), weights=np.full(6, 1.0 / 6.0))
        nu = DiscreteMeasure(atoms=rng.normal(size=(3, 2)), weights=np.full(3, 1.0 / 3.0))
    wrappers = counting(monkeypatch, scipy.optimize, "linprog", "milp")
    calls = counting(monkeypatch, pframes.optim, "_highs")
    result = find_transport_dual(mu, nu)
    assert isinstance(result, FarkasCertificate)
    assert certificate_is_valid(result, mu, nu)
    assert len(calls) == HIGHS_SOLVES[kind]
    assert wrappers == []


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3]),
    dirichlet=st.booleans(),
    centred=st.booleans(),
)
def test_moment_certificate_agrees_with_the_lp(seed, dim, dirichlet, centred):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(dim, 13))
    weights = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    atoms = rng.normal(size=(n, dim))
    if centred:
        atoms -= weights @ atoms
    mu = DiscreteMeasure(atoms=atoms, weights=weights)
    assume(np.linalg.eigvalsh(frame_operator(mu))[0] > 1e-3)
    nu = DiscreteMeasure(atoms=rng.normal(size=(dim, dim)), weights=rng.dirichlet(np.ones(dim)))
    result = find_transport_dual(mu, nu)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pframes.duality, "_moment_certificate", lambda mu, nu: None)
        assert type(result) is type(find_transport_dual(mu, nu))
    if isinstance(result, TransportPlan):
        assert_dual_plan(result, mu, nu)
    else:
        pairings = mu.atoms @ result.B @ nu.atoms.T + result.u[:, None] + result.v[None, :]
        combined = np.trace(result.B) + result.u @ mu.weights + result.v @ nu.weights
        assert pairings.min() >= -CERTIFICATE_TOL
        assert combined <= -CERTIFICATE_TOL


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [2, 3])
def test_split_dual_on_the_hyperplane_falls_through_to_the_lp(monkeypatch, seed, dim):
    # A frame on d atoms and its canonical dual, with one frame atom split
    # into two copies around it: the dual's atoms lie on the hyperplane and
    # the frame's mean is on it too, so no first-moment certificate exists
    # and the LP finds the coupling.
    rng = np.random.default_rng(seed)
    mu0 = random_frame_measure(rng, dim, dim)
    nu = canonical_dual(mu0)
    share, delta = rng.uniform(0.2, 0.8), 0.5 * rng.normal(size=dim)
    atoms = np.vstack(
        [mu0.atoms[1:], mu0.atoms[0] + (1.0 - share) * delta, mu0.atoms[0] - share * delta]
    )
    weights = np.concatenate([mu0.weights[1:], mu0.weights[0] * np.array([share, 1.0 - share])])
    mu = DiscreteMeasure(atoms=atoms, weights=weights)
    calls = counting(monkeypatch, pframes.duality, "solve_lp")
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan)
    assert_dual_plan(result, mu, nu)
    assert calls == ["solve_lp"]


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["canonical", "psi_h", "permuted", "paired-random", "obstructed"]),
)
def test_mixed_pairs_agree_with_enumeration_oracle(seed, kind):
    # Paired duals take the diagonal coupling; permuted duals and random
    # measures with paired weights fail it and go to the LP; zero-centroid
    # obstructions get the first-moment certificate.
    rng = np.random.default_rng(seed)
    if kind == "obstructed":
        atoms = rng.normal(size=(3, 2))
        mu = DiscreteMeasure(atoms=atoms - atoms.mean(axis=0), weights=np.full(3, 1.0 / 3.0))
        assume(frame_report(mu).is_frame)
        nu = DiscreteMeasure(atoms=rng.normal(size=(2, 2)), weights=[0.5, 0.5])
    else:
        n = int(rng.integers(2, 4))
        mu = random_frame_measure(rng, 2, n, uniform=kind in ("permuted", "paired-random"))
        if kind == "canonical":
            nu = canonical_dual(mu)
        elif kind == "psi_h":
            nu = psi_h_dual(mu, rng.normal(size=(n, 2)))
        elif kind == "permuted":
            dual = canonical_dual(mu)
            nu = DiscreteMeasure(atoms=np.roll(dual.atoms, 1, axis=0), weights=dual.weights)
        else:
            nu = DiscreteMeasure(atoms=rng.normal(size=(n, 2)), weights=mu.weights)
    result = find_transport_dual(mu, nu)
    assert isinstance(result, TransportPlan) == duality_feasible_bruteforce(mu, nu)
    if isinstance(result, TransportPlan):
        assert_dual_plan(result, mu, nu)
    else:
        assert certificate_is_valid(result, mu, nu)


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
    # A 1.5e-8 row residual, injected past solve_lp's own check, fails
    # PLAN_TOL: the solver's point is at fault, not the input.
    monkeypatch.setattr(
        pframes.duality, "solve_lp", with_row_residual(pframes.duality.solve_lp, 1.5e-8)
    )
    mu, nu = remark_instance()
    with pytest.raises(NumericError, match="not a valid plan"):
        find_transport_dual(mu, nu)
