"""Transport duality for probabilistic frames.

A measure ``nu`` is a transport dual of a frame ``mu`` when some coupling
``gamma`` of the pair has cross second-moment matrix equal to the identity:
``E[x y^T] = I``.  For finitely supported measures this reduces to a linear
feasibility problem over the transportation polytope ``DS(alpha, beta)``:
find ``A >= 0`` with prescribed row/column sums and ``Phi^T A Psi = I``.
The solver returns either an explicit coupling or a Farkas-type certificate
``(B, u, v)`` proving that no coupling exists.  When the two measures pair
atom by atom (equal counts and weights, as for the canonical dual and the
``psi_h`` duals), the diagonal coupling is tried first and returned if it
passes the identity check, so no LP is solved.  The first-moment obstruction
is decided next, also without an LP: when every atom of ``nu`` lies on the
hyperplane ``<y, b> = 1``, any coupling with identity cross moment has
``E_mu[x] = E[x <y, b>] = b``, so a frame whose mean misses ``b`` has no
transport dual on that support, and the certificate is written down
directly.  Every other pair is decided by one LP.

Alongside the LP route, the deterministic constructions are provided: the
canonical dual ``(S^{-1})_# mu``, the classical enumeration of duals of a
finite frame, and the measure-weighted perturbation family ``psi_h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotAFrameError, NumericError
from .measures import (
    DiscreteMeasure,
    frame_operator,
    frame_report,
    merge_duplicate_atoms,
    weights_equal,
)
from .optim import FEASIBILITY_TOL, HIGHS_TIGHT_TOL, marginal_rows, solve_lp

Array = np.ndarray

# The duality product amplifies coupling error by ||Phi|| * ||Psi||, so the
# identity check runs looser than LP feasibility.
PRODUCT_TOL = 1e-7
# A constructed dual's cross moment must match the identity to this.
DUAL_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling between two discrete measures.

    Row sums must match the row measure's weights and column sums the column
    measure's weights, both to ``FEASIBILITY_TOL``; entries below
    ``-HIGHS_TIGHT_TOL``, the round-off ``solve_lp`` reads as zero, reject
    the plan.
    """

    row_measure: DiscreteMeasure
    col_measure: DiscreteMeasure
    coupling: Array

    def __post_init__(self):
        a = np.asarray(self.coupling, dtype=float)
        n, m = self.row_measure.count, self.col_measure.count
        if a.shape != (n, m):
            raise ValueError(f"coupling must be {n}x{m}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("coupling contains non-finite entries")
        if float(a.min()) < -HIGHS_TIGHT_TOL:
            raise ValueError("coupling has negative entries")
        if float(np.abs(a.sum(axis=1) - self.row_measure.weights).max()) > FEASIBILITY_TOL:
            raise ValueError("coupling row sums do not match row measure weights")
        if float(np.abs(a.sum(axis=0) - self.col_measure.weights).max()) > FEASIBILITY_TOL:
            raise ValueError("coupling column sums do not match column measure weights")
        if abs(float(a.sum()) - 1.0) > FEASIBILITY_TOL:
            raise ValueError("coupling total mass differs from 1")
        a = np.array(a)
        a.flags.writeable = False
        object.__setattr__(self, "coupling", a)

    @classmethod
    def from_solver(cls, row_measure, col_measure, coupling) -> TransportPlan:
        """Wrap a coupling made by a solver.

        A guard: ``solve_lp`` accepts a residual only up to
        ``FEASIBILITY_TOL``, the tolerance of the plan checks; a solver
        point that still fails them is a numeric failure, not an input error.
        """
        try:
            return cls(row_measure, col_measure, coupling)
        except ValueError as exc:
            raise NumericError(f"solver coupling is not a valid plan: {exc}") from exc


@dataclass(frozen=True)
class FarkasCertificate:
    """Witness ``(B, u, v)`` that the transport-dual system is infeasible.

    Validity means ``phi_i^T B psi_j + u_i + v_j >= -tol`` for all pairs
    while ``trace(B) + u . alpha + v . beta <= -tol``: ``u`` pairs with the
    row-measure weights and ``v`` with the column-measure weights, matching
    the variable ordering of the underlying LP.
    """

    B: Array
    u: Array
    v: Array


def certificate_is_valid(cert: FarkasCertificate, mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    pairings = mu.atoms @ cert.B @ nu.atoms.T + cert.u[:, None] + cert.v[None, :]
    combined = float(np.trace(cert.B) + cert.u @ mu.weights + cert.v @ nu.weights)
    return bool(pairings.min() >= -FEASIBILITY_TOL and combined <= -FEASIBILITY_TOL)


def cross_moment_matrix(plan: TransportPlan) -> Array:
    """``E[x y^T]`` under the plan: ``sum_ij A_ij phi_i psi_j^T``."""
    return plan.row_measure.atoms.T @ plan.coupling @ plan.col_measure.atoms


def verify_transport_dual(plan: TransportPlan) -> bool:
    """True iff the plan's cross second moment is the identity within
    ``PRODUCT_TOL``."""
    d = plan.row_measure.dim
    if plan.col_measure.dim != d:
        return False
    return bool(np.abs(cross_moment_matrix(plan) - np.eye(d)).max() <= PRODUCT_TOL)


def _require_frame(measure: DiscreteMeasure) -> None:
    if not frame_report(measure).is_frame:
        raise NotAFrameError("measure support does not span the space")


def _dual_map(phi: Array, s: Array, h=None, weights: Array | None = None, what: str = "") -> Array:
    """Rows ``S^{-1} phi_i + h_i - sum_j w_j <S^{-1} phi_i, phi_j> h_j``.

    Without ``h`` this returns ``S^{-1} phi_i`` with nothing added, so a
    ``-0.0`` stays ``-0.0``; without ``weights`` every ``w_j`` is 1.  ``h``
    must match ``phi`` in shape and be finite; ``what`` names it in the
    errors.
    """
    sinv_phi = linalg.solve_linear(s, phi.T).T
    if h is None:
        return sinv_phi
    h = np.asarray(h, dtype=float)
    if h.shape != phi.shape:
        raise ValueError(f"{what} must have shape {phi.shape}, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError(f"{what} contain non-finite entries")
    gram = sinv_phi @ phi.T  # gram[i, j] = <S^{-1} phi_i, phi_j>
    if weights is not None:
        gram = gram * weights[None, :]
    return sinv_phi + h - gram @ h


def _require_dual_identity(measure: DiscreteMeasure, atoms: Array, message: str) -> None:
    """Raise ``NumericError`` unless the diagonal coupling of the measure
    with ``atoms`` has cross moment ``I`` to ``DUAL_IDENTITY_TOL``."""
    cross = measure.atoms.T @ (measure.weights[:, None] * atoms)
    if float(np.abs(cross - np.eye(measure.dim)).max()) > DUAL_IDENTITY_TOL:
        raise NumericError(message)


def canonical_dual(measure: DiscreteMeasure) -> DiscreteMeasure:
    """Pushforward of the measure by the inverse of its frame operator.

    The deterministic coupling along ``x -> S^{-1} x`` realizes the duality
    identity, which is re-checked numerically before returning.
    """
    _require_frame(measure)
    dual_atoms = _dual_map(measure.atoms, frame_operator(measure))
    _require_dual_identity(
        measure, dual_atoms, "canonical dual identity check failed (ill-conditioned frame)"
    )
    return DiscreteMeasure(atoms=dual_atoms, weights=measure.weights)


def dual_family_member(measure: DiscreteMeasure, offsets) -> DiscreteMeasure:
    """One member of the classical dual-frame family of the atom set.

    With frame vectors ``phi_i`` (weights are ignored here and copied to the
    output) and offset vectors ``b_i``, the member's atoms are::

        psi_i = S^{-1} phi_i + b_i - sum_k <S^{-1} phi_i, phi_k> b_k,

    where ``S = Phi^T Phi`` is the unweighted frame operator.  Every member
    satisfies ``sum_i psi_i phi_i^T = I``, i.e. ``x = sum_i <x, phi_i> psi_i``
    for all ``x``; zero offsets give the canonical dual of the atom set (the
    rows of the pseudoinverse's transpose).
    """
    _require_frame(measure)
    phi = measure.atoms
    atoms = _dual_map(phi, phi.T @ phi, offsets, what="offsets")
    return DiscreteMeasure(atoms=atoms, weights=measure.weights)


def psi_h_dual(measure: DiscreteMeasure, h_values) -> DiscreteMeasure:
    """Transport dual produced by a perturbation ``h`` of the canonical map.

    ``h_values[i]`` is the value of the perturbing function at atom ``i``.
    The dual's atoms are ``S^{-1} phi_i + h_i - sum_j w_j <S^{-1} phi_i,
    phi_j> h_j`` with ``S`` the measure-weighted frame operator; the
    deterministic coupling along this map has identity cross moment, checked
    before returning.  Zero perturbation reproduces :func:`canonical_dual`.
    """
    _require_frame(measure)
    atoms = _dual_map(measure.atoms, frame_operator(measure), h_values, measure.weights, "h values")
    dual = DiscreteMeasure(atoms=atoms, weights=measure.weights)
    _require_dual_identity(measure, atoms, "psi_h duality identity check failed")
    return dual


def deterministic_plan(measure: DiscreteMeasure, dual: DiscreteMeasure) -> TransportPlan:
    """Diagonal coupling pairing atom ``i`` of the measure with atom ``i`` of
    its image (both must share weights atomwise: ``weights_equal``)."""
    if dual.count != measure.count or not weights_equal(dual.weights, measure.weights):
        raise ValueError("deterministic coupling requires atomwise matching weights")
    return TransportPlan(measure, dual, np.diag(measure.weights))


def _moment_certificate(mu: DiscreteMeasure, nu: DiscreteMeasure) -> FarkasCertificate | None:
    """Certificate of the first-moment obstruction, or ``None``.

    With ``b`` the least-squares solution of ``Psi b = 1`` and ``a = b -
    E_mu[x]``, the triple ``B = -a b^T``, ``u = Phi a``, ``v = 0`` pairs to
    ``(phi_i . a)(1 - psi_j . b)``, zero when the atoms of ``nu`` lie on the
    hyperplane ``<y, b> = 1``, and combines to ``-|a|^2``.  It is scaled to
    unit max-norm and returned only if it passes ``certificate_is_valid``;
    otherwise (atoms off any such hyperplane, or a mean on it) the LP decides.
    """
    b = np.linalg.lstsq(nu.atoms, np.ones(nu.count), rcond=None)[0]
    a = b - mu.weights @ mu.atoms
    if not a.any():
        return None
    B, u = -np.outer(a, b), mu.atoms @ a
    peak = max(float(np.abs(B).max()), float(np.abs(u).max()))
    cert = FarkasCertificate(B=B / peak, u=u / peak, v=np.zeros(nu.count))
    return cert if certificate_is_valid(cert, mu, nu) else None


def find_transport_dual(
    mu: DiscreteMeasure, nu: DiscreteMeasure
) -> TransportPlan | FarkasCertificate:
    """Decide whether ``nu`` is a transport dual of the frame ``mu``.

    Feasible: returns a coupling whose cross moment is the identity to
    ``PRODUCT_TOL``.  Infeasible: returns a validated Farkas certificate.
    Exactly duplicated support points are combined before solving, so the
    returned plan's measures may have fewer atoms than the inputs.

    When the merged measures have equal atom counts and weights equal atom by
    atom, the diagonal coupling (``deterministic_plan``) is tried first and
    returned if it passes ``verify_transport_dual``: the returned coupling
    may then differ from the vertex an LP would pick.  Next, when the atoms
    of ``nu`` lie on a hyperplane ``<y, b> = 1`` that the mean of ``mu``
    misses (for instance ``nu`` on ``d`` linearly independent atoms, with
    any weights, against a frame whose mean is not ``Psi^{-1} 1``), the
    first-moment certificate is built directly and returned once it passes
    ``certificate_is_valid``.  Every other pair, and a paired one whose
    diagonal coupling fails the check, is decided by one ``solve_lp`` call
    without an objective.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    _require_frame(mu)
    mu_m = merge_duplicate_atoms(mu)
    nu_m = merge_duplicate_atoms(nu)
    phi, alpha = mu_m.atoms, mu_m.weights
    psi, beta = nu_m.atoms, nu_m.weights
    n, m, d = mu_m.count, nu_m.count, mu_m.dim
    if n == m and weights_equal(alpha, beta):
        plan = deterministic_plan(mu_m, nu_m)
        if verify_transport_dual(plan):
            return plan
    cert = _moment_certificate(mu_m, nu_m)
    if cert is not None:
        return cert

    # Row-major vec(A): the dense duality rows kron(Phi^T, Psi^T) head the
    # sparse marginal rows.
    kprime = marginal_rows(n, m, head=np.kron(phi.T, psi.T))
    tprime = np.concatenate([np.eye(d).ravel(), alpha, beta])
    outcome = solve_lp(kprime, tprime)

    if outcome.status == "feasible":
        plan = TransportPlan.from_solver(mu_m, nu_m, outcome.solution.reshape(n, m))
        if not verify_transport_dual(plan):
            raise NumericError("LP coupling failed the duality product check")
        return plan

    y = outcome.dual_certificate
    cert = FarkasCertificate(B=y[: d * d].reshape(d, d), u=y[d * d : d * d + n], v=y[d * d + n :])
    if not certificate_is_valid(cert, mu_m, nu_m):
        raise NumericError("Farkas certificate failed re-validation")
    return cert


def zero_centroid_obstruction(measure: DiscreteMeasure) -> bool:
    """Zero-sum test triggering the ``d``-point dual obstruction.

    A frame whose atoms sum to zero has no transport dual supported on ``d``
    linearly independent points, whatever that dual's weights: the points lie
    on the hyperplane ``<y, b> = 1`` with ``b = Psi^{-1} 1 != 0``, and a dual
    coupling would make ``b`` the frame's mean.  ``find_transport_dual``
    builds the certificate for such pairs directly.  This predicate reports
    whether the zero-centroid hypothesis holds; the input must be uniformly
    weighted.
    """
    if not weights_equal(measure.weights, 1.0 / measure.count):
        raise ValueError("zero-centroid obstruction applies to uniform weights only")
    return bool(float(np.abs(measure.atoms.sum(axis=0)).max()) <= 1e-10)


# --- JSON interchange -------------------------------------------------------
# Plans: {"coupling": [[...]], "row_weights": [...], "col_weights": [...]}


def plan_to_payload(plan: TransportPlan) -> dict:
    return {
        "coupling": plan.coupling.tolist(),
        "row_weights": plan.row_measure.weights.tolist(),
        "col_weights": plan.col_measure.weights.tolist(),
    }


def certificate_to_payload(cert: FarkasCertificate) -> dict:
    return {"B": cert.B.tolist(), "u": cert.u.tolist(), "v": cert.v.tolist()}
