"""Consecutive-measurement statistics and the mixture non-uniqueness demo."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError
from .instrument import Instrument, _reduce_image, instrument_from_operation, luders_instrument
from .matcore import PROBABILITY_FLOOR, ROUNDOFF_TOL, VERIFY_TOL
from .models import MeasurementModel, instrument_of
from .quantum import (
    DensityOperator,
    DiscreteObservable,
    PureState,
    born_probability,
    clamp_probability,
    ket,
    projector_onto,
)
from .superop import Superoperator, apply


@dataclass(frozen=True)
class JointDistribution:
    """Table of joint outcome probabilities for a measurement followed
    immediately by a second one on the same object."""

    first_observable: DiscreteObservable
    second_observable: DiscreteObservable
    table: dict

    def probability(self, a: float, x: float) -> float:
        return self.table.get((a, x), 0.0)


def joint_distribution(
    model: MeasurementModel,
    second: DiscreteObservable,
    rho: DensityOperator,
    tol: float = VERIFY_TOL,
) -> JointDistribution:
    """Joint probabilities P(a, x) = Tr[E_X(x) T_a(rho)], band-checked and
    clamped like every probability.

    The instrument comes from ``instrument_of(model, tol)``.  For a model
    with a probe, every P(a, x) is compared with the probe route's
    P'(a, x) = Tr[E_X(x) T'_a(rho)], T'_a the map of the outcome's
    probe-route Kraus stack (``model.probe_route``); a difference beyond
    ``tol`` raises ``NumericalConsistencyError`` naming (a, x) and both
    values.  A probeless model has no second route.  Wherever the
    first-outcome probability clears ``PROBABILITY_FLOOR``, the product
    form P(a) * Tr[E_X(x) rho_a] is cross-checked; disagreement beyond
    ``ROUNDOFF_TOL`` raises ``NumericalConsistencyError``.  Each T_a is
    applied once: rho_a is reduced from the image the table uses.  The
    traces Tr[E_X(x) m] of one image m (T_a(rho), T'_a(rho) or rho_a) for
    every x come from one product of the (n_x, d^2) flattened
    ``second.projectors`` with the flattened m^T.
    """
    for name, dim in (("second observable", second.dim), ("state", rho.dim)):
        if dim != model.dim_s:
            raise ValueError(f"dimension mismatch: {name} dim {dim}, model dim_s {model.dim_s}")
    ins = instrument_of(model, tol)
    flat = second.projectors.reshape(len(second.projectors), -1)

    def traces(m: np.ndarray) -> list:
        # Tr[E_X(x) m] = sum_ij E_X(x)[i, j] m[j, i] for every x at once
        return (flat @ m.T.reshape(-1)).real.tolist()

    table = {}
    for k, a in enumerate(model.observable.eigenvalues):
        image = apply(ins.component(a), rho)
        probes = None
        if model.probe is not None:
            probes = traces(apply(Superoperator.from_kraus(model.probe_route[0][k]), rho))
        born = born_probability(model.observable, a, rho)
        products = None
        if born > PROBABILITY_FLOOR:
            products = [born * q for q in traces(_reduce_image(a, image).matrix)]
        for j, (x, p) in enumerate(zip(second.eigenvalues, traces(image))):
            table[(a, x)] = clamp_probability(p)
            if probes is not None:
                p_probe = probes[j]
                if not abs(p - p_probe) <= tol:
                    raise NumericalConsistencyError(
                        f"joint table entry ({a}, {x}) is {p:.9e} by T_a but "
                        f"{p_probe:.9e} by the probe route, {abs(p - p_probe):.3e} apart"
                    )
            if products is not None:
                product = products[j]
                if not abs(p - product) <= ROUNDOFF_TOL:
                    raise NumericalConsistencyError(
                        f"joint table entry ({a}, {x}) disagrees with the "
                        f"product form by {abs(p - product):.3e}"
                    )
    return JointDistribution(model.observable, second, table)


@dataclass(frozen=True)
class DecompositionExhibit:
    """Two distinct pure-state decompositions of the same post-measurement
    mixture, together with the unique instrument components that single one
    of them out."""

    mixed_state: DensityOperator
    decompositions: tuple  # of (weights, tuple of PureState)
    instrument: Instrument
    component_images: dict  # eigenvalue -> T_a(rho) matrix


def nonuniqueness_exhibit(dim: int = 2) -> DecompositionExhibit:
    """Measure a nondegenerate observable on a state with two equal-weight
    branches; the post-measurement mixture admits inequivalent pure-state
    decompositions, yet the operation determines the instrument uniquely.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    # nondegenerate observable in the computational basis; a qubit gets
    # the familiar +/-1 labels
    eigenvalues = (1.0, -1.0) if dim == 2 else tuple(float(k) for k in range(dim))
    obs = DiscreteObservable(
        tuple(
            (eigenvalues[n], projector_onto(ket(dim, n))) for n in range(dim)
        )
    )
    # equal amplitudes on the first two basis states, distinct on the rest
    amps = np.ones(dim, dtype=complex)
    for n in range(2, dim):
        amps[n] = 1.0 / (n + 1)
    amps /= np.linalg.norm(amps)
    psi = PureState(amps)
    rho = psi.to_density()

    weights = tuple(float(abs(amps[n]) ** 2) for n in range(dim))
    phi_states = tuple(PureState(ket(dim, n)) for n in range(dim))
    eta_plus = (ket(dim, 0) + ket(dim, 1)) / np.sqrt(2)
    eta_minus = (ket(dim, 0) - ket(dim, 1)) / np.sqrt(2)
    eta_states = (PureState(eta_plus), PureState(eta_minus)) + phi_states[2:]

    mixed = sum(w * projector_onto(s.vector) for w, s in zip(weights, phi_states))
    mixed_state = DensityOperator(mixed)

    ins = instrument_from_operation(luders_instrument(obs).total, obs)
    component_images = {
        a: apply(ins.component(a), rho) for a in obs.eigenvalues
    }
    return DecompositionExhibit(
        mixed_state=mixed_state,
        decompositions=((weights, phi_states), (weights, eta_states)),
        instrument=ins,
        component_images=component_images,
    )
