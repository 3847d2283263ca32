import numpy as np
import pytest

from reduction_lab.models import haar_unitary, random_faithful_model
from reduction_lab.quantum import DensityOperator, DiscreteObservable, PureState, projector_onto


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def plus_state():
    return DensityOperator(np.full((2, 2), 0.5, dtype=complex))


def small_probability_case(p, sigma_rank=1):
    """A (4,8) faithful model with an apparatus state of rank
    ``sigma_rank``, one of its outcomes and a pure state that gives it
    probability p: sqrt(p) of the state lies in the outcome's eigenspace.
    With a pure apparatus state T_a(rho)/p has rank 2 of 4, so its roundoff
    over p shows as a negative eigenvalue; with rank 2 it has full rank."""
    rng = np.random.default_rng(1)
    v = haar_unitary(4, rng)
    obs = DiscreteObservable(tuple((float(k), projector_onto(v[:, k])) for k in range(4)))
    model = random_faithful_model(obs, 8, seed=1, sigma_rank=sigma_rank)
    a = obs.eigenvalues[0]
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    inside = obs.projector(a) @ g
    outside = g - inside
    psi = np.sqrt(p) * inside / np.linalg.norm(inside)
    psi += np.sqrt(1 - p) * outside / np.linalg.norm(outside)
    return model, a, PureState(psi)
