import numpy as np
import pytest

from reduction_lab import matcore
from reduction_lab.instrument import Instrument
from reduction_lab.models import haar_unitary, random_faithful_model
from reduction_lab.quantum import DensityOperator, DiscreteObservable, PureState, projector_onto
from reduction_lab.superop import Superoperator


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


def matrix_unit(dim, i, j):
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def probed(dim, f):
    """The map of a linear callable ``f`` on d x d matrices, probed with the
    d^2 matrix units: column i + j d of its rep is vec f(E_ij).  Built by the
    constructor, so the rep takes its finite scan."""
    rep = np.zeros((dim * dim, dim * dim), dtype=complex)
    for j in range(dim):
        for i in range(dim):
            rep[:, i + j * dim] = f(matrix_unit(dim, i, j)).reshape(-1, order="F")
    return Superoperator(dim, rep)


def identity_map(dim):
    """The identity map on d x d matrices, from its rep."""
    return Superoperator(dim, np.eye(dim * dim))


def dual(s):
    """The dual map s* with Tr[X s(rho)] = Tr[s*(X) rho] for all X, rho.
    From the defining relation on matrix units, s*(E_ij)[l, k] =
    s(E_kl)[j, i]: its rep is s's with the four axes reversed."""
    d = s.dim
    rep = s.rep.reshape((d,) * 4).transpose(3, 2, 1, 0).reshape(d * d, d * d)
    return Superoperator(d, rep)


def is_psd(m):
    """The PSD verdict of a matrix: the Hermitian test, then the PSD test
    on its Hermitian part."""
    ok, h, _ = matcore.hermitian_stack(matcore.as_complex_matrix(m)[None])
    return bool(ok[0]) and matcore.psd_refusal(h[0]) is None


def tensor(a, b):
    """The Kronecker product, object space first."""
    return np.kron(a, b)


def partial_trace_apparatus(m, dim_s, dim_a):
    """Trace out the second (apparatus) factor of a composite matrix."""
    return np.einsum("ikjk->ij", np.asarray(m).reshape(dim_s, dim_a, dim_s, dim_a))


def trace_norm(m):
    """The sum of the singular values."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def four_state_split(m):
    """The paper's linear extension from states to trace-class operators:
    weights (l1, l2, l3, l4) >= 0 and four ``DensityOperator`` parts with
    m = l1 s1 - l2 s2 + i l3 s3 - i l4 s4, from the positive and negative
    parts of the Hermitian and anti-Hermitian halves of m.  A slot whose
    weight is at most 1e-14, the roundoff of an empty eigenspace part, gets
    weight 0 and the maximally mixed state."""
    m = np.asarray(m, dtype=complex)
    d = len(m)
    adj = m.conj().T
    # both halves are Hermitian to the last bit, so eigh needs no check
    w, v = np.linalg.eigh(np.stack([(m + adj) / 2, (m - adj) / (2j)]))
    vh = v.conj().swapaxes(-1, -2)
    pos = (v * np.clip(w, 0.0, None)[..., None, :]) @ vh
    neg = (v * np.clip(-w, 0.0, None)[..., None, :]) @ vh
    pieces = np.stack([pos, neg], axis=1).reshape(4, d, d)
    lambdas = np.real(np.trace(pieces, axis1=-2, axis2=-1))
    nonzero = lambdas > 1e-14
    lambdas = np.where(nonzero, lambdas, 0.0)
    parts = [p / lam if keep else np.eye(d) / d
             for p, lam, keep in zip(pieces, lambdas, nonzero)]
    return tuple(float(lam) for lam in lambdas), tuple(map(DensityOperator, parts))


def recombine(lambdas, xs):
    """l1 x1 - l2 x2 + i l3 x3 - i l4 x4: the split's reassembly, or a linear
    map's value on the split matrix from its values on the parts."""
    l1, l2, l3, l4 = lambdas
    x1, x2, x3, x4 = xs
    return l1 * x1 - l2 * x2 + 1j * l3 * x3 - 1j * l4 * x4


def half_split(d, seed):
    """Two outcomes, +1 and -1, with Haar-random d/2-fold eigenspaces."""
    v = haar_unitary(d, np.random.default_rng(seed))[:, : d // 2]
    p = v @ v.conj().T
    return DiscreteObservable(((1.0, p), (-1.0, np.eye(d) - p)))


def without_stacks(ins):
    """``ins`` with every map's Kraus stack dropped, not validated: every
    apply takes the rep route."""
    return Instrument(
        ins.observable,
        {a: Superoperator(ins.dim, t.rep) for a, t in ins.components.items()},
        total=Superoperator(ins.dim, ins.total.rep),
        validate_invariants=False,
    )


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
