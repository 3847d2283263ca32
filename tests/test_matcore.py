import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import matcore
from reduction_lab.quantum import PAULI_X, PAULI_Z, DensityOperator
from reduction_lab.superop import Superoperator, apply

from conftest import (
    is_psd,
    partial_trace_apparatus,
    random_density,
    random_hermitian,
    tensor,
    trace_norm,
)


# The dilation pair that tests/conftest.py keeps as a reference, against
# hand-expanded values and an index loop: the model tests read it as their
# independent route.


def test_tensor_identities():
    assert np.array_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))
    assert np.array_equal(
        tensor(np.diag([1.0, 0.0]), np.eye(2)), np.diag([1.0, 1.0, 0.0, 0.0])
    )


def test_tensor_pauli_x_pauli_z():
    # hand-expanded 4x4 Kronecker product
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 1
    expected[1, 3] = -1
    expected[2, 0] = 1
    expected[3, 1] = -1
    assert np.array_equal(tensor(PAULI_X, PAULI_Z), expected)


def _ptrace_oracle(m, dim_s, dim_a):
    out = np.zeros((dim_s, dim_s), dtype=complex)
    for i in range(dim_s):
        for j in range(dim_s):
            for k in range(dim_a):
                out[i, j] += m[i * dim_a + k, j * dim_a + k]
    return out


def test_partial_trace_factorized(rng):
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    out = partial_trace_apparatus(tensor(a, b), 2, 3)
    assert np.allclose(out, a * np.trace(b), atol=1e-12)


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    assert np.allclose(
        partial_trace_apparatus(rho, 2, 2), np.eye(2) / 2, atol=1e-12
    )


def test_partial_trace_matches_index_oracle(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.allclose(
        partial_trace_apparatus(m, 2, 3), _ptrace_oracle(m, 2, 3), atol=1e-13
    )


def test_partial_trace_preserves_trace(rng):
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    assert np.isclose(
        np.trace(partial_trace_apparatus(m, 3, 4)), np.trace(m)
    )


def test_hermitian_eig_pauli_z():
    w, v = matcore.hermitian_eig(PAULI_Z)
    assert np.allclose(w, [-1, 1])
    assert np.allclose(np.abs(v[:, 0]), [0, 1])
    assert np.allclose(np.abs(v[:, 1]), [1, 0])


def test_hermitian_eig_pauli_x():
    w, v = matcore.hermitian_eig(PAULI_X)
    assert np.allclose(w, [-1, 1])
    for k in range(2):
        assert np.allclose(PAULI_X @ v[:, k], w[k] * v[:, k], atol=1e-12)


# ||m||^2 overflows, so a bound that scales with ||m|| is infinite
HUGE_SKEW = np.array([[0.5, 1e200], [-1e200, 0.5]], dtype=complex)


def test_hermitian_eig_rejects_non_hermitian():
    for m in (np.array([[0, 1], [0, 0]], dtype=complex), HUGE_SKEW):
        with np.errstate(over="ignore"):
            assert not matcore.hermitian_stack(m[None])[0][0]
            with pytest.raises(ValueError, match="not Hermitian"):
                matcore.hermitian_eig(m)


# Hermitian, and (m + m^dag)/2 overflows to inf on its diagonal
HUGE_DIAGONAL = np.diag([1e308, -1e308]).astype(complex)


def test_hermitian_part_does_not_overflow():
    with np.errstate(over="ignore"):
        ok, h, _ = matcore.hermitian_stack(np.stack([HUGE_DIAGONAL, np.eye(2)]))
        w, _ = matcore.hermitian_eig(HUGE_DIAGONAL)
    assert ok.all()
    assert np.array_equal(h, [HUGE_DIAGONAL, np.eye(2)])
    assert w.tolist() == [-1e308, 1e308]


def test_max_abs(rng):
    m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert matcore.max_abs(m) == float(np.max(np.abs(m)))
    assert matcore.max_abs(np.zeros((0, 2, 2))) == 0.0


def test_hermitian_eig_reconstruction_many(rng):
    # reconstruction residual stays below 1e-10 * ||m|| across sizes
    for trial in range(1000):
        dim = 2 + trial % 11
        h = random_hermitian(rng, dim)
        w, v = matcore.hermitian_eig(h)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(h - recon) <= 1e-10 * max(np.linalg.norm(h), 1)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
        assert np.all(np.diff(w) >= 0)


def test_trace_norm_examples(rng):
    # the conftest reference that the scenario tests read
    assert np.isclose(trace_norm(np.eye(5)), 5)
    assert np.isclose(trace_norm(PAULI_Z), 2)
    rho = random_density(rng, 4)
    assert np.isclose(trace_norm(rho.matrix), 1, atol=1e-12)


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(PAULI_Z)
    # the one bound is ROUNDOFF_TOL, for the Hermitian test and the spectrum
    assert is_psd(np.diag([0.5, -0.5 * matcore.ROUNDOFF_TOL]))
    assert not is_psd(np.diag([0.5, -2 * matcore.ROUNDOFF_TOL]))
    # non-Hermitian input is simply not PSD
    assert not is_psd(np.array([[1, 1], [0, 1]], dtype=complex))
    with np.errstate(over="ignore"):
        assert not is_psd(HUGE_SKEW)  # its Hermitian part is I/2


def test_psd_refusal_refuses_a_factor_that_overflows():
    # near the float range numpy's Cholesky factor of an indefinite matrix
    # can come back with NaN pivots instead of raising (at seeds 13, 26, 32
    # and 40 among these, on OpenBLAS); the lowest eigenvalue is -0.5e308
    for seed in range(41):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = np.linalg.qr(g)[0]
        with np.errstate(over="ignore"):
            h = (v * [-0.5, 0.5, 1.0]) @ v.conj().T * 1e308
            h = h / 2 + h.conj().T / 2
        if not np.isfinite(h).all():
            continue
        lo = matcore.psd_refusal(h)
        assert lo is not None and lo < -1e307
        with np.errstate(over="ignore"):  # ||h||^2 overflows in the Hermitian test
            assert not is_psd(h)


@pytest.mark.parametrize("d", [1, 2, 4, 16])
def test_psd_refusal_leaves_its_matrix_and_its_shift_unchanged(rng, d):
    v = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    for w in (np.linspace(0.0, 1.0, d), np.linspace(-1e-6, 1.0, d)):
        h = (v * w) @ v.conj().T
        h = (h + h.conj().T) / 2
        before = h.copy()
        matcore.psd_refusal(h)  # accepted, or refused through the eigvalsh
        assert np.array_equal(h, before)
    shift = matcore._psd_shift(d)
    assert matcore._psd_shift(d) is shift and not shift.flags.writeable
    assert np.array_equal(shift, np.eye(d) * (matcore.ROUNDOFF_TOL / 2))
    with pytest.raises(ValueError):
        shift[0, 0] = 1


def test_trace_has_the_bits_of_ndarray_trace(rng, rep_route):
    for d in range(1, 17):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        # the images apply returns: F-ordered on the rep route, C-ordered
        # on the stack route (from d = 4 for one Kraus operator)
        s = Superoperator.from_kraus([m])
        with rep_route():
            images = [apply(s, m)]
        images.append(apply(s, m))
        assert images[0].flags.f_contiguous
        for x in [m, np.asfortranarray(m), m.real.copy(), *images]:
            got, want = matcore.trace(x), x.trace()
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_tolerances_live_in_the_matcore_table():
    # a float in (0, 1e-6] is a numerical bound; only the values of the
    # table's top-level assignments in matcore may spell one out
    paths = sorted(Path(matcore.__file__).parent.glob("*.py"))
    assert "matcore.py" in {p.name for p in paths}
    stray = []
    for path in paths:
        tree = ast.parse(path.read_text())
        table = set()
        if path.name == "matcore.py":
            table = {id(n.value) for n in tree.body if isinstance(n, ast.Assign)}
        stray += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value <= 1e-6 and id(node) not in table
        ]
    assert not stray, "bounds outside the matcore table:\n" + "\n".join(stray)


def test_positivity_is_decided_only_in_matcore():
    # np.linalg.eigvalsh and np.linalg.cholesky decide positivity; only
    # matcore.psd_refusal may name them, so every PSD verdict is its own
    kernels = {"eigvalsh", "cholesky"}

    def named(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in kernels:
                yield node.lineno, node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from (
                    (node.lineno, f"import {alias.name}")
                    for alias in node.names if alias.name in kernels
                )

    stray, refusal = [], set()
    for path in sorted(Path(matcore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found = set(named(tree))
        if path.name == "matcore.py":
            (fn,) = [n for n in tree.body
                     if isinstance(n, ast.FunctionDef) and n.name == "psd_refusal"]
            refusal = set(named(fn))
            found -= refusal
        stray += [f"{path.name}:{line}: {name}" for line, name in sorted(found)]
    assert {name for _, name in refusal} == kernels
    assert not stray, "PSD kernels outside psd_refusal:\n" + "\n".join(stray)


@pytest.mark.parametrize("re, im", [(np.nan, 0), (np.inf, 0), (-np.inf, 1), (0, np.nan),
                                    (1, np.inf), (0, -np.inf)])
def test_as_complex_matrix_rejects_non_finite_in_either_part(re, im):
    bad = complex(re, im)
    assert np.isfinite(bad.real) != np.isfinite(bad.imag)
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        matcore.as_complex_matrix(m)


BOUND_NAMES = {
    "ROUNDOFF_TOL", "VERIFY_TOL", "DEGENERACY_TOL", "UNIT_TOL",
    "PROBABILITY_FLOOR", "tol",
}


def _open_comparisons(test: ast.expr):
    """The comparisons in an ``if`` test that a NaN lets through: a ``>``,
    or a ``<``, ``<=`` or ``>=`` against a matcore bound or ``tol``.  A
    comparison that is the operand of ``not``, also through a method call
    such as ``not (lo >= bound).all()``, raises on NaN and is fine."""
    negated = set()
    for node in ast.walk(test):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            operand = node.operand
            while isinstance(operand, ast.Call) and isinstance(operand.func, ast.Attribute):
                operand = operand.func.value
            negated.add(id(operand))
    for cmp in ast.walk(test):
        if not isinstance(cmp, ast.Compare) or id(cmp) in negated:
            continue
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(cmp) if isinstance(node, (ast.Name, ast.Attribute))
        }
        for op in cmp.ops:
            if isinstance(op, ast.Gt) or (
                isinstance(op, (ast.Lt, ast.LtE, ast.GtE)) and names & BOUND_NAMES
            ):
                yield cmp
                break


def test_raising_comparisons_fail_closed():
    # NaN passes ``x > bound`` and fails ``x <= bound``; an ``if`` whose body
    # raises asks instead that the bound hold, ``not (x <= bound)``, or
    # ``not p > floor`` for a floor, so a NaN raises
    paths = sorted(Path(matcore.__file__).parent.glob("*.py"))
    open_ = [
        f"{path.name}:{cmp.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If)
        and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        for cmp in _open_comparisons(node.test)
    ]
    assert not open_, "raising tests open to NaN:\n" + "\n".join(open_)


@st.composite
def unit_scale_matrices(draw):
    """``(m, hermitian, psd)``: a d x d matrix, d 1-6, whose largest entry
    has modulus 1, so that ||m||_F >= 1, and the verdicts it was built for
    (None where it was not built for one).  A Hermitian part with
    eigenvalues of modulus 0.5-1, all positive or the lowest negative, gets
    a skew part of relative size 1e-13 or 1e-7, far on either side of
    ``ROUNDOFF_TOL``; or m is a random complex matrix."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    form = draw(st.sampled_from(["psd", "indefinite", "random"]))
    if form == "random":
        return g / np.abs(g).max(), None, None
    w = rng.uniform(0.5, 1.0, d)
    if form == "indefinite":
        w[0] = -w[0]
    v = np.linalg.qr(g)[0]
    h = (v * w) @ v.conj().T
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = k - k.conj().T
    skew = draw(st.sampled_from([0.0, 1e-13, 1e-7]))
    m = h + k * (skew * np.linalg.norm(h) / max(np.linalg.norm(k), 1.0))
    hermitian = skew < 1e-10
    return m / np.abs(m).max(), hermitian, hermitian and form == "psd"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(unit_scale_matrices(), st.sampled_from([1e150, 1e300]))
def test_hermitian_verdict_is_scale_invariant(case, s):
    m, hermitian, psd = case
    herm = matcore.hermitian_stack(m[None])[0][0]
    assert hermitian is None or herm == hermitian
    assert psd is None or is_psd(m) == psd
    # |z|^2 of an entry overflows, and so does the cancelling imaginary part
    with np.errstate(over="ignore", invalid="ignore"):
        assert matcore.hermitian_stack((s * m)[None])[0][0] == herm
        if psd is not None:
            assert is_psd(s * m) == psd
        # s * m has trace far from 1: refused, as not Hermitian only if m is not
        with pytest.raises(ValueError) as err:
            DensityOperator(s * m)
    assert ("Hermitian" in str(err.value)) == (not herm)
