import numpy as np
import pytest

from reduction_lab import matcore
from reduction_lab.errors import NotCompletelyPositiveError
from reduction_lab.instrument import instrument_from_operation
from reduction_lab.models import (
    haar_unitary,
    instrument_of,
    operation_of,
    probe_instrument_of,
    random_faithful_model,
)
from reduction_lab.quantum import ket, observable_from_hermitian, projector_onto
from reduction_lab.superop import (
    ChoiMatrix,
    Superoperator,
    apply,
    apply_dual_stack,
    apply_stack,
    choi,
    decompose_trace_class,
    dual,
    is_trace_preserving,
    kraus_from_choi,
    matrix_unit,
    trace_of_map,
    unit_image,
    vec,
)

from conftest import random_density, random_hermitian, random_matrix


def haar(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_vec_convention(rng):
    # column stacking: vec(AXB) = (B^T kron A) vec(X)
    a, x, b = (random_matrix(rng, 3) for _ in range(3))
    assert np.allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b), atol=1e-12)
    assert np.allclose(vec(x).reshape(3, 3, order="F"), x)


def test_apply_identity_and_conjugation(rng):
    m = random_matrix(rng, 3)
    assert np.allclose(apply(Superoperator.identity(3), m), m)
    u = haar(rng, 3)
    conj = Superoperator.sandwich(u)
    assert np.allclose(apply(conj, np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(apply(conj, m), u @ m @ u.conj().T, atol=1e-12)


def test_apply_linear_on_decomposition(rng):
    s = Superoperator.sandwich(haar(rng, 3))
    m = random_matrix(rng, 3)
    dec = decompose_trace_class(m)
    l1, l2, l3, l4 = dec.lambdas
    p1, p2, p3, p4 = (p.matrix for p in dec.parts)
    combo = (
        l1 * apply(s, p1) - l2 * apply(s, p2)
        + 1j * l3 * apply(s, p3) - 1j * l4 * apply(s, p4)
    )
    assert np.allclose(apply(s, m), combo, atol=1e-10)


def test_apply_stack_matches_apply(rng):
    s = Superoperator(3, random_matrix(rng, 9))
    ms = np.stack([random_matrix(rng, 3) for _ in range(5)])
    out = apply_stack(s, ms)
    assert out.shape == ms.shape
    for m, image in zip(ms, out):
        assert matcore.max_abs(image - apply(s, m)) <= 1e-13
    with pytest.raises(ValueError):
        apply_stack(s, ms[0])
    with pytest.raises(ValueError):
        apply_stack(s, np.zeros((2, 2, 2)))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 7])
def test_apply_dual_stack_matches_the_dual_map(rng, d, n):
    a, b = random_matrix(rng, d), random_matrix(rng, d)
    maps = {
        "kraus": Superoperator.from_kraus([random_matrix(rng, d) for _ in range(3)]),
        "a x b": Superoperator(d, np.kron(b.T, a)),
        "transpose": Superoperator.from_function(d, lambda x: x.T),
        "generic": Superoperator(d, random_matrix(rng, d * d)),
    }
    ms = np.stack([random_matrix(rng, d) for _ in range(n)])
    for name, s in maps.items():
        out = apply_dual_stack(s, ms)
        assert out.shape == ms.shape, name
        sd = dual(s)
        for want in (apply_stack(sd, ms), np.stack([apply(sd, m) for m in ms])):
            bound = 1e-13 * max(1.0, matcore.max_abs(want))
            assert matcore.max_abs(out - want) <= bound, name
    s = maps["kraus"]
    with pytest.raises(ValueError):
        apply_dual_stack(s, ms[0])
    with pytest.raises(ValueError):
        apply_dual_stack(s, np.zeros((2, d + 1, d + 1)))


def test_decompose_density_is_first_slot(rng):
    rho = random_density(rng, 3)
    dec = decompose_trace_class(rho.matrix)
    assert np.isclose(dec.lambdas[0], 1.0, atol=1e-12)
    assert np.allclose(dec.parts[0].matrix, rho.matrix, atol=1e-10)
    assert dec.lambdas[1:] == (0.0, 0.0, 0.0)

    neg = decompose_trace_class(-rho.matrix)
    assert np.isclose(neg.lambdas[1], 1.0, atol=1e-12)
    assert neg.lambdas[0] == 0.0


def test_decompose_empty_slots_hold_the_maximally_mixed_state(rng):
    h = random_hermitian(rng, 3)
    inputs = {
        "hermitian": (h, {2, 3}),
        "anti_hermitian": (1j * h, {0, 1}),
        "psd": (random_density(rng, 3).matrix * 2.5, {1, 2, 3}),
        "zero": (np.zeros((3, 3), dtype=complex), {0, 1, 2, 3}),
        "general": (random_matrix(rng, 3), set()),
    }
    for name, (m, empty) in inputs.items():
        dec = decompose_trace_class(m)
        assert {i for i in range(4) if dec.lambdas[i] == 0.0} == empty, name
        for i in empty:
            assert np.array_equal(dec.parts[i].matrix, np.eye(3) / 3), name
        assert matcore.max_abs(dec.reassemble() - m) <= 1e-12, name


def test_decompose_reassembles(rng):
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    assert matcore.max_abs(decompose_trace_class(m).reassemble() - m) <= 1e-12
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        x = random_matrix(rng, dim)
        dec = decompose_trace_class(x)
        assert matcore.max_abs(dec.reassemble() - x) <= 1e-10 * max(
            matcore.max_abs(x), 1
        )


def test_dual_examples(rng):
    one = Superoperator.identity(3)
    assert matcore.max_abs(dual(one).rep - one.rep) <= 1e-12
    u = haar(rng, 3)
    want = Superoperator.sandwich(u.conj().T)
    assert matcore.max_abs(dual(Superoperator.sandwich(u)).rep - want.rep) <= 1e-12


def test_dual_defining_relation(rng):
    s = Superoperator(3, random_matrix(rng, 9))
    sd = dual(s)
    for _ in range(100):
        x, rho = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = np.trace(x @ apply(s, rho))
        rhs = np.trace(apply(sd, x) @ rho)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1)


def test_double_dual(rng):
    s = Superoperator(4, random_matrix(rng, 16))
    assert matcore.max_abs(dual(dual(s)).rep - s.rep) <= 1e-12


def test_dual_linear_over_sums(rng):
    parts = [Superoperator(2, random_matrix(rng, 4)) for _ in range(3)]
    total = parts[0] + parts[1] + parts[2]
    summed = dual(parts[0]) + dual(parts[1]) + dual(parts[2])
    assert matcore.max_abs(dual(total).rep - summed.rep) == 0.0


def test_choi_identity_map():
    c = choi(Superoperator.identity(2))
    w = np.linalg.eigvalsh(c.matrix)
    assert np.isclose(np.trace(c.matrix).real, 2.0)
    assert np.isclose(w[-1], 2.0) and np.allclose(w[:-1], 0, atol=1e-12)


def test_choi_depolarizing():
    d = 3
    s = Superoperator.from_function(d, lambda x: np.trace(x) * np.eye(d) / d)
    assert np.allclose(choi(s).matrix, np.eye(d * d) / d, atol=1e-12)


def test_choi_rank_counts_kraus(rng):
    kraus = [random_matrix(rng, 3) * 0.3 for _ in range(2)]
    s = Superoperator.from_kraus(kraus)
    reference = sum(np.kron(k.conj(), k) for k in kraus)
    assert matcore.max_abs(s.rep - reference) <= 1e-12
    assert np.array_equal(Superoperator.from_kraus(np.stack(kraus)).rep, s.rep)
    with pytest.raises(ValueError):
        Superoperator.from_kraus([np.ones((2, 3))])
    with pytest.raises(ValueError):
        Superoperator.from_kraus([np.full((2, 2), np.nan)])
    w = np.linalg.eigvalsh(choi(s).matrix)
    assert np.sum(w > 1e-10) == 2
    assert w[0] >= -1e-10


@pytest.mark.parametrize("d, n", [(2, 1), (2, 8), (3, 5), (4, 16), (6, 2), (8, 32),
                                  (12, 3), (16, 64), (20, 1)])
def test_from_kraus_rep_matches_the_tensordot_form(rng, d, n):
    ks = np.stack([random_matrix(rng, d) for _ in range(n)])
    rep = np.tensordot(ks.conj(), ks, axes=(0, 0)).transpose(0, 2, 1, 3)
    assert np.array_equal(Superoperator.from_kraus(ks).rep, rep.reshape(d * d, d * d))


def test_choi_is_the_block_matrix_of_unit_images(rng):
    s = Superoperator(3, random_matrix(rng, 9))
    blocks = [[apply(s, matrix_unit(3, i, j)) for j in range(3)] for i in range(3)]
    assert np.array_equal(choi(s).matrix, np.block(blocks))


def test_kraus_from_choi_reconstruction(rng):
    u = haar(rng, 2)
    ks = kraus_from_choi(choi(Superoperator.sandwich(u)))
    assert len(ks) == 1
    assert np.allclose(np.abs(ks[0]), np.abs(u), atol=1e-10)

    p = projector_onto(ket(2, 0))
    ks = kraus_from_choi(choi(Superoperator.sandwich(p)))
    assert len(ks) == 1
    assert np.allclose(np.abs(ks[0]), p, atol=1e-10)

    raw = [random_matrix(rng, 3) * 0.4 for _ in range(3)]
    s = Superoperator.from_kraus(raw)
    rebuilt = Superoperator.from_kraus(kraus_from_choi(choi(s)))
    assert matcore.max_abs(rebuilt.rep - s.rep) <= 1e-9

    # the stacked route (one SVD of the Kraus stack) and the unstacked one
    # (eigh of the Choi matrix) give the same operators over a corpus of
    # faithful models: degenerate observables, sigma of rank 1 and 2,
    # components of the dilation, probe and operation routes
    compared = 0
    for ds, degenerate, rank in (
        (2, False, 1), (3, False, 2), (4, True, 2), (6, False, 1),
        (6, True, 2), (8, True, 1), (12, True, 2),
    ):
        vals = np.arange(ds, dtype=float)
        if degenerate:
            vals = np.where(vals < ds // 2, 1.0, -1.0)
        u = haar_unitary(ds, rng)
        obs = observable_from_hermitian(u @ np.diag(vals) @ u.conj().T)
        n = len(obs.outcomes)
        model = random_faithful_model(obs, 2 * n, seed=int(rng.integers(1 << 30)),
                                      sigma_rank=rank)
        built = (
            instrument_of(model),
            probe_instrument_of(model),
            instrument_from_operation(operation_of(model), obs),
        )
        for t in (t for ins in built for t in ins.components.values()):
            c = choi(t)
            # every route keeps its stack, the operation route's too: a
            # product with the one-operator sandwich(E_a) is always kept
            assert c.kraus is not None, (ds, degenerate, rank)
            compared += 1
            stacked = kraus_from_choi(c)
            unstacked = kraus_from_choi(ChoiMatrix(ds, c.matrix))
            assert len(stacked) == len(unstacked) >= 1, (ds, degenerate, rank)
            for k1, k2 in zip(stacked, unstacked):
                assert matcore.max_abs(k1 - k2) <= 1e-12, (ds, degenerate, rank)
            rebuilt = Superoperator.from_kraus(stacked)
            assert matcore.max_abs(rebuilt.rep - t.rep) <= 1e-12
            # the convention: ascending weight, largest-modulus entry (the
            # first in C order) real and positive
            weights = [np.linalg.norm(k) ** 2 for k in stacked]
            assert weights == sorted(weights)
            for k in stacked:
                pivot = k.flat[np.argmax(np.abs(k))]
                assert pivot.imag == 0.0 and pivot.real > 0
    assert compared == 57


def test_kraus_from_choi_takes_the_eigh_route_above_d_squared(rng, monkeypatch):
    calls = 0
    original = matcore.hermitian_eig

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(matcore, "hermitian_eig", counted)
    # 12 operators against d^2 = 9: the Choi eigh is the cheaper route
    for n, eighs in ((9, 0), (12, 1)):
        s = Superoperator.from_kraus([random_matrix(rng, 3) * 0.3 for _ in range(n)])
        c = choi(s)
        assert len(c.kraus) == n
        calls = 0
        stacked = kraus_from_choi(c)
        assert calls == eighs
        unstacked = kraus_from_choi(ChoiMatrix(3, c.matrix))
        assert len(stacked) == len(unstacked) == 9
        for k1, k2 in zip(stacked, unstacked):
            assert matcore.max_abs(k1 - k2) <= 1e-12


def test_kraus_stack_provenance(rng):
    raw = np.stack([random_matrix(rng, 3) * 0.4 for _ in range(2)])
    s = Superoperator.from_kraus(raw)
    p = projector_onto(ket(3, 0))
    assert s.kraus.shape == (2, 3, 3)
    assert Superoperator.sandwich(p).kraus.shape == (1, 3, 3)
    assert Superoperator.zero(3).kraus.shape == (0, 3, 3)
    # the stack is a read-only copy: neither the caller's array nor the
    # stack itself can drift away from the rep
    raw[0] = 0.0
    assert matcore.max_abs(Superoperator.from_kraus(s.kraus).rep - s.rep) == 0.0
    with pytest.raises(ValueError):
        s.kraus[0, 0, 0] = 1.0
    # maps that are not built as a Kraus sum carry no stack
    for m in (
        Superoperator(3, s.rep),
        Superoperator.identity(3),
        dual(s),
        Superoperator.from_function(3, lambda x: x),
        s + Superoperator(3, s.rep),
    ):
        assert m.kraus is None and choi(m).kraus is None
    # + concatenates: the stack reassembles to the rep
    big = Superoperator.from_kraus([random_matrix(rng, 3) for _ in range(4)])
    for m, n in (
        (s + Superoperator.sandwich(p), 3),
        (Superoperator.zero(3) + s, 2),
    ):
        assert len(m.kraus) == n
        assert choi(m).kraus is m.kraus
        assert matcore.max_abs(Superoperator.from_kraus(m.kraus).rep - m.rep) <= 1e-12
    # compose is rep @ rep and keeps no stack, whatever its factors carry
    wide = Superoperator.from_kraus([random_matrix(rng, 3) for _ in range(12)])
    for m, n in (
        (s, Superoperator(3, s.rep)), (s, Superoperator.sandwich(p)), (s, s), (big, s),
        (wide, Superoperator.sandwich(p)), (Superoperator.sandwich(p), wide),
        (big, big), (wide, s), (Superoperator.zero(3), s),
    ):
        product = m.compose(n)
        assert product.kraus is None and choi(product).kraus is None
        assert matcore.max_abs(product.rep - m.rep @ n.rep) == 0.0


def test_kraus_from_choi_rejects_non_cp():
    # the transpose map is positive but not completely positive
    transpose = Superoperator.from_function(2, lambda x: x.T)
    with pytest.raises(NotCompletelyPositiveError) as err:
        kraus_from_choi(choi(transpose))
    assert err.value.most_negative_eigenvalue < -0.5


def test_trace_of_map(rng):
    rho = random_density(rng, 3)
    u = haar(rng, 3)
    assert np.isclose(trace_of_map(Superoperator.sandwich(u), rho.matrix), 1.0)
    assert trace_of_map(Superoperator.zero(3), rho.matrix) == 0
    assert is_trace_preserving(Superoperator.sandwich(u))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_unit_image_is_the_dual_applied_to_the_identity(rng, d):
    a = random_matrix(rng, d)
    maps = [
        Superoperator.from_kraus([random_matrix(rng, d) for _ in range(3)]),
        Superoperator.zero(d),
        Superoperator(d, random_matrix(rng, d * d)),
        Superoperator.from_function(d, lambda x: a @ x.T),
    ]
    one = np.eye(d, dtype=complex)
    for s in maps:
        expected = apply(dual(s), one)
        bound = 1e-15 * max(1.0, matcore.max_abs(expected))
        assert matcore.max_abs(unit_image(s) - expected) <= bound


def test_the_boundary_still_rejects_bad_maps(rng):
    rep = random_matrix(rng, 4)
    rep[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Superoperator(2, rep)
    with pytest.raises(ValueError, match="non-finite"):
        Superoperator.from_function(2, lambda x: x + np.inf)
