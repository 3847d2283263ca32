import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import instrument, matcore, superop
from reduction_lab.errors import NotCompletelyPositiveError
from reduction_lab.instrument import instrument_from_operation
from reduction_lab.models import (
    haar_unitary,
    instrument_of,
    operation_of,
    probe_instrument_of,
    random_faithful_model,
)
from reduction_lab.quantum import (
    PureState,
    ket,
    observable_from_hermitian,
    projector_onto,
)
from reduction_lab.superop import (
    KRAUS_ROUTE_MIN_DIM,
    ChoiMatrix,
    Superoperator,
    apply,
    apply_dual_stack,
    apply_stack,
    choi,
    is_trace_preserving,
    kraus_from_choi,
    trace_of_map,
    unit_image,
)

from conftest import (
    dual,
    four_state_split,
    half_split,
    identity_map,
    matrix_unit,
    probed,
    random_density,
    random_hermitian,
    random_matrix,
    recombine,
    without_stacks,
)


def haar(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_vec_convention(rng):
    # column stacking, vec(X)[i + j d] = X[i, j]: vec(AXB) = (B^T kron A) vec(X),
    # so the map with that rep is X -> A X B
    a, x, b = (random_matrix(rng, 3) for _ in range(3))
    vec_x = x.reshape(-1, order="F")
    assert all(vec_x[i + 3 * j] == x[i, j] for i in range(3) for j in range(3))
    assert np.allclose(np.kron(b.T, a) @ vec_x, (a @ x @ b).reshape(-1, order="F"), atol=1e-12)
    assert np.allclose(apply(Superoperator(3, np.kron(b.T, a)), x), a @ x @ b, atol=1e-12)


def test_apply_identity_and_conjugation(rng):
    m = random_matrix(rng, 3)
    assert np.allclose(apply(identity_map(3), m), m)
    u = haar(rng, 3)
    conj = Superoperator.sandwich(u)
    assert np.allclose(apply(conj, np.eye(3)), np.eye(3), atol=1e-12)
    assert np.allclose(apply(conj, m), u @ m @ u.conj().T, atol=1e-12)


def test_apply_linear_on_decomposition(rng):
    s = Superoperator.sandwich(haar(rng, 3))
    m = random_matrix(rng, 3)
    lambdas, parts = four_state_split(m)
    combo = recombine(lambdas, [apply(s, p.matrix) for p in parts])
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
        "transpose": probed(d, lambda x: x.T),
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


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal within 1e-13 of the images' scale."""
    return got.shape == want.shape and matcore.max_abs(got - want) <= 1e-13 * max(
        1.0, matcore.max_abs(want)
    )


@st.composite
def route_cases(draw):
    """``(d, n, m, stack)``: a d x d map with n Kraus operators applied to m
    matrices, drawn on the stack side of the route rule (d >= 9, 4n <= d)
    when ``stack`` is true and on the rep side otherwise."""
    stack = draw(st.booleans())
    if stack:
        d = draw(st.integers(KRAUS_ROUTE_MIN_DIM, 20))
        n = draw(st.integers(1, d // 4))
    else:
        d = draw(st.integers(1, 20))
        n = draw(st.integers(d // 4 + 1 if d >= KRAUS_ROUTE_MIN_DIM else 1, d + 1))
    return d, n, draw(st.integers(1, 21)), stack


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(route_cases(), st.integers(0, 2**32 - 1))
def test_both_routes_give_the_same_images(case, seed):
    d, n, m, stack = case
    rng = np.random.default_rng(seed)
    s = Superoperator.from_kraus([random_matrix(rng, d) for _ in range(n)])
    plain = Superoperator(d, s.rep)  # no stack: always the rep route
    assert superop._on_stack(s) == stack and not superop._on_stack(plain)
    ms = np.stack([random_matrix(rng, d) for _ in range(m)])
    assert _close(apply(s, ms[0]), apply(plain, ms[0]))
    assert _close(apply_stack(s, ms), apply_stack(plain, ms))
    assert _close(apply_dual_stack(s, ms), apply_dual_stack(plain, ms))
    # the kernel itself, also where the rule keeps the rep route
    assert _close(superop._kraus_sum(s.kraus, ms), apply_stack(plain, ms))


@pytest.mark.parametrize("d", [3, 8, 9, 16])
def test_an_empty_stack_and_a_sandwich_take_the_route_rule(rng, d):
    a = random_matrix(rng, d)
    ms = np.stack([random_matrix(rng, d) for _ in range(3)])
    zero, sandwich = Superoperator.zero(d), Superoperator.sandwich(a)
    # 4n <= d holds for n = 0 and 1 from d = 4, so only the floor decides
    assert superop._on_stack(zero) == superop._on_stack(sandwich) == (d >= KRAUS_ROUTE_MIN_DIM)
    for f in (apply_stack, apply_dual_stack):
        assert np.array_equal(f(zero, ms), np.zeros_like(ms))
    assert np.array_equal(apply(zero, ms[0]), np.zeros((d, d)))
    plain = Superoperator(d, sandwich.rep)
    want = a @ ms @ a.conj().T
    assert _close(apply_stack(sandwich, ms), want)
    assert _close(apply_stack(sandwich, ms), apply_stack(plain, ms))
    assert _close(apply(sandwich, ms[1]), want[1])
    assert _close(apply_dual_stack(sandwich, ms), a.conj().T @ ms @ a)
    assert _close(apply_dual_stack(sandwich, ms), apply_dual_stack(plain, ms))


@pytest.mark.parametrize("d", [9, 12, 16])
def test_a_stack_route_map_keeps_read_only_adjoint_rows_and_no_rep(rng, d):
    n = d // 4
    s = Superoperator.from_kraus([random_matrix(rng, d) for _ in range(n)])
    assert superop._on_stack(s) and not {"rep", "_kraus_adjoint"} & set(vars(s))
    apply(s, random_matrix(rng, d))
    rows = vars(s)["_kraus_adjoint"]
    # the per-call form the applies used to compute, bit for bit
    assert np.array_equal(rows, s.kraus.conj().transpose(0, 2, 1).reshape(n * d, d))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0
    # later applies read the same array, and none of them wrote a rep
    apply_stack(s, random_matrix(rng, d)[None])
    apply_dual_stack(s, random_matrix(rng, d)[None])
    assert s._kraus_adjoint is rows and "rep" not in vars(s)


@pytest.mark.parametrize("d, n", [(8, 2), (9, 1), (9, 2), (12, 3), (16, 4), (16, 5)])
def test_applies_give_the_same_bits_on_a_cold_and_a_warm_cache(rng, d, n):
    # both sides of KRAUS_ROUTE_MIN_DIM and of 4n <= d
    ks = np.stack([random_matrix(rng, d) for _ in range(n)])
    ms = np.stack([random_matrix(rng, d) for _ in range(5)])
    on_stack = d >= KRAUS_ROUTE_MIN_DIM and 4 * n <= d
    # each function with its input and the form that rebuilt the adjoints
    # on every call
    calls = [
        (apply, ms[0], lambda: superop._kraus_sum(ks, ms[:1])[0]),
        (apply_stack, ms, lambda: superop._kraus_sum(ks, ms)),
        (apply_dual_stack, ms, lambda: superop._kraus_sum(ks.conj().transpose(0, 2, 1), ms)),
    ]
    for f, x, per_call in calls:
        s = Superoperator.from_kraus(ks)  # a cold cache for each function
        assert superop._on_stack(s) == on_stack
        cold = f(s, x)
        assert ("_kraus_adjoint" in vars(s)) == on_stack
        assert np.array_equal(f(s, x), cold)
        if on_stack:
            assert np.array_equal(cold, per_call())


@pytest.mark.parametrize("d", [3, 12])
def test_a_sum_of_maps_holds_their_stacks_and_the_sum_of_their_reps(rng, d):
    stacked = [Superoperator.from_kraus([random_matrix(rng, d) for _ in range(n)]) for n in (1, 2, 3)]
    plain = Superoperator(d, random_matrix(rng, d * d))
    for maps in (stacked, [*stacked, plain], []):
        total = Superoperator.sum_of(d, maps)
        # the component reps added to zeros in order, whichever route
        want = np.zeros((d * d, d * d), dtype=complex)
        for t in maps:
            want = want + t.rep
        assert np.array_equal(total.rep, want)
        if plain in maps:
            assert total.kraus is None
        else:
            stacks = np.concatenate([np.zeros((0, d, d)), *(t.kraus for t in maps)])
            assert np.array_equal(total.kraus, stacks)
            assert superop._on_stack(total) == (d >= KRAUS_ROUTE_MIN_DIM and 4 * len(stacks) <= d)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        Superoperator.sum_of(d, [*stacked, identity_map(d + 1)])


@pytest.mark.parametrize("ds, da, kernel_calls", [(12, 2, 14), (8, 16, 0)])
def test_a_faithful_model_applies_through_its_stack_when_the_rule_says(
    rng, monkeypatch, ds, da, kernel_calls
):
    # (12,2): 2 Kraus operators per map, the stack route; (8,16): 16, the rep
    model = random_faithful_model(half_split(ds, 3), da, seed=3, sigma_rank=1)
    ins = instrument_of(model)
    calls = 0
    original = superop._kraus_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    g = random_matrix(rng, ds)[:, 0]
    rho = PureState(g / np.linalg.norm(g)).to_density()

    def outputs(ins):
        return (
            # 4 applies per outcome, then T* and each T_a*
            [r.residual for r in instrument.verify_theorem1(ins).records],
            [r.residual for r in instrument.verify_dual_lemma(ins).records],
            instrument.outcome_probability(ins, 1.0, rho),
            instrument.reduce(ins, 1.0, rho).matrix,
            instrument.nonselective(ins, rho).matrix,
        )

    monkeypatch.setattr(superop, "_kraus_sum", counted)
    got = outputs(ins)
    assert calls == kernel_calls
    # the same maps without their stacks: the rep route gives the same outputs
    want = outputs(without_stacks(ins))
    assert calls == kernel_calls
    for x, y in zip(got, want):
        assert matcore.max_abs(np.asarray(x) - np.asarray(y)) <= 1e-13


@pytest.mark.parametrize("ds, da", [(12, 2), (8, 16)])
def test_only_a_map_off_the_stack_route_builds_its_rep(rng, monkeypatch, ds, da):
    # (12,2): every map of the operation route holds 2 Kraus operators and
    # none writes its rep; (8,16): 16 operators under the floor, and every
    # map writes its rep when it is built, as from_kraus always did
    model = random_faithful_model(half_split(ds, 3), da, seed=3, sigma_rank=1)
    g = random_matrix(rng, ds)[:, 0]
    rho = PureState(g / np.linalg.norm(g)).to_density()
    builds = []
    original = superop._rep_of
    monkeypatch.setattr(superop, "_rep_of", lambda ks: builds.append(ks) or original(ks))
    operation = instrument_of(model), instrument_from_operation(operation_of(model), model.observable)
    maps = [t for ins in operation for t in (ins.total, *ins.components.values())]
    on_stack = ds >= KRAUS_ROUTE_MIN_DIM
    assert all(superop._on_stack(t) == on_stack for t in maps)
    assert all(("rep" in vars(t)) != on_stack for t in maps)
    assert len(builds) == (0 if on_stack else len(maps))
    # the probe route's total holds all 4 of its components' operators:
    # off the route at d = 12, so building and validating it read reps,
    # one per component and none of a partial sum
    built = len(builds)
    probe = probe_instrument_of(model)
    assert not superop._on_stack(probe.total) and "rep" in vars(probe.total)
    assert len(builds) == built + 2
    built = len(builds)
    for ins in (*operation, probe):
        instrument.verify_theorem1(ins)
        instrument.verify_dual_lemma(ins)
        instrument.outcome_probability(ins, 1.0, rho)
        instrument.reduce(ins, 1.0, rho)
        instrument.nonselective(ins, rho)
    assert len(builds) == built
    assert all(("rep" in vars(t)) != on_stack for t in maps)


def test_a_stack_route_instrument_holds_no_rep_until_one_is_read():
    d = 16
    ins = instrument_of(random_faithful_model(half_split(d, 5), 2, seed=5, sigma_rank=1))
    maps = [ins.total, *ins.components.values()]
    # two d x d Kraus operators each, no d^4 array
    assert all(set(vars(t)) == {"dim", "kraus"} and t.kraus.shape == (2, d, d) for t in maps)
    rep = ins.total.rep
    assert rep.shape == (d * d, d * d) and ins.total.rep is rep
    assert all("rep" not in vars(t) for t in ins.components.values())


def test_maps_compare_and_hash_by_identity(rng):
    a, b = Superoperator(2, np.eye(4)), Superoperator(2, np.eye(4))
    assert a == a and a != b and len({a, b, a}) == 2
    c = choi(a)
    assert c == c and c != choi(a) and hash(c) == hash(c)
    s = Superoperator.from_kraus([random_matrix(rng, 12) for _ in range(3)])
    assert superop._on_stack(s)
    assert repr(s) == "Superoperator(dim=12)" and s == s and len({s, s}) == 1
    # neither the comparison, the hash nor repr read the rep
    assert "rep" not in vars(s)


def test_decompose_density_is_first_slot(rng):
    rho = random_density(rng, 3)
    lambdas, parts = four_state_split(rho.matrix)
    assert np.isclose(lambdas[0], 1.0, atol=1e-12)
    assert np.allclose(parts[0].matrix, rho.matrix, atol=1e-10)
    assert lambdas[1:] == (0.0, 0.0, 0.0)

    neg, _ = four_state_split(-rho.matrix)
    assert np.isclose(neg[1], 1.0, atol=1e-12)
    assert neg[0] == 0.0


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
        lambdas, parts = four_state_split(m)
        assert {i for i in range(4) if lambdas[i] == 0.0} == empty, name
        for i in empty:
            assert np.array_equal(parts[i].matrix, np.eye(3) / 3), name
        reassembled = recombine(lambdas, [p.matrix for p in parts])
        assert matcore.max_abs(reassembled - m) <= 1e-12, name


def _reassembled(m):
    lambdas, parts = four_state_split(m)
    return recombine(lambdas, [p.matrix for p in parts])


def test_decompose_reassembles(rng):
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0
    assert matcore.max_abs(_reassembled(m) - m) <= 1e-12
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        x = random_matrix(rng, dim)
        assert matcore.max_abs(_reassembled(x) - x) <= 1e-10 * max(
            matcore.max_abs(x), 1
        )


def test_dual_examples(rng):
    one = identity_map(3)
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


def test_dual_linear_over_sums(rng):
    parts = [Superoperator(2, random_matrix(rng, 4)) for _ in range(3)]
    total = Superoperator.sum_of(2, parts)
    summed = Superoperator.sum_of(2, [dual(t) for t in parts])
    assert matcore.max_abs(dual(total).rep - summed.rep) == 0.0


def test_choi_identity_map():
    c = choi(identity_map(2))
    w = np.linalg.eigvalsh(c.matrix)
    assert np.isclose(np.trace(c.matrix).real, 2.0)
    assert np.isclose(w[-1], 2.0) and np.allclose(w[:-1], 0, atol=1e-12)


def test_choi_depolarizing():
    d = 3
    s = probed(d, lambda x: np.trace(x) * np.eye(d) / d)
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
                                  (12, 3), (16, 4), (16, 64), (20, 1)])
def test_from_kraus_rep_matches_the_tensordot_form(rng, d, n):
    ks = np.stack([random_matrix(rng, d) for _ in range(n)])
    rep = np.tensordot(ks.conj(), ks, axes=(0, 0)).transpose(0, 2, 1, 3)
    s = Superoperator.from_kraus(ks)
    # on the stack route ((12,3), (16,4), (20,1)) the rep is computed when
    # first read, with the same bits
    assert ("rep" in vars(s)) != superop._on_stack(s)
    assert np.array_equal(s.rep, rep.reshape(d * d, d * d))
    assert "rep" in vars(s)


@pytest.mark.parametrize("d", [8, 9, 10, 11, 12, 13, 17, 20])
def test_from_kraus_rep_is_the_kron_sum_on_both_sides_of_the_block_floor(rng, d):
    # below superop._BLOCK_REP_MIN_DIM the rep is one GEMM regrouped, from it
    # d^2 block products written in place; the kron sum adds in another
    # order, so the entries agree to roundoff
    for n in sorted({1, 2, max(1, d // 4), d, 4 * d}):
        ks = np.stack([random_matrix(rng, d) for _ in range(n)])
        want = sum(np.kron(k.conj(), k) for k in ks)
        rep = Superoperator.from_kraus(ks).rep
        assert rep.shape == (d * d, d * d) and rep.dtype == np.complex128
        assert rep.flags.c_contiguous
        assert matcore.max_abs(rep - want) <= 1e-14 * matcore.max_abs(want), n


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
        identity_map(3),
        dual(s),
        probed(3, lambda x: x),
        Superoperator.sum_of(3, [s, Superoperator(3, s.rep)]),
    ):
        assert m.kraus is None and choi(m).kraus is None
    # sum_of concatenates: the stack reassembles to the rep
    big = Superoperator.from_kraus([random_matrix(rng, 3) for _ in range(4)])
    for m, n in (
        (Superoperator.sum_of(3, [s, Superoperator.sandwich(p)]), 3),
        (Superoperator.sum_of(3, [Superoperator.zero(3), s]), 2),
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
    transpose = probed(2, lambda x: x.T)
    with pytest.raises(NotCompletelyPositiveError) as err:
        kraus_from_choi(choi(transpose))
    assert err.value.most_negative_eigenvalue < -0.5


def test_trace_of_map(rng):
    rho = random_density(rng, 3)
    u = haar(rng, 3)
    assert np.isclose(trace_of_map(Superoperator.sandwich(u), rho.matrix), 1.0)
    assert trace_of_map(Superoperator.zero(3), rho.matrix) == 0
    assert is_trace_preserving(Superoperator.sandwich(u))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 12])
def test_unit_image_is_the_dual_applied_to_the_identity(rng, d):
    # at d = 12 the stack maps take the stack route: sum_k K_k^dagger K_k
    a = random_matrix(rng, d)
    maps = [
        Superoperator.from_kraus([random_matrix(rng, d) for _ in range(3)]),
        Superoperator.zero(d),
        Superoperator(d, random_matrix(rng, d * d)),
        probed(d, lambda x: a @ x.T),
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
        probed(2, lambda x: x + np.inf)
