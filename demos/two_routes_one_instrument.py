"""The operation formula and the conventional probe route agree.

For a batch of random faithful measurement models (random dimensions,
degenerate observables, mixed apparatus states) we extract the instrument
two ways:

1. operation formula: T_a(rho) = T(E_a rho E_a), with the operation
   T(rho) = Tr_A[U (rho x sigma) U+]
2. probe route:       T'_a(rho) = Tr_A[(1 x Q_a) U (rho x sigma) U+ (1 x Q_a)]

and print the worst componentwise difference -- numerically zero, which is
the uniqueness theorem at work: the probe detection contributes nothing.

The probe route need not obey the projection postulate either.  For the
last model we detect the probe with Kraus operators L_{a,k} = sqrt(p_k) W_k
Q_a (Haar-random unitaries W_k, weights p_k), whose effects are still the
Q_a but which leave the apparatus in another state than Q_a does, and
print how far that instrument is from the operation formula's.  Its Kraus
stack is each L_k applied to the apparatus index m of the model's stack
K_{m,j} (Ozawa's measuring process), the product the library's probe route
runs with Q_a.  Both differences must stay within ``VERIFY_TOL``.
"""

import numpy as np

from reduction_lab import (
    Superoperator,
    instrument_of,
    probe_consistency,
    probe_instrument_of,
    random_faithful_model,
    verify_dual_lemma,
    verify_theorem1,
)
from reduction_lab.matcore import VERIFY_TOL, max_abs
from reduction_lab.models import haar_unitary
from reduction_lab.quantum import observable_from_hermitian

rng = np.random.default_rng(1)

for trial in range(6):
    dim_s = int(rng.integers(2, 5))
    g = rng.standard_normal((dim_s, dim_s)) + 1j * rng.standard_normal((dim_s, dim_s))
    obs = observable_from_hermitian((g + g.conj().T) / 2)
    dim_a = len(obs.outcomes) + int(rng.integers(0, 3))
    model = random_faithful_model(obs, dim_a, seed=trial)

    assert probe_consistency(model).passed
    via_operation = instrument_of(model)
    via_probe = probe_instrument_of(model)
    diff = max(
        max_abs(via_operation.component(a).rep - via_probe.component(a).rep)
        for a in obs.eigenvalues
    )
    assert diff <= VERIFY_TOL, diff
    th1 = verify_theorem1(via_operation, seed=trial)
    lemma = verify_dual_lemma(via_operation, seed=trial)
    print(
        f"model {trial}: dim_s={dim_s} dim_a={dim_a} "
        f"outcomes={len(obs.outcomes)}  route diff={diff:.2e}  "
        f"uniqueness residual={th1.max_residual:.2e}  "
        f"dual-lemma residual={lemma.max_residual:.2e}"
    )

# a non-Lueders detection of the probe on the last model
ds, da = model.dim_s, model.dim_a
kraus_rows = model.kraus.reshape(da, -1)  # row m holds every K_{m,j}

worst = 0.0
for a, q in model.probe.outcomes:
    p = rng.random(3)
    ls = [np.sqrt(pk / p.sum()) * haar_unitary(da, rng) @ q for pk in p]
    t_a = Superoperator.from_kraus(
        np.concatenate([(l @ kraus_rows).reshape(-1, ds, ds) for l in ls])
    )
    worst = max(worst, max_abs(t_a.rep - via_operation.component(a).rep))
assert worst <= VERIFY_TOL, worst
print(f"non-Lueders detection of the probe on model {trial}: probe-route diff={worst:.2e}")
