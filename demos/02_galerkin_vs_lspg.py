"""Compare Galerkin and least-squares projection on the same basis.

Shows the two equivalence regimes: explicit schemes give identical
trajectories, while implicit schemes differ by an amount that shrinks
with the time step.
"""

import numpy as np

from morrow import analysis, benchmodels, fom, galerkin, lspg, pod
from morrow.core import SolverOptions, TrialSubspace, lift
from morrow.schemes import make_butcher, make_lmm

model = benchmodels.burgers1d(
    benchmodels.BenchmarkSpec(name="burgers", n=64, viscosity=0.01))
opts = SolverOptions()
T = 0.04

train = fom.integrate(model, make_lmm("backward_euler"), 2.5e-4, T, opts)
x0 = np.asarray(train.states[0])
snaps = pod.SnapshotSet(
    vectors=np.column_stack([np.asarray(x) - x0 for x in train.states[1:]]))
full = pod.compute_pod(snaps, 1.0, reference=x0).basis
sub = TrialSubspace(basis=full.basis[:, :10], reference=x0)
W = lspg.scaled_identity(model.dim)

print("explicit schemes: the two projections coincide")
for scheme in (make_lmm("forward_euler"), make_butcher("rk4")):
    g = galerkin.integrate_galerkin(model, sub, scheme, 1e-4, 5e-3, opts)
    l, _ = lspg.integrate_lspg(model, sub, W, scheme, 1e-4, 5e-3, opts)
    print(f"  {scheme.name:<14s} max difference "
          f"{analysis.compare_trajectories(lift(sub, g), lift(sub, l)):.3e}")

print("\nimplicit backward Euler: difference vanishes as dt -> 0")
for dt in (8e-3, 4e-3, 2e-3, 1e-3):
    g = galerkin.integrate_galerkin(model, sub, make_lmm("backward_euler"),
                                    dt, T, opts)
    l, reports = lspg.integrate_lspg(model, sub, W,
                                     make_lmm("backward_euler"), dt, T, opts)
    gap = analysis.compare_trajectories(lift(sub, g), lift(sub, l))
    iters = sum(r.iterations for r in reports)
    print(f"  dt = {dt:g}: gap {gap:.3e}  ({iters} Gauss-Newton iterations)")
