"""Galerkin reduced-order model.

The reduced system d yhat/dt = Phi^T f(x0 + Phi yhat, t), yhat(0) = 0 is
realized as a derived Model of dimension p, so every full-order integrator
applies unchanged; commutativity of projection and time discretization makes
the delegated discrete solves identical to projecting the full residual:
fom.lmm_residual of the reduced model is Phi^T r^n(x0 + Phi yhat).
"""

from dataclasses import replace

import numpy as np

from .core import (Model, SolverOptions, TrialSubspace, Trajectory, frozen,
                   reconstruct)
from . import fom


def make_galerkin_model(model: Model, sub: TrialSubspace) -> Model:
    """The reduced model.  While model.jacobian returns one read-only J
    that owns its memory (a constant Jacobian, see ``core.Model``), its
    Phi^T J Phi is formed once and returned read-only, so it too is keyed
    by identity."""
    phi = sub.basis
    kept = [None, None]  # the constant J and its Phi^T J Phi

    def velocity(yhat, t):
        return phi.T @ model.velocity(reconstruct(sub, yhat), t)

    def jacobian(yhat, t):
        jac = model.jacobian(reconstruct(sub, yhat), t)
        if kept[0] is jac and frozen(jac):
            return kept[1]
        reduced = phi.T @ jac @ phi
        if frozen(jac):
            reduced.setflags(write=False)
            kept[:] = jac, reduced
        return reduced

    return Model(dim=sub.p, velocity=velocity, jacobian=jacobian,
                 initial_state=np.zeros(sub.p))


def integrate_galerkin(model: Model, sub: TrialSubspace, scheme, dt: float,
                       T: float,
                       opts: SolverOptions = SolverOptions()) -> Trajectory:
    gm = make_galerkin_model(model, sub)
    return replace(fom.integrate(gm, scheme, dt, T, opts), kind="galerkin")
