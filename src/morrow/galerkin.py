"""Galerkin reduced-order model.

The reduced system d yhat/dt = Phi^T f(x0 + Phi yhat, t), yhat(0) = 0 is
realized as a derived Model of dimension p, so every full-order integrator
applies unchanged; commutativity of projection and time discretization makes
the delegated discrete solves identical to projecting the full residual:
fom.lmm_residual of the reduced model is Phi^T r^n(x0 + Phi yhat).
"""

from dataclasses import replace

import numpy as np

from .core import Model, SolverOptions, TrialSubspace, Trajectory, reconstruct
from . import fom


def make_galerkin_model(model: Model, sub: TrialSubspace) -> Model:
    phi = sub.basis

    def velocity(yhat, t):
        return phi.T @ model.velocity(reconstruct(sub, yhat), t)

    def jacobian(yhat, t):
        return phi.T @ model.jacobian(reconstruct(sub, yhat), t) @ phi

    return Model(dim=sub.p, velocity=velocity, jacobian=jacobian,
                 initial_state=np.zeros(sub.p))


def integrate_galerkin(model: Model, sub: TrialSubspace, scheme, dt: float,
                       T: float,
                       opts: SolverOptions = SolverOptions()) -> Trajectory:
    gm = make_galerkin_model(model, sub)
    return replace(fom.integrate(gm, scheme, dt, T, opts), kind="galerkin")
