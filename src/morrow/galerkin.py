"""Galerkin reduced-order model.

The reduced system d yhat/dt = Phi^T f(x0 + Phi yhat, t), yhat(0) = 0 is
realized as a derived Model of dimension p, so every full-order integrator
applies unchanged; commutativity of projection and time discretization makes
the delegated discrete solves identical to projecting the full residual:
fom.lmm_residual of the reduced model is Phi^T r^n(x0 + Phi yhat).
"""

from dataclasses import replace

import numpy as np

from .core import (JacobianKey, Model, SolverOptions, TrialSubspace,
                   Trajectory, frozen, reconstruct)
from . import fom


def make_galerkin_model(model: Model, sub: TrialSubspace) -> Model:
    """The reduced model.  While model.jacobian returns one read-only J
    that owns its memory (a constant Jacobian, see ``core.Model``), its
    Phi^T J Phi is formed once and returned read-only, so it too is keyed
    by identity.  A sparse J in canonical CSR form is reduced as
    (S Phi)^T Phi, S a kept CSC matrix on J's pattern (so S = J^T) whose
    data is J's: bitwise scipy's Phi^T J Phi, without building J^T per
    call.  S is rebuilt when J's indptr or indices change, each keyed as
    ``core.JacobianKey`` keys an array."""
    phi = sub.basis
    kept = [None, None]  # the constant J and its Phi^T J Phi
    shell = [None, None]  # J's pattern keys and S

    def transposed(csr):
        """S with csr's data: csr^T."""
        keys = shell[0]
        if keys is None or not (keys[0].matches(csr.indptr)
                                and keys[1].matches(csr.indices)):
            from scipy import sparse
            shell[:] = ((JacobianKey(csr.indptr), JacobianKey(csr.indices)),
                        sparse.csc_array((csr.data, csr.indices, csr.indptr),
                                         shape=csr.shape[::-1], copy=True))
        shell[1].data = csr.data
        return shell[1]

    def velocity(yhat, t):
        return phi.T @ model.velocity(reconstruct(sub, yhat), t)

    def jacobian(yhat, t):
        jac = model.jacobian(reconstruct(sub, yhat), t)
        if kept[0] is jac and frozen(jac):
            return kept[1]
        if not isinstance(jac, np.ndarray) and jac.format == "csr" \
                and jac.has_canonical_format:
            return (transposed(jac) @ phi).T @ phi
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
