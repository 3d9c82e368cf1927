"""Experiment metrics: relative trajectory error, increment projection
error, spectral time scales of generalized coordinates, observed
convergence order, trajectory comparison, the paper's property checks
(each returns the measured quantity; callers keep their own tolerance),
and dt-sweep bookkeeping."""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (SolverOptions, TrialSubspace, Trajectory, lift,
                   read_csv, reconstruct, write_csv)
from . import fom, galerkin, lspg
from .schemes import LmmScheme


def trajectory_error(times, values, ref_times, ref_values) -> float:
    """l2 relative error of a scalar output series against a reference
    series, after piecewise-linear interpolation onto the reference grid."""
    times = np.asarray(times, float)
    values = np.asarray(values, float)
    ref_times = np.asarray(ref_times, float)
    ref_values = np.asarray(ref_values, float)
    if times.size == 0 or ref_times.size == 0:
        raise ValueError("empty series")
    interp = np.interp(ref_times, times, values)
    denom = np.linalg.norm(ref_values)
    if denom == 0.0:
        raise ValueError("reference series is identically zero")
    return float(np.linalg.norm(interp - ref_values) / denom)


def relative_increment_projection_error(fom_traj: Trajectory,
                                        sub: TrialSubspace):
    """Per-step ||(I - Phi Phi^T) dx^k|| / ||dx^k|| for FOM increments
    dx^k = x(k dt) - x((k-1) dt).

    Returns (ratios, degenerate_mask, max_ratio); zero increments are
    flagged and excluded from the max.
    """
    if len(fom_traj.states) < 2:
        raise ValueError("need at least 2 states")
    phi = sub.basis
    d = np.diff(fom_traj.states, axis=0)
    nd = np.linalg.norm(d, axis=1)
    degenerate = nd < 1e-14
    ratios = np.linalg.norm(d - (d @ phi) @ phi.T, axis=1) \
        / np.where(degenerate, np.inf, nd)
    valid = ratios[~degenerate]
    max_ratio = float(np.max(valid)) if valid.size else 0.0
    return ratios, degenerate, max_ratio


@dataclass
class SpectralReport:
    frequencies: np.ndarray  # positive-frequency grid (bin 0 excluded)
    psd: np.ndarray          # n_freq x p, each column sums to 1
    tau95: np.ndarray        # per-mode 1/f95; NaN when power is zero
    bin_width: float


def spectral_analysis(coords, dt) -> SpectralReport:
    """Periodogram PSD per generalized coordinate (mean removed, single
    taper, energy-normalized) and the per-mode time scale tau95 = 1/f95,
    f95 the smallest grid frequency with >= 95% cumulative energy."""
    coords = np.asarray(coords, float)
    if coords.ndim == 1:
        coords = coords[:, None]
    n, p = coords.shape
    if n < 16:
        raise ValueError("need at least 16 samples")
    freqs = np.fft.rfftfreq(n, d=dt)[1:]
    psd = np.empty((freqs.size, p))
    tau95 = np.empty(p)
    for j in range(p):
        y = coords[:, j] - np.mean(coords[:, j])
        power = np.abs(np.fft.rfft(y)[1:]) ** 2
        total = float(np.sum(power))
        if total < 1e-28:
            psd[:, j] = 0.0
            tau95[j] = np.nan
            continue
        psd[:, j] = power / total
        cum = np.cumsum(psd[:, j])
        i95 = int(np.searchsorted(cum, 0.95))
        tau95[j] = 1.0 / freqs[min(i95, freqs.size - 1)]
    return SpectralReport(frequencies=freqs, psd=psd, tau95=tau95,
                          bin_width=float(freqs[0]))


@dataclass
class RateEstimate:
    order: float
    rates: np.ndarray
    reliable: bool


def richardson_rate(errors, against_reference=True) -> RateEstimate:
    """Observed convergence order from errors under dt halving.

    With a reference solution the rate is log2(e_i / e_{i+1}); without one
    the sequence-difference variant log2((e_i - e_{i+1})/(e_{i+1} - e_{i+2}))
    is used.  Non-monotone sequences flip the reliability flag.
    """
    e = np.asarray(errors, float)
    if e.size < 3:
        raise ValueError("need at least 3 error values")
    if against_reference:
        seq = e
        reliable = bool(np.all(e[:-1] > e[1:]) and np.all(e > 0.0))
    else:
        seq = e[:-1] - e[1:]
        reliable = bool(np.all(seq > 0.0))
    if not reliable:
        seq = np.abs(seq)
        seq[seq == 0.0] = np.finfo(float).tiny
    rates = np.log2(seq[:-1] / seq[1:])
    return RateEstimate(order=float(np.mean(rates)), rates=rates,
                        reliable=reliable)


def compare_trajectories(a: Trajectory, b: Trajectory) -> float:
    """Max over steps of ||x_a^n - x_b^n||_2, the states compared as given
    (lift a ROM run with ``core.lift`` to compare it in full space)."""
    if abs(a.dt - b.dt) > 1e-14 * max(a.dt, b.dt) or \
            len(a.states) != len(b.states):
        raise ValueError("trajectories are on different grids")
    return float(np.max(np.linalg.norm(a.states - b.states, axis=1)))


def galerkin_lspg_gap(model, sub: TrialSubspace, W, scheme, dt, T,
                      opts: SolverOptions = SolverOptions()) -> float:
    """Max over steps of the distance between the lifted Galerkin and LSPG
    trajectories; zero for explicit schemes, as dt -> 0, and for an SPD
    residual Jacobian with W^T W its inverse."""
    g = galerkin.integrate_galerkin(model, sub, scheme, dt, T, opts)
    l, _ = lspg.integrate_lspg(model, sub, W, scheme, dt, T, opts)
    return compare_trajectories(lift(sub, g), lift(sub, l))


def commutativity_gap(model, sub: TrialSubspace, schemes, draws,
                      rng) -> float:
    """Max |Phi^T r(x0 + Phi y) - r_red(y)|, r_red the residual of the
    Galerkin model, over `draws` rounds of one random draw per (scheme, dt)
    in schemes: a multistep residual at a step n in [2, 6) with random
    coordinates and history, or every stage residual of an explicit/DIRK
    Runge-Kutta step from t = 0.1 with random stage values and base
    state."""
    gm = galerkin.make_galerkin_model(model, sub)
    phi, p = sub.basis, sub.p
    full = partial(reconstruct, sub)
    worst = 0.0
    for _ in range(draws):
        for scheme, dt in schemes:
            if isinstance(scheme, LmmScheme):
                n = int(rng.integers(2, 6))
                w = rng.standard_normal(p)
                hist = [rng.standard_normal(p)
                        for _ in range(len(scheme.coeffs(n)[0]) - 1)]
                ctx = partial(fom.LmmStepContext, n=n, dt=dt, scheme=scheme)
                pairs = [(fom.lmm_residual(gm, ctx(history=tuple(hist)), w),
                          fom.lmm_residual(model, ctx(history=tuple(
                              map(full, hist))), full(w)))]
            else:
                ys = [rng.standard_normal(p) for _ in range(scheme.s)]
                base = rng.standard_normal(p)
                ws = [phi @ y for y in ys]
                ctx = partial(fom.rk_stage_context, t_base=0.1,
                              tableau=scheme, dt=dt)
                pairs = [(fom.rk_residual(gm, ctx(base, prev_stages=ys[:i]),
                                          ys[i]),
                          fom.rk_residual(model, ctx(full(base),
                                                     prev_stages=ws[:i]),
                                          ws[i]))
                         for i in range(scheme.s)]
            for lhs, r in pairs:
                worst = max(worst, float(np.max(np.abs(lhs - phi.T @ r))))
    return worst


def bound_violations(ref: Trajectory, rom: Trajectory, sub: TrialSubspace,
                     report, rtol=0.0, atol=0.0) -> list:
    """Steps n >= 1 at which the error ||x^n - (x0 + Phi y^n)|| of a ROM
    run against the full-order run ref is not within report.per_step_bound[n]
    (1 + rtol) + atol (a NaN error is a violation); empty when sound."""
    bound = report.per_step_bound * (1 + rtol) + atol
    return [n for n, x in enumerate(lift(sub, rom).states)
            if n and not np.linalg.norm(ref.states[n] - x) <= bound[n]]


@dataclass
class SweepResult:
    dt: np.ndarray
    error: np.ndarray
    walltime_s: np.ndarray
    bound: np.ndarray  # NaN where no bound was evaluated
    stable: np.ndarray


def write_sweep_csv(sweep: SweepResult, path):
    write_csv(path, ["dt", "error", "walltime_s", "bound", "stable"],
              zip(sweep.dt, sweep.error, sweep.walltime_s, sweep.bound,
                  np.asarray(sweep.stable, int)))


def read_sweep_csv(path) -> SweepResult:
    dt, error, walltime_s, bound, stable = read_csv(path)[1].T
    return SweepResult(dt=dt, error=error, walltime_s=walltime_s,
                       bound=bound, stable=stable == 1)
