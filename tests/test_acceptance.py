"""Acceptance gate: one test per headline property, each printing a single
pass/fail line with the measured quantity and its tolerance."""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from morrow import analysis, benchmodels as bm, bounds, cli, fom, galerkin, \
    hyperreduction as hr, lspg, pod
from morrow.core import Model, SolverOptions, TrialSubspace, reconstruct
from morrow.schemes import make_butcher, make_lmm

OPTS = SolverOptions(newton_abs_tol=1e-13, newton_rel_tol=1e-13,
                     max_iters=100)


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'} "
          f"-- {detail}")


def _pod_subspace(traj, nu, p=None):
    x0 = np.asarray(traj.states[0], float)
    snaps = np.column_stack([np.asarray(x, float) - x0
                             for x in traj.states[1:]])
    sub = pod.compute_pod(pod.SnapshotSet(vectors=snaps), nu,
                          reference=x0).basis
    if p is not None:
        sub = TrialSubspace(basis=sub.basis[:, :p], reference=x0)
    return sub


def _final_state(traj, sub=None):
    x = np.asarray(traj.states[-1], float)
    return reconstruct(sub, x) if sub is not None else x


# -------------------------------------------------------------- criterion 1

def test_criterion_01_fom_bdf2_order():
    """FOM convergence: manufactured solution, observed order 2.0 +/- 0.15."""
    t0 = time.perf_counter()
    n = 32
    base = bm.advection_diffusion(
        bm.BenchmarkSpec(name="advection_diffusion", n=n, viscosity=0.05,
                         initial="gaussian"))
    a = base.jacobian(base.initial_state, 0.0)
    v = base.initial_state.copy()
    exact = lambda t: np.cos(t) * v
    g = lambda t: -np.sin(t) * v - np.cos(t) * (a @ v)
    model = Model(dim=n,
                  velocity=lambda x, t: a @ x + g(t),
                  jacobian=lambda x, t: a,
                  initial_state=exact(0.0))
    T = 0.2
    errs = []
    dts = [0.02, 0.01, 0.005, 0.0025]
    for dt in dts:
        traj = fom.integrate(model, make_lmm("bdf2"), dt, T, OPTS)
        errs.append(np.linalg.norm(_final_state(traj) - exact(T)))
    est = analysis.richardson_rate(errs)
    elapsed = time.perf_counter() - t0
    ok = abs(est.order - 2.0) <= 0.15 and est.reliable and elapsed < 10.0
    _line(1, "FOM BDF2 order", ok,
          f"observed order {est.order:.3f} (target 2.0 +/- 0.15), "
          f"{elapsed:.1f}s < 10s")
    assert ok


# -------------------------------------------------------------- criterion 2

def test_criterion_02_galerkin_bdf2_order():
    """Galerkin ROM keeps the BDF2 rate: observed order 2.0 +/- 0.2."""
    t0 = time.perf_counter()
    model = bm.burgers1d(bm.BenchmarkSpec(name="burgers", n=64,
                                          viscosity=0.01))
    T = 0.04
    train = fom.integrate(model, make_lmm("backward_euler"), 2.5e-4, T, OPTS)
    sub = _pod_subspace(train, 1.0 - 1e-6)
    ref = galerkin.integrate_galerkin(model, sub, make_lmm("bdf2"),
                                      1.25e-4, T, OPTS)
    x_ref = _final_state(ref, sub)
    errs = []
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    for dt in dts:
        traj = galerkin.integrate_galerkin(model, sub, make_lmm("bdf2"),
                                           dt, T, OPTS)
        errs.append(np.linalg.norm(_final_state(traj, sub) - x_ref))
    est = analysis.richardson_rate(errs)
    elapsed = time.perf_counter() - t0
    ok = abs(est.order - 2.0) <= 0.2 and elapsed < 30.0
    _line(2, "Galerkin BDF2 order", ok,
          f"observed order {est.order:.3f} (target 2.0 +/- 0.2), p={sub.p}, "
          f"{elapsed:.1f}s < 30s")
    assert ok


# -------------------------------------------------------------- criterion 3

def test_criterion_03_explicit_equivalence():
    """Explicit schemes: Galerkin and LSPG trajectories coincide <= 1e-10."""
    t0 = time.perf_counter()
    model = bm.burgers1d(bm.BenchmarkSpec(name="burgers", n=64))
    train = fom.integrate(model, make_lmm("backward_euler"), 2e-4, 5e-3, OPTS)
    sub = _pod_subspace(train, 1.0, p=10)
    W = lspg.scaled_identity(64)
    worst = max(analysis.galerkin_lspg_gap(model, sub, W, scheme, 1e-4,
                                           5e-3, OPTS)
                for scheme in (make_lmm("forward_euler"), make_butcher("rk4")))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _line(3, "explicit Galerkin/LSPG equivalence", ok,
          f"max trajectory difference {worst:.3e} <= 1e-10, "
          f"{elapsed:.1f}s < 5s")
    assert ok


# -------------------------------------------------------------- criterion 4

def test_criterion_04_limiting_equivalence():
    """dt -> 0: LSPG approaches Galerkin; strictly decreasing gap,
    final/initial ratio <= 1e-2."""
    t0 = time.perf_counter()
    model = bm.burgers1d(bm.BenchmarkSpec(name="burgers", n=64,
                                          viscosity=0.01))
    T = 0.04
    # basis trained on a finer grid than any point of the dt ladder so the
    # comparison is not flattered at the finest point
    train = fom.integrate(model, make_lmm("backward_euler"), 2.5e-4, T, OPTS)
    sub = _pod_subspace(train, 1.0, p=10)
    W = lspg.scaled_identity(64)
    dts = [8e-3, 4e-3, 2e-3, 1e-3, 5e-4]
    diffs = [analysis.galerkin_lspg_gap(model, sub, W,
                                        make_lmm("backward_euler"), dt, T,
                                        OPTS)
             for dt in dts]
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    ratio = diffs[-1] / diffs[0]
    ok = decreasing and ratio <= 1e-2 and elapsed < 60.0
    _line(4, "limiting dt->0 equivalence", ok,
          f"gaps {', '.join(f'{d:.2e}' for d in diffs)}; "
          f"final/initial {ratio:.2e} <= 1e-2, {elapsed:.1f}s < 60s")
    assert ok


# -------------------------------------------------------------- criterion 5

def test_criterion_05_spd_weighted_equivalence():
    """SPD residual Jacobian: Cholesky-weighted LSPG equals Galerkin
    <= 1e-9 per step."""
    t0 = time.perf_counter()
    model = bm.gradient_flow_spd(bm.BenchmarkSpec(
        name="gradient_flow", spectrum=tuple(np.linspace(0.5, 4.0, 12))))
    dt, T = 0.01, 0.1
    train = fom.integrate(model, make_lmm("backward_euler"), dt, T, OPTS)
    sub = _pod_subspace(train, 1.0 - 1e-10)
    a = -model.jacobian(model.initial_state, 0.0)
    c = np.linalg.cholesky(np.linalg.inv(np.eye(12) + dt * a)).T
    diff = analysis.galerkin_lspg_gap(
        model, sub, lspg.WeightingOperator(12, factor=c),
        make_lmm("backward_euler"), dt, T, OPTS)
    elapsed = time.perf_counter() - t0
    ok = diff <= 1e-9 and elapsed < 5.0
    _line(5, "SPD-weighted equivalence", ok,
          f"max per-step difference {diff:.3e} <= 1e-9, {elapsed:.1f}s < 5s")
    assert ok


# -------------------------------------------------------------- criterion 6

def test_criterion_06_commutativity():
    """Reduced residual equals Phi^T (full residual), LMM and RK,
    100 random draws <= 1e-12."""
    model = bm.burgers1d(bm.BenchmarkSpec(name="burgers", n=32,
                                          viscosity=0.02))
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((32, 6)))[0]
    sub = TrialSubspace(basis=q, reference=model.initial_state)
    # 50 rounds of one draw per scheme
    worst = analysis.commutativity_gap(
        model, sub, ((make_lmm("bdf2"), 0.01), (make_butcher("sdirk2"), 0.02)),
        50, rng)
    ok = worst <= 1e-12
    _line(6, "projection/discretization commutativity", ok,
          f"max gap over 100 draws {worst:.3e} <= 1e-12")
    assert ok


# -------------------------------------------------------------- criterion 7

def test_criterion_07_bound_soundness():
    """Measured error <= local, global, simplified, single-step-closed-form,
    and RK a posteriori bounds at every step, both ROM kinds."""
    t0 = time.perf_counter()
    model = bm.advection_diffusion(bm.BenchmarkSpec(
        name="advection_diffusion", n=24, viscosity=0.05,
        initial="gaussian"))
    kappa = float(np.linalg.norm(model.jacobian(model.initial_state, 0.0), 2))
    dt = 0.2 / kappa
    T = 10 * dt
    sch = make_lmm("backward_euler")
    ref = fom.integrate(model, sch, dt, T, OPTS)
    sub = _pod_subspace(ref, 0.95)
    W = lspg.scaled_identity(24)
    checks = []
    for kind in ("galerkin", "lspg"):
        if kind == "galerkin":
            rom = galerkin.integrate_galerkin(model, sub, sch, dt, T, OPTS)
        else:
            rom, _ = lspg.integrate_lspg(model, sub, W, sch, dt, T, OPTS)
        errs = [np.linalg.norm(np.asarray(ref.states[n])
                               - reconstruct(sub, rom.states[n]))
                for n in range(len(rom.states))]
        lt = bounds.local_aposteriori_lmm(rom, kind, model, sub, sch,
                                          kappa, W)
        # local: uses the measured errors of earlier steps
        local_ok = all(
            errs[t.n] <= t.proj_contrib
            + sum(t.gamma2[l - 1] * errs[t.n - l]
                  for l in range(1, len(t.gamma2) + 1)) + 1e-12
            for t in lt)
        glob = bounds.global_aposteriori_lmm(lt, kind)
        simp = bounds.simplified_global_bounds(lt, sch, kappa, dt,
                                               "aposteriori", kind=kind)
        # backward Euler's closed sum B^n = dt sum_j h^{-(j+1)} term^{n-j}
        h = 1.0 - kappa * dt
        be = replace(glob, per_step_bound=np.array([
            dt * sum(lt[n - j - 1].terms[0] / h ** (j + 1) for j in range(n))
            for n in range(len(rom.states))]))
        for name, rep in (("global", glob), ("simplified", simp),
                          ("single_step_form", be)):
            checks.append((f"{kind}/{name}", not analysis.bound_violations(
                ref, rom, sub, rep, rtol=1e-9, atol=1e-14)))
        checks.append((f"{kind}/local", local_ok))

        # RK family: single-stage implicit tableau
        tab = make_butcher("backward_euler")
        ref_rk = fom.integrate(model, tab, dt, T, OPTS)
        if kind == "galerkin":
            rom_rk = galerkin.integrate_galerkin(model, sub, tab, dt, T, OPTS)
        else:
            rom_rk, _ = lspg.integrate_lspg(model, sub, W, tab, dt, T, OPTS)
        rk = bounds.aposteriori_bound(rom_rk, model, sub, tab, kappa, W)
        checks.append((f"{kind}/rk", not analysis.bound_violations(
            ref_rk, rom_rk, sub, rk, rtol=1e-9, atol=1e-14)))
    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < 60.0
    _line(7, "a posteriori bound soundness", ok,
          f"{len(checks)} bound/kind combinations sound"
          + (f"; failed: {failed}" if failed else "")
          + f", {elapsed:.1f}s < 60s")
    assert ok


# -------------------------------------------------------------- criterion 8

def test_criterion_08_global_bound_enumeration_oracle():
    """Recursive bound propagation equals brute-force path enumeration,
    k=2, n <= 6, exact to 1e-12."""
    rng = np.random.default_rng(1)
    sch = make_lmm("bdf2")
    worst = 0.0
    for trial in range(5):
        nsteps = 6
        lts = []
        for n in range(1, nsteps + 1):
            k_eff = len(sch.coeffs(n)[0]) - 1
            lts.append(bounds.LocalStepTerms(
                n=n, h=1.0,
                gamma1=rng.uniform(0.1, 1.0, k_eff + 1),
                gamma2=rng.uniform(0.1, 0.9, k_eff),
                terms=rng.uniform(0.0, 2.0, k_eff + 1),
                residual_norm=0.0, proj_norm=1.0))
        rep = bounds.global_aposteriori_lmm(lts, "galerkin")
        # brute-force path sum: expand B^n = c^n + sum_l g_l^n B^{n-l}
        c = {t.n: t.proj_contrib for t in lts}
        g = {t.n: t.gamma2 for t in lts}
        for n in range(1, nsteps + 1):
            total = 0.0
            stack = [(n, 1.0)]
            while stack:
                m, wgt = stack.pop()
                if m < 1:
                    continue
                total += wgt * c[m]
                for l in range(1, len(g[m]) + 1):
                    if m - l >= 1:
                        stack.append((m - l, wgt * g[m][l - 1]))
            worst = max(worst, abs(total - rep.per_step_bound[n]))
    ok = worst <= 1e-12
    _line(8, "global-bound enumeration oracle", ok,
          f"max |recursion - path sum| {worst:.3e} <= 1e-12 (k=2, n<=6)")
    assert ok


# -------------------------------------------------------------- criterion 9

def test_criterion_09_lspg_lower_local_bound():
    """With shared history, W=I and beta_l=0 for l>=1, the LSPG local bound
    never exceeds the Galerkin one."""
    model = bm.gradient_flow_spd(bm.BenchmarkSpec(
        name="gradient_flow", spectrum=tuple(np.linspace(0.5, 4.0, 10))))
    train = fom.integrate(model, make_lmm("backward_euler"), 0.05, 1.0, OPTS)
    sub = _pod_subspace(train, 0.999)
    gm = galerkin.make_galerkin_model(model, sub)
    W = lspg.scaled_identity(10)
    ok = True
    margins = []
    for name in ("backward_euler", "bdf2"):
        sch = make_lmm(name)
        gal = galerkin.integrate_galerkin(model, sub, sch, 0.05, 1.0, OPTS)
        for n in range(1, len(gal.states)):
            k_eff = len(sch.coeffs(n)[0]) - 1
            hist_r = tuple(gal.states[n - j] for j in range(1, k_eff + 1))
            ctx_r = fom.LmmStepContext(history=hist_r, n=n, dt=0.05,
                                       scheme=sch)
            ctx_f = fom.LmmStepContext(
                history=tuple(reconstruct(sub, h) for h in hist_r),
                n=n, dt=0.05, scheme=sch)
            y_g = fom.solve_lmm_step(gm, ctx_r, OPTS)
            y_p, _ = lspg.solve_lspg_step_lmm(model, sub, W, ctx_f, OPTS,
                                              yhat_warm=y_g)
            # with beta_l = 0 for l >= 1 the local bounds differ only in
            # the residual norm at the accepted step
            r_g = np.linalg.norm(fom.lmm_residual(
                model, ctx_f, reconstruct(sub, y_g)))
            r_p = np.linalg.norm(fom.lmm_residual(
                model, ctx_f, reconstruct(sub, y_p)))
            margins.append(r_g - r_p)
            if r_p > r_g * (1 + 1e-10) + 1e-14:
                ok = False
    _line(9, "LSPG local bound <= Galerkin local bound", ok,
          f"min margin {min(margins):.3e} >= 0 over "
          f"{len(margins)} matched steps")
    assert ok


# ------------------------------------------------------------- criterion 10

def test_criterion_10_oblique_projection_identity():
    """|beta_0| dt ||(I - P^n) f|| equals the discrete-residual norm
    <= 1e-9 along LSPG trajectories."""
    model = bm.burgers1d(bm.BenchmarkSpec(name="burgers", n=32,
                                          viscosity=0.02))
    train = fom.integrate(model, make_lmm("backward_euler"), 1e-3, 2e-2, OPTS)
    sub = _pod_subspace(train, 1.0 - 1e-8)
    W = lspg.scaled_identity(32)
    kappa = bounds.estimate_lipschitz(
        model, [model.initial_state,
                model.initial_state + 0.01 * np.arange(32)], [0.0])
    worst = 0.0
    for name in ("backward_euler", "bdf2"):
        sch = make_lmm(name)
        rom, _ = lspg.integrate_lspg(model, sub, W, sch, 1e-3, 2e-2, OPTS)
        lts = bounds.local_aposteriori_lmm(rom, "lspg", model, sub, sch,
                                           kappa, W)
        for t in lts:
            beta0_dt_term = t.gamma1[0] * t.h * t.terms[0]
            worst = max(worst, abs(beta0_dt_term - t.residual_norm))
    ok = worst <= 1e-9
    _line(10, "oblique projection residual identity", ok,
          f"max | |b0| dt ||(I-P)f|| - ||r|| | = {worst:.3e} <= 1e-9")
    assert ok


# ------------------------------------------------------------- criterion 11

def test_criterion_11_pod_oracle():
    """Mode-count selection and orthonormality match a brute-force SVD
    scan on 20 random snapshot sets; selected count monotone in nu."""
    rng = np.random.default_rng(2)
    ok = True
    for trial in range(20):
        n = int(rng.integers(6, 20))
        m = int(rng.integers(3, 12))
        snaps = pod.SnapshotSet(vectors=rng.standard_normal((n, m)))
        nu = float(rng.uniform(0.3, 0.999))
        result = pod.compute_pod(snaps, nu)
        # brute force: normalize, svd, scan n upward
        w = snaps.vectors / np.linalg.norm(snaps.vectors, axis=0)
        sigma = np.linalg.svd(w, compute_uv=False)
        total = np.sum(sigma**2)
        expect = next(k for k in range(1, len(sigma) + 1)
                      if np.sum(sigma[:k]**2) / total >= nu)
        if result.basis.p != expect:
            ok = False
        gram = result.basis.basis.T @ result.basis.basis
        if np.max(np.abs(gram - np.eye(result.basis.p))) > 1e-10:
            ok = False
        # monotone in nu on this snapshot set
        ns = [pod.compute_pod(snaps, v).basis.p
              for v in (0.2, 0.5, 0.8, 0.95, 1.0)]
        if any(b < a for a, b in zip(ns, ns[1:])):
            ok = False
    _line(11, "mode-selection oracle", ok,
          "selection, orthonormality and nu-monotonicity verified on 20 "
          "random snapshot sets")
    assert ok


# ------------------------------------------------------------- criterion 12

def test_criterion_12_gnat_full_sampling_identity():
    """Full sampling, full residual basis: hyper-reduced trajectory equals
    the unweighted LSPG trajectory <= 1e-6."""
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    a = -q @ np.diag(np.linspace(0.5, 5.0, 16)) @ q.T
    x_init = np.sin(np.arange(16.0))
    model = Model(dim=16, velocity=lambda x, t: a @ x,
                  jacobian=lambda x, t: a, initial_state=x_init)
    qb = np.linalg.qr(rng.standard_normal((16, 4)))[0]
    sub = TrialSubspace(basis=qb, reference=x_init)
    sch = make_lmm("backward_euler")
    snaps = hr.collect_residual_snapshots(model, sub, sch, 0.02, 0.6, OPTS)
    rbasis = hr.build_residual_basis(snaps, 1.0)
    W = hr.gnat_weighting(hr.SampleSet(indices=tuple(range(16))), rbasis)
    ref, _ = lspg.integrate_lspg(model, sub, lspg.scaled_identity(16), sch,
                                 0.02, 0.6, OPTS)
    gnat, _ = lspg.integrate_lspg(model, sub, W, sch, 0.02, 0.6, OPTS)
    diff = analysis.compare_trajectories(ref, gnat)
    ok = diff <= 1e-6
    _line(12, "full-sampling hyper-reduction identity", ok,
          f"max trajectory difference {diff:.3e} <= 1e-6")
    assert ok


# ------------------------------------------------------------- criterion 13

def test_criterion_13_auxiliary_increment_bound():
    """Single-step projection errors mu match an independent full-space
    oracle <= 1e-9; the bound dominates the error across a 5-point dt grid;
    the error-vs-dt curve is reported for inspection."""
    model = bm.advection_diffusion(bm.BenchmarkSpec(
        name="advection_diffusion", n=16, viscosity=0.05,
        initial="gaussian"))
    a = model.jacobian(model.initial_state, 0.0)
    kappa = float(np.linalg.norm(a, 2))
    train = fom.integrate(model, make_lmm("backward_euler"), 1e-3, 0.064,
                          OPTS)
    sub = _pod_subspace(train, 0.99)
    W = lspg.scaled_identity(16)
    x0 = sub.reference
    sch = make_lmm("backward_euler")

    # (a) mu oracle at one dt
    dt = 0.002
    rom, _ = lspg.integrate_lspg(model, sub, W, sch, dt, 0.02, OPTS)
    rep = bounds.auxiliary_increment_bound(model, rom, sub, dt, kappa, OPTS)
    worst_mu = 0.0
    for j in range(1, len(rom.states)):
        anchor = sub.basis @ rom.states[j - 1]
        # linear model: the auxiliary state solves (I - dt A) xbar =
        # dt A x0 + anchor, independent of the Newton loop in the library
        xbar = np.linalg.solve(np.eye(16) - dt * a, dt * (a @ x0) + anchor)
        mu = np.linalg.norm(sub.basis @ (rom.states[j] - rom.states[j - 1])
                            - (xbar - anchor))
        worst_mu = max(worst_mu, abs(mu - rep.mu[j]))
    mu_ok = worst_mu <= 1e-9

    # (b) bound curve over a 5-point dt grid; all points kappa-admissible
    T = 0.032
    dts = [0.008, 0.004, 0.002, 0.001, 0.0005]
    errors, bvals = [], []
    sound = True
    for d in dts:
        assert kappa * d < 1.0
        ref = fom.integrate(model, sch, d, T, OPTS)
        romd, _ = lspg.integrate_lspg(model, sub, W, sch, d, T, OPTS)
        err = np.linalg.norm(np.asarray(ref.states[-1])
                             - reconstruct(sub, romd.states[-1]))
        repd = bounds.auxiliary_increment_bound(model, romd, sub, d, kappa,
                                                OPTS)
        b = repd.bound_increment_form[-1]
        errors.append(err)
        bvals.append(b)
        if err > b * (1 + 1e-9) + 1e-14:
            sound = False
    # exploratory: interior error minimum in dt (reported, not gated)
    i_min = int(np.argmin(errors))
    dip = "interior" if 0 < i_min < len(dts) - 1 else "boundary"
    ok = mu_ok and sound
    _line(13, "auxiliary increment bound", ok,
          f"max mu deviation {worst_mu:.3e} <= 1e-9; error <= bound at all "
          f"5 dt points; error minimum at dt={dts[i_min]} ({dip}, "
          "informational)")
    assert ok


# ------------------------------------------------------------- criterion 14

def test_criterion_14_spectral_trend():
    """tau95 is non-increasing in mode number when later generalized
    coordinates carry their energy at higher frequencies."""
    dt = 1.0 / 256
    t = dt * np.arange(1024)
    freqs = [1.0, 2.0, 4.0, 8.0, 16.0]
    coords = np.column_stack([np.sin(2 * np.pi * f * t) for f in freqs])
    rep = analysis.spectral_analysis(coords, dt)
    taus = rep.tau95
    ok = all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))
    _line(14, "spectral time-scale trend", ok,
          "tau95 per mode: " + ", ".join(f"{v:.3f}" for v in taus)
          + " (non-increasing)")
    assert ok


# ------------------------------------------------------------- criterion 15

def test_criterion_15_determinism(tmp_path):
    """Identical config and seed reruns produce byte-identical non-timing
    artifacts."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""\
[model]
name = burgers
n = 32
viscosity = 0.02

[time]
scheme = backward_euler
dt = 0.002
T = 0.02

[pod]
nu = 0.9999

[rom]
kind = lspg
""")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["rom", "--config", str(cfg), "--out", str(out),
                         "--seed", "5"]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    same = names == sorted(os.listdir(outs[1]))
    mismatched = []
    for name in names:
        if name == "timings.json":
            continue
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            mismatched.append(name)
    ok = same and not mismatched
    _line(15, "rerun determinism", ok,
          f"{len(names) - 1} non-timing artifacts byte-identical"
          + (f"; mismatched: {mismatched}" if mismatched else ""))
    assert ok
