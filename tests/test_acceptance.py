"""End-to-end acceptance gate.

Each test prints a single pass/fail line for its criterion, so running
`pytest tests/test_acceptance.py -s` yields a ten-line scoreboard.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from paracalc import (BUMP_MOLLIFIER, GAUSS_MOLLIFIER, EnhancedNoise,
                      NonlinearFunction, SemigroupSpec, SolverConfig,
                      SpectralField, TorusGrid, burgers_area,
                      burgers_theta_path, commutator_C, dealiased_product,
                      derivative, enhanced_translate,
                      heat_apply, lp_block, mollify, pam_c_eps, pam_gt,
                      pam_theta, para_gt, para_lt, poly_function, rde_area,
                      rde_driver, resonant, rough_area_check, sample_line_path,
                      solve_burgers, solve_pam, solve_pam_regularized,
                      solve_rde, spatial_white_noise, sym_antisym_split,
                      pair_resonant, besov_norm)
from paracalc.cli import main
from paracalc.evolution import _duhamel_weights
from paracalc.grid import hermitian_conjugate
from paracalc.partition import radial_cutoff
from paracalc.spectral import default_partition

TWO_PI = 2 * math.pi


def tanh_fn(a=1.0):
    return NonlinearFunction(lambda x: a * np.tanh(x), lambda x: a / np.cosh(x) ** 2)


def rough(grid, alpha, seed, channels=1):
    """Random real field with dyadic block sups decaying like 2^(-j alpha)."""
    rng = np.random.default_rng(seed)
    k = grid.k_abs()
    std = np.zeros(grid.shape)
    std[k > 0] = k[k > 0] ** (-(grid.dim / 2.0 + alpha))
    c = (rng.standard_normal((channels,) + grid.shape)
         + 1j * rng.standard_normal((channels,) + grid.shape)) * std
    return SpectralField(grid, 0.5 * (c + hermitian_conjugate(c, grid.dim)))


def synthetic(grid, alpha):
    """Deterministic positive-coefficient field of exact regularity alpha."""
    k = grid.k_abs()
    c = np.zeros(grid.shape)
    c[k > 0] = k[k > 0] ** (-(1.0 + alpha))
    return SpectralField(grid, c[None])


def scoreboard(num, ok, desc):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_01_exact_algebra():
    t0 = time.perf_counter()
    worst_part = 0.0
    worst_bony = 0.0
    for grid in (TorusGrid(1, 256), TorusGrid(2, 64)):
        part = default_partition(grid)
        worst_part = max(worst_part, float(np.max(np.abs(
            part.masks.sum(axis=0) - 1.0))))
        band = grid.k_abs() <= grid.n // 8
        f = SpectralField(grid, rough(grid, 0.5, 0).coeffs * band)
        g = SpectralField(grid, rough(grid, -0.5, 1).coeffs * band)
        total = para_lt(f, g) + para_gt(f, g) + resonant(f, g, part)
        prod = dealiased_product(f, g)
        worst_bony = max(worst_bony,
                         (total - prod).sup_norm() / prod.sup_norm())
    elapsed = time.perf_counter() - t0
    ok = worst_part <= 1e-12 and worst_bony <= 1e-10 and elapsed < 1.0
    assert scoreboard(1, ok, f"partition defect {worst_part:.1e}, "
                      f"product identity {worst_bony:.1e}, {elapsed:.2f}s")


def test_criterion_02_closed_form_constants():
    grid = TorusGrid(2, 64)
    part = default_partition(grid)
    spec = SemigroupSpec(1.0, grid)
    t0 = time.perf_counter()

    ts = (0.05, 0.1, 0.5)
    acc = {t: [] for t in ts}
    for s in range(500):
        xi = spatial_white_noise(grid, s)
        for t in ts:
            acc[t].append(float(
                resonant(heat_apply(xi, t, spec.sigma), xi, part).values().mean()))
    devs = []
    for t in ts:
        se = np.std(acc[t], ddof=1) / math.sqrt(len(acc[t]))
        devs.append(abs(np.mean(acc[t]) - pam_gt(t, grid)) / se)

    for eps in (0.5, 0.25, 0.125):
        c = pam_c_eps(eps, GAUSS_MOLLIFIER, grid)
        vals = []
        for s in range(100):
            xi = spatial_white_noise(grid, s)
            vals.append(float(resonant(
                mollify(pam_theta(xi), eps, GAUSS_MOLLIFIER),
                mollify(xi, eps, GAUSS_MOLLIFIER), part).values().mean()))
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        devs.append(abs(np.mean(vals) - c) / se)
    elapsed = time.perf_counter() - t0
    ok = max(devs) < 3.0 and elapsed < 120.0
    assert scoreboard(2, ok, "heat-pair and mollified-area constants, worst "
                      f"deviation {max(devs):.2f} SE, {elapsed:.0f}s")


def test_criterion_03_log_divergence():
    # modes out to |k| = 128 so the finest mollification scale 2^-7 is
    # still resolved by the lattice
    grid = TorusGrid(2, 256)
    eps = np.array([2.0 ** -j for j in range(2, 8)])
    y = np.array([pam_c_eps(e, GAUSS_MOLLIFIER, grid) for e in eps])
    x = np.log(1.0 / eps)
    slope, icpt = np.polyfit(x, y, 1)
    r2 = 1.0 - np.sum((y - (slope * x + icpt)) ** 2) / np.sum((y - y.mean()) ** 2)
    ok = r2 >= 0.99
    assert scoreboard(3, ok, f"divergence fit slope {slope:.4f} "
                      f"(2 pi)^-1 = {1 / TWO_PI:.4f}, R2 {r2:.5f}")


def test_criterion_04_gauge_identity():
    grid = TorusGrid(2, 64)
    eps = 0.25
    xi = mollify(spatial_white_noise(grid, 0), eps, GAUSS_MOLLIFIER)
    c = pam_c_eps(eps, GAUSS_MOLLIFIER, grid)
    F = poly_function([0.0, 1.0], name="id")
    u0 = SpectralField.constant(grid, 0.3)
    cfg = SolverConfig(alpha=0.45, T=0.25, M=128, fp_tol=1e-13, damping=1.0)
    ur = solve_pam_regularized(u0, xi, c, F, cfg)
    uu = solve_pam_regularized(u0, xi, 0.0, F, cfg)
    rel = 0.0
    for i, t in enumerate(ur.times):
        num = np.max(np.abs(uu[i].values() * math.exp(-c * t) - ur[i].values()))
        rel = max(rel, num / np.max(np.abs(ur[i].values())))
    ok = rel <= 1e-6
    assert scoreboard(4, ok, f"exponential-rescaling defect {rel:.1e}")


def _rde_vs_ode(E, part, g_shift=None):
    """Sup distance between the paracontrolled trajectory and an adaptive
    high-order classical integration of the same (smooth-driver) ODE."""
    grid = E.xi.grid
    F = tanh_fn(0.4)
    cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
    u, _, rep = solve_rde(0.3, E, F, cfg, part=part)
    assert rep.converged
    xi = E.xi

    def rhs(t, y):
        p = radial_cutoff(np.array([t]), 1.0, 2.0)[0]
        out = p * 0.4 * math.tanh(y[0]) * xi.eval_at(np.array([t]))[0, 0]
        if g_shift is not None:
            dF = 0.4 / math.cosh(y[0]) ** 2
            out += p * p * dF * 0.4 * math.tanh(y[0]) \
                * g_shift.eval_at(np.array([t]))[0, 0]
        return out

    x = grid.points()[0]
    tc = np.where(x < grid.period / 2, x, x - grid.period)
    uv = u.values()[0]
    err = 0.0
    for sgn in (1.0, -1.0):
        sel = (np.abs(tc) <= 2.0) & (sgn * tc >= 0)
        t_eval = np.sort(tc[sel])[:: 1 if sgn > 0 else -1]
        sol = solve_ivp(rhs, (0.0, t_eval[-1]), [0.3], t_eval=t_eval,
                        rtol=1e-11, atol=1e-13, method="DOP853")
        for t1, y1 in zip(t_eval, sol.y[0]):
            err = max(err, abs(uv[np.argmin(np.abs(tc - t1))] - y1))
    return err


def _smooth_rde_data(seed=3, band=None):
    grid = TorusGrid(1, 512, 4 * TWO_PI)
    part = default_partition(grid)
    ts, xs = sample_line_path(grid, 0.75, seed)
    drv = rde_driver(ts, xs, grid)
    theta = mollify(drv.theta, 0.25, BUMP_MOLLIFIER)
    if band is not None:
        theta = SpectralField(grid, theta.coeffs * (grid.k_abs() <= band))
    xi = derivative(theta, 0)
    return EnhancedNoise("rde", xi, theta, rde_area(theta, xi, part)), part


def test_criterion_05_oracle_equivalence():
    # rough ODE against an adaptive Runge-Kutta reference
    t0 = time.perf_counter()
    E, part = _smooth_rde_data()
    err_rde = _rde_vs_ode(E, part)
    t_rde = time.perf_counter() - t0

    # conservation-type equation against a direct-product classical solve
    # with the identical implicit exponential stepping
    t0 = time.perf_counter()
    grid = TorusGrid(1, 128)
    p1 = default_partition(grid)
    sigma, T, M = 0.9, 0.25, 64
    raw = burgers_theta_path(grid, sigma, T, M, 1, 11)
    band = grid.k_abs() <= 10
    th = raw.map(lambda f: SpectralField(grid, f.coeffs * band))
    E_b = EnhancedNoise("burgers", None, th, burgers_area(th, p1))
    G = tanh_fn(0.5)
    u0 = SpectralField.from_function(grid, lambda x: 0.3 * np.sin(x))
    cfg = SolverConfig(alpha=0.45, sigma=sigma, T=T, M=M, fp_tol=1e-12,
                       damping=1.0)
    w_path, _, _ = solve_burgers(u0, E_b, G, cfg, part=p1)

    spec = SemigroupSpec(sigma, grid)
    dt = T / M
    z = spec.symbol() * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)
    thc = [f.channel(0) for f in th.fields]

    def drift(wc, n):
        v = thc[n] + SpectralField(grid, wc)
        return dealiased_product(G(v), derivative(v, 0)).coeffs

    c = u0.coeffs
    ref = [u0]
    for n in range(M):
        d0 = drift(c, n)
        base = c * decay + d0 * (A - B)
        nxt = c * decay + d0 * A
        for _ in range(80):
            cand = base + drift(nxt, n + 1) * B
            r = np.max(np.abs(cand - nxt))
            nxt = cand
            if r <= 1e-12 * (1.0 + np.max(np.abs(nxt))):
                break
        c = nxt
        ref.append(SpectralField(grid, c))
    err_b = max((w_path[n] - ref[n]).sup_norm() for n in range(M + 1))
    t_b = time.perf_counter() - t0

    # 2-d multiplicative heat equation against the renormalized
    # regularized classical solve (band-limited noise, shared constant)
    t0 = time.perf_counter()
    g2 = TorusGrid(2, 64)
    p2 = default_partition(g2)
    xi = spatial_white_noise(g2, 5)
    xi = SpectralField(g2, xi.coeffs * (g2.k_abs() <= 8)) * 3.0
    theta = pam_theta(xi)
    cc = 0.2
    E_p = EnhancedNoise("pam", xi, theta, resonant(theta, xi, p2) - cc, cc)
    u0p = SpectralField.constant(g2, 0.3)
    cfg2 = SolverConfig(alpha=0.45, sigma=1.0, T=0.25, M=128, fp_tol=1e-11,
                        damping=1.0)
    u_path, _, rep = solve_pam(u0p, E_p, tanh_fn(0.4), cfg2, part=p2)
    assert rep.converged
    refp = solve_pam_regularized(u0p, xi, cc, tanh_fn(0.4), cfg2)
    err_p = max((u_path[n] - refp[n]).sup_norm() for n in range(len(u_path)))
    t_p = time.perf_counter() - t0

    ok = err_rde <= 1e-4 and err_b <= 1e-4 and err_p <= 1e-4 \
        and max(t_rde, t_b, t_p) < 60.0
    assert scoreboard(5, ok, f"solver vs oracle sup errors: ode {err_rde:.1e} "
                      f"({t_rde:.0f}s), 1-d {err_b:.1e} ({t_b:.0f}s), "
                      f"2-d {err_p:.1e} ({t_p:.0f}s)")


def test_criterion_06_estimate_exponents():
    grid = TorusGrid(1, 512)
    ts = np.logspace(math.log10(2.0 ** -10), math.log10(2.0 ** -4), 7)
    msgs = []
    ok = True

    # semigroup smoothing: norm at alpha + beta decays like t^(-beta/2sigma)
    for sigma, beta in ((1.0, 0.5), (1.0, 1.0), (0.75, 0.75)):
        spec = SemigroupSpec(sigma, grid)
        f = synthetic(grid, -0.6)
        ys = [math.log(besov_norm(heat_apply(f, t, spec.sigma), -0.6 + beta))
              for t in ts]
        slope = np.polyfit(np.log(ts), ys, 1)[0]
        target = -beta / (2.0 * sigma)
        ok &= abs(slope - target) <= 0.1 * abs(target)
        msgs.append(f"{slope:.3f}/{target:.3f}")

    # strong continuity: (P_t - I) loses delta derivatives at rate t^(delta/2)
    spec = SemigroupSpec(1.0, grid)
    f = synthetic(grid, 0.9)
    ys = [math.log(besov_norm(heat_apply(f, t, spec.sigma) - f, 0.1))
          for t in ts]
    slope = np.polyfit(np.log(ts), ys, 1)[0]
    ok &= abs(slope - 0.4) <= 0.04
    msgs.append(f"{slope:.3f}/0.400")

    # trilinear commutator gains the sum of the three exponents, probed
    # with scale-indexed single-mode factors against a rough first slot
    g2 = TorusGrid(1, 1024)
    for alpha, beta, gamma in ((0.6, -0.3, -0.1), (0.45, -0.55, -0.55)):
        devs = []
        for seed in range(5):
            f = rough(g2, alpha, seed)
            ii = np.arange(3, 8)
            ys = []
            for i in ii:
                ki = round(1.4 * 2.0 ** i)
                g = SpectralField.from_function(
                    g2, lambda x: 2.0 ** (-i * beta) * np.cos(ki * x))
                h = SpectralField.from_function(
                    g2, lambda x: 2.0 ** (-i * gamma) * np.cos(ki * x))
                ys.append(math.log2(commutator_C(f, g, h).sup_norm()))
            devs.append(abs(np.polyfit(ii, ys, 1)[0] + (alpha + beta + gamma)))
        ok &= float(np.median(devs)) <= 0.15
        msgs.append(f"dev {np.median(devs):.3f}")

    # derivative of a dyadic block costs a uniform multiple of 2^j
    for g in (TorusGrid(1, 256), TorusGrid(1, 512), TorusGrid(2, 64)):
        p = default_partition(g)
        for seed in range(3):
            f = rough(g, 0.5, seed)
            for j in range(0, p.j_max + 1):
                b = lp_block(f, j)
                r = max(derivative(b, ax).sup_norm() for ax in range(g.dim)) \
                    / (2.0 ** j * b.sup_norm())
                ok &= 0.75 <= r <= 8.0 / 3.0
    assert scoreboard(6, ok, "fitted/target slopes " + ", ".join(msgs)
                      + "; block-derivative ratios uniform")


def test_criterion_07_area_identities():
    # 1-d path area: on-diagonal entries obey the Leibniz rule exactly
    grid = TorusGrid(1, 128)
    part = default_partition(grid)
    raw = burgers_theta_path(grid, 0.9, 0.25, 4, 1, 3)
    band = grid.k_abs() <= 30
    path = raw.map(lambda f: SpectralField(grid, f.coeffs * band))
    area = burgers_area(path, part)
    err_leib = max(
        (area[n].channel(0)
         - derivative(resonant(path[n].channel(0), path[n].channel(0), part), 0)
         * 0.5).sup_norm()
        for n in (1, 4))

    # line-driver area: symmetric part is half the derivative of the
    # mutual resonant bracket
    g1 = TorusGrid(1, 256, 4 * TWO_PI)
    p1 = default_partition(g1)
    ts, xs = sample_line_path(g1, 0.75, 2, channels=2)
    drv = rde_driver(ts, xs, g1)
    th = SpectralField(g1, drv.theta.coeffs * (g1.k_abs() <= 15))
    eta = rde_area(th, derivative(th, 0), p1)
    S, _ = sym_antisym_split(eta)
    bracket = pair_resonant(th, th, p1)
    dref = SpectralField(g1, np.stack(
        [derivative(bracket.channel(i), 0).coeffs[0] for i in range(4)]))
    err_sym = (S - dref * 0.5).sup_norm()

    # second-order Taylor formula for the two-function area against
    # direct double-integral quadrature
    gq = TorusGrid(1, 256)
    pq = default_partition(gq)
    u = SpectralField.from_function(gq, lambda x: np.cos(2 * x) + 0.3 * np.sin(5 * x))
    v = SpectralField.from_function(gq, lambda x: np.sin(3 * x))
    eta_q = resonant(u, derivative(v, 0), pq)
    a, b = rough_area_check(u, v, eta_q, 0.4, 2.1)
    err_area = abs(a[0] - b[0])

    ok = err_leib <= 1e-8 and err_sym <= 1e-8 and err_area <= 1e-6
    assert scoreboard(7, ok, f"diagonal Leibniz {err_leib:.1e}, symmetric "
                      f"part {err_sym:.1e}, area formula {err_area:.1e}")


def test_criterion_08_convergence_studies(tmp_path):
    t0 = time.perf_counter()
    ladder = ["0.25", "0.125", "0.0625", "0.03125"]
    runs = {
        "rde": ["study", "--equation", "rde", "--n", "128",
                "--embedding", "1.0", "--support", "1.0", "--hurst", "0.85",
                "--alpha", "0.1", "--mollifier", "bump"],
        "burgers": ["study", "--equation", "burgers", "--n", "128",
                    "--sigma", "0.9", "--time-steps", "64",
                    "--horizon", "0.25", "--mollifier", "bump"],
        "pam": ["study", "--equation", "pam", "--n", "64",
                "--time-steps", "32", "--horizon", "0.25",
                "--mollifier", "bump"],
    }
    codes = {}
    for name, argv in runs.items():
        codes[name] = main(argv + ["--eps", *ladder, "--seeds", "20",
                                   "--out", str(tmp_path / name)])
    elapsed = time.perf_counter() - t0
    ok = all(rc == 0 for rc in codes.values()) and elapsed < 1800.0
    assert scoreboard(8, ok, "median ladder distances strictly decreasing "
                      f"(exit codes {codes}), {elapsed:.0f}s")


def test_criterion_09_translation_structure():
    E, part = _smooth_rde_data()
    grid = E.xi.grid
    z = SpectralField.zero(grid)

    T0 = enhanced_translate(E, z, z)
    err_id = max((T0.xi - E.xi).sup_norm(), (T0.theta - E.theta).sup_norm(),
                 (T0.eta - E.eta).sup_norm())

    scale = TWO_PI / grid.period
    f1 = derivative(SpectralField.from_function(
        grid, lambda x: 0.2 * np.sin(3 * scale * x)), 0)
    f2 = derivative(SpectralField.from_function(
        grid, lambda x: 0.1 * np.cos(5 * scale * x)), 0)
    g1 = SpectralField.from_function(grid, lambda x: 0.3 * np.cos(2 * scale * x))
    g2 = g1 * 0.5
    two_step = enhanced_translate(enhanced_translate(E, f1, g1), f2, g2)
    one_step = enhanced_translate(E, f1 + f2, g1 + g2)
    err_comp = max((two_step.theta - one_step.theta).sup_norm(),
                   (two_step.eta - one_step.eta).sup_norm())

    # shifting only the area is the same as adding the corresponding
    # Ito-Stratonovich-type drift correction to the classical equation
    E_shift = enhanced_translate(E, z, g1)
    err_drift = _rde_vs_ode(E_shift, part, g_shift=g1)

    ok = err_id <= 1e-10 and err_comp <= 1e-10 and err_drift <= 1e-3
    assert scoreboard(9, ok, f"identity {err_id:.1e}, composition "
                      f"{err_comp:.1e}, shifted-area vs modified drift "
                      f"{err_drift:.1e}")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    blobs = []
    for name, threads in (("a", "1"), ("b", "8")):
        monkeypatch.setenv("PARACALC_THREADS", threads)
        out = tmp_path / name
        rc1 = main(["solve-rde", "--n", "256", "--seed", "1", "--out", str(out)])
        rc2 = main(["renorm", "--n", "32", "--eps", "0.5", "0.25",
                    "--seeds", "5", "--out", str(out)])
        assert rc1 == 0 and rc2 == 0
        blobs.append(((out / "solution.field").read_bytes(),
                      (out / "remainder.field").read_bytes(),
                      (out / "renorm.csv").read_bytes()))
    ok = blobs[0] == blobs[1]
    assert scoreboard(10, ok, "field snapshots and tables byte-identical "
                      "across thread settings")
