"""Paracontrolled solvers checked against classical reference integrators."""

import dataclasses
import json
import logging
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from paracalc import (BUMP_MOLLIFIER, Blocks, EnhancedNoise, NonConvergence,
                      NonlinearFunction, SemigroupSpec, SolverConfig, SpectralField,
                      TorusGrid, burgers_area, burgers_theta_path, commutator_C,
                      damped_fixed_point, dealiased_product, derivative, heat_apply,
                      lp_block, make_dyadic_partition, mollify, pam_theta, para_gt,
                      para_lt, para_lt_time, poly_function, rde_area, rde_driver,
                      pi_F, remove_mean, resonant, sample_line_path,
                      solve_burgers, solve_pam, solve_pam_regularized,
                      solve_rde, spatial_white_noise,
                      trapezoid_exponential_path)
import paracalc.evolution
import paracalc.grid
import paracalc.solvers
import paracalc.spectral
from conftest import rough_field
from paracalc.evolution import SolverReport
from paracalc.grid import FieldPath, field_from_oversampled, oversampled_values
from paracalc.paraproducts import CausalAverage, _node_weights
from paracalc.solvers import burgers_drift, pam_drift_sharp
from paracalc.spectral import antiderivative, block_sups, default_partition
from paracalc.partition import radial_cutoff

TWO_PI = 2 * math.pi


def tanh_fn(a=1.0):
    return NonlinearFunction(lambda x: a * np.tanh(x), lambda x: a / np.cosh(x) ** 2)


# -- the paper's construction, term by term ---------------------------
#
# The solvers evaluate the renormalized products in their telescoped form.
# These references keep the paracontrolled expansion of Gubinelli,
# Imkeller and Perkowski: the Bony trio, the resonant product through the
# commutator C, and the area eta for the one singular piece.

def pam_heat(theta, part):
    """|k|^2, i k per axis and the gradients of the theta blocks: what the
    product-rule form of the heat defect reads."""
    grid = theta.grid
    return (SemigroupSpec(1.0, grid).symbol(),
            [1j * np.broadcast_to(k, grid.shape) for k in grid.freq_mesh()],
            {i: [oversampled_values(derivative(lp_block(theta, i), ax))
                 for ax in range(grid.dim)] for i in range(1, part.j_max + 1)})


def bdf2(hist, n, dt):
    """The time difference of `pam_drift_sharp` at node n of the node values
    in `hist` (node -> coefficients): zero at node 0, first order at node 1,
    BDF2 from node 2 on."""
    if n == 0:
        return 0.0
    if n == 1:
        return (hist[1] - hist[0]) / dt
    return (3.0 * hist[n] - 4.0 * hist[n - 1] + hist[n - 2]) / (2.0 * dt)


def pam_drift_by_terms(avg, n, u, theta, xi, eta, hist, F, part):
    """`pam_drift_sharp` with the resonant product F(u) @ xi expanded term
    by term and the heat defect by its definition,
    -[BDF2(ptt) + |k|^2 ptt - F(u) << xi] with ptt = F(u) << theta; theta,
    xi and eta are `Blocks` holders, and `hist` keeps ptt's coefficients
    at each node recorded so far (its last recording)."""
    grid = u.grid
    ub = Blocks(u, part)
    Fu = F(ub)
    dFu = F.deriv(ub)
    values = lambda c: oversampled_values(SpectralField(grid, c))
    ptt = pxi = 0.0
    for i, lq in enumerate(avg.at(n, Fu), start=1):
        v = values(lq)
        ptt = ptt + v * theta.block(i)
        pxi = pxi + v * xi.block(i)
    ptt, ptt_xi = (field_from_oversampled(grid, v) for v in (ptt, pxi))
    hist[n] = ptt.coeffs
    heat = bdf2(hist, n, avg.times[1] - avg.times[0])
    defect = ptt_xi - SpectralField(grid, heat + SemigroupSpec(1.0, grid).symbol() * ptt.coeffs)
    fb, db, pb = Blocks(Fu, part), Blocks(dFu, part), Blocks(ptt, part)

    drift = defect
    drift = drift + para_lt(fb, xi) - ptt_xi
    drift = drift + para_gt(fb, xi)
    drift = drift + resonant(Fu - para_lt(db, pb), xi, part)
    drift = drift + commutator_C(db, pb, xi)
    drift = drift + dealiased_product(db, resonant(ptt - para_lt(fb, theta), xi, part))
    drift = drift + dealiased_product(db, commutator_C(fb, theta, xi))
    drift = drift + dealiased_product(eta, dealiased_product(db, fb))
    return drift, ptt


def pam_drift_product_rule(avg, n, u, theta, xi, eta, theta_xi, heat, hist, F, part):
    """`pam_drift_sharp` with the heat defect in the product-rule form
    -[sum over scales of (L lq_i) Delta_i theta - 2 grad lq_i . grad Delta_i
    theta], lq_i = S_(i-1) Q_i F(u), with the time part the same difference
    of each lq_i; `hist` keeps the lq_i at each node recorded so far.  It
    equals the definition when |k|^2 Delta_i theta = Delta_i xi on every
    block i >= 1, and when xi has no Nyquist modes, whose gradients the
    real-valued transform drops."""
    grid = u.grid
    ub = Blocks(u, part)
    fb, db = Blocks(F(ub), part), Blocks(F.deriv(ub), part)
    lap, ik, grad_theta = heat
    values = lambda c: oversampled_values(SpectralField(grid, c))
    dt = avg.times[1] - avg.times[0]
    hist[n] = avg.at(n, fb.field)
    ptt = drift = 0.0
    for i, lq in enumerate(hist[n], start=1):
        v = values(lq)
        ptt = ptt + v * theta.block(i)
        dt_lq = bdf2({m: q[i - 1] for m, q in hist.items()}, n, dt)
        drift = drift - v * xi.block(i) - values(dt_lq + lq * lap) * theta.block(i)
        for k, g in zip(ik, grad_theta[i]):
            drift = drift + 2.0 * values(lq * k) * g
    drift = drift + fb.values() * xi.values()
    drift = drift - db.values() * oversampled_values(dealiased_product(fb, theta_xi))
    drift = drift + eta.values() * oversampled_values(dealiased_product(db, fb))
    return field_from_oversampled(grid, drift), field_from_oversampled(grid, ptt)


def burgers_drift_by_terms(w, theta, dtheta, eta, G, part):
    """`burgers_drift` with G(theta + w) d_x theta expanded term by term;
    theta, dtheta = d_x theta and eta are `Blocks` holders."""
    v = Blocks(theta.field + w, part)
    Gv = Blocks(G(v), part)
    dGv = Blocks(G.deriv(v), part)
    drift = para_lt(Gv, dtheta) + para_gt(Gv, dtheta)
    drift = drift + resonant(Gv.field - para_lt(dGv, theta), dtheta, part)
    drift = drift + commutator_C(dGv, theta, dtheta)
    drift = drift + dealiased_product(dGv, eta)
    return drift + dealiased_product(Gv, derivative(w, 0))


def solve_rde_resonant_fp(u, E, F, cfg):
    """Resolve the resonant product u @ xi directly from the implicit
    relation it satisfies along solutions, by damped fixed point:

        y = Phi - (F'(u) y) @ theta,
        Phi = d/dt(u @ theta) - (F(u) xi - F'(u) (u @ xi)) @ theta.

    Phi is the telescoped form of the expansion
    d/dt(u @ theta) - F(u)(xi @ theta) - C(F(u), xi, theta)
    - Pi_F(u, xi) @ theta - (F(u) above xi) @ theta.
    """
    xi, theta, u = (Blocks(f) for f in (E.xi, E.theta, u))
    dFu = Blocks(F.deriv(u))
    Phi = derivative(resonant(u, theta), 0)
    Phi = Phi - resonant(dealiased_product(F(u), xi)
                         - dealiased_product(dFu, resonant(u, xi)), theta)

    return damped_fixed_point(lambda y: Phi - resonant(dealiased_product(dFu, y), theta),
                              Phi, cfg.fp_tol, cfg.fp_max, cfg.damping, "resonant relation")[0]


def resonant_fp_by_terms(u, E, F, cfg, part):
    """`solve_rde_resonant_fp` with Phi expanded term by term:
    d/dt(u @ theta) - F(u)(xi @ theta) - C(F(u), xi, theta)
    - Pi_F(u, xi) @ theta - (F(u) above xi) @ theta."""
    xi, theta, u = (Blocks(f, part) for f in (E.xi, E.theta, u))
    Fu = Blocks(F(u), part)
    dFu = Blocks(F.deriv(u), part)
    Phi = derivative(resonant(u, theta, part), 0)
    Phi = Phi - dealiased_product(Fu, resonant(xi, theta, part))
    Phi = Phi - commutator_C(Fu, xi, theta)
    Phi = Phi - resonant(pi_F(F, u, xi), theta, part)
    Phi = Phi - resonant(para_gt(Fu, xi), theta, part)
    return damped_fixed_point(lambda y: Phi - resonant(dealiased_product(dFu, y), theta, part),
                              Phi, cfg.fp_tol, cfg.fp_max, cfg.damping, "reference")[0]


def assert_close(got, want, rtol=1e-13):
    scale = np.max(np.abs(want.coeffs))
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= rtol * scale


def compare_pam_drifts(held, theta_xi, F, part, seed, reference, rtol=1e-13):
    """`pam_drift_sharp` against `reference(avg, node, u)` for random u over
    nodes 0, 1, 1, 2, 3 (node 1 revised, as inside the solver's fixed
    point), each side with its own causal average and history."""
    times = np.arange(4) / 64.0
    lib, ref = CausalAverage(part, times), CausalAverage(part, times)
    past = {}
    for k, node in enumerate((0, 1, 1, 2, 3)):
        u = rough_field(part.grid, 0.9, seed + 10 + k)
        got = pam_drift_sharp(lib, node, u, *held, theta_xi,
                              tuple(past[m] for m in (node - 1, node - 2) if m >= 0), F)
        past[node] = got[1].coeffs
        for g, w in zip(got, reference(ref, node, u)):
            assert_close(g, w, rtol)


def test_pam_drift_acts_channel_by_channel():
    # every other drift test is one-channel, where a drift that read only
    # channel 0 of F(u) or F'(u) passes; each channel of a two-channel u,
    # with its own history, must give what a one-channel call gives
    grid = TorusGrid(2, 32)
    part = default_partition(grid)
    theta, xi, eta = (rough_field(grid, al, k) for k, al in enumerate((0.9, -1.1, -0.2)))
    held = [Blocks(f, part) for f in (theta, xi, eta)]
    theta_xi = Blocks(resonant(theta, xi, part), part)
    F = tanh_fn(0.7)
    times = np.arange(4) / 64.0
    avgs = [CausalAverage(part, times) for _ in range(3)]  # the pair, channel 0, channel 1
    pasts = [{}, {}, {}]
    for k, node in enumerate((0, 1, 1, 2, 3)):
        u = rough_field(grid, 0.9, 10 + k, channels=2)
        got = []
        for avg, past, v in zip(avgs, pasts, (u, u.channel(0), u.channel(1))):
            got.append(pam_drift_sharp(avg, node, v, *held, theta_xi,
                                       tuple(past[m] for m in (node - 1, node - 2) if m >= 0),
                                       F))
            past[node] = got[-1][1].coeffs
        for c in (0, 1):
            for g, w in zip(got[0], got[c + 1]):
                assert_close(g.channel(c), w, 1e-14)


@pytest.mark.parametrize("dim, n", [(2, 32), (1, 64)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000), a=st.floats(0.1, 2.0))
def test_drifts_equal_the_term_by_term_expansion(dim, n, seed, a):
    # random theta and xi, and an area that is neither theta @ xi nor
    # theta @ d_x theta: the telescoped drifts are the expansion, to rounding
    grid = TorusGrid(dim, n)
    part = default_partition(grid)
    theta, xi, eta = (rough_field(grid, al, seed + k)
                      for k, al in enumerate((0.9, -1.1, -0.2)))
    F = tanh_fn(a)
    held = [Blocks(f, part) for f in (theta, xi, eta)]
    hist = {}
    compare_pam_drifts(held, Blocks(resonant(theta, xi, part), part), F, part, seed,
                       lambda avg, node, u: pam_drift_by_terms(avg, node, u, *held, hist,
                                                               F, part))

    w = rough_field(grid, 0.9, seed + 20)
    dtheta = derivative(theta, 0)
    area = Blocks(eta - resonant(theta, dtheta, part), part).values()
    assert_close(burgers_drift(w, theta, area, F),
                 burgers_drift_by_terms(w, *(Blocks(f, part) for f in (theta, dtheta, eta)),
                                        F, part))


@pytest.mark.parametrize("dim, n", [(2, 32), (2, 64), (1, 64)])
def test_heat_defect_equals_the_product_rule_for_the_lift(dim, n):
    # with theta = pam_theta(xi) and xi free of Nyquist modes, the heat
    # defect by definition, -[BDF2(ptt) + |k|^2 ptt], equals its product-rule
    # expansion scale by scale plus F(u) << xi
    grid = TorusGrid(dim, n)
    part = default_partition(grid)
    nyquist = np.any([np.broadcast_to(k, grid.shape) == -n / 2 for k in grid.freq_mesh()],
                     axis=0)
    xi = rough_field(grid, -1.1, 7)
    xi = SpectralField(grid, xi.coeffs * ~nyquist)
    theta = pam_theta(xi)
    eta = rough_field(grid, -0.2, 8)
    F = tanh_fn(0.7)
    held = [Blocks(f, part) for f in (theta, xi, eta)]
    theta_xi = Blocks(resonant(theta, xi, part), part)
    heat, hist = pam_heat(theta, part), {}
    compare_pam_drifts(held, theta_xi, F, part, 0,
                       lambda avg, node, u: pam_drift_product_rule(
                           avg, node, u, *held, theta_xi, heat, hist, F, part),
                       rtol=1e-12)


def burgers_drift_one_field_per_call(w, theta, area, G, part):
    """`burgers_drift` with one transform call per field and the round trip
    of G(v) and G'(v) through the coarse spectrum: 7 calls where the
    stacked body makes 3."""
    v = theta + w
    vb = Blocks(v, part)
    out = oversampled_values(G(vb)) * oversampled_values(derivative(v, 0))
    out = out + oversampled_values(G.deriv(vb)) * area
    return field_from_oversampled(v.grid, out)


@pytest.mark.parametrize("n", [64, 128, 512])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), a=st.floats(0.1, 2.0), alpha=st.floats(-0.5, 1.0))
def test_burgers_drift_equals_one_field_per_call(n, seed, a, alpha):
    # stacking v with d_x v, and G(v) with G'(v), as the channels of one
    # call transforms each channel on its own, and `band_limit` is the
    # round trip: the drift is bit-identical, also on non-Hermitian input
    # (derivative's Nyquist content), and the tally counts the transforms
    # of the round trip
    grid = TorusGrid(1, n)
    part = default_partition(grid)
    theta, eta = rough_field(grid, 0.9, seed), rough_field(grid, -0.2, seed + 1)
    w = derivative(rough_field(grid, alpha, seed + 2), 0)
    w = w * (1.0 / w.sup_norm())
    area = Blocks(eta - resonant(theta, derivative(theta, 0), part), part).values()
    G = tanh_fn(a)
    want = burgers_drift_one_field_per_call(w, theta, area, G, part)
    got = []
    with pytest.MonkeyPatch.context() as mp:
        calls = count_transforms(mp)
        work = tally_difference(lambda: got.append(burgers_drift(w, theta, area, G)))
    assert np.array_equal(got[0].coeffs, want.coeffs)
    assert calls == {"oversampled_values": 1, "field_from_oversampled": 1, "band_limit": 1}
    assert work == {"inverse": 2, "inverse_channels": 4, "forward": 2, "forward_channels": 3}


def count_transforms(monkeypatch) -> dict:
    """Count oversampled transforms and band limits made anywhere in
    paracalc from here on."""
    calls = {"oversampled_values": 0, "field_from_oversampled": 0, "band_limit": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        orig = getattr(paracalc.grid, name)
        wrapped = counted(name, orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "paracalc" and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, wrapped)
    return calls


class TestConfig:
    def test_rejects_bad_fixed_point_settings(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, fp_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, damping=0.0)

    @pytest.mark.parametrize("bad", [{"fp_max": 0}, {"fp_max": -3}, {"fp_tol": math.nan}])
    def test_rejects_no_iteration_and_nan_tolerance(self, bad):
        # the shared fixed point needs one iteration, and a NaN tolerance
        # passes `fp_tol <= 0` while no residual can ever meet it
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.5, **bad)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1e6, math.nan, math.inf])
    def test_rejects_regularity_outside_zero_one(self, alpha):
        # a NaN or huge alpha used to give NaN or infinite norms in report.json
        with pytest.raises(ValueError, match="bad solver configuration"):
            SolverConfig(alpha=alpha)

    def test_report_advice_follows_convergence(self):
        assert [f.name for f in dataclasses.fields(SolverReport)] \
            == ["converged", "iterations", "residual", "norms"]
        assert SolverReport(True, 3, 1e-12).advice == ""
        assert "halve lambda" in json.loads(SolverReport(False, 3, 1.0).to_json())["advice"]


class TestRoughOde:
    def _enhanced(self, eps=None, seed=3):
        grid = TorusGrid(1, 512, 4 * TWO_PI)
        part = default_partition(grid)
        ts, xs = sample_line_path(grid, 0.75, seed)
        drv = rde_driver(ts, xs, grid)
        theta = drv.theta
        if eps:
            theta = mollify(theta, eps, BUMP_MOLLIFIER)
        xi = derivative(theta, 0)
        E = EnhancedNoise("rde", xi, theta, rde_area(theta, xi, part))
        return E, part

    def test_rejects_wrong_enhancement_kind(self):
        grid = TorusGrid(2, 32)
        xi = spatial_white_noise(grid, 0)
        E = EnhancedNoise("pam", xi, pam_theta(xi), xi)
        cfg = SolverConfig(alpha=0.45)
        with pytest.raises(ValueError):
            solve_rde(0.3, E, tanh_fn(), cfg)

    def test_matches_classical_ode_for_mollified_driver(self):
        # with the driver mollified the equation is a classical ODE; an
        # adaptive high-order integrator of the cutoff equation agrees
        # with the paracontrolled trajectory to spectral accuracy
        E, part = self._enhanced(eps=0.25)
        grid = E.xi.grid
        F = tanh_fn(0.4)
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
        u, usharp, rep = solve_rde(0.3, E, F, cfg, part=part)
        assert rep.converged

        xi = E.xi

        def rhs(t, y):
            p = radial_cutoff(np.array([t]), 1.0, 2.0)[0]
            return p * 0.4 * math.tanh(y[0]) * xi.eval_at(np.array([t]))[0, 0]

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
        assert err < 1e-6

    def test_remainder_is_smoother_than_the_solution(self):
        E, part = self._enhanced()
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
        u, usharp, rep = solve_rde(0.3, E, tanh_fn(0.4), cfg, part=part)
        assert rep.converged
        js = np.arange(2, part.j_max + 1)
        su = np.polyfit(js, np.log2(block_sups(u)[3:]), 1)[0]
        ss = np.polyfit(js, np.log2(block_sups(usharp)[3:]), 1)[0]
        assert ss < su - 0.8

    def test_window_reaches_at_most_a_quarter_period(self):
        # `_seam_bump` closes the antiderivative on |t| > period/4, so a wider
        # cutoff overlaps it and the solve would return a wrong trajectory
        E, part = self._enhanced(eps=0.25)
        edge = E.xi.grid.period / 4
        cfg = SolverConfig(alpha=0.45, damping=0.7)
        assert solve_rde(0.3, E, tanh_fn(0.4), cfg, edge, part)[2].converged
        with pytest.raises(ValueError, match="period/4"):
            solve_rde(0.3, E, tanh_fn(0.4), cfg, math.nextafter(edge, math.inf), part)

    def test_report_carries_advice_when_stalled(self):
        E, part = self._enhanced()
        cfg = SolverConfig(alpha=0.45, damping=0.9, fp_tol=1e-12, fp_max=2)
        with pytest.raises(NonConvergence, match="Picard iteration") as exc:
            solve_rde(0.3, E, tanh_fn(2.5), cfg, part=part)
        rep = exc.value.report
        assert rep.converged is False and rep.iterations == 2
        assert "halve lambda" in rep.advice

    def test_picard_iteration_transform_count(self, monkeypatch):
        # criterion 5's data: the area eta - theta @ xi, d/dt cutoff and
        # F(u) << theta are held, so one more iteration costs at most 18
        # inverse oversampled transforms (20 when the first two were
        # transformed on every iteration)
        E, part = self._enhanced(eps=0.25)
        calls = count_transforms(monkeypatch)
        counts = []
        for fp_max in (1, 2):
            calls.update(dict.fromkeys(calls, 0))
            with pytest.raises(NonConvergence):
                solve_rde(0.3, E, tanh_fn(0.4),
                          SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10, fp_max=fp_max),
                          part=part)
            counts.append(calls["oversampled_values"])
        assert counts[1] - counts[0] <= 18

    def test_resonant_fixed_point_on_a_manufactured_solution(self):
        # pick u first, back out the driver xi = u' / F(u); then u solves
        # the global equation and the implicit relation pins down u @ xi
        grid = TorusGrid(1, 512, 4 * TWO_PI)
        part = default_partition(grid)
        u = SpectralField.from_function(
            grid, lambda x: 0.4 * np.sin(0.5 * x) + 0.2 * np.cos(0.75 * x))
        F = poly_function([1.0, 0.3])
        xi_vals = derivative(u, 0).values()[0] / F(u).values()[0]
        xi, _ = remove_mean(SpectralField.from_values(grid, xi_vals))
        theta = antiderivative(xi)
        E = EnhancedNoise("rde", xi, theta, rde_area(theta, xi, part))
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-12)
        y = solve_rde_resonant_fp(u, E, F, cfg)
        assert (y - resonant(u, xi, part)).sup_norm() < 1e-11

    @pytest.mark.parametrize("eps", [0.25, None])
    def test_resonant_fixed_point_equals_the_term_by_term_expansion(self, eps):
        # Phi is evaluated in its telescoped form; on a rough u and driver it
        # equals the expansion through C and Pi_F, so the fixed points agree
        E, part = self._enhanced(eps=eps)
        u = rough_field(E.xi.grid, 0.45, 7) * 0.3 + 0.3
        F = tanh_fn(0.4)
        cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-12)
        assert_close(solve_rde_resonant_fp(u, E, F, cfg),
                     resonant_fp_by_terms(u, E, F, cfg, part))


class TestBurgers:
    def test_zero_driver_reduces_to_the_classical_scheme(self):
        # with theta = eta = 0 the paracontrolled drift collapses to
        # G(w) dw/dx and the stepping rule is the same, so the two paths
        # agree bit for bit
        grid = TorusGrid(1, 128)
        part = default_partition(grid)
        M, T, sigma = 32, 0.25, 0.9
        times = np.arange(M + 1) * (T / M)
        zp = FieldPath(times, [SpectralField.zero(grid)] * (M + 1))
        E = EnhancedNoise("burgers", zp, zp, zp)
        G = tanh_fn(0.5)
        w0 = SpectralField.from_function(
            grid, lambda x: 0.5 * np.sin(x) + 0.2 * np.cos(3 * x))
        cfg = SolverConfig(alpha=0.45, sigma=sigma, T=T, M=M, fp_tol=1e-12,
                           damping=1.0)
        w_path, u_path, rep = solve_burgers(w0, E, G, cfg, part=part)
        drift = lambda n, u: dealiased_product(G(u), derivative(u, 0))
        ref, _, _ = trapezoid_exponential_path(sigma, w0, drift, T, M,
                                               fp_tol=1e-12)
        assert max((w_path[n] - ref[n]).sup_norm() for n in range(M + 1)) < 1e-13
        assert max((u_path[n] - w_path[n]).sup_norm() for n in range(M + 1)) < 1e-14

    @pytest.mark.parametrize("M", [37, 64])
    def test_chunked_areas_equal_a_per_node_loop(self, M, monkeypatch):
        # the areas are built 16 nodes at a time and G(v), G'(v) band-limited
        # in one call; the solve equals the march whose drift builds each
        # node's area on its own and takes G(v), G'(v) through the coarse
        # spectrum, bit for bit, and builds each chunk once (38 and 65
        # nodes, neither a multiple of 16)
        grid = TorusGrid(1, 64)
        part = default_partition(grid)
        theta = burgers_theta_path(grid, 0.9, 0.25, M, 1, 6)
        eta = FieldPath(theta.times, [rough_field(grid, -0.2, 100 + n) for n in range(M + 1)])
        E = EnhancedNoise("burgers", None, theta, eta)
        G = tanh_fn(0.8)
        u0 = SpectralField.from_function(grid, lambda x: 0.3 * np.sin(x))
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=0.25, M=M, fp_tol=1e-12, damping=0.8)

        def drift(n, w):
            th = theta[n]
            area = Blocks(eta[n] - resonant(th, derivative(th, 0), part), part)
            return burgers_drift_one_field_per_call(w, th, area.values(), G, part)

        want = trapezoid_exponential_path(cfg.sigma, u0, drift, M * theta.dt, M,
                                          fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
                                          damping=cfg.damping)[0]
        chunks = []
        monkeypatch.setattr(paracalc.solvers, "resonant",
                            lambda *a: chunks.append(a[0].channels) or resonant(*a))
        got = solve_burgers(u0, E, G, cfg, part=part)[0]
        assert got.coeff_array().tobytes() == want.coeff_array().tobytes()
        assert chunks == [16] * (M // 16) + [(M + 1) % 16]

    def test_rejects_subcritical_sigma(self):
        grid = TorusGrid(1, 64)
        times = np.linspace(0.0, 0.25, 5)
        zp = FieldPath(times, [SpectralField.zero(grid)] * 5)
        E = EnhancedNoise("burgers", zp, zp, zp)
        cfg = SolverConfig(alpha=0.45, sigma=0.8, T=0.25, M=4)
        with pytest.raises(ValueError):
            solve_burgers(SpectralField.zero(grid), E, tanh_fn(), cfg)

    @pytest.mark.parametrize("T, M", [(0.25, 8), (0.5, 4), (0.25 * (1 + 1e-6), 4)])
    def test_rejects_a_config_off_the_driver_path(self, T, M):
        # the march runs on the path's nodes, so a config that names another
        # horizon or step count would be ignored without a word
        grid = TorusGrid(1, 64)
        times = np.linspace(0.0, 0.25, 5)
        zp = FieldPath(times, [SpectralField.zero(grid)] * 5)
        E = EnhancedNoise("burgers", zp, zp, zp)
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=T, M=M)
        with pytest.raises(ValueError, match="the driver path has T = 0.25, M = 4"):
            solve_burgers(SpectralField.zero(grid), E, tanh_fn(), cfg)

    def test_stall_raises_with_rescaling_advice(self):
        grid = TorusGrid(1, 128)
        M, T = 4, 0.25
        times = np.arange(M + 1) * (T / M)
        zp = FieldPath(times, [SpectralField.zero(grid)] * (M + 1))
        E = EnhancedNoise("burgers", zp, zp, zp)
        w0 = SpectralField.from_function(grid, lambda x: 10.0 * np.sin(x))
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=T, M=M, fp_tol=1e-14,
                           fp_max=2, damping=1.0)
        with pytest.raises(RuntimeError, match="halve lambda"):
            solve_burgers(w0, E, tanh_fn(5.0), cfg)


def rde_solve():
    grid = TorusGrid(1, 256, 4 * TWO_PI)
    ts, xs = sample_line_path(grid, 0.75, 3)
    theta = mollify(rde_driver(ts, xs, grid).theta, 0.25, BUMP_MOLLIFIER)
    xi = derivative(theta, 0)
    E = EnhancedNoise("rde", xi, theta, rde_area(theta, xi))
    cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
    return grid, lambda part: solve_rde(0.3, E, tanh_fn(0.4), cfg, part=part)


def burgers_solve():
    grid = TorusGrid(1, 64)
    theta = burgers_theta_path(grid, 0.9, 0.25, 16, 1, 4)
    E = EnhancedNoise("burgers", None, theta, burgers_area(theta))
    cfg = SolverConfig(alpha=0.45, sigma=0.9, T=0.25, M=16, fp_tol=1e-12, damping=1.0)
    u0 = SpectralField.from_function(grid, lambda x: 0.3 * np.sin(x))
    return grid, lambda part: solve_burgers(u0, E, tanh_fn(0.5), cfg, part=part)


def pam_solve():
    grid = TorusGrid(2, 32)
    xi = spatial_white_noise(grid, 5)
    xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= 4)) * 2.0
    theta = pam_theta(xi)
    E = EnhancedNoise("pam", xi, theta, resonant(theta, xi))
    cfg = SolverConfig(alpha=0.45, sigma=1.0, T=1 / 64, M=4, fp_tol=1e-11, damping=1.0)
    u0 = SpectralField.constant(grid, 0.3)
    return grid, lambda part: solve_pam(u0, E, tanh_fn(0.4), cfg, part=part)


def resonant_call():
    grid = TorusGrid(2, 32)
    f, g = rough_field(grid, 0.5, 1), rough_field(grid, -0.5, 2)
    return grid, lambda part: resonant(f, g, part)


def rde_area_call():
    grid = TorusGrid(1, 256, 4 * TWO_PI)
    theta = rough_field(grid, 0.6, 3)
    return grid, lambda part: rde_area(theta, derivative(theta, 0), part)


def burgers_area_call():
    grid = TorusGrid(1, 64)
    theta = burgers_theta_path(grid, 0.9, 0.25, 16, 1, 4)
    return grid, lambda part: burgers_area(theta, part)


def output_bytes(out) -> list:
    """The bytes of each field or path in a result (one, or a solver's
    tuple of them); a solver's report is kept as it is."""
    if isinstance(out, tuple):
        return [b for x in out for b in output_bytes(x)]
    if isinstance(out, FieldPath):
        return [out.coeff_array().tobytes()]
    if isinstance(out, SpectralField):
        return [out.coeffs.tobytes()]
    return [out]


@pytest.mark.parametrize("setup", [rde_solve, burgers_solve, pam_solve,
                                   resonant_call, rde_area_call, burgers_area_call],
                         ids=["rde", "burgers", "pam", "resonant", "rde_area", "burgers_area"])
def test_a_fresh_partition_solves_as_the_default(setup, monkeypatch):
    # perfbench passes each of these a partition built for it, not the
    # grid's shared default_partition; the result must not tell the two
    # apart, and a given partition must be the only one used: a first fill
    # of default_partition's cache during one of perfbench's repeats would
    # change its partition.make_dyadic_partition.calls, which must repeat
    grid, call = setup()
    default_partition.cache_clear()
    built = []
    monkeypatch.setattr(paracalc.spectral, "make_dyadic_partition",
                        lambda g: built.append(g) or make_dyadic_partition(g))
    fresh = call(make_dyadic_partition(grid))
    assert built == []
    assert output_bytes(fresh) == output_bytes(call(None))
    assert built == [grid]


def criterion_5_pam_solve():
    """Criterion 5's 2-d leg: band-limited noise at N = 64, c = 0.2, 128 steps."""
    grid = TorusGrid(2, 64)
    xi = spatial_white_noise(grid, 5)
    xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= 8)) * 3.0
    theta = pam_theta(xi)
    E = EnhancedNoise("pam", xi, theta, resonant(theta, xi) - 0.2, 0.2)
    cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.25, M=128, fp_tol=1e-11, damping=1.0)
    u0 = SpectralField.constant(grid, 0.3)
    return grid, lambda part: solve_pam(u0, E, tanh_fn(0.4), cfg, part=part)


def tally_difference(fn) -> dict:
    """What one call of fn adds to `grid.tally`."""
    before = dict(paracalc.grid.tally)
    fn()
    return {k: v - before[k] for k, v in paracalc.grid.tally.items()}


class TestTransformTally:
    @pytest.mark.parametrize("setup", [criterion_5_pam_solve, rde_solve, burgers_solve],
                             ids=["pam", "rde", "burgers"])
    def test_solves_count_as_the_rebinding_does(self, setup, monkeypatch):
        # the transforms count themselves through any wrapper put around
        # them, so the tally and the rebinding count see the same calls; a
        # band limit is one transform each way
        _, solve = setup()
        calls = count_transforms(monkeypatch)
        work = tally_difference(lambda: solve(None))
        assert work["inverse"] == calls["oversampled_values"] + calls["band_limit"] > 0
        assert work["forward"] == calls["field_from_oversampled"] + calls["band_limit"] > 0

    def test_channels_of_known_calls(self):
        grid = TorusGrid(2, 32)
        f, g = rough_field(grid, 0.5, 1), rough_field(grid, -0.5, 2)
        j_max = default_partition(grid).j_max
        assert tally_difference(lambda: Blocks(f).block(0)) == {
            "inverse": 1, "inverse_channels": j_max + 2, "forward": 0, "forward_channels": 0}
        assert tally_difference(lambda: dealiased_product(f, g)) == {
            "inverse": 2, "inverse_channels": 2, "forward": 1, "forward_channels": 1}
        pair = rough_field(grid, 0.5, 3, channels=2)
        assert tally_difference(lambda: dealiased_product(pair, g)) == {
            "inverse": 2, "inverse_channels": 3, "forward": 1, "forward_channels": 2}


class TestPam:
    def _enhanced(self, grid, part, amp=2.0, band=4, seed=5):
        xi = spatial_white_noise(grid, seed)
        xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= band)) * amp
        theta = pam_theta(xi)
        return EnhancedNoise("pam", xi, theta, resonant(theta, xi, part))

    def test_matches_regularized_solve_for_band_limited_noise(self):
        # band-limited noise needs no renormalization on this lattice, so
        # the paracontrolled march and the classical implicit exponential
        # scheme solve the same equation
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        F = tanh_fn(0.4)
        u0 = SpectralField.constant(grid, 0.3)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.1, M=32, fp_tol=1e-11,
                           damping=1.0)
        u_path, _, rep = solve_pam(u0, E, F, cfg, part=part)
        ref = solve_pam_regularized(u0, E.xi, 0.0, F, cfg)
        err = max((u_path[n] - ref[n]).sup_norm() for n in range(len(u_path)))
        assert rep.converged
        assert err < 5e-5

    def test_second_order_in_the_time_step(self):
        # the heat defect's time difference is BDF2 inside the trapezoid
        # march, so halving the step cuts the gap to the oracle about four
        # times (a first-order difference halves it)
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        F = tanh_fn(0.4)
        u0 = SpectralField.constant(grid, 0.3)
        errs = []
        for M in (16, 32):
            cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.1, M=M, fp_tol=1e-11,
                               damping=1.0)
            u_path, _, _ = solve_pam(u0, E, F, cfg, part=part)
            ref = solve_pam_regularized(u0, E.xi, 0.0, F, cfg)
            errs.append(max((u_path[n] - ref[n]).sup_norm() for n in range(M + 1)))
        assert errs[0] / errs[1] >= 3.5

    def test_second_order_on_the_criterion_5_config(self):
        # criterion 5's 2-d leg: its 1e-4 bound sits far above the error, so
        # it cannot see a first-order time difference; the error ratios can
        # (about 3.8 and 3.9 here, 1.97 with a first-order difference)
        grid = TorusGrid(2, 64)
        part = default_partition(grid)
        xi = spatial_white_noise(grid, 5)
        xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= 8)) * 3.0
        theta = pam_theta(xi)
        E = EnhancedNoise("pam", xi, theta, resonant(theta, xi, part) - 0.2, 0.2)
        u0 = SpectralField.constant(grid, 0.3)
        errs = []
        for M in (32, 64, 128):
            cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.25, M=M, fp_tol=1e-11,
                               damping=1.0)
            u_path, _, _ = solve_pam(u0, E, tanh_fn(0.4), cfg, part=part)
            ref = solve_pam_regularized(u0, xi, 0.2, tanh_fn(0.4), cfg)
            errs.append(max((u_path[n] - ref[n]).sup_norm() for n in range(M + 1)))
        assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5

    def test_zero_nonlinearity_gives_pure_heat_flow(self):
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        rng = np.random.default_rng(1)
        u0 = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.1, M=8)
        u_path, sharp_path, _ = solve_pam(u0, E, poly_function([0.0]), cfg,
                                          part=part)
        spec = SemigroupSpec(1.0, grid)
        for n, t in enumerate(u_path.times):
            assert (u_path[n] - heat_apply(u0, t, spec.sigma)).sup_norm() < 1e-13
            assert (u_path[n] - sharp_path[n]).sup_norm() < 1e-14

    def test_causal_average_is_frozen_share_plus_current_node(self):
        # the solver revises node n's value inside its fixed point; the
        # average must follow the final value and the frozen earlier nodes
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        times = np.arange(9) / 64.0
        avg = CausalAverage(part, times)
        rng = np.random.default_rng(3)
        final = rng.standard_normal((9, 1) + grid.shape) + 0j

        def full(n):
            return [np.tensordot(_node_weights(k, n, 9), final, axes=(0, 0))
                    * part.low_mask(i - 1) for i, k in enumerate(avg.kernels, start=1)]

        for n in range(9):
            avg.at(n, SpectralField(grid, 2.0 * final[n]))
            out = avg.at(n, SpectralField(grid, final[n]))
            for q, ref in zip(out, full(n)):
                assert np.max(np.abs(q - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_drift_ptt_is_the_time_mollified_paraproduct(self):
        # the drift's ptt is para_lt_time of the recorded F(u) path with
        # theta, bit for bit, also where a node is revised before it freezes
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        held = [Blocks(f, part) for f in (E.theta, E.xi, E.eta)]
        held.append(Blocks(resonant(held[0], held[1], part), part))
        times = np.arange(9) / 512.0
        avg, F = CausalAverage(part, times), tanh_fn(0.4)
        fu, ptt, past = [], [], ()
        for n in range(len(times)):
            for k in (0, 1):  # a first value, then the one that stays
                u = rough_field(grid, 0.9, 10 * n + k)
                out = pam_drift_sharp(avg, n, u, *held, past, F)[1]
            fu.append(F(u))
            ptt.append(out)
            past = (out.coeffs,) + past[:1]
        want = para_lt_time(FieldPath(times, fu), FieldPath(times, [E.theta] * len(times)))
        for got, w in zip(ptt, want.fields):
            assert np.array_equal(got.coeffs, w.coeffs)

    def test_drift_ptt_follows_revisions_where_a_block_is_unresolved(self, caplog):
        # at 2-d N = 64 a step of 1/32 leaves block 3 unmollified: that scale
        # weighs every node by itself, so nothing is held, a revision of F(u)
        # moves ptt (theta keeps its block 3), and ptt is still para_lt_time
        # of the final values
        grid = TorusGrid(2, 64)
        part = default_partition(grid)
        E = self._enhanced(grid, part, band=32)
        held = [Blocks(f, part) for f in (E.theta, E.xi, E.eta)]
        held.append(Blocks(resonant(held[0], held[1], part), part))
        times = np.arange(5) / 32.0
        with caplog.at_level(logging.WARNING, logger="paracalc.paraproducts"):
            avg, F = CausalAverage(part, times), tanh_fn(0.4)
        assert "below block 3" in caplog.text
        fu, ptt, past = [], [], ()
        for n in range(len(times)):
            first = pam_drift_sharp(avg, n, rough_field(grid, 0.9, 10 * n), *held, past, F)[1]
            u = rough_field(grid, 0.9, 10 * n + 1)
            out = pam_drift_sharp(avg, n, u, *held, past, F)[1]
            assert not np.array_equal(first.coeffs, out.coeffs)
            fu.append(F(u))
            ptt.append(out)
            past = (out.coeffs,) + past[:1]
        want = para_lt_time(FieldPath(times, fu), FieldPath(times, [E.theta] * len(times)))
        for got, w in zip(ptt, want.fields):
            assert np.array_equal(got.coeffs, w.coeffs)

    @pytest.mark.parametrize("M, unresolved", [(32, False), (8, True)],
                             ids=["resolved", "block-3-unresolved"])
    def test_the_solution_is_ptt_plus_usharp_of_its_own_path(self, caplog, M, unresolved):
        # at 2-d N = 64 and T = 1/4, 8 steps leave block 3 unmollified (as
        # parity's solve-pam-n64) and 32 resolve every scale; to the fp_tol
        # level u - usharp is para_lt_time of F(u) along the returned path,
        # each usharp step is the trapezoid-exponential step of the drifts
        # rebuilt from that path (a BDF2 history one node late moves a step
        # by 3e-6 or more), and the damped solve finds the same fixed point
        grid = TorusGrid(2, 64)
        part = default_partition(grid)
        E = self._enhanced(grid, part, band=32)
        held = [Blocks(f, part) for f in (E.theta, E.xi, E.eta)]
        held.append(Blocks(resonant(held[0], held[1], part), part))
        F, u0 = tanh_fn(0.4), SpectralField.constant(grid, 0.3)
        decay, A, B = SemigroupSpec(1.0, grid).step_weights(0.25 / M)
        paths = []
        for damping in (1.0, 0.7):
            cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.25, M=M, fp_tol=1e-9,
                               damping=damping)
            with caplog.at_level(logging.WARNING, logger="paracalc.paraproducts"):
                u, s, _ = solve_pam(u0, E, F, cfg, part=part)
            assert ("below block 3" in caplog.text) == unresolved
            tol = 10 * cfg.fp_tol
            ptt = [(a - b).coeffs for a, b in zip(u.fields, s.fields)]
            want = para_lt_time(u.map(F), FieldPath(u.times, [E.theta] * (M + 1)))
            assert max(np.max(np.abs(p - w.coeffs)) for p, w in zip(ptt, want.fields)) < tol
            avg = CausalAverage(part, u.times)
            N = [pam_drift_sharp(avg, n, u[n], *held,
                                 tuple(ptt[m] for m in (n - 1, n - 2) if m >= 0), F)[0].coeffs
                 for n in range(M + 1)]
            for n in range(M):
                step = s[n].coeffs * decay + N[n] * (A - B) + N[n + 1] * B
                assert np.max(np.abs(s[n + 1].coeffs - step)) < tol
            paths.append(u.coeff_array())
        assert np.max(np.abs(paths[0] - paths[1])) < tol

    @pytest.mark.parametrize("n, T, M, step, block", [
        pytest.param(32, 0.5, 4, "0.125", 2, id="4-1"),
        pytest.param(32, 0.5, 16, None, None, id="16-0"),
        pytest.param(32, 0.5, 8, "0.0625", 2, id="width-equals-step"),
        pytest.param(64, 0.2499, 16, "0.0156", 3, id="width-just-above-step")])
    def test_unresolved_time_step_is_logged_once(self, caplog, n, T, M, step, block):
        # at N = 32 the finest window is 4^-2 wide: a step of 1/8 cannot
        # resolve it, a step of 1/32 can; a window as wide as the step
        # (1/16), or a hair wider (4^-3 against 0.2499/16), puts every
        # kernel tap on a zero of the kernel or below the smallest double
        grid = TorusGrid(2, n)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=T, M=M)
        with caplog.at_level(logging.WARNING, logger="paracalc.paraproducts"):
            solve_pam(SpectralField.constant(grid, 0.3), E, tanh_fn(0.4), cfg, part=part)
        logged = [r.getMessage() for r in caplog.records if "cannot resolve" in r.getMessage()]
        assert logged == [f"time step {step} cannot resolve mollification below block "
                          f"{block}; using unmollified values there"][:step is not None]

    @pytest.mark.parametrize("c_eps", [0.7, 0.0])
    def test_regularized_solve_matches_the_plain_product_drift(self, c_eps):
        # holding xi_eps and stacking F(u) and F'(u) as channels changes no
        # arithmetic, so the solve equals the same march with its drift
        # written as plain products, the two summed before one forward
        # transform
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        F = tanh_fn(0.4)
        u0 = SpectralField.constant(grid, 0.3)
        cfg = SolverConfig(alpha=0.45, T=0.05, M=8, fp_tol=1e-10, damping=1.0)

        def drift(n, u):
            fu = oversampled_values(F(u))
            out = fu * oversampled_values(xi)
            if c_eps != 0.0:
                out = out - c_eps * (oversampled_values(F.deriv(u)) * fu)
            return field_from_oversampled(grid, out)

        ref, _, _ = trapezoid_exponential_path(1.0, u0, drift, cfg.T, cfg.M,
                                               fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
                                               damping=cfg.damping, blowup=1e6)
        out = solve_pam_regularized(u0, xi, c_eps, F, cfg)
        assert np.array_equal(out.coeff_array(), ref.coeff_array())

    @pytest.mark.parametrize("c_eps, channels", [(0.7, (3, 3)), (0.0, (2, 2))])
    def test_regularized_drift_transform_counts(self, monkeypatch, c_eps, channels):
        # xi_eps is transformed once, before the march; each drift evaluation
        # transforms u once, band-limits F(u) and, for c_eps != 0, F'(u) as
        # channels of one call, one transform each way, and transforms the
        # summed products once
        drifts = []
        monkeypatch.setattr(paracalc.solvers, "trapezoid_exponential_path",
                            lambda sigma, u0, drift, *a, **k:
                            (drifts.append(drift), 0, 0.0))
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        u = SpectralField.from_values(grid, np.random.default_rng(2).standard_normal(grid.shape))
        calls = count_transforms(monkeypatch)
        solve_pam_regularized(u, xi, c_eps, tanh_fn(0.4),
                              SolverConfig(alpha=0.45, T=0.05, M=8))
        assert calls == {"oversampled_values": 1, "field_from_oversampled": 0, "band_limit": 0}
        (drift,) = drifts
        for n in (0, 1):
            calls.update(dict.fromkeys(calls, 0))
            work = tally_difference(lambda: drift(n, u))
            assert calls == {"oversampled_values": 1, "field_from_oversampled": 1,
                             "band_limit": 1}
            assert work == {"inverse": 2, "inverse_channels": channels[0],
                            "forward": 2, "forward_channels": channels[1]}

    def test_drift_transform_counts(self, monkeypatch):
        # criterion 5's 2-d config: once the first call has transformed the
        # fixed blocks, a node's first drift makes at most 8 inverse and 6
        # forward transforms (the product-rule heat defect made 17 and 6,
        # the term-by-term expansion 53 and 23); dt = 1/256 resolves every
        # scale, so node n >= 1 has weight 0 in its own average and each
        # revision reuses the node's ptt: 3 inverse and 1 forward fewer
        calls = count_transforms(monkeypatch)
        per_call = []

        def counted(*args, **kwargs):
            calls.update(dict.fromkeys(calls, 0))
            out = pam_drift_sharp(*args, **kwargs)
            per_call.append((args[1], calls["oversampled_values"],
                             calls["field_from_oversampled"]))
            return out

        monkeypatch.setattr(paracalc.solvers, "pam_drift_sharp", counted)
        grid = TorusGrid(2, 64)
        part = default_partition(grid)
        xi = spatial_white_noise(grid, 5)
        xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= 8)) * 3.0
        theta = pam_theta(xi)
        E = EnhancedNoise("pam", xi, theta, resonant(theta, xi, part) - 0.2, 0.2)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=2 * 0.25 / 128, M=2, fp_tol=1e-11,
                           damping=1.0)
        solve_pam(SpectralField.constant(grid, 0.3), E, tanh_fn(0.4), cfg, part=part)
        nodes = [n for n, _, _ in per_call]
        assert nodes[0] == 0 and all(nodes.count(n) > 1 for n in (1, 2))
        for k, (n, inverse, forward) in enumerate(per_call[1:], start=1):
            if nodes[k - 1] != n:
                assert inverse <= 8 and forward <= 6
            else:
                assert (inverse, forward) == (5, 5)

    @pytest.mark.parametrize("T, M, most", [(0.25, 128, None), (8 / 512, 8, 25)],
                             ids=["criterion-5", "pam2d"])
    def test_one_drift_evaluation_per_inner_iteration(self, monkeypatch, T, M, most):
        # criterion 5's 2-d config and perfbench's pam2d steps: node 0's
        # drift, then one evaluation per inner iteration of each node's
        # fixed point, none again at the accepted node; the march's
        # variable-order predictor starts each node (25 calls at the pam2d
        # config on this noise, 24 on perfbench's seed 1, 26 from a linear
        # start)
        calls, its = [], []
        fixed_point = paracalc.evolution.damped_fixed_point

        def counted_drift(*args, **kwargs):
            calls.append(args[1])
            return pam_drift_sharp(*args, **kwargs)

        def counted_fixed_point(*args):
            out = fixed_point(*args)
            its.append(out[1])
            return out

        monkeypatch.setattr(paracalc.solvers, "pam_drift_sharp", counted_drift)
        monkeypatch.setattr(paracalc.evolution, "damped_fixed_point", counted_fixed_point)
        grid = TorusGrid(2, 64)
        part = default_partition(grid)
        xi = spatial_white_noise(grid, 5)
        xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= 8)) * 3.0
        theta = pam_theta(xi)
        E = EnhancedNoise("pam", xi, theta, resonant(theta, xi, part) - 0.2, 0.2)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=T, M=M, fp_tol=1e-11, damping=1.0)
        solve_pam(SpectralField.constant(grid, 0.3), E, tanh_fn(0.4), cfg, part=part)
        assert len(its) == M
        assert len(calls) == 1 + sum(its)
        assert calls == [0] + [n + 1 for n, k in enumerate(its) for _ in range(k)]
        assert most is None or len(calls) <= most

    def test_non_finite_residual_stops_the_solve_at_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return pam_drift_sharp(*args, **kwargs)

        monkeypatch.setattr(paracalc.solvers, "pam_drift_sharp", counted)
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        # a NaN nonlinearity is rejected when it is registered, so the
        # non-finite residual comes from NaN noise
        E = self._enhanced(grid, part, amp=math.nan)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=0.1, M=4, fp_max=50)
        with pytest.raises(RuntimeError, match="halve lambda"):
            solve_pam(SpectralField.constant(grid, 0.3), E, tanh_fn(0.4), cfg, part=part)
        assert len(calls) <= 3

    def test_requires_the_laplacian(self):
        grid = TorusGrid(2, 32)
        part = default_partition(grid)
        E = self._enhanced(grid, part)
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=0.1, M=8)
        with pytest.raises(ValueError):
            solve_pam(SpectralField.zero(grid), E, tanh_fn(), cfg)

    def test_regularized_solver_raises_on_a_stalled_step(self):
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        cfg = SolverConfig(alpha=0.45, T=0.05, M=4, fp_tol=1e-15, fp_max=1,
                           damping=1.0)
        with pytest.raises(RuntimeError, match="halve lambda"):
            solve_pam_regularized(SpectralField.constant(grid, 0.3), xi, 0.7,
                                  tanh_fn(0.4), cfg)

    def test_regularized_solver_reports_blowup(self):
        grid = TorusGrid(2, 32)
        xi = spatial_white_noise(grid, 7) * 200.0
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=2.0, M=16, fp_tol=1e-10)
        with pytest.raises(RuntimeError):
            solve_pam_regularized(SpectralField.constant(grid, 5.0), xi, 0.0,
                                  poly_function([0.0, 1.0]), cfg)

    def test_regularized_solver_runs_below_the_dyadic_partition(self):
        # the classical solve uses no dyadic blocks, so a grid too coarse
        # for a partition is fine; the linear equation with a constant
        # start and no noise decays by e^(-c t)
        grid = TorusGrid(2, 16)
        cfg = SolverConfig(alpha=0.45, T=0.5, M=4, fp_tol=1e-13, damping=1.0)
        out = solve_pam_regularized(SpectralField.constant(grid, 0.3), SpectralField.zero(grid),
                                    0.5, poly_function([0.0, 1.0]), cfg)
        assert abs(out[-1].mean()[0] - 0.3 * math.exp(-0.25)) <= 1e-4

    @pytest.mark.parametrize("M, T", [(0, 1.0), (-2, 1.0), (8, 0.0), (8, -1.0), (8, math.nan),
                                      (8, math.inf)])
    def test_solver_config_rejects_bad_time_grids(self, M, T):
        with pytest.raises(ValueError, match="bad solver configuration"):
            SolverConfig(alpha=0.45, M=M, T=T)

    @pytest.mark.parametrize("M", [0, -2])
    def test_march_rejects_non_positive_step_counts(self, M):
        grid = TorusGrid(1, 16)
        with pytest.raises(ValueError, match="at least one time step"):
            trapezoid_exponential_path(1.0, SpectralField.zero(grid), lambda n, u: u,
                                       1.0, M)


class TestReferenceIntegrators:
    def test_etd2_with_zero_source_is_exact_decay(self):
        grid = TorusGrid(1, 128)
        w0 = SpectralField.from_function(
            grid, lambda x: 0.5 * np.sin(x) + 0.2 * np.cos(3 * x))
        path, _, _ = trapezoid_exponential_path(
            1.0, w0, lambda n, u: SpectralField.zero(grid), 0.5, 8,
            fp_tol=math.inf)
        spec = SemigroupSpec(1.0, grid)
        for n, t in enumerate(path.times):
            assert (path[n] - heat_apply(w0, t, spec.sigma)).sup_norm() < 1e-14

    def test_etd2_second_order_on_a_scalar_mode(self):
        # logistic-type source on the zero mode: halving the step shrinks
        # the endpoint error by about four
        grid = TorusGrid(1, 32)
        u0 = SpectralField.constant(grid, 0.1)
        source = lambda n, u: u * 1.0 - poly_function([0.0, 0.0, 1.0])(u)
        ref = solve_ivp(lambda t, y: y - y ** 2, (0.0, 1.0), [0.1],
                        rtol=1e-12, atol=1e-14).y[0, -1]
        errs = []
        for M in (8, 16, 32):
            path, _, _ = trapezoid_exponential_path(1.0, u0, source, 1.0, M,
                                                    fp_tol=math.inf)
            errs.append(abs(path[-1].mean()[0] - ref))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_explicit_etd2_evaluates_the_drift_at_both_ends_of_each_step(self):
        grid = TorusGrid(1, 32)
        nodes = []

        def drift(n, u):
            nodes.append(n)
            return u * -1.0

        path, iterations, _ = trapezoid_exponential_path(
            1.0, SpectralField.constant(grid, 1.0), drift, 1.0, 4,
            fp_tol=math.inf)
        assert nodes == [0, 1, 1, 2, 2, 3, 3, 4]
        assert iterations == 1 and len(path) == 5

    def test_implicit_march_evaluates_the_drift_only_in_its_correctors(self, monkeypatch):
        # with fp_tol finite the corrector's last drift is the next step's
        # left drift: one evaluation at node 0, then only the k evaluations
        # of node n + 1 inside step n's corrector, none again at the
        # accepted node
        its = []
        fixed_point = paracalc.evolution.damped_fixed_point

        def counted(*args):
            out = fixed_point(*args)
            its.append(out[1])
            return out

        monkeypatch.setattr(paracalc.evolution, "damped_fixed_point", counted)
        grid = TorusGrid(1, 32)
        u0 = SpectralField.from_function(grid, lambda x: 0.5 * np.sin(x) + 0.2 * np.cos(3 * x))
        nodes = []

        def drift(n, u):
            nodes.append(n)
            return u * 1.0 - poly_function([0.0, 0.0, 1.0])(u)

        trapezoid_exponential_path(1.0, u0, drift, 0.5, 8, fp_tol=1e-12)
        assert len(its) == 8 and min(its) >= 2
        assert nodes == [0] + [n + 1 for n, k in enumerate(its) for _ in range(k)]

    @staticmethod
    def corrector_evaluations(monkeypatch, solve, linear=False) -> int:
        """The drift evaluations inside the march's correctors during
        `solve()`, with the march's start made linear when asked."""
        its = []
        fixed_point = paracalc.evolution.damped_fixed_point
        with monkeypatch.context() as m:
            m.setattr(paracalc.evolution, "damped_fixed_point",
                      lambda *a: its.append(fixed_point(*a)) or its[-1])
            if linear:
                m.setattr(paracalc.evolution, "_MAX_DIFFERENCE", 1)
            solve()
        return sum(k for _, k, _ in its)

    def test_a_smooth_drift_starts_above_the_linear_order(self, monkeypatch):
        # the classical PAM march on mollified noise: the drift is smooth in
        # time, so the start keeps high differences and most steps converge
        # in two correctors or fewer; the linear start 2 N_n - N_(n-1)
        # takes three (29 against 48 here)
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        cfg = SolverConfig(alpha=0.45, T=0.25, M=16, fp_tol=1e-10, damping=1.0)
        solve = lambda: solve_pam_regularized(SpectralField.constant(grid, 0.3), xi, 0.7,
                                              tanh_fn(0.4), cfg)
        most = 2 * cfg.M
        assert self.corrector_evaluations(monkeypatch, solve) <= most
        assert self.corrector_evaluations(monkeypatch, solve, linear=True) > most

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_a_rough_drift_keeps_the_linear_start(self, monkeypatch, seed):
        # perfbench's line1d Burgers inputs: space-time white noise makes
        # the drift rough in time, the differences grow, and the march does
        # exactly the corrector work of the linear start (318 to 320 per seed)
        grid = TorusGrid(1, 128)
        part = default_partition(grid)
        raw = burgers_theta_path(grid, 0.9, 0.25, 64, 1, seed)
        theta = raw.map(lambda f: SpectralField(grid, f.coeffs * (grid.k_abs() <= 10)))
        E = EnhancedNoise("burgers", None, theta, burgers_area(theta, part))
        cfg = SolverConfig(alpha=0.45, sigma=0.9, T=0.25, M=64, fp_tol=1e-12, damping=1.0)
        u0 = SpectralField.from_function(grid, lambda x: 0.3 * np.sin(x))
        solve = lambda: solve_burgers(u0, E, tanh_fn(0.5), cfg, part=part)
        assert (self.corrector_evaluations(monkeypatch, solve)
                == self.corrector_evaluations(monkeypatch, solve, linear=True))

    def test_implicit_march_agrees_with_a_tight_solve(self):
        # the extrapolated start and the reused corrector drift move the
        # march by no more than its tolerance allows: against the march at
        # fp_tol 1e-14, and against the trapezoid rule that evaluates the
        # drift afresh at every accepted node (a drift reused from the first
        # corrector, not the last, misses it by 3.8e-8)
        grid = TorusGrid(2, 32)
        xi = mollify(spatial_white_noise(grid, 3), 0.25, BUMP_MOLLIFIER)
        u0, F = SpectralField.constant(grid, 0.3), tanh_fn(0.4)
        a, b = (solve_pam_regularized(u0, xi, 0.7, F,
                                      SolverConfig(alpha=0.45, T=0.25, M=16, fp_tol=tol,
                                                   damping=1.0)).coeff_array()
                for tol in (1e-10, 1e-14))
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))

        def drift(c):
            u = SpectralField(grid, c)
            fu = oversampled_values(F(u))
            return field_from_oversampled(grid, fu * oversampled_values(xi) - 0.7 * (
                oversampled_values(F.deriv(u)) * fu)).coeffs

        decay, A, B = SemigroupSpec(1.0, grid).step_weights(0.25 / 16)
        ref = [u0.coeffs]
        for n in range(16):
            base = ref[-1] * decay + drift(ref[-1]) * (A - B)
            c = ref[-1]
            for _ in range(60):
                c = base + drift(c) * B
            ref.append(c)
        assert np.max(np.abs(a - np.stack(ref))) <= 1e-9 * np.max(np.abs(b))

    def test_non_finite_drift_raises_at_once(self):
        grid = TorusGrid(1, 32)
        nodes = []

        def drift(n, u):
            nodes.append(n)
            return u * math.nan

        with pytest.raises(NonConvergence, match="step 0: fixed point diverged at residual nan"):
            trapezoid_exponential_path(1.0, SpectralField.constant(grid, 1.0),
                                       drift, 1.0, 4)
        assert nodes == [0, 1]

    def test_slow_divergence_raises(self):
        # the damped residual grows 1.75x per iteration, never fourfold over
        # the previous one, but passes four times the smallest one at the 4th
        grid = TorusGrid(1, 32)
        with pytest.raises(NonConvergence, match="step 0: fixed point diverged") as exc:
            trapezoid_exponential_path(1.0, SpectralField.constant(grid, 1.0),
                                       lambda n, u: u * 20.0, 1.0, 4, fp_max=200,
                                       damping=0.5)
        assert exc.value.report.iterations <= 6

    @pytest.mark.parametrize("fp_max", [0, -1])
    def test_fixed_point_rejects_no_iterations(self, fp_max):
        grid = TorusGrid(1, 32)
        u0 = SpectralField.constant(grid, 1.0)
        with pytest.raises(ValueError, match="fp_max"):
            damped_fixed_point(lambda u: u, u0, 1e-12, fp_max, 1.0, "test")
        with pytest.raises(ValueError, match="fp_max"):
            trapezoid_exponential_path(1.0, u0, lambda n, u: u * -1.0, 1.0, 4,
                                       fp_max=fp_max)

    @pytest.mark.parametrize("damping", [0.5, 0.8, 1.0])
    def test_fixed_point_update_on_arrays_equals_the_field_update(self, damping):
        # step(x) - x is formed once on the coefficients and serves both the
        # residual and the update; a + (b * -1.0) is a - b in IEEE
        # arithmetic, so every iterate equals that of x + (step(x) - x) * damping
        grid = TorusGrid(1, 64)
        c = rough_field(grid, 0.5, 3)
        c = c * (0.5 / c.sup_norm())
        step = lambda x: dealiased_product(x, x) * 0.2 + c
        x, want = SpectralField.zero(grid), None
        for k in range(1, 81):
            cand = step(x)
            res = float(np.max(np.abs(cand.coeffs - x.coeffs)))
            x = x + (cand - x) * damping
            if res <= 1e-12 * (1.0 + np.max(np.abs(x.coeffs))):
                want = (x.coeffs.tobytes(), k, res)
                break
        got = damped_fixed_point(step, SpectralField.zero(grid), 1e-12, 80, damping, "test")
        assert (got[0].coeffs.tobytes(), *got[1:]) == want

    def test_blowup_raises_non_convergence(self):
        grid = TorusGrid(1, 32)
        # each explicit step multiplies the mean by 18.5, past 100 at step 1
        with pytest.raises(NonConvergence, match="step 1: solution exceeded the blow-up bound") as exc:
            trapezoid_exponential_path(1.0, SpectralField.constant(grid, 1.0),
                                       lambda n, u: u * 20.0, 1.0, 4, fp_tol=math.inf,
                                       blowup=100.0)
        assert exc.value.report.converged is False and exc.value.report.iterations == 1
