"""Paracontrolled solvers for the three singular equations, plus the
classical exponential-integrator references used as oracles.

All three solvers are scalar (one channel).  Each consumes an
EnhancedNoise, so the renormalization lives entirely in the area input:
substituting eta -> eta - c is what turns the naive equation into the
renormalized one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .enhanced import EnhancedNoise
from .evolution import (NonConvergence, Predictor, SolverReport, damped_fixed_point,
                        trapezoid_exponential_path)
from .grid import (_NODE_CHUNK, FieldPath, SpectralField, TorusGrid, band_limit,
                   dealiased_product, field_from_oversampled, oversampled_values)
from .noise import centered_time, time_cutoff
from .paraproducts import Blocks, CausalAverage, NonlinearFunction, para_gt, para_lt, resonant
from .partition import DyadicPartition, radial_cutoff
from .spectral import (antiderivative, besov_norm, default_partition, derivative,
                       fractional_laplacian)


@dataclass
class SolverConfig:
    alpha: float
    sigma: float = 1.0
    T: float = 1.0
    M: int = 64
    fp_tol: float = 1e-9
    fp_max: int = 80
    damping: float = 0.5

    def __post_init__(self):
        # `not >` also rejects a NaN tolerance, regularity or horizon
        if not (self.fp_tol > 0 and self.fp_max >= 1 and 0 < self.damping <= 1
                and self.M >= 1 and 0 < self.T < math.inf and 0 < self.alpha < 1):
            raise ValueError(f"bad solver configuration: {self}")


# -- rough ODE --------------------------------------------------------

def _seam_bump(grid: TorusGrid) -> tuple[SpectralField, float]:
    """A smooth bump at the far side of the time-line torus, used to close
    periodic antiderivatives: subtracting (mass/bump mass) * bump removes
    the mean of an integrand without touching the cutoff's support."""
    x = grid.points()[0]
    vals = radial_cutoff(x - grid.period / 2, grid.period / 8, grid.period / 4)
    f = SpectralField.from_values(grid, vals)
    return f, float(f.mean()[0])


def _closed_antiderivative(f: SpectralField, bump: SpectralField,
                           bump_mean: float) -> SpectralField:
    """Antiderivative after closing the loop at the seam bump, exact on the
    complement of the bump's support."""
    m = float(f.mean()[0])
    return antiderivative(f - bump * (m / bump_mean))


def solve_rde(u0: float, E: EnhancedNoise, F: NonlinearFunction,
              cfg: SolverConfig, support: float = 2.0,
              part: DyadicPartition | None = None):
    """Damped Picard iteration for the localized rough ODE
    du/dt = cutoff * F(u) * xi on the time-line torus, cutoff = time_cutoff(t, support).

    The iteration updates the whole trajectory at once: assemble the
    remainder's driving term from the current iterate, integrate it, and
    rebuild u from the paracontrolled ansatz
    u = cutoff * (F(u) below theta) + usharp.

    Raises ValueError for a non-finite u0 and unless 0 < support <= period/4:
    a wider cutoff reaches `_seam_bump`, and the answer is silently wrong.
    """
    if E.kind != "rde":
        raise ValueError("solve_rde expects line-driver enhanced data")
    if not math.isfinite(u0):
        raise ValueError(f"the initial value must be finite, got {u0}")
    grid = E.xi.grid
    if not 0 < support <= grid.period / 4:  # also rejects NaN
        raise ValueError(f"support {support} not in (0, period/4 = {grid.period / 4:.6g}]")
    xi, theta = E.xi, E.theta
    eta = E.eta.channel(0) if E.eta.channels > 1 else E.eta
    phi = SpectralField.from_values(grid, time_cutoff(centered_time(grid), support))
    bump, bump_mean = _seam_bump(grid)
    xi_b, theta_b, phi_b = (Blocks(f, part) for f in (xi, theta, phi))
    area = Blocks(eta - resonant(theta_b, xi_b), part)
    dphi = Blocks(derivative(phi, 0), part)

    def picard(u: SpectralField) -> SpectralField:
        ub = Blocks(u, part)
        Fu = Blocks(F(ub), part)
        para = Blocks(para_lt(Fu, theta_b), part)
        phi_para = dealiased_product(phi_b, para)

        # the chain-rule expansion of the resonant part telescopes: every
        # piece coming from (u - u0) @ xi cancels, and the area enters only
        # through eta - theta @ xi
        terms = para_gt(Fu, xi_b) + resonant(Fu, xi_b)
        terms = terms + dealiased_product(F.deriv(ub),
                                          dealiased_product(phi_b, dealiased_product(Fu, area)))
        terms = terms - para_lt(derivative(Fu.field, 0), theta_b)

        rhs = dealiased_product(phi_b, terms) - dealiased_product(dphi, para)
        U = _closed_antiderivative(rhs, bump, bump_mean)
        sharp0 = u0 - float(phi_para.eval_at(np.zeros(1))[0, 0])
        return phi_para + U + SpectralField.constant(grid, sharp0)

    u, it, residual = damped_fixed_point(picard, SpectralField.constant(grid, u0), cfg.fp_tol,
                                         cfg.fp_max, cfg.damping, "Picard iteration")
    phi_para = dealiased_product(phi_b, para_lt(F(u), theta_b))
    usharp = u - phi_para
    norms = {
        "u_alpha": besov_norm(Blocks(u, part), cfg.alpha),
        "usharp_2alpha": besov_norm(Blocks(usharp, part), 2 * cfg.alpha),
        "xi_alpha_minus_1": besov_norm(xi_b, cfg.alpha - 1),
        "theta_alpha": besov_norm(theta_b, cfg.alpha),
        "eta_2alpha_minus_1": besov_norm(Blocks(eta, part), 2 * cfg.alpha - 1),
    }
    return u, usharp, SolverReport(True, it, residual, norms)


# -- fractional Burgers -----------------------------------------------

def burgers_drift(w: SpectralField, theta: SpectralField, area: np.ndarray,
                  G: NonlinearFunction) -> SpectralField:
    """Paracontrolled drift G(v) d_x v at one node, v = theta + w.

    Its Bony expansion, with the singular resonant part routed through the
    supplied area eta = theta @ d_x theta, telescopes to the renormalized
    product G(v) d_x v + G'(v) (eta - theta @ d_x theta); `area` holds the
    oversampled values of eta - theta @ d_x theta at the node.

    Three calls, each on stacked channels: one inverse transform for v and
    d_x v, one `band_limit` for G(v) and G'(v), one forward transform for
    the sum (4 inverse and 3 forward channel transforms, as `grid.tally`
    counts them)."""
    v = theta + w
    grid, c = v.grid, v.channels
    both = np.concatenate((v.coeffs, derivative(v, 0).coeffs))
    vals = oversampled_values(SpectralField(grid, both))
    g = band_limit(grid, np.concatenate((G.f(vals[:c]), G.d1(vals[:c]))))
    return field_from_oversampled(grid, g[:c] * vals[c:] + g[c:] * area)


def solve_burgers(u0: SpectralField, E: EnhancedNoise, G: NonlinearFunction,
                  cfg: SolverConfig, part: DyadicPartition | None = None):
    """Mild-form stepping of the fractional conservation-type equation:
    u = theta + w where w absorbs the initial condition and the drift.

    Each step applies the trapezoid-exponential rule with a damped inner
    fixed point for the implicit endpoint of the drift.  A drift
    evaluation (`burgers_drift`) makes 3 transform calls.  The areas
    eta - theta @ d_x theta are built for 16 nodes at a time, stacked as
    the channels of one field (one `resonant` and one inverse transform
    per chunk), and only the chunk the march is in is held.  cfg.T and
    cfg.M must match the driver path's horizon and step count, or
    ValueError is raised.
    """
    if E.kind != "burgers":
        raise ValueError("solve_burgers expects path enhanced data")
    theta_path: FieldPath = E.theta
    eta_path: FieldPath = E.eta
    if not (cfg.sigma > 5.0 / 6.0):
        raise ValueError("need sigma > 5/6")
    M = len(theta_path) - 1
    if cfg.M != M or not math.isclose(cfg.T, theta_path.times[-1]):
        raise ValueError(f"config has T = {cfg.T}, M = {cfg.M}; the driver path "
                         f"has T = {theta_path.times[-1]}, M = {M}")
    grid = theta_path.grid
    theta = [f.channel(0) for f in theta_path.fields]
    eta = [f.channel(0) for f in eta_path.fields]

    # the march asks for the nodes in order; keep only the current chunk
    @functools.lru_cache(maxsize=1)
    def chunk(k):
        nodes = slice(k * _NODE_CHUNK, (k + 1) * _NODE_CHUNK)
        th, et = (SpectralField(grid, np.concatenate([f.coeffs for f in fs[nodes]]))
                  for fs in (theta, eta))
        return Blocks(et - resonant(th, derivative(th, 0), part), part).values()

    def drift(n, w):
        k, i = divmod(n, _NODE_CHUNK)
        return burgers_drift(w, theta[n], chunk(k)[i:i + 1], G)

    w_path, worst_it, worst_res = trapezoid_exponential_path(
        cfg.sigma, u0, drift, M * theta_path.dt, M, fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
        damping=cfg.damping)
    u_path = FieldPath(theta_path.times, [a + b for a, b in zip(theta, w_path.fields)])
    norms = {
        "theta_alpha_final": besov_norm(Blocks(theta[-1], part), cfg.alpha),
        "w_final_sup": w_path[-1].sup_norm(),
        "eta_final_2alpha_minus_1": besov_norm(Blocks(eta[-1], part), 2 * cfg.alpha - 1),
    }
    return w_path, u_path, SolverReport(True, worst_it, worst_res, norms)


# -- 2-d multiplicative heat equation ---------------------------------

def pam_drift_sharp(avg: CausalAverage, n: int, u: SpectralField,
                    theta: Blocks, xi: Blocks, eta: Blocks, theta_xi: Blocks, past,
                    F: NonlinearFunction):
    """Driving term of the remainder at node n, given u at that node.

    `avg` holds the causal averages of F(u) along the solve, node n - 1
    being the last frozen one, and `past` the coefficients of
    ptt = F(u) << theta at the frozen nodes n - 1 and n - 2 that exist, the
    latest first; the fixed theta, xi, eta and theta @ xi come as `Blocks`
    holders, and u is held on theta's partition.  Returns (drift, ptt).

    The ansatz u = ptt + usharp gives the drift F(u) <> xi - L ptt, for any
    theta.  On the grid the paracontrolled expansion of the renormalized
    product telescopes to F(u) xi - F'(u) (F(u) (theta @ xi)) + eta (F'(u) F(u)),
    associated as written, since truncated products are not associative.
    L ptt is |k|^2 ptt plus the BDF2 difference of ptt's node values from
    node 2 on, the first-order one at node 1 and none at the initial node,
    where the clamped history is constant.  ptt is `avg.paraproduct`, one
    inverse transform per scale and one forward, none where `avg` holds it;
    the products are summed in real space before one forward transform."""
    grid, part = u.grid, theta.part
    ub = Blocks(u, part)
    fb, db = Blocks(F(ub), part), Blocks(F.deriv(ub), part)
    ptt = avg.paraproduct(n, fb.field, theta)
    drift = fb.values() * xi.values()
    drift = drift - db.values() * oversampled_values(dealiased_product(fb, theta_xi))
    drift = drift + eta.values() * oversampled_values(dealiased_product(db, fb))
    p, dt = ptt.coeffs, avg.times[1] - avg.times[0]
    heat = fractional_laplacian(ptt, 1.0).coeffs
    if n == 1:
        heat = heat + (p - past[0]) / dt
    elif n > 1:
        heat = heat + (3.0 * p - 4.0 * past[0] + past[1]) / (2.0 * dt)
    return SpectralField(grid, field_from_oversampled(grid, drift).coeffs - heat), ptt


def solve_pam(u0: SpectralField, E: EnhancedNoise, F: NonlinearFunction,
              cfg: SolverConfig, part: DyadicPartition | None = None):
    """Paracontrolled solver for the 2-d multiplicative-noise heat equation
    with stationary lifted noise.

    `trapezoid_exponential_path` marches the remainder usharp from
    u0 - ptt_0, ptt = F(u) << theta, and u = ptt + usharp at each node.
    The march's drift holds each node's latest ptt: entering node n it
    freezes node n - 1's, for the BDF2 heat term of `pam_drift_sharp` and
    for the u path, and starts node n from the ptt a `Predictor`
    extrapolates from the frozen ones; each evaluation is `pam_drift_sharp`
    at u = ptt + usharp, whose ptt it keeps.  At damping 1 this is the
    fixed point on u, iterate for iterate.  Where the causal average gives
    node n no weight, ptt there is built once and held for the node's later
    iterations (`CausalAverage.paraproduct`); where a block is unresolved,
    ptt lags one iteration behind u, with the same fixed point.  Node 0's
    drift is evaluated once, before the march, and a non-finite ptt_0 (NaN
    noise) raises NonConvergence there.
    """
    if E.kind != "pam":
        raise ValueError("solve_pam expects 2-d static enhanced data")
    if cfg.sigma != 1.0:
        raise ValueError("the 2-d solver is specific to sigma = 1")
    if not np.all(np.isfinite(u0.coeffs)):
        raise ValueError("the initial value must be finite")
    grid = E.xi.grid
    part = part or default_partition(grid)
    held = [Blocks(f, part) for f in (E.theta, E.xi, E.eta)]
    held.append(Blocks(resonant(held[0], held[1]), part))
    avg = CausalAverage(part, np.arange(cfg.M + 1) * (cfg.T / cfg.M))

    drift0, ptt0 = pam_drift_sharp(avg, 0, u0, *held, (), F)
    if not np.all(np.isfinite(ptt0.coeffs)):
        raise NonConvergence("step 0: the paraproduct of the initial value is not finite",
                             0, math.nan)
    ptts, history, past = [ptt0], Predictor(), ()

    def drift(n: int, usharp: SpectralField) -> SpectralField:
        nonlocal past
        if n == 0:
            return drift0
        if n == len(ptts):  # the march has accepted node n - 1
            past = (ptts[-1].coeffs,) + past[:1]
            history.push(past[0])
            ptts.append(SpectralField(grid, history.next()))
        out, ptts[n] = pam_drift_sharp(avg, n, ptts[n] + usharp, *held, past, F)
        return out

    sharp_path, worst_it, worst_res = trapezoid_exponential_path(
        1.0, u0 - ptt0, drift, cfg.T, cfg.M, fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
        damping=cfg.damping, blowup=math.inf)
    u_path = FieldPath(sharp_path.times, [p + s for p, s in zip(ptts, sharp_path.fields)])
    norms = {
        "u_final_alpha": besov_norm(Blocks(u_path[-1], part), cfg.alpha),
        "usharp_final_2alpha": besov_norm(Blocks(sharp_path[-1], part), 2 * cfg.alpha),
        "xi_alpha_minus_2": besov_norm(held[1], cfg.alpha - 2),
        "theta_alpha": besov_norm(held[0], cfg.alpha),
    }
    return u_path, sharp_path, SolverReport(True, worst_it, worst_res, norms)


def solve_pam_regularized(u0: SpectralField, xi_eps: SpectralField, c_eps: float,
                          F: NonlinearFunction, cfg: SolverConfig) -> FieldPath:
    """Classical reference solve of the renormalized regularized equation
    L u = F(u) xi_eps - c_eps F'(u) F(u), by the implicit
    trapezoid-exponential rule (each step iterated to convergence, blow-up bound 1e6).

    xi_eps is held for the whole solve.  A drift evaluation makes 3 transform
    calls: u inverse, one `band_limit` of F(u) and F'(u) as two channels (F(u)
    alone for c_eps = 0), and F(u) xi_eps - c_eps (F'(u) F(u)) forward; by
    `grid.tally`, 2 inverse and 2 forward transforms."""
    fns = (F.f, F.d1) if c_eps else (F.f,)
    xi_values = oversampled_values(xi_eps)

    def drift(n: int, u: SpectralField) -> SpectralField:
        v = oversampled_values(u)
        g = band_limit(u.grid, np.concatenate([f(v) for f in fns]))
        out = g[:1] * xi_values
        return field_from_oversampled(u.grid, out - c_eps * (g[1:] * g[:1]) if c_eps else out)

    return trapezoid_exponential_path(cfg.sigma, u0, drift, cfg.T, cfg.M,
                                      fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
                                      damping=cfg.damping, blowup=1e6)[0]
