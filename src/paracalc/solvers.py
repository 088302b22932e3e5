"""Paracontrolled solvers for the three singular equations, plus the
classical exponential-integrator references used as oracles.

All three solvers are scalar (one channel).  Each consumes an
EnhancedNoise, so the renormalization lives entirely in the area input:
substituting eta -> eta - c is what turns the naive equation into the
renormalized one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .enhanced import EnhancedNoise
from .evolution import SemigroupSpec, _duhamel_weights
from .grid import (FieldPath, SpectralField, TorusGrid, dealiased_product,
                   field_from_oversampled, oversampled_values)
from .noise import default_time_cutoff
from .paraproducts import (Blocks, NonlinearFunction, commutator_C, para_gt,
                           para_lt, pi_F, pi_times, resonant, _qi_weights,
                           causal_bump)
from .partition import DyadicPartition, radial_cutoff
from .spectral import (antiderivative, besov_norm, default_partition,
                       derivative, lp_block, remove_mean)


@dataclass
class SolverConfig:
    alpha: float
    sigma: float = 1.0
    T: float = 1.0
    M: int = 64
    lam: float = 1.0
    fp_tol: float = 1e-9
    fp_max: int = 80
    damping: float = 0.5
    beta: float | None = None  # second parabolic exponent; defaults to alpha

    def __post_init__(self):
        if self.fp_tol <= 0 or not 0 < self.damping <= 1:
            raise ValueError("bad fixed-point configuration")
        if self.beta is None:
            self.beta = self.alpha


@dataclass
class SolverReport:
    converged: bool
    iterations: int
    residual: float
    norms: dict = field(default_factory=dict)
    advice: str = ""

    def to_json(self) -> str:
        return json.dumps({"converged": bool(self.converged),
                           "iterations": int(self.iterations),
                           "residual": float(self.residual),
                           "norms": {k: float(v) for k, v in self.norms.items()},
                           "advice": self.advice}, indent=2, sort_keys=True)


def scaled_function(F: NonlinearFunction, s: float) -> NonlinearFunction:
    mk = lambda g: (None if g is None else (lambda x, g=g: s * g(x)))
    return NonlinearFunction(mk(F.f), mk(F.d1), mk(F.d2), mk(F.d3),
                             name=f"{s}*{F.name}", validate=False)


# -- rough ODE --------------------------------------------------------

def _centered_time(grid: TorusGrid) -> np.ndarray:
    x = grid.points()[0]
    return np.where(x < grid.period / 2, x, x - grid.period)


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
              cfg: SolverConfig, cutoff=default_time_cutoff,
              part: DyadicPartition | None = None):
    """Damped Picard iteration for the localized rough ODE
    du/dt = cutoff * F(u) * xi on the time-line torus.

    The iteration updates the whole trajectory at once: assemble the
    remainder's driving term from the current iterate, integrate it, and
    rebuild u from the paracontrolled ansatz
    u = cutoff * (F(u) below theta) + usharp.
    """
    if E.kind != "rde":
        raise ValueError("solve_rde expects line-driver enhanced data")
    grid = E.xi.grid
    part = part or default_partition(grid)
    xi, theta = E.xi, E.theta
    eta = E.eta.channel(0) if E.eta.channels > 1 else E.eta
    t = _centered_time(grid)
    phi = SpectralField.from_values(grid, cutoff(t))
    dphi = derivative(phi, 0)
    bump, bump_mean = _seam_bump(grid)
    xi_b, theta_b, phi_b = (Blocks(f, part) for f in (xi, theta, phi))
    phi_res_xi = resonant(phi_b, xi_b, part)

    sh = lambda g: (None if g is None else (lambda x, g=g: g(u0 + x)))
    F_shift = NonlinearFunction(sh(F.f), sh(F.d1), sh(F.d2), sh(F.d3),
                                name=f"{F.name}(u0+.)", validate=False)

    u = SpectralField.constant(grid, u0)
    u0f = SpectralField.constant(grid, u0)
    residual = math.inf
    it = 0
    for it in range(1, cfg.fp_max + 1):
        ub = Blocks(u, part)
        Fu = Blocks(F(ub), part)
        dFu = F.deriv(ub)
        para = para_lt(Fu, theta_b, part)
        phi_para = phi_b.times(para)
        usharp = u - phi_para

        # chain-rule expansion of the resonant part; the derivative factor
        # multiplies every piece coming from (u - u0) @ xi
        terms = para_gt(Fu, xi_b, part)
        terms = terms + pi_F(F_shift, u - u0f, xi_b, part)
        inner = resonant(usharp - u0f, xi_b, part)
        inner = inner + dealiased_product(para, phi_res_xi)
        inner = inner + pi_times(phi_b, para, xi_b, part)
        inner = inner + phi_b.times(commutator_C(Fu, theta_b, xi_b, part))
        inner = inner + phi_b.times(Fu.times(eta))
        terms = terms + dealiased_product(dFu, inner)
        terms = terms - para_lt(derivative(Fu.field, 0), theta_b, part)

        rhs = phi_b.times(terms) - dealiased_product(dphi, para)
        U = _closed_antiderivative(rhs, bump, bump_mean)
        sharp0 = u0 - float(phi_para.eval_at(np.zeros(1))[0, 0])
        candidate = phi_para + U + SpectralField.constant(grid, sharp0)

        residual = float(np.max(np.abs(candidate.values() - u.values())))
        u = u + (candidate - u) * cfg.damping
        if residual <= cfg.fp_tol * (1.0 + u.sup_norm()):
            break

    phi_para = phi_b.times(para_lt(F(u), theta_b, part))
    usharp = u - phi_para
    converged = residual <= cfg.fp_tol * (1.0 + u.sup_norm())
    norms = {
        "u_alpha": besov_norm(u, cfg.alpha, part),
        "usharp_2alpha": besov_norm(usharp, 2 * cfg.alpha, part),
        "xi_alpha_minus_1": besov_norm(xi, cfg.alpha - 1, part),
        "theta_alpha": besov_norm(theta, cfg.alpha, part),
        "eta_2alpha_minus_1": besov_norm(eta, 2 * cfg.alpha - 1, part),
    }
    advice = "" if converged else \
        "no contraction; retry with dilated data (halve lambda) or smaller F"
    return u, usharp, SolverReport(converged, it, residual, norms, advice)


def solve_rde_resonant_fp(u: SpectralField, E: EnhancedNoise,
                          F: NonlinearFunction, cfg: SolverConfig,
                          part: DyadicPartition | None = None) -> SpectralField:
    """Resolve the resonant product u @ xi directly from the implicit
    relation it satisfies along solutions, by damped fixed point:

        y = Phi - (F'(u) y) @ theta,
        Phi = d/dt(u @ theta) - F(u)(xi @ theta) - C(F(u), xi, theta)
              - Pi_F(u, xi) @ theta - (F(u) above xi) @ theta.
    """
    grid = u.grid
    part = part or default_partition(grid)
    xi, theta = Blocks(E.xi, part), Blocks(E.theta, part)
    u = Blocks(u, part)
    Fu = Blocks(F(u), part)
    dFu = Blocks(F.deriv(u), part)
    Phi = derivative(resonant(u, theta, part), 0)
    Phi = Phi - Fu.times(resonant(xi, theta, part))
    Phi = Phi - commutator_C(Fu, xi, theta, part)
    Phi = Phi - resonant(pi_F(F, u, xi, part), theta, part)
    Phi = Phi - resonant(para_gt(Fu, xi, part), theta, part)

    y = Phi
    prev = math.inf
    for _ in range(cfg.fp_max):
        cand = Phi - resonant(dFu.times(y), theta, part)
        res = float(np.max(np.abs(cand.values() - y.values())))
        y = y + (cand - y) * cfg.damping
        if res <= cfg.fp_tol * (1.0 + y.sup_norm()):
            return y
        if res > 4.0 * prev and res > 1.0:
            break
        prev = res
    raise RuntimeError("resonant fixed point did not contract; "
                       f"theta norm at alpha: {besov_norm(E.theta, cfg.alpha, part):.3g}")


# -- generic exponential-integrator stepping --------------------------

def etd2_solve(grid: TorusGrid, sigma: float, u0: SpectralField, nonlinearity,
               T: float, M: int, blowup: float = 1e8) -> FieldPath:
    """Second-order exponential time differencing (predictor-corrector)
    for L u = N(u) with L = d/dt + (-Laplacian)^sigma.

    `nonlinearity` maps a SpectralField to a SpectralField.  Used as the
    classical reference solver and for the regularized equations.
    """
    spec = SemigroupSpec(sigma, grid)
    dt = T / M
    z = spec.symbol() * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)
    times = np.arange(M + 1) * dt
    fields = [u0]
    c = u0.coeffs
    for _ in range(M):
        n0 = nonlinearity(SpectralField(grid, c)).coeffs
        pred = c * decay + n0 * A
        n1 = nonlinearity(SpectralField(grid, pred)).coeffs
        c = c * decay + n0 * (A - B) + n1 * B
        f = SpectralField(grid, c)
        if not np.isfinite(c).all() or np.max(np.abs(c)) > blowup:
            raise RuntimeError("reference solve blew up")
        fields.append(f)
    return FieldPath(times, fields)


def trapezoid_exponential_path(grid: TorusGrid, sigma: float, u0: SpectralField,
                               nonlinearity, T: float, M: int,
                               fp_tol: float = 1e-12, fp_max: int = 50,
                               damping: float = 1.0, blowup: float = 1e8) -> FieldPath:
    """Like etd2_solve but with the implicit trapezoid-exponential rule,
    iterating each step to convergence.  Slightly more work per step, used
    where the implicit endpoint matters."""
    spec = SemigroupSpec(sigma, grid)
    dt = T / M
    z = spec.symbol() * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)
    times = np.arange(M + 1) * dt
    fields = [u0]
    c = u0.coeffs
    for _ in range(M):
        n0 = nonlinearity(SpectralField(grid, c)).coeffs
        base = c * decay + n0 * (A - B)
        nxt = c * decay + n0 * A
        for _ in range(fp_max):
            n1 = nonlinearity(SpectralField(grid, nxt)).coeffs
            cand = base + n1 * B
            res = np.max(np.abs(cand - nxt))
            nxt = nxt + (cand - nxt) * damping
            if res <= fp_tol * (1.0 + np.max(np.abs(nxt))):
                break
        c = nxt
        if not np.isfinite(c).all() or np.max(np.abs(c)) > blowup:
            raise RuntimeError("solution exceeded the blow-up bound")
        fields.append(SpectralField(grid, c))
    return FieldPath(times, fields)


# -- fractional Burgers -----------------------------------------------

def burgers_drift(w: SpectralField, theta: Blocks, dtheta: Blocks, eta: Blocks,
                  G: NonlinearFunction, part: DyadicPartition) -> SpectralField:
    """Paracontrolled drift G(theta + w) d_x(theta + w), with the singular
    resonant part routed through the supplied area eta = theta @ d_x theta.
    theta, its derivative dtheta and eta at the node come as `Blocks`
    holders, so the inner iteration transforms them once."""
    v = Blocks(theta.field + w, part)
    Gv = Blocks(G(v), part)
    dGv = Blocks(G.deriv(v), part)
    drift = para_lt(Gv, dtheta, part) + para_gt(Gv, dtheta, part)
    drift = drift + resonant(Gv.field - para_lt(dGv, theta, part), dtheta, part)
    drift = drift + commutator_C(dGv, theta, dtheta, part)
    drift = drift + dGv.times(eta)
    return drift + Gv.times(derivative(w, 0))


def solve_burgers(u0: SpectralField, E: EnhancedNoise, G: NonlinearFunction,
                  cfg: SolverConfig, part: DyadicPartition | None = None):
    """Mild-form stepping of the fractional conservation-type equation:
    u = theta + w where w absorbs the initial condition and the drift.

    Each step applies the trapezoid-exponential rule with a damped inner
    fixed point for the implicit endpoint of the drift.
    """
    if E.kind != "burgers":
        raise ValueError("solve_burgers expects path enhanced data")
    theta_path: FieldPath = E.theta
    eta_path: FieldPath = E.eta
    grid = theta_path.grid
    part = part or default_partition(grid)
    if not (cfg.sigma > 5.0 / 6.0):
        raise ValueError("need sigma > 5/6")
    spec = SemigroupSpec(cfg.sigma, grid)
    M = len(theta_path) - 1
    dt = theta_path.dt
    z = spec.symbol() * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)

    theta = [f.channel(0) for f in theta_path.fields]
    eta = [f.channel(0) for f in eta_path.fields]
    held = lambda n: [Blocks(f, part) for f in (theta[n], derivative(theta[n], 0), eta[n])]

    w = u0
    fields = [w]
    worst_res = 0.0
    worst_it = 0
    held_next = held(0)
    for n in range(M):
        held_now, held_next = held_next, held(n + 1)
        d0 = burgers_drift(w, *held_now, G, part).coeffs
        base = w.coeffs * decay + d0 * (A - B)
        nxt = w.coeffs * decay + d0 * A
        res = math.inf
        for k in range(1, cfg.fp_max + 1):
            d1 = burgers_drift(SpectralField(grid, nxt), *held_next, G, part).coeffs
            cand = base + d1 * B
            res = float(np.max(np.abs(cand - nxt)))
            nxt = nxt + (cand - nxt) * cfg.damping
            if res <= cfg.fp_tol * (1.0 + np.max(np.abs(nxt))):
                break
        if res > cfg.fp_tol * (1.0 + np.max(np.abs(nxt))):
            raise RuntimeError(
                f"step {n}: inner fixed point stalled at residual {res:.3g}; "
                "halve lambda (dilate the data) or refine the time grid")
        worst_res = max(worst_res, res)
        worst_it = max(worst_it, k)
        w = SpectralField(grid, nxt)
        fields.append(w)

    w_path = FieldPath(theta_path.times, fields)
    u_path = FieldPath(theta_path.times, [a + b for a, b in zip(theta, fields)])
    norms = {
        "theta_alpha_final": besov_norm(theta[-1], cfg.alpha, part),
        "w_final_sup": fields[-1].sup_norm(),
        "eta_final_2alpha_minus_1": besov_norm(eta[-1], 2 * cfg.alpha - 1, part),
    }
    return w_path, u_path, SolverReport(True, worst_it, worst_res, norms)


# -- 2-d multiplicative heat equation ---------------------------------

class _MollifiedParaMachine:
    """Book-keeping for the time-mollified paraproduct terms of the 2-d
    solver, marching causally in time.

    Keeps the history of f = F(u) coefficients, the quadrature rows of the
    scale-dependent time averages, the share of each average that the
    frozen nodes contribute, the last frozen node's averages (for
    backward-difference time derivatives), and the oversampled values of
    the fixed blocks of theta, xi and grad theta.
    """

    def __init__(self, part: DyadicPartition, theta: Blocks, xi: Blocks,
                 times: np.ndarray):
        grid = part.grid
        self.grid = grid
        self.times = times
        self.blocks = list(range(1, part.j_max + 1))
        self.weights = {i: _qi_weights(times, i, causal_bump) for i in self.blocks}
        self.low_masks = {i: part.low_mask(i - 1) for i in self.blocks}
        self.theta_blocks = {i: theta.block(i) for i in self.blocks}
        self.xi_blocks = {i: xi.block(i) for i in self.blocks}
        self.grad_theta_blocks = {
            i: [oversampled_values(derivative(lp_block(theta.field, i, part), ax))
                for ax in range(grid.dim)]
            for i in self.blocks}
        self.hist = np.zeros((len(times),) + (1,) + grid.shape, dtype=np.complex128)
        self.lap = grid.k_abs() ** 2
        self.ik = [1j * np.broadcast_to(k, grid.shape) for k in grid.freq_mesh()]
        self.frozen_node = None
        self.frozen = {}    # i -> the frozen nodes' share of the average at frozen_node
        self.prev = {}      # i -> averages at the last frozen node

    def set_f(self, n: int, f: SpectralField):
        self.hist[n] = f.coeffs

    def _low_avg(self, n: int, i: int) -> np.ndarray:
        """S_(i-1)-filtered causal time average of f at node n: the share of
        the earlier nodes, which are frozen, plus the weight times node n."""
        if self.frozen_node != n:
            self.frozen_node = n
            self.frozen = {}
            for j in self.blocks:
                row = self.weights[j][n, :n]
                nz = np.nonzero(row)[0]
                self.frozen[j] = np.tensordot(row[nz], self.hist[nz], axes=(0, 0))
        q = self.frozen[i] + self.weights[i][n, n] * self.hist[n]
        return q * self.low_masks[i]

    def freeze(self, n: int):
        """Keep the node's averages once its value is final."""
        self.prev = {i: self._low_avg(n, i) for i in self.blocks}

    def terms(self, n: int):
        """f << theta, f << xi and the heat defect -[L(f << theta) - f << xi]
        at node n, node n - 1 being the last frozen one.

        The defect follows the product rule: each scale contributes
        -(L S Q f) Delta theta + 2 grad(S Q f) . grad(Delta theta), using
        that L theta = xi kills the remaining term.  The time part of
        L S Q f is a backward difference of the averages (zero at the
        initial node, where the clamped history is constant)."""
        dt = self.times[1] - self.times[0]
        values = lambda c: oversampled_values(SpectralField(self.grid, c))
        ptt = pxi = defect = 0.0
        for i in self.blocks:
            lq = self._low_avg(n, i)
            v = values(lq)
            ptt = ptt + v * self.theta_blocks[i]
            pxi = pxi + v * self.xi_blocks[i]
            dt_lq = (lq - self.prev[i]) / dt if n > 0 else 0.0
            defect = defect - values(dt_lq + lq * self.lap) * self.theta_blocks[i]
            for ax, ik in enumerate(self.ik):
                defect = defect + 2.0 * values(lq * ik) * self.grad_theta_blocks[i][ax]
        return tuple(field_from_oversampled(self.grid, v) for v in (ptt, pxi, defect))


def pam_drift_sharp(machine: _MollifiedParaMachine, n: int, u: SpectralField,
                    theta: Blocks, xi: Blocks, eta: Blocks,
                    F: NonlinearFunction, part: DyadicPartition):
    """Driving term of the remainder at node n, given u at that node.

    The resonant product of F(u) with the rough xi is expanded so that the
    only genuinely singular piece is carried by the supplied area eta.
    The fixed theta, xi and eta come as `Blocks` holders, transformed once
    per solve.  Returns (drift, para_tt_theta) so the caller can rebuild u."""
    ub = Blocks(u, part)
    Fu = F(ub)
    dFu = F.deriv(ub)
    machine.set_f(n, Fu)
    ptt, ptt_xi, defect = machine.terms(n)
    fb, db, pb = Blocks(Fu, part), Blocks(dFu, part), Blocks(ptt, part)

    drift = defect
    drift = drift + para_lt(fb, xi, part) - ptt_xi
    drift = drift + para_gt(fb, xi, part)
    # the resonant product, term by term
    drift = drift + resonant(Fu - para_lt(db, pb, part), xi, part)
    drift = drift + commutator_C(db, pb, xi, part)
    drift = drift + db.times(resonant(ptt - para_lt(fb, theta, part), xi, part))
    drift = drift + db.times(commutator_C(fb, theta, xi, part))
    drift = drift + eta.times(db.times(fb))
    return drift, ptt


def solve_pam(u0: SpectralField, E: EnhancedNoise, F: NonlinearFunction,
              cfg: SolverConfig, part: DyadicPartition | None = None):
    """Paracontrolled solver for the 2-d multiplicative-noise heat equation
    with stationary lifted noise.

    Marches the remainder with the exact per-mode exponential rule and
    rebuilds u = (F(u) << theta) + usharp through a damped inner fixed
    point at each node.
    """
    if E.kind != "pam":
        raise ValueError("solve_pam expects 2-d static enhanced data")
    if cfg.sigma != 1.0:
        raise ValueError("the 2-d solver is specific to sigma = 1")
    xi, theta, eta = E.xi, E.theta, E.eta
    grid = xi.grid
    part = part or default_partition(grid)
    spec = SemigroupSpec(1.0, grid)
    dt = cfg.T / cfg.M
    times = np.arange(cfg.M + 1) * dt
    z = spec.symbol() * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)

    held = [Blocks(f, part) for f in (theta, xi, eta)]
    machine = _MollifiedParaMachine(part, held[0], held[1], times)

    u = u0
    drift0, ptt0 = pam_drift_sharp(machine, 0, u, *held, F, part)
    machine.freeze(0)
    usharp = u0 - ptt0
    u_fields = [u]
    sharp_fields = [usharp]
    worst_res = 0.0
    worst_it = 0
    for n in range(cfg.M):
        u_next = u
        res = math.inf
        for k in range(1, cfg.fp_max + 1):
            drift1, ptt1 = pam_drift_sharp(machine, n + 1, u_next, *held, F, part)
            sharp_next = SpectralField(
                grid, usharp.coeffs * decay + drift0.coeffs * (A - B)
                + drift1.coeffs * B)
            cand = ptt1 + sharp_next
            res = float(np.max(np.abs(cand.coeffs - u_next.coeffs)))
            u_next = u_next + (cand - u_next) * cfg.damping
            if res <= cfg.fp_tol * (1.0 + u_next.sup_norm()):
                break
        if not np.isfinite(res) or res > cfg.fp_tol * (1.0 + u_next.sup_norm()) * 10:
            raise RuntimeError(
                f"node {n + 1}: fixed point stalled at residual {res:.3g}; "
                "dilate the data (halve lambda) or refine the time grid")
        drift1, ptt1 = pam_drift_sharp(machine, n + 1, u_next, *held, F, part)
        machine.freeze(n + 1)
        usharp = SpectralField(grid, usharp.coeffs * decay
                               + drift0.coeffs * (A - B) + drift1.coeffs * B)
        u = ptt1 + usharp
        drift0 = drift1
        u_fields.append(u)
        sharp_fields.append(usharp)
        worst_res = max(worst_res, res)
        worst_it = max(worst_it, k)

    u_path = FieldPath(times, u_fields)
    sharp_path = FieldPath(times, sharp_fields)
    norms = {
        "u_final_alpha": besov_norm(u, cfg.alpha, part),
        "usharp_final_alpha_plus_beta": besov_norm(usharp, cfg.alpha + cfg.beta, part),
        "xi_alpha_minus_2": besov_norm(xi, cfg.alpha - 2, part),
        "theta_alpha": besov_norm(theta, cfg.alpha, part),
    }
    return u_path, sharp_path, SolverReport(True, worst_it, worst_res, norms)


def solve_pam_regularized(u0: SpectralField, xi_eps: SpectralField, c_eps: float,
                          F: NonlinearFunction, cfg: SolverConfig,
                          blowup: float = 1e6) -> FieldPath:
    """Classical reference solve of the renormalized regularized equation
    L u = F(u) xi_eps - c_eps F'(u) F(u), by the implicit
    trapezoid-exponential rule (each step iterated to convergence).

    xi_eps is held for the whole solve, and each drift evaluation holds u
    and F(u): 3 oversampled inverse and 4 forward transforms (2 and 2 for
    c_eps = 0)."""
    grid = xi_eps.grid
    xi_b = Blocks(xi_eps)

    def drift(u: SpectralField) -> SpectralField:
        ub = Blocks(u)
        Fu = Blocks(F(ub))
        out = Fu.times(xi_b)
        if c_eps != 0.0:
            out = out - Blocks(F.deriv(ub)).times(Fu) * c_eps
        return out

    return trapezoid_exponential_path(grid, cfg.sigma, u0, drift, cfg.T, cfg.M,
                                      fp_tol=cfg.fp_tol, fp_max=cfg.fp_max,
                                      damping=cfg.damping, blowup=blowup)
