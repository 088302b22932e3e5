"""Fractional heat semigroup and Duhamel integration on the torus.

The generator is -(-Laplacian)^sigma, so the parabolic operator in the
mild formulations is L = d/dt + (-Laplacian)^sigma.  Everything acts
mode-by-mode, which makes the semigroup exact and lets the Duhamel map
use an exponential integrator whose only error is the piecewise-linear
interpolation of the integrand in time.  `trapezoid_exponential_path` is
the one exponential march; `duhamel` is its case of a drift that does not
depend on the solution.  `damped_fixed_point` is the one Picard iteration,
`Predictor` the one start of an implicit step, and `NonConvergence` the one
way a solve fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import FieldPath, SpectralField, TorusGrid
from .spectral import _symbol


@dataclass(frozen=True)
class SemigroupSpec:
    sigma: float
    grid: TorusGrid

    def __post_init__(self):
        if not 0.5 < self.sigma <= 1.0:
            raise ValueError(f"sigma = {self.sigma} outside (1/2, 1]")

    def symbol(self) -> np.ndarray:
        """|k|^(2 sigma) on the lattice (the decay rate of each mode), held
        per grid and read-only."""
        return _symbol(self.grid, None, 2.0 * self.sigma)

    def step_weights(self, dt: float):
        """(decay, A, B) of one exponential step of length dt: the new value
        of mode k is decay u + (A - B) N_left + B N_right for a drift N
        linear on the step (`_duhamel_weights`), decay = e^(-dt |k|^(2 sigma))."""
        z = self.symbol() * dt
        return (np.exp(-z), *_duhamel_weights(z, dt))


def heat_apply(f: SpectralField, t: float, sigma: float) -> SpectralField:
    """Semigroup P_t on f's grid: multiply mode k by exp(-t |k|^(2 sigma))."""
    if t < 0:
        raise ValueError("the semigroup only runs forward")
    return SpectralField(f.grid, f.coeffs * np.exp(-t * SemigroupSpec(sigma, f.grid).symbol()))


def _duhamel_weights(z: np.ndarray, dt: float):
    """Closed-form step weights for a piecewise-linear integrand.

    For v linear on a step, int_0^dt e^(-mu(dt-s)) v(s) ds
    = v_left (A - B) + v_right B with z = mu dt,
    A = (1 - e^-z)/mu and B = dt (z - 1 + e^-z)/z^2.
    Small z uses the series (the closed forms cancel catastrophically).
    """
    small = z < 1e-4
    zs = np.where(small, 1.0, z)  # placeholder to avoid 0/0 warnings
    A = dt * (-np.expm1(-zs)) / zs
    B = dt * (zs - 1.0 + np.exp(-zs)) / zs**2
    A_series = dt * (1.0 - z / 2.0 + z**2 / 6.0 - z**3 / 24.0)
    B_series = dt * (0.5 - z / 6.0 + z**2 / 24.0)
    return np.where(small, A_series, A), np.where(small, B_series, B)


_ADVICE = "halve lambda (dilate the data) or refine the time grid"


@dataclass
class SolverReport:
    converged: bool
    iterations: int
    residual: float
    norms: dict = field(default_factory=dict)

    @property
    def advice(self) -> str:
        return "" if self.converged else _ADVICE

    def to_json(self) -> str:
        """The report as RFC 8259 JSON: a non-finite number is written null."""
        number = lambda x: float(x) if math.isfinite(x) else None
        return json.dumps({"converged": bool(self.converged),
                           "iterations": int(self.iterations),
                           "residual": number(self.residual),
                           "norms": {k: number(v) for k, v in self.norms.items()},
                           "advice": self.advice}, indent=2, sort_keys=True, allow_nan=False)


class NonConvergence(RuntimeError):
    """A solve that stalled, diverged or blew up; `report` is its
    `SolverReport`, with converged=False and the advice."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(f"{message}; {_ADVICE}")
        self.report = SolverReport(False, iterations, residual)


def damped_fixed_point(step, x: SpectralField, fp_tol: float, fp_max: int,
                       damping: float, where: str):
    """Iterate x <- x + damping (step(x) - x), the Picard iteration behind
    every solver, until the residual sup|coeffs of step(x) - x| is at most
    fp_tol * (1 + sup|coeffs of x|).  fp_tol = math.inf stops after one
    step.  Returns (x, iterations, residual).

    Raises NonConvergence, naming `where`, after fp_max iterations, at once
    on a non-finite residual, and when the residual grows above 1 and to
    four times the smallest residual seen, so a slow divergence stops too.
    Raises ValueError when fp_max < 1.
    """
    if fp_max < 1:
        raise ValueError(f"fp_max must be at least 1, got {fp_max}")
    least = math.inf
    for k in range(1, fp_max + 1):
        diff = step(x).coeffs - x.coeffs
        res = float(np.max(np.abs(diff)))
        x = SpectralField(x.grid, x.coeffs + diff * damping)
        if math.isfinite(res) and res <= fp_tol * (1.0 + np.max(np.abs(x.coeffs))):
            return x, k, res
        if not math.isfinite(res) or res > max(4.0 * least, 1.0):
            raise NonConvergence(f"{where}: fixed point diverged at residual {res:.3g}", k, res)
        least = min(least, res)
    raise NonConvergence(f"{where}: fixed point stalled at residual {res:.3g}", k, res)


_MAX_DIFFERENCE = 5  # the highest backward difference a `Predictor` holds


class Predictor:
    """Variable-order extrapolation of a node history x_0, x_1, ... to the
    next node, by its Newton backward-difference series
    x_(n+1) = x_n + del x_n + del^2 x_n + ...  (exact on polynomials).

    `push(x)` records the next node; `diffs` holds x_n, del x_n, ... newest
    first, up to del^5 x_n.  `next()` always keeps the linear term and stops
    before the first difference whose sup is not below the sup of the one
    before it, the order rule of variable-order multistep codes (Shampine &
    Gordon 1975): a smooth history gets a high order, a rough one
    2 x_n - x_(n-1), and a single node is its own prediction.
    """

    def __init__(self):
        self.diffs = []

    def push(self, x: np.ndarray):
        new = [x]
        for d in self.diffs[:_MAX_DIFFERENCE]:
            new.append(new[-1] - d)
        self.diffs = new

    def next(self) -> np.ndarray:
        out, last = self.diffs[0], math.inf
        for k, d in enumerate(self.diffs[1:]):
            size = np.max(np.abs(d))
            if k and not size < last:
                break
            out, last = out + d, size
        return out


def trapezoid_exponential_path(sigma: float, u0: SpectralField, drift, T: float, M: int,
                               fp_tol: float = 1e-12, fp_max: int = 50,
                               damping: float = 1.0, blowup: float = 1e8):
    """Mild-form march of L u = N(u), L = d/dt + (-Laplacian)^sigma, by the
    trapezoid-exponential rule, exact per Fourier mode in the linear part.

    `drift(n, u)` is N at time node n for the field u there.  Each step
    solves for its implicit endpoint by `damped_fixed_point`; fp_tol =
    math.inf keeps the first corrector from the explicit predictor, which
    is explicit ETD2 (Cox & Matthews 2002).  A finite fp_tol starts step
    n >= 1 from the drift the `Predictor` extrapolates from N_0 .. N_n (of
    order 1, 2 N_n - N_(n-1), on a rough drift, up to 5 on a smooth one),
    and the drift the corrector last computed, within fp_tol of the
    accepted node, is the next step's left drift: no drift is evaluated at
    an accepted node.

    Returns (path on u0's grid, worst inner iteration count, worst final
    residual).  Raises NonConvergence when a step's fixed point fails or the
    solution leaves the blow-up bound, ValueError when M < 1 or u0 is not finite.
    """
    if M < 1:
        raise ValueError(f"need at least one time step, got {M}")
    if not np.all(np.isfinite(u0.coeffs)):
        raise ValueError("the initial value must be finite")
    grid = u0.grid
    dt = T / M
    decay, A, B = SemigroupSpec(sigma, grid).step_weights(dt)
    left = A - B  # the weight of a step's left drift
    implicit = math.isfinite(fp_tol)
    drifts = Predictor()
    path = np.empty((M + 1,) + u0.coeffs.shape, dtype=np.complex128)
    path[0] = u0.coeffs
    u = u0
    d1 = drift(0, u0).coeffs  # the latest drift: node 0's, then each corrector's
    worst_it, worst_res = 0, 0.0
    for n in range(M):
        d0 = drift(n, u).coeffs if n and not implicit else d1
        base = u.coeffs * decay + d0 * left
        if implicit:
            drifts.push(d0)
        start = (base + drifts.next() * B if n and implicit
                 else u.coeffs * decay + d0 * A)

        def corrector(v: SpectralField) -> SpectralField:
            nonlocal d1
            d1 = drift(n + 1, v).coeffs
            return SpectralField(grid, base + d1 * B)

        u, k, res = damped_fixed_point(corrector, SpectralField(grid, start), fp_tol,
                                       fp_max, damping, f"step {n}")
        if not np.max(np.abs(u.coeffs)) <= blowup:
            raise NonConvergence(f"step {n}: solution exceeded the blow-up bound "
                                 f"{blowup:.3g}", k, res)
        worst_it, worst_res = max(worst_it, k), max(worst_res, res)
        path[n + 1] = u.coeffs
    return FieldPath.from_coeff_array(np.arange(M + 1) * dt, grid, path), worst_it, worst_res


def duhamel(v_path: FieldPath, sigma: float) -> FieldPath:
    """V(t) = int_0^t P_(t-s) v(s) ds along the path's time grid: the march
    from zero with the drift v, which ignores its field."""
    M = len(v_path) - 1
    path, _, _ = trapezoid_exponential_path(
        sigma, SpectralField.zero(v_path.grid, v_path.channels),
        lambda n, _: v_path[n], M * v_path.dt, M, fp_tol=math.inf, blowup=math.inf)
    return FieldPath.from_coeff_array(v_path.times, v_path.grid, path.coeffs)


def path_time_derivative(path: FieldPath) -> FieldPath:
    """Second-order finite-difference time derivative along a path."""
    arr, dt = path.coeffs, path.dt
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2 * dt)
    out[0] = (-3 * arr[0] + 4 * arr[1] - arr[2]) / (2 * dt)
    out[-1] = (3 * arr[-1] - 4 * arr[-2] + arr[-3]) / (2 * dt)
    return FieldPath.from_coeff_array(path.times, path.grid, out)


def apply_L(path: FieldPath, sigma: float) -> FieldPath:
    """Discrete parabolic operator: finite-difference d/dt plus spectral
    (-Laplacian)^sigma.  Diagnostic; the solvers work in mild form."""
    if len(path) < 3:
        raise ValueError("need at least three time nodes for second-order differences")
    mu = SemigroupSpec(sigma, path.grid).symbol()
    return path_time_derivative(path) + FieldPath.from_coeff_array(path.times, path.grid,
                                                                   path.coeffs * mu)
