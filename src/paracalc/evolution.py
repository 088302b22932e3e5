"""Fractional heat semigroup and Duhamel integration on the torus.

The generator is -(-Laplacian)^sigma, so the parabolic operator in the
mild formulations is L = d/dt + (-Laplacian)^sigma.  Everything acts
mode-by-mode, which makes the semigroup exact and lets the Duhamel map
use an exponential integrator whose only error is the piecewise-linear
interpolation of the integrand in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldPath, SpectralField, TorusGrid


@dataclass(frozen=True)
class SemigroupSpec:
    sigma: float
    grid: TorusGrid

    def __post_init__(self):
        if not 0.5 < self.sigma <= 1.0:
            raise ValueError(f"sigma = {self.sigma} outside (1/2, 1]")

    def symbol(self) -> np.ndarray:
        """|k|^(2 sigma) on the lattice (the decay rate of each mode)."""
        r = self.grid.k_abs()
        out = np.zeros(self.grid.shape)
        nz = r > 0
        out[nz] = r[nz] ** (2.0 * self.sigma)
        return out


def heat_apply(f: SpectralField, t: float, spec: SemigroupSpec) -> SpectralField:
    """Semigroup P_t: multiply mode k by exp(-t |k|^(2 sigma))."""
    if t < 0:
        raise ValueError("the semigroup only runs forward")
    return SpectralField(f.grid, f.coeffs * np.exp(-t * spec.symbol()))


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


def duhamel(v_path: FieldPath, spec: SemigroupSpec) -> FieldPath:
    """V(t) = int_0^t P_(t-s) v(s) ds along the path's time grid."""
    dt = v_path.dt
    mu = spec.symbol()
    z = mu * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)
    arr = v_path.coeff_array()
    out = np.zeros_like(arr)
    for n in range(len(arr) - 1):
        out[n + 1] = out[n] * decay + arr[n] * (A - B) + arr[n + 1] * B
    return FieldPath.from_coeff_array(v_path.times, v_path.grid, out)


def path_time_derivative(path: FieldPath) -> FieldPath:
    """Second-order finite-difference time derivative along a path."""
    arr = path.coeff_array()
    dt = path.dt
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2 * dt)
    out[0] = (-3 * arr[0] + 4 * arr[1] - arr[2]) / (2 * dt)
    out[-1] = (3 * arr[-1] - 4 * arr[-2] + arr[-3]) / (2 * dt)
    return FieldPath.from_coeff_array(path.times, path.grid, out)


def apply_L(path: FieldPath, spec: SemigroupSpec) -> FieldPath:
    """Discrete parabolic operator: finite-difference d/dt plus spectral
    (-Laplacian)^sigma.  Diagnostic; the solvers work in mild form."""
    if len(path) < 3:
        raise ValueError("need at least three time nodes for second-order differences")
    ddt = path_time_derivative(path)
    mu = spec.symbol()
    return ddt + path.map(lambda f: SpectralField(f.grid, f.coeffs * mu))
