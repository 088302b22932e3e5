"""Enhanced data for the three equations: resonant areas, renormalization
constants, the symmetric/antisymmetric split, and the translation group
acting on drivers.

The lattice sums defining the constants are truncated at the grid Nyquist,
the same truncation under which the noise is sampled, so Monte Carlo
averages match the constants exactly in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .grid import _NODE_CHUNK, FieldPath, SpectralField, TorusGrid, TWO_PI
from .noise import Mollifier, mollify, pam_theta
from .partition import DyadicPartition
from .spectral import _symbol, antiderivative, derivative
from .paraproducts import para_lt, para_gt, resonant


@dataclass(frozen=True)
class EnhancedNoise:
    """Driver, lifted path, and area: the full input of a solver."""

    kind: str  # rde | burgers | pam
    xi: object
    theta: object
    eta: object
    renorm_constant: float | None = None

    def __post_init__(self):
        if self.kind not in ("rde", "burgers", "pam"):
            raise ValueError(f"unknown enhanced-noise kind {self.kind!r}")


# -- matrix-channel helpers -------------------------------------------

def _pairs(a: SpectralField, b: SpectralField, nodes: int):
    """The operands of every channel-pair product of each node: a and b
    stack `nodes` groups of channels, one group per node, and the two
    fields returned stack each node's pairs in row-major (k, l) layout, so
    one `resonant` call on them transforms and multiplies each pair on its
    own."""
    grid = a.grid
    ca, cb = a.channels // nodes, b.channels // nodes
    rows = np.repeat(a.coeffs.reshape((nodes, ca) + grid.shape), cb, axis=1)  # k, once per l
    cols = np.tile(b.coeffs.reshape((nodes, cb) + grid.shape), (1, ca) + (1,) * grid.dim)
    return tuple(SpectralField(grid, x.reshape((-1,) + grid.shape)) for x in (rows, cols))


def pair_resonant(a: SpectralField, b: SpectralField,
                  part: DyadicPartition | None = None) -> SpectralField:
    """All channel-pair resonant products, row-major (k, l) layout."""
    return resonant(*_pairs(a, b, 1), part)


def sym_antisym_split(eta: SpectralField):
    """Split a matrix-channel field into symmetric and antisymmetric parts."""
    n = math.isqrt(eta.channels)
    if n * n != eta.channels:
        raise ValueError("channel count is not a square matrix layout")
    m = eta.coeffs.reshape((n, n) + eta.grid.shape)
    sym = 0.5 * (m + np.swapaxes(m, 0, 1))
    anti = 0.5 * (m - np.swapaxes(m, 0, 1))
    reshape = lambda x: SpectralField(eta.grid, x.reshape((n * n,) + eta.grid.shape))
    return reshape(sym), reshape(anti)


# -- Burgers area -----------------------------------------------------

def burgers_area(theta_path: FieldPath,
                 part: DyadicPartition | None = None) -> FieldPath:
    """Matrix-valued area of the stochastic convolution: per node,
    resonant products of each component with each spatial derivative,
    computed for 16 nodes at a time as the channels of one field."""
    grid, fields = theta_path.grid, []
    for i in range(0, len(theta_path), _NODE_CHUNK):
        nodes = theta_path.fields[i:i + _NODE_CHUNK]
        th = SpectralField(grid, np.concatenate([f.coeffs for f in nodes]))
        area = resonant(*_pairs(th, derivative(th, 0), len(nodes)), part)
        fields += [SpectralField(grid, c) for c in np.split(area.coeffs, len(nodes))]
    return FieldPath(theta_path.times, fields)


# -- renormalization constants ----------------------------------------

def pam_gt(t: float, grid: TorusGrid) -> float:
    """Expected resonant pairing of heat-smoothed noise with itself:
    (2 pi)^-2 sum over nonzero lattice k of exp(-t|k|^2)."""
    if t <= 0:
        raise ValueError("the heat constant needs t > 0")
    r2 = _symbol(grid, None, 2.0)
    return float(np.sum(np.exp(-t * r2[r2 > 0])) / TWO_PI**2)


def pam_c_eps(eps: float, psi: Mollifier, grid: TorusGrid) -> float:
    """Diverging constant of the mollified area:
    (2 pi)^-2 sum over nonzero k of |profile(eps |k|)|^2 / |k|^2."""
    if not 0 < eps < math.inf:  # also rejects NaN
        raise ValueError(f"eps must be positive and finite, got {eps}")
    r = _symbol(grid, None, 1.0)
    nz = r > 0
    w = np.asarray(psi(eps * r[nz]), dtype=np.float64)
    return float(np.sum(w * w / r[nz] ** 2) / TWO_PI**2)


def pam_renormalized_area(xi: SpectralField, eps: float, psi: Mollifier) -> SpectralField:
    """Mollified resonant area with its diverging mean removed:
    theta_eps @ xi_eps - c_eps."""
    theta_eps = mollify(pam_theta(xi), eps, psi)
    xi_eps = mollify(xi, eps, psi)
    area = resonant(theta_eps, xi_eps)
    return area - SpectralField.constant(xi.grid, pam_c_eps(eps, psi, xi.grid),
                                         area.channels)


# -- RDE enhancement and the translation group ------------------------

def rde_area(theta: SpectralField, xi: SpectralField,
             part: DyadicPartition | None = None) -> SpectralField:
    """Channel-pairwise resonant area of the localized line driver."""
    return pair_resonant(theta, xi, part)


def enhanced_translate(E: EnhancedNoise, f: SpectralField, g: SpectralField) -> EnhancedNoise:
    """Translation action on enhanced drivers: shift the noise by f (with
    antiderivative Phi) and the area by theta@f + Phi@xi + Phi@f + g."""
    if E.kind != "rde":
        raise ValueError("translation is defined for the line-driver enhancement")
    Phi = antiderivative(f)
    eta = E.eta + pair_resonant(E.theta, f) + pair_resonant(Phi, E.xi) \
        + pair_resonant(Phi, f) + g
    return EnhancedNoise("rde", E.xi + f, E.theta + Phi, eta)


# -- rough area equivalence -------------------------------------------

def _integrate_between(f: SpectralField, s: float, t: float) -> np.ndarray:
    """Exact integral of a 1-d trigonometric polynomial over [s, t]."""
    k = f.grid.axis_freqs()
    c = f.coeffs
    nz = k != 0
    phase = (np.exp(1j * k[nz] * t) - np.exp(1j * k[nz] * s)) / (1j * k[nz])
    out = np.real(c[:, nz] @ phase + c[:, ~nz].sum(axis=1) * (t - s))
    return out


def rough_area_check(u: SpectralField, v: SpectralField, eta: SpectralField,
                     s: float, t: float):
    """Two routes to the area of a pair of 1-d paths over [s, t].

    Formula route: integrate eta + u-below-dv + u-above-dv over [s, t]
    (exact mode integration) and subtract u(s)(v(t) - v(s)).  Quadrature
    route: Simpson on 64 N + 1 points of int (u(r) - u(s)) v'(r) dr.
    For smooth pairs with eta the resonant part of (u, dv) the two agree.
    """
    dv = derivative(v, 0)
    integrand = eta + para_lt(u, dv) + para_gt(u, dv)
    us = u.eval_at(np.array([s]))[:, 0]
    vs = v.eval_at(np.array([s, t]))
    a_formula = _integrate_between(integrand, s, t) - us * (vs[:, 1] - vs[:, 0])

    npts = 64 * u.grid.n + 1
    rs = np.linspace(s, t, npts)
    uvals = u.eval_at(rs)
    dvvals = dv.eval_at(rs)
    a_quad = simpson((uvals - us[:, None]) * dvvals, x=rs, axis=1)
    return a_formula, a_quad
