"""Gaussian inputs with the covariances the downstream analysis assumes.

All randomness flows through a counter-based Philox generator keyed by
the integer seed, with draws made as whole arrays in a fixed lattice
order, so every sample is bit-reproducible regardless of threading.
Covariances are imposed directly in Fourier space; continuous-convention
coefficients relate to stored ones by F u(k) = period^d c_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evolution import SemigroupSpec
from .grid import (FieldPath, SpectralField, TorusGrid, hermitian_conjugate,
                   TWO_PI)
from .partition import radial_cutoff
from .spectral import _symbol, derivative, remove_mean


def _generator(seed) -> np.random.Generator:
    """The Philox generator of an integer seed; the key's second word is 0."""
    return np.random.Generator(np.random.Philox(key=[int(seed), 0]))


# -- Hermitian lattice bookkeeping ------------------------------------

def _pairing(grid: TorusGrid):
    """(primary, self-conjugate) masks: one representative per conjugate
    pair {k, -k}, and the points with k = -k mod N (real coefficients),
    found by comparing each flat lattice index with its conjugate's."""
    flat = np.arange(grid.n ** grid.dim).reshape(grid.shape)
    conj = hermitian_conjugate(flat, grid.dim)
    return flat < conj, flat == conj


def hermitian_gaussian(grid: TorusGrid, std: np.ndarray | float,
                       rng: np.random.Generator, channels: int = 1) -> np.ndarray:
    """Coefficients of a real Gaussian field with E|c_k|^2 = std(k)^2.

    Paired modes get circular complex Gaussians; self-conjugate modes are
    real with the same modulus variance.  Draw order is fixed (two full
    real arrays per channel) for determinism.
    """
    shape = (channels,) + grid.shape
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    prim, selfc = _pairing(grid)
    c = np.zeros(shape, dtype=np.complex128)
    c[:, prim] = (a[:, prim] + 1j * b[:, prim]) * math.sqrt(0.5)
    c[:, selfc] = a[:, selfc]
    c = c * std
    c = c + hermitian_conjugate(np.where(prim, c, 0), grid.dim)
    return c


# -- mollifiers -------------------------------------------------------

@dataclass(frozen=True)
class Mollifier:
    """Spatial smoothing kernel given by its radial spectral profile.

    `profile` maps |z| >= 0 to the Fourier transform of the kernel, with
    profile(0) = 1 (mass one) enforced at construction.
    """

    name: str
    profile: object  # callable radius -> real

    def __post_init__(self):
        v0 = float(np.asarray(self.profile(np.zeros(1)))[0])
        if abs(v0 - 1.0) > 1e-12:
            raise ValueError(f"mollifier {self.name}: profile(0) = {v0}, expected 1")

    def __call__(self, r):
        return self.profile(np.abs(r))


GAUSS_MOLLIFIER = Mollifier("gauss", lambda z: np.exp(-0.5 * z * z))
BUMP_MOLLIFIER = Mollifier("bump", lambda z: radial_cutoff(z, 0.5, 1.5))
DIRAC_MOLLIFIER = Mollifier("dirac", lambda z: np.ones_like(np.asarray(z, dtype=float)))

MOLLIFIERS = {m.name: m for m in (GAUSS_MOLLIFIER, BUMP_MOLLIFIER, DIRAC_MOLLIFIER)}


def mollify(f, eps: float, psi: Mollifier = GAUSS_MOLLIFIER):
    """Convolve with the rescaled kernel: multiply mode k by profile(eps|k|)."""
    if not 0 < eps < math.inf:  # also rejects NaN
        raise ValueError(f"mollification scale must be positive and finite, got {eps}")
    m = psi(eps * _symbol(f.grid, None, 1.0))  # once per path, not per node
    if isinstance(f, FieldPath):
        return f.map(lambda g: SpectralField(g.grid, g.coeffs * m))
    return SpectralField(f.grid, f.coeffs * m)


# -- the three drivers ------------------------------------------------

def spatial_white_noise(grid: TorusGrid, seed) -> SpectralField:
    """Mean-zero spatial white noise on the 2-torus.

    Continuous-convention coefficients have E|F xi(k)|^2 = (2 pi)^2 and
    vanish at k = 0, so E|c_k|^2 = (2 pi)^-2.
    """
    if grid.dim != 2:
        raise ValueError("spatial white noise is generated on the 2-torus")
    rng = _generator(seed)
    std = 1.0 / TWO_PI
    c = hermitian_gaussian(grid, std, rng)
    c[:, 0, 0] = 0.0
    return SpectralField(grid, c)


def pam_theta(xi: SpectralField) -> SpectralField:
    """Stationary lift of spatial noise: solve Laplace mode-wise,
    F theta(k) = F xi(k)/|k|^2 with zero mean."""
    if np.max(np.abs(xi.mean())) > 1e-12:
        raise ValueError("lift requires mean-zero input")
    r2 = _symbol(xi.grid, None, 2.0)
    c = np.zeros_like(xi.coeffs)
    nz = r2 > 0
    c[:, nz] = xi.coeffs[:, nz] / r2[nz]
    return SpectralField(xi.grid, c)


def burgers_theta_path(grid: TorusGrid, sigma: float, T: float, M: int,
                       channels: int = 1, seed=0) -> FieldPath:
    """Stochastic convolution driven by space-time white noise on the
    1-torus, started at zero, sampled by the exact per-mode recursion.

    Mode k follows an Ornstein-Uhlenbeck process with rate |k|^(2 sigma);
    in the continuous convention its stationary-part variance at time t is
    2 pi (1 - e^(-2t|k|^(2 sigma)))/(2|k|^(2 sigma)), and the zero mode is
    a real Brownian motion with E|F theta_t(0)|^2 = 2 pi t.
    """
    if grid.dim != 1:
        raise ValueError("this driver lives on the 1-torus")
    if not (sigma > 0.5 and T > 0 and M >= 1):
        raise ValueError(f"need sigma > 1/2, T > 0 and M >= 1, got {sigma}, {T}, {M}")
    if not math.isfinite(T):
        raise ValueError(f"horizon must be finite, got {T}")
    mu = SemigroupSpec(sigma, grid).symbol()  # checks sigma <= 1
    rng = _generator(seed)
    dt = T / M
    decay = np.exp(-dt * mu)
    # stored-coefficient increment std dev; zero mode gets the BM increment
    var = np.empty(grid.shape)
    nz = mu > 0
    var[nz] = -np.expm1(-2.0 * dt * mu[nz]) / (2.0 * mu[nz]) / TWO_PI
    var[~nz] = dt / TWO_PI
    std = np.sqrt(var)

    times = np.arange(M + 1) * dt
    c = np.zeros((channels,) + grid.shape, dtype=np.complex128)
    fields = [SpectralField(grid, c.copy())]
    for _ in range(M):
        inc = hermitian_gaussian(grid, std, rng, channels)
        c = c * decay + inc
        fields.append(SpectralField(grid, c.copy()))
    return FieldPath(times, fields)


# -- fractional Brownian motion and the localized line driver ---------

def _fgn_autocov(length: int, hurst: float) -> np.ndarray:
    i = np.arange(length, dtype=np.float64)
    return 0.5 * (np.abs(i + 1) ** (2 * hurst) + np.abs(i - 1) ** (2 * hurst)) \
        - np.abs(i) ** (2 * hurst)


def fbm_path(hurst: float, n: int, T: float, channels: int = 1, seed=0):
    """Fractional Brownian motion on n+1 uniform nodes of [0, T], X(0) = 0.

    Increments are exact-in-law fractional Gaussian noise via the
    Davies-Harte circulant embedding (the ring of lags 0 .. n, n - 1 .. 1),
    whose spectrum is nonnegative; a dip below -1e-12 raises ValueError.
    Returns (times, values) with values of shape (channels, n+1).
    """
    if not 0 < hurst < 1:
        raise ValueError("hurst must lie in (0,1)")
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError("number of steps must be a power of two")
    rng = _generator(seed)
    dt = T / n
    scale = dt**hurst

    cov = _fgn_autocov(n + 1, hurst)
    ring = np.concatenate([cov, cov[n - 1:0:-1]])
    lam = np.real(np.fft.fft(ring))
    if np.min(lam) < -1e-12:
        raise ValueError(f"fbm_path: circulant embedding not PSD (min eig {np.min(lam):.2e})")
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    a = rng.standard_normal((channels, m))
    b = rng.standard_normal((channels, m))
    z = (a + 1j * b) * np.sqrt(lam / (2.0 * m))
    fgn = np.real(np.fft.fft(z, axis=-1))[:, :n] * math.sqrt(2.0)
    x = np.concatenate([np.zeros((channels, 1)), np.cumsum(fgn, axis=1)], axis=1) * scale
    return np.arange(n + 1) * dt, x


def time_cutoff(t, support: float = 2.0) -> np.ndarray:
    """Smooth cutoff in time: 1 on [-support/2, support/2], 0 off (-support, support)."""
    return radial_cutoff(t, support / 2, support)


def centered_time(grid: TorusGrid) -> np.ndarray:
    """The time of each node of the time-line torus, in [-period/2, period/2)."""
    x = grid.points()[0]
    return np.where(x < grid.period / 2, x, x - grid.period)


def _check_support(support: float):
    if not 0 < support < math.inf:  # also rejects NaN
        raise ValueError(f"support must be positive and finite, got {support}")


class RdeDriver(NamedTuple):
    xi: SpectralField
    theta: SpectralField
    removed_mean: float


def sample_line_path(grid: TorusGrid, hurst: float, seed, support: float = 2.0,
                     channels: int = 1):
    """Two-sided fBm samples at the grid's node spacing, covering |t| <= support.

    Returns (ts, xs): node times m*h and matching path values, built by
    recentering a one-sided path so the grid nodes hit sample points exactly.
    """
    _check_support(support)
    h = grid.period / grid.n
    m0 = int(math.ceil(support / h)) + 1
    steps = 1 << int(math.ceil(math.log2(2 * m0)))
    _, x = fbm_path(hurst, steps, steps * h, channels, seed)
    x = x - x[:, m0:m0 + 1]
    ts = (np.arange(steps + 1) - m0) * h
    return ts, x


def rde_driver(ts: np.ndarray, xs: np.ndarray, grid: TorusGrid,
               support: float = 2.0) -> RdeDriver:
    """Localize a line path onto the time-line torus and differentiate.

    `ts, xs` are path samples at the grid spacing as from
    `sample_line_path`; the path is multiplied by `time_cutoff` of the
    given support, wrapped onto the torus (coordinate x <-> time in
    [-period/2, period/2)), band-limited by projection, and mean-adjusted.
    xi is the spectral derivative of theta.
    """
    if grid.dim != 1:
        raise ValueError("line drivers live on the 1-torus")
    _check_support(support)
    h = grid.period / grid.n
    t = centered_time(grid)
    phi = time_cutoff(t, support)
    if phi[np.abs(np.abs(t) - grid.period / 2) < 2 * h].max() > 1e-14:
        raise ValueError("cutoff support overflows the embedding torus")
    vals = np.zeros((xs.shape[0], grid.n))
    active = phi > 0
    idx = np.rint((t[active] - ts[0]) / h).astype(int)
    if idx.min() < 0 or idx.max() >= xs.shape[1]:
        raise ValueError("path samples do not cover the cutoff support")
    if np.max(np.abs(ts[idx] - t[active])) > 1e-9 * h:
        raise ValueError("path samples are not aligned with the grid nodes")
    vals[:, active] = phi[active] * xs[:, idx]
    theta, mean = remove_mean(SpectralField.from_values(grid, vals))
    xi = derivative(theta, 0)
    return RdeDriver(xi, theta, float(np.max(np.abs(mean))))
