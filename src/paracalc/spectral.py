"""Littlewood-Paley blocks, Besov norms and elementary spectral calculus."""

from __future__ import annotations

import functools

import numpy as np

from .grid import SpectralField, TorusGrid
from .partition import DyadicPartition, make_dyadic_partition


@functools.lru_cache(maxsize=None)
def default_partition(grid: TorusGrid) -> DyadicPartition:
    """The dyadic partition of a grid, built once and shared, so `Blocks`
    holders built on one grid find the same partition object."""
    return make_dyadic_partition(grid)


def lp_block(f: SpectralField, j: int) -> SpectralField:
    """Dyadic block Delta_j f (Fourier multiplier by the j-th ring mask)."""
    return SpectralField(f.grid, f.coeffs * default_partition(f.grid).mask(j))


def block_sups(f) -> np.ndarray:
    """sup-norm of every dyadic block, indexed by j = -1 .. j_max, of a field
    or of the field a `Blocks` holder carries, on the holder's partition."""
    # duck-typed: `Blocks` lives in `paraproducts`, which imports this module
    f, part = (f.field, f.part) if hasattr(f, "part") else (f, default_partition(f.grid))
    axes = tuple(range(-f.grid.dim, 0))
    blocks = f.coeffs[:, None] * part.masks[None]
    vals = np.fft.ifftn(blocks, axes=axes) * f.grid.n**f.grid.dim
    return np.max(np.abs(np.real(vals)), axis=tuple(range(-f.grid.dim, 0))).max(axis=0)


def besov_norm(f, alpha: float) -> float:
    """Hoelder-Besov norm sup_j 2^(j*alpha) ||Delta_j f||_inf of a field or
    its `Blocks`, as for `block_sups`."""
    sups = block_sups(f)
    j = np.arange(-1, len(sups) - 1, dtype=np.float64)
    return float(np.max(2.0 ** (j * alpha) * sups))


@functools.lru_cache(maxsize=64)
def _symbol(grid: TorusGrid, axis: int | None, power: float) -> np.ndarray:
    """A multiplier held per grid, read-only since it is shared:
    (i k_axis)^power, or for axis None |k|^power off the zero mode."""
    if axis is None:
        r = grid.k_abs()
        sym = np.zeros(grid.shape)
        sym[r > 0] = r[r > 0] ** power
    else:
        sym = (1j * grid.freq_mesh()[axis]) ** power
    sym.flags.writeable = False
    return np.broadcast_to(sym, grid.shape)


def derivative(f: SpectralField, axis: int = 0) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * _symbol(f.grid, axis, 1))


def fractional_laplacian(f: SpectralField, sigma: float) -> SpectralField:
    """(-Laplacian)^sigma; the zero mode is annihilated."""
    return SpectralField(f.grid, f.coeffs * _symbol(f.grid, None, 2.0 * sigma))


def antiderivative(f: SpectralField) -> SpectralField:
    """Periodic antiderivative along the first axis, normalised to vanish at x=0.

    The input must have zero mean along that axis; otherwise no periodic
    antiderivative exists and a ValueError is raised.  Use
    `remove_mean` first when the mean is an expected byproduct.
    """
    k = np.broadcast_to(f.grid.freq_mesh()[0], f.grid.shape)
    zero = k == 0
    mean_mass = np.max(np.abs(f.coeffs[:, zero]))
    scale = max(np.max(np.abs(f.coeffs)), 1e-300)
    if mean_mass > 1e-10 * scale:
        raise ValueError("antiderivative of a field with nonzero axis mean")
    c = np.zeros_like(f.coeffs)
    nz = ~zero
    c[:, nz] = f.coeffs[:, nz] / (1j * k[nz])
    # pin the value at the origin to zero via the constant mode
    offset = SpectralField(f.grid, c).values()[(slice(None),) + (0,) * f.grid.dim]
    return SpectralField(f.grid, _shift_zero_mode(c, -offset, f.grid.dim))


def _shift_zero_mode(c: np.ndarray, delta: np.ndarray, dim: int) -> np.ndarray:
    c = c.copy()
    idx = (slice(None),) + (0,) * dim
    c[idx] = c[idx] + delta
    return c


def remove_mean(f: SpectralField):
    """Return (mean-free field, removed per-channel means)."""
    m = f.mean()
    return SpectralField(f.grid, _shift_zero_mode(f.coeffs, -m, f.grid.dim)), m
