"""Smooth dyadic (Littlewood-Paley) partitions of unity on the frequency lattice.

The partition is built from a C-infinity cutoff chi supported in a ball and a
ring function rho(z) = chi(z/2) - chi(z).  Block -1 carries chi, blocks
0..J-1 carry dilated rings, and the top block J is closed telescopically so
that the masks sum to exactly 1 on every lattice point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid


def _h(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, zero otherwise (all derivatives vanish at 0)."""
    return np.exp(-1.0 / np.where(x > 0, x, 1e-300))


def smoothstep(x) -> np.ndarray:
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=np.float64)
    a = _h(x)
    b = _h(1.0 - x)
    return a / (a + b + np.finfo(float).tiny)


def radial_cutoff(r, inner: float, outer: float) -> np.ndarray:
    """Smooth radial bump: 1 for |r| <= inner, 0 for |r| >= outer."""
    r = np.abs(np.asarray(r, dtype=np.float64))
    return 1.0 - smoothstep((r - inner) / (outer - inner))


@dataclass(frozen=True)
class DyadicPartition:
    """Frozen stack of dyadic block masks for one grid.

    masks[m] multiplies Fourier coefficients; block index j = m - 1 runs
    from -1 (low block, cutoff chi) to j_max (telescoped top block).
    """

    grid: TorusGrid
    j_max: int
    masks: np.ndarray  # shape (j_max + 2,) + grid.shape

    @property
    def blocks(self):
        return range(-1, self.j_max + 1)

    def mask(self, j: int) -> np.ndarray:
        if not -1 <= j <= self.j_max:
            raise IndexError(f"block {j} outside [-1, {self.j_max}]")
        return self.masks[j + 1]

    def low_mask(self, j: int) -> np.ndarray:
        """Mask of S_j = sum of blocks i < j.  Zero array for j <= -1."""
        if j <= -1:
            return np.zeros(self.grid.shape)
        j = min(j, self.j_max + 1)
        return np.sum(self.masks[: j + 1], axis=0)


# Plateau and support radii of the base cutoff chi.  The induced ring
# rho = chi(./2) - chi lives in the annulus [_INNER, 2*_OUTER]; _OUTER <= 2*_INNER
# keeps rings at distance |i - j| > 1 disjoint.
_INNER, _OUTER = 0.75, 4.0 / 3.0


def make_dyadic_partition(grid: TorusGrid) -> DyadicPartition:
    """Build the dyadic partition of unity on a grid's frequency lattice.

    The number of ring blocks is chosen so the top ring's support stays
    inside the lattice; the final block is defined as 1 - chi(2^-J .) so
    the masks telescope to exactly 1.
    """
    kmax_axis = (grid.n // 2) * grid.base_freq
    j_max = int(np.floor(np.log2(kmax_axis / (2 * _OUTER))))
    if j_max < 2:
        raise ValueError(f"grid too coarse for a dyadic partition (j_max={j_max})")

    r = grid.k_abs()
    chis = [radial_cutoff(r / 2.0**j, _INNER, _OUTER) for j in range(j_max + 1)]
    masks = [chis[0]]
    for j in range(j_max):
        masks.append(chis[j + 1] - chis[j])
    masks.append(1.0 - chis[j_max])
    masks = np.stack(masks)
    np.clip(masks, 0.0, 1.0, out=masks)
    return DyadicPartition(grid, j_max, masks)
