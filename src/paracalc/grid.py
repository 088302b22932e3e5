"""Discrete torus grids and spectral fields.

A real periodic function (or distribution) on the d-torus is stored through
its Fourier coefficients in numpy FFT layout.  The convention is

    u(x) = sum_k c_k exp(i <k, x>),

where k runs over the frequency lattice {-N/2, ..., N/2-1}^d scaled by
2*pi/period.  With this convention real-space values on the N^d grid are
recovered as N^d * ifftn(c), and the continuous Fourier transform used in
the covariance formulas is F u(k) = period^d * c_k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

_HEADER_MAGIC = b"PARACALC-FIELD-1\n"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the d-torus of side length `period`."""

    dim: int
    n: int
    period: float = TWO_PI

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 16, got {self.n}")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def base_freq(self) -> float:
        """Spacing of the frequency lattice, 2*pi/period."""
        return TWO_PI / self.period

    def axis_freqs(self) -> np.ndarray:
        """Physical frequencies along one axis, FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n) * self.base_freq

    def freq_mesh(self):
        """Tuple of broadcastable frequency arrays, one per axis."""
        f = self.axis_freqs()
        if self.dim == 1:
            return (f,)
        return (f[:, None], f[None, :])

    def k_abs(self) -> np.ndarray:
        """Euclidean modulus |k| on the lattice."""
        mesh = self.freq_mesh()
        return np.sqrt(sum(np.broadcast_to(m * m, self.shape) for m in mesh))

    def points(self):
        """Tuple of broadcastable real-space coordinate arrays."""
        x = np.arange(self.n) * (self.period / self.n)
        if self.dim == 1:
            return (x,)
        return (x[:, None], x[None, :])

    def scaled(self, factor: float) -> "TorusGrid":
        return TorusGrid(self.dim, self.n, self.period * factor)


def _conj_index(n: int) -> np.ndarray:
    """Index map i -> (-i) mod n along one FFT axis."""
    return (-np.arange(n)) % n


def hermitian_conjugate(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(c(-k)) with lattice wrap-around, acting on the last `dim` axes."""
    out = np.conj(coeffs)
    for ax in range(-dim, 0):
        out = np.take(out, _conj_index(out.shape[ax]), axis=ax)
    return out


class SpectralField:
    """Real field on a torus held as Hermitian-symmetric Fourier coefficients.

    `coeffs` has shape (channels,) + grid.shape (channels axis always
    present).  All operations treat the object as immutable.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray, check: bool = False):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[None]
        if coeffs.shape[1:] != grid.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.coeffs = coeffs
        if check and not self.is_hermitian():
            raise ValueError("coefficients are not Hermitian-symmetric")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, grid: TorusGrid, channels: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((channels,) + grid.shape, dtype=np.complex128))

    @classmethod
    def constant(cls, grid: TorusGrid, value, channels: int = 1) -> "SpectralField":
        c = np.zeros((channels,) + grid.shape, dtype=np.complex128)
        c[(slice(None),) + (0,) * grid.dim] = value
        return cls(grid, c)

    @classmethod
    def from_values(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[None]
        axes = tuple(range(-grid.dim, 0))
        c = np.fft.fftn(values, axes=axes) / grid.n**grid.dim
        return cls(grid, c)

    @classmethod
    def from_function(cls, grid: TorusGrid, fn) -> "SpectralField":
        return cls.from_values(grid, fn(*grid.points()))

    # -- basic queries ------------------------------------------------

    @property
    def channels(self) -> int:
        return self.coeffs.shape[0]

    def values(self) -> np.ndarray:
        """Real-space samples on the grid, shape (channels,) + grid.shape."""
        axes = tuple(range(-self.grid.dim, 0))
        v = np.fft.ifftn(self.coeffs, axes=axes) * self.grid.n**self.grid.dim
        return np.real(v)

    def continuum_coeffs(self) -> np.ndarray:
        """Continuous-convention Fourier coefficients period^d * c_k."""
        return self.coeffs * self.grid.period**self.grid.dim

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        hc = hermitian_conjugate(self.coeffs, self.grid.dim)
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(self.coeffs - hc)) <= tol * scale)

    def mean(self) -> np.ndarray:
        """Spatial mean per channel (the zero mode)."""
        return np.real(self.coeffs[(slice(None),) + (0,) * self.grid.dim])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values())))

    def eval_at(self, *xs) -> np.ndarray:
        """Evaluate the trigonometric polynomial at arbitrary points.

        Accepts one scalar/array per axis; returns shape
        (channels,) + broadcast shape.  Intended for 1-d diagnostics and
        oracles; cost is O(N^d) per point.
        """
        mesh = self.grid.freq_mesh()
        phase = 0.0
        for ax, x in enumerate(xs):
            x = np.asarray(x, dtype=np.float64)
            phase = phase + np.multiply.outer(x, np.broadcast_to(mesh[ax], self.grid.shape))
        ker = np.exp(1j * phase)
        out = np.tensordot(ker, self.coeffs, axes=(tuple(range(-self.grid.dim, 0)),
                                                   tuple(range(1, self.grid.dim + 1))))
        return np.real(np.moveaxis(out, -1, 0))

    # -- arithmetic ---------------------------------------------------

    def _like(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.grid, coeffs)

    def __add__(self, other):
        if isinstance(other, SpectralField):
            _check_same_grid(self, other)
            return self._like(self.coeffs + other.coeffs)
        return self._like(self.coeffs + SpectralField.constant(self.grid, other, self.channels).coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, SpectralField) else -other)

    def __mul__(self, scalar):
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def channel(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i:i + 1])

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def _check_same_grid(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def stack_channels(fields) -> SpectralField:
    fields = list(fields)
    _ = [_check_same_grid(fields[0], f) for f in fields[1:]]
    return SpectralField(fields[0].grid, np.concatenate([f.coeffs for f in fields], axis=0))


# -- dealiased pointwise algebra --------------------------------------

def _negate_rows(x: np.ndarray) -> np.ndarray:
    """x at row -i mod n for each row i, on the second-to-last axis."""
    return np.concatenate((x[..., :1, :], x[..., :0:-1, :]), axis=-2)


def oversampled_values(f: SpectralField, factor: int = 2) -> np.ndarray:
    """Real-space samples on a `factor` times finer grid (exact interpolation).

    The coefficients are first projected onto their Hermitian part
    (c(k) + conj c(-k)) / 2, which is what the real part of the complex
    inverse transform keeps; a real inverse transform alone would read only
    half the spectrum and so change the values of non-Hermitian inputs,
    such as the Nyquist modes left by `derivative`.  The Nyquist
    coefficient (index n/2, frequency -n/2) of each axis is then split
    evenly between the +n/2 and -n/2 slots of the fine lattice, the exact
    interpolation for real fields.  `factor` must be at least 2.
    """
    n, d = f.grid.n, f.grid.dim
    m, h = factor * n, n // 2
    c = f.coeffs
    # Hermitian part on the half spectrum of the last axis, c(-k) read by
    # reversed slices; its Nyquist column is split, the -n/2 half being
    # implied by the real transform
    mirror = np.concatenate((c[..., :1], c[..., :h - 1:-1]), axis=-1)
    if d == 2:
        mirror = _negate_rows(mirror)
    half = 0.5 * (c[..., : h + 1] + np.conj(mirror))
    half[..., h] *= 0.5
    out = np.zeros(c.shape[:-d] + (m,) * (d - 1) + (m // 2 + 1,), dtype=np.complex128)
    if d == 1:
        out[..., : h + 1] = half
    else:
        out[..., :h, : h + 1] = half[..., :h, :]
        out[..., h, : h + 1] = 0.5 * half[..., h, :]
        out[..., m - h, : h + 1] = 0.5 * half[..., h, :]
        out[..., m - h + 1:, : h + 1] = half[..., h + 1:, :]
    return np.fft.irfftn(out, s=(m,) * d, axes=tuple(range(-d, 0))) * m**d


def field_from_oversampled(grid: TorusGrid, values: np.ndarray, factor: int = 2) -> SpectralField:
    """Project real fine-grid samples back onto the grid's spectrum.

    The adjoint of the padding in `oversampled_values`: the fine +n/2 and
    -n/2 slots of each axis fold into the coarse Nyquist coefficient, and
    the negative half of the last axis is rebuilt by Hermitian symmetry.
    """
    n, d = grid.n, grid.dim
    m, h = factor * n, n // 2
    if values.ndim == d:
        values = values[None]
    v = np.fft.rfftn(values, axes=tuple(range(-d, 0))) / m**d
    if d == 1:
        t = v[..., : h + 1]
    else:
        t = np.empty(v.shape[:-2] + (n, h + 1), dtype=np.complex128)
        t[..., :h, :] = v[..., :h, : h + 1]
        t[..., h, :] = v[..., h, : h + 1] + v[..., m - h, : h + 1]
        t[..., h + 1:, :] = v[..., m - h + 1:, : h + 1]
    # conj t(-k) for the last axis' columns n/2, n/2 + 1, ..., n - 1
    mirrored = np.conj(t[..., h:0:-1])
    if d == 2:
        mirrored = _negate_rows(mirrored)
    c = np.empty(t.shape[:-1] + (n,), dtype=np.complex128)
    c[..., :h] = t[..., :h]
    c[..., h] = t[..., h] + mirrored[..., 0]
    c[..., h + 1:] = mirrored[..., 1:]
    return SpectralField(grid, c)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product evaluated on a 2x-oversampled grid and truncated.

    Exact (no aliasing) on the retained modes for band-limited inputs.
    Channel counts must match, or one factor must be single-channel.
    """
    _check_same_grid(f, g)
    fv = oversampled_values(f)
    gv = oversampled_values(g)
    return field_from_oversampled(f.grid, fv * gv)


def apply_pointwise(fn, f: SpectralField) -> SpectralField:
    """Apply a scalar function pointwise on the oversampled grid, then truncate."""
    return field_from_oversampled(f.grid, fn(oversampled_values(f)))


# -- time-indexed paths -----------------------------------------------

class FieldPath:
    """A field per node of a uniform time grid 0 = t_0 < ... < t_M = T."""

    __slots__ = ("times", "fields")

    def __init__(self, times: np.ndarray, fields):
        times = np.asarray(times, dtype=np.float64)
        fields = list(fields)
        if len(times) != len(fields):
            raise ValueError("times and fields length mismatch")
        if len(times) < 2:
            raise ValueError("a path needs at least two time nodes")
        dt = np.diff(times)
        if np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-10 * dt[0]:
            raise ValueError("times must be strictly increasing and uniform")
        g = fields[0].grid
        ch = fields[0].channels
        for f in fields[1:]:
            if f.grid != g or f.channels != ch:
                raise ValueError("all fields of a path must share grid and channels")
        self.times = times
        self.fields = fields

    @property
    def grid(self) -> TorusGrid:
        return self.fields[0].grid

    @property
    def channels(self) -> int:
        return self.fields[0].channels

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return len(self.fields)

    def __getitem__(self, i) -> SpectralField:
        return self.fields[i]

    def map(self, fn) -> "FieldPath":
        return FieldPath(self.times, [fn(f) for f in self.fields])

    def zip_map(self, fn, other: "FieldPath") -> "FieldPath":
        if not np.allclose(self.times, other.times):
            raise ValueError("paths live on different time grids")
        return FieldPath(self.times, [fn(a, b) for a, b in zip(self.fields, other.fields)])

    def __sub__(self, other: "FieldPath") -> "FieldPath":
        return self.zip_map(lambda a, b: a - b, other)

    def __add__(self, other: "FieldPath") -> "FieldPath":
        return self.zip_map(lambda a, b: a + b, other)

    def coeff_array(self) -> np.ndarray:
        """Stacked coefficients, shape (M+1, channels) + grid.shape."""
        return np.stack([f.coeffs for f in self.fields])

    @classmethod
    def from_coeff_array(cls, times, grid: TorusGrid, arr: np.ndarray) -> "FieldPath":
        return cls(times, [SpectralField(grid, a) for a in arr])

    def sup_distance(self, other: "FieldPath") -> float:
        return max(np.max(np.abs(a.values() - b.values()))
                   for a, b in zip(self.fields, other.fields))


# -- snapshot format --------------------------------------------------

def save_field(path, f: SpectralField | FieldPath):
    """Write the documented binary snapshot.

    Layout: magic line, one JSON header line {dim, N, period, channels[,
    times]}, then complex128 little-endian coefficients in lattice row-major
    order (time-major for paths).
    """
    if isinstance(f, FieldPath):
        header = {"dim": f.grid.dim, "N": f.grid.n, "period": f.grid.period,
                  "channels": f.channels, "times": list(map(float, f.times))}
        data = f.coeff_array()
    else:
        header = {"dim": f.grid.dim, "N": f.grid.n, "period": f.grid.period,
                  "channels": f.channels}
        data = f.coeffs
    with open(path, "wb") as fh:
        fh.write(_HEADER_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(data.astype("<c16")).tobytes())


def load_field(path):
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _HEADER_MAGIC:
            raise ValueError(f"{path}: not a paracalc field snapshot")
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    grid = TorusGrid(header["dim"], header["N"], header["period"])
    arr = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    if "times" in header:
        times = np.asarray(header["times"])
        arr = arr.reshape((len(times), header["channels"]) + grid.shape)
        return FieldPath.from_coeff_array(times, grid, arr)
    return SpectralField(grid, arr.reshape((header["channels"],) + grid.shape))
