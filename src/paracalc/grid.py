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

import functools
import json
from dataclasses import dataclass

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


def _negate_rows(x: np.ndarray) -> np.ndarray:
    """x at row -i mod n for each row i, on the second-to-last axis: k -> -k
    along one axis, for `hermitian_conjugate` and the transforms below."""
    return np.concatenate((x[..., :1, :], x[..., :0:-1, :]), axis=-2)


def hermitian_conjugate(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """conj(c(-k)) with lattice wrap-around, acting on the last `dim` axes."""
    out = _negate_rows(np.conj(coeffs)[..., None])[..., 0]  # the last axis as rows
    return _negate_rows(out) if dim == 2 else out


@functools.lru_cache(maxsize=64)
def _held_freqs(grid: TorusGrid) -> np.ndarray:
    """i k along one axis, held per grid and read-only since it is shared:
    k = 0 .. n/2 in 1-d (`eval_at`'s half spectrum), FFT order in 2-d."""
    k = 1j * (np.arange(grid.n // 2 + 1) * grid.base_freq if grid.dim == 1 else grid.axis_freqs())
    k.flags.writeable = False
    return k


class SpectralField:
    """Real field on a torus held as Hermitian-symmetric Fourier coefficients.

    `coeffs` has shape (channels,) + grid.shape (channels axis always
    present).  All operations treat the object as immutable.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim == grid.dim:
            coeffs = coeffs[None]
        if coeffs.shape[1:] != grid.shape:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match grid {grid.shape}")
        self.grid = grid
        self.coeffs = coeffs

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

    def is_hermitian(self) -> bool:
        hc = hermitian_conjugate(self.coeffs, self.grid.dim)
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(self.coeffs - hc)) <= 1e-10 * scale)

    def mean(self) -> np.ndarray:
        """Spatial mean per channel (the zero mode)."""
        return np.real(self.coeffs[(slice(None),) + (0,) * self.grid.dim])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values())))

    def eval_at(self, *xs) -> np.ndarray:
        """The real part of sum_k c_k exp(i <k, x>) over the whole lattice,
        Nyquist modes included, at one scalar/array per axis broadcast
        together; shape (channels,) + broadcast shape.  Per point, 1-d pairs
        c_k with conj c_(-k) on the half spectrum: n/2 + 1 exponentials and
        products.  2-d contracts one kernel per axis: 2n exponentials, n^2
        products."""
        c, k = self.coeffs, _held_freqs(self.grid)
        if self.grid.dim == 1:
            x, h = np.asarray(*xs, dtype=np.float64), self.grid.n // 2
            p = c[:, : h + 1].copy()
            p[:, 1:h] += np.conj(c[:, :h:-1])
            p[:, h] = np.conj(c[:, h])  # unpaired, its sine term kept off the grid
            out = p @ np.exp(np.multiply.outer(k, x.ravel()))
        else:
            x, y = np.broadcast_arrays(*xs)
            rows, cols = (np.exp(np.multiply.outer(z.ravel(), k)) for z in (x, y))
            out = (rows[:, None] @ (c @ cols.T).transpose(2, 1, 0))[:, 0].T
        return out.real.reshape(c.shape[:1] + x.shape)

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


def _check_same_grid(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


# -- dealiased pointwise algebra --------------------------------------

# Calls and channels of the transforms below (`band_limit` adds one of
# each); never reset, so read differences.
tally = dict.fromkeys(("inverse", "inverse_channels", "forward", "forward_channels"), 0)


def _fine_values(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Counted inverse transform to the fine grid of the last axis' columns
    0..n/2, their Nyquist column split already (in 2-d the Nyquist row is
    split here).  Pruned row-column transform: in 2-d only these columns
    are transformed along the first axis, and the real inverse transform
    along the last axis zero-pads them."""
    n, d = grid.n, grid.dim
    m, h = 2 * n, n // 2
    tally["inverse"] += 1
    tally["inverse_channels"] += half.shape[0]
    if d == 2:
        cols = np.zeros(half.shape[:-2] + (m, h + 1), dtype=np.complex128)
        cols[..., :h, :] = half[..., :h, :]
        cols[..., h, :] = 0.5 * half[..., h, :]
        cols[..., m - h, :] = cols[..., h, :]
        cols[..., m - h + 1:, :] = half[..., h + 1:, :]
        half = np.fft.ifft(cols, axis=-2, norm="forward")
    return np.fft.irfft(half, n=m, norm="forward")


def _coarse_half(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """Counted forward transform of real fine-grid samples to the last
    axis' columns 0..n/2 of the coarse spectrum, before the Hermitian fold
    (in 2-d the fine +-n/2 rows fold into the Nyquist row).  Pruned: of the
    real transform along the last axis only these columns are kept, and in
    2-d transformed along the first.  Raises ValueError unless `values`
    has shape (2n,)*d or (channels,) + (2n,)*d."""
    n, d = grid.n, grid.dim
    m, h = 2 * n, n // 2
    if values.shape[-d:] != (m,) * d or not d <= values.ndim <= d + 1:
        raise ValueError(f"samples of shape {values.shape} are not on the {m}^{d} grid")
    if values.ndim == d:
        values = values[None]
    tally["forward"] += 1
    tally["forward_channels"] += values.shape[0]
    t = np.fft.rfft(values, norm="forward")[..., : h + 1]
    if d == 2:
        v = np.fft.fft(t, axis=-2, norm="forward")
        t = np.empty(v.shape[:-2] + (n, h + 1), dtype=np.complex128)
        t[..., :h, :] = v[..., :h, :]
        t[..., h, :] = v[..., h, :] + v[..., m - h, :]
        t[..., h + 1:, :] = v[..., m - h + 1:, :]
    return t


def _conj_neg(x: np.ndarray, dim: int) -> np.ndarray:
    """conj x at the negated row, for columns of the last axis (2-d) or
    values (1-d) that are their own mirror image: columns 0 and n/2."""
    return np.conj(_negate_rows(x) if dim == 2 else x)


def oversampled_values(f: SpectralField) -> np.ndarray:
    """Exact real-space samples on a twice finer grid; counted in `tally`.

    The coefficients are first projected onto their Hermitian part
    (c(k) + conj c(-k)) / 2, which is what the real part of the complex
    inverse transform keeps; a real inverse transform alone would read only
    half the spectrum and so change the values of non-Hermitian inputs,
    such as the Nyquist modes left by `derivative`.  The Nyquist
    coefficient (index n/2, frequency -n/2) of each axis is then split
    evenly between the +n/2 and -n/2 slots of the fine lattice, the exact
    interpolation for real fields.
    """
    n, d = f.grid.n, f.grid.dim
    h = n // 2
    c = f.coeffs
    # Hermitian part on the half spectrum of the last axis, c(-k) read by
    # reversed slices; its Nyquist column is split, the -n/2 half being
    # implied by the real transform
    mirror = np.concatenate((c[..., :1], c[..., :h - 1:-1]), axis=-1)
    if d == 2:
        mirror = _negate_rows(mirror)
    half = 0.5 * (c[..., : h + 1] + np.conj(mirror))
    half[..., h] *= 0.5
    return _fine_values(f.grid, half)


def field_from_oversampled(grid: TorusGrid, values: np.ndarray) -> SpectralField:
    """Project real fine-grid samples onto the grid's spectrum; counted in `tally`.

    The adjoint of the padding in `oversampled_values`: the fine +n/2 and
    -n/2 slots of each axis fold into the coarse Nyquist coefficient, and
    the negative half of the last axis is rebuilt by Hermitian symmetry.
    Raises ValueError unless `values` has shape (2n,)*d or
    (channels,) + (2n,)*d.
    """
    n, d = grid.n, grid.dim
    h = n // 2
    t = _coarse_half(grid, values)
    # conj t(-k) for the last axis' columns n/2, n/2 + 1, ..., n - 1
    mirrored = np.conj(t[..., h:0:-1])
    if d == 2:
        mirrored = _negate_rows(mirrored)
    c = np.empty(t.shape[:-1] + (n,), dtype=np.complex128)
    c[..., :h] = t[..., :h]
    c[..., h] = t[..., h] + mirrored[..., 0]
    c[..., h + 1:] = mirrored[..., 1:]
    return SpectralField(grid, c)


def band_limit(grid: TorusGrid, values: np.ndarray) -> np.ndarray:
    """`oversampled_values(field_from_oversampled(grid, values))` bit for
    bit, in one forward and one inverse transform counted in `tally`.

    The round trip's Hermitian fold and re-projection leave the last axis'
    columns 1..n/2-1 as the forward transform gave them (0.5 (t + t) = t),
    so only columns 0 and n/2, their own mirror images, are symmetrized as
    the round trip does, and the coarse spectrum is never formed.  Raises
    ValueError as `field_from_oversampled`."""
    d, h = grid.dim, grid.n // 2
    t = _coarse_half(grid, values)
    zero, nyquist = t[..., :1], t[..., h:] + _conj_neg(t[..., h:], d)  # the folded column n/2
    t[..., :1] = 0.5 * (zero + _conj_neg(zero, d))
    t[..., h:] = 0.5 * (nyquist + _conj_neg(nyquist, d)) * 0.5  # split as in the round trip
    return _fine_values(grid, t)


def _oversampled(f) -> np.ndarray:
    """Oversampled values of a field, or those its `Blocks` holder keeps."""
    return oversampled_values(f) if isinstance(f, SpectralField) else f.values()


def dealiased_product(f, g) -> SpectralField:
    """Pointwise product evaluated on a 2x-oversampled grid and truncated.

    Exact (no aliasing) on the retained modes for band-limited inputs.
    Channel counts must match, or one factor must be single-channel.  Each
    factor is a field or its `Blocks` holder, whose held values are used.
    """
    _check_same_grid(f, g)
    return field_from_oversampled(f.grid, _oversampled(f) * _oversampled(g))


def apply_pointwise(fn, f) -> SpectralField:
    """Apply a scalar function pointwise on the oversampled grid, then
    truncate; f is a field or its `Blocks` holder."""
    return field_from_oversampled(f.grid, fn(_oversampled(f)))


# -- time-indexed paths -----------------------------------------------

# Time nodes stacked as the channels of one transform call: a chunk, not a
# whole path, so the memory held is bounded by this count, not by M.
_NODE_CHUNK = 16


def _uniform_times(times, nodes: int) -> np.ndarray:
    """`times` as floats, checked to be a uniform grid of `nodes` >= 2 nodes."""
    times = np.asarray(times, dtype=np.float64)
    if len(times) != nodes:
        raise ValueError("times and fields length mismatch")
    if nodes < 2:
        raise ValueError("a path needs at least two time nodes")
    dt = np.diff(times)
    if np.any(dt <= 0) or np.max(np.abs(dt - dt[0])) > 1e-10 * dt[0]:
        raise ValueError("times must be strictly increasing and uniform")
    return times


class FieldPath:
    """A field per node of a uniform time grid 0 = t_0 < ... < t_M = T, held
    as one array `coeffs` of shape (M + 1, channels) + grid.shape; `path[n]`
    and `fields` are views of it, `chunks()` reshapes, all immutable."""

    __slots__ = ("times", "grid", "coeffs")

    def __init__(self, times: np.ndarray, fields):
        fields = list(fields)
        if any(f.grid != fields[0].grid or f.channels != fields[0].channels for f in fields):
            raise ValueError("all fields of a path must share grid and channels")
        self.times, self.grid = _uniform_times(times, len(fields)), fields[0].grid
        self.coeffs = np.stack([f.coeffs for f in fields])

    @classmethod
    def from_coeff_array(cls, times, grid: TorusGrid, arr: np.ndarray) -> "FieldPath":
        """The path that holds `arr`, of shape (M + 1, channels) + grid.shape."""
        arr = np.asarray(arr, dtype=np.complex128)
        if arr.shape[2:] != grid.shape:
            raise ValueError(f"coefficient shape {arr.shape} does not match grid {grid.shape}")
        path = cls.__new__(cls)
        path.times, path.grid, path.coeffs = _uniform_times(times, len(arr)), grid, arr
        return path

    @property
    def channels(self) -> int:
        return self.coeffs.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[n])

    @property
    def fields(self) -> list[SpectralField]:
        """The node fields, a new list on each access: loops index the path."""
        return [self[n] for n in range(len(self))]

    def chunks(self) -> list[SpectralField]:
        """The nodes 16 at a time, chunk k holding nodes 16k .. 16k + 15 (the
        last one those that exist), each stacked node-major as the channels
        of one field."""
        shape = (-1,) + self.grid.shape
        return [SpectralField(self.grid, self.coeffs[i:i + _NODE_CHUNK].reshape(shape))
                for i in range(0, len(self), _NODE_CHUNK)]

    def map(self, fn) -> "FieldPath":
        return FieldPath(self.times, [fn(f) for f in self.fields])

    def __add__(self, other: "FieldPath") -> "FieldPath":
        _check_same_grid(self, other)
        if not np.allclose(self.times, other.times):
            raise ValueError("paths live on different time grids")
        return FieldPath.from_coeff_array(self.times, self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "FieldPath") -> "FieldPath":
        # as a field's a - b, bit for bit (signed zeros included)
        return self + FieldPath.from_coeff_array(other.times, other.grid, other.coeffs * -1.0)

    def coeff_array(self) -> np.ndarray:
        """The held coefficients, shape (M+1, channels) + grid.shape."""
        return self.coeffs


# -- snapshot format --------------------------------------------------

def save_field(path, f: SpectralField | FieldPath):
    """Write the documented binary snapshot.

    Layout: magic line, one JSON header line {dim, N, period, channels[,
    times]}, then complex128 little-endian coefficients in lattice row-major
    order (time-major for paths).
    """
    header = {"dim": f.grid.dim, "N": f.grid.n, "period": f.grid.period,
              "channels": f.channels}
    if isinstance(f, FieldPath):
        header["times"] = list(map(float, f.times))
    with open(path, "wb") as fh:
        fh.write(_HEADER_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(np.ascontiguousarray(f.coeffs.astype("<c16")).tobytes())


def load_field(path):
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _HEADER_MAGIC:
            raise ValueError(f"{path}: not a paracalc field snapshot")
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    grid = TorusGrid(header["dim"], header["N"], header["period"])
    arr = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    shape = (header["channels"],) + grid.shape
    if "times" in header:
        return FieldPath.from_coeff_array(header["times"], grid, arr.reshape((-1,) + shape))
    return SpectralField(grid, arr.reshape(shape))
