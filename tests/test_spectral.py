"""Grids, dyadic partitions and elementary spectral calculus."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracalc import (SpectralField, TorusGrid, antiderivative, besov_norm,
                      block_sups, dealiased_product, derivative,
                      fractional_laplacian, load_field, lp_block,
                      make_dyadic_partition, radial_cutoff, remove_mean,
                      save_field, smoothstep)
import paracalc.grid
from paracalc.grid import (FieldPath, _negate_rows, apply_pointwise, band_limit,
                          field_from_oversampled, oversampled_values)
from paracalc.noise import centered_time, time_cutoff

from conftest import rough_field


class TestGrid:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            TorusGrid(3, 64)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            TorusGrid(1, 48)

    def test_axis_frequencies_scale_with_period(self):
        g = TorusGrid(1, 64, period=4 * math.pi)
        assert g.axis_freqs()[1] == pytest.approx(0.5)

    def test_values_roundtrip(self, grid1d):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(grid1d.shape)
        f = SpectralField.from_values(grid1d, v)
        assert np.max(np.abs(f.values()[0] - v)) < 1e-12

    def test_eval_at_matches_grid_samples(self, grid1d):
        f = rough_field(grid1d, 0.5, 1)
        x = grid1d.points()[0][:7]
        assert np.max(np.abs(f.eval_at(x) - f.values()[:, :7])) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]), log_n=st.integers(4, 5),
           channels=st.integers(1, 3), period=st.sampled_from([2 * np.pi, 3.0, 8 * np.pi]),
           points=st.sampled_from(["scalar", "one", "broadcast", "64N+1"]),
           seed=st.integers(0, 10_000))
    def test_eval_at_is_the_literal_lattice_sum(self, dim, log_n, channels, period,
                                                points, seed):
        # random coefficients, neither Hermitian nor with real Nyquist entries,
        # against Re sum_k c_k exp(i <k, x>) over the fftfreq lattice; N <= 32
        # keeps the literal 64N + 1-point kernel of a 2-d grid at 33 MB
        grid = TorusGrid(dim, 2**log_n, period)
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((channels,) + grid.shape) \
            + 1j * rng.standard_normal((channels,) + grid.shape)
        assert np.all(c[(slice(None),) + (grid.n // 2,) * dim].imag != 0)
        f = SpectralField(grid, c)
        lo, hi = -2 * period, 2 * period
        xs = {"scalar": lambda: [float(rng.uniform(lo, hi)) for _ in range(dim)],
              "one": lambda: [rng.uniform(lo, hi, 1) for _ in range(dim)],
              "broadcast": lambda: ([rng.uniform(lo, hi, (5, 3))] if dim == 1 else
                                    [rng.uniform(lo, hi, (5, 1)), rng.uniform(lo, hi, 3)]),
              "64N+1": lambda: [np.linspace(rng.uniform(lo, 0), rng.uniform(0, hi),
                                            64 * grid.n + 1) for _ in range(dim)]}[points]()
        got = f.eval_at(*xs)
        xb = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in xs))
        k = np.meshgrid(*[grid.axis_freqs()] * dim, indexing="ij")
        phase = sum(np.multiply.outer(x, kk.ravel()) for x, kk in zip(xb, k))
        want = np.moveaxis(np.real(np.exp(1j * phase) @ c.reshape(channels, -1).T), -1, 0)
        assert got.shape == want.shape == (channels,) + xb[0].shape
        # relative to sum |c_k|, the largest a value can be
        scale = np.abs(c).reshape(channels, -1).sum(axis=1)
        err = np.abs(got - want).reshape(channels, -1).max(axis=1)
        assert np.all(err <= 1e-13 * scale)

    def test_constant_field(self, grid2d):
        f = SpectralField.constant(grid2d, 2.5)
        assert f.sup_norm() == pytest.approx(2.5)
        assert f.mean()[0] == pytest.approx(2.5)

    def test_save_load_roundtrip(self, tmp_path, grid2d):
        f = rough_field(grid2d, 0.3, 5, channels=2)
        save_field(tmp_path / "f.field", f)
        g = load_field(tmp_path / "f.field")
        assert g.grid == grid2d
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_save_load_path_roundtrip(self, tmp_path, grid1d):
        p = FieldPath(np.linspace(0, 1, 4),
                      [rough_field(grid1d, 0.5, s) for s in range(4)])
        save_field(tmp_path / "p.field", p)
        q = load_field(tmp_path / "p.field")
        assert np.array_equal(q.times, p.times)
        assert np.array_equal(q.fields[2].coeffs, p.fields[2].coeffs)


class TestPartition:
    def test_smoothstep_endpoints(self):
        assert smoothstep(np.array([-0.1, 0.0]))[1] == 0.0
        assert smoothstep(np.array([1.0, 1.5]))[0] == 1.0

    def test_radial_cutoff_plateau_and_support(self):
        r = np.array([0.0, 0.9, 1.0, 1.7, 2.0, 3.0])
        v = radial_cutoff(r, 1.0, 2.0)
        assert np.all(v[:3] == 1.0)
        assert 0.0 < v[3] < 1.0
        assert np.all(v[4:] == 0.0)

    def test_cutoffs_keep_their_bytes(self):
        # sha256 of the partition masks and of the rough ODE's time cutoff: a
        # rewrite of the cutoff arithmetic must leave every bit in place (exp
        # is their one transcendental call, so an exp that rounds differently
        # changes them too)
        digests = [hashlib.sha256(make_dyadic_partition(g).masks.tobytes()).hexdigest()
                   for g in (TorusGrid(1, 512), TorusGrid(2, 64))]
        t = centered_time(TorusGrid(1, 512, 8 * math.pi))
        digests.append(hashlib.sha256(time_cutoff(t).tobytes()).hexdigest())
        assert digests == [
            "fae5e5814e32dc710446edcd86d80d1d597eda60ff21f18fa9f03bdce5ae7308",
            "577c29225cec0132afe7f63ede0db8f93840a720a0e22752fd46d7c4103ac9b7",
            "75a3c6eb6268f0cd4aaa23eaa38d3da012bcc3d2fb952c372d5152ff2bce54d6"]

    def test_partition_of_unity_is_exact(self, grid1d, part1d):
        total = part1d.masks.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_partition_of_unity_2d(self, grid2d, part2d):
        total = part2d.masks.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_masks_between_zero_and_one(self, part1d):
        assert part1d.masks.min() >= 0.0
        assert part1d.masks.max() <= 1.0

    def test_block_count(self, grid1d, part1d):
        # top resolved annulus must fit below the axis Nyquist frequency
        assert part1d.j_max == 5
        assert list(part1d.blocks) == list(range(-1, 6))

    def test_single_mode_lands_in_its_block(self, grid1d):
        # frequency 3 sits on the plateau of annulus 1, frequency 44 on
        # the plateau of annulus 5 (for the unit-period 256-point grid)
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        sups = block_sups(f)
        assert sups[2] == pytest.approx(1.0, abs=1e-13)
        assert np.sum(sups > 1e-13) == 1

    def test_low_sum_plus_tail_is_identity(self, grid1d, part1d):
        # S_j f, the low-frequency cut through low_mask, plus the blocks from j on
        f = rough_field(grid1d, 0.2, 3)
        acc = SpectralField(grid1d, f.coeffs * part1d.low_mask(2))
        for j in range(2, part1d.j_max + 1):
            acc = acc + lp_block(f, j)
        assert np.max(np.abs(acc.coeffs - f.coeffs)) < 1e-13


class TestCalculus:
    def test_derivative_of_cosine(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(5 * x))
        df = derivative(f, 0)
        g = SpectralField.from_function(grid1d, lambda x: -5 * np.sin(5 * x))
        assert np.max(np.abs(df.coeffs - g.coeffs)) < 1e-12

    def test_fractional_laplacian_single_mode(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(4 * x))
        g = fractional_laplacian(f, 0.75)
        assert g.coeffs[0, 4] == pytest.approx(4.0 ** 1.5 * 0.5, rel=1e-12)

    def test_fractional_laplacian_kills_constants(self, grid2d):
        f = SpectralField.constant(grid2d, 3.0)
        assert fractional_laplacian(f, 0.9).sup_norm() < 1e-14

    def test_antiderivative_of_cosine(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(5 * x))
        F = antiderivative(f)
        g = SpectralField.from_function(grid1d, lambda x: np.sin(5 * x) / 5)
        assert np.max(np.abs(F.coeffs - g.coeffs)) < 1e-13

    def test_antiderivative_vanishes_at_origin(self, grid1d):
        f, _ = remove_mean(rough_field(grid1d, 0.8, 9))
        F = antiderivative(f)
        assert abs(F.eval_at(np.zeros(1))[0, 0]) < 1e-11

    def test_antiderivative_rejects_nonzero_mean(self, grid1d):
        with pytest.raises(ValueError):
            antiderivative(SpectralField.constant(grid1d, 1.0))

    def test_derivative_undoes_antiderivative(self, grid1d):
        f, _ = remove_mean(rough_field(grid1d, 1.5, 11))
        assert np.max(np.abs(derivative(antiderivative(f), 0).coeffs
                             - f.coeffs)) < 1e-11

    def test_besov_norm_of_single_mode(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        assert besov_norm(f, 2.0) == pytest.approx(4.0, abs=1e-12)

    def test_dealiased_product_of_cosines_is_exact(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(7 * x))
        g = SpectralField.from_function(grid1d, lambda x: np.cos(9 * x))
        h = dealiased_product(f, g)
        ref = SpectralField.from_function(
            grid1d, lambda x: 0.5 * (np.cos(2 * x) + np.cos(16 * x)))
        assert np.max(np.abs(h.coeffs - ref.coeffs)) < 1e-14

    def test_apply_pointwise_on_band_limited_field(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: 0.3 * np.cos(2 * x))
        g = apply_pointwise(np.tanh, f)
        x = grid1d.points()[0]
        assert np.max(np.abs(g.values()[0] - np.tanh(0.3 * np.cos(2 * x)))) < 1e-8


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["1d", "2d"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(-1.0, 1.5))
def test_block_decomposition_reassembles(dim, n, seed, alpha):
    grid = TorusGrid(dim, n)
    part = make_dyadic_partition(grid)
    f = rough_field(grid, alpha, seed)
    acc = sum((lp_block(f, j).coeffs for j in part.blocks))
    assert np.max(np.abs(acc - f.coeffs)) < 1e-12


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["1d", "2d"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dealiased_product_is_hermitian(dim, n, seed):
    grid = TorusGrid(dim, n)
    f = rough_field(grid, 0.4, seed)
    g = rough_field(grid, -0.2, seed + 1)
    assert dealiased_product(f, g).is_hermitian()


# -- real transforms against the complex-FFT definition ---------------

def _complex_pad(c, ax, m):
    """Zero-pad one axis, the Nyquist coefficient split over the +-n/2 slots."""
    c = np.moveaxis(c, ax, -1)
    h = c.shape[-1] // 2
    out = np.zeros(c.shape[:-1] + (m,), dtype=np.complex128)
    out[..., :h] = c[..., :h]
    out[..., m - h + 1:] = c[..., h + 1:]
    out[..., h] += 0.5 * c[..., h]
    out[..., m - h] += 0.5 * c[..., h]
    return np.moveaxis(out, -1, ax)


def _complex_fold(c, ax, n):
    """Truncate one axis, folding the +-n/2 slots into the Nyquist coefficient."""
    c = np.moveaxis(c, ax, -1)
    m, h = c.shape[-1], n // 2
    out = np.zeros(c.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :h] = c[..., :h]
    out[..., h + 1:] = c[..., m - h + 1:]
    out[..., h] = c[..., h] + c[..., m - h]
    return np.moveaxis(out, -1, ax)


def _complex_values(f):
    d, m = f.grid.dim, 2 * f.grid.n
    c = f.coeffs
    for ax in range(-d, 0):
        c = _complex_pad(c, ax, m)
    return np.real(np.fft.ifftn(c, axes=tuple(range(-d, 0)))) * m**d


def _complex_field(grid, values):
    d, m = grid.dim, 2 * grid.n
    c = np.fft.fftn(values, axes=tuple(range(-d, 0))) / m**d
    for ax in range(-d, 0):
        c = _complex_fold(c, ax, grid.n)
    return c


@pytest.mark.parametrize("dim, channels, axis",
                         [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 1, 1), (2, 2, 1)])
def test_real_transforms_match_complex_definition(dim, channels, axis):
    # derivative leaves odd (anti-Hermitian) Nyquist content, which a real
    # inverse transform must not read as half a spectrum
    grid = TorusGrid(dim, 16)
    f = derivative(rough_field(grid, 0.3, 50, channels), axis)
    g = derivative(rough_field(grid, -0.2, 51, channels), axis)
    assert not f.is_hermitian()

    fv = _complex_values(f)
    assert np.max(np.abs(oversampled_values(f) - fv)) <= 1e-12 * np.max(np.abs(fv))

    ref = _complex_field(grid, fv * _complex_values(g))
    out = dealiased_product(f, g).coeffs
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    ref = _complex_field(grid, np.tanh(fv))
    out = apply_pointwise(np.tanh, f).coeffs
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


# -- pruned transforms against the full-spectrum real transforms ------

def _full_spectrum_values(f):
    """`oversampled_values` as one irfftn over the whole padded half spectrum."""
    n, d = f.grid.n, f.grid.dim
    m, h = 2 * n, n // 2
    c = f.coeffs
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


def _full_spectrum_field(grid, values):
    """`field_from_oversampled` as one rfftn over every fine column."""
    n, d = grid.n, grid.dim
    m, h = 2 * n, n // 2
    v = np.fft.rfftn(values, axes=tuple(range(-d, 0))) / m**d
    if d == 1:
        t = v[..., : h + 1]
    else:
        t = np.empty(v.shape[:-2] + (n, h + 1), dtype=np.complex128)
        t[..., :h, :] = v[..., :h, : h + 1]
        t[..., h, :] = v[..., h, : h + 1] + v[..., m - h, : h + 1]
        t[..., h + 1:, :] = v[..., m - h + 1:, : h + 1]
    mirrored = np.conj(t[..., h:0:-1])
    if d == 2:
        mirrored = _negate_rows(mirrored)
    c = np.empty(t.shape[:-1] + (n,), dtype=np.complex128)
    c[..., :h] = t[..., :h]
    c[..., h] = t[..., h] + mirrored[..., 0]
    c[..., h + 1:] = mirrored[..., 1:]
    return c


_TRANSFORM_SIZES = [(1, 16), (1, 64), (1, 256), (1, 1024),
                    (2, 16), (2, 32), (2, 64), (2, 128)]


@pytest.mark.parametrize("dim, n", _TRANSFORM_SIZES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), channels=st.integers(1, 2),
       alpha=st.floats(-1.0, 1.0))
def test_pruned_transforms_equal_the_full_spectrum_ones(dim, n, seed, channels, alpha):
    # the pruned transforms skip only zero columns and discarded outputs,
    # and every scale is a power of two, so they agree bit for bit
    grid = TorusGrid(dim, n)
    rng = np.random.default_rng(seed)
    shape = (channels,) + grid.shape
    # derivative's Nyquist content plus a general non-Hermitian part
    f = derivative(rough_field(grid, alpha, seed, channels), seed % dim) \
        + SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert not f.is_hermitian()
    assert np.array_equal(oversampled_values(f), _full_spectrum_values(f))

    values = rng.standard_normal((channels,) + (2 * n,) * dim)
    assert np.array_equal(field_from_oversampled(grid, values).coeffs,
                          _full_spectrum_field(grid, values))


@pytest.mark.parametrize("dim, shape", [(1, (16,)), (2, (32, 16)), (2, (16, 16)),
                                        (2, (32,)), (1, (2, 3, 32))])
def test_field_from_oversampled_rejects_samples_off_the_fine_grid(dim, shape):
    for project in (field_from_oversampled, band_limit):
        with pytest.raises(ValueError, match="not on the 32"):
            project(TorusGrid(dim, 16), np.ones(shape))


def test_field_from_oversampled_accepts_stacked_channels():
    grid = TorusGrid(2, 16)
    values = np.random.default_rng(0).standard_normal((3, 32, 32))
    f = field_from_oversampled(grid, values)
    assert f.channels == 3
    assert np.array_equal(f.channel(1).coeffs, field_from_oversampled(grid, values[1]).coeffs)


@settings(max_examples=30, deadline=None)
@given(size=st.one_of(st.tuples(st.just(1), st.sampled_from([16, 32, 64, 128, 256, 512])),
                      st.tuples(st.just(2), st.sampled_from([16, 32, 64]))),
       seed=st.integers(0, 10_000), channels=st.integers(1, 3), alpha=st.floats(-1.0, 1.0))
def test_band_limit_is_the_round_trip(size, seed, channels, alpha):
    # the fold and re-projection of the round trip through the coarse
    # spectrum leave every column of the last axis but 0 and n/2 as the
    # forward transform gave it; samples of a function of a non-Hermitian
    # field (derivative's Nyquist content and a general part) plus noise
    # off the band
    dim, n = size
    grid = TorusGrid(dim, n)
    rng = np.random.default_rng(seed)
    shape = (channels,) + grid.shape
    f = derivative(rough_field(grid, alpha, seed, channels), seed % dim) \
        + SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert not f.is_hermitian()
    values = np.tanh(oversampled_values(f)) + rng.standard_normal((channels,) + (2 * n,) * dim)
    want = oversampled_values(field_from_oversampled(grid, values))
    before = dict(paracalc.grid.tally)
    got = band_limit(grid, values)
    assert got.tobytes() == want.tobytes()
    assert {k: v - before[k] for k, v in paracalc.grid.tally.items()} == {
        "inverse": 1, "inverse_channels": channels, "forward": 1, "forward_channels": channels}


@pytest.mark.parametrize("dim, n", _TRANSFORM_SIZES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), channels=st.integers(1, 2),
       alpha=st.floats(-1.0, 1.0))
def test_oversampled_round_trip_is_the_identity(dim, n, seed, channels, alpha):
    grid = TorusGrid(dim, n)
    f = rough_field(grid, alpha, seed, channels)
    back = field_from_oversampled(grid, oversampled_values(f)).coeffs
    assert np.max(np.abs(back - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))
