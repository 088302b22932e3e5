"""Gaussian drivers: white noise, stochastic convolutions, fBm, mollifiers."""

import logging
import math

import numpy as np
import pytest

from paracalc import noise
from paracalc import (BUMP_MOLLIFIER, DIRAC_MOLLIFIER, GAUSS_MOLLIFIER,
                      Mollifier, NoiseSeed, SpectralField, TorusGrid,
                      burgers_theta_path, default_time_cutoff, derivative,
                      fbm_path, mollify, pam_theta, rde_driver,
                      sample_line_path, spatial_white_noise)
from paracalc.noise import _fgn_autocov
from paracalc.partition import radial_cutoff

TWO_PI = 2 * math.pi


class TestWhiteNoise:
    def test_realness_and_zero_mean(self, grid2d):
        xi = spatial_white_noise(grid2d, 0)
        assert xi.is_hermitian()
        assert xi.mean()[0] == 0.0

    def test_same_seed_is_bitwise_identical(self, grid2d):
        a = spatial_white_noise(grid2d, 12)
        b = spatial_white_noise(grid2d, 12)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_different_seeds_differ(self, grid2d):
        a = spatial_white_noise(grid2d, 1)
        b = spatial_white_noise(grid2d, 2)
        assert not np.allclose(a.coeffs, b.coeffs)

    def test_rejects_one_dimensional_grid(self, grid1d):
        with pytest.raises(ValueError):
            spatial_white_noise(grid1d, 0)

    def test_continuous_transform_variance(self, grid2d):
        # E |F xi(k)|^2 = (2 pi)^2 on the 2-torus, flat over the lattice
        acc = 0.0
        m = 200
        for s in range(m):
            xi = spatial_white_noise(grid2d, s)
            p = xi.continuum_coeffs()[0]
            acc += np.mean(np.abs(p[p != 0]) ** 2)
        mean = acc / m
        # averaging over ~1000 modes and 200 seeds: a few percent suffices
        assert mean == pytest.approx(TWO_PI**2, rel=0.05)

    def test_theta_divides_by_the_symbol(self, grid2d):
        xi = spatial_white_noise(grid2d, 3)
        th = pam_theta(xi)
        r2 = grid2d.k_abs() ** 2
        nz = r2 > 0
        assert np.max(np.abs(th.coeffs[0, nz] * r2[nz] - xi.coeffs[0, nz])) < 1e-14
        assert th.mean()[0] == 0.0


class TestStochasticConvolution:
    def test_starts_at_zero(self):
        grid = TorusGrid(1, 32)
        path = burgers_theta_path(grid, 0.9, 0.5, 8, 1, 0)
        assert path[0].sup_norm() == 0.0

    def test_needs_supercritical_sigma(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError):
            burgers_theta_path(grid, 0.5, 0.5, 8, 1, 0)

    def test_mode_variance_matches_ou_law(self):
        # Var F theta_t(k) = 2 pi (1 - e^(-2 t mu)) / (2 mu), mu = |k|^(2 sigma)
        grid = TorusGrid(1, 32)
        sigma, T, M = 0.9, 0.5, 16
        path = burgers_theta_path(grid, sigma, T, M, channels=512, seed=4)
        k = 3
        mu = 3.0 ** (2 * sigma)
        for n in (4, 16):
            t = path.times[n]
            samples = np.abs(path[n].continuum_coeffs()[:, k]) ** 2
            target = TWO_PI * -np.expm1(-2 * t * mu) / (2 * mu)
            se = np.std(samples, ddof=1) / math.sqrt(len(samples))
            assert abs(np.mean(samples) - target) < 4 * se

    def test_zero_mode_is_brownian(self):
        grid = TorusGrid(1, 32)
        path = burgers_theta_path(grid, 0.9, 0.5, 8, channels=512, seed=5)
        samples = np.abs(path[-1].continuum_coeffs()[:, 0]) ** 2
        target = TWO_PI * 0.5
        se = np.std(samples, ddof=1) / math.sqrt(len(samples))
        assert abs(np.mean(samples) - target) < 4 * se


class TestFbm:
    def test_autocov_lag_zero_is_one(self):
        assert _fgn_autocov(4, 0.7)[0] == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fbm_path(1.2, 8, 1.0)
        with pytest.raises(ValueError):
            fbm_path(0.7, 9, 1.0)

    def test_increment_variance(self):
        _, x = fbm_path(0.7, 8, 1.0, channels=4000, seed=6)
        inc = np.diff(x, axis=1)
        var = np.var(inc)
        target = (1.0 / 8) ** 1.4
        assert var == pytest.approx(target, rel=0.1)

    def test_two_time_covariance(self):
        # E X_t X_s = (t^2H + s^2H - |t-s|^2H) / 2
        hurst = 0.7
        ts, x = fbm_path(hurst, 16, 1.0, channels=4000, seed=7)
        i, j = 4, 12   # t = 0.25, s = 0.75
        samples = x[:, i] * x[:, j]
        target = 0.5 * (0.25 ** (2 * hurst) + 0.75 ** (2 * hurst) - 0.5 ** (2 * hurst))
        se = np.std(samples, ddof=1) / math.sqrt(len(samples))
        assert abs(np.mean(samples) - target) < 4 * se

    def test_starts_at_zero(self):
        _, x = fbm_path(0.6, 16, 2.0, channels=3, seed=8)
        assert np.all(x[:, 0] == 0.0)

    def test_cholesky_fallback_is_logged_not_printed(self, monkeypatch, capsys,
                                                     caplog):
        # this autocovariance is positive definite, but its circulant
        # embedding has the eigenvalue -0.2
        monkeypatch.setattr(noise, "_fgn_autocov",
                            lambda n, hurst: np.array([1.0, 0.8, 0.5, 0.3]))
        with caplog.at_level(logging.WARNING, logger="paracalc.noise"):
            _, x = fbm_path(0.7, 4, 1.0, seed=9)
        assert x.shape == (1, 5)
        assert capsys.readouterr().out == ""
        assert "Cholesky fallback" in caplog.text


class TestMollifier:
    def test_profile_must_be_one_at_zero(self):
        with pytest.raises(ValueError):
            Mollifier("bad", lambda r: r)

    def test_single_mode_multiplier(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(5 * x))
        g = mollify(f, 0.3, GAUSS_MOLLIFIER)
        w = math.exp(-(0.3 * 5) ** 2 / 2)
        assert g.coeffs[0, 5] == pytest.approx(0.5 * w, rel=1e-12)

    def test_dirac_is_identity(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(5 * x))
        assert (mollify(f, 0.5, DIRAC_MOLLIFIER) - f).sup_norm() < 1e-14

    def test_bump_keeps_low_band_untouched(self, grid1d):
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        assert (mollify(f, 0.1, BUMP_MOLLIFIER) - f).sup_norm() < 1e-13

    def test_commutes_with_the_lift(self, grid2d):
        xi = spatial_white_noise(grid2d, 9)
        a = mollify(pam_theta(xi), 0.25, GAUSS_MOLLIFIER)
        b = pam_theta(mollify(xi, 0.25, GAUSS_MOLLIFIER))
        assert (a - b).sup_norm() < 1e-13


class TestLineDriver:
    def test_samples_align_with_grid(self):
        grid = TorusGrid(1, 128, TWO_PI)
        ts, xs = sample_line_path(grid, 0.75, 10, support=1.0)
        h = grid.period / grid.n
        assert np.allclose(np.diff(ts), h)
        i0 = np.argmin(np.abs(ts))
        assert ts[i0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(xs[:, i0] == 0.0)
        assert ts[0] <= -1.0 and ts[-1] >= 1.0

    def test_driver_is_localized_and_mean_free(self):
        grid = TorusGrid(1, 256, 4 * TWO_PI)
        ts, xs = sample_line_path(grid, 0.75, 11)
        drv = rde_driver(ts, xs, grid)
        assert abs(drv.theta.mean()[0]) < 1e-13
        d = derivative(drv.theta, 0) - drv.xi
        assert d.sup_norm() < 1e-12
        # on the far side of the torus the localized path is zero, so theta
        # sits at (minus) the removed mean there, up to projection ringing
        mid = drv.theta.eval_at(np.array([grid.period / 2]))[0, 0]
        assert abs(abs(mid) - drv.removed_mean) < 5e-3

    def test_rejects_cutoff_wider_than_the_torus(self):
        grid = TorusGrid(1, 64, TWO_PI)
        ts, xs = sample_line_path(grid, 0.75, 12, support=4.0)
        wide = lambda t: radial_cutoff(t, 3.0, 4.0)
        with pytest.raises(ValueError):
            rde_driver(ts, xs, grid, wide)

    def test_default_cutoff_shape(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        v = default_time_cutoff(t)
        assert np.all(v[:3] == 1.0)
        assert 0 < v[3] < 1
        assert np.all(v[4:] == 0.0)


def test_noise_seed_streams_are_independent():
    a = NoiseSeed(5).child(1).generator().standard_normal(4)
    b = NoiseSeed(5).child(2).generator().standard_normal(4)
    c = NoiseSeed(5).child(1).generator().standard_normal(4)
    assert np.array_equal(a, c)
    assert not np.allclose(a, b)
