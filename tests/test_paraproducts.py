"""Paraproducts, resonant products, commutators and the controlled product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paracalc import (Blocks, NonlinearFunction, ParacontrolledField, SpectralField,
                      TorusGrid, bony_remainder, causal_bump, commutator_C,
                      controlled_product, dealiased_product, derivative,
                      heat_para_commutator, para_gt, para_lt, para_lt_time,
                      paralin_remainder, paraproduct_switch, pi_F, pi_times,
                      poly_function, resonant)
from paracalc.grid import FieldPath
from paracalc.paraproducts import _qi_weights, path_time_derivative
from paracalc.spectral import block_sups, default_partition, make_dyadic_partition

from conftest import rough_field


def tanh_fn(a=1.0):
    return NonlinearFunction(
        lambda x: a * np.tanh(x),
        lambda x: a / np.cosh(x) ** 2,
        lambda x: -2 * a * np.tanh(x) / np.cosh(x) ** 2,
        lambda x: a * (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2)


class TestBony:
    def test_decomposition_sums_to_product_1d(self, grid1d, part1d):
        f = rough_field(grid1d, 0.6, 0)
        g = rough_field(grid1d, -0.2, 1)
        total = para_lt(f, g, part1d) + para_gt(f, g, part1d) + resonant(f, g, part1d)
        prod = dealiased_product(f, g)
        scale = max(prod.sup_norm(), 1e-300)
        assert (total - prod).sup_norm() / scale < 1e-12

    def test_decomposition_sums_to_product_2d(self, grid2d, part2d):
        f = rough_field(grid2d, 0.4, 2)
        g = rough_field(grid2d, -0.5, 3)
        total = para_lt(f, g, part2d) + para_gt(f, g, part2d) + resonant(f, g, part2d)
        assert (total - dealiased_product(f, g)).sup_norm() < 1e-12 * dealiased_product(f, g).sup_norm() + 1e-13

    def test_bony_remainder_is_the_defect(self, grid1d, part1d):
        f = rough_field(grid1d, 0.3, 4)
        g = rough_field(grid1d, 0.1, 5)
        assert bony_remainder(f, g, part1d).sup_norm() < 1e-12

    def test_para_lt_transpose_is_para_gt(self, grid1d, part1d):
        f = rough_field(grid1d, 0.5, 6)
        g = rough_field(grid1d, 0.5, 7)
        d = para_lt(f, g, part1d) - para_gt(g, f, part1d)
        assert d.sup_norm() < 1e-12

    def test_constant_low_factor_recovers_high_tail(self, grid1d, part1d):
        # c < g keeps exactly the blocks with a nonempty S_{j-1}
        c = SpectralField.constant(grid1d, 2.0)
        g = rough_field(grid1d, 0.2, 8)
        tail = sum((g.coeffs * part1d.mask(j) for j in range(1, part1d.j_max + 1)))
        assert np.max(np.abs(para_lt(c, g, part1d).coeffs - 2.0 * tail)) < 1e-13

    def test_single_mode_pair_bookkeeping(self, grid1d, part1d):
        # frequencies 3 (annulus 1) and 44 (annulus 5) are separated enough
        # that their product is pure paraproduct with no resonance
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        g = SpectralField.from_function(grid1d, lambda x: np.cos(44 * x))
        assert resonant(f, g, part1d).sup_norm() < 1e-13
        assert (para_lt(f, g, part1d) - dealiased_product(f, g)).sup_norm() < 1e-13
        assert para_gt(f, g, part1d).sup_norm() < 1e-13


class TestNonlinearFunction:
    def test_registration_validates_derivatives(self):
        with pytest.raises(ValueError):
            NonlinearFunction(np.tanh, lambda x: np.tanh(x))

    def test_polynomial_evaluation(self, grid1d):
        F = poly_function([0.0, 0.0, 1.0])  # x^2
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        ref = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x) ** 2)
        assert (F(f) - ref).sup_norm() < 1e-12

    def test_shifted_composition(self, grid1d):
        F = tanh_fn(0.5)
        base = SpectralField.constant(grid1d, 0.3)
        G = F.shifted(base)
        f = SpectralField.from_function(grid1d, lambda x: 0.1 * np.sin(x))
        ref = np.tanh(0.3 + 0.1 * np.sin(grid1d.points()[0])) * 0.5
        assert np.max(np.abs(G(f).values()[0] - ref)) < 1e-9

    def test_paralinearization_remainder_is_smoother(self, grid1d, part1d):
        # F(f) - F'(f) < f gains regularity: fitted block slope roughly
        # doubles that of f itself
        F = tanh_fn()
        f = rough_field(grid1d, 0.7, 12) * 0.5
        r = paralin_remainder(F, f)
        js = np.arange(2, part1d.j_max)
        sf = np.polyfit(js, np.log2(block_sups(f, part1d)[3:part1d.j_max + 1]), 1)[0]
        sr = np.polyfit(js, np.log2(block_sups(r, part1d)[3:part1d.j_max + 1]), 1)[0]
        assert sr < sf - 0.25


class TestTrilinear:
    def test_commutator_vanishes_for_constant_first_slot(self, grid1d, part1d):
        c = SpectralField.constant(grid1d, 1.7)
        g = rough_field(grid1d, -0.2, 13)
        h = rough_field(grid1d, -0.3, 14)
        # only the lowest blocks of g escape the telescoping
        lowg = SpectralField(grid1d, g.coeffs * part1d.low_mask(1))
        ref = dealiased_product(c, resonant(lowg, h, part1d)) * -1.0
        assert (commutator_C(c, g, h, part1d) - ref).sup_norm() < 1e-12

    def test_pi_times_matches_definition(self, grid1d, part1d):
        f = rough_field(grid1d, 0.8, 15)
        u = rough_field(grid1d, 0.8, 16)
        g = rough_field(grid1d, -0.4, 17)
        lhs = pi_times(f, u, g, part1d)
        rhs = commutator_C(f, u, g, part1d) + commutator_C(u, f, g, part1d) \
            + resonant(resonant(f, u, part1d), g, part1d)
        assert (lhs - rhs).sup_norm() < 1e-13

    def test_pi_F_linear_function_vanishes(self, grid1d, part1d):
        F = poly_function([0.0, 3.0])
        f = rough_field(grid1d, 0.6, 18)
        g = rough_field(grid1d, -0.1, 19)
        assert pi_F(F, f, g, part1d).sup_norm() < 1e-11


class TestControlled:
    def test_ansatz_validation(self, grid1d):
        up = rough_field(grid1d, 1.0, 20)
        ref = rough_field(grid1d, 0.5, 21)
        sharp = rough_field(grid1d, 2.0, 22)
        P = ParacontrolledField.build(up, ref, sharp)
        assert (P.u - para_lt(up, ref) - sharp).sup_norm() < 1e-12
        with pytest.raises(ValueError):
            ParacontrolledField(P.u + 1.0, up, sharp, ref)

    def test_controlled_product_reduces_to_pointwise_for_smooth_data(
            self, grid1d, part1d):
        band = lambda f: SpectralField(grid1d, f.coeffs * (grid1d.k_abs() <= 12))
        up = band(rough_field(grid1d, 1.0, 23))
        ref = band(rough_field(grid1d, 0.5, 24))
        sharp = band(rough_field(grid1d, 2.0, 25))
        w = band(rough_field(grid1d, 0.0, 26))
        P = ParacontrolledField.build(up, ref, sharp)
        F = tanh_fn(0.7)
        eta = resonant(ref, w, part1d)
        lhs = controlled_product(P, w, eta, F, part1d)
        rhs = dealiased_product(F(P.u), w)
        assert (lhs - rhs).sup_norm() < 1e-7 * max(rhs.sup_norm(), 1.0)


class TestTimeMollified:
    def test_causal_bump_is_a_density_on_unit_interval(self):
        x = np.linspace(-0.5, 1.5, 4001)
        y = causal_bump(x)
        assert np.all(y[x < 0] == 0.0)
        assert np.all(y[x > 1] == 0.0)
        assert np.trapezoid(y, x) == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_rows_are_causal_and_normalised(self):
        times = np.linspace(0.0, 1.0, 33)
        w = _qi_weights(times, 2, causal_bump)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        # row n only looks backwards in time
        assert np.all(np.triu(w, k=1) == 0.0)

    def test_constant_path_collapses_to_plain_paraproduct(self, grid2d, part2d):
        f = rough_field(grid2d, 1.0, 27)
        g = rough_field(grid2d, -0.5, 28)
        times = np.linspace(0.0, 0.5, 9)
        fpath = FieldPath(times, [f] * 9)
        gpath = FieldPath(times, [g] * 9)
        out = para_lt_time(fpath, gpath, part2d)
        ref = para_lt(f, g, part2d)
        assert max((h - ref).sup_norm() for h in out.fields) < 1e-12

    def test_switch_vanishes_for_constant_paths(self, grid2d, part2d):
        f = rough_field(grid2d, 1.0, 29)
        g = rough_field(grid2d, -0.5, 30)
        times = np.linspace(0.0, 0.5, 9)
        sw = paraproduct_switch(FieldPath(times, [f] * 9),
                                FieldPath(times, [g] * 9), part2d)
        assert max(h.sup_norm() for h in sw.fields) < 1e-12

    def test_path_time_derivative_of_linear_path(self, grid2d):
        f = rough_field(grid2d, 0.5, 31)
        times = np.linspace(0.0, 1.0, 9)
        path = FieldPath(times, [f * t for t in times])
        d = path_time_derivative(path)
        assert max((h - f).sup_norm() for h in d.fields) < 1e-10

    def test_heat_commutator_of_zero_path_is_zero(self, grid2d, part2d):
        times = np.linspace(0.0, 0.25, 5)
        z = FieldPath(times, [SpectralField.zero(grid2d)] * 5)
        g = FieldPath(times, [rough_field(grid2d, -0.5, 32)] * 5)
        out = heat_para_commutator(z, g, 1.0, part2d)
        assert max(h.sup_norm() for h in out.fields) == 0.0

    def test_heat_commutator_requires_laplacian(self, grid2d):
        times = np.linspace(0.0, 0.25, 5)
        z = FieldPath(times, [SpectralField.zero(grid2d)] * 5)
        with pytest.raises(ValueError):
            heat_para_commutator(z, z, 0.9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bony_identity_random_fields(seed):
    grid = TorusGrid(1, 64)
    part = make_dyadic_partition(grid)
    f = rough_field(grid, 0.5, seed)
    g = rough_field(grid, -0.5, seed + 1)
    total = para_lt(f, g, part) + para_gt(f, g, part) + resonant(f, g, part)
    prod = dealiased_product(f, g)
    assert (total - prod).sup_norm() <= 1e-11 * max(prod.sup_norm(), 1e-6)


@pytest.mark.parametrize("grid_name", ["grid1d", "grid2d"])
def test_prebuilt_blocks_match_plain_calls(grid_name, request):
    # a holder for the fixed arguments, reused across calls, gives the
    # same products as building the blocks afresh in every call
    grid = request.getfixturevalue(grid_name)
    part = default_partition(grid)
    f = rough_field(grid, 0.5, 40)
    g = rough_field(grid, -0.5, 41)
    h = rough_field(grid, -0.3, 42)
    gb, hb = Blocks(g, part), Blocks(h, part)
    pairs = [
        (para_lt(f, gb, part), para_lt(f, g, part)),
        (para_lt(gb, f, part), para_lt(g, f, part)),
        (resonant(f, gb, part), resonant(f, g, part)),
        (resonant(gb, hb, part), resonant(g, h, part)),
        (commutator_C(f, gb, hb, part), commutator_C(f, g, h, part)),
        (commutator_C(gb, f, hb, part), commutator_C(g, f, h, part)),
        (para_lt(f, gb, part), para_lt(f, g, part)),
    ]
    for held, plain in pairs:
        scale = np.max(np.abs(plain.coeffs))
        assert np.max(np.abs(held.coeffs - plain.coeffs)) <= 1e-13 * scale
    # a nonlinearity evaluated on a holder reads its held values: no
    # arithmetic changes, so the result is exact
    F, fb = tanh_fn(0.7), Blocks(f, part)
    assert np.array_equal(F(fb).coeffs, F(f).coeffs)
    assert np.array_equal(F.deriv(fb).coeffs, F.deriv(f).coeffs)
    assert np.array_equal(F.deriv(fb, 2).coeffs, F.deriv(f, 2).coeffs)
