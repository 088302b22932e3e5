"""Paraproducts, resonant products, commutators and the controlled product."""

import logging
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
from paracalc.grid import FieldPath, oversampled_values
from paracalc.evolution import apply_L, path_time_derivative
from paracalc.paraproducts import CausalAverage, _node_weights, _qi_kernel
from paracalc.spectral import block_sups, default_partition, lp_block, make_dyadic_partition

from conftest import rough_field


def heat_commutator_product_rule(upath, vpath):
    """L(u << v) - u << (Lv) through the product rule of the Laplacian,
    (Lu) << v - 2 sum over axes of (d u << d v).  The rule needs every
    product resolved on the grid, so it is a reference for band-limited
    fields only: it drops the gradients of the Nyquist modes."""
    grid = upath.grid
    acc = para_lt_time(apply_L(upath, 1.0), vpath)
    for ax in range(grid.dim):
        du = upath.map(lambda f, ax=ax: derivative(f, ax))
        dv = vpath.map(lambda f, ax=ax: derivative(f, ax))
        acc = acc - para_lt_time(du, dv).map(lambda f: f * 2.0)
    return acc


def tanh_fn(a=1.0):
    return NonlinearFunction(lambda x: a * np.tanh(x), lambda x: a / np.cosh(x) ** 2)


class TestBony:
    def test_decomposition_sums_to_product_1d(self, grid1d, part1d):
        f = rough_field(grid1d, 0.6, 0)
        g = rough_field(grid1d, -0.2, 1)
        total = para_lt(f, g) + para_gt(f, g) + resonant(f, g, part1d)
        prod = dealiased_product(f, g)
        scale = max(prod.sup_norm(), 1e-300)
        assert (total - prod).sup_norm() / scale < 1e-12

    def test_decomposition_sums_to_product_2d(self, grid2d, part2d):
        f = rough_field(grid2d, 0.4, 2)
        g = rough_field(grid2d, -0.5, 3)
        total = para_lt(f, g) + para_gt(f, g) + resonant(f, g, part2d)
        assert (total - dealiased_product(f, g)).sup_norm() < 1e-12 * dealiased_product(f, g).sup_norm() + 1e-13

    def test_bony_remainder_is_the_defect(self, grid1d):
        f = rough_field(grid1d, 0.3, 4)
        g = rough_field(grid1d, 0.1, 5)
        assert bony_remainder(f, g).sup_norm() < 1e-12

    def test_para_lt_transpose_is_para_gt(self, grid1d):
        f = rough_field(grid1d, 0.5, 6)
        g = rough_field(grid1d, 0.5, 7)
        d = para_lt(f, g) - para_gt(g, f)
        assert d.sup_norm() < 1e-12

    def test_constant_low_factor_recovers_high_tail(self, grid1d, part1d):
        # c < g keeps exactly the blocks with a nonempty S_{j-1}
        c = SpectralField.constant(grid1d, 2.0)
        g = rough_field(grid1d, 0.2, 8)
        tail = sum((g.coeffs * part1d.mask(j) for j in range(1, part1d.j_max + 1)))
        assert np.max(np.abs(para_lt(c, g).coeffs - 2.0 * tail)) < 1e-13

    def test_single_mode_pair_bookkeeping(self, grid1d, part1d):
        # frequencies 3 (annulus 1) and 44 (annulus 5) are separated enough
        # that their product is pure paraproduct with no resonance
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        g = SpectralField.from_function(grid1d, lambda x: np.cos(44 * x))
        assert resonant(f, g, part1d).sup_norm() < 1e-13
        assert (para_lt(f, g) - dealiased_product(f, g)).sup_norm() < 1e-13
        assert para_gt(f, g).sup_norm() < 1e-13


class TestNonlinearFunction:
    def test_registration_validates_derivatives(self):
        with pytest.raises(ValueError):
            NonlinearFunction(np.tanh, lambda x: np.tanh(x))

    def test_derivative_is_required(self):
        with pytest.raises(TypeError):
            NonlinearFunction(np.tanh)

    @pytest.mark.parametrize("a", [(-1.0) ** 0.45, math.nan, math.inf],
                             ids=["complex", "nan", "inf"])
    def test_registration_rejects_complex_or_non_finite_values(self, a):
        # (-1)^alpha is complex: a negative coupling scale used to reach rfft
        with pytest.raises(ValueError, match="must be real and finite"):
            NonlinearFunction(lambda x: a * np.tanh(x), lambda x: a / np.cosh(x) ** 2)

    def test_polynomial_evaluation(self, grid1d):
        F = poly_function([0.0, 0.0, 1.0])  # x^2
        f = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x))
        ref = SpectralField.from_function(grid1d, lambda x: np.cos(3 * x) ** 2)
        assert (F(f) - ref).sup_norm() < 1e-12

    def test_paralinearization_remainder_is_smoother(self, grid1d, part1d):
        # F(f) - F'(f) < f gains regularity: fitted block slope roughly
        # doubles that of f itself
        F = tanh_fn()
        f = rough_field(grid1d, 0.7, 12) * 0.5
        r = paralin_remainder(F, f)
        js = np.arange(2, part1d.j_max)
        sf = np.polyfit(js, np.log2(block_sups(f)[3:part1d.j_max + 1]), 1)[0]
        sr = np.polyfit(js, np.log2(block_sups(r)[3:part1d.j_max + 1]), 1)[0]
        assert sr < sf - 0.25


class TestTrilinear:
    def test_commutator_vanishes_for_constant_first_slot(self, grid1d, part1d):
        c = SpectralField.constant(grid1d, 1.7)
        g = rough_field(grid1d, -0.2, 13)
        h = rough_field(grid1d, -0.3, 14)
        # only the lowest blocks of g escape the telescoping
        lowg = SpectralField(grid1d, g.coeffs * part1d.low_mask(1))
        ref = dealiased_product(c, resonant(lowg, h, part1d)) * -1.0
        assert (commutator_C(c, g, h) - ref).sup_norm() < 1e-12

    def test_pi_times_matches_definition(self, grid1d, part1d):
        f = rough_field(grid1d, 0.8, 15)
        u = rough_field(grid1d, 0.8, 16)
        g = rough_field(grid1d, -0.4, 17)
        lhs = pi_times(f, u, g)
        rhs = commutator_C(f, u, g) + commutator_C(u, f, g) \
            + resonant(resonant(f, u, part1d), g, part1d)
        assert (lhs - rhs).sup_norm() < 1e-13

    def test_pi_F_linear_function_vanishes(self, grid1d):
        F = poly_function([0.0, 3.0])
        f = rough_field(grid1d, 0.6, 18)
        g = rough_field(grid1d, -0.1, 19)
        assert pi_F(F, f, g).sup_norm() < 1e-11


def controlled_product_by_terms(P, w, eta, F, part):
    """`controlled_product` through the paracontrolled expansion:
    F(u)<w + F(u)>w + Pi_F(u, w) + F'(u)(u# @ w) + F'(u) C(u', ref, w)
    + (F'(u) u') eta."""
    u, wb = Blocks(P.u, part), Blocks(w, part)
    Fu = Blocks(F(u), part)
    dFu = F.deriv(u)
    out = para_lt(Fu, wb) + para_gt(Fu, wb) + pi_F(F, u, wb)
    out = out + dealiased_product(dFu, resonant(P.usharp, wb, part))
    out = out + dealiased_product(dFu, commutator_C(P.uprime, P.reference, wb))
    return out + dealiased_product(dealiased_product(dFu, P.uprime), eta)


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
        lhs = controlled_product(P, w, eta, F)
        rhs = dealiased_product(F(P.u), w)
        assert (lhs - rhs).sup_norm() < 1e-7 * max(rhs.sup_norm(), 1.0)

    @pytest.mark.parametrize("dim, n", [(1, 256), (2, 32)])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(0.1, 2.0))
    def test_controlled_product_equals_the_term_by_term_expansion(self, dim, n, seed, a):
        # rough data and an area unrelated to reference @ w: the telescoped
        # product is the expansion, to rounding
        grid = TorusGrid(dim, n)
        part = default_partition(grid)
        up, ref, sharp, w, eta = (rough_field(grid, al, seed + k) for k, al
                                  in enumerate((0.45, 0.9, 1.8, -0.6, -0.2)))
        P = ParacontrolledField.build(up, ref, sharp)
        F = tanh_fn(a)
        want = controlled_product_by_terms(P, w, eta, F, part)
        got = controlled_product(P, w, eta, F)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(np.abs(want.coeffs))


def qi_weights_by_rows(times, i):
    """Quadrature weights W with (Q_i f)(t_n) = sum_m W[n, m] f(t_m), built
    row by row from the definition Q_i f(t) = int 4^i phi(4^i (t - s))
    f(s v 0) ds: the trapezoid rule on the lags 0 .. ceil(4^-i / dt) + 1
    steps back from t_n, times before 0 clamped onto node 0, each row
    renormalised to unit mass; a window narrower than the step, or a row
    of vanishing taps, gives the identity."""
    nt = len(times)
    dt = times[1] - times[0]
    width = 4.0 ** (-i)
    if width < dt:
        return np.eye(nt)
    w = np.zeros((nt, nt))
    nodes = int(math.ceil(width / dt)) + 1
    for n in range(nt):
        t = times[n]
        s = t - np.arange(nodes + 1) * dt
        trap = np.full(len(s), dt)
        trap[0] = trap[-1] = 0.5 * dt
        contrib = causal_bump((t - s) / width) / width * trap
        idx = np.clip(np.rint((s - times[0]) / dt).astype(int), 0, nt - 1)
        np.add.at(w[n], idx, contrib)
        mass = w[n].sum()
        if mass <= 0.0:
            w[n] = 0.0
            w[n, n] = 1.0
        else:
            w[n] /= mass
    return w


def kernel_weights(times, i):
    """The weights of `CausalAverage` at scale i as a matrix, row n the
    kernel laid back from node n and clamped at node 0."""
    kernel = _qi_kernel(times[1] - times[0], i)
    return np.array([_node_weights(kernel, n, len(times)) for n in range(len(times))])


class TestTimeMollified:
    def test_causal_bump_is_a_density_on_unit_interval(self):
        x = np.linspace(-0.5, 1.5, 4001)
        y = causal_bump(x)
        assert np.all(y[x < 0] == 0.0)
        assert np.all(y[x > 1] == 0.0)
        assert np.trapezoid(y, x) == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_rows_are_causal_and_normalised(self):
        times = np.linspace(0.0, 1.0, 33)
        w = kernel_weights(times, 2)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        # row n only looks backwards in time
        assert np.all(np.triu(w, k=1) == 0.0)

    @pytest.mark.parametrize("n, T, M", [
        pytest.param(32, 0.5, 4, id="width-below-step"),
        pytest.param(32, 0.5, 8, id="width-equals-step"),
        pytest.param(64, 0.2499, 16, id="width-just-above-step"),
        pytest.param(64, 1.0, 1024, id="M-1024")])
    def test_node_weights_match_the_per_row_quadrature(self, n, T, M):
        # one kernel per scale, laid back from each node and clamped at
        # node 0, gives the weights the quadrature of the definition does
        part = default_partition(TorusGrid(2, n))
        times = np.arange(M + 1) * (T / M)
        avg = CausalAverage(part, times)
        for i, kernel in enumerate(avg.kernels, start=1):
            ref = qi_weights_by_rows(times, i)
            for node in range(M + 1):
                got = _node_weights(kernel, node, M + 1)
                assert np.max(np.abs(got - ref[node])) <= 1e-15

    def test_constant_path_collapses_to_plain_paraproduct(self, grid2d):
        f = rough_field(grid2d, 1.0, 27)
        g = rough_field(grid2d, -0.5, 28)
        times = np.linspace(0.0, 0.5, 9)
        fpath = FieldPath(times, [f] * 9)
        gpath = FieldPath(times, [g] * 9)
        out = para_lt_time(fpath, gpath)
        ref = para_lt(f, g)
        assert max((h - ref).sup_norm() for h in out.fields) < 1e-12

    def test_acts_channel_by_channel(self, grid2d):
        times = np.linspace(0.0, 0.5, 9)
        fpath = FieldPath(times, [rough_field(grid2d, 0.5, 70 + n, channels=2) for n in range(9)])
        gpath = FieldPath(times, [rough_field(grid2d, -0.5, 80 + n) for n in range(9)])
        out = para_lt_time(fpath, gpath)
        for c in (0, 1):
            ref = para_lt_time(fpath.map(lambda f: f.channel(c)), gpath)
            scale = np.max(np.abs(ref.coeff_array()))
            assert np.max(np.abs(out.coeff_array()[:, c:c + 1] - ref.coeff_array())) \
                <= 1e-14 * scale

    def test_matches_the_direct_definition(self, grid2d, part2d):
        # full quadrature rows and one dealiased product per block
        times = np.linspace(0.0, 0.5, 9)
        fpath = FieldPath(times, [rough_field(grid2d, 0.5, 40 + n) for n in range(9)])
        gpath = FieldPath(times, [rough_field(grid2d, -0.5, 60 + n) for n in range(9)])
        out = para_lt_time(fpath, gpath)
        fc = fpath.coeff_array()
        ref = [SpectralField.zero(grid2d) for _ in times]
        for i in range(1, part2d.j_max + 1):
            q = np.tensordot(kernel_weights(times, i), fc, axes=(1, 0))
            for n, g in enumerate(gpath.fields):
                ref[n] = ref[n] + dealiased_product(
                    SpectralField(grid2d, q[n] * part2d.low_mask(i - 1)),
                    SpectralField(grid2d, g.coeffs * part2d.mask(i)))
        scale = max(r.sup_norm() for r in ref)
        assert max((h - r).sup_norm() for h, r in zip(out.fields, ref)) <= 1e-13 * scale

    def test_switch_vanishes_for_constant_paths(self, grid2d):
        f = rough_field(grid2d, 1.0, 29)
        g = rough_field(grid2d, -0.5, 30)
        times = np.linspace(0.0, 0.5, 9)
        sw = paraproduct_switch(FieldPath(times, [f] * 9),
                                FieldPath(times, [g] * 9))
        assert max(h.sup_norm() for h in sw.fields) < 1e-12

    def test_path_time_derivative_of_linear_path(self, grid2d):
        f = rough_field(grid2d, 0.5, 31)
        times = np.linspace(0.0, 1.0, 9)
        path = FieldPath(times, [f * t for t in times])
        d = path_time_derivative(path)
        assert max((h - f).sup_norm() for h in d.fields) < 1e-10

    def test_heat_commutator_of_zero_path_is_zero(self, grid2d):
        times = np.linspace(0.0, 0.25, 5)
        z = FieldPath(times, [SpectralField.zero(grid2d)] * 5)
        g = FieldPath(times, [rough_field(grid2d, -0.5, 32)] * 5)
        out = heat_para_commutator(z, g)
        assert max(h.sup_norm() for h in out.fields) == 0.0

    @pytest.mark.parametrize("dim, n", [(2, 32), (1, 64)])
    def test_heat_commutator_of_constant_paths(self, dim, n):
        # for time-constant paths L = -Laplacian = |k|^2 and the mollified
        # paraproduct is the plain one; band-limited fields keep every
        # product exact on the grid, so the product rule holds too
        grid = TorusGrid(dim, n)
        part = default_partition(grid)
        band = grid.k_abs() <= n / 4
        lap = lambda f: SpectralField(grid, f.coeffs * grid.k_abs() ** 2)
        u, v = (SpectralField(grid, rough_field(grid, a, s).coeffs * band)
                for a, s in ((0.5, 33), (-0.5, 34)))
        times = np.linspace(0.0, 0.25, 5)
        upath, vpath = FieldPath(times, [u] * 5), FieldPath(times, [v] * 5)
        out = heat_para_commutator(upath, vpath)
        ref = lap(para_lt(u, v)) - para_lt(u, lap(v))
        assert max((h - ref).sup_norm() for h in out.fields) <= 1e-12 * ref.sup_norm()
        rule = heat_commutator_product_rule(upath, vpath)
        assert max((h - r).sup_norm() for h, r in zip(out.fields, rule.fields)) \
            <= 1e-12 * ref.sup_norm()

    def test_heat_commutator_pairs_each_factor_with_its_own_paraproduct(self, grid2d):
        # a step of 1/512 resolves every scale, so from node 1 on the node
        # has weight 0 in its own average and CausalAverage holds the
        # paraproduct it built there; the two paraproducts of the
        # commutator share one average, and each must keep its own factor
        times = np.arange(5) / 512
        upath, vpath = (FieldPath(times, [rough_field(grid2d, a, s + n) for n in range(5)])
                        for a, s in ((0.5, 35), (-0.5, 45)))
        out = heat_para_commutator(upath, vpath)
        ref = apply_L(para_lt_time(upath, vpath), 1.0) \
            - para_lt_time(upath, apply_L(vpath, 1.0))
        for h, r in zip(out.fields, ref.fields):
            assert np.array_equal(h.coeffs, r.coeffs)

    def test_heat_commutator_averages_u_once(self, caplog):
        # both paraproducts of the commutator read one CausalAverage of u, so
        # a step of 1/16 is reported once per commutator; it is as wide as
        # the window 4^-2 of block 2, whose kernel taps all fall on zeros of
        # the kernel, so the unmollified blocks start at 2
        grid = TorusGrid(1, 64)
        times = np.arange(5) / 16
        upath, vpath = (FieldPath(times, [rough_field(grid, a, s + n) for n in range(5)])
                        for a, s in ((0.5, 35), (-0.5, 45)))
        with caplog.at_level(logging.WARNING, logger="paracalc.paraproducts"):
            heat_para_commutator(upath, vpath)
        assert [r.getMessage() for r in caplog.records] == [
            "time step 0.0625 cannot resolve mollification below block 2; "
            "using unmollified values there"]


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)], ids=["1d", "2d"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bony_identity_random_fields(dim, n, seed):
    grid = TorusGrid(dim, n)
    part = make_dyadic_partition(grid)
    f = rough_field(grid, 0.5, seed)
    g = rough_field(grid, -0.5, seed + 1)
    total = para_lt(f, g) + para_gt(f, g) + resonant(f, g, part)
    prod = dealiased_product(f, g)
    assert (total - prod).sup_norm() <= 1e-11 * max(prod.sup_norm(), 1e-6)


@pytest.mark.parametrize("dim, n", [(1, 16), (1, 128), (1, 512), (2, 16), (2, 32), (2, 64)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), channels=st.integers(1, 3), alpha=st.floats(-1.0, 1.0))
def test_blocks_equal_one_transform_per_block(dim, n, seed, channels, alpha):
    # all blocks come from one transform call on the stacked masked
    # coefficients; each channel is transformed on its own, so every block
    # equals its own transform bit for bit (the period pi gives N = 16 the
    # three blocks a partition needs)
    grid = TorusGrid(dim, n, math.pi)
    part = default_partition(grid)
    rng = np.random.default_rng(seed)
    shape = (channels,) + grid.shape
    # derivative's Nyquist content plus a general non-Hermitian part
    f = derivative(rough_field(grid, alpha, seed, channels), seed % dim) \
        + SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert not f.is_hermitian()
    fb = Blocks(f, part)
    for j in part.blocks:
        assert np.array_equal(fb.block(j), oversampled_values(lp_block(f, j)))


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
        (para_lt(f, gb), para_lt(f, g)),
        (para_lt(gb, f), para_lt(g, f)),
        (resonant(f, gb, part), resonant(f, g, part)),
        (resonant(gb, hb, part), resonant(g, h, part)),
        (commutator_C(f, gb, hb), commutator_C(f, g, h)),
        (commutator_C(gb, f, hb), commutator_C(g, f, h)),
        (para_lt(f, gb), para_lt(f, g)),
    ]
    for held, plain in pairs:
        scale = np.max(np.abs(plain.coeffs))
        assert np.max(np.abs(held.coeffs - plain.coeffs)) <= 1e-13 * scale
    # a nonlinearity evaluated on a holder reads its held values: no
    # arithmetic changes, so the result is exact
    F, fb = tanh_fn(0.7), Blocks(f, part)
    assert np.array_equal(F(fb).coeffs, F(f).coeffs)
    assert np.array_equal(F.deriv(fb).coeffs, F.deriv(f).coeffs)
