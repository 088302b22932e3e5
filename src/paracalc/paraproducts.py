"""Bony paraproducts, resonant products, commutators, and the
time-mollified paraproduct used by the parabolic solver.

All pointwise multiplications go through the 2x-oversampled grid so the
decomposition identity f*g = f<g + f>g + f@g is exact (to rounding) for
band-limited fields.  Notation in identifiers: `lt` is the paraproduct
"low acts on high" (f before g), `gt` its mirror, `resonant` the diagonal
part.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .grid import (FieldPath, SpectralField, apply_pointwise, dealiased_product,
                   field_from_oversampled, oversampled_values)
from .partition import DyadicPartition, smoothstep
from .spectral import default_partition, derivative, lp_block

log = logging.getLogger(__name__)


# -- nonlinearities ---------------------------------------------------

class NonlinearFunction:
    """Scalar composition nonlinearity with derivatives up to third order.

    Derivative callables are validated against central finite differences
    of `f` at registration, so a mistyped derivative fails fast.
    """

    def __init__(self, f, d1=None, d2=None, d3=None, name="F", validate=True):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3
        self.name = name
        if validate and d1 is not None:
            self._validate()

    def _validate(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, size=64)
        h = 1e-5
        pairs = [(self.f, self.d1)]
        if self.d2 is not None:
            pairs.append((self.d1, self.d2))
        if self.d3 is not None:
            pairs.append((self.d2, self.d3))
        for base, deriv in pairs:
            fd = (base(x + h) - base(x - h)) / (2 * h)
            scale = np.max(np.abs(fd)) + 1.0
            if np.max(np.abs(fd - deriv(x))) > 1e-4 * scale:
                raise ValueError(f"derivative of {self.name} inconsistent with finite differences")

    def __call__(self, u) -> SpectralField:
        """F(u) for a field u or its `Blocks`; a holder lends its held
        values, so F(u) and F'(u) share one transform of u."""
        return _pointwise(self.f, u)

    def deriv(self, u, order: int = 1) -> SpectralField:
        fn = (self.d1, self.d2, self.d3)[order - 1]
        if fn is None:
            raise ValueError(f"{self.name}: derivative of order {order} not registered")
        return _pointwise(fn, u)

    def shifted(self, base: SpectralField) -> "NonlinearFunction":
        """The map w -> F(base + w), with derivatives, base a fixed field.

        Returned object only supports evaluation through fields sharing
        base's grid (it closes over base's oversampled values).
        """
        bv = oversampled_values(base)
        mk = lambda g: (None if g is None else (lambda x, g=g: g(bv + x)))
        return NonlinearFunction(mk(self.f), mk(self.d1), mk(self.d2), mk(self.d3),
                                 name=f"{self.name}(base+.)", validate=False)


def _pointwise(fn, u) -> SpectralField:
    if isinstance(u, Blocks):
        return field_from_oversampled(u.grid, fn(u.values()))
    return apply_pointwise(fn, u)


def poly_function(coeffs, name="poly") -> NonlinearFunction:
    """Polynomial nonlinearity from coefficients [c0, c1, c2, ...]."""
    p = np.polynomial.Polynomial(coeffs)
    return NonlinearFunction(p, p.deriv(1), p.deriv(2), p.deriv(3), name=name)


# -- the Bony trio ----------------------------------------------------

class Blocks:
    """Oversampled real-space values of the dyadic blocks of one field.

    Each block is transformed on first use and kept, so a holder built once
    for a field that stays fixed (the noise and its lift in a solver)
    serves every later product with that field without a transform.  Low
    sums S_j f are running sums of the block values, exact by linearity.
    `para_lt`, `para_gt`, `resonant`, `commutator_C` and `pi_F` take a
    holder in place of any field argument and build one for a plain field;
    a `NonlinearFunction` evaluated on a holder uses its held values.
    """

    __slots__ = ("field", "part", "_blocks", "_values")

    def __init__(self, f: SpectralField, part: DyadicPartition | None = None):
        self.field = f
        self.part = part or default_partition(f.grid)
        if self.part.grid != f.grid:
            raise ValueError("partition and field live on different grids")
        self._blocks = [None] * len(self.part.masks)
        self._values = None

    @property
    def grid(self):
        return self.field.grid

    def block(self, j: int) -> np.ndarray:
        """Values of Delta_j f, j = -1 .. j_max."""
        v = self._blocks[j + 1]
        if v is None:
            v = oversampled_values(lp_block(self.field, j, self.part))
            self._blocks[j + 1] = v
        return v

    def lows(self, j: int):
        """Values of S_0 f, ..., S_(j-1) f, each the sum of the blocks below."""
        acc = self.block(-1)
        out = [acc]
        for i in range(j - 1):
            acc = acc + self.block(i)
            out.append(acc)
        return out

    def values(self) -> np.ndarray:
        """Values of f itself."""
        if self._values is None:
            self._values = oversampled_values(self.field)
        return self._values

    def times(self, g) -> SpectralField:
        """Dealiased product of f with g, a field or its holder."""
        gv = g.values() if isinstance(g, Blocks) else oversampled_values(g)
        return field_from_oversampled(self.grid, self.values() * gv)


def _holders(part: DyadicPartition | None, *args) -> list[Blocks]:
    """Block holders for the arguments, all on one partition (and so on one
    grid); `part` defaults to that of a holder among them."""
    if part is None:
        part = next((a.part for a in args if isinstance(a, Blocks)), None) \
            or default_partition(args[0].grid)
    out = [a if isinstance(a, Blocks) else Blocks(a, part) for a in args]
    if any(b.part is not part for b in out):
        raise ValueError("block holders built on different partitions")
    return out


def para_lt(f, g, part: DyadicPartition | None = None) -> SpectralField:
    """Paraproduct of f below g: sum over j of S_{j-1} f * Delta_j g.

    f and g are fields or their `Blocks`."""
    fb, gb = _holders(part, f, g)
    # S_{j-1} vanishes for j <= 0, so the sum starts at block index 1
    lows = fb.lows(fb.part.j_max)
    acc = lows[0] * gb.block(1)
    for j in range(2, fb.part.j_max + 1):
        acc += lows[j - 1] * gb.block(j)
    return field_from_oversampled(fb.grid, acc)


def para_gt(f, g, part: DyadicPartition | None = None) -> SpectralField:
    """Mirror paraproduct, f above g."""
    return para_lt(g, f, part)


def resonant(f, g, part: DyadicPartition | None = None) -> SpectralField:
    """Resonant product: sum of Delta_i f * Delta_j g over |i - j| <= 1."""
    fb, gb = _holders(part, f, g)
    blocks = fb.part.blocks
    acc = 0.0
    for i in blocks:
        for j in (i - 1, i, i + 1):
            if j in blocks:
                acc = acc + fb.block(i) * gb.block(j)
    return field_from_oversampled(fb.grid, acc)


def bony_remainder(f: SpectralField, g: SpectralField,
                   part: DyadicPartition | None = None) -> SpectralField:
    """Defect f*g - f<g - f>g - f@g (diagnostic; ~1e-13 when dealiased)."""
    return dealiased_product(f, g) - para_lt(f, g, part) - para_gt(f, g, part) \
        - resonant(f, g, part)


# -- commutators and paralinearization --------------------------------

def commutator_C(f, g, h, part: DyadicPartition | None = None) -> SpectralField:
    """Resonant commutator (f<g)@h - f*(g@h); arguments as for `para_lt`."""
    fb, gb, hb = _holders(part, f, g, h)
    return resonant(para_lt(fb, gb), hb) - fb.times(resonant(gb, hb))


def paralin_remainder(F: NonlinearFunction, f: SpectralField) -> SpectralField:
    """Paralinearization remainder F(f) - F'(f) < f."""
    return F(f) - para_lt(F.deriv(f), f)


def pi_F(F: NonlinearFunction, f, g, part: DyadicPartition | None = None) -> SpectralField:
    """Nonlinear resonant remainder F(f)@g - F'(f)*(f@g); f and g are
    fields or their `Blocks`."""
    fb, gb = _holders(part, f, g)
    return resonant(F(fb), gb) - dealiased_product(F.deriv(fb), resonant(fb, gb))


def pi_times(f, u, g, part: DyadicPartition | None = None) -> SpectralField:
    """Trilinear remainder of (f*u)@g after peeling f*(u@g) and u*(f@g).

    Evaluated through its commutator expansion
    C(f,u,g) + C(u,f,g) + (f@u)@g, which is also how it is estimated.
    """
    f, u, g = _holders(part, f, u, g)
    return commutator_C(f, u, g) + commutator_C(u, f, g) + resonant(resonant(f, u), g)


# -- paracontrolled fields and the controlled product -----------------

@dataclass(frozen=True)
class ParacontrolledField:
    """A field u = uprime < reference + usharp with its decomposition data."""

    u: SpectralField
    uprime: SpectralField
    usharp: SpectralField
    reference: SpectralField

    def __post_init__(self):
        recon = para_lt(self.uprime, self.reference) + self.usharp
        err = np.max(np.abs(recon.coeffs - self.u.coeffs))
        scale = max(np.max(np.abs(self.u.coeffs)), 1e-300)
        if err > 1e-10 * scale:
            raise ValueError("u does not equal uprime < reference + usharp")

    @classmethod
    def build(cls, uprime: SpectralField, reference: SpectralField,
              usharp: SpectralField) -> "ParacontrolledField":
        u = para_lt(uprime, reference) + usharp
        return cls(u, uprime, usharp, reference)


def controlled_product(P: ParacontrolledField, w: SpectralField,
                       eta: SpectralField, F: NonlinearFunction,
                       part: DyadicPartition | None = None) -> SpectralField:
    """Product F(u)*w for paracontrolled u, with the resonant part of the
    reference pair supplied externally as eta (possibly renormalized).

    For smooth w and eta = reference@w this reproduces the dealiased
    pointwise product; for rough w it is the definition of the product.
    """
    part = part or default_partition(P.u.grid)
    u, up = Blocks(P.u, part), P.uprime
    Fu = Blocks(F(u), part)
    wb = Blocks(w, part)
    dFu = F.deriv(u)
    out = para_lt(Fu, wb, part) + para_gt(Fu, wb, part) + pi_F(F, u, wb, part)
    out = out + dealiased_product(dFu, resonant(P.usharp, wb, part))
    out = out + dealiased_product(dFu, commutator_C(up, P.reference, wb, part))
    out = out + dealiased_product(dealiased_product(dFu, up), eta)
    return out


# -- time-mollified paraproduct ---------------------------------------

def causal_bump(x) -> np.ndarray:
    """Smooth probability density supported in [0, 1].

    Built from the C-infinity smoothstep so all derivatives vanish at the
    endpoints; normalised to unit mass.
    """
    x = np.asarray(x, dtype=np.float64)
    y = smoothstep(2 * x) * smoothstep(2 * (1 - x))
    return y / _CAUSAL_BUMP_MASS


def _bump_mass() -> float:
    t = np.linspace(0.0, 1.0, 4097)
    y = smoothstep(2 * t) * smoothstep(2 * (1 - t))
    return float(np.trapezoid(y, t))


_CAUSAL_BUMP_MASS = _bump_mass()


def _qi_weights(times: np.ndarray, i: int, phi) -> np.ndarray:
    """Quadrature weights W with (Q_i f)(t_n) = sum_m W[n, m] f(t_m).

    The kernel at scale 2^-2i is laid on the uniform path grid by
    trapezoid quadrature; each row is renormalised to unit mass, which
    absorbs the quadrature error in the kernel's own mass.  Evaluations at
    times outside [0, T] clamp to the endpoint, hence weight accumulates
    on column 0.  Kernels narrower than the step degrade to the identity.
    """
    nt = len(times)
    dt = times[1] - times[0]
    width = 4.0 ** (-i)
    if width < dt:
        return np.eye(nt)
    w = np.zeros((nt, nt))
    # kernel nodes relative to t, clamped into [0, T]
    nodes = int(math.ceil(width / dt)) + 1
    for n in range(nt):
        t = times[n]
        s = t - np.arange(nodes + 1) * dt
        vals = phi((t - s) / width) / width
        trap = np.full(len(s), dt)
        trap[0] = trap[-1] = 0.5 * dt
        contrib = vals * trap
        idx = np.clip(np.rint((s - times[0]) / dt).astype(int), 0, nt - 1)
        np.add.at(w[n], idx, contrib)
        mass = w[n].sum()
        if mass <= 0.0:
            # kernel too narrow for the grid to see: degrade to identity
            w[n] = 0.0
            w[n, n] = 1.0
        else:
            w[n] /= mass
    return w


def para_lt_time(fpath: FieldPath, gpath: FieldPath,
                 part: DyadicPartition | None = None,
                 phi=causal_bump) -> FieldPath:
    """Time-mollified paraproduct of paths: at each node,
    sum over i of S_{i-1}(Q_i f)(t) * Delta_i g(t), where Q_i averages f
    over a causal window of width 4^-i.
    """
    grid = fpath.grid
    if not np.allclose(fpath.times, gpath.times):
        raise ValueError("paths live on different time grids")
    part = part or default_partition(grid)
    times = fpath.times
    dt = fpath.dt
    if 4.0 ** (-part.j_max) < dt:
        i_star = int(math.floor(-math.log(dt) / math.log(4.0)))
        log.warning("time step %.3g cannot resolve mollification below block %d; "
                    "using unmollified values there", dt, i_star + 1)
    fcoef = fpath.coeff_array()
    out = [np.zeros_like(fcoef[0]) for _ in times]
    for i in range(1, part.j_max + 1):
        w = _qi_weights(times, i, phi)
        qif = np.tensordot(w, fcoef, axes=(1, 0))
        lowmask = part.low_mask(i - 1)
        ring = part.mask(i)
        for n in range(len(times)):
            a = SpectralField(grid, qif[n] * lowmask)
            b = SpectralField(grid, gpath[n].coeffs * ring)
            out[n] += dealiased_product(a, b).coeffs
    return FieldPath(times, [SpectralField(grid, c) for c in out])


def paraproduct_switch(fpath: FieldPath, gpath: FieldPath,
                       part: DyadicPartition | None = None,
                       phi=causal_bump) -> FieldPath:
    """Difference between the plain and time-mollified paraproducts."""
    part = part or default_partition(fpath.grid)
    plain = FieldPath(fpath.times, [para_lt(a, b, part)
                                    for a, b in zip(fpath.fields, gpath.fields)])
    return plain - para_lt_time(fpath, gpath, part, phi)


def path_time_derivative(path: FieldPath) -> FieldPath:
    """Second-order finite-difference time derivative along a path."""
    arr = path.coeff_array()
    dt = path.dt
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - arr[:-2]) / (2 * dt)
    out[0] = (-3 * arr[0] + 4 * arr[1] - arr[2]) / (2 * dt)
    out[-1] = (3 * arr[-1] - 4 * arr[-2] + arr[-3]) / (2 * dt)
    return FieldPath.from_coeff_array(path.times, path.grid, out)


def heat_para_commutator(upath: FieldPath, vpath: FieldPath, sigma: float = 1.0,
                         part: DyadicPartition | None = None) -> FieldPath:
    """Commutator of the heat operator with the time-mollified paraproduct,
    L(u << v) - u << (Lv), with L = d/dt - Laplacian.

    Evaluated through the product-rule identity
    (Lu) << v - 2 sum_axes (du << dv), which requires sigma = 1 (the
    identity is specific to the Laplacian).  Time derivatives use
    second-order finite differences on the path grid.
    """
    if sigma != 1.0:
        raise ValueError("heat_para_commutator requires sigma = 1")
    grid = upath.grid
    part = part or default_partition(grid)

    def L(path: FieldPath) -> FieldPath:
        ddt = path_time_derivative(path)
        lap = path.map(lambda f: SpectralField(grid, f.coeffs * _lap_symbol(grid)))
        return ddt + lap

    acc = para_lt_time(L(upath), vpath, part)
    for ax in range(grid.dim):
        du = upath.map(lambda f, ax=ax: derivative(f, ax))
        dv = vpath.map(lambda f, ax=ax: derivative(f, ax))
        acc = acc - _scale_path(para_lt_time(du, dv, part), 2.0)
    return acc


def _scale_path(path: FieldPath, s: float) -> FieldPath:
    return path.map(lambda f: f * s)


def _lap_symbol(grid) -> np.ndarray:
    r = grid.k_abs()
    return r * r
