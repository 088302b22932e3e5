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

from .evolution import apply_L
from .grid import (FieldPath, SpectralField, apply_pointwise, dealiased_product,
                   field_from_oversampled, oversampled_values)
from .partition import DyadicPartition, smoothstep
from .spectral import default_partition

log = logging.getLogger(__name__)


# -- nonlinearities ---------------------------------------------------

class NonlinearFunction:
    """Scalar composition nonlinearity F with its derivative F'.

    F and F' must be real and finite, and F' is validated against central
    finite differences of F, on check points in [-2, 2] at registration,
    so a complex or non-finite coupling or a mistyped derivative fails fast.
    """

    def __init__(self, f, d1, name="F"):
        self.f = f
        self.d1 = d1
        self.name = name
        x = np.random.default_rng(0).uniform(-2.0, 2.0, size=64)
        for g in (f, d1):
            v = np.asarray(g(x))
            if np.iscomplexobj(v) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} and its derivative must be real and finite")
        h = 1e-5
        fd = (f(x + h) - f(x - h)) / (2 * h)
        if np.max(np.abs(fd - d1(x))) > 1e-4 * (np.max(np.abs(fd)) + 1.0):
            raise ValueError(f"derivative of {name} inconsistent with finite differences")

    def __call__(self, u) -> SpectralField:
        """F(u) for a field u or its `Blocks`; a holder lends its held
        values, so F(u) and F'(u) share one transform of u."""
        return apply_pointwise(self.f, u)

    def deriv(self, u) -> SpectralField:
        """F'(u), for a field or its `Blocks` as for F(u)."""
        return apply_pointwise(self.d1, u)


def poly_function(coeffs, name="poly") -> NonlinearFunction:
    """Polynomial nonlinearity from coefficients [c0, c1, c2, ...]."""
    p = np.polynomial.Polynomial(coeffs)
    return NonlinearFunction(p, p.deriv(1), name=name)


# -- the Bony trio ----------------------------------------------------

class Blocks:
    """Oversampled real-space values of the dyadic blocks of one field.

    The first time any block is asked for, all j_max + 2 blocks are
    transformed in one `oversampled_values` call on the stacked masked
    coefficients and kept, so a holder built once for a field that stays
    fixed (the noise and its lift in a solver) serves every later product
    with that field without a transform.
    `para_lt`, `para_gt`, `resonant`, `commutator_C` and `pi_F` take a
    holder in place of any field argument and build one for a plain field
    on the holder's partition; `dealiased_product`, `apply_pointwise` and
    so a `NonlinearFunction` use a holder's held values, and `block_sups`
    and `besov_norm` its partition.
    """

    __slots__ = ("field", "part", "_blocks", "_values")

    def __init__(self, f: SpectralField, part: DyadicPartition | None = None):
        self.field = f
        self.part = part or default_partition(f.grid)
        if self.part.grid != f.grid:
            raise ValueError("partition and field live on different grids")
        self._blocks = None
        self._values = None

    @property
    def grid(self):
        return self.field.grid

    def block(self, j: int) -> np.ndarray:
        """Values of Delta_j f, j = -1 .. j_max."""
        if self._blocks is None:
            f, masks = self.field, self.part.masks
            # blocks x channels flattened into the channel axis of one field
            stacked = (masks[:, None] * f.coeffs).reshape((-1,) + f.grid.shape)
            v = oversampled_values(SpectralField(f.grid, stacked))
            self._blocks = v.reshape(masks.shape[:1] + f.coeffs.shape[:1] + v.shape[1:])
        return self._blocks[j + 1]

    def values(self) -> np.ndarray:
        """Values of f itself."""
        if self._values is None:
            self._values = oversampled_values(self.field)
        return self._values


def _holders(*args) -> list[Blocks]:
    """Block holders for the arguments; a plain field is held on the
    partition of a holder among them, or else on its grid's."""
    part = next((a.part for a in args if isinstance(a, Blocks)), None) \
        or default_partition(args[0].grid)
    return [a if isinstance(a, Blocks) else Blocks(a, part) for a in args]


def para_lt(f, g) -> SpectralField:
    """Paraproduct of f below g: sum over j of S_{j-1} f * Delta_j g.

    f and g are fields or their `Blocks`."""
    fb, gb = _holders(f, g)
    # S_{j-1} vanishes for j <= 0, so the sum starts at block index 1;
    # low is the running sum S_{j-1} f of the blocks below j - 1
    low = fb.block(-1)
    acc = low * gb.block(1)
    for j in range(2, fb.part.j_max + 1):
        low = low + fb.block(j - 2)
        acc += low * gb.block(j)
    return field_from_oversampled(fb.grid, acc)


def para_gt(f, g) -> SpectralField:
    """Mirror paraproduct, f above g."""
    return para_lt(g, f)


def resonant(f, g, part: DyadicPartition | None = None) -> SpectralField:
    """Resonant product: sum of Delta_i f * Delta_j g over |i - j| <= 1.

    f and g are fields or their `Blocks`; a given `part` holds plain fields."""
    if part is not None and not isinstance(f, Blocks):
        f = Blocks(f, part)
    fb, gb = _holders(f, g)
    blocks = fb.part.blocks
    acc = 0.0
    for i in blocks:
        for j in (i - 1, i, i + 1):
            if j in blocks:
                acc = acc + fb.block(i) * gb.block(j)
    return field_from_oversampled(fb.grid, acc)


def bony_remainder(f: SpectralField, g: SpectralField) -> SpectralField:
    """Defect f*g - f<g - f>g - f@g (diagnostic; ~1e-13 when dealiased)."""
    return dealiased_product(f, g) - para_lt(f, g) - para_gt(f, g) - resonant(f, g)


# -- commutators and paralinearization --------------------------------

def commutator_C(f, g, h) -> SpectralField:
    """Resonant commutator (f<g)@h - f*(g@h); arguments as for `para_lt`."""
    fb, gb, hb = _holders(f, g, h)
    return resonant(para_lt(fb, gb), hb) - dealiased_product(fb, resonant(gb, hb))


def paralin_remainder(F: NonlinearFunction, f: SpectralField) -> SpectralField:
    """Paralinearization remainder F(f) - F'(f) < f."""
    return F(f) - para_lt(F.deriv(f), f)


def pi_F(F: NonlinearFunction, f, g) -> SpectralField:
    """Nonlinear resonant remainder F(f)@g - F'(f)*(f@g); f and g are
    fields or their `Blocks`."""
    fb, gb = _holders(f, g)
    return resonant(F(fb), gb) - dealiased_product(F.deriv(fb), resonant(fb, gb))


def pi_times(f, u, g) -> SpectralField:
    """Trilinear remainder of (f*u)@g after peeling f*(u@g) and u*(f@g).

    Evaluated through its commutator expansion
    C(f,u,g) + C(u,f,g) + (f@u)@g, which is also how it is estimated.
    """
    f, u, g = _holders(f, u, g)
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
                       eta: SpectralField, F: NonlinearFunction) -> SpectralField:
    """Product F(u)*w for paracontrolled u, with the resonant part of the
    reference pair supplied externally as eta (possibly renormalized).

    For smooth w and eta = reference@w this reproduces the dealiased
    pointwise product; for rough w it is the definition of the product.
    The paracontrolled expansion (Bony trio, Pi_F, commutator, area)
    telescopes on the grid to
    F(u) w - F'(u) (u' (reference @ w)) + (F'(u) u') eta,
    associated as written, since truncated products are not associative.
    """
    u = Blocks(P.u)
    dFu = Blocks(F.deriv(u))
    up_ref_w = dealiased_product(P.uprime, resonant(P.reference, w))
    out = dealiased_product(F(u), w) - dealiased_product(dFu, up_ref_w)
    return out + dealiased_product(dealiased_product(dFu, P.uprime), eta)


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


def _qi_kernel(dt: float, i: int) -> np.ndarray:
    """Taps K of the causal average at scale 2^-2i on a grid of step dt,
    K[k] the weight of the value k steps back: trapezoid quadrature of the
    kernel.  Kernels narrower than the step, or whose taps all vanish (on
    the kernel's zeros or by underflow), degrade to the one tap of the
    identity.
    """
    width = 4.0 ** (-i)
    if width < dt:
        return np.ones(1)
    lags = np.arange(int(math.ceil(width / dt)) + 2) * dt
    taps = causal_bump(lags / width) / width * dt
    taps[[0, -1]] *= 0.5
    return taps if taps.any() else np.ones(1)


def _node_weights(kernel: np.ndarray, n: int, nodes: int) -> np.ndarray:
    """Weights of the `nodes` grid nodes in the average at node n: the
    kernel laid back from n, the taps that fall before time 0 added onto
    node 0, renormalised to unit mass, which absorbs the quadrature error
    in the kernel's own mass."""
    w = np.bincount(np.maximum(n - np.arange(len(kernel)), 0), weights=kernel, minlength=nodes)
    return w / w.sum()


class CausalAverage:
    """The low-passed causal time averages S_(i-1) Q_i f, i = 1 .. j_max, of a
    path f recorded node by node on the uniform grid `times`, and the
    time-mollified paraproduct f << g they give.

    `at(n, f)` records f at node n and returns the averages there: the
    earlier nodes' share, contracted once per node, plus the weight times
    node n.  Node n may be recorded again (a solver revises it inside its
    fixed point); moving on to node n + 1 freezes node n.

    The causal bump vanishes at lag 0, so from node 1 on a resolved scale
    gives node n itself the weight 0.0.  Where every scale does, the
    paraproduct at node n does not depend on f there: `paraproduct` builds
    it once per node and second factor, matched by identity, and returns
    that value to every revision of the node.
    """

    def __init__(self, part: DyadicPartition, times: np.ndarray):
        self.times = times
        scales = range(1, part.j_max + 1)
        self.kernels = [_qi_kernel(times[1] - times[0], i) for i in scales]
        unresolved = [i for i, k in zip(scales, self.kernels) if len(k) == 1]
        if unresolved:
            log.warning("time step %.3g cannot resolve mollification below block %d; "
                        "using unmollified values there", times[1] - times[0], unresolved[0])
        self.lows = [part.low_mask(i - 1) for i in scales]
        self.hist = None
        self.node = None
        self.share = []     # per scale at `node`: the earlier nodes' share, node's weight
        self.held = []      # (g, paraproduct) built at `node`, when no scale weighs it

    def at(self, n: int, f: SpectralField) -> list[np.ndarray]:
        if self.hist is None:
            self.hist = np.zeros((len(self.times),) + f.coeffs.shape, dtype=np.complex128)
        if n != self.node:
            self.node = n
            self.share, self.held = [], []
            for k in self.kernels:
                w = _node_weights(k, n, len(self.times))
                nz = np.nonzero(w[:n])[0]
                self.share.append((np.tensordot(w[nz], self.hist[nz], axes=(0, 0)), w[n]))
        self.hist[n] = f.coeffs
        return [(s + wn * self.hist[n]) * low for (s, wn), low in zip(self.share, self.lows)]

    def paraproduct(self, n: int, f: SpectralField, g: Blocks) -> SpectralField:
        """Record f at node n, as `at` does, and return the time-mollified
        paraproduct there, sum over i of S_(i-1)(Q_i f) * Delta_i g: one
        inverse transform per scale and one forward for the sum, or none
        when it is held for this g at a node that no scale weighs (then f is
        only recorded, and no average is formed)."""
        out = next((p for h, p in self.held if h is g), None) if n == self.node else None
        if out is not None:
            self.hist[n] = f.coeffs
        else:
            qs = self.at(n, f)
            acc = 0.0
            for i, q in enumerate(qs, start=1):
                acc = acc + oversampled_values(SpectralField(f.grid, q)) * g.block(i)
            out = field_from_oversampled(f.grid, acc)
            if all(wn == 0.0 for _, wn in self.share):
                self.held.append((g, out))
        return out


def _para_lt_times(fpath: FieldPath, gpaths: list[FieldPath]) -> list[FieldPath]:
    """The time-mollified paraproduct of f with each path in `gpaths`, through
    one `CausalAverage`, so f's averages are contracted once per node."""
    if any(not np.allclose(fpath.times, g.times) for g in gpaths):
        raise ValueError("paths live on different time grids")
    part = default_partition(fpath.grid)
    avg = CausalAverage(part, fpath.times)
    nodes = [[avg.paraproduct(n, f, Blocks(g.fields[n], part)) for g in gpaths]
             for n, f in enumerate(fpath.fields)]
    return [FieldPath(fpath.times, list(fields)) for fields in zip(*nodes)]


def para_lt_time(fpath: FieldPath, gpath: FieldPath) -> FieldPath:
    """Time-mollified paraproduct of paths: at each node t, the sum over i
    of S_{i-1}(Q_i f)(t) * Delta_i g(t), Q_i f the causal average of f over a
    window of width 4^-i, node by node through `CausalAverage.paraproduct`."""
    return _para_lt_times(fpath, [gpath])[0]


def paraproduct_switch(fpath: FieldPath, gpath: FieldPath) -> FieldPath:
    """Difference between the plain and time-mollified paraproducts."""
    plain = FieldPath(fpath.times, [para_lt(a, b) for a, b in zip(fpath.fields, gpath.fields)])
    return plain - para_lt_time(fpath, gpath)


def heat_para_commutator(upath: FieldPath, vpath: FieldPath) -> FieldPath:
    """Commutator of the heat operator with the time-mollified paraproduct,
    L(u << v) - u << (Lv), with L = d/dt - Laplacian as `apply_L` takes it
    (second-order finite differences in time, so at least three nodes).
    Both paraproducts share one `CausalAverage` of u."""
    uv, ulv = _para_lt_times(upath, [vpath, apply_L(vpath, 1.0)])
    return apply_L(uv, 1.0) - ulv
