"""Span tracer for paracalc's public functions.

Modules import each other's functions by name (``from .grid import
oversampled_values``), so every ``paracalc.*`` module holds its own
binding of the same function object.  ``Tracer.install`` rebinds the
wrapper in every module that holds the original, so calls are seen no
matter which module makes them, and ``uninstall`` puts the originals back.

A span is (name, start, end, parent).  Spans live in flat arrays while the
benchmark runs and are written once, at exit, by ``save``.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "paracalc"
# The benchmark's own modules that import paracalc functions by name; their
# bindings are rebound too.
ALSO = ("workloads",)

# Layer functions wrapped in the traced run.  The second field says whether
# the computed bytes of the function's output are counted.
TARGETS = (
    ("grid.oversampled_values", True),
    ("grid.field_from_oversampled", True),
    ("grid.dealiased_product", False),
    ("grid.apply_pointwise", False),
    ("partition.make_dyadic_partition", False),
    ("spectral.besov_norm", False),
    ("spectral.block_sups", False),
    ("paraproducts.para_lt", False),
    ("paraproducts.para_gt", False),
    ("paraproducts.resonant", False),
    ("paraproducts.commutator_C", False),
    ("paraproducts.pi_F", False),
    ("paraproducts.pi_times", False),
    ("noise.spatial_white_noise", False),
    ("noise.burgers_theta_path", False),
    ("noise.fbm_path", False),
    ("noise.mollify", False),
    ("enhanced.burgers_area", False),
    ("enhanced.rde_area", False),
    ("enhanced.pam_c_eps", False),
    ("solvers.pam_drift_sharp", False),
    ("solvers.burgers_drift", False),
    ("solvers.solve_pam", False),
    ("solvers.solve_burgers", False),
    ("solvers.solve_rde", False),
    ("solvers.solve_pam_regularized", False),
    ("solvers.trapezoid_exponential_path", False),
    ("cli.main", False),
)


def _output_bytes(out) -> int:
    if isinstance(out, np.ndarray):
        return out.nbytes
    coeffs = getattr(out, "coeffs", None)
    return coeffs.nbytes if isinstance(coeffs, np.ndarray) else 0


class Tracer:
    """Records spans of wrapped calls; one instance per benchmark process."""

    def __init__(self):
        self.names = [name for name, _ in TARGETS]
        self._count_bytes = [flag for _, flag in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")
        self.out_bytes = array("q")
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._undo: list[tuple] = []

    # -- installing the wrappers ------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")
                                      or name in ALSO)]

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for nid, name in enumerate(self.names):
            mod_name, attr = name.rsplit(".", 1)
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapped = self._wrap(nid, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def _wrap(self, nid: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        outermost, out_bytes = self.outermost, self.out_bytes
        stack, depth = self._stack, self._depth
        count_bytes = self._count_bytes[nid]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(depth[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            out_bytes.append(0)
            depth[nid] += 1
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[nid] -= 1
                start[i] = t0
                end[i] = t1
            if count_bytes:
                out_bytes[i] = _output_bytes(out)
            return out

        return wrapper

    # -- reading the spans back -------------------------------------

    def mark(self) -> int:
        """Index of the next span, for delimiting a range of spans."""
        return len(self.name_id)

    def arrays(self):
        """(name_id, parent, duration, self time, outermost, bytes) of all spans."""
        # copies, so the arrays stay free to grow while results are held
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return (nid, parent, dur, dur - child,
                np.array(self.outermost, dtype=bool),
                np.array(self.out_bytes, dtype=np.int64))

    def summary(self, lo: int, hi: int) -> dict:
        """Per-function calls, self_s, total_s and mb over spans [lo, hi).

        total_s counts only outermost calls, so recursion (mollify on a
        path, para_gt calling para_lt) is not counted twice.
        """
        nid, _, dur, self_t, outer, nbytes = (a[lo:hi] for a in self.arrays())
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=self_t, minlength=k)
        total_s = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        mb = np.bincount(nid, weights=nbytes, minlength=k) / 1e6
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i]), "mb": float(mb[i])}
                for i, name in enumerate(self.names)}

    def self_under(self, roots, lo: int, hi: int) -> tuple[float, float]:
        """(self time of every span below a root span, total time of the
        root spans) over spans [lo, hi); a root is an outermost span whose
        name is in `roots`."""
        nid, parent, dur, self_t, outer, _ = self.arrays()
        root_ids = {self.names.index(r) for r in roots}
        under = np.zeros(hi - lo, dtype=bool)
        below, root_total = 0.0, 0.0
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo and (under[p - lo] or (nid[p] in root_ids and outer[p])):
                under[i - lo] = True
                below += self_t[i]
            elif nid[i] in root_ids and outer[i]:
                root_total += dur[i]
        return below, root_total

    def save(self, path):
        """Write every span as arrays of an .npz file."""
        nid, parent, _, _, _, nbytes = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=np.array(self.start),
                            end=np.array(self.end), out_bytes=nbytes)
