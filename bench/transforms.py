#!/usr/bin/env python3
"""Layer sweep of the oversampled transforms and the block layer on them.

Times `grid.oversampled_values`, `grid.field_from_oversampled`,
`grid.band_limit`, `grid.dealiased_product`, a fresh
`paraproducts.Blocks` holder with the values of all its blocks,
`paraproducts.para_lt` and `paraproducts.resonant` on two plain fields
and `paraproducts.commutator_C` on three, all on one-channel fields at
1-d N = 256, 1024 and 2-d N = 32, 64, 128.  At the 1-d sizes it times
the Burgers areas of 16 nodes of a path: `enhanced.burgers_area` on
them, stacked as one chunk, against `enhanced.pair_resonant` node by
node (`.per_node`), each row with its transform counts.  It times
`grid.SpectralField.eval_at` at one point, as the
rough ODE's classical check calls it, at 1-d N = 512 and 2-d N = 32, 64,
and at the 64 N + 1 points of `enhanced.rough_area_check` at 1-d
N = 256.  At the 2-d sizes it also times the construction of a
`paraproducts.CausalAverage` on the 257 nodes of [0, 1] (M = 256), which
builds the causal time-average kernel of every scale and transforms
nothing, and `partition.make_dyadic_partition` of the grid.  And it
times one node-0 call of the time-mollified paraproduct
`paraproducts.CausalAverage.paraproduct` with its second factor held
warm, one later-node `solvers.pam_drift_sharp` call with its fixed
holders warm, and one drift evaluation of the classical
`solvers.solve_pam_regularized` (c_eps != 0, xi_eps held); these three
rows record the inverse and forward oversampled transform calls that one
evaluation makes and the channels they transform (j_max inverse and one
forward for the paraproduct, which node 0 always builds; for the drift,
a revision of a node whose paraproduct is held; the classical drift's
count).  Step rows time whole marches per time step
and count their drift evaluations and transform calls and channels
per step, set-up included: `solve_pam_regularized` at the PAM study's
config (N = 64, 32 steps, fp_tol 1e-10, damping 1), `solve_pam` at
perfbench's pam2d config (N = 64, 8 steps, fp_tol 1e-11, damping 1) and
`evolution.duhamel` over 16 steps of 1/512 at every size above.  The
transform counts are differences of the tally `grid.tally`, which the
two oversampled transforms keep themselves.  Prints one JSON object:
the machine facts and, per layer and size, the median and quartiles of
the per-call time over the repeats.  The sweep owns its process, as the
CLI does, so it runs under the CLI's allocator policy
(`paracalc.cli._hold_heap`) and records it with the machine facts.
Run from anywhere:

    python3 bench/transforms.py [--compare BENCH_prev.json]

`--compare` reads the sweep of an earlier record (the `layer_sweep`
"change" side of a `BENCH_*.json`, or a saved output of this script),
prints to stderr every row whose median is 10 % or more above that
record's, and exits 1 if there is one.

Each repeat makes enough calls to last about 0.1 s; the whole sweep takes
about 45 s.
"""

import os

# One BLAS thread, set before numpy is first imported, as in perfbench.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import paracalc.cli  # noqa: E402
import paracalc.evolution  # noqa: E402
import paracalc.grid  # noqa: E402
import paracalc.solvers  # noqa: E402
from paracalc.grid import (FieldPath, SpectralField, TorusGrid,  # noqa: E402
                           band_limit, dealiased_product, field_from_oversampled,
                           oversampled_values)
from paracalc.enhanced import burgers_area, pair_resonant, pam_c_eps  # noqa: E402
from paracalc.evolution import duhamel  # noqa: E402
from paracalc.noise import (BUMP_MOLLIFIER, burgers_theta_path, mollify,  # noqa: E402
                            pam_theta, spatial_white_noise)
from paracalc.paraproducts import (Blocks, CausalAverage, commutator_C,  # noqa: E402
                                   para_lt, poly_function, resonant)
from paracalc.partition import make_dyadic_partition  # noqa: E402
from paracalc.solvers import (SolverConfig, pam_drift_sharp, solve_pam,  # noqa: E402
                              solve_pam_regularized)
from paracalc.spectral import default_partition, derivative, remove_mean  # noqa: E402
import workloads  # noqa: E402  (perfbench's)

SIZES = [(1, 256), (1, 1024), (2, 32), (2, 64), (2, 128)]
# (dim, n, points) of the point-evaluation rows
EVAL_SIZES = [(1, 512, 1), (1, 256, 64 * 256 + 1), (2, 32, 1), (2, 64, 1)]
DUHAMEL_STEPS = 16
AREA_NODES = paracalc.grid._NODE_CHUNK  # one chunk of solve_burgers' areas
REPEATS = 7
REPEAT_S = 0.1
REGRESSION = 0.10  # a row regresses when its median grows by this share or more


def machine(heap_held: bool) -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "allocator": ("mallopt M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 256 MiB"
                          if heap_held else "libc default")}


def per_call_us(fn) -> dict:
    """Median and quartiles of the per-call time over REPEATS repeats."""
    fn()
    once = min(timeit.repeat(fn, number=1, repeat=3))
    number = max(1, round(REPEAT_S / max(once, 1e-7)))
    times = [t / number * 1e6 for t in timeit.repeat(fn, number=number, repeat=REPEATS)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_us": round(median, 2), "q1_us": round(q1, 2),
            "q3_us": round(q3, 2), "calls_per_repeat": number}


def all_blocks(f, part) -> list:
    """A fresh holder of f and the values of every block of it."""
    fb = Blocks(f, part)
    return [fb.block(j) for j in part.blocks]


def first_paraproduct_call(grid, part, rng):
    """A `CausalAverage.paraproduct` call at node 0 with the second factor
    held.  Node 0 has weight 1 in every scale's average, so no paraproduct
    is held there and each repeated call, a revision of node 0, builds it:
    the work of a node's first call at any node."""
    f = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
    gb = Blocks(SpectralField.from_values(grid, rng.standard_normal(grid.shape)), part)
    avg = CausalAverage(part, np.arange(9) / 512.0)
    return lambda: avg.paraproduct(0, f, gb)


def later_drift_call(grid, part, rng):
    """A `pam_drift_sharp` call at node 2 of a solve with its fixed holders
    and the two earlier nodes in place; repeated calls revise node 2, as
    the solver's fixed point does.  A step of 1/512 resolves every scale,
    so node 2 has weight 0 in its own average and the revisions reuse the
    paraproduct held there."""
    xi = remove_mean(SpectralField.from_values(grid, rng.standard_normal(grid.shape)))[0]
    theta = pam_theta(xi)
    held = [Blocks(f, part) for f in (theta, xi, xi)]  # xi stands in for the area
    held.append(Blocks(resonant(held[0], held[1], part), part))
    avg = CausalAverage(part, np.arange(9) / 512.0)
    F = poly_function([0.0, 1.0, 0.0, -0.1])
    u = SpectralField.from_values(grid, 0.3 + 0.1 * rng.standard_normal(grid.shape))
    past = ()
    for n in (0, 1):
        past = (pam_drift_sharp(avg, n, u, *held, past, F)[1].coeffs,) + past[:1]
    return lambda: pam_drift_sharp(avg, 2, u, *held, past, F)


def later_regularized_drift(grid, rng):
    """A drift evaluation of `solve_pam_regularized` with c_eps != 0, taken
    from the solve before it marches (xi_eps is transformed then)."""
    xi = remove_mean(SpectralField.from_values(grid, rng.standard_normal(grid.shape)))[0]
    u = SpectralField.from_values(grid, 0.3 + 0.1 * rng.standard_normal(grid.shape))
    drifts = []
    march = paracalc.solvers.trapezoid_exponential_path
    paracalc.solvers.trapezoid_exponential_path = lambda s, u0, drift, *a, **k: \
        (drifts.append(drift), 0, 0.0)
    try:
        solve_pam_regularized(u, xi, 0.7, poly_function([0.0, 1.0, 0.0, -0.1]),
                              SolverConfig(alpha=0.45, T=0.05, M=8))
    finally:
        paracalc.solvers.trapezoid_exponential_path = march
    (drift,) = drifts
    return lambda: drift(1, u)


def regularized_study_solve():
    """(steps, solve): `solve_pam_regularized` at the PAM study's config,
    N = 64 and 32 steps to T = 1/4, on the white noise of seed 0
    bump-mollified at eps = 1/8 with its constant, F = 0.4 tanh, u0 = 0.3,
    fp_tol 1e-10, damping 1."""
    grid = TorusGrid(2, 64)
    xi = mollify(spatial_white_noise(grid, 0), 0.125, BUMP_MOLLIFIER)
    c = pam_c_eps(0.125, BUMP_MOLLIFIER, grid)
    cfg = SolverConfig(alpha=0.45, T=0.25, M=32, fp_tol=1e-10, damping=1.0)
    u0, F = SpectralField.constant(grid, 0.3), paracalc.cli._tanh_function(0.4)
    return cfg.M, lambda: solve_pam_regularized(u0, xi, c, F, cfg)


def pam2d_solve():
    """(steps, solve): `solve_pam` on the inputs of perfbench's pam2d
    workload at seed 1 (N = 64, 8 steps of 1/512, fp_tol 1e-11, damping 1)."""
    E, part, cfg, u0, F = workloads.Pam2d().build(1)[1]
    return cfg.M, lambda: solve_pam(u0, E, F, cfg, part=part)


def solve_work(solve) -> dict:
    """Drift evaluations of one solve (its calls of the drift it hands
    `trapezoid_exponential_path`; `solve_pam`'s returns node 0's
    `pam_drift_sharp`, made before the march, so they count its
    `pam_drift_sharp` calls too) and its `transform_counts`."""
    count = [0]

    def counted(fn):
        def wrapped(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapped

    def marching(sigma, u0, fn, *args, **kwargs):
        return march(sigma, u0, counted(fn), *args, **kwargs)

    march = paracalc.evolution.trapezoid_exponential_path
    paracalc.solvers.trapezoid_exponential_path = marching
    paracalc.evolution.trapezoid_exponential_path = marching  # duhamel's march
    try:
        work = transform_counts(solve)
    finally:
        paracalc.solvers.trapezoid_exponential_path = march
        paracalc.evolution.trapezoid_exponential_path = march
    return {"drift_evals": count[0], **work}


def per_step(steps: int, solve) -> dict:
    """Time per step of a solve (median and quartiles over the repeats),
    its drift evaluations and its transform counts per step, set-up
    included."""
    t = per_call_us(solve)
    return {"steps": steps, **{k: round(v / steps, 2) if k.endswith("_us") else v
                               for k, v in t.items()},
            **{f"{k}_per_step": round(v / steps, 3) for k, v in solve_work(solve).items()}}


def transform_counts(fn) -> dict:
    """Inverse and forward oversampled transform calls made by one call of
    fn, and the channels they transform: the difference of `grid.tally`."""
    before = dict(paracalc.grid.tally)
    fn()
    return {k: v - before[k] for k, v in paracalc.grid.tally.items()}


def sweep() -> list:
    rng = np.random.default_rng(0)
    rows = []
    for dim, n in SIZES:
        grid = TorusGrid(dim, n)
        part = default_partition(grid)
        f = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        g = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        h = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        fine = oversampled_values(f)
        layers = {
            "grid.oversampled_values": lambda: oversampled_values(f),
            "grid.field_from_oversampled": lambda: field_from_oversampled(grid, fine),
            "grid.band_limit": lambda: band_limit(grid, fine),
            "grid.dealiased_product": lambda: dealiased_product(f, g),
            "paraproducts.Blocks": lambda: all_blocks(f, part),
            "paraproducts.para_lt": lambda: para_lt(f, g),
            "paraproducts.resonant": lambda: resonant(f, g, part),
            "paraproducts.commutator_C": lambda: commutator_C(f, g, h),
        }
        for name, fn in layers.items():
            rows.append({"layer": name, "dim": dim, "n": n, **per_call_us(fn)})
        if dim == 1:
            path = burgers_theta_path(grid, 0.9, 0.25, AREA_NODES - 1, 1, n)
            areas = {"enhanced.burgers_area": lambda: burgers_area(path, part),
                     "enhanced.burgers_area.per_node": lambda: [
                         pair_resonant(th, derivative(th, 0), part) for th in path.fields]}
            for name, fn in areas.items():
                rows.append({"layer": name, "dim": dim, "n": n, "nodes": AREA_NODES,
                             **per_call_us(fn), **transform_counts(fn)})
        if dim == 2:
            # at N = 128 a step of 1/256 leaves block 4 unmollified, and
            # each build would log that warning
            times = np.arange(257) / 256
            logging.getLogger("paracalc.paraproducts").setLevel(logging.ERROR)
            rows.append({"layer": "paraproducts.CausalAverage", "dim": dim, "n": n,
                         **per_call_us(lambda: CausalAverage(part, times))})
            logging.getLogger("paracalc.paraproducts").setLevel(logging.NOTSET)
            rows.append({"layer": "partition.make_dyadic_partition", "dim": dim, "n": n,
                         **per_call_us(lambda: make_dyadic_partition(grid))})
            drifts = {"paraproducts.CausalAverage.paraproduct":
                      first_paraproduct_call(grid, part, np.random.default_rng(n + 1)),
                      "solvers.pam_drift_sharp": later_drift_call(grid, part, rng),
                      "solvers.solve_pam_regularized.drift":
                      later_regularized_drift(grid, np.random.default_rng(n))}
            for name, fn in drifts.items():
                rows.append({"layer": name, "dim": dim, "n": n,
                             **per_call_us(fn), **transform_counts(fn)})
    for dim, n, points in EVAL_SIZES:
        grid = TorusGrid(dim, n)
        f = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        xs = [np.linspace(0.3, 1.7, points) for _ in range(dim)]
        rows.append({"layer": "grid.SpectralField.eval_at", "dim": dim, "n": n,
                     "points": points, **per_call_us(lambda: f.eval_at(*xs))})
    for name, (steps, solve) in {"solvers.solve_pam_regularized.step": regularized_study_solve(),
                                 "solvers.solve_pam.step": pam2d_solve()}.items():
        rows.append({"layer": name, "dim": 2, "n": 64, **per_step(steps, solve)})
    for dim, n in SIZES:
        grid = TorusGrid(dim, n)
        path = FieldPath(np.arange(DUHAMEL_STEPS + 1) / 512, [
            SpectralField.from_values(grid, rng.standard_normal(grid.shape))
            for _ in range(DUHAMEL_STEPS + 1)])
        rows.append({"layer": "evolution.duhamel.step", "dim": dim, "n": n,
                     **per_step(DUHAMEL_STEPS, lambda: duhamel(path, 1.0))})
    return rows


def baseline(path) -> dict:
    """(layer, dim, n) -> median_us of an earlier sweep."""
    with open(path) as fh:
        record = json.load(fh)
    sweep = record.get("layer_sweep", record)
    sweep = sweep.get("change", sweep)
    return {(r["layer"], r["dim"], r["n"]): r["median_us"] for r in sweep["results"]}


def regressions(rows, base: dict) -> list:
    """Rows whose median is REGRESSION or more above the baseline's."""
    out = []
    for r in rows:
        was = base.get((r["layer"], r["dim"], r["n"]))
        if was is not None and r["median_us"] >= (1.0 + REGRESSION) * was:
            out.append((r, was))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", metavar="BENCH_prev.json",
                    help="flag rows 10 %% or more slower than this record's sweep")
    args = ap.parse_args(argv)
    base = baseline(args.compare) if args.compare else None
    heap_held = paracalc.cli._hold_heap()
    rows = sweep()
    print(json.dumps({"machine": machine(heap_held), "repeats": REPEATS, "results": rows},
                     indent=1))
    if base is None:
        return 0
    worse = regressions(rows, base)
    for r, was in worse:
        print(f"regressed: {r['layer']} dim={r['dim']} n={r['n']}: "
              f"{was:.2f} -> {r['median_us']:.2f} us ({r['median_us'] / was - 1:+.0%})",
              file=sys.stderr)
    print(f"{len(worse)} of {len(rows)} rows regressed by {REGRESSION:.0%} or more "
          f"against {args.compare}", file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
