#!/usr/bin/env python3
"""paracalc benchmark: one workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload pam2d --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.  A
full record (environment, per-key figures, failure notes) is written to
`.bench_build/perfbench/`, and a traced run also writes its spans there.
See perfbench/README.md.
"""

import os
import sys
import time

# One BLAS thread, set before numpy is first imported.  A second BLAS
# thread waits on whatever else runs on the other core, which made
# `solve_pam` up to 50 % slower whenever that core was busy.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
MIN_PASSES = 2  # every input key runs at least twice, for the repeat checks

# Per-layer metrics of the traced run: (tracer name, stat, reported name).
# `s` is a function's inclusive time, reported for set-up functions.
LAYER_STATS = (
    [(f"grid.{f}", st, None) for f in ("oversampled_values", "field_from_oversampled")
     for st in ("calls", "self_s", "mb")]
    + [(f"grid.{f}", st, None) for f in ("dealiased_product", "apply_pointwise")
       for st in ("calls", "self_s")]
    + [(f"paraproducts.{f}", st, None)
       for f in ("para_lt", "para_gt", "resonant", "commutator_C", "pi_F", "pi_times")
       for st in ("calls", "self_s", "total_s")]
    + [(f"solvers.{f}", st, None) for f in ("pam_drift_sharp", "burgers_drift")
       for st in ("calls", "self_s")]
    + [(f"solvers.{f}", "total_s", None)
       for f in ("solve_pam", "solve_burgers", "solve_rde", "solve_pam_regularized",
                 "trapezoid_exponential_path")]
    + [(f, "total_s", f + ".s")
       for f in ("noise.spatial_white_noise", "noise.burgers_theta_path",
                 "noise.fbm_path", "noise.mollify", "enhanced.burgers_area",
                 "enhanced.rde_area", "enhanced.pam_c_eps",
                 "partition.make_dyadic_partition")]
    + [(f"spectral.{f}", st, None) for f in ("besov_norm", "block_sups")
       for st in ("calls", "self_s")]
    + [("cli.main", "total_s", None)]
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "mb": "MB"}
EXACT = ("calls", "mb")  # stats that must repeat exactly
MIN_COVERAGE = 0.9  # share of solver time the traced spans below it must cover


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["pam2d", "line1d", "study"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program():
    """Import paracalc from ./src of the checkout, and nothing else."""
    pkg = ROOT / "src" / "paracalc"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no paracalc sources under {ROOT / 'src'}; "
                         "run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import paracalc
    if Path(paracalc.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported paracalc from {paracalc.__file__}, "
                         f"not from {pkg}")


IMPORT_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import paracalc, tracer, workloads
print(time.perf_counter() - t0)
"""


def child_import_seconds(n: int) -> list[float]:
    """Import time of paracalc and the benchmark modules in n fresh
    interpreters, started one after another, each waited for."""
    code = IMPORT_CHILD.format(src=str(ROOT / "src"), here=str(HERE))
    out = []
    for _ in range(n):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=120, check=True)
        out.append(float(r.stdout.split()[-1]))
    return out


# -- environment record -----------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(git / ref)
        if not sha:
            packed = _read(git / "packed-refs").splitlines()
            sha = next((ln.split()[0] for ln in packed if ln.endswith(" " + ref)), "")
        return sha or None
    return head or None


def environment() -> dict:
    import numpy as np
    import scipy
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read(Path("/proc/cpuinfo")).splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(idx / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "nproc": NPROC, "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PARACALC_THREADS": os.environ.get("PARACALC_THREADS"),
        "git_commit": _git_commit(),
    }


# -- measuring --------------------------------------------------------

def _timed(fn, tracer, traced: bool):
    """Run fn(), tracing it if asked: (result, seconds, span range)."""
    lo = tracer.mark() if tracer else 0
    if traced:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
    return out, t1 - t0, (lo, tracer.mark() if tracer else 0)


def measure(wl, seed: int, seconds: float, tracer):
    """Build the inputs SETUP_REPS times, then run passes over the input
    keys until `seconds` have elapsed (at least MIN_PASSES).  In a traced
    run every operation is run both untraced and traced, back to back."""
    setups = []
    for _ in range(SETUP_REPS):
        inputs, s, spans = _timed(lambda: wl.build(seed), tracer, bool(tracer))
        setups.append({"s": s, "spans": spans})

    ops = []
    t_start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - t_start < seconds:
        # alternate which mode goes first, so neither gets the warm-up
        modes = ((False, True), (True, False))[passes % 2] if tracer else (False,)
        for key in inputs:
            for traced in modes:
                res, wall, spans = _timed(lambda: wl.run(inputs, key), tracer, traced)
                ops.append({"key": key, "traced": traced, "wall": wall,
                            "res": res, "spans": spans})
        passes += 1
    return setups, ops


def check_repeats(ops, notes) -> int:
    """Failed operations whose solution hash differs from the first run of
    the same input key (traced runs included)."""
    failed = 0
    first = {}
    for op in ops:
        res = op["res"]
        ref = first.setdefault(op["key"], res.hashes)
        per_leg = res.attempted // max(1, len(ref))
        for leg, h in ref.items():
            if res.hashes.get(leg, h) != h:
                failed += per_leg
                notes.append(f"key {op['key']} {leg}: hash {res.hashes[leg]} != {h}")
    return failed


def by_key(ops, traced: bool):
    groups = {}
    for op in ops:
        if op["traced"] == traced:
            groups.setdefault(op["key"], []).append(op)
    return groups


def pass_median(groups, value) -> float:
    """One pass over the inputs: per-key medians, summed over keys."""
    return sum(statistics.median(value(op) for op in g) for g in groups.values())


def end_to_end(setups, ops, import_s: list[float]) -> dict:
    plain = by_key(ops, False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (pass_median(plain, lambda op: op["wall"]), "s"),
        "solve_s": (pass_median(plain, lambda op: op["res"].solve_s), "s"),
        "ref_s": (pass_median(plain, lambda op: op["res"].ref_s), "s"),
        "setup_s": (statistics.median(import_s)
                    + statistics.median(s["s"] for s in setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def oracle_err(ops) -> float | None:
    """Sup distance from the references over every compared operation;
    None where the workload has no oracle.  NaN marks a failed comparison."""
    errs = [op["res"].oracle_err for op in ops if op["res"].oracle_err is not None]
    return max(errs, key=lambda e: (e != e, e)) if errs else None


def _exact(summaries, what, mismatches):
    """First summary, after checking that calls and bytes repeat exactly."""
    first = summaries[0]
    for s in summaries[1:]:
        for name, st in first.items():
            for k in EXACT:
                if s[name][k] != st[k]:
                    mismatches.append(f"{what}: {name}.{k} {s[name][k]} != {st[k]}")
    return first


def per_layer(wl, tracer, setups, ops, problems) -> dict:
    set_sums = [tracer.summary(*s["spans"]) for s in setups]
    set_first = _exact(set_sums, "set-up", problems)
    traced = by_key(ops, True)
    op_sums = {k: [tracer.summary(*op["spans"]) for op in g] for k, g in traced.items()}
    op_first = {k: _exact(v, f"key {k}", problems) for k, v in op_sums.items()}

    def value(name, stat, in_setup=True):
        if stat in EXACT:
            total = sum(op_first[k][name][stat] for k in op_first)
            return total + (set_first[name][stat] if in_setup else 0)
        total = sum(statistics.median(s[name][stat] for s in v) for v in op_sums.values())
        if in_setup:
            total += statistics.median(s[name][stat] for s in set_sums)
        return total

    out = {}
    for name, stat, label in LAYER_STATS:
        out[label or f"{name}.{stat}"] = (value(name, stat), UNITS[stat])

    para_steps, all_steps = (len(op_first) * n for n in wl.op_steps)
    out["grid.fwd_per_step"] = (
        value("grid.oversampled_values", "calls", False) / all_steps, "count/step")
    out["grid.inv_per_step"] = (
        value("grid.field_from_oversampled", "calls", False) / all_steps, "count/step")
    evals = sum(value(f"solvers.{f}", "calls", False)
                for f in ("pam_drift_sharp", "burgers_drift"))
    out["solvers.evals_per_step"] = (evals / para_steps if para_steps else 0.0,
                                     "count/step")
    out["trace.overhead_frac"] = (
        pass_median(traced, lambda op: op["wall"])
        / pass_median(by_key(ops, False), lambda op: op["wall"]) - 1.0, "1")
    below = root = 0.0
    for g in traced.values():
        for op in g:
            b, r = tracer.self_under(wl.solve_roots, *op["spans"])
            below, root = below + b, root + r
    coverage = below / root if root else 0.0
    out["trace.solve_coverage"] = (coverage, "1")

    if wl.name == "study":  # the bypass workload: no paraproduct may run
        for name in tracer.names:
            n = value(name, "calls")
            if name.startswith("paraproducts.") and n:
                problems.append(f"study: {name}.calls = {n}, expected 0")
    elif coverage < MIN_COVERAGE:
        problems.append(f"{wl.name}: solve_coverage {coverage:.3f} < {MIN_COVERAGE}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    import_program()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads
    import_s = [time.perf_counter() - t0]

    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = {"pam2d": workloads.Pam2d, "line1d": workloads.Line1d,
          "study": lambda: workloads.Study(out_dir / f"study-{args.seed}")}[args.workload]()
    tracer = tracing.Tracer() if args.trace else None

    if not tracer:  # set-up is reported by the untraced run only
        import_s += child_import_seconds(SETUP_REPS - 1)
    setups, ops = measure(wl, args.seed, args.seconds, tracer)
    notes = [n for op in ops for n in op["res"].notes]
    attempted = sum(op["res"].attempted for op in ops)
    failed = sum(op["res"].failed for op in ops) + check_repeats(ops, notes)
    failed = min(failed, attempted)
    # failed trace checks: counts that did not repeat, a paraproduct call
    # on study, too little solver coverage
    problems = []
    if tracer:
        metrics = per_layer(wl, tracer, setups, ops, problems)
        tracer.save(out_dir / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        metrics = end_to_end(setups, ops, import_s)
    notes += problems
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "correct": correct,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "oracle_err": oracle_err(ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"key": op["key"], "traced": op["traced"], "wall_s": op["wall"],
                 "solve_s": op["res"].solve_s, "ref_s": op["res"].ref_s,
                 "oracle_err": op["res"].oracle_err, "hashes": op["res"].hashes}
                for op in ops],
        "setup_build_s": [s["s"] for s in setups], "import_s": import_s,
        "notes": notes,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    for note in notes:
        print("note:", note)
    print("env:", json.dumps(record["env"], sort_keys=True))
    for name, (v, u) in metrics.items():
        print(f"{name:48s} {v:.6g} {u}")
    if record["oracle_err"] is not None:
        print(f"{'oracle_err':48s} {record['oracle_err']:.6g} 1 "
              f"(gate {workloads.ORACLE_GATE:g})")
    print(f"{'fail_frac':48s} {failed / attempted:.6g} 1 ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
