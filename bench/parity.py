#!/usr/bin/env python3
"""Parity check of the CLI's outputs and the benchmark's solves against
another source tree.

Runs a fixed list of 21 small CLI runs in one process, each into its own
directory under `--out`, and writes `manifest.json` there: per run the
argv, the exit code, stdout without its `wrote ...` lines (they name the
output directory), stderr, the `report.json` iteration count and the
sha256 of every output file.  It then runs the operations of perfbench's
pam2d and line1d workloads on the inputs of benchmark seed 1, importing
`perfbench/workloads.py` as it is, and records per input key the
solution hashes, the oracle error and the failed count.

    python3 bench/parity.py --out out/parity-change
    python3 bench/parity.py --src ../parent/src --out out/parity-parent
    python3 bench/parity.py --out out/parity-change --against out/parity-parent/manifest.json

`--src DIR` imports paracalc from DIR (default: this checkout's `src`), so
one copy of the script runs an older checkout.  `--against MANIFEST`
prints, per output file, "byte-identical" or the largest relative
difference from the file of the same run next to MANIFEST: of the
coefficients of a field snapshot, relative to their largest modulus, or
of the numbers of a CSV or JSON file, each relative to its own size.  A
`report.json`'s fixed-point `residual` is left out of that difference and
printed apart as "residual a -> b": it sits at the tolerance level, where
a move of 1e-9 is a relative difference of order 1.  A JSON null, which a
report writes for a non-finite number, reads as NaN.  Its `iterations` is
left out too, as the count is named apart.  The script also names every
changed exit code, stderr, iteration count and stdout, this last without
the report a `solve-*` run prints (it is diffed as `report.json`), and
exits 1 if anything differs.  The perfbench operations are compared on
their hashes, oracle error and failed count, each of which must be equal.
The check informs a review; it gates nothing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

RUNS = {
    "noise-pam": ["noise", "--kind", "pam", "--n", "32", "--eps", "0.25"],
    "noise-burgers": ["noise", "--kind", "burgers", "--n", "32", "--eps", "0.25"],
    "noise-rde": ["noise", "--kind", "rde"],
    "noise-rde-support": ["noise", "--kind", "rde", "--support", "1.5", "--eps", "0.1"],
    "area-pam": ["area", "--kind", "pam", "--n", "32"],
    "area-burgers": ["area", "--kind", "burgers", "--n", "32"],
    "renorm": ["renorm", "--n", "32", "--eps", "0.5", "0.25", "0.125", "--seeds", "5"],
    "solve-rde": ["solve-rde"],
    "solve-rde-n256-seed1": ["solve-rde", "--n", "256", "--seed", "1"],
    "solve-rde-support": ["solve-rde", "--support", "1.5", "--embedding", "2"],
    "solve-rde-eps": ["solve-rde", "--eps", "0.25"],
    "solve-burgers": ["solve-burgers"],
    "solve-burgers-eps": ["solve-burgers", "--eps", "0.25"],
    "solve-burgers-diverges": ["solve-burgers", "--n", "64", "--sigma", "0.9",
                               "--time-steps", "8", "--amplitude", "200"],
    "solve-pam": ["solve-pam", "--n", "32"],
    # a step of 1/32 leaves block 3 of N = 64 unmollified, so no ptt is held
    "solve-pam-n64": ["solve-pam", "--n", "64", "--time-steps", "8"],
    "gauge-check": ["solve-pam", "--gauge-check", "--n", "32", "--time-steps", "8"],
    "study-rde": ["study", "--equation", "rde", "--eps", "0.5", "0.25", "--seeds", "1"],
    "study-burgers": ["study", "--equation", "burgers", "--n", "64", "--sigma", "0.9",
                      "--time-steps", "32", "--eps", "0.5", "0.25", "0.125", "--seeds", "2"],
    "study-pam": ["study", "--equation", "pam", "--n", "32", "--time-steps", "8",
                  "--eps", "0.5", "0.25", "--seeds", "2"],
    # long enough for the march's predictor to go past the linear order
    "study-pam-n64": ["study", "--equation", "pam", "--n", "64", "--time-steps", "32",
                      "--eps", "0.25", "0.125", "--seeds", "1"],
}

LEG_SEED = 1  # the benchmark seed of the perfbench operations
LEG_KEYS = ("hashes", "oracle_err", "failed")


def run_all(out: Path) -> dict:
    from paracalc.cli import main
    manifest = {}
    for name, argv in RUNS.items():
        where = out / name
        where.mkdir(parents=True, exist_ok=True)
        for old in where.iterdir():
            old.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(where)])
        report = where / "report.json"
        manifest[name] = {
            "argv": argv,
            "exit": code,
            "stdout": "".join(line for line in stdout.getvalue().splitlines(keepends=True)
                              if not line.startswith("wrote ")),
            "stderr": stderr.getvalue(),
            "iterations": json.loads(report.read_text())["iterations"]
            if report.exists() else None,
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in sorted(where.iterdir())},
        }
    return manifest


def run_legs() -> dict:
    """perfbench's pam2d and line1d operations for benchmark seed 1, one
    manifest entry per input key."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    manifest = {}
    for leg in (workloads.Pam2d(), workloads.Line1d()):
        inputs = leg.build(LEG_SEED)
        for key in inputs:
            res = leg.run(inputs, key)
            manifest[f"perfbench-{leg.name}-{key}"] = {
                "hashes": res.hashes, "oracle_err": res.oracle_err, "failed": res.failed}
    return manifest


def _numbers(path: Path):
    """The numbers of a field snapshot's coefficients, or of a CSV or JSON
    file (but for a report's residual and iteration count), as a flat
    complex array, and whether they are coefficients."""
    from paracalc import FieldPath, load_field
    if path.suffix == ".field":
        f = load_field(path)
        return (f.coeff_array() if isinstance(f, FieldPath) else f.coeffs).ravel(), True
    if path.suffix == ".json":
        vals = []

        def walk(x):
            if isinstance(x, dict):
                for k in sorted(set(x) - {"residual", "iterations"}):
                    walk(x[k])
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                vals.append(x)
            elif x is None:
                vals.append(math.nan)

        walk(json.loads(path.read_text()))
        return np.asarray(vals, dtype=complex), False
    vals = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                vals.append(float(cell))
            except ValueError:
                pass
    return np.asarray(vals, dtype=complex), False


def relative_difference(a: Path, b: Path) -> float:
    """Largest relative difference of b from a (see the module docstring);
    NaN against NaN counts as equal, and a change of length is infinite."""
    x, coeffs = _numbers(a)
    y, _ = _numbers(b)
    if x.shape != y.shape:
        return math.inf
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return 0.0
    diff = np.where(same, 0.0, np.abs(x - y))
    if coeffs:
        return float(diff.max() / max(np.abs(y).max(), 1e-300))
    return float(np.max(diff / np.maximum(np.abs(y), 1e-300)))


def residual(path: Path) -> float:
    """The fixed-point residual of a `report.json`, NaN where it is null."""
    value = json.loads(path.read_text()).get("residual")
    return math.nan if value is None else value


def beside_report(stdout: str, where: Path) -> str:
    """A run's stdout without the text of its `report.json`, if it has one."""
    report = where / "report.json"
    return stdout.replace(report.read_text() + "\n", "") if report.exists() else stdout


def compare(out: Path, mine: dict, against: Path) -> int:
    theirs = json.loads(against.read_text())
    base = against.parent
    changed = 0
    for name, run in mine.items():
        other = theirs.get(name)
        if other is None:
            print(f"{name}: not in {against}")
            changed += 1
            continue
        if "hashes" in run:  # a perfbench operation
            diffs = [key for key in LEG_KEYS
                     if json.dumps(run[key], sort_keys=True)  # NaN equal to NaN
                     != json.dumps(other[key], sort_keys=True)]
            for key in diffs:
                print(f"{name}: {key} {other[key]!r} -> {run[key]!r}")
            if not diffs:
                print(f"{name}: {', '.join(LEG_KEYS)} identical")
            changed += len(diffs)
            continue
        for key in ("exit", "stdout", "stderr", "iterations"):
            there, here = other[key], run[key]
            if key == "stdout":
                there, here = beside_report(there, base / name), beside_report(here, out / name)
            if here != there:
                print(f"{name}: {key} {there!r} -> {here!r}")
                changed += 1
        for fname in sorted(set(run["files"]) | set(other["files"])):
            if fname not in run["files"] or fname not in other["files"]:
                side = "only here" if fname in run["files"] else "only there"
                print(f"{name}/{fname}: {side}")
                changed += 1
            elif run["files"][fname] == other["files"][fname]:
                print(f"{name}/{fname}: byte-identical")
            else:
                here, there = out / name / fname, base / name / fname
                d = relative_difference(here, there)
                report = fname == "report.json"
                but = " but for the residual" if report else ""
                print(f"{name}/{fname}: differs, max relative difference {d:.3g}{but}")
                if report:
                    print(f"{name}/{fname}: residual {residual(there)!r} -> {residual(here)!r}")
                changed += 1
    print(f"parity: {'all byte-identical' if not changed else f'{changed} differences'}")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory that holds the paracalc package")
    ap.add_argument("--out", required=True, help="directory for the runs and manifest.json")
    ap.add_argument("--against", metavar="MANIFEST",
                    help="manifest.json of another run of this script")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import paracalc
    if Path(paracalc.__file__).resolve().parent != src / "paracalc":
        raise SystemExit(f"parity: imported paracalc from {paracalc.__file__}, not {src}")
    out = Path(args.out)
    manifest = run_all(out)
    legs = run_legs()
    (out / "manifest.json").write_text(json.dumps({**manifest, **legs}, indent=1,
                                                  sort_keys=True))
    print(f"parity: {len(manifest)} runs and {len(legs)} perfbench operations, "
          f"manifest in {out / 'manifest.json'}")
    return compare(out, {**manifest, **legs}, Path(args.against)) if args.against else 0


if __name__ == "__main__":
    sys.exit(main())
