#!/usr/bin/env python3
"""Layer sweep of the oversampled transforms.

Times `grid.oversampled_values`, `grid.field_from_oversampled` and
`grid.dealiased_product` on one-channel fields at 1-d N = 256, 1024 and
2-d N = 32, 64, 128, and prints one JSON object: the machine facts and,
per layer and size, the median and quartiles of the per-call time over
the repeats.  Run from anywhere:

    python3 bench/transforms.py

Each repeat makes enough calls to last about 0.1 s; the whole sweep takes
about 15 s.
"""

import os

# One BLAS thread, set before numpy is first imported, as in perfbench.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from paracalc.grid import (SpectralField, TorusGrid, dealiased_product,  # noqa: E402
                           field_from_oversampled, oversampled_values)

SIZES = [(1, 256), (1, 1024), (2, 32), (2, 64), (2, 128)]
REPEATS = 7
REPEAT_S = 0.1


def machine() -> dict:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def per_call_us(fn) -> dict:
    """Median and quartiles of the per-call time over REPEATS repeats."""
    fn()
    once = min(timeit.repeat(fn, number=1, repeat=3))
    number = max(1, round(REPEAT_S / max(once, 1e-7)))
    times = [t / number * 1e6 for t in timeit.repeat(fn, number=number, repeat=REPEATS)]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_us": round(median, 2), "q1_us": round(q1, 2),
            "q3_us": round(q3, 2), "calls_per_repeat": number}


def sweep() -> list:
    rng = np.random.default_rng(0)
    rows = []
    for dim, n in SIZES:
        grid = TorusGrid(dim, n)
        f = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        g = SpectralField.from_values(grid, rng.standard_normal(grid.shape))
        fine = oversampled_values(f)
        layers = {
            "grid.oversampled_values": lambda: oversampled_values(f),
            "grid.field_from_oversampled": lambda: field_from_oversampled(grid, fine),
            "grid.dealiased_product": lambda: dealiased_product(f, g),
        }
        for name, fn in layers.items():
            rows.append({"layer": name, "dim": dim, "n": n, **per_call_us(fn)})
    return rows


def main():
    print(json.dumps({"machine": machine(), "repeats": REPEATS, "results": sweep()},
                     indent=1))


if __name__ == "__main__":
    main()
