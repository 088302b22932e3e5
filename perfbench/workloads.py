"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed (`build`, the
timed set-up) and then runs operations on them (`run`).  One call of `run`
handles one input key and returns an `OpResult`: the seconds spent in
paracontrolled solves and in classical references, the oracle error, the
operations attempted and failed, and hashes of the solution coefficients.
The checks that decide a failure live here, next to the work they check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from paracalc import (BUMP_MOLLIFIER, EnhancedNoise, SolverConfig,
                      SpectralField, TorusGrid, burgers_area,
                      burgers_theta_path, dealiased_product, derivative,
                      make_dyadic_partition, mollify, pam_theta, rde_area,
                      rde_driver, resonant, sample_line_path, solve_burgers,
                      solve_pam, solve_pam_regularized, solve_rde,
                      spatial_white_noise)
from paracalc import cli
from paracalc.partition import radial_cutoff

ORACLE_GATE = 1e-4  # acceptance criterion 5's sup-error bound
TWO_PI = 2.0 * math.pi


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclass
class OpResult:
    solve_s: float = 0.0
    ref_s: float = 0.0
    oracle_err: float | None = None  # None: the workload has no oracle
    attempted: int = 0
    failed: int = 0
    hashes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


class _Clock:
    """Accumulates the time spent inside `with clock:` blocks."""

    def __init__(self):
        self.s = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.s += time.perf_counter() - self._t0
        return False


# -- pam2d ------------------------------------------------------------

class Pam2d:
    """Criterion 5's 2-d leg with a shortened horizon: N=64, white noise
    band-limited to |k| <= 8 and scaled by 3, c = 0.2, F = 0.4 tanh, fixed
    dt = 1/512, checked against the regularized classical solve.

    The reference takes about 4 % of the solve's time, so it runs
    `ref_reps` times and `ref_s` is the median; the repeats must agree
    bit for bit."""

    name = "pam2d"
    solve_roots = ("solvers.solve_pam",)
    steps = 8
    ref_reps = 5
    # (paracontrolled, all) time steps of one operation
    op_steps = (steps, (1 + ref_reps) * steps)
    c = 0.2

    def build(self, seed: int):
        grid = TorusGrid(2, 64)
        part = make_dyadic_partition(grid)
        xi = spatial_white_noise(grid, seed)
        xi = SpectralField(grid, xi.coeffs * (grid.k_abs() <= 8)) * 3.0
        theta = pam_theta(xi)
        E = EnhancedNoise("pam", xi, theta, resonant(theta, xi, part) - self.c,
                          self.c)
        cfg = SolverConfig(alpha=0.45, sigma=1.0, T=self.steps / 512,
                           M=self.steps, fp_tol=1e-11, damping=1.0)
        return {seed: (E, part, cfg, SpectralField.constant(grid, 0.3),
                       cli._tanh_function(0.4))}

    def run(self, inputs, key) -> OpResult:
        E, part, cfg, u0, F = inputs[key]
        res = OpResult(attempted=1)
        solve = _Clock()
        refs = [_Clock() for _ in range(self.ref_reps)]
        try:
            with solve:
                u, _, rep = solve_pam(u0, E, F, cfg, part=part)
            r_hashes = set()
            for ref in refs:
                with ref:
                    r = solve_pam_regularized(u0, E.xi, self.c, F, cfg)
                r_hashes.add(digest(r.coeff_array()))
        except (RuntimeError, ValueError, FloatingPointError) as exc:
            res.failed, res.oracle_err = 1, math.nan
            res.notes.append(f"pam2d seed {key}: {exc}")
        else:
            res.oracle_err = max((u[n] - r[n]).sup_norm() for n in range(len(u)))
            res.hashes["pam"] = digest(u.coeff_array(), r.coeff_array())
            if not rep.converged or not res.oracle_err <= ORACLE_GATE \
                    or len(r_hashes) != 1:
                res.failed = 1
                res.notes.append(f"pam2d seed {key}: converged={rep.converged} "
                                 f"oracle_err={res.oracle_err:.3g} "
                                 f"reference hashes {sorted(r_hashes)}")
        res.solve_s = solve.s
        res.ref_s = statistics.median(ref.s for ref in refs)
        return res


# -- line1d -----------------------------------------------------------

def _ode_reference(E: EnhancedNoise, u: SpectralField, F_scale: float,
                   u0: float) -> float:
    """Sup distance of a rough-ODE trajectory from a DOP853 integration of
    du/dt = cutoff(t) F(u) xi(t), integrated outward from t = 0 both ways."""
    grid, xi = E.xi.grid, E.xi

    def rhs(t, y):
        p = radial_cutoff(np.array([t]), 1.0, 2.0)[0]
        return p * F_scale * math.tanh(y[0]) * xi.eval_at(np.array([t]))[0, 0]

    x = grid.points()[0]
    tc = np.where(x < grid.period / 2, x, x - grid.period)
    uv = u.values()[0]
    err = 0.0
    for sgn in (1.0, -1.0):
        sel = (np.abs(tc) <= 2.0) & (sgn * tc >= 0)
        t_eval = np.sort(tc[sel])[:: 1 if sgn > 0 else -1]
        sol = solve_ivp(rhs, (0.0, t_eval[-1]), [u0], t_eval=t_eval,
                        rtol=1e-11, atol=1e-13, method="DOP853")
        if not sol.success:
            raise RuntimeError(f"ODE reference failed: {sol.message}")
        for t1, y1 in zip(t_eval, sol.y[0]):
            err = max(err, abs(uv[np.argmin(np.abs(tc - t1))] - y1))
    return err


def _duhamel_weights(z: np.ndarray, dt: float):
    """Exact step weights of a piecewise-linear integrand under e^(-mu t),
    A = (1 - e^-z)/mu and B = dt (z - 1 + e^-z)/z^2 with z = mu dt; the
    series is used where the closed forms cancel.  Kept apart from the
    library's private copy so the oracle stays independent of the code it
    checks."""
    small = z < 1e-4
    zs = np.where(small, 1.0, z)
    A = np.where(small, dt * (1.0 - z / 2.0 + z**2 / 6.0 - z**3 / 24.0),
                 dt * (-np.expm1(-zs)) / zs)
    B = np.where(small, dt * (0.5 - z / 6.0 + z**2 / 24.0),
                 dt * (zs - 1.0 + np.exp(-zs)) / zs**2)
    return A, B


def _burgers_reference(grid, sigma, u0, thc, G, T, M):
    """Direct-product classical march of L w = G(theta + w) d_x(theta + w)
    with the implicit trapezoid-exponential rule, iterated to 1e-12."""
    dt = T / M
    z = (grid.k_abs() ** (2.0 * sigma)) * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)

    def drift(wc, n):
        v = thc[n] + SpectralField(grid, wc)
        return dealiased_product(G(v), derivative(v, 0)).coeffs

    c = u0.coeffs
    out = [c]
    for n in range(M):
        d0 = drift(c, n)
        base = c * decay + d0 * (A - B)
        nxt = c * decay + d0 * A
        for _ in range(80):
            cand = base + drift(nxt, n + 1) * B
            r = np.max(np.abs(cand - nxt))
            nxt = cand
            if r <= 1e-12 * (1.0 + np.max(np.abs(nxt))):
                break
        c = nxt
        out.append(c)
    return np.stack(out)


class Line1d:
    """Criterion 5's two 1-d legs over a few seeds: the rough ODE (N=512,
    H=0.75, bump-mollified line driver) against DOP853, and the fractional
    Burgers-type equation (N=128, sigma=0.9, M=64) against a direct-product
    march."""

    name = "line1d"
    solve_roots = ("solvers.solve_rde", "solvers.solve_burgers")
    seeds_per_run = 3
    burgers_steps = 64
    op_steps = (burgers_steps, 2 * burgers_steps)

    def build(self, seed: int):
        g_rde = TorusGrid(1, 512, 4 * TWO_PI)
        p_rde = make_dyadic_partition(g_rde)
        g_b = TorusGrid(1, 128)
        p_b = make_dyadic_partition(g_b)
        band = g_b.k_abs() <= 10
        u0_b = SpectralField.from_function(g_b, lambda x: 0.3 * np.sin(x))
        inputs = {}
        for k in range(self.seeds_per_run):
            s = self.seeds_per_run * seed + k
            ts, xs = sample_line_path(g_rde, 0.75, s)
            theta = mollify(rde_driver(ts, xs, g_rde).theta, 0.25, BUMP_MOLLIFIER)
            xi = derivative(theta, 0)
            E_rde = EnhancedNoise("rde", xi, theta, rde_area(theta, xi, p_rde))
            raw = burgers_theta_path(g_b, 0.9, 0.25, self.burgers_steps, 1, s)
            th = raw.map(lambda f: SpectralField(g_b, f.coeffs * band))
            E_b = EnhancedNoise("burgers", None, th, burgers_area(th, p_b))
            inputs[s] = (E_rde, p_rde, E_b, p_b, u0_b)
        return inputs

    def run(self, inputs, key) -> OpResult:
        E_rde, p_rde, E_b, p_b, u0_b = inputs[key]
        res = OpResult(attempted=2)
        solve, ref = _Clock(), _Clock()
        errs = []

        try:
            cfg = SolverConfig(alpha=0.45, damping=0.7, fp_tol=1e-10)
            with solve:
                u, _, rep = solve_rde(0.3, E_rde, cli._tanh_function(0.4), cfg,
                                      part=p_rde)
            with ref:
                err = _ode_reference(E_rde, u, 0.4, 0.3)
            errs.append(err)
            res.hashes["rde"] = digest(u.coeffs)
            if not rep.converged or not err <= ORACLE_GATE:
                res.failed += 1
                res.notes.append(f"rde seed {key}: converged={rep.converged} "
                                 f"oracle_err={err:.3g}")
        except (RuntimeError, ValueError, FloatingPointError) as exc:
            res.failed += 1
            res.notes.append(f"rde seed {key}: {exc}")

        try:
            G = cli._tanh_function(0.5)
            cfg = SolverConfig(alpha=0.45, sigma=0.9, T=0.25, M=self.burgers_steps,
                               fp_tol=1e-12, damping=1.0)
            with solve:
                w, _, rep = solve_burgers(u0_b, E_b, G, cfg, part=p_b)
            thc = [f.channel(0) for f in E_b.theta.fields]
            with ref:
                wr = _burgers_reference(E_b.theta.grid, 0.9, u0_b, thc, G, 0.25,
                                        self.burgers_steps)
            err = max((w[n] - SpectralField(w.grid, wr[n])).sup_norm()
                      for n in range(len(w)))
            errs.append(err)
            res.hashes["burgers"] = digest(w.coeff_array())
            if not rep.converged or not err <= ORACLE_GATE:
                res.failed += 1
                res.notes.append(f"burgers seed {key}: converged={rep.converged} "
                                 f"oracle_err={err:.3g}")
        except (RuntimeError, ValueError, FloatingPointError) as exc:
            res.failed += 1
            res.notes.append(f"burgers seed {key}: {exc}")

        res.solve_s, res.ref_s = solve.s, ref.s
        res.oracle_err = max(errs) if len(errs) == 2 else math.nan
        return res


# -- study ------------------------------------------------------------

class Study:
    """The CLI `study` for pam (N=64, 32 steps, bump, 4-eps ladder) and
    burgers (N=128, 64 steps) over a few CLI seeds.

    The CLI draws its noise from seed indices 0 .. seeds-1, so the
    benchmark seed sets the initial value `--u0` and the amplitude of the
    built-in nonlinearity instead, each within +-0.005: wider bands change
    the reference solver's inner iteration counts, and with them the work.
    The burgers study starts from zero and ignores `--u0`, so there the
    seed changes only `--amplitude`.
    """

    name = "study"
    solve_roots = ("cli.main",)
    cli_seeds = 3
    ladder = ["0.25", "0.125", "0.0625", "0.03125"]
    pam_steps, burgers_steps = 32, 64
    op_steps = (0, cli_seeds * len(ladder) * (pam_steps + burgers_steps))

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        u0 = 0.3 + 0.005 * float(rng.uniform(-1.0, 1.0))
        amp = 0.4 + 0.005 * float(rng.uniform(-1.0, 1.0))
        common = ["--mollifier", "bump", "--eps", *self.ladder,
                  "--seeds", str(self.cli_seeds), "--u0", repr(u0),
                  "--amplitude", repr(amp)]
        argv = {
            "pam": ["study", "--equation", "pam", "--n", "64", "--time-steps",
                    str(self.pam_steps), "--horizon", "0.25", *common],
            "burgers": ["study", "--equation", "burgers", "--n", "128",
                        "--sigma", "0.9", "--time-steps", str(self.burgers_steps),
                        "--horizon", "0.25", *common],
        }
        return {seed: argv}

    def run(self, inputs, key) -> OpResult:
        res = OpResult(attempted=2 * self.cli_seeds)
        solve, ref = _Clock(), _Clock()
        original = cli.solve_pam_regularized

        def timed_reference(*args, **kwargs):
            with ref:
                return original(*args, **kwargs)

        rows_expected = self.cli_seeds * (len(self.ladder) - 1)
        for eq, argv in inputs[key].items():
            out = self.out_dir / eq
            csv_path = out / "study.csv"
            csv_path.unlink(missing_ok=True)
            cli.solve_pam_regularized = timed_reference
            try:
                with solve, contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + ["--out", str(out)])
            finally:
                cli.solve_pam_regularized = original
            rows = _read_study(csv_path)
            bad_seeds = {r["seed"] for r in rows if r["converged"] != "1"}
            if code != 0 or len(rows) != rows_expected:
                bad_seeds = set(range(self.cli_seeds))
                res.notes.append(f"study {eq}: exit {code}, {len(rows)} rows "
                                 f"(expected {rows_expected})")
            res.failed += len(bad_seeds)
            if rows:
                res.hashes[eq] = digest(np.frombuffer(csv_path.read_bytes(), np.uint8))
        res.solve_s, res.ref_s = solve.s, ref.s
        return res


def _read_study(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))
