"""Command-line harness: noise synthesis, renormalization tables, area
studies, equation solves, and multi-eps convergence studies.

All output is CSV/JSON plus the binary field snapshot format.  Exit codes:
0 on success (and all built-in checks passing), 2 when a check fails or a
solve does not converge (its report.json then says converged: false),
1 on usage or runtime errors.  Runs are bit-reproducible for a fixed
configuration and seed list.  Execution is sequential; `noise` records
PARACALC_THREADS in its noise.json, and the value cannot affect results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .enhanced import (EnhancedNoise, burgers_area, pam_c_eps,
                       pam_renormalized_area, rde_area)
from .evolution import NonConvergence, trapezoid_exponential_path
from .grid import (FieldPath, SpectralField, TorusGrid, apply_pointwise, dealiased_product,
                   save_field)
from .noise import (MOLLIFIERS, burgers_theta_path, mollify, pam_theta,
                    rde_driver, sample_line_path, spatial_white_noise)
from .paraproducts import NonlinearFunction, resonant, poly_function
from .solvers import SolverConfig, solve_burgers, solve_pam, solve_pam_regularized, solve_rde
from .spectral import besov_norm, block_sups, derivative

log = logging.getLogger(__name__)


def _tanh_function(a: float) -> NonlinearFunction:
    return NonlinearFunction(lambda x: a * np.tanh(x), lambda x: a / np.cosh(x) ** 2,
                             name=f"{a}*tanh")


def _cos_function(a: float) -> NonlinearFunction:
    return NonlinearFunction(lambda x: a * np.cos(x), lambda x: -a * np.sin(x),
                             name=f"{a}*cos")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, comment: str, header: list[str], rows):
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _meta(args) -> dict:
    """The run's settings, without the output directory and the config
    file's path (its values are already in `args`), so that one run gives
    the same bytes wherever it is written."""
    d = {k: v for k, v in vars(args).items()
         if k not in ("func", "out", "config") and v is not None}
    d["threads"] = os.environ.get("PARACALC_THREADS", "1")
    return d


def _first_eps(args, default: float | None = None) -> float | None:
    """The first --eps, or `default` when none is given."""
    return args.eps[0] if args.eps else default


def _driver(args, kind: str, seed: int, eps: float | None):
    """The driver of `kind` for `seed`: PAM's spatial white noise, the
    Burgers path or the rough ODE's localized line driver on the time-line
    torus, mollified with --mollifier at `eps` unless it is None."""
    if kind == "pam":
        f = spatial_white_noise(TorusGrid(2, args.n), seed)
    elif kind == "burgers":
        f = burgers_theta_path(TorusGrid(1, args.n), args.sigma, args.horizon,
                               args.time_steps, 1, seed)
    else:  # rde
        grid = TorusGrid(1, args.n, 2 * math.pi * args.embedding)
        ts, xs = sample_line_path(grid, args.hurst, seed, support=args.support)
        f = rde_driver(ts, xs, grid, args.support).theta
    return f if eps is None else mollify(f, eps, MOLLIFIERS[args.mollifier])


def _rde_enhanced(theta: SpectralField) -> EnhancedNoise:
    xi = derivative(theta, 0)
    return EnhancedNoise("rde", xi, theta, rde_area(theta, xi))


# -- subcommands ------------------------------------------------------

def cmd_noise(args) -> int:
    out = _outdir(args)
    f = _driver(args, args.kind, args.seed, _first_eps(args))
    save_field(out / "noise.field", f)
    (out / "noise.json").write_text(json.dumps(_meta(args), indent=2, sort_keys=True))
    print(f"wrote {out / 'noise.field'}")
    return 0


def cmd_renorm(args) -> int:
    if not args.eps:
        raise ValueError("renorm needs --eps values")
    if args.seeds < 2:
        raise ValueError("renorm needs at least two seeds for a standard error")
    grid = TorusGrid(2, args.n)
    psi = MOLLIFIERS[args.mollifier]
    out = _outdir(args)
    consts = [pam_c_eps(eps, psi, grid) for eps in args.eps]
    per_eps = [[] for _ in args.eps]
    for s in range(args.seeds):  # one noise and one lift per seed, for every eps
        xi = _driver(args, "pam", s, None)
        theta = pam_theta(xi)
        for eps, samples in zip(args.eps, per_eps):
            area = resonant(mollify(theta, eps, psi), mollify(xi, eps, psi))
            samples.append(float(area.values().mean()))
    rows = []
    ok = True
    for eps, c, samples in zip(args.eps, consts, per_eps):
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
        rows.append((float(eps), c, mean, se))
        if abs(mean - c) > 3 * se:
            ok = False
    _write_csv(out / "renorm.csv",
               "mollified-area constant vs Monte Carlo; eps (1), c_eps (1), "
               "mc_mean (1), mc_se (1)",
               ["eps", "c_eps", "mc_mean", "mc_se"], rows)
    fit_ok = True
    if len(rows) >= 3:
        x = np.log(1.0 / np.array([r[0] for r in rows]))
        y = np.array([r[1] for r in rows])
        slope, icpt = np.polyfit(x, y, 1)
        pred = slope * x + icpt
        r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
        fit_ok = r2 >= 0.99
        print(f"log-divergence fit: slope={slope:.6f} R2={r2:.6f}")
    print(f"renorm: {'all rows within 3 SE' if ok else 'SE CHECK FAILED'}")
    return 0 if (ok and fit_ok) else 2


def cmd_area(args) -> int:
    out = _outdir(args)
    if args.kind == "burgers":
        area = burgers_area(_driver(args, "burgers", args.seed, _first_eps(args)))
        save_field(out / "area.field", area)
        sups = block_sups(area[-1])
    else:
        xi = _driver(args, "pam", args.seed, None)
        area = pam_renormalized_area(xi, _first_eps(args, _PAM_EPS),
                                     MOLLIFIERS[args.mollifier])
        save_field(out / "area.field", area)
        sups = block_sups(area)
    rows = [(j, float(s)) for j, s in enumerate(sups, -1)]
    _write_csv(out / "area_blocks.csv",
               "dyadic block sup-norms of the area; level (dyadic index), "
               "block_sup (sup norm)",
               ["level", "block_sup"], rows)
    print(f"wrote {out / 'area.field'}")
    return 0


def cmd_solve_rde(args) -> int:
    out = _outdir(args)
    E = _rde_enhanced(_driver(args, "rde", args.seed, _first_eps(args)))
    F = _tanh_function(args.amplitude * args.lam ** args.alpha)
    cfg = SolverConfig(alpha=args.alpha, damping=args.damping)
    u, usharp, rep = solve_rde(args.u0, E, F, cfg, args.support)
    save_field(out / "solution.field", u)
    save_field(out / "remainder.field", usharp)
    (out / "report.json").write_text(rep.to_json())
    print(rep.to_json())
    return 0


def cmd_solve_burgers(args) -> int:
    out = _outdir(args)
    theta = _driver(args, "burgers", args.seed, _first_eps(args))
    E = EnhancedNoise("burgers", None, theta, burgers_area(theta))
    G = _cos_function(args.amplitude * args.lam ** args.alpha)
    u0 = SpectralField.zero(theta.grid)
    cfg = SolverConfig(alpha=args.alpha, sigma=args.sigma, T=args.horizon,
                       M=args.time_steps, fp_tol=1e-10,
                       damping=args.damping)
    w, u, rep = solve_burgers(u0, E, G, cfg)
    save_field(out / "solution.field", u)
    (out / "report.json").write_text(rep.to_json())
    print(rep.to_json())
    return 0


def cmd_solve_pam(args) -> int:
    out = _outdir(args)
    psi = MOLLIFIERS[args.mollifier]
    eps = _first_eps(args, _PAM_EPS)
    noise = _driver(args, "pam", args.seed, None)
    grid = noise.grid
    xi = mollify(noise, eps, psi)
    c = pam_c_eps(eps, psi, grid)
    u0 = SpectralField.constant(grid, args.u0)

    if args.gauge_check:
        # the march treats -c u as drift, so e^(-ct) u(c = 0) and u(c) differ
        # by its second-order time error: pass on a defect of at most 1e-6 at
        # M steps or on one that falls at least threefold from M to 2M steps
        F = poly_function([0.0, 1.0], name="id")
        defects = []
        for M in (args.time_steps, 2 * args.time_steps):
            cfg = SolverConfig(alpha=args.alpha, sigma=args.sigma, T=args.horizon,
                               M=M, fp_tol=1e-13, damping=1.0)
            ur = solve_pam_regularized(u0, xi, c, F, cfg)
            uu = solve_pam_regularized(u0, xi, 0.0, F, cfg)
            defects.append(max(
                np.max(np.abs(uu[i].values() * math.exp(-c * t) - ur[i].values()))
                / max(np.max(np.abs(ur[i].values())), 1e-30) for i, t in enumerate(ur.times)))
        d, d2 = defects
        order = math.log2(d / d2) if d > 0 and d2 > 0 else math.nan
        print(f"gauge identity relative defect: {d:.3e} at M = {args.time_steps}, "
              f"{d2:.3e} at M = {2 * args.time_steps}, observed order {order:.2f}")
        return 0 if d <= 1e-6 or d >= 3.0 * d2 else 2

    F = _tanh_function(args.amplitude * args.lam ** args.alpha)
    theta = pam_theta(xi)
    eta = pam_renormalized_area(noise, eps, psi)
    E = EnhancedNoise("pam", xi, theta, eta, c)
    cfg = SolverConfig(alpha=args.alpha, sigma=args.sigma, T=args.horizon,
                       M=args.time_steps, fp_tol=1e-9, damping=args.damping)
    u, usharp, rep = solve_pam(u0, E, F, cfg)
    save_field(out / "solution.field", u)
    (out / "report.json").write_text(rep.to_json())
    print(rep.to_json())
    return 0


# -- convergence studies ----------------------------------------------

def _study_rde(args, lam: float, seed: int, eps_list):
    F = _tanh_function(args.amplitude * lam ** args.alpha)
    theta, psi = _driver(args, "rde", seed, None), MOLLIFIERS[args.mollifier]
    cfg = SolverConfig(alpha=args.alpha, fp_tol=1e-8, fp_max=120, damping=args.damping)
    sols = [solve_rde(args.u0, _rde_enhanced(mollify(theta, eps, psi)), F, cfg,
                      args.support)[0] for eps in eps_list]
    return [besov_norm(a - b, args.alpha) for a, b in zip(sols, sols[1:])]


def _study_burgers(args, lam: float, seed: int, eps_list):
    # classical mollified solves by explicit ETD2, L w = G(u) d_x u with
    # u = theta_eps + w, one eps per channel of one march: with
    # fp_tol = math.inf each step makes one corrector, so the channels
    # never wait on each other's fixed point
    theta = _driver(args, "burgers", seed, None)
    grid = theta.grid
    cfg = SolverConfig(alpha=args.alpha, sigma=args.sigma, T=args.horizon,
                       M=args.time_steps, fp_tol=math.inf, damping=1.0)
    psi = MOLLIFIERS[args.mollifier]
    G = _cos_function(args.amplitude * lam ** cfg.alpha)
    ladder = np.concatenate([mollify(theta, eps, psi).coeffs[:, :1] for eps in eps_list], axis=1)
    thc = FieldPath.from_coeff_array(theta.times, grid, ladder).fields
    dth = [derivative(f, 0) for f in thc]
    drift = lambda n, w: dealiased_product(apply_pointwise(G.f, thc[n] + w),
                                           dth[n] + derivative(w, 0))
    sol = trapezoid_exponential_path(cfg.sigma, SpectralField.zero(grid, len(eps_list)), drift,
                                     cfg.T, cfg.M, fp_tol=cfg.fp_tol, damping=cfg.damping)[0]
    # each pair's distance is a sup over nodes and scales, and besov_norm's
    # sup runs over channels too: one norm per chunk of nodes and pair
    d = sol.coeffs[:, :-1] - sol.coeffs[:, 1:]
    pairs = [FieldPath.from_coeff_array(sol.times, grid, d[:, k:k + 1]) for k in range(d.shape[1])]
    return [max(besov_norm(c, cfg.alpha) for c in p.chunks()) for p in pairs]


def _study_pam(args, lam: float, seed: int, eps_list):
    xi = _driver(args, "pam", seed, None)
    grid, psi = xi.grid, MOLLIFIERS[args.mollifier]
    F = _tanh_function(args.amplitude * lam ** args.alpha)
    u0 = SpectralField.constant(grid, args.u0)
    sols = []
    for eps in eps_list:
        xie = mollify(xi, eps, psi)
        c = pam_c_eps(eps, psi, grid)
        cfg = SolverConfig(alpha=args.alpha, sigma=args.sigma, T=args.horizon,
                           M=args.time_steps, fp_tol=1e-10, damping=1.0)
        sols.append(solve_pam_regularized(u0, xie, c, F, cfg))
    return [max(besov_norm(x - y, args.alpha)
                for x, y in zip(a.fields, b.fields))
            for a, b in zip(sols, sols[1:])]


def cmd_study(args) -> int:
    eps_list = list(args.eps or [])
    # 0 < e < inf is false for NaN; checked before a runner solves any eps
    if len(eps_list) < 2 or not all(0 < e < math.inf for e in eps_list) \
            or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("study needs a strictly decreasing --eps ladder of positive "
                         "finite scales")
    if args.seeds < 1:
        raise ValueError("study needs at least one seed")
    if args.n is None:
        args.n = _RDE_N if args.equation == "rde" else 64
    out = _outdir(args)
    runner = {"rde": _study_rde, "burgers": _study_burgers, "pam": _study_pam}[args.equation]
    rows = []
    dists_by_pair = [[] for _ in range(len(eps_list) - 1)]
    for seed in range(args.seeds):
        for lam in (args.lam / 2**k for k in range(4)):  # halving is exact
            try:
                dists = runner(args, lam, seed, eps_list)
                break
            except RuntimeError as exc:
                log.warning("seed %d at lambda %s: %s", seed, _fmt(lam), exc)
        else:
            log.warning("seed %d: unresolved non-convergence", seed)
            rows.append((args.equation, float("nan"), seed, lam, float("nan"), 0))
            continue
        for k, d in enumerate(dists):
            rows.append((args.equation, float(eps_list[k]), seed, lam, float(d), 1))
            dists_by_pair[k].append(d)
    _write_csv(out / "study.csv",
               "eps-ladder distances; equation (name), eps (coarser scale of the "
               "pair), seed (index), lam (coupling scale), dist (Besov-proxy sup "
               "distance to next-finer eps), converged (0/1)",
               ["equation", "eps", "seed", "lam", "dist", "converged"], rows)
    medians = [float(np.median(d)) if d else float("nan") for d in dists_by_pair]
    print("median distances along the ladder:", " ".join(f"{m:.4e}" for m in medians))
    decreasing = all(a > b for a, b in zip(medians, medians[1:])) \
        and all(np.isfinite(medians))
    print(f"monotone decrease: {'yes' if decreasing else 'NO'}")
    return 0 if decreasing else 2


# -- argument plumbing ------------------------------------------------

_PAM_EPS = 0.25  # the PAM area's and solve's scale when no --eps is given
_RDE_N = 256  # 64 points leave one dyadic block on the --embedding times longer torus

# every flag once, by dest; a subcommand adds only the flags its handler reads
_FLAGS = {
    "config": ("--config", dict(default=None, help="JSON file whose keys mirror the flags")),
    "out": ("--out", dict(default="out")),
    "n": ("--n", dict(type=int, default=64,
                      help=f"grid points per axis (default 64; {_RDE_N} for the rough ODE)")),
    "seed": ("--seed", dict(type=int, default=0)),
    "eps": ("--eps", dict(type=float, nargs="*", default=None)),
    "mollifier": ("--mollifier", dict(choices=sorted(MOLLIFIERS), default="gauss")),
    "seeds": ("--seeds", dict(type=int, default=20, help="number of seeds")),
    "sigma": ("--sigma", dict(type=float, default=1.0)),
    "horizon": ("--horizon", dict(type=float, default=0.25)),
    "time_steps": ("--time-steps", dict(type=int, default=64)),
    "hurst": ("--hurst", dict(type=float, default=0.75)),
    "embedding": ("--embedding", dict(type=float, default=4.0,
                                      help="time-line torus period divided by 2 pi")),
    "support": ("--support", dict(type=float, default=2.0,
                                  help="half-width of the time cutoff's support")),
    "alpha": ("--alpha", dict(type=float, default=0.45)),
    "lam": ("--lambda", dict(type=float, default=1.0, help="dyadic coupling scale")),
    "u0": ("--u0", dict(type=float, default=0.3)),
    "amplitude": ("--amplitude", dict(type=float, default=0.4,
                                      help="scale of the built-in nonlinearity")),
    "damping": ("--damping", dict(type=float, default=0.7)),
}
_DRIVER = ("n", "seed", "eps", "mollifier")
_PATH = ("sigma", "horizon", "time_steps")  # the Burgers driver and the 2-d march
_LINE = ("hurst", "embedding", "support")   # the rough ODE's driver
_SOLVE = ("alpha", "lam", "amplitude", "damping")


def _subcommand(sub, name: str, func, summary: str, *names: str, **defaults):
    """A subparser with --config, --out and the named flags of `_FLAGS`."""
    p = sub.add_parser(name, help=summary)
    for dest in ("config", "out") + names:
        flag, kwargs = _FLAGS[dest]
        p.add_argument(flag, dest=dest, **kwargs)
    p.set_defaults(func=func, **defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="paracalc",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = _subcommand(sub, "noise", cmd_noise, "sample a driver and write it out",
                    *_DRIVER, *_PATH, *_LINE)
    p.add_argument("--kind", choices=["pam", "burgers", "rde"], default="pam")
    _subcommand(sub, "renorm", cmd_renorm, "tabulate the diverging constant vs Monte Carlo",
                "n", "eps", "seeds", "mollifier")
    p = _subcommand(sub, "area", cmd_area, "build an area and its block-decay table",
                    *_DRIVER, *_PATH)
    p.add_argument("--kind", choices=["pam", "burgers"], default="pam")
    _subcommand(sub, "solve-rde", cmd_solve_rde, "paracontrolled rough ODE solve",
                *_DRIVER, *_LINE, *_SOLVE, "u0", n=_RDE_N)
    _subcommand(sub, "solve-burgers", cmd_solve_burgers, "paracontrolled conservation-law solve",
                *_DRIVER, *_PATH, *_SOLVE)
    p = _subcommand(sub, "solve-pam", cmd_solve_pam,
                    "paracontrolled 2-d multiplicative heat solve",
                    *_DRIVER, *_PATH, *_SOLVE, "u0")
    p.add_argument("--gauge-check", action="store_true",
                   help="linear nonlinearity: verify the exponential gauge identity")
    p = _subcommand(sub, "study", cmd_study, "eps-ladder convergence study", "n", "eps", "seeds",
                    "mollifier", *_PATH, *_LINE, *_SOLVE, "u0", n=None)  # cmd_study resolves n
    p.add_argument("--equation", choices=["rde", "burgers", "pam"], required=True)
    return ap


def _config_value(action: argparse.Action, key: str, val):
    """A config value converted and checked as its flag's action would
    treat it on the command line: `type`, `choices` and `nargs`."""
    if action.nargs == 0:  # store_true flags
        if not isinstance(val, bool):
            raise ValueError(f"config key {key}: expected true or false, got {val!r}")
        return val
    many = action.nargs in ("*", "+")
    if many != isinstance(val, list):
        raise ValueError(f"config key {key}: expected "
                         f"{'a list' if many else 'one value'}, got {val!r}")
    out = []
    for item in (val if many else [val]):
        try:
            if isinstance(item, bool) or not isinstance(item, (str, int, float)):
                raise ValueError
            item = (action.type or str)(str(item))
        except ValueError:
            raise ValueError(f"config key {key}: invalid value {item!r}") from None
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"config key {key}: {item!r} is not one of "
                             f"{', '.join(map(str, action.choices))}")
        out.append(item)
    return out if many else out[0]


def _apply_config(args, parser: argparse.ArgumentParser):
    if getattr(args, "config", None):
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = {a.dest: a for a in sub.choices[args.command]._actions}
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config}: expected a JSON object")
        for key, val in data.items():
            key = key.replace("-", "_")
            if not hasattr(args, key) or key not in actions:
                raise ValueError(f"unknown config key: {key}")
            setattr(args, key, _config_value(actions[key], key, val))
    return args


def _hold_heap() -> bool:
    """Keep freed 2-d N = 64 fine-grid arrays (128 KiB, glibc's default mmap threshold)
    on the heap: M_MMAP_THRESHOLD (-3) to 32 MiB, M_TRIM_THRESHOLD (-1) to 256 MiB.
    Returns whether both settings took."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    held = True
    for param, value in ((-3, 32 << 20), (-1, 256 << 20)):
        if mallopt(param, value) != 1:
            log.warning("mallopt(%d, %d) failed", param, value)
            held = False
    return held


def main(argv=None) -> int:
    _hold_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 0 if exc.code in (0, None) else 1
    try:
        _apply_config(args, parser)
        return args.func(args)
    except NonConvergence as exc:
        (_outdir(args) / "report.json").write_text(exc.report.to_json())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
