"""Command-line harness: noise synthesis, renormalization tables, area
studies, equation solves, and multi-eps convergence studies.

All output is CSV/JSON plus the binary field snapshot format.  Exit codes:
0 on success (and all built-in checks passing), 2 when a check fails,
1 on usage or runtime errors.  Runs are bit-reproducible for a fixed
configuration and seed list; PARACALC_THREADS is read and recorded but
execution is sequential, so the value cannot affect results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .enhanced import (EnhancedNoise, burgers_area, pam_c_eps,
                       pam_renormalized_area, rde_area)
from .grid import FieldPath, SpectralField, TorusGrid, save_field
from .noise import (MOLLIFIERS, burgers_theta_path, mollify, pam_theta,
                    rde_driver, sample_line_path, spatial_white_noise)
from .paraproducts import NonlinearFunction, resonant, poly_function
from .partition import radial_cutoff
from .solvers import (SolverConfig, scaled_function, solve_burgers, solve_pam,
                      solve_pam_regularized, solve_rde)
from .spectral import besov_norm, block_sups, default_partition, derivative
from .grid import apply_pointwise, dealiased_product


def _tanh_function(a: float) -> NonlinearFunction:
    return NonlinearFunction(
        lambda x: a * np.tanh(x),
        lambda x: a / np.cosh(x) ** 2,
        lambda x: -2 * a * np.tanh(x) / np.cosh(x) ** 2,
        lambda x: a * (4 * np.tanh(x) ** 2 - 2 / np.cosh(x) ** 2) / np.cosh(x) ** 2,
        name=f"{a}*tanh")


def _cos_function(a: float) -> NonlinearFunction:
    return NonlinearFunction(lambda x: a * np.cos(x), lambda x: -a * np.sin(x),
                             lambda x: -a * np.cos(x), lambda x: a * np.sin(x),
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


def _meta(args, extra=None) -> dict:
    d = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    d["threads"] = os.environ.get("PARACALC_THREADS", "1")
    if extra:
        d.update(extra)
    return d


# -- subcommands ------------------------------------------------------

def cmd_noise(args) -> int:
    out = _outdir(args)
    if args.kind == "pam":
        grid = TorusGrid(2, args.n)
        f = spatial_white_noise(grid, args.seed)
        if args.eps:
            f = mollify(f, args.eps[0], MOLLIFIERS[args.mollifier])
        save_field(out / "noise.field", f)
    elif args.kind == "burgers":
        grid = TorusGrid(1, args.n)
        path = burgers_theta_path(grid, args.sigma, args.horizon,
                                  args.time_steps, 1, args.seed)
        save_field(out / "noise.field", path)
    else:  # rde
        grid = TorusGrid(1, args.n, 2 * math.pi * args.embedding)
        ts, xs = sample_line_path(grid, args.hurst, args.seed)
        drv = rde_driver(ts, xs, grid)
        save_field(out / "noise.field", drv.theta)
    (out / "noise.json").write_text(json.dumps(_meta(args), indent=2, sort_keys=True))
    print(f"wrote {out / 'noise.field'}")
    return 0


def cmd_renorm(args) -> int:
    grid = TorusGrid(2, args.n)
    psi = MOLLIFIERS[args.mollifier]
    part = default_partition(grid)
    out = _outdir(args)
    rows = []
    ok = True
    for eps in args.eps:
        c = pam_c_eps(eps, psi, grid)
        samples = []
        for s in range(args.seeds):
            xi = spatial_white_noise(grid, s)
            area = resonant(mollify(pam_theta(xi), eps, psi),
                            mollify(xi, eps, psi), part)
            samples.append(float(area.values().mean()))
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
        grid = TorusGrid(1, args.n)
        part = default_partition(grid)
        theta = burgers_theta_path(grid, args.sigma, args.horizon,
                                   args.time_steps, 1, args.seed)
        if args.eps:
            theta = mollify(theta, args.eps[0], MOLLIFIERS[args.mollifier])
        area = burgers_area(theta, part)
        save_field(out / "area.field", area)
        sups = block_sups(area[-1], part)
    else:
        grid = TorusGrid(2, args.n)
        part = default_partition(grid)
        xi = spatial_white_noise(grid, args.seed)
        eps = args.eps[0] if args.eps else 0.25
        area = pam_renormalized_area(xi, eps, MOLLIFIERS[args.mollifier], part)
        save_field(out / "area.field", area)
        sups = block_sups(area, part)
    rows = [(j, float(s)) for j, s in zip(range(-1, part.j_max + 1), sups)]
    _write_csv(out / "area_blocks.csv",
               "dyadic block sup-norms of the area; level (dyadic index), "
               "block_sup (sup norm)",
               ["level", "block_sup"], rows)
    print(f"wrote {out / 'area.field'}")
    return 0


def _rde_enhanced(n: int, hurst: float, seed: int, eps: float | None,
                  mollifier: str, embedding: float, support: float):
    grid = TorusGrid(1, n, 2 * math.pi * embedding)
    part = default_partition(grid)
    cutoff = lambda t: radial_cutoff(t, support / 2.0, support)
    ts, xs = sample_line_path(grid, hurst, seed, support=support)
    drv = rde_driver(ts, xs, grid, cutoff)
    theta = drv.theta
    if eps:
        theta = mollify(theta, eps, MOLLIFIERS[mollifier])
    xi = derivative(theta, 0)
    E = EnhancedNoise("rde", xi, theta, rde_area(theta, xi, part))
    return E, part, cutoff


def cmd_solve_rde(args) -> int:
    out = _outdir(args)
    E, part, cutoff = _rde_enhanced(args.n, args.hurst, args.seed,
                                    args.eps[0] if args.eps else None,
                                    args.mollifier, args.embedding, args.support)
    F = scaled_function(_tanh_function(args.amplitude), args.lam ** args.alpha)
    cfg = SolverConfig(alpha=args.alpha, T=args.horizon, M=args.time_steps,
                       lam=args.lam, damping=args.damping)
    u, usharp, rep = solve_rde(args.u0, E, F, cfg, cutoff, part)
    save_field(out / "solution.field", u)
    save_field(out / "remainder.field", usharp)
    (out / "report.json").write_text(rep.to_json())
    print(rep.to_json())
    return 0 if rep.converged else 2


def cmd_solve_burgers(args) -> int:
    out = _outdir(args)
    grid = TorusGrid(1, args.n)
    part = default_partition(grid)
    theta = burgers_theta_path(grid, args.sigma, args.horizon,
                               args.time_steps, 1, args.seed)
    if args.eps:
        theta = mollify(theta, args.eps[0], MOLLIFIERS[args.mollifier])
    E = EnhancedNoise("burgers", None, theta, burgers_area(theta, part))
    G = scaled_function(_cos_function(args.amplitude), args.lam ** args.alpha)
    u0 = SpectralField.zero(grid)
    cfg = SolverConfig(alpha=args.alpha, sigma=args.sigma, T=args.horizon,
                       M=args.time_steps, lam=args.lam, fp_tol=1e-10,
                       damping=args.damping)
    w, u, rep = solve_burgers(u0, E, G, cfg, part)
    save_field(out / "solution.field", u)
    (out / "report.json").write_text(rep.to_json())
    print(rep.to_json())
    return 0 if rep.converged else 2


def cmd_solve_pam(args) -> int:
    out = _outdir(args)
    grid = TorusGrid(2, args.n)
    part = default_partition(grid)
    psi = MOLLIFIERS[args.mollifier]
    eps = args.eps[0] if args.eps else 0.25
    xi = mollify(spatial_white_noise(grid, args.seed), eps, psi)
    c = pam_c_eps(eps, psi, grid)
    u0 = SpectralField.constant(grid, args.u0)

    if args.gauge_check:
        F = poly_function([0.0, 1.0], name="id")
        cfg = SolverConfig(alpha=args.alpha, T=args.horizon, M=args.time_steps,
                           fp_tol=1e-13, damping=1.0)
        ur = solve_pam_regularized(u0, xi, c, F, cfg)
        uu = solve_pam_regularized(u0, xi, 0.0, F, cfg)
        rel = 0.0
        for i in range(len(ur)):
            t = ur.times[i]
            num = np.max(np.abs(uu[i].values() * math.exp(-c * t) - ur[i].values()))
            rel = max(rel, num / max(np.max(np.abs(ur[i].values())), 1e-30))
        print(f"gauge identity relative defect: {rel:.3e}")
        return 0 if rel <= 1e-6 else 2

    F = scaled_function(_tanh_function(args.amplitude), args.lam ** args.alpha)
    theta = pam_theta(xi)
    eta = pam_renormalized_area(spatial_white_noise(grid, args.seed), eps, psi, part)
    E = EnhancedNoise("pam", xi, theta, eta, c)
    cfg = SolverConfig(alpha=args.alpha, T=args.horizon, M=args.time_steps,
                       lam=args.lam, fp_tol=1e-9, damping=args.damping)
    u, usharp, rep = solve_pam(u0, E, F, cfg, part)
    save_field(out / "solution.field", u)
    (out / "report.json").write_text(rep.to_json())
    print(rep.to_json())
    return 0 if rep.converged else 2


# -- convergence studies ----------------------------------------------

def _study_rde(args, lam: float, seed: int, eps_list):
    sols = []
    F = scaled_function(_tanh_function(args.amplitude), lam ** args.alpha)
    for eps in eps_list:
        E, part, cutoff = _rde_enhanced(args.n, args.hurst, seed, eps,
                                        args.mollifier, args.embedding,
                                        args.support)
        cfg = SolverConfig(alpha=args.alpha, lam=lam, fp_tol=1e-8, fp_max=120,
                           damping=args.damping)
        u, _, rep = solve_rde(args.u0, E, F, cfg, cutoff, part)
        if not rep.converged:
            raise RuntimeError("rde study solve did not converge")
        sols.append((u, part))
    return [besov_norm(a[0] - b[0], args.alpha, a[1])
            for a, b in zip(sols, sols[1:])]


def _study_burgers(args, lam: float, seed: int, eps_list):
    grid = TorusGrid(1, args.n)
    part = default_partition(grid)
    theta = burgers_theta_path(grid, args.sigma, args.horizon,
                               args.time_steps, 1, seed)
    psi = MOLLIFIERS[args.mollifier]
    G = scaled_function(_cos_function(args.amplitude), lam ** args.alpha)
    u0 = SpectralField.zero(grid)
    sols = []
    for eps in eps_list:
        # classical mollified solve: L u = G(u) d_x u with u = theta_eps + w
        th = mollify(theta, eps, psi)
        dth = [derivative(f.channel(0), 0) for f in th.fields]
        thc = [f.channel(0) for f in th.fields]
        sols.append(_burgers_classical(grid, args.sigma, u0, thc, dth, G,
                                       args.horizon, len(th) - 1))
    return [max(besov_norm(x - y, args.alpha, part)
                for x, y in zip(a.fields, b.fields))
            for a, b in zip(sols, sols[1:])]


def _burgers_classical(grid, sigma, u0, thc, dth, G, T, M):
    from .evolution import SemigroupSpec, _duhamel_weights
    spec = SemigroupSpec(sigma, grid)
    dt = T / M
    z = spec.symbol() * dt
    decay = np.exp(-z)
    A, B = _duhamel_weights(z, dt)
    c = u0.coeffs
    fields = [u0]
    times = np.arange(M + 1) * dt

    def N(wc, n):
        w = SpectralField(grid, wc)
        v = thc[n] + w
        return dealiased_product(apply_pointwise(G.f, v),
                                 dth[n] + derivative(w, 0)).coeffs

    for n in range(M):
        n0 = N(c, n)
        pred = c * decay + n0 * A
        n1 = N(pred, n + 1)
        c = c * decay + n0 * (A - B) + n1 * B
        fields.append(SpectralField(grid, c))
    return FieldPath(times, fields)


def _study_pam(args, lam: float, seed: int, eps_list):
    grid = TorusGrid(2, args.n)
    part = default_partition(grid)
    psi = MOLLIFIERS[args.mollifier]
    xi = spatial_white_noise(grid, seed)
    F = scaled_function(_tanh_function(args.amplitude), lam ** args.alpha)
    u0 = SpectralField.constant(grid, args.u0)
    sols = []
    for eps in eps_list:
        xie = mollify(xi, eps, psi)
        c = pam_c_eps(eps, psi, grid)
        cfg = SolverConfig(alpha=args.alpha, T=args.horizon, M=args.time_steps,
                           fp_tol=1e-10, damping=1.0)
        sols.append(solve_pam_regularized(u0, xie, c, F, cfg))
    return [max(besov_norm(x - y, args.alpha, part)
                for x, y in zip(a.fields, b.fields))
            for a, b in zip(sols, sols[1:])]


def cmd_study(args) -> int:
    out = _outdir(args)
    eps_list = list(args.eps)
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        print("study needs a strictly decreasing eps ladder", file=sys.stderr)
        return 1
    if args.seeds < 1:
        print("study needs at least one seed", file=sys.stderr)
        return 1
    runner = {"rde": _study_rde, "burgers": _study_burgers, "pam": _study_pam}[args.equation]
    rows = []
    dists_by_pair = [[] for _ in range(len(eps_list) - 1)]
    for seed in range(args.seeds):
        lam = args.lam
        for attempt in range(4):
            try:
                dists = runner(args, lam, seed, eps_list)
                break
            except RuntimeError as exc:
                if attempt == 3:
                    print(f"seed {seed}: unresolved non-convergence ({exc})",
                          file=sys.stderr)
                    dists = None
                    break
                lam *= 0.5
        if dists is None:
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

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None,
                   help="JSON file whose keys mirror the flags")
    p.add_argument("--n", type=int, default=64, help="grid points per axis")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.45)
    p.add_argument("--hurst", type=float, default=0.75)
    p.add_argument("--eps", type=float, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    p.add_argument("--time-steps", dest="time_steps", type=int, default=64)
    p.add_argument("--horizon", type=float, default=0.25)
    p.add_argument("--mollifier", choices=sorted(MOLLIFIERS), default="gauss")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="dyadic coupling scale")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--u0", type=float, default=0.3)
    p.add_argument("--amplitude", type=float, default=0.4,
                   help="scale of the built-in nonlinearity")
    p.add_argument("--damping", type=float, default=0.7)
    p.add_argument("--embedding", type=float, default=4.0,
                   help="time-line torus period divided by 2 pi")
    p.add_argument("--support", type=float, default=2.0,
                   help="half-width of the time cutoff's support")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="paracalc",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("noise", help="sample a driver and write it out")
    p.add_argument("--kind", choices=["pam", "burgers", "rde"], default="pam")
    _add_common(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("renorm", help="tabulate the diverging constant vs Monte Carlo")
    _add_common(p)
    p.set_defaults(func=cmd_renorm)

    p = sub.add_parser("area", help="build an area and its block-decay table")
    p.add_argument("--kind", choices=["pam", "burgers"], default="pam")
    _add_common(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("solve-rde", help="paracontrolled rough ODE solve")
    _add_common(p)
    p.set_defaults(func=cmd_solve_rde)

    p = sub.add_parser("solve-burgers", help="paracontrolled conservation-law solve")
    _add_common(p)
    p.set_defaults(func=cmd_solve_burgers)

    p = sub.add_parser("solve-pam", help="paracontrolled 2-d multiplicative heat solve")
    p.add_argument("--gauge-check", action="store_true",
                   help="linear nonlinearity: verify the exponential gauge identity")
    _add_common(p)
    p.set_defaults(func=cmd_solve_pam)

    p = sub.add_parser("study", help="eps-ladder convergence study")
    p.add_argument("--equation", choices=["rde", "burgers", "pam"], required=True)
    _add_common(p)
    p.set_defaults(func=cmd_study)
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
        for key, val in data.items():
            key = key.replace("-", "_")
            if not hasattr(args, key) or key not in actions:
                raise SystemExit(f"unknown config key: {key}")
            setattr(args, key, _config_value(actions[key], key, val))
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
