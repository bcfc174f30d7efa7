"""Command-line front end.

Runs computations and verification suites from flags plus an optional JSON
config file (flags win), writes CSV/JSON artifacts to an output directory,
prints a one-line JSON summary, and exits 0 only when every requested check
passes.  Exit codes: 0 pass, 1 check failure, 2 usage or config error.

`main` can be called many times in one process: the argument tree is built
on the first call and shared.  Each verify suite computes its inputs once;
`verify_init_gue` evaluates every tau_m, m <= n_max, on one frozen grid,
and `verify_init_goe` builds its skew basis from the couplings alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .continuum import (HydroChainField, continuum_convergence, evolve_hydro_chain,
                        haantjes_scan, hopf_solve, hydro_scaling_check)
from .couplings import CouplingVector
from .errors import TauLatticeError
from .flows import (ReducedChainState, VolterraState, evolve_pfaff, evolve_reduced,
                    evolve_toda, evolve_volterra, pfaff_chain_rhs,
                    pfaff_commutator_rhs)
from .identities import (kp_residual, mkp_residuals, observables_check,
                         reduction_invariants)
from .lax import (PfaffLax, _skew_basis, c_coeff, goe_lax_init, gue_lax_init,
                  pfaff_entries_from_tau, pfaff_lax_from_basis,
                  skew_hermite_map_check, sqrt_ratio_product,
                  toda_lax_from_quadrature)
from .moments import (_tau_grid, _tau_value, log_tau, tau_coupling_derivative,
                      tau_orthogonal, tau_unitary)
from .report import IdentityReport

_T0 = CouplingVector.from_mapping({})


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: `parse_args` reads it and
    returns a fresh namespace, so calls of `main` share it without leaking
    flags into each other."""
    p = argparse.ArgumentParser(
        prog="taulattice",
        description="lattice flows, tau-functions, and their verification suites")
    p.add_argument("--config", help="JSON file of option defaults; flags win")
    p.add_argument("--out", help="artifact directory (default '.', env TAULATTICE_OUT)")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("tau", help="partition-function value at given couplings")
    q.add_argument("--ensemble", choices=("unitary", "orthogonal"), required=True)
    q.add_argument("--n", type=int, required=True,
                   help="matrix size (even for orthogonal)")
    q.add_argument("--couplings", help='JSON like {"t": {"2": -0.05}}')

    q = sub.add_parser("lax-init", help="write the initial operator window")
    # no argparse default: a default here would shadow the config file
    q.add_argument("--ensemble", choices=("gue", "goe"))
    q.add_argument("--N", type=int)
    q.add_argument("--K-pos", dest="k_pos", type=int)
    q.add_argument("--K-neg", dest="k_neg", type=int)

    q = sub.add_parser("evolve", help="integrate one of the flows")
    q.add_argument("system", choices=("toda", "volterra", "pfaff", "reduced", "hydro"))
    q.add_argument("--t1", type=float)
    q.add_argument("--t2", type=float)
    q.add_argument("--t4", type=float)
    q.add_argument("--t6", type=float)
    q.add_argument("--N", type=int)
    q.add_argument("--h", type=float)
    q.add_argument("--ghost", choices=("scaled", "pin", "linear"))
    q.add_argument("--K-pos", dest="k_pos", type=int)
    q.add_argument("--K-neg", dest="k_neg", type=int)
    q.add_argument("--samples", type=int)
    q.add_argument("--x-lo", dest="x_lo", type=float)
    q.add_argument("--x-hi", dest="x_hi", type=float)
    q.add_argument("--n-x", dest="n_x", type=int)

    q = sub.add_parser("verify", help="run one verification suite")
    q.add_argument("suite", choices=("init-gue", "init-goe", "scaling", "mkp", "kp",
                                     "commute", "reduction", "observables",
                                     "tau-cross", "skew-map"))
    q.add_argument("--N", type=int)
    q.add_argument("--K", type=int)
    q.add_argument("--n", type=int)
    q.add_argument("--seed", type=int)
    q.add_argument("--tolerance", type=float)

    q = sub.add_parser("continuum", help="continuum-limit runs and checks")
    q.add_argument("mode", choices=("hopf", "chain", "converge"))
    q.add_argument("--t2", type=float)
    q.add_argument("--c", type=float)
    q.add_argument("--k", type=int)
    q.add_argument("--x-lo", dest="x_lo", type=float)
    q.add_argument("--x-hi", dest="x_hi", type=float)
    q.add_argument("--n-x", dest="n_x", type=int)

    q = sub.add_parser("scan-haantjes", help="diagonalizability scan of the chain matrix")
    q.add_argument("--window", type=int)
    q.add_argument("--points", type=int)
    q.add_argument("--seed", type=int)
    return p


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    return cfg


def _outdir(args, cfg) -> str:
    if args.out:
        return args.out
    env = os.environ.get("TAULATTICE_OUT")
    if env:
        return env
    return cfg.get("out", ".")


def _write(outdir: str, name: str, text: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True))


def _couplings(opt: dict) -> CouplingVector:
    raw = opt.get("couplings")
    if raw is None:
        return _T0
    if isinstance(raw, dict):
        return CouplingVector.from_mapping({int(k): float(v)
                                            for k, v in raw.get("t", raw).items()})
    return CouplingVector.from_json(raw)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_tau(opt: dict, outdir: str) -> int:
    ensemble = opt.get("ensemble")
    n = int(opt.get("n"))
    t = _couplings(opt)
    if ensemble == "unitary":
        value = tau_unitary(t, n)
    else:
        value = tau_orthogonal(t, n)
    summary = {"command": "tau", "ensemble": ensemble, "n": n,
               "couplings": t.as_dict(), "tau": value}
    path = _write(outdir, "tau.json", json.dumps(summary, sort_keys=True, indent=2) + "\n")
    summary["artifact"] = path
    _emit(summary)
    return 0


def _cmd_lax_init(opt: dict, outdir: str) -> int:
    ensemble = opt.get("ensemble", "goe")
    N = int(opt.get("N", 8))
    if ensemble == "gue":
        lax = gue_lax_init(N)
        lines = ["n,a,b"]
        for i in range(N):
            b = lax.b[i] if i < N - 1 else 0.0
            lines.append("%d,%.17g,%.17g" % (i + 1, lax.a[i], b))
        path = _write(outdir, "lax_init.csv", "\n".join(lines) + "\n")
        summary = {"command": "lax-init", "ensemble": "gue", "N": N, "artifact": path}
    else:
        k_pos = int(opt.get("k_pos", 6))
        k_neg = int(opt.get("k_neg", 6))
        lax = goe_lax_init(N, k_pos, k_neg)
        path = _write(outdir, "lax_init.json", lax.to_json() + "\n")
        summary = {"command": "lax-init", "ensemble": "goe", "N": N,
                   "K_pos": k_pos, "K_neg": k_neg, "artifact": path}
    _emit(summary)
    return 0


def _horizon(opt: dict, allowed: tuple) -> tuple[int, float]:
    """Pick (flow, horizon) from the t-flags; exactly one must be set."""
    given = [(k, opt.get(f"t{k}")) for k in allowed if opt.get(f"t{k}") is not None]
    if len(given) != 1:
        names = ", ".join(f"--t{k}" for k in allowed)
        raise ValueError(f"set exactly one of {names}")
    k, horizon = given[0]
    return int(k), float(horizon)


def _sample_times(horizon: float, samples: int):
    samples = max(int(samples), 1)
    return horizon * np.arange(1, samples + 1) / samples


def _cmd_evolve(opt: dict, outdir: str) -> int:
    system = opt.get("system")
    h = float(opt.get("h", 1e-3))
    samples = int(opt.get("samples", 5))
    summary = {"command": "evolve", "system": system}

    if system == "volterra":
        flow, horizon = _horizon(opt, (2, 4, 6))
        N = int(opt.get("N", 64))
        state = VolterraState(np.arange(1.0, N + 1))
        res = evolve_volterra(state, flow, _sample_times(horizon, samples), h=h,
                              ghost=opt.get("ghost", "scaled"))
        path = _write(outdir, "evolve_volterra.csv", res.to_csv())
        summary.update(flow=flow, horizon=horizon, N=N, artifact=path,
                       influence_index=res.stats.get("influence_index"))
    elif system == "toda":
        flow, horizon = _horizon(opt, (1, 2))
        N = int(opt.get("N", 32))
        res = evolve_toda(gue_lax_init(N), flow, _sample_times(horizon, samples), h=h)
        path = _write(outdir, "evolve_toda.csv", res.to_csv())
        summary.update(flow=flow, horizon=horizon, N=N, artifact=path)
    elif system == "pfaff":
        flow, horizon = _horizon(opt, (2,))
        N = int(opt.get("N", 32))
        k_pos = int(opt.get("k_pos", 6))
        k_neg = int(opt.get("k_neg", 6))
        res = evolve_pfaff(goe_lax_init(N, k_pos, k_neg),
                           _sample_times(horizon, samples), h=h,
                           ghost=opt.get("ghost", "scaled"))
        path = _write(outdir, "evolve_pfaff.csv", res.to_csv())
        summary.update(horizon=horizon, N=N, K_pos=k_pos, K_neg=k_neg, artifact=path,
                       influence_index=res.stats.get("influence_index"))
    elif system == "reduced":
        flow, horizon = _horizon(opt, (2,))
        k_max = int(opt.get("k_pos", 6))
        state = ReducedChainState(0.5, np.full(k_max, 2.0))
        res = evolve_reduced(state, _sample_times(horizon, samples), h=h)
        path = _write(outdir, "evolve_reduced.csv", res.to_csv())
        summary.update(horizon=horizon, k_max=k_max, artifact=path)
    else:  # hydro
        flow, horizon = _horizon(opt, (2,))
        x = np.linspace(float(opt.get("x_lo", 0.25)), float(opt.get("x_hi", 2.25)),
                        int(opt.get("n_x", 201)))
        field = HydroChainField.initial(x, int(opt.get("k_neg", 4)),
                                        int(opt.get("k_pos", 6)))
        final, stats = evolve_hydro_chain(field, horizon)
        path = _write(outdir, "evolve_hydro.csv", final.to_csv())
        summary.update(horizon=horizon, n_x=len(x), steps=stats["steps"],
                       artifact=path)
    _emit(summary)
    return 0


# --- verify suites ---------------------------------------------------------

def verify_init_gue(n_max: int = 10, tolerance: float = 1e-8) -> IdentityReport:
    """Quadrature-built tridiagonal data against the closed forms a=0, b=sqrt(n),
    plus vanishing first-coupling log-derivative of the determinant tau.

    Every tau_m and its derivative, m <= n_max, is evaluated on one frozen
    grid built for n_max, which `_tau_grid` makes accurate for every m <= n_max.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    lax = toda_lax_from_quadrature(_T0, n_max)
    n = np.arange(1.0, n_max)
    err_a = float(np.max(np.abs(lax.a)))
    err_b = float(np.max(np.abs(lax.b / np.sqrt(n) - 1.0)))
    grid = _tau_grid("unitary", n_max, _T0, frozen=True)
    worst_d = 0.0
    for m in range(1, n_max + 1):
        tau_m = _tau_value("unitary", m, *log_tau("unitary", m, _T0, grid=grid))
        d = tau_coupling_derivative("unitary", m, _T0, {1: 1}, grid=grid)
        worst_d = max(worst_d, abs(d) / tau_m)
    resid = max(err_a, err_b, worst_d)
    meta = {"n_max": n_max, "err_a": err_a, "err_b_rel": err_b,
            "max_t1_logderiv": worst_d}
    return IdentityReport.from_residual("gue-initial-data", resid, tolerance, meta=meta)


def verify_init_goe(n_sites: int = 8, k_band: int = 6,
                    tolerance: float = 1e-9) -> IdentityReport:
    """Closed-form band entries against the skew Gram-Schmidt oracle, which
    orthogonalizes the Stieltjes basis of rho^2 on N + K + 1 pairs."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be at least 1, got {n_sites}")
    n_pairs = n_sites + k_band + 1
    oracle = pfaff_lax_from_basis(_skew_basis(_T0, n_pairs), n_sites, k_band, k_band)
    closed = goe_lax_init(n_sites, k_band, k_band)
    resid = float(np.max(np.abs(oracle.w - closed.w)))
    meta = {"n_sites": n_sites, "k_band": k_band,
            "w[1][2]": float(oracle.w[k_band + 1, 1]),
            "w[2][1]": float(oracle.w[k_band + 2, 0]) if k_band >= 2 else math.nan}
    return IdentityReport.from_residual("goe-initial-data", resid, tolerance, meta=meta)


def verify_scaling(n_sites: int = 64, horizon: float = 0.2,
                   tolerance: float = 1e-8) -> IdentityReport:
    """Integrated pure-t2 trajectories against the exact scaling family."""
    margin = 8
    if n_sites <= margin:
        raise ValueError(f"n_sites must exceed the margin {margin}, got {n_sites}")
    times = _sample_times(horizon, 4)
    state = VolterraState(np.arange(1.0, n_sites + 1))
    res = evolve_volterra(state, 2, times, h=1e-3)
    worst = 0.0
    for t, s in zip(res.times, res.states):
        exact = np.arange(1.0, n_sites + 1) / (1.0 - 2.0 * t)
        worst = max(worst, float(np.max(np.abs(s.B[:n_sites - margin]
                                               - exact[:n_sites - margin]))))
    red = evolve_reduced(ReducedChainState(0.5, np.full(6, 2.0)), times)
    for t, s in zip(red.times, red.states):
        worst = max(worst, abs(s.Wm1 - 0.5 / (1.0 - 2.0 * t)),
                    float(np.max(np.abs(s.W - 2.0))))
    meta = {"n_sites": n_sites, "horizon": horizon, "margin": margin}
    return IdentityReport.from_residual("t2-scaling", worst, tolerance, meta=meta)


def verify_commute(n_states: int = 20, seed: int = 811, n_sites: int = 20,
                   k_band: int = 6, tolerance: float = 1e-12) -> IdentityReport:
    """Banded chain right-hand side against the projected dense commutator at
    random structurally valid states; interior columns only."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    interior = n_sites - 8
    for _ in range(n_states):
        w = rng.uniform(0.3, 2.0, (2 * k_band + 1, n_sites))
        w[:k_band - 2] *= 1e-2
        state = PfaffLax(w, k_neg=k_band, k_pos=k_band)
        chain = pfaff_chain_rhs(state)
        comm = pfaff_commutator_rhs(state)
        worst = max(worst, float(np.max(np.abs(chain[:, :interior]
                                               - comm[:, :interior]))))
    meta = {"n_states": n_states, "seed": seed, "n_sites": n_sites,
            "k_band": k_band, "interior_cols": interior}
    return IdentityReport.from_residual("chain-commutator", worst, tolerance, meta=meta)


def verify_reduction(n_sites: int = 48, horizon: float = 0.15,
                     tolerance: float = 1e-8) -> IdentityReport:
    traj = evolve_pfaff(goe_lax_init(n_sites, 9, 7), _sample_times(horizon, 3),
                        h=1e-3)
    return reduction_invariants(traj, tolerance=tolerance)


def verify_tau_cross(n_pairs: int = 4, tolerance: float = 1e-6) -> IdentityReport:
    """Band entries recovered from tau-ratio derivatives against closed forms."""
    entries = pfaff_entries_from_tau(_T0, n_pairs)
    worst = 0.0
    per = {}
    for n in range(1, n_pairs + 1):
        c = float(c_coeff(n))
        expect = {(0, n): c / 2.0,
                  (1, n): 2.0 * sqrt_ratio_product(n, 1),
                  (-1, n): 0.5}
        for key, val in expect.items():
            err = abs(entries[key] - val)
            per[f"w[{key[0]}][{key[1]}]"] = err
            worst = max(worst, err)
    meta = {"n_pairs": n_pairs, "per_entry": per}
    return IdentityReport.from_residual("tau-lax-cross", worst, tolerance, meta=meta)


def _mkp_state(n_sites: int = 64) -> VolterraState:
    n = np.arange(1.0, n_sites + 1)
    return VolterraState(0.5 + 0.25 * np.exp(-(((n - 10.0) / 4.0) ** 2)))


_SUITES = {
    "init-gue": lambda opt: verify_init_gue(
        n_max=int(opt.get("N", 10)), tolerance=float(opt.get("tolerance", 1e-8))),
    "init-goe": lambda opt: verify_init_goe(
        n_sites=int(opt.get("N", 8)), k_band=int(opt.get("K", 6)),
        tolerance=float(opt.get("tolerance", 1e-9))),
    "scaling": lambda opt: verify_scaling(
        n_sites=int(opt.get("N", 64)), tolerance=float(opt.get("tolerance", 1e-8))),
    "mkp": lambda opt: mkp_residuals(
        int(opt.get("n", 8)), _mkp_state(int(opt.get("N", 64))),
        tolerance=float(opt.get("tolerance", 1e-3))),
    "kp": lambda opt: kp_residual(
        int(opt.get("n", 2)), tolerance=float(opt.get("tolerance", 1e-3))),
    "commute": lambda opt: verify_commute(
        seed=int(opt.get("seed", 811)), tolerance=float(opt.get("tolerance", 1e-12))),
    "reduction": lambda opt: verify_reduction(
        n_sites=int(opt.get("N", 48)), tolerance=float(opt.get("tolerance", 1e-8))),
    "observables": lambda opt: observables_check(
        int(opt.get("n", 1)), tolerance=float(opt.get("tolerance", 1e-8))),
    "tau-cross": lambda opt: verify_tau_cross(
        n_pairs=int(opt.get("n", 4)), tolerance=float(opt.get("tolerance", 1e-6))),
    "skew-map": lambda opt: skew_hermite_map_check(
        int(opt.get("n", 6)), tol=float(opt.get("tolerance", 1e-9))),
}


def _cmd_verify(opt: dict, outdir: str) -> int:
    suite = opt.get("suite")
    report = _SUITES[suite](opt)
    path = _write(outdir, f"verify_{suite}.json", report.to_json() + "\n")
    _emit({"command": "verify", "suite": suite, "identity": report.identity,
           "pass": report.passed, "residual": report.residual_abs,
           "tolerance": report.tolerance, "artifact": path})
    return 0 if report.passed else 1


def _cmd_continuum(opt: dict, outdir: str) -> int:
    mode = opt.get("mode")
    if mode == "hopf":
        t2 = float(opt.get("t2", 0.2))
        c = float(opt.get("c", 2.0))
        k = int(opt.get("k", 1))
        x = np.linspace(float(opt.get("x_lo", 0.5)), float(opt.get("x_hi", 2.0)),
                        int(opt.get("n_x", 101)))
        u = hopf_solve(lambda q: q, c, k, x, t2)
        lines = ["x,u"] + ["%.17g,%.17g" % (xi, ui) for xi, ui in zip(x, u)]
        path = _write(outdir, "continuum_hopf.csv", "\n".join(lines) + "\n")
        _emit({"command": "continuum", "mode": "hopf", "t2": t2, "c": c, "k": k,
               "artifact": path})
        return 0
    if mode == "chain":
        report = hydro_scaling_check(t_target=float(opt.get("t2", 0.15)))
    else:
        report = continuum_convergence(t2=float(opt.get("t2", 0.1)))
    path = _write(outdir, f"continuum_{mode}.json", report.to_json() + "\n")
    _emit({"command": "continuum", "mode": mode, "identity": report.identity,
           "pass": report.passed, "residual": report.residual_abs, "artifact": path})
    return 0 if report.passed else 1


def _cmd_scan(opt: dict, outdir: str) -> int:
    report = haantjes_scan(window=int(opt.get("window", 10)),
                           n_points=int(opt.get("points", 100)),
                           seed=int(opt.get("seed", 20260823)))
    path = _write(outdir, "scan_haantjes.json", report.to_json() + "\n")
    _emit({"command": "scan-haantjes", "identity": report.identity,
           "pass": report.passed, "residual": report.residual_abs, "artifact": path})
    return 0 if report.passed else 1


_HANDLERS = {
    "tau": _cmd_tau,
    "lax-init": _cmd_lax_init,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
    "continuum": _cmd_continuum,
    "scan-haantjes": _cmd_scan,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _load_config(args.config)
        opt = {**cfg, **{k: v for k, v in vars(args).items() if v is not None}}
        outdir = _outdir(args, cfg)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](opt, outdir)
    except TauLatticeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
