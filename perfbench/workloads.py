"""The benchmark's three workloads: seeded task lists, task runs, checks.

A workload is a fixed mix of task kinds, given per round. A run holds a
whole number of rounds, set by its length alone, so every run of the same
length has the same mix. The parameters that set a task's cost or decide
its outcome come from the j-th point of a low-discrepancy (Kronecker)
sequence mapped onto the kind's ranges. The sequence is the same for every
seed: runs of the same length cover each range evenly at the same points,
so they have nearly equal cost and the same tasks on known defects. The
seed draws the order of the tasks and the remaining parameters.

Each kind has
  draw(u, rng)       parameters from a point u of [0, 1)^dims,
  run(p, ctx)        the timed call into taulattice,
  check(p, r, ctx)   untimed checks against references that do not share
                     the timed path: a list of (name, residual, tolerance),
                     passed when residual <= tolerance (NaN never passes),
  known_bad(p)       the measured defect a task with these parameters sits
                     on, or None. Such tasks are still run, checked, timed
                     and counted as failed when they fail; only a failure
                     outside every known defect makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

tl = None    # the taulattice package, bound by load()
cli = None   # taulattice.cli


def load():
    """Import taulattice (its directory must already be on sys.path)."""
    global tl, cli
    import taulattice
    import taulattice.cli
    tl = taulattice
    cli = taulattice.cli


@dataclass(frozen=True)
class Kind:
    name: str
    dims: int
    draw: Callable
    run: Callable
    check: Callable
    known_bad: Callable = lambda p: None


class Context:
    """Per-run state the tasks share: a scratch directory for CLI artifacts."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self._n = 0

    def fresh_dir(self) -> str:
        self._n += 1
        path = os.path.join(self.scratch, "t%06d" % self._n)
        os.makedirs(path)
        return path


# ---------------------------------------------------------------------------
# helpers

def _int(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi, evenly."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _num(u: float, lo: float, hi: float) -> float:
    return float("%.6g" % (lo + u * (hi - lo)))


def _worst(values) -> float:
    """Largest value; NaN if any value is NaN (Python's max would hide it)."""
    return float(np.max(np.asarray(list(values), dtype=float)))


def _rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _times(t_end: float, samples: int) -> np.ndarray:
    return t_end * np.arange(1, samples + 1) / samples


def _report_check(report):
    """An absolute-residual report's residual against its own tolerance."""
    return ("report", report.residual_abs, report.tolerance)


# ---------------------------------------------------------------------------
# lattice_march: long trajectories

SCALING_TOL = 1e-8     # C03: interior error on the exact scaling family
STANDOFF = 8           # C03: sites kept clear of the right-edge closure


def _draw_pfaff(u, rng):
    return {"N": _int(u[0], 32, 1024), "t_end": _num(u[1], 0.05, 0.2),
            "k_pos": _int(u[2], 4, 9), "k_neg": _int(u[3], 4, 9)}


def _run_pfaff(p, ctx):
    lax = tl.goe_lax_init(p["N"], p["k_pos"], p["k_neg"])
    return tl.evolve_pfaff(lax, _times(p["t_end"], 4), h=1e-3)


def _check_pfaff(p, res, ctx):
    oracle = tl.exact_oracles("t2-scaling", ensemble="orthogonal", times=res.times,
                              n_sites=p["N"], k_pos=p["k_pos"], k_neg=p["k_neg"])
    m = p["N"] - STANDOFF
    err = _worst(_rel_err(g.w[:, :m], w.w[:, :m])
                 for g, w in zip(res.states, oracle.states))
    return [("window_rel_err", err, SCALING_TOL)]


def _bad_pfaff(p):
    # edge speed |w0 w1| grows like N / (1 - 2t): at h = 1e-3 the run loses
    # accuracy past about 750, returns non-finite windows or raises
    # ValueError past about 850 (N = 640 and N >= 768 at t = 0.2)
    if p["N"] / (1.0 - 2.0 * p["t_end"]) >= 750:
        return "evolve_pfaff unstable at h=1e-3"
    return None


def _draw_volterra(u, rng):
    return {"N": _int(u[0], 32, 1024), "t_end": _num(u[1], 0.05, 0.2)}


def _run_volterra(p, ctx):
    state = tl.VolterraState(np.arange(1.0, p["N"] + 1))
    return tl.evolve_volterra(state, 2, _times(p["t_end"], 4), h=1e-3)


def _bad_volterra(p):
    # h times the edge speed 2 B_N = 2N / (1 - 2t) past 3.2 blows up
    if 2e-3 * p["N"] / (1.0 - 2.0 * p["t_end"]) >= 3.2:
        return "evolve_volterra unstable at h=1e-3"
    return None


def _check_volterra(p, res, ctx):
    oracle = tl.exact_oracles("t2-scaling", ensemble="volterra", times=res.times,
                              n_sites=p["N"])
    m = p["N"] - STANDOFF
    err = _worst(_rel_err(g.B[:m], w.B[:m]) for g, w in zip(res.states, oracle.states))
    return [("B_rel_err", err, SCALING_TOL)]


def _run_toda(p, ctx):
    return tl.evolve_toda(tl.gue_lax_init(p["N"]), 1, _times(p["t_end"], 4), h=1e-3)


def _check_toda(p, res, ctx):
    # The finite-matrix closure is not exact on the translation family, so
    # the compared sites also stay clear of the edge signal's reach: twice
    # the largest Toda speed 2 max b = 2 sqrt(N), times the horizon.
    oracle = tl.exact_oracles("t1-translation", times=res.times, n_sites=p["N"])
    m = p["N"] - STANDOFF - math.ceil(4.0 * math.sqrt(p["N"]) * p["t_end"])
    err = _worst(max(_rel_err(g.a[:m], w.a[:m]), _rel_err(g.b[:m], w.b[:m]))
                 for g, w in zip(res.states, oracle.states))
    return [("ab_rel_err", err, SCALING_TOL)]


def _draw_reduced(u, rng):
    return {"K": _int(u[0], 4, 10), "t_end": _num(u[1], 0.05, 0.2)}


def _run_reduced(p, ctx):
    state = tl.ReducedChainState(0.5, np.full(p["K"], 2.0))
    return tl.evolve_reduced(state, _times(p["t_end"], 4))


def _check_reduced(p, res, ctx):
    err = _worst(max(abs(s.Wm1 - ref.reduced_scaling(t)) / ref.reduced_scaling(t),
                     _rel_err(s.W, np.full(p["K"], 2.0)))
                 for t, s in zip(res.times, res.states))
    return [("W_rel_err", err, SCALING_TOL)]


def _draw_commute_legs(u, rng):
    return {"N": _int(u[1], 28, 36), "t2": _num(u[0], 0.02, 0.025),
            "t4": _num(rng.random(), 5e-5, 1.5e-4)}


def _run_commute_legs(p, ctx):
    # C12 shape: the quartic flow's rates grow like 12 n^2, hence h = 1e-5
    def leg(state, flow, horizon):
        out = tl.evolve_volterra(state, flow, [horizon], h=1e-5)
        return tl.VolterraState(out.states[-1].B)

    b0 = tl.VolterraState(np.arange(1.0, p["N"] + 1))
    ab = leg(leg(b0, 2, p["t2"]), 4, p["t4"])
    ba = leg(leg(b0, 4, p["t4"]), 2, p["t2"])
    return ab.B, ba.B


def _check_commute_legs(p, res, ctx):
    ab, ba = res
    m = p["N"] - 12   # C12's standoff for the quartic leg's closure defect
    return [("order_swap_defect", float(np.max(np.abs(ab[:m] - ba[:m]))), 1e-6)]


def _draw_reduction(u, rng):
    return {"N": _int(u[0], 32, 256), "t_end": _num(u[1], 0.05, 0.15)}


def _run_reduction(p, ctx):
    # C04 shape: the banded window with 9 bands above and 7 below
    traj = tl.evolve_pfaff(tl.goe_lax_init(p["N"], 9, 7), _times(p["t_end"], 3), h=1e-3)
    return traj, tl.reduction_invariants(traj, tolerance=1e-8)


def _check_reduction(p, res, ctx):
    traj, report = res
    oracle = tl.exact_oracles("t2-scaling", ensemble="orthogonal", times=traj.times,
                              n_sites=p["N"], k_pos=9, k_neg=7)
    m = p["N"] - STANDOFF
    err = _worst(_rel_err(g.w[:, :m], w.w[:, :m])
                 for g, w in zip(traj.states, oracle.states))
    return [("invariants", report.residual_rel, 1e-8),
            ("window_rel_err", err, SCALING_TOL)]


_LEGS = ("gauss->t2", "quartic-on", "quartic-back")


def _draw_loop(u, rng):
    leg = _LEGS[_int(u[0], 0, 2)]
    if leg == "gauss->t2":
        span = _num(u[1], 0.02, 0.05)
    else:
        span = _num(u[1], 0.005, 0.025)   # C11 keeps quartic horizons <= 0.025
    return {"leg": leg, "span": span, "t4": _num(rng.random(), -0.05, -0.02)}


def _loop_ends(p):
    s, q = p["span"], p["t4"]
    if p["leg"] == "gauss->t2":
        return {}, {2: s}
    if p["leg"] == "quartic-on":
        return {4: q}, {2: s, 4: q}
    return {2: -s, 4: q}, {4: q}


def _quadrature_window(mapping, n_pairs, n_sites, k_band):
    t = tl.CouplingVector.from_mapping(mapping)
    basis = tl.skew_orthonormal_basis(tl.skew_moment_matrix(t, 2 * n_pairs), n_pairs)
    return tl.pfaff_lax_from_basis(basis, n_sites, k_band, k_band, check_tol=1e-3)


def _run_loop(p, ctx):
    # C11 shape: evolve a quadrature-built window along the t2 flow
    start, _ = _loop_ends(p)
    base = _quadrature_window(start, 14, 10, 4)
    return tl.evolve_pfaff(base, [p["span"]], h=1e-3).states[-1]


def _check_loop(p, final, ctx):
    # the target is rebuilt by quadrature at the shifted couplings
    _, end = _loop_ends(p)
    target = _quadrature_window(end, 11, 4, 2)
    err = _worst(abs(final.get(k, n) - target.get(k, n))
                 for k in range(-2, 3) for n in range(1, 5))
    return [("loop_defect", err, 1e-5)]


def _draw_commute(u, rng):
    return {"seed": int(rng.integers(0, 2**31))}


def _run_commute(p, ctx):
    return cli.verify_commute(seed=p["seed"])


def _check_commute(p, report, ctx):
    return [_report_check(report)]


# ---------------------------------------------------------------------------
# verify_suite: the command line, in-process

TAU_LOG_TOL = 1e-10   # the closed-form gate ROADMAP item 3 sets for tau


def _run_cli(ctx, argv):
    out = ctx.fresh_dir()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["--out", out] + argv)
    return {"rc": rc, "out": out, "stderr": err.getvalue().strip()}


def _artifact(res, name):
    path = os.path.join(res["out"], name)
    if not os.path.exists(path):
        raise RuntimeError("exit code %s, no %s: %s" % (res["rc"], name, res["stderr"]))
    with open(path) as f:
        return json.load(f)


def _exit_check(res):
    return ("exit_code", float(res["rc"]), 0.0)


def _draw_tau_u(u, rng):
    return {"n": _int(u[0], 1, 21), "t2": _num(u[1], -0.15, 0.15)}


def _draw_tau_o(u, rng):
    return {"size": 2 * _int(u[0], 1, 16), "t2": _num(u[1], -0.15, 0.15)}


def _tau_argv(ensemble, n, t2):
    return ["tau", "--ensemble", ensemble, "--n", str(n),
            "--couplings", json.dumps({"t": {"2": t2}})]


def _log_err(value, expect):
    if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
        return math.nan   # a non-positive or non-finite tau is never correct
    return abs(math.log(value) - expect)


def _run_tau_u(p, ctx):
    return _run_cli(ctx, _tau_argv("unitary", p["n"], p["t2"]))


def _bad_tau_u(p):
    # Hankel Cholesky: log error passes 1e-10 from n = 15 (1.2e-8 at n = 21)
    return "unitary tau ill-conditioned" if p["n"] >= 15 else None


def _check_tau_u(p, res, ctx):
    value = _artifact(res, "tau.json")["tau"]
    return [_exit_check(res),
            ("log_tau_err", _log_err(value, ref.log_tau_unitary(p["n"], p["t2"])),
             TAU_LOG_TOL)]


def _run_tau_o(p, ctx):
    return _run_cli(ctx, _tau_argv("orthogonal", p["size"], p["t2"]))


def _bad_tau_o(p):
    # monomial skew Pfaffian: past 1e-10 from size 16, >= 3e-6 from 24, a
    # negative value with exit code 0 at 32
    return "orthogonal tau ill-conditioned" if p["size"] >= 16 else None


def _check_tau_o(p, res, ctx):
    value = _artifact(res, "tau.json")["tau"]
    return [_exit_check(res),
            ("log_tau_err", _log_err(value, ref.log_tau_orthogonal(p["size"], p["t2"])),
             TAU_LOG_TOL)]


def _verify(suite, **flags):
    argv = ["verify", suite]
    for k, v in flags.items():
        argv += ["--" + k, str(v)]
    return argv


_RELATIVE_SUITES = ("kp", "mkp", "observables")   # tolerance applies to residual_rel


def _suite_checks(res, suite):
    rep = _artifact(res, "verify_%s.json" % suite)
    resid = rep["residual_rel"] if suite in _RELATIVE_SUITES else rep["residual_abs"]
    return rep, [_exit_check(res), ("report", resid, rep["tolerance"])]


def _draw_init_gue(u, rng):
    return {"N": _int(u[0], 2, 14)}


def _run_init_gue(p, ctx):
    return _run_cli(ctx, _verify("init-gue", N=p["N"]))


def _check_init_gue(p, res, ctx):
    return _suite_checks(res, "init-gue")[1]


def _draw_init_goe(u, rng):
    return {"N": _int(u[0], 4, 12), "K": _int(u[1], 2, 8)}


def _run_init_goe(p, ctx):
    return _run_cli(ctx, _verify("init-goe", N=p["N"], K=p["K"]))


def _bad_init_goe(p):
    # the quadrature oracle's skew Gram-Schmidt on N + K + 1 >= 18 pairs
    return "skew Gram-Schmidt past 17 pairs" if p["N"] + p["K"] >= 17 else None


def _check_init_goe(p, res, ctx):
    rep, checks = _suite_checks(res, "init-goe")
    meta = rep["meta"]
    checks.append(("w[1][2]", abs(meta["w[1][2]"] / ref.goe_band_entry(1, 2) - 1.0), 1e-9))
    checks.append(("w[2][1]", abs(meta["w[2][1]"] / ref.goe_band_entry(2, 1) - 1.0), 1e-9))
    return checks


def _draw_kp(u, rng):
    return {"n": _int(u[0], 1, 4)}


def _run_kp(p, ctx):
    return _run_cli(ctx, _verify("kp", n=p["n"]))


def _check_kp(p, res, ctx):
    rep, checks = _suite_checks(res, "kp")
    checks.append(("u", abs(rep["meta"]["u"] / ref.kp_u(p["n"]) - 1.0), 1e-8))
    return checks


def _draw_mkp(u, rng):
    return {"n": _int(u[0], 4, 14)}


def _run_mkp(p, ctx):
    return _run_cli(ctx, _verify("mkp", n=p["n"]))


def _bad_mkp(p):
    # relative residuals 0.64 and 1.4 at sites 10-11 of the C06 bump profile
    return "mkp residual at the bump's flank" if p["n"] in (10, 11) else None


def _check_mkp(p, res, ctx):
    # C06's verdict: both conservation systems to 1e-4 and exactly one of
    # the two printed coefficient variants within the suite's tolerance
    rep, checks = _suite_checks(res, "mkp")
    meta = rep["meta"]
    passing = sum(1 for v in meta["variants"].values() if v <= rep["tolerance"])
    checks.append(("conservation", _worst([meta["conservation_a"],
                                           meta["conservation_b"]]), 1e-4))
    checks.append(("variants_passing_minus_one", float(abs(passing - 1)), 0.0))
    return checks


def _draw_tau_cross(u, rng):
    return {"n": _int(u[0], 1, 5)}


def _run_tau_cross(p, ctx):
    return _run_cli(ctx, _verify("tau-cross", n=p["n"]))


def _bad_tau_cross(p):
    return "tau-cross at 5 pairs" if p["n"] == 5 else None


def _check_tau_cross(p, res, ctx):
    return _suite_checks(res, "tau-cross")[1]


def _draw_observables(u, rng):
    return {"n": _int(u[0], 1, 4)}


def _run_observables(p, ctx):
    return _run_cli(ctx, _verify("observables", n=p["n"]))


def _check_observables(p, res, ctx):
    rep, checks = _suite_checks(res, "observables")
    meta = rep["meta"]
    checks.append(("delta_mu", abs(meta["delta_mu"] - ref.delta_mu(p["n"])), 1e-8))
    if p["n"] == 1:   # C09's two-eigenvalue closed forms
        checks.append(("E_sum_sq", abs(meta["E_sum_sq"] - ref.PAIR_E_SUM_SQ), 1e-8))
        checks.append(("E_sq_sum", abs(meta["E_sq_sum"] - ref.PAIR_E_SQ_SUM), 1e-8))
    return checks


def _draw_skew_map(u, rng):
    return {"n": _int(u[0], 2, 12)}


def _run_skew_map(p, ctx):
    return _run_cli(ctx, _verify("skew-map", n=p["n"]))


def _check_skew_map(p, res, ctx):
    rep, checks = _suite_checks(res, "skew-map")
    meta = rep["meta"]
    checks.append(("<Q0,Q1>", abs(meta["<Q0,Q1>"] / ref.SKEW_NU0 - 1.0), 1e-9))
    checks.append(("<Q2,Q3>", abs(meta["<Q2,Q3>"] / ref.SKEW_NU1 - 1.0), 1e-9))
    return checks


# ---------------------------------------------------------------------------
# continuum_march

def _draw_hydro(u, rng):
    return {"t_target": _num(u[0], 0.1, 0.2), "n_x": _int(u[1], 161, 241)}


def _run_hydro(p, ctx):
    return tl.hydro_scaling_check(t_target=p["t_target"], n_x=p["n_x"])


def _check_hydro(p, report, ctx):
    return [_report_check(report)]


def _draw_haantjes(u, rng):
    # the scan's own seed sets its matrices, and so its cost (about 10%)
    return {"window": _int(u[0], 10, 14), "n_points": _int(u[1], 20, 60),
            "seed": _int(u[2], 0, 2**31 - 1)}


def _run_haantjes(p, ctx):
    return tl.haantjes_scan(window=p["window"], n_points=p["n_points"], seed=p["seed"])


def _check_haantjes(p, report, ctx):
    meta = report.meta
    return [("haantjes", meta["max_haantjes"], report.tolerance),
            ("closed_form", meta["max_closed_form_error"], meta["closed_tol"])]


def _draw_reduced_rhs(u, rng):
    k = _int(u[0], 4, 8)
    return {"wm1": _num(rng.random(), 0.2, 1.0),
            "W": [float("%.6g" % w) for w in rng.uniform(0.5, 3.0, k)]}


def _run_reduced_rhs(p, ctx):
    return tl.reduced_continuum_rhs(p["wm1"], np.array(p["W"]))


def _check_reduced_rhs(p, res, ctx):
    # the lattice reduction's own ODE is the second route (C04)
    dwm1, dw, _ = res
    d_lat, dw_lat = tl.reduced_chain_rhs(tl.ReducedChainState(p["wm1"], np.array(p["W"])),
                                         ghost="copy")
    # the last rate leans on the closure row: compare the rest
    err = _worst([abs(dwm1 - d_lat), float(np.max(np.abs(dw[:-1] - dw_lat[:-1])))])
    return [("rate_diff", err, 1e-8)]


def _draw_hopf(u, rng):
    k = 1 + _int(u[0], 0, 1)
    c = _num(rng.random(), 0.5, 2.0) * rng.choice((-1.0, 1.0))
    # stay before breaking on x in [0.5, 2]: 1 - c t >= 1/2 (k=1) and
    # 1 - 4 c t x >= 1/4 (k=2)
    t_max = 0.5 / abs(c) if k == 1 else 0.09 / abs(c)
    return {"k": k, "c": c, "t": _num(rng.random(), 0.1 * t_max, t_max),
            "n_x": _int(u[1], 51, 201)}


def _hopf_grid(p):
    return np.linspace(0.5, 2.0, p["n_x"])


def _run_hopf(p, ctx):
    return tl.hopf_solve(lambda q: q, p["c"], p["k"], _hopf_grid(p), p["t"])


def _check_hopf(p, u, ctx):
    return [("u_rel_err", _rel_err(u, ref.hopf_linear(p["c"], p["k"], _hopf_grid(p), p["t"])),
             1e-12)]


def _draw_convergence(u, rng):
    return {"t2": _num(u[0], 0.05, 0.15)}


def _run_convergence(p, ctx):
    return tl.continuum_convergence(t2=p["t2"])


def _check_convergence(p, report, ctx):
    meta = report.meta
    lo, hi = meta["ratio_window"]
    # halving ratios must sit in the window: distance from its centre
    ratio_dev = _worst(abs(r - 0.5 * (lo + hi)) for r in meta["volterra_ratios"])
    return [("pfaff_error", meta["pfaff_error_scaled"], meta["pfaff_tol"]),
            ("ratio_dev", ratio_dev, 0.5 * (hi - lo))]


# ---------------------------------------------------------------------------
# registry

KINDS = {k.name: k for k in (
    Kind("pfaff_scaling", 4, _draw_pfaff, _run_pfaff, _check_pfaff, _bad_pfaff),
    Kind("volterra_scaling", 2, _draw_volterra, _run_volterra, _check_volterra,
         _bad_volterra),
    Kind("toda_translation", 2, _draw_volterra, _run_toda, _check_toda),
    Kind("reduced_scaling", 2, _draw_reduced, _run_reduced, _check_reduced),
    Kind("flow_commute", 2, _draw_commute_legs, _run_commute_legs, _check_commute_legs),
    Kind("reduction", 2, _draw_reduction, _run_reduction, _check_reduction),
    Kind("loop_closure", 2, _draw_loop, _run_loop, _check_loop),
    Kind("chain_commutator", 1, _draw_commute, _run_commute, _check_commute),
    Kind("tau_unitary", 2, _draw_tau_u, _run_tau_u, _check_tau_u, _bad_tau_u),
    Kind("tau_orthogonal", 2, _draw_tau_o, _run_tau_o, _check_tau_o, _bad_tau_o),
    Kind("init_gue", 1, _draw_init_gue, _run_init_gue, _check_init_gue),
    Kind("init_goe", 2, _draw_init_goe, _run_init_goe, _check_init_goe, _bad_init_goe),
    Kind("kp", 1, _draw_kp, _run_kp, _check_kp),
    Kind("mkp", 1, _draw_mkp, _run_mkp, _check_mkp, _bad_mkp),
    Kind("tau_cross", 1, _draw_tau_cross, _run_tau_cross, _check_tau_cross, _bad_tau_cross),
    Kind("observables", 1, _draw_observables, _run_observables, _check_observables),
    Kind("skew_map", 1, _draw_skew_map, _run_skew_map, _check_skew_map),
    Kind("hydro_scaling", 2, _draw_hydro, _run_hydro, _check_hydro),
    Kind("haantjes_scan", 3, _draw_haantjes, _run_haantjes, _check_haantjes),
    Kind("reduced_rhs", 1, _draw_reduced_rhs, _run_reduced_rhs, _check_reduced_rhs),
    Kind("hopf", 2, _draw_hopf, _run_hopf, _check_hopf),
    Kind("convergence", 1, _draw_convergence, _run_convergence, _check_convergence),
)}

# Tasks of each kind per round.
WORKLOADS = {
    "lattice_march": {"pfaff_scaling": 10, "volterra_scaling": 1, "toda_translation": 1,
                      "reduced_scaling": 1, "flow_commute": 3, "reduction": 1,
                      "loop_closure": 1, "chain_commutator": 1},
    "verify_suite": {"tau_unitary": 4, "tau_orthogonal": 4, "init_gue": 2, "init_goe": 2,
                     "kp": 1, "mkp": 1, "tau_cross": 1, "observables": 1, "skew_map": 2},
    "continuum_march": {"hydro_scaling": 2, "haantjes_scan": 4, "reduced_rhs": 2,
                        "hopf": 2, "convergence": 1},
}


def _r_sequence_step(dims: int) -> np.ndarray:
    """Roberts' R_d increments: powers of 1/phi_d, phi_d^(d+1) = phi_d + 1."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return (1.0 / phi) ** np.arange(1, dims + 1)


# How strongly each workload's task times follow the speed probe (see
# speed.factor). The command-line work of verify_suite (argument parsing,
# JSON, artifact files, mid-sized quadrature arrays) slows about three
# quarters as much as the probe under load: the log-log slope of task time
# on probe time was 0.79 over repeated identical tasks and 0.73 across a
# ten-run set on a shared two-core x86-64 machine; the other two workloads
# measured 0.94 to 1.07.
SPEED_EXPONENT = {"lattice_march": 1.0, "verify_suite": 0.75, "continuum_march": 1.0}


def _kronecker_step(dims: int) -> np.ndarray:
    """Increments whose first two coordinates form an R_2 sequence on their
    own, so a kind's two leading parameters, which set its cost and decide
    its outcome, cover their square evenly; any further ones are each evenly
    spread in one dimension."""
    if dims <= 2:
        return _r_sequence_step(dims)
    return np.concatenate([_r_sequence_step(2), _r_sequence_step(dims)[2:]])


class _Stream:
    """Parameters for successive tasks of one kind."""

    def __init__(self, seed: int, kind: Kind):
        self.kind = kind
        key = zlib.crc32(kind.name.encode())
        self.rng = np.random.default_rng([seed, key])
        self.u0 = np.random.default_rng(key).random(kind.dims)   # the same for every seed
        self.step = _kronecker_step(kind.dims)
        self.j = 0

    def next(self) -> dict:
        self.j += 1
        u = (self.u0 + self.j * self.step) % 1.0
        return self.kind.draw(u, self.rng)


# Wall seconds one round of each workload takes on a shared two-core x86-64
# machine. A run of S seconds holds round(S / ROUND_S) rounds, and at least
# MIN_ROUNDS so that the slowest kind still fills the latency tail
# (lattice_march runs three flow-commutation pairs a round). The task count
# follows from the run's length, never from how fast the tasks went, so the
# same code attempts, and fails, the same tasks in every run.
ROUND_S = {"lattice_march": 4.5, "verify_suite": 0.6, "continuum_march": 1.4}
MIN_ROUNDS = 4


def n_rounds(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def plan(workload: str, seed: int, rounds: int):
    """(warm-up tasks, timed tasks), each a list of (kind name, params).

    The timed list is `rounds` times the workload's mix in a seeded order;
    the warm-up list is the mix once, at the sequence points after them.
    """
    mix = WORKLOADS[workload]
    streams = {name: _Stream(seed, KINDS[name]) for name in mix}

    def draw(times):
        return [(name, streams[name].next()) for name, count in mix.items()
                for _ in range(times * count)]

    timed = draw(rounds)
    warm = draw(1)
    order = np.random.default_rng([seed, len(timed)]).permutation(len(timed))
    return warm, [timed[i] for i in order]
