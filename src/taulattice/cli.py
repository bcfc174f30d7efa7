"""Command-line front end.

Four commands: `tau` (a partition-function value), `lax-init` (an initial
operator window), `evolve` (a lattice flow, the hydrodynamic chain, or the
Hopf solution) and `verify` (one suite of `identities.SUITES`, the continuum
checks among them).  Each reads flags plus an optional JSON config file
(flags win; config values meet the same types and choices as flags), writes
a CSV/JSON artifact to an output directory, prints a one-line JSON summary,
and exits 0 only when every requested check passes.  Exit codes: 0 pass,
1 check failure, 2 usage or config error.

`main` can be called many times in one process: the argument tree is built
on the first call and shared.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import identities
from .continuum import HydroChainField, evolve_hydro_chain, hopf_solve
from .couplings import CouplingVector
from .errors import TauLatticeError
from .flows import (ReducedChainState, VolterraState, _csv_text, _sample_times,
                    evolve_pfaff, evolve_reduced, evolve_toda, evolve_volterra)
# verify_commute is re-exported: the benchmark runs it as taulattice.cli's
from .identities import SUITES, verify_commute  # noqa: F401
from .lax import goe_lax_init, gue_lax_init
from .moments import tau_orthogonal, tau_unitary


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
    q.add_argument("system", choices=tuple(_EVOLVE_READS))
    q.add_argument("--t1", type=float)
    q.add_argument("--t2", type=float)
    q.add_argument("--t4", type=float)
    q.add_argument("--t6", type=float)
    q.add_argument("--N", type=int)
    q.add_argument("--h", type=float)
    q.add_argument("--K-pos", dest="k_pos", type=int)
    q.add_argument("--K-neg", dest="k_neg", type=int)
    q.add_argument("--samples", type=int)
    q.add_argument("--x-lo", dest="x_lo", type=float)
    q.add_argument("--x-hi", dest="x_hi", type=float)
    q.add_argument("--n-x", dest="n_x", type=int)
    q.add_argument("--c", type=float)
    q.add_argument("--k", type=int)

    q = sub.add_parser("verify", help="run one verification suite")
    q.add_argument("suite", choices=tuple(SUITES))
    for flag in dict.fromkeys(f for _, reads in SUITES.values() for f in reads):
        q.add_argument("--" + flag, type=int)
    q.add_argument("--tolerance", type=float)
    return p


def _options(command: str) -> dict:
    """dest -> action of each flag the command declares."""
    sub = next(a for a in _parser()._actions if a.dest == "command")
    return {a.dest: a for a in sub.choices[command]._actions if a.option_strings}


def _load_config(path: str | None, command: str) -> dict:
    """The config file's values; those of the command's flags typed and
    checked, each type reading the value's JSON text (a JSON string as it
    is) as it reads the flag's: {"N": 8.9} and {"N": true} are refused."""
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for dest, action in _options(command).items():
        if dest in cfg:
            raw = cfg[dest]
            try:
                value = raw if action.type is None else action.type(
                    raw if isinstance(raw, str) else json.dumps(raw))
            except ValueError:
                raise ValueError(f"config {dest}={raw!r} is not {action.type.__name__}") from None
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"config {dest}={raw!r} is not one of "
                                 f"{', '.join(map(repr, action.choices))}")
            cfg[dest] = value
    return cfg


def _outdir(args, cfg) -> str:
    if args.out:
        return args.out
    env = os.environ.get("TAULATTICE_OUT")
    if env:
        return env
    return cfg.get("out", ".")


def _publish(outdir: str, name: str, text: str, summary: dict, passed: bool = True) -> int:
    """Write the artifact `name`, print the summary with its path, and return
    the exit code: 0 if the run passed, else 1."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as f:
        f.write(text)
    print(json.dumps({**summary, "artifact": path}, sort_keys=True))
    return 0 if passed else 1


def _given(opt: dict, keywords: dict) -> dict:
    """{keyword: opt[option]} for each option -> keyword whose option opt holds."""
    return {kw: opt[name] for name, kw in keywords.items() if name in opt}


def _couplings(opt: dict) -> CouplingVector:
    """The couplings option: a JSON object of index -> number, bare or under
    "t", as text (the flag) or parsed (a config file)."""
    raw = opt.get("couplings")
    if raw is None:
        return CouplingVector.from_mapping({})
    return CouplingVector.from_object(json.loads(raw) if isinstance(raw, str) else raw)


# ---------------------------------------------------------------------------
# command handlers

def _cmd_tau(opt: dict, outdir: str) -> int:
    ensemble, n, t = opt.get("ensemble"), opt.get("n"), _couplings(opt)
    value = (tau_unitary if ensemble == "unitary" else tau_orthogonal)(t, n)
    summary = {"command": "tau", "ensemble": ensemble, "n": n,
               "couplings": t.as_dict(), "tau": value}
    return _publish(outdir, "tau.json", json.dumps(summary, sort_keys=True, indent=2) + "\n",
                    summary)


def _cmd_lax_init(opt: dict, outdir: str) -> int:
    ensemble = opt.get("ensemble", "goe")
    N = opt.get("N", 8)
    if ensemble == "gue":
        lax = gue_lax_init(N)
        rows = zip(range(1, N + 1), lax.a, np.append(lax.b, 0.0))
        return _publish(outdir, "lax_init.csv", _csv_text(["n", "a", "b"], rows),
                        {"command": "lax-init", "ensemble": "gue", "N": N})
    k_pos, k_neg = opt.get("k_pos", 6), opt.get("k_neg", 6)
    return _publish(outdir, "lax_init.json", goe_lax_init(N, k_pos, k_neg).to_json() + "\n",
                    {"command": "lax-init", "ensemble": "goe", "N": N,
                     "K_pos": k_pos, "K_neg": k_neg})


# evolve system -> the flags it reads
_EVOLVE_READS = {
    "toda": ("t1", "t2", "N", "h", "samples"),
    "volterra": ("t2", "t4", "t6", "N", "h", "samples"),
    "pfaff": ("t2", "N", "h", "k_pos", "k_neg", "samples"),
    "reduced": ("t2", "h", "k_pos", "samples"),
    "hydro": ("t2", "k_neg", "k_pos", "x_lo", "x_hi", "n_x"),
    "hopf": ("t2", "c", "k", "x_lo", "x_hi", "n_x"),
}


def _horizon(opt: dict, system: str) -> tuple[int, float]:
    """Pick (flow, horizon) from the system's t-flags; exactly one must be set."""
    allowed = [int(f[1:]) for f in _EVOLVE_READS[system] if f.startswith("t")]
    given = [(k, opt.get(f"t{k}")) for k in allowed if opt.get(f"t{k}") is not None]
    if len(given) != 1:
        names = ", ".join(f"--t{k}" for k in allowed)
        raise ValueError(f"set exactly one of {names}")
    return given[0]


def _cmd_evolve(opt: dict, outdir: str) -> int:
    system = opt.get("system")
    flow, horizon = _horizon(opt, system)
    times = lambda horizon: _sample_times(horizon, opt.get("samples", 5))
    step = _given(opt, {"h": "h"})
    summary = {"command": "evolve", "system": system}

    if system == "volterra":
        N = opt.get("N", 64)
        res = evolve_volterra(VolterraState(np.arange(1.0, N + 1)), flow, times(horizon),
                              **step)
        summary.update(flow=flow, horizon=horizon, N=N,
                       influence_index=res.stats.get("influence_index"))
    elif system == "toda":
        N = opt.get("N", 32)
        res = evolve_toda(gue_lax_init(N), flow, times(horizon), **step)
        summary.update(flow=flow, horizon=horizon, N=N)
    elif system == "pfaff":
        N, k_pos, k_neg = opt.get("N", 32), opt.get("k_pos", 6), opt.get("k_neg", 6)
        res = evolve_pfaff(goe_lax_init(N, k_pos, k_neg), times(horizon), **step)
        summary.update(horizon=horizon, N=N, K_pos=k_pos, K_neg=k_neg,
                       influence_index=res.stats.get("influence_index"))
    elif system == "reduced":
        k_max = opt.get("k_pos", 6)
        res = evolve_reduced(ReducedChainState(0.5, np.full(k_max, 2.0)), times(horizon),
                             **step)
        summary.update(horizon=horizon, k_max=k_max)
    elif system == "hopf":
        c, k = opt.get("c", 2.0), opt.get("k", 1)
        x = np.linspace(opt.get("x_lo", 0.5), opt.get("x_hi", 2.0), opt.get("n_x", 101))
        u = hopf_solve(lambda q: q, c, k, x, horizon)
        summary.update(horizon=horizon, c=c, k=k)
        return _publish(outdir, "evolve_hopf.csv", _csv_text(["x", "u"], zip(x, u)), summary)
    else:  # hydro
        x = np.linspace(opt.get("x_lo", 0.25), opt.get("x_hi", 2.25), opt.get("n_x", 201))
        field = HydroChainField.initial(x, **_given(opt, {"k_neg": "k_neg", "k_pos": "k_pos"}))
        res, stats = evolve_hydro_chain(field, horizon)
        summary.update(horizon=horizon, n_x=len(x), steps=stats["steps"])
    return _publish(outdir, f"evolve_{system}.csv", res.to_csv(), summary)


def _cmd_verify(opt: dict, outdir: str) -> int:
    name = opt["suite"]
    check, reads = SUITES[name]
    report = getattr(identities, check)(**_given(opt, {**reads, "tolerance": "tolerance"}))
    summary = {"command": "verify", "suite": name, "tolerance": report.tolerance,
               "identity": report.identity, "pass": report.passed,
               "residual": report.residual_abs}
    return _publish(outdir, f"verify_{name}.json", report.to_json() + "\n", summary,
                    report.passed)


_HANDLERS = {
    "tau": _cmd_tau,
    "lax-init": _cmd_lax_init,
    "evolve": _cmd_evolve,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    flags = {k: v for k, v in vars(args).items() if v is not None}
    try:
        cfg = _load_config(args.config, args.command)
        opt = {**cfg, **flags}
        outdir = _outdir(args, cfg)
        if args.command in ("verify", "evolve"):   # config keys stay free: one file serves all
            choice = args.suite if args.command == "verify" else args.system
            reads = ((*SUITES[choice][1], "tolerance") if args.command == "verify"
                     else _EVOLVE_READS[choice])
            options = _options(args.command)
            unread = (options.keys() & flags.keys()) - set(reads)
            if unread:
                raise ValueError(f"{args.command} {choice} does not read " + ", ".join(
                    options[dest].option_strings[0] for dest in sorted(unread)))
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](opt, outdir)
    except TauLatticeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:   # OSError: an unusable --out
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
