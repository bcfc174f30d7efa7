"""Spans around the calls into each taulattice layer, from outside the package.

install() wraps every public function of each layer module (its __all__, or
for cli the public functions it defines) plus flows._rk4_segment, which
identities imports, and rebinds each wrapper under every name any taulattice
module bound the original to, so calls across layers nest. Private kernels
stay unwrapped: a span costs about a microsecond, which would distort the
hottest inner loops.

A span is (name, start, end, parent span, task id), kept in memory and
written out at the end. A span's self time is its duration minus the time
its child spans cover; times are scaled to reference speed per task (see
speed.py). Counts (grid nodes, stepper steps, artifact bytes) are read from
return values at the same boundary.
"""

from __future__ import annotations

import functools
import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("couplings", "moments", "lax", "flows", "identities", "continuum",
          "numdiff", "cli")
EXTRA = ("flows._rk4_segment",)
EVOLVERS = ("flows.evolve_toda", "flows.evolve_volterra", "flows.evolve_pfaff",
            "flows.evolve_reduced")


def _public(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for n in names:
        obj = getattr(mod, n)
        if (callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__):
            yield n, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts = defaultdict(float)
        self.grid_keys: set = set()
        self.task_id = -1
        self.active = False
        self._stack: list = []
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)   # a span's index precedes its children's
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.task_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap the layers' public functions in every taulattice namespace."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules["taulattice." + layer]
            for n, obj in _public(mod):
                originals[id(obj)] = (obj, self._wrap("%s.%s" % (layer, n), obj))
        for qual in EXTRA:
            layer, n = qual.split(".")
            obj = getattr(sys.modules["taulattice." + layer], n)
            originals[id(obj)] = (obj, self._wrap(qual, obj))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "taulattice" or mname.startswith("taulattice.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._restore:
            setattr(mod, attr, val)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, scale: dict) -> dict:
        """Per-layer numbers per task of the traced pass.

        `scale` maps task id to the factor that brings its times to
        reference speed. Self time is a span's duration less the durations
        of its children.
        """
        n = len(self.names)
        self_s, total_s, n_calls = [0.0] * n, [0.0] * n, [0] * n
        covered = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            nid, t0, t1, parent, task = self.spans[i]
            dur = t1 - t0
            f = scale.get(task, 1.0)
            self_s[nid] += (dur - covered[i]) * f
            total_s[nid] += dur * f
            n_calls[nid] += 1
            if parent >= 0:
                covered[parent] += dur
        per = 1.0 / max(len(scale), 1)
        idx = {name: i for i, name in enumerate(self.names)}

        def get(series, name):
            return series[idx[name]] if name in idx else 0.0

        def self_(name):
            return get(self_s, name) * per

        def calls(name):
            return get(n_calls, name) * per

        def total(name):
            return get(total_s, name)

        def ratio(a, b):
            return a / b if b else 0.0

        def layer_sum(series, layer):
            return sum(v for name, v in zip(self.names, series)
                       if name.startswith(layer + "."))

        m = {}
        for layer in LAYERS:
            m[layer + ".self_s"] = (layer_sum(self_s, layer) * per, "s/task")
            m[layer + ".calls"] = (layer_sum(n_calls, layer) * per, "1/task")
        c = self.counts
        bq = "couplings.build_quadrature"
        m[bq + ".calls"] = (calls(bq), "1/task")
        m[bq + ".self_s"] = (self_(bq), "s/task")
        m[bq + ".distinct_ratio"] = (ratio(len(self.grid_keys), get(n_calls, bq)), "ratio")
        m["couplings.cumulative_integral.self_s"] = (
            self_("couplings.cumulative_integral"), "s/task")
        m["couplings.grid_nodes"] = (c["grid_nodes"] * per, "1/task")
        for name in ("numdiff.mixed_derivative", "moments.skew_matrix_on_grid",
                     "moments.pfaffian", "flows.volterra_rhs",
                     "continuum.spatial_derivative"):
            m[name + ".calls"] = (calls(name), "1/task")
            m[name + ".self_s"] = (self_(name), "s/task")
        for name in ("lax.skew_orthonormal_basis", "lax.pfaff_entries_from_tau",
                     "lax.goe_lax_init", "identities.reduction_invariants",
                     "identities.mkp_residuals", "continuum.evolve_hydro_chain",
                     "continuum.haantjes_scan"):
            m[name + ".self_s"] = (self_(name), "s/task")
        m["moments.tau.self_s"] = (self_("moments.tau_unitary")
                                   + self_("moments.tau_orthogonal"), "s/task")
        m["flows._rk4_segment.calls"] = (calls("flows._rk4_segment"), "1/task")
        evolve_s = sum(total(n) for n in EVOLVERS)
        m["flows.steps"] = (c["steps"] * per, "1/task")
        m["flows.rhs_evals"] = (c["rhs_evals"] * per, "1/task")
        m["flows.us_per_rhs"] = (1e6 * ratio(evolve_s, c["rhs_evals"]), "us")
        m["flows.site_updates_per_s"] = (ratio(c["site_updates"], evolve_s), "1/s")
        m["continuum.hydro_steps"] = (c["hydro_steps"] * per, "1/task")
        m["continuum.us_per_hydro_step"] = (
            1e6 * ratio(total("continuum.evolve_hydro_chain"), c["hydro_steps"]), "us")
        m["continuum.ms_per_tensor_point"] = (
            1e3 * ratio(total("continuum.haantjes_scan"), c["tensor_points"]), "ms")
        m["cli.bytes_written"] = (c["bytes_written"] * per, "B/task")
        return m

    def write_spans(self, path: str):
        with open(path, "w") as f:
            f.write("name,start,end,parent,task\n")
            for nid, t0, t1, parent, task in self.spans:
                f.write("%s,%.9f,%.9f,%d,%d\n" % (self.names[nid], t0, t1, parent, task))


# -- counts taken from return values -------------------------------------------

def _grid_hook(tr, args, kwargs, grid):
    t = args[0] if args else kwargs["t"]
    tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-12)
    tr.grid_keys.add((t.entries, t.parity_even_only, tol, kwargs.get("max_degree", 0),
                      kwargs.get("points_per_panel", 24)))
    tr.counts["grid_nodes"] += len(grid.nodes)


def _evolve_hook(tr, args, kwargs, result):
    st = result.stats
    if st.get("stepper") != "rk4":
        # the adaptive pair reports RHS evaluations as 'steps'
        tr.counts["rhs_evals"] += st["steps"]
        return
    tr.counts["steps"] += st["steps"]
    tr.counts["rhs_evals"] += 4 * st["steps"]
    sites = st.get("n_evolve") or result.states[0].n_sites
    tr.counts["site_updates"] += sites * st["steps"]


def _hydro_hook(tr, args, kwargs, result):
    tr.counts["hydro_steps"] += result[1]["steps"]


def _scan_hook(tr, args, kwargs, report):
    tr.counts["tensor_points"] += report.meta["n_points"]


def _cli_hook(tr, args, kwargs, rc):
    argv = args[0] if args else kwargs.get("argv") or []
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        for entry in os.scandir(out):
            if entry.is_file():
                tr.counts["bytes_written"] += entry.stat().st_size


_HOOKS = {"couplings.build_quadrature": _grid_hook,
          "continuum.evolve_hydro_chain": _hydro_hook,
          "continuum.haantjes_scan": _scan_hook,
          "cli.main": _cli_hook}
_HOOKS.update({name: _evolve_hook for name in EVOLVERS})


# -- import time per layer -------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def layer_import_s(stderr_text: str) -> dict:
    """Each layer's import time from one `python -X importtime` log.

    A layer's share is its cumulative time minus that of the taulattice
    modules nested under it, so third-party imports land on the layer that
    first pulled them in.
    """
    stack = []   # (depth, cumulative_us, module, children) in completion order
    nodes = {}
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3))
        node = (depth, int(m.group(2)), m.group(4), [])
        while stack and stack[-1][0] > depth:
            node[3].append(stack.pop())
        stack.append(node)
        nodes[node[2]] = node

    def nested_package_us(node):
        total = 0
        for child in node[3]:
            if child[2].startswith("taulattice"):
                total += child[1]
            else:
                total += nested_package_us(child)
        return total

    out = {}
    for layer in LAYERS:
        node = nodes.get("taulattice." + layer)
        out[layer] = 0.0 if node is None else (node[1] - nested_package_us(node)) * 1e-6
    return out


def measure_import_s(python: str, env: dict, cwd: str, samples: int) -> dict:
    """Median per-layer import time over fresh interpreters (one warm-up first)."""
    runs = []
    for i in range(samples + 1):
        proc = subprocess.run([python, "-X", "importtime", "-c",
                               "import taulattice, taulattice.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            runs.append(layer_import_s(proc.stderr))
    return {layer: statistics.median(r[layer] for r in runs) for layer in LAYERS}
