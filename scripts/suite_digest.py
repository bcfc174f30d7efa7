#!/usr/bin/env python3
"""Print three sha256 digests that tell whether a change moved any number.

    PYTHONPATH=src python3 scripts/suite_digest.py

The first line hashes the `identities.SUITES` reports at their defaults,
`json.dumps(report.to_dict(), sort_keys=True)` of each in `SUITES` order
(the reports hold no timings).
The second hashes a fixed sweep of the hydrodynamic chain march: from the
scaling family at t = 0 and from a perturbation of it, with the boundary
strips driven by the exact solution and frozen, on 41, 101 and 201 cells
of [0.25, 2.25] up to t = 0.05, each run's u, v and time stamp as bytes
and its stats as sorted JSON.
The third hashes a fixed sweep of lattice marches: `evolve_pfaff` from
`goe_lax_init` at C03's (64, 6, 6) and C04's (48, 9, 7) windows, at
(256, 6, 6), at (64, 3, 6), whose band family above band 1 holds one band,
at (64, 2, 3), with none above and one below, and at (600, 6, 6) with
h = 5e-4, inside the stability edge; `evolve_volterra` on flows 2, 4 and 6;
`evolve_toda` on flows 1 and 2; each march's states as bytes and its
stats as sorted JSON.  Run it on two checkouts and compare the lines:
equal digests mean byte-identical results.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import numpy as np

from taulattice import (TodaLax, VolterraState, evolve_pfaff, evolve_toda, evolve_volterra,
                        goe_lax_init, identities)
from taulattice.continuum import HydroChainField, _scaling_rows, evolve_hydro_chain

MARCH_CELLS = (41, 101, 201)
MARCH_T = 0.05
PFAFF_MARCHES = (((64, 6, 6), 1e-3), ((48, 9, 7), 1e-3), ((256, 6, 6), 1e-3),
                 ((64, 3, 6), 1e-3), ((64, 2, 3), 1e-3), ((600, 6, 6), 5e-4))


def suite_digest(names=None) -> str:
    """sha256 over the named `SUITES` reports at their defaults, in
    `SUITES` order."""
    h = hashlib.sha256()
    for name, (function, _) in identities.SUITES.items():
        if names is None or name in names:
            report = getattr(identities, function)()
            h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _march_starts(x):
    start = HydroChainField.initial(x, 4, 6)
    bump = 0.01 * np.sin(7.0 * x + np.arange(start.u.shape[0])[:, None])
    return start, HydroChainField(x, start.u + bump, start.v, 4)


def march_digest() -> str:
    """sha256 over the fields and stats of the fixed chain-march sweep."""
    h = hashlib.sha256()
    drive = partial(_scaling_rows, k_neg=4, k_pos=6)
    for n in MARCH_CELLS:
        for start in _march_starts(np.linspace(0.25, 2.25, n)):
            for edge_drive in (drive, None):
                field, stats = evolve_hydro_chain(start, MARCH_T, edge_drive=edge_drive)
                for a in (field.u, field.v, np.float64(field.time)):
                    h.update(a.tobytes())
                h.update(json.dumps(stats, sort_keys=True).encode())
    return h.hexdigest()


def _lattice_marches():
    """The fixed sweep of lattice marches, as EvolutionResults."""
    times = [0.05, 0.1]
    for shape, h in PFAFF_MARCHES:
        yield evolve_pfaff(goe_lax_init(*shape), times, h=h)
    ramp = np.arange(1.0, 65.0)
    bump = 0.5 + 0.25 * np.exp(-(((ramp - 10.0) / 4.0) ** 2))
    yield evolve_volterra(VolterraState(ramp), 2, times, h=1e-3)
    yield evolve_volterra(VolterraState(ramp[:32]), 4, [1e-4, 2e-4], h=1e-5)
    yield evolve_volterra(VolterraState(bump), 6, times, h=1e-3)
    rng = np.random.default_rng(0)
    toda = TodaLax(rng.uniform(-1.0, 1.0, 24), rng.uniform(0.5, 2.0, 23))
    for flow in (1, 2):
        yield evolve_toda(toda, flow, times, h=1e-3)


def lattice_digest() -> str:
    """sha256 over the states and stats of the fixed lattice-march sweep."""
    h = hashlib.sha256()
    for result in _lattice_marches():
        for state in result.states:
            for name in ("w", "B", "a", "b"):
                if hasattr(state, name):
                    h.update(getattr(state, name).tobytes())
        h.update(json.dumps(result.stats, sort_keys=True).encode())
    return h.hexdigest()


def main() -> int:
    print(f"suites  {suite_digest()}")
    print(f"march   {march_digest()}")
    print(f"lattice {lattice_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
