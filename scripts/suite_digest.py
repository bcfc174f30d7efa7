#!/usr/bin/env python3
"""Print two sha256 digests that tell whether a change moved any number.

    PYTHONPATH=src python3 scripts/suite_digest.py

The first line hashes the `identities.SUITES` reports at their defaults,
`json.dumps(report.to_dict(), sort_keys=True)` of each in `SUITES` order
(the reports hold no timings).
The second hashes a fixed sweep of the hydrodynamic chain march: from the
scaling family at t = 0 and from a perturbation of it, with the boundary
strips driven by the exact solution and frozen, on 41, 101 and 201 cells
of [0.25, 2.25] up to t = 0.05, each run's u, v and time stamp as bytes
and its stats as sorted JSON.  Run it on two checkouts and compare the
lines: equal digests mean byte-identical results.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import numpy as np

from taulattice import identities
from taulattice.continuum import HydroChainField, _scaling_rows, evolve_hydro_chain

MARCH_CELLS = (41, 101, 201)
MARCH_T = 0.05


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


def main() -> int:
    print(f"suites {suite_digest()}")
    print(f"march  {march_digest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
