#!/usr/bin/env python3
"""Integrate the three lattices along the exact scaling family and print the
worst interior error of each against its closed form.

The pure second-coupling flow rescales the Gaussian weight, so every object
has a known trajectory: B_n = n/(1-2t), the band rows 0/-1/-2 scale by
1/(1-2t), positive bands and the reduced W^k sit still.  Any drift printed
here is integrator or boundary-closure error, not modelling error.
"""

import argparse

import numpy as np

from taulattice import (ReducedChainState, VolterraState, evolve_pfaff,
                        evolve_reduced, evolve_volterra, exact_oracles,
                        goe_lax_init)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=64, help="lattice sites")
    ap.add_argument("--horizon", type=float, default=0.2)
    ap.add_argument("--h", type=float, default=1e-3, help="RK4 step")
    ap.add_argument("--margin", type=int, default=8,
                    help="sites excluded at the right edge")
    args = ap.parse_args()

    times = list(np.linspace(args.horizon / 4, args.horizon, 4))
    n = np.arange(1.0, args.N + 1)
    interior = slice(0, args.N - args.margin)

    print(f"N={args.N}  h={args.h}  margin={args.margin}")
    print(f"{'t':>6}  {'volterra':>12}  {'banded window':>13}  {'reduced':>12}")

    vol = evolve_volterra(VolterraState(n), 2, times, h=args.h)
    pf = evolve_pfaff(goe_lax_init(args.N, 6, 6), times, h=args.h)
    pf_oracle = exact_oracles("t2-scaling", ensemble="orthogonal", times=times,
                              n_sites=args.N, k_pos=6, k_neg=6)
    red = evolve_reduced(ReducedChainState(0.5, np.full(6, 2.0)), times, h=args.h)

    for i, t in enumerate(times):
        s = 1.0 - 2.0 * t
        e_vol = np.abs(vol.states[i].B[interior] - n[interior] / s).max()
        e_pf = np.abs(pf.states[i].w[:, interior]
                      - pf_oracle.states[i].w[:, interior]).max()
        e_red = max(abs(red.states[i].Wm1 - 0.5 / s),
                    np.abs(red.states[i].W - 2.0).max())
        print(f"{t:6.3f}  {e_vol:12.3e}  {e_pf:13.3e}  {e_red:12.3e}")

    print(f"\ninfluence index (sonic bound on edge contamination): "
          f"{vol.stats['influence_index']} of {args.N}")


if __name__ == "__main__":
    main()
