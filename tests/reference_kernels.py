"""Reference lattice kernels: the per-band loop and the np.roll stencil.

These are the straightforward forms of the Pfaff-chain and Volterra
right-hand sides.  The library's kernels evaluate the same arithmetic with
slices and precomputed gathers; the tests and scripts/kernel_equiv.py hold
them to these references bit for bit.
"""

import numpy as np


def volterra_potential(Bp: np.ndarray, flow: int) -> np.ndarray:
    if flow == 2:
        return Bp
    left, right = np.roll(Bp, 1), np.roll(Bp, -1)
    V4 = Bp * (left + Bp + right)
    if flow == 4:
        return V4
    if flow == 6:
        return Bp * (left * right + np.roll(V4, 1) + V4 + np.roll(V4, -1))
    raise ValueError(f"Volterra flows are 2, 4 or 6, got {flow}")


def volterra_rhs_padded(Bp: np.ndarray, flow: int) -> np.ndarray:
    """Full-length rates; valid wherever 4 neighbours each side are real."""
    V = volterra_potential(Bp, flow)
    return Bp * (np.roll(V, -1) - np.roll(V, 1))


def pfaff_core(Q: np.ndarray, k_neg: int, k_pos: int, n_sites: int) -> np.ndarray:
    """Five-branch chain RHS on a padded window, one band at a time.

    Q rows hold bands -k_neg-1 .. k_pos+1 (ghost row each side), columns
    hold sites 0 .. n_sites+pad.  Returns dQ with ghost rows/cols zero.
    """
    dQ = np.zeros_like(Q)
    off = k_neg + 1

    def s(d):
        return slice(1 + d, 1 + n_sites + d)

    W0 = Q[off]
    P = Q[off] * Q[off + 1]
    for ell in range(-k_neg, k_pos + 1):
        r = ell + off
        w = Q[r]
        if ell <= -2:
            k = -ell
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(0)] - P[s(-1)] + P[s(k - 1)] - P[s(k - 2)])
                + Q[r + 1][s(1)] * W0[s(0)] - Q[r + 1][s(0)] * W0[s(k - 2)]
                + Q[r - 1][s(0)] * W0[s(k - 1)] - Q[r - 1][s(-1)] * W0[s(-1)])
        elif ell == -1:
            wm2 = Q[r - 1]
            dQ[r, s(0)] = (
                w[s(0)] * (P[s(0)] - P[s(-1)])
                + W0[s(0)] * (W0[s(0)] + wm2[s(0)])
                - W0[s(-1)] * (W0[s(-1)] + wm2[s(-1)]))
        elif ell == 0:
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(1)] - P[s(-1)])
                + w[s(0)] * (Q[r - 1][s(1)] - Q[r - 1][s(0)]))
        elif ell == 1:
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(-1)] - P[s(1)])
                + W0[s(1)] * Q[r + 1][s(0)] - W0[s(-1)] * Q[r + 1][s(-1)])
        else:
            k = ell
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(-1)] - P[s(0)] + P[s(k - 1)] - P[s(k)])
                + Q[r + 1][s(0)] * W0[s(k)] - Q[r + 1][s(-1)] * W0[s(-1)]
                + Q[r - 1][s(1)] * W0[s(0)] - Q[r - 1][s(0)] * W0[s(k - 1)])
    return dQ


def pfaff_rates(Q: np.ndarray, plan) -> np.ndarray:
    """pfaff_core in the calling convention of flows._pfaff_core."""
    n = plan.n_sites
    return pfaff_core(Q, plan.k_neg, plan.k_pos, n)[1:-1, 1:n + 1]


def volterra_rates(Bp: np.ndarray, flow: int) -> np.ndarray:
    """volterra_rhs_padded in the calling convention of flows._volterra_rhs_padded."""
    return volterra_rhs_padded(Bp, flow)[4:-4]
