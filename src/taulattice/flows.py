"""Lattice flow right-hand sides and time steppers.

Four systems: the tridiagonal flows (first and second couplings), the
Volterra hierarchy (couplings 2, 4, 6), the five-branch chain for the
banded skew window, and the one-dimensional reduced chain in the W
variables.  The chain also has a dense commutator form used as an
independent cross-check of the banded RHS.

Truncation policy: site 0 is exactly zero for every lattice.  Each evolver
has one layout: `evolve_volterra` evolves all but the last 4 sites of its
line, and `evolve_pfaff` bands -k_neg+1 .. k_pos-1 on all but the last
max(k_neg, k_pos) sites, its outer band on each side held at the initial
values.  At the right edge the evolvers close the window with ghost sites
built from those trailing initial sites, rescaled by the linearly
extrapolated ratio of current to initial values; rows whose initial edge
is near 0 extrapolate the edge linearly instead.  On the Gaussian scaling
family every row is shape(n) * amplitude(t), so this closure is exact
there; a doubling test is the empirical guard elsewhere.  One routine,
`_ghost_closure`, resolves the closure when an evolver starts: it returns
per-ghost coefficients with ghosts = c2 a2 + c1 a1 in the two current edge
values (a2, a1), for the Volterra line (scalar edges) and for every row of
the band window at once ((rows, 1) edge columns).  The RHS and the ghost
strips of the returned states read the same coefficients.

Kernels: each RHS evaluation is a fixed handful of array operations, not a
loop over sites or bands, and it writes its rates into a buffer it is
given.  The Volterra stencil, `_volterra_kernel`, is bound once to a line
padded with 4 ghost sites on each side: it reads neighbours by slicing,
never by wrap-around, keeps its potential in buffers made at binding, and
rates the unpadded sites only.  It slices axis 0, so `volterra_rhs` serves
a (sites, batch) stack of lines as it serves one line, with the same
arithmetic per column; `volterra_rhs`, the jets and `evolve_volterra` all
bind it.  The chain kernel evaluates the band families l <= -2 and l >= 2
in one expression each.  `_chain_kernel` binds it to one padded buffer:
every slice of the buffer, and the shifted windows the families read, as
strided views of sliding windows, are made once, with the temporaries, so
an evaluation is arithmetic only, and the differences of the product
w0 w1 that several bands read are formed once per call.  Each evolver
builds its right-hand side once per call, with its buffers, views and
closure coefficients, and caches nothing beyond it; the Volterra closure
is one product of a (4, 2) coefficient matrix with the two edge sites,
written into the padded line.  The tridiagonal and reduced chains'
kernels work on flat arrays, (a, b) and (W^{-1}, W^1..W^K), the latter
truncated by its one closure W^{K+1} := W^K; `toda_rhs` and
`reduced_chain_rhs` wrap them for one state.

Jets: `_volterra_jet` reads a Taylor coefficient of the Volterra rates
along a power series of lines, exact up to rounding, by running the same
padded stencil once on a complex stack of the series' values on a circle
and taking one FFT.  Coefficients of a flow's orbit follow one from the
last, so coupling derivatives of a line need no time step.

Stepping: every evolver, here and in `continuum`, takes classical RK4
steps through `_rk4_stepper`, the one place the RK4 weights are written
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1).  It advances the
state in place, and its four rates, stage state and weighted sum live in
buffers of the state's shape made once per segment (once per march in
`continuum`).  Right-hand sides take (t, y, out) and write their rates into
out, so a step allocates nothing; each stage takes the same floating-point
operations, in the same order, as the step written with fresh arrays.  The
stepper and the kernels take numpy's cheapest call: the output passed
positionally, and scalar factors (0.5, h/2, h, h/6) held as 0-d arrays,
since a Python float operand costs each ufunc call a conversion.
`evolve` takes fixed steps of at most h, shortened to land on each sample
time; its public form takes rhs(t, y) returning the rates and adapts it in
one line.

Divergence: each RK4 segment runs with floating-point overflow and invalid
operations raising, so the first overflowing step ends the run with
DivergedField naming the segment, at no per-step cost.  The state is also
checked for NaN or infinity at every sample time, which catches NaN input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .couplings import _own_arrays
from .errors import DivergedField, StructureViolation
from .lax import PfaffLax, TodaLax, _embedding_index

__all__ = [
    "VolterraState",
    "ReducedChainState",
    "EvolutionResult",
    "toda_rhs",
    "volterra_rhs",
    "pfaff_chain_rhs",
    "pfaff_commutator_rhs",
    "reduced_chain_rhs",
    "evolve",
    "evolve_volterra",
    "evolve_toda",
    "evolve_pfaff",
    "evolve_reduced",
]

@dataclass(frozen=True)
class VolterraState:
    """Sites B_1..B_N, positive; B_0 = 0 by convention."""

    B: np.ndarray

    def __post_init__(self):
        B, = _own_arrays(self, "B")
        if B.ndim != 1 or len(B) == 0:
            raise ValueError("B must be a non-empty vector")
        if not np.all(B > 0):
            raise ValueError("B must stay positive")

    @property
    def n_sites(self) -> int:
        return len(self.B)


@dataclass(frozen=True)
class ReducedChainState:
    """W^{-1} and W^1..W^K of the one-dimensional reduced chain."""

    Wm1: float
    W: np.ndarray

    def __post_init__(self):
        W, = _own_arrays(self, "W")
        if W.ndim != 1 or len(W) < 2:
            raise ValueError("need at least W^1 and W^2")
        object.__setattr__(self, "Wm1", float(self.Wm1))
        if not (math.isfinite(self.Wm1) and np.isfinite(W).all()):
            raise ValueError("W^-1 and W must be finite")

    @property
    def k_max(self) -> int:
        return len(self.W)


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled trajectory plus stepper bookkeeping.

    stats carries step counts and 'influence_index': a sonic estimate of the
    innermost site the right-boundary closure can have touched; entries at
    smaller indices are truncation-clean.
    """

    times: np.ndarray
    states: tuple
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        times, = _own_arrays(self, "times")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "states", tuple(self.states))

    def to_csv(self) -> str:
        heads, rows = _csv_columns(self.states)
        return _csv_text(["time"] + heads, ([t] + vals for t, vals in zip(self.times, rows)))


def _csv_text(heads, rows) -> str:
    """A header line, then one line per row of numbers, each written as %.17g
    (an integer prints as under %d)."""
    lines = [",".join(heads)] + [",".join("%.17g" % v for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_columns(states):
    s0 = states[0]
    if isinstance(s0, VolterraState):
        heads = [f"B[{n}]" for n in range(1, s0.n_sites + 1)]
        rows = [list(s.B) for s in states]
    elif isinstance(s0, TodaLax):
        heads = ([f"a[{n}]" for n in range(1, s0.n_sites + 1)]
                 + [f"b[{n}]" for n in range(1, s0.n_sites)])
        rows = [list(s.a) + list(s.b) for s in states]
    elif isinstance(s0, PfaffLax):
        heads = [f"w[{ell}][{n}]"
                 for ell in range(-s0.k_neg, s0.k_pos + 1)
                 for n in range(1, s0.n_sites + 1)]
        rows = [list(s.w.ravel()) for s in states]
    elif isinstance(s0, ReducedChainState):
        heads = ["W[-1]"] + [f"W[{k}]" for k in range(1, s0.k_max + 1)]
        rows = [[s.Wm1] + list(s.W) for s in states]
    else:
        raise TypeError(f"no CSV layout for {type(s0).__name__}")
    return heads, rows


# ---------------------------------------------------------------------------
# right-hand sides

def _toda_kernel(n: int, flow: int):
    """Autonomous RHS rates(t, y, out) of the first or second tridiagonal
    flow on the flat state y = (a_1..a_n, b_1..b_{n-1}), written into out.

    Out-of-window b is zero (finite-matrix closure, exact for the truncated
    operator); under it a_{n+1} only ever appears multiplied by b_n.
    """
    if flow not in (1, 2):
        raise ValueError(f"tridiagonal flows are 1 or 2, got {flow}")
    bsq = np.zeros(n + 1)                      # b_0^2, b_1^2..b_{n-1}^2, b_n^2 = 0
    bsq_in, bsq_hi, bsq_lo = bsq[1:n], bsq[1:], bsq[:-1]
    ap = np.zeros(n + 2)                       # a_0 = 0, a_1..a_n, a_{n+1} = 0
    a_in, a_up, a_dn = ap[1:n + 1], ap[2:], ap[:n]
    ta, tb = np.empty(n), np.empty(n - 1)
    half = np.array(0.5)
    mul, add, sub = np.multiply, np.add, np.subtract

    def rates(t, y, out):
        a, b = y[:n], y[n:]
        da, db = out[:n], out[n:]
        mul(b, b, bsq_in)
        if flow == 1:
            sub(bsq_hi, bsq_lo, da)
            sub(a[1:], a[:-1], db)
        else:
            a_in[:] = a
            add(a, a_up, da)
            mul(da, bsq_hi, da)
            add(a_dn, a, ta)
            mul(ta, bsq_lo, ta)
            sub(da, ta, da)
            sub(bsq[2:], bsq[:n - 1], db)
            add(db, np.square(a[1:], ta[1:]), db)
            sub(db, np.square(a[:-1], ta[1:]), db)
        mul(b, half, tb)
        mul(tb, db, db)
        return out

    return rates


def toda_rhs(state: TodaLax, flow: int = 1):
    """(da, db) for the first or second tridiagonal flow, under the
    finite-matrix closure."""
    n = state.n_sites
    rates = _toda_kernel(n, flow)(0.0, np.concatenate([state.a, state.b]),
                                  np.empty(2 * n - 1))
    return rates[:n], rates[n:]


def _volterra_kernel(Bp: np.ndarray, flow: int):
    """The Volterra stencil bound to the padded line Bp, as rates(out): it
    writes the flow's rates of the sites Bp[4:-4] into out from Bp's current
    values, and returns out.

    The 4 ghost sites each side feed the stencil.  Bp may be a (sites,
    batch) stack; every slice along axis 0 and the flow potential's buffers
    (of Bp's dtype) are made here once, so a call is arithmetic only.  The
    potential of flow 4 is B_n (B_{n-1} + B_n + B_{n+1}), that of flow 6 is
    B_n (B_{n-1} B_{n+1} + V4_{n-1} + V4_n + V4_{n+1}) with V4 the flow-4
    potential, and the rates are B_n (V_{n+1} - V_{n-1}).
    """
    if flow not in (2, 4, 6):
        raise ValueError(f"Volterra flows are 2, 4 or 6, got {flow}")
    mul, add, sub = np.multiply, np.add, np.subtract
    mid, c = Bp[4:-4], Bp[3:-3]               # the rated sites; potential sites
    lo, hi = Bp[2:-4], Bp[4:-2]
    V = c if flow == 2 else np.empty_like(c)
    V_hi, V_lo = V[2:], V[:-2]
    if flow == 6:
        V4 = np.empty_like(Bp[2:-2])           # flow-4 potential on sites 2 .. len-3
        c4, lo4, hi4 = Bp[2:-2], Bp[1:-3], Bp[3:-1]

    def rates(out):
        if flow == 4:
            add(lo, c, V)
            add(V, hi, V)
            mul(c, V, V)
        elif flow == 6:
            add(lo4, c4, V4)
            add(V4, hi4, V4)
            mul(c4, V4, V4)
            mul(lo, hi, V)
            add(V, V4[:-2], V)
            add(V, V4[1:-1], V)
            add(V, V4[2:], V)
            mul(c, V, V)
        sub(V_hi, V_lo, out)
        mul(mid, out, out)
        return out

    return rates


def _volterra_pad(B: np.ndarray) -> np.ndarray:
    """B with 4 ghost sites on each side along axis 0: zeros ahead of site 0
    and the linear extension of the last two sites past the end.  Keeps B's
    dtype and its trailing (batch) axes."""
    ghosts = np.zeros((4,) + B.shape[1:], dtype=B.dtype)
    Bp = np.concatenate([ghosts, B, ghosts])
    j = np.arange(1, 5).reshape((4,) + (1,) * (B.ndim - 1))
    Bp[-4:] = B[-1] + (B[-1] - B[-2]) * j
    return Bp


def volterra_rhs(B: np.ndarray, flow: int = 2) -> np.ndarray:
    """dB/dt_{flow} of a (sites,) line, or of each column of a (sites, batch)
    stack of at least two sites; the last flow//2 + 1 lean on a linear extension."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 0 or len(B) < 2:
        raise ValueError(f"volterra_rhs needs at least two sites, got shape {B.shape}")
    return _volterra_kernel(_volterra_pad(B), flow)(np.empty_like(B))


def _volterra_jet(C: np.ndarray, flow: int, k: int) -> np.ndarray:
    """Taylor coefficient k of the rates X_flow(B(x)) along the series
    B(x) = sum_j C[j] x^j of lines C[0], C[1], ..., padded as `volterra_rhs`
    pads a line.

    X_flow is a polynomial of degree flow/2 + 1 in the sites, and only
    C[0..k] reach coefficient k, so the rates along the series cut there are
    a polynomial in x of degree (flow/2 + 1) k.  The stencil runs once on
    the complex (sites, M) stack of the series' values at M = that degree
    + 1 points of a circle, and one FFT reads the coefficient exactly, up
    to rounding (Lyness & Moler 1967).  The radius, a power of two near
    max|C[0]| / max|C[1]|, sets only the rounding.  With k = 0 this is
    `volterra_rhs(C[0], flow)`.  Raises DivergedField when the coefficient
    is not finite.
    """
    C = np.asarray(C[:k + 1], dtype=float)
    M = (flow // 2 + 1) * k + 1
    radius = 1.0
    with np.errstate(all="ignore"):
        ratio = np.abs(C[0]).max() / np.abs(C[1]).max() if k else 1.0
        if 0.0 < ratio < math.inf:
            radius = math.ldexp(1.0, min(max(round(math.log2(ratio)), -128), 128))
        powers = radius ** np.arange(k + 1.0)[:, None]
        values = np.fft.ifft(C * powers, n=M, axis=0) * M          # (M, sites)
        rates = np.empty(values.T.shape, complex)
        _volterra_kernel(_volterra_pad(values.T), flow)(rates)
        coeff = np.fft.fft(rates, axis=1)[:, k] / (M * radius ** k)
    if not np.isfinite(coeff).all():
        raise DivergedField(f"flow-{flow} jet coefficient {k} of a line of "
                            f"{C.shape[1]} sites is not finite")
    return coeff.real


def _chain_kernel(Q: np.ndarray, k_neg: int, k_pos: int, n: int):
    """Five-branch chain RHS on the padded window buffer Q, as rates(out):
    it writes the rates of bands -k_neg .. k_pos on sites 1 .. n into the
    (k_neg + k_pos + 1, n) array out from Q's current values, and returns
    out.

    Q rows hold bands -k_neg-1 .. k_pos+1 (ghost row each side), columns
    hold sites 0 .. n+pad.  Every slice of Q is bound here once, and so is
    every shifted window the band families read: row k of a sliding-window
    view holds the n sites from column k, so band -k (k = k_neg .. 2) reads
    rows k and k - 1, and band k (k = 2 .. k_pos) rows k and k + 1, as
    strided views of Q's band-0 row and of a product buffer refilled with
    w0 * w1 at each call.  The temporaries are allocated here too, and the
    differences P_n - P_{n-1} and P_{n+1} - P_{n-1} of that product are
    formed once per call for every band that reads them.
    """
    off = k_neg + 1
    s0, sm, sp = slice(1, n + 1), slice(0, n), slice(2, n + 2)
    W0, W1 = Q[off], Q[off + 1]
    P = np.empty_like(W0)
    P0, Pm, Pp = P[s0], P[sm], P[sp]
    W00, W0m, W0p = W0[s0], W0[sm], W0[sp]
    Pwin, Wwin = sliding_window_view(P, n), sliding_window_view(W0, n)
    # bands l = -k_neg .. -2 sit in rows 1 .. k_neg-1
    nw, nup, nup_p = Q[1:off - 1, s0], Q[2:off, s0], Q[2:off, sp]
    ndn, ndn_m = Q[:off - 2, s0], Q[:off - 2, sm]
    Pneg, Pneg_lo = Pwin[k_neg:1:-1], Pwin[k_neg - 1:0:-1]
    Wneg, Wneg_lo = Wwin[k_neg:1:-1], Wwin[k_neg - 1:0:-1]
    # band -1 (when k_neg >= 1) and band 0
    m1, m1_p, m2, m2_m = Q[off - 1, s0], Q[off - 1, sp], Q[off - 2, s0], Q[off - 2, sm]
    # band 1 (when k_pos >= 1), which reads band 2 or the ghost row above it
    p1 = Q[off + 1, s0]
    p2, p2_m = (Q[off + 2, s0], Q[off + 2, sm]) if k_pos >= 1 else (None, None)
    # bands l = 2 .. k_pos sit in rows off+2 .. off+k_pos
    pw, pup, pup_m = Q[off + 2:-1, s0], Q[off + 3:, s0], Q[off + 3:, sm]
    pdn_p, pdn = Q[off + 1:-2, sp], Q[off + 1:-2, s0]
    Ppos, Ppos_hi = Pwin[2:k_pos + 1], Pwin[3:k_pos + 2]
    Wpos, Wpos_hi = Wwin[2:k_pos + 1], Wwin[3:k_pos + 2]
    D, E, T = np.empty(n), np.empty(n), np.empty(n)
    half = np.array(0.5)
    Tneg, Tpos = np.empty((max(k_neg - 1, 0), n)), np.empty((max(k_pos - 1, 0), n))
    mul, add, sub = np.multiply, np.add, np.subtract

    def family(o, Tf, w, a, a_w, b, b_w, c, c_w, d, d_w):
        # o holds X on entry and 0.5 w X + a a_w - b b_w + c c_w - d d_w on exit
        mul(w, half, Tf)
        mul(Tf, o, o)
        mul(a, a_w, Tf)
        add(o, Tf, o)
        mul(b, b_w, Tf)
        sub(o, Tf, o)
        mul(c, c_w, Tf)
        add(o, Tf, o)
        mul(d, d_w, Tf)
        sub(o, Tf, o)

    def rates(out):
        mul(W0, W1, P)
        sub(P0, Pm, D)
        sub(Pp, Pm, E)
        if k_neg >= 2:
            o = out[:k_neg - 1]
            add(D, Pneg, o)
            sub(o, Pneg_lo, o)
            family(o, Tneg, nw, nup_p, W00, nup, Wneg_lo, ndn, Wneg, ndn_m, W0m)
        if k_neg >= 1:
            o = out[k_neg - 1]
            mul(m1, D, o)
            add(W00, m2, T)
            mul(W00, T, T)
            add(o, T, o)
            add(W0m, m2_m, T)
            mul(W0m, T, T)
            sub(o, T, o)
        o = out[k_neg]
        mul(W00, half, T)
        mul(T, E, o)
        sub(m1_p, m1, T)
        mul(W00, T, T)
        add(o, T, o)
        if k_pos >= 1:
            # 0.5 p1 (P_{n-1} - P_{n+1}) + W0p p2 - W0m p2_m, with the
            # first term's sign moved onto its sum: exact
            o = out[k_neg + 1]
            mul(p1, half, T)
            mul(T, E, T)
            mul(W0p, p2, o)
            sub(o, T, o)
            mul(W0m, p2_m, T)
            sub(o, T, o)
        if k_pos >= 2:
            # P_{n-1} - P_n + P_{n+k-1} is P_{n+k-1} - D exactly
            o = out[k_neg + 2:]
            sub(Ppos, D, o)
            sub(o, Ppos_hi, o)
            family(o, Tpos, pw, pup, Wpos_hi, pup_m, W0m, pdn_p, W00, pdn, Wpos)
        return out

    return rates


def pfaff_chain_rhs(state: PfaffLax) -> np.ndarray:
    """Chain RHS with zero closure outside the window.

    This matches what the dense commutator form sees, so the two agree
    exactly on interior entries; edge entries are truncation-affected.
    """
    k_neg, k_pos, n = state.k_neg, state.k_pos, state.n_sites
    pad = max(k_neg, k_pos) + 1
    Q = np.zeros((k_neg + k_pos + 3, 1 + n + pad))
    Q[1:-1, 1:n + 1] = state.w
    return _chain_kernel(Q, k_neg, k_pos, n)(np.empty(state.w.shape))


def _dense_embedding(state: PfaffLax) -> np.ndarray:
    n = state.n_sites
    L = np.zeros((2 * n, 2 * n))
    sites = np.arange(n)
    L[2 * sites, 2 * sites + 1] = 1.0
    keep, rows, cols = _embedding_index(n, state.k_neg, state.k_pos, 2 * n)
    L[rows, cols] = state.w[keep]
    return L


def _skew_block_projection(A: np.ndarray) -> np.ndarray:
    dim = A.shape[0]
    bi = np.arange(dim) // 2
    lower = bi[:, None] > bi[None, :]
    diag = bi[:, None] == bi[None, :]
    J = np.kron(np.eye(dim // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    A_minus = np.where(lower, A, 0.0)
    A_plus = np.where(~lower & ~diag, A, 0.0)
    A_zero = np.where(diag, A, 0.0)
    return A_minus - J @ A_plus.T @ J + 0.5 * (A_zero - J @ A_zero.T @ J)


def pfaff_commutator_rhs(state: PfaffLax) -> np.ndarray:
    """Window derivative via the dense form -[(L^2)_proj, L].

    Entries whose dense positions fall outside the embedding are NaN.
    Raises StructureViolation if the derivative leaks into positions the
    band structure pins to 0 (unit superdiagonal, even diagonals) on
    interior rows by more than 1e-10 max(1, max|w|)^3.
    """
    L = _dense_embedding(state)
    Pi = _skew_block_projection(L @ L)
    D = L @ Pi - Pi @ L
    n, k_neg, k_pos = state.n_sites, state.k_neg, state.k_pos
    dim = 2 * n
    kmax = max(k_neg, k_pos)
    scale = max(1.0, float(np.abs(state.w).max()))
    thresh = 1e-10 * scale ** 3
    g = max(min(2 * (n - (kmax + 2)), dim), 0)
    r, c = np.ogrid[:g, :g]
    protected = ((r + c) % 2 == 0) | (c > r + 1)
    unit = (c == r + 1) & (r % 2 == 0)
    bad = np.argwhere((protected | unit) & (np.abs(D[:g, :g]) > thresh))
    if len(bad):
        # the first offending position in row-major order
        i, j = bad[0]
        if protected[i, j]:
            raise StructureViolation(
                f"derivative {D[i, j]:.3e} at protected position ({i}, {j})")
        raise StructureViolation(
            f"unit superdiagonal drifts by {D[i, j]:.3e} at row {i}")
    out = np.full((k_neg + k_pos + 1, n), np.nan)
    keep, rows, cols = _embedding_index(n, k_neg, k_pos, dim)
    out[keep] = D[rows, cols]
    return out


def _reduced_kernel(K: int):
    """Autonomous RHS rates(t, y, out) of the reduced chain on the flat state
    y = (W^{-1}, W^1..W^K), written into out, with the truncation closed by
    W^{K+1} := W^K."""
    up = np.arange(2.0, K + 2.0)               # k + 1 for k = 1..K
    down = np.arange(0.0, K)                   # k - 1
    Wp = np.zeros(K + 2)                       # 0, W^1..W^K, ghost W^{K+1}
    T = np.empty(K)
    mul, sub = np.multiply, np.subtract

    def rates(t, y, out):
        Wm1, W = y[0], y[1:]
        Wp[1:-1] = W
        Wp[-1] = W[-1]
        out[0] = 2.0 * Wm1 * Wm1 * W[0]
        o = out[1:]
        mul(up, Wp[2:], o)
        sub(o, mul(W, W[0], T), o)
        sub(o, mul(down, Wp[:-2], T), o)
        mul(o, 2.0 * Wm1, o)
        return out

    return rates


def reduced_chain_rhs(state: ReducedChainState, *, ghost: str = "copy"):
    """(dWm1, dW) with the truncation closed by W^{K+1} := W^K, which `ghost`
    names: "copy" only (perfbench's reduced-RHS task passes it)."""
    if ghost != "copy":
        raise ValueError(f"reduced ghost must be 'copy', got {ghost!r}")
    y = np.concatenate([[state.Wm1], state.W])
    rates = _reduced_kernel(state.k_max)(0.0, y, np.empty(len(y)))
    return rates[0], rates[1:]


# ---------------------------------------------------------------------------
# steppers

def _rk4_stepper(rhs, y: np.ndarray):
    """Classical RK4 on y in place, as step(t, h): one step of
    dy/dt = rhs(t, y, out) from (t, y) to t + h.

    rhs writes its rates into out.  The four rates, the stage state and the
    weighted sum live in buffers of y's shape made here once, and each stage
    takes the same floating-point operations, in the same order, as
    y + (h/2) k1, y + (h/2) k2, y + h k3 and
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4) written with fresh arrays.  The
    factors h/2, h and h/6 are held as 0-d arrays, set again only when h
    changes, since a Python float operand costs each ufunc call a
    conversion.  Every rhs call after the first reads the stage buffer, so
    a rhs may write into the state it is given; at the first stage that is
    y itself.
    """
    k1, k2, k3, k4, stage, acc = (np.empty_like(y) for _ in range(6))
    factors = np.empty(3)
    half, full, sixth = (factors[i, ...] for i in range(3))
    size = [None, 0.0]                          # h and h/2 of the factors
    mul, add = np.multiply, np.add

    def step(t, h):
        if h != size[0]:
            size[:] = h, 0.5 * h
            factors[:] = size[1], h, h / 6.0
        t_half = t + size[1]
        rhs(t, y, k1)
        add(y, mul(k1, half, stage), stage)
        rhs(t_half, stage, k2)
        add(y, mul(k2, half, stage), stage)
        rhs(t_half, stage, k3)
        add(y, mul(k3, full, stage), stage)
        rhs(t + h, stage, k4)
        add(k1, add(k2, k2, acc), acc)                  # 2 k = k + k exactly
        add(acc, add(k3, k3, stage), acc)
        add(acc, k4, acc)
        add(y, mul(acc, sixth, acc), y)

    return step


def _segment_steps(span: float, h: float) -> tuple:
    """(count, size) of the equal RK4 steps, at most h each, that cover a
    positive span."""
    steps = max(1, int(math.ceil(span / h - 1e-12)))
    return steps, span / steps


def _sample_times(horizon: float, samples: int) -> np.ndarray:
    """`samples` equally spaced times after 0, the last at `horizon`."""
    samples = max(int(samples), 1)
    return horizon * np.arange(1, samples + 1) / samples


def _rk4_segment(rhs, y, t0, t1, h):
    """Advance y in place from t0 to t1 by equal RK4 steps of at most h on
    dy/dt = rhs(t, y, out); returns the step count."""
    steps, hs = _segment_steps(t1 - t0, h)
    step = _rk4_stepper(rhs, y)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(steps):
                step(t0 + i * hs, hs)
    except FloatingPointError as exc:
        raise DivergedField(f"RK4 segment [{t0:g}, {t1:g}] ({steps} steps of "
                            f"h={hs:g}) overflowed: {exc}") from exc
    return steps


def _evolve(rhs, y0: np.ndarray, times, h: float):
    """`evolve` for a right-hand side rhs(t, y, out) that writes its rates
    into out."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing vector")
    if times[0] < 0:
        raise ValueError("sampling starts at t >= 0")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    out = []
    y = np.array(y0, dtype=float)
    t_prev = 0.0
    total = 0
    for t in times:
        if t > t_prev:
            total += _rk4_segment(rhs, y, t_prev, t, h)
        if not np.isfinite(y).all():
            raise DivergedField(
                f"trajectory not finite at t={t:g} after {total} RK4 steps "
                f"of h={h:g}")
        out.append(y.copy())
        t_prev = t
    return out, {"stepper": "rk4", "h": h, "steps": total}


def evolve(rhs, y0: np.ndarray, times, *, h: float = 1e-3):
    """Integrate dy/dt = rhs(t, y) from t=0, sampling at `times`.

    Classical RK4 with steps of at most h, shortened to land on each
    sample.  Returns (states, stats).  Raises DivergedField when a segment
    overflows or a sampled state is not finite.
    """
    return _evolve(lambda t, y, out: np.copyto(out, rhs(t, y)), y0, times, h)


def _ghost_closure(i2, i1, init_ghost):
    """Coefficients (c2, c1), each of init_ghost's shape, that give the ghost
    values ahead of the edge as c2 a2 + c1 a1 from the two current edge
    values (a2, a1).

    (i2, i1) are the initial edge values and init_ghost the initial ghosts;
    edges are scalars (a lattice line) or (rows, 1) columns (a band window).
    Each initial ghost is rescaled by the linearly extrapolated ratio of
    current to initial edge values; rows whose initial edge is near 0
    extrapolate the edge linearly instead.
    """
    g = np.asarray(init_ghost, dtype=float)
    j = np.arange(1.0, g.shape[-1] + 1) + np.zeros_like(g)
    ok = np.minimum(np.abs(i1), np.abs(i2)) >= 1e-12 * (np.abs(i1) + np.abs(i2) + 1.0)
    i1, i2 = np.where(ok, i1, 1.0), np.where(ok, i2, 1.0)
    return np.where(ok, -j * g / i2, -j), np.where(ok, (1.0 + j) * g / i1, 1.0 + j)


def evolve_volterra(state: VolterraState, flow: int, times, *,
                    h: float = 1e-3) -> EvolutionResult:
    """Volterra trajectory; the outer 4 sites of `state` anchor the closure,
    so a line needs at least 6 sites.

    Raises DivergedField when a sampled site, the closure's included, is
    not positive.
    """
    B0 = state.B
    n = len(B0) - 4                             # evolved sites
    if n < 2:
        raise ValueError("need at least 6 sites: 2 evolved and 4 anchors")
    # ghosts = C @ (a2, a1)
    C = np.column_stack(_ghost_closure(B0[n - 2], B0[n - 1], B0[n:]))
    Bp = np.zeros(n + 8)                        # left ghosts stay 0
    sites, edge, ghosts = Bp[4:-4], Bp[n + 2:n + 4], Bp[-4:]

    kernel = _volterra_kernel(Bp, flow)

    def rhs(t, y, out):
        sites[:] = y
        np.dot(C, edge, ghosts)
        kernel(out)

    y0 = B0[:n]
    ys, stats = _evolve(rhs, y0, times, h)
    front = _influence_front(times, y0, ys, lambda y: 2.0 * abs(y[-1]), n)
    stats.update({"n_evolve": n, "influence_index": front})
    states = []
    for t, y in zip(np.asarray(times, dtype=float), ys):
        B = np.concatenate([y, C @ y[-2:]])
        if not np.all(B > 0):
            site = int(np.argmin(B > 0))
            where = " (closure)" if site >= n else ""
            raise DivergedField(f"site B_{site + 1}{where} = {B[site]:.3g} <= 0 at "
                                f"t={t:g} after RK4 steps of h={h:g}")
        states.append(VolterraState(B))
    return EvolutionResult(times, states, stats)


def _influence_front(times, y0, ys, speed_of, start):
    """Sonic bound on boundary-signal penetration from t = 0: each sampling
    interval, the first one from 0 included, moves the front in by its
    length times the speed of the state at its start."""
    front = float(start)
    t_prev, y_prev = 0.0, y0
    for t, y in zip(times, ys):
        front = max(front - (t - t_prev) * speed_of(y_prev), 1.0)
        t_prev, y_prev = t, y
    return int(math.floor(front))


def evolve_toda(state: TodaLax, flow: int, times, *, h: float = 1e-3) -> EvolutionResult:
    """Tridiagonal trajectory under the finite-matrix closure.

    Raises DivergedField when a sampled off-diagonal entry is not positive.
    """
    N = state.n_sites
    y0 = np.concatenate([state.a, state.b])
    ys, stats = _evolve(_toda_kernel(N, flow), y0, times, h)
    for t, y in zip(np.asarray(times, dtype=float), ys):
        if np.any(y[N:] <= 0):
            raise DivergedField(f"off-diagonal entry {y[N:].min():.3g} <= 0 at t={t:g} "
                                f"after RK4 steps of h={h:g}")
    speed = (lambda y: 2.0 * abs(y[-1])) if flow == 1 else (lambda y: 2.0 * y[-1] ** 2)
    stats.update(influence_index=_influence_front(times, y0, ys, speed, N))
    states = [TodaLax(y[:N], y[N:]) for y in ys]
    return EvolutionResult(times, states, stats)


def evolve_pfaff(state: PfaffLax, times, *, h: float = 1e-3) -> EvolutionResult:
    """Chain trajectory for the banded window.

    The outermost band on each side and the trailing max(k_neg, k_pos)
    sites of `state` are not evolved: they are ghost data held at (bands)
    or rescaled from (sites) the initial values, closing the truncation.  So
    the window needs k_neg >= 3, k_pos >= 2 and 2 evolved sites.  Returned
    windows have the full input shape with ghost strips filled by the
    closure.
    """
    k_neg, k_pos, N = state.k_neg, state.k_pos, state.n_sites
    K1, K2 = k_neg - 1, k_pos - 1               # evolved bands below and above
    if K1 < 2 or K2 < 1:
        raise ValueError("window too shallow: need k_neg >= 3 and k_pos >= 2")
    pad = max(k_neg, k_pos)
    n = N - pad                                 # evolved sites
    if n < 2:
        raise ValueError("need %d trailing anchor sites after 2 evolved sites" % pad)
    W0 = state.w
    init = W0[1:-1]
    c2, c1 = _ghost_closure(init[:, n - 2:n - 1], init[:, n - 1:n], init[:, n:])
    Q = np.zeros((K1 + K2 + 3, 1 + N))         # site 0 stays 0
    Q[:, 1:] = W0                               # the outer rows are the ghost bands
    sites, strip = Q[1:-1, 1:n + 1], Q[1:-1, n + 1:]
    a2, a1 = Q[1:-1, n - 1:n], Q[1:-1, n:n + 1]
    kernel = _chain_kernel(Q, K1, K2, n)
    term = np.empty_like(strip)

    def rhs(t, y, out):
        sites[:] = y
        np.multiply(c2, a2, strip)
        np.add(strip, np.multiply(c1, a1, term), strip)
        kernel(out)

    y0 = init[:, :n]                            # the state keeps the window's shape
    ys, stats = _evolve(rhs, y0, times, h)
    speed = lambda y: abs(y[K1, -1] * y[K1 + 1, -1])     # band 0 sits in row K1
    stats.update({"n_evolve": n,
                  "influence_index": _influence_front(times, y0, ys, speed, n)})
    states = []
    w = W0.copy()                               # one buffer: each PfaffLax copies it
    for y in ys:
        w[1:-1, :n] = y
        w[1:-1, n:] = c2 * y[:, -2:-1] + c1 * y[:, -1:]
        states.append(PfaffLax(w, k_neg, k_pos))
    return EvolutionResult(times, states, stats)


def evolve_reduced(state: ReducedChainState, times, *, h: float = 1e-3) -> EvolutionResult:
    """Reduced-chain trajectory by fixed-step RK4 on W^{-1}, W^1..W^K, the
    truncation closed by W^{K+1} := W^K."""
    K = state.k_max
    y0 = np.concatenate([[state.Wm1], state.W])
    ys, stats = _evolve(_reduced_kernel(K), y0, times, h)
    front = _influence_front(times, y0, ys, lambda y: 2.0 * abs(y[0]) * (K + 1), K)
    stats.update({"n_evolve": K + 1, "influence_index": front})
    states = [ReducedChainState(y[0], y[1:]) for y in ys]
    return EvolutionResult(times, states, stats)
