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
the band window at once ((rows, 1) edge columns).  Each evolver forms its
ghosts from those coefficients by one routine, which its RHS and the ghost
strips of its returned states both call.

Kernels: each RHS evaluation is a fixed handful of array operations, not a
loop over sites or bands, and it writes its rates into a buffer it is
given.  The Volterra stencil, `_volterra_kernel`, is bound once to a line
padded with 4 ghost sites on each side: it reads neighbours by slicing,
never by wrap-around, keeps its potential in buffers made at binding, and
rates the unpadded sites only.  It slices axis 0, so `volterra_rhs` serves
a (sites, batch) stack of lines as it serves one line, with the same
arithmetic per column; `volterra_rhs`, the jets and `evolve_volterra` all
bind it.  The chain kernel evaluates the band families l <= -2 and l >= 2
in one expression each.  `_chain_kernel` binds it to one C-contiguous
padded buffer, and every operand of a family is a flat slice of row stride
L, the buffer's width, so each ufunc call takes numpy's contiguous path
(0.38-0.55 us a call at n = 30-250, against 0.9-1.5 us with a strided 2-D
operand, numpy 2.4 on a shared Xeon core): the cells between rows are gap cells, computed and dropped, and
the shifted windows of the product w0 w1 and of w0, and the rows broadcast
over a family, are copied at each call into zeroed stacks of that width,
which put a zero factor in every product of a gap cell.  The views, stacks
and temporaries are made once, so an evaluation is arithmetic and copies
only, and the differences of w0 w1 that several bands read are formed once
per call.  Each evolver
builds its right-hand side once per call, with its buffers, views and
closure coefficients, and caches nothing beyond it.  `evolve_volterra`
keeps two padded lines, one holding the live state and one the RK4 stage,
with the stencil bound once to each: every stage is written straight into
the line its stencil reads, so no evaluation copies its argument, and the
closure, one product of a (4, 2) coefficient matrix with the two edge
sites, is written into the ghosts of the line the RHS is handed.
`evolve_pfaff` copies each stage into its one padded window: its state is
a stack of strided band rows, and staging them in a second window read no
faster (0.92-1.00x at N 32-600).  The tridiagonal and reduced chains'
kernels work on flat arrays, (a, b) and (W^{-1}, W^1..W^K), the latter
truncated by its one closure W^{K+1} := W^K; `toda_rhs` and
`reduced_chain_rhs` wrap them for one state.

Jets: `_volterra_jet` reads a Taylor coefficient of the Volterra rates
along a power series of lines, exact up to rounding, by running the same
padded stencil once on a complex stack of the series' values on a circle
and taking one FFT.  Coefficients of a flow's orbit follow one from the
last, so coupling derivatives of a line need no time step.

Stepping: every evolver, here and in `continuum`, takes classical RK4 steps
through `_rk4_stepper`, the one place the RK4 weights are written (Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.1).  It advances the state in
place, and its four rates, stage state and weighted sum live in buffers of
the state's shape made once per segment (once per march in `continuum`);
the Volterra march hands `_evolve` its two lines' sites as the state it
marches and the stage it writes, private arguments that `_rk4_segment`
passes on.  Right-hand sides take (t, y, out) and write their rates into
out, so a step allocates nothing; each stage takes the same floating-point
operations, in the same order, as the step written with fresh arrays.  The
stepper and the kernels take numpy's cheapest call: the output passed
positionally, and scalar factors (0.5, h/2, h, h/6) held as 0-d arrays,
since a Python float operand costs each ufunc call a conversion; the
Volterra closure calls its coefficient matrix's own `dot`, np.dot's product
at less call cost.  The one sampling loop, `_evolve`, takes fixed steps of
at most h, shortened to land on each sample time, and advances the lattice
evolver's influence front from the live state before each segment.

Divergence: each RK4 segment, and each call of the five public right-hand
sides, runs with floating-point overflow and invalid operations raising
(`_guarded`), so the first overflowing step ends the run with DivergedField
naming the segment, at no per-step cost, and an overflowing rate raises
DivergedField naming its function.  Every march, here and in `continuum`,
has the one step budget `_MAX_STEPS` and the one guard `_guarded`:
`_evolve` refuses an h that passes the budget before any step, so no march
hangs.  At each sample the loop builds the sample's record; a record's
refusal (a NaN or infinite entry, as NaN input gives without an invalid
operation, or a site or off-diagonal entry that is not positive) ends the
march there with DivergedField naming the time and step count.  A front
speed past the double range reads inf, so the segment's guard, not the
speed, names such a state.  `evolve_pfaff` also refuses, before each step,
a step past its RK4 stability edge, h max|w0 w1| > `_PFAFF_EDGE`: past it
the march lost the exact windows without an overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .couplings import _checked_int, _own_arrays
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
    "evolve_volterra",
    "evolve_toda",
    "evolve_pfaff",
    "evolve_reduced",
]

_MAX_STEPS = 200000            # the step budget of every march, lattice and chain
_PFAFF_EDGE = 1.6              # evolve_pfaff's bound on h max|w0 w1|, its RK4 stability edge

@dataclass(frozen=True)
class VolterraState:
    """Sites B_1..B_N, positive; B_0 = 0 by convention."""

    B: np.ndarray

    def __post_init__(self):
        B, = _own_arrays(self, "B")
        if B.ndim != 1 or len(B) == 0:
            raise ValueError("B must be a non-empty vector")
        if not np.all(B > 0):
            n = int(np.argmin(B > 0))
            raise ValueError(f"B must stay positive, got B_{n + 1} = {B[n]:.3g}")

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
        if not math.isfinite(self.Wm1):
            raise ValueError(f"ReducedChainState.Wm1 must be finite, got {self.Wm1}")

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
        times = _checked_times(*_own_arrays(self, "times"))
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) != len(times):
            raise ValueError(f"{len(self.states)} states do not pair with "
                             f"{len(times)} sample times")

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

def _guarded(what, call, *args):
    """call(*args) with floating-point overflow and invalid operations
    raising, as DivergedField("<what> overflowed: <numpy's message>"); a
    callable what is called for that text only when the guard fires."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return call(*args)
    except FloatingPointError as exc:
        raise DivergedField(f"{what() if callable(what) else what} overflowed: {exc}") from exc


def _toda_kernel(n: int, flow: int):
    """Autonomous RHS rates(t, y, out) of the first or second tridiagonal
    flow on the flat state y = (a_1..a_n, b_1..b_{n-1}), written into out.

    Out-of-window b is zero (finite-matrix closure, exact for the truncated
    operator); under it a_{n+1} only ever appears multiplied by b_n.
    """
    if _checked_int("flow", flow) not in (1, 2):
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
    rates = _guarded("toda_rhs", _toda_kernel(n, flow), 0.0,
                     np.concatenate([state.a, state.b]), np.empty(2 * n - 1))
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
    if _checked_int("flow", flow) not in (2, 4, 6):
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
    stack of at least two finite sites; the last flow//2 + 1 lean on a linear
    extension."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 0 or len(B) < 2:
        raise ValueError(f"volterra_rhs needs at least two sites, got shape {B.shape}")
    finite = np.isfinite(B)
    if not finite.all():
        raise ValueError(f"volterra_rhs needs finite sites, got {B[~finite][0]}")
    return _guarded("volterra_rhs", _volterra_kernel(_volterra_pad(B), flow), np.empty_like(B))


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

    Q is C-contiguous; its rows hold bands -k_neg-1 .. k_pos+1 (ghost row
    each side), its columns sites 0 .. n+pad.  The band families l <= -2
    and l >= 2 each run on flat operands of row stride L = Q.shape[1]: the
    block Q[r0:r0+m, c0:c0+n] is the flat slice of Q from r0*L + c0, of
    length (m-1)*L + n, with cell (i, j) at offset i*L + j, and a family
    writes the same slice of a padded (k_neg + k_pos + 1, L) rates buffer.
    The cells j >= n between rows are gap cells, computed and dropped.  The
    family's other operands are refilled at each call, one np.copyto each,
    into the sites of zeroed (rows, L) stacks: the windows of the product
    P = w0 w1 and of w0 that band -k (k = k_neg .. 2) reads at shifts k and
    k - 1, and band k (k = 2 .. k_pos) at k and k + 1, as a descending and
    an ascending stack, and the rows w0_n, w0_{n-1} and P_n - P_{n-1}, each
    broadcast over a family; a family of one band reads these rows as they
    are.  Every product of a gap cell has a stack's zero as a factor, so a
    gap cell never overflows where the sites would not.  Why: a ufunc call
    with a strided 2-D operand takes numpy's general iterator, 0.9 us at
    n = 30 and 1.4-1.5 us at n = 250, while the same call on contiguous
    operands takes 0.38 and 0.55 us, and a copy about 0.4 us (numpy 2.4
    on a shared Xeon core).  Bands -1, 0
    and 1 run on 1-D rows, and one copy of the rates buffer's sites into
    out ends the call.  Every site takes the same floating-point operations,
    in the same order, as the band loop.  Every view, stack and temporary is
    bound here once, so a call is arithmetic and copies only, and the
    differences P_n - P_{n-1} and P_{n+1} - P_{n-1} are formed once per
    call for every band that reads them.
    """
    if not Q.flags.c_contiguous:
        raise ValueError("the chain kernel reads a C-contiguous window buffer")
    L = Q.shape[1]
    off = k_neg + 1
    m_neg, m_pos = max(k_neg - 1, 0), max(k_pos - 1, 0)   # bands in each family
    s0, sm, sp = slice(1, n + 1), slice(0, n), slice(2, n + 2)
    W0, W1 = Q[off], Q[off + 1]
    P = np.empty_like(W0)
    P0, Pm, Pp = P[s0], P[sm], P[sp]
    W00, W0m, W0p = W0[s0], W0[sm], W0[sp]
    Pwin, Wwin = sliding_window_view(P, n), sliding_window_view(W0, n)
    R = np.zeros((k_neg + k_pos + 1, L))         # the rates, with gap cells
    D, E, T = np.empty(n), np.empty(n), np.empty(n)
    copies = []                                   # (stack sites, source), refilled per call

    def flat(buf, r0, c0, rows):
        # rows r0 .. r0+rows-1, columns c0 .. c0+n-1 of buf, gap cells between
        start = r0 * L + c0
        return buf.reshape(-1)[start:start + (rows - 1) * L + n]

    def stack(source, rows):
        # a zeroed (rows, L) stack whose sites are refilled from source per call
        buf = np.zeros((rows, L))
        copies.append((buf[:, :n], source))
        return buf

    def shifts(win, picks, rows):
        # the family's rows + 1 windows picks of win, read as its first and
        # its last `rows`: plain rows of win for a family of one band
        if rows == 1:
            return win[picks][0], win[picks][1]
        buf = stack(win[picks], rows + 1)
        return flat(buf, 0, 0, rows), flat(buf, 1, 0, rows)

    m = max(m_neg, m_pos)
    if m >= 2:                                    # rows broadcast over a family
        Dst, W00st, W0mst = stack(D, m), stack(W00, m), stack(W0m, m)
        Tst = np.empty((m, L))

    def broadcast(rows):
        # D, W00, W0m and a temporary over the family's rows
        if rows == 1:
            return D, W00, W0m, T
        return [flat(buf, 0, 0, rows) for buf in (Dst, W00st, W0mst, Tst)]

    # bands l = -k_neg .. -2 sit in rows 1 .. k_neg-1 of Q, 0 .. k_neg-2 of R
    if m_neg:
        on, nw, nup, nup_p, ndn, ndn_m = (flat(buf, r0, c0, m_neg) for buf, r0, c0 in (
            (R, 0, 0), (Q, 1, 1), (Q, 2, 1), (Q, 2, 2), (Q, 0, 1), (Q, 0, 0)))
        Pneg, Pneg_lo = shifts(Pwin, slice(k_neg, 0, -1), m_neg)
        Wneg, Wneg_lo = shifts(Wwin, slice(k_neg, 0, -1), m_neg)
        Dneg, W00neg, W0mneg, Tneg = broadcast(m_neg)
    # band -1 (when k_neg >= 1) and band 0
    m1, m1_p, m2, m2_m = Q[off - 1, s0], Q[off - 1, sp], Q[off - 2, s0], Q[off - 2, sm]
    o_m1, o_0 = R[k_neg - 1, :n], R[k_neg, :n]
    # band 1 (when k_pos >= 1), which reads band 2 or the ghost row above it
    p1 = Q[off + 1, s0]
    p2, p2_m = (Q[off + 2, s0], Q[off + 2, sm]) if k_pos >= 1 else (None, None)
    o_p1 = R[k_neg + 1, :n] if k_pos >= 1 else None
    # bands l = 2 .. k_pos sit in rows off+2 .. off+k_pos of Q, k_neg+2 .. of R
    if m_pos:
        op, pw, pup, pup_m, pdn_p, pdn = (flat(buf, r0, c0, m_pos) for buf, r0, c0 in (
            (R, k_neg + 2, 0), (Q, off + 2, 1), (Q, off + 3, 1), (Q, off + 3, 0),
            (Q, off + 1, 2), (Q, off + 1, 1)))
        Ppos, Ppos_hi = shifts(Pwin, slice(2, k_pos + 2), m_pos)
        Wpos, Wpos_hi = shifts(Wwin, slice(2, k_pos + 2), m_pos)
        Dpos, W00pos, W0mpos, Tpos = broadcast(m_pos)
    sites = R[:, :n]
    half = np.array(0.5)
    mul, add, sub, copyto = np.multiply, np.add, np.subtract, np.copyto

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
        for sites_of, source in copies:
            copyto(sites_of, source)
        if m_neg:
            add(Dneg, Pneg, on)
            sub(on, Pneg_lo, on)
            family(on, Tneg, nw, nup_p, W00neg, nup, Wneg_lo, ndn, Wneg, ndn_m, W0mneg)
        if k_neg >= 1:
            mul(m1, D, o_m1)
            add(W00, m2, T)
            mul(W00, T, T)
            add(o_m1, T, o_m1)
            add(W0m, m2_m, T)
            mul(W0m, T, T)
            sub(o_m1, T, o_m1)
        mul(W00, half, T)
        mul(T, E, o_0)
        sub(m1_p, m1, T)
        mul(W00, T, T)
        add(o_0, T, o_0)
        if k_pos >= 1:
            # 0.5 p1 (P_{n-1} - P_{n+1}) + W0p p2 - W0m p2_m, with the
            # first term's sign moved onto its sum: exact
            mul(p1, half, T)
            mul(T, E, T)
            mul(W0p, p2, o_p1)
            sub(o_p1, T, o_p1)
            mul(W0m, p2_m, T)
            sub(o_p1, T, o_p1)
        if m_pos:
            # P_{n-1} - P_n + P_{n+k-1} is P_{n+k-1} - D exactly
            sub(Ppos, Dpos, op)
            sub(op, Ppos_hi, op)
            family(op, Tpos, pw, pup, Wpos_hi, pup_m, W0mpos, pdn_p, W00pos, pdn, Wpos)
        copyto(out, sites)
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
    return _guarded("pfaff_chain_rhs", _chain_kernel(Q, k_neg, k_pos, n), np.empty(state.w.shape))


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
    scale = np.float64(max(1.0, float(np.abs(state.w).max())))

    def commutator():
        Pi = _skew_block_projection(L @ L)
        return L @ Pi - Pi @ L, 1e-10 * scale ** 3

    D, thresh = _guarded("pfaff_commutator_rhs", commutator)
    n, k_neg, k_pos = state.n_sites, state.k_neg, state.k_pos
    dim = 2 * n
    kmax = max(k_neg, k_pos)
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
    rates = _guarded("reduced_chain_rhs", _reduced_kernel(state.k_max), 0.0, y, np.empty(len(y)))
    return rates[0], rates[1:]


# ---------------------------------------------------------------------------
# steppers

def _rk4_stepper(rhs, y: np.ndarray, stage=None):
    """Classical RK4 on y in place, as step(t, h): one step of
    dy/dt = rhs(t, y, out) from (t, y) to t + h.

    rhs writes its rates into out.  The four rates and the weighted sum live
    in buffers of y's shape made here once, and so does the stage state
    unless the caller owns it: given `stage`, an array of y's shape, every
    stage is written into it, so an evolver whose rhs reads the state from
    a padded line can hand the stepper a view of that line and copy no
    stage.  Each stage takes the same floating-point operations, in the
    same order, as y + (h/2) k1, y + (h/2) k2, y + h k3 and
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4) written with fresh arrays.  The
    factors h/2, h and h/6 are held as 0-d arrays, set again only when h
    changes, since a Python float operand costs each ufunc call a
    conversion.  The first rhs call of a step is handed y itself and the
    other three the stage buffer, which the stepper writes before it reads
    it: a rhs may write into the stage it is handed, and what it writes
    into y at the first call stays in the step, as in the fresh-array step.
    """
    k1, k2, k3, k4, acc = (np.empty_like(y) for _ in range(5))
    if stage is None:
        stage = np.empty_like(y)
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
    """`samples` equally spaced times after 0, the last at `horizon`; a count
    that is not an integer >= 1 raises ValueError."""
    samples = _checked_int("samples", samples, 1)
    return horizon * np.arange(1, samples + 1) / samples


def _rk4_segment(rhs, y, t0, t1, h, stage=None, before_step=None):
    """Advance y in place from t0 to t1 by equal RK4 steps of at most h on
    dy/dt = rhs(t, y, out), staging in `stage` when given (see
    `_rk4_stepper`), and calling before_step(t, h, y), when given, before
    each step, where it may refuse the step; returns the step count."""
    steps, hs = _segment_steps(t1 - t0, h)
    step = _rk4_stepper(rhs, y, stage)

    def march():
        for i in range(steps):
            t = t0 + i * hs
            if before_step is not None:
                before_step(t, hs, y)
            step(t, hs)

    _guarded(f"RK4 segment [{t0:g}, {t1:g}] ({steps} steps of h={hs:g})", march)
    return steps


def _checked_times(times) -> np.ndarray:
    """times as a float vector; a ValueError unless they are finite, and then
    a non-empty, 1-d, strictly increasing vector."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing vector")
    return times


def _evolve(rhs, y0: np.ndarray, times, h: float, record, speed_of, start,
            buffers=None, before_step=None):
    """Integrate dy/dt = rhs(t, y, out), rhs writing its rates into out, from
    t = 0 by RK4 steps of at most h, shortened to land on each of `times`.
    Returns record(y) of the live state at each sample, and stats; a
    ValueError from record ends the march with DivergedField at that
    sample.  The live state is a fresh copy of y0, or, given buffers =
    (state, stage), the caller's two arrays of y0's shape: y0 is copied
    into state, which is marched in place, and every RK4 stage is written
    into stage, so a rhs bound to both reads either without a copy.  The
    influence front starts at site `start`: before each segment, the first
    from 0 included, it moves in by the segment's length times speed_of(y)
    of the live state, to no less than site 1; the stats' 'influence_index'
    is its floor.  A speed that overflows reads inf, with no warning, and
    the segment's guard names the state.  before_step(t, h, y) is called
    on the live state before each step (`_rk4_segment`).  A step h that is
    a bool, not finite and positive, or past `_MAX_STEPS` steps up to the
    last sample raises ValueError before any step."""
    times = _checked_times(times)
    if times[0] < 0:
        raise ValueError("sampling starts at t >= 0")
    if isinstance(h, (bool, np.bool_)) or not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    if float(times[-1]) / float(h) > _MAX_STEPS:
        raise ValueError(f"h = {h} passes the step budget {_MAX_STEPS} up to t = {times[-1]:g}")
    out = []
    if buffers is None:
        y, stage = np.array(y0, dtype=float), None
    else:
        y, stage = buffers
        y[...] = y0
    t_prev = 0.0
    total = 0
    front = float(start)
    for t in times:
        if t > t_prev:
            with np.errstate(over="ignore"):
                front = max(front - (t - t_prev) * speed_of(y), 1.0)
            total += _rk4_segment(rhs, y, t_prev, t, h, stage, before_step)
        try:
            state = record(y)
        except ValueError as exc:
            raise DivergedField(f"{exc} at t={t:g} after {total} RK4 steps of h={h:g}") from exc
        out.append(state)
        t_prev = t
    stats = {"stepper": "rk4", "h": h, "steps": total,
             "influence_index": int(math.floor(front))}
    return out, stats


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

    The influence front moves in from the last evolved site, of value B_N,
    at c |B_N|^(flow/2) with c = 2, 12, 60 for flows 2, 4, 6: the peak
    group velocity of the flow's stencil linearised about a constant line
    B_N.  It is an estimate, not a bound: off a constant line the closure
    can reach sites below it.

    Raises DivergedField when a sampled site, the closure's included, is
    not positive.
    """
    B0 = state.B
    n = len(B0) - 4                             # evolved sites
    if n < 2:
        raise ValueError("need at least 6 sites: 2 evolved and 4 anchors")
    # ghosts = C @ (a2, a1)
    C = np.column_stack(_ghost_closure(B0[n - 2], B0[n - 1], B0[n:]))

    def line():
        # a padded line, its sites, and what its rhs reads: the edge sites,
        # the ghosts the closure writes and the stencil bound to the line
        Bp = np.zeros(n + 8)                    # left ghosts stay 0
        return Bp[4:-4], (Bp[n + 2:n + 4], Bp[-4:], _volterra_kernel(Bp, flow))

    # the live state and the RK4 stage each sit in a line of their own
    sites, live = line()
    stage, staged = line()
    speed = {2: 2.0, 4: 12.0, 6: 60.0}[flow]
    closure = C.dot                             # np.dot's product at less call cost

    def rhs(t, v, out):
        edge, ghosts, kernel = staged if v is stage else live
        closure(edge, ghosts)
        kernel(out)

    states, stats = _evolve(rhs, B0[:n], times, h,
                            lambda y: VolterraState(np.concatenate([y, closure(y[-2:])])),
                            lambda y: speed * abs(y[-1]) ** (flow // 2), n, (sites, stage))
    stats["n_evolve"] = n
    return EvolutionResult(times, states, stats)


def evolve_toda(state: TodaLax, flow: int, times, *, h: float = 1e-3) -> EvolutionResult:
    """Tridiagonal trajectory under the finite-matrix closure.

    Raises DivergedField when a sampled off-diagonal entry is not positive.
    """
    N = state.n_sites
    speed = (lambda y: 2.0 * abs(y[-1])) if flow == 1 else (lambda y: 2.0 * y[-1] ** 2)
    states, stats = _evolve(_toda_kernel(N, flow), np.concatenate([state.a, state.b]), times, h,
                            lambda y: TodaLax(y[:N], y[N:]), speed, N)
    return EvolutionResult(times, states, stats)


def evolve_pfaff(state: PfaffLax, times, *, h: float = 1e-3) -> EvolutionResult:
    """Chain trajectory for the banded window.

    The outermost band on each side and the trailing max(k_neg, k_pos)
    sites of `state` are not evolved: they are ghost data held at (bands)
    or rescaled from (sites) the initial values, closing the truncation.  So
    the window needs k_neg >= 3, k_pos >= 2 and 2 evolved sites.  Returned
    windows have the full input shape with ghost strips filled by the
    closure.

    Before each step the march refuses, with DivergedField naming t, the
    step count and s, a step whose s = h max|w0 w1| over the evolved sites
    passes `_PFAFF_EDGE` (1.6), the RK4 stability edge measured on the
    t2-scaling windows: past it the march returned windows far from the
    exact ones, or overflowed.  The stats' 'max_h_speed' is the largest s
    of the steps taken.
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
    closure = lambda e2, e1, out: np.add(np.multiply(c2, e2, out), np.multiply(c1, e1, term), out)

    def rhs(t, y, out):
        sites[:] = y
        closure(a2, a1, strip)
        kernel(out)

    w = W0.copy()                               # one buffer: each PfaffLax copies it

    def record(y):
        w[1:-1, :n] = y
        closure(y[:, -2:-1], y[:, -1:], w[1:-1, n:])
        return PfaffLax(w, k_neg, k_pos)

    speed = lambda y: abs(y[K1, -1] * y[K1 + 1, -1])     # band 0 sits in row K1
    speeds, taken, max_s = np.empty(n), 0, 0.0

    def before_step(t, h, y):
        nonlocal taken, max_s
        s = float(h * np.abs(np.multiply(y[K1], y[K1 + 1], speeds), speeds).max())
        if s > _PFAFF_EDGE:
            raise DivergedField(f"pfaff march at t={t:g} after {taken} RK4 steps: "
                                f"h*max|w0 w1| = {s:.6g} passes the stability edge {_PFAFF_EDGE}")
        taken, max_s = taken + 1, max(max_s, s)

    states, stats = _evolve(rhs, init[:, :n], times, h, record, speed, n,   # the window's shape
                            before_step=before_step)
    stats["n_evolve"] = n
    stats["max_h_speed"] = max_s
    return EvolutionResult(times, states, stats)


def evolve_reduced(state: ReducedChainState, times, *, h: float = 1e-3) -> EvolutionResult:
    """Reduced-chain trajectory by fixed-step RK4 on W^{-1}, W^1..W^K, the
    truncation closed by W^{K+1} := W^K."""
    K = state.k_max
    y0 = np.concatenate([[state.Wm1], state.W])
    states, stats = _evolve(_reduced_kernel(K), y0, times, h,
                            lambda y: ReducedChainState(y[0], y[1:]),
                            lambda y: 2.0 * abs(y[0]) * (K + 1), K)
    stats["n_evolve"] = K + 1
    return EvolutionResult(times, states, stats)
