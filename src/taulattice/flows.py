"""Lattice flow right-hand sides and time steppers.

Four systems: the tridiagonal flows (first and second couplings), the
Volterra hierarchy (couplings 2, 4, 6), the five-branch chain for the
banded skew window, and the one-dimensional reduced chain in the W
variables.  The chain also has a dense commutator form used as an
independent cross-check of the banded RHS.

Truncation policy: site 0 is exactly zero for every lattice.  At the right
edge the evolvers close the window with ghost sites built from the
caller-supplied initial data, rescaled by the linearly extrapolated ratio
of current to initial values ("scaled").  On the Gaussian scaling family
every row is shape(n) * amplitude(t), so this closure is exact there; a
doubling test is the empirical guard elsewhere.  Frozen ("pin") and plain
linear extrapolation closures remain available: pinning is simple but
feeds O(1) errors inward once edge amplitudes grow, and fails the scaling
oracle at desk tolerances.  One routine, `_ghost_closure`, implements the
three policies for the Volterra line (scalar edge values) and for every
row of the band window at once ((rows, 1) edge columns).

Kernels: each RHS evaluation is a fixed handful of array operations, not a
loop over sites or bands.  The Volterra stencil reads its neighbours by
slicing a line padded with 4 ghost sites on each side, never by
wrap-around, so it returns rates for the unpadded sites only; it slices
axis 0, so `volterra_rhs` serves a (sites, batch) stack of lines as it
serves one line, with the same arithmetic per column.  The chain
kernel evaluates the band families l <= -2 and l >= 2 in one expression
each, with integer gathers from a `_BandPlan` built from the window shape;
`evolve_pfaff` builds its plan, closure data and padded buffer once per call
and caches nothing beyond it.  The reduced chain's kernel works on the flat
array (W^{-1}, W^1..W^K); `reduced_chain_rhs` wraps it for one state.

Stepping: every evolver, here and in `continuum`, takes classical RK4
steps through `_rk4_step`, the one place the RK4 weights are written
(Hairer, Norsett & Wanner, Solving ODEs I, sec. II.1); h may be a scalar,
or one step per column of a stacked state.  Right-hand sides
take (t, y), so the stepper calls them without a wrapper.  `evolve` takes
fixed steps of at most h, shortened to land on each sample time.

Divergence: each RK4 segment runs with floating-point overflow and invalid
operations raising, so the first overflowing step ends the run with
DivergedField naming the segment, at no per-step cost.  The state is also
checked for NaN or infinity at every sample time, which catches NaN input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DivergedField, StructureViolation
from .lax import PfaffLax, TodaLax

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

_GHOSTS = ("scaled", "pin", "linear")


@dataclass(frozen=True)
class VolterraState:
    """Sites B_1..B_N, positive; B_0 = 0 by convention."""

    B: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 1 or len(B) == 0:
            raise ValueError("B must be a non-empty vector")
        if not np.all(B > 0):
            raise ValueError("B must stay positive")
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def n_sites(self) -> int:
        return len(self.B)


@dataclass(frozen=True)
class ReducedChainState:
    """W^{-1} and W^1..W^K of the one-dimensional reduced chain."""

    Wm1: float
    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 1 or len(W) < 2:
            raise ValueError("need at least W^1 and W^2")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Wm1", float(self.Wm1))

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
        times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    def to_csv(self) -> str:
        heads, rows = _csv_columns(self.states)
        lines = [",".join(["time"] + heads)]
        for t, vals in zip(self.times, rows):
            lines.append(",".join(["%.17g" % t] + ["%.17g" % v for v in vals]))
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

def toda_rhs(state: TodaLax, flow: int = 1):
    """(da, db) for the first or second tridiagonal flow.

    Out-of-window b is zero (finite-matrix closure, exact for the truncated
    operator); under it a_{N+1} only ever appears multiplied by b_N.
    """
    a, b = state.a, state.b
    n = len(a)
    bsq = np.zeros(n + 1)
    bsq[1:n] = b * b
    ap = np.append(a, 0.0)
    if flow == 1:
        da = bsq[1:] - bsq[:-1]
        db = 0.5 * b * (a[1:] - a[:-1])
    elif flow == 2:
        da = (a + ap[1:]) * bsq[1:] - (np.insert(a[:-1], 0, 0.0) + a) * bsq[:-1]
        db = 0.5 * b * (bsq[2:] - bsq[:n - 1] + a[1:] ** 2 - a[:-1] ** 2)
    else:
        raise ValueError(f"tridiagonal flows are 1 or 2, got {flow}")
    return da, db


def _volterra_potential(Bp: np.ndarray, flow: int) -> np.ndarray:
    """Flow potential on sites 3 .. len-4 of the padded line Bp."""
    if flow == 2:
        return Bp[3:-3]
    if flow == 4:
        return Bp[3:-3] * (Bp[2:-4] + Bp[3:-3] + Bp[4:-2])
    if flow == 6:
        V4 = Bp[2:-2] * (Bp[1:-3] + Bp[2:-2] + Bp[3:-1])      # sites 2 .. len-3
        return Bp[3:-3] * (Bp[2:-4] * Bp[4:-2] + V4[:-2] + V4[1:-1] + V4[2:])
    raise ValueError(f"Volterra flows are 2, 4 or 6, got {flow}")


def _volterra_rhs_padded(Bp: np.ndarray, flow: int) -> np.ndarray:
    """Rates of the sites Bp[4:-4]; the 4 ghost sites each side feed the stencil."""
    V = _volterra_potential(Bp, flow)
    return Bp[4:-4] * (V[2:] - V[:-2])


def volterra_rhs(B: np.ndarray, flow: int = 2) -> np.ndarray:
    """dB/dt_{flow} of a (sites,) line, or of each column of a (sites, batch)
    stack; the last flow//2 + 1 sites lean on a linear extension."""
    B = np.asarray(B, dtype=float)
    ghosts = np.zeros((4,) + B.shape[1:])
    Bp = np.concatenate([ghosts, B, ghosts])
    j = np.arange(1, 5).reshape((4,) + (1,) * (B.ndim - 1))
    Bp[-4:] = B[-1] + (B[-1] - B[-2]) * j
    return _volterra_rhs_padded(Bp, flow)


class _BandPlan(NamedTuple):
    """Gather indices of the chain kernel for one window shape.

    Row m of `neg` holds the columns 1 + i + (k - 1), i < n_sites, for the
    band l = -k, k running k_neg .. 2 in window-row order; `pos` holds the
    same for l = k, k = 2 .. k_pos.  `neg_lo` is neg - 1, `pos_hi` pos + 1.
    """

    k_neg: int
    k_pos: int
    n_sites: int
    neg: np.ndarray
    neg_lo: np.ndarray
    pos: np.ndarray
    pos_hi: np.ndarray


def _band_plan(k_neg: int, k_pos: int, n_sites: int) -> _BandPlan:
    i = np.arange(n_sites)
    neg = np.arange(k_neg, 1, -1)[:, None] + i
    pos = np.arange(2, k_pos + 1)[:, None] + i
    return _BandPlan(k_neg, k_pos, n_sites, neg, neg - 1, pos, pos + 1)


def _pfaff_core(Q: np.ndarray, plan: _BandPlan) -> np.ndarray:
    """Five-branch chain RHS on a padded window.

    Q rows hold bands -k_neg-1 .. k_pos+1 (ghost row each side), columns
    hold sites 0 .. n_sites+pad.  Returns the rates of bands -k_neg .. k_pos
    on sites 1 .. n_sites.
    """
    k_neg, k_pos, n = plan.k_neg, plan.k_pos, plan.n_sites
    off = k_neg + 1
    s0, sm, sp = slice(1, n + 1), slice(0, n), slice(2, n + 2)
    W0 = Q[off]
    P = Q[off] * Q[off + 1]
    P0, Pm, Pp = P[s0], P[sm], P[sp]
    W00, W0m, W0p = W0[s0], W0[sm], W0[sp]
    dQ = np.empty((k_neg + k_pos + 1, n))
    if k_neg >= 2:
        # bands l = -k_neg .. -2 sit in rows 1 .. k_neg-1
        w, up, dn = Q[1:off - 1], Q[2:off], Q[:off - 2]
        dQ[:k_neg - 1] = (
            0.5 * w[:, s0] * (P0 - Pm + P[plan.neg] - P[plan.neg_lo])
            + up[:, sp] * W00 - up[:, s0] * W0[plan.neg_lo]
            + dn[:, s0] * W0[plan.neg] - dn[:, sm] * W0m)
    if k_neg >= 1:
        w, wm2 = Q[off - 1], Q[off - 2]
        dQ[k_neg - 1] = (
            w[s0] * (P0 - Pm)
            + W00 * (W00 + wm2[s0])
            - W0m * (W0m + wm2[sm]))
    wm1 = Q[off - 1]
    dQ[k_neg] = 0.5 * W00 * (Pp - Pm) + W00 * (wm1[sp] - wm1[s0])
    if k_pos >= 1:
        w, w2 = Q[off + 1], Q[off + 2]
        dQ[k_neg + 1] = (
            0.5 * w[s0] * (Pm - Pp)
            + W0p * w2[s0] - W0m * w2[sm])
    if k_pos >= 2:
        # bands l = 2 .. k_pos sit in rows off+2 .. off+k_pos
        w, up, dn = Q[off + 2:-1], Q[off + 3:], Q[off + 1:-2]
        dQ[k_neg + 2:] = (
            0.5 * w[:, s0] * (Pm - P0 + P[plan.pos] - P[plan.pos_hi])
            + up[:, s0] * W0[plan.pos_hi] - up[:, sm] * W0m
            + dn[:, sp] * W00 - dn[:, s0] * W0[plan.pos])
    return dQ


def pfaff_chain_rhs(state: PfaffLax) -> np.ndarray:
    """Chain RHS with zero closure outside the window.

    This matches what the dense commutator form sees, so the two agree
    exactly on interior entries; edge entries are truncation-affected.
    """
    k_neg, k_pos, n = state.k_neg, state.k_pos, state.n_sites
    pad = max(k_neg, k_pos) + 1
    Q = np.zeros((k_neg + k_pos + 3, 1 + n + pad))
    Q[1:-1, 1:n + 1] = state.w
    return _pfaff_core(Q, _band_plan(k_neg, k_pos, n))


def _embedding_index(n: int, k_neg: int, k_pos: int):
    """Where the dense embedding holds the window: a (bands, sites) mask of
    the entries it keeps and their dense rows and columns under that mask.
    Band l > 0 of site j sits at (2(j+l)-2, 2j-1), band 0 at (2j-1, 2j) and
    band -l at (2j+2l-3, 2j-2); entries past the 2n x 2n matrix are dropped."""
    ell = np.arange(-k_neg, k_pos + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    rows = np.where(ell > 0, 2 * (j + ell) - 2,
                    np.where(ell < 0, 2 * (j - ell) - 3, 2 * j - 1))
    cols = np.where(ell > 0, 2 * j - 1, np.where(ell < 0, 2 * j - 2, 2 * j))
    keep = (rows < 2 * n) & (cols < 2 * n)
    return keep, rows[keep], cols[keep]


def _dense_embedding(state: PfaffLax) -> np.ndarray:
    n = state.n_sites
    L = np.zeros((2 * n, 2 * n))
    sites = np.arange(n)
    L[2 * sites, 2 * sites + 1] = 1.0
    keep, rows, cols = _embedding_index(n, state.k_neg, state.k_pos)
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


def pfaff_commutator_rhs(state: PfaffLax, *, check_tol: float = 1e-10) -> np.ndarray:
    """Window derivative via the dense form -[(L^2)_proj, L].

    Entries whose dense positions fall outside the embedding are NaN.
    Raises StructureViolation if the derivative leaks into positions the
    band structure pins to 0 (unit superdiagonal, even diagonals) on
    interior rows.
    """
    L = _dense_embedding(state)
    Pi = _skew_block_projection(L @ L)
    D = L @ Pi - Pi @ L
    n, k_neg, k_pos = state.n_sites, state.k_neg, state.k_pos
    dim = 2 * n
    kmax = max(k_neg, k_pos)
    scale = max(1.0, float(np.abs(state.w).max()))
    thresh = check_tol * scale ** 3
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
    keep, rows, cols = _embedding_index(n, k_neg, k_pos)
    out[keep] = D[rows, cols]
    return out


def _reduced_kernel(K: int, ghost: str):
    """Autonomous RHS rates(t, y) of the reduced chain on the flat state
    y = (W^{-1}, W^1..W^K), with the truncation closed by W^{K+1} := W^K
    ("copy") or := 2 ("two")."""
    if ghost not in ("copy", "two"):
        raise ValueError(f"reduced ghost must be 'copy' or 'two', got {ghost!r}")
    copy = ghost == "copy"
    up = np.arange(2.0, K + 2.0)               # k + 1 for k = 1..K
    down = np.arange(0.0, K)                   # k - 1

    def rates(t, y):
        Wm1, W = y[0], y[1:]
        Wp = np.empty(K + 2)                   # 0, W^1..W^K, ghost W^{K+1}
        Wp[0] = 0.0
        Wp[1:-1] = W
        Wp[-1] = W[-1] if copy else 2.0
        out = np.empty(K + 1)
        out[0] = 2.0 * Wm1 * Wm1 * W[0]
        out[1:] = 2.0 * Wm1 * (up * Wp[2:] - W[0] * W - down * Wp[:-2])
        return out

    return rates


def reduced_chain_rhs(state: ReducedChainState, *, ghost: str = "copy"):
    """(dWm1, dW) with the truncation closed by W^{K+1} := W^K or := 2."""
    y = np.concatenate([[state.Wm1], state.W])
    rates = _reduced_kernel(state.k_max, ghost)(0.0, y)
    return rates[0], rates[1:]


# ---------------------------------------------------------------------------
# steppers

def _rk4_step(f, t, y, h):
    """One classical RK4 step of dy/dt = f(t, y) from (t, y)."""
    half = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _segment_steps(span: float, h: float) -> tuple:
    """(count, size) of the equal RK4 steps, at most h each, that cover a
    positive span."""
    steps = max(1, int(math.ceil(span / h - 1e-12)))
    return steps, span / steps


def _rk4_segment(rhs, y, t0, t1, h):
    steps, hs = _segment_steps(t1 - t0, h)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(steps):
                y = _rk4_step(rhs, t0 + i * hs, y, hs)
    except FloatingPointError as exc:
        raise DivergedField(f"RK4 segment [{t0:g}, {t1:g}] ({steps} steps of "
                            f"h={hs:g}) overflowed: {exc}") from exc
    return y, steps


def evolve(rhs, y0: np.ndarray, times, *, h: float = 1e-3):
    """Integrate dy/dt = rhs(t, y) from t=0, sampling at `times`.

    Classical RK4 with steps of at most h, shortened to land on each
    sample.  Returns (states, stats).  Raises DivergedField when a segment
    overflows or a sampled state is not finite.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing vector")
    if times[0] < 0:
        raise ValueError("sampling starts at t >= 0")
    if h <= 0:
        raise ValueError("h must be positive")
    out = []
    y = np.array(y0, dtype=float)
    t_prev = 0.0
    total = 0
    for t in times:
        if t > t_prev:
            y, steps = _rk4_segment(rhs, y, t_prev, t, h)
            total += steps
        if not np.isfinite(y).all():
            raise DivergedField(
                f"trajectory not finite at t={t:g} after {total} RK4 steps "
                f"of h={h:g}")
        out.append(y.copy())
        t_prev = t
    return out, {"stepper": "rk4", "h": h, "steps": total}


def _ghost_closure(i2, i1, init_ghost, policy):
    """Map (a2, a1), the two current edge values, to the ghost values ahead of
    the edge; (i2, i1) are the initial ones.  Edges are scalars (a lattice
    line) or (rows, 1) columns (a band window).  Rows whose initial edge is
    near 0 extrapolate linearly under "scaled"."""
    if policy not in _GHOSTS:
        raise ValueError(f"ghost policy must be one of {_GHOSTS}")
    j = np.arange(1.0, np.shape(init_ghost)[-1] + 1)

    def linear(a2, a1):
        return a1 + j * (a1 - a2)

    ok = np.minimum(np.abs(i1), np.abs(i2)) >= 1e-12 * (np.abs(i1) + np.abs(i2) + 1.0)
    if policy == "pin":
        return lambda a2, a1: init_ghost
    if policy == "linear" or not ok.any():
        return linear

    def scaled(a2, a1):
        r1, r2 = a1 / i1, a2 / i2
        return init_ghost * (r1 + j * (r1 - r2))
    if ok.all():
        return scaled
    i1, i2 = np.where(ok, i1, 1.0), np.where(ok, i2, 1.0)     # read by scaled
    return lambda a2, a1: np.where(ok, scaled(a2, a1), linear(a2, a1))


def evolve_volterra(state: VolterraState, flow: int, times, *, h: float = 1e-3,
                    ghost: str = "scaled", n_evolve: int | None = None) -> EvolutionResult:
    """Volterra trajectory; the outer 4 sites of `state` anchor the closure."""
    B0 = state.B
    N = len(B0)
    pad = 4
    if n_evolve is None:
        n_evolve = N - pad
    if not 2 <= n_evolve <= N - 1:
        raise ValueError("n_evolve must leave at least one anchor site")
    width = max(pad, N - n_evolve)
    init_ghost = np.concatenate([B0[n_evolve:], B0[-1] + (B0[-1] - B0[-2])
                                 * np.arange(1.0, width + 1)])[:width]
    line = _ghost_closure(B0[n_evolve - 2], B0[n_evolve - 1], init_ghost, ghost)
    Bp = np.zeros(4 + n_evolve + pad)           # left ghosts stay 0

    def rhs(t, y):
        Bp[4:4 + n_evolve] = y
        Bp[4 + n_evolve:] = line(y[-2], y[-1])[:pad]
        return _volterra_rhs_padded(Bp, flow)

    ys, stats = evolve(rhs, B0[:n_evolve], times, h=h)
    front = _influence_front(times, ys, lambda y: 2.0 * abs(y[-1]), n_evolve)
    stats.update(ghost=ghost, n_evolve=n_evolve, influence_index=front)
    states = [VolterraState(np.concatenate([y, line(y[-2], y[-1])[:N - n_evolve]]))
              for y in ys]
    return EvolutionResult(times, states, stats)


def _influence_front(times, ys, speed_of, start):
    """Sonic bound on boundary-signal penetration, integrated over samples."""
    front = float(start)
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        front -= dt * speed_of(ys[i - 1])
        front = max(front, 1.0)
    return int(math.floor(front))


def evolve_toda(state: TodaLax, flow: int, times, *, h: float = 1e-3) -> EvolutionResult:
    """Tridiagonal trajectory under the finite-matrix closure."""
    N = state.n_sites

    def rhs(t, y):
        lax = TodaLax(y[:N], np.maximum(y[N:], 1e-300))
        da, db = toda_rhs(lax, flow)
        return np.concatenate([da, db])

    y0 = np.concatenate([state.a, state.b])
    ys, stats = evolve(rhs, y0, times, h=h)
    speed = (lambda y: 2.0 * abs(y[-1])) if flow == 1 else (lambda y: 2.0 * y[-1] ** 2)
    stats.update(influence_index=_influence_front(times, ys, speed, N))
    states = [TodaLax(y[:N], y[N:]) for y in ys]
    return EvolutionResult(times, states, stats)


def evolve_pfaff(state: PfaffLax, times, *, h: float = 1e-3, ghost: str = "scaled",
                 n_evolve: int | None = None, row_margin: int = 1) -> EvolutionResult:
    """Chain trajectory for the banded window.

    The outermost `row_margin` bands and trailing sites of `state` are not
    evolved: they are ghost data pinned to (bands) or rescaled from (sites)
    the initial values, closing the truncation.  Returned windows have the
    full input shape with ghost strips filled by the closure.
    """
    k_neg, k_pos, N = state.k_neg, state.k_pos, state.n_sites
    K1, K2 = k_neg - row_margin, k_pos - row_margin
    if K1 < 2 or K2 < 1:
        raise ValueError("window too shallow for the requested row margin")
    pad = max(K1, K2) + 1
    if n_evolve is None:
        n_evolve = N - pad
    if not 2 <= n_evolve <= N - pad:
        raise ValueError("need %d trailing anchor sites" % pad)
    W0 = state.w
    rows = slice(row_margin, k_neg + k_pos + 1 - row_margin)
    n_rows = K1 + K2 + 1
    init_active = W0[rows]
    closure = _ghost_closure(init_active[:, n_evolve - 2:n_evolve - 1],
                             init_active[:, n_evolve - 1:n_evolve],
                             init_active[:, n_evolve:], ghost)
    plan = _band_plan(K1, K2, n_evolve)
    Q = np.zeros((n_rows + 2, 1 + n_evolve + pad))   # ghost rows and site 0 fixed
    Q[0, 1:] = W0[row_margin - 1, :n_evolve + pad]
    Q[-1, 1:] = W0[k_neg + k_pos + 1 - row_margin, :n_evolve + pad]

    def rhs(t, y):
        y2d = y.reshape(n_rows, n_evolve)
        Q[1:-1, 1:n_evolve + 1] = y2d
        Q[1:-1, n_evolve + 1:] = closure(y2d[:, -2:-1], y2d[:, -1:])[:, :pad]
        return _pfaff_core(Q, plan).ravel()

    y0 = init_active[:, :n_evolve].ravel()
    ys, stats = evolve(rhs, y0, times, h=h)
    r0 = K1  # band-0 position inside the active block
    speed = lambda y: abs(y.reshape(n_rows, n_evolve)[r0, -1]
                          * y.reshape(n_rows, n_evolve)[r0 + 1, -1])
    stats.update(ghost=ghost, n_evolve=n_evolve, row_margin=row_margin,
                 influence_index=_influence_front(times, ys, speed, n_evolve))
    states = []
    for y in ys:
        y2d = y.reshape(n_rows, n_evolve)
        w = W0.copy()
        w[rows, :n_evolve] = y2d
        w[rows, n_evolve:] = closure(y2d[:, -2:-1], y2d[:, -1:])
        states.append(PfaffLax(w, k_neg, k_pos))
    return EvolutionResult(times, states, stats)


def evolve_reduced(state: ReducedChainState, times, *, h: float = 1e-3,
                   ghost: str = "copy") -> EvolutionResult:
    """Reduced-chain trajectory by fixed-step RK4 on W^{-1}, W^1..W^K."""
    K = state.k_max
    y0 = np.concatenate([[state.Wm1], state.W])
    ys, stats = evolve(_reduced_kernel(K, ghost), y0, times, h=h)
    front = _influence_front(times, ys, lambda y: 2.0 * abs(y[0]) * (K + 1), K)
    stats.update(ghost=ghost, n_evolve=K + 1, influence_index=front)
    states = [ReducedChainState(y[0], y[1:]) for y in ys]
    return EvolutionResult(times, states, stats)
