"""Lax representations of the lattice flows.

Two shapes live here.  The tridiagonal form (diagonal a_n, off-diagonal
b_n) encodes three-term recurrences of orthogonal polynomials for an even
weight deformed by couplings.  The banded skew form stores the window
w^l_n, -K_neg <= l <= K_pos, of the multiplication operator written in a
skew-orthonormal polynomial basis; its dense embedding interleaves the
band into a 2N x 2N matrix with unit entries on part of the superdiagonal.

Both have closed-form initial data at zero couplings (Gaussian ensembles),
and both are rebuilt by quadrature from the Stieltjes bases that
`moments.log_tau` also uses, which is what the consistency oracles
exercise.  The tridiagonal form is the Jacobi matrix of the basis of rho.
The skew-orthonormal pairs come from a skew Gram-Schmidt on the basis of
rho^2, in the scale of its orthonormal q_k, one block step per pair that
removes every earlier pair at once, and the window is read off its Jacobi
matrix with the operator's fixed pattern checked by array reductions; the
parity-Hermite polynomials here serve the closed-form side only.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .couplings import CouplingVector, _checked_int, _own_arrays, build_quadrature
from .errors import IllConditioned, SingularMinor, StructureViolation
from .moments import SkewMomentMatrix, _log_tau_jets, _skew_products, _stieltjes_basis
from .report import IdentityReport

__all__ = [
    "TodaLax",
    "PfaffLax",
    "SkewOrthoBasis",
    "gue_lax_init",
    "goe_lax_init",
    "toda_lax_from_quadrature",
    "skew_orthonormal_basis",
    "pfaff_lax_from_basis",
    "pfaff_entries_from_tau",
    "skew_hermite_map_check",
    "hermite_map_coeffs",
    "c_coeff",
    "nu_values",
    "sqrt_ratio_product",
]

# The skew Gram-Schmidt refuses a pair product at or below this floor as
# SingularMinor, and one whose rounding error exceeds this fraction of itself
# as IllConditioned.  Pair products live in the scale of the orthonormal q_k:
# h_n is 1 at zero coupling and about 4.4 at pair 202.
_PAIR_FLOOR = 1e-12


def c_coeff(n) -> np.ndarray | float:
    """sqrt(2n(2n-1)), the site-dependent factor of the Gaussian skew window,
    for sites n >= 1."""
    n = np.asarray(n, dtype=float)
    if not np.all(n >= 1.0):            # NaN fails too
        raise ValueError(f"sites must be at least 1, got {np.min(n)}")
    out = np.sqrt(2.0 * n * (2.0 * n - 1.0))
    return float(out) if out.ndim == 0 else out


def nu_values(count: int) -> np.ndarray:
    """Skew norms sqrt(pi) (2n)! / 4^n for n = 0..count-1, by stable recursion."""
    count = _checked_int("count", count, 0)
    nu = np.empty(count)
    if count == 0:
        return nu
    nu[0] = math.sqrt(math.pi)
    for m in range(count - 1):
        nu[m + 1] = nu[m] * (2 * m + 1) * (m + 1) / 2.0
    return nu


def sqrt_ratio_product(start: int, count: int) -> float:
    """sqrt of prod_{i=start}^{start+count-1} 2i/(2i-1); 1.0 for count <= 0.

    Each factor is barely above 1, so this form never overflows where the
    equivalent factorial ratio would.
    """
    start, count = _checked_int("start", start, 1), _checked_int("count", count)
    if count <= 0:
        return 1.0
    acc = 1.0
    for i in range(start, start + count):
        acc *= 2.0 * i / (2.0 * i - 1.0)
    return math.sqrt(acc)


@dataclass(frozen=True)
class TodaLax:
    """Tridiagonal Lax data: diagonal a (N sites), off-diagonal b (N-1), b > 0."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = _own_arrays(self, "a", "b")
        if a.ndim != 1 or b.ndim != 1 or len(b) != len(a) - 1:
            raise ValueError("need len(b) == len(a) - 1")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("a and b must be finite")
        if np.any(b <= 0):
            raise ValueError("off-diagonal entries must be positive")

    @property
    def n_sites(self) -> int:
        return len(self.a)

    def matrix(self) -> np.ndarray:
        L = np.diag(self.a)
        idx = np.arange(self.n_sites - 1)
        L[idx, idx + 1] = self.b
        L[idx + 1, idx] = self.b
        return L


def gue_lax_init(n_sites: int) -> TodaLax:
    """a_n = 0, b_n = sqrt(n): the zero-coupling Gaussian recurrence."""
    n_sites = _checked_int("n_sites", n_sites, 1)
    return TodaLax(np.zeros(n_sites), np.sqrt(np.arange(1.0, n_sites)))


def toda_lax_from_quadrature(t: CouplingVector, n_sites: int) -> TodaLax:
    """Recurrence coefficients of the orthonormal polynomials of rho dz.

    The Jacobi matrix of the Stieltjes basis behind the unitary `log_tau`:
    z q_k = b_{k+1} q_{k+1} + a_k q_k + b_k q_{k-1} gives a_k, k < n_sites,
    and b_k, 1 <= k < n_sites.
    """
    n_sites = _checked_int("n_sites", n_sites, 1)
    _, _, a, b = _stieltjes_basis("unitary", n_sites, t)
    return TodaLax(a, b[1:])


@dataclass(frozen=True)
class PfaffLax:
    """Banded window of the skew-basis multiplication operator.

    w[l + k_neg, n - 1] holds w^l_n for -k_neg <= l <= k_pos, 1 <= n <= n_sites;
    the band counts k_neg and k_pos are non-negative integers.
    """

    w: np.ndarray
    k_neg: int
    k_pos: int

    def __post_init__(self):
        for name in ("k_neg", "k_pos"):
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), 0))
        w, = _own_arrays(self, "w")
        if w.ndim != 2 or w.shape[0] != self.k_neg + self.k_pos + 1:
            raise ValueError(
                f"window array must have {self.k_neg + self.k_pos + 1} rows")
        if not np.isfinite(w).all():
            raise ValueError("window entries must be finite")

    @property
    def n_sites(self) -> int:
        return self.w.shape[1]

    def get(self, ell: int, n: int) -> float:
        if not -self.k_neg <= ell <= self.k_pos:
            raise IndexError(f"band index {ell} outside [-{self.k_neg}, {self.k_pos}]")
        if not 1 <= n <= self.n_sites:
            raise IndexError(f"site {n} outside [1, {self.n_sites}]")
        return float(self.w[ell + self.k_neg, n - 1])

    def to_json(self) -> str:
        entries = {}
        for row, ell in enumerate(range(-self.k_neg, self.k_pos + 1)):
            for col in range(self.n_sites):
                entries[f"{ell},{col + 1}"] = self.w[row, col]
        return json.dumps({"N": self.n_sites, "Kpos": self.k_pos, "w": entries})

    @classmethod
    def from_json(cls, text: str) -> "PfaffLax":
        """The window of `to_json`'s text.  A ValueError names N unless it is an integer
        >= 1, Kpos unless one >= 0, and a key unless "band,site" in the window."""
        data = json.loads(text)
        n_sites, k_pos = _checked_int("N", data["N"], 1), _checked_int("Kpos", data["Kpos"], 0)
        entries = {}
        for key, value in data["w"].items():
            pair = re.fullmatch(r"(-?[0-9]+),([0-9]+)", key)
            if not (pair and int(pair[1]) <= k_pos and 1 <= int(pair[2]) <= n_sites):
                raise ValueError(f"window key {key!r} is not 'band,site' with band <= "
                                 f"Kpos = {k_pos} and site in 1..{n_sites}")
            entries[int(pair[1]), int(pair[2])] = float(value)
        k_neg = -min((ell for ell, _ in entries), default=0)
        w = np.zeros((k_neg + k_pos + 1, n_sites))
        for (ell, n), value in entries.items():
            w[ell + k_neg, n - 1] = value
        return cls(w, k_neg, k_pos)


def _embedding_index(n_sites: int, k_neg: int, k_pos: int, dim: int):
    """Where a dim x dim dense operator holds the band window: a (bands,
    sites) mask of the entries inside it and their dense rows and columns
    under that mask.  Band l > 0 of site j sits at (2(j+l)-2, 2j-1), band 0
    at (2j-1, 2j) and band -l at (2j+2l-3, 2j-2)."""
    ell = np.arange(-k_neg, k_pos + 1)[:, None]
    j = np.arange(1, n_sites + 1)[None, :]
    rows = np.where(ell > 0, 2 * (j + ell) - 2,
                    np.where(ell < 0, 2 * (j - ell) - 3, 2 * j - 1))
    cols = np.where(ell > 0, 2 * j - 1, np.where(ell < 0, 2 * j - 2, 2 * j))
    keep = (rows < dim) & (cols < dim)
    return keep, rows[keep], cols[keep]


def _manifold_window(wm1: float, W, n_sites: int, k_neg: int) -> PfaffLax:
    """The window on the reduced manifold of (W^{-1}, W^1..W^K), the inverse
    of `identities._reduced_coordinates`, over n_sites sites and the bands
    -k_neg..K, k_neg >= 2.

    w^{-1}_n = W^{-1}, w^0_n = c_n W^{-1}, w^{-2}_n = -w^0_n, deeper negatives
    vanish, and w^k_n = W^k sqrt(prod_{i=n}^{n+k-1} 2i/(2i-1)).  Band k takes
    the running product of band k - 1 times the factor at i = n + k - 1, so
    every site multiplies the factors of `sqrt_ratio_product(n, k)` in its
    order.
    """
    w = np.zeros((k_neg + len(W) + 1, n_sites))
    w[k_neg - 1] = wm1
    w[k_neg] = c_coeff(np.arange(1.0, n_sites + 1)) * wm1
    w[k_neg - 2] = -w[k_neg]
    i = np.arange(1.0, n_sites + len(W))
    ratio = 2.0 * i / (2.0 * i - 1.0)          # the factor at i = 1, 2, ...
    acc = np.ones(n_sites)
    for k, Wk in enumerate(W, 1):
        acc *= ratio[k - 1:k - 1 + n_sites]
        w[k_neg + k] = Wk * np.sqrt(acc)
    return PfaffLax(w, k_neg, len(W))


def goe_lax_init(n_sites: int, k_pos: int, k_neg: int = 6) -> PfaffLax:
    """Closed-form window at zero couplings: the manifold window at
    W^{-1} = 1/2 and W^k = 2, so w^0_n = c_n/2, w^{-1}_n = 1/2,
    w^{-2}_n = -c_n/2, deeper negatives vanish, and w^k_n for k >= 1 is
    2 sqrt(prod_{i=n}^{n+k-1} 2i/(2i-1))."""
    n_sites, k_pos = _checked_int("n_sites", n_sites, 1), _checked_int("k_pos", k_pos, 0)
    return _manifold_window(0.5, np.full(k_pos, 2.0), n_sites, _checked_int("k_neg", k_neg, 2))


def _parity_hermite_coeffs(count: int) -> np.ndarray:
    """Monomial coefficients of the monic polynomials with z P_k = P_{k+1} + (k/2) P_{k-1}."""
    C = np.zeros((count, count))
    C[0, 0] = 1.0
    if count > 1:
        C[1, 1] = 1.0
    for k in range(1, count - 1):
        C[k + 1, 1:] = C[k, :-1]
        C[k + 1] -= 0.5 * k * C[k - 1]
    return C


@dataclass(frozen=True)
class SkewOrthoBasis:
    """Polynomial pairs (Q_{2n}, Q_{2n+1}) with skew-diagonal Gram, each the
    monic pair over r_{2n}, r_k^2 the monic norm of q_k.

    coeffs[i] holds Q_i in the orthonormal polynomials q_k of rho^2 dz;
    h[n] is the pair product <Q_{2n}, Q_{2n+1}> (1 at zero coupling); jacobi
    is the truncated Jacobi matrix of the q_k, i.e. multiplication by z.
    """

    coeffs: np.ndarray
    h: np.ndarray
    jacobi: TodaLax
    couplings: CouplingVector

    def __post_init__(self):
        _, h = _own_arrays(self, "coeffs", "h")
        if np.any(h <= 0):
            raise ValueError("pair products must be positive")

    @property
    def n_pairs(self) -> int:
        return len(self.h)


def skew_orthonormal_basis(m: SkewMomentMatrix, n_pairs: int) -> SkewOrthoBasis:
    """Skew Gram-Schmidt producing pairs with <Q_{2n}, Q_{2n+1}> = h_n.

    Reads only m.couplings and m.size, which must cover the 2 n_pairs
    polynomials; the work is `_skew_basis` at those couplings.
    """
    n_pairs = _checked_int("n_pairs", n_pairs, 1)
    if m.size < 2 * n_pairs:
        raise ValueError(f"skew matrix of size {m.size} cannot support {n_pairs} pairs")
    return _skew_basis(m.couplings, n_pairs)


def _skew_basis(t: CouplingVector, n_pairs: int) -> SkewOrthoBasis:
    """Skew Gram-Schmidt on the skew Gram of the Stieltjes basis that
    `log_tau` uses for the orthogonal tau, at couplings t."""
    return _skew_gram_schmidt(_stieltjes_basis("orthogonal", 2 * n_pairs, t), t)


def _skew_gram_schmidt(stieltjes: tuple, t: CouplingVector) -> SkewOrthoBasis:
    """Skew Gram-Schmidt on an orthogonal `_stieltjes_basis` (F, log_h, a, b)
    built at couplings t, one block step per pair, seeded with q_{2n} and
    b_{2n+1} q_{2n+1}: both lead with z^{2n} / r_{2n}, so log_h is not read.
    Removing Q_{2n+1}'s z^{2n} term fixes the gauge Q_{2n+1} += c Q_{2n}.

    h_n sums terms of total size K_n = |Q_{2n}| |F| |Q_{2n+1}|, within about
    10 h_n while the q_k are orthonormal under rho^2.  Past the breakdown of
    the rho^2 recurrence (at the Gaussian point from about 190 pairs) K_n
    grows and no structure check sees the window go wrong, so a rounding
    error K_n eps above _PAIR_FLOOR h_n is refused as IllConditioned.
    """
    F, _, a, b = stieltjes
    dim = len(F)
    n_pairs = dim // 2
    sub_lead = -np.cumsum(a)        # z^k coefficient of monic p_{k+1}
    abs_F = np.abs(F)
    W = np.zeros((dim, dim))
    h = np.empty(n_pairs)
    for n in range(n_pairs):
        Q = W[2 * n:2 * n + 2]   # a view: the pair is built in place
        Q[[0, 1], [2 * n, 2 * n + 1]] = 1.0, b[2 * n + 1]
        # remove every earlier pair p at once; the product is antisymmetric,
        # so G[2p] = <Q_2p, .>/h_p fixes the odd member's coefficient and
        # G[2p + 1] the even one's
        G = W[:2 * n] @ (F @ Q.T) / np.repeat(h[:n], 2)[:, None]
        Q += G[1::2].T @ W[0:2 * n:2] - G[0::2].T @ W[1:2 * n:2]
        # gauge pin: Q_{2n+1}'s z^{2n} term, sub_lead[2n] / r_{2n}, is all from
        # b_{2n+1} q_{2n+1} = p_{2n+1} / r_{2n}; Q_{2n} leads with 1 / r_{2n}
        W[2 * n + 1] -= sub_lead[2 * n] * W[2 * n]
        h[n] = W[2 * n] @ F @ W[2 * n + 1]
        if not _PAIR_FLOOR < h[n] < math.inf:   # NaN fails too
            raise SingularMinor(f"pair product h_{n} = {h[n]:.3e} is not finite and above "
                                f"the floor {_PAIR_FLOOR:g}")
    K = np.einsum("ij,ij->i", np.abs(W[0::2]) @ abs_F, np.abs(W[1::2]))
    lost = np.flatnonzero(K * np.finfo(float).eps > _PAIR_FLOOR * h)
    if lost.size:
        n = int(lost[0])
        raise IllConditioned(f"pair product h_{n} = {h[n]:.3e} cancels terms of total size "
                             f"{K[n]:.3e}: its rounding error passes {_PAIR_FLOOR:g} of it")
    return SkewOrthoBasis(W, h, TodaLax(a, b[1:]), t)


def pfaff_lax_from_basis(basis: SkewOrthoBasis, n_sites: int, k_pos: int,
                         k_neg: int = 6, *, check_tol: float = 1e-6) -> PfaffLax:
    """Read the banded window off the multiplication operator in the normalized basis.

    With W the normalized pairs in q-coordinates and J the Jacobi matrix,
    the operator is L = W J W^{-1}.  Requires n_sites + max(k_pos, k_neg) <=
    basis.n_pairs so every extracted entry sits inside the representable
    block.  Raises StructureViolation if the operator's fixed pattern (unit
    entries, vanishing upper fringe) is not reproduced to check_tol, or, when
    the couplings give an even weight (`parity_even_only`), if an entry the
    parity forbids (same-parity modes, on or below the superdiagonal)
    exceeds check_tol (finite and positive) relative to the operator's scale.
    """
    n_sites = _checked_int("n_sites", n_sites, 1)
    k_pos, k_neg = _checked_int("k_pos", k_pos, 0), _checked_int("k_neg", k_neg, 0)
    if not 0.0 < check_tol < math.inf:   # NaN fails too
        raise ValueError(f"check_tol must be finite and positive, got {check_tol}")
    n_pairs = basis.n_pairs
    if n_sites + max(k_pos, k_neg) > n_pairs or n_sites >= n_pairs:
        raise ValueError("basis too small for the requested window")
    Wn = basis.coeffs / np.repeat(np.sqrt(basis.h), 2)[:, None]
    M = Wn @ basis.jacobi.matrix()
    # Wn is lower triangular, so the LU pivots stay on the diagonal
    L = np.linalg.solve(Wn.T, M.T).T
    # row 2*n_pairs - 1 of L is truncation-corrupted; nothing below reads it
    scale = max(1.0, float(np.abs(L[: 2 * n_pairs - 1]).max()))
    dim = 2 * n_pairs - 1
    fringe = np.triu(np.abs(L[:dim]), 2).max(axis=1)   # each row beyond i + 1
    bad = np.flatnonzero(fringe > check_tol * scale)
    if bad.size:
        raise StructureViolation(
            f"row {bad[0]} has weight beyond the superdiagonal: {fringe[bad[0]]:.3e}")
    unit = L[np.arange(0, 2 * n_sites, 2), np.arange(1, 2 * n_sites, 2)]
    bad = np.flatnonzero(np.abs(unit - 1.0) > check_tol)
    if bad.size:
        raise StructureViolation(
            f"unit superdiagonal entry at pair {bad[0] + 1} reads {unit[bad[0]]:.6f}")
    if basis.couplings.parity_even_only:
        # even weight: the operator only connects opposite-parity modes
        ii, jj = np.indices((dim, dim))
        board = (jj <= ii + 1) & ((ii + jj) % 2 == 0)
        worst = float(np.abs(L[:dim, :dim][board]).max())
        if worst > check_tol * scale:
            raise StructureViolation(
                f"parity-forbidden entry of size {worst:.3e} in the operator")
    w = np.zeros((k_neg + k_pos + 1, n_sites))
    keep, rows, cols = _embedding_index(n_sites, k_neg, k_pos, len(L))
    w[keep] = L[rows, cols]
    return PfaffLax(w, k_neg, k_pos)


def pfaff_entries_from_tau(t: CouplingVector, n_pairs: int) -> dict:
    """w^0, w^1, w^{-1} at sites 1..n_pairs from Pfaffian tau-ratios.

    An independent route to the window: log tau values and their exact
    d^2/dt1^2 and d/dt2 jets (`moments._log_tau_jets`), all from one
    orthogonal Stieltjes basis.
    """
    n_pairs = _checked_int("n_pairs", n_pairs, 1)
    jets = _log_tau_jets("orthogonal", range(0, 2 * n_pairs + 3, 2), t, (1, 2),
                         [(2, 0), (0, 1)])
    log_t = {size: log_abs for size, (_, log_abs, _) in jets.items()}
    # tau''/tau and tau'/tau from the Taylor coefficients c of log tau
    d11 = {size: 2.0 * c[2, 0] + c[1, 0] ** 2 for size, (_, _, c) in jets.items()}
    d2 = {size: c[0, 1] for size, (_, _, c) in jets.items()}
    out = {}
    for n in range(1, n_pairs + 1):
        prev, mid = 2 * n - 2, 2 * n
        log_outer = 0.5 * (log_t[prev] + log_t[mid + 2])   # log sqrt(tau_lo tau_hi)
        out[(0, n)] = math.exp(log_outer - log_t[mid])
        out[(1, n)] = d11[mid] * math.exp(log_t[mid] - log_outer)
        out[(-1, n)] = 0.5 * (d2[mid] - d11[mid]) - 0.5 * (d2[prev] + d11[prev])
    return out


def hermite_map_coeffs(n_pairs: int) -> np.ndarray:
    """Closed-form zero-coupling pair basis: Q_{2n} = P_{2n} and
    Q_{2n+1} = P_{2n+1} - n P_{2n-1}, P monic parity-Hermite."""
    n_pairs = _checked_int("n_pairs", n_pairs, 1)
    dim = 2 * n_pairs
    C = _parity_hermite_coeffs(dim)
    Q = C.copy()
    for n in range(1, n_pairs):
        Q[2 * n + 1] -= n * C[2 * n - 1]
    return Q


def skew_hermite_map_check(n_pairs: int = 6, *, tolerance: float = 1e-9) -> IdentityReport:
    """Verify the closed-form pair basis is skew-orthogonal at zero coupling.

    Builds Q from hermite_map_coeffs and checks <Q_{2n}, Q_{2m+1}> =
    nu_n delta_{mn} (and zero same-parity pairings) by quadrature; the
    residual is the largest violation of the nu-scaled Gram.
    """
    n_pairs = _checked_int("n_pairs", n_pairs, 1)
    t0 = CouplingVector.from_mapping({})
    dim = 2 * n_pairs
    grid = build_quadrature(t0, max_degree=dim + 2)
    nu = nu_values(n_pairs)
    Qs = hermite_map_coeffs(n_pairs) / np.repeat(np.sqrt(nu), 2)[:, None]
    S = _skew_products(grid, Qs @ grid.nodes ** np.arange(dim)[:, None], grid.rho)
    expected = np.kron(np.eye(n_pairs), [[0.0, 1.0], [-1.0, 0.0]])
    residual = float(np.abs(S - expected).max())
    meta = {"n_pairs": n_pairs, "<Q0,Q1>": float(S[0, 1] * nu[0])}
    if n_pairs >= 2:
        meta["<Q2,Q1>"] = float(S[2, 1] * math.sqrt(nu[1] * nu[0]))
        meta["<Q2,Q3>"] = float(S[2, 3] * nu[1])
    return IdentityReport.from_residual(
        "skew-map-orthogonality", residual, tolerance, meta=meta)
