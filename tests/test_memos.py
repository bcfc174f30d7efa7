"""The process memos, the only caches in front of quadrature: Stieltjes
bases, skew bases and log-tau jets.  Equal keys share one read-only result,
handed out as it is; a repeated key builds no grid; a call that raises is
not kept; the shared bound drops the least recently used key; and a hit
equals the cold call byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taulattice import (CouplingVector, IllConditioned, NonIntegrableWeight, log_tau,
                        skew_moment_matrix, skew_orthonormal_basis, tau_coupling_derivative,
                        toda_lax_from_quadrature)
from taulattice import couplings, lax, moments

_MEMOS = {"basis": moments._stieltjes_basis, "skew": lax._skew_basis, "jets": moments._kept_jets}
_T = CouplingVector.from_mapping({2: 0.1, 4: -0.05})
_JETS = ("orthogonal", (0, 2, 4), _T, (1, 2), ((2, 0), (0, 1)))


def counted_stieltjes(monkeypatch):
    """The sizes of every Stieltjes recurrence run from here on."""
    calls = []
    run = moments._stieltjes

    def counted(nodes, measure, count):
        calls.append(count)
        return run(nodes, measure, count)

    monkeypatch.setattr(moments, "_stieltjes", counted)
    return calls


def test_equal_keys_share_one_read_only_result(fresh_grids):
    basis = moments._stieltjes_basis("orthogonal", 8, _T)
    skew = lax._skew_basis(_T, 4)
    same = CouplingVector.from_mapping({4: -0.05, 2: 0.1})
    assert moments._stieltjes_basis("orthogonal", 8, same) is basis
    assert lax._skew_basis(same, 4) is skew
    for arr in (*basis, skew.coeffs, skew.h, skew.jacobi.a, skew.jacobi.b):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert moments._stieltjes_basis("unitary", 8, _T)[0] is None


def test_log_tau_leaves_the_kept_gram_as_it_was(fresh_grids, monkeypatch):
    # the Pfaffian pivots overwrite their matrix, so log_tau eliminates a
    # copy of the kept F; the second call is a hit
    calls = counted_stieltjes(monkeypatch)
    first = np.array(log_tau("orthogonal", 10, _T))
    F = moments._stieltjes_basis("orthogonal", 10, _T)[0]
    kept = F.tobytes()
    assert np.array(log_tau("orthogonal", 10, _T)).tobytes() == first.tobytes()
    assert F.tobytes() == kept
    assert calls == [10]


def test_loop_closure_pipeline_runs_one_stieltjes_recurrence(fresh_grids, monkeypatch):
    # the moment matrix and the skew basis read one kept rho^2 basis; the
    # pipeline ran the recurrence and its skew Gram once for each
    calls = counted_stieltjes(monkeypatch)
    basis = skew_orthonormal_basis(skew_moment_matrix(_T, 28), 14)
    assert calls == [28]
    assert basis is lax._skew_basis(_T, 14)


@pytest.mark.parametrize("memo, call, error", [
    ("basis", lambda: moments._stieltjes_basis("orthogonal", 600, CouplingVector()),
     IllConditioned),
    ("basis", lambda: log_tau("unitary", 4, CouplingVector.from_mapping({4: 0.1})),
     NonIntegrableWeight),
    ("skew", lambda: lax._skew_basis(CouplingVector(), 300), IllConditioned),
    ("skew", lambda: lax._skew_basis(CouplingVector.from_mapping({4: 0.1}), 2),
     NonIntegrableWeight),
    ("jets", lambda: moments._log_tau_jets("orthogonal", (598,), CouplingVector(), (2,), ((1,),)),
     IllConditioned),
    ("jets", lambda: tau_coupling_derivative("unitary", 4, CouplingVector.from_mapping({4: 0.1}),
                                             {2: 1}),
     NonIntegrableWeight),
], ids=["basis-600", "basis-divergent", "skew-300", "skew-divergent", "jets-598",
        "jets-divergent"])
def test_a_call_that_raises_is_not_kept(fresh_grids, memo, call, error):
    for _ in range(2):
        with pytest.raises(error):
            call()
    info = _MEMOS[memo].cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 2)


def _shifted(k):
    return CouplingVector.from_mapping({2: 0.01 * k})


@pytest.mark.parametrize("memo, call", [
    ("basis", lambda k: moments._stieltjes_basis("unitary", 2, _shifted(k))),
    ("skew", lambda k: lax._skew_basis(_shifted(k), 1)),
    ("jets", lambda k: moments._log_tau_jets("unitary", (1,), _shifted(k), (1,), ((1,),))),
], ids=["basis", "skew", "jets"])
def test_the_bound_drops_the_least_recently_used_key(fresh_grids, memo, call):
    memo = _MEMOS[memo]
    size = moments._MEMO_SIZE
    for k in range(size):
        call(k)
    call(0)                      # a hit: key 0 is now the most recently used
    call(size)                   # one past the bound drops key 1
    info = memo.cache_info()
    assert (info.currsize, info.hits, info.misses) == (size, 1, size + 1)
    call(0)                      # kept
    assert memo.cache_info().misses == size + 1
    call(1)                      # dropped
    assert memo.cache_info().misses == size + 2


def test_a_jets_hit_hands_out_the_kept_read_only_mapping(fresh_grids):
    first = moments._log_tau_jets(*_JETS)
    assert moments._log_tau_jets(*_JETS) is first
    assert moments._kept_jets.cache_info().hits == 1
    with pytest.raises(TypeError):
        first[4] = None
    with pytest.raises(TypeError):
        first[2][2][0, 1] = 99.0


def counted_radii(monkeypatch):
    """The keys of every grid's radius solve from here on."""
    calls = []
    solve = couplings._radius_for

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(couplings, "_radius_for", counted)
    return calls


@pytest.mark.parametrize("call", [
    lambda: log_tau("orthogonal", 10, _T),
    lambda: log_tau("unitary", 10, _T),
    lambda: toda_lax_from_quadrature(_T, 6),
    lambda: tau_coupling_derivative("unitary", 4, _T, {2: 1, 4: 1}),
    lambda: tau_coupling_derivative("orthogonal", 4, _T, {2: 2}),
    lambda: lax._skew_basis(_T, 5),
    lambda: skew_moment_matrix(_T, 10),
], ids=["log-tau-orthogonal", "log-tau-unitary", "toda", "jets-unitary", "jets-orthogonal",
        "skew-basis", "skew-moments"])
def test_a_repeated_key_builds_no_grid(fresh_grids, monkeypatch, call):
    # the basis memo is the one cache in front of quadrature: each route to
    # the basis solves one radius per distinct basis key, however often
    # the same key is asked for
    calls = counted_radii(monkeypatch)
    call()
    call()
    assert len(calls) == moments._stieltjes_basis.cache_info().currsize == 1


def _values(ensemble, n, t, pairs, orders):
    """log_tau, one coupling derivative and the skew basis, as bytes."""
    basis = lax._skew_basis(t, pairs)
    return (np.array(log_tau(ensemble, n, t)).tobytes(),
            np.float64(tau_coupling_derivative(ensemble, n, t, orders)).tobytes(),
            *(arr.tobytes() for arr in (basis.coeffs, basis.h, basis.jacobi.a, basis.jacobi.b)))


@given(st.floats(-0.2, 0.2), st.floats(-0.08, 0.0), st.integers(1, 12),
       st.sampled_from(["unitary", "orthogonal"]),
       st.sampled_from([{2: 1}, {4: 1}, {2: 2}, {2: 1, 4: 1}]))
@settings(max_examples=20, deadline=None)
def test_a_hit_equals_the_cold_call(t2, t4, pairs, ensemble, orders):
    t = CouplingVector.from_mapping({2: t2, 4: t4})
    n = 2 * pairs
    with pytest.MonkeyPatch.context() as mp:
        # every memo bypassed: each value is computed afresh
        for module in (moments, lax):
            mp.setattr(module, "_stieltjes_basis", _MEMOS["basis"].__wrapped__)
        mp.setattr(moments, "_kept_jets", _MEMOS["jets"].__wrapped__)
        mp.setattr(lax, "_skew_basis", _MEMOS["skew"].__wrapped__)
        cold = _values(ensemble, n, t, pairs, orders)
    _values(ensemble, n, t, pairs, orders)   # fills the memos, if they did not hold it
    hits = {name: memo.cache_info().hits for name, memo in _MEMOS.items()}
    assert _values(ensemble, n, t, pairs, orders) == cold
    assert all(memo.cache_info().hits > hits[name] for name, memo in _MEMOS.items())
