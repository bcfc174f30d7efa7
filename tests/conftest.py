import numpy as np
import pytest

from taulattice import CouplingVector, couplings, lax, moments


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # keep the per-criterion verdicts visible even though pytest captures
    # stdout of passing tests
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line for an acceptance criterion."""
    def record(code: str, name: str, ok: bool, detail: str):
        line = f"[acceptance] {code} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        request.config._acceptance_lines.append(line)
        print(line)
        assert ok, line
    return record


@pytest.fixture(scope="session")
def t0():
    return CouplingVector.from_mapping({})


# the library's process memos, the only caches in front of quadrature; the
# tests name them here alone
PROCESS_MEMOS = (moments._stieltjes_basis, moments._log_tau_jets, lax._skew_basis)


@pytest.fixture
def fresh_grids():
    """Empty the process memos `PROCESS_MEMOS` before the test and after
    it: a test counting radius solves sees every grid its code builds, not
    a basis an earlier test left in a memo, and nothing a test builds under
    a patched helper outlives it."""
    for memo in PROCESS_MEMOS:
        memo.cache_clear()
    yield
    for memo in PROCESS_MEMOS:
        memo.cache_clear()


@pytest.fixture
def counted_radii(monkeypatch):
    """The keys of every grid's radius solve during the test."""
    calls = []
    solve = couplings._radius_for

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(couplings, "_radius_for", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1812)
