import numpy as np
import pytest

from taulattice import CouplingVector, lax, moments


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


PROCESS_MEMOS = (moments._stieltjes_basis, moments._kept_jets, lax._skew_basis)


@pytest.fixture
def fresh_grids():
    """Empty the three process memos (`moments._stieltjes_basis`,
    `moments._kept_jets` and `lax._skew_basis`), the only caches in front
    of quadrature, before the test and after it: a test counting radius
    solves sees every grid its code builds, not a basis an earlier test left
    in a memo, and nothing a test builds under a patched helper outlives it."""
    for memo in PROCESS_MEMOS:
        memo.cache_clear()
    yield
    for memo in PROCESS_MEMOS:
        memo.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1812)
