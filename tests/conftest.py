import numpy as np
import pytest

from taulattice import CouplingVector, couplings


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


@pytest.fixture
def fresh_grids():
    """An empty grid memo, so that a test counting radius solves sees every
    grid its code builds, not one an earlier test left in the memo."""
    couplings._converged_grid.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1812)
