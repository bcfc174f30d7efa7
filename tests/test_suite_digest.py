"""`scripts/suite_digest.py` on two cheap suites and one short march: what
it hashes and prints."""

import hashlib
import importlib.util
import json
import os
import re

import numpy as np

from taulattice import VolterraState, evolve_pfaff, evolve_volterra, goe_lax_init, identities

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "suite_digest.py")
_SPEC = importlib.util.spec_from_file_location("suite_digest", _PATH)
suite_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(suite_digest)


def test_suite_digest_hashes_the_reports_in_suites_order():
    names = ["skew-map", "kp"]
    h = hashlib.sha256()
    for name in ("kp", "skew-map"):                  # SUITES order, not the caller's
        report = getattr(identities, identities.SUITES[name][0])()
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert suite_digest.suite_digest(names) == h.hexdigest()
    assert suite_digest.suite_digest(["kp"]) != h.hexdigest()


def _short_marches():
    yield evolve_pfaff(goe_lax_init(12, 3, 3), [0.01, 0.02], h=1e-3)
    yield evolve_volterra(VolterraState(np.arange(1.0, 9.0)), 2, [0.01], h=1e-3)


def test_lattice_digest_hashes_each_marchs_states_then_its_stats(monkeypatch):
    monkeypatch.setattr(suite_digest, "_lattice_marches", _short_marches)
    h = hashlib.sha256()
    pfaff, volterra = _short_marches()
    for state in pfaff.states:
        h.update(state.w.tobytes())
    h.update(json.dumps(pfaff.stats, sort_keys=True).encode())
    h.update(volterra.states[0].B.tobytes())
    h.update(json.dumps(volterra.stats, sort_keys=True).encode())
    assert suite_digest.lattice_digest() == h.hexdigest()


def test_main_prints_the_suite_and_march_digests(capsys, monkeypatch):
    monkeypatch.setattr(identities, "SUITES", {name: identities.SUITES[name]
                                               for name in ("kp", "skew-map")})
    monkeypatch.setattr(suite_digest, "_lattice_marches", _short_marches)
    assert suite_digest.main() == 0                  # and the lattice line
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["suites", "march", "lattice"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines)
    assert lines[0].split()[1] == suite_digest.suite_digest(["kp", "skew-map"])
    assert lines[1].split()[1] == suite_digest.march_digest()
    assert lines[2].split()[1] == suite_digest.lattice_digest()
