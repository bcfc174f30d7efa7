"""`scripts/suite_digest.py` on two cheap suites: what it hashes and prints."""

import hashlib
import importlib.util
import json
import os
import re

from taulattice import identities

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


def test_main_prints_the_suite_and_march_digests(capsys, monkeypatch):
    monkeypatch.setattr(identities, "SUITES", {name: identities.SUITES[name]
                                               for name in ("kp", "skew-map")})
    assert suite_digest.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["suites", "march"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines)
    assert lines[0].split()[1] == suite_digest.suite_digest(["kp", "skew-map"])
    assert lines[1].split()[1] == suite_digest.march_digest()
