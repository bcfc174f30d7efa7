import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import typing

import numpy as np
import pytest

import taulattice
from taulattice import IdentityReport, cli, goe_lax_init, identities
from taulattice.cli import main
from taulattice.continuum import HydroChainField, evolve_hydro_chain
from taulattice.flows import _sample_times, evolve_pfaff
from taulattice.identities import SUITES


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_tau_unitary_value(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "tau",
                     "--ensemble", "unitary", "--n", "2")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    summary = json.loads(lines[0])
    assert abs(summary["tau"] - 2.0 * math.pi) < 1e-10
    on_disk = json.loads((tmp_path / "tau.json").read_text())
    assert on_disk["tau"] == summary["tau"]


def test_tau_orthogonal_value(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "tau",
                     "--ensemble", "orthogonal", "--n", "4")
    assert rc == 0
    assert abs(json.loads(out)["tau"] - math.pi / 2.0) < 1e-10


def test_tau_couplings_flag(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "tau",
                     "--ensemble", "unitary", "--n", "1",
                     "--couplings", '{"t": {"2": -0.05}}')
    assert rc == 0
    assert abs(json.loads(out)["tau"] - math.sqrt(2.0 * math.pi / 1.1)) < 1e-10


def test_tau_odd_orthogonal_is_usage_error(tmp_path, capsys):
    rc, _, err = run(capsys, "--out", str(tmp_path), "tau",
                     "--ensemble", "orthogonal", "--n", "3")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


def test_tau_non_integrable_coupling_fails(tmp_path, capsys):
    rc, _, err = run(capsys, "--out", str(tmp_path), "tau",
                     "--ensemble", "unitary", "--n", "2",
                     "--couplings", '{"t": {"4": 0.1}}')
    assert rc == 1
    assert json.loads(err)["error"] == "NonIntegrableWeight"


def test_usage_errors_exit_2(tmp_path, capsys):
    rc, _, _ = run(capsys, "tau", "--n", "2")                  # missing flag
    assert rc == 2
    rc, _, err = run(capsys, "--out", str(tmp_path), "tau", "--ensemble",
                     "unitary", "--n", "2", "--couplings", "{bad json")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("argv", [
    ("verify", "init-gue", "--N", "0"),
    ("verify", "init-gue", "--N", "1"),
    ("verify", "init-goe", "--N", "0"),
    ("verify", "scaling", "--N", "8"),
    ("verify", "skew-map", "--n", "0"),
    ("verify", "tau-cross", "--n", "0"),
    ("verify", "observables", "--n", "0"),
    ("verify", "haantjes", "--points", "0"),
    ("verify", "hydro-chain", "--N", "4"),
])
def test_sizes_with_nothing_to_check_are_config_errors(tmp_path, capsys, argv):
    rc, _, err = run(capsys, "--out", str(tmp_path), *argv)
    assert rc == 2
    assert json.loads(err)["error"] == "config"


def test_skew_map_past_its_reach_is_a_config_error(tmp_path, capsys):
    # 17 pairs were refused where the monomial route reached 16; the rho^2
    # basis reaches 160
    rc, out, _ = run(capsys, "--out", str(tmp_path), "verify", "skew-map", "--n", "17")
    assert rc == 0 and json.loads(out)["pass"] is True
    rc, _, err = run(capsys, "--out", str(tmp_path), "verify", "skew-map", "--n", "161")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


def test_verify_init_goe_on_one_site(tmp_path, capsys):
    # the meta read w^1_2, which a one-site window does not have, and the
    # IndexError escaped main; it reads NaN there, as w^2_1 does without band 2
    rc, out, _ = run(capsys, "--out", str(tmp_path), "verify", "init-goe", "--N", "1",
                     "--K", "2")
    assert rc == 0 and json.loads(out)["pass"] is True
    meta = json.loads((tmp_path / "verify_init-goe.json").read_text())["meta"]
    assert math.isnan(meta["w[1][2]"])
    assert abs(meta["w[2][1]"] - 8.0 / math.sqrt(6.0)) < 1e-9


def test_lax_init_gue_csv(tmp_path, capsys):
    rc, _, _ = run(capsys, "--out", str(tmp_path), "lax-init",
                   "--ensemble", "gue", "--N", "5")
    assert rc == 0
    lines = (tmp_path / "lax_init.csv").read_text().strip().split("\n")
    assert lines[0] == "n,a,b"
    assert len(lines) == 6
    row3 = lines[3].split(",")
    assert float(row3[1]) == 0.0
    assert abs(float(row3[2]) - math.sqrt(3.0)) < 1e-15
    assert float(lines[5].split(",")[2]) == 0.0


def test_lax_init_goe_round_trip(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "lax-init",
                     "--N", "6", "--K-pos", "4", "--K-neg", "4")
    assert rc == 0
    path = json.loads(out)["artifact"]
    data = json.loads(open(path).read())
    w = goe_lax_init(6, 4, 4).w
    assert (data["N"], data["Kpos"]) == (6, 4)
    # every "band,site" entry, bands -4..4 then sites 1..6, is w's bit for bit
    assert list(data["w"]) == [f"{ell},{n}" for ell in range(-4, 5) for n in range(1, 7)]
    assert np.array(list(data["w"].values())).tobytes() == w.tobytes()


def test_evolve_volterra(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "evolve", "volterra",
                     "--t2", "0.1", "--N", "16")
    assert rc == 0
    lines = (tmp_path / "evolve_volterra.csv").read_text().strip().split("\n")
    assert lines[0].startswith("time,B[1],B[2]")
    final = [float(v) for v in lines[-1].split(",")]
    assert abs(final[0] - 0.1) < 1e-15
    assert abs(final[4] - 4.0 / 0.8) < 1e-8          # B_4(t) = 4/(1-2t)


def test_evolve_needs_one_time_flag(tmp_path, capsys):
    rc, _, _ = run(capsys, "--out", str(tmp_path), "evolve", "volterra")
    assert rc == 2
    rc, _, _ = run(capsys, "--out", str(tmp_path), "evolve", "volterra",
                   "--t2", "0.1", "--t4", "0.1")
    assert rc == 2


@pytest.mark.parametrize("system,t2", [("volterra", "inf"), ("hydro", "nan")])
def test_evolve_non_finite_horizon_is_config_error(tmp_path, capsys, system, t2):
    rc, out, err = run(capsys, "--out", str(tmp_path), "evolve", system, "--t2", t2)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "config"
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize("h", ["inf", "nan", "0", "-1"])
def test_evolve_bad_step_is_config_error(tmp_path, capsys, h):
    rc, out, err = run(capsys, "--out", str(tmp_path), "evolve", "volterra", "--t2", "0.1",
                       "--h", h)
    assert rc == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "config" and "h must be finite and positive" in error["message"]
    assert not any(tmp_path.iterdir())


def test_evolve_reduced(tmp_path, capsys):
    rc, _, _ = run(capsys, "--out", str(tmp_path), "evolve", "reduced",
                   "--t2", "0.2")
    assert rc == 0
    lines = (tmp_path / "evolve_reduced.csv").read_text().strip().split("\n")
    head = lines[0].split(",")
    assert head[:2] == ["time", "W[-1]"]
    final = [float(v) for v in lines[-1].split(",")]
    assert abs(final[1] - 0.5 / 0.6) < 1e-8


def test_evolve_reduced_step_flag(tmp_path, capsys):
    csv = {}
    for label, extra in (("default", ()), ("coarse", ("--h", "0.05"))):
        out = tmp_path / label
        rc, _, _ = run(capsys, "--out", str(out), "evolve", "reduced", "--t2", "0.2",
                       *extra)
        assert rc == 0
        csv[label] = (out / "evolve_reduced.csv").read_text()
    assert csv["coarse"] != csv["default"]
    # the config file's h reaches the march too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 0.05}))
    out = tmp_path / "config"
    rc, _, _ = run(capsys, "--config", str(cfg), "--out", str(out), "evolve",
                   "reduced", "--t2", "0.2")
    assert rc == 0
    assert (out / "evolve_reduced.csv").read_text() == csv["coarse"]


def test_verify_pass_and_artifact(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "verify", "init-gue")
    assert rc == 0
    summary = json.loads(out)
    assert summary["pass"] is True
    report = json.loads((tmp_path / "verify_init-gue.json").read_text())
    assert report["pass"] is True
    assert report["residual_rel"] < 1e-9


def test_parser_shared_without_leaking_flags(tmp_path, capsys):
    # the argument tree is built once; a flag of one call must not become
    # the default of the next
    assert cli._parser() is cli._parser()
    rc, _, _ = run(capsys, "--out", str(tmp_path / "a"), "verify", "kp", "--n", "3")
    assert rc == 0
    assert json.loads((tmp_path / "a" / "verify_kp.json").read_text())["meta"]["n"] == 3
    rc, _, _ = run(capsys, "--out", str(tmp_path / "b"), "verify", "kp")
    assert rc == 0
    assert json.loads((tmp_path / "b" / "verify_kp.json").read_text())["meta"]["n"] == 2


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_table_entry_runs_as_verify(tmp_path, capsys, name):
    # the call shapes the benchmark makes: repeated in-process main calls
    # and taulattice.cli.verify_commute
    assert cli._parser().parse_args(["verify", name]).suite == name
    direct = getattr(identities, SUITES[name][0])()
    for run_dir in ("a", "b"):
        rc, out, _ = run(capsys, "--out", str(tmp_path / run_dir), "verify", name)
        assert rc == (0 if direct.passed else 1)
        assert json.loads(out)["residual"] == direct.residual_abs
        artifact = (tmp_path / run_dir / f"verify_{name}.json").read_text()
        assert artifact == direct.to_json() + "\n"
    assert cli.verify_commute(seed=5).to_dict() == identities.verify_commute(seed=5).to_dict()


def test_every_check_that_runs_at_its_defaults_is_a_suite():
    # a public function returning a report with no required parameter is a
    # check; each one is reachable as `verify <suite>`
    suites = {check for check, _ in SUITES.values()}
    missing = []
    for info in pkgutil.iter_modules(taulattice.__path__):
        mod = importlib.import_module(f"taulattice.{info.name}")
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if not inspect.isfunction(fn) or typing.get_type_hints(fn).get("return") \
                    is not IdentityReport:
                continue
            required = [p for p in inspect.signature(fn).parameters.values()
                        if p.default is p.empty
                        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
            if not required and name not in suites:
                missing.append(f"{info.name}.{name}")
    assert missing == []


def test_commands():
    sub = next(a for a in cli._parser()._actions if a.dest == "command")
    assert list(sub.choices) == ["tau", "lax-init", "evolve", "verify"]


@pytest.mark.parametrize("suite,flag", [("commute", "--N"), ("tau-cross", "--N"),
                                        ("kp", "--seed"), ("init-gue", "--K"),
                                        ("continuum", "--N")])
def test_verify_flag_the_suite_does_not_read_is_usage_error(tmp_path, capsys, suite, flag):
    rc, _, err = run(capsys, "--out", str(tmp_path), "verify", suite, flag, "3")
    assert rc == 2
    error = json.loads(err)
    assert error["error"] == "config" and flag in error["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("system,flags,unread", [
    ("toda", ["--t1", "0.1", "--K-neg", "3", "--K-pos", "3"], ["--K-neg", "--K-pos"]),
    ("volterra", ["--t2", "0.1", "--K-neg", "3"], ["--K-neg"]),
    ("pfaff", ["--t2", "0.01", "--t4", "0.01"], ["--t4"]),
    ("reduced", ["--t2", "0.1", "--N", "8"], ["--N"]),
    ("hydro", ["--t2", "0.01", "--h", "0.001", "--samples", "3"], ["--h", "--samples"]),
    ("hopf", ["--t2", "0.1", "--N", "8", "--K-pos", "3"], ["--N", "--K-pos"]),
])
def test_evolve_flag_the_system_does_not_read_is_usage_error(tmp_path, capsys, system,
                                                             flags, unread):
    rc, _, err = run(capsys, "--out", str(tmp_path), "evolve", system, *flags)
    assert rc == 2
    error = json.loads(err)
    assert error["error"] == "config"
    assert all(flag in error["message"] for flag in unread)
    assert not any(tmp_path.iterdir())


def test_evolve_config_keys_serve_every_system(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ghost": "linear", "K_pos": 3, "N": 8}))
    rc, _, _ = run(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "evolve", "toda", "--t1", "0.01")
    assert rc == 0
    assert (tmp_path / "out" / "evolve_toda.csv").exists()


def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc, out, err = run(capsys, "--out", str(blocker / "x"), "tau",
                       "--ensemble", "unitary", "--n", "1")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


def test_verify_config_keys_serve_every_suite(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 40, "n": 3}))
    rc, _, _ = run(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "verify", "kp")
    assert rc == 0
    assert json.loads((tmp_path / "out" / "verify_kp.json").read_text())["meta"]["n"] == 3


def test_verify_tight_tolerance_fails(tmp_path, capsys):
    rc, out, _ = run(capsys, "--out", str(tmp_path), "verify", "init-gue",
                     "--tolerance", "1e-30")
    assert rc == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("n", ["1", "2"])
def test_verify_observables_zero_tolerance_is_a_config_error(tmp_path, capsys, n):
    # at n = 2 a zero tolerance scaled the residual to 0.0 and exited 0
    rc, out, err = run(capsys, "--out", str(tmp_path), "verify", "observables",
                       "--n", n, "--tolerance", "0")
    assert rc == 2 and out == ""
    assert "tolerance" in json.loads(err)["message"]


@pytest.mark.parametrize("suite", ["kp", "observables"])
def test_verify_inf_tolerance_is_a_config_error(tmp_path, capsys, suite):
    # kp passed at inf and exited 0, where observables exited 2
    rc, out, err = run(capsys, "--out", str(tmp_path), "verify", suite, "--tolerance", "inf")
    assert rc == 2 and out == ""
    assert "tolerance must be finite and positive" in json.loads(err)["message"]


def test_scan_determinism(tmp_path, capsys):
    args = ("verify", "haantjes", "--window", "10", "--points", "3", "--seed", "5")
    rc1, out1, _ = run(capsys, "--out", str(tmp_path / "a"), *args)
    rc2, out2, _ = run(capsys, "--out", str(tmp_path / "b"), *args)
    assert rc1 == rc2 == 0
    strip = lambda s: s.replace(str(tmp_path / "a"), "").replace(str(tmp_path / "b"), "")
    assert strip(out1) == strip(out2)
    assert ((tmp_path / "a" / "verify_haantjes.json").read_bytes()
            == (tmp_path / "b" / "verify_haantjes.json").read_bytes())


def test_outdir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAULATTICE_OUT", str(tmp_path / "envdir"))
    rc, _, _ = run(capsys, "tau", "--ensemble", "unitary", "--n", "1")
    assert rc == 0
    assert (tmp_path / "envdir" / "tau.json").exists()


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ensemble": "gue", "N": 6,
                               "out": str(tmp_path / "cfgout")}))
    rc, _, _ = run(capsys, "--config", str(cfg), "lax-init")
    assert rc == 0
    lines = (tmp_path / "cfgout" / "lax_init.csv").read_text().strip().split("\n")
    assert len(lines) == 7                            # N from config
    rc, _, _ = run(capsys, "--config", str(cfg), "lax-init", "--N", "4")
    assert rc == 0
    lines = (tmp_path / "cfgout" / "lax_init.csv").read_text().strip().split("\n")
    assert len(lines) == 5                            # flag wins


def test_config_value_outside_choices_is_config_error(tmp_path, capsys):
    # argparse never sees a config value; "GUE" once wrote a GOE window
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ensemble": "GUE", "N": 4}))
    rc, _, err = run(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "lax-init")
    assert rc == 2
    assert json.loads(err)["error"] == "config"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg,argv", [
    ({"N": 8.9, "K": 2}, ("verify", "init-goe")),
    ({"N": True}, ("verify", "init-goe")),
    ({"N": 16.5, "samples": 2.7}, ("evolve", "volterra", "--t2", "0.1")),
    ({"samples": 2.7}, ("evolve", "volterra", "--t2", "0.1")),
    ({"N": 8.0}, ("lax-init",)),
    ({"N": [8]}, ("lax-init",)),
    ({"t2": "0.1x"}, ("evolve", "volterra")),
], ids=["N-8.9", "N-true", "N-16.5-samples-2.7", "samples-2.7", "N-8.0", "N-list", "t2-text"])
def test_config_value_that_its_flag_would_refuse_is_config_error(tmp_path, capsys, cfg, argv):
    # a config value meets its flag's type as the flag's text does: these ran
    # on truncated sizes (8 sites, 1 site, 16 sites and 2 samples), while
    # --N 8.9 and --N 8.0 exit 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(capsys, "--config", str(path), "--out", str(tmp_path / "out"), *argv)
    assert rc == 2 and out == ""
    error = json.loads(err)
    key = next(iter(cfg))
    assert error["error"] == "config" and f"config {key}={cfg[key]!r}" in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,config", [
    (("volterra", "--t2", "0.1", "--N", "12", "--samples", "0"), None),
    (("volterra", "--t2", "0.1", "--N", "12", "--samples", "-5"), None),
    (("reduced", "--t2", "0.1", "--samples", "0"), None),
    (("toda", "--t1", "0.1", "--N", "8"), {"samples": 0}),
], ids=["volterra-0", "volterra-minus-5", "reduced-0", "toda-config-0"])
def test_sample_count_below_one_is_config_error(tmp_path, capsys, argv, config):
    # both flag values exited 0 and wrote one sample
    flags = ()
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = ("--config", str(tmp_path / "cfg.json"))
    rc, out, err = run(capsys, *flags, "--out", str(tmp_path / "out"), "evolve", *argv)
    assert rc == 2 and out == ""
    error = json.loads(err)
    assert error == {"error": "config", "message": error["message"]}
    assert error["message"].startswith("samples must be at least 1")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples,message", [(0, "at least 1, got 0"), (-5, "at least 1"),
                                             (2.5, "an integer, got 2.5"),
                                             (True, "an integer, got True")],
                         ids=["zero", "negative", "fraction", "bool"])
def test_sample_times_refuses_a_count_it_cannot_mean(samples, message):
    with pytest.raises(ValueError, match=f"samples must be {message}"):
        _sample_times(0.1, samples)


@pytest.mark.parametrize("cfg,argv,summary", [
    ({"N": "8"}, ("lax-init",), {"N": 8}),
    ({"N": 8}, ("lax-init",), {"N": 8}),
    ({"t2": 0.1, "N": 16}, ("evolve", "volterra"), {"horizon": 0.1, "N": 16}),
    ({"couplings": {"t": {"2": -0.05}}}, ("tau", "--ensemble", "unitary", "--n", "1"),
     {"couplings": {"2": -0.05}}),
], ids=["N-text", "N-int", "t2-float", "couplings-object"])
def test_config_values_of_the_flags_types_run(tmp_path, capsys, cfg, argv, summary):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, "--config", str(path), "--out", str(tmp_path), *argv)
    assert rc == 0
    printed = json.loads(out)
    assert {key: printed[key] for key in summary} == summary


@pytest.mark.parametrize("couplings", ['[1, 2]', '3', 'null', '{"t": [1]}',
                                       '{"t": {"2": "0.1"}}', '{"t": {"2": true}}'])
def test_couplings_that_are_not_an_object_of_numbers_are_config_errors(tmp_path, capsys,
                                                                        couplings):
    # a list, a number or null raised AttributeError out of main
    rc, out, err = run(capsys, "--out", str(tmp_path), "tau", "--ensemble", "unitary",
                       "--n", "1", "--couplings", couplings)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "config"


def test_config_couplings_that_are_not_an_object_of_numbers_are_config_errors(tmp_path,
                                                                               capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"couplings": {"t": [1]}}))
    rc, out, err = run(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "tau", "--ensemble", "unitary", "--n", "1")
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "config"


def test_couplings_flag_reads_a_bare_object(tmp_path, capsys):
    # without "t" the flag's object was read as no couplings at all
    rc, out, _ = run(capsys, "--out", str(tmp_path), "tau", "--ensemble", "unitary",
                     "--n", "1", "--couplings", '{"2": -0.05}')
    assert rc == 0
    assert json.loads(out)["couplings"] == {"2": -0.05}


@pytest.mark.parametrize("argv", [
    ("lax-init", "--ensemble", "goe", "--K-pos", "-1"),
    ("evolve", "pfaff", "--t2", "0.1", "--K-pos", "-1"),
])
def test_negative_band_count_is_a_config_error(tmp_path, capsys, argv):
    # goe_lax_init raised IndexError out of main
    rc, out, err = run(capsys, "--out", str(tmp_path), *argv)
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "config" and "k_pos" in json.loads(err)["message"]


def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"N": 4}]))
    rc, out, err = run(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                       "lax-init")
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "config",
                               "message": "config file must hold a JSON object"}
    assert not (tmp_path / "out").exists()


def test_config_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "--config", str(tmp_path / "nope.json"),
                     "tau", "--ensemble", "unitary", "--n", "1")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


def test_continuum_hopf_csv(tmp_path, capsys):
    rc, _, _ = run(capsys, "--out", str(tmp_path), "evolve", "hopf",
                   "--t2", "0.1", "--n-x", "11")
    assert rc == 0
    lines = (tmp_path / "evolve_hopf.csv").read_text().strip().split("\n")
    assert lines[0] == "x,u"
    x0, u0 = (float(v) for v in lines[1].split(","))
    assert abs(u0 - x0 / 0.8) < 1e-12



@pytest.mark.parametrize("flags", [["--x-lo", "2", "--x-hi", "1"], ["--n-x", "0"]])
def test_evolve_hopf_grid_refused(tmp_path, capsys, flags):
    rc, out, err = run(capsys, "--out", str(tmp_path), "evolve", "hopf", "--t2", "0.1", *flags)
    assert rc == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "config" and "grid" in error["message"]
    assert not any(tmp_path.iterdir())


def _csv_rows(path):
    head, *rows = path.read_text().strip().split("\n")
    return head.split(","), np.array([[float(v) for v in row.split(",")] for row in rows])


def test_evolve_pfaff_csv(tmp_path, capsys):
    rc, _, _ = run(capsys, "--out", str(tmp_path), "evolve", "pfaff", "--t2", "0.01",
                   "--N", "6", "--K-pos", "2", "--K-neg", "3", "--samples", "3")
    assert rc == 0
    heads, rows = _csv_rows(tmp_path / "evolve_pfaff.csv")
    assert heads == ["time"] + [f"w[{ell}][{n}]" for ell in range(-3, 3) for n in range(1, 7)]
    res = evolve_pfaff(goe_lax_init(6, 2, 3), _sample_times(0.01, 3))
    assert rows.tolist() == [[t, *s.w.ravel()] for t, s in zip(res.times, res.states)]


def test_evolve_hydro_csv(tmp_path, capsys):
    rc, _, _ = run(capsys, "--out", str(tmp_path), "evolve", "hydro", "--t2", "0.01",
                   "--K-neg", "2", "--K-pos", "3", "--x-lo", "0.5", "--x-hi", "1.5",
                   "--n-x", "11")
    assert rc == 0
    field = HydroChainField.initial(np.linspace(0.5, 1.5, 11), k_neg=2, k_pos=3)
    res, _ = evolve_hydro_chain(field, 0.01)
    heads, rows = _csv_rows(tmp_path / "evolve_hydro.csv")
    assert heads == ["x", "v"] + [f"u[{ell}]" for ell in range(-2, 4)]
    assert rows.tolist() == np.vstack([res.x, res.v, res.u]).T.tolist()

def test_import_leaves_scipy_out():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(taulattice.__file__)))
    code = ("import sys, taulattice, taulattice.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(taulattice.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "taulattice.cli", "--out", str(tmp_path),
         "tau", "--ensemble", "orthogonal", "--n", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["tau"] - math.sqrt(math.pi)) < 1e-10
