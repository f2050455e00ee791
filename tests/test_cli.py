import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdighz import __version__, cli, fock, gains, montecarlo, params

from conftest import CONFIG_DIR, config_copy


def small_qcc(tmp_path, l_max=20, l_step=10, eta_d=0.4):
    return config_copy(tmp_path, "qcc_eta40", ("sweep.L_max = 250", f"sweep.L_max = {l_max}"),
                       ("sweep.L_step = 1", f"sweep.L_step = {l_step}"),
                       ("detector.eta_d = 0.40", f"detector.eta_d = {eta_d}"))


NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} refused by the import guard")

sys.meta_path.insert(0, RefuseScipy())
import mdighz.cli
from mdighz import gains

z = gains.z_gain_components(2.0, 2.0, 2.0, 0.9, 1e-7)  # I0 argument 1.8 > 0.5
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
print(repr((z.a, z.b, z.c, z.d)))
"""


LEAN = """
import sys
from mdighz import cli

code = cli.main(sys.argv[1:])
print(code, sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules))
"""


class TestImports:
    def test_runs_without_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(gains.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        z = gains.z_gain_components(2.0, 2.0, 2.0, 0.9, 1e-7)
        assert done.stdout.strip() == repr((z.a, z.b, z.c, z.d))

    def test_curve_process_maps_no_openssl(self, tmp_path):
        # the manifest digest takes the builtin SHA-256 module; hashlib would
        # load _hashlib and with it OpenSSL
        if not any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
            pytest.skip("this interpreter has no builtin SHA-256 module")
        env = dict(os.environ, PYTHONPATH=str(Path(gains.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", LEAN, "qcc", "--config",
                               str(CONFIG_DIR / "qcc_eta40.cfg"), "--quick",
                               "--out", str(tmp_path / "qcc.csv")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"


class TestDigest:
    @given(st.text(), st.sampled_from(["qcc", "qss", "mermin", "validate", "optimize"]),
           st.integers(0, 2 ** 64 - 1))
    def test_equals_hashlib_sha256_of_the_payload(self, text, command, seed):
        payload = json.dumps({"tool": "mdighz", "version": __version__, "command": command,
                              "seed": seed, "config": text}, sort_keys=True)
        assert cli._digest(text, command, seed) == hashlib.sha256(payload.encode()).hexdigest()


class TestParser:
    """The parser is built once per process; a command reads nothing of the
    commands run before it."""

    def test_one_process_writes_what_fresh_processes_write(self, tmp_path):
        cfg = small_qcc(tmp_path)
        commands = (["qcc", "--config", str(cfg), "--seed", "5"],
                    ["optimize", "--config", str(cfg), "--at", "10", "--points", "3",
                     "--rounds", "1", "--box", "0.3:0.5"])
        env = dict(os.environ, PYTHONPATH=str(Path(gains.__file__).resolve().parents[1]))
        for k, argv in enumerate(commands):
            assert cli.main(argv + ["--out", str(tmp_path / f"in_{k}.csv")]) == 0
            done = subprocess.run([sys.executable, "-m", "mdighz.cli", *argv,
                                   "--out", str(tmp_path / f"fresh_{k}.csv")],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
        for k in range(len(commands)):
            assert (tmp_path / f"in_{k}.csv").read_bytes() == (
                tmp_path / f"fresh_{k}.csv").read_bytes()
        assert cli.build_parser() is cli.build_parser()

    def test_usage_errors_and_version_keep_their_exits(self, tmp_path, capsys):
        for _ in range(2):
            for argv, code in ((["--version"], 0), (["qcc"], 2), (["nonsense"], 2),
                               (["qcc", "--config", str(small_qcc(tmp_path))], 2)):
                with pytest.raises(SystemExit) as err:
                    cli.main(argv)
                assert err.value.code == code, argv
            out, err = capsys.readouterr()
            assert out.splitlines() == [__version__]
            assert err.count("usage: mdighz") == 3


class TestQccCommand:
    def test_writes_csv_with_manifest(self, tmp_path, capsys):
        cfg = small_qcc(tmp_path)
        out = tmp_path / "curve.csv"
        assert cli.main(["qcc", "--config", str(cfg), "--out", str(out),
                         "--seed", "42"]) == 0
        assert "qcc: 3 points, cutoff_km=20.0 ->" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# mdighz")
        assert lines[1].startswith("# manifest_digest=sha256:")
        assert lines[2:4] == ["# seed=42", "# rng=philox4x64"]  # the oracle's stream
        header = next(l for l in lines if not l.startswith("#"))
        assert header == ("distance_km,rate_two_decoy,rate_infinite_decoy,"
                          "raw_rate,e111_bxu,Y111_zl,diagnostics")
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert manifest["manifest_digest"] in lines[1]
        assert (manifest["seed"], manifest["rng"]) == (42, "philox4x64")
        assert "created_utc" in manifest

    def test_manifest_names_numpy_and_its_dispatch(self, tmp_path):
        # the quadrature's last bits follow numpy's SIMD target; the digest does not
        out = tmp_path / "curve.csv"
        assert cli.main(["qcc", "--config", str(small_qcc(tmp_path)), "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        info = np.lib.introspect.opt_func_info(func_name="^(exp|expm1)$", signature="float64")
        assert manifest["dispatch"] == {name: info[name]["dd"]["current"]
                                        for name in ("exp", "expm1")}
        assert all(manifest["dispatch"][name] in info[name]["dd"]["available"]
                   for name in ("exp", "expm1"))
        assert manifest["manifest_digest"] == "sha256:" + cli._digest(
            cli.serialize_config(cli._load_config(str(small_qcc(tmp_path)))), "qcc", 1)

    def test_empty_sweep_header_only(self, tmp_path, capsys):
        cfg = config_copy(tmp_path, "qcc_eta40", ("sweep.L_min = 0", "sweep.L_min = 30"),
                          ("sweep.L_max = 250", "sweep.L_max = 20"))
        out = tmp_path / "empty.csv"
        assert cli.main(["qcc", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1  # header only
        assert "qcc: 0 points, cutoff_km=nan ->" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("detector.eta_d = 1.5\n")
        out = tmp_path / "x.csv"
        assert cli.main(["qcc", "--config", str(bad), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["qcc", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        cfg = small_qcc(tmp_path)
        outs = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"{tag}.csv"
            assert cli.main(["qcc", "--config", str(cfg), "--out", str(out),
                             "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

        her = config_copy(tmp_path, "qss_heralded_eta40", ("sweep.L_max = 200", "sweep.L_max = 30"),
                          ("sweep.L_step = 1", "sweep.L_step = 10"))
        outs = []
        for tag in ("h1", "h2"):
            # cold caches, so that each run builds the yield tables afresh
            fock._single_photon_table.cache_clear()
            out = tmp_path / f"{tag}.csv"
            assert cli.main(["qss", "--config", str(her), "--out", str(out),
                             "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestQssCommand:
    def test_one_process_repeats_a_fresh_one(self, tmp_path):
        # the distance-free caches are shared by every curve of a process
        fock._single_photon_table.cache_clear()
        outs = []
        for tag, name in (("first", "qss_heralded_eta40"), ("qnd", "qss_qnd_eta40"),
                          ("eta93", "qss_heralded_eta93"), ("again", "qss_heralded_eta40")):
            out = tmp_path / f"{tag}.csv"
            assert cli.main(["qss", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                             "--out", str(out), "--quick"]) == 0
            outs.append([l for l in out.read_bytes().splitlines() if not l.startswith(b"#")])
        assert outs[-1] == outs[0]
        assert len(outs[0]) == 42

    def test_pps_quick(self, tmp_path):
        cfg = config_copy(tmp_path, "qss_pps_eta40", ("sweep.L_max = 200", "sweep.L_max = 20"),
                          ("sweep.L_step = 1", "sweep.L_step = 10"))
        out = tmp_path / "pps.csv"
        assert cli.main(["qss", "--config", str(cfg), "--out", str(out)]) == 0
        header = next(l for l in out.read_text().splitlines()
                      if not l.startswith("#"))
        assert "Q_x_sliced" in header

    def test_method_mismatch_is_usage_error(self, tmp_path):
        # the variant follows source.kind, so argparse refuses --method with
        # any value, also the one the config implies
        cfg = small_qcc(tmp_path)
        out = tmp_path / "x.csv"
        for method in ("heralded", "pps"):
            with pytest.raises(SystemExit) as err:
                cli.main(["qss", "--method", method, "--config", str(cfg),
                          "--out", str(out)])
            assert err.value.code == 2
        assert not out.exists()

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        cfg = small_qcc(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli.main(["qss", "--method", "telepathy", "--config", str(cfg),
                      "--out", "x.csv"])
        assert err.value.code == 2

    def test_wcs_without_phase_plan_is_config_error(self, tmp_path):
        cfg = small_qcc(tmp_path)  # a qcc config: no phase.K
        out = tmp_path / "x.csv"
        assert cli.main(["qss", "--config", str(cfg), "--out", str(out)]) == 2

    def test_heralded_quick(self, tmp_path):
        cfg = config_copy(tmp_path, "qss_heralded_eta40", ("sweep.L_max = 200", "sweep.L_max = 10"))
        out = tmp_path / "her.csv"
        assert cli.main(["qss", "--config", str(cfg), "--out", str(out),
                         "--quick"]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) >= 2


class TestMerminCommand:
    def test_constant_two_column(self, tmp_path):
        cfg = config_copy(tmp_path, "mermin_eta40", ("sweep.L_max = 180", "sweep.L_max = 20"),
                          ("sweep.L_step = 1", "sweep.L_step = 10"))
        out = tmp_path / "mermin.csv"
        assert cli.main(["mermin", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert "local_realism_bound" in lines[0]
        for row in lines[1:]:
            assert row.split(",")[2] == "2.0"

    def test_full_misalignment_zeroes_column(self, tmp_path):
        cfg = config_copy(tmp_path, "mermin_eta40", ("system.e_d = 0.015", "system.e_d = 0.5"),
                          ("sweep.L_max = 180", "sweep.L_max = 10"),
                          ("sweep.L_step = 1", "sweep.L_step = 10"))
        out = tmp_path / "m.csv"
        assert cli.main(["mermin", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        for row in lines[1:]:
            assert float(row.split(",")[1]) == 0.0


class TestValidateCommand:
    def test_quick_passes_fast(self, capsys):
        start = time.monotonic()
        code = cli.main(["validate", "--config", str(CONFIG_DIR / "validate.cfg"),
                         "--quick", "--seed", "12"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "validation passed (100000 samples in 1 chunk on 1 thread, seed 12)" in out
        assert elapsed < 10.0

    def test_closing_line_names_chunks_and_threads(self, monkeypatch, capsys):
        # the numbers come from the helper that sizes the oracle's pool
        monkeypatch.setattr(montecarlo, "CHUNK_SAMPLES", 40_000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cli.main(["validate", "--config", str(CONFIG_DIR / "validate.cfg"), "--quick"])
        assert "(100000 samples in 3 chunks on 2 threads, seed 1)" in capsys.readouterr().out

    def test_fault_injection_fails_validation(self, monkeypatch, capsys):
        exact = gains.z_gain_components

        def flipped(*args):
            z = exact(*args)
            if isinstance(z, np.ndarray):  # the a, b, c, d gains of many rows
                return z * np.array([1.0, -1.0, 1.0, 1.0])[:, None, None]
            if isinstance(z, list):  # the triples of a decoy grid
                return [dataclasses.replace(t, b=-t.b) for t in z]
            return dataclasses.replace(z, b=-z.b)

        monkeypatch.setattr(gains, "z_gain_components", flipped)
        code = cli.main(["validate", "--config", str(CONFIG_DIR / "validate.cfg"),
                         "--quick", "--seed", "12"])
        assert code != 0


class TestOptimizeCommand:
    def test_runs_and_reports(self, tmp_path):
        cfg = small_qcc(tmp_path)
        out = tmp_path / "opt.csv"
        code = cli.main(["optimize", "--config", str(cfg), "--out", str(out),
                         "--variant", "qcc", "--at", "50", "--box", "0.3:0.5",
                         "--points", "3", "--rounds", "1"])
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "variant,distance_km,best_mu,best_rate"
        variant, dist, mu, rate = rows[1].split(",")
        assert variant == "qcc"
        assert 0.3 <= float(mu) <= 0.5
        assert float(rate) > 0

    @pytest.mark.parametrize("name", ["qss_heralded_eta40", "qss_qnd_eta40"])
    def test_fock_backed_rate_prints_as_float(self, name, tmp_path, capsys):
        # the heralded and QND gains come out of numpy; none of it may leak
        # into the printed summary as np.float64(...)
        code = cli.main(["optimize", "--config", str(CONFIG_DIR / f"{name}.cfg"),
                         "--out", str(tmp_path / "opt.csv"), "--variant", "qss",
                         "--box", "0.001:0.01", "--points", "3", "--rounds", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        assert " rate=" in printed and "np.float64" not in printed

    def test_heralded_default_box_exits_4(self, tmp_path, capsys):
        # the default box 0.05:1.0 holds trial intensities whose photon-number
        # tail breaks the truncation budget; the first refused trial ends the
        # search with exit 4 and the truncation message (README: pass a box
        # such as 0.001:0.01 for a heralded source)
        code = cli.main(["optimize", "--config", str(CONFIG_DIR / "qss_heralded_eta40.cfg"),
                         "--out", str(tmp_path / "opt.csv"), "--variant", "qss"])
        err = capsys.readouterr().err
        assert code == 4
        assert "photon-number truncation tail" in err and "exceeds budget" in err
        assert "Traceback" not in err


class TestExitCodeContract:
    """Malformed flags, configs and paths end in a documented exit code
    (0/2/3/4) with a message, never an uncaught exception."""

    # the --workers cases stay: argparse refuses the removed flag
    CASES = [
        ("qcc", ["--workers", "0"]),
        ("qcc", ["--workers", "-3"]),
        ("qcc", ["--seed", "-1"]),
        ("qcc", ["--seed", "x"]),
        ("qcc", ["--config", "HERALDED"]),
        ("qcc", ["--config", "MISSING"]),
        ("qcc", ["--config", "DIR"]),
        ("qcc", ["--config", "BINARY"]),
        ("qcc", ["--out", "DIR"]),
        ("qcc", ["--bogus"]),
        ("qss", ["--workers", "0"]),
        ("qss", ["--method", "qnd"]),
        ("qss", ["--config", "BINARY"]),
        ("mermin", ["--config", "HERALDED"]),
        ("mermin", ["--out", "DIR"]),
        ("validate", ["--workers", "0"]),
        ("validate", ["--seed", "-1"]),
        ("validate", ["--config", "DIR"]),
        ("optimize", ["--variant", "qss"]),
        ("optimize", ["--config", "HERALDED"]),
        ("optimize", ["--box", "0.8:0.2"]),
        ("optimize", ["--box", "abc"]),
        ("optimize", ["--box", "0:1"]),
        ("optimize", ["--box", "0.1:inf"]),
        ("optimize", ["--points", "-1"]),
        ("optimize", ["--workers", "0"]),
        ("optimize", ["--at", "-5"]),
        ("optimize", ["--at", "nan"]),
        ("optimize", ["--at", "inf"]),
        ("optimize", ["--config", "NAN_DISTANCE"]),
        ("optimize", ["--rounds", "0", "--box", "0.2:0.8"]),
        ("validate", ["--config", "HERALDED"]),
        ("qcc", ["--config", "NAN_MU"]),
        ("qcc", ["--config", "NAN_F"]),
        ("qcc", ["--config", "INF_DARK"]),
        ("qcc", ["--config", "NU"]),
        ("qcc", ["--config", "OMEGA"]),
        ("optimize", ["--quick"]),  # no grid or samples to thin: not an optimize flag
    ]

    @pytest.mark.parametrize("command, extra", CASES)
    def test_malformed_input_exits_2(self, command, extra, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        (tmp_path / "binary.cfg").write_bytes(b"channel.beta = 0.2\n\xff\xfe\n")
        (tmp_path / "nan.cfg").write_text(small_qcc(tmp_path).read_text()
                                          + "channel.L = nan\n")
        for name, line, value in (("nan_mu", "source.mu = 0.4", "nan"),
                                  ("nan_f", "system.f = 1.16", "nan"),
                                  ("inf_dark", "detector.p_d = 1e-7", "inf")):
            key = line.split(" = ")[0]
            (tmp_path / f"{name}.cfg").write_text(
                small_qcc(tmp_path).read_text().replace(line, f"{key} = {value}"))
        # per-user intensities are not modeled: the keys are unknown
        for name, line in (("nu", "source.nu = 0.05"), ("omega", "source.omega = 0.9")):
            (tmp_path / f"{name}.cfg").write_text(small_qcc(tmp_path).read_text()
                                                  + line + "\n")
        paths = {"HERALDED": str(CONFIG_DIR / "qss_heralded_eta40.cfg"),
                 "MISSING": str(tmp_path / "nope.cfg"),
                 "DIR": str(tmp_path / "dir"),
                 "BINARY": str(tmp_path / "binary.cfg"),
                 "NAN_DISTANCE": str(tmp_path / "nan.cfg"),
                 "NAN_MU": str(tmp_path / "nan_mu.cfg"),
                 "NAN_F": str(tmp_path / "nan_f.cfg"),
                 "INF_DARK": str(tmp_path / "inf_dark.cfg"),
                 "NU": str(tmp_path / "nu.cfg"),
                 "OMEGA": str(tmp_path / "omega.cfg")}
        argv = {"--config": str(small_qcc(tmp_path)),
                "--out": str(tmp_path / "out.csv")}
        if command == "optimize":
            argv.update({"--points": "2", "--rounds": "1"})
        for flag, value in zip(extra[::2], extra[1::2]):
            argv[flag] = paths.get(value, value)
        args = [command] + [item for pair in argv.items() for item in pair]
        if len(extra) % 2:
            args.append(extra[-1])
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.strip()

    def test_too_bright_source_exits_4(self, tmp_path, capsys):
        # a heralded source far too bright for the photon-number cutoff is a
        # numerics refusal: exit 4 with the truncation message, no traceback
        cfg = config_copy(tmp_path, "qss_heralded_eta40", ("source.mu = 5e-3", "source.mu = 0.5"),
                          ("decoy.mu1 = 5e-4", "decoy.mu1 = 0.05"),
                          ("sweep.L_max = 200", "sweep.L_max = 0"))
        code = cli.main(["qss", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert "photon-number truncation tail" in err
        assert "Traceback" not in err

    def test_too_bright_weak_coherent_source_exits_4(self, tmp_path, capsys):
        # at the production node counts no rung certifies the diagonal-basis
        # gains of mu = 50 at 0 km: exit 4 with the quadrature's message
        cfg = config_copy(tmp_path, "qcc_eta40", ("source.mu = 0.4", "source.mu = 50"),
                          ("sweep.L_max = 250", "sweep.L_max = 0"))
        code = cli.main(["qcc", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert "diagonal-basis gain" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, name", [("qss", "qss_qnd_eta40"), ("qcc", "qcc_eta40")],
                             ids=["qnd", "qcc"])
    def test_overflowing_decoy_level_exits_4(self, command, name, tmp_path, capsys):
        # the Poisson level's scale e^(3 mu) overflows a float: a numerics
        # refusal that names the intensity, no traceback
        cfg = config_copy(tmp_path, name, ("source.mu = 0.4", "source.mu = 1000"),
                          ("sweep.L_max = 250", "sweep.L_max = 2"))
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert "intensity 1000.0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("box, message", [
        ("1:2000", "decoy level at intensity 250.875: its scale e^(3 mu) overflows a float"),
        ("0.5:400", "diagonal-basis gain: the quadrature error bound exceeds 1e-08 relative "
                    "at 32 points per axis"),
    ], ids=["level", "quadrature"])
    def test_refused_search_exits_4_with_its_first_trial_refusal(self, box, message,
                                                                tmp_path, capsys):
        # a round evaluates its trials together and, refused, one at a time,
        # so the message is that of the first trial refused on its own: at
        # 0.5:400 the level of a later trial (250.1875) overflows as well, but
        # the quadrature refuses 50.4375 first
        code = cli.main(["optimize", "--config", str(CONFIG_DIR / "qcc_eta93.cfg"),
                         "--variant", "qcc", "--at", "0", "--box", box,
                         "--out", str(tmp_path / "out.csv")])
        assert code == 4
        assert capsys.readouterr().err == f"numerical-tolerance failure: {message}\n"

    def test_overflowing_mixed_class_gain_exits_4(self, tmp_path, capsys):
        # validate's Monte Carlo rows form the rectilinear gains before any
        # Poisson level: their factor e^(mu eta / 2) overflows past mu ~ 3,550
        cfg = config_copy(tmp_path, "qss_pps_eta40", ("source.mu = 0.11", "source.mu = 1e5"))
        code = cli.main(["validate", "--config", str(cfg), "--quick",
                         "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert "intensity 100000.0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["qss", "validate", "optimize"])
    def test_phase_count_whose_square_overflows_exits_2(self, command, tmp_path, capsys):
        # the sliced gains divide by K^2, which must be a finite float
        cfg = config_copy(tmp_path, "qss_pps_eta40", ("phase.K = 8", f"phase.K = {10 ** 200}"))
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "'phase.K', line 10" in err
        assert "Traceback" not in err

    def test_empty_grid_of_a_refused_source_exits_0(self, tmp_path):
        # the too-bright heralded source above, on a grid with no distance: no
        # source model is built, so nothing is refused
        cfg = config_copy(tmp_path, "qss_heralded_eta40", ("source.mu = 5e-3", "source.mu = 0.5"),
                          ("sweep.L_min = 0", "sweep.L_min = 10"),
                          ("sweep.L_max = 200", "sweep.L_max = 5"))
        out = tmp_path / "out.csv"
        assert cli.main(["qss", "--config", str(cfg), "--out", str(out)]) == 0
        assert [l for l in out.read_text().splitlines() if not l.startswith("#")] == [
            "distance_km,rate_two_decoy,rate_infinite_decoy,raw_rate,e111_bzu,Y111_xl,Q_x,E_x,"
            "diagnostics"]

    def test_repeated_distance_exits_2(self, tmp_path, capsys):
        # a step below the float spacing at 1e16 km would write 1,001 equal rows
        cfg = config_copy(tmp_path, "qcc_eta40", ("sweep.L_min = 0", "sweep.L_min = 1e16"),
                          ("sweep.L_max = 250", "sweep.L_max = 1e16"),
                          ("sweep.L_step = 1", "sweep.L_step = 1e-3"))
        out = tmp_path / "out.csv"
        assert cli.main(["qcc", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sweep.L_step" in err and "two distances are equal" in err
        assert "Traceback" not in err and not out.exists()

    EDGES = ("0", "-0.0", "5e-324", "1e-300", "1", "1e300", "nan", "inf")
    HUGE_K = (str(10 ** 150), str(10 ** 200))  # K^2 still a float, and overflowing
    COMMANDS = (["qcc"], ["qss"], ["mermin"], ["validate", "--quick"],
                ["optimize", "--variant", "qcc", "--points", "3", "--rounds", "1"],
                ["optimize", "--variant", "qss", "--points", "3", "--rounds", "1"])

    @given(st.data())
    def test_edited_bundled_config_keeps_the_contract(self, data):
        # a bundled config cut to the three distances 0, 1 and 2 km (every
        # bundled grid starts at 0), with one to three keys of the schema each
        # set to an edge value, dropped or duplicated
        name = data.draw(st.sampled_from(sorted(p.stem for p in CONFIG_DIR.glob("*.cfg"))))
        lines = [line for line in (CONFIG_DIR / f"{name}.cfg").read_text().splitlines()
                 if not line.startswith(("#", "sweep.L_max", "sweep.L_step"))]
        lines += ["sweep.L_max = 2", "sweep.L_step = 1"]
        keys = data.draw(st.lists(st.sampled_from(list(params.CONFIG_KEYS)), min_size=1,
                                  max_size=3, unique=True))
        for key in keys:
            values = self.EDGES + (self.HUGE_K if key == "phase.K" else ())
            edit = data.draw(st.sampled_from(values + ("missing", "duplicated")), label=key)
            present = [line for line in lines if line.partition("=")[0].strip() == key]
            if edit == "duplicated":
                lines += present if present else [f"{key} = 1"] * 2
            else:
                lines = [line for line in lines if line not in present]
                lines += [] if edit == "missing" else [f"{key} = {edit}"]
        command = data.draw(st.sampled_from(self.COMMANDS))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "edited.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command + ["--config", str(cfg), "--out", f"{tmp}/out.csv"])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code in (2, 4):
            assert err.getvalue().strip()
        assert "Traceback" not in err.getvalue()
