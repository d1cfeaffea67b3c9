"""Command line interface: config parsing, subcommands, exit codes,
determinism of outputs."""

import configparser
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from jetwave import elliptic, symbols
from jetwave.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PINCH,
    EXIT_SOLVER,
    EXIT_VERIFY,
    load_config,
    main,
)
from jetwave.elliptic import DtnSolver
from jetwave.errors import ConfigError, ConvergenceError, EllipticityError
from jetwave.spectral import TorusGrid
from jetwave.verification import check_dtn_structure, check_plateau_oscillation

BASE = """
[grid]
n_theta = 16
n_z = 16
n_rho = 24

[physics]
r = 1.0
sigma = 1.0
"""

PERTURBED = """
[ic]
mode.1 = 1e-2 2 1 eta 0.0
mode.2 = 5e-3 0 1 psi 0.3

[evolution]
t_final = 0.05
"""

# The capillary CFL step of BASE's grid.  The auto step covers PERTURBED's
# t_final in one step; tests whose premise is a run of several steps set it.
CFL_DT = "dt = 0.018581361171917513\n"


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# values each key of each shipped config is set to, one key at a time
CATALOGUE = ("", "0", "-1", "-0", "0.5", "3.7", "1e-300", "1e300", "1e400",
             "nan", "inf", "abc", "2pi")

# accepted extremes of equilibrium.ini, one key at a time, that the cheap
# subcommands must end in a contract exit code
EXTREMES = [
    ("physics", "r", v) for v in ("1e-6", "1e6", "1e-300", "1.5e-154",
                                  "1e-120", "1e-103")
] + [
    ("physics", "sigma", v) for v in ("1e300", "1e-300", "1e-6")
] + [
    ("grid", "z_period", v) for v in ("1e-6", "1e6")
] + [
    ("evolution", "elliptic_tol", v) for v in ("1e-13", "1e-6")
] + [
    ("grid", "n_rho", "4"), ("grid", "n_theta", "8"),
    ("evolution", "t_final", "1e-300"), ("evolution", "dt", "1e300"),
    ("evolution", "record_every", "1000000"),
]


def write(tmp_path, text, name="c.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_parses(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE + """
[ic]
mode.1 = 1e-3 2 0 eta 0.0
mode.2 = 5e-4 0 1 psi 0.3

[evolution]
dt = auto
t_final = 0.5
"""))
        assert cfg["n_theta"] == 16
        assert cfg["modes"] == [(1e-3, 2, 0.0, "eta", 0.0),
                                (5e-4, 0, 1.0, "psi", 0.3)]
        assert cfg["t_final"] == 0.5

    def test_missing_key_named(self, tmp_path):
        path = write(tmp_path, "[grid]\nn_theta = 16\nn_z = 16\nn_rho = 8\n"
                               "[physics]\nr = 1.0\n")
        with pytest.raises(ConfigError, match="sigma"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write(tmp_path, BASE + "[evolution]\nstep_size = 0.1\n")
        with pytest.raises(ConfigError, match="step_size"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = write(tmp_path, BASE + "[turbo]\nx = 1\n")
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_bad_mode_target(self, tmp_path):
        path = write(tmp_path, BASE + "[ic]\nmode.1 = 1e-3 2 0 phi 0.0\n")
        with pytest.raises(ConfigError, match="target"):
            load_config(path)

    def test_pi_syntax(self, tmp_path):
        cfg = load_config(write(tmp_path, BASE.replace(
            "n_rho = 24", "n_rho = 24\nz_period = 4pi")))
        assert cfg["z_period"] == pytest.approx(4 * np.pi)

    @pytest.mark.parametrize("raw, heavy", [
        ("off", False), ("No", False), ("TRUE", True),
    ])
    def test_verify_keys(self, tmp_path, raw, heavy):
        """heavy takes the configparser booleans in any case."""
        cfg = load_config(write(tmp_path, BASE + f"[verify]\nheavy = {raw}\n"
                                               "structure_states = 1\n"))
        assert cfg["heavy"] is heavy
        assert cfg["structure_states"] == 1

    @pytest.mark.parametrize("name", sorted(
        f for f in os.listdir(CONFIGS) if f.endswith(".ini")))
    def test_mutated_keys_accepted_or_exit_2(self, tmp_path, name):
        """Every key of a shipped config, set to each catalogue value in
        turn, is either accepted or raises ConfigError (exit 2 at the
        command line); no other exception escapes load_config."""
        base = configparser.ConfigParser(interpolation=None)
        base.read(os.path.join(CONFIGS, name), encoding="utf-8")
        escaped = []
        for section in base.sections():
            for key in base[section]:
                for raw in CATALOGUE:
                    mutated = configparser.ConfigParser(interpolation=None)
                    mutated.read_dict(base)
                    mutated[section][key] = raw
                    path = tmp_path / f"{section}.{key}.ini"
                    with open(path, "w", encoding="utf-8") as fh:
                        mutated.write(fh)
                    try:
                        load_config(str(path))
                    except ConfigError:
                        pass
                    except Exception as exc:
                        escaped.append(f"[{section}] {key} = {raw!r}: {exc!r}")
        assert not escaped, escaped

    @pytest.mark.parametrize("raw", ["1.5e-154", "1e-120", "1e-103"])
    def test_capillary_scale_overflow_names_r(self, tmp_path, raw):
        """Radii whose square is normal but at which sigma |xi|^3 at the
        grid's corner overflows, as the dispersion scale sigma / r^3 would,
        are refused naming r."""
        with open(os.path.join(CONFIGS, "equilibrium.ini")) as fh:
            text = fh.read().replace("r = 1.0", f"r = {raw}")
        with pytest.raises(ConfigError, match="'r'"):
            load_config(write(tmp_path, text))


class TestExitCodes:
    def test_missing_key_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "[grid]\nn_theta = 16\nn_z = 16\nn_rho = 8\n"
                               "[physics]\nr = 1.0\n")
        code = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "sigma" in capsys.readouterr().err

    def test_equilibrium_simulate_exit_0(self, tmp_path):
        path = write(tmp_path, BASE + "[evolution]\nt_final = 0.05\n")
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        series = (tmp_path / "run_series.csv").read_text().splitlines()
        assert series[0] == ("t,E_k,E_p,H_total,volume,min_eta,max_eta,"
                             "mean_psi,elliptic_iters")
        # equilibrium: all-zero-drift time series, and no CG iteration
        for line in series[1:]:
            cells = line.split(",")
            assert float(cells[1]) == 0.0 and float(cells[3]) == 0.0
            assert int(cells[8]) == 0

    def test_elliptic_iters_counted(self, tmp_path):
        """Each row after the first sums the CG iterations of the stage
        solves since the row before."""
        path = write(tmp_path, BASE + PERTURBED + "record_every = 2\n" + CFL_DT)
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        rows = (tmp_path / "run_series.csv").read_text().splitlines()[1:]
        iters = [int(line.split(",")[8]) for line in rows]
        assert len(iters) > 2 and iters[0] == 0
        # at least one iteration per stage solve, four stages per step
        assert all(n >= 8 for n in iters[1:])

    def test_elliptic_residual_in_manifest(self, tmp_path):
        """The manifest records the worst relative CG residual of the run's
        stage solves: under the elliptic tolerance, and 0 at equilibrium,
        where no solve iterates."""
        for name, text in (("moving", PERTURBED), ("rest", "")):
            path = write(tmp_path, BASE + text + "[output]\nprefix = " + name + "\n")
            code = main(["simulate", "--config", path, "--out", str(tmp_path),
                         "--quiet"])
            assert code == EXIT_OK
            manifest = (tmp_path / f"{name}_manifest.txt").read_text()
            (line,) = [l for l in manifest.splitlines()
                       if l.startswith("elliptic_residual_max=")]
            worst = float(line.split("=")[1])
            if name == "moving":
                assert 0.0 < worst < 1e-11
            else:
                assert worst == 0.0

    def test_pinch_off_exit_4(self, tmp_path):
        path = write(tmp_path, BASE + """
[ic]
mode.1 = -0.9995 0 1 eta 0.0

[evolution]
dt = 0.01
t_final = 0.5
""")
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_PINCH
        manifest = (tmp_path / "run_manifest.txt").read_text()
        assert "status=pinch_off" in manifest
        assert "t_last_valid=" in manifest

    @staticmethod
    def _fail_solves_after(monkeypatch, n_ok, fail):
        """Let the first n_ok elliptic solves run normally, then fail."""
        solve = DtnSolver.solve
        calls = []

        def limited(self, *args, **kwargs):
            calls.append(None)
            if len(calls) > n_ok:
                return fail(solve, self, *args, **kwargs)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(DtnSolver, "solve", limited)

    @staticmethod
    def _one_iteration(monkeypatch):
        """A fail for _fail_solves_after: the solve, with CG capped at one
        iteration from then on."""
        def fail(solve, *args, **kwargs):
            monkeypatch.setattr(elliptic, "MAX_ITER", 1)
            return solve(*args, **kwargs)

        return fail

    def _check_failure(self, tmp_path, capsys, error):
        path = write(tmp_path, BASE + PERTURBED + CFL_DT)
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_SOLVER
        assert error in capsys.readouterr().err
        manifest = dict(line.split("=", 1) for line in
                        (tmp_path / "run_manifest.txt").read_text().splitlines())
        assert manifest["status"] == "solver_failure"
        assert manifest["cause"].startswith(error + ":")
        rows = (tmp_path / "run_series.csv").read_text().splitlines()[1:]
        # solves 1-5: k1 at t = 0, k2-k4 of step 1, k1 at t = dt (recorded)
        assert len(rows) == 2
        assert float(manifest["t_last_valid"]) == float(manifest["dt"])
        assert float(rows[-1].split(",")[0]) == float(manifest["dt"])

    def test_convergence_failure_exit_5(self, tmp_path, capsys, monkeypatch):
        self._fail_solves_after(monkeypatch, 5, self._one_iteration(monkeypatch))
        self._check_failure(tmp_path, capsys, "ConvergenceError")

    def test_ellipticity_failure_exit_5(self, tmp_path, capsys, monkeypatch):
        def fail(*_):
            raise EllipticityError("forced: symbol not elliptic")

        self._fail_solves_after(monkeypatch, 5, fail)
        self._check_failure(tmp_path, capsys, "EllipticityError")

    @pytest.mark.parametrize("command", ["dtn", "dispersion", "verify"])
    def test_solver_failure_exit_5_names_cause(self, tmp_path, capsys,
                                               monkeypatch, command):
        def fail(*_):
            raise EllipticityError("forced: symbol not elliptic")

        self._fail_solves_after(monkeypatch, 0, fail)
        path = write(tmp_path, BASE + PERTURBED + "\n[verify]\nheavy = false\n")
        code = main([command, "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_SOLVER
        assert "EllipticityError" in capsys.readouterr().err
        manifest = dict(line.split("=", 1) for line in (
            tmp_path / f"run_{command}_manifest.txt").read_text().splitlines())
        assert manifest["command"] == command
        assert manifest["status"] == "solver_failure"
        assert manifest["cause"] == "EllipticityError: forced: symbol not elliptic"

    def test_check_simulate_failure_raises_its_error(self, monkeypatch):
        """A solver failure inside a battery simulation surfaces as the
        error itself, which verify turns into exit 5."""
        self._fail_solves_after(monkeypatch, 0, self._one_iteration(monkeypatch))
        with pytest.raises(ConvergenceError):
            check_plateau_oscillation()

    @pytest.mark.parametrize("command", ["simulate", "dtn"])
    def test_ic_mode_off_lattice_exit_2(self, tmp_path, capsys, command):
        path = write(tmp_path, BASE + "[ic]\nmode.1 = 1e-3 0 0.3 eta 0.0\n")
        code = main([command, "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "'mode.1'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [
        "1e-3 8 0 psi 0.0", "1e-3 -8 1 eta 0.0", "1e-3 20 0 eta 0.0",
        "1e-3 0 8 psi 0.0", "1e-3 1 -9 eta 0.0",
    ])
    def test_ic_mode_not_resolved_exit_2(self, tmp_path, capsys, mode):
        """|m| >= n_theta/2 or |k| >= (n_z/2) dz on the 16 x 16 grid: the
        mode would be projected out (the Nyquist row or column) or aliased
        (m = 20 onto m = 4), so the config is rejected naming the key."""
        path = write(tmp_path, BASE + f"[ic]\nmode.1 = {mode}\n")
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "bad value in mode 'mode.1'" in capsys.readouterr().err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize("section, key, raw", EXTREMES,
                             ids=[f"{k}={v}" for _, k, v in EXTREMES])
    def test_accepted_extremes_keep_contract(self, tmp_path, section, key,
                                             raw):
        """dispersion, dtn and simulate on equilibrium.ini with one key at an
        accepted extreme end in a contract exit code (0, 2, 4 or 5), and a
        run that exits 0 writes no nan or inf."""
        config = configparser.ConfigParser(interpolation=None)
        config.read(os.path.join(CONFIGS, "equilibrium.ini"), encoding="utf-8")
        config[section][key] = raw
        path = tmp_path / "c.ini"
        with open(path, "w", encoding="utf-8") as fh:
            config.write(fh)
        for command in ("dispersion", "dtn", "simulate"):
            out = tmp_path / command
            out.mkdir()
            code = main([command, "--config", str(path), "--out", str(out),
                         "--quiet"])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PINCH, EXIT_SOLVER), \
                command
            if code == EXIT_OK:
                written = [f.read_text() for f in out.iterdir()]
                assert written, command
                assert not any(re.search(r"\b(nan|inf)\b", text, re.I)
                               for text in written), command

    def test_verify_fault_exit_3(self, tmp_path, capsys, lambda0_sign_fault):
        path = write(tmp_path, BASE + "\n[verify]\nheavy = false\n"
                                      "structure_states = 2\n")
        code = main(["verify", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_VERIFY
        assert "symbol.im_lambda0" in capsys.readouterr().err

    def test_verify_underresolved_bessel_named(self, tmp_path, capsys):
        path = write(tmp_path, BASE.replace("n_rho = 24", "n_rho = 6")
                     + "\n[verify]\nheavy = false\nstructure_states = 2\n")
        code = main(["verify", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_VERIFY
        assert "dtn.bessel_accuracy" in capsys.readouterr().err


    @pytest.mark.parametrize("key, raw", [
        ("t_final", "abc"),
        ("t_final", "-1"),
        ("elliptic_tol", "1e-3"),
        ("record_every", "0"),
        ("n_theta", "7"),
        ("r", "-1"),
        ("dt", "-0.1"),
        ("t_final", "inf"),
        ("z_period", "inf"),
        ("dt", "inf"),
        ("cfl", "inf"),
        ("r", "inf"),
        ("sigma", "nan"),
        ("elliptic_tol", "nan"),
        ("mode.1", "inf 2 1 eta 0.0"),
        ("mode.1", "1e-2 2 nan eta 0.0"),
        ("mode.1", "1e-2 2 1 eta -inf"),
    ])
    def test_bad_value_exit_2_names_key(self, tmp_path, capsys, key, raw):
        text = (BASE.replace("n_rho = 24", "n_rho = 24\nz_period = 2pi")
                + "[ic]\nmode.1 = 1e-2 2 1 eta 0.0\n"
                + "[evolution]\nt_final = 0.05\n")
        old = [l for l in text.splitlines() if l.startswith(f"{key} =")]
        text = (text.replace(old[0], f"{key} = {raw}") if old
                else text + f"{key} = {raw}\n")
        path = write(tmp_path, text)
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    def test_filter_eps_is_an_unknown_key(self, tmp_path, capsys):
        """The stepper has no frequency filter; a config that still sets
        one is rejected by name, not ignored."""
        path = write(tmp_path, BASE + "[evolution]\nfilter_eps = 0.0\n")
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "unknown key 'filter_eps'" in capsys.readouterr().err
        assert not (tmp_path / "run_manifest.txt").exists()

    @pytest.mark.parametrize("prefix", ["nodir/eq", "a/b/c", "/eq"])
    def test_prefix_with_separator_exit_2(self, tmp_path, capsys, monkeypatch,
                                          prefix):
        """A prefix naming a directory is rejected by name before any
        solve, not after the run when its output cannot be written."""
        def fail(*_):
            raise AssertionError("solved before the prefix was checked")

        monkeypatch.setattr(DtnSolver, "solve", fail)
        path = write(tmp_path, BASE + f"[output]\nprefix = {prefix}\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", path, "--out", str(out),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "'prefix'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, raw", [
        ("dt", "1e-300"), ("sigma", "1e300"), ("r", "1e-6"),
        ("z_period", "1e-6"), ("r", "1e-300"), ("z_period", "1e-300"),
        ("sigma", "5e-324")])
    def test_too_many_steps_exit_2_names_key(self, tmp_path, capsys,
                                             monkeypatch, key, raw):
        """Accepted values whose smallest step (the fixed dt, or the CFL
        step under which the auto step never goes) needs more than
        MAX_STEPS steps to reach t_final are refused before any solve."""
        def fail(*_):
            raise AssertionError("solved before the step count was checked")

        monkeypatch.setattr(DtnSolver, "solve", fail)
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "equilibrium.ini")
        with open(config) as fh:
            text = fh.read().replace("[grid]\n", "[grid]\nz_period = 2pi\n")
        old = [l for l in text.splitlines() if l.startswith(f"{key} =")]
        path = write(tmp_path, text.replace(old[0], f"{key} = {raw}"))
        code = main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)
        assert not (tmp_path / "equilibrium_manifest.txt").exists()

    @pytest.mark.parametrize("text, where", [
        (b"n_theta = 16\n" + BASE.encode(), ", line 1:"),
        (BASE.replace("n_rho = 24", "n_rho = 24\nn_z = 8").encode(),
         ", line 6:"),
        (BASE.encode() + b"[output]\nprefix = r\xe9sum\xe9\n", ":"),
        (BASE.encode() + b"[output]\nprefix = run%1\n", ":"),
    ], ids=["no_section_header", "repeated_key", "not_utf8", "interpolation"])
    def test_unparsable_config_exit_2_names_file(self, tmp_path, capsys, text,
                                                 where):
        """A file configparser cannot read exits 2 naming it, and the line
        where configparser reports one."""
        path = tmp_path / "c.ini"
        path.write_bytes(text)
        code = main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{path}{where}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, cause", [
        ("a_directory", "Is a directory"),
        ("missing.ini", "No such file or directory"),
    ], ids=["directory", "missing"])
    def test_unopenable_config_exit_2_names_cause(self, tmp_path, capsys,
                                                  name, cause):
        """A --config that cannot be opened exits 2 with the OS's reason."""
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / name
        code = main(["dtn", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"{path}: {cause}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_bad_seed_exit_2_names_flag(self, tmp_path, capsys, seed):
        """numpy's generators take only non-negative integer seeds; any
        other --seed is rejected by name before the run starts."""
        path = write(tmp_path, BASE + "[verify]\nheavy = false\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", path, "--out", str(tmp_path),
                  "--seed", seed, "--quiet"])
        assert exc.value.code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
    def test_out_not_a_directory_exit_2(self, tmp_path, capsys, below):
        """An --out that names a file (FileExistsError) or a path under one
        (NotADirectoryError) is rejected by name."""
        path = write(tmp_path, BASE)
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", path, "--out", str(taken / below),
                  "--quiet"])
        assert exc.value.code == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("key, raw", [
        ("structure_states", "0"),
        ("structure_states", "-3"),
        ("fault", "lambda0sign"),
        ("heavy", "flase"),
    ])
    def test_bad_verify_value_exit_2_names_key(self, tmp_path, capsys, key,
                                               raw):
        """A [verify] value that would pass vacuously, end in a traceback
        or silently run the heavy battery is a configuration error."""
        keys = {"heavy": "false", "structure_states": "2", key: raw}
        path = write(tmp_path, BASE + "[verify]\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items()))
        code = main(["verify", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)
        assert not (tmp_path / "run_verify.txt").exists()

    def test_structure_check_needs_a_state(self):
        with pytest.raises(ValueError, match="n_states"):
            check_dtn_structure(TorusGrid(16, 16), 24, 0, n_states=0)


class TestDtnCommand:
    def test_pure_mode_dump(self, tmp_path):
        path = write(tmp_path, BASE + "[ic]\nmode.1 = 1.0 3 0 psi 0.0\n")
        code = main(["dtn", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        rows = (tmp_path / "run_dtn_fields.csv").read_text().splitlines()
        header = rows[0].split(",")
        gi = header.index("G")
        ti = header.index("theta")
        worst = 0.0
        for line in rows[1:]:
            cells = [float(x) for x in line.split(",")]
            worst = max(worst, abs(cells[gi] - 3.0 * np.cos(3 * cells[ti])))
        assert worst < 1e-8
        manifest = (tmp_path / "run_dtn_manifest.txt").read_text()
        assert "gradient_identity_residual=" in manifest

    def test_constant_trace_all_zero(self, tmp_path):
        path = write(tmp_path, BASE + "[ic]\nmode.1 = 2.0 0 0 psi 0.0\n")
        main(["dtn", "--config", path, "--out", str(tmp_path), "--quiet"])
        rows = (tmp_path / "run_dtn_fields.csv").read_text().splitlines()
        for line in rows[1:]:
            cells = [float(x) for x in line.split(",")]
            assert max(abs(c) for c in cells[2:]) < 1e-10


class TestDispersionCommand:
    def test_signs_and_accuracy(self, tmp_path):
        path = write(tmp_path, BASE.replace("sigma = 1.0", "sigma = 2.0")
                     + "\n[dispersion]\nmodes = 2 0; 3 0; 0 2\n")
        code = main(["dispersion", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        rows = (tmp_path / "run_dispersion.csv").read_text().splitlines()[1:]
        for line in rows:
            m, k, a, b, rel = (float(x) for x in line.split(","))
            assert rel < 1e-8
            assert a > 0.0  # k = 0 scans of m >= 2 and axial kR > 1: stable

    def test_default_modes_on_the_axial_lattice(self, tmp_path):
        """Without a [dispersion] section the modes take k = dz and 2 dz,
        dz = 2 pi/z_period, on any torus."""
        path = write(tmp_path, BASE.replace("n_rho = 24",
                                            "n_rho = 24\nz_period = 3"))
        code = main(["dispersion", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        rows = (tmp_path / "run_dispersion.csv").read_text().splitlines()[1:]
        dz = 2 * np.pi / 3
        assert [float(line.split(",")[1]) for line in rows] == pytest.approx(
            [dz, 2 * dz, dz, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("radius", ["1e-6", "1e6"])
    def test_extreme_radius_exit_0_finite(self, tmp_path, radius):
        """eta is perturbed relative to R, so R = 1e-6 stays positive, and
        the Bessel ratio is formed from scaled functions, so R = 1e6 neither
        overflows (a RuntimeWarning fails the suite) nor writes nan."""
        path = write(tmp_path, BASE.replace("r = 1.0", f"r = {radius}"))
        code = main(["dispersion", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        rows = (tmp_path / "run_dispersion.csv").read_text().splitlines()[1:]
        cells = [float(x) for line in rows for x in line.split(",")]
        assert len(cells) == 30 and np.all(np.isfinite(cells))

    @pytest.mark.parametrize("modes", ["1 2 3", "1 0.3", "1.5 2"])
    def test_bad_modes_exit_2(self, tmp_path, capsys, modes):
        """Three fields, k off the axial lattice, non-integer m."""
        path = write(tmp_path, BASE + f"\n[dispersion]\nmodes = {modes}\n")
        code = main(["dispersion", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "'modes'" in capsys.readouterr().err


    @pytest.mark.parametrize("modes", ["8 0", "0 8", "-8 1", "1 0; 2 -8"])
    def test_nyquist_modes_exit_2(self, tmp_path, capsys, modes):
        """A mode on the Nyquist row or column of the 16 x 16 grid is
        projected out of every state, so it cannot be measured."""
        path = write(tmp_path, BASE + f"\n[dispersion]\nmodes = {modes}\n")
        code = main(["dispersion", "--config", path, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_CONFIG
        assert "'modes'" in capsys.readouterr().err

    def test_default_modes_resolved(self, tmp_path):
        """On the 8 x 8 grid of rayleigh_plateau.ini the default list drops
        m = 4, the Nyquist row, which measured omega^2 = 0 (rel_error 1)."""
        config = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                              "rayleigh_plateau.ini")
        code = main(["dispersion", "--config", config, "--out", str(tmp_path),
                     "--quiet"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in
                (tmp_path / "plateau_dispersion.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [0, 0, 1, 2, 3]
        assert all(float(r[4]) < 1e-6 for r in rows)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, BASE + """
[ic]
mode.1 = 1e-3 2 1 eta 0.0

[evolution]
t_final = 0.05
""")
        main(["simulate", "--config", path, "--out", str(tmp_path / "a"),
              "--seed", "7", "--quiet"])
        main(["simulate", "--config", path, "--out", str(tmp_path / "b"),
              "--seed", "7", "--quiet"])
        a = (tmp_path / "a" / "run_series.csv").read_bytes()
        b = (tmp_path / "b" / "run_series.csv").read_bytes()
        assert a == b

    def test_byte_identical_across_thread_counts(self, tmp_path):
        """The series is bitwise the same under JETWAVE_THREADS 1 and 2.
        main() only sets the pool variables that are unset, so the child
        environment drops them."""
        path = write(tmp_path, BASE + PERTURBED)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        series = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "jetwave.cli", "simulate", "--config",
                 path, "--out", str(out), "--quiet"],
                capture_output=True, text=True, timeout=600,
                env={**env, "JETWAVE_THREADS": threads})
            assert proc.returncode == EXIT_OK, proc.stderr
            series.append((out / "run_series.csv").read_bytes())
        assert series[0] == series[1]

    def test_verify_quick_records_pinned(self, tmp_path):
        """`jetwave verify` on configs/verify_quick.ini at seed 0 writes the
        records of tests/golden/verify_quick_seed0.txt, line by line."""
        code = main(["verify", "--config",
                     os.path.join(CONFIGS, "verify_quick.ini"), "--seed", "0",
                     "--out", str(tmp_path), "--quiet"])
        assert code == EXIT_OK
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "verify_quick_seed0.txt")
        with open(golden) as fh:
            want = fh.read().splitlines()
        assert (tmp_path / "verify_quick_verify.txt").read_text() \
            .splitlines() == want

    def test_seventeen_digit_floats(self, tmp_path):
        path = write(tmp_path, BASE + "[evolution]\nt_final = 0.05\n")
        main(["simulate", "--config", path, "--out", str(tmp_path),
              "--quiet"])
        manifest = (tmp_path / "run_manifest.txt").read_text()
        dt_line = [l for l in manifest.splitlines() if l.startswith("dt=")][0]
        assert len(dt_line.split("=")[1].replace(".", "").replace("-", "")
                   .lstrip("0")) >= 15


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        path = write(tmp_path, "[grid]\nn_theta = 16\nn_z = 16\nn_rho = 8\n"
                               "[physics]\nr = 1.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "jetwave.cli", "simulate",
             "--config", path, "--out", str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "JETWAVE_THREADS": "1"})
        assert proc.returncode == EXIT_CONFIG
        assert "sigma" in proc.stderr

    def test_entry_point_import_loads_no_numpy(self):
        """main() applies JETWAVE_THREADS before numpy starts its thread
        pools only if importing the entry point leaves numpy unloaded."""
        code = ("import sys, jetwave.cli\n"
                "print('numpy' in sys.modules)\n"
                "from jetwave import TorusGrid, lambda_symbol\n"
                "print(TorusGrid(8, 8).n_theta, lambda_symbol.__name__)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "8", "lambda_symbol"]

    def test_every_export_resolves(self):
        """Each name in jetwave.__all__ resolves through the package's lazy
        __getattr__, so a stale export fails here and not when first used;
        the solve's result is private and not exported."""
        import jetwave
        for name in jetwave.__all__:
            jetwave.__getattr__(name)
        assert "PotentialField" not in jetwave.__all__
        assert not hasattr(elliptic, "PotentialField")
        # each symbol has one constructor; lambda_symbol is the public one
        assert {"mu_symbol", "symmetrizer_symbols"}.isdisjoint(jetwave.__all__)
        for name in ("mu_symbol", "symmetrizer_symbols",
                     "factorization_symbols"):
            assert not hasattr(symbols, name)
