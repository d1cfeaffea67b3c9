"""Configuration-driven command line entry points.

Subcommands
-----------
simulate    advance a configured initial state, writing a run manifest (with
            the worst relative CG residual of its solves) and a
            time-series table (t, E_k, E_p, H_total, volume, min_eta,
            max_eta, mean_psi, elliptic_iters)
dispersion  tabulate analytic vs measured linearized frequencies about the
            reference cylinder
verify      run the full verification battery with machine-readable output
dtn         solve one Dirichlet-to-Neumann problem and dump the boundary
            fields plus trace-identity residuals

Flags: --config PATH (required), --out DIR (default ./out), --seed UINT
(default 0), --quiet.  Exit codes: 0 success, 2 configuration error (a
bad flag included: a negative seed, an --out that cannot be a directory),
3 verification failure, 4 pinch-off abort, 5 solver failure (an elliptic
solve did not converge or a symbol lost ellipticity, in any subcommand; the
manifest names the cause, and the simulate manifest the last valid t).

Configuration is flat INI-style key=value text in UTF-8 with sections
grid/physics/ic/evolution/output (plus optional dispersion/verify).  A file
configparser cannot read is named with its line; unknown keys, non-finite
numbers and an output prefix with a path separator in it are rejected by
name.  [verify] takes heavy (a configparser boolean, default true; false
skips the long time-integration runs) and structure_states (seeded states
of the DtN structure check, >= 1, default 100).  Floating point output
carries 17 significant digits, and a fixed seed gives byte-identical reruns.

The environment variable JETWAVE_THREADS caps the numeric thread pools; it
is applied before the numeric modules load.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

from .errors import ConfigError, ConvergenceError, EllipticityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_PINCH = 4
EXIT_SOLVER = 5

#: most steps a simulate run may need; a config whose smallest step needs
#: more to reach t_final exits 2 before any solve
MAX_STEPS = 10 ** 6

_SCHEMA = {
    "grid": {"n_theta", "n_z", "n_rho", "z_period"},
    "physics": {"r", "sigma"},
    "ic": None,  # mode.N keys, validated separately
    "evolution": {"dt", "t_final", "record_every", "elliptic_tol"},
    "output": {"prefix"},
    "dispersion": {"modes"},
    "verify": {"heavy", "structure_states"},
}

_FLOAT_FMT = "%.17g"


def _fmt(x):
    if isinstance(x, float):
        return _FLOAT_FMT % x
    return str(x)


def _parse_pi(text):
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2].strip().rstrip("*")
        factor = float(head) if head else 1.0
        return factor * math.pi
    return float(text)


def _parse_dt(text):
    return "auto" if text.strip() == "auto" else float(text)


def _parse_seed(text):
    """--seed: a non-negative integer, the seeds numpy's generators take."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _grid(cfg):
    from .spectral import TorusGrid

    return TorusGrid(cfg["n_theta"], cfg["n_z"], cfg["z_period"])


def _check_ranges(out):
    """Run the value checks of the objects the subcommands build, so a bad
    value exits 2 with its key named instead of failing mid-run."""
    from .elliptic import TOL_RANGE, radial_grid
    from .evolution import EvolutionConfig

    try:
        grid = _grid(out)
        radial_grid(out["n_rho"])
        EvolutionConfig(dt=out["dt"], t_final=out["t_final"],
                        record_every=out["record_every"])
    except ValueError as exc:
        raise ConfigError(f"bad value: {exc}") from exc
    for key, name in (("R", "r"), ("sigma", "sigma"),
                      ("structure_states", "structure_states")):
        if not out[key] > 0:
            raise ConfigError(f"bad value for '{name}': must be positive")
    if not out["R"] * out["R"] >= sys.float_info.min:
        raise ConfigError(f"bad value for 'r': {out['R']:g} is so small that "
                          f"r^2, which the energy form divides by, underflows")
    # the grid's corner |xi|, cubed by multiplication: ** raises on overflow
    xi = math.hypot(grid.n_theta / 2 / out["R"], grid.n_z / 2 * grid.dz_lattice)
    if not math.isfinite(out["sigma"] * xi * xi * xi):
        raise ConfigError(f"bad value for 'r', 'sigma' or 'z_period': sigma "
                          f"|xi|^3 at the grid's corner |xi| = {xi:.3g} overflows")
    if any(sep and sep in out["prefix"] for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"bad value for 'prefix': {out['prefix']!r} names a "
                          f"directory; --out sets where output goes")
    lo, hi = TOL_RANGE
    if not lo <= out["elliptic_tol"] <= hi:
        raise ConfigError(f"bad value for 'elliptic_tol': "
                          f"{out['elliptic_tol']:g} outside [{lo:g}, {hi:g}]")


def _check_lattice(out, ks):
    """Raise ValueError unless every axial wavenumber in ks lies on the
    axial lattice of the configured grid (TorusField.from_modes's rule)."""
    from .spectral import TorusField

    TorusField.from_modes(_grid(out), [(0.0, 0, k, 0.0) for k in ks])


def _resolved(grid, m, k):
    """Whether the mode cos(m theta + k z), k on the axial lattice, lies
    strictly inside the Nyquist band (|m| < n_theta/2, |k|/dz < n_z/2);
    SurfaceState projects out the rest."""
    return (abs(m) < grid.n_theta // 2
            and abs(round(k / grid.dz_lattice)) < grid.n_z // 2)


def _check_resolved(grid, m, k):
    """Raise ValueError unless the mode (m, k) is ``_resolved`` on grid."""
    if not _resolved(grid, m, k):
        raise ValueError(
            f"mode ({m}, {_fmt(k)}) is not resolved on the "
            f"{grid.n_theta} x {grid.n_z} grid (needs |m| < "
            f"{grid.n_theta // 2} and |k| < {grid.n_z // 2} dz)")


def _dispersion_modes(raw, out):
    """(m, k) pairs of the '[dispersion] modes' list 'm k; m k; ...', or, if
    it is empty, the resolved modes of a default set with k = dz and 2 dz on
    the axial lattice (dz = 2 pi/z_period); m must be an integer and k lie
    on the lattice, both inside the Nyquist band."""
    grid = _grid(out)
    if not raw.strip():
        dz = grid.dz_lattice
        default = [(0, dz), (0, 2.0 * dz), (1, dz), (2, 0.0), (3, 0.0), (4, 0.0)]
        return [(m, k) for m, k in default if _resolved(grid, m, k)]
    try:
        modes = []
        for chunk in filter(None, (c.strip() for c in raw.split(";"))):
            m, k = chunk.split()
            modes.append((int(m), float(k)))
        _check_lattice(out, [k for _, k in modes])
        for m, k in modes:
            _check_resolved(grid, m, k)
    except ValueError as exc:
        raise ConfigError(f"bad value for 'modes' ({raw.strip()!r}): "
                          f"{exc}") from exc
    return modes


def _read_ini(path):
    """The sections of the INI file at path as {section: {key: raw}}; a file
    that cannot be opened, is not UTF-8 or is not parsable raises ConfigError
    naming it and the cause (and the line, where configparser reports one)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        return {name: dict(parser[name]) for name in parser.sections()}
    except OSError as exc:      # missing, a directory, unreadable
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text "
                          f"({exc.reason})") from exc
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        reason = exc.message.splitlines()[0].rpartition("]: ")[2]
        if getattr(exc, "errors", None):    # ParsingError: its first bad line
            line, text = exc.errors[0]
            reason = f"not a [section] header or key = value: {text}"
        where = f"{path}, line {line}" if line else path
        raise ConfigError(f"cannot parse {where}: {reason}") from exc


def load_config(path):
    """Parse and validate a run configuration; unknown keys are rejected."""
    cfg = _read_ini(path)
    for section, entries in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SCHEMA[section]
        for key in entries:
            if allowed is not None and key not in allowed:
                raise ConfigError(
                    f"unknown key '{key}' in section [{section}]")
            if section == "ic" and not (key == "modes" or key.startswith("mode")):
                raise ConfigError(f"unknown key '{key}' in section [ic]")

    def value(section, key, cast=float, default=None):
        raw = cfg.get(section, {}).get(key, default)
        if raw is None:
            raise ConfigError(f"missing required key '{key}' "
                              f"in section [{section}]")
        try:
            result = cast(raw)
        except (KeyError, ValueError) as exc:   # KeyError: not a boolean
            raise ConfigError(f"bad value for '{key}': {exc}") from exc
        if isinstance(result, float) and not math.isfinite(result):
            raise ConfigError(f"bad value for '{key}': {raw.strip()!r} is "
                              f"not finite")
        return result

    out = {
        "n_theta": value("grid", "n_theta", int),
        "n_z": value("grid", "n_z", int),
        "n_rho": value("grid", "n_rho", int),
        "z_period": value("grid", "z_period", _parse_pi, "2pi"),
        "R": value("physics", "r"),
        "sigma": value("physics", "sigma"),
        "modes": [],
        "dt": value("evolution", "dt", _parse_dt, "auto"),
        "t_final": value("evolution", "t_final", float, "1.0"),
        "record_every": value("evolution", "record_every", int, "1"),
        "elliptic_tol": value("evolution", "elliptic_tol", float, "1e-11"),
        "prefix": cfg.get("output", {}).get("prefix", "run"),
        "heavy": value("verify", "heavy", lambda raw:
                       configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "true"),
        "structure_states": value("verify", "structure_states", int, "100"),
    }
    _check_ranges(out)
    out["dispersion_modes"] = _dispersion_modes(
        cfg.get("dispersion", {}).get("modes", ""), out)
    for key, raw in sorted(cfg.get("ic", {}).items()):
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if len(parts) != 5:
                raise ConfigError(
                    f"mode '{key}' must read 'amplitude m k target phase', "
                    f"got {chunk!r}")
            amp, m, k, target, phase = parts
            if target not in ("eta", "psi"):
                raise ConfigError(
                    f"mode '{key}': target must be eta or psi, got {target!r}")
            try:
                amp, k, phase = float(amp), float(k), float(phase)
                if not all(map(math.isfinite, (amp, k, phase))):
                    raise ValueError("amplitude, k and phase must be finite")
                m = int(m)
                out["modes"].append((amp, m, k, target, phase))
                _check_lattice(out, [k])
                _check_resolved(_grid(out), m, k)
            except ValueError as exc:
                raise ConfigError(f"bad value in mode '{key}': {exc}") from exc
    return out


def _build_state(cfg):
    from .geometry import SurfaceState
    from .spectral import TorusField

    grid = _grid(cfg)
    eta_modes = [(a, m, k, p) for a, m, k, t, p in cfg["modes"] if t == "eta"]
    psi_modes = [(a, m, k, p) for a, m, k, t, p in cfg["modes"] if t == "psi"]
    eta = TorusField.constant(grid, cfg["R"]) + TorusField.from_modes(grid, eta_modes)
    psi = TorusField.from_modes(grid, psi_modes)
    return SurfaceState(eta, psi, cfg["R"], cfg["sigma"])


def _cause(exc):
    """How a manifest names a solver failure: 'ErrorType: message'."""
    return f"{type(exc).__name__}: {exc}"


def _write_manifest(path, entries):
    with open(path, "w") as fh:
        for key, value in entries:
            fh.write(f"{key}={_fmt(value)}\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_step_count(cfg):
    """Raise ConfigError, naming the keys that set it, when the smallest
    step the run can take needs more than MAX_STEPS steps to reach t_final:
    the fixed dt, or for "auto" the capillary CFL step at radius r, below
    which `EvolutionConfig.resolve_dt` never goes."""
    from .evolution import auto_dt

    if cfg["dt"] == "auto":
        try:
            dt = auto_dt(_grid(cfg), cfg["sigma"], cfg["R"])
        except ValueError as exc:
            raise ConfigError(f"{exc}: n_theta, n_z, z_period, r and sigma "
                              f"set the 'auto' step") from None
        what = (f"the 'auto' step never goes below the CFL step {dt:.3g} "
                f"that n_theta, n_z, z_period, r and sigma set")
    else:
        dt = cfg["dt"]
        what = f"'dt' = {dt:g}"
    if not cfg["t_final"] <= MAX_STEPS * dt:
        raise ConfigError(f"{what}: reaching t_final = {cfg['t_final']:g} "
                          f"would take more than {MAX_STEPS:.0e} steps")


def cmd_simulate(cfg, out_dir, seed, quiet):
    from .elliptic import DtnSolver
    from .evolution import EvolutionConfig, simulate

    _check_step_count(cfg)
    state = _build_state(cfg)
    solver = DtnSolver(state.grid, cfg["n_rho"])
    econf = EvolutionConfig(dt=cfg["dt"], t_final=cfg["t_final"],
                            record_every=cfg["record_every"],
                            tol_elliptic=cfg["elliptic_tol"])
    traj = simulate(state, econf, solver)
    rows = [
        (r.t, r.kinetic, r.potential, r.total, r.volume, r.min_eta,
         r.max_eta, r.mean_psi, r.elliptic_iterations)
        for r in traj.reports
    ]
    series = os.path.join(out_dir, cfg["prefix"] + "_series.csv")
    _write_csv(series,
               ["t", "E_k", "E_p", "H_total", "volume", "min_eta",
                "max_eta", "mean_psi", "elliptic_iters"],
               rows)
    manifest = os.path.join(out_dir, cfg["prefix"] + "_manifest.txt")
    t_last = traj.times[-1] if traj.times else state.t
    cause = [("cause", _cause(traj.error))] if traj.error else []
    _write_manifest(manifest, [
        ("command", "simulate"),
        ("status", traj.status),
        *cause,
        ("seed", seed),
        ("n_theta", cfg["n_theta"]),
        ("n_z", cfg["n_z"]),
        ("n_rho", cfg["n_rho"]),
        ("z_period", cfg["z_period"]),
        ("R", cfg["R"]),
        ("sigma", cfg["sigma"]),
        ("dt", traj.dt),
        ("t_final_requested", cfg["t_final"]),
        ("t_last_valid", t_last),
        ("snapshots", len(traj.times)),
        ("elliptic_residual_max",
         max((r.elliptic_residual for r in traj.reports), default=0.0)),
        ("series", series),
    ])
    if not quiet:
        print(f"wrote {series}")
        print(f"wrote {manifest}")
        print(f"status: {traj.status}, last valid t = {_fmt(t_last)}")
    if traj.error:
        print(f"solver failure: {_cause(traj.error)}", file=sys.stderr)
    return {"pinch_off": EXIT_PINCH, "solver_failure": EXIT_SOLVER}.get(
        traj.status, EXIT_OK)


def cmd_dispersion(cfg, out_dir, seed, quiet):
    from .elliptic import DtnSolver
    from .evolution import measure_dispersion

    rows = measure_dispersion(DtnSolver(_grid(cfg), cfg["n_rho"]), cfg["R"],
                              cfg["sigma"], cfg["dispersion_modes"],
                              cfg["elliptic_tol"])
    path = os.path.join(out_dir, cfg["prefix"] + "_dispersion.csv")
    _write_csv(path, ["m", "k", "omega2_analytic", "omega2_measured",
                      "rel_error"], rows)
    if not quiet:
        print(f"wrote {path}")
        for m, k, a, b, rel in rows:
            print(f"  m={m} k={_fmt(k)}: omega^2 analytic {_fmt(a)} "
                  f"measured {_fmt(b)} rel {_fmt(rel)}")
    return EXIT_OK


def cmd_verify(cfg, out_dir, seed, quiet):
    from .verification import run_battery

    checks = run_battery(_grid(cfg), cfg["n_rho"], seed, cfg["R"], cfg["sigma"],
                         heavy=cfg["heavy"],
                         n_structure_states=cfg["structure_states"])
    path = os.path.join(out_dir, cfg["prefix"] + "_verify.txt")
    with open(path, "w") as fh:
        for c in checks:
            fh.write(c.record() + "\n")
    failed = [c for c in checks if not c.passed]
    if not quiet:
        for c in checks:
            print(c.line())
        print(f"wrote {path}")
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if failed:
        print("failing checks: " + ", ".join(c.name for c in failed),
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_dtn(cfg, out_dir, seed, quiet):
    from .elliptic import DtnSolver

    state = _build_state(cfg)
    solver = DtnSolver(state.grid, cfg["n_rho"])
    bundle = solver.trace_bundle(state.eta, state.psi, cfg["elliptic_tol"])
    grid = state.grid
    th, zz = grid.mesh()
    rows = []
    for i in range(grid.n_theta):
        for j in range(grid.n_z):
            rows.append((th[i, j], zz[i, j], bundle.B.values[i, j],
                         bundle.V_theta.values[i, j], bundle.V_z.values[i, j],
                         bundle.N.values[i, j], bundle.G.values[i, j]))
    path = os.path.join(out_dir, cfg["prefix"] + "_dtn_fields.csv")
    _write_csv(path, ["theta", "z", "B", "V_theta", "V_z", "N", "G"], rows)
    manifest = os.path.join(out_dir, cfg["prefix"] + "_dtn_manifest.txt")
    _write_manifest(manifest, [
        ("command", "dtn"),
        ("iterations", bundle.iterations),
        ("solver_residual", bundle.residual),
        ("kinetic_energy", bundle.kinetic_energy),
        *((name + "_residual", value) for name, value in
          bundle.identity_residuals(state.psi, state.eta).items()),
        ("fields", path),
    ])
    if not quiet:
        print(f"wrote {path}")
        print(f"wrote {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    threads = os.environ.get("JETWAVE_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)

    parser = argparse.ArgumentParser(
        prog="jetwave",
        description="capillary jet simulation and verification toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "dispersion", "verify", "dtn"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to INI config")
        p.add_argument("--out", default="./out", help="output directory")
        p.add_argument("--seed", type=_parse_seed, default=0, help="rng seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:      # a file, or a path under one
        sub.choices[args.command].error(
            f"argument --out: cannot create directory {args.out!r}: "
            f"{exc.strerror}")
    handler = {
        "simulate": cmd_simulate,
        "dispersion": cmd_dispersion,
        "verify": cmd_verify,
        "dtn": cmd_dtn,
    }[args.command]
    try:
        return handler(cfg, args.out, args.seed, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, EllipticityError) as exc:
        # simulate records its own failure; the other subcommands end here
        print(f"solver failure: {_cause(exc)}", file=sys.stderr)
        manifest = f"{cfg['prefix']}_{args.command}_manifest.txt"
        _write_manifest(os.path.join(args.out, manifest), [
            ("command", args.command), ("status", "solver_failure"),
            ("cause", _cause(exc)), ("seed", args.seed)])
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
