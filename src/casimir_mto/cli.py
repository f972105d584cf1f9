"""Command-line interface: batch runs of the full pipeline.

One binary with subcommands::

    casimir-mto force      --config run.json   # F(z) or dF/dz over a grid
    casimir-mto pressure   --config run.json   # P(z) over a grid
    casimir-mto calibrate  --config run.json   # fit k, V0, R, delta0
    casimir-mto sweep      --config run.json   # synthetic resonance sweep
    casimir-mto limits     --config run.json   # alpha(lambda) exclusion CSV
    casimir-mto materials validate [--config registry.json]

Configuration lives in a JSON document; ``--out`` (every run command),
``--tol`` (force, pressure, sweep) and ``--seed`` (sweep) override the
matching config keys. One command table holds every command's flags and
prints its ``-h``: a flag is read as ``--flag value``, ``--flag=value`` or
a unique prefix such as ``--conf``, and the last of a repeated flag wins.
Unknown config keys are rejected. Every input document (config,
registry, optical table, calibration or bound CSV) is read by
``casimir_mto.inputs`` under one set of rules. Numeric output is
full-precision scientific notation, so identical configs give
byte-identical files.

A command loads only the layers it runs: ``force`` and ``pressure``, for
instance, never import the calibration, sweep or Yukawa modules.

Exit codes: 0 success, 1 I/O failure or out of memory, else the ``exit_code`` of the
package error raised (see ``casimir_mto.errors``): 1 parse (a file that is
not UTF-8 included), 2 domain/validation/configuration/identifiability,
3 convergence or fit failure. Every failure prints one ``error:`` line.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import ConfigurationError, ToolkitError, ValidationError
from .inputs import Cfg, read_json_object, read_table

# A process loads only the layers its command runs. force, pressure and sweep
# all run lifshitz, materials and roughness, imported here; electrostatics,
# oscillator and yukawa are imported inside the handlers that run them.
from .lifshitz import force_sphere_plane, gradient_from_pressure, pressure_plane_plane
from .materials import PerfectConductor, Tabulated, load_registry
from .roughness import RoughnessDistribution, average, load_heightmap, weights_from_heightmaps


def _float_array(spec, where: str) -> np.ndarray:
    """A JSON array of numbers as floats; a boolean or a string is not a number."""
    try:
        if not any(isinstance(v, (bool, str)) for v in np.asarray(spec, dtype=object).flat):
            return np.asarray(spec, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ConfigurationError(f"{where}: expected numbers, got {spec!r}")


# A start/stop/points grid holds at most this many points: far more than a
# run can integrate, and an array NumPy can allocate. A limits run's lambda x z
# points are capped too: alpha_limit takes about 65 ns a point (6.5 s at the cap).
_MAX_GRID_POINTS = 1_000_000
_MAX_LIMIT_POINTS = 100_000_000


def _parse_grid(spec, where: str) -> np.ndarray:
    if isinstance(spec, list):
        grid = _float_array(spec, where)
        if grid.ndim != 1:
            raise ConfigurationError(f"{where}: expected a flat list, got {spec!r}")
    elif isinstance(spec, dict):
        g = Cfg(spec, where)
        start = g.take_float("start")
        stop = g.take_float("stop")
        points = g.take_int("points")
        spacing = g.take("spacing", "linear")
        g.close()
        if not 1 <= points <= _MAX_GRID_POINTS:
            raise ConfigurationError(f"{where}: points must be in [1, {_MAX_GRID_POINTS}]")
        if not (0 < start < math.inf and 0 < stop < math.inf):
            raise ConfigurationError(f"{where}: grid values must be finite and > 0")
        if spacing == "linear":
            grid = np.linspace(start, stop, points)
        elif spacing == "log":
            grid = np.geomspace(start, stop, points)
        else:
            raise ConfigurationError(f"{where}: spacing must be 'linear' or 'log'")
    else:
        raise ConfigurationError(f"{where}: expected a list or start/stop/points object")
    if grid.size == 0:
        raise ConfigurationError(f"{where}: empty grid")
    if not np.all(np.isfinite(grid) & (grid > 0)):
        raise ConfigurationError(f"{where}: grid values must be finite and > 0")
    return grid


def _resolve_materials(spec, where: str):
    m = Cfg(spec, where)
    registry_path = m.take_path("registry", None)
    pair = m.take("pair")
    m.close()
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(name, str) for name in pair)):
        raise ConfigurationError(f"{where}: 'pair' must list two material names")
    models = load_registry(registry_path, pair)
    return models[pair[0]], models[pair[1]]


def _parse_roughness(spec, where: str) -> RoughnessDistribution:
    """The configured distribution; no roughness is the one-entry one."""
    if spec is None:
        return RoughnessDistribution.single()
    r = Cfg(spec, where)
    entries = r.take("entries", None)
    if entries is not None:
        r.close()
        arr = _float_array(entries, where)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigurationError(f"{where}: entries must be [[offset_m, weight], ...]")
        return RoughnessDistribution(arr[:, 0], arr[:, 1])
    map1 = load_heightmap(r.take_path("heightmap1"))
    map2_path = r.take_path("heightmap2", None)
    bins = {"bins": r.take_int("bins")} if "bins" in spec else {}
    r.close()
    map2 = load_heightmap(map2_path) if map2_path else None
    return weights_from_heightmaps(map1, map2, **bins)


def _optional_floats(spec, where: str, keys) -> dict:
    """The numbers of the optional config object ``spec`` under ``keys``, by
    key; absent keys are left out, so their defaults live with the callee."""
    doc = {} if spec is None else spec
    c = Cfg(doc, where)
    values = {key: c.take_float(key) for key in keys if key in doc}
    c.close()
    return values


def _write_csv(path: str, header: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17e}" for x in row) + "\n")


def _config(args) -> Cfg:
    """The command's config document with its ``--out``, ``--seed`` and
    ``--tol`` overrides applied; errors name ``<command> config``."""
    if args.config is None:
        raise ConfigurationError("this command needs --config PATH")
    doc = read_json_object(args.config)
    for key in ("out", "seed", "tol"):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    return Cfg(doc, f"{args.command} config")


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ConfigurationError("seed must be an unsigned 64-bit integer")
    return seed


_COLUMNS = {"force": "f_n", "gradient": "dfdz_n_per_m", "pressure": "p_n_per_m2"}


def cmd_grid(args) -> int:
    """``force`` (F or dF/dz) and ``pressure`` over a separation grid.

    Each row holds the plain value and its error estimate, plus the
    roughness average when a distribution is configured. The plain values
    are one stacked Lifshitz call over the grid, the averages one more over
    every row's roughness entries (``roughness.average``). The gradient is
    2 pi R |P| of the plain or averaged pressure.
    """
    cfg = _config(args)
    m1, m2 = _resolve_materials(cfg.take("materials"), "materials")
    if args.command == "force":
        radius = cfg.take_float("radius_m")
        quantity = cfg.take("quantity", "force")
    else:
        radius, quantity = None, "pressure"
    grid = _parse_grid(cfg.take("z_grid_m"), "z_grid_m")
    tol = cfg.take_float("tol", 1e-6)
    rough_spec = cfg.take("roughness", None)
    dist = _parse_roughness(rough_spec, "roughness")
    out = cfg.take_path("out")
    cfg.close()
    if args.command == "force" and quantity not in ("force", "gradient"):
        raise ConfigurationError("quantity must be 'force' or 'gradient'")

    def integral(z):
        if quantity == "force":
            return force_sphere_plane(z, radius, m1, m2, tol=tol)
        return pressure_plane_plane(z, m1, m2, tol=tol)

    def column(r):
        return gradient_from_pressure(r, radius) if quantity == "gradient" else r

    # The average first: it checks every shifted separation before any integral.
    rough = [] if rough_spec is None else [column(average(integral, grid, dist)).value]
    nominal = column(integral(grid))
    col = _COLUMNS[quantity]
    header = ["z_m", col, "est_rel_error"] + [f"{col}_rough"] * len(rough)
    _write_csv(out, header, zip(grid, nominal.value, nominal.est_rel_error, *rough))
    print(f"wrote {grid.size} rows to {out}")
    return 0


def _load_calibration_csv(path) -> np.ndarray:
    """The checked (n, 3) calibration rows of ``path``; errors name the file line."""
    from .electrostatics import calibration_rows

    return calibration_rows(*read_table(path, ("z_metal_m", "v_applied_v", "delta_c_f")))


# The fit's start (k, V0, R, delta0) where initial_guess is silent; V0 by estimate_v0.
_INITIAL_GUESS = {"k_n_per_f": 5e4, "v0_v": None, "radius_m": 3e-4, "delta0_m": 3e-8}


def cmd_calibrate(args) -> int:
    from .electrostatics import calibrate, estimate_v0

    cfg = _config(args)
    data_path = cfg.take_path("data")
    guess_spec = cfg.take("initial_guess", None)
    out = cfg.take_path("out", None)
    cfg.close()

    samples = _load_calibration_csv(data_path)
    guess = {**_INITIAL_GUESS, **_optional_floats(guess_spec, "initial_guess", _INITIAL_GUESS)}
    if guess["v0_v"] is None:
        guess["v0_v"] = estimate_v0(samples)

    fit = calibrate(samples, tuple(guess.values()))
    sig = fit.uncertainties()
    report = {
        "k_n_per_f": fit.k,
        "k_sigma": float(sig[0]),
        "v0_v": fit.v0,
        "v0_sigma": float(sig[1]),
        "radius_m": fit.radius,
        "radius_sigma": float(sig[2]),
        "delta0_m": fit.delta0,
        "delta0_sigma": float(sig[3]),
        "residual_rms_n": fit.residual_rms,
        "n_samples": len(samples),
    }
    for key, val in report.items():
        print(f"{key}: {val:.10e}" if isinstance(val, float) else f"{key}: {val}")
    if out:
        payload = {**report, "covariance": fit.covariance.tolist()}
        Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


# Config keys of the optional sweep objects; defaults live in measured_params
# and SweepNoise, whose arguments they are.
_OSCILLATOR_KEYS = ("kappa_nm_per_rad", "inertia_kg_m2", "coupling_per_kg", "f0_hz")
_NOISE_KEYS = ("freq_noise_rms_hz", "separation_noise_rms_m")


def cmd_sweep(args) -> int:
    from .oscillator import (
        SweepConfig,
        SweepNoise,
        invert_sweep,
        measured_params,
        simulate_sweep,
    )

    cfg = _config(args)
    m1, m2 = _resolve_materials(cfg.take("materials"), "materials")
    radius = cfg.take_float("radius_m")
    grid = _parse_grid(cfg.take("z_grid_m"), "z_grid_m")
    osc_spec = cfg.take("oscillator", None)
    noise_spec = cfg.take("noise", None)
    integration = cfg.take_float("integration_time_s", 10.0)
    dist = _parse_roughness(cfg.take("roughness", None), "roughness")
    seed = _check_seed(cfg.take_int("seed", 0))
    tol = cfg.take_float("tol", 1e-6)
    out = cfg.take_path("out")
    cfg.close()

    params = measured_params(**_optional_floats(osc_spec, "oscillator", _OSCILLATOR_KEYS))
    noise = SweepNoise(**_optional_floats(noise_spec, "noise", _NOISE_KEYS))

    sweep_cfg = SweepConfig(
        z_grid=grid, integration_time_s=integration, noise=noise, tol=tol
    )
    points = simulate_sweep(sweep_cfg, params, radius, m1, m2, dist, seed)
    # Invert first: a point outside the linear domain must leave no file.
    gradients = invert_sweep(points, params)

    _write_csv(
        out,
        ["z_m", "f_hz", "sigma_hz"],
        [(p.z, p.omega_r / (2 * math.pi), p.sigma_omega / (2 * math.pi)) for p in points],
    )
    grad_out = str(Path(out).with_suffix("")) + "_gradients.csv"
    _write_csv(grad_out, ["z_m", "dfdz_n_per_m"], gradients)
    print(f"wrote {out} and {grad_out} [seed {seed}]")
    return 0


def _parse_body(spec, where: str, default: LayeredBody) -> LayeredBody:
    from .yukawa import Layer, LayeredBody

    if spec is None:
        return default
    b = Cfg(spec, where)
    core = b.take_float("core_density_kg_m3")
    layer_rows = b.take("layers", [])
    radius = b.take_float("radius_m", None)
    b.close()
    rows = _float_array(layer_rows, where)
    if rows.shape != (0,) and (rows.ndim != 2 or rows.shape[1] != 2):
        raise ConfigurationError(f"{where}: layers must be [[thickness_m, density_kg_m3], ...]")
    layers = tuple(Layer(t, rho) for t, rho in rows.reshape(-1, 2).tolist())
    if default.shape == "sphere":
        if radius is None:
            raise ConfigurationError(f"{where}: sphere needs radius_m")
        return LayeredBody.sphere(radius, core, layers)
    if radius is not None:
        raise ConfigurationError(f"{where}: half-space takes no radius_m")
    return LayeredBody.half_space(core, layers)


def _interp_bound_file(path, z_grid: np.ndarray) -> np.ndarray:
    """Residual bounds on ``z_grid`` from a 'z_m,bound_n' CSV that covers it."""
    table, _ = read_table(path, ("z_m", "bound_n"))
    if not np.all(np.isfinite(table)):
        raise ConfigurationError(f"{path}: z_m and bound_n must be finite")
    z = table[:, 0]
    if np.any(np.diff(z) <= 0):
        raise ConfigurationError(f"{path}: z_m must be strictly increasing")
    if z_grid.min() < z[0] or z_grid.max() > z[-1]:
        raise ConfigurationError(
            f"{path}: bounds cover [{z[0]:.3e}, {z[-1]:.3e}] m but z_grid_m "
            f"spans [{z_grid.min():.3e}, {z_grid.max():.3e}] m"
        )
    return np.interp(z_grid, z, table[:, 1])


def cmd_limits(args) -> int:
    from .yukawa import alpha_limit, reference_plate, reference_sphere

    cfg = _config(args)
    lam_grid = _parse_grid(cfg.take("lambda_grid_m"), "lambda_grid_m")
    z_grid = _parse_grid(cfg.take("z_grid_m"), "z_grid_m")
    if lam_grid.size * z_grid.size > _MAX_LIMIT_POINTS:
        raise ConfigurationError(f"lambda_grid_m x z_grid_m: {lam_grid.size} x {z_grid.size} "
                                 f"points, over the cap of {_MAX_LIMIT_POINTS}")
    sphere = _parse_body(cfg.take("sphere", None), "sphere", reference_sphere())
    plate = _parse_body(cfg.take("plate", None), "plate", reference_plate())
    bound_spec = cfg.take("residual_bound")
    out = cfg.take_path("out")
    cfg.close()

    b = Cfg(bound_spec, "residual_bound")
    const = b.take_float("constant_n", None)
    bound_file = b.take_path("file", None)
    b.close()
    if (const is None) == (bound_file is None):
        raise ConfigurationError(
            "residual_bound needs exactly one of 'constant_n' or 'file'"
        )
    if const is not None:
        bounds = np.full(z_grid.size, const)
    else:
        bounds = _interp_bound_file(bound_file, z_grid)

    limits = alpha_limit(bounds, lam_grid, sphere, plate, z_grid)
    _write_csv(out, ["lambda_m", "alpha_limit"], zip(lam_grid, limits))
    print(f"wrote {lam_grid.size} rows to {out}")
    return 0


def cmd_materials_validate(args) -> int:
    registry = load_registry(args.config)
    failures = 0
    for name, model in sorted(registry.items()):
        try:
            if isinstance(model, PerfectConductor):
                print(f"{name}: ok (perfect conductor)")
                continue
            probe = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
            eps = model.eps(probe)
            if np.any(eps < 1.0):
                raise ValidationError("eps(i xi) dipped below 1")
            if np.any(np.diff(eps) > 0):
                raise ValidationError("eps(i xi) is not non-increasing")
            detail = f"eps(0.1 eV) = {eps[1]:.6g}"
            if isinstance(model, Tabulated):
                detail += f", splice mismatch {model.splice_mismatch():.2e}"
            print(f"{name}: ok ({detail})")
        except ToolkitError as exc:
            failures += 1
            print(f"{name}: FAIL ({exc})")
    if failures:
        raise ValidationError(f"{failures} material(s) failed validation")
    print(f"{len(registry)} material(s) valid")
    return 0


# The command table, read by _parse and _help alike: each command's handler and
# flags, flag -> (type, help); an action (type None) prints and exits.
_RUN = {"--config": (str, "JSON run configuration"),
        "--out": (str, "output path (overrides config)")}
_TOL = {"--tol": (float, "quadrature tolerance (overrides config)")}
_COMMANDS = {
    "force": (cmd_grid, {**_RUN, **_TOL}),
    "pressure": (cmd_grid, {**_RUN, **_TOL}),
    "calibrate": (cmd_calibrate, _RUN),
    "sweep": (cmd_sweep, {**_RUN, "--seed": (int, "RNG seed, unsigned 64-bit (overrides config)"),
                          **_TOL}),
    "limits": (cmd_limits, _RUN),
    "materials validate": (cmd_materials_validate,
                           {"--config": (str, "registry path (default: bundled registry)")}),
}
_HELP = {"--help": (None, "show this help message and exit")}
_VERSION = {"--version": (None, "show program's version number and exit")}  # top level only


def _help(prog: str, flags: dict, subs: list[str]) -> str:
    rows = [(("-h, " if f == "--help" else "") + f + (f" {f[2:].upper()}" if kind else ""), text)
            for f, (kind, text) in flags.items()]
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([
        " ".join(["usage:", prog, *(f"[{left.split(', ')[0]}]" for left, _ in rows),
                  *([f"{{{','.join(subs)}}} ..."] if subs else [])]),
        "", "options:", *(f"  {left:<{width}}{text}" for left, text in rows)])


def _parse(argv: list[str]):
    """The handler of ``argv``'s command and a namespace of its flag values; a
    usage error is a ConfigurationError that names the command."""
    words, rest = [], list(argv)
    values = dict.fromkeys(f[2:] for _, flags in _COMMANDS.values() for f in flags)
    while (name := " ".join(words)) not in _COMMANDS or rest:
        prog = " ".join(["casimir-mto", *words])
        flags = {**_HELP, **_COMMANDS.get(name, (None, _VERSION if not words else {}))[1]}
        subs = [k.split()[len(words)] for k in _COMMANDS if k.startswith(name) and k != name]
        if (tok := rest.pop(0) if rest else "") in subs:
            words.append(tok)
            continue
        opt, eq, value = ("--help" if tok == "-h" else tok).partition("=")
        hits = [opt] if opt in flags else [f for f in flags if len(opt) > 2 and f.startswith(opt)]
        if len(hits) != 1:
            raise ConfigurationError(f"{prog}: " + (
                f"ambiguous option: {opt} could match {', '.join(hits)}" if hits
                else f"unrecognized argument: {tok}" if tok[:1] == "-" or not subs
                else f"expected a command: {', '.join(subs)}"))
        flag, kind = hits[0], flags[hits[0]][0]
        if kind is None:
            print(__version__ if flag == "--version" else _help(prog, flags, subs))
            raise SystemExit(0)
        # The next argument is the value unless it is a flag ("-" and -1.5 are values).
        if not eq and (not rest or rest[0][:1] == "-" and rest[0][1:2] not in "0123456789."):
            raise ConfigurationError(f"{prog}: argument {flag}: expected one argument")
        value = value if eq else rest.pop(0)
        try:
            values[flag[2:]] = kind(value)
        except ValueError:
            raise ConfigurationError(
                f"{prog}: argument {flag}: invalid {kind.__name__} value: {value!r}") from None
    return _COMMANDS[name][0], SimpleNamespace(command=words[0], **values)


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (ToolkitError, OSError, MemoryError) as exc:
        # A bare MemoryError() has no message; name it then.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
