"""Batch command-line front-end.

Runs the simulation experiments from declarative JSON configs, writes CSV
(sweeps) or JSON (scalar results with a provenance block), and bundles one
config per reproduced figure under `dotspin/configs/`.

Exit codes: 0 success, 1 config/validation or file error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import typing
from importlib import resources

import numpy as np

from .core import NoiseModel, SpinSystemParams, rng_for, transition_frequencies
from .experiments import (
    DEFAULT_SHUTTLE_TAU_0,
    BellNoiseConfig,
    ExperimentResult,
    compute_error_budget,
    provenance_block,
    run_bell_parity_sweep,
    run_bell_tomography,
    run_hahn,
    run_nmr_chevron,
    run_rabi,
    run_ramsey,
    run_shuttle_experiments,
    write_csv,
)
from . import fitting, hyperfine, vanvleck
from .readout import NuclearReadoutConfig, fidelity_curve, optimize_shots

FIGURE_IDS = ("2e", "2f", "2gj", "3ce", "4b", "4d", "4f", "ext1", "s1", "s2")

SUBCOMMANDS = (
    "spectrum", "chevron", "rabi", "ramsey", "hahn", "bell", "error-budget",
    "shuttle", "readout-fidelity", "hyperfine-mc", "vanvleck", "fit",
    "reproduce",
)


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending key path."""


# --------------------------------------------------------------------------
# Config validation


def _fields_schema(cls) -> dict:
    """Field name -> type of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


_SHUTTLE_SWEEPS = {"phase": (0.0, 20.0, 41), "repeated": (0.0, 100.0, 11),
                   "electron": (0.0, 360.0, 19)}

_CHARGE_CONFIG = ("unloaded", "qd1")
_SPIN = ("down", "up")

_FREE_PRECESSION_SCHEMA = {
    "params": SpinSystemParams, "noise": NoiseModel,
    "tau_start": float, "tau_stop": float, "tau_points": int,
    "detuning_khz": float, "charge_config": _CHARGE_CONFIG,
}

#: experiment -> {key: expected}. expected is a type; a tuple of the allowed
#: values, the CLI default first; or a config dataclass, whose fields the
#: section may set and which is built to check their values.
_SCHEMAS = {
    "spectrum": {"params": SpinSystemParams},
    "chevron": {
        "params": SpinSystemParams, "noise": NoiseModel,
        "freq_start": float, "freq_stop": float, "freq_points": int,
        "dur_start": float, "dur_stop": float, "dur_points": int,
        "rabi": float, "charge_config": _CHARGE_CONFIG, "electron_spin": _SPIN,
    },
    "rabi": {
        "params": SpinSystemParams, "noise": NoiseModel,
        "frequency": float, "dur_start": float, "dur_stop": float,
        "dur_points": int, "rabi": float, "charge_config": _CHARGE_CONFIG,
        "electron_spin": _SPIN,
    },
    "ramsey": _FREE_PRECESSION_SCHEMA,
    "hahn": _FREE_PRECESSION_SCHEMA,
    "bell": {
        "params": SpinSystemParams, "bell_noise": BellNoiseConfig,
        "mode": ("tomography", "parity"), "vary": ("nuclear", "electron"),
        "phi_start": float, "phi_stop": float, "phi_points": int,
        "initial_nuclear": _SPIN,
    },
    "error-budget": {"params": SpinSystemParams, "bell_noise": BellNoiseConfig},
    "shuttle": {
        "params": SpinSystemParams, "noise": NoiseModel,
        "variant": tuple(_SHUTTLE_SWEEPS), "sweep_start": float,
        "sweep_stop": float, "sweep_points": int, "tau_0": float,
        "p_err": float, "p_transfer": float,
    },
    "readout-fidelity": {**_fields_schema(NuclearReadoutConfig), "m_max": int},
    "hyperfine-mc": {
        "diameter_start": float, "diameter_stop": float, "diameter_points": int,
        "thresholds": list, "ppm": float, "draws": int, "f_z": float,
    },
    "vanvleck": {
        "standoff_start": float, "standoff_stop": float, "standoff_points": int,
        "thickness": float, "lateral": list,
    },
    "fit": {"model": ("ramsey", "hahn", "sinusoid", "coherence_decay"),
            "input": str, "x_column": str, "y_column": str},
    "s1-stats": {
        "t1_a1_hours": float, "t1_a2_minutes": float, "a1": float, "a2": float,
        "sigma": float, "n_scans": int, "scan_interval_s": float,
    },
}


#: Keys that only some values of a choice key read: experiment -> (choice
#: key, {key: the choice values that read it}).
_CHOICE_READS = {
    "bell": ("mode", {
        key: ("parity",) for key in ("vary", "phi_start", "phi_stop", "phi_points")
    }),
    "shuttle": ("variant", {
        "tau_0": ("phase", "repeated"), "p_err": ("phase", "repeated"),
        "p_transfer": ("electron",),
    }),
    "chevron": ("charge_config", {"electron_spin": ("qd1",)}),
    "rabi": ("charge_config", {"electron_spin": ("qd1",)}),
}


def validate_config(config: dict, experiment: str) -> None:
    """Refuse, naming its key path, any config value that the run refuses,
    apart from the library refusals that only the run reaches (README,
    "Command line"). --dry-run makes the same check."""
    if experiment not in _SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = _SCHEMAS[experiment]
    _validate_section(config, schema, experiment)
    if experiment in _CHOICE_READS:
        choice, reads = _CHOICE_READS[experiment]
        value = config.get(choice, schema[choice][0])
        for key in config:
            if key in reads and value not in reads[key]:
                raise ConfigError(f"{experiment}.{key}: not read when "
                                  f"{experiment}.{choice} is {value!r}")
    _check_top_level(config, experiment)


def _validate_section(section: dict, schema: dict, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key")
        expected, where = schema[key], f"{path}.{key}"
        if isinstance(expected, tuple):
            if value not in expected:
                raise ConfigError(
                    f"{where}: expected one of {', '.join(map(repr, expected))}, "
                    f"got {value!r}"
                )
        elif dataclasses.is_dataclass(expected):
            _validate_section(value, _fields_schema(expected), where)
            _library_check(where, expected, **value)
        elif expected is list:
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{where}: expected a non-empty list of numbers")
            for i, item in enumerate(value):
                _check_number(item, f"{where}[{i}]")
        elif expected is float:
            _check_number(value, where)
        # JSON true/false are Python bools, and bool is a subclass of int
        elif not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            raise ConfigError(f"{where}: expected {expected.__name__}")


def _check_number(value, path: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number")
    # Python's json parser accepts NaN and +-Infinity
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _library_check(path: str, check, *args, **kwargs) -> None:
    """Call check, refusing its ValueError as `<path>: <message>`."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_top_level(config: dict, experiment: str) -> None:
    """The checks of a run's top-level values beyond their types."""
    for key, value in config.items():
        if key.endswith("_points") and value < 1:
            raise ConfigError(f"{experiment}.{key}: must be >= 1, got {value!r}")
    if experiment == "readout-fidelity":
        settings = {k: v for k, v in config.items() if k != "m_max"}
        _library_check(experiment, NuclearReadoutConfig, **settings)
    elif experiment == "hyperfine-mc":
        if "ppm" in config:
            _library_check(experiment, hyperfine.check_ppm, config["ppm"])
        # both sweep endpoints, even when diameter_points is 1
        for key in ("diameter_start", "diameter_stop", "f_z"):
            if config.get(key, 1.0) <= 0:
                raise ConfigError(f"hyperfine-mc.{key}: must be positive, got {config[key]!r}")
        least = hyperfine.MIN_DRAWS
        if config.get("draws", least) < least:
            raise ConfigError(
                f"hyperfine-mc.draws: must be >= {least}, got {config['draws']!r}"
            )
    elif experiment == "fit":
        for key in ("model", "input"):
            if key not in config:
                raise ConfigError(f"fit.{key}: missing (give --{key} or set it)")
    elif experiment == "shuttle":
        _check_shuttle_sweep(config)
    elif experiment == "s1-stats":
        for key in ("t1_a1_hours", "t1_a2_minutes", "scan_interval_s"):
            if config.get(key, 1.0) <= 0:
                raise ConfigError(f"s1-stats.{key}: must be positive, got {config[key]!r}")
        if config.get("sigma", 0.0) < 0:
            raise ConfigError(f"s1-stats.sigma: must be >= 0, got {config['sigma']!r}")
        least = fitting.MIN_SPECTRUM_SAMPLES
        if config.get("n_scans", least) < least:
            raise ConfigError(
                f"s1-stats.n_scans: must be >= {least}, got {config['n_scans']!r}"
            )


def _check_shuttle_sweep(config: dict) -> None:
    """Refuse a shuttle sweep endpoint that the variant's sequence builder
    refuses: a t_load outside [0, tau_0] ('phase'), or a cycle count below 0
    after the run rounds it ('repeated'). A tau_0 <= 0 is left to the run,
    which refuses it first."""
    variant = config.get("variant", "phase")
    tau_0 = config.get("tau_0", DEFAULT_SHUTTLE_TAU_0)
    start, stop, _ = _SHUTTLE_SWEEPS[variant]
    for key, default in (("sweep_start", start), ("sweep_stop", stop)):
        value = config.get(key, default)
        if variant == "phase" and tau_0 > 0 and not 0 <= value <= tau_0:
            raise ConfigError(f"shuttle.{key}: t_load must be within "
                              f"[0, tau_0 = {tau_0!r}], got {value!r}")
        if variant == "repeated" and np.round(value) < 0:
            raise ConfigError(f"shuttle.{key}: k_cycles must be >= 0 after "
                              f"rounding, got {value!r}")


def _count(run: dict, experiment: str, key: str, flag, least: int) -> int:
    """Pop trials or seed from a run's config; a --trials or --seed flag wins.
    The value must be an int >= least, which is also the default."""
    value, name = run.pop(key, least), f"{experiment}.{key}"
    if flag is not None:
        value, name = flag, f"--{key}"
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected int, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


def _build_params(config: dict) -> SpinSystemParams:
    return SpinSystemParams(**config.get("params", {}))


def _build_noise(config: dict) -> NoiseModel:
    return NoiseModel(**config.get("noise", {}))


def _given(config: dict, *names) -> dict:
    """The keyword arguments among names that the config sets; the library
    defaults apply to the rest."""
    return {name: config[name] for name in names if name in config}


def _linspace(config, prefix, default_start, default_stop, default_points):
    return np.linspace(
        config.get(f"{prefix}_start", default_start),
        config.get(f"{prefix}_stop", default_stop),
        int(config.get(f"{prefix}_points", default_points)),
    )


# --------------------------------------------------------------------------
# Experiment dispatch


def _run_spectrum(config, trials, seed):
    params = _build_params(config)
    return {"transition_frequencies_mhz": transition_frequencies(params)}


def _run_chevron(config, trials, seed):
    params = _build_params(config)
    f = transition_frequencies(params)
    centre = f["f_n_elec_down"] if config.get("charge_config") == "qd1" else f["f_n0"]
    freqs = _linspace(config, "freq", centre - 0.01, centre + 0.01, 21)
    durs = _linspace(config, "dur", 25.0, 1000.0, 21)
    return run_nmr_chevron(
        freqs, durs, params, noise=_build_noise(config), trials=trials,
        seed=seed, **_given(config, "rabi", "charge_config", "electron_spin"),
    )


def _run_rabi(config, trials, seed):
    durs = _linspace(config, "dur", 25.0, 2000.0, 41)
    return run_rabi(
        durs, _build_params(config), noise=_build_noise(config), trials=trials,
        seed=seed,
        **_given(config, "frequency", "rabi", "charge_config", "electron_spin"),
    )


def _run_free_precession(run_experiment, tau_stop, config, trials, seed):
    """run_ramsey or run_hahn over taus from 10 us to tau_stop by default."""
    taus = _linspace(config, "tau", 10.0, tau_stop, 40)
    return run_experiment(
        taus, params=_build_params(config), noise=_build_noise(config),
        trials=trials, seed=seed,
        **_given(config, "detuning_khz", "charge_config"),
    )


def _run_bell(config, trials, seed):
    params = _build_params(config)
    bell_noise = BellNoiseConfig(**config.get("bell_noise", {}))
    if config.get("mode") == "parity":
        phis = _linspace(config, "phi", 0.0, 360.0, 19)
        return run_bell_parity_sweep(
            params, bell_noise, phi_range=phis, trials=trials, seed=seed,
            **_given(config, "vary", "initial_nuclear"),
        )
    res = run_bell_tomography(
        params, bell_noise, trials=trials, seed=seed,
        **_given(config, "initial_nuclear"),
    )
    return {
        "fidelity": res.fidelity,
        "components": res.components,
        "probabilities": {k: list(v) for k, v in res.probabilities.items()},
        "calibration": {k: list(np.atleast_1d(v)) for k, v in
                        res.calibration.items()},
    }


def _run_error_budget(config, trials, seed):
    budget = compute_error_budget(
        _build_params(config), BellNoiseConfig(**config.get("bell_noise", {})),
        trials=trials, seed=seed,
    )
    return dataclasses.asdict(budget)


def _run_shuttle(config, trials, seed):
    variant = config.get("variant", "phase")
    sweep = _linspace(config, "sweep", *_SHUTTLE_SWEEPS[variant])
    if variant == "repeated":
        sweep = np.unique(np.round(sweep).astype(int))
    return run_shuttle_experiments(
        variant, sweep, params=_build_params(config),
        noise=_build_noise(config), trials=trials, seed=seed,
        **_given(config, "tau_0", "p_err", "p_transfer"),
    )


def _run_readout_fidelity(config, trials, seed):
    config = dict(config)
    m_max = config.pop("m_max", 50)
    cfg = NuclearReadoutConfig(**config)
    rows = fidelity_curve(cfg, m_max)
    table = dict(zip(("m", "f_t1", "f_shot", "f_n"), np.array(rows, dtype=float).T))
    table["m_opt"] = np.full(len(rows), float(optimize_shots(cfg, m_max)))
    return table


def _run_hyperfine(config, trials, seed):
    diameters = _linspace(config, "diameter", 3.0, 15.0, 13)
    return hyperfine.probability_curves(
        diameters, config.get("thresholds", [100.0, 200.0, 500.0]), seed=seed,
        **_given(config, "ppm", "draws", "f_z"),
    )


def _run_vanvleck(config, trials, seed):
    standoffs = _linspace(config, "standoff", 2.0, 20.0, 10)
    return vanvleck.standoff_sweep(standoffs, **_given(config, "thickness", "lateral"))


def _run_fit(config, trials, seed):
    import csv as _csv

    path = config["input"]
    with open(path) as fh:
        rows = list(_csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"fit.input: no data rows in {path}")
    x_col = config.get("x_column") or list(rows[0])[0]
    y_col = config.get("y_column") or list(rows[0])[1]
    x = np.array([float(r[x_col]) for r in rows])
    y = np.array([float(r[y_col]) for r in rows])
    # looked up at call time, so a replaced fitting.fit_<model> runs
    res = getattr(fitting, f"fit_{config['model']}")(x, y)
    return {
        "model": res.model,
        "parameters": res.parameters,
        "uncertainties": res.uncertainties,
        "residual_norm": res.residual_norm,
        "converged": res.converged,
        "flags": res.flags,
    }


def _run_s1_stats(config, trials, seed):
    """Synthetic centre-frequency telegraph record: two nuclei flipping at
    their characteristic lifetimes, then the full fit/classify pipeline."""
    rng = rng_for(seed)
    a1 = config.get("a1", 503.0)
    a2 = config.get("a2", 119.0)
    sigma = config.get("sigma", 34.0)
    dt = config.get("scan_interval_s", 40.0)
    n = config.get("n_scans", 4000)
    p1 = 1.0 - np.exp(-dt / (config.get("t1_a1_hours", 1.0) * 3600.0))
    p2 = 1.0 - np.exp(-dt / (config.get("t1_a2_minutes", 10.0) * 60.0))
    s1 = np.cumsum(rng.random(n) < p1) % 2
    s2 = np.cumsum(rng.random(n) < p2) % 2
    # spectrum peaks sit at +-a1 +-a2, so a flip of either nucleus moves the
    # centre frequency by twice its peak-position amplitude
    centres = (2 * s1 - 1) * a1 + (2 * s2 - 1) * a2
    observed = centres + rng.normal(0.0, sigma / 4, n)
    hist_fit = fitting.fit_esr_histogram(
        centres + rng.normal(0.0, sigma, n), bin_width=8.0
    )
    events = fitting.classify_shifts(
        observed, 2 * hist_fit.parameters["a1"], 2 * hist_fit.parameters["a2"],
        hist_fit.parameters["sigma"], times=np.arange(n) * dt,
    )
    out = {"histogram_fit": {
        "a1": hist_fit.parameters["a1"], "a2": hist_fit.parameters["a2"],
        "sigma": hist_fit.parameters["sigma"],
    }}
    for label, scale, unit in (("A1", 3600.0, "hours"), ("A2", 60.0, "minutes")):
        iv = events["intervals"][label]
        if len(iv) >= 10:
            t1 = fitting.fit_flip_intervals(iv)
            out[f"t1_{label.lower()}_{unit}"] = t1.parameters["t1"] / scale
    return out


_RUNNERS = {
    "spectrum": _run_spectrum,
    "chevron": _run_chevron,
    "rabi": _run_rabi,
    # looked up at call time, so a replaced cli.run_ramsey / run_hahn runs
    "ramsey": lambda *args: _run_free_precession(run_ramsey, 15000.0, *args),
    "hahn": lambda *args: _run_free_precession(run_hahn, 25000.0, *args),
    "bell": _run_bell,
    "error-budget": _run_error_budget,
    "shuttle": _run_shuttle,
    "readout-fidelity": _run_readout_fidelity,
    "hyperfine-mc": _run_hyperfine,
    "vanvleck": _run_vanvleck,
    "fit": _run_fit,
    "s1-stats": _run_s1_stats,
}


# --------------------------------------------------------------------------
# Output


def _write_table(table: dict, out, fmt: str, meta: dict, seed, trials) -> None:
    columns = table.columns if isinstance(table, ExperimentResult) else table
    if fmt == "csv" and all(
        isinstance(v, (np.ndarray, list)) for v in columns.values()
    ):
        return _write_csv(columns, out)
    if isinstance(table, ExperimentResult):
        text = table.to_json()
    else:
        payload = {
            "result": _jsonable(table),
            "provenance": provenance_block(meta, seed, trials),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    if out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_csv(columns: dict, out) -> None:
    """CSV rows end in CRLF in a file and in LF on stdout."""
    if out != "-":
        with open(out, "w", newline="") as fh:
            write_csv(columns, fh)
        return
    buf = io.StringIO(newline=None)
    write_csv(columns, buf)
    sys.stdout.write(buf.getvalue())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# --------------------------------------------------------------------------
# Entry point


def _load_bundled_config(figure_id: str) -> dict:
    name = f"fig_{figure_id}.json"
    ref = resources.files("dotspin.configs").joinpath(name)
    if not ref.is_file():
        raise ConfigError(f"no bundled config for figure {figure_id!r}")
    return json.loads(ref.read_text())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotspin",
        description="Quantum-dot-coupled nuclear spin qubit simulation suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        if name == "reproduce":
            p.add_argument("figure", choices=FIGURE_IDS)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--dry-run", action="store_true")
        if name == "readout-fidelity":
            p.add_argument("--scan-m", default=None, metavar="[1..]HI")
        if name == "fit":
            p.add_argument("--model", default=None)
            p.add_argument("--input", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    command = args.command
    config: dict = {}
    if command == "reproduce":
        bundle = _load_bundled_config(args.figure)
        runs = bundle["runs"] if "runs" in bundle else [bundle]
        return _run_all(runs, args)
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}:{exc.lineno}: {exc.msg}")
    config.setdefault("experiment", command)
    if getattr(args, "model", None):
        config["model"] = args.model
    if getattr(args, "input", None):
        config["input"] = args.input
    if getattr(args, "scan_m", None) is not None:
        config["m_max"] = _scan_m_max(args.scan_m)
    return _run_all([config], args)


def _scan_m_max(spec: str) -> int:
    """HI of a `--scan-m [1..]HI` spec; the scan always starts at M = 1."""
    lo, sep, hi = spec.partition("..")
    try:
        lo, hi = (int(lo), int(hi)) if sep else (1, int(lo))
    except ValueError:
        raise ConfigError(f"--scan-m: expected [1..]HI, got {spec!r}") from None
    if lo != 1 or hi < 1:
        raise ConfigError(f"--scan-m: the scan runs over M = 1..HI with HI >= 1, got {spec!r}")
    return hi


def _run_all(runs, args) -> int:
    for i, run in enumerate(runs):
        run = dict(run)
        experiment = run.pop("experiment", args.command)
        out = run.pop("out", None)
        fmt = run.pop("format", None)
        trials = _count(run, experiment, "trials", args.trials, 1)
        seed = _count(run, experiment, "seed", args.seed, 0)
        if args.threads < 1:
            raise ConfigError("threads must be >= 1")
        validate_config(run, experiment)
        out = args.out or out or "-"
        if out != "-" and not os.path.isabs(out):
            out = os.path.join(os.environ.get("DOTSPIN_OUTDIR", "."), out)
        fmt = args.fmt or fmt or (
            "json" if experiment in
            ("spectrum", "bell", "error-budget", "fit", "s1-stats") else "csv"
        )
        if args.dry_run:
            plan = {"experiment": experiment, "config": run, "trials": trials,
                    "seed": seed, "out": out, "format": fmt,
                    "threads": args.threads}
            print(json.dumps(_jsonable(plan), indent=2, sort_keys=True))
            continue
        try:
            result = _RUNNERS[experiment](run, trials, seed)
        except (ConfigError, np.linalg.LinAlgError):
            raise  # named already / a numerical failure (exit 2)
        except ValueError as exc:  # a library refusal names its argument
            raise ConfigError(f"{experiment}: {exc}") from None
        _write_table(result, out, fmt, {"experiment": experiment, **run},
                     seed, trials)
    return 0


if __name__ == "__main__":
    sys.exit(main())
