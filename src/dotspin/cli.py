"""Batch command-line front-end.

Runs the simulation experiments from declarative JSON configs, writes CSV
(tables) or JSON (any result, under a provenance block), and bundles one
config per reproduced figure under `dotspin/configs/`.

Exit codes: 0 success, 1 config/validation or file error, 2 numerical failure
or usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import typing
from importlib import resources

import numpy as np

from .core import NoiseModel, SpinSystemParams, check_rwa, rng_for, transition_frequencies
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
)
from . import fitting, hyperfine, vanvleck
from .readout import NuclearReadoutConfig, _best_shots, fidelity_curve
from .sequences import BELL_NMR_RABI, DEFAULT_NMR_RABI, bell_circuit, nmr_line

FIGURE_IDS = ("2e", "2f", "2gj", "3ce", "4b", "4d", "4f", "ext1", "s1", "s2")


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


@dataclasses.dataclass(frozen=True)
class _Domain:
    """A number key's type, int or float, and the values it may take: above 0
    when positive, in the closed range [lo, hi], and at most cap, the most a
    run may ask for without running out of time or memory."""
    kind: type
    lo: float = -math.inf
    hi: float = math.inf
    positive: bool = False
    cap: float = math.inf

    def check(self, value, where: str) -> None:
        if self.positive and value <= 0:
            raise ConfigError(f"{where}: must be positive, got {value!r}")
        if not self.lo <= value <= self.hi:
            bound = (f">= {self.lo!r}" if self.hi == math.inf
                     else f"within [{self.lo!r}, {self.hi!r}]")
            raise ConfigError(f"{where}: must be {bound}, got {value!r}")
        if value > self.cap:
            raise ConfigError(f"{where}: must be <= {self.cap!r}, got {value!r}")


#: Domains that keys share. Both ends of a sweep are checked, even when it has
#: one point; the standoffs' range keeps the lattice sums finite and positive.
_POINTS, _PROBABILITY = _Domain(int, lo=1), _Domain(float, lo=0, hi=1)
_ABOVE_0, _AT_LEAST_0 = _Domain(float, positive=True), _Domain(float, lo=0)
_STANDOFF = _Domain(float, lo=vanvleck.AL_LATTICE_CONSTANT / 2, hi=100.0, positive=True)

_FREE_PRECESSION_SCHEMA = {
    "params": SpinSystemParams, "noise": NoiseModel,
    "tau_start": _AT_LEAST_0, "tau_stop": _AT_LEAST_0, "tau_points": _POINTS,
    "detuning_khz": float, "charge_config": _CHARGE_CONFIG,
}

#: experiment -> {key: expected}. expected is a type; a _Domain; a tuple of
#: the allowed values, the CLI default first; or a config dataclass, whose
#: fields the section may set and which is built to check their values.
_SCHEMAS = {
    "spectrum": {"params": SpinSystemParams},
    "chevron": {
        "params": SpinSystemParams, "noise": NoiseModel,
        "freq_start": float, "freq_stop": float, "freq_points": _POINTS,
        "dur_start": _ABOVE_0, "dur_stop": _ABOVE_0, "dur_points": _POINTS,
        "rabi": _AT_LEAST_0, "charge_config": _CHARGE_CONFIG, "electron_spin": _SPIN,
    },
    "rabi": {
        "params": SpinSystemParams, "noise": NoiseModel,
        "frequency": float, "dur_start": _ABOVE_0, "dur_stop": _ABOVE_0,
        "dur_points": _POINTS, "rabi": _AT_LEAST_0, "charge_config": _CHARGE_CONFIG,
        "electron_spin": _SPIN,
    },
    "ramsey": _FREE_PRECESSION_SCHEMA,
    "hahn": _FREE_PRECESSION_SCHEMA,
    "bell": {
        "params": SpinSystemParams, "bell_noise": BellNoiseConfig,
        "mode": ("tomography", "parity"), "vary": ("nuclear", "electron"),
        "phi_start": float, "phi_stop": float, "phi_points": _POINTS,
        "initial_nuclear": _SPIN,
    },
    "error-budget": {"params": SpinSystemParams, "bell_noise": BellNoiseConfig},
    "shuttle": {
        "params": SpinSystemParams, "noise": NoiseModel,
        "variant": tuple(_SHUTTLE_SWEEPS), "sweep_start": float,
        "sweep_stop": float, "sweep_points": _POINTS, "tau_0": _ABOVE_0,
        "p_err": _PROBABILITY, "p_transfer": _PROBABILITY,
    },
    # the scan sets m_shots to each M up to m_max, at a cost that grows as M^3
    "readout-fidelity": {"t_shot_ms": float, "t1_n_hours": float, "f_e_avg": float,
                         "m_max": _Domain(int, positive=True, cap=200)},
    "hyperfine-mc": {
        "diameter_start": _ABOVE_0, "diameter_stop": _ABOVE_0,
        "diameter_points": _POINTS, "thresholds": list, "ppm": float,
        "draws": _Domain(int, lo=hyperfine.MIN_DRAWS),
        "f_z": _Domain(float, lo=0.1, hi=1e4, positive=True),  # as the standoffs
    },
    "vanvleck": {
        "standoff_start": _STANDOFF, "standoff_stop": _STANDOFF,
        "standoff_points": _POINTS, "thickness": float, "lateral": list,
    },
    "fit": {"model": ("ramsey", "hahn", "sinusoid", "coherence_decay"),
            "input": str, "x_column": str, "y_column": str},
    # the histogram's 8 kHz bins span about 2 (|a1| + |a2|) + 9 sigma; the
    # bounds give a1, sigma and n_scans 10x to 30x headroom over fig_s1.json's
    "s1-stats": {
        "t1_a1_hours": _ABOVE_0, "t1_a2_minutes": _ABOVE_0, "scan_interval_s": _ABOVE_0,
        "a1": _Domain(float, lo=-1e4, hi=1e4), "a2": _Domain(float, lo=-1e4, hi=1e4),
        "sigma": _Domain(float, lo=0, cap=1e3),
        "n_scans": _Domain(int, lo=fitting.MIN_SPECTRUM_SAMPLES, cap=40_000),
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
    apart from the contents of the fit.input file, which only the run reads.
    --dry-run makes the same check."""
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
        domain = expected if isinstance(expected, _Domain) else None
        if domain is not None:  # a _Domain instance is a dataclass too
            expected = domain.kind
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
        if domain is not None:
            domain.check(value, where)


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


#: The most cells a vanvleck or hyperfine-mc lattice may span along an axis:
#: s2's gate spans 740 x 246 x 123; hyperfine-mc's envelope is 64 MB at 1000.
MAX_CELLS_PER_AXIS = 1000


def _check_top_level(config: dict, experiment: str) -> None:
    """The checks of a run's top-level values beyond their types and domains."""
    if experiment in ("chevron", "rabi"):
        _library_check(f"{experiment}.rabi", check_rwa, _build_params(config), "NMR",
                       config.get("rabi", DEFAULT_NMR_RABI))
    elif experiment in ("bell", "error-budget"):
        # the run's circuits at their longest pulses: error-budget turns the
        # pulse-length error on in one step, even where bell_noise turns it off
        noise = BellNoiseConfig(**config.get("bell_noise", {})).only("pulse_calibration")
        params, where = _build_params(config), f"{experiment}.params"
        with np.errstate(divide="ignore", over="ignore"):  # an infinite pulse is refused
            _library_check(where, bell_circuit, params,
                           duration_scale=max(1.0, noise.duration_scale()))
        _library_check(where, check_rwa, params, "NMR", BELL_NMR_RABI)
    elif experiment == "readout-fidelity":
        settings = {k: v for k, v in config.items() if k != "m_max"}
        _library_check(experiment, NuclearReadoutConfig, **settings)
    elif experiment == "hyperfine-mc":
        if "ppm" in config:
            _library_check(experiment, hyperfine.check_ppm, config["ppm"])
        f_z = config.get("f_z", hyperfine.DEFAULT_F_Z)
        for key in ("diameter_start", "diameter_stop"):
            if key in config:  # the defaults fit
                width = hyperfine.default_region(config[key], f_z)[0]
                _check_cells(f"hyperfine-mc.{key}", config[key],
                             np.rint(width / hyperfine.SI_LATTICE_CONSTANT))
    elif experiment == "fit":
        for key in ("model", "input"):
            if key not in config:
                raise ConfigError(f"fit.{key}: missing (give --{key} or set it)")
    elif experiment == "shuttle":
        _check_shuttle_sweep(config)
    elif experiment == "vanvleck":
        # the lattice sum counts floor(size / a) cells per axis; with none, M2 = 0
        lateral = config.get("lateral", [])
        if "lateral" in config and len(lateral) != 2:
            raise ConfigError(f"vanvleck.lateral: expected two entries, got {lateral!r}")
        a = vanvleck.AL_LATTICE_CONSTANT
        sizes = {"thickness": config.get("thickness", a),
                 **{f"lateral[{i}]": v for i, v in enumerate(lateral)}}
        for key, size in sizes.items():
            if size / a < 1:
                raise ConfigError(f"vanvleck.{key}: must be >= one Al lattice constant "
                                  f"({a} nm), got {size!r}")
            _check_cells(f"vanvleck.{key}", size, np.floor(size / a))


def _check_cells(path: str, value, cells) -> None:
    """Refuse a value whose lattice spans more than MAX_CELLS_PER_AXIS cells."""
    if cells > MAX_CELLS_PER_AXIS:
        raise ConfigError(f"{path}: its lattice would span {cells:.4g} cells along an "
                          f"axis, more than {MAX_CELLS_PER_AXIS}, got {value!r}")


def _check_shuttle_sweep(config: dict) -> None:
    """Refuse a shuttle sweep endpoint that the variant's sequence builder
    refuses: a t_load outside [0, tau_0] ('phase'), or a cycle count below 0
    after the run rounds it ('repeated'); and one above 100,000, 1,000 times
    fig_4d.json's, as the run applies the cycles one by one."""
    variant = config.get("variant", "phase")
    tau_0 = config.get("tau_0", DEFAULT_SHUTTLE_TAU_0)
    start, stop, _ = _SHUTTLE_SWEEPS[variant]
    for key, default in (("sweep_start", start), ("sweep_stop", stop)):
        value = config.get(key, default)
        if variant == "phase" and not 0 <= value <= tau_0:
            raise ConfigError(f"shuttle.{key}: t_load must be within "
                              f"[0, tau_0 = {tau_0!r}], got {value!r}")
        if variant == "repeated" and not 0 <= np.round(value) <= 100_000:
            bound = ">= 0" if np.round(value) < 0 else "<= 100000"
            raise ConfigError(f"shuttle.{key}: k_cycles must be {bound} after "
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
    centre = nmr_line(params, **_given(config, "charge_config", "electron_spin"))
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
        # sorted distinct ints; np.unique would import numpy.ma to check for a mask
        sweep = np.array(sorted(set(np.round(sweep).astype(int).tolist())), dtype=int)
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
    table["m_opt"] = np.full(len(rows), float(_best_shots(rows)))
    return table


def _run_hyperfine(config, trials, seed):
    diameters = _linspace(config, "diameter", 3.0, 15.0, 13)
    return hyperfine.probability_curves(
        diameters, config.get("thresholds", [100.0, 200.0, 500.0]),
        **_given(config, "ppm", "draws", "f_z"),
    )


def _run_vanvleck(config, trials, seed):
    standoffs = _linspace(config, "standoff", 2.0, 20.0, 10)
    return vanvleck.standoff_sweep(standoffs, **_given(config, "thickness", "lateral"))


def _run_fit(config, trials, seed):
    path = config["input"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ConfigError(f"fit.input: no data rows in {path}")
    names = list(rows[0])
    if len(names) < 2 and not config.get("y_column"):
        raise ConfigError(f"fit.input: {path} has one column; a fit needs x and y")
    x, y = (_fit_column(rows, key, config.get(key) or names[i], path)
            for i, key in enumerate(("x_column", "y_column")))
    # looked up at call time, so a replaced fitting.fit_<model> runs
    return dataclasses.asdict(getattr(fitting, f"fit_{config['model']}")(x, y))


def _fit_column(rows: list, key: str, name: str, path: str) -> np.ndarray:
    """The column name of a fit.input file's rows as numbers, refused by key
    path when the file lacks it or a row holds no finite number there."""
    if name not in rows[0]:
        raise ConfigError(f"fit.{key}: no column {name!r} in {path}")
    values = []
    for i, row in enumerate(rows, start=1):
        try:
            values.append(float(row[name]))
        except (TypeError, ValueError):  # a short row gives None
            values.append(np.nan)
        if not np.isfinite(values[-1]):
            raise ConfigError(f"fit.input: {path} data row {i}: expected a finite "
                              f"number in column {name!r}, got {row[name]!r}")
    return np.array(values)


def _run_s1_stats(config, trials, seed):
    """Synthetic centre-frequency telegraph record: two nuclei flipping at
    their characteristic lifetimes, then the full fit/classify pipeline."""
    rng = rng_for(seed)
    a1 = config.get("a1", 503.0)
    a2 = config.get("a2", 119.0)
    sigma = abs(config.get("sigma", 34.0))  # the normal draws refuse -0.0
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


def _write_table(table, out, fmt: str, meta: dict, seed, trials) -> None:
    """Write a run's result: a table (named equal-length columns, or an
    ExperimentResult) as CSV, or any result as the JSON payload
    {"provenance": provenance_block(meta, seed, trials), "result": ...}."""
    if isinstance(table, ExperimentResult):
        table = table.columns
    if fmt == "csv":
        return write_csv(table, out)
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


def write_csv(columns: dict, out) -> None:
    """Write named equal-length columns as CSV to the path out, or to stdout
    for "-", in one write: a header row (through the csv module, as a name
    may need quoting), then one row per index with each value as
    repr(float(v)), which holds nothing to quote. Each value distinct to the
    bit in its column (-0.0 beside 0.0 is two) is formatted once. Rows end
    in CRLF in a file, as the csv module writes them, and in LF on stdout.
    Columns of unequal length are refused before anything is written."""
    cols = [np.asarray(col, dtype=float) for col in columns.values()]
    for name, col in zip(columns, cols):
        if len(col) != len(cols[0]):
            raise ValueError(f"write_csv: column {name!r} has {len(col)} values, "
                             f"{next(iter(columns))!r} has {len(cols[0])}")
    end = "\n" if out == "-" else "\r\n"
    head, texts = io.StringIO(), []
    csv.writer(head, lineterminator=end).writerow(columns)
    for col in cols:  # np.unique without return_inverse would import numpy.ma
        bits, index = np.unique(col.view(np.uint64), return_inverse=True)
        texts.append(np.array([repr(v) for v in bits.view(float).tolist()], object)[index].tolist())
    text = head.getvalue() + "".join(row + end for row in map(",".join, zip(*texts)))
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)


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


#: The commands, every experiment but s1-stats (a config's experiment key names
#: it) and reproduce; and the command-specific arguments, with the commands that
#: read each. main refuses any other use, and reproduce requires its figure.
_COMMANDS = (*(name for name in _RUNNERS if name != "s1-stats"), "reproduce")
_READ_BY = {"figure": ("reproduce",), "--scan-m": ("readout-fidelity",),
            "--model": ("fit",), "--input": ("fit",), "--config": _COMMANDS[:-1]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotspin", usage="%(prog)s <command> [<figure>] [options]",
        description="Quantum-dot-coupled nuclear spin qubit simulation suite",
    )
    read_by = {arg: "read by " + ", ".join(cmds) for arg, cmds in _READ_BY.items()}
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("figure", nargs="?", choices=FIGURE_IDS, help=read_by["figure"])
    parser.add_argument("--config", help=read_by["--config"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--scan-m", metavar="[1..]HI", help=read_by["--scan-m"])
    parser.add_argument("--model", help=read_by["--model"])
    parser.add_argument("--input", help=read_by["--input"])
    return parser


#: The parser main uses, built on its first call and kept for the process:
#: parsing leaves a parser unchanged, and building one costs milliseconds.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_intermixed_args(argv)
    for arg, commands in _READ_BY.items():
        if (getattr(args, arg.lstrip("-").replace("-", "_")) is not None
                and args.command not in commands):
            _parser().error(f"argument {arg}: not read by {args.command}")
    if args.command == "reproduce" and args.figure is None:
        _parser().error("argument figure: reproduce requires it")
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
    config: dict = {}
    if args.command == "reproduce":
        # the figure's choices are the bundled files' ids
        ref = resources.files("dotspin.configs").joinpath(f"fig_{args.figure}.json")
        bundle = json.loads(ref.read_text())
        return _run_all(bundle.get("runs", [bundle]), args)
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}:{exc.lineno}: {exc.msg}")
    config.setdefault("experiment", args.command)
    if args.model is not None:
        config["model"] = args.model
    if args.input is not None:
        config["input"] = args.input
    if args.scan_m is not None:
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


def _writes_record(experiment: str, run: dict) -> bool:
    """Whether the run's result is a record (nested values, not a table of
    equal-length columns), which has no CSV form."""
    if experiment == "bell":
        return run.get("mode", "tomography") == "tomography"
    return experiment in ("spectrum", "error-budget", "fit", "s1-stats")


def _run_all(runs, args) -> int:
    """Check every run, then print their plans (--dry-run) or run them: a call
    that a check refuses writes nothing."""
    # the trials of a sweep point already run as one batch; no run uses threads
    if args.threads != 1:
        raise ConfigError(f"--threads: only 1 is supported, got {args.threads}")
    if args.out not in (None, "-") and len(runs) > 1:
        raise ConfigError(f"--out: {len(runs)} runs would write one file")
    plans = []
    for run in runs:
        run = dict(run)
        experiment = run.pop("experiment", args.command)
        out = run.pop("out", None)
        fmt = run.pop("format", None)
        if fmt not in (None, "csv", "json"):
            raise ConfigError(f"{experiment}.format: expected one of 'csv', "
                              f"'json', got {fmt!r}")
        trials = _count(run, experiment, "trials", args.trials, 1)
        seed = _count(run, experiment, "seed", args.seed, 0)
        validate_config(run, experiment)
        out = args.out or out or "-"
        if out != "-" and not os.path.isabs(out):
            out = os.path.join(os.environ.get("DOTSPIN_OUTDIR", "."), out)
        if out != "-" and not os.path.isdir(os.path.dirname(out) or "."):
            raise FileNotFoundError(f"{out}: no directory {os.path.dirname(out)}")
        fmt = args.fmt or fmt or (
            "json" if experiment == "bell" or _writes_record(experiment, run)
            else "csv"
        )
        if fmt == "csv" and _writes_record(experiment, run):
            name = "--format" if args.fmt else f"{experiment}.format"
            raise ConfigError(f"{name}: {experiment} writes a record, which has "
                              f"no CSV form; use json")
        if experiment == "fit":  # the run's refusal of an input it cannot open
            open(run["input"]).close()
        plans.append((experiment, run, trials, seed, out, fmt))
    for experiment, run, trials, seed, out, fmt in plans:
        if args.dry_run:
            plan = {"experiment": experiment, "config": run, "trials": trials,
                    "seed": seed, "out": out, "format": fmt}
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
