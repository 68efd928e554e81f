"""Workload definitions: the steps one pass runs, generated from the
bundled figure configs under ``src/dotspin/configs``.

A step is either one ``dotspin.cli.main(argv)`` call or the library-level
readout Monte Carlo. Every CLI step gets ``--seed <workload seed>`` and
``--threads 1``; configs are written to the run's work directory so the
program reads them exactly as a user's ``--config`` file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("noisy-trials", "noiseless-sweeps", "lattice-stats")

#: noiseless-sweeps divides every bundled trial count by this, keeping at
#: least 2 wherever the bundle has more than 1, so a pass fits several times
#: into one run. The noise model of these runs is all zero, so the outputs
#: do not depend on the trial count.
NOISELESS_TRIAL_DIVISOR = 10

#: Calls of readout.repetitive_nuclear_readout in the lattice-stats pass.
READOUT_MC_CALLS = 20_000

ERROR_BUDGET_TRIALS = 200

#: Workloads whose pass times are rescaled by the speed kernel. Both are
#: interpreter-bound and cache-resident, so their time follows the host's
#: drifting CPU speed as the kernel's does. lattice-stats is not: its time
#: is dominated by sums over arrays of millions of sites (s2, ext1), bound by
#: memory traffic more than by CPU speed. Over four 10-seed sets, rescaling
#: did not narrow its spread and moved its set medians more than raw times.
RESCALED_WORKLOADS = ("noisy-trials", "noiseless-sweeps")


@dataclass(frozen=True)
class Step:
    """One unit of work in a pass.

    kind 'cli' runs ``dotspin.cli.main(argv)`` (``config``, when given, is
    written to ``<cfgdir>/<name>.json`` and passed as ``--config``); kind
    'readout_mc' runs the repetitive-readout Monte Carlo. ``output`` is the
    file name the step leaves in DOTSPIN_OUTDIR; ``meta`` carries what the
    output check needs to know about the inputs.
    """

    name: str
    kind: str
    argv: tuple = ()
    config: dict | None = None
    output: str = ""
    meta: dict = field(default_factory=dict)


def _bundle(root: Path, fig_id: str) -> list:
    data = json.loads((root / "src/dotspin/configs" / f"fig_{fig_id}.json").read_text())
    return data["runs"] if "runs" in data else [data]


def _scaled_trials(trials: int) -> int:
    if trials <= 1:
        return trials
    return max(2, trials // NOISELESS_TRIAL_DIVISOR)


def _config_step(name: str, run: dict, seed: int, cfgdir: Path) -> Step:
    run = dict(run)
    experiment = run.pop("experiment")
    path = cfgdir / f"{name}.json"
    argv = (experiment, "--config", str(path), "--seed", str(seed), "--threads", "1")
    return Step(name, "cli", argv, run, run["out"])


def steps_for(workload: str, seed: int, root: Path, cfgdir: Path) -> list:
    """The ordered steps of one pass of ``workload`` at ``seed``."""
    common = ("--seed", str(seed), "--threads", "1")
    if workload == "noisy-trials":
        gj = _bundle(root, "2gj")
        ce = _bundle(root, "3ce")
        return [
            _config_step("2i_ramsey", gj[1], seed, cfgdir),
            _config_step("2j_hahn", gj[2], seed, cfgdir),
            _config_step("3c_parity_nuclear", ce[0], seed, cfgdir),
            _config_step("3d_parity_electron", ce[1], seed, cfgdir),
            _config_step("3e_tomography", ce[2], seed, cfgdir),
            Step("error_budget", "cli",
                 ("error-budget", "--trials", str(ERROR_BUDGET_TRIALS),
                  "--out", "error_budget.json") + common,
                 output="error_budget.json"),
        ]
    if workload == "noiseless-sweeps":
        steps = []
        for fig_id, names in (("2e", ["2e_chevron"]),
                              ("2f", ["2f_chevron_down", "2f_chevron_up"]),
                              ("2gj", ["2g_rabi"]),
                              ("4b", ["4b_shuttle_phase"]),
                              ("4d", ["4d_shuttle_repeated"]),
                              ("4f", ["4f_shuttle_electron"])):
            for name, run in zip(names, _bundle(root, fig_id)):
                run = dict(run, trials=_scaled_trials(run["trials"]))
                steps.append(_config_step(name, run, seed, cfgdir))
        return steps
    if workload == "lattice-stats":
        return [
            _config_step("ext1_hyperfine", _bundle(root, "ext1")[0], seed, cfgdir),
            _config_step("s2_vanvleck", _bundle(root, "s2")[0], seed, cfgdir),
            # s1-stats is reachable from the command line only through
            # `reproduce`, which reads the bundled config itself.
            Step("s1_stats", "cli", ("reproduce", "s1") + common,
                 output=_bundle(root, "s1")[0]["out"]),
            Step("readout_fidelity", "cli",
                 ("readout-fidelity", "--scan-m", "1..50",
                  "--out", "readout_fidelity.csv") + common,
                 output="readout_fidelity.csv", meta={"m_max": 50}),
            Step("readout_mc", "readout_mc", output="readout_mc.json",
                 meta={"calls": READOUT_MC_CALLS, "seed": seed}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(steps, cfgdir: Path) -> None:
    cfgdir.mkdir(parents=True, exist_ok=True)
    for step in steps:
        if step.config is not None:
            (cfgdir / f"{step.name}.json").write_text(json.dumps(step.config))
