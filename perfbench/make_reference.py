"""Regenerate perfbench/reference.json, the high-trial expectations the
noisy-trials output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the noisy-trials Bell steps through ``dotspin.cli.main`` with
REFERENCE_TRIALS trials at REFERENCE_SEED (a seed the benchmark's own runs
are not expected to use) and stores their outputs. The calibration phases,
the baseline fidelity and the noise-free error-budget entries are
deterministic; the rest carry the reference's trial count, which the checks
fold into their tolerance. Takes about two minutes on a 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 1_000_003
REFERENCE_TRIALS = {
    "3c_parity_nuclear": 2000,
    "3d_parity_electron": 2000,
    "3e_tomography": 4000,
    "error_budget": 2000,
}


def main() -> int:
    import dotspin.cli

    root = HERE.parent
    reference = {"seed": REFERENCE_SEED}
    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        tmp = Path(tmp)
        steps = workloads.steps_for("noisy-trials", REFERENCE_SEED, root, tmp)
        workloads.write_configs(steps, tmp)
        os.environ["DOTSPIN_OUTDIR"] = str(tmp)
        for step in steps:
            trials = REFERENCE_TRIALS.get(step.name)
            if trials is None:
                continue
            rc = dotspin.cli.main(list(step.argv) + ["--trials", str(trials)])
            if rc != 0:
                print(f"{step.name}: exit {rc}", file=sys.stderr)
                return 1
            out = checks.read_output(tmp / step.output)
            if step.output.endswith(".csv"):
                entry = {k: v.tolist() for k, v in out.items() if not k.endswith("_stderr")}
            elif step.name == "3e_tomography":
                entry = {k: out["result"][k] for k in ("calibration", "probabilities")}
            else:
                entry = dict(out["result"])
            reference[step.name] = dict(entry, trials=trials)
            print(f"{step.name}: {trials} trials", file=sys.stderr)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
