"""One pass of a workload in a fresh interpreter.

    python perfbench/child.py SPEC.json RESULT.json

The parent stores ``time.monotonic()`` in PERFBENCH_SPAWN just before it
starts this process; setup_s runs from then until ``import dotspin.cli`` is
done (CLOCK_MONOTONIC is shared by all processes on Linux). The pass then
calls ``dotspin.cli.main(argv)`` for each step in order and writes per-step
wall and CPU times, return codes, speed-kernel samples and, when traced,
the spans to RESULT.json.
"""

import os
import sys
import time

import dotspin.cli

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def speed_kernel() -> float:
    """Seconds taken by a fixed piece of work shaped like the workloads:
    4x4 complex propagators and density-matrix updates through numpy's small
    array calls, interpreter-bound object handling, and array arithmetic.
    It uses no dotspin code, so a change to the program cannot change it,
    and it allocates little, so it adds at most a few MB to the peak RSS."""
    import numpy as np

    t0 = time.perf_counter()
    h = np.arange(16.0).reshape(4, 4) * (1 + 0.5j)
    h = h + h.conj().T
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    for k in range(600):
        w, v = np.linalg.eigh(h * (1.0 + 1e-3 * k))
        u = (v * np.exp(-2j * np.pi * w * 0.01)) @ v.conj().T
        rho = u @ rho @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        rho = rho / np.trace(rho).real
        record = ("p", np.real(np.diag(rho)).clip(0.0), float(np.min(np.linalg.eigvalsh(rho))))
        rho = np.kron(np.eye(2), rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)) / 2
    for _ in range(12):
        table = {}
        for i in range(5_000):
            table[(record[0], i)] = i * i % 7
    x = np.arange(1.0, 20_001.0)
    for _ in range(100):
        float(np.sum((1.0 - 3.0 * np.cos(x) ** 2) / x**3))
    return time.perf_counter() - t0


def run_readout_mc(step: dict) -> int:
    """Repetitive nuclear readout at the default M, alternating the true
    state; writes the count of correctly reported states."""
    import numpy as np
    from dotspin import readout

    calls = step["meta"]["calls"]
    config = readout.NuclearReadoutConfig()
    rng = np.random.default_rng(step["meta"]["seed"])
    correct = 0
    for i in range(calls):
        nuclear_up = i % 2 == 0
        result = readout.repetitive_nuclear_readout(nuclear_up, config, rng)
        correct += result["reported"] == nuclear_up
    out = os.path.join(os.environ["DOTSPIN_OUTDIR"], step["output"])
    with open(out, "w") as fh:
        json.dump({"calls": calls, "correct": int(correct), "m_shots": config.m_shots}, fh)
    return 0


def run_step(step: dict):
    if step["kind"] == "readout_mc":
        return run_readout_mc(step)
    # looked up at call time so that a traced pass sees the wrapped main
    return dotspin.cli.main(list(step["argv"]))


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    setup_s = SETUP_DONE - float(os.environ["PERFBENCH_SPAWN"])
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"setup_s": setup_s, "setup_kernel_s": speed_kernel()}
    if spec.get("setup_only"):
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return 0

    os.environ["DOTSPIN_OUTDIR"] = spec["outdir"]
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["pass_id"])
        tracer.install()

    # A speed-kernel sample before the first step and after every step, all
    # outside the timed intervals, lets the parent rescale each step to a
    # fixed machine speed.
    steps = []
    kernels = [result["setup_kernel_s"]]
    for step in spec["steps"]:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        ts = time.perf_counter()
        error = None
        try:
            rc = run_step(step)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
        except Exception:  # a failing step is counted, the pass goes on
            rc, error = None, traceback.format_exc()
        wall = time.perf_counter() - ts
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        steps.append({"name": step["name"], "rc": rc, "error": error, "wall_s": wall,
                      "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)})
        kernels.append(speed_kernel())
    if tracer is not None:
        tracer.uninstall()
        with open(spec["spans_path"], "w") as fh:
            json.dump(tracer.export(), fh)

    result.update(
        steps=steps,
        kernels=kernels,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB on Linux
    )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
