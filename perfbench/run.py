"""dotspin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/dotspin).
Each pass of a workload runs in a fresh interpreter (perfbench/child.py)
that imports dotspin once and calls ``dotspin.cli.main`` for each step, as
``dotspin reproduce`` does for a user. Passes repeat until S seconds have
been measured (at least MIN_PASSES); the outputs of every pass are checked.

--trace 0 prints the end-to-end metrics (medians over passes); --trace 1
runs one untraced and one traced pass and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
holds the provenance and the per-pass samples. Work files go to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
#: setup_s is the median of at least this many interpreter starts; set-up
#: only probes top up the passes' own samples.
MIN_SETUP_SAMPLES = 5
#: Import profiles taken by the traced run (median per module).
IMPORT_PROFILES = 3
#: No pass starts after this many seconds, and every child is killed at
#: HARD_LIMIT_S, so a run ends well inside three minutes.
LAST_PASS_START_S = 100.0
HARD_LIMIT_S = 170.0
#: Time of child.speed_kernel at the reference speed (its median on the
#: 2-CPU machine where the baseline was recorded). Set-up times, and pass
#: times of workloads.RESCALED_WORKLOADS, are rescaled to it, removing the
#: drift of the machine's CPU speed.
KERNEL_REF_S = 0.12
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Run:
    """One benchmark invocation: work directory, child processes, checks."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.t_start = time.monotonic()
        self.workdir = root / ".perfbench" / f"run-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.steps = workloads.steps_for(workload, seed, root, self.workdir / "configs")
        workloads.write_configs(self.steps, self.workdir / "configs")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (
            os.pathsep + pythonpath if pythonpath else ""))
        self.passes: list = []
        self.probes = 0
        self.src_sha256 = src_digest(root)

    def elapsed(self) -> float:
        return time.monotonic() - self.t_start

    def _child(self, name: str, spec: dict) -> dict | None:
        """Run child.py on ``spec``; its result, or None if it failed."""
        pass_dir = self.workdir / name
        pass_dir.mkdir(exist_ok=True)
        spec_path, result_path = pass_dir / "spec.json", pass_dir / "result.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(self.env)
        with open(pass_dir / "log.txt", "w") as log:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                    stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.root,
                    timeout=max(1.0, HARD_LIMIT_S - self.elapsed()),
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result_path.is_file():
            return None
        return json.loads(result_path.read_text())

    def setup_probe(self) -> dict | None:
        self.probes += 1
        return self._child(f"setup-{self.probes}", {"setup_only": True})

    def run_pass(self, trace: bool) -> dict:
        pass_id = len(self.passes)
        pass_dir = self.workdir / f"pass-{pass_id}"
        outdir = pass_dir / "out"
        outdir.mkdir(parents=True)
        spec = {
            "steps": [asdict(s) for s in self.steps],
            "outdir": str(outdir),
            "trace": trace,
            "pass_id": pass_id,
            "spans_path": str(pass_dir / "spans.json"),
        }
        record = {"id": pass_id, "outdir": outdir, "spans_path": pass_dir / "spans.json",
                  "result": self._child(pass_dir.name, spec)}
        self.passes.append(record)
        return record

    def check(self) -> tuple:
        """(attempted, failed, problems) over every pass's steps."""
        import checks

        cache = self.root / ".perfbench" / "cache" / f"site-counts-{self.src_sha256[:16]}.json"
        ctx = checks.CheckContext(self.seed, cache_path=cache)
        attempted = failed = 0
        problems = []
        for rec in self.passes:
            res = rec["result"]
            status = {s["name"]: s for s in res["steps"]} if res else {}
            for step in self.steps:
                attempted += 1
                st = status.get(step.name)
                if st is None:
                    found = ["pass process failed"]
                elif st["rc"] != 0:
                    found = [f"returned {st['rc']!r}" + (f": {st['error'].splitlines()[-1]}"
                                                         if st["error"] else "")]
                else:
                    found = checks.check_step(step, rec["outdir"], ctx)
                if found:
                    failed += 1
                    problems += [f"pass {rec['id']} {step.name}: {p}" for p in found]
        return attempted, failed, problems

    def out_bytes(self, rec) -> int:
        return sum((rec["outdir"] / s.output).stat().st_size for s in self.steps
                   if s.kind == "cli" and (rec["outdir"] / s.output).is_file())

    def import_profile(self) -> dict:
        samples: dict = {}
        for _ in range(IMPORT_PROFILES):
            try:
                proc = subprocess.run(
                    [sys.executable, "-X", "importtime", "-c", "import dotspin.cli"],
                    capture_output=True, text=True, env=self.env, cwd=self.root,
                    timeout=max(1.0, HARD_LIMIT_S - self.elapsed()),
                )
            except subprocess.TimeoutExpired:
                break
            for module, s in spans.parse_importtime(proc.stderr).items():
                samples.setdefault(module, []).append(s)
        return {m: statistics.median(v) for m, v in samples.items()}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def src_digest(root: Path) -> str:
    """SHA-256 over the paths and contents of the source tree."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(run: Run) -> dict:
    import numpy
    import scipy

    sha = None
    if (run.root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.root,
                                  capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": sha,
        "src_sha256": run.src_sha256,
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def rescaled_pass(result: dict, rescale: bool) -> tuple:
    """(wall_s, cpu_s) of a pass's steps, at the reference speed when
    ``rescale``: scaled by KERNEL_REF_S over the median of the speed-kernel
    samples taken before the first step and after every step."""
    scale = KERNEL_REF_S / statistics.median(result["kernels"]) if rescale else 1.0
    return (scale * sum(st["wall_s"] for st in result["steps"]),
            scale * sum(st["cpu_s"] for st in result["steps"]))


def rescaled_setup(result: dict) -> float:
    return result["setup_s"] * KERNEL_REF_S / result["setup_kernel_s"]


def timed_run(run: Run, seconds: float) -> tuple:
    run.setup_probe()  # unmeasured: compiles bytecode and warms the file cache
    t0 = time.monotonic()
    while len(run.passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        if run.elapsed() > LAST_PASS_START_S:
            break
        run.run_pass(trace=False)
    ok = [p["result"] for p in run.passes if p["result"]]
    if not ok:
        raise RuntimeError("no pass completed; see the logs under " + str(run.workdir))
    setups = list(ok)
    while len(setups) < MIN_SETUP_SAMPLES and run.elapsed() < LAST_PASS_START_S:
        probe = run.setup_probe()
        if probe is not None:
            setups.append(probe)
    attempted, failed, problems = run.check()
    rescaled = [rescaled_pass(r, run.workload in workloads.RESCALED_WORKLOADS) for r in ok]
    samples = {
        "wall_s": [w for w, _ in rescaled],
        "cpu_s": [c for _, c in rescaled],
        "setup_s": [rescaled_setup(r) for r in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "raw_wall_s": [sum(st["wall_s"] for st in r["steps"]) for r in ok],
        "raw_cpu_s": [sum(st["cpu_s"] for st in r["steps"]) for r in ok],
        "raw_setup_s": [r["setup_s"] for r in setups],
        "kernel_s": [r["kernels"] for r in ok],
    }
    metrics = {k: _metric(statistics.median(samples[k]), u) for k, u in
               (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))}
    metrics["ok_frac"] = _metric((attempted - failed) / attempted, "ratio")
    return attempted, failed, problems, metrics, samples


def traced_run(run: Run) -> tuple:
    run.setup_probe()
    base = run.run_pass(trace=False)["result"]
    traced = run.run_pass(trace=True)
    if base is None or traced["result"] is None:
        raise RuntimeError("a pass failed; see the logs under " + str(run.workdir))
    trace = json.loads(traced["spans_path"].read_text())
    traces = run.root / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(traced["spans_path"], traces / f"{run.workload}-seed{run.seed}.json")
    rescale = run.workload in workloads.RESCALED_WORKLOADS
    wall_base = rescaled_pass(base, rescale)[0]
    wall_traced = rescaled_pass(traced["result"], rescale)[0]
    per_layer = spans.per_layer_metrics(trace, run.out_bytes(traced),
                                        run.import_profile(), wall_traced / wall_base)
    attempted, failed, problems = run.check()
    metrics = {k: _metric(v, u) for k, (v, u) in per_layer.items()}
    samples = {"wall_s_untraced": wall_base, "wall_s_traced": wall_traced}
    return attempted, failed, problems, metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dotspin" / "__init__.py").is_file():
        print(f"error: {root} holds no src/dotspin; run from the root of a dotspin checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "src"))  # the checks call into dotspin

    run = Run(root, args.workload, args.seed)
    try:
        if args.trace:
            attempted, failed, problems, metrics, samples = traced_run(run)
        else:
            attempted, failed, problems, metrics, samples = timed_run(run, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = len(run.passes)
    if failed:
        print(f"outputs and logs kept in {run.workdir}", file=sys.stderr)
    else:
        run.close()
    info = {"provenance": provenance(run), "passes": passes,
            "samples": samples, "problems": problems[:50]}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(info, metrics=metrics, attempted=attempted, failed=failed), indent=2))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
