"""Tests of the benchmark itself: span arithmetic, output checks, seeding.

    python3 -m pytest perfbench/tests
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans
import workloads
from conftest import BENCH

ROOT = BENCH.parent


# --------------------------------------------------------------------------
# span arithmetic


def _trace(rows, attrs=None):
    """rows: (name, start, end, parent)."""
    names, start, end, parent = (list(c) for c in zip(*rows))
    return {"names": names, "start": start, "end": end, "parent": parent,
            "attrs": attrs or {}}


def test_self_times_subtract_direct_children_only():
    # 0 [0,10] has children 1 [1,4] and 2 [5,9]; 2 has child 3 [6,8]
    t = _trace([("cli.main", 0, 10, -1), ("experiments.run", 1, 4, 0),
                ("experiments.run", 5, 9, 0), ("engine.run_sequence", 6, 8, 2)])
    assert spans.self_times(t["start"], t["end"], t["parent"]) == [3, 3, 2, 2]


def test_self_times_merge_overlapping_and_clip_children():
    # children overlap each other and run past the parent's end
    assert spans.self_times([0, 1, 2, 8], [10, 5, 4, 12], [-1, 0, 0, 0]) == [4, 4, 2, 4]


def test_summary_busy_counts_outermost_spans_once():
    # a builder constructs its sequence: one layer, nested names
    t = _trace([("experiments.run", 0, 10, -1), ("sequences.build", 1, 3, 0),
                ("sequences.init", 2, 3, 1), ("sequences.init", 4, 5, 0),
                ("engine.run_sequence", 6, 9, 0), ("core.unitary", 7, 8, 4)],
               attrs={"elements": [[4, 5]], "key": [[4, 0]]})
    s = spans.SpanSummary(t)
    assert s.calls["sequences.init"] == 2
    assert s.layer_busy["sequences"] == 3  # [1,3] + [4,5]; [2,3] is inside [1,3]
    assert s.layer_self["sequences"] == 3
    assert s.layer_self["experiments"] == 10 - 2 - 1 - 3
    assert s.layer_self["engine"] == 2
    m = spans.per_layer_metrics(t, out_bytes=7, import_s={"core": 0.5}, overhead_ratio=1.1)
    assert m["sequences.build.calls"] == (2, "count")
    assert m["engine.us_per_element"] == (3 / 5 * 1e6, "us")
    assert m["engine.distinct_ratio"] == (1.0, "ratio")
    assert m["hyperfine.ns_per_site"] == (0.0, "ns")
    assert m["import.core_s"] == (0.5, "s") and m["import.cli_s"] == (0.0, "s")


def test_parse_importtime_attributes_nested_dotspin_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        10 |        110 |     dotspin.core",
        "import time:        50 |         50 |         scipy.stats",
        "import time:         5 |         55 |       dotspin.readout",
        "import time:         7 |         62 |     dotspin.experiments",
        "import time:         3 |        175 |   dotspin",
        "import time:         4 |        179 | dotspin.cli",
    ])
    got = spans.parse_importtime(text)
    assert got == pytest.approx({"core": 110e-6, "readout": 55e-6,
                                 "experiments": 7e-6, "cli": 7e-6})


def test_tracer_wraps_and_restores():
    from dotspin import engine, experiments

    orig = (experiments.run_sequence, engine.unitary)
    tracer = spans.Tracer()
    tracer.install()
    try:
        from dotspin.core import SpinSystemParams
        from dotspin.sequences import ramsey_sequence

        params = SpinSystemParams()
        experiments.run_sequence(experiments.ramsey_sequence(params, 10.0), params)
        experiments.run_sequence(ramsey_sequence(params, 10.0), params)
    finally:
        tracer.uninstall()
    assert (experiments.run_sequence, engine.unitary) == orig
    s = spans.SpanSummary(tracer.export())
    assert s.calls["engine.run_sequence"] == 2
    assert s.calls["core.unitary"] == 2
    assert s.calls["sequences.build"] == 1
    assert s.calls["sequences.init"] == 2
    assert len(set(s.attr_values("key"))) == 1  # the same sequence twice


# --------------------------------------------------------------------------
# output checks: real outputs pass, perturbed outputs fail

#: Trial counts (or sizes) small enough for a test, per step.
SMALL = {
    "2i_ramsey": {"trials": 100}, "2j_hahn": {"trials": 20},
    "3c_parity_nuclear": {"trials": 10}, "3d_parity_electron": {"trials": 10},
    # 100 trials keep the stratified spectator-flip fraction at exactly 7%
    "3e_tomography": {"trials": 100},
    "4d_shuttle_repeated": {"sweep_stop": 20.0, "sweep_points": 3},
    "ext1_hyperfine": {"diameter_stop": 5.0, "diameter_points": 3, "draws": 100},
}


def _small(step):
    if step.name == "error_budget":
        return dataclasses.replace(step, argv=step.argv + ("--trials", "100"))
    if step.name == "readout_mc":
        return dataclasses.replace(step, meta=dict(step.meta, calls=2000))
    if step.config is not None and step.name in SMALL:
        return dataclasses.replace(step, config=dict(step.config, **SMALL[step.name]))
    return step


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every step except s2 (14 s; checked on synthetic data below), run
    small through the pass runner in a child process."""
    tmp = tmp_path_factory.mktemp("outputs")
    steps = []
    for workload in workloads.WORKLOADS:
        steps += [_small(s) for s in workloads.steps_for(workload, 7, ROOT, tmp / "cfg")
                  if s.name != "s2_vanvleck"]
    result = _run_child(steps, tmp, "all")
    assert all(s["rc"] == 0 for s in result["steps"]), result["steps"]
    return {s.name: (s, checks.read_output(tmp / "all" / s.output)) for s in steps}


def _run_child(steps, tmp, name):
    workloads.write_configs(steps, tmp / "cfg")
    outdir = tmp / name
    outdir.mkdir()
    spec = {"steps": [dataclasses.asdict(s) for s in steps], "outdir": str(outdir),
            "trace": False, "pass_id": 0}
    (tmp / f"{name}.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERFBENCH_SPAWN="0")
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(tmp / f"{name}.json"),
                    str(tmp / f"{name}-result.json")], env=env, check=True, timeout=300)
    return json.loads((tmp / f"{name}-result.json").read_text())


def _bump(key, index, delta):
    def f(out):
        out[key] = out[key].copy()
        out[key][index] += delta
    return f


def _set_json(path, value):
    def f(out):
        node = out
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value(node[path[-1]])
    return f


def _swap_joint(out):
    out["p_down_Down"], out["p_up_Up"] = out["p_up_Up"].copy(), out["p_down_Down"].copy()
    out["p_down_Down"][4] += 0.3
    out["p_down_Up"] = out["p_down_Up"] - np.eye(len(out["p_down_Up"]))[4] * 0.3


PERTURBATIONS = {
    "2i_ramsey": [_bump("p_up", 25, 0.45)],
    "2j_hahn": [_bump("p_up", 3, 1e-6)],
    "3c_parity_nuclear": [_swap_joint, _bump("parity", 2, 1e-6), _bump("p_up_Up", 1, 1e-3)],
    "3d_parity_electron": [_swap_joint],
    "3e_tomography": [
        _set_json(("result", "calibration", "phi_e"), lambda v: [v[0] + 1e-3, v[1]]),
        _set_json(("result", "probabilities", "ZZ"),
                  lambda v: [v[0] - 0.4, v[1], v[2], v[3] + 0.4]),
        _set_json(("result", "fidelity"), lambda v: v + 1e-6),
    ],
    "error_budget": [
        _set_json(("result", "baseline_fidelity"), lambda v: v - 1e-4),
        _set_json(("result", "electron_t2star"), lambda v: v + 40.0),
        _set_json(("result", "total_fidelity"), lambda v: v - 0.4),
    ],
    "2e_chevron": [_bump("p_flip", 7, 1e-6)],
    "2f_chevron_down": [_bump("p_flip", 30, -1e-6)],
    "2f_chevron_up": [_bump("p_flip", 30, 1e-6)],
    "2g_rabi": [_bump("p_flip", 5, 1e-6)],
    "4b_shuttle_phase": [_bump("p_up", 10, 1e-6)],
    "4d_shuttle_repeated": [_bump("coherence", 2, -1e-6), _bump("p_x", 1, 1e-6)],
    "4f_shuttle_electron": [_bump("p_up", 3, 1e-6)],
    "ext1_hyperfine": [
        lambda out: out.__setitem__("probability", 1.0 - out["probability"]),
        _bump("max_coupling_khz", 0, 1e-3),
    ],
    "s1_stats": [
        _set_json(("result", "histogram_fit", "sigma"), lambda v: float("nan")),
        _set_json(("provenance", "seed"), lambda v: v + 1),
    ],
    "readout_fidelity": [_bump("f_shot", 10, 1e-9),
                         lambda out: out.__setitem__("m_opt", np.ones_like(out["m_opt"]))],
    "readout_mc": [_set_json(("correct",), lambda v: v - 100)],
}


def test_every_step_has_a_check_and_a_perturbation():
    names = {s.name for w in workloads.WORKLOADS
             for s in workloads.steps_for(w, 0, ROOT, ROOT / "unused")}
    assert names == set(checks.CHECKS)
    assert names - {"s2_vanvleck"} == set(PERTURBATIONS)


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_check_passes_real_output_and_fails_perturbed(outputs, name):
    ctx = checks.CheckContext(seed=7)
    step, out = outputs[name]
    assert checks.CHECKS[name](out, step, ctx) == []
    for perturb in PERTURBATIONS[name]:
        bad = copy.deepcopy(out)
        perturb(bad)
        assert checks.CHECKS[name](bad, step, ctx), (name, perturb)


def test_vanvleck_check_on_synthetic_output():
    step = workloads.Step("s2_vanvleck", "cli", config={})
    m_int = np.array([24638.98, 2845.06, 820.74])
    out = {"m2_sum": m_int * (1 - 0.006), "m2_integral": m_int}
    out["t2star_sum_ms"] = np.sqrt(2 / out["m2_sum"]) * 1e3
    out["t2star_integral_ms"] = np.sqrt(2 / m_int) * 1e3
    ctx = checks.CheckContext(seed=0, reference={})
    assert checks.check_vanvleck(out, step, ctx) == []
    bad = dict(out, m2_sum=m_int * 1.05)
    bad["t2star_sum_ms"] = np.sqrt(2 / bad["m2_sum"]) * 1e3
    assert checks.check_vanvleck(bad, step, ctx)
    bad = dict(out, t2star_integral_ms=out["t2star_integral_ms"] * (1 + 1e-9))
    assert checks.check_vanvleck(bad, step, ctx)


# --------------------------------------------------------------------------
# the workload seed reaches the program


def _outputs_at(seed, names, tmp, label):
    steps = [_small(s) for w in ("noisy-trials", "noiseless-sweeps")
             for s in workloads.steps_for(w, seed, ROOT, tmp / "cfg") if s.name in names]
    _run_child(steps, tmp, label)
    out = {}
    for s in steps:
        path = tmp / label / s.output
        # JSON outputs carry the seed in their provenance; compare results
        out[s.name] = (json.loads(path.read_text())["result"] if path.suffix == ".json"
                       else path.read_bytes())
    return out


def test_seed_changes_noisy_outputs_only(tmp_path):
    names = {"2i_ramsey", "error_budget", "2g_rabi", "4f_shuttle_electron"}
    a = _outputs_at(11, names, tmp_path, "seed11")
    b = _outputs_at(12, names, tmp_path, "seed12")
    assert a["2i_ramsey"] != b["2i_ramsey"]
    assert a["error_budget"]["total_fidelity"] != b["error_budget"]["total_fidelity"]
    assert a["2g_rabi"] == b["2g_rabi"]
    assert a["4f_shuttle_electron"] == b["4f_shuttle_electron"]


# --------------------------------------------------------------------------
# speed rescaling and the site-count cache


def test_rescaled_pass_scales_by_the_median_kernel_sample():
    import run

    ref = run.KERNEL_REF_S
    result = {"steps": [{"wall_s": 2.0, "cpu_s": 1.0}, {"wall_s": 4.0, "cpu_s": 3.0}],
              "kernels": [2 * ref, 2 * ref, 9 * ref]}
    assert run.rescaled_pass(result, True) == pytest.approx((3.0, 2.0))
    assert run.rescaled_pass(result, False) == (6.0, 4.0)
    assert run.rescaled_setup({"setup_s": 1.0, "setup_kernel_s": 2 * ref}) == 0.5


def test_site_counts_cache_round_trip(tmp_path):
    cache = tmp_path / "cache" / "site-counts.json"
    first = checks.CheckContext(seed=0, reference={}, cache_path=cache)
    counts = first.site_counts(3.0, 25.0, [100.0, 200.0])
    assert cache.is_file()
    again = checks.CheckContext(seed=0, reference={}, cache_path=cache)
    assert again.site_counts(3.0, 25.0, [100.0, 200.0]) == counts
    (above_100, above_200), peak = counts
    assert above_100 >= above_200 and peak > 200.0
