"""Outside-in tracing of one pass, and the per-layer metrics derived from it.

The tracer replaces public functions of the dotspin modules with timing
wrappers, in the namespace where each caller looks the name up (the drivers
call ``dotspin.experiments.run_sequence``, the engine calls
``dotspin.engine.unitary``, ...). Spans (name, start, end, parent) are kept
in memory and handed back when the pass ends; nothing inside the package
changes. A layer's self time is its spans' durations minus the part of each
interval covered by that span's direct children.
"""

from __future__ import annotations

import functools
import math
import time

#: Experiment drivers as the CLI looks them up.
EXPERIMENT_DRIVERS = (
    "run_nmr_chevron", "run_rabi", "run_ramsey", "run_hahn",
    "run_bell_parity_sweep", "run_bell_tomography", "compute_error_budget",
    "run_shuttle_experiments",
)
#: Sequence builders as the drivers look them up.
SEQUENCE_BUILDERS = (
    "bell_circuit", "ramsey_sequence", "hahn_sequence",
    "shuttle_ramsey_sequence", "repeated_load_sequence",
    "electron_shuttle_ramsey",
)
#: The nine dotspin modules whose import time the traced run reports.
IMPORT_MODULES = ("core", "sequences", "engine", "experiments", "readout",
                  "fitting", "hyperfine", "vanvleck", "cli")
#: Public fitters as the CLI looks them up (module attributes of fitting).
FITTERS = (
    "fit_sinusoid", "fit_ramsey", "fit_hahn", "fit_flip_intervals",
    "fit_esr_histogram", "classify_shifts", "fit_coherence_decay",
)


class Tracer:
    """Records nested spans of wrapped calls in one single-threaded pass."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.attrs: dict = {}  # attribute -> [[span index, value], ...]
        self._stack: list = []
        self._restore: list = []
        self._keys: dict = {}

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def note(self, idx: int, key: str, value) -> None:
        self.attrs.setdefault(key, []).append([idx, value])

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``;
        ``annotate(idx, args, kwargs, result)`` runs after the span closes."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if annotate is not None:
                annotate(idx, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def install(self) -> None:
        from dotspin import (cli, core, engine, experiments, fitting,
                             hyperfine, readout, sequences, vanvleck)

        self.wrap(cli, "main", "cli.main")
        for attr in EXPERIMENT_DRIVERS:
            self.wrap(cli, attr, "experiments.run")
        self.wrap(experiments, "calibrate_bell_projection", "experiments.calibrate")
        for attr in SEQUENCE_BUILDERS:
            self.wrap(experiments, attr, "sequences.build")
        self.wrap(sequences.PulseSequence, "__init__", "sequences.init")
        self.wrap(experiments, "run_sequence", "engine.run_sequence",
                  self._note_sequence)
        self.wrap(engine, "unitary", "core.unitary")
        self.wrap(core.QuantumState, "__init__", "core.state")
        self.wrap(experiments, "sample_noise", "core.sample_noise")
        self.wrap(core, "apply_dephasing_channel", "core.dephasing")
        self.wrap(readout, "repetitive_nuclear_readout", "readout.repetitive")
        self.wrap(readout, "nuclear_fidelity_model", "readout.model")
        self.wrap(experiments, "correct_readout", "readout.correct",
                  lambda i, a, k, r: self.note(i, "clamped", int(r["clamped"])))
        for attr in FITTERS:
            self.wrap(fitting, attr, "fitting", self._note_fit)
        self.wrap(hyperfine, "site_couplings", "hyperfine.site_couplings",
                  lambda i, a, k, r: self.note(i, "sites", len(r[0])))
        self.wrap(hyperfine, "calibrate_k_hf", "hyperfine.calibrate")
        self.wrap(hyperfine, "probability_curves", "hyperfine.curves")
        self.wrap(vanvleck, "second_moment_sum", "vanvleck.sum",
                  lambda i, a, k, r: self.note(
                      i, "sites", vanvleck_sites(k.get("geometry", a[0] if a else None))))
        self.wrap(vanvleck, "second_moment_cylinder_integral", "vanvleck.integral")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _note_sequence(self, idx, args, kwargs, result) -> None:
        from dotspin.core import ZERO_DRAW

        names = ("seq", "params", "noise_draw", "initial_state")
        bound = dict(zip(names, args), **kwargs)
        seq = bound["seq"]
        init = bound.get("initial_state")
        key = (seq, bound["params"], bound.get("noise_draw", ZERO_DRAW),
               None if init is None else init.density_matrix().tobytes())
        self.note(idx, "elements", len(seq.elements))
        self.note(idx, "key", self._keys.setdefault(key, len(self._keys)))

    def _note_fit(self, idx, args, kwargs, result) -> None:
        converged = getattr(result, "converged", None)
        if converged is not None:
            self.note(idx, "nonconverged", int(not converged))

    def export(self) -> dict:
        return {"pass": self.pass_id, "names": self.names, "start": self.start,
                "end": self.end, "parent": self.parent, "attrs": self.attrs}


def vanvleck_sites(geometry) -> int:
    """4 nx ny nz FCC sites of the electrode, from its public geometry."""
    a = geometry.al_lattice_constant
    lx, ly = geometry.lateral
    return 4 * math.floor(lx / a) * math.floor(ly / a) * math.floor(geometry.thickness / a)


# --------------------------------------------------------------------------
# Span arithmetic


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(start, end, parent) -> list:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    return [
        (end[i] - start[i]) - _union_length(
            (max(start[c], start[i]), min(end[c], end[i])) for c in children[i]
        )
        for i in range(len(start))
    ]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(names, parent, same) -> list:
    """True for spans with no ancestor for which same(ancestor, span)."""
    out = []
    for i, name in enumerate(names):
        p = parent[i]
        while p >= 0 and not same(names[p], name):
            p = parent[p]
        out.append(p < 0)
    return out


class SpanSummary:
    """Counts, busy seconds and self seconds by span name and by layer."""

    def __init__(self, trace: dict):
        names, start, end, parent = (trace[k] for k in ("names", "start", "end", "parent"))
        self.trace = trace
        selfs = self_times(start, end, parent)
        top_name = _outermost(names, parent, lambda a, b: a == b)
        top_layer = _outermost(names, parent, lambda a, b: layer_of(a) == layer_of(b))
        self.calls: dict = {}
        self.busy: dict = {}
        self.layer_busy: dict = {}
        self.layer_self: dict = {}
        for i, name in enumerate(names):
            layer = layer_of(name)
            dur = end[i] - start[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            if top_name[i]:
                self.busy[name] = self.busy.get(name, 0.0) + dur
            if top_layer[i]:
                self.layer_busy[layer] = self.layer_busy.get(layer, 0.0) + dur
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + selfs[i]

    def attr_values(self, key: str) -> list:
        return [v for _, v in self.trace["attrs"].get(key, [])]

    def attr_sum(self, key: str, name: str):
        names = self.trace["names"]
        return sum(v for i, v in self.trace["attrs"].get(key, []) if names[i] == name)


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def per_layer_metrics(trace: dict, out_bytes: int, import_s: dict,
                      overhead_ratio: float) -> dict:
    """Every per-layer metric as name -> (value, unit); layers a workload
    does not reach report 0."""
    s = SpanSummary(trace)
    calls, busy = s.calls.get, s.busy.get
    seq_calls = calls("engine.run_sequence", 0)
    seq_s = busy("engine.run_sequence", 0.0)
    elements = sum(s.attr_values("elements"))
    unitary_calls = calls("core.unitary", 0)
    readouts = calls("readout.repetitive", 0)
    hf_sites = s.attr_sum("sites", "hyperfine.site_couplings")
    vv_sites = s.attr_sum("sites", "vanvleck.sum")
    m = {
        "cli.main.calls": (calls("cli.main", 0), "count"),
        "cli.self_s": (s.layer_self.get("cli", 0.0), "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "experiments.run.calls": (calls("experiments.run", 0), "count"),
        "experiments.run.s": (busy("experiments.run", 0.0), "s"),
        "experiments.self_s": (s.layer_self.get("experiments", 0.0), "s"),
        "experiments.calibrate.s": (busy("experiments.calibrate", 0.0), "s"),
        "sequences.build.calls": (calls("sequences.init", 0), "count"),
        "sequences.build.s": (s.layer_busy.get("sequences", 0.0), "s"),
        "engine.run_sequence.calls": (seq_calls, "count"),
        "engine.run_sequence.s": (seq_s, "s"),
        "engine.self_s": (s.layer_self.get("engine", 0.0), "s"),
        "engine.elements": (elements, "count"),
        "engine.us_per_sequence": (_per(seq_s, seq_calls, 1e6), "us"),
        "engine.us_per_element": (_per(seq_s, elements, 1e6), "us"),
        "engine.distinct_ratio": (
            _per(len(set(s.attr_values("key"))), seq_calls, 1.0), "ratio"),
        "core.unitary.calls": (unitary_calls, "count"),
        "core.unitary.s": (busy("core.unitary", 0.0), "s"),
        "core.us_per_unitary": (_per(busy("core.unitary", 0.0), unitary_calls, 1e6), "us"),
        "core.state.calls": (calls("core.state", 0), "count"),
        "core.state.s": (busy("core.state", 0.0), "s"),
        "core.sample_noise.calls": (calls("core.sample_noise", 0), "count"),
        "core.sample_noise.s": (busy("core.sample_noise", 0.0), "s"),
        "core.dephasing.calls": (calls("core.dephasing", 0), "count"),
        "core.dephasing.s": (busy("core.dephasing", 0.0), "s"),
        "readout.repetitive.calls": (readouts, "count"),
        "readout.us_per_readout": (
            _per(busy("readout.repetitive", 0.0), readouts, 1e6), "us"),
        "readout.model.calls": (calls("readout.model", 0), "count"),
        "readout.model.s": (busy("readout.model", 0.0), "s"),
        "readout.clamped": (sum(s.attr_values("clamped")), "count"),
        "fitting.calls": (calls("fitting", 0), "count"),
        "fitting.s": (busy("fitting", 0.0), "s"),
        "fitting.nonconverged": (sum(s.attr_values("nonconverged")), "count"),
        "hyperfine.site_couplings.calls": (calls("hyperfine.site_couplings", 0), "count"),
        "hyperfine.site_couplings.s": (busy("hyperfine.site_couplings", 0.0), "s"),
        "hyperfine.sites": (hf_sites, "count"),
        "hyperfine.ns_per_site": (
            _per(busy("hyperfine.site_couplings", 0.0), hf_sites, 1e9), "ns"),
        "hyperfine.calibrate.s": (busy("hyperfine.calibrate", 0.0), "s"),
        "hyperfine.curves.s": (busy("hyperfine.curves", 0.0), "s"),
        "vanvleck.sum.calls": (calls("vanvleck.sum", 0), "count"),
        "vanvleck.sum.s": (busy("vanvleck.sum", 0.0), "s"),
        "vanvleck.sites": (vv_sites, "count"),
        "vanvleck.ns_per_site": (_per(busy("vanvleck.sum", 0.0), vv_sites, 1e9), "ns"),
        "vanvleck.integral.s": (busy("vanvleck.integral", 0.0), "s"),
    }
    for module in IMPORT_MODULES:
        m[f"import.{module}_s"] = (import_s.get(module, 0.0), "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def parse_importtime(stderr: str) -> dict:
    """Import seconds attributed to each dotspin module from ``python -X
    importtime`` output: its cumulative time minus that of dotspin modules
    imported beneath it, so third-party packages a module pulls in first
    (scipy.stats for readout) count toward it and nothing counts twice."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # header line
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        rows.append((depth, raw.strip(), cumulative))
    # importtime prints children before their parent, one level deeper
    out = {}
    pending = {}  # depth -> cumulative us of dotspin modules seen at that depth
    for depth, name, cumulative in rows:
        nested = pending.pop(depth + 1, 0)
        if name.startswith("dotspin."):
            short = name.split(".", 1)[1]
            out[short] = (cumulative - nested) * 1e-6
            pending[depth] = pending.get(depth, 0) + cumulative
        else:
            pending[depth] = pending.get(depth, 0) + nested
    return out
