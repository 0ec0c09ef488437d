"""Spans and counters recorded around fluidswarm's layers, from outside.

A hook replaces a module attribute that the pipeline calls through (for
example ``fluidswarm.cli.save_run`` or ``fluidswarm.swarm_sim.assign_cell``)
with a wrapper that records a span, and ``Tracer.restore`` puts the original
back. No library code is changed. A hook whose target has gone (after a
refactor) is listed in ``Tracer.missing``; the per-layer values that depend
on it are then reported as null instead of failing the run.

Span names:

* layer spans such as ``swarm_sim.binning`` or ``cli.simulate``;
* ``trace.*`` spans for work the tracing itself adds (the collision pair
  recount). They are part of the traced wall time, so they show up as
  tracing overhead, but never count toward a layer's time, total or self;
* ``bench.summary`` for the benchmark's own bookkeeping inside a pipeline
  call. It is excluded from every wall and layer time, traced or not.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

EXCLUDED = "bench.summary"
OVERHEAD = "trace."

# Attributes the pipeline calls through at its entry points, wrapped on the
# ``fluidswarm`` package (library route) or on ``fluidswarm.cli`` (CLI route).
ENTRY_LAYERS = {
    "generate_quasi1d_field": "reference_field.generate",
    "save_field": "reference_field.io",
    "load_field": "reference_field.io",
    "partition_domain": "partition.domain",
    "save_partition": "partition.io",
    "load_partition": "partition.io",
    "fit_grid": "velocity_fit.fit_grid",
    "save_fit": "velocity_fit.io",
    "load_fit": "velocity_fit.io",
    "grid_from_fit": "velocity_fit.io",
    "run_simulation": "swarm_sim.run",
    "save_run": "swarm_sim.save_run",
    "load_run": "swarm_sim.load_run",
    "metrics_report": "metrics.report",
    "save_metrics": "metrics.export",
    "export_slice": "metrics.export",
    "export_centerline": "metrics.export",
    "run_suite": "plant_suite.run_suite",
}
LIBRARY_CALLS = ("generate_quasi1d_field", "partition_domain", "fit_grid",
                 "run_simulation", "metrics_report")

# Module-level names that swarm_sim.run_simulation looks up on every call.
SIM_LAYERS = {
    "build_command_table": "swarm_sim.command_table",
    "make_batch": "swarm_sim.inject",
    "assign_cell": "swarm_sim.binning",
    "plant_step": "velocity_plant.step",
    "detect_collisions": "swarm_sim.collide_detect",
    "resolve_collisions": "swarm_sim.collide_resolve",
}

# Scenario functions that plant_suite.run_suite looks up on every call.
SUITE_LAYERS = {
    "hover_hold": "plant_suite.hover",
    "step_response": "plant_suite.step_response",
    "max_speed_sweep": "plant_suite.max_speed",
    "headwind_sweep": "plant_suite.headwind",
    "noise_monte_carlo": "plant_suite.noise",
}


class Tracer:
    """Spans (name, start, end, parent index) and named counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self._open: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def replace(self, owner, attr: str, layer: str, make) -> bool:
        """Swap ``owner.attr`` for ``make(original)``; note the layer if absent."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.add(layer)
            return False
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((owner, attr, orig))
        return True

    def timed(self, owner, attr: str, layer: str, after=None) -> bool:
        """Record a span around every call; ``after(args, result)`` counts.

        A counting hook that fails (internals changed shape) marks its layer
        missing and leaves the call's result alone.
        """
        def make(orig):
            def hooked(*args, **kwargs):
                with self.span(layer):
                    out = orig(*args, **kwargs)
                if after is not None:
                    try:
                        after(args, out)
                    except Exception:
                        self.missing.add(layer)
                return out
            return hooked
        return self.replace(owner, attr, layer, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # reductions

    def reduce(self) -> tuple[dict, dict, float]:
        """Per-name totals and self times, and the top-level span time.

        ``bench.summary`` time is taken out of every duration, as it is out
        of the wall time. ``trace.*`` time is taken out of every layer's
        total but stays in the top-level time, as it is part of the traced
        wall time. Self time is a span's duration minus its direct
        children's.
        """
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        excluded = [0.0] * n    # bench.summary time within the span
        overhead = [0.0] * n    # trace.* time within the span
        children = [0.0] * n
        for i in range(n - 1, -1, -1):
            name, _, _, parent = self.spans[i]
            if name == EXCLUDED:
                excluded[i], overhead[i] = dur[i], 0.0
            elif name.startswith(OVERHEAD):
                excluded[i], overhead[i] = 0.0, dur[i]
            if parent >= 0:
                excluded[parent] += excluded[i]
                overhead[parent] += overhead[i]
                children[parent] += dur[i]
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        top = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == EXCLUDED:
                continue
            net = dur[i] - excluded[i]
            if parent < 0:
                top += net
            if not name.startswith(OVERHEAD):
                net -= overhead[i]
            total[name] = total.get(name, 0.0) + net
            self_time[name] = self_time.get(name, 0.0) + dur[i] - children[i]
        return total, self_time, top

    def records(self, origin: float) -> list[list]:
        return [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]


# ======================================================================
# hook installation
# ======================================================================

def install(tracer: Tracer, route: str) -> None:
    """Wrap the entry points of one route and the layers below them."""
    import fluidswarm
    import fluidswarm.cli as cli
    import fluidswarm.plant_suite as plant_suite
    import fluidswarm.swarm_sim as swarm_sim
    import fluidswarm.velocity_plant as velocity_plant

    substeps = getattr(velocity_plant, "substep_count", None)

    def count_fit(args, fit):
        cells = len(fit.results)
        tracer.add("fit.cells", cells)
        tracer.add("fit.candidates",
                   cells * (fit.config.n_max - fit.config.n_min + 1))

    if route == "cli":
        for attr, layer in ENTRY_LAYERS.items():
            tracer.timed(cli, attr, layer,
                         count_fit if attr == "fit_grid" else None)
    else:
        for attr in LIBRARY_CALLS:
            tracer.timed(fluidswarm, attr, ENTRY_LAYERS[attr],
                         count_fit if attr == "fit_grid" else None)

    def count_plant(args, _out):
        state, _cmd, dt, params = args[:4]
        tracer.add("sim_plant.calls")
        tracer.add("sim_plant.agent_substeps",
                   len(state.velocity) * substeps(dt, params))

    def recount_pairs(args, applied_pairs):
        pos, _vel, config = args[:3]
        with tracer.span("trace.recount"):
            pairs = 0
            if len(pos) >= 2:
                pairs = len(cKDTree(pos).query_pairs(
                    2.0 * config.collision_radius, output_type="ndarray"))
        tracer.add("collide.pairs", pairs)

    def count_applied(args, applied):
        tracer.add("collide.applied", len(applied))

    counters = {
        "plant_step": count_plant if substeps else None,
        "detect_collisions": recount_pairs,
        "resolve_collisions": count_applied,
    }
    for attr, layer in SIM_LAYERS.items():
        tracer.timed(swarm_sim, attr, layer, counters.get(attr))
    if substeps is None:
        tracer.missing.add("velocity_plant.substep_count")

    def make_record_frame(orig):
        def record_frame(*args, **kwargs):
            try:
                tracer.add("population.rows_held", len(args[0]))
            except Exception:
                tracer.missing.add("swarm_sim.frame_reduce")
            with tracer.span("swarm_sim.frame_reduce"):
                return orig(*args, **kwargs)
        return record_frame
    tracer.replace(swarm_sim, "_record_frame", "swarm_sim.frame_reduce",
                   make_record_frame)

    population = getattr(swarm_sim, "_Population", None)
    if population is None:
        tracer.missing.add("swarm_sim.append")
    else:
        def make_append(orig):
            def append(pop, *args, **kwargs):
                before = dict(getattr(pop, "__dict__", {}))
                with tracer.span("swarm_sim.inject"):
                    ids = orig(pop, *args, **kwargs)
                try:
                    tracer.add("population.append_bytes",
                               _copied_bytes(before, vars(pop), len(ids)))
                except Exception:
                    tracer.missing.add("swarm_sim.append")
                return ids
            return append
        tracer.replace(population, "append", "swarm_sim.append", make_append)

    if route == "cli":
        for attr, layer in SUITE_LAYERS.items():
            tracer.timed(plant_suite, attr, layer)
        if substeps is not None:
            # count only: the suite makes ~10^5 plant calls, too many to span
            cache: dict = {}

            def make_suite_step(orig):
                def step(*args, **kwargs):
                    try:
                        state, _cmd, dt, params = args[:4]
                        if (dt, params) not in cache:
                            cache[dt, params] = substeps(dt, params)
                        tracer.add("suite_plant.calls")
                        tracer.add("suite_plant.agent_substeps",
                                   len(state.velocity) * cache[dt, params])
                    except Exception:
                        tracer.missing.add("plant_suite.step")
                    return orig(*args, **kwargs)
                return step
            tracer.replace(plant_suite, "step", "plant_suite.step",
                           make_suite_step)


def _copied_bytes(before: dict, after: dict, added: int) -> int:
    """Bytes one append copied: whole arrays it replaced, else new rows."""
    copied = 0
    for name, arr in after.items():
        if not isinstance(arr, np.ndarray):
            continue
        old = before.get(name)
        if old is not arr:
            copied += arr.nbytes
        elif len(arr):
            copied += added * (arr.nbytes // len(arr))
    return copied


# ======================================================================
# per-layer metrics
# ======================================================================

CLI_STEPS = ("generate_field", "partition", "fit", "simulate", "analyze",
             "plant_test")


def layer_metrics(tracer: Tracer, ctx: dict) -> dict[str, tuple]:
    """Per-layer values of one traced iteration, as name -> (value, unit).

    ``ctx`` holds what the benchmark measured itself: ``import_s``,
    ``wall_s`` and ``untraced_wall_s``, the simulation ``summary``,
    ``frames_used`` and ``run_dir_mb``. A value whose hook is missing is
    None.
    """
    total, self_time, top = tracer.reduce()
    counts, missing = tracer.counts, tracer.missing
    summary = ctx["summary"]
    out: dict[str, tuple] = {}

    def put(name, value, unit, needs=()):
        if value is not None and any(n in missing for n in needs):
            value = None
        out[name] = (value, unit)

    def secs(layer):
        return total.get(layer, 0.0)

    put("import.s", ctx["import_s"], "s")
    for step in CLI_STEPS:
        put(f"cli.{step}_s", secs(f"cli.{step}"), "s")
    for layer in ("reference_field.generate", "partition.domain",
                  "velocity_fit.fit_grid"):
        put(layer + "_s", secs(layer), "s", (layer,))
    for layer in ("reference_field.io", "partition.io", "velocity_fit.io"):
        put(layer + "_s", secs(layer), "s", (layer,))

    fit_s = secs("velocity_fit.fit_grid")
    cells = counts.get("fit.cells", 0)
    put("velocity_fit.cells", cells, "count", ("velocity_fit.fit_grid",))
    put("velocity_fit.candidates", counts.get("fit.candidates", 0), "count",
        ("velocity_fit.fit_grid",))
    put("velocity_fit.cells_per_s", cells / fit_s if fit_s > 0 else None, "1/s",
        ("velocity_fit.fit_grid",))
    put("velocity_fit.entry_n_star", summary.get("entry_n_star"), "count")
    put("velocity_fit.injection_rate", summary.get("injection_rate"), "agents/s")

    put("swarm_sim.command_table_s", secs("swarm_sim.command_table"), "s",
        ("swarm_sim.command_table",))
    put("swarm_sim.run_s", secs("swarm_sim.run"), "s", ("swarm_sim.run",))
    put("swarm_sim.self_s", self_time.get("swarm_sim.run", 0.0), "s",
        ("swarm_sim.run", *SIM_LAYERS.values(), "swarm_sim.frame_reduce",
         "swarm_sim.append"))
    put("swarm_sim.inject_s", secs("swarm_sim.inject"), "s",
        ("swarm_sim.inject", "swarm_sim.append"))
    put("swarm_sim.frame_reduce_s", self_time.get("swarm_sim.frame_reduce", 0.0),
        "s", ("swarm_sim.frame_reduce", "swarm_sim.binning"))
    put("swarm_sim.binning_s", secs("swarm_sim.binning"), "s",
        ("swarm_sim.binning",))
    put("swarm_sim.binning_calls",
        sum(1 for s in tracer.spans if s[0] == "swarm_sim.binning"), "count",
        ("swarm_sim.binning",))

    step_needs = ("velocity_plant.step", "velocity_plant.substep_count")
    put("velocity_plant.step_s", secs("velocity_plant.step"), "s",
        ("velocity_plant.step",))
    put("velocity_plant.step_calls", counts.get("sim_plant.calls", 0), "count",
        step_needs)
    put("velocity_plant.agent_substeps",
        counts.get("sim_plant.agent_substeps", 0), "count", step_needs)

    steps = summary["agent_steps"]
    put("swarm_sim.frames", summary["frames"], "count")
    put("swarm_sim.agent_steps", steps, "count")
    put("swarm_sim.injected", summary["injected"], "count")
    put("swarm_sim.active_end", summary["active_end"], "count")
    held = counts.get("population.rows_held", 0)
    put("swarm_sim.scan_ratio", held / steps if steps else None, "ratio",
        ("swarm_sim.frame_reduce",))
    put("swarm_sim.append_mb", counts.get("population.append_bytes", 0) / 1e6,
        "MB", ("swarm_sim.append",))

    pairs = counts.get("collide.pairs", 0)
    applied = counts.get("collide.applied", 0)
    put("swarm_sim.collide_detect_s", secs("swarm_sim.collide_detect"), "s",
        ("swarm_sim.collide_detect",))
    put("swarm_sim.collide_resolve_s", secs("swarm_sim.collide_resolve"), "s",
        ("swarm_sim.collide_resolve",))
    put("swarm_sim.collide_pairs", pairs, "count", ("swarm_sim.collide_detect",))
    put("swarm_sim.collide_applied", applied, "count",
        ("swarm_sim.collide_resolve",))
    put("swarm_sim.collide_yield", applied / pairs if pairs else 0.0, "ratio",
        ("swarm_sim.collide_detect", "swarm_sim.collide_resolve"))

    put("swarm_sim.save_run_s", secs("swarm_sim.save_run"), "s",
        ("swarm_sim.save_run",))
    put("swarm_sim.load_run_s", secs("swarm_sim.load_run"), "s",
        ("swarm_sim.load_run",))
    put("swarm_sim.run_dir_mb", ctx["run_dir_mb"], "MB")
    put("swarm_sim.frame_rows", summary["frame_rows"], "count")

    put("metrics.report_s", secs("metrics.report"), "s", ("metrics.report",))
    put("metrics.export_s", secs("metrics.export"), "s", ("metrics.export",))
    put("metrics.frames_used", ctx["frames_used"], "count")

    for attr, layer in SUITE_LAYERS.items():
        put(layer + "_s", secs(layer), "s", (layer,))
    suite_needs = ("plant_suite.step", "velocity_plant.substep_count")
    put("plant_suite.plant_calls", counts.get("suite_plant.calls", 0), "count",
        suite_needs)
    put("plant_suite.agent_substeps",
        counts.get("suite_plant.agent_substeps", 0), "count", suite_needs)

    wall = ctx["wall_s"]
    put("trace.wall_s", wall, "s")
    put("trace.overhead_s", wall - ctx["untraced_wall_s"], "s")
    put("trace.top_span_share", top / wall, "ratio")
    put("trace.hooks_missing", len(missing), "count")
    return out
