"""Statistics and metric definitions of the repository benchmark.

The C++ driver (driver.cpp) records raw samples, spans and exact-repeat
counts; everything here turns them into the metrics named in
BENCHMARK.json. Kept free of I/O so tests/test_benchlib.py can check the
arithmetic directly.
"""

import math
import statistics

RUN_SECONDS = 20  # measured time per run; set-up comes on top

WORKLOADS = [
    ("sync-scale",
     "2^18-node synchronous verifier on 2 lanes: the steady-state round cost "
     "at scale, dominated by the 1-round label check"),
    ("train-detect",
     "801 seeded 64-node async instances, each tampered once: trains, Show "
     "and Ask catching a lie, on the async activation queue"),
    ("fleet-mixed",
     "512-tenant fault mix drained by the service on 2 lanes: set-up-heavy, "
     "write-heavy use of the same verifier, label and sim layers"),
    ("selfstab-recover",
     "1024-node transformer recovering from 16 faults: reset wave, SYNC_MST "
     "rebuild and re-mark, the only user of mstalgo/sync_mst and selfstab"),
]

# (name, unit, better, bound). The bounds are justified by the recorded
# steadiness runs (STEADINESS.md); the time metrics carry the largest bound
# used, 0.25, because the shared 4-vCPU development box drifts by several
# percent between runs minutes apart.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("state_bits_max", "bits", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better). Each traced run reports every one of them; a layer
# the workload never calls reports 0 (README.md, "Layer map").
PER_LAYER = [
    ("graph.generate_s", "s", "lower"),
    ("graph.kruskal_s", "s", "lower"),
    ("mstalgo.hierarchy_s", "s", "lower"),
    ("partition.build_s", "s", "lower"),
    ("labels.mark_s", "s", "lower"),
    ("labels.install_s", "s", "lower"),
    ("verify.initial_states_s", "s", "lower"),
    ("sim.ctor_s", "s", "lower"),
    ("sim.sync_round_ms_p50", "ms", "lower"),
    ("sim.round_cpu_per_wall", "ratio", "higher"),
    ("sim.node_steps_per_s", "1/s", "higher"),
    ("labels.verify1_ns_per_node", "ns", "lower"),
    ("verify.step_rest_ns_per_node", "ns", "lower"),
    ("sim.async_unit_us_p50", "us", "lower"),
    ("sim.activations_per_unit", "count", "lower"),
    ("sim.effective_step_ratio", "ratio", "higher"),
    ("verify.detect_units_p50", "units", "lower"),
    ("verify.detect_units_max", "units", "lower"),
    ("service.drain_s", "s", "lower"),
    ("service.lane_busy_share", "share", "higher"),
    ("service.contention_ratio", "ratio", "lower"),
    ("service.healthy", "count", "higher"),
    ("service.repaired", "count", "higher"),
    ("service.quarantined", "count", "lower"),
    ("service.attempts", "count", "lower"),
    ("service.repairs", "count", "lower"),
    ("service.units_p50", "units", "lower"),
    ("labels.pool_reclaimed_bytes", "bytes", "higher"),
    ("sim.audit_ms", "ms", "lower"),
    ("selfstab.detect_units", "units", "lower"),
    ("selfstab.reset_units", "units", "lower"),
    ("selfstab.build_units", "units", "lower"),
    ("selfstab.mark_units", "units", "lower"),
    ("selfstab.iterations", "count", "lower"),
    ("selfstab.reset_ms", "ms", "lower"),
    ("mstalgo.sync_mst_ms", "ms", "lower"),
    ("labels.remark_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    beyond it, or None when n is too small for a tail above the median."""
    if n <= 0:
        return None
    q = math.floor(100 * (1 - TAIL_BEYOND / n))
    return q if q > 50 else None


def percentile(values, q):
    """Nearest-rank percentile: the value at rank ceil(q/100 * n)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover. `spans` maps id -> (start, dur, parent)
    with parent None or -1 at top level. Returns id -> self time."""
    children = {}
    for sid, (_, _, parent) in spans.items():
        if parent is not None and parent >= 0:
            children.setdefault(parent, []).append(sid)
    out = {}
    for sid, (start, dur, _) in spans.items():
        end = start + dur
        covered = 0.0
        cursor = start
        kids = sorted((spans[c][0], spans[c][0] + spans[c][1])
                      for c in children.get(sid, []))
        for cs, ce in kids:
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out[sid] = dur - covered
    return out


def self_time_summary(events):
    """Per span name: calls, total and self milliseconds, from Chrome
    trace_event records (ts/dur in microseconds, parent id in args)."""
    spans = {e["args"]["id"]: (e["ts"], e["dur"], e["args"]["parent"])
             for e in events}
    selfs = self_times(spans)
    rows = {}
    for e in events:
        r = rows.setdefault(e["name"], {"calls": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
        r["calls"] += 1
        r["total_ms"] += e["dur"] / 1e3
        r["self_ms"] += selfs[e["args"]["id"]] / 1e3
    return rows


def repeat_mismatches(records):
    """Keys whose values are not all equal. `records` is a list of
    (key, value) pairs; a key recorded several times must repeat exactly."""
    seen = {}
    for key, value in records:
        seen.setdefault(key, set()).add(value)
    return {k: sorted(v) for k, v in seen.items() if len(v) > 1}


def stored_mismatches(stored, current):
    """Keys present in both count maps whose values differ."""
    return {k: (stored[k], current[k]) for k in sorted(stored)
            if k in current and stored[k] != current[k]}


def end_to_end(raw):
    """The end-to-end metrics of one untraced run."""
    ops_ms = [ns / 1e6 for ns in raw["op_wall_ns"]]
    n_ops = len(ops_ms)
    wall_s = raw["timed_wall_ns"] / 1e9
    q = tail_percentile(raw["min_ops"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": n_ops / wall_s,
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_tail": percentile(ops_ms, q),
        "cpu_ms_per_op": raw["timed_cpu_ns"] / 1e6 / n_ops,
        "state_bits_max": raw["state_bits_max"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(raw, events):
    """The per-layer metrics of one traced run; 0 for layers not called."""
    durs = {}
    for e in events:
        durs.setdefault(e["name"], []).append(e["dur"])  # microseconds

    def med_s(name):
        return _median_or_zero(durs.get(name, [])) / 1e6

    def med_ms(name):
        return _median_or_zero(durs.get(name, [])) / 1e3

    c = raw["counters"]
    s = raw["samples"]
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["graph.generate_s"] = med_s("graph.generate")
    m["graph.kruskal_s"] = med_s("graph.kruskal")
    m["mstalgo.hierarchy_s"] = med_s("mstalgo.hierarchy")
    m["partition.build_s"] = med_s("partition.build")
    m["labels.mark_s"] = med_s("labels.mark")
    if "labels.mark" in durs and "mstalgo.hierarchy" in durs:
        # Derived: make_labels runs the hierarchy, the partitions and the
        # label install; the first two are timed on their own.
        m["labels.install_s"] = (m["labels.mark_s"] - m["mstalgo.hierarchy_s"]
                                 - m["partition.build_s"])
    m["verify.initial_states_s"] = med_s("verify.initial_states")
    m["sim.ctor_s"] = med_s("sim.ctor")
    n_ops = len(raw["op_wall_ns"])
    wall_s = raw["timed_wall_ns"] / 1e9
    if "sim.sync_round" in durs:
        m["sim.sync_round_ms_p50"] = med_ms("sim.sync_round")
        m["sim.round_cpu_per_wall"] = (raw["timed_cpu_ns"]
                                       / raw["timed_wall_ns"])
    if raw["node_steps"]:
        m["sim.node_steps_per_s"] = raw["node_steps"] / wall_s
    if "labels.verify1_sweep" in durs:
        m["labels.verify1_ns_per_node"] = (
            med_s("labels.verify1_sweep") * 1e9 / c["verify1_nodes"])
        if "sim.sync_round" in durs:
            cpu_ns_per_node = raw["timed_cpu_ns"] / n_ops / c["nodes"]
            m["verify.step_rest_ns_per_node"] = (
                cpu_ns_per_node - m["labels.verify1_ns_per_node"])
    if "sim.async_unit" in durs:
        m["sim.async_unit_us_p50"] = _median_or_zero(durs["sim.async_unit"])
    if c.get("units"):
        m["sim.activations_per_unit"] = c["activations"] / c["units"]
    if c.get("activations"):
        m["sim.effective_step_ratio"] = c["effective_steps"] / c["activations"]
    if raw["detect_units"]:
        m["verify.detect_units_p50"] = statistics.median(raw["detect_units"])
        m["verify.detect_units_max"] = max(raw["detect_units"])
    if "service.drain" in durs:
        m["service.drain_s"] = med_s("service.drain")
        m["service.lane_busy_share"] = (c["tenant_busy_ns"]
                                        / (c["lanes"] * c["drain_ns"]))
        for k in ("healthy", "repaired", "quarantined", "attempts",
                  "repairs"):
            m["service." + k] = c[k]
        m["service.units_p50"] = statistics.median(s["units_used"])
        m["labels.pool_reclaimed_bytes"] = c["reclaimed_bytes"]
        if s.get("solo_wall_ns"):
            m["service.contention_ratio"] = (
                statistics.median(raw["op_wall_ns"])
                / statistics.median(s["solo_wall_ns"]))
    m["sim.audit_ms"] = med_ms("sim.audit")
    for k in ("detect_units", "reset_units", "build_units", "mark_units",
              "iterations"):
        if s.get(k):
            m["selfstab." + k] = statistics.median(s[k])
    m["selfstab.reset_ms"] = med_ms("selfstab.reset")
    m["mstalgo.sync_mst_ms"] = med_ms("mstalgo.sync_mst")
    m["labels.remark_ms"] = med_ms("labels.remark")
    m["trace.overhead_share"] = tracing_overhead(raw)
    return m


def tracing_overhead(raw):
    """Median traced op time over median untraced op time, minus one. Ops
    alternate between traced and untraced within the traced run."""
    traced = [w for w, t in zip(raw["op_wall_ns"], raw["op_traced"]) if t]
    plain = [w for w, t in zip(raw["op_wall_ns"], raw["op_traced"]) if not t]
    if not traced or not plain:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1


def manifest():
    """BENCHMARK.json, generated from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
