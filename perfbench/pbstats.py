"""Arithmetic of the perfbench benchmark: medians and spreads of repeated
passes, percentiles reported with their sample count, host-clock span self
time, critical-path tiling, and the per-layer metrics of a traced pass.

Kept free of I/O so perfbench/test_perfbench.py can check it directly.
"""

import statistics


def median(values):
    return statistics.median(values) if values else 0.0


def iqr_spread(values):
    """Distance between the first and third quartile as a share of the median
    (statistics.quantiles with n=4); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def raw_host_series(passes):
    """Per-pass end-to-end host series of untraced passes, unscaled."""
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "events_per_s": [p["events"] / p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
    }


def host_medians(passes, ref_times, nominal_ref_s):
    """Medians of the end-to-end host series with times scaled to the nominal
    host speed, and the scale factor: nominal_ref_s over the median of
    `ref_times`, the reference kernel runs interleaved with the passes. A
    host that is slower for the whole run stretches the reference as much as
    the passes, so the scaled medians stay put; memory is not scaled."""
    scale = nominal_ref_s / median(ref_times)
    per_time = {"wall_s": scale, "cpu_s": scale, "setup_s": scale,
                "events_per_s": 1 / scale, "peak_rss_mb": 1.0}
    raw = raw_host_series(passes)
    return {name: median(vals) * per_time[name] for name, vals in raw.items()}, scale


def percentile(samples, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of raw samples, returned
    with the sample count it was computed from. (0.0, 0) when empty."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def tail_percentile(samples, ladder=(0.99, 0.95, 0.9, 0.75)):
    """The highest quantile of `ladder` with at least ten samples beyond it,
    as (q, value, n); None when there are too few samples for any."""
    n = len(samples)
    for q in ladder:
        if n * (1 - q) >= 10:
            value, _ = percentile(samples, q)
            return q, value, n
    return None


def hist_percentile(edges, counts, q):
    """q-quantile of a fixed-bucket histogram ("le" buckets, the last one the
    overflow), interpolated linearly inside the bucket that holds it, with
    the sample count. The first bucket starts at min(0, first edge); a
    quantile in the overflow bucket reads as the last edge."""
    n = sum(counts)
    if n == 0:
        return 0.0, 0
    target = q * n
    cum = 0
    for i, c in enumerate(counts):
        if c and cum + c >= target:
            if i >= len(edges):
                return float(edges[-1]), n
            lo = edges[i - 1] if i > 0 else min(0.0, edges[0])
            hi = edges[i]
            return lo + (hi - lo) * (target - cum) / c, n
        cum += c
    return float(edges[-1]), n


def covered(intervals, t0, t1):
    """Length of [t0, t1] covered by the union of `intervals` [(a, b), ...]."""
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in intervals)
    total = 0
    end = t0
    for a, b in clipped:
        if b <= max(a, end):  # empty after clipping, or already covered
            continue
        total += b - max(a, end)
        end = b
    return total


def self_time(parent, children):
    """Self time of span `parent` (t0, t1): its duration minus the part its
    child spans cover. Children may overlap each other (ranks are fibers, so
    one rank's call can run inside another's wait); overlap counts once."""
    t0, t1 = parent
    return (t1 - t0) - covered(children, t0, t1)


def critpath_tiles(cp, tol=0.01):
    """True when the critical-path components sum to its wall within `tol`.
    The recorder's analysis builds the wall from the same segments, so this
    holds by construction; it guards the benchmark's own summing."""
    parts = cp["compute"] + cp["wire"] + cp["sw"] + cp["blocked"]
    return cp["wall"] > 0 and abs(parts - cp["wall"]) <= tol * cp["wall"]


def critpath_matches(cp, nas_virtual_s, tol):
    """True when the critical-path wall, measured over the kernel's traced
    iterations, is within `tol` of the kernel's own virtual time."""
    return nas_virtual_s > 0 and abs(cp["wall"] - nas_virtual_s) <= tol * nas_virtual_s


def critpath_shares(cp):
    """Each component's share of the critical-path wall."""
    wall = cp["wall"]
    return {k: (cp[k] / wall if wall else 0.0) for k in ("compute", "wire", "sw", "blocked")}


def span_stats(spans, kinds):
    """Per-kind durations (ns) of a traced pass's host-clock spans, and the
    self time of the cluster_run spans, given `spans` as [kind, rank, t0, t1]
    rows and `kinds` the kind names by index."""
    by_kind = {name: [] for name in kinds}
    for k, _rank, t0, t1 in spans:
        by_kind[kinds[k]].append((t0, t1))
    calls = by_kind["isend"] + by_kind["irecv"] + by_kind["wait"]
    run_total = sum(t1 - t0 for t0, t1 in by_kind["cluster_run"])
    run_self = sum(self_time(run, calls) for run in by_kind["cluster_run"])
    return by_kind, run_total, run_self


def _sum_counters(counters, name):
    """Total of counter `name` over all its labels."""
    return sum(v for k, v in counters.items() if k == name or k.startswith(name + "|"))


def layer_metrics(traced, untraced_passes, traced_passes):
    """Per-layer metrics of one workload: counts, virtual times and recorder
    histograms from the first traced pass, host-time ratios from the medians
    of the untraced and traced passes run alongside it."""
    c = traced["counters"]
    g = traced["gauge_max"]
    h = traced["histograms"]
    cp = traced["critpath"]
    m = {}

    def hist(name, q):
        hh = h.get(name)
        return hist_percentile(hh["edges"], hh["counts"], q) if hh else (0.0, 0)

    # sim
    m["sim.events"] = traced["events"]
    m["sim.host_ns_per_event"] = median(
        [p["wall_s"] / p["events"] * 1e9 for p in untraced_passes if p["events"]])
    m["sim.fiber_stacks"] = traced["fiber_stacks"]
    m["sim.event_pool_slots"] = traced["event_pool_slots"]
    m["sim.closure_heap_allocs"] = traced["closure_heap_allocs"]
    # net
    m["net.packets"] = _sum_counters(c, "net.rail.tx_packets")
    busy = [c.get(f"nmad.rail.busy_ns|rail={r}", 0) for r in (0, 1)]
    busy_total = _sum_counters(c, "nmad.rail.busy_ns")
    for r in (0, 1):
        m[f"net.rail.tx_bytes.r{r}"] = c.get(f"net.rail.tx_bytes|rail={r}", 0)
        m[f"net.rail.busy_share.r{r}"] = busy[r] / busy_total if busy_total else 0.0
    # nmad
    m["nmad.eager.count"] = _sum_counters(c, "nmad.eager.count")
    m["nmad.rdv.count"] = _sum_counters(c, "nmad.rdv.count")
    m["nmad.rdv.bytes"] = _sum_counters(c, "nmad.rdv.bytes")
    m["nmad.rdv.handshake_us.p50"], n = hist("nmad.rdv.handshake_us", 0.50)
    m["nmad.rdv.handshake_us.p99"], _ = hist("nmad.rdv.handshake_us", 0.99)
    m["nmad.rdv.handshake_us.n"] = n
    m["nmad.sched.pred_error_us.p50"], n = hist("nmad.sched.pred_error_us", 0.50)
    m["nmad.sched.pred_error_us.n"] = n
    m["nmad.unexpected.depth.max"] = g.get("nmad.unexpected.depth", 0)
    m["nmad.strategy.queue_depth.max"] = g.get("nmad.strategy.queue_depth", 0)
    # ch3, nemesis
    m["ch3.anysource.binds"] = _sum_counters(c, "ch3.anysource.binds")
    m["ch3.unexpected.depth.max"] = g.get("ch3.unexpected.depth", 0)
    m["shm.cells"] = _sum_counters(c, "shm.cells")
    m["shm.cell_bytes"] = _sum_counters(c, "shm.cell_bytes")
    # pioman
    m["pioman.passes"] = _sum_counters(c, "pioman.passes")
    # coll
    m["nmad.coll.count"] = _sum_counters(c, "nmad.coll.count")
    m["nmad.coll.bytes"] = _sum_counters(c, "nmad.coll.bytes")
    m["coll.critpath_share"] = cp["coll"] / cp["wall"] if cp["wall"] else 0.0
    # mpi: recorder counts, plus the benchmark's own host-clock spans
    m["mpi.send.count"] = _sum_counters(c, "mpi.send.count")
    m["mpi.recv.count"] = _sum_counters(c, "mpi.recv.count")
    by_kind, run_total, run_self = span_stats(traced["spans"], traced["span_kinds"])
    for call in ("isend", "irecv", "wait"):
        durs = [t1 - t0 for t0, t1 in by_kind[call]]
        m[f"mpi.{call}.host_ns.p50"], n = percentile(durs, 0.50)
        m[f"mpi.{call}.host_ns.p99"], _ = percentile(durs, 0.99)
        m[f"mpi.{call}.host_ns.n"] = n
    m["host.cluster_ctor_us.p50"], _ = percentile(
        [(t1 - t0) / 1e3 for t0, t1 in by_kind["cluster_ctor"]], 0.50)
    m["host.run_self_share"] = run_self / run_total if run_total else 0.0
    # obs: critical path (virtual) and the cost of tracing (host)
    for k in ("compute", "wire", "sw", "blocked"):
        m[f"critpath.{k}_s"] = cp[k]
    m["obs.trace_wall_ratio"] = (median([p["wall_s"] for p in traced_passes])
                                 / median([p["wall_s"] for p in untraced_passes]))
    m["obs.trace_rss_ratio"] = (median([p["peak_rss_mb"] for p in traced_passes])
                                / median([p["peak_rss_mb"] for p in untraced_passes]))
    m["obs.records"] = traced["records"]
    return m
