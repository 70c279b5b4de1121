#!/usr/bin/env python3
"""Two-clock benchmark of the NewMadeleine/MPICH2 simulator.

    python3 perfbench/run.py --workload {pingpong,cg_s256,ft_a64}
                             --seed N --seconds S --trace {0,1} [--smoke]

Builds perfbench/nmx_perfbench (CMake, Release) from the checkout's sources
into .bench_build (or $CARGO_TARGET_DIR), then runs it one pass per process:

  --trace 0  untraced passes for S seconds; prints the medians of the
             end-to-end host metrics named in BENCHMARK.json (wall_s, cpu_s,
             events_per_s, peak_rss_mb, setup_s), plus each virtual-time
             result with its paper reference. Host times are scaled to a
             nominal host speed: a fixed reference kernel with no simulator
             code in it (nmx_perfbench --reference) runs between passes, and
             the medians are multiplied by the nominal reference time over
             the run's median reference time (perfbench/spec.json
             "host_reference"). On a shared host whose speed drifts by tens
             of percent over minutes this keeps run-to-run medians
             comparable; unscaled figures are printed too.
  --trace 1  alternating untraced and traced passes for S seconds; prints the
             per-layer metrics of BENCHMARK.json, computed from the recorder
             of the first traced pass and the host spans the benchmark
             records around its own calls into the simulator.

Every pass is checked: ping-pong payload bytes, NAS validation, each
virtual-time result against the exact value in perfbench/spec.json, virtual
results and event counts identical across passes with different seeds, and
(traced) the critical path tiling its wall within 1% and, on the NAS
workloads, its wall agreeing with nas_virtual_s within the tolerance of
perfbench/spec.json "critpath_tolerance". The last stdout line is
{"correct", "attempted", "failed", "metrics"}; any failed check makes the
exit code nonzero. --smoke runs reduced sizes and skips the exact-value
comparison (the benchmark's own tests use it).
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import pbstats  # noqa: E402

WORKLOADS = ("pingpong", "cg_s256", "ft_a64")
PASS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_binary():
    """Configure (once) and build nmx_perfbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: simulator sources not found under {ROOT / 'src'}")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    build = ["cmake", "--build", str(build_dir), "--target", "nmx_perfbench", "-j", jobs]
    with open(target / ".perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for attempt in range(2):
            ok = True
            if not (build_dir / "CMakeCache.txt").is_file():
                ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
            ok = ok and subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
            if ok:
                return build_dir / "nmx_perfbench"
            if attempt == 0:  # a stale cache from another source location: start over
                shutil.rmtree(build_dir, ignore_errors=True)
                build_dir.mkdir(parents=True, exist_ok=True)
    log("perfbench: build failed")
    return None


def run_binary(binary, args, what):
    """Run the benchmark binary once in its own process; returns its parsed
    last stdout line or None."""
    # NMX_* variables (collective algorithm, fiber stack size) would change
    # what is measured; every pass runs with the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NMX_")}
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True, text=True, env=env,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {what} timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {what} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {what} printed no record")
        return None


def run_pass(binary, workload, seed, trace, smoke):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    return run_binary(binary, args + (["--smoke"] if smoke else []),
                      f"pass {workload} seed={seed}")


def run_reference(binary):
    rec = run_binary(binary, ["--reference"], "reference kernel")
    return rec["reference_s"] if rec else None


class Checks:
    """Counts checks attempted and failed; failures are logged to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"perfbench: CHECK FAILED: {what}")
        return ok

    def add(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            log(f"perfbench: CHECK FAILED: {failed}/{attempted} {what}")


def check_pass(checks, rec, first, expected, label):
    """Per-pass correctness: payloads, exact virtual results, seed independence."""
    checks.add(rec["checks"], rec["check_failures"], f"{label} payload/validation checks")
    for name, value in rec["virtual"].items():
        if expected is not None:
            checks.check(value == expected[name]["expected"],
                         f"{label} {name} = {value!r}, recorded {expected[name]['expected']!r}")
    if first is not None and first is not rec:
        checks.check(rec["virtual"] == first["virtual"],
                     f"{label} virtual results differ across seeds "
                     f"({rec['virtual']} vs {first['virtual']})")
        checks.check(rec["events"] == first["events"],
                     f"{label} event count differs across seeds "
                     f"({rec['events']} vs {first['events']})")


def host_context(rec):
    h = rec["host"]
    return {"nproc": h["nproc"], "compiler": h["compiler"], "build_type": h["build_type"],
            "cxx_flags": h["cxx_flags"].strip(), "optimized": h["optimized"],
            "python": platform.python_version(), "machine": platform.machine()}


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_virtual(spec_w, first):
    refs = spec_w["paper_reference"]
    for name, value in first["virtual"].items():
        unit = spec_w["virtual"][name]["unit"]
        line = f"  {name:<22} {value!r} {unit} (virtual, gated exactly)"
        if name in refs:
            ref = refs[name]["value"]
            line += f"  paper {ref} {unit}, error {100 * (value - ref) / ref:+.1f}% [info]"
        print(line)


def run_untraced(binary, args, bench, spec, spec_w, checks):
    expected = None if args.smoke else spec_w["virtual"]
    passes = []
    t_start = time.monotonic()
    i = 0
    # The reference kernel runs before the first pass and after each one.
    refs = [run_reference(binary)]
    while not passes or time.monotonic() - t_start < args.seconds or len(passes) < 3:
        rec = run_pass(binary, args.workload, args.seed * 1000 + i, False, args.smoke)
        refs.append(run_reference(binary))
        i += 1
        if checks.check(rec is not None, f"pass {i} ran"):
            passes.append(rec)
            check_pass(checks, rec, passes[0], expected, f"pass {i}")
        elif time.monotonic() - t_start >= args.seconds:
            break
    checks.check(None not in refs, "every reference kernel run completed")
    refs = [r for r in refs if r is not None]
    if not passes or not refs:
        return None, None
    nominal = spec["host_reference"]["nominal_s"]
    scaled, scale = pbstats.host_medians(passes, refs, nominal)
    raw = pbstats.raw_host_series(passes)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {}
    print(f"end-to-end host metrics, {len(passes)} passes in "
          f"{time.monotonic() - t_start:.1f} s; reference kernel median {fmt(pbstats.median(refs))} s "
          f"(IQR/median {pbstats.iqr_spread(refs):.3f}), nominal {nominal} s, scale {scale:.4f}:")
    for name, unit in units.items():
        vals = raw[name]
        metrics[name] = {"value": scaled[name], "unit": unit}
        tail = pbstats.tail_percentile(vals)
        tail = f", p{round(100 * tail[0])} {fmt(tail[1])}" if tail else ""
        how = "not scaled" if name == "peak_rss_mb" else "scaled"
        print(f"  {name:<22} {fmt(scaled[name])} {unit} {how}; unscaled median "
              f"{fmt(pbstats.median(vals))} (n={len(vals)}{tail}, min {fmt(min(vals))}, "
              f"max {fmt(max(vals))}, IQR/median {pbstats.iqr_spread(vals):.3f})")
    print_virtual(spec_w, passes[0])
    return metrics, passes


def run_traced(binary, args, bench, spec, spec_w, checks):
    expected = None if args.smoke else spec_w["virtual"]
    untraced, traced = [], []
    t_start = time.monotonic()
    i = 0
    while not traced or time.monotonic() - t_start < args.seconds:
        seed = args.seed * 1000 + i
        i += 1
        u = run_pass(binary, args.workload, seed, False, args.smoke)
        t = run_pass(binary, args.workload, seed, True, args.smoke)
        if not checks.check(u is not None and t is not None, f"pass pair {i} ran"):
            if time.monotonic() - t_start >= args.seconds:
                break
            continue
        if traced:
            del t["spans"]  # host spans are read from the first traced pass only
        untraced.append(u)
        traced.append(t)
        first = untraced[0]
        check_pass(checks, u, first, expected, f"untraced pass {i}")
        check_pass(checks, t, first, expected, f"traced pass {i}")
        checks.check(t["virtual"] == u["virtual"] and t["events"] == u["events"],
                     f"pass {i}: tracing changed virtual results or the event count")
        checks.check(pbstats.critpath_tiles(t["critpath"]),
                     f"pass {i}: critical-path components do not tile its wall within 1% "
                     f"({t['critpath']})")
        nas_virtual = t["virtual"].get("nas_virtual_s")
        if nas_virtual is not None:
            tol = spec["critpath_tolerance"]
            checks.check(pbstats.critpath_matches(t["critpath"], nas_virtual, tol),
                         f"pass {i}: critical-path wall {t['critpath']['wall']!r} s is not "
                         f"within {tol:.1%} of nas_virtual_s {nas_virtual!r} s")
    if not traced:
        return None, None
    layer = pbstats.layer_metrics(traced[0], untraced, traced)
    metrics = {}
    print(f"per-layer metrics ({len(traced)} traced + {len(untraced)} untraced passes):")
    for m in bench["per_layer"]:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": layer[name], "unit": unit}
        print(f"  {name:<32} {fmt(layer[name])} {unit}")
    cp = traced[0]["critpath"]
    shares = pbstats.critpath_shares(cp)
    print("critical path: wall {!r} s (virtual) = ".format(cp["wall"])
          + " + ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    nas_virtual = traced[0]["virtual"].get("nas_virtual_s")
    if nas_virtual:
        print(f"  critical-path wall / nas_virtual_s = {cp['wall'] / nas_virtual:.4f} "
              f"(checked within {spec['critpath_tolerance']:.1%})")
    for name, budget in spec["trace_budget"].items():
        v = layer[name]
        print(f"  {name} {v:.2f}x, budget <= {budget}x: "
              f"{'within' if v <= budget else 'over'} budget [target, not gated]")
    print_virtual(spec_w, traced[0])
    return metrics, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, no exact-value comparison (self-tests)")
    args = ap.parse_args(argv)

    bench = load_json(ROOT / "BENCHMARK.json")
    spec = load_json(HERE / "spec.json")
    spec_w = spec["workloads"][args.workload]
    binary = build_binary()
    if binary is None:
        return 2

    checks = Checks()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}{' smoke' if args.smoke else ''}")
    if args.trace:
        metrics, passes = run_traced(binary, args, bench, spec, spec_w, checks)
    else:
        metrics, passes = run_untraced(binary, args, bench, spec, spec_w, checks)
    if metrics is None:
        log("perfbench: no pass completed")
        return 1
    host = host_context(passes[0])
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    if not host["optimized"]:
        log("perfbench: refusing an unoptimised build (needs -O2/-O3 and NDEBUG)")
        return 3
    ratio = checks.failed / checks.attempted
    print(f"failed_ops_ratio {ratio:.6g} ({checks.failed}/{checks.attempted} checks)")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
