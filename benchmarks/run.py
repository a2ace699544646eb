"""oscispec benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep_deep --seed 1 --seconds 20 --trace 0

One caller runs one item at a time; the next item starts when the previous
one has finished.  The caller goes round the workload's pool of items until
the items have taken ``--seconds``; the end-to-end metrics cover the whole
rounds, so every run weighs every pool item alike.  ``--trace 0`` times the
workload and prints the end-to-end metrics; ``--trace 1`` runs the same
items untraced and then traced, and prints the per-layer metrics and the
tracing overhead.  Every item's output
is checked; a failed check or an exception counts the item as failed and the
run goes on.  The last line of standard output is the result as JSON; the
line before it is a report (inputs digest, environment, tail percentile,
raw times, failures, self time per layer), also written under benchmarks/.out/.

End-to-end times are scaled to a fixed host speed (see bench_speed.py): a
reference loop is timed between items and around each set-up probe, and each
time is multiplied by REFERENCE_S over the reference loop's duration around
it.  The unscaled values are in the report under "raw".

BLAS and OpenMP pools are pinned to one thread before numpy loads, the run
and its child processes are pinned to one CPU, and the package is imported
from src/ of this checkout, not from site-packages.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_inputs as inputs  # noqa: E402
from bench_speed import HostSpeed  # noqa: E402
from bench_trace import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

# Least wall time between two reference-loop samples in a closed loop.
SPEED_INTERVAL_S = 0.3

# Percentile reported as item_tail_ms, fixed per workload so that runs with
# slightly different item counts report the same statistic.  Each is the
# highest of 99/95/90/75/50 that leaves at least 10 items beyond it at the
# item count the whole rounds of a 20 s run hold; scan_batch and cli_cold
# complete too few items for that and report p75 with the count beyond it
# stated.
TAIL_PERCENTILE = {"sweep_deep": 90, "scan_batch": 75, "asym_batch": 90, "cli_cold": 75}

NULL = NullTracer()


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def import_oscispec() -> float:
    """Import the package from this checkout's src/ and return the import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import oscispec

    elapsed = time.perf_counter() - start
    if Path(oscispec.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"oscispec imported from {oscispec.__file__}, not from {SRC}")
    return elapsed


def setup_in_child(workload: str, seed: int) -> int:
    """The body of one set-up probe: import, generate inputs, build potentials."""
    import_s = import_oscispec()
    from workloads import WORKLOADS

    WORKLOADS[workload](ROOT, inputs.generate(workload, seed), NULL)
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> tuple[float, float, float]:
    """Wall time from launching a fresh interpreter to its inputs being ready,
    the child's import time, and the host-speed scale around the probe."""
    speed.sample()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if code != 0 or not line:
        raise RuntimeError("set-up probe failed")
    speed.sample()
    return elapsed, json.loads(line)["import_s"], speed.scale(start, start + elapsed)


class Loop:
    """Per-item indices, start times, latencies and CPU seconds of one closed
    loop, and its failures."""

    def __init__(self) -> None:
        self.indices: list[int] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.failures: list[str] = []


def cpu_seconds(children: bool) -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if children else (resource.RUSAGE_SELF,):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_item(wl, i: int, tr, loop: Loop, probe: bool = False) -> None:
    """Time one item, then (untimed) probe it when tracing and check its output."""
    wl.before(i, tr)
    c0 = cpu_seconds(wl.children)
    t0 = time.perf_counter()
    try:
        with tr.span("bench.item"):
            out = wl.run(i, tr)
    except Exception as exc:  # a raising item is a failed item, not a failed run
        problems = [f"raised {type(exc).__name__}: {exc}"]
    else:
        problems = None
    loop.starts.append(t0)
    loop.latencies.append(time.perf_counter() - t0)
    loop.cpu.append(cpu_seconds(wl.children) - c0)
    loop.indices.append(i)
    if problems is None:
        try:
            if probe:
                wl.probe(i, out, tr)
            problems = wl.check(i, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        loop.failures.append(f"{wl.name} item {i}: " + "; ".join(problems))


def closed_loop(wl, seconds: float, speed: HostSpeed) -> Loop:
    """Run the pool in order, round and round, until the items have taken
    `seconds`, sampling the host speed between items and once at the end."""
    loop = Loop()
    busy = 0.0
    while busy < seconds:
        speed.sample_if_due()
        run_item(wl, len(loop.indices) % len(wl.items), NULL, loop)
        busy += loop.latencies[-1]
    speed.sample()
    return loop


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timings(workload: str, latencies: list[float], cpu: list[float], setup: list[float]) -> dict:
    n = len(latencies)
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": n / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": percentile(latencies, TAIL_PERCENTILE[workload]) * 1e3,
        "cpu_per_item_ms": sum(cpu) / n * 1e3,
    }


def end_to_end(workload: str, wl, loop: Loop, speed: HostSpeed, setup: list[tuple], report: dict) -> dict:
    """The end-to-end metrics over the loop's whole rounds of the pool (all of
    it if not one round finished), from host-speed-scaled times; raw ones go
    to the report."""
    rounds = len(loop.latencies) // len(wl.items)
    n = rounds * len(wl.items) or len(loop.latencies)
    starts, raw, raw_cpu = loop.starts[:n], loop.latencies[:n], loop.cpu[:n]
    scales = [speed.scale(t0, t0 + dt) for t0, dt in zip(starts, raw)]
    latencies = [dt * k for dt, k in zip(raw, scales)]
    cpu = [c * k for c, k in zip(raw_cpu, scales)]
    p = TAIL_PERCENTILE[workload]
    tail = percentile(latencies, p)
    report["rounds"] = {"pool": len(wl.items), "whole": rounds, "items_after": len(loop.latencies) - n}
    report["tail"] = {
        "percentile": p,
        "samples": len(latencies),
        "beyond": sum(t > tail for t in latencies),
    }
    report["host_speed"] = speed.summary()
    report["raw"] = timings(workload, raw, raw_cpu, [wall for wall, _, _ in setup])
    scaled = timings(workload, latencies, cpu, [wall * k for wall, _, k in setup])
    units = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "cpu_per_item_ms": "ms"}
    metrics = {name: metric(value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = metric(peak_rss_mb(wl.children), "MiB")
    return metrics


def per_layer(tr: Tracer, import_times: list[float], untraced: Loop, traced: Loop, report: dict) -> dict:
    def span_ms(name: str) -> float:
        return statistics.median(tr.durations(name)) * 1e3

    counts = tr.counts
    import_s = statistics.median(import_times)
    untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
    report["bases"] = {
        "solver.converged_frac": {"solves": len(counts["solver.converged"])},
        "cli.import_share": {"cli_process_p50_s": span_ms("cli.process") / 1e3, "calls": len(tr.durations("cli.process"))},
        "trace.overhead_frac": {"untraced_item_s": untraced_s, "traced_item_s": traced_s, "items": len(traced.indices)},
    }
    overhead = (traced_s - untraced_s) / untraced_s
    return {
        "import.oscispec_s": metric(import_s, "s"),
        "config.load_ms": metric(span_ms("config.load"), "ms"),
        "potentials.eval_fast_ns_per_point": metric(
            statistics.median(counts["potentials.eval_fast_ns_per_point"]), "ns"
        ),
        "solver.find_ms": metric(span_ms("solver.find"), "ms"),
        "solver.mismatch_evals": metric(statistics.mean(counts["solver.mismatch_evals"]), "count"),
        "solver.rk4_steps": metric(statistics.mean(counts["solver.rk4_steps"]), "count"),
        "solver.rk4_ns_per_step": metric(statistics.median(counts["solver.rk4_ns_per_step"]), "ns"),
        "solver.grid_ms": metric(statistics.median(counts["solver.grid_ms"]), "ms"),
        "solver.scan_ms": metric(span_ms("solver.scan"), "ms"),
        "solver.scan_kappas_per_s": metric(inputs.SCAN_SAMPLES / (span_ms("solver.scan") / 1e3), "1/s"),
        "solver.newton_ms": metric(span_ms("solver.newton"), "ms"),
        "solver.disk_ms": metric(span_ms("solver.disk"), "ms"),
        "solver.converged_frac": metric(statistics.mean(counts["solver.converged"]), "ratio"),
        "solver.max_remainder_ratio": metric(max(counts["solver.remainder_ratio"]), "ratio"),
        "asymptotics.k2_poly_ms": metric(span_ms("asymptotics.k2_poly"), "ms"),
        "asymptotics.k2_smooth_ms": metric(span_ms("asymptotics.k2_smooth"), "ms"),
        "asymptotics.k2_agreement_max": metric(max(counts["asymptotics.k2_agreement"]), "ratio"),
        "asymptotics.keps_ms": metric(span_ms("asymptotics.keps"), "ms"),
        "averaging.profile_product_ms": metric(span_ms("averaging.profile_product"), "ms"),
        "averaging.panel_nodes": metric(statistics.mean(counts["averaging.panel_nodes"]), "count"),
        "averaging.decay_fit_ms": metric(span_ms("averaging.decay_fit"), "ms"),
        "gauge.build_ms": metric(span_ms("gauge.build"), "ms"),
        "gauge.residual_ms": metric(span_ms("gauge.residual"), "ms"),
        "cli.main_ms": metric(span_ms("cli.main"), "ms"),
        "cli.import_share": metric(import_s / (span_ms("cli.process") / 1e3), "ratio"),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }


def pin_to_one_cpu() -> tuple[int, int]:
    """Keep this process and its children on one CPU, so that the reference
    loop and the items run on the same core.  Returns (cpu, CPUs allowed before)."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(allowed)


def environment(cpu: int, nproc: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def self_time_report(tr: Tracer, items: int) -> dict:
    return {
        layer: {"self_ms_per_item": entry["self_s"] / items * 1e3, "spans": entry["spans"]}
        for layer, entry in sorted(tr.self_times().items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 and not args.setup_probe:
        return fail("--seconds must be positive")

    try:
        if args.setup_probe:
            return setup_in_child(args.workload, args.seed)
        cpu, nproc = pin_to_one_cpu()
        import_oscispec()
    except ImportError as exc:
        return fail(f"cannot import oscispec from {SRC}: {exc}")

    from workloads import CENSUS, OUT_DIR, WORKLOADS

    items = inputs.generate(args.workload, args.seed)
    speed = HostSpeed(SPEED_INTERVAL_S)
    try:
        probes = [measure_setup(args.workload, args.seed, speed) for _ in range(SETUP_REPEATS)]
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"set-up probe: {exc}")

    tr = Tracer() if args.trace else NULL
    wl = WORKLOADS[args.workload](ROOT, items, tr)
    wl.prepare(tr)
    warm = Loop()
    run_item(wl, 0, NULL, warm)  # fills lru caches and first-call state before timing

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": inputs.digest(items),
        "pool": len(items),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(cpu, nproc),
    }
    loops = [warm]
    if not args.trace:
        loop = closed_loop(wl, args.seconds, speed)
        loops.append(loop)
        metrics = end_to_end(args.workload, wl, loop, speed, probes, report)
    else:
        untraced = closed_loop(wl, args.seconds / 2.0, speed)
        traced = Loop()
        for k, i in enumerate(untraced.indices):
            tr.item = k
            run_item(wl, i, tr, traced, probe=True)
        loops += [untraced, traced]
        tr.item = "census"
        for cls, census_items in CENSUS:
            mini = cls(ROOT, census_items, tr)
            mini.prepare(tr)
            census = Loop()
            for i in range(len(census_items)):
                run_item(mini, i, tr, census, probe=True)
            loops.append(census)
        try:
            metrics = per_layer(tr, [imp for _, imp, _ in probes], untraced, traced, report)
        except (statistics.StatisticsError, ValueError, ZeroDivisionError) as exc:
            return fail(f"a per-layer metric has no samples: {exc}")
        report["self_time"] = self_time_report(tr, len(traced.indices))

    attempted = sum(len(lp.indices) for lp in loops)
    failures = [msg for lp in loops for msg in lp.failures]
    failed = len(failures)
    report["attempted"] = attempted
    report["failed"] = failed
    report["failures"] = failures[:20]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.dump(f"{stem}-spans.json")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
