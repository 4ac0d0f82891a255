"""msetdim benchmark: one workload per run, or every workload with --all.

    python3 bench/run.py --workload dense-pipeline --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --all

Run from the repository root; msetdim is imported from ./src.  The last line
of standard output is one JSON object: correct, attempted, failed, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  See
bench/README.md for the workloads, the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from tracing import LAYERS, NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
DIGESTS = BENCH / "digests.json"

# Every BLAS/OpenMP pool in this process and its children gets one thread,
# which is at most nproc on any machine, so numbers measure the program
# rather than the scheduler.  Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS_PER_POOL = "1"

# setup_s is the median of this many set-ups: this process plus fresh ones.
SETUP_SAMPLES = 5

# A single-threaded op stays on one CPU, and on a shared host each CPU's
# speed swings on its own (by up to 1.6x, for seconds to a minute at a time;
# the swings of two CPUs correlated at 0.12 to 0.15 on a 2-vCPU VM).  Moving
# the timed thread to the next usable CPU every ROTATE_S spreads every op
# over all of them, so one CPU's slow spell does not set a run's figures.
ROTATE_S = 0.25

# Per-call medians, in seconds, of the spans with the given name.
PER_CALL = {
    "graphs.generate_s": "graphs.generate",
    "graphs.distance_matrix_s": "graphs.distance_matrix",
    "graphs.diameter_s": "graphs.diameter",
    "graphs.is_connected_s": "graphs.is_connected",
    "signatures.verify_rows_s": "signatures.verify_rows",
    "signatures.verify_cold_s": "signatures.verify_cold",
    "construction.construct_s": "construction.construct",
    "construction.census_s": "construction.census",
    "localization.index_s": "localization.index",
    "localization.observe_s": "localization.observe",
    "localization.candidates_s": "localization.candidates",
    "cli.startup_s": "cli.startup",
    "cli.campaign_s": "cli.campaign",
}
COUNTS = ("graphs.edges", "graphs.bfs_rows_implied", "construction.rounds",
          "construction.verified_vertices", "exact.subsets", "exact.inf_verdicts")


def _median(values) -> float:
    """Median, or 0 when the workload made no such call."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set in MB: this process, or the largest process in its tree."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it; needs 20 ops."""
    if len(times) < 20:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}


def layer_metrics(tracer, counts: dict) -> dict:
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {name: _median(s.duration for s in by_name.get(span, ()))
           for name, span in PER_CALL.items()}

    blocks = by_name.get("graphs.bfs_block", [])
    out["graphs.bfs_row_s"] = _median(s.duration / s.attrs["rows"] for s in blocks)
    # computed: every row scans each of the m edges from both ends
    out["graphs.edges_scanned_per_s"] = _median(
        2 * s.attrs["m"] * s.attrs["rows"] / s.duration for s in blocks)
    out["signatures.verify_vertices_per_s"] = _median(
        s.attrs["n"] / s.duration for s in by_name.get("signatures.verify_rows", []))
    reports = by_name.get("exact.report", [])
    # An op's reports span several (n, p) cells, so time them per op.
    per_op: dict[int, float] = {}
    for s in reports:
        per_op[s.op] = per_op.get(s.op, 0.0) + s.duration
    out["exact.report_s"] = _median(per_op.values())
    busy = sum(s.duration for s in reports)
    out["exact.subsets_per_s"] = sum(s.attrs["subsets"] for s in reports) / busy if busy else 0.0
    out["cli.pool_wait_s"] = _median(
        s.attrs["workers"] * s.duration - s.attrs["trial_ms"] / 1e3
        for s in by_name.get("cli.campaign", []))

    for name in COUNTS:
        out[name] = counts.get(name, 0)
    rounds = counts.get("construction.rounds", 0)
    out["construction.resolving_ratio"] = (
        counts.get("construction.resolving_rounds", 0) / rounds if rounds else 0.0)

    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    ops = [s for s in spans if s.name == "op"]
    per_op_self = {layer: [] for layer in LAYERS}
    for op in ops:
        acc = dict.fromkeys(LAYERS, 0.0)
        stack = list(children.get(op.id, ()))
        while stack:
            s = stack.pop()
            kids = children.get(s.id, ())
            acc[s.layer] += s.duration - sum(k.duration for k in kids)
            stack.extend(kids)
        for layer in LAYERS:
            per_op_self[layer].append(acc[layer])
    for layer in LAYERS:
        layer_spans = [s for s in spans if s.layer == layer]
        out[f"{layer}.self_s"] = _median(per_op_self[layer])
        out[f"{layer}.calls"] = sum(1 for s in layer_spans if s.op == 0)
        out[f"{layer}.errors"] = sum(1 for s in layer_spans if s.error)
    out["trace.overhead_s"] = _median(
        op.duration - sum(k.duration for k in children.get(op.id, ())) for op in ops)
    out["trace.spans_per_op"] = _median(
        sum(1 for s in spans if s.op == op.op) for op in ops)
    return out


@contextmanager
def rotating_cpus(enabled: bool):
    """While active, move this thread round the usable CPUs every ROTATE_S."""
    cpus = sorted(os.sched_getaffinity(0))
    if not enabled or len(cpus) < 2:
        yield []
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        i = 0
        while not stop.wait(ROTATE_S):
            i += 1
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})

    mover = threading.Thread(target=rotate, name="cpu-rotation", daemon=True)
    mover.start()
    try:
        yield cpus
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, cpus)


def run_workload(args) -> int:
    if not (SRC / "msetdim" / "__init__.py").is_file():
        print(f"bench: no msetdim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: THREADS_PER_POOL for var in THREAD_VARS})
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)
    env = dict(os.environ)

    t0 = time.perf_counter()
    import msetdim
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR, env)
    wl.prepare()
    setup_here = time.perf_counter() - t0
    if not Path(msetdim.__file__).resolve().is_relative_to(SRC):
        print(f"bench: msetdim imported from {msetdim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    setups = [setup_here]
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        probe = workloads.run_child(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)], ROOT, env)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed: {probe.stderr.decode()}")
        setups.append(float(probe.stdout.decode().split()[-1]))
    wl.reference()

    tracer = Tracer() if args.trace else NullTracer()
    recorded = json.loads(DIGESTS.read_text())
    expected = recorded["ops"][args.workload] if args.seed == recorded["seed"] else []
    times: list[float] = []
    counts: dict[str, int] = {}
    problems: list[str] = []
    digests: list[str] = []
    failed = digests_checked = 0
    busy = 0.0
    i = 0
    with rotating_cpus(wl.rotate_cpus) as rotated:
        while busy < args.seconds or i == 0:
            gc.collect()
            out = None
            op_problems: list[str] = []
            t = time.perf_counter()
            try:
                with tracer.root("op", i):
                    out = wl.run_op(i, tracer)
            except Exception:
                op_problems = [traceback.format_exc()]
            dt = time.perf_counter() - t
            busy += dt
            times.append(dt)
            if out is not None:
                try:
                    if tracer.enabled:
                        # Repeated calls count toward the run length, so a traced
                        # run lasts about as long as an untraced one.
                        t = time.perf_counter()
                        with tracer.root("substeps", i):
                            wl.substeps(out, tracer)
                        busy += time.perf_counter() - t
                    op_problems = wl.check(out)
                    digests.append(wl.digest(out))
                    if i < len(expected):
                        digests_checked += 1
                        if digests[-1] != expected[i]:
                            op_problems.append(f"output digest {digests[-1]} != recorded {expected[i]}")
                    if i == 0:
                        counts = wl.op_counts(out)
                except Exception:
                    op_problems = [traceback.format_exc()]
            if op_problems:
                failed += 1
                problems.extend(f"op {i}: {p}" for p in op_problems)
            del out
            i += 1

    attempted = i
    if tracer.enabled:
        metrics = layer_metrics(tracer, counts)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / busy,
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb(include_children=args.workload == "cli-campaign"),
        }
    listed = json.loads(SPEC.read_text())["per_layer" if tracer.enabled else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from {SPEC.name}: "
                           f"{sorted(set(metrics) ^ set(units))}")

    run = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": attempted, "busy_s": busy,
        "op_p50_s": statistics.median(times), "op_tail_s": tail(times),
        "setup_samples_s": setups, "digests": digests, "digests_checked": digests_checked,
        "cpus_rotated": rotated,
        "counts": counts, "problems": problems,
    }
    facts = machine_facts()
    report = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({
        "facts": facts, "run": run, "metrics": metrics, "op_times_s": times,
        "spans": tracer.dump() if tracer.enabled else [],
    }, indent=1))
    for p in problems:
        print(p, file=sys.stderr)
    print("# facts " + json.dumps(facts, sort_keys=True))
    print("# run " + json.dumps({k: v for k, v in run.items() if k not in ("problems", "digests")},
                                sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, summarised as one table."""
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds or spec["run_seconds"]
    rows = {}
    for w in spec["workloads"]:
        result = {}
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                    "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result[trace] = {
                "summary": json.loads(lines[-1]),
                "run": json.loads(next(ln for ln in lines if ln.startswith("# run "))[6:]),
            }
        rows[w["name"]] = result

    print(f"seed {args.seed}, {seconds} s per run")
    print(f"{'workload':<16}{'setup_s':>9}{'ops_per_s':>11}{'op_p50_s':>10}"
          f"{'op_tail_s':>22}{'peak_rss_mb':>13}{'failed/attempted':>18}{'trace overhead':>16}")
    summary = {}
    for name, result in rows.items():
        plain, traced = result[0], result[1]
        m = {k: v["value"] for k, v in plain["summary"]["metrics"].items()}
        t = plain["run"]["op_tail_s"]
        tail_txt = f"{t['value']:.4f} (p{t['percentile']:.1f}, n={t['samples']})" if t else "n/a (<20 ops)"
        overhead = traced["run"]["op_p50_s"] / m["op_p50_s"] - 1.0
        fails = f"{plain['summary']['failed'] + traced['summary']['failed']}/" \
                f"{plain['summary']['attempted'] + traced['summary']['attempted']}"
        print(f"{name:<16}{m['setup_s']:>9.3f}{m['ops_per_s']:>11.3f}{m['op_p50_s']:>10.4f}"
              f"{tail_txt:>22}{m['peak_rss_mb']:>13.1f}{fails:>18}{overhead:>15.1%}")
        summary[name] = {"end_to_end": plain["summary"], "op_tail_s": t,
                         "per_layer": traced["summary"], "trace_overhead": overhead}
    print("units: setup_s s, ops_per_s 1/s, op_p50_s s, op_tail_s s, peak_rss_mb MB; "
          "trace overhead = traced op p50 / untraced op p50 - 1")
    out = WORKDIR / "BENCH_baseline.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": seconds, "workloads": summary},
                              indent=1, sort_keys=True))
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("dense-pipeline", "cli-campaign"))
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
