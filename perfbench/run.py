"""fedminimax benchmark: repeated seeds of `fedmm run` on fixed workloads.

    python3 perfbench/run.py --workload synthetic-k100 --seed 3 --seconds 20 --trace 0

Runs in one process with numerical libraries held to one thread. The
workload is run once to warm up, then repeated with the same seed until
`--seconds` have passed; each repeat is the full `fedmm run` call sequence
for that seed (config load to summary written), and the metrics are medians
over the repeats. The host's speed drifts, so a fixed reference kernel
(`hostspeed.py`) is timed before, between the phases of, and after every
untraced repeat; each end-to-end time is adjusted to the reference speed
with the probes around its own repeat before the median is taken. With
`--trace 0` the end-to-end metrics are reported; with `--trace 1` untraced
and traced repeats alternate and the per-layer metrics are reported,
including the tracing overhead. Every repeat's outputs are
checked; a repeat that raises or fails a check counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in turn and prefixes each metric with `<workload>/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_TIMED = 3  # timed repeats (pairs when tracing) a run makes however short --seconds is


def _import_program():
    """Import fedminimax from this checkout's sources, never from elsewhere."""
    if not (SRC / "fedminimax" / "__init__.py").is_file():
        raise SystemExit(f"error: fedminimax sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedminimax

    if Path(fedminimax.__file__).resolve().parent != SRC / "fedminimax":
        raise SystemExit(f"error: imported fedminimax from {fedminimax.__file__}, not from {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int, workloads) -> str:
    import numpy
    import scipy

    fields = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "seed": seed,
    }
    for w in workloads:
        fields[f"T[{w.name}]"] = w.overrides["algorithm.t"]
    return "env: " + " ".join(f"{k}={v}" for k, v in fields.items())


def _describe(values: list[float]) -> str:
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Warm up, then repeat one seed of the workload for `seconds`; return
    counts, the per-repeat samples and the output verdict."""
    # Imported here, not at the top: numpy must load after main() has set
    # the thread limits, and fedminimax after main() has put src/ on the path.
    import hostspeed
    import layers
    from workloads import check_outputs, csv_digest, run_once

    state = {"attempted": 0, "failed": 0, "problems": [], "digests": set()}
    untraced, speeds, traced, layer_samples = [], [], [], []
    probe = hostspeed.Probe()

    def attempt(with_trace: bool, timed: bool = True) -> None:
        state["attempted"] += 1
        try:
            if with_trace:
                tracer = layers.Tracer()
                with layers.traced(tracer):
                    res = run_once(workload, seed, out_dir)
                summary = tracer.summarize()
            else:
                first = len(probe.samples)
                probe.sample()
                res = run_once(workload, seed, out_dir, between=probe.sample)
                probe.sample()
                speed = hostspeed.speed_factor(probe.samples[first:])
        except Exception:  # a failing seed is a result to count, not a crash
            state["failed"] += 1
            state["problems"].append(f"repeat {state['attempted']} raised")
            traceback.print_exc(file=sys.stderr)
            return
        problems = check_outputs(res.trace, res.csv_path, res.T, res.q)
        state["digests"].add(csv_digest(res.csv_path))
        if problems:
            state["failed"] += 1
            state["problems"].extend(problems)
            return
        if not timed:
            return
        if with_trace:
            traced.append(res)
            layer_samples.append(summary)
        else:
            untraced.append(res)
            speeds.append(speed)

    attempt(False, timed=False)  # warm-up: checked, not timed
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= MIN_TIMED and time.perf_counter() >= deadline:
            break
        attempt(False)
        if trace:
            attempt(True)

    ok = bool(untraced) and not state["problems"] and len(state["digests"]) == 1
    return {**state, "untraced": untraced, "speeds": speeds, "traced": traced, "layers": layer_samples,
            "correct": ok}


def end_to_end_metrics(m: dict) -> dict:
    """Medians over the untraced repeats of times adjusted to the reference
    speed, each with the probes taken around its own repeat."""
    runs, speeds = m["untraced"], m["speeds"]
    samples = {
        "wall_s": ([r.wall_s * f for r, f in zip(runs, speeds)], [r.wall_s for r in runs], "s"),
        "setup_s": ([r.setup_s * f for r, f in zip(runs, speeds)], [r.setup_s for r in runs], "s"),
        "client_steps_per_s": ([r.client_steps_per_s / f for r, f in zip(runs, speeds)],
                               [r.client_steps_per_s for r in runs], "1/s"),
    }
    print(f"host speed factor (reference seconds per raw second) = {_describe(speeds)}")
    out = {}
    for name, (values, raw, unit) in samples.items():
        out[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name} = {out[name]['value']:.6g} {unit} at reference speed ({_describe(values)}); "
              f"raw median {statistics.median(raw):.6g} {unit}")
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    print(f"peak_rss_mb = {out['peak_rss_mb']['value']:.6g} MB (process peak)")
    return out


def per_layer_metrics(m: dict) -> dict:
    import layers

    out = {}
    samples = m["layers"]
    for name in layers.LAYERS:
        for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            out[f"{name}.{key}"] = {"value": statistics.median(s[name][key] for s in samples), "unit": unit}
    share = [s["metrics.record"]["total_s"] / s["algorithms.run"]["total_s"] for s in samples]
    out["metrics.record.share"] = {"value": statistics.median(share), "unit": "fraction"}
    wall = statistics.median(r.wall_s for r in m["traced"])
    overhead = wall - statistics.median(r.wall_s for r in m["untraced"])
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    print(f"per-layer split over {len(samples)} traced repeats (median traced wall {wall:.4g} s):")
    print(f"  {'layer':<28} {'calls':>9} {'total_s':>10} {'self_s':>10} {'total/wall':>10}")
    for name in sorted(layers.LAYERS, key=lambda n: -out[f"{n}.total_s"]["value"]):
        calls, total, own = (out[f"{name}.{k}"]["value"] for k in ("calls", "total_s", "self_s"))
        print(f"  {name:<28} {calls:>9.0f} {total:>10.4f} {own:>10.4f} {total / wall:>10.1%}")
    print(f"metrics.record.share = {out['metrics.record.share']['value']:.4f} fraction")
    print(f"trace.overhead_s = {overhead:.4f} s (median traced wall minus median untraced wall)")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from traced repeats")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # Set before numpy is first imported: the benchmark measures one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")

    print(_environment(args.seed, chosen))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-out-", dir=ROOT) as tmp:
        for w in chosen:
            print(f"== {w.name}: preset {w.preset} with {w.overrides} ({w.why})")
            m = measure(w, args.seed, args.seconds, bool(args.trace), Path(tmp))
            result["correct"] &= m["correct"]
            result["attempted"] += m["attempted"]
            result["failed"] += m["failed"]
            print(f"error_rate = {m['failed'] / m['attempted']:.4g} ({m['failed']} failed of {m['attempted']} attempted)")
            print(f"csv_sha256 = {','.join(sorted(m['digests'])) or 'none'}")
            for problem in m["problems"][:10]:
                print(f"check failed: {problem}")
            if len(m["problems"]) > 10:
                print(f"... and {len(m['problems']) - 10} more failed checks")
            if not m["untraced"] or (args.trace and not m["layers"]):
                continue
            found = per_layer_metrics(m) if args.trace else end_to_end_metrics(m)
            prefix = f"{w.name}/" if len(chosen) > 1 else ""
            result["metrics"].update({prefix + k: v for k, v in found.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
