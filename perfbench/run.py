"""period-lab benchmark: timed and traced runs of one workload.

    python3 perfbench/run.py --workload orders|periods|cli|all --seed N \
        --seconds S --trace 0|1

--trace 0 times the workload untraced and reports the end-to-end metrics;
--trace 1 runs a fixed seeded pass four times (untraced and traced in turn)
and reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a full
record (environment, sizes, counts) goes to perfbench/out/.  The run exits
1 when any answer is wrong, and 2 when period_lab's sources are missing.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HELD_OUT_SEED = 7  # not used while tuning; confirms a claim made on other seeds
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "query_ms_p50": "ms",
                    "query_ms_p90": "ms", "peak_rss_mb": "MB", "error_rate": "ratio"}
# error_rate is printed and recorded but left out of the JSON metrics: a
# correct run always reads 0, and a metric stuck at 0 shows no relative
# change.  The JSON's "failed" / "attempted" carry the same figure.
JSON_END_TO_END = tuple(k for k in END_TO_END_UNITS if k != "error_rate")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for span in tracing.SPAN_NAMES:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_s"] = "s"
    names.update({
        "intfactor.factor_integer.cache_hits": "count",
        "intfactor.factor_integer.cache_misses": "count",
        "intfactor.factor_integer.cache_hit_ratio": "ratio",
        "sequences.period_bruteforce.steps": "count",
        "sequences.period_bruteforce.ns_per_step": "ns",
        "period_sets.order_set_bruteforce.polys": "count",
        "period_sets.order_set_bruteforce.us_per_poly": "us",
        "rings.lcm_closure.pairs": "count",
        "ff.mul_ns.prime": "ns", "ff.mul_ns.table": "ns", "ff.mul_ns.coord": "ns",
        "cli.import_s": "s",
        "bench.trace_overhead": "ratio",
    })
    return names


# -- environment ----------------------------------------------------------------------

def _git_commit() -> str:
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


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "commit": _git_commit()}


# -- timed run (end-to-end metrics) -------------------------------------------------------

def setup_sample(wl) -> tuple[float, float]:
    """One set-up in a fresh process: (calibrated, raw wall) seconds."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", wl.name],
                          capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    calibrated, raw = map(float, proc.stdout.split()[-2:])
    return calibrated, raw


def latency_metrics(latencies: list[float], attempted: int) -> dict:
    deciles = statistics.quantiles(latencies, n=10)
    return {"queries_per_s": attempted / sum(latencies),
            "query_ms_p50": deciles[4] * 1000, "query_ms_p90": deciles[8] * 1000}


def timed_run(wl, seed: int, seconds: float) -> dict:
    setup = [setup_sample(wl) for _ in range(SETUP_SAMPLES)]
    import period_lab as pl

    ctx = wl.setup(pl)
    if wl.in_process:
        with speed.SpeedTrack() as track:
            result = _timed_loop(wl, pl, ctx, seed, seconds, setup, track)
    else:
        with wl.session():  # the command server and its children have ended after this
            result = _timed_loop(wl, pl, ctx, seed, seconds, setup, None)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    metrics = result["metrics"]
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    metrics["error_rate"] = result["failed"] / result["attempted"]
    return result


def _timed_loop(wl, pl, ctx, seed: int, seconds: float, setup: list, track) -> dict:
    rng = random.Random(seed)
    walls, spans, cal_walls, failures, attempted, elapsed = [], [], [], [], 0, 0.0
    min_queries = getattr(wl, "MIN_QUERIES", 0)
    # whole blocks only, so every run sees the same mix of sizes
    while elapsed < seconds or attempted < min_queries:
        block, answers = wl.block(pl, ctx, rng), []
        block_start = perf_counter()
        for query in block:
            if wl.in_process:  # timed here, calibrated by the probes around it
                begin = track.begin()
                try:
                    answers.append(wl.run(pl, query))
                except Exception as exc:  # a failed query is counted, not fatal
                    answers.append(exc)
                wall, span = track.end(begin)
                walls.append(wall)
                spans.append(span)
                continue
            start = perf_counter()  # timed and calibrated in a forked child
            try:
                answer, calibrated, wall = wl.run_timed(query)
            except Exception as exc:
                answer = exc
                calibrated = wall = perf_counter() - start
            answers.append(answer)
            walls.append(wall)
            cal_walls.append(calibrated)
        elapsed += perf_counter() - block_start
        attempted += len(block)
        # checked between blocks, so the timed blocks spread over the whole
        # run and a slow spell of the machine weighs less
        failures += workloads.failures(wl, pl, zip(block, answers))
    if wl.in_process:
        cal_walls = [track.calibrate(w, span) for w, span in zip(walls, spans)]
    failed = len(failures)
    return {
        "attempted": attempted, "failed": failed, "failures": failures[:10],
        "describe": wl.describe(ctx),
        "setup_samples_s": [c for c, _ in setup], "timed_wall_s": elapsed,
        "probes": len(track.probes) if track else None,
        "wall_metrics": {"setup_s": statistics.median(r for _, r in setup),
                         **latency_metrics(walls, attempted)},
        "metrics": {"setup_s": statistics.median(c for c, _ in setup),
                    **latency_metrics(cal_walls, attempted)},
    }


# -- traced run (per-layer metrics) ----------------------------------------------------

def _in_process_pass(wl, seed: int, traced: bool, spans_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "pass", wl.name, str(seed),
         "1" if traced else "0", str(spans_path)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_pass(wl, seed: int, traced: bool, spans_path: Path) -> dict:
    import period_lab as pl

    fields = wl.setup(pl)
    rng = random.Random(seed)
    queries = wl.block(pl, fields, rng)[:wl.TRACE_QUERIES]
    layers, work, cache, children, answers = {}, {}, [0, 0], [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        start = perf_counter()
        for i, query in enumerate(queries):
            try:
                if traced:
                    out = Path(tmp) / f"{i}.json"
                    proc = workloads.run_process(
                        [sys.executable, str(HERE / "child.py"), "cli", str(out), str(i),
                         *query.argv], wl.env)
                    if proc.returncode != 0:
                        raise RuntimeError(f"exit {proc.returncode}")
                    answers.append(json.loads(proc.stdout))
                    children.append(json.loads(out.read_text()))
                else:
                    answers.append(wl.run(pl, query))
            except Exception as exc:  # a failed command is counted, not fatal
                answers.append(exc)
        wall = perf_counter() - start
    failed = len(workloads.failures(wl, pl, zip(queries, answers)))
    for child in children:
        for name, entry in tracing.aggregate(child["spans"]).items():
            into = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for key, value in child["work"].items():
            work[key] = work.get(key, 0) + value
        cache = [cache[0] + child["cache"][0], cache[1] + child["cache"][1]]
    if traced:
        spans_path.write_text(json.dumps([c["spans"] for c in children]))
    return {"wall_s": wall, "queries": len(queries), "failed": failed,
            "layers": layers, "work": work, "cache": cache}


def _mul_probe(pl) -> dict[str, float]:
    """ns per F.mul over fixed pairs: prime field, log tables, coordinates."""
    out = {}
    for label, (p, e) in (("prime", (5, 1)), ("table", (2, 8)), ("coord", (2, 13))):
        F = pl.make_field(p, e)
        rng = random.Random(0)
        pairs = [(rng.randrange(1, F.q), rng.randrange(1, F.q)) for _ in range(2000)]
        mul, samples = F.mul, []
        for _ in range(5):
            start = perf_counter()
            for a, b in pairs:
                mul(a, b)
            samples.append((perf_counter() - start) * 1e9 / len(pairs))
        out[f"ff.mul_ns.{label}"] = statistics.median(samples)
    return out


def _import_probe(env) -> float:
    """Wall of importing period_lab.cli minus the wall of a bare interpreter."""
    def wall(code):
        start = perf_counter()
        proc = workloads.run_process([sys.executable, "-c", code], env)
        elapsed = perf_counter() - start
        proc.check_returncode()
        return elapsed

    bare = statistics.median(wall("pass") for _ in range(5))
    return statistics.median(wall("import period_lab.cli") for _ in range(5)) - bare


def work_counts(run: dict) -> dict:
    """The machine-independent part of a pass: calls per layer and work done."""
    return {"calls": {k: v["calls"] for k, v in sorted(run["layers"].items())},
            "work": dict(sorted(run["work"].items())), "cache": run["cache"]}


def traced_run(wl, seed: int) -> dict:
    one_pass = _in_process_pass if wl.in_process else _cli_pass
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.json"
    # untraced and traced passes alternate, so a slow spell of the machine
    # does not land on one side only
    runs = [one_pass(wl, seed, traced, spans_path) for traced in (False, True, False, True)]
    plain, traced = runs[0::2], runs[1::2]
    counts = [work_counts(t) for t in traced]
    import period_lab as pl

    first = traced[0]
    metrics = dict.fromkeys(per_layer_names(), 0)
    for name, entry in first["layers"].items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    hits, misses = first["cache"]
    metrics.update(first["work"])
    steps = first["work"].get("sequences.period_bruteforce.steps", 0)
    polys = first["work"].get("period_sets.order_set_bruteforce.polys", 0)
    walk = first["layers"].get("sequences.period_bruteforce", {"self_s": 0.0})
    enum = first["layers"].get("period_sets.order_set_bruteforce", {"total_s": 0.0})
    metrics.update({
        "intfactor.factor_integer.cache_hits": hits,
        "intfactor.factor_integer.cache_misses": misses,
        "intfactor.factor_integer.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "sequences.period_bruteforce.ns_per_step":
            walk["self_s"] * 1e9 / steps if steps else 0.0,
        "period_sets.order_set_bruteforce.us_per_poly":
            enum["total_s"] * 1e6 / polys if polys else 0.0,
        "bench.trace_overhead":
            sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain),
        **_mul_probe(pl),
    })
    if not wl.in_process:
        metrics["cli.import_s"] = _import_probe(wl.env)
    return {
        "attempted": sum(r["queries"] for r in runs), "failed": sum(r["failed"] for r in runs),
        "counts_repeat": counts[0] == counts[1], "work_counts": counts[0],
        "pass_wall_s": [r["wall_s"] for r in runs],
        "spans_file": str(spans_path.relative_to(ROOT)), "metrics": metrics,
    }


# -- entry point ----------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]()
    result = traced_run(wl, seed) if trace else timed_run(wl, seed, seconds)
    units = per_layer_names() if trace else END_TO_END_UNITS
    keep = units if trace else JSON_END_TO_END
    correct = result["failed"] == 0 and result.get("counts_repeat", True)
    summary = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in keep}}
    record = {"workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
              "seconds": seconds, "trace": int(trace), "environment": environment(),
              **result, "result": summary}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for key, value in result["metrics"].items():
        print(f"{name:8} {key:48} {value:>16.6g} {units[key]}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "period_lab" / "__init__.py").is_file():
        print(f"period_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # compiled bytecode up front, so no timed process pays for compiling
    compileall.compile_dir(str(SRC / "period_lab"), quiet=1)
    if args.workload != "all":
        summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        summary = _run_all(args)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def _run_all(args) -> dict:
    """Each workload in its own process; metrics prefixed by workload name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines or proc.returncode not in (0, 1):
            raise SystemExit(f"{name} run failed with exit code {proc.returncode}")
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return merged


if __name__ == "__main__":
    sys.exit(main())
