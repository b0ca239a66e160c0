"""Fixed-seed benchmark of bminimal: one workload per call, one JSON result.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 55 --trace 0

Run from the repository root.  The package is imported from ``src/``; the
run sets itself up, runs rounds of the workload in one closed loop (one
client, one thread) for ``--seconds`` seconds and at least one whole round,
checks every output
with numpy-only code, and prints two JSON lines: a full record (all metrics,
failure reasons, provenance), then the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
run and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, in this process and its children.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import verify  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKLOADS = ("certify", "solve")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cold_import_s() -> float:
    """Wall time of a fresh interpreter importing the package: what every
    ``bmin`` invocation pays before it does any work."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bminimal"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def measure(plan, seconds: float, tracer=None) -> tuple[list, list[float]]:
    """Rounds of the plan's operations until ``seconds`` have passed, at
    least one whole round; returns the per-operation records (op, output,
    error, latency) and each whole round's duration."""
    records, rounds = [], []
    clock = time.perf_counter
    began = clock()
    while True:
        round_began = clock()
        for op in plan.ops:
            if tracer is not None:
                tracer.op = len(records)
            t0 = clock()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a raising call is a failed operation, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            records.append((op, out, err, t1 - t0))
            if rounds and t1 - began >= seconds:
                return records, rounds
        rounds.append(clock() - round_began)
        if clock() - began >= seconds:
            return records, rounds


def best_latencies(records: list) -> dict:
    """The latency of each distinct operation (same call, same inputs): the
    fastest time the run saw for it.  On a shared machine other tenants
    stretch single timings by tens of percent; the minimum over repeats is
    what the program itself costs, and a slower program raises it as much as
    any other statistic.  Rounds repeat every input several times."""
    best: dict = {}
    for op, _, _, latency in records:
        key = (op.kind, op.key)
        best[key] = min(best.get(key, latency), latency)
    return best


def ops_per_s(records: list) -> float:
    """Operations executed over the sum of their latencies: the throughput of
    the run's mix of operations."""
    best = best_latencies(records)
    return len(records) / sum(best[(op.kind, op.key)] for op, _, _, _ in records)


def judge(records, ctx: dict):
    """Run each record's independent check; returns the outcomes."""
    outcomes = []
    for op, out, err, _ in records:
        if err is not None:
            outcomes.append(verify.failed(f"raised {err}"))
            continue
        try:
            outcomes.append(op.check(out, ctx))
        except Exception as exc:  # a check that cannot read the output rejects it
            outcomes.append(verify.failed(f"check raised {type(exc).__name__}: {exc}"))
    return outcomes


def tail(lat: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest latency, at percentile 100 (n - 10) / n.  Below 21 samples that
    percentile would not exceed the median, so the maximum is reported,
    as percentile 100 with 0 samples beyond.  A sample is one distinct
    operation, so the count is fixed by the workload, not by the run's pace."""
    ordered = sorted(lat)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def provenance(args) -> dict:
    import numpy as np

    commit = None   # the benchmark may run from an exported tree
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies")
    except TypeError:
        blas = None
    return {
        "machine": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(records, rounds, outcomes, setup_samples: list[float]) -> tuple[dict, dict]:
    lat = list(best_latencies(records).values())
    tail_s, tail_pct, beyond = tail(lat)
    ratios = [o.quality[0] / o.quality[1] for o in outcomes if o.quality]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ops_per_s(records),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "dist_ratio": statistics.fmean(ratios) if ratios else None,
    }
    extra = {
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
        "samples": len(lat),
        "quality_samples": len(ratios),
        "rounds_s": rounds,
        "setup_s_samples": setup_samples,
    }
    return metrics, extra


def reported(values: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bminimal" / "__init__.py").is_file():
        sys.stderr.write(f"error: package source not found under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record: dict = {"provenance": provenance(args)}
        ctx: dict = {}
        if args.trace == 0:
            setup_samples, import_samples = [], []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                import_samples.append(cold_import_s())
                inputs = workloads.setup(args.workload, args.seed, str(workdir))
                setup_samples.append(time.perf_counter() - t0)
            plan = workloads.plan(args.workload, inputs)
            records, rounds = measure(plan, args.seconds)
            outcomes = judge(records, ctx)
            values, extra = end_to_end(records, rounds, outcomes, setup_samples)
            metrics = reported(values, declared["end_to_end"])
            record.update(extra, cold_import_s=import_samples, plan=plan.notes)
        else:
            tracer = spans.Tracer()
            tracer.install()
            inputs = workloads.setup(args.workload, args.seed, str(workdir))
            tracer.uninstall()
            plan = workloads.plan(args.workload, inputs)
            half = args.seconds / 2
            plain, plain_rounds = measure(plan, half)
            tracer.install()
            try:
                traced, traced_rounds = measure(plan, half, tracer=tracer)
            finally:
                tracer.uninstall()
            records = plain + traced
            outcomes = judge(records, ctx)
            layer = tracer.layer_metrics()
            layer["io.stdout_bytes"] = sum(len(out[1].encode()) for op, out, err, _ in traced
                                           if op.kind == "cli-check" and err is None)
            plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
            layer["trace.ops_per_s_delta"] = plain_rate - traced_rate
            layer["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
            metrics = reported(layer, declared["per_layer"])
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(str(span_file))
            record.update(rounds=len(traced_rounds), spans=len(tracer.start), span_file=str(span_file.relative_to(ROOT)),
                          ops_per_s_untraced=plain_rate, ops_per_s_traced=traced_rate, plan=plan.notes)
        failures = [o.failure for o in outcomes if o.failure]
        record.update(
            fail_frac=len(failures) / len(outcomes),
            undecided_frac=sum(o.undecided for o in outcomes) / len(outcomes),
            failures=failures[:20],
            metrics=metrics,
        )
        print(json.dumps(record, default=str))
        print(json.dumps({
            "correct": not failures,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
