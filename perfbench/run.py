"""motzkinlab benchmark: time the package from outside, as a user would.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run imports motzkinlab from the checkout's ``src/`` (and exits with code 2
when it is not there), builds the workload's jobs from the seed, and
repeats the whole job list for ``--seconds`` seconds.  One process drives the
load; numpy/BLAS thread pools are capped at the number of usable CPUs.  Every
job's output is checked outside the timed region; a job fails on an
exception, a nonzero exit code or a failed check, and a failure never stops
the run.

``--trace 0`` passes run the real modules and report the end-to-end metrics:

* ``wall_s``      median seconds to run the job list once
* ``point_us.p50``/``point_us.p90``  microseconds per point query, from block means
* ``cli_s``       median seconds per pass inside ``motzkinlab.cli.main``
* ``setup_s``     median seconds for a fresh interpreter to import
                  ``motzkinlab`` and ``motzkinlab.cli`` (one untimed warm-up start)
* ``peak_rss_mb`` peak resident memory of the run's process

The machine is shared: each CPU switches on its own between a fast and a
slow state (about 1.5x apart) every few seconds.  So every timed call runs on
the CPU that a short fixed speed probe finds fastest just before it, and its
seconds are rescaled by the ratio of the probe's reference time to its time
around the call: the times are seconds at the machine's full speed.  Point
percentiles use only the blocks timed at full speed.  Raw medians are in
the report and the record.

``--trace 1`` alternates untraced passes with traced ones (see ``spans.py``)
and reports per-module metrics from the traced passes, averaged per pass,
plus the tracing overhead and the share of the traced time the spans cover.

The last line of standard output is one JSON object with ``correct`` (no
check found a wrong output), ``attempted`` and ``failed`` (jobs, over all
passes) and ``metrics``.  The lines before it list every metric with its
unit, the tail percentile and sample count of each timing, ``failed_frac``,
the failures, the seed and the machine.  The same record is written to
``.perfbench-out/<workload>-seed<seed>-trace<trace>.json``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_STARTS = 9
# Seconds the speed probe takes when the machine runs at full speed (Intel
# Xeon, 2 vCPUs, Python 3.11, numpy 2.4); timings are rescaled to that speed.
PROBE_REFERENCE_S = 0.0026
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    cli_s: float = 0.0
    point_us: "list[tuple[float, float]]" = field(default_factory=list)  # (us, probe)
    attempted: int = 0
    errors: "list[tuple[str, str]]" = field(default_factory=list)
    wrong: "list[tuple[str, str]]" = field(default_factory=list)
    cli_rows: int = 0
    cli_bytes: int = 0
    trace: "dict | None" = None


class SpeedProbe:
    """A fixed mix of interpreter, short-vector and long-vector numpy work.

    The mix follows the package's own: bytecode and small ints, ``np.dot`` on
    short slices as in the convolution engine, and elementwise passes over a
    long array as in the digit kernels.  It allocates nothing, so its
    duration tracks only how fast the machine runs at the moment.
    """

    def __init__(self, cpus: "set[int]") -> None:
        import numpy as np

        self._cpus = sorted(cpus)
        self._np = np
        self._short = np.arange(600, dtype=np.int64)
        self._long = np.arange(50_000, dtype=np.int64)
        self._work = np.empty_like(self._long)

    def __call__(self) -> float:
        np, short, work = self._np, self._short, self._work
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        for n in range(300, 600):
            np.dot(short[:n], short[n - 1::-1])
        np.copyto(work, self._long)
        for _ in range(4):
            np.multiply(work, 3, out=work)
            np.add(work, 1, out=work)
            np.remainder(work, 1_000_003, out=work)
        return time.perf_counter() - start

    def timed(self, call) -> "tuple[object, float, float, float]":
        """``call()``'s result, its raw seconds, the same rescaled to
        reference speed, and the slower of the two probe times around it.

        The machine is shared, and each CPU switches independently between
        a fast and a slow state every few seconds.  The call runs on the CPU
        the probe finds fastest just before it, and the probe there just
        before and just after the call measures the speed the call ran at.
        """
        before = float("inf")
        for cpu in self._cpus:
            os.sched_setaffinity(0, {cpu})
            seconds = self()
            if seconds < before:
                before, fastest = seconds, cpu
        os.sched_setaffinity(0, {fastest})
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        after = self()
        return (result, elapsed, elapsed * 2 * PROBE_REFERENCE_S / (before + after),
                max(before, after))


def full_speed(samples: "list[tuple[float, float]]") -> "list[float]":
    """The values measured while the machine ran at full speed.

    The machine switches between a fast and a slow state (about 1.4x apart
    for the probe).  A sample counts as full speed when the slower probe
    around it is within 15% of the run's fast probe level (its 5th
    percentile).  With fewer than 20 such samples, all samples are used.
    """
    fast_level = percentile([probe for _, probe in samples], 5)
    fast = [value for value, probe in samples if probe <= 1.15 * fast_level]
    return fast if len(fast) >= 20 else [value for value, _ in samples]


def percentile(samples: "list[float]", p: float) -> float:
    """Linear-interpolated percentile of the samples (0 <= p <= 100)."""
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def timing_summary(samples: "list[float]") -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    summary = {"median": statistics.median(samples), "samples": len(samples),
               "tail_percentile": None, "tail": None}
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            summary["tail_percentile"] = p
            summary["tail"] = percentile(samples, p)
            break
    return summary


def load_package() -> dict:
    """Import motzkinlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("motzkinlab")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"motzkinlab imported from {package.__file__}, not {SRC}")
    return {short: importlib.import_module(f"motzkinlab.{short}") for short in spans.MODULES}


def measure_setup(env: dict, probe: SpeedProbe) -> "list[tuple[float, float]]":
    """Wall seconds, raw and rescaled, of fresh interpreters that import
    motzkinlab and its CLI."""
    command = [sys.executable, "-c", "import motzkinlab, motzkinlab.cli"]
    subprocess.run(command, env=env, check=True)
    return [probe.timed(lambda: subprocess.run(command, env=env, check=True))[1:3]
            for _ in range(SETUP_STARTS)]


def machine_info(nproc: int) -> dict:
    info = {"nproc": nproc, "cpu_model": platform.processor() or None, "cache": None,
            "python": platform.python_version(), "numpy": None,
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and not info["cpu_model"]:
                    info["cpu_model"] = value.strip()
                elif key == "cache size" and info["cache"] is None:
                    info["cache"] = value.strip()
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        info["numpy"] = numpy.__version__
    return info


def run_pass(workload, jobs, modules: dict, probe: SpeedProbe,
             tracer: "spans.Tracer | None") -> PassResult:
    """Run every job once; time each call, then check its output untimed."""
    result = PassResult(traced=tracer is not None)
    api = spans.traced_api(modules, tracer) if tracer else spans.plain_api(modules)
    workload.start_pass()
    for job in jobs:
        if job.kind == "cli":
            job.out_path.unlink(missing_ok=True)

        def call(job=job):
            try:
                return job.run(api), None
            except Exception as exc:  # a failed job is counted, never fatal
                return None, f"{type(exc).__name__}: {exc}"

        with spans.patched(modules, api, tracer) if tracer else nullcontext():
            (out, error), raw, elapsed, slowest = probe.timed(call)
        result.attempted += 1
        result.raw_wall_s += raw
        result.wall_s += elapsed
        if job.kind == "cli":
            result.cli_s += elapsed
            if job.out_path.exists():
                data = job.out_path.read_bytes()
                result.cli_bytes += len(data)
                result.cli_rows += max(0, data.count(b"\n") - job.header_lines)
        elif job.kind == "point":
            result.point_us.append((elapsed / job.queries * 1e6, slowest))
        if error is not None:
            result.errors.append((job.name, error[:300]))
            continue
        if job.keep:
            workload.pass_outputs[job.name] = out
        try:
            job.check(out)
        except CheckFailed as exc:
            result.wrong.append((job.name, str(exc)[:300]))
        except Exception as exc:  # a crashing check is a failed check
            result.wrong.append((job.name, f"check raised {type(exc).__name__}: {exc}"[:300]))
        del out
    if tracer is not None:
        result.trace = spans.summarize(tracer)
    return result


def layer_metrics(result: PassResult) -> dict:
    """Per-module numbers of one traced pass, keyed by per_layer metric name."""
    summary = result.trace
    modules, counts = summary["modules"], summary["counts"]
    tags: "dict[str, list[float]]" = {}
    for key, entry in summary["functions"].items():
        if key.endswith("]"):
            tag = key[key.index("[") + 1:-1]
            calls_time = tags.setdefault(tag, [0, 0.0])
            calls_time[0] += entry["calls"]
            calls_time[1] += entry["total_s"]

    def tag_time(tag):
        return tags.get(tag, [0, 0.0])[1]

    def per_call(tag, scale):
        calls, seconds = tags.get(tag, [0, 0.0])
        return seconds / calls * scale if calls else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    metrics = {}
    for short in spans.MODULES:
        metrics[f"{short}.calls"] = modules[short]["calls"]
        metrics[f"{short}.self_s"] = modules[short]["self_s"]
    terms = counts.get("engines.terms", 0)
    indices = counts.get("bulk.indices", 0)
    metrics.update({
        "engines.failed": modules["engines"]["failed"],
        "engines.mod_stream.small_m.s": tag_time("small_m"),
        "engines.mod_stream.large_m.s": tag_time("large_m"),
        "engines.exact_stream.s": tag_time("exact_stream"),
        "engines.exact_sum.s": tag_time("exact_sum"),
        "engines.cross_validate.s": tag_time("cross_validate"),
        "engines.terms": terms,
        "engines.terms_per_s": rate(terms, modules["engines"]["self_s"]),
        "classify.failed": modules["classify"]["failed"],
        "classify.small_n.ns_per_call": per_call("small_n", 1e9),
        "classify.huge_n.ns_per_call": per_call("huge_n", 1e9),
        "checks.indices_checked": counts.get("checks.indices_checked", 0),
        "checks.mismatches": counts.get("checks.mismatches", 0),
        "bulk.indices": indices,
        "bulk.indices_per_s": rate(indices, modules["bulk"]["self_s"]),
        "bulk.bytes_in.computed": 8 * indices,
        "density.swept_indices": counts.get("density.swept_indices", 0),
        "density.exact_counts": tags.get("exact_count", [0, 0.0])[0],
        "density.exact_count.us_per_call": per_call("exact_count", 1e6),
        "cli.rows": result.cli_rows,
        "cli.bytes_out": result.cli_bytes,
        "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0) + modules["cli"]["failed"],
        "trace.coverage": summary["covered_s"] / result.raw_wall_s if result.raw_wall_s else 0.0,
    })
    return metrics


def measure(workload_name: str, seed: int, seconds: int, trace: int, benchmark: dict) -> int:
    if not (SRC / "motzkinlab" / "__init__.py").is_file():
        print(f"error: no motzkinlab sources under {SRC}", file=sys.stderr)
        return 2
    allowed = os.sched_getaffinity(0)
    nproc = len(allowed)
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    modules = load_package()
    probe = SpeedProbe(allowed)
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}[workload_name]

    setup_samples = []
    if not trace:
        setup_samples = measure_setup(dict(os.environ, PYTHONPATH=str(SRC)), probe)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        workload = WORKLOADS[workload_name](seed, spans.plain_api(modules), Path(tmp))
        jobs = workload.jobs()
        workload.prepare()
        passes: "list[PassResult]" = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            start = time.perf_counter()
            passes.append(run_pass(workload, jobs, modules, probe,
                                   spans.Tracer() if traced else None))
            took = time.perf_counter() - start
            if trace and len(passes) < 2:
                continue
            if time.perf_counter() + took > deadline:
                break

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    timings = {}
    metrics = {}
    if trace:
        per_pass = [layer_metrics(p) for p in traced_passes]
        for name in per_pass[0]:
            metrics[name] = statistics.fmean(m[name] for m in per_pass)
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced_passes)
                                       - statistics.median(p.wall_s for p in untraced))
    else:
        timings["wall_s"] = timing_summary([p.wall_s for p in untraced])
        point = full_speed([sample for p in untraced for sample in p.point_us])
        timings["point_us"] = timing_summary(point)
        timings["cli_s"] = timing_summary([p.cli_s for p in untraced])
        timings["setup_s"] = timing_summary([scaled for _, scaled in setup_samples])
        timings["raw_wall_s"] = timing_summary([p.raw_wall_s for p in untraced])
        timings["raw_setup_s"] = timing_summary([raw for raw, _ in setup_samples])
        metrics = {
            "wall_s": timings["wall_s"]["median"],
            "point_us.p50": percentile(point, 50),
            "point_us.p90": percentile(point, 90),
            "cli_s": timings["cli_s"]["median"],
            "setup_s": timings["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    expected = [m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]]
    metrics = {name: metrics[name] for name in expected}

    attempted = sum(p.attempted for p in passes)
    errors = [e for p in passes for e in p.errors]
    wrong = [w for p in passes for w in p.wrong]
    failed = len(errors) + len(wrong)
    record = {
        "workload": workload_name, "why": why, "seed": seed, "seconds": seconds,
        "trace": trace, "passes": len(passes), "traced_passes": len(traced_passes),
        "jobs_per_pass": len(jobs), "machine": machine_info(nproc),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "timings": timings,
        "pass_walls_s": [{"traced": p.traced, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s,
                          "cli_s": p.cli_s} for p in passes],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "errors": _tally(errors), "wrong": _tally(wrong),
        "functions": _merge_functions(traced_passes),
    }
    (OUT_DIR / f"{workload_name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_report(record)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _tally(failures: "list[tuple[str, str]]") -> "list[dict]":
    counts: "dict[tuple[str, str], int]" = {}
    for failure in failures:
        counts[failure] = counts.get(failure, 0) + 1
    return [{"job": job, "message": message, "count": count}
            for (job, message), count in counts.items()]


def _merge_functions(traced_passes: "list[PassResult]") -> dict:
    """Per-function span totals, averaged per traced pass."""
    merged: "dict[str, dict]" = {}
    for p in traced_passes:
        for key, entry in p.trace["functions"].items():
            target = merged.setdefault(key, dict.fromkeys(entry, 0))
            for stat, value in entry.items():
                target[stat] += value / len(traced_passes)
    return dict(sorted(merged.items(), key=lambda item: -item[1]["self_s"]))


def _print_report(record: dict) -> None:
    machine = record["machine"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  jobs/pass {record['jobs_per_pass']}")
    print(f"# why: {record['why']}")
    print(f"# machine: nproc {machine['nproc']}, cpu {machine['cpu_model']}, "
          f"cache {machine['cache']}, python {machine['python']}, numpy {machine['numpy']}")
    for name, metric in record["metrics"].items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    for name, t in record["timings"].items():
        tail = (f"p{t['tail_percentile']:g} {t['tail']:.6g}" if t["tail"] is not None
                else "no percentile with ten samples beyond it")
        print(f"#   {name}: median {t['median']:.6g}, {tail}, n={t['samples']}")
    print(f"{'failed_frac':34s} {record['failed_frac']:>16.6g} "
          f"({record['failed']}/{record['attempted']} jobs)")
    for kind, label in (("errors", "error"), ("wrong", "wrong output")):
        for entry in record[kind]:
            print(f"#   {label}: {entry['job']} x{entry['count']}: {entry['message'][:160]}")


def run_all(seed: int, seconds: int, benchmark: dict) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    results = {}
    status = 0
    for workload in benchmark["workloads"]:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", workload["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0 or not lines:
                status = completed.returncode or 1
                continue
            results.setdefault(workload["name"], {})[f"trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in benchmark["workloads"]]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, benchmark)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    return measure(args.workload, args.seed, args.seconds, args.trace, benchmark)


if __name__ == "__main__":
    sys.exit(main())
