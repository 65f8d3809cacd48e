"""shiftlab benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Closed loop, one client: run.py runs
one job at a time, each in a fresh child interpreter (child.py), so at most
two processes exist.  It cycles through the workload's job list until
``--seconds`` have passed; after the first pass it skips a job that would
end after that, and the run ends with the first pass that skipped one.

``--trace 0`` runs every job twice in each pass: once with the checkout's
``src`` and once with ``baseline/``, a frozen copy of shiftlab 0.1.0, in
alternating order.  The speed of the shared machine drifts by tens of
percent over minutes; the baseline runs the same jobs through the same kind
of code next to the checkout's, so it gauges that drift.  The run's
``speed`` is the baseline's pass time over its nominal pass time
(``workloads.NOMINAL_PASS_S``), and every reported time is divided by it,
which makes it the time at the nominal machine speed.  The end-to-end
metrics, all of the checkout's jobs:

* ``wall_s``: one pass of the job list, child start-up excluded; the sum over
  jobs of the median job time, divided by ``speed``.
* ``setup_s``: median over every child of spawn-to-ready (interpreter start,
  ``import shiftlab``, inputs generated), divided by ``speed``.
* ``peak_rss_mb``: the largest child ``ru_maxrss`` in a pass (per job the
  median over passes, then the largest job).

The report keeps the unscaled values under ``detail.measured``.

``--trace 1`` alternates untraced and traced passes of the checkout alone
and reports the per-layer metrics from the traced ones (see tracer.py),
unscaled, plus the tracing overhead.  Both modes check every answer; the
last stdout line is the JSON result.  A full report, with sample counts and
tail percentiles, is written to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import ARCHIVES, NOMINAL_PASS_S, WORKLOADS, Job, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
OUT_DIR = ROOT / ".perfbench_runs"
JOB_TIMEOUT_S = 120

# Counts that do not depend on the seed and must repeat exactly between
# traced passes and between runs.
EXACT = (
    ("complexity.run_program", "calls"),
    ("complexity.run_program", "halted"),
    ("complexity.run_program", "steps"),
    ("admissibility.extendable", "calls"),
    ("admissibility.extendable", "accepted"),
    ("core.iter_rect_patterns", "yielded"),
    ("deepshift.save_family", "bytes"),
)
# Counters whose share of the calls is also reported: counter -> ratio name.
RATIOS = {"accepted": "accept_ratio", "halted": "halted_ratio"}


def child_env() -> dict[str, str]:
    """The parent's environment, made hermetic: no thread-pool knob, no
    foreign package path, fixed hashing, single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SHIFTLAB_WORKERS", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def tail(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return {"percentile": p, "value": sorted(values)[math.ceil(p * n / 100) - 1]}


def timing(values: list[float]) -> dict:
    return {"median": statistics.median(values), "samples": len(values), "tail": tail(values),
            "values": values}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, spans_dir: Path):
        self.jobs: tuple[Job, ...] = WORKLOADS[workload]
        self.nominal_pass_s = NOMINAL_PASS_S[workload]
        self.seed = seed
        self.work = work
        self.spans_dir = spans_dir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cost: dict[str, float] = {}  # parent seconds per job (both sides), last run
        self.info: dict | None = None
        self._n = 0

    def spawn(self, spec: dict) -> tuple[float, dict | None, str]:
        """Run child.py; returns (spawn stamp, its result or None, stderr)."""
        self._n += 1
        spec = {"seed": self.seed, "trace": False,
                "result": str(self.work / f"result-{self._n}.json"), **spec}
        t_spawn = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(spec)],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return t_spawn, None, f"timed out after {JOB_TIMEOUT_S} s"
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.is_file():
            return t_spawn, None, proc.stderr[-2000:]
        result = json.loads(result_path.read_text(encoding="ascii"))
        result_path.unlink()
        return t_spawn, result, proc.stderr

    def warm_up(self) -> None:
        """One untimed child per source tree: compiles the bytecode and
        records which copy of shiftlab the checkout's children import."""
        for src in (BASELINE, SRC):
            _, result, err = self.spawn({"kind": "warmup", "src": str(src)})
            if result is None:
                raise RuntimeError(f"cannot import shiftlab from {src}: {err.strip()}")
        self.info = {k: result[k] for k in ("shiftlab_file", "version", "python")}

    def run_job(self, job: Job, pass_dir: Path, traced: bool, src: Path = SRC) -> dict:
        """Run and check one job.  Operations count towards ``attempted`` and
        ``failed`` only for the checkout; a baseline failure is a problem of
        the benchmark and makes the run incorrect all the same."""
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        spec = {"src": str(src), "trace": traced,
                "spans": str(self.spans_dir / f"{job.name}.json")}
        if job.probes:
            spec.update(kind="probes", probes=job.ops,
                        archives=[str(pass_dir / a) for a in ARCHIVES])
        else:
            argv = [a.format(pass_dir=pass_dir, seed=self.seed) for a in job.argv]
            spec.update(kind="cli", argv=argv, report=str(report))
        t_spawn, result, err = self.spawn(spec)
        checkout = src == SRC
        sample = {"job": job.name, "checkout": checkout}
        if result is None or result["rc"] != job.rc:
            rc = None if result is None else result["rc"]
            failures = [f"exit code {rc}, expected {job.rc}: {err.strip()}"] * job.ops
        else:
            outcome = Outcome(
                report=json.loads(report.read_text(encoding="ascii")) if report.is_file() else None,
                answers=result.get("answers"),
                pass_dir=pass_dir,
                seed=self.seed,
            )
            failures = job.check(outcome)
            if traced:
                steps = result["layers"].get("complexity.run_program", {}).get("steps", 0)
                if steps != job.steps:
                    failures.append(f"run_program steps {steps}, expected {job.steps}")
            sample.update(
                setup_s=result["ready"] - t_spawn,
                wall_s=result["done"] - result["ready"],
                rss_mb=result["maxrss_kb"] / 1024,
                layers=result.get("layers"),
                member_s=result.get("member_s"),
            )
        side = "" if checkout else "baseline "
        self.problems.extend(f"{side}{job.name}: {m}" for m in failures)
        if checkout:
            self.attempted += job.ops
            self.failed += min(len(failures), job.ops)
        return sample

    def run_pass(self, index: int, traced: bool, deadline: float | None = None,
                 paired: bool = False) -> tuple[list[dict], bool]:
        """One pass in a fresh directory.  Paired, every job runs with the
        checkout and the baseline back to back, the side that goes first
        alternating between passes.  With a deadline, a job that would end
        after it is skipped, and so is a job that needs a skipped one.
        Returns the samples and whether every job ran."""
        pass_dir = self.work / f"pass-{index}"
        sides = ((SRC, BASELINE) if index % 2 == 0 else (BASELINE, SRC)) if paired else (SRC,)
        samples = []
        ran: set[str] = set()
        try:
            for job in self.jobs:
                late = deadline is not None and perf_counter() + self.cost[job.name] > deadline
                if late or not ran.issuperset(job.needs):
                    continue
                t0 = perf_counter()
                for src in sides:
                    side_dir = pass_dir / src.name
                    side_dir.mkdir(parents=True, exist_ok=True)
                    samples.append(self.run_job(job, side_dir, traced, src))
                self.cost[job.name] = perf_counter() - t0
                ran.add(job.name)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return samples, len(ran) == len(self.jobs)

    # -- modes --------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        deadline = perf_counter() + seconds
        samples, complete = self.run_pass(0, False, paired=True)
        passes = 1
        while complete:
            more, complete = self.run_pass(passes, False, deadline, paired=True)
            samples += more
            passes += 1
        sides = {
            side: {
                job.name: [s for s in samples
                           if s["job"] == job.name and s["checkout"] == side and "wall_s" in s]
                for job in self.jobs
            }
            for side in (True, False)
        }
        if not all(ss for per_job in sides.values() for ss in per_job.values()):
            return {}, {"passes_started": passes}
        per_job = sides[True]
        wall = {name: timing([s["wall_s"] for s in ss]) for name, ss in per_job.items()}
        base = {name: timing([s["wall_s"] for s in ss]) for name, ss in sides[False].items()}
        rss = {name: statistics.median(s["rss_mb"] for s in ss) for name, ss in per_job.items()}
        setups = [s["setup_s"] for ss in per_job.values() for s in ss]
        measured = {
            "wall_s": sum(w["median"] for w in wall.values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss.values()),
            "baseline_wall_s": sum(b["median"] for b in base.values()),
        }
        speed = measured["baseline_wall_s"] / self.nominal_pass_s
        metrics = {
            "wall_s": measured["wall_s"] / speed,
            "setup_s": measured["setup_s"] / speed,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        detail = {
            "passes_started": passes,
            "speed": speed,
            "nominal_pass_s": self.nominal_pass_s,
            "measured": measured,
            "jobs": wall,
            "baseline_jobs": base,
            "rss_mb": rss,
            "setup_s": timing(setups),
        }
        return metrics, detail

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        deadline = perf_counter() + seconds
        plain: list[float] = []
        traced: list[list[dict]] = []
        pass_cost = {}
        index = 0
        while True:
            is_traced = len(traced) < len(plain)
            if plain and traced and perf_counter() + pass_cost[is_traced] > deadline:
                break
            t0 = perf_counter()
            samples, _ = self.run_pass(index, is_traced)
            pass_cost[is_traced] = perf_counter() - t0
            index += 1
            if any("wall_s" not in s for s in samples):
                return {}, {}
            if is_traced:
                traced.append(samples)
            else:
                plain.append(sum(s["wall_s"] for s in samples))
        layer_passes = [merge_layers(p) for p in traced]
        for i, lp in enumerate(layer_passes[1:], 1):
            for name, field in EXACT:
                a = layer_passes[0].get(name, {}).get(field, 0)
                b = lp.get(name, {}).get(field, 0)
                if a != b:
                    self.problems.append(f"{name}.{field}: {a} in traced pass 1, {b} in pass {i + 1}")
        traced_wall = [sum(s["wall_s"] for s in p) for p in traced]
        member_ms = [1000 * d for p in traced for s in p for d in (s["member_s"] or [])]
        metrics = layer_metrics(layer_passes, member_ms)
        metrics["trace.overhead_ratio"] = statistics.median(traced_wall) / statistics.median(plain)
        detail = {
            "untraced_pass_s": plain,
            "traced_pass_s": traced_wall,
            "member_ms": timing(member_ms) if member_ms else None,
            "layers": layer_passes,
        }
        return metrics, detail


def merge_layers(samples: list[dict]) -> dict:
    """Sum per-function statistics over the jobs of one pass."""
    out: dict[str, dict] = {}
    for s in samples:
        for name, stat in (s["layers"] or {}).items():
            acc = out.setdefault(name, {})
            for field, value in stat.items():
                acc[field] = acc.get(field, 0) + value
    return out


def layer_metrics(passes: list[dict], member_ms: list[float]) -> dict:
    """Every ``<module>.<function>.<stat>`` of the traced passes, as the
    median over passes (counts are identical between passes, which the
    caller checks), plus the derived ratios and probe latency percentiles.
    A function that was never called has no entry."""
    names = {f"{fn}.{field}" for p in passes for fn, stat in p.items() for field in stat}
    metrics = {}
    for name in sorted(names):
        fn, _, field = name.rpartition(".")
        metrics[name] = statistics.median(p.get(fn, {}).get(field, 0) for p in passes)
    for name, value in list(metrics.items()):
        fn, _, field = name.rpartition(".")
        if field in RATIOS and metrics[f"{fn}.calls"]:
            metrics[f"{fn}.{RATIOS[field]}"] = value / metrics[f"{fn}.calls"]
    if member_ms:
        metrics["deepshift.member.p50_ms"] = statistics.median(member_ms)
        member_tail = tail(member_ms)
        if member_tail:
            metrics["deepshift.member.tail_ms"] = member_tail["value"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"run.py: no shiftlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    spans_dir = OUT_DIR / f"spans-{args.workload}"
    spans_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    bench = Bench(args.workload, args.seed, work, spans_dir)
    try:
        bench.warm_up()
        if args.trace:
            metrics, detail = bench.measure_traced(args.seconds)
        else:
            metrics, detail = bench.measure(args.seconds)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bench.failed == 0 and not bench.problems and bool(metrics)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: metrics.get(name, 0.0) for name in units}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **bench.info,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "error_rate": bench.failed / bench.attempted,
        "problems": bench.problems[:50],
        "metrics": reported,
        "all_metrics": metrics,
        "detail": detail,
    }
    report_path = OUT_DIR / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="ascii")
    for line in bench.problems[:20]:
        print(f"run.py: FAIL {line}", file=sys.stderr)
    print(f"run.py: report in {report_path}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
