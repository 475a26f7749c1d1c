"""eolab benchmark: seeded batches of CLI jobs, run in-process.

    python3 bench/run.py --workload {enumerate,search,poset,compare,all}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  Each job is an argv list passed to
``eolab.cli.main`` in this process, one job at a time (a closed loop with
one client, no threads).  A pass runs the whole job list; passes repeat
while another one fits in ``--seconds``, each starting with the package's
caches cleared, as a fresh CLI process would.  A short calibration loop
timed between jobs gives the machine's current speed, and job times are
reported at a fixed reference speed.  Outputs are checked against
``reference.py`` after the timed passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time on untraced passes and half on traced ones and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A summary, the
load digest and every failed job go to stderr; the full record, and the
spans of a traced run, go to ``.bench_out/``.  ``--workload all`` runs
each workload in a fresh process, one after another, and prints a table
of their metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

#: A job running longer than this counts as failed and the run moves on.
#: The slowest job that is not a known defect takes about 1.5-1.9 s, 2.7 s
#: when traced, so the limit leaves room for a machine running 2x slower;
#: tracing doubles the limit, as it about doubles eo_leq-bound jobs.
JOB_LIMIT_S = 5.0
SETUP_LAUNCHES = 11
#: Job times are given at the machine speed at which one ``calibrate``
#: loop takes this long, judged from the CALIBRATION_WINDOW samples taken
#: on each side of the job.
CALIBRATION_REF_S = 0.001
CALIBRATION_WINDOW = 5

#: Per-layer metric names, prefix -> suffixes; BENCHMARK.json lists the same.
PER_LAYER = {
    "vm.dovetail": ("calls", "self_s", "rounds", "steps_charged", "halted_inputs", "emitted",
                    "emit_ratio", "truncated"),
    "expressions.evaluate": ("calls", "self_s"),
    "expressions.parse": ("calls", "self_s"),
    "vm.schedule": ("calls", "self_s"),
    "vm.parse_program": ("self_s",),
    "search.witness": ("calls", "self_s"),
    "search": ("nodes_explored", *tracing.STATUSES, "decided_ratio"),
    "poset.build_poset": ("calls", "self_s"),
    "poset": ("hasse_edges",),
    "poset.export": ("self_s",),
    "poset.max_chain": ("self_s",),
    "poset.sample_antichain": ("self_s",),
    "patterns.eo_leq": ("calls", "self_s"),
    "patterns.pattern_of": ("calls", "self_s"),
    "patterns.pairsets": ("calls", "self_s"),
    "patterns.relations": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli": ("stdout_bytes",),
    "oracle.check": ("calls", "self_s"),
    "oracle": ("checked",),
    "trace": ("overhead_s",),
}


class JobTimeout(BaseException):
    """Raised in a job that runs past its time limit.

    A BaseException, so no ``except Exception`` inside the package can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise JobTimeout


def run_job(main, argv: list[str], limit_s: float):
    """(outcome, seconds): ("exit", code, stdout), ("exception", type) or ("timeout",)."""
    out = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            outcome = ("exit", main(argv), None)
    except JobTimeout:
        outcome = ("timeout",)
    except Exception as exc:  # a job must not stop the run; it counts as failed
        outcome = ("exception", type(exc).__name__)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if outcome[0] == "exit":
        outcome = ("exit", outcome[1], out.getvalue())
    return outcome, elapsed


def clear_caches() -> None:
    """Empty every functools cache in the package, as a new process has them."""
    for name, module in list(sys.modules.items()):
        if name == "eolab" or name.startswith("eolab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    A shared machine can change speed by 2x within minutes, and a job's
    time follows it.  A sample taken between jobs tracks that.
    """
    start = time.perf_counter()
    seen: dict = {}
    total = 0
    for i in range(1500):
        key = (i % 17, i * 7 % 13, i ^ 5)
        seen[key] = seen.get(key, 0) + 1
        total += sorted(key)[1] + len(str(i))
    return time.perf_counter() - start


def at_reference_speed(record: dict, key: str) -> list[float]:
    """A pass's job times scaled to the machine speed at which ``calibrate``
    takes CALIBRATION_REF_S, judged by the median of the samples taken
    nearest each job.  A timed-out job keeps the job limit as its time."""
    h, samples = CALIBRATION_WINDOW, record["speed"]
    return [t if outcome[0] == "timeout"
            else t * CALIBRATION_REF_S / statistics.median(samples[max(0, j - h):j + h + 1])
            for j, (t, outcome) in enumerate(zip(record[key], record["outcomes"]))]


def run_pass(jobs: list[dict], tracer: tracing.Tracer | None = None) -> dict:
    import eolab.cli

    start = time.perf_counter()
    clear_caches()
    gc.collect()
    uninstall = tracing.install(tracer) if tracer else None
    outcomes, latencies, cpus, speed = [], [], [], []
    try:
        for job in jobs:
            # Outside the job's timers: collect the last job's garbage and
            # freeze what is left (imports, harness, the package's caches),
            # so each job starts on a clean heap and pays its own collections,
            # as a fresh CLI process does.
            gc.collect()
            gc.freeze()
            speed.append(calibrate())
            if tracer:
                tracer.job = job["id"]
            cpu = time.process_time()
            outcome, elapsed = run_job(eolab.cli.main, job["argv"],
                                       JOB_LIMIT_S * (2 if tracer else 1))
            cpus.append(time.process_time() - cpu)
            if tracer and outcome[0] == "exit":
                tracer.counts["cli.stdout_bytes"] += len(outcome[2].encode())
            outcomes.append(outcome)
            latencies.append(elapsed)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        gc.unfreeze()
        if uninstall:
            uninstall()
    return {"wall": sum(latencies), "cpu": sum(cpus), "elapsed": time.perf_counter() - start,
            "rss_mb": rss_mb,
            "latencies": latencies, "cpus": cpus, "speed": speed, "outcomes": outcomes,
            "tracer": tracer}


def run_passes(jobs: list[dict], budget_s: float, traced: bool = False,
               keep_first: bool = True) -> list[dict]:
    """Whole passes, repeated while the next one is expected to fit the budget.

    Only the first pass of a run keeps its outputs in full, for the
    checker; the others keep a digest of each.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1]["elapsed"] <= budget_s:
        record = run_pass(jobs, tracing.Tracer() if traced else None)
        if passes or not keep_first:
            record["outcomes"] = [_digest_outcome(o) for o in record["outcomes"]]
        passes.append(record)
    return passes


def _digest_outcome(outcome):
    if outcome[0] != "exit":
        return outcome
    return ("exit", outcome[1], hashlib.sha256(outcome[2].encode()).hexdigest())


def grade(jobs: list[dict], passes: list[dict], sources: dict) -> tuple[int, int, list]:
    """(failed, unexpected, problems) over every attempt of every pass.

    A job fails when it raises, times out, exits 1 outside ``check`` or
    returns a wrong answer.  A failure is unexpected unless it is a job of
    the known-defect share that raised or timed out; a wrong answer is
    always unexpected.  The first pass is checked against the reference,
    and every later pass must reproduce it byte for byte.
    """
    first = passes[0]["outcomes"]
    reasons = [reference.check(job, o[1], o[2], sources) if o[0] == "exit" else None
               for job, o in zip(jobs, first)]
    expected = [_digest_outcome(o) for o in first]
    problems = [(job, why or " ".join(o))
                for job, o, why in zip(jobs, first, reasons) if why or o[0] != "exit"]
    failed = unexpected = 0
    for number, record in enumerate(passes):
        for job, outcome, why, want in zip(jobs, record["outcomes"], reasons, expected):
            if outcome[0] != "exit" or want[0] != "exit":
                failed += 1  # no answer, or an answer the first pass gave none to check
                unexpected += not job["defect"]
                if number and outcome[0] != "exit" and not job["defect"]:
                    problems.append((job, f"pass {number + 1}: {' '.join(outcome)}"))
            elif why or (number and outcome != want):
                failed += 1
                unexpected += 1
                if not why:
                    problems.append((job, f"pass {number + 1} output differs from pass 1"))
    return failed, unexpected, problems


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import eolab.cli.

    Not scaled to reference speed: the launches run in child processes,
    which may run on another CPU than the calibration loop, and their time
    does not follow it.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [sys.executable, "-c", "import eolab.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[dict], failed: int, attempted: int, setup_s: float):
    # Each job's median over passes, at reference speed, so neither a burst
    # of machine load in one pass nor a slower minute moves the figures;
    # wall_s and cpu_s sum them over the job list.
    latencies = _job_medians(passes, "latencies")
    cpus = _job_medians(passes, "cpus")
    return {
        "wall_s": (sum(latencies), "s"),
        "cpu_s": (sum(cpus), "s"),
        "job_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1000 * quantile(latencies, 90), "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        # Through the first pass: later passes repeat it from the same cleared
        # state, and only add allocator fragmentation that depends on their number.
        "peak_rss_mb": (passes[0]["rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }


def _job_medians(passes: list[dict], key: str) -> list[float]:
    """Each job's median over passes, at reference speed."""
    columns = [at_reference_speed(record, key) for record in passes]
    return [statistics.median(column) for column in zip(*columns)]


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    def one_pass(record: dict) -> dict:
        # A job stopped by the time limit did an amount of work that depends
        # on the machine's speed, so its spans would make the counts noisy.
        tracer = record["tracer"]
        timed_out = {n for n, outcome in enumerate(record["outcomes"]) if outcome[0] == "timeout"}
        totals = tracer.layer_totals(timed_out)
        counts = tracer.counts
        values = {}
        for prefix, names in PER_LAYER.items():
            for name in names:
                key = f"{prefix}.{name}"
                if name == "calls":
                    values[key] = totals.get(prefix, [0, 0.0])[0]
                elif name == "self_s":
                    values[key] = totals.get(prefix, [0, 0.0])[1]
                else:
                    values[key] = counts.get(key, 0)
        halted = values["vm.dovetail.halted_inputs"]
        values["vm.dovetail.emit_ratio"] = values["vm.dovetail.emitted"] / halted if halted else 0.0
        searches = values["search.witness.calls"]
        decided = values["search.witness_found"] + values["search.space_exhausted"]
        values["search.decided_ratio"] = decided / searches if searches else 0.0
        return values

    per_pass = [one_pass(record) for record in traced]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    # Timed-out jobs are left out here too: their time is the job limit,
    # which tracing doubles.
    timed_out = {n for record in traced + untraced
                 for n, outcome in enumerate(record["outcomes"]) if outcome[0] == "timeout"}
    metrics["trace.overhead_s"] = sum(
        t - u for n, (t, u) in enumerate(zip(_job_medians(traced, "latencies"),
                                             _job_medians(untraced, "latencies")))
        if n not in timed_out)
    units = {"self_s": "s", "overhead_s": "s", "emit_ratio": "ratio", "decided_ratio": "ratio",
             "stdout_bytes": "bytes"}
    return {key: (value, units.get(key.rsplit(".", 1)[1], "count"))
            for key, value in metrics.items()}


def load_digest(jobs: list[dict], sources: dict) -> str:
    doc = json.dumps({"argv": [job["argv"] for job in jobs], "files": sources}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a fresh process of its own; prints one table."""
    results = {}
    for workload in WORKLOADS:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, check=True)
        sys.stderr.write(proc.stderr)
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'metric':34} {'unit':6}" + "".join(f"{w:>14}" for w in results))
    for name, entry in next(iter(results.values()))["metrics"].items():
        print(f"{name:34} {entry['unit']:6}"
              + "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values()))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:41}" + "".join(f"{str(r[key]):>14}" for r in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eolab" / "cli.py").is_file():
        print(f"error: no eolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = Path(".bench_tmp") / f"{args.workload}-{args.seed}"
    jobs, sources = generate(args.workload, args.seed, str(workdir))
    digest = load_digest(jobs, sources)
    setup_s = None if args.trace else measure_setup()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, text in sources.items():
            (workdir / name).write_text(text, encoding="utf-8")
        if args.trace:
            untraced = run_passes(jobs, args.seconds / 2)
            traced = run_passes(jobs, args.seconds / 2, traced=True, keep_first=False)
            passes = untraced + traced
        else:
            passes = run_passes(jobs, args.seconds)
        failed, unexpected, problems = grade(jobs, passes, sources)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(passes, failed, attempted, setup_s)
    known = sum(1 for job in jobs if job["defect"])
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "load_digest": digest, "jobs": len(jobs), "passes": len(passes),
        "known_defect_jobs": known, "fail_ratio": failed / attempted,
        "unexpected_failures": unexpected,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "job_limit_s": JOB_LIMIT_S,
        "pass_wall_s": [record["wall"] for record in passes],
        "calibration_ms": 1000 * statistics.median(x for r in passes for x in r["speed"]),
        "job_median_ms": [1000 * x for x in _job_medians(passes, "latencies")],
        "failures": [{"job": job["id"], "argv": job["argv"][:4], "defect": job["defect"],
                      "why": why} for job, why in problems],
    }
    for job, why in problems:
        print(f"failed job {job['id']} ({job['defect'] or 'unexpected'}): "
              f"{' '.join(job['argv'][:6])[:100]}: {why}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} passes, "
          f"fail_ratio {failed}/{attempted}, {unexpected} unexpected failures "
          f"(known-defect jobs: {known}), "
          f"load digest {digest[:16]}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit}", file=sys.stderr)

    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    summary["metrics"] = {name: value for name, (value, _) in metrics.items()}
    (out / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for number, record in enumerate(traced):
                for row in record["tracer"].records(number):
                    handle.write(json.dumps(row) + "\n")

    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
