"""Benchmark of reeb-spectra: seeded workloads run in a closed loop.

    python3 perfbench/run.py --workload exact-certify --seed 1 --seconds 30 --trace 0

One client in one process runs the jobs of a workload one after another,
each through `reeb_spectra.cli.main(argv)` (or `verify_interleaving`, which
has no subcommand) with stdout captured, and checks every output against the
independent oracles in `oracles.py`.  The program's own thread pool is the
only other concurrency.  A run holds a fixed set of jobs: ROUNDS rounds of
fixed composition drawn from the seed (see `workloads.py`).

--trace 0 first runs the jobs that are only checked, then runs the timed
jobs in passes until --seconds of job time have passed.  Each job runs on
the core that is faster at the time, and its latency is the median over its
copies of the time normalized to a reference host speed (`calibrate.py`);
the set-up samples are taken between passes, in plain seconds.  --trace 1 runs every round twice, untraced and
then traced, and reports the per-layer metrics of the traced copies plus the
tracing overhead.  The human-readable report comes first; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELDOUT_SEED = 9001
# fresh-interpreter set-ups per run, taken between passes; they run outside
# the --seconds budget, so more of them would lengthen every run
SETUP_SAMPLES = 3
# rounds in a run's job set, sized for ten to twenty passes in 30 seconds,
# so that every job has ten or more copies spread over the run
ROUNDS = {"exact-certify": 6, "spectrum-index": 2, "convex-bodies": 1}
# job_tail_s is the highest of these percentiles that leaves at least
# TAIL_BEYOND jobs beyond it; with fewer than 2 * TAIL_BEYOND jobs none does,
# and the median is reported instead
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
TAIL_BEYOND = 10
# modules the subcommands of each workload import lazily
LAZY_IMPORTS = {
    "exact-certify": ("scipy.stats", "scipy.special", "scipy.optimize"),
    "spectrum-index": (),
    "convex-bodies": ("scipy.stats", "scipy.special", "scipy.optimize"),
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed; {HELDOUT_SEED} is held out for verifying claims")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _workdir(tag: str) -> Path:
    path = ROOT / ".perfbench_out" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup(workload: str, seed: int, workdir: Path) -> list:
    """What every invocation pays: the package, the lazily imported modules
    and the run's inputs."""
    import importlib

    import reeb_spectra.cli  # noqa: F401

    for name in LAZY_IMPORTS[workload]:
        importlib.import_module(name)
    import workloads

    return [workloads.make_round(workload, seed, r, workdir) for r in range(ROUNDS[workload])]


def _setup_sample(workload: str, seed: int, clock: calibrate.Clock) -> float:
    """One set-up in a fresh interpreter on the faster core, timed from
    outside in plain seconds."""
    clock.before(fresh=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)], check=True)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from reeb_spectra.util import max_workers

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "util.max_workers": max_workers(),
        "env": {k: os.environ.get(k) for k in
                ("REEB_SPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


# -- running one job -------------------------------------------------------------------


class Outcome:
    __slots__ = ("job", "seconds", "failed", "problems", "digest", "round", "kernel_s")

    def __init__(self, job, seconds, failed, problems, digest, rnd, kernel_s):
        self.job, self.seconds, self.failed = job, seconds, failed
        self.problems, self.digest, self.round = problems, digest, rnd
        self.kernel_s = kernel_s

    @property
    def normalized(self) -> float:
        return self.seconds * calibrate.REFERENCE_S / self.kernel_s


def run_job(job, rnd: int, clock: calibrate.Clock, tracer=None,
            reference: Outcome | None = None) -> Outcome:
    """Run one job on the core the clock picks, time it, and check its
    output.  An output identical to the reference repetition's inherits its
    verdict instead of being checked again."""
    from reeb_spectra.cli import main

    clock.before()
    buf = io.StringIO()
    failure = None
    result = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if job.argv is not None:
                    rc = main(job.argv)
                    if rc != 0:
                        failure = f"exit code {rc}"
                else:
                    result = job.call()
        except Exception as e:  # a job that raises counts as failed, the run goes on
            failure = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
    kernel_s = clock.after(seconds)
    text = buf.getvalue()
    if tracer is not None:
        tracer.count_warnings(caught)
        tracer.counters["cli.stdout_bytes"] += len(text)
    digest = (len(text), hash(text)) if job.argv is not None else None
    problems = []
    if failure is None:
        if reference is not None and digest is not None and reference.digest == digest:
            problems = reference.problems
        else:
            problems = check(job, text, result)
    return Outcome(job, seconds, failure, problems, digest, rnd, kernel_s)


def _traced_copy(jobs, rnd: int, tracer, references, clock) -> list[Outcome]:
    tracer.install()
    try:
        return [run_job(job, rnd, clock, tracer, reference=f) for job, f in zip(jobs, references)]
    finally:
        tracer.uninstall()


def check(job, text: str, result) -> list[str]:
    try:
        if job.argv is None:
            payload = result
        elif job.out == "csv":
            payload = list(csv.DictReader(io.StringIO(text)))
        else:
            payload = json.loads(text)
        return job.check(payload)
    except Exception as e:  # unparsable or incomplete output is a wrong answer
        return [f"output check raised {type(e).__name__}: {e}"]


# -- statistics --------------------------------------------------------------------------


def tail(latencies) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES leaving TAIL_BEYOND or more jobs
    beyond it, and the latency there; the median if none does."""
    cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
    for p in TAIL_PERCENTILES:
        value = cuts[round(p * 10) - 1]
        if sum(1 for x in latencies if x > value) >= TAIL_BEYOND:
            return p, value
    return 50, statistics.median(latencies)


def end_to_end(workload: str, latency, setup_times, passes: int) -> tuple[dict, list[str]]:
    """Metric values by name, and notes on how they were taken.  `latency`
    holds (round, job, normalized latency or None) for every job of the set."""
    import workloads

    timed = [(r, job.kind, t) for r, job, t in latency if job.timed and t is not None]
    lat = [t for _, _, t in timed]
    p_tail, tail_s = tail(lat)
    beyond = sum(1 for x in lat if x > tail_s)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, kinds in workloads.SLOTS:
        kind = kinds[workloads.WORKLOADS.index(workload)]
        xs = [t for _, k, t in timed if k == kind]
        metrics[name] = statistics.median(xs) if xs else None
    once = sum(1 for _, job, _ in latency if not job.timed)
    notes = [f"job latency is the median of {passes} copies of the same job, one per pass, "
             f"each normalized to the reference speed (calibrate.py)"
             + (f"; {once} jobs run once, checked and reported, not in the metrics" if once else ""),
             f"job_tail_s is p{p_tail:g} over {len(lat)} timed jobs, {beyond} beyond it"
             + ("" if beyond >= TAIL_BEYOND else
                f" (fewer than {TAIL_BEYOND} jobs lie beyond any tail percentile)"),
             f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}",
             f"wall_s sums the latencies of the {len(lat)} timed jobs"]
    return metrics, notes


def per_kind_medians(latency) -> dict:
    kinds: dict[str, list] = {}
    for kind, t in ((job.kind, t) for _, job, t in latency if t is not None):
        kinds.setdefault(kind, []).append(t)
        # spectrum_p50_s and cz_p50_s pool both kinds of each
        for family in ("spectrum", "cz"):
            if kind.startswith(family + "_"):
                kinds.setdefault(family, []).append(t)
    return {f"{k}_p50_s": (statistics.median(v), len(v)) for k, v in sorted(kinds.items())}


# -- main --------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "reeb_spectra" / "__init__.py").is_file():
        print(f"reeb_spectra sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = _workdir("setup")
        try:
            _setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = _workdir(args.workload)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    import oracles

    rounds = _setup(args.workload, args.seed, workdir)  # also compiles the sources once
    env = environment(args.seed)
    print("env " + json.dumps(env))

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        outcomes, round_walls, traced_walls = _trace(args, rounds, tracer)
    else:
        tracer = None
        outcomes, latency, setup_times, passes = _measure(args, rounds)

    attempted = len(outcomes)
    failed = [o for o in outcomes if o.failed is not None]
    wrong = [o for o in outcomes if o.failed is None and o.problems]
    unexpected = [o for o in wrong if any(not p.startswith(oracles.KNOWN) for p in o.problems)]
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} jobs {attempted} "
          f"trace {args.trace}")
    print(f"failed_frac {len(failed) / attempted:.6g} ({len(failed)}/{attempted})")
    for o in failed:
        print(f"  failed: {o.job.kind} [{o.job.label}] round {o.round}: {o.failed}")
    print(f"wrong_frac {len(wrong) / attempted:.6g} ({len(wrong)}/{attempted}, "
          f"{len(unexpected)} not a known defect)")
    for o in wrong:
        print(f"  wrong: {o.job.kind} [{o.job.label}] round {o.round}: {'; '.join(o.problems)}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is None:
        values, notes = end_to_end(args.workload, latency, setup_times, passes)
        for name, (value, count) in per_kind_medians(latency).items():
            print(f"metric {name} {value} s (median of {count} jobs)")
        for note in notes:
            print(f"note {note}")
        spec = declared["end_to_end"]
    else:
        values = tracer.summary(rounds=len(traced_walls))
        values["trace.overhead_frac"] = sum(traced_walls) / sum(round_walls) - 1.0
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        for name in tracer.absent:
            print(f"layer {name} absent (hook target not found)")
        print(f"note per-layer values are per traced round ({len(traced_walls)} rounds); "
              f"busy_s sums outermost spans, self_s counts pool threads separately; "
              f"spans in {spans_path.relative_to(ROOT)}")
        spec = declared["per_layer"]
    units = {m["name"]: m["unit"] for m in spec}
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    missing = [m for m in units if m not in values and not _absent(m, tracer)]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    result_metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    for name, m in result_metrics.items():
        print(f"{'metric' if tracer is None else 'layer'} {name} {m['value']!r} {m['unit']}")

    correct = not unexpected and all(m["value"] is not None for m in result_metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": result_metrics}))
    return 0


def _measure(args, rounds):
    """Untraced run.  The jobs that are only checked run once, outside the
    budget; then the timed jobs run in passes over the job set until
    --seconds of job time have passed, with the set-up samples spread
    between passes.  A later copy whose output is identical to the first
    inherits its verdict."""
    jobs = [(r, job) for r, round_jobs in enumerate(rounds) for job in round_jobs]
    copies: list[list[Outcome]] = [[] for _ in jobs]
    clock = calibrate.Clock()
    for (r, job), done in zip(jobs, copies):
        if not job.timed:
            done.append(run_job(job, r, clock))
    setup_times: list[float] = []
    job_time, passes = 0.0, 0
    while True:
        started = time.perf_counter()
        for (r, job), done in zip(jobs, copies):
            if job.timed:
                done.append(run_job(job, r, clock, reference=done[0] if done else None))
        passes += 1
        pass_time = time.perf_counter() - started
        job_time += pass_time
        while len(setup_times) < SETUP_SAMPLES * min(1.0, job_time / args.seconds):
            setup_times.append(_setup_sample(args.workload, args.seed, clock))
        # stop when the run is full, or when less than half a pass would fit
        if job_time + 0.5 * pass_time >= args.seconds:
            break
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(_setup_sample(args.workload, args.seed, clock))
    clock.release()
    outcomes = [o for done in copies for o in done]
    latency = []
    for (r, job), done in zip(jobs, copies):
        ok = [o.normalized for o in done if o.failed is None]
        latency.append((r, job, statistics.median(ok) if ok else None))
    return outcomes, latency, setup_times, passes


def _trace(args, rounds, tracer):
    """Pairs of one untraced and one traced copy of each round, cycling
    through the job set, alternating which copy goes first so that warm-up
    favours neither.  Jobs run on the faster core, as in the untraced run;
    the per-layer figures are in plain seconds, the overhead is taken from
    normalized latencies."""
    clock = calibrate.Clock()
    outcomes, round_walls, traced_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        started = time.perf_counter()
        r = i % len(rounds)
        jobs = rounds[r]
        if i % 2:
            traced = _traced_copy(jobs, r, tracer, [None] * len(jobs), clock)
            plain = [run_job(job, r, clock, reference=f) for job, f in zip(jobs, traced)]
        else:
            plain = [run_job(job, r, clock) for job in jobs]
            traced = _traced_copy(jobs, r, tracer, plain, clock)
        outcomes += plain + traced
        round_walls.append(sum(o.normalized for o in plain))
        traced_walls.append(sum(o.normalized for o in traced))
        i += 1
        now = time.perf_counter()
        if now + 0.5 * (now - started) >= deadline:
            break
    clock.release()
    return outcomes, round_walls, traced_walls


def _absent(metric: str, tracer) -> bool:
    """Metrics fed by a private hook whose target no longer exists."""
    from tracing import HOOKED_METRICS

    return tracer is not None and any(
        metric in HOOKED_METRICS[hook] for hook in tracer.absent if hook in HOOKED_METRICS)


if __name__ == "__main__":
    sys.exit(main())
