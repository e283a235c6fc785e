"""Benchmark of the ualg CLI on seeded workloads; see README.md.

    python3 bench/run.py                      # every workload, one process each
    python3 bench/run.py --workload refute --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --smoke              # every workload at reduced size

A run imports ualg from `src/` of this checkout, writes its inputs under
`.bench_work/`, and calls `ualg.cli.main(["--json", ...])` in process
for each job, pass after pass, until `--seconds` have gone by.  The last
line of stdout is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer
from workloads import WORKLOADS, CheckFailed, Inputs, Job

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TAIL = 0.99  # job_tail_ms is this percentile of the jobs' median times
SETUP_REPEATS = 5
MIN_PASSES = 3
REFERENCE_S = 0.01  # a scaled time is the time at this reference loop time
PROBE_EVERY_S = 0.25

END_TO_END = {"wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
COUNTS = {  # per-layer work counts, computed from each job's input and output
    "cli.stdout_bytes": "bytes", "fileformat.cells": "count", "terms.bindings": "count",
    "generation.stages": "count", "generation.clone_members": "count",
    "morphisms.maps_found": "count", "products.cells": "count",
    "reduced_power.members": "count", "free_semigroup.words": "count"}
RATES = {"fileformat.cells_per_s": ("fileformat.cells", "fileformat", "cells/s"),
         "terms.bindings_per_s": ("terms.bindings", "terms", "bindings/s"),
         "products.cells_per_s": ("products.cells", "products", "cells/s")}


def import_cli():
    """ualg.cli from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "ualg" / "__init__.py").is_file():
        sys.exit(f"bench: no ualg sources under {src}")
    sys.path.insert(0, str(src))
    import ualg.cli

    if Path(ualg.cli.__file__).resolve().parent != src / "ualg":
        sys.exit(f"bench: imported ualg from {ualg.cli.__file__}, not {src}")
    return ualg.cli


def reference_loop() -> int:
    """Fixed interpreter work of the kind ualg does: building small tuples
    of table values and counting them in a dict keyed by tuple."""
    cols = [tuple((i * j + 3) % 5 for i in range(8)) for j in range(84)]
    found: dict[tuple, int] = {}
    for a in cols:
        for b in cols:
            key = tuple(a[p] * 5 + b[p] for p in range(8))
            found[key] = found.get(key, 0) + 1
    return len(found)


class SpeedProbe:
    """Times `reference_loop` before a job when the last sample is older
    than PROBE_EVERY_S, and at the end of each pass.  The speed of a
    shared host drifts by tens of percent within minutes, and the loop
    drifts with it, so a job time scaled by the samples just before and
    after the job repeats from run to run where the raw time does not."""

    def __init__(self):
        self.samples: list[float] = []
        self.at = 0.0

    def sample(self) -> int:
        start = time.perf_counter()
        reference_loop()
        self.at = time.perf_counter()
        self.samples.append(self.at - start)
        return len(self.samples) - 1

    def latest(self) -> int:
        """Index of a sample at most PROBE_EVERY_S old, taken if need be."""
        if time.perf_counter() - self.at >= PROBE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """REFERENCE_S over the mean of samples k and k + 1."""
        return 2 * REFERENCE_S / (self.samples[k] + self.samples[k + 1])


def make_jobs(workload: str, seed: int, smoke: bool, workdir: Path) -> list[Job]:
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](Inputs(workdir, rng), smoke)


def time_setup(args, probe: SpeedProbe) -> float:
    """Scaled wall time of a fresh interpreter that imports ualg and makes
    the inputs and expected answers."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only"] + (["--smoke"] if args.smoke else [])
    k = probe.sample()
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    probe.sample()
    return elapsed * probe.scale(k)


def execute(cli, job: Job) -> tuple[float, object, str]:
    """One job: (seconds, exit code or exception name, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            result = cli.main(["--json", *job.argv])
    except Exception as exc:  # a job that raises fails; the run goes on
        result = type(exc).__name__
    return time.perf_counter() - start, result, out.getvalue()


def judge(job: Job, result, stdout: str) -> tuple[str, dict]:
    """(failure message or "", work counts) of a job's first execution."""
    if isinstance(result, str):
        return f"raised {result}", {}
    if result != job.code:
        return f"exit {result}, expected {job.code}", {}
    try:
        return "", job.check(json.loads(stdout))
    except (CheckFailed, LookupError, TypeError, ValueError, AttributeError) as exc:
        return f"check failed: {exc!r}", {}


class Run:
    """Passes over one workload's jobs, with every outcome checked."""

    def __init__(self, cli, jobs: list[Job], probe: SpeedProbe):
        self.cli = cli
        self.jobs = jobs
        self.probe = probe
        self.first: list = [None] * len(jobs)  # (result, digest, failure, counts, bytes)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.raw: list[list[float]] = [[] for _ in jobs]  # untraced seconds
        self.times: list[list[float]] = [[] for _ in jobs]  # the same, scaled

    def one_pass(self, tracer: Tracer | None = None) -> float:
        """Runs every job once; returns the pass's raw seconds."""
        elapsed_at = []
        for i, job in enumerate(self.jobs):
            if tracer:
                tracer.job = i
            k = self.probe.latest()
            elapsed, result, stdout = execute(self.cli, job)
            elapsed_at.append((elapsed, k))
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if self.first[i] is None:
                failure, counts = judge(job, result, stdout)
                self.first[i] = (result, digest, failure, counts, len(stdout.encode()))
                if failure and failure != f"raised {job.known_fault}":
                    self.unexpected.append(f"{job.id}: {failure}")
                if failure:
                    print(f"bench: job failed: {job.id}: {failure}", file=sys.stderr)
            first_result, first_digest, failure, _, _ = self.first[i]
            if (result, digest) != (first_result, first_digest):
                failure = failure or "output differs from the first pass"
                self.unexpected.append(f"{job.id}: {failure}")
            self.attempted += 1
            self.failed += bool(failure)
        self.probe.sample()
        if not tracer:
            for i, (elapsed, k) in enumerate(elapsed_at):
                self.raw[i].append(elapsed)
                self.times[i].append(elapsed * self.probe.scale(k))
        return sum(elapsed for elapsed, _ in elapsed_at)

    def counts(self) -> dict[str, float]:
        totals = dict.fromkeys(COUNTS, 0)
        for job, (_, _, _, counts, nbytes) in zip(self.jobs, self.first):
            totals["fileformat.cells"] += job.cells
            totals["cli.stdout_bytes"] += nbytes
            for key, value in counts.items():
                totals[key] += value
        return totals

    def record(self, path: Path, seed: int) -> str:
        """Writes each job's exit code, stdout sha256 and untraced times;
        returns a digest of the hashes."""
        rows = [{"job": job.id, "result": r, "sha256": d, "failure": f, "seconds": raw,
                 "scaled": t}
                for job, (r, d, f, _, _), raw, t in zip(self.jobs, self.first, self.raw,
                                                         self.times)]
        path.write_text(json.dumps({"seed": seed, "jobs": rows}, indent=1))
        return hashlib.sha256("".join(r["sha256"] for r in rows).encode()).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(args) -> dict:
    cli = import_cli()
    probe = SpeedProbe()
    setup_times = [] if args.trace else [time_setup(args, probe) for _ in range(
        1 if args.smoke else SETUP_REPEATS)]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{time.time_ns()}"
    try:
        run = Run(cli, make_jobs(args.workload, args.seed, args.smoke, workdir), probe)
        min_passes = 1 if args.smoke or args.trace else MIN_PASSES
        tracer = Tracer() if args.trace else None
        plain, traced, layer_passes = [], [], []
        deadline = time.perf_counter() + args.seconds
        while (len(plain) < min_passes or time.perf_counter() < deadline
               or (tracer and not traced)):
            if tracer and len(traced) < len(plain):
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    traced.append(run.one_pass(tracer))
                finally:
                    tracer.uninstall()
                layer_passes.append(tracer.layer_totals(first_span))
            else:
                plain.append(run.one_pass())
        tag = f"{args.workload}-seed{args.seed}"
        digest = run.record(WORK / f"jobs-{tag}.json", args.seed)
        print(f"bench: {args.workload} seed {args.seed}: {len(run.jobs)} jobs x "
              f"{len(plain)} passes, unscaled wall {sum(map(statistics.median, run.raw)):.3f}"
              f" s, reference loop {statistics.median(probe.samples) * 1000:.2f} ms, "
              f"stdout digest {digest[:16]}", file=sys.stderr)
        if tracer:
            (WORK / f"spans-{tag}.json").write_text(json.dumps(tracer.spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in run.unexpected:
        print(f"bench: unexpected failure: {problem}", file=sys.stderr)
    if tracer:
        metrics = layer_metrics(run, layer_passes, traced, plain)
    else:
        per_job = [statistics.median(ts) for ts in run.times]
        metrics = {
            "wall_s": sum(per_job),
            "job_p50_ms": statistics.median(per_job) * 1000,
            "job_tail_ms": percentile(per_job, TAIL) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return {"correct": not run.unexpected, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def layer_metrics(run: Run, layer_passes, traced: list[float], plain: list[float]) -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (layer_passes[0][layer][0], "count")
        out[f"{layer}.self_s"] = (statistics.median(p[layer][1] for p in layer_passes), "s")
    counts = run.counts()
    out.update({k: (v, COUNTS[k]) for k, v in counts.items()})
    for name, (count, layer, unit) in RATES.items():
        busy = out[f"{layer}.self_s"][0]
        out[name] = (counts[count] / busy if busy > 0 else 0.0, unit)
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def run_all(args) -> int:
    """Each workload in its own process; one summary line per workload."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            return 1
        results[name] = json.loads(lines[-1])
        r = results[name]
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"{name}: {shown}; attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {str(r['correct']).lower()}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs and a single pass, every check on")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 0
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import_cli()
        workdir = WORK / f"setup-{args.workload}-{time.time_ns()}"
        try:
            make_jobs(args.workload, args.seed, args.smoke, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
