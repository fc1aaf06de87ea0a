"""Benchmark of the ``ultrametric`` CLI: end-to-end runs and a traced replay.

Usage (from the repository root)::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-digests      # after an intended output change

``--trace 0`` runs the workload's seeded job list as ``python -m ultrametric``
subprocesses, one after another (a closed loop with one client), in whole
passes, and reports the end-to-end metrics.  Job times are the CPU seconds
(user + system) each job process used, read from ``getrusage``, scaled to a
reference host speed.  A fixed reference job (``reference.py``, which does not
import the program) runs before the set-ups and after every second job, and
each CPU time is multiplied by ``REFERENCE_S`` over the mean CPU time of the
reference runs just before and after it (see ``Scaler``).  On a shared
virtual machine the speed of the host swings by a third within seconds to
minutes; the reference job follows those swings, so the scaled times move
with the program and not with the host.  Unscaled CPU times and wall-clock
figures are printed too.
``--trace 1`` replays the same jobs in-process with a span around each public
call (see ``replay``) and reports the per-layer metrics.  Every job's output
is checked in both modes.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; traces and reports go
to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1  # the seed whose output digests are committed
SETUP_REPEATS = 5
WARMUP = ["gen", "two-point", "--c", "1"]
JOB_TIMEOUT_S = 120
REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = "reference 5402\n"
# Median CPU seconds of reference.py on the 2-vCPU x86-64 virtual machine
# (Python 3.11) the benchmark was built on; scaled times are seconds at that speed.
REFERENCE_S = 0.13
REFERENCE_STRIDE = 2  # jobs between reference runs
MIN_TAIL_BEYOND = 10
# A fixed pass count per --seconds keeps the number of job runs, and so the
# tail percentile, the same from run to run; job lists are sized so that a
# pass takes about this long on a 2-core machine.
NOMINAL_PASS_S = 10
OVERRUN = 1.2  # start no pass after this multiple of --seconds

sys.path.insert(0, str(HERE))

from workloads import HOSTILE, WHY, Result, build, digest, problems  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # An absolute src path: children run in the work directory.
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["COLUMNS"] = "80"
    env["NO_COLOR"] = "1"
    return env


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_cli(argv: list[str], workdir: Path, env: dict, outputs=()) -> tuple[Result, float, float]:
    """Run one CLI job as a subprocess; returns its result, wall and CPU seconds."""
    cpu = children_cpu()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ultrametric", *argv],
            cwd=workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=JOB_TIMEOUT_S,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = -9, exc.stdout or b"", (exc.stderr or b"") + b"\njob timed out"
    elapsed = time.perf_counter() - start
    cpu = children_cpu() - cpu
    files = {}
    for name in outputs:
        path = workdir / name
        if path.exists():
            files[name] = path.read_text(encoding="utf-8")
            path.unlink()
    decode = lambda b: b.decode("utf-8", errors="replace")  # noqa: E731
    return Result(code, decode(out), decode(err), files), elapsed, cpu


def run_reference(env: dict) -> float:
    """CPU seconds of one run of the reference job."""
    cpu = children_cpu()
    proc = subprocess.run(
        [sys.executable, str(REFERENCE)],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=JOB_TIMEOUT_S,
    )
    cpu = children_cpu() - cpu
    if proc.returncode != 0 or proc.stdout != REFERENCE_OUTPUT:
        raise SystemExit(f"reference job failed with exit {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return cpu


def set_up(workload: str, seed: int, workdir: Path, env: dict):
    """Generate the inputs and expectations, write them, run one warm-up job."""
    files, jobs = build(workload, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    result = run_cli(WARMUP, workdir, env)[0]
    if result.exit != 0:
        raise SystemExit(f"warm-up job failed with exit {result.exit}:\n{result.stderr}")
    return jobs


def load_digests(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def more_passes(done: int, start: float, seconds: float) -> bool:
    wanted = max(2, round(seconds / NOMINAL_PASS_S))
    return done < wanted and time.perf_counter() - start < OVERRUN * seconds


def tail(samples: list[float]) -> tuple[float, int]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    beyond = min(MIN_TAIL_BEYOND, len(ordered) - 1)
    percentile = 100 * (len(ordered) - beyond) // len(ordered)
    return ordered[len(ordered) - 1 - beyond], percentile


class Tally:
    """Job outcomes of a run; hostile-input failures are known defects."""

    def __init__(self, digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.messages: list[str] = []

    def add(self, job, result):
        self.attempted += 1
        found = problems(job, result, self.digests)
        if not found:
            return
        self.failed += 1
        if job.id.startswith(HOSTILE):
            self.known += 1
        if len(self.messages) < 20:
            self.messages.append(f"{job.id}: {'; '.join(found)}")


def cpu_now() -> float:
    return time.process_time() + children_cpu()


class Scaler:
    """CPU times scaled to the reference speed by the reference runs around them.

    A sample taken between two reference runs is multiplied by ``REFERENCE_S``
    over the mean CPU time of those two runs (of the one before it, if none
    follows).
    """

    def __init__(self, env: dict):
        self.env = env
        self.refs = [run_reference(env)]
        self.samples: dict[str, list[tuple[float, int]]] = {}

    def reference(self) -> None:
        self.refs.append(run_reference(self.env))

    def add(self, series: str, cpu: float) -> None:
        self.samples.setdefault(series, []).append((cpu, len(self.refs) - 1))

    def raw(self, series: str) -> list[float]:
        return [cpu for cpu, _ in self.samples[series]]

    def scaled(self, series: str) -> list[float]:
        return [cpu * REFERENCE_S / statistics.mean(self.refs[i : i + 2]) for cpu, i in self.samples[series]]


def measure_cli(workload, seed, seconds, env, workdir):
    scaler = Scaler(env)
    setup_wall = []
    for _ in range(SETUP_REPEATS):
        cpu, wall = cpu_now(), time.perf_counter()
        jobs = set_up(workload, seed, workdir, env)
        scaler.add("setup", cpu_now() - cpu)
        setup_wall.append(time.perf_counter() - wall)
        scaler.reference()
    tally = Tally(load_digests(workload, seed))
    job_wall, pass_wall = [], []
    passes = 0
    start = time.perf_counter()
    while more_passes(passes, start, seconds) or len(job_wall) <= MIN_TAIL_BEYOND:
        for job in jobs:
            result, wall, cpu = run_cli(job.argv, workdir, env, job.files)
            job_wall.append(wall)
            scaler.add("job", cpu)
            tally.add(job, result)
            if len(job_wall) % REFERENCE_STRIDE == 0:
                scaler.reference()
        passes += 1
        pass_wall.append(sum(job_wall[-len(jobs) :]))
    if len(job_wall) % REFERENCE_STRIDE:
        scaler.reference()
    job_cpu = scaler.scaled("job")
    raw_cpu = scaler.raw("job")
    tail_cpu, percentile = tail(job_cpu)
    tail_wall, _ = tail(job_wall)
    beyond = min(MIN_TAIL_BEYOND, len(job_cpu) - 1)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "cpu_s": (sum(job_cpu) / passes, "s"),
        "job_cpu_p50_s": (statistics.median(job_cpu), "s"),
        "job_cpu_tail_s": (tail_cpu, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_frac": (1 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (statistics.median(scaler.scaled("setup")), "s"),
    }
    notes = [
        f"jobs per pass {len(jobs)}, passes {passes}, job runs {len(job_cpu)}",
        f"times are scaled to the reference speed by {len(scaler.refs)} reference runs "
        f"(CPU s min {min(scaler.refs):.4f}, median {statistics.median(scaler.refs):.4f}, "
        f"max {max(scaler.refs):.4f}, nominal {REFERENCE_S}); unscaled: cpu_s {sum(raw_cpu) / passes:.6g} s, "
        f"job_cpu_p50_s {statistics.median(raw_cpu):.6g} s, job_cpu_tail_s {tail(raw_cpu)[0]:.6g} s, "
        f"setup_s {statistics.median(scaler.raw('setup')):.6g} s",
        f"job tails are p{percentile} of {len(job_cpu)} job runs ({beyond} beyond)",
        f"failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted} job runs, "
        f"{tally.known} of them the known-defect hostile inputs)",
        "wall clock, not gated (it includes time the host withholds from this machine):",
        f"  wall_s {statistics.median(pass_wall):.6g} s, job_p50_s {statistics.median(job_wall):.6g} s, "
        f"job_tail_s {tail_wall:.6g} s, setup wall {statistics.median(setup_wall):.6g} s",
        f"setup runs, unscaled CPU s: {', '.join(f'{t:.4f}' for t in scaler.raw('setup'))}",
    ]
    raw = {
        "jobs": [job.id for job in jobs],
        "job_cpu_s": raw_cpu,
        "job_scaled_cpu_s": job_cpu,
        "job_wall_s": job_wall,
        "reference_cpu_s": scaler.refs,
        "samples": scaler.samples,
    }
    return metrics, tally, notes, raw


def measure_traced(workload, seed, seconds, env, workdir):
    import replay

    jobs = set_up(workload, seed, workdir, env)
    tally = Tally(load_digests(workload, seed))
    plain, traced = replay.Recorder(False), replay.Recorder(True)
    untraced_s, traced_s, traced_passes = [], [], []
    start = time.perf_counter()
    while more_passes(len(untraced_s) + len(traced_s), start, seconds) or not untraced_s:
        # Alternate untraced and traced passes so both see the same conditions.
        rec, times = (traced, traced_s) if len(traced_s) <= len(untraced_s) else (plain, untraced_s)
        first = len(rec.spans)
        pass_start = time.process_time()
        for job in jobs:
            rec.job = f"{len(times)}:{job.id}"
            with rec.span("job", n=job.n):
                result = replay.run_job(rec, job.argv, str(workdir))
            tally.add(job, result)
        times.append(time.process_time() - pass_start)
        if rec is traced:
            traced_passes.append((first, len(rec.spans)))

    self_times = traced.self_times()
    per_pass = []
    for first, last in traced_passes:
        sums: dict[str, float] = {}
        for i in range(first, last):
            span = traced.spans[i]
            name = span["name"]
            sums[f"{name}.self_s"] = sums.get(f"{name}.self_s", 0.0) + self_times[i]
            for key, value in span["counts"].items():
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        per_pass.append(sums)

    probes = [replay.probe_pair(str(workdir), job.pair) for job in jobs if job.pair]
    startup = [run_cli(WARMUP, workdir, env)[2] for _ in range(5)]

    metrics = {}
    for name, unit, _, _ in replay.LAYER_METRICS:
        values = [p.get(name, 0) for p in per_pass]
        metrics[name] = (statistics.median(values), unit)
    ugh_jobs = statistics.median([p.get("gromov.ugh_distance.calls", 0) for p in per_pass])
    tried = metrics["gromov.ugh_distance.scales_tried"][0]
    metrics["gromov.ugh_distance.useful_ratio"] = (ugh_jobs / tried if tried else 0.0, "ratio")
    metrics["dendrogram.to_dendrogram.probe_s"] = (sum(p[0] for p in probes), "s")
    metrics["dendrogram.isometry_witness.probe_s"] = (sum(p[1] for p in probes), "s")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["trace.overhead_frac"] = (statistics.median(traced_s) / statistics.median(untraced_s) - 1, "ratio")

    by_n = _self_time_by_n(traced, self_times)
    trace_file = WORK / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps({"spans": traced.spans, "self_s": self_times, "self_s_by_layer_and_n": by_n}) + "\n",
        encoding="utf-8",
    )
    notes = [
        f"jobs per pass {len(jobs)}, traced passes {len(traced_s)}, untraced passes {len(untraced_s)}",
        f"spans written to {trace_file.relative_to(ROOT)}",
        "self time (s) by layer and job n, summed over traced passes:",
        *(f"  {layer}: " + ", ".join(f"n={n} {t:.4f}" for n, t in sorted(row.items())) for layer, row in sorted(by_n.items())),
    ]
    raw = {"jobs": [job.id for job in jobs], "traced_pass_cpu_s": traced_s, "untraced_pass_cpu_s": untraced_s}
    return metrics, tally, notes, raw


def _self_time_by_n(rec, self_times) -> dict[str, dict[int, float]]:
    job_n = {}
    out: dict[str, dict[int, float]] = {}
    for span, t in zip(rec.spans, self_times):
        if span["name"] == "job":
            job_n[span["job"]] = span["counts"]["n"]
            continue
        row = out.setdefault(span["name"], {})
        n = job_n.get(span["job"], 0)
        row[n] = row.get(n, 0.0) + t
    return out


def source_id() -> dict:
    """Git commit when available (the benchmark checkout may not be a git tree) and a digest of src/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def record_digests(env) -> None:
    """Write the output digests of one pass of every workload at DEFAULT_SEED."""
    table = {}
    for workload in WHY:
        workdir = WORK / f"record-{os.getpid()}"
        try:
            jobs = set_up(workload, DEFAULT_SEED, workdir, env)
            table[workload] = {}
            for job in jobs:
                result = run_cli(job.argv, workdir, env, job.files)[0]
                if job.id.startswith(HOSTILE):
                    continue
                found = problems(job, result, None)
                if found:
                    raise SystemExit(f"{workload}/{job.id} fails its own checks: {found}")
                table[workload][job.id] = digest(result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(t) for t in table.values())} digests to {DIGESTS.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ultrametric" / "__init__.py").is_file():
        print(f"error: no ultrametric sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    WORK.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests(env)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = WORK / f"run-{os.getpid()}"
    measure = measure_traced if args.trace else measure_cli
    try:
        metrics, tally, notes, raw = measure(args.workload, args.seed, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs_per_pass": len(raw["jobs"]),
        "digests_checked": tally.digests is not None,
        **source_id(),
    }
    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "why"))
    print(f"why: {meta['why']}")
    for note in notes:
        print(note)
    for message in tally.messages:
        print(f"FAILED {message}")
    if args.trace:
        import replay

        moves = {name: move for name, _, _, move in replay.LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  [moves {moves[name]}]" if args.trace else ""))
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "raw": raw, "failures": tally.messages}) + "\n",
        encoding="utf-8",
    )
    unexpected = tally.failed - tally.known
    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": tally.attempted,
                "failed": unexpected,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
