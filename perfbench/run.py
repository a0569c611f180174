"""Benchmark of the tatebv engine, run from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each was chosen):

  dims-f2       three ``dims`` jobs at p = 2, each in a fresh child process
  flagship-f3   ``verify-s3``, ``tables`` and ``selftest`` for S3 over F3,
                each in a fresh child process
  class-ops-f3  cup, BV operator and bracket on warm S3/F3 ``DecOps`` caches
  all           the three above in turn

CLI jobs run ``tatebv.cli.main`` with ``--format json`` in a child with a
3 GiB address-space cap and a timeout, one at a time; their peak RSS comes
from each child's own rusage; a job's part time runs from the end of the
child's set-up to its exit.  Every time is scaled to a fixed machine speed
with the reference computation in reference.py.  Rounds of jobs repeat
while half a round still fits in ``--seconds``, class-arithmetic sessions
until ``--seconds`` have passed.  Every output is checked: seed-independent
JSON outputs against the SHA-256 digests in golden.json
(``provenance`` and ``config.seed`` removed), ``passed`` flags where the
command has one, and every timed class operation against its warm-pass
value.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the run makes one untraced and one traced round and the last
line holds the per-layer metrics.  A line before it records the seed, the
machine and code version, the per-part samples and the workload's metrics
under their descriptive names.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from reference import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEM_LIMIT = 3 << 30
JOB_TIMEOUT_S = 90
PAUSE_EVERY_S = 1.0  # seconds of a child's run between reference bursts
CLASSOPS_ROUNDS = 8
CLASSOPS_MIN_SESSIONS = 3


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple
    digest: bool  # output must match its golden digest
    passed: bool  # output must report "passed": true
    repeat: int = 1  # runs per round, spread over the round for a steadier median


# import-only children per round, spread over it like the jobs, so that
# setup_s is a median over set-ups from the whole run
SETUP_REPEAT = {"dims-f2": 8, "flagship-f3": 5}


CLI_WORKLOADS = {
    "dims-f2": (
        Job("dims-d8", ("dims", "--group", "dihedral:4", "--char", "2", "--window", "-4..4"),
            digest=True, passed=False),
        Job("dims-s4", ("dims", "--group", "symmetric:4", "--char", "2", "--window", "-2..2"),
            digest=True, passed=False, repeat=2),
        Job("dims-q8", ("dims", "--group", "quaternion8", "--char", "2", "--window", "-3..3"),
            digest=True, passed=False, repeat=8),
    ),
    "flagship-f3": (
        Job("verify-s3", ("verify-s3", "--char", "3", "--window", "-4..3"),
            digest=True, passed=True, repeat=3),
        Job("tables", ("tables", "--group", "symmetric:3", "--char", "3", "--window", "-4..4"),
            digest=True, passed=False, repeat=3),
        Job("selftest", ("selftest", "--group", "symmetric:3", "--char", "3", "--window", "-3..3"),
            digest=False, passed=True, repeat=6),
    ),
}
CLASSOPS = "class-ops-f3"
CLASSOPS_KINDS = ("cup", "delta", "bracket")
WORKLOADS = (*CLI_WORKLOADS, CLASSOPS)


# ---------------------------------------------------------------------------
# child processes

class _Drain(threading.Thread):
    """Reads a pipe to its end so a child never blocks on a full pipe."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.data = b""
        self.start()

    def run(self):
        self.data = self.stream.read()

    def result(self) -> bytes:
        self.join()
        return self.data


@dataclass
class Child:
    wall_s: float            # spawn to exit
    rss_mb: float            # the child's own peak RSS
    code: Optional[int]      # None when killed at the timeout
    stdout: bytes
    stderr: bytes
    report: Dict             # the worker's report lines, merged
    setup_s: Optional[float] = None  # spawn to the end of set-up
    run_s: Optional[float] = None    # end of set-up to exit

    def error(self) -> Optional[str]:
        if self.code is None:
            return "timed out"
        if self.code != 0:
            tail = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit {self.code}: {tail[0] if tail else ''}"
        return None


def _paused(a: float, b: float, pauses: List[tuple]) -> float:
    """The part of the interval [a, b] that the pauses cover."""
    return sum(max(0.0, min(b, p1) - max(a, p0)) for p0, p1 in pauses)


def _pause(pid: int, pidfd: int, gauge: Gauge) -> tuple:
    """Stops the child, times the reference while it is stopped and lets it
    go on; returns the interval for which it was stopped."""
    begin = time.monotonic()
    signal.pidfd_send_signal(pidfd, signal.SIGSTOP)
    state = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
    if state.si_code != os.CLD_STOPPED:  # it ended first; wait4 reaps it
        return begin, begin
    os.waitid(os.P_PID, pid, os.WSTOPPED)
    try:
        gauge.sample()
    finally:
        signal.pidfd_send_signal(pidfd, signal.SIGCONT)
    return begin, time.monotonic()


def spawn(worker_args: List[str], timeout: float, gauge: Gauge, pause: bool = True) -> Child:
    """Runs the worker in a child and waits for it.  The child's times are
    scaled to the reference speed (reference.py) from gauge bursts taken
    before and after it and, with ``pause``, during it: after every
    PAUSE_EVERY_S the child is stopped for a burst, and the pauses are left
    out of its times."""
    read_fd, write_fd = os.pipe()
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), str(write_fd), str(MEM_LIMIT), *worker_args]
    pauses: List[tuple] = []
    start = time.monotonic()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          pass_fds=(write_fd,)) as proc, os.fdopen(read_fd, "rb") as report:
        os.close(write_fd)
        drains = [_Drain(s) for s in (proc.stdout, proc.stderr, report)]
        pidfd = os.pidfd_open(proc.pid)
        try:
            deadline = start + timeout
            while True:
                left = deadline - time.monotonic()
                timed_out = left <= 0
                if timed_out or select.select([pidfd], [], [],
                                              min(left, PAUSE_EVERY_S) if pause else left)[0]:
                    break
                if pause:
                    pauses.append(_pause(proc.pid, pidfd, gauge))
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out, err, rep = (d.result() for d in drains)
    merged: Dict = {}
    for line in rep.decode().splitlines():
        try:
            merged.update(json.loads(line))
        except ValueError:  # cut short by a kill; the exit status reports it
            pass
    factor = gauge.factor()
    child = Child(wall_s=(end - start - _paused(start, end, pauses)) * factor,
                  rss_mb=usage.ru_maxrss / 1024.0, code=None if timed_out else proc.returncode,
                  stdout=out, stderr=err, report=merged)
    if "ready" in merged:
        ready = merged["ready"]
        child.setup_s = (ready - start - _paused(start, ready, pauses)) * factor
        child.run_s = (end - ready - _paused(ready, end, pauses)) * factor
    return child


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Outcome:
    samples: Dict[str, List[float]]  # part -> seconds after set-up (jobs) or milliseconds (ops)
    walls: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    rounds_s: List[float] = field(default_factory=list)
    setups_s: List[float] = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    traces: List[Dict] = field(default_factory=list)
    layer_extra: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    gauge: Gauge = field(default_factory=Gauge)

    def fail(self, message: str, count: int = 1):
        self.failed += count
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def add_child(self, child: Child):
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        if child.setup_s is not None:
            self.setups_s.append(child.setup_s)


def output_digest(result: Dict) -> str:
    """SHA-256 of a CLI JSON result without its seed-dependent fields."""
    result = dict(result)
    result.pop("provenance", None)
    result["config"] = {k: v for k, v in result.get("config", {}).items() if k != "seed"}
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def check_job(job: Job, child: Child, golden: Dict[str, str], out: Outcome) -> Optional[str]:
    error = child.error()
    if error:
        return error
    try:
        result = json.loads(child.stdout)
    except ValueError:
        return "output is not JSON"
    if job.passed and result.get("passed") is not True:
        return "output does not report passed"
    if job.digest:
        digest = out.digests[job.name] = output_digest(result)
        if digest != golden.get(job.name):
            return f"output digest {digest[:16]} differs from golden.json"
    return None


def run_cli(name: str, seed: int, seconds: float, trace: bool, golden) -> Outcome:
    jobs = CLI_WORKLOADS[name]
    out = Outcome(samples={job.name: [] for job in jobs})
    # the k-th of n runs of a job sits at (k + 1/2) / n of the round, so the
    # samples of every part span the round rather than one moment of it;
    # None stands for an import-only set-up child
    entries = [(job, job.repeat) for job in jobs] + [(None, SETUP_REPEAT[name])]
    order = [job for _, _, job in sorted(((k + 0.5) / n, i, job)
                                         for i, (job, n) in enumerate(entries)
                                         for k in range(n))]

    def one_job(job: Optional[Job], traced: bool) -> float:
        """Runs one child and returns its wall; a set-up child counts 0."""
        if job is None:
            child = spawn(["0", "setup"], JOB_TIMEOUT_S, out.gauge)
            out.attempted += 1
            if child.error():
                out.fail(f"set-up: {child.error()}")
            out.add_child(child)
            return 0.0
        child = spawn(["1" if traced else "0", "cli", *job.args, "--seed", str(seed),
                       "--format", "json"], JOB_TIMEOUT_S, out.gauge,
                      pause=not traced)  # a pause would fall into the spans
        out.attempted += 1
        error = check_job(job, child, golden, out)
        if error:
            out.fail(f"{job.name}: {error}")
        if traced:
            if not error:
                out.traces.append(child.report["trace"])
                out.layer_extra["cli.emit_s"] += child.report["emit_s"]
                out.layer_extra["cli.output_bytes"] += child.report["output_bytes"]
        else:
            out.add_child(child)
            if not error:
                out.samples[job.name].append(child.run_s)
                out.walls[job.name].append(child.wall_s)
        return child.wall_s

    if trace:
        # each job untraced and then traced, so that a drift in the machine's
        # speed falls on both sides of the overhead ratio alike
        pairs = [(one_job(job, False), one_job(job, True)) for job in order if job]
        out.rounds_s.append(sum(untraced for untraced, _ in pairs))
        out.layer_extra["trace.overhead_ratio"] = sum(t for _, t in pairs) / out.rounds_s[0]
        return out
    deadline = time.monotonic() + seconds
    while True:
        round_start = time.monotonic()
        out.rounds_s.append(sum(one_job(job, False) for job in order))
        # another round only while at least half of one still fits
        if time.monotonic() + (time.monotonic() - round_start) / 2 >= deadline:
            return out


def run_classops(seed: int, seconds: float, trace: bool, golden) -> Outcome:
    out = Outcome(samples={kind: [] for kind in CLASSOPS_KINDS})
    deadline = time.monotonic() + seconds
    session = 0
    while session < (1 if trace else CLASSOPS_MIN_SESSIONS) or (
            not trace and time.monotonic() < deadline):
        child = spawn(["1" if trace else "0", "classops", str(seed * 1000 + session),
                       str(CLASSOPS_ROUNDS)], JOB_TIMEOUT_S, out.gauge,
                      pause=False)  # a pause would fall into an op; the worker gauges its rounds
        session += 1
        out.attempted += 1  # the session's set-up and warm-table check
        out.add_child(child)
        rep = child.report
        error = child.error()
        if error:
            out.fail(f"class-ops session {session}: {error}")
            continue
        out.digests[CLASSOPS] = rep["digest"]
        if rep["digest"] != golden.get(CLASSOPS):
            out.fail(f"class-ops session {session}: warm-table digest {rep['digest'][:16]} "
                     "differs from golden.json")
        out.attempted += rep["attempted"]
        if rep["failed"]:
            out.fail(f"class-ops session {session}: {rep['failed']} ops failed or differ "
                     "from the warm pass", rep["failed"])
        for kind in CLASSOPS_KINDS:
            out.samples[kind].extend(rep["latency_ms"][kind])
        out.rounds_s.extend(rep["round_s"])
        if trace:
            out.traces.append(rep["trace"])
            out.layer_extra["trace.overhead_ratio"] = sum(rep["traced_round_s"]) / sum(rep["round_s"])
    return out


# ---------------------------------------------------------------------------
# metrics

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(name: str, out: Outcome) -> Dict[str, float]:
    if not (out.setups_s and out.rounds_s and all(out.samples.values())):
        raise RuntimeError(f"{name}: no complete measurement, every child failed")
    if name == CLASSOPS:
        wall = statistics.median(out.rounds_s)
    else:
        # one pass of the workload's jobs, each once, at its median spawn-to-exit wall
        wall = sum(statistics.median(out.walls[part]) for part in out.samples)
    values = {"setup_s": statistics.median(out.setups_s), "wall_s": wall,
              "peak_rss_mb": out.rss_mb}
    scale = 1.0 if name == CLASSOPS else 1000.0  # ops are sampled in ms, jobs in s
    for i, samples in enumerate(out.samples.values(), 1):
        values[f"part{i}_p50_ms"] = statistics.median(samples) * scale
    return values


def named(name: str, out: Outcome, values: Dict[str, float]) -> Dict[str, Dict]:
    """The end-to-end metrics under descriptive names, with units."""
    vals = {"setup_s": (values["setup_s"], "s"), "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            "fail_ratio": (out.failed / out.attempted, "ratio")}
    if name == CLASSOPS:
        ops = sum(len(samples) for samples in out.samples.values())
        vals["class_ops_per_s"] = (ops / sum(out.rounds_s), "1/s")
    else:
        vals["wall_s"] = (values["wall_s"], "s")
    for i, (part, samples) in enumerate(out.samples.items(), 1):
        if name == CLASSOPS:
            vals[f"{part}_p50_ms"] = (values[f"part{i}_p50_ms"], "ms")
            vals[f"{part}_p99_ms"] = (percentile(samples, 0.99), "ms")
        else:  # the job's spawn-to-exit wall, set-up included
            vals[f"{part.replace('-', '_')}_s"] = (statistics.median(out.walls[part]), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}


def per_layer(out: Outcome) -> Dict[str, float]:
    from spans import layer_metrics, merge
    values = layer_metrics(merge(out.traces))
    values.update(out.layer_extra)
    return values


# ---------------------------------------------------------------------------
# environment record

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(trace: bool) -> Dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tatebv").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": _git_commit(), "src_sha256": src.hexdigest(),
            "trace": int(trace)}


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: Dict, golden) -> Dict:
    if name == CLASSOPS:
        out = run_classops(seed, seconds, trace, golden)
    else:
        out = run_cli(name, seed, seconds, trace, golden)
    e2e = end_to_end(name, out)
    if trace:
        values, metrics = per_layer(out), spec["per_layer"]
    else:
        values, metrics = e2e, spec["end_to_end"]
    info = {"workload": name, "seed": seed, "seconds": seconds, "env": environment(trace),
            "parts": {f"part{i}": part for i, part in enumerate(out.samples, 1)},
            "samples": {part: len(s) for part, s in out.samples.items()},
            "rounds": len(out.rounds_s), "named": named(name, out, e2e),
            "reference_s": statistics.median(out.gauge.bursts),
            "digests": out.digests, "failures": out.failures[:20]}
    print(json.dumps({"perfbench": info}), flush=True)
    return {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0) if trace else values[m["name"]],
                                    "unit": m["unit"]} for m in metrics},
            "named": info["named"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tatebv" / "__init__.py").is_file():
        print(f"perfbench: no tatebv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one job at a time on one core; children inherit the affinity.  The
    # highest-numbered core is used because core 0 takes more interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec,
                                         golden)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            print(json.dumps({k: v for k, v in results[name].items() if k != "named"}), flush=True)
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["named"].items()}}
    else:
        final = {k: v for k, v in results[names[0]].items() if k != "named"}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
