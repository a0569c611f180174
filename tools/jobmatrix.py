"""Run the job matrix of CLI jobs, one at a time, each in a child process.

    python tools/jobmatrix.py --out BENCH_N.json [--quick] [--repeat N]
                              [--src LABEL=DIR ...]

Each job is ``python -m tatebv.cli ... --format json`` with ``PYTHONPATH``
set to a source tree (``--src``, default this checkout's ``src``), started
by ``LAUNCHER``, a small ``python -S`` process with ``RLIMIT_AS`` (address
space) and ``RLIMIT_CPU`` set, which forks, execs the job with those
limits inherited, and reports through a pipe the job's ``os.wait4``
rusage, its exit code and its wall time from fork to reap.  On Linux a
process's ``ru_maxrss`` starts from the RSS of the process it was forked
from, and exec keeps that high-water mark, so a job forked from the
harness itself would read at least the harness's RSS; forked from the
launcher it reads its own peak.  Per run it records that wall time, that
peak RSS, the exit code, negative for the signal that killed the job
(``RLIMIT_CPU`` sends SIGXCPU; a job that runs out of address space exits
3), and ``out_sha256``, the SHA-256 of its stdout JSON
without ``provenance`` (None if stdout is not JSON).  It also records
``scale`` and ``wall_s_scaled`` = ``wall_s`` * ``scale``: the ``Gauge`` of
``perfbench/reference.py`` times a fixed reference computation in bursts
before and after each run, and ``scale`` is ``REFERENCE_S`` over their
mean, so that scaled times of different invocations, and files, compare
across a drift in the machine's speed.  A job whose runs that exit 0
disagree on that digest, between trees or between repeats, prints a
``MISMATCH`` line, and a run whose exit code is not the one its job
expects prints an ``UNEXPECTED EXIT`` line; either makes the tool exit 1,
after it has written ``--out``.

With several ``--src`` trees the runs alternate between them job by job,
and every other repeat of a job runs the trees in reverse order, so that
a slow spell of a shared machine, or a cost of going first, hits both
alike.  Each tree is first compiled to bytecode with ``compileall``,
which writes it whatever ``PYTHONDONTWRITEBYTECODE`` says, and runs one
untimed import.  The results go under ``runs[LABEL]`` of ``--out``; the
other labels already in that file stay.

Each printed line gives a job's median wall time and, with ``--repeat``
above 1, the minimum and maximum of its samples in parentheses, then the
median scaled time: on sub-second jobs the ranges of two trees often
overlap, and then their medians show no difference.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))  # perfbench is no package
from reference import Gauge

MEM_MB = 1024  # RLIMIT_AS of each child: tables S3 -7..7 peaks at about 595 MB under it
CPU_S = 120  # RLIMIT_CPU of each child: the slowest job, tables S3 -7..7, takes 25-33 s

# (command, group, char, window, in the quick subset, expected exit code);
# verify-s3 needs no group.  dims S4 -5..5 is refused by the cost caps: it
# exits 3, though its route (harness.sylow_ranks) now costs milliseconds,
# since the caps still count bar-complex columns.  tables S3 -7..7 and
# tables S4 -3..3 at p = 2 and 3 build the whole group's spaces in degrees
# n >= 1 from its Sylow subgroup's (DecOps._seed), without eliminating the
# kernel of d_n: S3 -7..7, which ran out of MEM_MB with that kernel (exit
# 3), now exits 0.
# dims S3 p=5 -5..2 reads its direct dims at -4 off degree 3 by duality, a
# degree outside its window.  The p >= 5 dims rows run the direct path at
# p = 5 and 7, S3 at p = 5 with p prime to |G|; dims S4 p=3 runs it on a
# group that is no p-group, with classes of up to 8 members.
# tables S4 p=2 -2..2 is over the direct-path cap: no spot check, so it runs
# the seeded recomputation of the cups tables fills from the other order.
# selftest S4 p=2 -4..4 and verify-appendix-b S5 p=2 are refused by the
# decomposition cost cap before they build a complex: both exit 3.
# dims C2 p=2 -6..6 and tables C3 p=3 -4..4 stream runs of one and of two
# sibling coboundary columns (q = 1, 2), and quotients out of d <= -2 on a
# small q.  dims C9 p=3 -4..4 and V4 p=2 -6..6 read p-group centralizers
# off their minimal resolutions, at p = 3 and on a wide window.  tables D12
# p=2 -3..3 runs the double-coset cup on six classes, so that its shared
# conjugated and restricted factors (TransferContext.cup_factor) serve many
# double cosets of many class pairs.  tables D12 p=3 -3..3 is in the quick
# subset so that every CI run corestricts through real coset paths at odd p
# (TransferContext.corestrict_terms, W < C_k in nonnegative degrees), not
# only at p = 2 or where cor is the identity; it takes about 0.15 s.
JOBS = [
    ("verify-s3", None, 3, "-4..3", True, 0),
    ("selftest", "symmetric:3", 3, "-3..3", True, 0),
    ("selftest", "dihedral:4", 2, "-2..2", True, 0),
    ("selftest", "symmetric:4", 2, "-4..4", True, 3),
    ("verify-appendix-b", "symmetric:5", 2, "-2..2", True, 3),
    ("tables", "symmetric:3", 3, "-4..4", True, 0),
    ("tables", "symmetric:3", 3, "-5..5", True, 0),
    ("tables", "symmetric:3", 3, "-6..6", False, 0),
    ("tables", "symmetric:3", 3, "-7..7", False, 0),
    ("tables", "dihedral:4", 2, "-2..2", False, 0),
    ("tables", "symmetric:4", 2, "-2..2", True, 0),
    ("dims", "dihedral:4", 2, "-4..4", True, 0),
    ("dims", "dihedral:4", 2, "-5..5", False, 0),
    ("dims", "perms:(0 1 2),(0 1)(2 3)", 2, "-3..3", False, 0),
    ("dims", "quaternion8", 2, "-3..3", False, 0),
    ("dims", "symmetric:4", 2, "-3..3", True, 0),
    ("dims", "symmetric:4", 2, "-5..5", False, 3),
    ("dims", "symmetric:3", 5, "-5..5", True, 0),
    ("dims", "symmetric:3", 5, "-5..2", True, 0),
    ("dims", "dihedral:5", 5, "-3..3", True, 0),
    ("dims", "dihedral:6", 3, "-3..3", True, 0),
    ("dims", "cyclic:7", 7, "-4..4", True, 0),
    ("dims", "dihedral:7", 7, "-3..3", True, 0),
    ("dims", "symmetric:4", 3, "-2..2", True, 0),
    ("tables", "dihedral:5", 5, "-3..3", False, 0),
    ("tables", "cyclic:6", 3, "-4..4", False, 0),
    ("tables", "dihedral:6", 2, "-3..3", True, 0),
    ("tables", "dihedral:6", 3, "-3..3", True, 0),
    ("dims", "cyclic:2", 2, "-6..6", True, 0),
    ("tables", "cyclic:3", 3, "-4..4", True, 0),
    ("dims", "cyclic:9", 3, "-4..4", True, 0),
    ("dims", "klein_four", 2, "-6..6", True, 0),
    ("tables", "symmetric:4", 3, "-3..3", False, 0),
    ("tables", "symmetric:4", 2, "-3..3", False, 0),
]


def job_args(cmd, group, p, window):
    args = [cmd] + (["--group", group] if group else [])
    return args + ["--char", str(p), f"--window={window}", "--format", "json"]


def job_name(cmd, group, p, window):
    return " ".join(filter(None, [cmd, group, f"p={p}", window]))


def output_digest(stdout: bytes):
    """SHA-256 of a job's JSON output with its ``provenance`` removed, or
    None if the output is not JSON."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return None
    data.pop("provenance", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def digest_mismatch(samples):
    """The short output digests of one job's runs that exit 0, per tree
    label, if they are not all one digest; else None.  A run that exits
    otherwise has no output to compare (its exit code is checked on its
    own), so a job that one tree newly completes and another cannot run
    is no mismatch, and it hides no real mismatch among the others."""
    digests = {label: sorted({str(s["out_sha256"])[:12] for s in got if s["exit"] == 0})
               for label, got in samples.items()}
    return digests if len(set().union(*digests.values())) > 1 else None


# argv: the pipe's write end, then the job's argv; it writes "maxrss_kb exit wall_s"
LAUNCHER = """
import os, sys, time
fd, argv = int(sys.argv[1]), sys.argv[2:]
t0 = time.perf_counter()
pid = os.fork()
if not pid:
    os.close(fd)
    try:
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
os.write(fd, f"{usage.ru_maxrss} {os.waitstatus_to_exitcode(status)} {wall}".encode())
"""


def run_child(argv, src):
    """One child run through ``LAUNCHER``: wall seconds, peak RSS in MB,
    exit code, output digest, last stderr line."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEM_MB << 20, MEM_MB << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_S, CPU_S + 5))

    env = dict(os.environ, PYTHONPATH=str(src))
    r, w = os.pipe()
    with os.fdopen(r) as report, tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, str(w), sys.executable] + argv,
                             env=env, cwd=ROOT, preexec_fn=limit, stdout=out, stderr=err,
                             pass_fds=(w,)).wait()
        finally:
            os.close(w)
        maxrss, code, wall = report.read().split()
        out.seek(0)
        err.seek(0)
        digest = output_digest(out.read())
        lines = err.read().decode(errors="replace").strip().splitlines()
    return {"wall_s": round(float(wall), 3), "peak_rss_mb": round(int(maxrss) / 1024, 1),
            "exit": int(code), "out_sha256": digest,
            "stderr": lines[-1][:200] if lines else ""}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="run the quick subset only")
    ap.add_argument("--repeat", type=int, default=1, help="runs of each job per tree")
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a source tree to run, under a label (repeatable)")
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = ap.parse_args(argv)

    trees = {}
    for spec in args.src or [f"this={ROOT / 'src'}"]:
        label, sep, path = spec.partition("=")
        if not sep:
            ap.error(f"--src wants LABEL=DIR, got {spec!r}")
        trees[label] = Path(path).resolve()
    jobs = [j for j in JOBS if j[4] or not args.quick]

    for src in trees.values():
        compileall.compile_dir(src, quiet=1)
        run_child(["-c", "import tatebv.cli"], src)
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform()}
    gauge = Gauge()
    limits = {"address_space_mb": MEM_MB, "cpu_s": CPU_S}
    runs = {label: {"machine": machine, "limits": limits, "repeat": args.repeat,
                    "jobs": []} for label in trees}
    failed = False
    for *job, _, expected in jobs:
        argv = ["-m", "tatebv.cli"] + job_args(*job)
        samples = {label: [] for label in trees}
        for rep in range(args.repeat):
            order = list(trees.items())
            for label, src in order[::-1] if rep % 2 else order:
                sample = run_child(argv, src)
                sample["scale"] = round(gauge.factor(), 4)
                sample["wall_s_scaled"] = round(sample["wall_s"] * sample["scale"], 3)
                samples[label].append(sample)
        for label, got in samples.items():
            rec = {"job": job_name(*job), "argv": argv[2:],
                   "wall_s_median": round(statistics.median(s["wall_s"] for s in got), 3),
                   "wall_s_scaled_median": round(statistics.median(s["wall_s_scaled"] for s in got), 3),
                   "peak_rss_mb_max": max(s["peak_rss_mb"] for s in got),
                   "exits": sorted({s["exit"] for s in got}), "expected_exit": expected,
                   "samples": got}
            runs[label]["jobs"].append(rec)
            walls = [s["wall_s"] for s in got]
            spread = f" ({min(walls):.3f}-{max(walls):.3f})" if len(walls) > 1 else ""
            print(f"{label:>12}  {rec['job']:<34} wall {rec['wall_s_median']:7.3f} s{spread}  "
                  f"scaled {rec['wall_s_scaled_median']:7.3f} s  rss {rec['peak_rss_mb_max']:7.1f} MB  "
                  f"exit {rec['exits']}", flush=True)
            if rec["exits"] != [expected]:
                failed = True
                print(f"    UNEXPECTED EXIT  {label} {rec['job']}: {rec['exits']}, expected "
                      f"{expected}", flush=True)
        digests = digest_mismatch(samples)
        if digests:
            failed = True
            print(f"    MISMATCH  {job_name(*job)}: {digests}", flush=True)

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("runs", {}).update(runs)
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
