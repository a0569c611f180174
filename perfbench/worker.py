"""Child process of the benchmark: one CLI job or one class-arithmetic session.

    python3 perfbench/worker.py REPORT_FD MEM_BYTES TRACE cli ARG...
    python3 perfbench/worker.py REPORT_FD MEM_BYTES TRACE classops SEED ROUNDS
    python3 perfbench/worker.py REPORT_FD MEM_BYTES 0 setup

The worker caps its own address space at MEM_BYTES, imports tatebv from
the checkout's ``src`` directory and writes JSON lines to REPORT_FD: first
the CLOCK_MONOTONIC time at which set-up ended, then the measurements.
With TRACE = 1 it installs the span tracer; with 0 it never imports it.

``cli`` runs ``tatebv.cli.main(ARG...)`` exactly as ``python -m
tatebv.cli`` would and exits with its return code; ``setup`` stops after
the import, which is all a CLI job's set-up is.  ``classops`` builds
``DecOps`` for S3 over F3, fills every cache with one pass over all basis
classes of the window, then times ROUNDS rounds of a seeded shuffle of
every cup, BV operator and bracket of that pass, each checked against the
pass's result.  Op timings are scaled to the reference speed
(reference.py).  A traced session times ROUNDS untraced rounds before
tracing ROUNDS more.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLASSOPS_GROUP = ("symmetric", 3)
CLASSOPS_P = 3
CLASSOPS_WINDOW = (-4, 4)


class Report:
    def __init__(self, fd: int):
        self._fh = os.fdopen(fd, "w")

    def send(self, **fields):
        self._fh.write(json.dumps(fields) + "\n")
        self._fh.flush()


def _import_tatebv():
    sys.path.insert(0, str(SRC))
    import tatebv.cli
    if Path(tatebv.__file__).resolve().parent != SRC / "tatebv":
        raise ImportError(f"tatebv resolved to {tatebv.__file__}, not {SRC}")
    return tatebv.cli


def _start_tracer():
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


class _CountingStdout:
    """Forwards writes to stdout and counts the encoded bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


def run_cli(report: Report, trace: bool, args) -> int:
    cli = _import_tatebv()
    report.send(ready=time.monotonic())
    if not trace:
        return cli.main(args)
    tracer = _start_tracer()
    out = sys.stdout = _CountingStdout(sys.stdout)
    code = cli.main(args)
    done = time.perf_counter()
    sys.stdout = out.inner
    emit = done - tracer.last_root_end if tracer.last_root_end is not None else 0.0
    report.send(trace=tracer.summary(), emit_s=emit, output_bytes=out.bytes)
    return code


def _encode(c):
    parts = {}
    for cls, (tag, val) in sorted(c.parts.items()):
        if tag != "c":
            raise ValueError(f"class component {cls} has no coordinates")
        parts[str(cls)] = list(val)
    return {"degree": c.degree, "parts": parts}


def run_classops(report: Report, trace: bool, seed: int, rounds: int) -> int:
    _import_tatebv()
    from tatebv.bv import CohClass
    from tatebv.groups import preset_group
    from tatebv.harness import DecOps

    from reference import Gauge

    lo, hi = CLASSOPS_WINDOW
    ops = DecOps(preset_group(*CLASSOPS_GROUP), CLASSOPS_P)
    basis = {}
    for d in range(lo, hi + 1):
        for k in range(ops.cd.num_classes):
            space = ops.space(k, d)
            for i in range(space.dim):
                coords = tuple(int(j == i) for j in range(space.dim))
                basis[f"{d}:{k}:{i}"] = ops.from_class(k, CohClass(space, coords))
    # the pairs whose bracket (and so cup) lands in the window
    pairs = [(a, b) for a, A in basis.items() for b, B in basis.items()
             if lo <= A.degree + B.degree - 1 and A.degree + B.degree <= hi]
    deltas = [a for a, A in basis.items() if lo <= A.degree - 1]
    expected = {}
    for a, b in pairs:
        expected[("cup", a, b)] = ops.cup(basis[a], basis[b])
        expected[("bracket", a, b)] = ops.bracket(basis[a], basis[b])
    for a in deltas:
        expected[("delta", a)] = ops.delta(basis[a])
    report.send(ready=time.monotonic())

    table = {" ".join(key): _encode(c) for key, c in expected.items()}
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
    # every delta repeats so each kind gets about as many samples per round
    schedule = list(expected) + [("delta", a) for a in deltas] * (len(pairs) // len(deltas) - 1)
    rng = random.Random(seed)

    def timed_rounds():
        lat = {"cup": [], "delta": [], "bracket": []}
        walls, failed = [], 0
        gauge = Gauge()
        for _ in range(rounds):
            rng.shuffle(schedule)
            timed = []
            start = time.perf_counter()
            for key in schedule:
                op = getattr(ops, key[0])  # looked up here so a tracer sees it
                args = [basis[name] for name in key[1:]]
                t0 = time.perf_counter()
                try:
                    got = op(*args)
                except Exception:  # a crashing op is a failed op, not a crashed run
                    failed += 1
                    continue
                timed.append((key[0], (time.perf_counter() - t0) * 1000.0))
                want = expected[key]
                if got.degree != want.degree or got.parts != want.parts:
                    failed += 1
            wall = time.perf_counter() - start
            factor = gauge.factor()  # to the reference speed, see reference.py
            walls.append(wall * factor)
            for kind, ms in timed:
                lat[kind].append(ms * factor)
        return {"latency_ms": lat, "round_s": walls, "attempted": rounds * len(schedule),
                "failed": failed}

    result = timed_rounds()
    if trace:
        tracer = _start_tracer()
        traced = timed_rounds()
        result["trace"] = tracer.summary()
        result["traced_round_s"] = traced["round_s"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
    report.send(digest=digest, **result)
    return 0


def main(argv) -> int:
    fd, mem, trace, mode, *rest = argv
    resource.setrlimit(resource.RLIMIT_AS, (int(mem), int(mem)))
    report = Report(int(fd))
    if mode == "cli":
        return run_cli(report, trace == "1", rest)
    if mode == "setup":
        _import_tatebv()
        report.send(ready=time.monotonic())
        return 0
    if mode == "classops":
        return run_classops(report, trace == "1", int(rest[0]), int(rest[1]))
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
