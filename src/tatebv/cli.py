"""Command-line interface.

    tatebv <command> --group <preset[:param] | perms:"(0 1 2),(0 1)" | file:PATH>
           --char P --window LO..HI --seed N --format json|csv|text

Commands: info, dims, tables, verify-s3, verify-appendix-b, selftest,
export-diff.  Exit codes: 0 success, 1 verification failure, 2 invalid
config, 3 cost cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Dict

from .groups import GroupError
from .harness import (ConfigError, CostCapError, JobConfig, VerificationError, cmd_dims,
                      cmd_export_diff, cmd_info, cmd_tables)
from .verify import cmd_selftest, cmd_verify_appendix_b, cmd_verify_s3

# Every CLI job is one short process.  The imports (site's and these) leave
# about 12,600 GC-tracked objects that every full collection traverses, the
# one at interpreter exit included: about 7 ms of each job, more than a
# whole small dims job.  Frozen, no collection visits them and the OS
# reclaims them with the process; there is no cyclic garbage yet to pin.
# The package itself does not freeze, nor does main(): a caller that runs
# many jobs in one process would pin each job's garbage for good.
gc.freeze()

COMMANDS = ("info", "dims", "tables", "verify-s3", "verify-appendix-b",
            "selftest", "export-diff")


def _parse_window(text: str):
    try:
        lo, _, hi = text.partition("..")
        return (int(lo), int(hi))
    except ValueError as exc:
        raise ConfigError(f"cannot parse window {text!r} (expected LO..HI)") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tatebv", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--group", default="symmetric:3",
                    help="preset[:param], perms:\"(0 1 2),(0 1)\" or file:PATH")
    ap.add_argument("--char", type=int, default=3, help="prime characteristic p")
    ap.add_argument("--window", default="-4..3", help="degree window LO..HI")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", dest="fmt", default="text", choices=("json", "csv", "text"))
    ap.add_argument("--output", default=".", help="directory for csv output files")
    return ap


def _emit_text(command: str, result: Dict) -> None:
    if command in ("verify-s3", "verify-appendix-b"):
        for c in result["checks"]:
            print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}"
                  + (f"  ({c['detail']})" if c.get("detail") else ""))
        if "normalization" in result:
            print(f"normalization: {result['normalization']}")
        for d in result.get("source_discrepancies", []):
            print(f"[{'agrees' if d['holds'] else 'DIFFERS from source'}] {d['printed']}")
        print(f"result: {'PASS' if result['passed'] else 'FAIL'}")
    elif command == "selftest":
        for name, s in result["suites"].items():
            print(f"[{'PASS' if s['failures'] == 0 else 'FAIL'}] {name}: "
                  f"{s['runs']} runs, {s['failures']} failures")
        print(f"result: {'PASS' if result['passed'] else 'FAIL'}")
    elif command == "dims":
        dims = result["dims"]
        print("degree:", " ".join(str(d) for d in dims["degrees"]))
        print("total: ", " ".join(str(d) for d in dims["total"]))
        for cls, row in dims["per_class"].items():
            print(f"class {cls}:", " ".join(str(d) for d in row))
        if dims.get("direct") is not None:
            print("direct-path interior dims confirmed:", dims["direct"])
    elif command == "export-diff":
        print(result["format"])
        for t in result["triples"]:
            print(",".join(str(v) for v in t))
    else:
        print(json.dumps(result, indent=2, sort_keys=True))


def _emit_csv(command: str, result: Dict, outdir: str) -> None:
    import os
    os.makedirs(outdir, exist_ok=True)

    def write(name, header, rows):
        path = os.path.join(outdir, f"tatebv_{command}_{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(path)

    if command == "dims":
        dims = result["dims"]
        rows = [[d, t] for d, t in zip(dims["degrees"], dims["total"])]
        write("total", ["degree", "dim"], rows)
        for cls, row in dims["per_class"].items():
            write(f"class_{cls}", ["degree", "dim"],
                  [[d, t] for d, t in zip(dims["degrees"], row)])
    elif command == "tables":
        tables = result["tables"]
        for name in ("cup", "delta", "bracket"):
            rows = []
            for key, val in tables[name].items():
                rows.append([key.replace(",", ";"),
                             "out-of-window" if val is None else
                             " + ".join(f"{c}*{b}" for b, c in sorted(val.items())) or "0"])
            write(name, [name, "value"], rows)
    elif command == "export-diff":
        write("triples", ["degree", "row", "col", "value"], result["triples"])
    else:
        print(json.dumps(result, sort_keys=True))


def _join_window_args(argv):
    """Let ``--window -4..3`` parse despite the leading dash."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--window":
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"--window={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_window_args(argv))
    try:
        cfg = JobConfig(group=args.group, p=args.char, window=_parse_window(args.window),
                        seed=args.seed, fmt=args.fmt)
        if args.command == "info":
            result = cmd_info(cfg)
        elif args.command == "dims":
            result = cmd_dims(cfg)
        elif args.command == "tables":
            result = cmd_tables(cfg)
        elif args.command == "verify-s3":
            result = cmd_verify_s3(cfg)
        elif args.command == "verify-appendix-b":
            result = cmd_verify_appendix_b(cfg)
        elif args.command == "selftest":
            result = cmd_selftest(cfg)
        elif args.command == "export-diff":
            result = cmd_export_diff(cfg)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, GroupError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except CostCapError as exc:
        print(f"cost cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("cost cap exceeded: out of memory", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1

    if args.fmt == "json":
        print(json.dumps(result, sort_keys=True))
    elif args.fmt == "csv":
        _emit_csv(args.command, result, args.output)
    else:
        _emit_text(args.command, result)

    if args.command in ("verify-s3", "verify-appendix-b", "selftest") and not result["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
