import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import tatebv

from tatebv import cli, linalg
from tatebv.cli import main
from tatebv.harness import ConfigError, JobConfig, check_dec_window, cmd_dims, cmd_tables

from test_golden import GOLDEN


def run_json(capsys, *args):
    rc = main(list(args) + ["--format", "json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_dims_s3(capsys):
    rc, data = run_json(capsys, "dims", "--group", "symmetric:3", "--char", "3",
                        "--window", "-4..3")
    assert rc == 0
    assert data["dims"]["total"] == [2, 1, 1, 2, 2, 1, 1, 2]
    assert data["dims"]["per_class"]["a"] == [1] * 8
    assert data["dims"]["direct"] == {"-3": 1, "-2": 1, "-1": 2, "0": 2, "1": 1, "2": 1}


def test_dims_c2_vanish(capsys):
    rc, data = run_json(capsys, "dims", "--group", "cyclic:2", "--char", "3",
                        "--window", "-3..2")
    assert rc == 0
    assert data["dims"]["total"] == [0] * 6


def test_dims_large_prime_exact(capsys):
    # p = 65537 overflows int32 products, so elimination must stay on dict columns
    rc, data = run_json(capsys, "dims", "--group", "symmetric:3", "--char", "65537",
                        "--window", "-2..2")
    assert rc == 0
    dims = data["dims"]
    direct = {int(n): d for n, d in dims["direct"].items()}
    assert direct
    for n, d in direct.items():
        assert dims["total"][dims["degrees"].index(n)] == d


def test_info_perms(capsys):
    rc, data = run_json(capsys, "info", "--group", "perms:(0 1 2),(0 1)", "--char", "3",
                        "--window", "-2..2")
    assert rc == 0
    assert data["order"] == 6
    assert len(data["classes"]) == 3


def test_group_from_file(tmp_path, capsys):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"mult": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    rc, data = run_json(capsys, "info", "--group", f"file:{path}", "--char", "3",
                        "--window", "-2..2")
    assert rc == 0
    assert data["order"] == 3


def test_invalid_config_exit_codes(tmp_path, capsys):
    assert main(["dims", "--group", "cyclic:2", "--char", "6", "--window", "-2..2"]) == 2
    assert main(["dims", "--group", "nosuch:3", "--char", "3", "--window", "-2..2"]) == 2
    assert main(["dims", "--group", "cyclic:2", "--char", "3", "--window", "2..-2"]) == 2
    # jobs run in one thread, so there is no --threads option
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--group", "cyclic:2", "--char", "3", "--window", "-2..2", "--threads", "2"])
    assert exc.value.code == 2
    # file: specs: a missing file, bad JSON, a table without "mult"
    missing = tmp_path / "missing.json"
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    no_mult = tmp_path / "no_mult.json"
    no_mult.write_text(json.dumps({"labels": ["e"]}))
    for path in (missing, bad_json, no_mult):
        assert main(["info", "--group", f"file:{path}", "--char", "3", "--window", "-2..2"]) == 2
    # malformed specs: a preset parameter or a cycle point that is no
    # integer, and file tables of the wrong shape (the fourth has too few
    # labels for a table whose identity is not element 0) or with an
    # "order" that is not the integer size of the table
    for spec in ("symmetric:x", "perms:(0 1 x)"):
        assert main(["info", "--group", spec, "--char", "3", "--window", "-2..2"]) == 2
    # a parameter on a preset that takes none; without one it runs
    for spec in ("quaternion8:5", "klein_four:2"):
        assert main(["info", "--group", spec, "--char", "3", "--window", "-2..2"]) == 2
    assert main(["info", "--group", "quaternion8", "--char", "3", "--window", "-2..2"]) == 0
    for i, table in enumerate(({"mult": 5}, {"mult": [[0, 1], [1, "a"]]},
                               {"mult": [[0, 1], [1, 0]], "labels": 7},
                               {"mult": [[1, 2, 0], [2, 0, 1], [0, 1, 2]], "labels": ["a"]},
                               {"order": 5, "mult": [[0, 1], [1, 0]]},
                               {"order": "2", "mult": [[0, 1], [1, 0]]},
                               {"order": True, "mult": [[0]]})):
        path = tmp_path / f"malformed{i}.json"
        path.write_text(json.dumps(table))
        assert main(["info", "--group", f"file:{path}", "--char", "3", "--window", "-2..2"]) == 2
    declared = tmp_path / "declared.json"
    declared.write_text(json.dumps({"order": 2, "mult": [[0, 1], [1, 0]]}))
    assert main(["info", "--group", f"file:{declared}", "--char", "3", "--window", "-2..2"]) == 0
    capsys.readouterr()


def test_large_characteristic_decided_or_refused(capsys):
    # 2^61 - 1 is prime, and deciding that takes no trial division up to 2^30.5
    t0 = time.perf_counter()
    rc, data = run_json(capsys, "info", "--group", "cyclic:2", "--char", str(2 ** 61 - 1),
                        "--window", "-2..2")
    assert rc == 0 and data["order"] == 2
    assert time.perf_counter() - t0 < 1.0
    # 2^89 - 1 is prime too, but above the bound where primality is decided exactly
    assert main(["info", "--group", "cyclic:2", "--char", str(2 ** 89 - 1),
                 "--window", "-2..2"]) == 2
    assert str(linalg.PRIME_BOUND) in capsys.readouterr().err


def _numpy_loaded_after(*jobs):
    """Run the CLI jobs in a fresh interpreter; whether numpy got imported."""
    code = ("import contextlib, io, sys\n"
            "from tatebv.cli import main\n"
            f"for argv in {[list(j) for j in jobs]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv + ['--format', 'json']) == 0, argv\n"
            "print('numpy' in sys.modules)\n")
    return _fresh_child("-c", code) == "True"


def _fresh_child(*argv, exit_code=0):
    """Run a fresh interpreter on argv with this tatebv importable; its
    stdout, once its exit code is checked."""
    src = os.path.dirname(os.path.dirname(tatebv.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        x for x in (src, os.environ.get("PYTHONPATH")) if x))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    return proc.stdout.strip()


def test_no_cli_job_imports_numpy():
    # every p runs on pure-Python engines: bitsets at p = 2 and 3, dicts above
    assert not _numpy_loaded_after(
        ("dims", "--group", "quaternion8", "--char", "2", "--window", "-3..3"),
        ("tables", "--group", "symmetric:3", "--char", "3", "--window", "-3..3"),
        ("dims", "--group", "symmetric:3", "--char", "5", "--window", "-3..3"),
        ("tables", "--group", "dihedral:5", "--char", "5", "--window", "-2..2"),
        ("dims", "--group", "cyclic:7", "--char", "7", "--window", "-3..3"))


def test_cold_import_loads_no_dataclasses_or_inspect():
    # every child compiles src/ without cached bytecode when
    # PYTHONDONTWRITEBYTECODE is set; dataclasses would add inspect, ast,
    # dis and tokenize to each start-up
    code = "import sys, tatebv.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_child("-c", code) == "[]"


def test_only_the_cli_module_freezes_the_import_heap():
    # gc.freeze() keeps every collection, the one at exit too, off the
    # objects the imports built; a library import must not pin its caller's heap
    assert _fresh_child("-c", "import gc, tatebv.cli\nprint(gc.get_freeze_count() > 0)") == "True"
    assert _fresh_child("-c", "import gc, tatebv\nprint(gc.get_freeze_count())") == "0"


def test_cli_child_output_and_exit_codes():
    args = ("dims", "--group", "quaternion8", "--char", "2", "--window", "-3..3")
    data = json.loads(_fresh_child("-m", "tatebv.cli", *args, "--format", "json"))
    data.pop("provenance")
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == dict(GOLDEN)[args]
    _fresh_child("-m", "tatebv.cli", "dims", "--group", "cyclic:2", "--char", "6",
                 "--window", "-2..2", exit_code=2)
    _fresh_child("-m", "tatebv.cli", "dims", "--group", "symmetric:4", "--char", "2",
                 "--window", "-5..5", exit_code=3)


def test_decomposition_window_refused_up_front(monkeypatch, capsys):
    # |G| = 2 passes every cost cap, so only the window check keeps a job's
    # degrees lo-1..hi inside harness.DEC_WINDOW = (-64, 64)
    check_dec_window((-63, 64))
    for window in ((-64, 64), (-63, 65)):
        with pytest.raises(ConfigError):
            check_dec_window(window)

    def no_elimination(*args):
        raise AssertionError("elimination ran before the window was refused")

    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    for command, p in (("tables", "2"), ("verify-s3", "3"), ("verify-appendix-b", "2")):
        assert main([command, "--group", "cyclic:2", "--char", p, "--window", "-70..70"]) == 2
    capsys.readouterr()


def test_cost_cap_exit_code(monkeypatch, capsys):
    assert main(["dims", "--group", "cyclic:5", "--char", "5", "--window", "-200..200"]) == 3
    assert main(["export-diff", "--group", "symmetric:4", "--char", "2",
                 "--window", "-9..9"]) == 3

    def out_of_memory(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_dims", out_of_memory)
    assert main(["dims", "--group", "cyclic:2", "--char", "3", "--window", "-2..2"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command,check", [("dims", "dims disagree"), ("tables", "spot check")])
def test_failed_consistency_check_exits_one(monkeypatch, capsys, command, check):
    """A consistency check that fails (here the direct/decomposition
    agreement of ``dims`` and the direct-path spot check of ``tables``)
    is one stderr line and exit 1, with no traceback."""
    from tatebv import harness
    if command == "dims":
        real = harness.direct_dims
        monkeypatch.setattr(harness, "direct_dims",
                            lambda *args: [[x + 1 for x in row] for row in real(*args)])
    else:
        # the spot check compares cups on the direct path: make them all zero
        monkeypatch.setattr(harness, "cup", lambda a, b: a.complex.zero(a.degree + b.degree))
    rc = main([command, "--group", "symmetric:3", "--char", "3", "--window", "-2..2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ") and check in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_selftest_and_verify_exit_zero(capsys):
    assert main(["selftest", "--group", "cyclic:3", "--char", "3", "--window", "-2..2",
                 "--seed", "5"]) == 0
    assert main(["verify-appendix-b", "--group", "cyclic:3", "--char", "3",
                 "--window", "-3..2"]) == 0
    capsys.readouterr()


def test_appendix_needs_modular_characteristic(capsys):
    assert main(["verify-appendix-b", "--group", "cyclic:3", "--char", "2",
                 "--window", "-3..2"]) == 2
    capsys.readouterr()


def test_json_determinism():
    cfg = JobConfig(group="symmetric:3", p=3, window=(-3, 2), seed=9, fmt="json")
    a = json.dumps(cmd_dims(cfg), sort_keys=True)
    b = json.dumps(cmd_dims(cfg), sort_keys=True)
    assert a == b
    ta = json.dumps(cmd_tables(cfg), sort_keys=True)
    tb = json.dumps(cmd_tables(cfg), sort_keys=True)
    assert ta == tb


def test_export_diff_triples(capsys):
    rc, data = run_json(capsys, "export-diff", "--group", "cyclic:2", "--char", "2",
                        "--window", "-2..1")
    assert rc == 0
    from tatebv.complexes import DComplex
    from tatebv.groups import preset_group
    dc = DComplex(preset_group("cyclic", 2), 2, (-2, 1))
    expected = []
    for d in (-2, -1, 0):
        for i, j, v in dc.matrix(d).triples():
            expected.append([d, i, j, v])
    assert data["triples"] == expected


def test_csv_output(tmp_path, capsys):
    rc = main(["dims", "--group", "cyclic:2", "--char", "2", "--window", "-2..1",
               "--format", "csv", "--output", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    files = sorted(os.listdir(tmp_path))
    assert "tatebv_dims_total.csv" in files
    text = (tmp_path / "tatebv_dims_total.csv").read_text().splitlines()
    assert text[0] == "degree,dim"
    assert len(text) == 5


def test_tables_c2_f2_structure():
    cfg = JobConfig(group="cyclic:2", p=2, window=(-2, 1), seed=0)
    data = cmd_tables(cfg)
    tables = data["tables"]
    assert tables["spot_check"]["failed"] == 0
    # every in-window product of basis classes is a single basis class
    for key, val in tables["cup"].items():
        if val is None:
            continue
        assert len(val) <= 1
    # the BV column of every degree-0 class vanishes
    for key, val in tables["delta"].items():
        if "deg0" in key.split(":")[0] and val is not None:
            assert val == {}


def test_verify_s3_text_output(monkeypatch, capsys):
    rc = main(["verify-s3", "--group", "symmetric:3", "--char", "3",
               "--window", "-4..3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out
    assert "DIFFERS from source" in out

    def no_elimination(*args):
        raise AssertionError("elimination ran before the job was refused")

    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    assert main(["verify-s3", "--char", "5", "--window", "-4..3"]) == 2
    assert main(["verify-s3", "--group", "dihedral:4", "--char", "3", "--window", "-4..3"]) == 2
    capsys.readouterr()
