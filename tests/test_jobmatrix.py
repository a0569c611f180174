"""The job matrix's digest comparison, on made-up samples, and its peak
RSS, which must be the job's and not the harness's."""

import importlib.util
import resource
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "jobmatrix.py"
_spec = importlib.util.spec_from_file_location("jobmatrix", TOOL)
jobmatrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(jobmatrix)

A, B = "a" * 64, "b" * 64


def run(exit_code, digest):
    return {"exit": exit_code, "out_sha256": digest}


def test_digests_compare_only_among_runs_that_exit_zero():
    mismatch = jobmatrix.digest_mismatch
    # one tree newly completes a job that the other runs out of memory on
    assert mismatch({"parent": [run(3, None)] * 3, "change": [run(0, A)] * 3}) is None
    assert mismatch({"parent": [run(3, None), run(0, A)], "change": [run(0, A)]}) is None
    assert mismatch({"parent": [run(0, A)], "change": [run(0, A)] * 2}) is None
    # a tree that cannot run the job hides no mismatch between the others
    assert mismatch({"parent": [run(3, None)], "x": [run(0, A)], "y": [run(0, B)]}) == {
        "parent": [], "x": ["a" * 12], "y": ["b" * 12]}
    # repeats of one tree that disagree, and output that is not JSON
    assert mismatch({"change": [run(0, A), run(0, B)]}) == {"change": ["a" * 12, "b" * 12]}
    assert mismatch({"parent": [run(0, None)], "change": [run(0, A)]}) == {
        "parent": ["None"], "change": ["a" * 12]}


def test_peak_rss_is_the_jobs_not_the_harness():
    """After the harness has touched 50 MB of ballast, a ``python -c pass``
    child still reads its own peak RSS (about 13 MB), far under the
    harness's: it is forked from the small launcher, not from the harness.
    Forked from the harness it read the harness's whole RSS."""
    ballast = b"x" * (50 << 20)
    harness_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    got = jobmatrix.run_child(["-c", "pass"], jobmatrix.ROOT / "src")
    assert got["exit"] == 0
    assert got["peak_rss_mb"] < min(30, harness_mb - len(ballast) / 2 ** 21), (got, harness_mb)
