import json

import pytest

from tatebv import cli, transfer, verify
from tatebv.complexes import DComplex, GroupComplex
from tatebv.harness import ConfigError, CostCapError, DecOps, JobConfig
from tatebv.verify import cmd_selftest, cmd_verify_appendix_b

from conftest import MutatedDComplex, MutatedGroupComplex


def test_selftest_passes_s3():
    rep = cmd_selftest(JobConfig(group="symmetric:3", p=3, window=(-3, 2), seed=7))
    assert rep["passed"]
    expected = {"d2_zero", "differential_class_grading", "leibniz", "pairing_adjunction",
                "homotopy_associativity", "bv_chain_map_and_square", "cyclicity",
                "retract_rho_iota_identity", "retract_homotopy_identity",
                "double_coset_path_equivalence", "poisson_rule_on_classes"}
    assert expected <= set(rep["suites"])
    assert all(s["failures"] == 0 for s in rep["suites"].values())
    assert all(s["runs"] > 0 for s in rep["suites"].values())


def test_selftest_checks_the_product_that_tables_uses(monkeypatch):
    """double_coset_path_equivalence cross-checks DecOps.cup, the product of
    tables and verify-s3: doubling it at p = 3 must show up as failures."""
    cup = DecOps.cup
    monkeypatch.setattr(DecOps, "cup", lambda self, A, B: self.scale(cup(self, A, B), 2))
    rep = cmd_selftest(JobConfig(group="symmetric:3", p=3, window=(-3, 3), seed=0))
    assert not rep["passed"]
    suite = rep["suites"]["double_coset_path_equivalence"]
    assert suite["runs"] == 20 and suite["failures"] > 0
    assert all(s["failures"] == 0 for name, s in rep["suites"].items()
               if name != "double_coset_path_equivalence")


def test_selftest_degenerate_group_no_crash():
    rep = cmd_selftest(JobConfig(group="cyclic:2", p=3, window=(-2, 1), seed=1))
    assert rep["passed"]


def test_selftest_counts_a_refused_quotient_of_the_poisson_suite(monkeypatch, capsys):
    """With the mutated D-complex (d^2 != 0) behind the selftest, d2_zero
    catches it, and the Poisson suite's quotient space refuses to build: the
    suite counts one failed run, and the CLI prints its JSON and exits 1."""
    monkeypatch.setattr(verify, "DComplex", MutatedDComplex)
    code = cli.main(["selftest", "--group", "symmetric:3", "--char", "3", "--window", "-2..2",
                     "--seed", "7", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and not rep["passed"]
    assert rep["suites"]["d2_zero"]["failures"] > 0
    assert rep["suites"]["poisson_rule_on_classes"] == {"runs": 1, "failures": 1}


def test_selftest_counts_a_refused_quotient_of_the_double_coset_suite(monkeypatch):
    """With the centralizer complexes of DecOps broken, the double-coset
    suite's quotient space refuses to build: the suite counts one failed
    run instead of raising."""
    monkeypatch.setattr(transfer, "GroupComplex", MutatedGroupComplex)
    rep = cmd_selftest(JobConfig(group="symmetric:3", p=3, window=(-2, 2), seed=7))
    assert not rep["passed"]
    assert rep["suites"]["double_coset_path_equivalence"] == {"runs": 1, "failures": 1}
    assert all(s["failures"] == 0 for name, s in rep["suites"].items()
               if name != "double_coset_path_equivalence")


def test_selftest_counts_a_value_error_in_any_suite_as_one_failed_run(monkeypatch, capsys):
    """A ValueError out of any suite, not only a refused quotient space,
    ends that suite as one failed run: with retract_up raising, both retract
    suites and the double-coset suite (whose direct path retracts up) each
    count one failed run, and the CLI prints its JSON and exits 1."""
    def refuse(self, cls, g):
        raise ValueError("refused")
    monkeypatch.setattr(verify.ClassDecomposition, "retract_up", refuse)
    code = cli.main(["selftest", "--group", "symmetric:3", "--char", "3", "--window", "-2..2",
                     "--seed", "7", "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and not rep["passed"]
    for name in ("retract_rho_iota_identity", "retract_homotopy_identity",
                 "double_coset_path_equivalence"):
        assert rep["suites"][name] == {"runs": 1, "failures": 1}
    assert all(s["failures"] == 0 for name, s in rep["suites"].items()
               if not name.startswith(("retract_", "double_coset_")))


@pytest.mark.parametrize("command,group,window", [
    (cmd_selftest, "symmetric:4", (-4, 4)), (cmd_verify_appendix_b, "symmetric:5", (-2, 2)),
])
def test_over_the_decomposition_cap_refused_before_any_complex(monkeypatch, command, group, window):
    """selftest over its window, and verify-appendix-b over the whole-group
    degrees -5..0 it reads, are refused by the decomposition cost cap
    before any complex is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a complex was built before the cost cap refused the job")
    monkeypatch.setattr(DComplex, "__init__", refuse)
    monkeypatch.setattr(GroupComplex, "__init__", refuse)
    with pytest.raises(CostCapError):
        command(JobConfig(group=group, p=2, window=window))


def test_appendix_requires_modular_characteristic():
    with pytest.raises(ConfigError):
        cmd_verify_appendix_b(JobConfig(group="cyclic:3", p=2, window=(-3, 2), seed=0))


def appendix_checks(group, p):
    rep = cmd_verify_appendix_b(JobConfig(group=group, p=p, window=(-3, 2), seed=0))
    assert rep["passed"]
    return [c["name"] for c in rep["checks"]]


def cycle_checks(*counts):
    return [f"B sends degree-{s} cycles to boundaries ({n} cycles)" for s, n in enumerate(counts)]


def test_appendix_klein_four():
    assert appendix_checks("klein_four", 2) == cycle_checks(1, 3, 8)


def test_appendix_window_is_only_range_checked():
    """verify-appendix-b checks chain degrees 0..2 whatever window it accepts."""
    checks = [cmd_verify_appendix_b(JobConfig(group="klein_four", p=2, window=w, seed=0))["checks"]
              for w in ((-1, 1), (-3, 2), (-9, 9))]
    assert [c["name"] for c in checks[0]] == cycle_checks(1, 3, 8)
    assert checks[0] == checks[1] == checks[2]


@pytest.mark.parametrize("group,p,counts", [
    ("symmetric:3", 3, (1, 5, 20)), ("cyclic:3", 3, (1, 2, 3)), ("dihedral:4", 2, (1, 7, 44)),
    ("quaternion8", 2, (1, 7, 44)), ("symmetric:3", 2, (1, 5, 21)),
])
def test_appendix_cycle_counts(group, p, counts):
    """Every degree, 0 included, takes its cycles from the kernel of the
    whole group's complex: at degree -1 the norm column is zero, so the one
    cycle is the empty tuple."""
    assert appendix_checks(group, p) == cycle_checks(*counts)
