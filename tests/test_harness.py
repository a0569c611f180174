import pytest

from tatebv.bv import class_of
from tatebv.complexes import GroupComplex, WindowError
from tatebv.groups import preset_group, whole_group
from tatebv.harness import (CostCapError, DecOps, IdentityZeroCertifier,
                            JobConfig, check_decomposition_cost, check_direct_cost,
                            cmd_dims, make_group)


@pytest.fixture(scope="module")
def s3_ops():
    G = preset_group("symmetric", 3)
    ops = DecOps(G, 3, coord_cap={0: 4})
    cg = ops.ctx.complex_for(whole_group(G))
    ops.zero_certifier = IdentityZeroCertifier(
        ops, class_of(cg.cohomology(4), cg.cohomology(4).representative(0)),
        class_of(cg.cohomology(-4), cg.cohomology(-4).representative(0)))
    ops._cg = cg
    return ops


def _gen(ops, n):
    sp = ops._cg.cohomology(n)
    return ops.from_class(0, class_of(sp, sp.representative(0)))


def test_certifier_rejects_nonzero_high_degree_classes(s3_ops):
    ops = s3_ops
    x, z, zi = _gen(ops, 3), _gen(ops, 4), _gen(ops, -4)
    assert not ops.is_zero(ops.cup(x, z))      # degree 7
    assert not ops.is_zero(ops.cup(z, z))      # degree 8
    assert not ops.is_zero(ops.cup(zi, zi))    # degree -8
    xz = ops.cup(x, z)
    assert ops.is_zero(ops.sub(xz, xz))
    assert ops.eq(xz, xz)


def test_decclass_arithmetic(s3_ops):
    ops = s3_ops
    x = _gen(ops, 3)
    two_x = ops.add(x, x)
    assert ops.eq(two_x, ops.scale(x, 2))
    assert ops.is_zero(ops.add(two_x, x))  # 3x = 0 over F3


def test_cost_caps():
    G = preset_group("cyclic", 5)
    with pytest.raises(CostCapError):
        check_direct_cost(G, (-200, 200))
    from tatebv.groups import conjugacy_classes
    with pytest.raises(CostCapError):
        check_decomposition_cost(G, conjugacy_classes(G), (-200, 200))
    check_direct_cost(G, (-3, 3))


def test_make_group_specs(tmp_path):
    assert make_group("symmetric:3").order == 6
    assert make_group("klein_four").order == 4
    assert make_group("perms:(0 1)(2 3)").order == 2


def test_klein_four_dims():
    d = cmd_dims(JobConfig(group="klein_four", p=2, window=(-2, 1), seed=0))
    assert d["dims"]["total"] == [8, 4, 4, 8]


def test_quaternion_dims():
    d = cmd_dims(JobConfig(group="quaternion8", p=2, window=(-1, 1), seed=0))
    assert d["dims"]["total"] == [5, 5, 7]


def test_group_complex_window_enforcement(s3):
    cplx = GroupComplex(whole_group(s3), 3, window=(-2, 2))
    with pytest.raises(WindowError):
        cplx.basis(3)
    assert len(cplx.basis(2)) == 25
