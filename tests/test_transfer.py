import random

import pytest

from tatebv.bv import class_of, cup
from tatebv.complexes import DComplex
from tatebv.decomposition import ClassDecomposition
from tatebv.groups import (Subgroup, class_rep_and_witness, conjugacy_classes,
                           conjugate_subgroup, double_cosets, generated_subgroup,
                           intersect_subgroups, preset_group, right_coset_system,
                           sylow_subgroup)
from tatebv.harness import DecOps
from tatebv.transfer import TransferContext

P = 3


@pytest.fixture(scope="module")
def ctx(s3, s3_cd):
    return TransferContext(s3, P, s3_cd)


@pytest.fixture(scope="module")
def ha(s3):
    return generated_subgroup(s3, [1])


def _cls(cplx, n, i=0):
    sp = cplx.cohomology(n)
    return class_of(sp, sp.representative(i))


def _class(elem):
    """The class of a cocycle in the cohomology of the complex it lives on."""
    return class_of(elem.complex.cohomology(elem.degree), elem)


def _rep(c):
    return c.space.lift(list(c.coords))


def _cup(ctx, a, b):
    """group_cup_rep's terms as an element over the factors' subgroup."""
    return ctx.complex_for(a.subgroup).element(a.degree + b.degree, ctx.group_cup_rep(a, b, {}))


def test_conjugation_by_identity(ctx, ha):
    ca = ctx.complex_for(ha)
    rng = random.Random(0)
    for d in (-2, 0, 2):
        e = ca.random_element(d, rng, 2)
        assert ctx.conjugate_element(0, e).sub(e).is_zero()


def test_conjugation_transitivity_chain_level(ctx, s3, ha):
    ca = ctx.complex_for(ha)
    rng = random.Random(1)
    for d in range(-3, 3):
        e = ca.random_element(d, rng, 2)
        for g1 in range(6):
            for g2 in range(6):
                two = ctx.conjugate_element(g2, ctx.conjugate_element(g1, e))
                one = ctx.conjugate_element(s3.mult[g2][g1], e)
                assert two.sub(one).is_zero()


def test_conjugation_by_member_is_identity_on_classes(ctx, s3, ha):
    # g in H induces the identity on the cohomology of H
    ca = ctx.complex_for(ha)
    for n in range(-3, 4):
        sp = ca.cohomology(n)
        for i in range(sp.dim):
            c = class_of(sp, sp.representative(i))
            for g in ha.members:
                assert _class(ctx.conjugate_element(g, _rep(c))).coords == c.coords


def test_restriction_triviality(ctx, ha):
    ca = ctx.complex_for(ha)
    for n in (-2, 0, 1, 2):
        sp = ca.cohomology(n)
        for i in range(sp.dim):
            c = class_of(sp, sp.representative(i))
            assert _class(ctx.restrict_element(ha, _rep(c))).coords == c.coords
            assert _class(ctx.corestrict_element(ha, _rep(c))).coords == c.coords


def test_restriction_transitivity_on_classes(ctx, s3, ha):
    G = ctx.subgroup(range(6))
    cg = ctx.complex_for(G)
    triv = ctx.subgroup((0,))
    for n in (0, 3, -4):
        sp = cg.cohomology(n)
        for i in range(sp.dim):
            c = class_of(sp, sp.representative(i))
            two = _class(ctx.restrict_element(triv, _rep(_class(ctx.restrict_element(ha, _rep(c))))))
            one = _class(ctx.restrict_element(triv, _rep(c)))
            assert two.coords == one.coords
            # the trivial subgroup has vanishing Tate cohomology over F3
            assert not any(one.coords)


def test_restriction_is_chain_map(ctx, s3, ha):
    G = ctx.subgroup(range(6))
    cg = ctx.complex_for(G)
    rng = random.Random(2)
    for d in range(-3, 3):
        for _ in range(10):
            e = cg.random_element(d, rng, 2)
            lhs = ctx.restrict_element(ha, cg.differential(e, signed=False))
            rhs = ctx.complex_for(ha).differential(ctx.restrict_element(ha, e), signed=False)
            assert lhs.sub(rhs).is_zero()


def test_corestriction_is_chain_map(ctx, s3, ha):
    G = ctx.subgroup(range(6))
    ca = ctx.complex_for(ha)
    rng = random.Random(3)
    for d in range(-3, 3):
        for _ in range(10):
            e = ca.random_element(d, rng, 2)
            lhs = ctx.corestrict_element(G, ca.differential(e, signed=False))
            rhs = ctx.complex_for(G).differential(ctx.corestrict_element(G, e), signed=False)
            assert lhs.sub(rhs).is_zero()


def test_corestriction_of_unit(ctx, s3, ha):
    # cor of the unit multiplies by the index
    one = ctx.complex_for(ha).element(0, {(): 1})
    out = ctx.corestrict_element(ctx.subgroup(range(6)), one)
    assert out.coeffs == {(): 2}


def test_cor_res_is_multiplication_by_transfer_of_unit(ctx, s3, ha):
    G = ctx.subgroup(range(6))
    cg = ctx.complex_for(G)
    for n in (0, 3, 4, -4):
        sp = cg.cohomology(n)
        for i in range(sp.dim):
            b = class_of(sp, sp.representative(i))
            rep = sp.representative(i)
            lhs = ctx.corestrict_element(G, ctx.restrict_element(ha, rep))
            # [S3 : <a>] = 2, so cor(res(b)) = 2 b on cohomology
            assert sp.project(lhs) == [(2 * v) % P for v in b.coords]


@pytest.mark.parametrize("group,param,p,gens", [("symmetric", 3, 3, [1]),
                                                ("symmetric", 4, 2, None),
                                                ("dihedral", 6, 3, None)])
def test_res_cor_is_restriction_of_corestriction(group, param, p, gens):
    """res_cor, the thread sum on H-tuples, equals res o cor through a
    cochain over K, element for element, in both degree signs and on
    arbitrary (non-cocycle) elements."""
    G = preset_group(group, param)
    cd = conjugacy_classes(G)
    ctx = TransferContext(G, p, cd)
    K = ctx.subgroup(range(G.order))
    H = generated_subgroup(G, gens) if gens else sylow_subgroup(K, p)
    assert 1 < H.order < K.order
    ch = ctx.complex_for(H)
    rng = random.Random(5)
    for d in (-3, -2, -1, 0, 1, 2, 3):
        elems = [ch.random_element(d, rng, 4) for _ in range(3)]
        want = [ctx.restrict_element(H, ctx.corestrict_element(K, z)) for z in elems]
        assert ctx.res_cor(K, elems) == want
    assert ctx.res_cor(K, []) == []


def test_frobenius_identity(ctx, s3, ha):
    G = ctx.subgroup(range(6))
    cg, ca = ctx.complex_for(G), ctx.complex_for(ha)
    rng = random.Random(4)
    for nb, na in [(0, 0), (3, 1), (0, -2), (3, -2), (-4, 1), (4, -2)]:
        sb, sa = cg.cohomology(nb), ca.cohomology(na)
        if sb.dim == 0 or sa.dim == 0:
            continue
        b = sb.representative(rng.randrange(sb.dim))
        a = sa.representative(rng.randrange(sa.dim))
        lhs = ctx.corestrict_element(G, _cup(ctx, ctx.restrict_element(ha, b), a))
        rhs = _cup(ctx, b, ctx.corestrict_element(G, a))
        sp = cg.cohomology(na + nb)
        assert sp.project(lhs) == sp.project(rhs)


def test_mackey_compatibility(ctx, s3, ha):
    # conjugation commutes with restriction and corestriction on classes
    G = ctx.subgroup(range(6))
    cg = ctx.complex_for(G)
    for n in (0, 3):
        sp = cg.cohomology(n)
        for i in range(sp.dim):
            rep = sp.representative(i)
            for g in (1, 3, 4):
                Hg = ctx.subgroup(s3.conj(g, h) for h in ha.members)
                lhs = ctx.conjugate_element(g, ctx.restrict_element(ha, rep))
                rhs = ctx.restrict_element(Hg, ctx.conjugate_element(g, rep))
                spg = ctx.complex_for(Hg).cohomology(n)
                assert spg.project(lhs) == spg.project(rhs)
    ca = ctx.complex_for(ha)
    for n in (0, 1, 2, -2):
        sp = ca.cohomology(n)
        for i in range(sp.dim):
            rep = sp.representative(i)
            for g in (1, 3, 4):
                Hg = ctx.subgroup(s3.conj(g, h) for h in ha.members)
                lhs = ctx.conjugate_element(g, ctx.corestrict_element(G, rep))
                rhs = ctx.corestrict_element(G, ctx.conjugate_element(g, rep))
                spg = ctx.complex_for(G).cohomology(n)
                assert spg.project(lhs) == spg.project(rhs)


def test_group_cup_examples(ctx, ha):
    ca = ctx.complex_for(ha)
    w1 = _cls(ca, 1)
    w2 = _cls(ca, 2)
    w2i = _cls(ca, -2)
    assert not any(_class(_cup(ctx, _rep(w1), _rep(w1))).coords)
    # w2 w2^-1 is a unit multiple of 1; rescaling makes it exactly 1
    prod = _class(_cup(ctx, _rep(w2), _rep(w2i)))
    unit = class_of(ca.cohomology(0), ca.element(0, {(): 1}))
    assert prod.coords != (0,)
    lam = prod.coords[0]
    inv = pow(lam, P - 2, P)
    assert _class(_cup(ctx, _rep(w2), _rep(w2i.scale(inv)))).coords == unit.coords


def test_group_cup_unit(ctx, ha):
    ca = ctx.complex_for(ha)
    unit = class_of(ca.cohomology(0), ca.element(0, {(): 1}))
    for n in range(-3, 4):
        sp = ca.cohomology(n)
        for i in range(sp.dim):
            c = class_of(sp, sp.representative(i))
            assert _class(_cup(ctx, _rep(unit), _rep(c))).coords == c.coords
            assert _class(_cup(ctx, _rep(c), _rep(unit))).coords == c.coords


def test_double_coset_identity_classes(ctx, s3):
    # i = j = identity class: one double coset; the product degenerates to
    # the cup inside the whole-group cohomology (representative level; the
    # target degree 7 is outside the coordinatized range)
    G = ctx.subgroup(range(6))
    cg = ctx.complex_for(G)
    x = cg.cohomology(3).representative(0)
    z = cg.cohomology(4).representative(0)
    out = ctx.double_coset_cup_reps(0, 0, x, z)
    assert set(out) <= {0}
    direct = _cup(ctx, x, z)
    assert out[0].sub(direct).is_zero()


def test_double_coset_e2_squared(ctx, s3):
    # the degree-0 class unit of the a-component squares to E2 - 1
    ca = ctx.complex_for(ctx.cd.centralizers[1])
    e2 = ca.element(0, {(): 1})
    prod = {k: _class(g) for k, g in ctx.double_coset_cup_reps(1, 1, e2, e2).items()}
    assert prod[1].coords == (1,)
    assert prod[0].coords == (2,)  # -1 times the unit class


def test_double_coset_degree_additivity(ctx):
    ca = ctx.complex_for(ctx.cd.centralizers[1])
    w1 = _cls(ca, 1)
    w2 = _cls(ca, 2)
    out = ctx.double_coset_cup_reps(1, 1, _rep(w1), _rep(w2))
    assert out
    for k, g in out.items():
        assert g.degree == 3 and _class(g).degree == 3


def test_path_equivalence(s3, s3_cd):
    """DecOps.cup, the double-coset product of tables and verify-s3, against
    the direct chain-level cup through the retracts."""
    ops = DecOps(s3, P)
    dc = DComplex(s3, P, (-5, 4))
    dec = ClassDecomposition(dc, s3_cd)
    rng = random.Random(5)
    done = 0
    while done < 30:
        i, j = rng.randrange(3), rng.randrange(3)
        di, dj = rng.randrange(-4, 4), rng.randrange(-4, 4)
        if not (-4 <= di + dj <= 3):
            continue
        si, sj = ops.space(i, di), ops.space(j, dj)
        if si.dim == 0 or sj.dim == 0:
            continue
        a = class_of(si, si.representative(rng.randrange(si.dim)))
        b = class_of(sj, sj.representative(rng.randrange(sj.dim)))
        p1 = {k: coords for k, (_, coords) in
              ops.cup(ops.from_class(i, a), ops.from_class(j, b)).parts.items()}
        prod = cup(dec.retract_up(i, a.space.lift(list(a.coords))),
                   dec.retract_up(j, b.space.lift(list(b.coords))))
        p2 = {}
        for k, g in dec.retract_down(prod).items():
            coords = tuple(ops.space(k, di + dj).project(g))
            if any(coords):
                p2[k] = coords
        assert p1 == p2
        done += 1
    assert done == 30


# (da, db) pairs covering bv.cup's six degree-sign cases
CUP_CASES = {
    "cochain-cochain": [(0, 0), (1, 2), (2, 1)],
    "chain-chain": [(-1, -1), (-2, -3), (-3, -2)],
    "cap": [(0, -1), (1, -3), (2, -3)],
    "cap-to-cochains": [(1, -1), (2, -1), (3, -2)],
    "cap-right": [(-1, 0), (-3, 1), (-3, 2)],
    "cap-right-to-cochains": [(-1, 1), (-1, 2), (-2, 3)],
}


@pytest.mark.parametrize("group,param,p", [("symmetric", 3, 3), ("cyclic", 3, 3),
                                           ("dihedral", 4, 2), ("quaternion8", 0, 2)])
def test_group_cup_rep_matches_ambient_cup(group, param, p):
    """group_cup_rep on H = G is the identity-class component of bv.cup:
    embed both factors with retract_up(0, .), cup in D*(kG, kG), and the
    product stays in class 0 and retracts to the same element, with its
    coefficients in the same order."""
    G = preset_group(group, param)
    cd = conjugacy_classes(G)
    ctx = TransferContext(G, p, cd)
    dec = ClassDecomposition(DComplex(G, p, (-6, 6)), cd)
    gc = ctx.complex_for(ctx.subgroup(range(G.order)))
    rng = random.Random(7)
    for case, degrees in CUP_CASES.items():
        nonzero = 0
        for da, db in degrees:
            for _ in range(4):
                a = gc.random_element(da, rng, 8)
                b = gc.random_element(db, rng, 8)
                direct = _cup(ctx, a, b)
                down = dec.retract_down(cup(dec.retract_up(0, a), dec.retract_up(0, b)))
                assert set(down) <= {0}, case
                amb = down.get(0, gc.element(da + db))
                assert direct.degree == amb.degree == da + db
                assert list(direct.coeffs.items()) == list(amb.coeffs.items()), case
                nonzero += not direct.is_zero()
        assert nonzero, case


@pytest.mark.parametrize("group,param,p", [("symmetric", 3, 3), ("dihedral", 4, 2)])
def test_double_coset_plans_are_built_once(monkeypatch, group, param, p):
    """After one pass over every class pair, double_coset_cup_reps builds no
    Subgroup (its plans, conjugation rows and coset step tables are cached),
    gives the same cocycles again, and each cached plan equals the plan
    recomputed from the double cosets, the conjugacy witnesses and the
    conjugate subgroups' intersection."""
    G = preset_group(group, param)
    cd = conjugacy_classes(G)
    ctx = TransferContext(G, p, cd)
    rng = random.Random(3)
    pairs = [(i, j) for i in range(cd.num_classes) for j in range(cd.num_classes)]
    factors = {}
    for i, j in pairs:
        ci, cj = (ctx.complex_for(cd.centralizers[k]) for k in (i, j))
        for da, db in ((1, 2), (-2, 1), (-1, -2), (2, -3)):
            factors[i, j, da, db] = ci.random_element(da, rng, 4), cj.random_element(db, rng, 4)
    warm = {key: ctx.double_coset_cup_reps(*key[:2], a, b) for key, (a, b) in factors.items()}

    built = []
    init = Subgroup.__init__
    monkeypatch.setattr(Subgroup, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for key, (a, b) in factors.items():
        assert ctx.double_coset_cup_reps(*key[:2], a, b) == warm[key]
    assert built == []
    monkeypatch.undo()

    for i, j in pairs:
        Hi, Hj = cd.centralizers[i], cd.centralizers[j]
        fresh = []
        for x in double_cosets(G, Hi, Hj):
            k, y = class_rep_and_witness(cd, G.mult[cd.reps[i]][G.conj(x, cd.reps[j])])
            yx = G.mult[y][x]
            W = intersect_subgroups(conjugate_subgroup(G, y, Hi), conjugate_subgroup(G, yx, Hj))
            assert all(u in cd.centralizers[k] for u in W.members)
            fresh.append((k, y, yx, W, cd.centralizers[k]))
        assert ctx.double_coset_plan(i, j) == fresh


def _unfused_cup_reps(ctx, i, j, a, b):
    """The double-coset product term by term: each factor pair cupped into
    an element of its own, corestricted on its own and added per class."""
    out = {}
    for k, y, yx, W, Hk in ctx.double_coset_plan(i, j):
        fa, fb = ctx.cup_factor(y, W, a), ctx.cup_factor(yx, W, b)
        term = ctx.corestrict_element(Hk, _cup(ctx, fa, fb))
        out[k] = out[k].add(term) if k in out else term
    return {k: v for k, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("group,param,p,lo,hi", [("symmetric", 3, 3, -4, 4),
                                                 ("dihedral", 6, 2, -2, 2),
                                                 ("dihedral", 6, 3, -2, 2)])
def test_double_coset_cup_reps_match_unfused_reference(group, param, p, lo, hi):
    """On every basis pair whose product degree lies in lo..hi, the one-pass
    product (one dict per target class, no identity corestriction, coset
    paths from the context's memo) equals the unfused reference.  Both
    W = C_k and W < C_k occur in both degree signs.  Every memo entry is the
    slot tuples of a fresh CosetSystem.paths of its own coset system, and a
    second pass threads no new key."""
    G = preset_group(group, param)
    ops = DecOps(G, p)
    ctx = TransferContext(G, p, ops.cd)
    basis = [(k, d, ops.space(k, d).representative(i), (k, d, i))
             for d in range(lo, hi + 1) for k in range(ops.cd.num_classes)
             for i in range(ops.cls_dim(k, d))]
    pairs = [(x, z) for x in basis for z in basis if lo <= x[1] + z[1] <= hi]
    cases = set()
    for (i, da, a, la), (j, db, b, lb) in pairs:
        got = ctx.double_coset_cup_reps(i, j, a, b, (la, lb))
        assert got == _unfused_cup_reps(ctx, i, j, a, b), (la, lb)
        cases.update((W.members == Hk.members, da + db >= 0)
                     for _, _, _, W, Hk in ctx.double_coset_plan(i, j))
    assert cases == {(True, True), (True, False), (False, True), (False, False)}

    assert ctx._paths
    for (K, H), memo in ctx._paths.items():
        cs = right_coset_system(Subgroup(G, H), ambient=K)
        for T, slots in memo.items():
            assert slots == tuple(gs for _, gs in cs.paths(T)), (K, H, T)
    sizes = {key: len(memo) for key, memo in ctx._paths.items()}
    for (i, da, a, la), (j, db, b, lb) in pairs:
        ctx.double_coset_cup_reps(i, j, a, b, (la, lb))
    assert {key: len(memo) for key, memo in ctx._paths.items()} == sizes
