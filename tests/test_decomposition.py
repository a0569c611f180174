import random

import pytest

from tatebv.bv import bv_operator, connes_b, cup, m3
from tatebv.complexes import DComplex, class_of_index, sign_pow
from tatebv.decomposition import ClassDecomposition, b_tilde, delta_tilde
from tatebv.groups import conjugacy_classes, preset_group

P = 3


@pytest.fixture(scope="module")
def s3_dec(s3, s3_cd):
    return ClassDecomposition(DComplex(s3, P, (-7, 6)), s3_cd)


@pytest.fixture(scope="module")
def d4_dec(d4):
    return ClassDecomposition(DComplex(d4, 2, (-5, 4)), conjugacy_classes(d4))


def rand_class(dec, rng, d, cls, terms=3):
    dc, cd = dec.dcomplex, dec.cd
    basis = [k for k in dc.basis(d) if class_of_index(cd, d, k) == cls]
    if not basis:
        return dc.element(d)
    coeffs = {}
    for _ in range(terms):
        k = basis[rng.randrange(len(basis))]
        coeffs[k] = (coeffs.get(k, 0) + rng.randrange(1, dc.p)) % dc.p
    return dc.element(d, {k: v for k, v in coeffs.items() if v})


def test_iota_rho_cochain_identity(s3_dec):
    rng = random.Random(0)
    for cls in range(3):
        gcplx = s3_dec.complexes[cls]
        for n in range(0, 4):
            for _ in range(10):
                psi = gcplx.random_element(n, rng, 2)
                back = s3_dec.iota_cochain(cls, s3_dec.rho_cochain(cls, psi))
                assert back.sub(psi).is_zero()


def test_rho_iota_chain_identity(s3_dec):
    rng = random.Random(1)
    for cls in range(3):
        gcplx = s3_dec.complexes[cls]
        for d in range(-4, 0):
            for _ in range(10):
                alpha = gcplx.random_element(d, rng, 2)
                back = s3_dec.rho_chain(cls, s3_dec.iota_chain(cls, alpha))
                assert back.sub(alpha).is_zero()


def test_cochain_retract_identity(s3_dec):
    rng = random.Random(2)
    dc = s3_dec.dcomplex
    for cls in range(3):
        for n in range(1, 4):
            for _ in range(10):
                phi = rand_class(s3_dec, rng, n, cls)
                lhs = dc.differential(s3_dec.homotopy_cochain(cls, phi), signed=False).add(
                    s3_dec.homotopy_cochain(cls, dc.differential(phi, signed=False)))
                rhs = phi.sub(s3_dec.rho_cochain(cls, s3_dec.iota_cochain(cls, phi)))
                assert lhs.sub(rhs).is_zero()


def test_chain_retract_identity_unsigned(s3_dec):
    rng = random.Random(3)
    dc = s3_dec.dcomplex
    for cls in range(3):
        for d in range(-4, -1):
            for _ in range(10):
                alpha = rand_class(s3_dec, rng, d, cls)
                lhs = dc.differential(s3_dec.homotopy_chain(cls, alpha), signed=False).add(
                    s3_dec.homotopy_chain(cls, dc.differential(alpha, signed=False)))
                rhs = alpha.sub(s3_dec.iota_chain(cls, s3_dec.rho_chain(cls, alpha)))
                assert lhs.sub(rhs).is_zero()


def test_assembled_retract(s3_dec):
    rng = random.Random(4)
    dc = s3_dec.dcomplex
    for d in range(-4, 4):
        for _ in range(10):
            e = dc.random_element(d, rng, 3)
            down = s3_dec.retract_down(e)
            back = dc.zero(d)
            for cls, g in down.items():
                back = back.add(s3_dec.retract_up(cls, g))
            lhs = e.sub(back)
            rhs = dc.differential(s3_dec.homotopy(e), signed=False).add(
                s3_dec.homotopy(dc.differential(e, signed=False)))
            assert lhs.sub(rhs).is_zero()
            # the signed variant conjugates the same identity
            rhs2 = dc.differential(s3_dec.homotopy(e, signed=True)).add(
                s3_dec.homotopy(dc.differential(e), signed=True))
            assert lhs.sub(rhs2).is_zero()


def test_assembled_retract_d4(d4_dec):
    rng = random.Random(5)
    dc = d4_dec.dcomplex
    for d in range(-3, 3):
        for _ in range(6):
            e = dc.random_element(d, rng, 3)
            down = d4_dec.retract_down(e)
            back = dc.zero(d)
            for cls, g in down.items():
                back = back.add(d4_dec.retract_up(cls, g))
            lhs = e.sub(back)
            rhs = dc.differential(d4_dec.homotopy(e), signed=False).add(
                d4_dec.homotopy(dc.differential(e, signed=False)))
            assert lhs.sub(rhs).is_zero()


def test_retract_maps_are_chain_maps(s3_dec):
    rng = random.Random(6)
    dc = s3_dec.dcomplex
    for cls in range(3):
        gc = s3_dec.complexes[cls]
        for d in range(-4, 4):
            for _ in range(6):
                g = gc.random_element(d, rng, 2)
                lhs = dc.differential(s3_dec.retract_up(cls, g), signed=False)
                rhs = s3_dec.retract_up(cls, gc.differential(g, signed=False))
                assert lhs.sub(rhs).is_zero()
                # signed versions intertwine as well
                lhs = dc.differential(s3_dec.retract_up(cls, g))
                rhs = s3_dec.retract_up(cls, gc.differential(g))
                assert lhs.sub(rhs).is_zero()


def test_junction_commutes_with_trace(s3_dec, s3):
    # embedding a degree -1 centralizer element and applying the trace equals
    # embedding its norm image
    dc = s3_dec.dcomplex
    for cls in range(3):
        gc = s3_dec.complexes[cls]
        e = gc.element(-1, {(): 1})
        lhs = dc.differential(s3_dec.retract_up(cls, e), signed=False)
        rhs = s3_dec.retract_up(cls, gc.differential(e, signed=False))
        assert lhs.sub(rhs).is_zero()


def test_dims_additivity(s3_dec, s3_complex):
    for n in range(-4, 4):
        total = sum(s3_dec.complexes[cls].cohomology(n).dim for cls in range(3))
        assert total == s3_complex.cohomology(n).dim
    assert [sum(s3_dec.complexes[cls].cohomology(n).dim for cls in range(3))
            for n in range(-4, 4)] == [2, 1, 1, 2, 2, 1, 1, 2]


def test_dims_vanishing_and_abelian():
    C2 = preset_group("cyclic", 2)
    dec = ClassDecomposition(DComplex(C2, 3, (-4, 3)), conjugacy_classes(C2))
    for n in range(-3, 3):
        assert sum(dec.complexes[c].cohomology(n).dim for c in range(2)) == 0
    C3 = preset_group("cyclic", 3)
    dec3 = ClassDecomposition(DComplex(C3, 3, (-4, 3)), conjugacy_classes(C3))
    for n in range(-3, 3):
        assert sum(dec3.complexes[c].cohomology(n).dim for c in range(3)) == 3


def test_abelian_class_grading_of_products():
    # for abelian groups the class components multiply like the group ring
    C3 = preset_group("cyclic", 3)
    cd = conjugacy_classes(C3)
    dc = DComplex(C3, 3, (-6, 5))
    rng = random.Random(7)
    for _ in range(40):
        da = rng.randrange(-2, 3)
        db = rng.randrange(-2, 3)
        if not (-5 <= 2 * da + db - 1 <= 4):
            continue
        a, b = dc.random_element(da, rng, 2), dc.random_element(db, rng, 2)
        for key in a.coeffs:
            ca = class_of_index(cd, da, key)
            break
        else:
            continue
        a.coeffs = {k: v for k, v in a.coeffs.items() if class_of_index(cd, da, k) == ca}
        for key in b.coeffs:
            cb = class_of_index(cd, db, key)
            break
        else:
            continue
        b.coeffs = {k: v for k, v in b.coeffs.items() if class_of_index(cd, db, k) == cb}
        prod = cup(dc.element(da, a.coeffs), dc.element(db, b.coeffs))
        target = cd.class_of[C3.mult[cd.reps[ca]][cd.reps[cb]]]
        assert all(class_of_index(cd, da + db, k) == target for k in prod.coeffs)
        trip = m3(dc.element(da, a.coeffs), dc.element(db, b.coeffs), dc.element(da, a.coeffs))
        tclass = cd.class_of[C3.mult[C3.mult[cd.reps[ca]][cd.reps[cb]]][cd.reps[ca]]]
        assert all(class_of_index(cd, 2 * da + db - 1, k) == tclass for k in trip.coeffs)


def test_delta_tilde_w1_value(s3_dec):
    ca = s3_dec.complexes[1]
    w1 = ca.cohomology(1).representative(0)
    img = delta_tilde(s3_dec.cd.reps[1], w1)
    assert ca.cohomology(0).project(img) == [2]  # -1 mod 3


def test_delta_tilde_nonzero_on_h1(s3_dec):
    # there exists a class with transferred image -1 (scale the generator)
    ca = s3_dec.complexes[1]
    w1 = ca.cohomology(1).representative(0)
    coords = ca.cohomology(0).project(delta_tilde(s3_dec.cd.reps[1], w1))
    assert any(coords)


def test_b_tilde_examples(s3_dec, s3):
    ca = s3_dec.complexes[1]
    out = b_tilde(s3_dec.cd.reps[1], ca.element(-1, {(): 1}))
    assert out.coeffs == {(1,): 1}  # inserts the class representative a
    cg = s3_dec.complexes[0]
    assert b_tilde(0, cg.element(-1, {(): 1})).is_zero()


def test_b_tilde_is_transferred_rotation(s3_dec):
    rng = random.Random(8)
    for cls in range(3):
        gc = s3_dec.complexes[cls]
        for d in range(-3, 0):
            for _ in range(10):
                g = gc.random_element(d, rng, 2)
                lhs = b_tilde(s3_dec.cd.reps[cls], g)
                rhs = s3_dec.rho_chain(cls, connes_b(s3_dec.iota_chain(cls, g)))
                assert lhs.sub(rhs).is_zero()


def _delta_tilde_per_rotation(dec, cls, gelem):
    """delta_tilde as the rotation sum with the membership test at every cut."""
    n = gelem.degree
    G = dec.group
    x = dec.cd.reps[cls]
    out = {}
    for T, c in gelem.coeffs.items():
        for i in range(1, n + 1):
            cut = n - i
            htuple = T[cut + 1:] + T[:cut]
            if T[cut] != G.inv[G.mult[x][G.prod(htuple)]]:
                continue
            out[htuple] = out.get(htuple, 0) + (c if (i * (n - 1)) % 2 == 0 else -c)
    return dec.complexes[cls].element(n - 1, out)


@pytest.mark.parametrize("group", ["symmetric:3", "dihedral:4", "quaternion8", "cyclic:6"])
def test_delta_tilde_one_product_per_tuple(group):
    """On centralizer cochains the test at each cut is prod(T) = x^-1, so
    delta_tilde's single product per tuple gives the per-rotation sum on
    random cochains (cocycles or not), with tuples built to pass the test."""
    name, _, param = group.partition(":")
    G = preset_group(name, int(param) if param else 0)
    dec = ClassDecomposition(DComplex(G, P, (-2, 6)), conjugacy_classes(G))
    rng = random.Random(11)
    hits = 0
    for cls, x in enumerate(dec.cd.reps):
        gc = dec.complexes[cls]
        members = [g for g in dec.cd.centralizers[cls].members if g != 0]
        for n in range(1, 6):
            for _ in range(8):
                coeffs = dict(gc.random_element(n, rng, 3).coeffs)
                for _ in range(3):  # tuples with prod(T) = x^-1
                    head = tuple(rng.choice(members) for _ in range(n - 1))
                    last = G.mult[G.inv[G.prod(head)]][G.inv[x]]
                    if last != 0:
                        coeffs[head + (last,)] = rng.randrange(1, P)
                psi = gc.element(n, coeffs)
                got = delta_tilde(x, psi)
                assert got == _delta_tilde_per_rotation(dec, cls, psi)
                hits += not got.is_zero()
    assert hits > 0


def test_bv_commuting_square_on_classes(s3_dec):
    # the transferred operators induce the BV operator through the retract:
    # delta_tilde in degrees >= 1, b_tilde with the sign (-1)^(s+1) of
    # bv_operator out of chain degree s = -n-1
    for cls in range(3):
        gc = s3_dec.complexes[cls]
        for n in (-4, -3, -2, -1, 1, 2, 3):
            sp = gc.cohomology(n)
            tgt = gc.cohomology(n - 1)
            for i in range(sp.dim):
                rep = sp.representative(i)
                if n >= 1:
                    via_formula = tgt.project(delta_tilde(s3_dec.cd.reps[cls], rep))
                else:
                    via_formula = tgt.project(b_tilde(s3_dec.cd.reps[cls], rep).scale(sign_pow(n)))
                img = bv_operator(s3_dec.retract_up(cls, rep))
                down = s3_dec.retract_down(img)
                via_retract = tgt.project(down.get(cls, gc.zero(n - 1)))
                assert via_formula == via_retract
                assert all(v.is_zero() or not any(
                    s3_dec.complexes[k].cohomology(n - 1).project(v))
                    for k, v in down.items() if k != cls)


def test_homotopy_errors(s3_dec):
    dc = s3_dec.dcomplex
    with pytest.raises(ValueError):
        s3_dec.homotopy_cochain(0, dc.element(0, {((), 0): 1}))
    with pytest.raises(ValueError):
        s3_dec.rho_chain(0, dc.element(1, {((1,), 0): 1}))
    # support outside the named class is rejected
    bad = dc.element(0, {((), 1): 1})  # class of a, not the identity class
    with pytest.raises(ValueError):
        s3_dec.iota_cochain(0, bad)


def test_identity_class_embedding_formulas(s3_dec, s3, d4_dec):
    # cochain side: tuple T goes to (T, prod T); chain side to ((prod T)^-1, T)
    gc = s3_dec.complexes[0]
    up = s3_dec.retract_up(0, gc.element(2, {(1, 3): 1}))
    assert up.coeffs == {((1, 3), s3.mult[1][3]): 1}
    up = s3_dec.retract_up(0, gc.element(-3, {(1, 3): 1}))
    assert up.coeffs == {(s3.inv[s3.mult[1][3]], (1, 3)): 1}
    # a central x (r^2 in D8, -1 in Q8) has centralizer G and one coset: the
    # cochain retract is T -> (T, x prod T), key by key in order
    q8 = preset_group("quaternion8")
    rng = random.Random(8)
    for dec in (d4_dec, ClassDecomposition(DComplex(q8, 2, (-3, 4)), conjugacy_classes(q8))):
        G, cd = dec.group, dec.cd
        (cls,) = [k for k, x in enumerate(cd.reps)
                  if x != 0 and cd.centralizers[k].order == G.order]
        x = cd.reps[cls]
        assert G.mult[x][x] == 0
        gc = dec.complexes[cls]
        for n in range(0, 4):
            for _ in range(10):
                psi = gc.random_element(n, rng, 4)
                up = dec.retract_up(cls, psi)
                assert list(up.coeffs.items()) == [((T, G.mult[x][G.prod(T)]), c)
                                                   for T, c in psi.coeffs.items()]
                assert set(dec.components(up)) <= {cls}
                assert dec.iota_cochain(cls, up) == psi
