import random

import pytest

from tatebv.bv import (bv_operator, class_of, connes_b, cup, induced_cup,
                       induced_delta, lie_bracket, m3, pairing,
                       signed_anticommutator)
from tatebv.complexes import CohomologySpace, DComplex, _acc, class_of_index, sign_pow
from tatebv.groups import preset_group

P = 3


@pytest.fixture(scope="module")
def dc(s3):
    return DComplex(s3, P, (-10, 9))


@pytest.fixture(scope="module")
def rng():
    return random.Random(2024)


def rand(dc, rng, d, terms=3):
    return dc.random_element(d, rng, terms)


# -- pairing ---------------------------------------------------------------

def test_pairing_basis_example(dc):
    a = dc.element(1, {((1,), 0): 1})   # cochain a |-> e
    b = dc.element(-2, {(0, (1,)): 1})  # chain (e, (a))
    assert pairing(a, b) == 1
    assert pairing(b, a) == 1


def test_pairing_degree_rule(dc, rng):
    assert pairing(rand(dc, rng, 2), rand(dc, rng, -2)) == 0
    assert pairing(rand(dc, rng, 1), rand(dc, rng, 2)) == 0
    assert pairing(rand(dc, rng, -1), rand(dc, rng, -2)) == 0


def test_pairing_symmetric(dc, rng):
    for _ in range(100):
        n = rng.randrange(0, 4)
        a, b = rand(dc, rng, n), rand(dc, rng, -n - 1)
        assert pairing(a, b) == pairing(b, a)


def test_pairing_compatibility(dc, rng):
    for da, db in [(0, -2), (1, -3), (2, -4), (3, -5), (-1, 0), (-2, 1), (-3, 2), (-4, 3)]:
        for _ in range(20):
            a, b = rand(dc, rng, da), rand(dc, rng, db)
            lhs = pairing(dc.differential(a), b)
            rhs = (sign_pow(da + 1) * pairing(a, dc.differential(b))) % P
            assert lhs == rhs


def test_pairing_vanishes_across_classes(dc, s3, s3_cd):
    # <alpha, beta> = 0 unless beta's component is the class of the inverse
    for n in (0, 1, 2):
        for ka in dc.basis(n)[:: 7]:
            ca = class_of_index(s3_cd, n, ka)
            inv_cls = s3_cd.class_of[s3.inv[s3_cd.reps[ca]]]
            for kb in dc.basis(-n - 1)[:: 5]:
                if pairing(dc.element(n, {ka: 1}), dc.element(-n - 1, {kb: 1})):
                    assert class_of_index(s3_cd, -n - 1, kb) == inv_cls


# -- cup product -----------------------------------------------------------

ALL_CASE_DEGREES = [(1, 2), (2, 1), (0, 0),            # case 1
                    (-1, -1), (-2, -1), (-1, -3),      # case 2
                    (1, -3), (2, -4), (0, -1),         # case 3
                    (3, -2), (2, -2), (1, -2),         # case 4
                    (-3, 1), (-4, 2), (-2, 0),         # case 5
                    (-2, 2), (-1, 3), (-2, 3)]         # case 6


def test_cup_unit(dc, rng):
    unit = dc.element(0, {((), 0): 1})
    for d in range(-4, 4):
        b = rand(dc, rng, d)
        assert cup(unit, b).coeffs == b.coeffs
        assert cup(b, unit).coeffs == b.coeffs


def test_cup_case2_example_c2():
    C2 = preset_group("cyclic", 2)
    d2 = DComplex(C2, 2, (-4, 3))
    e = d2.element(-1, {(0, ()): 1})
    prod = cup(e, e)
    assert prod.coeffs == {(1, (1,)): 1}


def test_cup_case_degrees(dc, rng):
    for da, db in ALL_CASE_DEGREES:
        a, b = rand(dc, rng, da), rand(dc, rng, db)
        assert cup(a, b).degree == da + db


def test_leibniz_all_cases(dc, rng):
    checked = 0
    for da, db in ALL_CASE_DEGREES:
        for _ in range(12):
            a, b = rand(dc, rng, da), rand(dc, rng, db)
            lhs = dc.differential(cup(a, b))
            rhs = cup(dc.differential(a), b).add(cup(a, dc.differential(b)), sign_pow(da))
            assert lhs.sub(rhs).is_zero()
            checked += 1
    assert checked >= 200


def test_pairing_adjunction(dc, rng):
    for degs in [(1, 1, -3), (1, -1, -1), (-1, -1, 1), (2, -1, -2), (-2, 1, 0),
                 (0, 0, -1), (-1, 2, -2), (2, -2, -1), (-2, -1, 2), (3, -2, -2)]:
        for _ in range(15):
            a, b, c = (rand(dc, rng, d) for d in degs)
            assert (pairing(cup(a, b), c) - pairing(a, cup(b, c))) % P == 0


def test_class_grading_of_cup(dc, s3, s3_cd, rng):
    # the product of class components lands in products of classes only when
    # one factor is the identity component; assert the subcomplex property
    for da, db in [(1, 1), (1, -2), (-1, -1), (-2, 2), (2, -1)]:
        for _ in range(10):
            a = rand(dc, rng, da)
            a.coeffs = {k: v for k, v in a.coeffs.items()
                        if class_of_index(s3_cd, da, k) == 0}
            b = rand(dc, rng, db)
            prod = cup(dc.element(da, a.coeffs), b)
            for cls in set(class_of_index(s3_cd, db, k) for k in b.coeffs):
                pass
            if not prod.coeffs:
                continue
            bcls = {class_of_index(s3_cd, db, k) for k in b.coeffs}
            pcls = {class_of_index(s3_cd, da + db, k) for k in prod.coeffs}
            assert pcls <= bcls


# -- m3 --------------------------------------------------------------------

def test_m3_vanishing_patterns(dc, rng):
    assert m3(rand(dc, rng, 1), rand(dc, rng, 2), rand(dc, rng, 1)).is_zero()
    assert m3(rand(dc, rng, -1), rand(dc, rng, -2), rand(dc, rng, -1)).is_zero()
    assert m3(rand(dc, rng, -1), rand(dc, rng, -1), rand(dc, rng, 2)).is_zero()
    assert m3(rand(dc, rng, 2), rand(dc, rng, -1), rand(dc, rng, -1)).is_zero()
    assert m3(rand(dc, rng, 1), rand(dc, rng, 1), rand(dc, rng, -2)).is_zero()
    assert m3(rand(dc, rng, -2), rand(dc, rng, 1), rand(dc, rng, 1)).is_zero()


def test_m3_degree_gates(dc, rng):
    # (cochain, chain, cochain) vanishes when r + 2 > m + n
    phi, alpha, psi = rand(dc, rng, 1), rand(dc, rng, -3), rand(dc, rng, 1)
    assert m3(phi, alpha, psi).is_zero()
    # (chain, cochain, chain) vanishes when m - 1 > r + s
    a, f, b = rand(dc, rng, -1), rand(dc, rng, 4), rand(dc, rng, -1)
    assert m3(a, f, b).is_zero()


def test_homotopy_associativity(dc, rng):
    triples = [(1, -2, 1), (2, -2, 2), (2, -3, 1), (1, -1, 1), (3, -2, 2),
               (2, -1, 3), (0, -2, 2), (2, -2, 0), (-1, 1, -1), (-2, 2, -1),
               (-1, 2, -2), (-2, 1, -2), (-1, 3, -2), (-2, 3, -1), (-1, 0, -1),
               (0, 0, 0), (1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, 1, 1),
               (1, -1, -1), (-1, -1, 1), (2, -4, 1), (1, -4, 2), (-3, 4, -2)]
    checked = 0
    for degs in triples:
        d1, d2, d3 = degs
        for _ in range(6):
            a, b, c = (rand(dc, rng, d) for d in degs)
            lhs = cup(a, cup(b, c)).sub(cup(cup(a, b), c))
            rhs = dc.differential(m3(a, b, c))
            rhs = rhs.add(m3(dc.differential(a), b, c))
            rhs = rhs.add(m3(a, dc.differential(b), c), sign_pow(d1))
            rhs = rhs.add(m3(a, b, dc.differential(c)), sign_pow(d1 + d2))
            assert lhs.sub(rhs).is_zero(), f"homotopy associativity fails at {degs}"
            checked += 1
    assert checked >= 100


def test_cyclicity(dc, rng):
    # k = 2 is the adjunction (tested above); k = 3:
    tuples = [(0, 1, -2, 1), (-1, 2, -2, 1), (1, -2, 2, -1), (-2, 1, -1, 2),
              (2, -1, 1, -2), (-1, 1, -2, 2), (2, -3, 2, -1), (-3, 2, -2, 3),
              (0, 2, -3, 1), (1, -3, 2, 0), (-2, 2, -1, 1), (1, -1, 1, -1)]
    nonvacuous = 0
    for degs in tuples:
        assert sum(degs) == 0
        d0 = degs[0]
        for _ in range(15):
            a0, a1, a2, a3 = (rand(dc, rng, d, 4) for d in degs)
            lhs = pairing(a0, m3(a1, a2, a3))
            rhs = (sign_pow(d0 + 1) * pairing(m3(a0, a1, a2), a3)) % P
            assert lhs == rhs
            if lhs:
                nonvacuous += 1
    assert nonvacuous >= 10


def _m3_mid_cochain_printed(dc, alpha, phi, beta):
    """Independent transcription of the displayed (chain, cochain, chain)
    formula, with its undeclared exponent read as the output chain length."""
    G, p = dc.group, dc.p
    r = -alpha.degree - 1
    m = phi.degree
    s = -beta.degree - 1
    deg = alpha.degree + phi.degree + beta.degree - 1
    out = {}
    if m - 1 <= r + s:
        u = r + s + 2 - m
        for (g0, gr), c1 in alpha.coeffs.items():
            for (h0, hs), c3 in beta.coeffs.items():
                for g in range(G.order):
                    for j in range(s + 1):
                        lo = m - s + j - 1
                        if lo < 0 or lo > r:
                            continue  # ill-formed slices drop
                        args = gr[:lo] + (g,) + hs[j:]
                        if 0 in args:
                            continue
                        for (F, f), c2 in phi.coeffs.items():
                            if F != args:
                                continue
                            head = G.mult[G.mult[g0][f]][h0]
                            tail = hs[:j] + (G.inv[g],) + gr[lo:]
                            _acc(out, (head, tail), sign_pow(u - j) * c1 * c2 * c3)
    return dc.element(deg, {k: v % p for k, v in out.items() if v % p})


def test_m3_case_v_matches_printed_display(dc, rng):
    for (dr, dm, ds) in [(-1, 2, -1), (-2, 3, -1), (-1, 3, -2), (-2, 2, -2), (-1, 1, -1)]:
        for _ in range(10):
            a, f, b = rand(dc, rng, dr), rand(dc, rng, dm), rand(dc, rng, ds)
            assert m3(a, f, b).sub(_m3_mid_cochain_printed(dc, a, f, b)).is_zero()


def _m3_mid_chain_by_evaluation(dc, phi, alpha, psi):
    """Independent transcription of the displayed (cochain, chain, cochain)
    formula, evaluating the double sum at every output tuple."""
    G, p = dc.group, dc.p
    m, n = phi.degree, psi.degree
    r = -alpha.degree - 1
    deg = m + n - r - 2
    out = {}
    if r + 2 <= m + n:
        import itertools
        for h in itertools.product(G.nontrivial, repeat=deg):
            acc = {}
            for (g0, gr), c2 in alpha.coeffs.items():
                for g in range(G.order):
                    for j in range(1, min(n, r + 1) + 1):
                        cut = m - r + j - 2
                        if cut < 0:
                            continue  # ill-formed slice drops
                        a1 = h[:cut] + (g,) + gr[j - 1:]
                        a2 = gr[: j - 1] + (G.inv[g],) + h[cut:]
                        if 0 in a1 or 0 in a2:
                            continue
                        sign = sign_pow(m + r + j - 1)
                        for (F, f), c1 in phi.coeffs.items():
                            if F != a1:
                                continue
                            for (Q, q), c3 in psi.coeffs.items():
                                if Q != a2:
                                    continue
                                tgt = G.mult[G.mult[f][g0]][q]
                                key = (h, tgt)
                                out[key] = (out.get(key, 0) + sign * c1 * c2 * c3) % p
    return dc.element(deg, {k: v for k, v in out.items() if v})


def test_m3_case_iv_matches_printed_display():
    C3 = preset_group("cyclic", 3)
    d3 = DComplex(C3, 3, (-6, 6))
    rng3 = random.Random(17)
    for (dm, dr, dn) in [(2, -2, 1), (1, -1, 2), (2, -3, 2), (3, -2, 1), (2, -2, 2)]:
        for _ in range(8):
            phi = d3.random_element(dm, rng3, 2)
            alpha = d3.random_element(dr, rng3, 2)
            psi = d3.random_element(dn, rng3, 2)
            assert m3(phi, alpha, psi).sub(
                _m3_mid_chain_by_evaluation(d3, phi, alpha, psi)).is_zero()


def test_m3_case_v_duality(dc, rng):
    # <m3(a, f, b), psi> = (-1)^{u+1} <m3(psi, a, f), b> with u the output degree
    for (dr, dm, ds) in [(-1, 2, -1), (-2, 3, -1), (-1, 3, -2)]:
        du = dr + dm + ds - 1
        for _ in range(15):
            a, f, b = rand(dc, rng, dr), rand(dc, rng, dm), rand(dc, rng, ds)
            psi = rand(dc, rng, -du - 1, 4)
            lhs = pairing(psi, m3(a, f, b))
            rhs = (sign_pow(-du - 1 + 1) * pairing(m3(psi, a, f), b)) % P
            assert lhs == rhs


# -- BV operator -----------------------------------------------------------

def test_bv_degree0_zero(dc, rng):
    assert bv_operator(rand(dc, rng, 0)).is_zero()


def test_bv_examples_c2():
    C2 = preset_group("cyclic", 2)
    d2 = DComplex(C2, 2, (-4, 3))
    # the rotation operator itself, as displayed
    assert connes_b(d2.element(-1, {(1, ()): 1})).coeffs == {(0, (1,)): 1}
    assert connes_b(d2.element(-1, {(0, ()): 1})).is_zero()
    # positive side of the BV operator
    assert bv_operator(d2.element(1, {((1,), 0): 1})).coeffs == {((), 1): 1}
    assert bv_operator(d2.element(1, {((1,), 1): 1})).is_zero()


def test_bv_negative_is_signed_rotation(dc, rng):
    # out of chain degree s the BV operator is (-1)^(s+1) times the rotation
    for d in range(-5, 0):
        a = rand(dc, rng, d)
        expect = connes_b(a).scale(sign_pow(-d))
        assert bv_operator(a).sub(expect).is_zero()


def test_bv_square_and_signed_chain_map(dc, rng):
    for d in range(-6, 6):
        for _ in range(20):
            a = rand(dc, rng, d)
            assert bv_operator(bv_operator(a)).is_zero()
            assert signed_anticommutator(a).is_zero()


def test_rotation_anticommutes_with_unsigned_boundary(dc, rng):
    for d in range(-6, -1):
        for _ in range(15):
            a = rand(dc, rng, d)
            first = dc.differential(connes_b(a), signed=False)
            second = connes_b(dc.differential(a, signed=False))
            assert first.add(second).is_zero()
    # junction: the boundary of a rotated degree -1 element vanishes
    for _ in range(10):
        a = rand(dc, rng, -1)
        assert dc.differential(connes_b(a), signed=False).is_zero()


def test_bv_duality_with_rotation(dc, rng):
    # the positive branch is dual to the bare rotation operator, and the
    # full operator is self-adjoint up to (-1)^n
    for n in range(1, 6):
        for _ in range(20):
            f, beta = rand(dc, rng, n), rand(dc, rng, -n)
            assert (pairing(bv_operator(f), beta) - pairing(f, connes_b(beta))) % P == 0
            lhs = pairing(bv_operator(f), beta)
            rhs = (sign_pow(n) * pairing(f, bv_operator(beta))) % P
            assert lhs == rhs


def test_bv_preserves_class_components(dc, s3_cd, rng):
    for d in range(-4, 5):
        for key in dc.basis(d)[:: max(1, len(dc.basis(d)) // 20)]:
            cls = class_of_index(s3_cd, d, key)
            img = bv_operator(dc.element(d, {key: 1}))
            assert all(class_of_index(s3_cd, d - 1, k) == cls for k in img.coeffs)


# -- induced operations on cohomology ---------------------------------------

@pytest.fixture(scope="module")
def spaces(dc):
    return {n: dc.cohomology(n) for n in range(-4, 4)}


def basis_classes(spaces, degrees):
    out = []
    for n in degrees:
        sp = spaces[n]
        for i in range(sp.dim):
            out.append(class_of(sp, sp.representative(i)))
    return out


def test_induced_unit(dc, spaces):
    unit = class_of(spaces[0], dc.element(0, {((), 0): 1}))
    for a in basis_classes(spaces, range(-4, 4)):
        prod = induced_cup(unit, a)
        assert prod.coords == a.coords


def test_graded_commutativity_on_classes(dc, spaces):
    classes = basis_classes(spaces, range(-4, 4))
    for a in classes:
        for b in classes:
            if not (-4 <= a.degree + b.degree <= 3):
                continue
            ab = induced_cup(a, b)
            ba = induced_cup(b, a)
            sign = sign_pow(a.degree * b.degree)
            assert ab.coords == tuple((sign * v) % P for v in ba.coords)


def test_associativity_on_classes(dc, spaces, rng):
    classes = basis_classes(spaces, range(-4, 4))
    done = 0
    while done < 25:
        a, b, c = (classes[rng.randrange(len(classes))] for _ in range(3))
        if not (-4 <= a.degree + b.degree <= 3 and -4 <= b.degree + c.degree <= 3
                and -4 <= a.degree + b.degree + c.degree <= 3):
            continue
        assert induced_cup(induced_cup(a, b), c).coords == \
            induced_cup(a, induced_cup(b, c)).coords
        done += 1


def test_induced_delta(dc, spaces):
    unit = class_of(spaces[0], dc.element(0, {((), 0): 1}))
    assert not any(induced_delta(unit).coords)
    for a in basis_classes(spaces, range(-3, 4)):
        d2a = induced_delta(induced_delta(a))
        assert not any(d2a.coords)


def test_checked_rep_lifts_and_checks_each_class_once(dc, spaces):
    """induced_cup and induced_delta lift and d-check a class's
    representative on its first use only, per space and coordinates; a
    representative that is not a cocycle is refused on that first use."""
    space = spaces[2]
    fresh = CohomologySpace(dc, 2, space.quotient)  # a space with no checked representatives
    lifts = []

    def lift(coords):
        lifts.append(tuple(coords))
        return space.lift(coords)
    fresh.lift = lift
    a = class_of(fresh, space.representative(0))
    for _ in range(3):
        induced_cup(a, a)
        induced_delta(a)
    assert lifts == [a.coords]

    corrupt = CohomologySpace(dc, 2, space.quotient)
    key = next(k for k in dc.basis(2) if not dc.differential(dc.element(2, {k: 1})).is_zero())
    corrupt.lift = lambda coords: dc.element(2, {key: 1})
    with pytest.raises(ValueError, match="not a cocycle"):
        induced_delta(class_of(corrupt, space.representative(0)))


def test_bracket_antisymmetry(dc, spaces, rng):
    classes = basis_classes(spaces, range(-3, 4))
    done = 0
    while done < 25:
        a, b = (classes[rng.randrange(len(classes))] for _ in range(2))
        if not (-4 <= a.degree + b.degree <= 3):
            continue
        ab = lie_bracket(a, b)
        ba = lie_bracket(b, a)
        sign = -sign_pow((a.degree - 1) * (b.degree - 1))
        assert ab.coords == tuple((sign * v) % P for v in ba.coords)
        done += 1


def test_bracket_even_square_zero(dc, spaces):
    for a in basis_classes(spaces, [0, 2, -2]):
        assert not any(lie_bracket(a, a).coords)


def test_poisson_rule(dc, spaces, rng):
    classes = basis_classes(spaces, range(-2, 3))
    done = 0
    while done < 15:
        a, b, c = (classes[rng.randrange(len(classes))] for _ in range(3))
        da, db, dcg = a.degree, b.degree, c.degree
        if not (-4 <= da + db <= 3 and -4 <= da + db + dcg - 1 <= 3
                and -4 <= da + db + dcg <= 3 and -4 <= da + dcg - 1 <= 3
                and -4 <= db + dcg - 1 <= 3 and -4 <= da + dcg <= 3
                and -4 <= db + dcg <= 3):
            continue
        lhs = lie_bracket(induced_cup(a, b), c)
        rhs = induced_cup(lie_bracket(a, c), b).add(
            induced_cup(a, lie_bracket(b, c)), sign_pow(da * (dcg - 1)))
        assert lhs.coords == rhs.coords
        done += 1


def _circle(dc, f, g):
    # classical pre-Lie circle product on normalized cochains
    G, p = dc.group, dc.p
    m, n = f.degree, g.degree
    out = {}
    for (A, h), ca in f.coeffs.items():
        for (B, k), cb in g.coeffs.items():
            for i in range(1, m + 1):
                if A[i - 1] != k:
                    continue
                sign = sign_pow((n - 1) * (i - 1))
                _acc(out, (A[:i - 1] + B + A[i:], h), sign * ca * cb)
    return dc.element(m + n - 1, {kk: v % p for kk, v in out.items() if v % p})


def test_delta_bracket_equals_gerstenhaber(dc, spaces):
    """The BV-generated bracket agrees with the circle-product bracket on the
    non-negative part: the decisive independent oracle for all the sign
    conventions at once."""
    for da in (0, 1, 2, 3):
        for db in (0, 1, 2, 3):
            if not (0 <= da + db - 1 <= 3):
                continue
            sa, sb = spaces[da], spaces[db]
            tgt = spaces[da + db - 1]
            for i in range(sa.dim):
                for j in range(sb.dim):
                    fa, fb = sa.representative(i), sb.representative(j)
                    gb = _circle(dc, fa, fb).add(_circle(dc, fb, fa),
                                                 -sign_pow((da - 1) * (db - 1)))
                    assert dc.differential(gb).is_zero()
                    a = class_of(sa, fa)
                    b = class_of(sb, fb)
                    assert tuple(tgt.project(gb)) == lie_bracket(a, b).coords
