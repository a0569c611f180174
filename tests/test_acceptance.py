"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
pytest with -s or read the captured output).  All arithmetic is exact, so
every comparison is equality over F_p.

Criterion 3 runs twice.  The first test checks the source's printed
bracket table together with its erratum: items (10), (11), (19), (20),
(28), (29), (35), (36), (44), (45) of that table are arithmetically
inconsistent with its own presentation and Delta-values, so exactly these
ten must be refuted and every other printed item must hold verbatim.  It
also derives the refutation of (10)/(11) through the Poisson rule and of
(35)/(36), (44)/(45) through the BV-generator formula from the printed
relations, items and Delta-values, evaluated in the computed ring.  The
second test checks the corrected, Poisson/Jacobi-consistent table that the
machinery adjudicates.
"""

import random
import re
import time

import pytest

from tatebv.bv import (bv_operator, class_of, cup, m3, pairing,
                       signed_anticommutator)
from tatebv.complexes import DComplex, class_of_index, sign_pow
from tatebv.decomposition import ClassDecomposition
from tatebv.groups import conjugacy_classes, preset_group
from tatebv.harness import DecClass, DecOps, JobConfig, cmd_dims
from tatebv.linalg import SparseMatrix, rank
from tatebv.verify import S3Verifier, cmd_verify_appendix_b


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {tag}" + (f" -- {detail}" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def s3_verifier():
    """The flagship S3/F3 suite, run once.  The verifier keeps its ring
    (`ops`, `gen`) for evaluations beyond the report."""
    t0 = time.time()
    verifier = S3Verifier()
    rep = verifier.run()
    rep["_runtime"] = time.time() - t0
    return verifier, rep


@pytest.fixture(scope="module")
def s3_report(s3_verifier):
    return s3_verifier[1]


def test_criterion_01_s3_dimensions():
    t0 = time.time()
    data = cmd_dims(JobConfig(group="symmetric:3", p=3, window=(-4, 3), seed=0))
    ok = data["dims"]["total"] == [2, 1, 1, 2, 2, 1, 1, 2]
    # cmd_dims raises internally if the direct path disagrees; its presence
    # for the interior degrees is the confirmation
    ok = ok and data["dims"]["direct"] == {"-3": 1, "-2": 1, "-1": 2, "0": 2,
                                           "1": 1, "2": 1}
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert report(1, "S3/F3 dimensions -4..3 on both paths", ok,
                  f"dims={data['dims']['total']}, {elapsed:.1f}s")


def test_criterion_02_s3_presentation(s3_report):
    relation_names = ("x W", "zi W1", "W2^2", "W2i^2", "W1 W2", "z zi", "W2 W2i",
                      "C^2", "C W", "x^2", "W2^3", "W2i^3", "graded commutativity")
    relevant = [c for c in s3_report["checks"]
                if any(c["name"].startswith(p) or p in c["name"] for p in relation_names)]
    ok = bool(relevant) and all(c["ok"] for c in relevant)
    ok = ok and s3_report["normalization"]["found"]
    ok = ok and s3_report["_runtime"] < 120
    assert report(2, "S3/F3 presentation + scalar normalization", ok,
                  f"lambda={s3_report['normalization']['scalars']}, "
                  f"{s3_report['_runtime']:.1f}s")


# the printed items that contradict the printed presentation and Delta-values
PRINTED_ERRATUM = {10, 11, 19, 20, 28, 29, 35, 36, 44, 45}


def _item(label):
    return int(re.match(r"(?:bracket )?\((\d+)\)", label).group(1))


def _bv_formula(ops, a, b, delta_ab, delta_a, delta_b):
    """[a, b] from given values of Delta(ab), Delta(a), Delta(b), with the
    sign convention of the engine's bracket (fixed by printed item (8))."""
    inner = ops.add(ops.add(delta_ab, ops.cup(delta_a, b), -1),
                    ops.cup(a, delta_b), -sign_pow(a.degree))
    return ops.scale(inner, -sign_pow((a.degree - 1) * b.degree))


def test_criterion_03_bv_table_as_printed(s3_verifier):
    verifier, rep = s3_verifier
    # phase B: one rescaling of the six graded generators makes the printed
    # presentation, the printed Delta-values and the printed values of every
    # item outside the erratum hold verbatim, not just up to scale
    norm = rep["normalization"]
    assert norm["found"], norm["first_violation"]
    # phase A: all 49 items at their corrected values, up to scale
    bracket_checks = {_item(c["name"]): c["ok"] for c in rep["checks"]
                      if c["name"].startswith("bracket (")}
    assert sorted(bracket_checks) == list(range(1, 50))
    failed = sorted(k for k, ok in bracket_checks.items() if not ok)
    assert not failed, f"bracket checks fail for items {failed}"
    # the printed versions of the deviating items: exactly the documented
    # ten are evaluated, and none of them holds
    printed = {_item(d["printed"]): d["holds"] for d in rep["source_discrepancies"]}
    assert set(printed) == PRINTED_ERRATUM, sorted(printed)
    held = sorted(k for k, ok in printed.items() if ok)
    assert not held, f"printed erratum items {held} hold after all"

    # the erratum from the print's own data, in the computed ring with the
    # generators rescaled to their printed normalization
    ops, gen = verifier.ops, verifier.gen
    g = {k: ops.scale(gen[k], lam) for k, lam in norm["scalars"].items()}
    x, z, W1, W2, W2i, C = g["x"], g["z"], g["W1"], g["W2"], g["W2i"], gen["C"]
    one_minus_c = ops.sub(gen["E1"], C)
    zero = DecClass(0)

    # (10)/(11): the printed x W2 = z W1, (1) [x,x] = 0, (3) [z,x] = 0 and
    # (9) [W1,x] = x(1-C) hold, so the Poisson rule gives
    # x [W2,x] = [x W2, x] = [z W1, x] = z [W1,x] = z x (1-C) != 0, so
    # [W2,x] and, by antisymmetry, [x,W2] cannot vanish
    assert ops.eq(ops.cup(x, W2), ops.cup(z, W1))
    assert ops.is_zero(ops.bracket(x, x))
    assert ops.is_zero(ops.bracket(z, x))
    assert ops.eq(ops.bracket(W1, x), ops.cup(x, one_minus_c))
    zx_1c = ops.cup(ops.cup(z, x), one_minus_c)
    assert not ops.is_zero(zx_1c)
    assert ops.eq(ops.cup(x, ops.bracket(W2, x)), zx_1c)

    # the BV-generator formula on printed values: it reproduces the printed
    # (8) [x,W1] = x(C-1) from x W1 = 0, Delta(x) = 0, Delta(W1) = 1-C, and
    # (42) [W1,W2] = -W2 from Delta(W1 W2) = -W2, Delta(W2) = 0, C W2 = 0 ...
    assert ops.eq(_bv_formula(ops, x, W1, zero, zero, one_minus_c),
                  ops.scale(ops.cup(x, one_minus_c), -1))
    assert ops.eq(_bv_formula(ops, W1, W2, ops.scale(W2, -1), one_minus_c, zero),
                  ops.scale(W2, -1))
    # ... so (44) [W1,W2i] = W2i contradicts Delta(W1 W2i) = -W2i, C W2i = 0
    # (and (45) by antisymmetry)
    bv_44 = _bv_formula(ops, W1, W2i, ops.scale(W2i, -1), one_minus_c, zero)
    assert ops.eq(bv_44, ops.scale(W2i, -1)) and not ops.eq(bv_44, W2i)
    # ... and (36) [W1,C] = -C contradicts C W1 = 0, C^2 = 0, Delta(C) = 0
    # (and (35) by antisymmetry)
    bv_36 = _bv_formula(ops, W1, C, zero, one_minus_c, zero)
    assert ops.eq(bv_36, C) and not ops.eq(bv_36, ops.scale(C, -1))

    report(3, "S3/F3 BV operator table and all 49 brackets as printed", True,
           f"39 items hold verbatim at lambda={norm['scalars']}; the erratum "
           f"{sorted(PRINTED_ERRATUM)} is refuted, (10)/(11) by the Poisson rule "
           "and (35)/(36), (44)/(45) by the BV-generator formula")


def test_criterion_03_bv_table_corrected(s3_report):
    ok = s3_report["passed"]
    anti = [c for c in s3_report["checks"] if "antisymmetry" in c["name"]]
    poisson = [c for c in s3_report["checks"] if "Poisson" in c["name"]]
    ok = ok and all(c["ok"] for c in anti + poisson) and anti and poisson
    ok = ok and s3_report["_runtime"] < 120
    assert report(3, "S3/F3 BV table, corrected and consistency-adjudicated", bool(ok),
                  f"110-check suite passed, runtime {s3_report['_runtime']:.1f}s")


def _path_equivalence(G, p, window, count, seed):
    ops = DecOps(G, p)
    cd = ops.cd
    dc = DComplex(G, p, (window[0] - 1, window[1] + 1))
    dec = ClassDecomposition(dc, cd)
    rng = random.Random(seed)
    lo, hi = window
    done = fails = 0
    while done < count:
        i, j = rng.randrange(cd.num_classes), rng.randrange(cd.num_classes)
        di, dj = rng.randrange(lo, hi + 1), rng.randrange(lo, hi + 1)
        if not (lo <= di + dj <= hi):
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
        if p1 != p2:
            fails += 1
        done += 1
    return done, fails


def test_criterion_04_path_equivalence():
    d1, f1 = _path_equivalence(preset_group("symmetric", 3), 3, (-4, 3), 30, 11)
    d2, f2 = _path_equivalence(preset_group("dihedral", 4), 2, (-3, 2), 30, 12)
    ok = d1 >= 30 and d2 >= 30 and f1 == 0 and f2 == 0
    assert report(4, "double-coset product = direct chain-level product", ok,
                  f"S3/F3: {d1} pairs, {f1} mismatches; D4/F2: {d2} pairs, {f2} mismatches")


def _retract_suite(G, p, per_class, seed):
    cd = conjugacy_classes(G)
    dc = DComplex(G, p, (-5, 4))
    dec = ClassDecomposition(dc, cd)
    rng = random.Random(seed)
    runs = fails = 0

    def random_class_elem(d, cls):
        basis = [k for k in dc.basis(d) if class_of_index(cd, d, k) == cls]
        coeffs = {}
        for _ in range(3):
            coeffs[basis[rng.randrange(len(basis))]] = rng.randrange(1, p)
        return dc.element(d, coeffs)

    for cls in range(cd.num_classes):
        gcplx = dec.complexes[cls]
        for _ in range(per_class):
            # cochain side
            n = rng.randrange(1, 4)
            phi = random_class_elem(n, cls)
            lhs = dc.differential(dec.homotopy_cochain(cls, phi), signed=False).add(
                dec.homotopy_cochain(cls, dc.differential(phi, signed=False)))
            rhs = phi.sub(dec.rho_cochain(cls, dec.iota_cochain(cls, phi)))
            psi = gcplx.random_element(n, rng, 2)
            runs += 1
            if not lhs.sub(rhs).is_zero():
                fails += 1
            if not dec.iota_cochain(cls, dec.rho_cochain(cls, psi)).sub(psi).is_zero():
                fails += 1
            # chain side (unsigned boundary)
            d = -rng.randrange(2, 5)
            alpha = random_class_elem(d, cls)
            lhs = dc.differential(dec.homotopy_chain(cls, alpha), signed=False).add(
                dec.homotopy_chain(cls, dc.differential(alpha, signed=False)))
            rhs = alpha.sub(dec.iota_chain(cls, dec.rho_chain(cls, alpha)))
            gamma = gcplx.random_element(d, rng, 2)
            runs += 1
            if not lhs.sub(rhs).is_zero():
                fails += 1
            if not dec.rho_chain(cls, dec.iota_chain(cls, gamma)).sub(gamma).is_zero():
                fails += 1
    return runs, fails


def test_criterion_05_retract_identities():
    r1, f1 = _retract_suite(preset_group("symmetric", 3), 3, 100, 21)
    r2, f2 = _retract_suite(preset_group("dihedral", 4), 2, 100, 22)
    ok = f1 == 0 and f2 == 0 and r1 >= 600 and r2 >= 1000
    assert report(5, "retract identities exact on both sides", ok,
                  f"S3/F3: {r1} checks; D4/F2: {r2} checks; {f1 + f2} failures")


def test_criterion_06_a_infinity_suite(s3):
    dc = DComplex(s3, 3, (-8, 7))
    rng = random.Random(33)
    fails = 0

    leibniz_pairs = [(1, 2), (2, 1), (0, 0), (-1, -1), (-2, -1), (-1, -3),
                     (1, -3), (2, -4), (0, -1), (3, -2), (2, -2), (1, -2),
                     (-3, 1), (-4, 2), (-2, 0), (-2, 2), (-1, 3), (-2, 3)]
    n_leib = 0
    for da, db in leibniz_pairs:
        for _ in range(8):
            a, b = dc.random_element(da, rng, 3), dc.random_element(db, rng, 3)
            lhs = dc.differential(cup(a, b))
            rhs = cup(dc.differential(a), b).add(cup(a, dc.differential(b)), sign_pow(da))
            if not lhs.sub(rhs).is_zero():
                fails += 1
            n_leib += 1

    hom_triples = [(1, -2, 1), (2, -2, 2), (2, -3, 1), (3, -2, 2), (0, -2, 2),
                   (-1, 1, -1), (-2, 2, -1), (-1, 2, -2), (-2, 3, -1), (1, 1, 1),
                   (-1, -1, -1), (1, -1, -1), (-1, 1, 1), (2, -4, 1), (-3, 4, -2)]
    n_hom = 0
    for degs in hom_triples:
        d1, d2, d3 = degs
        for _ in range(7):
            a, b, c = (dc.random_element(d, rng, 3) for d in degs)
            lhs = cup(a, cup(b, c)).sub(cup(cup(a, b), c))
            rhs = dc.differential(m3(a, b, c))
            rhs = rhs.add(m3(dc.differential(a), b, c))
            rhs = rhs.add(m3(a, dc.differential(b), c), sign_pow(d1))
            rhs = rhs.add(m3(a, b, dc.differential(c)), sign_pow(d1 + d2))
            if not lhs.sub(rhs).is_zero():
                fails += 1
            n_hom += 1

    n_vanish = 0
    for degs in [(1, 2, 1), (-1, -2, -1), (-1, -1, 2), (2, -1, -1), (1, 1, -2),
                 (-2, 1, 1)]:
        for _ in range(5):
            if not m3(*(dc.random_element(d, rng, 3) for d in degs)).is_zero():
                fails += 1
            n_vanish += 1

    n_cyc = 0
    for degs in [(0, 1, -2, 1), (-1, 2, -2, 1), (1, -2, 2, -1), (-2, 1, -1, 2),
                 (2, -1, 1, -2), (2, -3, 2, -1), (0, 2, -3, 1), (1, -1, 1, -1)]:
        d0 = degs[0]
        for _ in range(8):
            a0, a1, a2, a3 = (dc.random_element(d, rng, 4) for d in degs)
            if pairing(a0, m3(a1, a2, a3)) != (sign_pow(d0 + 1) * pairing(m3(a0, a1, a2), a3)) % 3:
                fails += 1
            if pairing(a0, cup(a1, cup(a2, a3))) != pairing(cup(a0, a1), cup(a2, a3)):
                fails += 1
            n_cyc += 1

    n_bv = 0
    for _ in range(220):
        d = rng.randrange(-6, 6)
        a = dc.random_element(d, rng, 3)
        if not bv_operator(bv_operator(a)).is_zero():
            fails += 1
        if not signed_anticommutator(a).is_zero():
            fails += 1
        n_bv += 1

    ok = (fails == 0 and n_leib + n_hom + n_vanish + n_cyc >= 100 and n_bv >= 200)
    assert report(6, "A-infinity suite: Leibniz, m3, cyclicity, BV chain map", ok,
                  f"{n_leib} Leibniz, {n_hom} homotopy-assoc, {n_vanish} vanishing, "
                  f"{n_cyc} cyclicity, {n_bv} BV samples; {fails} failures")


def test_criterion_07_vanishing_and_abelian():
    d_c2f3 = cmd_dims(JobConfig(group="cyclic:2", p=3, window=(-3, 2), seed=0))
    d_c2f2 = cmd_dims(JobConfig(group="cyclic:2", p=2, window=(-3, 2), seed=0))
    d_c3f3 = cmd_dims(JobConfig(group="cyclic:3", p=3, window=(-3, 2), seed=0))
    ok = (d_c2f3["dims"]["total"] == [0] * 6 and d_c2f2["dims"]["total"] == [2] * 6
          and d_c3f3["dims"]["total"] == [3] * 6)

    # kC2/F2 product table follows the group-ring tensor rule on all pairs
    C2 = preset_group("cyclic", 2)
    ops = DecOps(C2, 2)
    cd = ops.cd
    pairs = 0
    for da in range(-3, 4):
        for db in range(-3, 4):
            if not (-3 <= da + db <= 3):
                continue
            for ca in range(2):
                for cb in range(2):
                    A = ops.from_class(ca, class_of(ops.space(ca, da),
                                                    ops.space(ca, da).representative(0)))
                    B = ops.from_class(cb, class_of(ops.space(cb, db),
                                                    ops.space(cb, db).representative(0)))
                    prod = ops.cup(A, B)
                    target = cd.class_of[C2.mult[cd.reps[ca]][cd.reps[cb]]]
                    if prod.parts != {target: ("c", (1,))}:
                        ok = False
                    pairs += 1
    assert report(7, "vanishing, abelian dims, and the tensor rule for kC2/F2", ok,
                  f"{pairs} product pairs checked")


def _check_bv_subalgebra(G, p, window):
    """Closure of the identity-class component under cup and the BV operator
    on cohomology, computed on the direct path."""
    lo, hi = window
    dc = DComplex(G, p, (lo - 1, hi + 1))
    cd = conjugacy_classes(G)
    dec = ClassDecomposition(dc, cd)
    ops_ok = True
    pairs = 0
    for da in range(lo, hi + 1):
        sa = dec.complexes[0].cohomology(da)
        for i in range(sa.dim):
            a = dec.retract_up(0, sa.representative(i))
            img = bv_operator(a)
            if not dc.differential(img).is_zero():
                ops_ok = False
            for k, g in dec.retract_down(img).items():
                coords = dec.complexes[k].cohomology(da - 1).project(g)
                if k != 0 and any(coords):
                    ops_ok = False
            for db in range(lo, hi + 1):
                if not (lo <= da + db <= hi):
                    continue
                sb = dec.complexes[0].cohomology(db)
                for j in range(sb.dim):
                    b = dec.retract_up(0, sb.representative(j))
                    prod = cup(a, b)
                    pairs += 1
                    for k, g in dec.retract_down(prod).items():
                        coords = dec.complexes[k].cohomology(da + db).project(g)
                        if k != 0 and any(coords):
                            ops_ok = False
    return {"closed": ops_ok, "pairs": pairs}


def test_criterion_08_bv_subalgebra():
    r1 = _check_bv_subalgebra(preset_group("symmetric", 3), 3, (-3, 2))
    r2 = _check_bv_subalgebra(preset_group("dihedral", 4), 2, (-2, 1))
    ok = r1["closed"] and r2["closed"]
    assert report(8, "identity component closed under cup and the BV operator", ok,
                  f"S3/F3: {r1['pairs']} pairs; D4/F2: {r2['pairs']} pairs")


def test_criterion_09_rotation_trivial_on_group_homology():
    results = []
    for group, p in [("cyclic:3", 3), ("symmetric:3", 3), ("klein_four", 2)]:
        rep = cmd_verify_appendix_b(JobConfig(group=group, p=p, window=(-4, 3), seed=0))
        results.append((group, rep["passed"]))
    ok = all(r for _, r in results)
    assert report(9, "rotation operator sends cycles to boundaries (s <= 2)", ok,
                  "; ".join(f"{g}: {'ok' if r else 'fail'}" for g, r in results))


def _check_duality(G, p, degrees):
    """Nondegeneracy of the pairing between complementary cohomologies and
    its class-component vanishing pattern, on the direct path."""
    lo = min(min(degrees), min(-n - 1 for n in degrees)) - 1
    hi = max(max(degrees), max(-n - 1 for n in degrees)) + 1
    dc = DComplex(G, p, (lo, hi))
    cd = conjugacy_classes(G)
    out = {"nondegenerate": True, "cross_class_vanishing": True, "ranks": {}}
    for n in degrees:
        sp = dc.cohomology(n)
        sq = dc.cohomology(-n - 1)
        if sp.dim != sq.dim:
            out["nondegenerate"] = False
            continue
        reps = [sp.representative(i) for i in range(sp.dim)]
        columns = [{i: x for i, a in enumerate(reps) if (x := pairing(a, b) % p)}
                   for b in map(sq.representative, range(sq.dim))]
        r = rank(SparseMatrix(sp.dim, sq.dim, p, build=lambda: columns))
        out["ranks"][str(n)] = [r, sp.dim]
        if r != sp.dim:
            out["nondegenerate"] = False
    # basis-level vanishing between class components x, y with x^-1 not in C_y
    for n in degrees:
        for key_a in dc.basis(n)[:: max(1, len(dc.basis(n)) // 40)]:
            ka = class_of_index(cd, n, key_a)
            for key_b in dc.basis(-n - 1)[:: max(1, len(dc.basis(-n - 1)) // 40)]:
                kb = class_of_index(cd, -n - 1, key_b)
                val = pairing(dc.element(n, {key_a: 1}), dc.element(-n - 1, {key_b: 1}))
                inv_class = cd.class_of[G.inv[cd.reps[ka]]]
                if val and inv_class != kb:
                    out["cross_class_vanishing"] = False
    return out


def test_criterion_10_duality():
    out = _check_duality(preset_group("symmetric", 3), 3, [0, 1, 2, 3])
    ok = out["nondegenerate"] and out["cross_class_vanishing"]
    assert report(10, "pairing nondegenerate between complementary degrees", ok,
                  f"ranks {out['ranks']}")
