import itertools
import random
from collections import Counter

import pytest

from tatebv import linalg
from tatebv.complexes import (DComplex, GroupComplex, WindowError, boundary_vectors, class_faces,
                              class_of_index, coboundary_vectors, d_coboundary_terms, dim_degree)
from tatebv.groups import (class_list, conjugacy_classes, generated_subgroup, preset_group,
                           trivial_subgroup, whole_group)
from tatebv.harness import make_group
from tatebv.linalg import (QuotientSpace, SparseMatrix, add_scaled_inplace, kernel_basis,
                           pivot_columns, rank, select)
from conftest import MutatedDComplex, ranked_dims


def test_dim_degree(s3):
    C2 = preset_group("cyclic", 2)
    assert dim_degree(C2, 0) == 2
    assert dim_degree(s3, 2) == 150
    assert dim_degree(s3, -3) == 150


def test_coboundary_degree0_abelian_vanishes():
    C2 = preset_group("cyclic", 2)
    dc = DComplex(C2, 3, (-2, 2))
    for h in range(2):
        assert dc.differential(dc.element(0, {((), h): 1})).is_zero()


def test_coboundary_degree1_c2_mod2():
    C2 = preset_group("cyclic", 2)
    dc = DComplex(C2, 2, (-2, 3))
    for h in range(2):
        assert dc.differential(dc.element(1, {((1,), h): 1})).is_zero()


def test_boundary_example_s3(s3_complex):
    # (e,(a,b)) |-> (a,(b)) - (e,(ab)) + (b,(a))
    x = s3_complex.element(-3, {(0, (1, 3)): 1})
    dx = s3_complex.differential(x, signed=False)
    assert dx.coeffs == {(1, (3,)): 1, (0, (4,)): 2, (3, (1,)): 1}


def test_boundary_abelian_degree1():
    C2 = preset_group("cyclic", 2)
    dc = DComplex(C2, 2, (-3, 2))
    assert dc.differential(dc.element(-2, {(0, (1,)): 1}), signed=False).is_zero()


def test_trace(s3_complex, s3):
    tau_a = s3_complex.differential(s3_complex.element(-1, {(1, ()): 1}), signed=False)
    assert tau_a.is_zero()  # 3a + 3a2 = 0 mod 3
    tau_e = s3_complex.differential(s3_complex.element(-1, {(0, ()): 1}), signed=False)
    assert tau_e.is_zero()  # |G| e = 6 e = 0 mod 3
    dc5 = DComplex(s3, 5, (-2, 1))
    tau_e5 = dc5.differential(dc5.element(-1, {(0, ()): 1}), signed=False)
    assert tau_e5.coeffs == {((), 0): 6 % 5}


def test_signed_squares_to_zero(s3_complex):
    rng = random.Random(0)
    for d in range(-5, 4):
        for _ in range(25):
            e = s3_complex.random_element(d, rng, 3)
            assert s3_complex.differential(s3_complex.differential(e)).is_zero()


def test_d_squared_exhaustive_small():
    C2 = preset_group("cyclic", 2)
    dc = DComplex(C2, 2, (-4, 4))
    for d in range(-4, 3):
        for key in dc.basis(d):
            e = dc.element(d, {key: 1})
            assert dc.differential(dc.differential(e)).is_zero()


def test_class_of_index(s3, s3_cd):
    assert class_of_index(s3_cd, 0, ((), 3)) == s3_cd.class_of[3]
    assert class_of_index(s3_cd, -1, (1, ())) == s3_cd.class_of[1]
    # chain (b, (a)): class of a*b = ab
    assert class_of_index(s3_cd, -2, (3, (1,))) == s3_cd.class_of[s3.mult[1][3]]


def test_class_grading_of_differential(s3_complex, s3_cd):
    for d in range(-3, 3):
        for key in s3_complex.basis(d)[:: max(1, len(s3_complex.basis(d)) // 25)]:
            cls = class_of_index(s3_cd, d, key)
            img = s3_complex.differential(s3_complex.element(d, {key: 1}))
            assert all(class_of_index(s3_cd, d + 1, k) == cls for k in img.coeffs)


def test_dimension_bookkeeping(s3, s3_cd, s3_complex):
    for d in range(-3, 3):
        per_class = {}
        for key in s3_complex.basis(d):
            per_class[class_of_index(s3_cd, d, key)] = \
                per_class.get(class_of_index(s3_cd, d, key), 0) + 1
        assert sum(per_class.values()) == dim_degree(s3, d)


def test_group_complex_c2():
    C2sub = whole_group(preset_group("cyclic", 2))
    over2 = GroupComplex(C2sub, 2)
    # norm map = 2 = 0 mod 2; all differentials vanish on 1-dim spaces
    for n in range(-4, 4):
        assert over2.cohomology(n).dim == 1
    over3 = GroupComplex(C2sub, 3)
    for n in range(-4, 4):
        assert over3.cohomology(n).dim == 0
    # norm map at -1 is multiplication by |H| mod p
    e = over3.element(-1, {(): 1})
    assert over3.differential(e, signed=False).coeffs == {(): 2}


def test_group_complex_c3():
    H = whole_group(preset_group("cyclic", 3))
    cplx = GroupComplex(H, 3)
    for n in range(-4, 4):
        assert cplx.cohomology(n).dim == 1


def test_group_complex_d_squared(d4):
    cplx = GroupComplex(whole_group(d4), 2)
    rng = random.Random(1)
    for d in range(-3, 3):
        for _ in range(10):
            e = cplx.random_element(d, rng, 3)
            assert cplx.differential(cplx.differential(e)).is_zero()


def test_cohomology_dims(s3, s3_complex):
    assert s3_complex.cohomology(0).dim == 2
    C2 = preset_group("cyclic", 2)
    dc2 = DComplex(C2, 2, (-5, 4))
    assert [dc2.cohomology(n).dim for n in range(-4, 4)] == [2] * 8
    dc3 = DComplex(C2, 3, (-5, 4))
    assert [dc3.cohomology(n).dim for n in range(-4, 4)] == [0] * 8


def test_cohomology_vanishes_coprime_order():
    # p does not divide |G|: every Tate group in the window vanishes
    G = preset_group("symmetric", 3)
    dc = DComplex(G, 5, (-3, 3))
    for n in range(-2, 3):
        assert dc.cohomology(n).dim == 0


def test_window_errors(s3):
    dc = DComplex(s3, 3, (-2, 2))
    with pytest.raises(WindowError):
        dc.basis(3)
    with pytest.raises(WindowError):
        dc.cohomology(2)  # boundary degree needs margin
    with pytest.raises(WindowError):
        DComplex(s3, 3, (2, 2))


def test_matrix_matches_operator(s3_complex):
    rng = random.Random(2)
    for d in (-2, 0, 1):
        M = s3_complex.matrix(d)
        idx = s3_complex.index(d)
        tgt = s3_complex.basis(d + 1)
        for _ in range(5):
            e = s3_complex.random_element(d, rng, 3)
            vec = {}
            for k, c in e.coeffs.items():
                add_scaled_inplace(vec, M.columns[idx[k]], c, M.p)
            direct = s3_complex.differential(e)
            assert direct.coeffs == {tgt[i]: v for i, v in vec.items()}


def test_project_rejects_non_cocycle(s3_complex):
    space = s3_complex.cohomology(1)
    rng = random.Random(3)
    found = False
    for _ in range(20):
        e = s3_complex.random_element(1, rng, 2)
        if not s3_complex.differential(e).is_zero():
            found = True
            with pytest.raises(ValueError):
                space.project(e)
            break
    assert found


def test_representatives_are_cocycles(s3_complex):
    for n in (-2, -1, 0, 1):
        space = s3_complex.cohomology(n)
        for i in range(space.dim):
            rep = space.representative(i)
            assert s3_complex.differential(rep).is_zero()
            coords = space.project(rep)
            assert coords == [1 if j == i else 0 for j in range(space.dim)]


def _face_complexes(G, p, top):
    """DComplex and the GroupComplex of the whole group, of each distinct
    centralizer and of the trivial subgroup, with matrices in degrees
    0..top."""
    subgroups = {H.members: H for H in (whole_group(G), *conjugacy_classes(G).centralizers,
                                         trivial_subgroup(G))}
    return [DComplex(G, p, (0, top + 1)), *(GroupComplex(H, p) for H in subgroups.values())]


@pytest.mark.parametrize("group,top", [
    (("cyclic", 1), 3), (("cyclic", 2), 3), (("cyclic", 3), 3), (("symmetric", 3), 3),
    (("dihedral", 4), 3), (("quaternion8", 0), 3), (("symmetric", 4), 1),
], ids=["C1", "C2", "C3", "S3", "D8", "Q8", "S4"])
@pytest.mark.parametrize("p", [2, 3])
def test_face_built_columns_equal_template(group, top, p):
    """At p <= 3 the coboundary out of every degree d >= 0 is streamed from
    face-map tables: its vectors are exactly the split dict columns of the
    key-level template, and kernels and pivots equal those of the dict
    columns.  Elimination is a function of the vectors alone, so kernels
    and pivots are compared up to 400 columns (all but the D-side S4
    degree-1 and order-8 degree-3 matrices, to keep the test short)."""
    E = linalg._BITSETS[p]
    for C in _face_complexes(preset_group(*group), p, top):
        for d in range(top + 1):
            M = C.matrix(d)
            assert M.vectors is not None and M._columns is None
            assert list(M.vectors()) == [E.split(col) for col in M.columns]
            if M.ncols > 400:
                continue
            D = SparseMatrix(M.nrows, M.ncols, p, build=lambda: M.columns)
            assert kernel_basis(M) == kernel_basis(D)
            assert pivot_columns(M) == pivot_columns(D)


@pytest.mark.parametrize("group", [
    ("symmetric", 3), ("dihedral", 4), ("quaternion8", 0), ("cyclic", 6), ("cyclic", 2),
], ids=["S3", "D8", "Q8", "C6", "C2"])
@pytest.mark.parametrize("p", [2, 3])
def test_face_built_rows_are_transposed_coboundaries(group, p):
    """At p <= 3 the boundary out of degree -n-2 streams its rows from the
    coboundary out of n in the layout of rows (``coboundary_vectors`` on
    ``FaceTables`` with ``rows``), column j at bit ncols-1-j, and its
    columns from ``boundary_vectors``, without building dict columns.
    For n = 0..3, on DComplex and the GroupComplex of the whole group, a
    proper subgroup (where G has one) and the trivial subgroup, the rows
    equal the split rows of the dict template in that reversed layout as
    a multiset, up to one global sign, and the streamed columns, rank and
    pivot_columns equal those of the dict columns (up to 5000 columns:
    all but the D-side degree -5 matrices of the groups of order 8, to
    keep the test short)."""
    G = preset_group(*group)
    E = linalg._BITSETS[p]
    proper = [H for g in G.nontrivial if (H := generated_subgroup(G, [g])).order < G.order][:1]
    subgroups = (whole_group(G), *proper, trivial_subgroup(G))
    complexes = [DComplex(G, p, (-6, 0)), *(GroupComplex(H, p) for H in subgroups)]
    for C in complexes:
        for n in range(4):
            M = C.matrix(-n - 2)
            assert M.rows is not None and M.vectors is not None and M._columns is None
            got = Counter(M.rows())
            negated = Counter({(N, P): k for (P, N), k in got.items()}) if p == 3 else got
            reversed_rows = [{} for _ in range(M.nrows)]
            for j, col in enumerate(M.columns):
                for i, x in col.items():
                    reversed_rows[i][M.ncols - 1 - j] = x
            assert Counter(map(E.split, reversed_rows)) in (got, negated)
            if M.ncols > 5000:
                continue
            assert list(M.vectors()) == [E.split(col) for col in M.columns]
            D = SparseMatrix(M.nrows, M.ncols, p, build=lambda: M.columns)
            assert D.rows is None
            assert pivot_columns(M) == pivot_columns(D)
            assert rank(M) == rank(D)


def _block_columns(G, K, n, p):
    """The dict columns of the class block C^*(G, k[K]) out of degree n,
    read off the kG template ``d_coboundary_terms``: the block is the kG
    coboundary in the basis (args, y), y = prod(args)^-1 h, restricted to
    y in K, with (args, y) at index idx(args)*|K| + K.index(y)."""
    at = {y: i for i, y in enumerate(K)}
    index = {args: k for k, args in enumerate(itertools.product(G.nontrivial, repeat=n + 1))}
    cols = []
    for args in itertools.product(G.nontrivial, repeat=n):
        for y in K:
            col = {}
            for (a, h), c in d_coboundary_terms(G, (args, G.mult[G.prod(args)][y]), n, {}, 1).items():
                if c % p:
                    col[index[a] * len(K) + at[G.mult[G.inv[G.prod(a)]][h]]] = c % p
            cols.append(col)
    return cols


@pytest.mark.parametrize("group", ["symmetric:3", "dihedral:4", "quaternion8", "cyclic:2", "cyclic:3"])
@pytest.mark.parametrize("p", [2, 3])
def test_run_built_coboundary_vectors_equal_template(group, p):
    """``coboundary_vectors`` builds each run of q sibling columns from one
    prefix per value; for n = 0..4 its columns equal the split dict
    columns of the template on the whole-group tables (q = 1 for C2 and 2
    for C3), on the trivial subgroup's (q = 0), on the kG tables (n <= 3
    for the groups of order 8, to keep the test short) and, against the kG
    template in the basis of the class blocks, on each ``class_faces``
    block (n <= 3 for the groups of order 8 there too)."""
    G = make_group(group)
    E = linalg._BITSETS[p]
    D = DComplex(G, p, (0, 5))
    F = D.coboundary_faces()[0]
    for n in range(5):
        for C in (GroupComplex(whole_group(G), p), GroupComplex(trivial_subgroup(G), p), D):
            if C is D and n == 4 and G.order == 8:
                continue
            got = list(coboundary_vectors(*C.coboundary_faces(), n, p))
            assert got == [E.split(col) for col in C._columns(n)]
        for K in class_list(G) if n < 4 or G.order < 8 else ():
            got = list(coboundary_vectors(*class_faces(F, K), n, p))
            assert got == [E.split(col) for col in _block_columns(G, K, n, p)]


@pytest.mark.parametrize("group", ["symmetric:3", "quaternion8", "cyclic:2", "cyclic:3"])
@pytest.mark.parametrize("p", [2, 3])
def test_boundary_vectors_equal_template(group, p):
    """``boundary_vectors`` reads the signed boundary out of d <= -2 off
    index arithmetic; for d = -2..-6 its columns, all of them and a seeded
    subset, equal the split dict columns of the template, on DComplex and
    on the GroupComplex of the whole group and of the trivial subgroup
    (the D side of Q8 stops at d = -4 and its group side at d = -5, to keep
    the test short)."""
    G = make_group(group)
    E = linalg._BITSETS[p]
    rng = random.Random(p)
    complexes = [DComplex(G, p, (-7, 0)), GroupComplex(whole_group(G), p),
                 GroupComplex(trivial_subgroup(G), p)]
    for C in complexes:
        for d in range(-2, -7, -1):
            if G.order == 8 and d < (-4 if C is complexes[0] else -5):
                continue
            faces = C.coboundary_faces()
            want = [E.split(col) for col in C._columns(d)]
            assert list(boundary_vectors(*faces, -d - 1, p)) == want
            cols = sorted(rng.sample(range(len(want)), min(len(want), 40)))
            assert list(boundary_vectors(*faces, -d - 1, p, cols)) == [want[j] for j in cols]
            assert list(C.matrix(d).vectors(cols)) == [want[j] for j in cols]


@pytest.mark.parametrize("p", [2, 3])
def test_quotients_out_of_negative_degrees_match_dict_columns(s3, p):
    """A ``QuotientSpace`` out of n <= -2 reads its kernel and its image
    basis off ``boundary_vectors``; its representatives and its project
    equal those of the same quotient built on dict-column copies of both
    matrices, for n = -2..-4 on DComplex and on the GroupComplex of the
    whole group."""
    rng = random.Random(p)
    for C in (DComplex(s3, p, (-5, 0)), GroupComplex(whole_group(s3), p)):
        for n in range(-2, -5, -1):
            out, into = C.matrix(n), C.matrix(n - 1)
            copies = [SparseMatrix(M.nrows, M.ncols, p, build=lambda d=d: C._columns(d))
                      for d, M in ((n, out), (n - 1, into))]
            got, want = QuotientSpace(out, into), QuotientSpace(*copies)
            assert out._columns is into._columns is None
            assert got.representatives == want.representatives
            for _ in range(4):
                v = {}
                for rep in want.representatives + rng.sample(copies[1].columns, min(3, into.ncols)):
                    add_scaled_inplace(v, rep, rng.randrange(p), p)
                assert got.project(v) == want.project(v)


@pytest.mark.parametrize("group,top", [
    ("symmetric:3", 3), ("dihedral:4", 3), ("quaternion8", 3), ("perms:(0 1 2),(0 1)(2 3)", 2),
    ("cyclic:3", 3), ("cyclic:5", 3), ("cyclic:1", 3),
], ids=["S3", "D8", "Q8", "A4", "C3", "C5", "C1"])
@pytest.mark.parametrize("p", [2, 3])
def test_class_block_ranks_sum_to_whole_rank(group, top, p):
    """At p <= 3 the class blocks of ``class_faces``, one per conjugacy
    class K and |K| q^n columns wide (q = |G| - 1), stream matrices whose
    ranks sum to the rank of the whole face-built matrix(n), for n =
    0..top.  S3 and A4 fail with b y b^-1 in place of b^-1 y b (A4's classes
    of 3-cycles are not closed under inversion); C3 and C5 have one block
    per element, none of them self-inverse but 1; C1 has q = 0.  A4 stops at
    degree 2 to keep the test short (its degree-3 whole matrix takes
    seconds at p = 3)."""
    G = make_group(group)
    classes = conjugacy_classes(G).classes
    q = G.order - 1
    C = DComplex(G, p, (0, top + 1))
    F = C.coboundary_faces()[0]
    for n in range(top + 1):
        blocks = [SparseMatrix(len(K) * q ** (n + 1), len(K) * q ** n, p, build=None,
                               vectors=lambda cols=None, f=class_faces(F, K): select(
                                   coboundary_vectors(*f, n, p), cols))
                  for K in classes]
        assert sum(map(rank, blocks)) == rank(C.matrix(n))


@pytest.mark.parametrize("group,p,window", [
    ("symmetric:3", 5, (-5, 4)), ("dihedral:5", 5, (-4, 3)), ("cyclic:7", 7, (-4, 3)),
], ids=["S3-F5", "D10-F5", "C7-F7"])
def test_boundary_rank_is_coboundary_rank_at_p5_and_p7(group, p, window):
    """The rule every rank(d <= -2) relies on at every p: matrix(d) is the
    transpose of matrix(-d-2) up to order and signs, so both have one rank.
    At p >= 5 neither is face-built, so this compares the boundary template
    with the coboundary template, on DComplex for every d <= -2 with both
    degrees in the window, and on the GroupComplex of the whole group and
    of a proper subgroup (the trivial one in C7) for d = -2..-5."""
    G = make_group(group)
    proper = min((generated_subgroup(G, [g]) for g in G.nontrivial), key=lambda H: H.order)
    if proper.order == G.order:
        proper = trivial_subgroup(G)
    lo, hi = window
    cases = [(DComplex(G, p, window), range(-2, max(lo, -hi - 1) - 1, -1)),
             *((GroupComplex(H, p), range(-2, -6, -1)) for H in (whole_group(G), proper))]
    for C, degrees in cases:
        assert list(degrees)
        for d in degrees:
            assert rank(C.matrix(d)) == rank(C.matrix(-d - 2))


def test_overridden_unsigned_terms_keeps_template(s3):
    """The mutated complex, which overrides unsigned_terms and builds its
    matrices from that template, carries its bogus +1 at row ((g1,), e) of
    every degree-0 column, and streams no rows in negative degrees either.
    The same override on a plain DComplex subclass leaves the matrices to
    the face tables, which stream the uncorrupted vectors."""
    streamed = type("Streamed", (DComplex,), {"unsigned_terms": MutatedDComplex.unsigned_terms})
    S = streamed(s3, 3, (-2, 2)).matrix(0)
    assert S.vectors is not None and streamed(s3, 3, (-4, 0)).matrix(-3).rows is not None
    M = MutatedDComplex(s3, 3, (-2, 2)).matrix(0)
    ref = DComplex(s3, 3, (-2, 2)).matrix(0)
    assert M.vectors is None
    assert all(MutatedDComplex(s3, p, (-4, 0)).matrix(d).rows is None
               for p in (2, 3) for d in (-4, -3, -2))
    assert list(S.vectors()) == list(ref.vectors())
    for col, good in zip(M.columns, ref.columns):
        assert (col.get(0, 0) - good.get(0, 0)) % 3 == 1
        assert {i: x for i, x in col.items() if i} == {i: x for i, x in good.items() if i}


@pytest.mark.parametrize("group,p", [(("dihedral", 4), 2), (("symmetric", 3), 3)])
def test_face_built_matrices_keep_no_columns(group, p):
    """cohomology reads kernels and image vectors off the streamed vectors,
    out of negative degrees too: afterwards no face-built matrix holds
    per-column storage (dict columns or a list of vectors), only the
    callables that regenerate them.  Degrees -1..2 read matrices -2..2, of
    which all but the trace, matrix(-1), are face-built."""
    G = preset_group(*group)
    complexes = [DComplex(G, p, (-2, 3)), GroupComplex(whole_group(G), p)]
    for C in complexes:
        for n in range(-1, 3):
            C.cohomology(n)
        built = [M for M in C._matrix.values() if M.vectors is not None]
        assert len(built) == 4
        for M in built:
            held = [getattr(M, s) for s in type(M).__slots__] + list(getattr(M, "__dict__", {}).values())
            assert M._columns is None and callable(M.vectors)
            assert not any(isinstance(x, (list, tuple, dict)) for x in held)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_differential_matches_per_key_template_sums(p):
    """``differential`` adds every key's terms into one shared dict and
    reduces once, in ``element``; it must equal the sum, key by key and mod
    p, of c times each key's own ``unsigned_terms`` and the sign.  Both
    degree signs, the group-side complex and the mutated complex (whose
    override adds to the shared dict) are covered."""
    s3 = preset_group("symmetric", 3)
    rng = random.Random(p)
    complexes = [DComplex(s3, p, (-4, 3)), GroupComplex(whole_group(s3), p),
                 GroupComplex(trivial_subgroup(s3), p), MutatedDComplex(s3, p, (-4, 3))]
    for C in complexes:
        for d in range(-4, 3):
            for signed in (True, False):
                e = C.random_element(d, rng, terms=6)
                sign = C.sign_of(d) if signed else 1
                ref = {}
                for key, c in e.coeffs.items():
                    for t, x in C.unsigned_terms(key, d, {}, 1).items():
                        ref[t] = (ref.get(t, 0) + c * sign * x) % p
                got = C.differential(e, signed=signed)
                assert got.degree == d + 1
                assert got.coeffs == {t: x for t, x in ref.items() if x}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cohomology_dim_from_ranks_matches_quotient(s3, p):
    """dim C^n - rank d_n - rank d_{n-1} (``ranked_dims``), read on a fresh
    complex, equals the dimension of the quotient that ``cohomology``
    builds, on the D-side complex and on the group side (whole group and a
    proper subgroup), in both degree signs.  The ranks open no cohomology
    space on the complex."""
    make = [lambda: DComplex(s3, p, (-4, 3)), lambda: GroupComplex(whole_group(s3), p),
            lambda: GroupComplex(generated_subgroup(s3, [1]), p)]
    for new in make:
        ranked, quotient = new(), new()
        assert ranked_dims(ranked, range(-3, 3)) == [quotient.cohomology(n).dim for n in range(-3, 3)]
        assert not ranked._cohomology
