import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tatebv import linalg, preset_group, whole_group
from tatebv.cli import main
from tatebv.complexes import CohomologySpace, DComplex, GroupComplex
from tatebv.groups import generated_subgroup
from tatebv.linalg import (ColumnReducer, QuotientSpace, SparseMatrix, add_scaled_inplace, is_prime,
                           kernel_basis, pivot_columns, rank)


def from_columns(nrows, p, columns):
    """The nrows x len(columns) matrix with the given dict columns, whose
    entries are reduced mod p and dropped where zero."""
    columns = [{i: v % p for i, v in col.items() if v % p} for col in columns]
    return SparseMatrix(nrows, len(columns), p, build=lambda: columns)


def mat(rows, p):
    ncols = len(rows[0]) if rows else 0
    return from_columns(len(rows), p, [{i: row[j] for i, row in enumerate(rows)} for j in range(ncols)])


def matvec(M, v):
    """M v mod p for a dict v over M's column indices, zeros dropped."""
    out = {}
    for j, c in v.items():
        add_scaled_inplace(out, M.columns[j], c, M.p)
    return out


def test_is_prime_and_inverse():
    assert is_prime(2) and is_prime(7)
    assert pow(3, 7 - 2, 7) == 5
    assert not is_prime(6)
    assert not is_prime(1)


def test_is_prime_miller_rabin_exact_below_bound():
    # every n < 10^5 against a sieve of Eratosthenes
    N = 10 ** 5
    sieve = [False, False] + [True] * (N - 2)
    for q in range(2, int(N ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, N, q))
    assert [n for n in range(N) if is_prime(n)] == [n for n in range(N) if sieve[n]]
    # Carmichael numbers, and strong pseudoprimes to the first 4, 11 and 12
    # prime bases: each base set below the 13 used here is fooled by one
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2 ** 61 - 1, 10 ** 12 + 39, 2 ** 31 - 1, 65537):
        assert is_prime(n)
    # the largest odd n admitted: 17 * 1709 * 1366183751 * 83570142193
    assert not is_prime(linalg.PRIME_BOUND - 2)
    with pytest.raises(ValueError, match=str(linalg.PRIME_BOUND)):
        is_prime(linalg.PRIME_BOUND)


def test_rank_examples():
    assert rank(mat([[0, 0], [0, 0]], 3)) == 0
    assert rank(from_columns(5, 7, [{i: 1} for i in range(5)])) == 5
    assert rank(mat([[1, 1], [1, 1]], 2)) == 1


def test_kernel_examples():
    assert kernel_basis(from_columns(3, 3, [{i: 1} for i in range(3)])) == []
    ks = kernel_basis(from_columns(3, 3, [{}, {}, {}]))
    assert ks == [{0: 1}, {1: 1}, {2: 1}]
    ks = kernel_basis(mat([[1, 1]], 3))
    assert len(ks) == 1
    # x + y = 0 mod 3: the reduced vector has 1 at the free column
    assert ks[0] in ({0: 2, 1: 1}, {0: 1, 1: 2})
    v = ks[0]
    assert (v.get(0, 0) + v.get(1, 0)) % 3 == 0


def test_rank_plus_nullity(s3_complex):
    M = s3_complex.matrix(1)
    assert rank(M) + len(kernel_basis(M)) == M.ncols


def test_kernel_vectors_annihilate(s3_complex):
    for d in (-2, 0, 1):
        M = s3_complex.matrix(d)
        for v in kernel_basis(M)[:5]:
            assert not matvec(M, v)


def test_quotient_examples():
    p = 2
    zero = from_columns(1, p, [{}, {}])  # kernel e1, e2
    q = QuotientSpace(zero, mat([[1], [1]], p))
    assert q.dim == 1
    assert q.project({0: 1}) == q.project({1: 1})
    assert q.representatives == [{1: 1}]
    assert q.lift([1]) == {1: 1}
    assert QuotientSpace(zero, mat([[1, 0], [0, 1]], p)).dim == 0
    assert QuotientSpace(zero, from_columns(2, p, [])).dim == 2
    with pytest.raises(ValueError, match="mismatch"):
        QuotientSpace(zero, from_columns(3, p, [{}]))


def test_quotient_validates_image():
    """out * into != 0 raises at p = 2, 3 and 5, for an image column that
    is outside the kernel whether or not it touches a free column."""
    for p in (2, 3, 5):
        out = mat([[0, 1, 0], [0, 0, 1]], p)  # kernel e0; rows 1, 2 pivots
        assert QuotientSpace(out, mat([[p - 1], [0], [0]], p)).dim == 0
        for bad in ([[0], [1], [0]], [[1], [0], [p - 1]]):
            with pytest.raises(ValueError, match="outside kernel span"):
                QuotientSpace(out, mat(bad, p))


def test_quotient_project_lift_roundtrip():
    rng = random.Random(1)
    for p in (2, 3, 5):
        columns = [{} for _ in range(6)]
        while rank(M := from_columns(2, p, columns)) < 2:
            i, j = rng.randrange(2), rng.randrange(6)
            columns[j][i] = (columns[j].get(i, 0) + rng.randrange(1, p)) % p
        kern = kernel_basis(M)
        assert len(kern) == 4
        image = dict(kern[0])
        add_scaled_inplace(image, kern[1], 1, p)
        q = QuotientSpace(M, from_columns(6, p, [image]))
        assert q.dim == len(kern) - 1
        for _ in range(10):
            coords = [rng.randrange(p) for _ in range(q.dim)]
            assert q.project(q.lift(coords)) == coords
        # projecting something outside the kernel span must fail
        for j in pivot_columns(M):
            with pytest.raises(ValueError, match="not in the kernel span"):
                q.project({j: 1})


def test_project_linear():
    rng = random.Random(2)
    p = 5
    M = mat([[1, 0, 3, 0, 2], [0, 1, 4, 1, 0]], p)
    kern = kernel_basis(M)
    assert len(kern) == 3
    q = QuotientSpace(M, from_columns(5, p, [kern[2]]))
    for _ in range(10):
        a = q.lift([rng.randrange(p) for _ in range(q.dim)])
        b = q.lift([rng.randrange(p) for _ in range(q.dim)])
        c = rng.randrange(p)
        s = dict(a)
        add_scaled_inplace(s, b, c, p)
        lhs = q.project(s)
        rhs = [(x + c * y) % p for x, y in zip(q.project(a), q.project(b))]
        assert lhs == rhs


def test_determinism(s3_complex):
    M = s3_complex.matrix(-2)
    k1 = kernel_basis(M)
    k2 = kernel_basis(M)
    assert k1 == k2
    assert pivot_columns(M) == pivot_columns(M)


PRIMES = (2, 3, 5, 7, 46337, 65537, 2 ** 31 - 1, 2 ** 61 - 1)


@st.composite
def rank_deficient_matrices(draw):
    """A product L R of an nrows x k and a k x ncols matrix mod p (so rank
    <= k), with some columns then zeroed; shapes include empty ones and
    wide ones up to 6 x 20."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.one_of(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                                  st.tuples(st.integers(0, 6), st.integers(7, 20))))
    k = draw(st.integers(0, min(nrows, ncols)))
    residue = st.integers(0, p - 1)
    L = draw(st.lists(st.lists(residue, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    R = draw(st.lists(st.lists(residue, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    return from_columns(nrows, p, [{} if j in zero_cols else
                                   {i: sum(L[i][t] * R[t][j] for t in range(k)) for i in range(nrows)}
                                   for j in range(ncols)])


def seeded_sparse(p):
    """40x30 with 120 random entries: larger than the drawn matrices."""
    rng = random.Random(3)
    columns = [{} for _ in range(30)]
    for _ in range(120):
        i, j = rng.randrange(40), rng.randrange(30)
        columns[j][i] = (columns[j].get(i, 0) + rng.randrange(1, p)) % p
    return from_columns(40, p, columns)


def lowest_row_feed(E, vectors, track):
    """The reference column loop, independent of the engines' ``feed``:
    each vector in order is reduced by the lowest-row steps of the echelon
    E, which apply its pivots in creation order, and becomes the pivot at
    its lowest row if anything is left.  Returns (indices of the vectors
    that became pivots, [(index, combination)] of the others or None
    without track)."""
    pivots = []
    kernel = []
    for j, v in enumerate(vectors):
        v, c = E.reduce(v, {j: 1} if track else None)
        if v:
            E.push(*E.normalize(v, c))
            pivots.append(j)
        elif track:
            kernel.append((j, c))
    return pivots, kernel if track else None


def transpose(M, reverse=False):
    """M's rows as dicts over its columns, read from its dict columns; with
    reverse, column j at index ncols-1-j, the layout of streamed ``rows``."""
    rows = [{} for _ in range(M.nrows)]
    for j, col in enumerate(M.columns):
        for i, x in col.items():
            rows[i][M.ncols - 1 - j if reverse else j] = x
    return rows


def with_streamed_rows(M):
    """A copy of M that streams its rows, as the face-built matrices do."""
    E = linalg._engine(M.p)
    return SparseMatrix(M.nrows, M.ncols, M.p, build=lambda: M.columns,
                        rows=lambda: map(E.split, transpose(M, reverse=True)))


def lowest_row_by_rows(M):
    """The reference pivot search by rows, independent of ``feed``: M's
    rows in order, with column j at index j, each reduced by the lowest-row
    steps of the engine for p and pushed at its lowest set column if
    anything is left.  The lowest set columns of that echelon basis of the
    row space are M's leftmost-greedy independent columns."""
    E = linalg._engine(M.p)
    for v in map(E.split, transpose(M)):
        v = E.reduce(v, None)[0]
        if E.support(v):
            E.push(*E.normalize(v, None))
    return linalg._bits(E.mask) if M.p <= 3 else sorted(row for row, _, _ in E.pivots)


def reducer_run(M, track=True):
    """(pivot columns, kernel combinations) of the reference loop on M's
    columns in order."""
    pivots, kernel = lowest_row_feed(ColumnReducer(M.p), M.columns, track)
    return pivots, [c for _, c in kernel] if track else None


@settings(max_examples=300, deadline=None)
@given(rank_deficient_matrices())
@example(seeded_sparse(3))
@example(seeded_sparse(2))
@example(seeded_sparse(65537))
@example(seeded_sparse(5))
@example(seeded_sparse(7))
def test_engines_match_column_reducer(M):
    """Every engine (bitsets at p = 2, bit-sliced pairs at p = 3, dict
    columns at p >= 5) gives the reference loop's pivot set, rank and
    kernel basis, and lists each kernel vector's own column first, then its
    pivot columns ascending.  The pivot search by rows, on a copy of M that
    streams its rows, gives the same pivots, and so does the reference
    lowest-row search by rows."""
    pivots, red_kernel = reducer_run(M)
    assert pivot_columns(M) == pivots
    assert rank(M) == len(pivots)
    R = with_streamed_rows(M)
    assert pivot_columns(R) == pivots
    assert rank(R) == len(pivots)
    assert lowest_row_by_rows(M) == pivots
    kern = kernel_basis(M)
    assert kern == red_kernel
    assert [list(v) for v in kern] == [[max(c)] + sorted(c)[:-1] for c in red_kernel]
    for v in kern:
        assert not matvec(M, v)


def test_engine_shape_rule(monkeypatch):
    """``_eliminate`` runs one loop, the engine's leading-row ``feed``, for
    every p and shape, and never the lowest-row steps ``reduce`` and
    ``push``, which serve ``QuotientSpace`` alone.  pivot_columns and rank
    of a matrix that streams its ``rows`` feed those rows, in which column
    j is bit ncols-1-j; kernels, and every matrix without streamed rows
    (wide ones too), feed the columns."""
    calls = set()
    fed = []

    def record(name, f):
        def recorded(self, *args, **kwargs):
            calls.add(name)
            if name.endswith(".feed"):
                args = (list(args[0]), *args[1:])
                fed.append(args[0])
            return f(self, *args, **kwargs)
        return recorded

    for cls in (*linalg._BITSETS.values(), ColumnReducer):
        for step in ("feed", "reduce", "push"):
            monkeypatch.setattr(cls, step, record(f"{cls.__name__}.{step}", getattr(cls, step)))

    def paths(M, f):
        calls.clear()
        fed.clear()
        f(M)
        return calls.copy(), fed.copy()

    for p in PRIMES:
        E = linalg._engine(p)
        feed = {f"{type(E).__name__}.feed"}
        wide = mat([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 1, 1]], p)
        tall = mat([[1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], p)
        square = mat([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]], p)
        for M in (wide, tall, square):
            by_columns = (feed, [list(map(E.split, M.columns))])
            for f in (kernel_basis, pivot_columns, rank):
                assert paths(M, f) == by_columns
        row = E.split({4: 1})
        streamed = SparseMatrix(3, 5, p, build=lambda: [{0: 1}, {}, {}, {}, {}],
                                rows=lambda: iter([row]))
        for f in (pivot_columns, rank):
            assert paths(streamed, f) == (feed, [[row]])
        assert pivot_columns(streamed) == [0]
        assert rank(streamed) == 1


BIG_PRIMES = (5, 7, 2 ** 31 - 1, 2 ** 61 - 1)


def leading_row_examples():
    """Columns that exercise each branch of the leading-row loop: at p = 3
    columns whose top set entry is 2 (stored negated as a new pivot, and
    adding rather than subtracting a pivot they meet), zero columns (kernel
    vector e_j at once), and duplicate columns, also up to sign; at p >= 5
    columns whose top entry is not 1 (scaled to 1 as a new pivot, and
    subtracting a multiple other than 1 of a pivot they meet)."""
    yield "p3-top-entry-2", from_columns(4, 3, [
        {3: 2}, {0: 1, 3: 2}, {1: 2, 3: 1}, {0: 1, 1: 1, 3: 2}, {2: 2, 3: 2},
        {0: 2, 1: 1, 2: 1}, {0: 2, 2: 2}, {1: 1, 2: 2}])
    for p in BIG_PRIMES:
        yield f"p{p}-top-entry-not-1", from_columns(4, p, [
            {3: 2}, {0: 1, 3: p - 1}, {1: 3, 3: 1}, {0: 1, 1: 1, 3: 3}, {2: p - 1, 3: 2},
            {0: 2, 1: 1, 2: 3}, {0: 2, 2: (p + 1) // 2}, {1: p - 2, 2: 2}, {0: 3, 1: 3, 2: 3, 3: 3}])
    for p in (2, 3) + BIG_PRIMES:
        yield f"p{p}-zero-and-duplicate", from_columns(3, p, [
            {}, {0: 1, 2: 1}, {}, {0: 1, 2: 1}, {1: 1}, {0: p - 1, 2: p - 1},
            {0: 1, 1: 1, 2: 1}, {}, {1: 1}, {1: p - 1}])


@pytest.mark.parametrize("M", [M for _, M in leading_row_examples()],
                         ids=[name for name, _ in leading_row_examples()])
def test_leading_row_examples(M):
    """The explicit examples give the reference loop's pivots, rank and
    kernel basis; every pivot the leading-row loop stores holds 1 at its
    top row, its key."""
    pivots, kern = reducer_run(M)
    assert pivot_columns(M) == pivots
    assert rank(M) == len(pivots)
    assert kernel_basis(M) == kern
    for v in kern:
        assert not matvec(M, v)
    E = linalg._engine(M.p)
    E.feed(map(E.split, M.columns), True)
    assert len(E.lead) == len(pivots)
    for top, pivot in E.lead.items():
        entries = E.entries(pivot[:2] if M.p == 3 else pivot[0])
        assert max(entries) == top and entries[top] == 1


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_column_reducer_feed_scales_pivots(p):
    """ColumnReducer.feed stores each new pivot, vector and combination
    alike, scaled to 1 at its top row; columns with distinct top rows meet
    no pivot, so this holds before any reduction step runs."""
    E = ColumnReducer(p)
    assert E.feed([{0: 3}, {0: 1, 2: p - 1}, {1: 2, 3: 4}], True) == ([0, 1, 2], [])
    third, quarter = pow(3, p - 2, p), pow(4, p - 2, p)
    assert E.lead == {0: ({0: 1}, {0: third}), 2: ({0: p - 1, 2: 1}, {1: p - 1}),
                      3: ({1: 2 * quarter % p, 3: 1}, {2: quarter})}


@pytest.mark.parametrize("group,p,shape", [
    (("symmetric", 3), 3, (625, 125)),
    (("dihedral", 4), 2, (2401, 343)),
], ids=["S3-p3", "D8-p2"])
def test_face_built_kernels_match_column_reducer(group, p, shape):
    """The tracked kernel of the face-built whole-group matrix(3), streamed
    from the coboundary face tables, equals the ColumnReducer's kernel on
    the matrix's dict columns."""
    M = GroupComplex(whole_group(preset_group(*group)), p).matrix(3)
    assert (M.nrows, M.ncols) == shape and M.vectors is not None
    assert kernel_basis(M) == reducer_run(M)[1]


@pytest.mark.parametrize("group,p,degree,shape", [
    (("symmetric", 3), 3, -6, (625, 3125)),
    (("dihedral", 4), 2, -5, (343, 2401)),
], ids=["S3-p3-degree-6", "D8-p2-degree-5"])
def test_row_pivots_on_whole_group_matrices(group, p, degree, shape):
    """The row path on the widest whole-group matrices of the benchmark
    jobs gives the ColumnReducer's pivot columns."""
    M = GroupComplex(whole_group(preset_group(*group)), p).matrix(degree)
    assert (M.nrows, M.ncols) == shape
    pivots = reducer_run(M, track=False)[0]
    assert pivot_columns(M) == pivots
    assert rank(M) == len(pivots)


@pytest.mark.parametrize("group", [
    ("symmetric", 3), ("dihedral", 4), ("quaternion8", 0), ("cyclic", 6), ("cyclic", 2),
], ids=["S3", "D8", "Q8", "C6", "C2"])
@pytest.mark.parametrize("p", [2, 3])
def test_face_built_row_feed_matches_lowest_row_by_rows(group, p):
    """The boundaries out of degrees -2..-5 of DComplex and of the
    GroupComplex of the whole group and of a proper subgroup (where G has
    one) stream their rows in the reversed layout; pivot_columns and rank
    through them equal the reference lowest-row search by rows on their
    dict columns (up to 5000 columns: all but the D-side degree -5
    matrices of the groups of order 8, to keep the test short).  For
    C2, q = 1 and the D-side matrices are square."""
    G = preset_group(*group)
    proper = [H for g in G.nontrivial if (H := generated_subgroup(G, [g])).order < G.order][:1]
    complexes = [DComplex(G, p, (-6, 0)), *(GroupComplex(H, p) for H in (whole_group(G), *proper))]
    for C in complexes:
        for d in range(-2, -6, -1):
            M = C.matrix(d)
            assert M.rows is not None
            if M.ncols > 5000:
                continue
            pivots = lowest_row_by_rows(M)
            assert pivot_columns(M) == pivots
            assert rank(M) == len(pivots)


def test_no_dict_elimination_at_p_2_and_3(monkeypatch, capsys):
    """tables at p = 3 and p = 2 run without a single ColumnReducer step:
    kernels, pivots and quotients all take the bitset core."""
    def refuse(*args, **kwargs):
        raise AssertionError("ColumnReducer used at p <= 3")
    for step in ("feed", "reduce", "push"):
        monkeypatch.setattr(ColumnReducer, step, refuse)
    for group, p, window in (("symmetric:3", "3", "-3..3"), ("dihedral:4", "2", "-2..2")):
        assert main(["tables", "--group", group, "--char", p, "--window", window, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["tables"]["cup"]


@pytest.mark.parametrize("group,p,window", [
    ("dihedral:4", "2", "-2..2"), ("quaternion8", "2", "-2..2"), ("symmetric:4", "2", "-2..2"),
    ("symmetric:3", "3", "-3..3"),
])
def test_dims_stays_on_engine_vectors(monkeypatch, capsys, group, p, window):
    """dims at p <= 3 never reads a bitset back as a dict: kernels and
    image vectors stay in the engine's format through every quotient.  The
    one exception is the representatives of the Sylow-side spaces (S4 at
    p = 2, S3 at p = 3), which res o cor reads as cochains."""
    inside = []
    representative = CohomologySpace.representative

    def sylow_representative(self, i):
        order = self.complex.subgroup.order
        assert math.gcd(order, int(p) ** order) == order, "a representative off the Sylow side"
        inside.append(i)
        try:
            return representative(self, i)
        finally:
            inside.pop()

    entries = linalg._Bitsets.entries
    read = []

    def refuse(self, *args, **kwargs):
        if not inside:
            raise AssertionError("bitset vector turned into a dict")
        read.append(1)
        return entries(self, *args, **kwargs)

    monkeypatch.setattr(CohomologySpace, "representative", sylow_representative)
    monkeypatch.setattr(linalg._Bitsets, "entries", refuse)
    assert main(["dims", "--group", group, "--char", p, "--window", window, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"]["total"]
    assert bool(read) == group.startswith("symmetric")


def test_gf3_engine_on_s3_complex():
    """The p = 3 bit-sliced engine on whole-group S3 differentials, with
    hundreds of rows and entries of both signs: the 625x125 kernel of
    degree 3 (entries and their order) and the 125x625 pivots of degree -5
    equal the ColumnReducer's."""
    C = GroupComplex(whole_group(preset_group("symmetric", 3)), 3)
    M = C.matrix(3)
    assert (M.nrows, M.ncols) == (625, 125)
    assert {v for col in M.columns for v in col.values()} == {1, 2}
    pivots, kern = reducer_run(M)
    out = kernel_basis(M)
    assert out == kern
    assert [list(v) for v in out] == [[max(c)] + sorted(c)[:-1] for c in kern]
    assert any(2 in c.values() for c in kern)
    assert pivot_columns(M) == pivots
    M = C.matrix(-5)
    assert (M.nrows, M.ncols) == (125, 625)
    assert pivot_columns(M) == reducer_run(M)[0]


def test_gf3_push_refuses_unnormalized_pivot():
    """A p = 3 pivot holding 2 at its lowest row would make ``reduce`` loop
    forever on any vector set there; ``push`` refuses it instead."""
    eng = linalg._GF3()
    v = eng.split({1: 2, 4: 1})
    with pytest.raises(AssertionError, match="not normalized"):
        eng.push(v, None)
    assert eng.mask == 0
    eng.push(*eng.normalize(v, None))
    assert eng.mask == 1 << 1
    assert eng.reduce(eng.split({1: 1, 3: 2}), None) == (eng.split({3: 2, 4: 1}), None)


def reference_quotient(p, kernel, image):
    """The full-space quotient on ColumnReducer: raises ValueError if an
    image vector is outside the kernel span, else returns the pivots of
    feeding the image vectors, then the kernel vectors, as (row, vector,
    tag) with tag None for image directions and k for representative k."""
    span = ColumnReducer(p)
    lowest_row_feed(span, kernel, False)
    red = ColumnReducer(p)
    tags = []
    for v in image:
        if lowest_row_feed(span, [v], False)[0]:
            raise ValueError("image vector outside kernel span")
        tags += [None] * len(lowest_row_feed(red, [v], False)[0])
    for v in kernel:
        if lowest_row_feed(red, [v], False)[0]:
            tags.append(sum(t is not None for t in tags))
    return [(row, col, tag) for (row, col, _), tag in zip(red.pivots, tags)]


def reference_project(p, pivots, v):
    w = dict(v)
    coords = [0] * sum(t is not None for _, _, t in pivots)
    for row, col, tag in pivots:
        c = w.get(row)
        if c:
            add_scaled_inplace(w, col, -c, p)
            if tag is not None:
                coords[tag] = c
    return None if w else coords


def quotient_pivots(q):
    """q's full-space pivots as (row, entries, tag) like reference_quotient's,
    read from its echelon (bitsets at p <= 3): the image directions first,
    then representative k's pivot."""
    E, vectors = q._echelon
    images = len(vectors) - q.dim
    out = []
    for i, v in enumerate(vectors):
        entries = E.entries(v)
        out.append((min(entries), entries, None if i < images else i - images))
    return out


def combination(draw, p, vectors):
    out = {}
    for v in vectors:
        add_scaled_inplace(out, v, draw(st.integers(0, p - 1)), p)
    return out


@settings(max_examples=200, deadline=None)
@given(rank_deficient_matrices(), st.data())
def test_quotient_matches_full_space_reference(A, data):
    """QuotientSpace(A, B), with B's columns drawn combinations of
    kernel_basis(A) (so d^2 = 0), gives the full-space reference's dim,
    representatives, pivots and project coordinates; one drawn image
    column outside the kernel must raise."""
    p = A.p
    kern = kernel_basis(A)
    image = [combination(data.draw, p, kern) for _ in range(data.draw(st.integers(0, len(kern) + 1)))]
    q = QuotientSpace(A, from_columns(A.ncols, p, image))
    pivots = reference_quotient(p, kern, image)
    assert q.dim == sum(t is not None for _, _, t in pivots)
    assert quotient_pivots(q) == pivots
    assert q.representatives == [c for _, c, t in pivots if t is not None]
    for _ in range(3):
        v = combination(data.draw, p, kern + image)
        assert q.project(v) == reference_project(p, pivots, v)
        assert q.project(q.lift(q.project(v))) == q.project(v)
    outside = pivot_columns(A)
    if outside:
        bad = combination(data.draw, p, kern)
        add_scaled_inplace(bad, {data.draw(st.sampled_from(outside)): 1}, 1, p)
        assert reference_project(p, pivots, bad) is None
        with pytest.raises(ValueError, match="not in the kernel span"):
            q.project(bad)
        image.insert(data.draw(st.integers(0, len(image))), bad)
        with pytest.raises(ValueError, match="outside kernel span"):
            reference_quotient(p, kern, image)
        with pytest.raises(ValueError, match="outside kernel span"):
            QuotientSpace(A, from_columns(A.ncols, p, image))
