import collections
import copy
import hashlib
import itertools
import json
import math
import random
import sys

import pytest

from tatebv import bv, harness, linalg
from tatebv.bv import bv_operator, class_of
from tatebv.cli import main
from tatebv.complexes import DComplex, GroupComplex, _BaseComplex, class_of_index
from tatebv.decomposition import ClassDecomposition
from tatebv.groups import CosetSystem, conjugacy_classes, preset_group, sylow_subgroup, whole_group
from tatebv.harness import (CostCapError, DecClass, DecOps, JobConfig, TableOps,
                            VerificationError, check_decomposition_cost, cmd_dims, cmd_tables,
                            direct_dims, direct_fits, make_group)
from tatebv.transfer import TransferContext
from tatebv.verify import S3Verifier

from conftest import MutatedDComplex, MutatedGroupComplex, ranked_dims


@pytest.fixture(scope="module")
def s3_ops(shared_ops):
    ops = copy.copy(shared_ops("symmetric:3", 3))  # the same spaces and lifts, another window
    ops.window = (-4, 4)
    return ops


def _gen(ops, n):
    sp = ops.space(0, n)
    return ops.from_class(0, class_of(sp, sp.representative(0)))


def _refuse_whole_group_products(monkeypatch, ops):
    """Make group_cup_rep refuse factors over the whole group (the class-0
    centralizer) whose degree sum lies outside ops' coordinate window."""
    cup_rep = TransferContext.group_cup_rep

    def guarded(self, a, b, out):
        if a.subgroup.order == ops.group.order and not ops.in_range(a.degree + b.degree):
            raise AssertionError(f"degree {a.degree + b.degree} product built over the whole group")
        return cup_rep(self, a, b, out)
    monkeypatch.setattr(TransferContext, "group_cup_rep", guarded)


def test_is_zero_rejects_nonzero_out_of_range_classes(monkeypatch, s3_ops):
    ops = s3_ops
    _refuse_whole_group_products(monkeypatch, ops)
    x, z, zi = _gen(ops, 3), _gen(ops, 4), _gen(ops, -4)
    assert not ops.is_zero(ops.cup(x, z))                 # degree 7
    assert not ops.is_zero(ops.cup(z, z))                 # degree 8
    assert not ops.is_zero(ops.cup(zi, zi))               # degree -8
    assert not ops.is_zero(ops.cup(ops.cup(x, z), z))     # degree 11
    assert not ops.is_zero(ops.cup(ops.cup(zi, zi), x))   # degree -5
    xz = ops.cup(x, z)
    assert ops.is_zero(ops.sub(xz, xz))
    assert ops.eq(xz, xz)


def test_decclass_arithmetic(s3_ops):
    ops = s3_ops
    x = _gen(ops, 3)
    two_x = ops.add(x, x)
    assert ops.eq(two_x, ops.scale(x, 2))
    assert ops.is_zero(ops.add(two_x, x))  # 3x = 0 over F3


DECIDER_CASES = [("symmetric:3", 3, 3), ("symmetric:3", 2, 3), ("symmetric:4", 2, 2),
                 ("dihedral:5", 5, 2), ("perms:(0 1 2),(0 1)(2 3)", 3, 3), ("cyclic:6", 3, 3),
                 ("dihedral:6", 2, 2)]


@pytest.mark.parametrize("group,p,m", DECIDER_CASES,
                         ids=[f"{'A4' if g.startswith('perms') else g}-p{p}"
                              for g, p, _ in DECIDER_CASES])
def test_is_zero_on_sylow_matches_projection(shared_ops, group, p, m):
    """With window (0, 0), each entry in a nonzero degree is a representative.
    For v = lift(coords) + d(random element), deciding v on a Sylow
    subgroup of the centralizer (P < C, P = C and P = 1 all occur) says
    zero exactly when coords are all zero."""
    ops = copy.copy(shared_ops(group, p))  # the same spaces and lifts, another window
    ops.window = (0, 0)
    rng = random.Random(16)
    for cls, C in enumerate(ops.cd.centralizers):
        cplx = ops.ctx.complex_for(C)
        for d in range(-m, m + 1):
            if d == 0:
                continue
            dim, below = ops.cls_dim(cls, d), cplx.basis(d - 1)
            for coords in [[0] * dim] + [[rng.randrange(p) for _ in range(dim)] for _ in range(3)]:
                noise = cplx.element(d - 1, {T: rng.randrange(p)
                                             for T in rng.sample(below, min(4, len(below)))})
                v = ops.space(cls, d).lift(coords).add(cplx.differential(noise))
                A = DecClass(d, {cls: ("r", v)})
                assert ops.is_zero(A) == (not any(coords)), (cls, d, coords)


def test_is_zero_refuses_a_non_cocycle_on_the_sylow_subgroup(s3_plain_ops):
    ops = s3_plain_ops
    # P = C3 inside C = S3, an entry already on that P, and P = C = C3
    for cls, H in ((0, ops.cd.centralizers[0]), (0, ops.sylow(0)), (1, ops.cd.centralizers[1])):
        v = ops.ctx.complex_for(H).element(5, {(1,) * 5: 1})
        with pytest.raises(ValueError):
            ops.is_zero(DecClass(5, {cls: ("r", v)}))


def test_cost_caps():
    G = preset_group("cyclic", 5)
    assert not direct_fits(G, -201, 201)
    with pytest.raises(CostCapError):
        check_decomposition_cost(conjugacy_classes(G), (-200, 200))
    assert direct_fits(G, -4, 4)
    # 5 * 4^s columns in degrees s and -s-1: 327,680 > 200,000 from s = 8
    assert direct_fits(G, -8, 7) and not direct_fits(G, -8, 8) and not direct_fits(G, -9, 7)


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


# SHA-256 of the CLI JSON of dims without provenance, as QuotientSpace dimensions
# gave it; the D8, Q8 and S3 p = 5 digests are those of tests/test_golden.py
RANK_ONLY_DIMS = [
    ("dihedral:4", 2, (-2, 2), "92929537dde276d1188cacecc96a9e881043015205218a338027eb4e738a7954"),
    ("quaternion8", 2, (-3, 3), "930e2b7165d552e2722ff45fea97d7225c0d15746dddfafa6957f328c88ed70a"),
    ("symmetric:4", 2, (-2, 2), "5c4cd9f59e9ec981b7637d43d6a5fba5ea47dc552b477ac178984473fa73e3e1"),
    ("symmetric:3", 3, (-4, 4), "ca218ba1b76df0d0be66687418a440e931e786643fdd8060982b2682b1c7ebf3"),
    ("symmetric:3", 5, (-3, 3), "7b47285c6feff3dc4424312c0fb574775e283897c33988b9f0bb0720201fdd67"),
]


def _is_p_group(order, p):
    return math.gcd(order, p ** order) == order


@pytest.mark.parametrize("group,p,window,digest", RANK_ONLY_DIMS,
                         ids=[f"{g}-p{p}" for g, p, _, _ in RANK_ONLY_DIMS])
def test_dims_reads_ranks_and_builds_no_quotient(monkeypatch, group, p, window, digest):
    """dims ranks no complex at all: a centralizer that is a p-group is read
    off a minimal resolution, the direct path off a resolution of G, and no
    D-complex is built.  The only complex matrices it builds are those of
    the cohomology spaces it opens, on the Sylow side: with no centralizer C
    whose Sylow P has 1 < P < C (D8, Q8, S3 at p = 5) it builds no
    QuotientSpace at all; otherwise (S4 at p = 2, S3 at p = 3) every space
    it opens is on a p-group complex."""
    G = make_group(group)
    sylow_side = {C.members for C in conjugacy_classes(G).centralizers
                  if 1 < sylow_subgroup(C, p).order < C.order}
    assert bool(sylow_side) == (group in ("symmetric:4", "symmetric:3") and p < 5)
    opened, quotient = [], []
    cohomology, matrix = _BaseComplex.cohomology, _BaseComplex.matrix

    def opening(self, n):
        opened.append(self.subgroup)
        quotient.append(n)
        try:
            return cohomology(self, n)
        finally:
            quotient.pop()

    def quotient_matrix(self, d):
        assert quotient, "dims built a complex matrix outside a cohomology space"
        return matrix(self, d)

    def no_d_complex(*args):
        raise AssertionError("dims built a D-complex")
    monkeypatch.setattr(_BaseComplex, "cohomology", opening)
    monkeypatch.setattr(_BaseComplex, "matrix", quotient_matrix)
    monkeypatch.setattr(DComplex, "__init__", no_d_complex)
    if not sylow_side:
        def no_quotient(*args):
            raise AssertionError("dims built a QuotientSpace")
        monkeypatch.setattr(linalg.QuotientSpace, "__init__", no_quotient)
    data = cmd_dims(JobConfig(group=group, p=p, window=window, fmt="json"))
    data.pop("provenance")
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == digest
    assert data["dims"]["direct"] is not None
    assert bool(opened) == bool(sylow_side)
    assert all(_is_p_group(H.order, p) for H in opened)


# (group, p, window) where the rank route on each centralizer is cheap
SYLOW_PAIRS = [
    ("symmetric:4", 2, (-2, 2)), ("symmetric:4", 3, (-2, 2)),
    ("symmetric:3", 2, (-4, 4)), ("symmetric:3", 3, (-4, 4)), ("symmetric:3", 5, (-3, 3)),
    ("dihedral:6", 2, (-3, 3)), ("dihedral:6", 3, (-3, 3)), ("dihedral:5", 5, (-3, 3)),
    ("dihedral:7", 7, (-2, 2)),
    ("perms:(0 1 2),(0 1)(2 3)", 2, (-3, 3)), ("perms:(0 1 2),(0 1)(2 3)", 3, (-3, 3)),
]


# (group, p): p-groups whose bar complex is cheap to rank on -4..4
RESOLUTION_GROUPS = [
    ("cyclic:2", 2), ("cyclic:4", 2), ("klein_four", 2), ("dihedral:4", 2), ("quaternion8", 2),
    ("cyclic:3", 3), ("cyclic:9", 3), ("perms:(0 1 2),(3 4 5)", 3), ("cyclic:5", 5), ("cyclic:7", 7),
]


@pytest.mark.parametrize("group,p", RESOLUTION_GROUPS, ids=[f"{g}-p{p}" for g, p in RESOLUTION_GROUPS])
def test_resolution_dims_equal_the_rank_route(group, p):
    """The minimal resolution gives the guarded ranks of the group's own
    Tate complex in every degree of -4..4."""
    C = whole_group(make_group(group))
    degrees = range(-4, 5)
    gens = harness._resolution(C, p, 4)[1]
    assert harness.resolution_dims(gens, degrees) == ranked_dims(GroupComplex(C, p), degrees)


def test_resolution_dims_closed_forms():
    """dim Ĥ^n is n + 1 for D8 and V4 (n >= 0), has period 4 for Q8 and is 1
    for cyclic p-groups, and Tate duality gives dim Ĥ^(-n-1) = dim Ĥ^n."""
    def dims(group, p):
        gens = harness._resolution(whole_group(make_group(group)), p, 7)[1]
        return dict(zip(range(-8, 8), harness.resolution_dims(gens, range(-8, 8))))
    for group, p, want in [("dihedral:4", 2, lambda n: n + 1), ("klein_four", 2, lambda n: n + 1),
                           ("quaternion8", 2, lambda n: (1, 2, 2, 1)[n % 4]),
                           ("cyclic:4", 2, lambda n: 1), ("cyclic:9", 3, lambda n: 1),
                           ("cyclic:5", 5, lambda n: 1)]:
        d = dims(group, p)
        assert [d[n] for n in range(8)] == [want(n) for n in range(8)], group
        assert all(d[-n - 1] == d[n] for n in range(8)), group


@pytest.mark.parametrize("mutate,match", [
    (lambda gens, KI: gens[:-1], r"^resolution at degree 2: d_2 has rank"),
    (lambda gens, KI: gens + [next(v for v in KI if v)], r"^resolution at degree 2: .*not minimal"),
], ids=["drop-last-generator", "add-generator-from-KI"])
def test_resolution_guards_refuse_wrong_generators(monkeypatch, mutate, match):
    """Generators of K_1 that miss one (the resolution is not exact at
    degree 2) or add one from K_1·I (it is not minimal) fail the dims job."""
    generators = harness._minimal_generators

    def mutated(p, K, KI, n):
        gens = generators(p, K, KI, n)
        return mutate(gens, KI) if n == 2 else gens
    monkeypatch.setattr(harness, "_minimal_generators", mutated)
    with pytest.raises(VerificationError, match=match):
        cmd_dims(JobConfig(group="dihedral:4", p=2, window=(-2, 2)))


def test_minimal_generators_refuse_a_basis_of_no_submodule():
    """In F_2[C2], with index 1 for the generator s, K = span{1} is no
    submodule: 1·(s - 1) = 1 + s lies outside it, and the feed of K·I then
    K finds two pivots in a space of dimension one."""
    with pytest.raises(VerificationError, match="the feed finds 2 pivots in a submodule of dimension 1"):
        harness._minimal_generators(2, [0b01], [0b11], 1)


@pytest.mark.parametrize("loaded", [True, False], ids=["hashlib-loaded", "builtin"])
def test_config_hash_is_hashlib_sha256(monkeypatch, loaded):
    """config_hash is the first 16 hex digits of hashlib's SHA-256 of the
    config blob, whether hashlib computes it or, when no code has loaded
    hashlib, CPython's builtin sha256 module."""
    if not loaded:
        monkeypatch.delitem(sys.modules, "hashlib")
        assert harness._sha256() is not hashlib.sha256
    for cfg in (JobConfig(), JobConfig(group="dihedral:4", p=2, window=(-5, 5), seed=7),
                JobConfig(group="perms:(0 1 2),(3 4 5)", p=3, window=(-1, 1), seed=2**40)):
        blob = json.dumps([cfg.group, cfg.p, list(cfg.window), cfg.seed], sort_keys=True)
        assert cfg.hash() == hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("group,p,window", SYLOW_PAIRS,
                         ids=[f"{g}-p{p}" for g, p, _ in SYLOW_PAIRS])
def test_sylow_dims_equal_the_rank_route(group, p, window):
    """Class by class, res o cor on a Sylow P of each centralizer C with
    1 < P < C gives the guarded ranks of C's own complex, and a centralizer
    with P = 1 has zero Tate cohomology in every degree."""
    G = make_group(group)
    cd = conjugacy_classes(G)
    ctx = TransferContext(G, p, cd)
    degrees = range(window[0], window[1] + 1)
    sylow_side = 0
    for C in {C.members: C for C in cd.centralizers}.values():
        P = sylow_subgroup(C, p)
        want = ranked_dims(ctx.complex_for(C), degrees)
        if P.order == 1:
            assert want == [0] * len(degrees)
        elif P.order < C.order:
            assert harness.sylow_dims(ctx, C, P, degrees, random.Random(0)) == want
            sylow_side += 1
    assert sylow_side > 0 or p == 5


def test_sylow_dims_guard_catches_a_broken_p_complex(monkeypatch):
    """A Sylow complex whose differential breaks d^2 = 0 trips the seeded
    d(d(e)) guard; with that guard off, the quotient's refusal is still a
    VerificationError, never a bare ValueError."""
    G = make_group("symmetric:3")
    cd = conjugacy_classes(G)
    C = cd.centralizers[0]
    P = sylow_subgroup(C, 3)
    assert 1 < P.order < C.order

    def broken_ctx():
        ctx = TransferContext(G, 3, cd)
        ctx._complexes[P.members] = MutatedGroupComplex(P, 3)
        return ctx

    with pytest.raises(VerificationError, match=r"^d\^2 != 0 out of degree 0$"):
        harness.sylow_dims(broken_ctx(), C, P, range(-2, 3), random.Random(0))
    monkeypatch.setattr(harness, "check_square", lambda cplx, n, rng: None)
    with pytest.raises(VerificationError, match="res o cor on the Sylow subgroup"):
        harness.sylow_dims(broken_ctx(), C, P, range(-2, 3), random.Random(0))


@pytest.mark.parametrize("group,p,window,match", [
    ("symmetric:3", 3, (-4, 4), r"fails M\^2 = \[C:P\] M"),
    ("symmetric:4", 2, (-2, 2), "res o cor on the Sylow subgroup at degree 1: .*not a cocycle"),
])
def test_dims_refuses_a_thread_sum_that_drops_a_coset(monkeypatch, group, p, window, match):
    """With the last coset dropped from every thread sum, res o cor is no
    longer [C:P] times a projection: at p = 3 the matrix M fails
    M^2 = [C:P] M, and on S4 at p = 2 an image is no cocycle; either way
    dims raises VerificationError before its direct-path cross-check."""
    monkeypatch.setattr(CosetSystem, "count", property(lambda self: len(self.gamma) - 1))
    with pytest.raises(VerificationError, match=match):
        cmd_dims(JobConfig(group=group, p=p, window=window))


@pytest.mark.parametrize("p", [2, 3])
def test_dims_guard_catches_broken_differential(s3, p):
    """The rank formula silently gives wrong, non-negative dimensions on a
    complex whose differential breaks d^2 = 0 (the selftest's mutated
    complex); the seeded d(d(e)) check of ``check_square``, which guards the
    complexes that ``sylow_dims`` eliminates, refuses it."""
    window = (-4, 3)
    degrees = range(-3, 3)
    wrong = ranked_dims(MutatedDComplex(s3, p, window), degrees)
    assert min(wrong) >= 0
    assert wrong != ranked_dims(harness.DComplex(s3, p, window), degrees)
    rng = random.Random(0)
    with pytest.raises(VerificationError, match=r"d\^2 != 0"):
        for n in degrees:
            harness.check_square(MutatedDComplex(s3, p, window), n, rng)
    for n in degrees:
        harness.check_square(harness.DComplex(s3, p, window), n, rng)
    assert ranked_dims(harness.DComplex(s3, p, window), degrees) == [
        harness.DComplex(s3, p, window).cohomology(n).dim for n in degrees]


# (group, p, window) of the direct route against the D-complex: p | |G| at p = 2, 3, 5
# and 7, with classes of 1 to 5 members and groups that are no p-group at p = 2, 3 and
# 5, and S3 at p = 5, where p does not divide |G| and every value is 0
DIRECT_CASES = [
    ("symmetric:3", 2, (-4, 3)), ("symmetric:3", 3, (-4, 3)), ("dihedral:4", 2, (-3, 2)),
    ("quaternion8", 2, (-3, 2)), ("cyclic:6", 3, (-3, 3)), ("dihedral:5", 5, (-3, 2)),
    ("cyclic:7", 7, (-3, 2)), ("symmetric:3", 5, (-3, 3)),
]


def _class_block_rank(C, cd, d, k):
    """The rank of the block of class k of the D-complex's matrix(d): its
    columns, as the dict template builds them, restricted to the keys of
    class k (``class_of_index``), a set that the differential keeps."""
    keys = C.basis(d)
    cols = [col for key, col in zip(keys, C.matrix(d).columns) if class_of_index(cd, d, key) == k]
    return linalg.rank(linalg.SparseMatrix(C.dim(d + 1), len(cols), C.p, build=lambda: cols))


@pytest.mark.parametrize("group,p,window", DIRECT_CASES, ids=[f"{g}-p{p}" for g, p, _ in DIRECT_CASES])
def test_direct_dims_match_d_complex_ranks(group, p, window):
    """The anchor of the dims check: class by class, ``direct_dims`` (a free
    resolution of G with coefficients k[K]) equals dim - rank(matrix(n)) -
    rank(matrix(n-1)) on the class blocks of the bar-type D-complex, and
    its totals equal those of the whole D-complex, on the inner degrees of
    the window."""
    G = make_group(group)
    cd = conjugacy_classes(G)
    C = DComplex(G, p, window)
    inner = range(window[0] + 1, window[1])
    got = direct_dims(G, p, cd, inner)
    for k in range(cd.num_classes):
        want = [sum(class_of_index(cd, n, key) == k for key in C.basis(n))
                - _class_block_rank(C, cd, n, k) - _class_block_rank(C, cd, n - 1, k) for n in inner]
        assert got[k] == want, (k, got[k], want)
    assert [sum(col) for col in zip(*got)] == ranked_dims(C, inner)
    if p == 5 and group == "symmetric:3":
        assert not any(map(any, got))


def test_dims_refuses_a_resolution_of_g_that_drops_a_generator(monkeypatch, capsys):
    """With the last generator that ``_orbit_generators`` picks for F_2 of
    G = S3 dropped, d_2 of the G-resolution misses K_1: the exactness guard
    fails the job, exit 1, before any comparison.  Only the resolution of G
    is a non-p-group's, so the decomposition side is untouched."""
    pick = harness._orbit_generators
    calls = []

    def dropped(p, K, orbit):
        gens = pick(p, K, orbit)
        calls.append(len(gens))
        return gens[:-1] if len(calls) == 2 else gens
    monkeypatch.setattr(harness, "_orbit_generators", dropped)
    assert main(["dims", "--group", "symmetric:3", "--char", "3", "--window", "-3..3"]) == 1
    err = capsys.readouterr().err
    assert "resolution at degree 2: d_2 has rank" in err and err.count("\n") == 1


@pytest.mark.parametrize("shifts", [{3: 1}, {3: 1, 2: -1}], ids=["one-class", "totals-kept"])
def test_dims_compares_the_direct_path_class_by_class(monkeypatch, shifts):
    """An Ĥ^0 off by one on the class of size 3 of S3 fails the dims check,
    even when the class of size 2 is off by minus one, so that every total
    still agrees: the comparison is class by class."""
    ends = harness._tate_ends

    def shifted(p, act, S):
        h0, h1 = ends(p, act, S)
        return h0 + shifts.get(len(act[0]), 0), h1
    monkeypatch.setattr(harness, "_tate_ends", shifted)
    with pytest.raises(VerificationError, match=r"^direct and decomposition dims disagree at "
                                                 r"degree 0 on class "):
        cmd_dims(JobConfig(group="symmetric:3", p=3, window=(-2, 2)))


# ---------------------------------------------------------------------------
# the BV operator on the centralizer complexes against the retract path

def _retract_delta(ops, dec, A):
    """Class coordinates of the BV operator of A taken through dec's
    D-complex: each component is lifted afresh, embedded by retract_up,
    sent through the D-side bv_operator and split back by retract_down."""
    d = A.degree
    out = {}
    for cls, (tag, val) in A.parts.items():
        rep = ops.space(cls, d).lift(list(val)) if tag == "c" else val
        down = dec.retract_down(bv_operator(dec.retract_up(cls, rep)))
        for k, g in down.items():
            assert k == cls or g.is_zero(), "BV operator left its class component"
        if cls in down:
            coords = ops.space(cls, d - 1).project(down[cls])
            acc = out.get(cls, [0] * len(coords))
            out[cls] = [(a + b) % ops.p for a, b in zip(acc, coords)]
    return {k: tuple(v) for k, v in out.items() if any(v)}


def _class_coords(ops, A):
    """Nonzero class coordinates of each part; representative entries are
    lifted to their centralizer and projected in their space."""
    out = {}
    for cls, (tag, val) in A.parts.items():
        coords = tuple(val) if tag == "c" else tuple(
            ops.space(cls, A.degree).project(ops.lift_entry(cls, A.degree, (tag, val))))
        if any(coords):
            out[cls] = coords
    return out


def _delta_inputs(ops, d, rng):
    """Every basis class of degree d, then 5 random combinations over all
    classes; a class out of coordinate range becomes a representative."""
    def entry(cls, coords):
        if ops.in_range(d):
            return ("c", tuple(coords))
        return ("r", ops.space(cls, d).lift(list(coords)))

    dims = [ops.cls_dim(cls, d) for cls in range(ops.cd.num_classes)]
    for cls, dim in enumerate(dims):
        for i in range(dim):
            yield DecClass(d, {cls: entry(cls, [int(j == i) for j in range(dim)])})
    for _ in range(5):
        parts = {}
        for cls, dim in enumerate(dims):
            coords = [rng.randrange(ops.p) for _ in range(dim)]
            if any(coords):
                parts[cls] = entry(cls, coords)
        yield DecClass(d, parts)


@pytest.fixture(scope="module")
def shared_ops():
    """One DecOps per (group, p) for this module, so that its cohomology
    spaces are built once."""
    cache = {}

    def get(group, p):
        if (group, p) not in cache:
            cache[group, p] = DecOps(make_group(group), p)
        return cache[group, p]
    return get


@pytest.mark.parametrize("group,p,lo,hi,window", [
    ("symmetric:3", 3, -5, 5, None), ("dihedral:4", 2, -4, 4, None),
    ("quaternion8", 2, -3, 3, None), ("cyclic:6", 3, -4, 4, None),
    ("dihedral:5", 5, -3, 3, None), ("symmetric:4", 2, -2, 2, None),
    pytest.param("symmetric:3", 3, -5, 5, (-2, 2), id="symmetric:3-3--5-5-cap0=2"),
])
def test_delta_matches_retract_path(shared_ops, group, p, lo, hi, window):
    """DecOps.delta on the centralizer complexes gives the classes of the
    D-side BV operator taken through the deformation retract, on every
    basis class and on random combinations, coordinate and representative
    entries alike (parts outside the window are representatives)."""
    ops = shared_ops(group, p)
    if window:
        ops = copy.copy(ops)  # the same spaces and lifts, another window
        ops.window = window
    dec = ClassDecomposition(DComplex(ops.group, p, (lo - 1, hi)), ops.cd)
    rng = random.Random(14)
    tags = set()
    for d in range(lo, hi + 1):
        if d == 0:
            continue
        for A in _delta_inputs(ops, d, rng):
            got = ops.delta(A)
            assert got.degree == d - 1
            tags.update(tag for tag, _ in got.parts.values())
            assert _class_coords(ops, got) == _retract_delta(ops, dec, A), (d, A.parts)
    assert tags == ({"c", "r"} if window else {"c"})


@pytest.fixture(scope="module")
def s3_plain_ops(shared_ops):
    return shared_ops("symmetric:3", 3)


def _s3_basis(ops, lo=-4, hi=4):
    return [harness._dec_basis_class(ops, lab)
            for lab in harness._basis_labels(ops, range(lo, hi + 1))]


def test_delta_stays_on_centralizer_complexes(monkeypatch, s3_plain_ops):
    """After a warm pass, DecOps.delta reaches neither the D-side BV
    operator nor the retract maps."""
    ops = s3_plain_ops
    basis = _s3_basis(ops)
    warm = [_class_coords(ops, ops.delta(A)) for A in basis]

    def refuse(*args, **kwargs):
        raise AssertionError("DecOps.delta went through the D-complex")
    monkeypatch.setattr(bv, "bv_operator", refuse)
    monkeypatch.setattr(harness, "bv_operator", refuse, raising=False)
    monkeypatch.setattr(ClassDecomposition, "retract_up", refuse)
    monkeypatch.setattr(ClassDecomposition, "retract_down", refuse)
    assert [_class_coords(ops, ops.delta(A)) for A in basis] == warm
    assert any(warm)


@pytest.mark.parametrize("group,p", [("symmetric:3", 3), ("dihedral:4", 2)])
def test_class_arithmetic_builds_no_d_complex(monkeypatch, group, p):
    """DecOps set-up, cup, delta in both degree signs, bracket and is_zero
    on a representative entry run on the centralizer complexes alone:
    neither a D-complex nor a ClassDecomposition is ever built.  With
    window (0, 0) every class's parts in a nonzero degree are kept as
    representatives, and those in degree 0 as coordinates."""
    def refuse(*args, **kwargs):
        raise AssertionError("class arithmetic built a D-complex")
    monkeypatch.setattr(DComplex, "__init__", refuse)
    monkeypatch.setattr(ClassDecomposition, "__init__", refuse)
    ops = DecOps(make_group(group), p, window=(0, 0))
    basis = [harness._dec_basis_class(ops, lab)
             for lab in harness._basis_labels(ops, range(-1, 2))]
    assert {A.degree for A in basis} == {-1, 0, 1}
    parts = set()  # (nonzero degree, class, tag) of each part of each result
    for A in basis:
        results = [ops.delta(A)]
        for B in basis:
            results += [ops.cup(A, B), ops.bracket(A, B)]
        for X in results:
            parts.update((X.degree != 0, cls, tag) for cls, (tag, _) in X.parts.items())
    assert {(nonzero, tag) for nonzero, _, tag in parts} == {(True, "r"), (False, "c")}
    assert len({cls for nonzero, cls, _ in parts if nonzero}) > 1
    # class 0 outside degree 0 is kept as a representative entry: a
    # representative cocycle is nonzero, a coboundary is zero
    cplx = ops.ctx.complex_for(ops.cd.centralizers[0])
    d = next(d for d in (-1, 1, -2, 2) if ops.cls_dim(0, d))
    assert not ops.is_zero(DecClass(d, {0: ("r", ops.space(0, d).representative(0))}))
    bd = next(b for key in cplx.basis(1)
              if not (b := cplx.differential(cplx.element(1, {key: 1}))).is_zero())
    assert ops.is_zero(DecClass(2, {0: ("r", bd)}))


def test_memoized_lifts_survive_class_ops(s3_plain_ops):
    """A cup, delta and bracket pass over every S3/F3 basis pair leaves each
    shared lifted representative equal to a fresh lift."""
    ops = s3_plain_ops
    basis = _s3_basis(ops)
    for A in basis:
        ops.delta(A)
        for B in basis:
            if -4 <= A.degree + B.degree <= 4:
                ops.cup(A, B)
                if A.degree + B.degree - 1 >= -4:
                    ops.bracket(A, B)
    assert len(ops._lifts) >= len(basis)
    for (cls, d, coords), elem in ops._lifts.items():
        assert elem == ops.space(cls, d).lift(list(coords))


@pytest.mark.parametrize("group,p,lo,hi", [("symmetric:3", 3, -4, 4), ("dihedral:4", 2, -2, 2)])
def test_shared_cup_factors_do_not_depend_on_order(monkeypatch, group, p, lo, hi):
    """Two fresh DecOps, one warmed over every basis pair whose cup and
    bracket land in lo..hi in a seeded shuffled order and one in the reverse
    order, give the same cup and bracket parts.  Every shared factor then
    equals a fresh res_W conj_y of a fresh lift, so no consumer mutated one,
    and a second pass conjugates and restricts nothing."""
    G = make_group(group)
    first, second = DecOps(G, p), DecOps(G, p)
    labels = harness._basis_labels(first, range(lo, hi + 1))
    pairs = [(a, b) for a in labels for b in labels if lo <= a[0] + b[0] - 1 and a[0] + b[0] <= hi]
    random.Random(17).shuffle(pairs)

    def warm(ops, order):
        out = {}
        for a, b in order:
            A, B = (harness._dec_basis_class(ops, lab) for lab in (a, b))
            out[a, b] = (ops.cup(A, B).parts, ops.bracket(A, B).parts)
        return out
    results = warm(first, pairs)
    assert warm(second, pairs[::-1]) == results
    assert any(cup for cup, _ in results.values())

    for ops in (first, second):
        ctx = ops.ctx
        assert ctx._factors
        for ((cls, d, coords), y, members), elem in ctx._factors.items():
            fresh = ops.space(cls, d).lift(list(coords))
            assert elem == ctx.restrict_element(ctx.subgroup(members), ctx.conjugate_element(y, fresh))

    def refuse(*args):
        raise AssertionError("a shared factor was conjugated or restricted again")
    monkeypatch.setattr(TransferContext, "conjugate_element", refuse)
    monkeypatch.setattr(TransferContext, "restrict_element", refuse)
    assert warm(first, pairs) == results


def test_representative_cup_factors_are_not_kept():
    """A cup of representative entries, from a windowed DecOps, keeps no
    factor, on the double-coset path and on the identity class alike; the
    same classes as coordinates give the same product and keep factors under
    their own labels only."""
    ops = DecOps(make_group("symmetric:3"), 3, window=(0, 0))
    rng = random.Random(8)
    entries = {}
    for cls, d in ((1, 2), (1, 1), (0, 3), (0, 4)):
        z = _noisy_cocycle(ops, cls, d, rng)
        entries[cls, d] = z, tuple(ops.space(cls, d).project(z))
    for (i, da), (j, db) in (((1, 2), (0, 3)), ((0, 4), (1, 1)), ((0, 3), (0, 4))):
        (za, ca), (zb, cb) = entries[i, da], entries[j, db]
        got = ops.cup(DecClass(da, {i: ("r", za)}), DecClass(db, {j: ("r", zb)}))
        assert ops.ctx._factors == {}
        want = ops.cup(DecClass(da, {i: ("c", ca)}), DecClass(db, {j: ("c", cb)}))
        assert ops.eq(got, want) and not ops.is_zero(want), ((i, da), (j, db))
        assert {key[0] for key in ops.ctx._factors} == {(i, da, ca), (j, db, cb)}
        ops.ctx._factors.clear()


# ---------------------------------------------------------------------------
# representative entries on the Sylow subgroup P_k of the centralizer C_k

def _nonzero_coords(ops, cls, d, rng):
    coords = [0]
    while not any(coords):
        coords = [rng.randrange(ops.p) for _ in range(ops.cls_dim(cls, d))]
    return coords


def _noisy_cocycle(ops, cls, d, rng):
    """A cocycle over C_k with random nonzero class coordinates, moved off the
    canonical lift by a random coboundary."""
    cplx = ops.ctx.complex_for(ops.cd.centralizers[cls])
    below = cplx.basis(d - 1)
    noise = cplx.element(d - 1, {T: rng.randrange(ops.p)
                                 for T in rng.sample(below, min(4, len(below)))})
    return ops.space(cls, d).lift(_nonzero_coords(ops, cls, d, rng)).add(
        cplx.differential(noise))


def _class_with(ops, rep_order, cent_order):
    """The first class whose representative has order rep_order and whose
    centralizer has order cent_order."""
    G = ops.group
    for cls, x in enumerate(ops.cd.reps):
        g, order = x, 1
        while g:
            g, order = G.mult[g][x], order + 1
        if (order, ops.cd.centralizers[cls].order) == (rep_order, cent_order):
            return cls
    raise LookupError((rep_order, cent_order))


def _sylow_ops(shared_ops, group, p, cls):
    ops = copy.copy(shared_ops(group, p))  # the same spaces and lifts, another window
    ops.window = (0, 0)
    P = ops.sylow(cls)
    assert 1 < P.order < ops.cd.centralizers[cls].order
    return ops, P, ops.ctx.complex_for(P)


SYLOW_PRODUCT_CASES = [("symmetric:3", 3, 4), ("symmetric:4", 2, 2),
                       ("perms:(0 1 2),(0 1)(2 3)", 2, 2), ("cyclic:6", 3, 3),
                       ("dihedral:6", 2, 2)]


@pytest.mark.parametrize("group,p,m", SYLOW_PRODUCT_CASES,
                         ids=[f"{'A4' if g.startswith('perms') else g}-p{p}"
                              for g, p, _ in SYLOW_PRODUCT_CASES])
def test_out_of_range_products_form_on_the_sylow_subgroup(shared_ops, group, p, m):
    """With window (0, 0), a product of two class-0 factors in a nonzero
    degree is formed on P_0 < C_0 = G from the restricted factors (one a
    noisy representative, one coordinates).  Its class on P_0 is res of the
    class of the product built over G, and its lift [G:P_0]^-1 cor has the
    built product's class on G."""
    ops, P, cP = _sylow_ops(shared_ops, group, p, 0)
    rng = random.Random(21)
    signs = set()
    for da in range(-m, m + 1):
        for db in range(-m, m + 1):
            deg = da + db
            if deg == 0 or abs(deg) > m or not (ops.cls_dim(0, da) and ops.cls_dim(0, db)):
                continue
            a = _noisy_cocycle(ops, 0, da, rng)
            B = DecClass(db, {0: ("c", tuple(_nonzero_coords(ops, 0, db, rng)))})
            b = ops.lift_entry(0, db, B.parts[0])
            built = a.complex.element(deg, ops.ctx.group_cup_rep(a, b, {}))
            want_p = cP.cohomology(deg).project(ops.ctx.restrict_element(P, built))
            want_c = ops.space(0, deg).project(built)
            got = ops.cup(DecClass(da, {0: ("r", a)}), B)
            if not got.parts:
                assert not any(want_p) and not any(want_c), (da, db)
                continue
            tag, w = got.parts[0]
            assert tag == "r" and w.complex is cP
            assert cP.cohomology(deg).project(w) == want_p, (da, db)
            assert ops.space(0, deg).project(ops.lift_entry(0, deg, ("r", w))) == want_c, (da, db)
            if any(want_c):
                signs.add(deg > 0)
    assert signs == {False, True}


# (group, p, order of x_k, |C_k|, degrees -m..m, x_k in P_k, delta nonzero on some class)
SYLOW_DELTA_CASES = [
    ("symmetric:3", 3, 1, 6, 4, True, False),   # the identity class
    ("dihedral:6", 2, 3, 6, 2, False, False),
    ("cyclic:6", 3, 2, 6, 3, False, False),
    ("cyclic:6", 3, 3, 6, 3, True, True),
    ("cyclic:6", 3, 6, 6, 3, False, True),
    ("dihedral:6", 2, 2, 12, 2, True, True),    # the central involution
    ("dihedral:6", 2, 6, 6, 2, False, True),
]


@pytest.mark.parametrize("group,p,order,cent,m,inside,nonzero", SYLOW_DELTA_CASES,
                         ids=[f"{g}-p{p}-x{o}-C{c}" for g, p, o, c, *_ in SYLOW_DELTA_CASES])
def test_delta_on_the_sylow_subgroup_is_res_of_delta(shared_ops, group, p, order, cent, m,
                                                     inside, nonzero):
    """delta of a representative entry w = res v on P_k has the class res of
    delta(v) on P_k, and its lift has the class of delta(v) on C_k: on P_k
    itself in degrees >= 1 when x_k is in P_k, through the lift otherwise
    (x_k outside P_k, or b_tilde in degrees <= -1)."""
    cls = _class_with(shared_ops(group, p), order, cent)
    ops, P, cP = _sylow_ops(shared_ops, group, p, cls)
    assert (ops.cd.reps[cls] in P.member_set) == inside
    rng = random.Random(22)
    seen = 0
    for d in range(-m, m + 1):
        if d == 0 or not ops.cls_dim(cls, d):
            continue
        v = _noisy_cocycle(ops, cls, d, rng)
        got = ops.delta(DecClass(d, {cls: ("r", ops.ctx.restrict_element(P, v))}))
        ref = ops.delta(DecClass(d, {cls: ("r", v)}))
        assert set(got.parts) <= {cls} and set(ref.parts) <= {cls}
        if got.parts and got.parts[cls][0] == "r":
            assert (got.parts[cls][1].complex is cP) == (inside and d >= 2)
        for space, to_space in ((cP.cohomology(d - 1), ops.restrict_entry),
                                (ops.space(cls, d - 1), ops.lift_entry)):
            g, r = ([0] * space.dim if cls not in A.parts
                    else space.project(to_space(cls, d - 1, A.parts[cls])) for A in (got, ref))
            assert g == r, d
            seen += any(r)
    assert bool(seen) == nonzero


def test_entries_on_the_sylow_subgroup_add(s3_plain_ops):
    """A representative on C_0 and one on P_0 of the same class add on P_0
    to zero, and is_zero decides an entry on P_0 by its own projection."""
    ops = copy.copy(s3_plain_ops)
    ops.window = (0, 0)
    P = ops.sylow(0)
    z = ops.space(0, 4).representative(0)
    on_c, on_p = DecClass(4, {0: ("r", z)}), DecClass(4, {0: ("r", ops.ctx.restrict_element(P, z))})
    assert not ops.is_zero(on_p)
    diff = ops.sub(on_c, on_p)
    assert not diff.parts or diff.parts[0][1].complex is ops.ctx.complex_for(P)
    assert ops.is_zero(diff)


def test_verify_s3_builds_no_out_of_range_product_on_the_whole_group(monkeypatch):
    """verify-s3 forms every identity-class product outside its coordinate
    window (-4..4) on the Sylow C3 and still passes every check."""
    verifier = S3Verifier()
    _refuse_whole_group_products(monkeypatch, verifier.ops)
    assert verifier.run()["passed"]


# ---------------------------------------------------------------------------
# tables coordinatizes only the degrees it prints

def _tables_json(group, p, window):
    data = cmd_tables(JobConfig(group=group, p=p, window=window, fmt="json"))
    data.pop("provenance")
    return json.dumps(data, sort_keys=True)


# SHA-256 of the CLI JSON of tables without provenance: the digests of
# tests/test_golden.py, computed before tables stopped building degree lo-1
TABLES_IN_WINDOW = [
    ("symmetric:3", 3, (-4, 4), "78694b0951c4503a39d43983939e022f54e56777680539167b93762bf69fbccc"),
    ("dihedral:4", 2, (-2, 2), "fcf3e1326d919be15d015a2e6578a84204dfa481de7ba9afb9ae6904c9aee470"),
    ("symmetric:3", 3, (-2, 4), "b785fee7a2e0765473af6f1d76789168fcf2fa3839adeefecd568558cb1b1996"),
]


@pytest.mark.parametrize("group,p,window,digest", TABLES_IN_WINDOW,
                         ids=[f"{g}-p{p}-{w[0]}..{w[1]}" for g, p, w, _ in TABLES_IN_WINDOW])
def test_tables_builds_no_space_outside_its_window(monkeypatch, group, p, window, digest):
    """Every cohomology space that tables asks for, on any complex, lies in
    the printed degrees lo..hi: the BV images at lo-1 stay representatives."""
    asked = []
    cohomology = _BaseComplex.cohomology

    def record(self, n):
        asked.append(n)
        return cohomology(self, n)

    monkeypatch.setattr(_BaseComplex, "cohomology", record)
    got = _tables_json(group, p, window)
    lo, hi = window
    assert lo in asked and hi in asked
    assert all(lo <= n <= hi for n in asked), sorted(set(asked))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


TABLES_LO_MINUS_ONE = [
    ("symmetric:3", 3, (-2, 4)), ("symmetric:3", 3, (-4, 2)),
    ("cyclic:6", 3, (-2, 2)), ("dihedral:5", 5, (-2, 2)),
    ("symmetric:3", 3, (-3, 3)), ("symmetric:3", 3, (-1, 4)),
    ("cyclic:6", 3, (-3, 3)), ("cyclic:5", 5, (-3, 3)),
]


@pytest.mark.parametrize("group,p,window", TABLES_LO_MINUS_ONE,
                         ids=[f"{g}-p{p}-{w[0]}..{w[1]}" for g, p, w in TABLES_LO_MINUS_ONE])
def test_tables_matches_coordinatizing_every_degree(monkeypatch, group, p, window):
    """Keeping the degree lo-1 components as representatives gives the same
    tables as putting every component into coordinates, on asymmetric
    windows too.  An entry at lo-1 scaled by 2 changes no printed number on
    the windows here with even lo, only on those with odd lo."""
    got = _tables_json(group, p, window)
    monkeypatch.setattr(DecOps, "in_range", lambda self, n: True)
    assert got == _tables_json(group, p, window)


# ---------------------------------------------------------------------------
# tables reads its brackets off its own cup and BV tables

TABLES_BRACKET_CASES = [
    ("symmetric:3", 3, (-4, 4)), ("symmetric:3", 3, (-2, 4)), ("cyclic:6", 3, (-3, 3)),
    ("dihedral:5", 5, (-2, 2)), ("dihedral:4", 2, (-2, 2)),
]


def _direct_brackets(group, p, window):
    """Every bracket that tables prints, by DecOps.bracket on the basis classes."""
    lo, hi = window
    G = make_group(group)
    ops = DecOps(G, p, window=window)
    labels = harness._basis_labels(ops, range(lo, hi + 1))
    out = {}
    for la, lb in itertools.product(labels, labels):
        if lo < la[0] + lb[0] <= hi:
            br = ops.bracket(harness._dec_basis_class(ops, la), harness._dec_basis_class(ops, lb))
            key = f"[{harness._label_str(ops, la)}, {harness._label_str(ops, lb)}]"
            out[key] = harness._dec_to_vector(ops, br)
    return out


@pytest.mark.parametrize("coordinatize_all", [False, True], ids=["window", "every-degree"])
@pytest.mark.parametrize("group,p,window", TABLES_BRACKET_CASES,
                         ids=[f"{g}-p{p}-{w[0]}..{w[1]}" for g, p, w in TABLES_BRACKET_CASES])
def test_tables_brackets_match_decops_bracket(monkeypatch, group, p, window, coordinatize_all):
    """Each printed bracket, read off the cup and BV tables by linearity,
    is DecOps.bracket of its two basis classes, also when every degree is
    put into coordinates (so the BV images at lo-1 are coordinate classes)."""
    if coordinatize_all:
        monkeypatch.setattr(DecOps, "in_range", lambda self, n: True)
    table = cmd_tables(JobConfig(group=group, p=p, window=window))["tables"]["bracket"]
    want = _direct_brackets(group, p, window)
    assert any(want.values())
    assert {key: vec for key, vec in table.items() if vec is not None} == want


def _count_base_calls(monkeypatch):
    """Count the calls of DecOps.cup and DecOps.delta, the base operations
    that TableOps tabulates, and record each delta's argument."""
    calls = collections.Counter()
    delta_args = []
    for name in ("cup", "delta"):
        method = getattr(DecOps, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            if _name == "delta":
                delta_args.append((args[0].degree, tuple(sorted(args[0].parts.items()))))
            return _method(self, *args)
        monkeypatch.setattr(DecOps, name, counted)
    return calls, delta_args


def test_tables_runs_one_base_delta_per_label(monkeypatch):
    """tables S3/F3 -4..4 runs the base DecOps.delta once per basis label at
    most.  Its 101 base cups are the 76 of the cup table's pairs in label
    order (the other 69 of its 145 entries are filled by graded
    commutativity), the 15 that its brackets add (a BV image of degree
    lo-1 = -5 as a factor, or a pair not in label order) and the 10 of the
    seeded check of its filled brackets."""
    calls, delta_args = _count_base_calls(monkeypatch)
    data = cmd_tables(JobConfig(group="symmetric:3", p=3, window=(-4, 4)))
    assert len(delta_args) == len(set(delta_args)) <= len(data["tables"]["basis"])
    assert calls["cup"] == 101


C3_X_C3 = "perms:(0 1 2),(3 4 5)"
TABLES_FILLED_CASES = [
    ("symmetric:3", 3, (-3, 3)), ("dihedral:4", 2, (-2, 2)),
    ("cyclic:6", 3, (-3, 3)), ("dihedral:5", 5, (-2, 2)), (C3_X_C3, 3, (-1, 2)),
]


@pytest.mark.parametrize("group,p,window", TABLES_FILLED_CASES,
                         ids=[f"{g}-p{p}-{w[0]}..{w[1]}" for g, p, w in TABLES_FILLED_CASES])
def test_tables_filled_entries_match_their_own_order(group, p, window):
    """Every cup b.a and bracket [b, a] that tables fills from a.b and
    [a, b] (b after a in label order) is the entry a fresh TableOps
    computes in the order (b, a).  At odd p some nonzero filled bracket has
    the sign -1; a nonzero filled cup with the sign -1 (two odd degrees)
    occurs here only on C3 x C3, of p-rank 2: on the other odd-p groups
    every product of two odd-degree classes is 0."""
    lo, hi = window
    tables = cmd_tables(JobConfig(group=group, p=p, window=window))["tables"]
    G = make_group(group)
    ops = TableOps(G, p, window=window)
    labels = harness._basis_labels(ops, range(lo, hi + 1))
    basis = {la: harness._dec_basis_class(ops, la) for la in labels}
    filled, signed = collections.Counter(), collections.Counter()
    for la, lb in itertools.combinations(labels, 2):
        b, a = harness._label_str(ops, lb), harness._label_str(ops, la)
        if lo <= la[0] + lb[0] <= hi:
            want = harness._dec_to_vector(ops, ops.cup(basis[lb], basis[la]))
            assert tables["cup"][f"{b} * {a}"] == want
            filled["cup"] += 1
            signed["cup"] += bool(want) and la[0] * lb[0] % 2
        if lo < la[0] + lb[0] <= hi:
            want = harness._dec_to_vector(ops, ops.bracket(basis[lb], basis[la]))
            assert tables["bracket"][f"[{b}, {a}]"] == want
            filled["bracket"] += 1
            signed["bracket"] += bool(want) and (la[0] - 1) * (lb[0] - 1) % 2 == 0
    assert filled["cup"] and filled["bracket"]
    if p > 2:
        assert signed["bracket"]
        assert bool(signed["cup"]) == (group == C3_X_C3)


def _plus_basis_class(ops, X):
    """X plus the first basis class of its degree, in the coordinate
    window: a change that shows at p = 2, where negation does not."""
    if ops.in_range(X.degree):
        for cls in range(ops.cd.num_classes):
            if ops.cls_dim(cls, X.degree):
                return ops.add(X, harness._dec_basis_class(ops, (X.degree, cls, 0)))
    return X


def test_tables_checks_filled_cups_without_direct_path(monkeypatch):
    """tables symmetric:4 at p = 2 on -2..2 is over DIRECT_COLUMN_CAP, so
    its spot check checks no product.  A base cup a.b with |a| < |b| that
    gains a basis class, while b.a does not, fails the seeded check of the
    filled cups."""
    cup = DecOps.cup

    def perturbed(self, A, B):
        out = cup(self, A, B)
        return _plus_basis_class(self, out) if A.degree < B.degree else out
    monkeypatch.setattr(DecOps, "cup", perturbed)
    with pytest.raises(VerificationError, match="^cup of"):
        cmd_tables(JobConfig(group="symmetric:4", p=2, window=(-2, 2)))


def test_tables_checks_filled_brackets(monkeypatch):
    """A bracket [a, b] with |a| < |b| that gains a basis class, while
    [b, a] does not, fails tables S3/F3 -4..4's seeded check of the filled
    brackets."""
    bracket = DecOps.bracket

    def perturbed(self, A, B):
        out = bracket(self, A, B)
        return _plus_basis_class(self, out) if A.degree < B.degree else out
    monkeypatch.setattr(DecOps, "bracket", perturbed)
    with pytest.raises(VerificationError, match="^bracket of"):
        cmd_tables(JobConfig(group="symmetric:3", p=3, window=(-4, 4)))


def test_verify_s3_base_call_counts(monkeypatch):
    """verify-s3 runs 85 base cups and 26 base BV operators: one per ordered
    pair of basis classes, basis class or representative component it
    meets, where an uncached DecOps ran 225 cups and 151 BV operators.  14
    of the BV operators are on basis classes, each once; the other 12 are
    on components outside the window -4..4, kept as representatives."""
    calls, delta_args = _count_base_calls(monkeypatch)
    assert S3Verifier().run()["passed"]
    assert dict(calls) == {"cup": 85, "delta": 26}
    on_basis = [args for args in delta_args if all(tag == "c" for _, (tag, _) in args[1])]
    assert len(on_basis) == len(set(on_basis)) == 14


def test_verify_s3_graded_commutativity_sees_one_perturbed_order(monkeypatch):
    """The table never fills b.a from a.b: negating the base product x.W2
    alone (class 0 in degree 3 times class 1 in degree 2) fails verify-s3's
    graded commutativity check on x and W2."""
    cup = DecOps.cup

    def perturbed(self, A, B):
        out = cup(self, A, B)
        if (A.degree, list(A.parts), B.degree, list(B.parts)) == (3, [0], 2, [1]):
            return self.scale(out, -1)
        return out
    monkeypatch.setattr(DecOps, "cup", perturbed)
    report = S3Verifier().run()
    checks = {c["name"]: c["ok"] for c in report["checks"]}
    assert not checks["graded commutativity x*W2"]
    assert checks["graded commutativity z*W1"]
    assert not report["passed"]


TABLE_OPS_CASES = [("dihedral:4", 2, (-2, 2)), ("cyclic:6", 3, (-3, 3))]


def _restricted_coords(ops, X):
    """X's components as coordinates: a representative entry by its
    restriction to P_k, which decides its class (see DecOps.is_zero), so
    that classes of two DecOps with their own complexes compare."""
    out = {}
    for cls, (tag, val) in X.parts.items():
        if tag == "r":
            val = tuple(ops.ctx.complex_for(ops.sylow(cls)).cohomology(X.degree).project(
                ops.restrict_entry(cls, X.degree, (tag, val))))
        if any(val):
            out[cls] = (tag, val)
    return out


@pytest.mark.parametrize("group,p,window", TABLE_OPS_CASES,
                         ids=[f"{g}-p{p}-{w[0]}..{w[1]}" for g, p, w in TABLE_OPS_CASES])
def test_table_ops_match_decops(group, p, window):
    """TableOps and plain DecOps give the same cup, delta and bracket on
    random classes that span several basis classes (D8 has spaces of
    dimension 3, C6 six classes of dimension 1), on representative inputs
    of degree lo-1 and on pairs whose products leave the coordinate range."""
    lo, hi = window
    G = make_group(group)
    plain, table = DecOps(G, p, window=window), TableOps(G, p, window=window)
    # the random combinations of _delta_inputs, two per degree, drawn alike
    # for both: coordinate classes in lo..hi, representatives in degree lo-1
    inputs = {ops: [A for d in range(lo - 1, hi + 1)
                    for A in list(_delta_inputs(ops, d, random.Random(d)))[-2:]]
              for ops in (plain, table)}
    assert any(tag == "c" and sum(map(bool, val)) > 1
               for A in inputs[table] for tag, val in A.parts.values()) == (group == "dihedral:4")
    assert any(sum(sum(map(bool, val)) for tag, val in A.parts.values() if tag == "c") > 1
               for A in inputs[table])
    assert any(tag == "r" for A in inputs[table] for tag, _ in A.parts.values())

    def same(name, *args):
        X = getattr(plain, name)(*(inputs[plain][i] for i in args))
        Y = getattr(table, name)(*(inputs[table][i] for i in args))
        assert _restricted_coords(plain, X) == _restricted_coords(table, Y)
        return Y

    rng = random.Random(5)
    degrees = [A.degree for A in inputs[table]]
    out_of_range = 0
    for i, d in enumerate(degrees):
        same("delta", i)
        # products up to two degrees outside lo..hi, where cohomology stays small
        near = [j for j, e in enumerate(degrees) if lo - 2 <= d + e <= hi + 2]
        for j in rng.sample(near, min(4, len(near))):
            prod = same("cup", i, j)
            out_of_range += any(tag == "r" for tag, _ in prod.parts.values())
            same("bracket", i, j)
    assert out_of_range
