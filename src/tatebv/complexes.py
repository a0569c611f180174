"""Canonical bases and differentials for the Tate-Hochschild complex of kG
and the Tate cochain complexes of its subgroups, plus cohomology.

Degree conventions (d is the complex degree, always an integer):

* D-side, d = m >= 0: basis keys are pairs ``(args, h)`` with ``args`` a
  tuple of m non-identity elements and ``h`` any element -- the map
  sending exactly that tuple to h.
* D-side, d = -s-1 <= -1: basis keys are pairs ``(g0, tail)`` with g0 any
  element and ``tail`` a tuple of s non-identity elements.
* Group side (trivial coefficients), d = n >= 0: keys are n-tuples over
  the subgroup's non-identity members; d = -s-1: s-tuples.

The normalized convention is baked into the bases: tuple slots never hold
the identity, and any operator term that would put the identity into such
a slot is dropped.  The official differential is the signed one: the
coboundary on non-negative degrees and (-1)^d times the unsigned map out
of degree d < 0 (so -trace out of degree -1).

The key-level templates (``d_coboundary_terms`` and friends) define the
differential of elements and the dict columns of every matrix.  Each adds
c times one key's terms into a dict that the caller passes, so
``differential`` sums every key into one dict.  Like every chain-level
map, the templates leave sums unreduced and zeros in place: ``element``
reduces mod p and drops zeros once.  The D side has one coefficient
bimodule, kG, so both of its end terms act by G.mult.

The boundary out of -n-2 is, up to sign, the transpose of the coboundary
out of n under the key map (g0, tail) <-> (tail, g0^-1), at every p, so
the rank out of d <= -2 is the rank out of -d-2.  At p = 2 and p = 3 the
matrix out of a degree d >= 0 streams its columns into elimination as
bitsets from face-map tables (``coboundary_vectors``), and the matrix out
of a degree d <= -2 its rows, by that transpose.  A subclass that
overrides ``unsigned_terms`` alone sets ``coboundary_faces = None`` to get
neither.  ``cohomology_dim`` needs only ranks, each eliminated once and
kept on the complex; ``cohomology`` builds a ``QuotientSpace``.  On face
tables the D side reads its ranks out of d >= 0 class block by class
block: kG = sum_K k[K] as G-modules under conjugation, so in the basis
(args, y), y = prod(args)^-1 h (what ``class_of_index`` reads), the
coboundary is block diagonal, one block C^*(G, k[K]) per conjugacy class
K (``class_faces``).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .groups import ConjugacyData, Group, Subgroup, conjugacy_classes
from .linalg import QuotientSpace, SparseMatrix, add_scaled_inplace, rank as matrix_rank

Key = Hashable


class WindowError(ValueError):
    pass


def sign_pow(k: int) -> int:
    """(-1)**k as an exact integer for any integer k (negative included)."""
    return -1 if k % 2 else 1


def _acc(out: Dict, key: Key, c: int) -> None:
    """out[key] += c, unreduced: sums end in ``element``, which reduces them."""
    out[key] = out.get(key, 0) + c


# ---------------------------------------------------------------------------
# D*(kG, kG) basis-level operators

def dim_degree(G: Group, d: int) -> int:
    s = d if d >= 0 else -d - 1
    return G.order * (G.order - 1) ** s


def d_coboundary_terms(G: Group, key: Key, m: int, out: Dict, c: int) -> Dict:
    """Adds c times the unsigned coboundary of a degree-m basis cochain
    (m >= 0) into out."""
    args, h = key
    mult = G.mult
    for a in G.nontrivial:
        _acc(out, ((a,) + args, mult[a][h]), c)
    for i in range(1, m + 1):
        c = -c
        pre, post = args[: i - 1], args[i:]
        for uv in G.splits[args[i - 1]]:
            _acc(out, (pre + uv + post, h), c)
    for b in G.nontrivial:
        _acc(out, (args + (b,), mult[h][b]), -c)
    return out


def coboundary_vectors(G: Group, nontrivial: Sequence[int], V: int, left, right,
                       n: int, p: int, rows: bool = False) -> Iterator:
    """Columns of the unsigned coboundary out of degree n >= 0, in basis
    order, as vectors of the p <= 3 bitset core: a Python-int bitset over
    rows at p = 2, a bit-sliced (P, N) pair at p = 3.

    The same map as ``d_coboundary_terms`` (and ``group_coboundary_terms``
    for V = 1 and trivial end-term tables), read on row indices.  A basis
    key (args, h) of degree n has index idx(args)*V + h, idx being args in
    base q = len(nontrivial), first slot most significant.  In that index
    each face map of the bar complex is one fixed bitset shifted by an
    offset: face 0 is T0[h] << idx(args)*V, face n+1 is TL[h] <<
    idx(args)*q*V, and middle face i, which splits slot t = args[i-1] into
    (u, u^-1 t), is S[k][t] << idx(pre)*q^(k+2)*V + idx(post)*V + h, with k
    = n - i and pre, post the slots before and after t.  Face i carries
    the sign (-1)^i; faces may meet on a row, so they are added in the
    field, not merged.

    ``left[a][h]`` and ``right[h][b]`` are the values a and b give h from
    the head and tail slots: G.mult for kG, those of ``class_faces`` for
    a class block, the value 0 unmoved for trivial coefficients (V = 1).
    ``rows`` reads the vectors in the layout of the chain keys (h^-1,
    args) of degree -n-2, h before the tail and tail unit 1: then the
    vector of (args, h) is the row of (h^-1, args) in the unsigned
    boundary out of -n-2, face by face and sign by sign (merging slots i
    and i+1 there is splitting slot i here).  That needs the end-term
    tables transposed, L[a][h] = x^-1 where right[x][a] = h^-1 and R[h][b]
    = y^-1 where left[b][y] = h^-1, and the tables of kG and of trivial
    coefficients are their own transposes.  The rows come in the layout of
    ``SparseMatrix.rows``, column j of N at bit N-1-j: the chain layout
    with nontrivial in reverse order (digit a at q-1-a) and h at offset
    (V-1-inv(h))*q^(n+1)."""
    if rows:
        nontrivial = nontrivial[::-1]
    q = len(nontrivial)
    pos = {a: i for i, a in enumerate(nontrivial)}
    mult, inv = G.mult, G.inv
    U = 1 if rows else V
    off = [(V - 1 - inv[h]) * q ** (n + 1) for h in range(V)] if rows else range(V)
    Q = [q ** k * U for k in range(n + 2)]
    T0 = [sum(1 << (pos[a] * Q[n] + off[left[a][h]]) for a in nontrivial) for h in range(V)]
    TL = [sum(1 << (pos[b] * U + off[right[h][b]]) for b in nontrivial) for h in range(V)]
    splits = [[pos[u] * q + pos[v] for u in nontrivial if (v := mult[inv[u]][t])] for t in nontrivial]
    S = [[sum(1 << (x * Q[k]) for x in row) for row in splits] for k in range(n)]
    # (S[k], face i = n - k, q^(k+1), q^(k+2)*U, q^k) per middle slot, first slot first
    mids = [(S[k], n - k, q ** (k + 1), Q[k + 2], q ** k) for k in range(n - 1, -1, -1)]
    for idx, digits in enumerate(itertools.product(range(q), repeat=n)):
        a, b = idx * U, idx * Q[1]
        if p == 2:
            mid = 0
            for (Sk, _, hi, step, lo), t in zip(mids, digits):
                mid ^= Sk[t] << (idx // hi * step + idx % lo * U)
            for h in range(V):
                yield (mid << off[h]) ^ (T0[h] << a) ^ (TL[h] << b)
            continue
        P = N = 0
        # the six-operation add of _GF3 with one half zero: + F is (F, 0), - F is (0, F)
        for (Sk, i, hi, step, lo), t in zip(mids, digits):
            F = Sk[t] << (idx // hi * step + idx % lo * U)
            if i % 2:  # subtract F
                x = (P | F) ^ N
                P, N = (N | F) ^ x, P ^ x
            else:
                x = P ^ (N | F)
                P, N = N ^ x, (P | F) ^ x
        for h in range(V):
            mP, mN, F = P << off[h], N << off[h], T0[h] << a
            x = mP ^ (mN | F)
            mP, mN, F = mN ^ x, (mP | F) ^ x, TL[h] << b
            if n % 2:  # face n+1 is even
                x = mP ^ (mN | F)
                yield mN ^ x, (mP | F) ^ x
            else:
                x = (mP | F) ^ mN
                yield (mN | F) ^ x, mP ^ x


def class_faces(G: Group, nontrivial: Sequence[int], K: Sequence[int]) -> tuple:
    """The arguments of ``coboundary_vectors`` before the degree for the
    block C^*(G, k[K]) of a conjugacy class K, listed as its members: the
    coboundary on keys (args, y) with y in K, y at position i of K having
    index idx(args)*|K| + i.  Face 0 and the middle faces keep y, and the
    last face, b, sends it to b^-1 y b, so left[a][i] = i and right[i][b]
    is the position of b^-1 K[i] b in K.  K = (identity,) gives V = 1 and
    constant tables, trivial coefficients, in either layout."""
    mult, inv = G.mult, G.inv
    pos = {y: i for i, y in enumerate(K)}
    return (G, nontrivial, len(K), [range(len(K))] * G.order,
            [[pos[mult[mult[inv[b]][y]][b]] for b in range(G.order)] for y in K])


def d_boundary_terms(G: Group, key: Key, s: int, out: Dict, c: int) -> Dict:
    """Adds c times the unsigned boundary of a degree -s-1 basis chain
    (s >= 1) into out."""
    g0, tail = key
    mult = G.mult
    _acc(out, (mult[g0][tail[0]], tail[1:]), c)
    for i in range(1, s):
        c = -c
        w = mult[tail[i - 1]][tail[i]]
        if w:
            _acc(out, (g0, tail[: i - 1] + (w,) + tail[i + 1:]), c)
    _acc(out, (mult[tail[-1]][g0], tail[:-1]), -c)
    return out


def d_trace_terms(G: Group, key: Key, out: Dict, c: int) -> Dict:
    """Adds c times the trace map out of degree -1 into out: g0 -> sum_g
    g g0 g^-1 as degree-0 cochains."""
    g0, _tail = key
    for g in range(G.order):
        _acc(out, ((), G.conj(g, g0)), c)
    return out


def class_of_index(cd: ConjugacyData, d: int, key: Key) -> int:
    """Conjugacy-class component of a basis key: the class of the twisted value."""
    G = cd.group
    if d >= 0:
        args, h = key
        return cd.class_of[G.mult[G.inv[G.prod(args)]][h]]
    g0, tail = key
    return cd.class_of[G.mult[G.prod(tail)][g0]]


# ---------------------------------------------------------------------------
# group-side (trivial coefficient) basis-level operators

def group_dim_degree(H_order: int, d: int) -> int:
    s = d if d >= 0 else -d - 1
    return (H_order - 1) ** s


def group_coboundary_terms(G: Group, nontrivial: Sequence[int], key: Key, n: int,
                           out: Dict, c: int) -> Dict:
    for a in nontrivial:
        _acc(out, (a,) + key, c)
    for i in range(1, n + 1):
        c = -c
        t = key[i - 1]
        pre, post = key[: i - 1], key[i:]
        for u in nontrivial:
            v = G.mult[G.inv[u]][t]
            if v:
                _acc(out, pre + (u, v) + post, c)
    for b in nontrivial:
        _acc(out, key + (b,), -c)
    return out


def group_boundary_terms(G: Group, key: Key, s: int, out: Dict, c: int) -> Dict:
    _acc(out, key[1:], c)
    for i in range(1, s):
        c = -c
        w = G.mult[key[i - 1]][key[i]]
        if w:
            _acc(out, key[: i - 1] + (w,) + key[i + 1:], c)
    _acc(out, key[:-1], -c)
    return out


# ---------------------------------------------------------------------------
# elements

class _Element:
    """Homogeneous element: degree plus sparse coefficients over basis keys."""

    __slots__ = ("complex", "degree", "coeffs")

    def __init__(self, cplx: "_BaseComplex", degree: int, coeffs: Optional[Dict[Key, int]] = None):
        self.complex = cplx
        self.degree = degree
        self.coeffs: Dict[Key, int] = {}
        if coeffs:
            p = cplx.p
            for k, v in coeffs.items():
                v %= p
                if v:
                    self.coeffs[k] = v

    @property
    def p(self) -> int:
        return self.complex.p

    def is_zero(self) -> bool:
        return not self.coeffs

    def copy(self):
        out = type(self)(self.complex, self.degree)
        out.coeffs = dict(self.coeffs)
        return out

    def add(self, other, c: int = 1):
        if other.degree != self.degree or other.complex is not self.complex:
            raise ValueError("degree/complex mismatch in addition")
        out = self.copy()
        add_scaled_inplace(out.coeffs, other.coeffs, c, self.p)
        return out

    def sub(self, other):
        return self.add(other, -1)

    def scale(self, c: int):
        p = self.complex.p
        c %= p
        out = type(self)(self.complex, self.degree)
        if c:
            out.coeffs = {k: v * c % p for k, v in self.coeffs.items()}
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, _Element) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree}, terms={len(self.coeffs)})"


class TateElement(_Element):
    """Element of D^d(kG, kG)."""

    @property
    def group(self) -> Group:
        return self.complex.group


class GroupTateElement(_Element):
    """Element of the Tate cochain complex of a subgroup, trivial coefficients."""

    @property
    def subgroup(self) -> Subgroup:
        return self.complex.subgroup


class CohomologySpace:
    """Computed cohomology in one degree with representatives and coordinates."""

    def __init__(self, cplx: "_BaseComplex", degree: int, quotient: QuotientSpace):
        self.complex = cplx
        self.degree = degree
        self.quotient = quotient
        # bv._checked_rep's lifted and d-checked representatives, by coordinates
        self.checked_reps: Dict[Tuple[int, ...], object] = {}

    @property
    def dim(self) -> int:
        return self.quotient.dim

    def representative(self, i: int):
        return self.lift([1 if j == i else 0 for j in range(self.dim)])

    def project(self, elem) -> List[int]:
        """Coordinates of a cocycle's class; raises ValueError if not a cocycle."""
        if elem.degree != self.degree:
            raise ValueError("degree mismatch")
        idx = self.complex.index(self.degree)
        return self.quotient.project({idx[k]: v for k, v in elem.coeffs.items()})

    def lift(self, coords: Sequence[int]):
        basis = self.complex.basis(self.degree)
        vec = self.quotient.lift(coords)
        return self.complex.element(self.degree, {basis[i]: v for i, v in vec.items()})


class _BaseComplex:
    element_cls = _Element
    coboundary_faces = None  # or a method giving the face tables of ``coboundary_vectors``

    def __init__(self, p: int):
        self.p = p
        self._basis: Dict[int, List[Key]] = {}
        self._index: Dict[int, Dict[Key, int]] = {}
        self._matrix: Dict[int, SparseMatrix] = {}
        self._cohomology: Dict[int, CohomologySpace] = {}
        self._rank: Dict[int, int] = {}

    # subclass API --------------------------------------------------------
    def check_degree(self, d: int) -> None:
        pass

    def iter_basis(self, d: int) -> Iterator[Key]:
        raise NotImplementedError

    def unsigned_terms(self, key: Key, d: int, out: Dict, c: int) -> Dict:
        """Adds c times the unsigned differential of a basis key into out."""
        raise NotImplementedError

    def dim(self, d: int) -> int:
        raise NotImplementedError

    # shared machinery ------------------------------------------------------
    def sign_of(self, d: int) -> int:
        # the official differential scales the unsigned map out of chain
        # degree s (= -d-1) by (-1)^s; the exponent is the chain index, the
        # only reading under which the pairing and Leibniz identities hold
        return 1 if d >= 0 else sign_pow(-d - 1)

    def basis(self, d: int) -> List[Key]:
        self.check_degree(d)
        if d not in self._basis:
            self._basis[d] = list(self.index(d))
        return self._basis[d]

    def index(self, d: int) -> Dict[Key, int]:
        # the one key cache, which ``basis`` lists.  Unchecked: ``rank``
        # indexes degrees outside the window.  Neither this nor ``_columns``
        # calls ``basis``: perfbench's tracer opens a span there, and its
        # span observers, which hold the tracer's lock, may read a matrix's
        # lazy ``columns``
        if d not in self._index:
            self._index[d] = {k: i for i, k in enumerate(self.iter_basis(d))}
        return self._index[d]

    def element(self, d: int, coeffs: Optional[Dict[Key, int]] = None):
        self.check_degree(d)
        return self.element_cls(self, d, coeffs)

    def zero(self, d: int):
        return self.element(d)

    def differential(self, elem, signed: bool = True):
        """Apply the (signed) differential without materializing a matrix."""
        d = elem.degree
        self.check_degree(d + 1)
        sign = self.sign_of(d) if signed else 1
        out: Dict[Key, int] = {}
        for key, c in elem.coeffs.items():
            self.unsigned_terms(key, d, out, c * sign)
        return self.element_cls(self, d + 1, out)

    def _columns(self, d: int) -> List[Dict[int, int]]:
        """The signed differential out of degree d as dict columns, from
        ``unsigned_terms``, which sums each target key once."""
        tgt_index = self.index(d + 1)
        p, sign = self.p, self.sign_of(d)
        return [{tgt_index[t]: x for t, c in self.unsigned_terms(key, d, {}, sign).items()
                 if (x := c % p)} for key in self.index(d)]

    def _new_matrix(self, d: int) -> SparseMatrix:
        """matrix(d) without the window check or the cache."""
        vectors = rows = None
        if self.p <= 3 and self.coboundary_faces is not None and d != -1:
            faces = self.coboundary_faces()
            if d >= 0:
                vectors = lambda: coboundary_vectors(*faces, d, self.p)
            else:
                rows = lambda: coboundary_vectors(*faces, -d - 2, self.p, rows=True)
        return SparseMatrix(self.dim(d + 1), self.dim(d), self.p,
                            build=lambda: self._columns(d), vectors=vectors, rows=rows)

    def matrix(self, d: int) -> SparseMatrix:
        """Signed differential degree d -> d+1 over the canonical bases,
        kept on the complex (``rank`` keeps none).

        Its dict columns are built from ``unsigned_terms`` on first read of
        ``columns``.  At p <= 3 a complex whose ``coboundary_faces`` is not
        None builds its matrices from the face tables instead: each streams
        its columns (d >= 0) or its rows (d <= -2) on every pass, and nothing
        holds them.  A subclass that overrides ``unsigned_terms`` alone sets
        ``coboundary_faces = None`` to keep getting its matrices from it."""
        self.check_degree(d)
        self.check_degree(d + 1)
        if d not in self._matrix:
            self._matrix[d] = self._new_matrix(d)
        return self._matrix[d]

    def rank(self, d: int) -> int:
        """Rank of matrix(d), eliminated once per complex on a matrix that
        the complex does not keep.  rank(d) for d <= -2 is rank(-d-2), which
        need not lie in the window: matrix(d) is the transpose of
        matrix(-d-2) up to the order and signs of its rows and columns."""
        self.check_degree(d)
        self.check_degree(d + 1)
        if d <= -2:
            d = -d - 2
        if d not in self._rank:
            self._rank[d] = self._eliminated_rank(d)
        return self._rank[d]

    def _eliminated_rank(self, d: int) -> int:
        return matrix_rank(self._new_matrix(d))

    def cohomology_dim(self, n: int) -> int:
        """dim C^n - rank d_n - rank d_{n-1}: the dimension of cohomology(n)
        if d_n d_{n-1} = 0, which ``cohomology`` checks and this does not."""
        return self.dim(n) - self.rank(n) - self.rank(n - 1)

    def cohomology(self, n: int) -> CohomologySpace:
        """ker(d_n)/im(d_{n-1}) with deterministic representative cocycles."""
        if n in self._cohomology:
            return self._cohomology[n]
        space = CohomologySpace(self, n, QuotientSpace(self.matrix(n), self.matrix(n - 1)))
        self._cohomology[n] = space
        return space

    def random_element(self, d: int, rng, terms: int = 3):
        basis = self.basis(d)
        coeffs: Dict[Key, int] = {}
        for _ in range(terms if basis else 0):
            k = basis[rng.randrange(len(basis))]
            c = rng.randrange(1, self.p)
            _acc(coeffs, k, c)
        return self.element_cls(self, d, coeffs)


class DComplex(_BaseComplex):
    """The Tate-Hochschild cochain complex of kG over F_p on a degree window.

    Its keys are (args, h) everywhere but in ``rank`` on face tables (p <=
    3), which reads the rank out of d >= 0 in the basis (args, y), y =
    prod(args)^-1 h, as a sum over the class blocks.  ``cohomology(n)``
    needs n-1 and n+1 in the window, as matrix(n-1) and matrix(n) do."""

    element_cls = TateElement

    def __init__(self, group: Group, p: int, window: Tuple[int, int]):
        super().__init__(p)
        lo, hi = window
        if lo >= hi:
            raise WindowError(f"window {window} is empty")
        self.group = group
        self.lo = lo
        self.hi = hi

    def check_degree(self, d: int) -> None:
        if not (self.lo <= d <= self.hi):
            raise WindowError(f"degree {d} outside window [{self.lo}, {self.hi}]")

    def dim(self, d: int) -> int:
        return dim_degree(self.group, d)

    def iter_basis(self, d: int) -> Iterator[Key]:
        G = self.group
        s = d if d >= 0 else -d - 1
        if d >= 0:
            for args in itertools.product(G.nontrivial, repeat=s):
                for h in range(G.order):
                    yield (args, h)
        else:
            for g0 in range(G.order):
                for tail in itertools.product(G.nontrivial, repeat=s):
                    yield (g0, tail)

    def unsigned_terms(self, key: Key, d: int, out: Dict, c: int) -> Dict:
        if d >= 0:
            return d_coboundary_terms(self.group, key, d, out, c)
        if d == -1:
            return d_trace_terms(self.group, key, out, c)
        return d_boundary_terms(self.group, key, -d - 1, out, c)

    def coboundary_faces(self):
        """The arguments of ``coboundary_vectors`` before the degree, in
        either layout: kG acts on both ends by G.mult."""
        G = self.group
        return G, G.nontrivial, G.order, G.mult, G.mult

    @cached_property
    def _class_faces(self) -> List[tuple]:
        G = self.group
        return [class_faces(G, G.nontrivial, K) for K in conjugacy_classes(G).classes]

    def _eliminated_rank(self, d: int) -> int:
        # d >= 0 may lie above the window: rank(-d-2)
        if d < 0 or self.p > 3 or self.coboundary_faces is None:
            return super()._eliminated_rank(d)
        p, q = self.p, len(self.group.nontrivial)
        blocks = [SparseMatrix(f[2] * q ** (d + 1), f[2] * q ** d, p, build=None,
                               vectors=lambda f=f: coboundary_vectors(*f, d, p))
                  for f in self._class_faces]
        return sum(map(matrix_rank, blocks))


class GroupComplex(_BaseComplex):
    """Tate cochain complex of a subgroup with trivial F_p coefficients.

    Positive degrees carry the group cohomology complex, negative degrees
    the group homology complex, glued by the norm map (multiplication by
    |H| mod p) out of degree -1.  Signs mirror the D-side convention.
    """

    element_cls = GroupTateElement

    def __init__(self, subgroup: Subgroup, p: int):
        super().__init__(p)
        self.subgroup = subgroup

    def dim(self, d: int) -> int:
        return group_dim_degree(self.subgroup.order, d)

    def iter_basis(self, d: int) -> Iterator[Key]:
        s = d if d >= 0 else -d - 1
        return itertools.product(self.subgroup.nontrivial, repeat=s)

    def unsigned_terms(self, key: Key, d: int, out: Dict, c: int) -> Dict:
        G = self.subgroup.parent
        if d >= 0:
            return group_coboundary_terms(G, self.subgroup.nontrivial, key, d, out, c)
        if d == -1:
            _acc(out, (), self.subgroup.order * c)  # the norm map
            return out
        return group_boundary_terms(G, key, -d - 1, out, c)

    def coboundary_faces(self):
        """The arguments of ``coboundary_vectors`` before the degree: the
        block of the identity class, one value (V = 1) that both end terms
        leave fixed, in either layout."""
        return class_faces(self.subgroup.parent, self.subgroup.nontrivial, (0,))
