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
bitsets from face-map tables (``coboundary_vectors``, a run of q sibling
columns from one shared prefix), and the matrix out of a degree d <= -2
its rows, by that transpose, and its columns, read off the same tables by
index arithmetic (``boundary_vectors``), for the kernels and image bases
of ``cohomology``, which builds a ``QuotientSpace``.  A complex builds its
``FaceTables`` once per layout, and every degree shares them.  kG = sum_K
k[K] as G-modules under conjugation, so in the basis (args, y), y =
prod(args)^-1 h (what ``class_of_index`` reads), the D-side coboundary is
block diagonal, one block C^*(G, k[K]) per conjugacy class K
(``class_faces``); the group side is the identity class's block.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .groups import ConjugacyData, Group, Subgroup
from .linalg import QuotientSpace, SparseMatrix, add_scaled_inplace, image_echelon, select

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


class FaceTables:
    """The tables of the face maps of the bar complex over one list of
    nontrivial elements of G, in one layout, which every class block and
    degree of a complex shares: each element's position (reversed in the
    layout of rows), the pair indices pos[u]*q + pos[v] of the splits (u,
    u^-1 t) of each t, the positions of the products a b (None at the
    identity) for ``boundary_vectors``, and the middle-face bitsets of
    ``merges``, kept per (k, U)."""

    def __init__(self, G: Group, nontrivial: Sequence[int], rows: bool):
        self.G, self.rows = G, rows
        self.nontrivial = nontrivial = tuple(nontrivial[::-1] if rows else nontrivial)
        q = self.q = len(nontrivial)
        pos = self.pos = {a: i for i, a in enumerate(nontrivial)}
        mult, inv = G.mult, G.inv
        self.splits = [[pos[u] * q + pos[v] for u in nontrivial if (v := mult[inv[u]][t])]
                       for t in nontrivial]
        self._merges: Dict[Tuple[int, int], List[int]] = {}

    @cached_property
    def products(self) -> List[Optional[int]]:
        mult, pos = self.G.mult, self.pos
        return [pos.get(mult[a][b]) for a in self.nontrivial for b in self.nontrivial]

    def merges(self, k: int, U: int) -> List[int]:
        """S_k[t] = sum of 1 << x*q^k*U over the split pair indices x of t."""
        if (k, U) not in self._merges:
            step = self.q ** k * U
            self._merges[k, U] = [sum(1 << (x * step) for x in row) for row in self.splits]
        return self._merges[k, U]


def _face_sum(p: int, faces) -> object:
    """The sum of (-1)^i F over the (F, i) in faces, as a vector of the p <=
    3 bitset core: faces may meet on a row, so at p = 3 each is added by
    the six-operation add of _GF3 with one half zero (+ F is (F, 0), - F is
    (0, F))."""
    if p == 2:
        v = 0
        for F, _ in faces:
            v ^= F
        return v
    P = N = 0
    for F, i in faces:
        if i % 2:
            x = (P | F) ^ N
            P, N = (N | F) ^ x, P ^ x
        else:
            x = P ^ (N | F)
            P, N = N ^ x, (P | F) ^ x
    return P, N


def coboundary_vectors(F: FaceTables, V: int, left, right, n: int, p: int) -> Iterator:
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
    (u, u^-1 t), is S_k[t] << idx(pre)*q^(k+2)*V + idx(post)*V + h, with k
    = n - i and pre, post the slots before and after t.  Face i carries
    the sign (-1)^i; faces may meet on a row, so they are added in the
    field, not merged.

    The columns come in runs of q siblings, args = (g's digits, t) for t
    = 0..q-1, which share every slot but the last.  Along a run face 0 and
    the middle faces of every slot but the last shift by V per column, so
    each run builds one prefix A_h = (those middle faces << h) + (T0[h] <<
    g*q*V) per value h, and column (g, t, h) is A_h << t*V plus B[t][h] <<
    g*q^2*V, where B[t][h], built once per call, holds the last middle
    face, S_0[t] << h, and the last face, TL[h] << t*q*V.  At p = 2 that is
    one XOR per column.  n = 0 has faces 0 and 1 alone.

    ``left[a][h]`` and ``right[h][b]`` are the values a and b give h from
    the head and tail slots: G.mult for kG, those of ``class_faces`` for
    a class block, the value 0 unmoved for trivial coefficients (V = 1).
    On tables F of the layout of rows the vectors are read in the layout
    of the chain keys (h^-1, args) of degree -n-2, h before the tail and
    tail unit 1: then the vector of (args, h) is the row of (h^-1, args)
    in the unsigned boundary out of -n-2, face by face and sign by sign
    (merging slots i and i+1 there is splitting slot i here).  That needs
    the end-term tables transposed, L[a][h] = x^-1 where right[x][a] =
    h^-1 and R[h][b] = y^-1 where left[b][y] = h^-1, and the tables of kG
    and of trivial coefficients are their own transposes.  The rows come
    in the layout of ``SparseMatrix.rows``, column j of N at bit N-1-j:
    the chain layout with nontrivial in reverse order (digit a at q-1-a)
    and h at offset (V-1-inv(h))*q^(n+1) in place of h."""
    q, pos, nontrivial, inv = F.q, F.pos, F.nontrivial, F.G.inv
    U = 1 if F.rows else V
    off = [(V - 1 - inv[h]) * q ** (n + 1) for h in range(V)] if F.rows else range(V)
    T0 = [sum(1 << (pos[a] * q ** n * U + off[left[a][h]]) for a in nontrivial) for h in range(V)]
    TL = [sum(1 << (pos[b] * U + off[right[h][b]]) for b in nontrivial) for h in range(V)]
    if n == 0:
        yield from (_face_sum(p, ((T, 0), (L, 1))) for T, L in zip(T0, TL))
        return
    qU = q * U
    B = [[_face_sum(p, ((S << o, n), (L << t * qU, n + 1))) for o, L in zip(off, TL)]
         for t, S in enumerate(F.merges(0, U))]
    # (S_k, face i = n - k, q^k, q^(k+2)*U, q^(k-1)) per slot but the last, first slot first
    outer = [(F.merges(k, U), n - k, q ** k, q ** (k + 2) * U, q ** (k - 1)) for k in range(n - 1, 0, -1)]
    for g, digits in enumerate(itertools.product(range(q), repeat=n - 1)):
        mid = _face_sum(p, [(S[t] << (g // hi * step + g % lo * qU), i)
                            for (S, i, hi, step, lo), t in zip(outer, digits)])
        a, b = g * qU, g * q * qU
        if p == 2:
            A = [(mid << o) ^ (T << a) for o, T in zip(off, T0)]
            for t, Bt in enumerate(B):
                s = t * U
                for x, y in zip(A, Bt):
                    yield (x << s) ^ (y << b)
            continue
        A = []
        for o, T in zip(off, T0):
            P, N, T = mid[0] << o, mid[1] << o, T << a
            x = P ^ (N | T)
            A.append((N ^ x, (P | T) ^ x))
        for t, Bt in enumerate(B):
            s = t * U
            for (P, N), (R, M) in zip(A, Bt):
                P, N, R, M = P << s, N << s, R << b, M << b
                x = (P | M) ^ (N | R)
                yield (N | M) ^ x, (P | R) ^ x


def boundary_vectors(F: FaceTables, V: int, left, right, s: int, p: int,
                     cols: Optional[Sequence[int]] = None) -> Iterator:
    """Columns of the signed boundary out of degree -s-1 (s >= 1), in basis
    order or only those at the ascending indices cols, as vectors of the p
    <= 3 bitset core, on the tables of ``coboundary_vectors`` in the chain
    layout: the map of ``d_boundary_terms`` (``group_boundary_terms`` for V
    = 1 and trivial end-term tables) times sign_pow(s).

    A chain key (g0, tail) of degree -s-1 has index g0*q^s + idx(tail), so
    with Q = q^(s-1) face 0 lands at right[g0][t_1]*Q + idx(t_2..t_s), the
    last face at left[t_s][g0]*Q + idx(t_1..t_s-1), and middle face i,
    which merges t_i and t_i+1 into w = t_i t_i+1, at g0*Q + idx(t_1..t_i-1,
    w, t_i+2..t_s), from the products of F, or nowhere when w = 1.  Face i
    carries the sign (-1)^i, and faces that meet on a row are added in the
    field."""
    q, nontrivial, products = F.q, F.nontrivial, F.products
    Q = q ** (s - 1)
    R = [[right[g][a] * Q for a in nontrivial] for g in range(V)]
    L = [[left[a][g] * Q for g in range(V)] for a in nontrivial]
    # (sign (-1)^(i+s) negative, q^(s-i+1), q^(s-i), q^(s-i-1)) per middle face i:
    # t_i t_i+1 is the digit pair x // q^(s-i-1) % q^2
    mids = [((i + s) % 2, q ** (s - i + 1), q ** (s - i), q ** (s - i - 1)) for i in range(1, s)]
    for j in range(V * q * Q) if cols is None else cols:
        g0, x = divmod(j, q * Q)
        base = g0 * Q
        if p == 2:
            v = (1 << (R[g0][x // Q] + x % Q)) ^ (1 << (L[x % q][g0] + x // q))
            for _, hi, mid, lo in mids:
                pre, r = divmod(x, hi)
                w = products[r // lo]
                if w is not None:
                    v ^= 1 << (base + pre * mid + w * lo + r % lo)
            yield v
            continue
        # the last face has sign +1; each face is one bit, added by bit tests,
        # which take about a quarter less time here than _face_sum's six-operation add
        P, N = 1 << (L[x % q][g0] + x // q), 0
        faces = [(s % 2, 1 << (R[g0][x // Q] + x % Q))]
        for neg, hi, mid, lo in mids:
            pre, r = divmod(x, hi)
            w = products[r // lo]
            if w is not None:
                faces.append((neg, 1 << (base + pre * mid + w * lo + r % lo)))
        for neg, b in faces:
            if neg:  # subtract b: add it to the negation
                P, N = N, P
            if N & b:
                N ^= b
            elif P & b:
                P ^= b
                N |= b
            else:
                P |= b
            if neg:
                P, N = N, P
        yield P, N


def class_faces(F: FaceTables, K: Sequence[int]) -> tuple:
    """The arguments of ``coboundary_vectors`` before the degree for the
    block C^*(G, k[K]) of a conjugacy class K, listed as its members: the
    coboundary on keys (args, y) with y in K, y at position i of K having
    index idx(args)*|K| + i.  Face 0 and the middle faces keep y, and the
    last face, b, sends it to b^-1 y b, so left[a][i] = i and right[i][b]
    is the position of b^-1 K[i] b in K.  K = (identity,) gives V = 1 and
    constant tables, trivial coefficients, in either layout."""
    G = F.G
    mult, inv = G.mult, G.inv
    pos = {y: i for i, y in enumerate(K)}
    return (F, len(K), [range(len(K))] * G.order,
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
    seed: Optional[Callable] = None  # see ``cohomology``

    def __init__(self, p: int):
        self.p = p
        self._basis: Dict[int, List[Key]] = {}
        self._index: Dict[int, Dict[Key, int]] = {}
        self._matrix: Dict[int, SparseMatrix] = {}
        self._cohomology: Dict[int, CohomologySpace] = {}
        self._images: Dict[int, tuple] = {}  # degree n -> image_echelon(matrix(n - 1))
        self._faces: Dict[bool, tuple] = {}

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
        # the one key cache, which ``basis`` lists.  Neither this nor
        # ``_columns`` calls ``basis``: perfbench's tracer opens a span
        # there, and its span observers, which hold the tracer's lock, may
        # read a matrix's lazy ``columns``
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

    def coboundary_faces(self, rows: bool = False) -> tuple:
        """The arguments of ``coboundary_vectors`` before the degree, in the
        chain layout or in that of rows, built once per complex by the
        subclass's ``new_faces``."""
        if rows not in self._faces:
            self._faces[rows] = self.new_faces(rows)
        return self._faces[rows]

    def matrix(self, d: int) -> SparseMatrix:
        """Signed differential degree d -> d+1 over the canonical bases,
        kept on the complex.  Its dict columns are built from
        ``unsigned_terms`` on first read of ``columns``.  At p <= 3 it
        streams from the face tables of the subclass's ``coboundary_faces``
        instead, on every pass, and nothing holds them: its columns out of
        d >= 0, and its columns and rows out of d <= -2."""
        self.check_degree(d)
        self.check_degree(d + 1)
        if d in self._matrix:
            return self._matrix[d]
        vectors = rows = None
        p = self.p
        if p <= 3 and d != -1:
            faces = self.coboundary_faces()
            if d >= 0:
                vectors = lambda cols=None: select(coboundary_vectors(*faces, d, p), cols)
            else:
                vectors = lambda cols=None: boundary_vectors(*faces, -d - 1, p, cols)
                rows = lambda: coboundary_vectors(*self.coboundary_faces(rows=True), -d - 2, p)
        self._matrix[d] = SparseMatrix(self.dim(d + 1), self.dim(d), p,
                                       build=lambda: self._columns(d), vectors=vectors, rows=rows)
        return self._matrix[d]

    def cohomology(self, n: int) -> CohomologySpace:
        """ker(d_n)/im(d_{n-1}) with deterministic representative cocycles,
        built once per degree.  On that build ``seed(self, n)``, if the
        complex has a seed, may return (cocycles, dim): elements of degree n
        that span the cohomology mod im d_(n-1), and its dimension read
        elsewhere.  The quotient then takes its representatives from them
        without eliminating d_n (``QuotientSpace._seed``); they are the
        same."""
        if n in self._cohomology:
            return self._cohomology[n]
        seeded = None if self.seed is None else self.seed(self, n)
        if seeded is None:
            quotient = QuotientSpace(self.matrix(n), self.matrix(n - 1))
        else:
            idx = self.index(n)
            cocycles = [{idx[k]: x for k, x in z.coeffs.items()} for z in seeded[0]]
            quotient = QuotientSpace(self.matrix(n), self.matrix(n - 1), cocycles, seeded[1])
        space = self._cohomology[n] = CohomologySpace(self, n, quotient)
        return space

    def built(self, n: int) -> bool:
        """Whether ``cohomology(n)`` has been built."""
        return n in self._cohomology

    def bounding(self, elem):
        """An element c of degree n-1 with d(c) = elem if the echelon of
        im d_(n-1), kept per degree, clears elem to zero (elem lies in that
        image exactly then), else None.  The caller certifies d(c) = elem."""
        n = elem.degree
        if n not in self._images:
            self._images[n] = image_echelon(self.matrix(n - 1))
        E, cols = self._images[n]
        idx = self.index(n)
        w, c = E.clear(E.split({idx[k]: x for k, x in elem.coeffs.items()}), E.split({}))
        if E.support(w):
            return None
        basis = self.basis(n - 1)
        return self.element(n - 1, {basis[i if cols is None else cols[i]]: -x
                                    for i, x in E.entries(c).items()})

    def random_element(self, d: int, rng, terms: int = 3):
        basis = self.basis(d)
        coeffs: Dict[Key, int] = {}
        for _ in range(terms if basis else 0):
            k = basis[rng.randrange(len(basis))]
            c = rng.randrange(1, self.p)
            _acc(coeffs, k, c)
        return self.element_cls(self, d, coeffs)


class DComplex(_BaseComplex):
    """The Tate-Hochschild cochain complex of kG over F_p on a degree window,
    on the keys (args, h) of the module docstring.  ``cohomology(n)`` needs
    n-1 and n+1 in the window, as matrix(n-1) and matrix(n) do."""

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

    def new_faces(self, rows: bool) -> tuple:
        """kG acts on both ends by G.mult."""
        G = self.group
        return FaceTables(G, G.nontrivial, rows), G.order, G.mult, G.mult


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

    def new_faces(self, rows: bool) -> tuple:
        """The block of the identity class: one value (V = 1) that both end
        terms leave fixed."""
        H = self.subgroup
        return class_faces(FaceTables(H.parent, H.nontrivial, rows), (0,))
