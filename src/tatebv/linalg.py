"""Exact linear algebra over prime fields F_p.

Everything here is integer arithmetic mod p: sparse vectors are dicts
mapping basis indices to nonzero residues, matrices are column-major
lists of such dicts.  Elimination is deterministic (the pivot columns are
the leftmost-greedy independent set), so ranks, kernel bases and quotient
representatives are bit-identical across runs.

``_eliminate``, the one place an engine is chosen, picks one by p and shape:

* p = 2 and p = 3: the bitset echelon core ``_Bitsets`` (one Python-int
  bitset per vector at p = 2, a bit-sliced pair at p = 3), by rows for
  ``pivot_columns`` and ``rank`` of wide matrices (ncols > nrows), else
  by columns.  A matrix with packed ``vectors`` (the coboundaries that
  ``complexes`` builds from face maps) streams them straight in and
  skips ``split``; its dict ``columns`` are built only on demand.
  ``QuotientSpace`` keeps its pivots on the same core;
* 5 <= p <= 46337, i.e. (p-1)^2 < 2^31, on at most 4096 columns and 16M
  entries: numpy int32 reduced row echelon form, whose products of two
  residues cannot overflow.  numpy is imported on the first use of this
  engine, so jobs at p = 2 and p = 3 never load it;
* otherwise: ``ColumnReducer`` on dict columns, which also holds
  ``QuotientSpace``'s pivots at p >= 5.

All engines give the same pivot set and the same kernel basis.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

DENSE_COLUMN_LIMIT = 4096
DENSE_ENTRY_LIMIT = 16_000_000


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality of n < PRIME_BOUND; raises ValueError above it."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided exactly only below {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SparseVector:
    """Sparse vector over F_p, keyed by arbitrary hashable basis indices."""

    __slots__ = ("p", "entries")

    def __init__(self, p: int, entries: Optional[Dict[Hashable, int]] = None):
        self.p = p
        self.entries: Dict[Hashable, int] = {}
        if entries:
            for k, v in entries.items():
                v %= p
                if v:
                    self.entries[k] = v

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.p == other.p and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SparseVector(p={self.p}, {self.entries!r})"

    def copy(self) -> "SparseVector":
        out = SparseVector(self.p)
        out.entries = dict(self.entries)
        return out

    def get(self, key: Hashable) -> int:
        return self.entries.get(key, 0)

    def scale(self, c: int) -> "SparseVector":
        c %= self.p
        out = SparseVector(self.p)
        if c:
            out.entries = {k: (v * c) % self.p for k, v in self.entries.items()}
        return out


def add_scaled_inplace(dst: Dict, src: Dict, c: int, p: int) -> None:
    """dst += c * src, dropping zeros."""
    c %= p
    if not c:
        return
    for k, v in src.items():
        w = (dst.get(k, 0) + c * v) % p
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


class SparseMatrix:
    """Column-major sparse matrix over F_p.

    ``columns`` is a list of dicts.  A matrix made with ``build`` computes
    it on first read.  ``vectors``, if given, is a zero-argument callable
    yielding the same columns in order as vectors of the p <= 3 bitset
    core; elimination then streams them and never reads ``columns``."""

    __slots__ = ("nrows", "ncols", "p", "_columns", "_build", "vectors")

    def __init__(self, nrows: int, ncols: int, p: int, build: Optional[Callable] = None,
                 vectors: Optional[Callable[[], Iterable]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self._build = build
        self._columns: Optional[List[Dict[int, int]]] = None if build else [dict() for _ in range(ncols)]
        self.vectors = vectors

    @property
    def columns(self) -> List[Dict[int, int]]:
        if self._columns is None:
            self._columns = self._build()
        return self._columns

    def set_entry(self, i: int, j: int, v: int) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i},{j}) out of bounds")
        v %= self.p
        if v:
            self.columns[j][i] = v
        else:
            self.columns[j].pop(i, None)

    def apply(self, v: Dict[int, int]) -> Dict[int, int]:
        """Matrix-vector product; v is a sparse vector over column indices."""
        out: Dict[int, int] = {}
        for j, c in v.items():
            add_scaled_inplace(out, self.columns[j], c, self.p)
        return out

    def triples(self) -> Iterable[Tuple[int, int, int]]:
        for j, col in enumerate(self.columns):
            for i in sorted(col):
                yield (i, j, col[i])


class ColumnReducer:
    """Incremental column echelon form on dict columns with combination
    tracking, the dict engine for p >= 5.

    Columns are fed in order; each is reduced against the established
    pivots (applied in creation order).  A column that survives becomes a
    pivot (normalized, pivot row = minimal remaining row index); one that
    dies yields a kernel combination.  ``QuotientSpace`` uses the steps of
    ``feed`` as it uses those of ``_Bitsets``.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: List[Tuple[int, Dict[int, int], Optional[Dict[int, int]]]] = []
        self.kernel: List[Dict[int, int]] = []
        self._fed = 0

    def feed(self, column: Dict[int, int], track: bool = True) -> None:
        v, c = self.reduce(dict(column), {self._fed: 1} if track else None)
        self._fed += 1
        if v:
            self.push(*self.normalize(v, c))
        elif c is not None:
            self.kernel.append(c)

    split = staticmethod(dict)
    support = entries = staticmethod(lambda v: v)
    coords = staticmethod(lambda c, n: [c.get(k, 0) for k in range(n)])

    def reduce(self, v: Dict[int, int], c: Optional[Dict[int, int]]):
        """v minus the multiples of the pivots that clear their rows, c
        (None: untracked) minus the same multiples of their combinations;
        both are updated in place."""
        p = self.p
        for row, w, d in self.pivots:
            x = v.get(row)
            if x:
                add_scaled_inplace(v, w, -x, p)
                if c is not None:
                    add_scaled_inplace(c, d, -x, p)
        return v, c

    def normalize(self, v: Dict[int, int], c: Optional[Dict[int, int]]):
        """(v, c) scaled so that v's entry at its lowest row is 1."""
        p = self.p
        inv = pow(v[min(v)], p - 2, p)
        if inv != 1:
            v, c = (u if u is None else {k: x * inv % p for k, x in u.items()} for u in (v, c))
        return v, c

    def push(self, v: Dict[int, int], c: Optional[Dict[int, int]]) -> None:
        self.pivots.append((min(v), v, c))

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _dense_eligible(M: SparseMatrix) -> bool:
    """Whether the numpy int32 engine runs on M: p >= 5 with (p-1)^2 < 2^31,
    so that a product of two residues fits int32, on a matrix small enough
    to hold densely.  p = 2 and p = 3 always take the bitset engines."""
    return (M.p > 3 and (M.p - 1) ** 2 < 2 ** 31
            and M.ncols <= DENSE_COLUMN_LIMIT and M.nrows * max(M.ncols, 1) <= DENSE_ENTRY_LIMIT)


def _dense_rref(M: SparseMatrix):
    """Reduced row echelon form (numpy, int32 mod p): (R, pivot column list)."""
    import numpy as np
    arr = np.zeros((M.nrows, M.ncols), dtype=np.int32)
    for j, col in enumerate(M.columns):
        for i, v in col.items():
            arr[i, j] = v
    p = M.p
    r = 0
    pivots: List[int] = []
    for j in range(M.ncols):
        nz = np.nonzero(arr[r:, j])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            arr[[r, piv]] = arr[[piv, r]]
        inv = pow(int(arr[r, j]), p - 2, p)
        if inv != 1:
            arr[r] = (arr[r] * inv) % p
        rows = np.nonzero(arr[:, j])[0]
        rows = rows[rows != r]
        if rows.size:
            arr[rows] = (arr[rows] - np.outer(arr[rows, j], arr[r])) % p
        pivots.append(j)
        r += 1
        if r == M.nrows:
            break
    return arr[:r], pivots


def _bits(x: int) -> List[int]:
    """Positions of the set bits of x >= 0, ascending."""
    s = bin(x)[:1:-1]
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


class _Bitsets:
    """Pivots in row echelon form over F_2 or F_3 on Python-int bitsets,
    the M4RI idea in pure Python; one instance per elimination.

    Per field: ``split`` turns a dict of entries into a vector; ``reduce``
    clears the lowest pivot row a vector has set until none is left,
    adding the same multiples of pivot combinations to a tracked one (a
    pivot has no set bit below its own row, so each step changes only
    rows above it and applies every pivot at most once); ``normalize``
    scales a vector to 1 at its lowest set row and ``push`` makes it the
    pivot there; ``entries`` and ``coords`` read a vector back as a dict or
    a list.  Pivots are never back-substituted: Gauss-Jordan reduced pivots
    were measured 4-5x slower on the matrices of ``dims`` at p = 2.
    """

    def __init__(self):
        self.at: List[Optional[tuple]] = []  # pivot row -> flat(vector, combination)
        self.mask = 0  # the pivot rows

    def push(self, v, c) -> None:
        """Make v (nonzero, normalized, no set pivot row) the pivot at its
        lowest set row, with combination c.  A pivot holding 2 there would
        never clear that row in ``reduce``, so it is refused."""
        s = self.support(v)
        if self.twos(v) & s & -s:
            raise AssertionError("pivot not normalized: its lowest entry is 2")
        row = (s & -s).bit_length() - 1
        if row >= len(self.at):
            self.at.extend([None] * (row + 1 - len(self.at)))
        self.at[row] = self.flat(v, c)
        self.mask |= s & -s

    def entries(self, v, first: Optional[int] = None) -> Dict[int, int]:
        """v as {index: entry} ascending, or its largest index ``first`` first."""
        keys = _bits(self.support(v))
        out = dict.fromkeys(keys if first is None else [first] + keys[:-1], 1)
        for i in _bits(self.twos(v)):
            out[i] = 2
        return out


class _GF2(_Bitsets):
    """F_2: a vector is one bitset, and XOR is the whole row operation."""

    split = staticmethod(lambda entries: sum(1 << i for i in entries))
    unit = staticmethod(lambda j: 1 << j)
    support = staticmethod(lambda v: v)
    twos = staticmethod(lambda v: 0)
    coords = staticmethod(lambda c, n: [c >> k & 1 for k in range(n)])
    normalize = flat = staticmethod(lambda v, c: (v, c))

    def reduce(self, v: int, c: Optional[int]):
        at, mask = self.at, self.mask
        track = c is not None
        hit = v & mask
        while hit:
            w, d = at[(hit & -hit).bit_length() - 1]
            v ^= w
            if track:
                c ^= d
            hit = v & mask
        return v, c


class _GF3(_Bitsets):
    """F_3, bit-sliced (Boothby & Bradshaw, 2009): a vector is a pair (P, N)
    of bitsets, the indices holding 1 and those holding 2 = -1.  Negation
    swaps the pair; addition takes six OR/XOR operations,
    t = (P | N') ^ (N | P'), sum = ((N | N') ^ t, (P | P') ^ t)."""

    unit = staticmethod(lambda j: (1 << j, 0))
    support = staticmethod(lambda v: v[0] | v[1])
    twos = staticmethod(lambda v: v[1])
    coords = staticmethod(lambda c, n: [c[0] >> k & 1 | (c[1] >> k & 1) << 1 for k in range(n)])
    flat = staticmethod(lambda v, c: (*v, *(c or (0, 0))))

    @staticmethod
    def split(entries: Dict[int, int]) -> Tuple[int, int]:
        P = N = 0
        for i, x in entries.items():
            if x == 1:
                P |= 1 << i
            else:
                N |= 1 << i
        return P, N

    @staticmethod
    def normalize(v: Tuple[int, int], c):
        """(v, c), both negated if v's lowest entry is 2."""
        s = v[0] | v[1]
        if v[1] & s & -s:
            return (v[1], v[0]), c if c is None else (c[1], c[0])
        return v, c

    def reduce(self, v: Tuple[int, int], c: Optional[Tuple[int, int]]):
        at, mask = self.at, self.mask
        P, N = v
        track = c is not None
        cp, cn = c if track else (0, 0)
        hit = (P | N) & mask
        while hit:
            low = hit & -hit
            qp, qn, rp, rn = at[low.bit_length() - 1]
            if P & low:  # entry 1: subtract the pivot, i.e. add its negation; entry 2: add it
                qp, qn, rp, rn = qn, qp, rn, rp
            t = (P | qn) ^ (N | qp)
            P, N = (N | qn) ^ t, (P | qp) ^ t
            if track:
                t = (cp | rn) ^ (cn | rp)
                cp, cn = (cn | rn) ^ t, (cp | rp) ^ t
            hit = (P | N) & mask
        return (P, N), (cp, cn) if track else None


_BITSETS = {2: _GF2, 3: _GF3}


def _bitset_eliminate(vectors: Iterable, p: int, track: bool):
    """(echelon, indices of the vectors that became pivots, kernel basis or
    None without track) of feeding vectors of the bitset core in order to
    a bitset echelon at p <= 3.  A dead vector's combination is 1 at its
    own index (no pivot combination reaches it) plus entries at pivot
    indices only: the canonical kernel vector of that free index, own
    index first."""
    E = _BITSETS[p]()
    unit, reduce, support = E.unit, E.reduce, E.support
    pivots: List[int] = []
    kernel: List[SparseVector] = []
    for j, v in enumerate(vectors):
        v, c = reduce(v, unit(j) if track else None)
        if support(v):
            E.push(*E.normalize(v, c))
            pivots.append(j)
        elif track:
            sv = SparseVector(p)
            sv.entries = E.entries(c, first=j)
            kernel.append(sv)
    return E, pivots, kernel if track else None


def _dict_columns(M: SparseMatrix) -> Iterable[Dict[int, int]]:
    """M's columns as dicts in order; a matrix with ``vectors`` is read
    back from them, and nothing is stored."""
    if M.vectors is None:
        return M.columns
    return map(_BITSETS[M.p]().entries, M.vectors())


def column_vectors(M: SparseMatrix, js: Sequence[int]) -> List[SparseVector]:
    """M's columns js (ascending) as SparseVectors."""
    flags = bytearray(M.ncols)
    for j in js:
        flags[j] = 1
    out = []
    for col in compress(_dict_columns(M), flags):
        sv = SparseVector(M.p)
        sv.entries = dict(col)
        out.append(sv)
    return out


def _rows(M: SparseMatrix) -> List[Dict[int, int]]:
    rows: List[Dict[int, int]] = [{} for _ in range(M.nrows)]
    for j, col in enumerate(_dict_columns(M)):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _eliminate(M: SparseMatrix, track: bool):
    """(pivot columns, kernel basis or None without track) by the engine
    rule of the module docstring; the one place an engine is chosen."""
    p = M.p
    if p <= 3:
        split = _BITSETS[p].split
        if not track and M.ncols > M.nrows:
            # by rows: the lowest set columns of an echelon basis of M's row
            # space are exactly M's leftmost-greedy independent columns
            return _bits(_bitset_eliminate(map(split, _rows(M)), p, False)[0].mask), None
        vectors = M.vectors() if M.vectors is not None else map(split, M.columns)
        return _bitset_eliminate(vectors, p, track)[1:]
    if _dense_eligible(M):
        R, pivots = _dense_rref(M)
        if not track:
            return pivots, None
        pivot_set = set(pivots)
        out = []
        for j in range(M.ncols):
            if j in pivot_set:
                continue
            sv = SparseVector(p)
            sv.entries[j] = 1
            for i, pc in enumerate(pivots):
                v = int(R[i, j]) % p
                if v:
                    sv.entries[pc] = (-v) % p
            out.append(sv)
        return pivots, out
    red = ColumnReducer(p)
    pivots = []
    for j, col in enumerate(M.columns):
        before = red.rank
        red.feed(col, track=track)
        if red.rank > before:
            pivots.append(j)
    return pivots, [SparseVector(p, c) for c in red.kernel] if track else None


def rank(M: SparseMatrix) -> int:
    return len(_eliminate(M, False)[0])


def pivot_columns(M: SparseMatrix) -> List[int]:
    """Indices of a deterministic maximal independent set of columns: the
    leftmost-greedy one."""
    return _eliminate(M, False)[0]


def kernel_basis(M: SparseMatrix) -> List[SparseVector]:
    """Vectors v (over column indices) with Mv = 0 spanning the kernel.

    Each kernel vector carries coefficient 1 at its own free column and
    support only at pivot columns left of it (reduced echelon shape), so
    the basis is unique and the free column is each vector's largest
    index.  Vectors come in free-column order.
    """
    return _eliminate(M, True)[1]


def _free_columns(kernel: Sequence[SparseVector]) -> Dict[int, int]:
    """{free column f_k: k} of a reduced kernel basis, in O(nnz): vector k
    has coefficient 1 at its largest index f_k and no other vector has an
    entry there.  Raises ValueError for any other list of vectors."""
    free: Dict[int, int] = {}
    for k, v in enumerate(kernel):
        f = max(v.entries, default=None)
        if f is None or v.entries[f] != 1 or f in free:
            raise ValueError("kernel basis is not reduced")
        free[f] = k
    for v in kernel:
        if len(v.entries.keys() & free.keys()) != 1:
            raise ValueError("kernel basis is not reduced")
    return free


class QuotientSpace:
    """ker / im with deterministic representatives and a coordinate solver.

    ``kernel`` must be a reduced basis as ``kernel_basis`` returns it
    (checked), so a vector of its span has its entries at the free columns
    as coordinates; ``image`` vectors must lie in that span (violations
    signal a broken differential).  The representatives are the kernel
    vectors whose columns of [Phi | I] are pivot columns, Phi holding the
    image coordinates, so ``dim`` needs no full-space elimination.
    project() expresses any vector of the kernel span in the
    representative basis mod the image; lift() goes back.  Both use the
    full-space pivots of ``_echelon``, built on first use: bitsets at
    p <= 3, a ``ColumnReducer`` at p >= 5.
    """

    def __init__(self, p: int, kernel: Sequence[SparseVector], image: Sequence[SparseVector]):
        self.p = p
        self.kernel_basis = list(kernel)
        self.image_basis = list(image)
        free = _free_columns(self.kernel_basis)
        n, m = len(self.image_basis), len(self.kernel_basis)
        coords = SparseMatrix(m, n + m, p)
        for j, v in enumerate(self.image_basis):
            x = {free[i]: c for i, c in v.entries.items() if i in free}
            w = dict(v.entries)
            for k, c in x.items():
                add_scaled_inplace(w, self.kernel_basis[k].entries, -c, p)
            if w:
                raise ValueError("image vector outside kernel span (d^2 != 0?)")
            coords.columns[j] = x
        coords.columns[n:] = [{k: 1} for k in range(m)]
        cols = pivot_columns(coords)
        self._image_pivots = [j for j in cols if j < n]
        self._rep_kernel = [j - n for j in cols if j >= n]
        self.dim = len(self._rep_kernel)

    @cached_property
    def _echelon(self):
        """Full-space pivots: the independent image vectors, then the
        representative kernel vectors, each reduced by the earlier pivots
        and normalized to 1 at its lowest row.  Pivot k is the unique vector
        of (fed vector + span of earlier pivots) that is zero at every
        earlier pivot row, so neither it nor a coordinate of project()
        depends on the order in which an engine clears those rows.  The
        combination of representative k's pivot is -e_k, so that reducing
        a vector collects its coordinates; an image pivot's is zero.
        Returns the echelon and its pivot vectors in the order fed."""
        p = self.p
        E = _BITSETS[p]() if p <= 3 else ColumnReducer(p)
        fed = [(self.image_basis[j], {}) for j in self._image_pivots]
        fed += [(self.kernel_basis[j], {k: p - 1}) for k, j in enumerate(self._rep_kernel)]
        pivots = []
        for vec, tag in fed:
            v, _ = E.reduce(E.split(vec.entries), None)
            pivots.append(E.normalize(v, None)[0])
            E.push(pivots[-1], E.split(tag))
        return E, pivots

    @cached_property
    def representatives(self) -> List[SparseVector]:
        E, pivots = self._echelon
        return [SparseVector(self.p, E.entries(v)) for v in pivots[len(self._image_pivots):]]

    def project(self, v: SparseVector) -> List[int]:
        """Coordinates of v's class; raises if v is not in the kernel span."""
        E = self._echelon[0]
        w, c = E.reduce(E.split(v.entries), E.split({}))
        if E.support(w):
            raise ValueError("vector is not in the kernel span (not a cocycle)")
        return E.coords(c, self.dim)

    def lift(self, coords: Sequence[int]) -> SparseVector:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        out = SparseVector(self.p)
        for c, rep in zip(coords, self.representatives):
            add_scaled_inplace(out.entries, rep.entries, c, self.p)
        return out
