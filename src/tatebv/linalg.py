"""Exact linear algebra over prime fields F_p.

Everything here is integer arithmetic mod p: sparse vectors are dicts
mapping basis indices to nonzero residues, matrices are column-major
lists of such dicts.  Elimination is deterministic (columns are fed left
to right, so the pivot columns are the leftmost-greedy independent set),
so ranks, kernel bases and quotient representatives are bit-identical
across runs.

``kernel_basis``, ``pivot_columns`` and ``rank`` pick one of four exact
engines, chosen in ``_eliminate`` from p (and, for numpy, the matrix
size):

* p = 2: every column is packed into one Python-int bitset over rows and
  XOR is the whole row operation (the M4RI idea, in pure Python);
* p = 3: the same loop on bit-sliced columns, a pair of bitsets holding
  the rows of entry 1 and of entry 2 = -1;
* 5 <= p <= 46337, i.e. (p-1)^2 < 2^31, on matrices of at most 4096
  columns and 16M entries: numpy int32 reduced row echelon form, whose
  products of two residues cannot overflow;
* otherwise: ``ColumnReducer`` on dict columns.

All four give the same pivot set and the same kernel basis.
``QuotientSpace`` eliminates only in the coordinates that such a kernel
basis gives its span, never again in the full space.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

DENSE_COLUMN_LIMIT = 4096
DENSE_ENTRY_LIMIT = 16_000_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    """Column-major sparse matrix over F_p."""

    __slots__ = ("nrows", "ncols", "p", "columns")

    def __init__(self, nrows: int, ncols: int, p: int):
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self.columns: List[Dict[int, int]] = [dict() for _ in range(ncols)]

    def set_entry(self, i: int, j: int, v: int) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i},{j}) out of bounds")
        v %= self.p
        if v:
            self.columns[j][i] = v
        else:
            self.columns[j].pop(i, None)

    def add_entry(self, i: int, j: int, v: int) -> None:
        self.set_entry(i, j, (self.columns[j].get(i, 0) + v) % self.p)

    def column(self, j: int) -> Dict[int, int]:
        return self.columns[j]

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
    """Incremental column echelon form with combination tracking.

    Columns are fed in order; each is reduced against the established
    pivots (applied in creation order).  A column that survives becomes a
    pivot (normalized, pivot row = minimal remaining row index); one that
    dies yields a kernel combination.
    """

    def __init__(self, p: int):
        self.p = p
        self.pivots: List[Tuple[int, Dict[int, int], Optional[Dict[int, int]]]] = []
        self.kernel: List[Dict[int, int]] = []
        self._fed = 0

    def feed(self, column: Dict[int, int], track: bool = True) -> None:
        p = self.p
        j = self._fed
        self._fed += 1
        v = dict(column)
        combo: Optional[Dict[int, int]] = {j: 1} if track else None
        for row, col, pcombo in self.pivots:
            c = v.get(row)
            if c:
                add_scaled_inplace(v, col, -c, p)
                if combo is not None and pcombo is not None:
                    add_scaled_inplace(combo, pcombo, -c, p)
        if not v:
            if combo is not None:
                self.kernel.append(combo)
            return
        row = min(v)
        inv = pow(v[row], self.p - 2, self.p)
        if inv != 1:
            v = {k: (val * inv) % self.p for k, val in v.items()}
            if combo is not None:
                combo = {k: (val * inv) % self.p for k, val in combo.items()}
        self.pivots.append((row, v, combo))

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


def _gf2_eliminate(M: SparseMatrix, track: bool):
    """(pivot columns, kernel basis or None without track) over F_2, by
    column elimination on Python-int bitsets.

    Each column is a bitset over rows and its combination a bitset over
    columns.  A column is reduced by XORing the pivot at the lowest pivot
    row it has set until it has none (a pivot has no set bit at a pivot
    row below its own, so each XOR only adds bits above that row); a
    surviving column becomes a pivot at its lowest set row.  Pivots stay
    in row echelon form, never back-substituted: keeping them Gauss-Jordan
    reduced was measured 4-5x slower on the matrices of ``dims`` at p = 2.
    A dead column's combination is its own bit plus bits at pivot columns
    only: the canonical kernel vector of that free column.
    """
    vecs: List[int] = []
    combos: List[int] = []
    slot = [0] * M.nrows  # pivot row -> index into vecs
    mask = 0
    pivots: List[int] = []
    kernel: List[SparseVector] = []
    for j, col in enumerate(M.columns):
        v = sum(1 << i for i in col)
        c = 1 << j if track else 0
        hit = v & mask
        while hit:
            k = slot[(hit & -hit).bit_length() - 1]
            v ^= vecs[k]
            if track:
                c ^= combos[k]
            hit = v & mask
        if not v:
            if track:
                sv = SparseVector(2)
                # own column first, then the pivot columns ascending
                sv.entries = dict.fromkeys([j] + _bits(c)[:-1], 1)
                kernel.append(sv)
            continue
        low = v & -v
        slot[low.bit_length() - 1] = len(vecs)
        vecs.append(v)
        combos.append(c)
        mask |= low
        pivots.append(j)
    return pivots, kernel if track else None


def _gf3_eliminate(M: SparseMatrix, track: bool):
    """(pivot columns, kernel basis or None without track) over F_3, by the
    loop of ``_gf2_eliminate`` on bit-sliced columns.

    A column is a pair (P, N) of Python-int bitsets over rows, the rows
    holding 1 and the rows holding 2 = -1, and its combination is such a
    pair over columns.  Negation swaps the pair; addition takes six
    OR/XOR operations, t = (P | N') ^ (N | P'), sum = ((N | N') ^ t,
    (P | P') ^ t), and subtraction adds the swapped pair (bit-slicing after
    Boothby & Bradshaw, 2009).  A column is reduced by the pivot at the
    lowest pivot row it has set, subtracted where that entry is 1 and
    added where it is 2, until none is left; a surviving column becomes a
    pivot, negated if needed so that its lowest entry is 1.  A dead
    column's combination is +1 at its own column (no pivot combination
    reaches it) plus entries at pivot columns only: the canonical kernel
    vector of that free column.
    """
    piv: List[Tuple[int, int, int, int]] = []  # (P, N, combination P, N)
    slot = [0] * M.nrows  # pivot row -> index into piv
    mask = 0
    pivots: List[int] = []
    kernel: List[SparseVector] = []
    for j, col in enumerate(M.columns):
        P = N = 0
        for i, x in col.items():
            if x == 1:
                P |= 1 << i
            else:
                N |= 1 << i
        cp, cn = (1 << j if track else 0), 0
        hit = (P | N) & mask
        while hit:
            low = hit & -hit
            qp, qn, rp, rn = piv[slot[low.bit_length() - 1]]
            if P & low:  # entry 1: subtract the pivot, i.e. add its negation
                qp, qn, rp, rn = qn, qp, rn, rp
            t = (P | qn) ^ (N | qp)
            P, N = (N | qn) ^ t, (P | qp) ^ t
            if track:
                t = (cp | rn) ^ (cn | rp)
                cp, cn = (cn | rn) ^ t, (cp | rp) ^ t
            hit = (P | N) & mask
        v = P | N
        if not v:
            if track:
                sv = SparseVector(3)
                # own column first, then the pivot columns ascending
                sv.entries = dict.fromkeys([j] + _bits(cp | cn)[:-1], 1)
                for i in _bits(cn):
                    sv.entries[i] = 2
                kernel.append(sv)
            continue
        low = v & -v
        if N & low:  # normalize the pivot to 1 at its lowest row
            P, N, cp, cn = N, P, cn, cp
        slot[low.bit_length() - 1] = len(piv)
        piv.append((P, N, cp, cn))
        mask |= low
        pivots.append(j)
    return pivots, kernel if track else None


def _eliminate(M: SparseMatrix, track: bool):
    """(pivot columns, kernel basis or None without track) by the engine
    rule of the module docstring; the one place an engine is chosen."""
    p = M.p
    if p == 2:
        return _gf2_eliminate(M, track)
    if p == 3:
        return _gf3_eliminate(M, track)
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
    if not track:
        return pivots, None
    out = []
    for combo in red.kernel:
        sv = SparseVector(p)
        sv.entries = dict(combo)
        out.append(sv)
    return pivots, out


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
    representative basis mod the image; lift() goes back.  Their
    full-space pivots are built on first use.
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
    def _pivots(self) -> List[Tuple[int, Dict[int, int], Optional[int]]]:
        """(row, vector, tag): the ColumnReducer pivots of the independent
        image vectors (tag None), then of the representatives (tag k)."""
        red = ColumnReducer(self.p)
        for j in self._image_pivots:
            red.feed(self.image_basis[j].entries, track=False)
        for k in self._rep_kernel:
            red.feed(self.kernel_basis[k].entries, track=False)
        tags = [None] * len(self._image_pivots) + list(range(self.dim))
        return [(row, w, tag) for (row, w, _), tag in zip(red.pivots, tags)]

    @cached_property
    def representatives(self) -> List[SparseVector]:
        return [SparseVector(self.p, w) for _row, w, tag in self._pivots if tag is not None]

    def project(self, v: SparseVector) -> List[int]:
        """Coordinates of v's class; raises if v is not in the kernel span."""
        p = self.p
        w = dict(v.entries)
        coords = [0] * self.dim
        for row, col, tag in self._pivots:
            c = w.get(row)
            if c:
                add_scaled_inplace(w, col, -c, p)
                if tag is not None:
                    coords[tag] = c % p
        if w:
            raise ValueError("vector is not in the kernel span (not a cocycle)")
        return coords

    def lift(self, coords: Sequence[int]) -> SparseVector:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        out = SparseVector(self.p)
        for c, rep in zip(coords, self.representatives):
            add_scaled_inplace(out.entries, rep.entries, c, self.p)
        return out
