"""Exact linear algebra over prime fields F_p.

Everything here is integer arithmetic mod p.  Matrices are column-major,
each column a dict mapping row indices to nonzero residues.  Each
elimination engine keeps vectors in its own format; plain
{index: residue} dicts go in and come out only at the edges:
``kernel_basis``, and ``QuotientSpace``'s ``representatives``, ``lift``
and the argument of ``project``.  Elimination is deterministic (the pivot
columns are the leftmost-greedy independent set), so ranks, kernel bases
and quotient representatives are bit-identical across runs.

``_engine(p)`` chooses every engine, by p alone:

* p = 2 and p = 3: the bitset echelon core ``_Bitsets`` (one Python-int
  bitset per vector at p = 2, a bit-sliced pair at p = 3).  A matrix with
  packed ``vectors`` or ``rows`` (the differentials that ``complexes``
  builds from face maps) streams them straight into the pass that reads
  them and skips ``split``; its dict ``columns`` are built only on demand;
* p >= 5: ``ColumnReducer``, the same steps on dict vectors.

``_eliminate`` runs one loop, the engine's ``feed``: on a matrix's
streamed ``rows`` (column j at bit ncols-1-j) for ``pivot_columns`` and
``rank``, else on its columns.  ``feed`` reduces each vector by the pivot
of its leading (top) row, one addition per step, and stops an independent
vector at its first leading row that holds no pivot.  Which entry leads
cannot move an output of ``feed``: the rank, the leftmost-greedy pivot
columns (a column is a pivot iff it is independent of the columns before
it) and each free column's kernel vector (1 there, support only on
earlier pivot columns) are unique; on rows, the leading rows of an
echelon basis of the row space are the leftmost-greedy columns, reversed.
``QuotientSpace`` picks its representatives with one more ``feed``, or,
seeded with cocycles, by ``clear``, which reduces a vector by a feed
echelon at its leading rows, highest first; ``clear`` on
``image_echelon`` also decides membership in an image.  Only
``QuotientSpace``'s ``representatives``, ``project`` and ``lift`` read an
echelon keyed by each pivot's lowest row (the steps ``reduce``,
``normalize`` and ``push`` of both engines), because the lowest rows of
that echelon are what they output.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


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

    ``columns`` is a list of dicts, which ``build`` computes on first
    read; ``build`` is None for a matrix that is only ever eliminated by
    its ``vectors``.  ``vectors``, if given, is a callable yielding the
    same columns in order as vectors of the p <= 3 bitset core, or, given
    an ascending list of column indices, only those columns; elimination
    by columns then streams them and never reads ``columns``, and
    ``QuotientSpace`` reads only the pivot columns of its image matrix.
    ``complexes`` gives every face-built matrix its ``vectors``, those out
    of degrees d <= -2 included, which select their columns by index
    arithmetic.
    ``rows`` likewise yields the rows as vectors of the engine for p, in
    any order and each up to sign, with column j at index ncols-1-j;
    ``pivot_columns`` and ``rank`` feed them, as they read the row space
    alone."""

    __slots__ = ("nrows", "ncols", "p", "_columns", "_build", "vectors", "rows")

    def __init__(self, nrows: int, ncols: int, p: int,
                 build: Optional[Callable[[], List[Dict[int, int]]]],
                 vectors: Optional[Callable[[], Iterable]] = None,
                 rows: Optional[Callable[[], Iterable]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        self._build = build
        self._columns: Optional[List[Dict[int, int]]] = None
        self.vectors = vectors
        self.rows = rows

    @property
    def columns(self) -> List[Dict[int, int]]:
        if self._columns is None:
            self._columns = self._build()
        return self._columns

    def triples(self) -> Iterable[Tuple[int, int, int]]:
        for j, col in enumerate(self.columns):
            for i in sorted(col):
                yield (i, j, col[i])


class ColumnReducer:
    """Column echelon form on dict vectors with combination tracking, the
    engine for p >= 5.  It has the steps of ``_Bitsets`` on dicts, so
    ``_eliminate`` and ``QuotientSpace`` drive both alike: the leading-row
    ``feed``, and for ``QuotientSpace`` the lowest-row ``reduce``,
    ``normalize`` and ``push``, which apply the pivots in creation order.
    """

    def __init__(self, p: int):
        self.p = p
        self.lead: Dict[int, tuple] = {}  # feed: leading row -> (vector, combination)
        self.pivots: List[Tuple[int, Dict[int, int], Optional[Dict[int, int]]]] = []

    split = support = staticmethod(lambda v: v)
    coords = staticmethod(lambda c, n: [c.get(k, 0) for k in range(n)])
    permute = staticmethod(lambda v, pos: {pos[k]: x for k, x in v.items()})

    def sub(self, v: Dict[int, int], w: Dict[int, int]) -> Dict[int, int]:
        out = dict(v)
        add_scaled_inplace(out, w, -1, self.p)
        return out

    def block_sums(self, v: Dict[int, int], m: int) -> List[int]:
        out = [0] * (max(v) // m + 1 if v else 0)
        for k, x in v.items():
            out[k // m] = (out[k // m] + x) % self.p
        return out

    @staticmethod
    def entries(v: Dict[int, int], first: Optional[int] = None) -> Dict[int, int]:
        """A copy of v, or with its largest index ``first`` first and the
        others ascending."""
        if first is None:
            return dict(v)
        return {k: v[k] for k in [first] + sorted(v)[:-1]}

    def feed(self, vectors: Iterable[Dict[int, int]], track: bool):
        """The leading-row ``feed`` of ``_Bitsets`` on dicts: each vector
        subtracts v[top] times the pivot of its top row, and the same
        multiple of that pivot's combination from its own, until its top
        row holds no pivot (it becomes the pivot there, scaled to 1 at that
        row) or it is zero."""
        p, lead = self.p, self.lead
        pivots: List[int] = []
        kernel: List[tuple] = []
        for j, v in enumerate(vectors):
            v = dict(v)
            c = {j: 1} if track else None
            while v:
                top = max(v)
                q = lead.get(top)
                if q is None:
                    lead[top] = self.normalize(v, c, top)
                    pivots.append(j)
                    break
                x = -v[top]
                add_scaled_inplace(v, q[0], x, p)
                if track:
                    add_scaled_inplace(c, q[1], x, p)
            else:
                if track:
                    kernel.append((j, c))
        return pivots, kernel if track else None

    def reduce(self, v: Dict[int, int], c: Optional[Dict[int, int]]):
        """Copies of v minus the multiples of the pivots that clear their
        rows and of c (None: untracked) minus the same multiples of their
        combinations; v and c themselves are left as they are."""
        p = self.p
        v = dict(v)
        c = c if c is None else dict(c)
        for row, w, d in self.pivots:
            x = v.get(row)
            if x:
                add_scaled_inplace(v, w, -x, p)
                if c is not None:
                    add_scaled_inplace(c, d, -x, p)
        return v, c

    def normalize(self, v: Dict[int, int], c: Optional[Dict[int, int]], row: Optional[int] = None):
        """(v, c) scaled so that v's entry at row, by default its lowest
        row, is 1."""
        p = self.p
        inv = pow(v[min(v) if row is None else row], p - 2, p)
        if inv != 1:
            v, c = (u if u is None else {k: x * inv % p for k, x in u.items()} for u in (v, c))
        return v, c

    def push(self, v: Dict[int, int], c: Optional[Dict[int, int]]) -> None:
        """Make v, which holds 1 at its lowest row, the pivot there with
        combination c."""
        self.pivots.append((min(v), v, c))

    def scale(self, v: Dict[int, int], c: int) -> Dict[int, int]:
        c %= self.p
        return {k: x * c % self.p for k, x in v.items()} if c else {}

    def pivot(self, row: int) -> Dict[int, int]:
        return self.lead[row][0]

    def clear(self, v: Dict[int, int], c: Optional[Dict[int, int]] = None,
              below: Optional[int] = None):
        """``_GF2.clear`` on dicts."""
        p, lead = self.p, self.lead
        v, c = dict(v), c if c is None else dict(c)
        while True:
            hit = [r for r in v if r in lead and (below is None or r < below)]
            if not hit:
                return v, c
            top = max(hit)
            x = -v[top]
            add_scaled_inplace(v, lead[top][0], x, p)
            if c is not None:
                add_scaled_inplace(c, lead[top][1], x, p)


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
    the M4RI idea in pure Python; one instance per elimination.  An
    instance holds one of two echelons, never both.

    ``feed`` keys each pivot by its leading (top) set row, the echelon form
    of M4RI (Albrecht, Bard & Hart, 2010): a vector subtracts the pivot of
    its top row, so it shortens at every step at the cost of one addition,
    until its top row holds no pivot (it becomes the pivot there, scaled to
    1 at that row) or it is zero.  It gives ranks, pivot columns (by
    columns, or the leading rows of a matrix's streamed rows) and kernels,
    and ``QuotientSpace``'s kernel and representative pick.  None of these
    depends on which entry leads: the rank, the leftmost-greedy pivot
    columns (a column is a pivot iff it is independent of the columns
    before it) and the kernel vector of each free column (1 there, support
    only on earlier pivot columns) are each unique.

    ``reduce``, ``normalize`` and ``push`` key each pivot by its lowest
    set row, for the outputs of ``QuotientSpace`` that read that echelon:
    its representatives, ``project`` and ``lift``.
    ``clear`` reduces a vector by the feed echelon (``pivot`` reads one of
    its vectors, ``rows`` the bitset of its leading rows).
    ``reduce`` clears the lowest pivot row a vector has set until none is
    left, adding the same multiples of pivot combinations to a tracked one
    (a pivot has no set bit below its own row, so each step changes only
    rows above it and applies every pivot at most once); ``normalize``
    scales a vector to 1 at its lowest set row and ``push`` makes it the
    pivot there.

    Per field, ``split`` turns a dict of entries into a vector, and
    ``entries`` and ``coords`` read a vector back as a dict or a list.
    ``permute`` (indices moved by a table), ``sub`` and ``block_sums``
    (the entry sums of consecutive blocks) serve the free-module vectors
    of ``harness._resolution`` and ``harness.sylow_ranks``, which read
    vectors back only through ``coords``; ``sub`` and ``scale`` (by a
    residue) serve ``_products`` too.
    Pivots are never back-substituted: Gauss-Jordan reduced pivots were
    measured 4-5x slower on the matrices of ``dims`` at p = 2.
    """

    def __init__(self):
        self.lead: Dict[int, tuple] = {}  # feed: leading row -> flat(vector, combination)
        self.at: List[Optional[tuple]] = []  # push: lowest row -> flat(vector, combination)
        self.mask = 0  # the lowest rows of the pivots in at, which reduce clears
        self._rows = (0, 0)  # (len(lead), the bitset of lead's rows) when last read

    def rows(self) -> int:
        """The bitset of the leading rows of the feed echelon; a feed only
        adds rows, so the count tells a stale one."""
        n, mask = self._rows
        if n != len(self.lead):
            mask = 0
            for t in self.lead:
                mask |= 1 << t
            self._rows = len(self.lead), mask
        return mask

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
        self.mask |= 1 << row

    def entries(self, v, first: Optional[int] = None) -> Dict[int, int]:
        """v as {index: entry} ascending, or its largest index ``first`` first."""
        keys = _bits(self.support(v))
        out = dict.fromkeys(keys if first is None else [first] + keys[:-1], 1)
        for i in _bits(self.twos(v)):
            out[i] = 2
        return out

    def block_sums(self, v, m: int) -> List[int]:
        """The sums mod p of v's entries in each block of m consecutive
        indices, up to its last nonzero block."""
        s, t, mask = self.support(v), self.twos(v), (1 << m) - 1
        out = []
        while s:
            out.append((bin(s & mask).count("1") + bin(t & mask).count("1")) % self.p)
            s, t = s >> m, t >> m
        return out


class _GF2(_Bitsets):
    """F_2: a vector is one bitset, and XOR is the whole row operation."""

    p = 2
    split = staticmethod(lambda entries: sum(1 << i for i in entries))
    permute = staticmethod(lambda v, pos: sum(1 << pos[k] for k in _bits(v)))
    sub = staticmethod(lambda v, w: v ^ w)
    support = staticmethod(lambda v: v)
    twos = staticmethod(lambda v: 0)
    coords = staticmethod(lambda c, n: [c >> k & 1 for k in range(n)])
    normalize = flat = staticmethod(lambda v, c: (v, c))

    scale = staticmethod(lambda v, c: v if c % 2 else 0)

    def pivot(self, row: int) -> int:
        return self.lead[row][0]

    def clear(self, v: int, c: Optional[int] = None, below: Optional[int] = None):
        """(v, c) less the multiples of the feed pivots that clear v's
        leading rows, highest first, until v sets none of them (only those
        under ``below`` if given); c (None: untracked) takes the same
        multiples of their combinations.  A pivot sets no row above its
        own, so each step sets only lower rows."""
        lead, mask = self.lead, self.rows()
        if below is not None:
            mask &= (1 << below) - 1
        track = c is not None
        hit = v & mask
        while hit:
            q = lead[hit.bit_length() - 1]
            v ^= q[0]
            if track:
                c ^= q[1]
            hit = v & mask
        return v, c

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

    def feed(self, vectors: Iterable[int], track: bool):
        lead = self.lead
        pivots: List[int] = []
        kernel: List[tuple] = []
        for j, v in enumerate(vectors):
            c = 1 << j if track else 0
            while v:
                top = v.bit_length() - 1
                q = lead.get(top)
                if q is None:
                    lead[top] = v, c
                    pivots.append(j)
                    break
                v ^= q[0]
                c ^= q[1]
            else:
                if track:
                    kernel.append((j, c))
        return pivots, kernel if track else None


class _GF3(_Bitsets):
    """F_3, bit-sliced (Boothby & Bradshaw, 2009): a vector is a pair (P, N)
    of bitsets, the indices holding 1 and those holding 2 = -1.  Negation
    swaps the pair; addition takes six OR/XOR operations,
    t = (P | N') ^ (N | P'), sum = ((N | N') ^ t, (P | P') ^ t)."""

    p = 3
    support = staticmethod(lambda v: v[0] | v[1])
    twos = staticmethod(lambda v: v[1])
    permute = staticmethod(lambda v, pos: (_GF2.permute(v[0], pos), _GF2.permute(v[1], pos)))
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
    def sub(v: Tuple[int, int], w: Tuple[int, int]) -> Tuple[int, int]:
        """v - w, the sum of v and w's negation (w[1], w[0])."""
        P, N = v
        t = (P | w[0]) ^ (N | w[1])
        return (N | w[0]) ^ t, (P | w[1]) ^ t

    @staticmethod
    def normalize(v: Tuple[int, int], c):
        """(v, c), both negated if v's lowest entry is 2."""
        s = v[0] | v[1]
        if v[1] & s & -s:
            return (v[1], v[0]), c if c is None else (c[1], c[0])
        return v, c

    scale = staticmethod(lambda v, c: v if c % 3 == 1 else (v[1], v[0]) if c % 3 else (0, 0))

    def pivot(self, row: int) -> Tuple[int, int]:
        return self.lead[row][:2]

    def clear(self, v: Tuple[int, int], c: Optional[Tuple[int, int]] = None,
              below: Optional[int] = None):
        """``_GF2.clear`` on bit-sliced pairs."""
        lead, mask = self.lead, self.rows()
        if below is not None:
            mask &= (1 << below) - 1
        P, N = v
        track = c is not None
        cp, cn = c if track else (0, 0)
        hit = (P | N) & mask
        while hit:
            top = hit.bit_length() - 1
            qp, qn, rp, rn = lead[top]
            if P >> top & 1:  # entry 1: subtract the pivot, i.e. add its negation; entry 2: add it
                qp, qn, rp, rn = qn, qp, rn, rp
            t = (P | qn) ^ (N | qp)
            P, N = (N | qn) ^ t, (P | qp) ^ t
            if track:
                t = (cp | rn) ^ (cn | rp)
                cp, cn = (cn | rn) ^ t, (cp | rp) ^ t
            hit = (P | N) & mask
        return (P, N), (cp, cn) if track else None

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

    def feed(self, vectors: Iterable[Tuple[int, int]], track: bool):
        lead = self.lead
        pivots: List[int] = []
        kernel: List[tuple] = []
        for j, (P, N) in enumerate(vectors):
            cp, cn = 1 << j if track else 0, 0
            while P or N:
                lp, ln = P.bit_length(), N.bit_length()
                top = (lp if lp > ln else ln) - 1
                q = lead.get(top)
                if q is None:
                    if ln > lp:  # entry 2 at the top row: store the negation
                        P, N, cp, cn = N, P, cn, cp
                    lead[top] = P, N, cp, cn
                    pivots.append(j)
                    break
                qp, qn, rp, rn = q
                if lp > ln:  # entry 1: subtract the pivot, i.e. add its negation; entry 2: add it
                    qp, qn, rp, rn = qn, qp, rn, rp
                t = (P | qn) ^ (N | qp)
                P, N = (N | qn) ^ t, (P | qp) ^ t
                t = (cp | rn) ^ (cn | rp)
                cp, cn = (cn | rn) ^ t, (cp | rp) ^ t
            else:
                if track:
                    kernel.append((j, (cp, cn)))
        return pivots, kernel if track else None


_BITSETS = {2: _GF2, 3: _GF3}


def _engine(p: int):
    """A new echelon of the engine for p: the bitset core at p <= 3, else a
    ``ColumnReducer``."""
    return _BITSETS[p]() if p <= 3 else ColumnReducer(p)


def select(items: Iterable, cols: Optional[Sequence[int]]) -> Iterable:
    """The items at the ascending indices cols, or all of them for None;
    it reads no item past the last index."""
    if cols is None:
        return items
    flags = bytearray(cols[-1] + 1 if cols else 0)
    for j in cols:
        flags[j] = 1
    return compress(items, flags)


def _vectors(M: SparseMatrix, E, cols: Optional[Sequence[int]] = None) -> Iterable:
    """M's columns in order as vectors of E's engine, or only those at the
    ascending indices cols, streamed from M's ``vectors`` where it has them."""
    if M.vectors is not None:
        return M.vectors(cols)
    return map(E.split, select(M.columns, cols))


def _products(M: SparseMatrix, vectors: Sequence[Dict[int, int]]) -> List:
    """M v for each dict vector v, as vectors of the engine for M.p, from
    one pass over M's columns at the union of their supports."""
    E = _engine(M.p)
    out = [E.split({}) for _ in vectors]
    cols = sorted(set().union(*vectors))
    for j, col in zip(cols, _vectors(M, E, cols) if cols else ()):
        for i, v in enumerate(vectors):
            x = v.get(j)
            if x:
                out[i] = E.sub(out[i], E.scale(col, -x))
    return out


def image_echelon(M: SparseMatrix) -> Tuple[object, Optional[List[int]]]:
    """(E, cols): E the tracked feed echelon, in the engine for M.p, of the
    columns of M at the ascending indices cols, which are M's pivot columns
    where M streams rows (they pick them cheaply), else None for all of
    them.  Its leading rows are those of im M, and its ``clear`` leaves a
    vector v zero exactly when v lies in im M, with a combination c, over
    positions in cols, such that M c = -v."""
    E = _engine(M.p)
    cols = pivot_columns(M) if M.rows is not None else None
    E.feed(_vectors(M, E, cols), True)
    return E, cols


def _eliminate(M: SparseMatrix, track: bool):
    """(pivot columns, kernel or None without track) of M, by ``feed`` on
    M's streamed rows if it has them and no kernel is asked for, else on its
    columns.  The kernel is a list of (free column, kernel vector) with the
    vector in the format of ``_engine(M.p)``: a dead vector's combination is
    1 at its own index (no pivot combination reaches it) plus entries at
    pivot indices only, the canonical kernel vector of that free index."""
    E = _engine(M.p)
    if M.rows is not None and not track:
        # the leading rows of an echelon basis of the row space, with column
        # j at bit ncols-1-j, are M's leftmost-greedy independent columns;
        # neither the order nor the signs of the rows matter
        E.feed(M.rows(), False)
        return sorted(M.ncols - 1 - t for t in E.lead), None
    return E.feed(_vectors(M, E), track)


def rank(M: SparseMatrix) -> int:
    return len(_eliminate(M, False)[0])


def pivot_columns(M: SparseMatrix) -> List[int]:
    """Indices of a deterministic maximal independent set of columns: the
    leftmost-greedy one."""
    return _eliminate(M, False)[0]


def kernel_basis(M: SparseMatrix) -> List[Dict[int, int]]:
    """Vectors v (over column indices) with Mv = 0 spanning the kernel.

    Each kernel vector carries coefficient 1 at its own free column and
    support only at pivot columns left of it (reduced echelon shape), so
    the basis is unique and the free column is each vector's largest
    index.  Vectors come in free-column order, each listing its free
    column first and then its pivot columns ascending.
    """
    entries = _engine(M.p).entries
    return [entries(c, first=j) for j, c in _eliminate(M, True)[1]]


class QuotientSpace:
    """ker(out) / im(into) for matrices with out * into = 0, with
    deterministic representatives and a coordinate solver.

    Vectors stay in the format of ``_engine(p)``: bitsets or bit-sliced
    pairs at p <= 3, dicts at p >= 5.  Plain {index: residue} dicts appear
    only at the edges: ``representatives``, ``lift`` and the argument of
    ``project``.

    One ``feed`` of the image basis (the pivot columns of ``into``) and
    then the kernel vectors of ``out`` picks the representatives: the
    image vectors, being independent, take the first pivots, and a kernel
    vector becomes a pivot exactly when it is independent of the image and
    of the kernel vectors before it.  The kernel vectors are independent
    too, so the feed finds len(kernel) pivots exactly when the image lies
    in their span; any other count means d^2 != 0, and ValueError.
    project() expresses any vector of the kernel span in the
    representative basis mod the image; lift() goes back.  Both use the
    full-space pivots of ``_echelon``, built on first use.

    Those representatives are the kernel vectors k_f (1 at f, support only
    on earlier pivot columns of ``out``) of the free columns f of ``out``
    that are no leading row T of the image: every nonzero image vector has
    a free column as its top row.  Given ``cocycles``, dict vectors of
    ker(out) that span it mod the image, and ``dim``, the dimension of the
    quotient read elsewhere, the second way takes the same k_f without
    eliminating ``out`` (``_seed``).
    """

    def __init__(self, out: SparseMatrix, into: SparseMatrix,
                 cocycles: Optional[Sequence[Dict[int, int]]] = None, dim: Optional[int] = None):
        if (into.p, into.nrows) != (out.p, out.ncols):
            raise ValueError("out * into is undefined: field or shape mismatch")
        p = self.p = out.p
        if cocycles is not None:
            self._seed(out, into, cocycles, dim)
            return
        kernel = _eliminate(out, True)[1]
        E = _engine(p)
        self.image_basis = list(_vectors(into, E, pivot_columns(into)))
        n = len(self.image_basis)
        pivots = E.feed(chain(self.image_basis, (c for _, c in kernel)), False)[0]
        if len(pivots) != len(kernel):
            raise ValueError("image vector outside kernel span (d^2 != 0?)")
        self._reps = [kernel[j - n][1] for j in pivots[n:]]
        self.dim = len(self._reps)

    def _seed(self, out: SparseMatrix, into: SparseMatrix, cocycles: Sequence[Dict[int, int]],
              dim: int) -> None:
        """The k_f from cocycles: one untracked feed of the columns of
        ``into`` gives the echelon of the image keyed by its leading rows T,
        whose pivots are the image basis (``_echelon``'s outputs depend only
        on the image it spans).  A cocycle w cleared at the T rows,
        highest first, is w'' = sum of w''[f] k_f over the free f outside T,
        and the reduced row echelon form of the w'' at their top rows is the
        set of k_f exactly when it has dim vectors.  Guards (ValueError):
        every cocycle in ker(out), by one pass over the columns of ``out``;
        exactly dim vectors; no representative set at a T row."""
        E = _engine(self.p)
        E.feed(_vectors(into, E), False)
        self.image_basis = [E.pivot(t) for t in E.lead]
        if any(E.support(v) for v in _products(out, cocycles)):
            raise ValueError("a seed vector is not a cocycle")
        R = _engine(self.p)
        R.feed([E.clear(E.split(w))[0] for w in cocycles], False)
        if len(R.lead) != dim:
            raise ValueError(f"the seed vectors span {len(R.lead)} classes, not {dim}")
        self._reps = [R.clear(R.pivot(t), below=t)[0] for t in sorted(R.lead)]
        if any(E.clear(v)[0] != v for v in self._reps):
            raise ValueError("a seeded representative is set at a leading row of the image")
        self.dim = dim

    @cached_property
    def _echelon(self):
        """Full-space pivots: the image vectors, then the representative
        kernel vectors, each reduced by the earlier pivots and normalized to
        1 at its lowest row.  Pivot k is the unique vector of (fed vector +
        span of earlier pivots) that is zero at every earlier pivot row, so
        neither it nor a coordinate of project() depends on the order in
        which an engine clears those rows.  The combination of
        representative k's pivot is -e_k, so that reducing a vector collects
        its coordinates; an image pivot's is zero.  Returns the echelon and
        its pivot vectors in the order fed."""
        p = self.p
        E = _engine(p)
        fed = [(v, E.split({})) for v in self.image_basis]
        fed += [(v, E.split({k: p - 1})) for k, v in enumerate(self._reps)]
        pivots = []
        for vec, tag in fed:
            pivots.append(E.normalize(E.reduce(vec, None)[0], None)[0])
            E.push(pivots[-1], tag)
        return E, pivots

    @cached_property
    def representatives(self) -> List[Dict[int, int]]:
        E, pivots = self._echelon
        return [E.entries(v) for v in pivots[len(self.image_basis):]]

    def project(self, v: Dict[int, int]) -> List[int]:
        """Coordinates of the class of v, a dict of residues in 1..p-1;
        raises if v is not in the kernel span."""
        E = self._echelon[0]
        w, c = E.reduce(E.split(v), E.split({}))
        if E.support(w):
            raise ValueError("vector is not in the kernel span (not a cocycle)")
        return E.coords(c, self.dim)

    def lift(self, coords: Sequence[int]) -> Dict[int, int]:
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        out: Dict[int, int] = {}
        for c, rep in zip(coords, self.representatives):
            add_scaled_inplace(out, rep, c, self.p)
        return out
