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

Every engine keeps one echelon form: each pivot is keyed by its leading
(top) row and holds 1 there.  ``feed`` reduces each vector by the pivot
of its top row, one addition per step, and stops an independent vector
at its first top row that holds no pivot.  Which entry leads cannot
move an output of ``feed``: the rank, the leftmost-greedy pivot columns
(a column is a pivot iff it is independent of the columns before it)
and each free column's kernel vector (1 there, support only on earlier
pivot columns) are unique; on rows, the leading rows of an echelon basis
of the row space are the leftmost-greedy columns, reversed.
``_eliminate`` feeds a matrix's streamed ``rows`` (column j at bit
ncols-1-j) for ``pivot_columns`` and ``rank``, else its columns.
``clear`` reduces a vector at the leading rows it sets, highest first,
until it sets none; on an image's echelon it decides membership.
``insert`` makes a cleared vector the pivot at its top row, with a tag
of the caller's in place of its combination.  ``image_echelon`` builds
every echelon of an image: ``QuotientSpace`` feeds the kernel vectors
into it, or, seeded with cocycles, clears them in it.  The coordinate
echelon that its ``representatives``, ``project`` and ``lift`` read is
built by ``clear`` and ``insert`` on index-reversed vectors
(i -> n-1-i), so that the lowest rows it outputs are top rows there.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cached_property
from itertools import compress
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
    ``_eliminate`` and ``QuotientSpace`` drive both alike; ``tops`` keeps
    the leading rows of ``lead`` ascending, for ``clear``."""

    def __init__(self, p: int):
        self.p = p
        self.lead: Dict[int, tuple] = {}  # leading row -> (vector, combination)
        self.tops: List[int] = []  # the keys of lead, ascending

    support = staticmethod(lambda v: v)
    coords = staticmethod(lambda c, n: [c.get(k, 0) for k in range(n)])
    permute = staticmethod(lambda v, pos: {pos[k]: x for k, x in v.items()})

    @staticmethod
    def reverse(v: Dict[int, int], n: int) -> Dict[int, int]:
        m = n - 1
        return {m - k: x for k, x in v.items()}

    @staticmethod
    def split(v: Dict[int, int], n: Optional[int] = None) -> Dict[int, int]:
        """v itself, or given n, v with index k moved to n-1-k."""
        return v if n is None else ColumnReducer.reverse(v, n)

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
        p, lead, tops = self.p, self.lead, self.tops
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
                    insort(tops, top)
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

    def normalize(self, v: Dict[int, int], c: Optional[Dict[int, int]], row: int):
        """(v, c) scaled so that v's entry at row is 1."""
        p = self.p
        inv = pow(v[row], p - 2, p)
        if inv != 1:
            v, c = (u if u is None else {k: x * inv % p for k, x in u.items()} for u in (v, c))
        return v, c

    def insert(self, v: Dict[int, int], c: Dict[int, int]) -> Dict[int, int]:
        """``_GF2.insert`` on dicts: v is scaled to 1 at its top row, c is
        kept as it is."""
        top = max(v)
        v = self.normalize(v, None, top)[0]
        self.lead[top] = v, c
        insort(self.tops, top)
        return v

    def scale(self, v: Dict[int, int], c: int) -> Dict[int, int]:
        c %= self.p
        return {k: x * c % self.p for k, x in v.items()} if c else {}

    def pivot(self, row: int) -> Dict[int, int]:
        return self.lead[row][0]

    def clear(self, v: Dict[int, int], c: Optional[Dict[int, int]] = None,
              below: Optional[int] = None):
        """``_GF2.clear`` on dicts, in one walk down the leading rows: a
        step at a row changes only rows below it."""
        p, lead, tops = self.p, self.lead, self.tops
        v, c = dict(v), c if c is None else dict(c)
        for top in reversed(tops if below is None else tops[:bisect_left(tops, below)]):
            x = v.get(top)
            if x:
                q = lead[top]
                add_scaled_inplace(v, q[0], -x, p)
                if c is not None:
                    add_scaled_inplace(c, q[1], -x, p)
        return v, c


def _bits(x: int) -> List[int]:
    """Positions of the set bits of x >= 0, ascending."""
    s = bin(x)[:1:-1]
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed(x: int, n: int) -> int:
    """The bitset x of width n with bit i moved to bit n-1-i: its bytes
    reversed, each through a 256-byte table."""
    m = (n + 7) // 8
    return int.from_bytes(x.to_bytes(m, "little").translate(_BIT_REVERSED), "big") >> 8 * m - n


class _Bitsets:
    """Pivots in row echelon form over F_2 or F_3 on Python-int bitsets,
    the M4RI idea in pure Python; one instance per elimination.

    Each pivot is keyed by its leading (top) set row, the echelon form of
    M4RI (Albrecht, Bard & Hart, 2010), in ``lead``; ``tops`` is the bitset
    of those rows.  ``feed`` reduces a vector by the pivot of its top row,
    so it shortens at every step at the cost of one addition, until its
    top row holds no pivot (it becomes the pivot there, scaled to 1 at
    that row) or it is zero.  It gives ranks, pivot columns (by columns,
    or the leading rows of a matrix's streamed rows) and kernels, and
    ``QuotientSpace``'s kernel and representative pick.  None of these
    depends on which entry leads: the rank, the leftmost-greedy pivot
    columns (a column is a pivot iff it is independent of the columns
    before it) and the kernel vector of each free column (1 there, support
    only on earlier pivot columns) are each unique.
    ``clear`` reduces a vector at every leading row it sets, highest
    first, and ``insert`` makes a cleared vector the pivot at its top row
    with a given tag; ``pivot`` reads a pivot's vector.

    Per field, ``split`` turns a dict of entries into a vector, also in the
    index-reversed layout, ``reverse`` reverses a vector, and ``entries``
    and ``coords`` read a vector back as a dict or a list.
    ``permute`` (indices moved by a table), ``sub`` and ``block_sums``
    (the entry sums of consecutive blocks) serve the free-module vectors
    of ``harness._resolution`` and ``harness.sylow_ranks``, which read
    vectors back only through ``coords``; ``sub`` and ``scale`` (by a
    residue) serve ``_products`` too.
    Pivots are never back-substituted: Gauss-Jordan reduced pivots were
    measured 4-5x slower on the matrices of ``dims`` at p = 2.
    """

    def __init__(self):
        self.lead: Dict[int, tuple] = {}  # leading row -> (vector, combination), one 4-tuple at p = 3
        self.tops = 0  # the bitset of lead's rows

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
        s, t, block = self.support(v), self.twos(v), (1 << m) - 1
        out = []
        while s:
            out.append((bin(s & block).count("1") + bin(t & block).count("1")) % self.p)
            s, t = s >> m, t >> m
        return out


class _GF2(_Bitsets):
    """F_2: a vector is one bitset, and XOR is the whole row operation."""

    p = 2
    permute = staticmethod(lambda v, pos: sum(1 << pos[k] for k in _bits(v)))
    reverse = staticmethod(_reversed)
    sub = staticmethod(lambda v, w: v ^ w)
    support = staticmethod(lambda v: v)
    twos = staticmethod(lambda v: 0)
    coords = staticmethod(lambda c, n: [c >> k & 1 for k in range(n)])

    scale = staticmethod(lambda v, c: v if c % 2 else 0)

    @staticmethod
    def split(entries, n: Optional[int] = None) -> int:
        """The bitset of the indices of entries, or given n, of n-1 minus
        each index."""
        if n is None:
            return sum(1 << i for i in entries)
        m = n - 1
        return sum(1 << (m - i) for i in entries)

    def pivot(self, row: int) -> int:
        return self.lead[row][0]

    def clear(self, v: int, c: Optional[int] = None, below: Optional[int] = None):
        """(v, c) less the multiples of the pivots that clear v's leading
        rows, highest first, until v sets none of them (only those under
        ``below`` if given); c (None: untracked) takes the same multiples of
        their combinations.  A pivot sets no row above its own, so each step
        sets only lower rows."""
        lead, tops = self.lead, self.tops
        if below is not None:
            tops &= (1 << below) - 1
        track = c is not None
        hit = v & tops
        while hit:
            q = lead[hit.bit_length() - 1]
            v ^= q[0]
            if track:
                c ^= q[1]
            hit = v & tops
        return v, c

    def insert(self, v: int, c: int) -> int:
        """Make v (nonzero, no leading row set) the pivot at its top row
        with the tag c as its combination, which ``clear`` collects; returns
        the stored vector."""
        top = v.bit_length() - 1
        self.lead[top] = v, c
        self.tops |= 1 << top
        return v

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
                    self.tops |= 1 << top
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
    reverse = staticmethod(lambda v, n: (_reversed(v[0], n), _reversed(v[1], n)))
    coords = staticmethod(lambda c, n: [c[0] >> k & 1 | (c[1] >> k & 1) << 1 for k in range(n)])

    @staticmethod
    def split(entries: Dict[int, int], n: Optional[int] = None) -> Tuple[int, int]:
        """The pair of entries, or given n, with index i moved to n-1-i, in
        a loop of its own, since ``project`` splits every vector so."""
        P = N = 0
        if n is None:
            for i, x in entries.items():
                if x == 1:
                    P |= 1 << i
                else:
                    N |= 1 << i
            return P, N
        m = n - 1
        for i, x in entries.items():
            if x == 1:
                P |= 1 << (m - i)
            else:
                N |= 1 << (m - i)
        return P, N

    @staticmethod
    def sub(v: Tuple[int, int], w: Tuple[int, int]) -> Tuple[int, int]:
        """v - w, the sum of v and w's negation (w[1], w[0])."""
        P, N = v
        t = (P | w[0]) ^ (N | w[1])
        return (N | w[0]) ^ t, (P | w[1]) ^ t

    scale = staticmethod(lambda v, c: v if c % 3 == 1 else (v[1], v[0]) if c % 3 else (0, 0))

    def pivot(self, row: int) -> Tuple[int, int]:
        return self.lead[row][:2]

    def clear(self, v: Tuple[int, int], c: Optional[Tuple[int, int]] = None,
              below: Optional[int] = None):
        """``_GF2.clear`` on bit-sliced pairs."""
        lead, tops = self.lead, self.tops
        if below is not None:
            tops &= (1 << below) - 1
        P, N = v
        track = c is not None
        cp, cn = c if track else (0, 0)
        hit = (P | N) & tops
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
            hit = (P | N) & tops
        return (P, N), (cp, cn) if track else None

    def insert(self, v: Tuple[int, int], c: Tuple[int, int]) -> Tuple[int, int]:
        """``_GF2.insert`` on bit-sliced pairs: v holding 2 at its top row
        is stored negated, its tag c never is."""
        P, N = v
        lp, ln = P.bit_length(), N.bit_length()
        if ln > lp:
            P, N = N, P
        top = max(lp, ln) - 1
        self.lead[top] = P, N, *c
        self.tops |= 1 << top
        return P, N

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
                    self.tops |= 1 << top
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


def image_echelon(M: SparseMatrix, track: bool) -> Tuple[object, Optional[List[int]], Optional[List]]:
    """(E, cols, basis): E the feed echelon (tracked if track), in the engine
    for M.p, of M's columns at the ascending indices cols, which are M's
    pivot columns where M streams rows (they pick them cheaply), else None
    for all of them.  Its leading rows are those of im M, and its ``clear``
    leaves v zero exactly when v lies in im M, tracked with a combination
    c, over positions in cols, such that M c = -v.  Untracked, basis is
    M's pivot columns as M streams them, kept as the feed meets them."""
    E = _engine(M.p)
    cols = pivot_columns(M) if M.rows is not None else None
    basis = None if track else []

    def kept():
        for v in _vectors(M, E, cols):
            yield v
            if not track and len(E.lead) > len(basis):  # the feed made v a pivot
                basis.append(v)
    E.feed(kept(), track)
    return E, cols, basis


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

    The kernel vectors of ``out``, fed to the echelon of im(into) that
    ``image_echelon`` builds, pick the representatives: a kernel vector
    becomes a pivot exactly when it is independent of the image and of the
    kernel vectors before it.  The kernel vectors are independent too, so
    the echelon ends with len(kernel) pivots exactly when the image lies
    in their span; any other count means d^2 != 0, and ValueError.
    ``image_basis``, which ``_echelon`` starts from, is the pivot columns
    of ``into`` as it streams them, not the pivots stored for them.
    project() expresses any vector of the kernel span in the
    representative basis mod the image; lift() goes back.  Both use the
    coordinate echelon ``_echelon``, built on first use.

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
        self.p = out.p
        self._n = out.ncols
        if cocycles is not None:
            self._seed(out, into, cocycles, dim)
            return
        kernel = _eliminate(out, True)[1]
        E, _, self.image_basis = image_echelon(into, False)
        pivots = E.feed((c for _, c in kernel), False)[0]
        if len(E.lead) != len(kernel):
            raise ValueError("image vector outside kernel span (d^2 != 0?)")
        self._reps = [kernel[j][1] for j in pivots]
        self.dim = len(self._reps)

    def _seed(self, out: SparseMatrix, into: SparseMatrix, cocycles: Sequence[Dict[int, int]],
              dim: int) -> None:
        """The k_f from cocycles, in the echelon of the image that
        ``image_echelon`` builds, keyed by its leading rows T.  A cocycle w
        cleared at the T rows, highest first, is w'' = sum of w''[f] k_f
        over the free f outside T, and the reduced row echelon form of the
        w'' at their top rows is the set of k_f exactly when it has dim
        vectors.  Guards (ValueError): every cocycle in ker(out), by one
        pass over the columns of ``out``; exactly dim vectors; no
        representative set at a T row."""
        E, _, self.image_basis = image_echelon(into, False)
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
        """The coordinate echelon, on vectors reversed over the n = out.ncols
        indices (i -> n-1-i), so that their lowest rows are top rows: the
        image vectors, then the representative kernel vectors, each cleared
        by the pivots before it and inserted at its top row, scaled to 1
        there.  Pivot k is the unique vector of (fed vector + span of
        earlier pivots) that is zero at every earlier pivot row, so neither
        it nor a coordinate of project() depends on the order in which an
        engine clears those rows.  The tag of representative k's pivot is
        -e_k, so that clearing a vector collects its coordinates; an image
        pivot's is zero.  Returns the echelon, its zero vector and the
        representatives' pivot vectors in order."""
        p, n = self.p, self._n
        E = _engine(p)
        zero = E.split({})
        for v in self.image_basis:
            E.insert(E.clear(E.reverse(v, n))[0], zero)
        return E, zero, [E.insert(E.clear(E.reverse(v, n))[0], E.split({k: p - 1}))
                         for k, v in enumerate(self._reps)]

    @cached_property
    def representatives(self) -> List[Dict[int, int]]:
        E, _, pivots = self._echelon
        return [E.entries(E.reverse(v, self._n)) for v in pivots]

    def project(self, v: Dict[int, int]) -> List[int]:
        """Coordinates of the class of v, a dict of residues in 1..p-1;
        raises if v is not in the kernel span."""
        E, zero, _ = self._echelon
        w, c = E.clear(E.split(v, self._n), zero)
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
