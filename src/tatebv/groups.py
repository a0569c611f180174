"""Finite groups as Cayley tables with 0-based element indices.

Element 0 is always the identity; all higher layers do index arithmetic
through the multiplication table.  Conjugacy classes, coset systems and
double cosets use deterministic minimal-index representative selection so
every derived object is reproducible.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

CLOSURE_CAP = 512  # most elements group_from_permutations may generate


class GroupError(ValueError):
    pass


class Group:
    __slots__ = ("order", "mult", "inv", "labels", "__dict__")

    def __init__(self, mult: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None):
        self.order = len(mult)
        self.mult: Tuple[Tuple[int, ...], ...] = tuple(tuple(row) for row in mult)
        self.inv: Tuple[int, ...] = _validate_table(self.mult)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != self.order or len(set(labels)) != self.order:
                raise GroupError("labels must be distinct, one per element")
        self.labels = labels

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult[self.mult[g][x]][self.inv[g]]

    def prod(self, elems: Sequence[int]) -> int:
        acc = 0
        for g in elems:
            acc = self.mult[acc][g]
        return acc

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    @cached_property
    def nontrivial(self) -> Tuple[int, ...]:
        return tuple(range(1, self.order))

    @cached_property
    def splits(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """splits[t]: the pairs (u, u^-1 t) with neither entry the identity."""
        m, inv = self.mult, self.inv
        return tuple(tuple((u, v) for u in self.nontrivial if (v := m[inv[u]][t]))
                     for t in range(self.order))

    @cached_property
    def is_abelian(self) -> bool:
        m = self.mult
        return all(m[a][b] == m[b][a] for a in range(self.order) for b in range(a))


def _check_shape(table: Sequence[Sequence[int]]) -> None:
    """Refuse a table that is not square or has an entry outside 0..n-1."""
    n = len(table)
    for row in table:
        if len(row) != n:
            raise GroupError("multiplication table is not square")
        for v in row:
            if not (0 <= v < n):
                raise GroupError("table entry out of range")


def _validate_table(mult: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """Check that mult is a group table with identity 0; return the inverses.

    Associativity is exact, by Light's test: the elements a with
    (x a) y = x (a y) for all x, y contain 0 and are closed under products,
    so it suffices to check every a of a set S whose right products from 0
    reach the whole table.  S is built greedily, adding the least element
    not yet reached; in a group each addition at least doubles the subgroup
    reached, so more than log2 n generators mean the table, which has an
    identity and inverses by then, is not associative."""
    n = len(mult)
    _check_shape(mult)
    if any(mult[0][x] != x or mult[x][0] != x for x in range(n)):
        raise GroupError("no identity")
    if any(0 not in row for row in mult):
        raise GroupError("missing inverses")
    gens: List[int] = []
    reached = bytearray(n)
    reached[0] = 1
    while 0 in reached:
        gens.append(reached.index(0))
        if 1 << len(gens) > n:
            raise GroupError("not associative")
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = mult[x][g]
                    if not reached[y]:
                        reached[y] = 1
                        new.append(y)
            frontier = new
    for a in gens:
        right = itemgetter(*mult[a])
        if any(mult[mult[x][a]] != right(mult[x]) for x in range(n)):
            raise GroupError("not associative")
    return tuple(row.index(0) for row in mult)


def group_from_mult_table(table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None) -> Group:
    """Build a validated Group, relabeling so the identity sits at index 0."""
    n = len(table)
    if n == 0:
        raise GroupError("empty table")
    _check_shape(table)
    e = None
    for cand in range(n):
        if all(table[cand][x] == x and table[x][cand] == x for x in range(n)):
            e = cand
            break
    if e is None:
        raise GroupError("no identity")
    if labels is not None and len(labels) != n:
        raise GroupError("labels must be distinct, one per element")
    if e != 0:
        perm = list(range(n))
        perm[0], perm[e] = perm[e], perm[0]
        inv_perm = perm  # the swap is an involution
        table = [[inv_perm.index(table[perm[a]][perm[b]]) for b in range(n)] for a in range(n)]
        if labels is not None:
            labels = [labels[perm[a]] for a in range(n)]
    return Group(table, labels=labels)


def group_from_permutations(generators: Sequence[Sequence[int]]) -> Group:
    """Closure of permutation generators; identity first, then BFS discovery
    order.  A closure of more than CLOSURE_CAP elements is refused."""
    if not generators:
        raise GroupError("need at least one generator")
    d = len(generators[0])
    gens = []
    for g in generators:
        if sorted(g) != list(range(d)):
            raise GroupError("generator is not a permutation of 0..d-1")
        gens.append(tuple(g))
    ident = tuple(range(d))
    elems: List[Tuple[int, ...]] = [ident]
    index: Dict[Tuple[int, ...], int] = {ident: 0}
    queue = [ident]
    while queue:
        nxt = []
        for a in queue:
            for g in gens:
                c = tuple(a[g[i]] for i in range(d))  # a after g: c = a o g
                if c not in index:
                    index[c] = len(elems)
                    elems.append(c)
                    nxt.append(c)
                    if len(elems) > CLOSURE_CAP:
                        raise GroupError(f"closure exceeds size cap {CLOSURE_CAP}")
        queue = nxt
    n = len(elems)
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = elems[a]
        for b in range(n):
            pb = elems[b]
            mult[a][b] = index[tuple(pa[pb[i]] for i in range(d))]
    return Group(mult)


def parse_cycles(text: str) -> List[List[int]]:
    """Cycle-notation permutations: "(0 1 2),(0 1)" -> explicit images, on
    the points 0 .. (largest point named)."""
    chunks = [c for c in re.split(r"\s*;\s*|\s*,\s*(?=\()", text.strip()) if c]
    raw: List[List[List[int]]] = []
    top = 0
    for chunk in chunks:
        cycles = []
        for m in re.finditer(r"\(([^()]*)\)", chunk):
            pts = [int(t) for t in re.split(r"[\s,]+", m.group(1).strip()) if t]
            if len(pts) != len(set(pts)):
                raise GroupError(f"repeated point in cycle {m.group(0)}")
            cycles.append(pts)
            if pts:
                top = max(top, max(pts) + 1)
        if not cycles:
            raise GroupError(f"cannot parse permutation {chunk!r}")
        raw.append(cycles)
    perms = []
    for cycles in raw:
        img = list(range(top))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                img[pt] = cyc[(i + 1) % len(cyc)]
        perms.append(img)
    return perms


def preset_group(name: str, param: int = 0) -> Group:
    """cyclic, dihedral and symmetric take a parameter n; klein_four and
    quaternion8 take none (param 0), and any other param is refused."""
    name = name.lower()
    if name in ("klein_four", "quaternion8") and param:
        raise GroupError(f"preset {name!r} takes no parameter (got {param})")
    if name == "cyclic":
        if param < 1:
            raise GroupError("cyclic group needs order >= 1")
        n = param
        return Group([[(a + b) % n for b in range(n)] for a in range(n)],
                     labels=[f"g{a}" for a in range(n)] if n > 1 else ["e"])
    if name == "dihedral":
        if param < 2:
            raise GroupError("dihedral group needs n >= 2 (order 2n)")
        n = param
        # index = i + n*eps for r^i s^eps
        def mul(x, y):
            i, e = x % n, x // n
            j, f = y % n, y // n
            k = (i + j) % n if e == 0 else (i - j) % n
            return k + n * (e ^ f)
        labels = [f"r{i}" for i in range(n)] + [f"r{i}s" for i in range(n)]
        return Group([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)], labels=labels)
    if name == "symmetric":
        if not (1 <= param <= 5):
            raise GroupError("symmetric group supported for 1 <= n <= 5")
        if param == 3:
            # dihedral:3, <a,b | a^3 = 1 = b^2, bab = a^-1>, ordered e,a,a2,b,ab,a2b
            return Group(preset_group("dihedral", 3).mult,
                         labels=["e", "a", "a2", "b", "ab", "a2b"])
        if param == 1:
            return preset_group("cyclic", 1)
        gens = [list(range(1, param)) + [0]]
        if param >= 2:
            swap = list(range(param))
            swap[0], swap[1] = 1, 0
            gens.append(swap)
        return group_from_permutations(gens)
    if name == "klein_four":
        # C2 x C2 with index = 2a + b
        return Group([[(a ^ b) for b in range(4)] for a in range(4)],
                     labels=["e", "j", "i", "ij"])
    if name == "quaternion8":
        # 1, i, j, k, -1, -i, -j, -k
        base = {
            (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
            (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
            (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
            (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
        }
        def mulq(x, y):
            xs, xe = x % 4, x // 4
            ys, ye = y % 4, y // 4
            b, s = base[(xs, ys)]
            return b + 4 * (xe ^ ye ^ s)
        labels = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
        return Group([[mulq(x, y) for y in range(8)] for x in range(8)], labels=labels)
    raise GroupError(f"unknown preset {name!r}")


class Subgroup:
    """A subgroup of ``parent``, checked for closure: ``members`` sorted
    (the identity first) and ``member_set`` as a frozenset.  Equal to a
    subgroup of the same parent with the same members."""

    def __init__(self, parent: Group, members: Sequence[int]):
        self.parent = parent
        self.members: Tuple[int, ...] = tuple(sorted(members))
        self.member_set = mem = frozenset(self.members)
        if 0 not in mem:
            raise GroupError("subgroup must contain the identity")
        for a in self.members:
            if parent.inv[a] not in mem:
                raise GroupError("subgroup not closed under inverse")
            for b in self.members:
                if parent.mult[a][b] not in mem:
                    raise GroupError("subgroup not closed under multiplication")
        self.order = len(self.members)
        self.nontrivial = self.members[1:]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

    def __contains__(self, g: int) -> bool:
        return g in self.member_set


def whole_group(G: Group) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, (0,))


def generated_subgroup(G: Group, gens: Sequence[int]) -> Subgroup:
    mem = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = G.mult[a][g]
                if c not in mem:
                    mem.add(c)
                    nxt.append(c)
        frontier = nxt
    return Subgroup(G, tuple(sorted(mem)))


def sylow_subgroup(H: Subgroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of H, grown from the trivial group: adjoin the
    first member g of H for which <Q, g> is still a p-group, until |Q| is
    the p-part of |H|.  It cannot stall below that, since N_S(Q) > Q for a
    Sylow S containing a p-subgroup Q < S."""
    part = math.gcd(H.order, p ** H.order)
    Q = trivial_subgroup(H.parent)
    while Q.order < part:
        for g in H.members:
            R = generated_subgroup(H.parent, Q.members + (g,))
            if R.order > Q.order and part % R.order == 0:
                Q = R
                break
    return Q


def conjugate_subgroup(G: Group, g: int, H: Subgroup) -> Subgroup:
    return Subgroup(G, tuple(sorted(G.conj(g, h) for h in H.members)))


def intersect_subgroups(H: Subgroup, K: Subgroup) -> Subgroup:
    if H.parent is not K.parent:
        raise GroupError("subgroups of different parents")
    return Subgroup(H.parent, tuple(sorted(set(H.members) & set(K.members))))


def centralizer(G: Group, x: int) -> Subgroup:
    return Subgroup(G, tuple(g for g in range(G.order) if G.conj(g, x) == x))


class ConjugacyData:
    def __init__(self, group: Group, reps: Tuple[int, ...], class_of: Tuple[int, ...],
                 classes: Tuple[Tuple[int, ...], ...], centralizers: Tuple[Subgroup, ...]):
        self.group, self.reps, self.class_of = group, reps, class_of
        self.classes, self.centralizers = classes, centralizers

    @property
    def num_classes(self) -> int:
        return len(self.reps)


def conjugacy_classes(G: Group) -> ConjugacyData:
    """Classes with minimal-index representatives; the identity class is first."""
    n = G.order
    class_of = [-1] * n
    reps: List[int] = []
    classes: List[Tuple[int, ...]] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        k = len(reps)
        orbit = sorted({G.conj(g, x) for g in range(n)})
        for y in orbit:
            class_of[y] = k
        reps.append(x)
        classes.append(tuple(orbit))
    cents = tuple(centralizer(G, r) for r in reps)
    return ConjugacyData(G, tuple(reps), tuple(class_of), tuple(classes), cents)


class CosetSystem:
    """Right cosets H*gamma_i covering the ambient set, gamma_1 = identity.

    ``ambient`` is the member tuple of the overgroup (often the full group);
    decomp maps each ambient g to (h, i) with g = h * gamma_i.
    """

    def __init__(self, subgroup: Subgroup, ambient: Tuple[int, ...], gamma: Tuple[int, ...],
                 decomp: Dict[int, Tuple[int, int]]):
        self.subgroup, self.ambient, self.gamma, self.decomp = subgroup, ambient, gamma, decomp
        self._steps: Dict[int, List[List[Tuple[int, int]]]] = {}

    @property
    def count(self) -> int:
        return len(self.gamma)

    def thread(self, i: int, elems: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Thread gamma_i through elems: gamma_{i_k} * elems[k] = h_k * gamma_{i_{k+1}}
        from i_0 = i; returns ((h_0, ..., h_{n-1}), (i_0, ..., i_n))."""
        mult = self.subgroup.parent.mult
        hs = []
        cosets = [i]
        for g in elems:
            h, i = self.decomp[mult[self.gamma[i]][g]]
            hs.append(h)
            cosets.append(i)
        return tuple(hs), tuple(cosets)

    def paths(self, elems: Sequence[int], end: Optional[int] = None
              ) -> List[Tuple[int, Tuple[int, ...]]]:
        """(i_0, slots) for each coset path i_0, ..., i_n (i_n = end if given)
        whose slots gamma_{i_k}^-1 * elems[k] * gamma_{i_{k+1}} all avoid the
        identity, in lexicographic order of the path.  Prefixes grow a level at
        a time, coset by coset in ascending order, and die at their first
        identity slot.  The step table of each g is built on first use."""
        if self.count == 1:
            # a new tuple, not elems: sharing it moved GC runs and raised verify-s3's peak
            return [(0, tuple(list(elems)))] if all(elems) else []
        G = self.subgroup.parent
        mult, inv, gamma, steps = G.mult, G.inv, self.gamma, self._steps
        level = [(i, i, ()) for i in range(len(gamma))]  # (i_0, i_k, slots so far)
        for g in elems:
            step = steps.get(g)
            if step is None:  # step[i]: (j, slot) for each move i -> j whose slot is not 1
                step = steps[g] = [[(j, s) for j, b in enumerate(gamma)
                                    if (s := mult[mult[inv[a]][g]][b])] for a in gamma]
            level = [(start, j, slots + (s,)) for start, cur, slots in level for j, s in step[cur]]
        return [(start, slots) for start, cur, slots in level if end is None or cur == end]


def right_coset_system(H: Subgroup, ambient: Optional[Sequence[int]] = None) -> CosetSystem:
    G = H.parent
    amb = tuple(ambient) if ambient is not None else tuple(range(G.order))
    amb_set = set(amb)
    for h in H.members:
        if h not in amb_set:
            raise GroupError("subgroup not inside the ambient set")
    gamma: List[int] = []
    decomp: Dict[int, Tuple[int, int]] = {}
    for g in amb:
        if g in decomp:
            continue
        i = len(gamma)
        gamma.append(g)
        for h in H.members:
            w = G.mult[h][g]
            if w not in amb_set:
                raise GroupError("ambient set not closed under the subgroup action")
            decomp[w] = (h, i)
    if gamma[0] != 0:
        raise GroupError("ambient enumeration must start at the identity")
    if len(gamma) * H.order != len(amb):
        raise GroupError("cosets do not partition the ambient set")
    return CosetSystem(H, amb, tuple(gamma), decomp)


def double_cosets(G: Group, H: Subgroup, K: Subgroup) -> Tuple[int, ...]:
    """The minimal element of each double coset H x K, in ascending order."""
    seen = bytearray(G.order)
    reps: List[int] = []
    for x in range(G.order):
        if seen[x]:
            continue
        reps.append(x)
        for h in H.members:
            hx = G.mult[h][x]
            for k in K.members:
                seen[G.mult[hx][k]] = 1
    return tuple(reps)


def class_rep_and_witness(cd: ConjugacyData, g: int) -> Tuple[int, int]:
    """Class index of g and the minimal y with y g y^-1 = reps[k]."""
    G = cd.group
    k = cd.class_of[g]
    target = cd.reps[k]
    for y in range(G.order):
        if G.conj(y, g) == target:
            return k, y
    raise AssertionError("conjugacy witness must exist")
