"""Decomposition-path computation engine and verification harnesses.

Cohomology classes of the ambient complex are carried as coordinate
vectors over the per-conjugacy-class centralizer Tate cohomologies.  Cup
products are evaluated with the double-coset formula, the BV operator by
the transferred formulas on each centralizer complex (delta_tilde in
degrees >= 1, the signed Connes rotation b_tilde in degrees <= -1), and
the Lie bracket from those two.  Components outside the coordinatized
range are kept as representative cocycles over the centralizer C_k or over
its Sylow p-subgroup P_k, and one is zero exactly when its restriction to
P_k is.  An out-of-range identity-class product is formed on P_0 from the
restricted factors (res is a ring map), never over G; an entry on P_k is
lifted back to C_k, as [C_k:P_k]^-1 cor, only where a C_k cocycle is
needed.  Where 1 < P_k < C_k, the coordinate spaces of degree n >= 1 take
their representatives from cor of P_k's (``DecOps._seed``) without
eliminating the kernel of d_n, and ``is_zero`` decides a representative
outside a built space by membership in the image of d.  ``tables``
coordinatizes only the degrees lo..hi that it prints: the BV images at
lo-1 inside its brackets stay representatives, which the next cup takes as
they are, so no cohomology space of degree lo-1 is built.  ``tables`` and
``verify-s3`` run on TableOps, which expands coordinate classes over basis
classes and computes each product of two basis classes and each BV image of
one once per job; their brackets are read off those two tables by
linearity.  Class arithmetic builds no D-complex of G: only the direct-path
spot check of ``tables`` does.

``dims`` reads dimensions only.  It reads those of each distinct
centralizer C on a Sylow p-subgroup P of C: all zero if P = 1, the ranks
of a guarded minimal free resolution of F_p over F_p[C] if P = C, and
otherwise (``sylow_ranks``) the ranks of the idempotent [C:P]^-1 (norm o
aug), lifted to P's minimal resolution induced up to C; it builds no
complex.  Its direct check reads dim Ĥ^n(G, k[K]) for each class K off a
free resolution over F_p[G] (``direct_dims``), and compares it class by
class; ``verify-s3`` sums it for its direct dims.  No code ranks a complex.
"""

from __future__ import annotations

import collections
import json
import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .bv import CohClass, class_of, cup
from .complexes import DComplex, GroupTateElement, dim_degree, group_dim_degree, sign_pow
from .decomposition import ClassDecomposition, b_tilde, delta_tilde
from .groups import (ConjugacyData, Group, Subgroup, conjugacy_classes, generated_subgroup,
                     group_from_mult_table, group_from_permutations, parse_cycles,
                     preset_group, right_coset_system, sylow_subgroup, whole_group)
from .linalg import SparseMatrix, _eliminate, _engine, rank
from .transfer import TransferContext

DIRECT_COLUMN_CAP = 200_000
DECOMPOSITION_CAP = 1_000_000
# The degrees a class-arithmetic job (tables, verify-s3, verify-appendix-b)
# may touch: one on lo..hi touches lo-1..hi (BV images drop a degree), and
# check_dec_window refuses windows that reach outside.  For |G| >= 3,
# DECOMPOSITION_CAP refuses any window outside [-19, 18] anyway ((|G|-1)^s >
# 10^6 from s = 20); for |G| <= 2 no cost cap applies, and this alone
# bounds the window.
DEC_WINDOW = (-64, 64)


class ConfigError(ValueError):
    pass


class CostCapError(RuntimeError):
    pass


class VerificationError(AssertionError):
    """A consistency check of a job's own results failed."""


def make_group(spec: str) -> Group:
    """Parse a group spec: preset[:param], perms:"(0 1 2),(0 1)" or file:PATH.
    Any malformed spec raises ConfigError."""
    if spec.startswith("perms:"):
        try:
            return group_from_permutations(parse_cycles(spec[len("perms:"):]))
        except ValueError as exc:  # GroupError, or a point that is not an integer
            raise ConfigError(f"cannot parse permutations in {spec!r}: {exc}") from exc
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # missing or unreadable file, bad JSON
            raise ConfigError(f"cannot read group file {path!r}: {exc}") from exc
        if not isinstance(data, dict) or "mult" not in data:
            raise ConfigError(f'group file {path!r} has no "mult" table')
        mult, labels = data["mult"], data.get("labels")
        if not (isinstance(mult, list) and all(
                isinstance(row, list) and all(type(v) is int for v in row) for row in mult)):
            raise ConfigError(f'group file {path!r}: "mult" must be a list of lists of integers')
        if labels is not None and not isinstance(labels, list):
            raise ConfigError(f'group file {path!r}: "labels" must be a list')
        if "order" in data and not (type(data["order"]) is int and data["order"] == len(mult)):
            raise ConfigError(f'group file {path!r}: "order" must be the integer {len(mult)}, '
                              f'the size of "mult"')
        return group_from_mult_table(mult, labels=labels)
    name, _, param = spec.partition(":")
    try:
        return preset_group(name, int(param) if param else 0)
    except ValueError as exc:  # GroupError, or a parameter that is not an integer
        raise ConfigError(f"invalid group spec {spec!r}: {exc}") from exc


class JobConfig:
    def __init__(self, group: str = "symmetric:3", p: int = 3, window: Tuple[int, int] = (-4, 3),
                 seed: int = 0, fmt: str = "text"):
        self.group, self.p, self.window = group, p, window
        self.seed, self.fmt = seed, fmt
        from .linalg import PRIME_BOUND, is_prime
        if self.p >= PRIME_BOUND:
            raise ConfigError(f"characteristic {self.p} is not below {PRIME_BOUND}, "
                              "the bound up to which primality is decided exactly")
        if not is_prime(self.p):
            raise ConfigError(f"characteristic {self.p} is not prime")
        lo, hi = self.window
        if lo >= hi:
            raise ConfigError(f"window {self.window} is empty")
        if self.fmt not in ("json", "csv", "text"):
            raise ConfigError(f"unknown format {self.fmt!r}")

    def hash(self) -> str:
        blob = json.dumps([self.group, self.p, list(self.window), self.seed], sort_keys=True)
        return _sha256()(blob.encode()).hexdigest()[:16]


def _sha256():
    """hashlib's sha256 if hashlib is loaded, else that of CPython's builtin
    module: the same digest, without loading OpenSSL's _hashlib, which
    takes milliseconds of a job that hashes one short config."""
    if "hashlib" not in sys.modules:
        try:
            return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
        except ImportError:  # an interpreter built without it
            pass
    import hashlib
    return hashlib.sha256


def _provenance(cfg: JobConfig) -> Dict:
    from . import __version__
    return {"tool": "tatebv", "version": __version__, "seed": cfg.seed,
            "config_hash": cfg.hash()}


def direct_fits(G: Group, lo: int, hi: int) -> bool:
    """Whether every D-complex degree lo..hi has at most DIRECT_COLUMN_CAP
    basis elements, the gate of the direct-path checks."""
    return max(dim_degree(G, d) for d in range(lo, hi + 1)) <= DIRECT_COLUMN_CAP


def check_dec_window(window: Tuple[int, int]) -> None:
    """Refuse a window whose degrees lo-1..hi reach outside DEC_WINDOW."""
    lo, hi = window
    if lo - 1 < DEC_WINDOW[0] or hi > DEC_WINDOW[1]:
        raise ConfigError(f"window {lo}..{hi} reaches degrees outside DEC_WINDOW {DEC_WINDOW}")


def check_decomposition_cost(cd: ConjugacyData, window: Tuple[int, int]) -> None:
    worst = max(group_dim_degree(cent.order, d) for cent in cd.centralizers
                for d in range(window[0] - 1, window[1] + 2))
    if worst > DECOMPOSITION_CAP:
        raise CostCapError(f"decomposition path needs {worst} basis columns (cap {DECOMPOSITION_CAP})")


# ---------------------------------------------------------------------------
# decomposition-path class arithmetic

# ("c", coords tuple), or ("r", GroupTateElement) over C_k or over its Sylow
# p-subgroup P_k; an "r" entry over P_k is the restriction of its class
Entry = Tuple[str, object]


def _label(cls: int, degree: int, entry: Entry) -> Optional[Tuple[int, int, Tuple[int, ...]]]:
    """The name (class, degree, coords) under which a coordinate entry's lift
    and its conjugated restrictions are shared; None for a representative."""
    return (cls, degree, entry[1]) if entry[0] == "c" else None


class DecClass:
    """A cohomology class as per-conjugacy-class components."""

    def __init__(self, degree: int, parts: Optional[Dict[int, Entry]] = None):
        self.degree = degree
        self.parts: Dict[int, Entry] = {} if parts is None else parts

    def copy(self) -> "DecClass":
        return DecClass(self.degree, dict(self.parts))


class DecOps:
    """Operations on decomposition-path classes for one (group, p) pair.

    window = (lo, hi) gives the degrees in which every class's components
    are put into coordinates; outside them a component stays a
    representative cocycle, so no space of that degree is built for it.
    With window None every degree is coordinatized."""

    def __init__(self, G: Group, p: int, window: Optional[Tuple[int, int]] = None):
        self.group = G
        self.p = p
        self.cd = conjugacy_classes(G)
        self.ctx = TransferContext(G, p, self.cd)
        self.window = window
        self._lifts: Dict[Tuple[int, int, Tuple[int, ...]], GroupTateElement] = {}
        self._sylows: Dict[int, Subgroup] = {}
        self._ranks: Dict[Tuple[int, ...], List[int]] = {}  # sylow_ranks per centralizer
        for C in self.cd.centralizers:  # whose cohomology caches ``space`` reads
            self.ctx.complex_for(C).seed = self._seed

    def space(self, cls: int, n: int):
        return self.ctx.complex_for(self.cd.centralizers[cls]).cohomology(n)

    def _seed(self, cplx, n: int):
        """The seed of each centralizer's complex, so that ``space`` builds
        Ĥ^n(C) without eliminating d_n where 1 < P < C for a Sylow
        p-subgroup P of C and n >= 1: (cor^C_P z_j, dim Ĥ^n(C)) for the
        representatives z_j of P's ``cohomology(n)``, C the subgroup of
        cplx.  cor is onto, so they span Ĥ^n(C); the dimension is
        ``sylow_ranks``', computed without cor.  None where P = 1, P = C or
        n <= 0: for n <= -2 d_(n-1) is the larger matrix, so nothing is
        saved."""
        C = cplx.subgroup
        if n < 1:
            return None
        P = sylow_subgroup(C, self.p)
        if not 1 < P.order < C.order:
            return None
        space = self.ctx.complex_for(P).cohomology(n)
        cors = [self.ctx.corestrict_element(C, space.representative(j)) for j in range(space.dim)]
        ranks = self._ranks.get(C.members, [])
        if len(ranks) <= n:  # built once per centralizer, to the window's top or n if higher
            top = max(n, self.window[1]) if self.window else n
            ranks = self._ranks[C.members] = sylow_ranks(C, P, self.p, top)
        return cors, ranks[n]

    def cls_dim(self, cls: int, n: int) -> int:
        return self.space(cls, n).dim

    def in_range(self, n: int) -> bool:
        return self.window is None or self.window[0] <= n <= self.window[1]

    def sylow(self, cls: int) -> Subgroup:
        """A Sylow p-subgroup P_k of the centralizer C_k, found once per class."""
        if cls not in self._sylows:
            self._sylows[cls] = sylow_subgroup(self.cd.centralizers[cls], self.p)
        return self._sylows[cls]

    def _entry_from_elem(self, cls: int, gelem: GroupTateElement) -> Optional[Entry]:
        if self.in_range(gelem.degree):
            coords = tuple(self.space(cls, gelem.degree).project(gelem))
            return ("c", coords) if any(coords) else None
        if gelem.is_zero() or self.sylow(cls).order == 1:  # P_k = 1: Tate cohomology of C_k is 0
            return None
        return ("r", gelem)

    def from_class(self, cls: int, c: CohClass) -> DecClass:
        out = DecClass(c.degree)
        if any(c.coords):
            out.parts[cls] = ("c", tuple(c.coords))
        return out

    def unit(self) -> DecClass:
        one = self.ctx.complex_for(self.cd.centralizers[0]).element(0, {(): 1})
        return self.from_class(0, class_of(self.space(0, 0), one))

    def add(self, A: DecClass, B: DecClass, c: int = 1) -> DecClass:
        if A.degree != B.degree and A.parts and B.parts:
            raise ValueError("adding classes of different degrees")
        out = A.copy()
        if not out.parts:
            out = DecClass(B.degree, dict(out.parts))
        for cls, (tag, val) in B.parts.items():
            if cls not in out.parts:
                if tag == "c":
                    scaled = tuple((c * v) % self.p for v in val)
                    if any(scaled):
                        out.parts[cls] = ("c", scaled)
                else:
                    s = val.scale(c)
                    if not s.is_zero():
                        out.parts[cls] = ("r", s)
                continue
            tag0, val0 = out.parts[cls]
            if tag0 != tag:
                raise ValueError("mixed coordinate/representative entries")
            if tag == "c":
                merged = tuple((a + c * b) % self.p for a, b in zip(val0, val))
                if any(merged):
                    out.parts[cls] = ("c", merged)
                else:
                    del out.parts[cls]
            else:
                if val0.complex is not val.complex:  # one on C_k, one on P_k
                    val0, val = (self.restrict_entry(cls, B.degree, ("r", v)) for v in (val0, val))
                merged_elem = val0.add(val, c)
                if merged_elem.is_zero():
                    del out.parts[cls]
                else:
                    out.parts[cls] = ("r", merged_elem)
        return out

    def scale(self, A: DecClass, c: int) -> DecClass:
        return self.add(DecClass(A.degree), A, c)

    def sub(self, A: DecClass, B: DecClass) -> DecClass:
        return self.add(A, B, -1)

    def lift_entry(self, cls: int, degree: int, entry: Entry) -> GroupTateElement:
        """An entry's representative cocycle over C_k; coordinate entries are
        lifted once and shared.  A representative w = res v on P_k gives
        [C_k:P_k]^-1 cor w, which cor o res = [C_k:P_k] makes cohomologous to v."""
        tag, val = entry
        if tag == "r":
            C = self.cd.centralizers[cls]
            if val.subgroup.order == C.order:
                return val
            return self.ctx.corestrict_element(C, val).scale(
                pow(C.order // val.subgroup.order, -1, self.p))
        key = _label(cls, degree, entry)
        if key not in self._lifts:
            self._lifts[key] = self.space(cls, degree).lift(list(val))
        return self._lifts[key]

    def restrict_entry(self, cls: int, degree: int, entry: Entry) -> GroupTateElement:
        """An entry's representative restricted to P_k, a coordinate entry's
        once per job (``TransferContext.cup_factor``)."""
        tag, val = entry
        elem = val if tag == "r" else self.lift_entry(cls, degree, entry)
        return self.ctx.cup_factor(0, self.sylow(cls), elem, _label(cls, degree, entry))

    def cup(self, A: DecClass, B: DecClass) -> DecClass:
        deg = A.degree + B.degree
        out = DecClass(deg)
        for i, ea in A.parts.items():
            for j, eb in B.parts.items():
                if i == 0 and j == 0:
                    # products of identity components never leave it; outside the
                    # coordinate range they are formed on P_0, as res is a ring map
                    rep = self.lift_entry if self.in_range(deg) else self.restrict_entry
                    fa, fb = rep(0, A.degree, ea), rep(0, B.degree, eb)
                    reps = {0: self.ctx.complex_for(fa.subgroup).element(
                        deg, self.ctx.group_cup_rep(fa, fb, {}))}
                else:
                    reps = self.ctx.double_coset_cup_reps(
                        i, j, self.lift_entry(i, A.degree, ea), self.lift_entry(j, B.degree, eb),
                        (_label(i, A.degree, ea), _label(j, B.degree, eb)))
                for k, gelem in reps.items():
                    entry = self._entry_from_elem(k, gelem)
                    if entry is not None:
                        out = self.add(out, DecClass(deg, {k: entry}))
        return out

    def delta(self, A: DecClass) -> DecClass:
        """BV operator component by component, by the transferred formulas on
        the centralizer complex: delta_tilde in degrees >= 1, and b_tilde with
        bv_operator's sign (-1)^(s+1) = (-1)^deg out of chain degree s = -deg-1.
        A representative on P_k stays there in degrees >= 1 if x_k is in P_k:
        cochain restriction keeps the tuples over P_k, and the slot a rotation
        drops is fixed by prod(T) = x_k^-1, so res commutes with delta_tilde."""
        deg = A.degree
        out = DecClass(deg - 1)
        if deg == 0:
            return out
        for cls, entry in A.parts.items():
            tag, val = entry
            x = self.cd.reps[cls]
            if tag == "r" and deg >= 1 and x in val.subgroup.member_set:
                piece = delta_tilde(x, val)  # over val's subgroup, C_k or P_k
                if self.in_range(deg - 1):
                    piece = self.lift_entry(cls, deg - 1, ("r", piece))
            else:
                gelem = self.lift_entry(cls, deg, entry)
                piece = (delta_tilde(x, gelem) if deg >= 1
                         else b_tilde(x, gelem).scale(sign_pow(deg)))
            e = self._entry_from_elem(cls, piece)
            if e is not None:
                out = self.add(out, DecClass(deg - 1, {cls: e}))
        return out

    def bracket(self, A: DecClass, B: DecClass) -> DecClass:
        da, db = A.degree, B.degree
        t1 = self.delta(self.cup(A, B))
        t2 = self.cup(self.delta(A), B)
        t3 = self.cup(A, self.delta(B))
        inner = self.add(self.add(t1, t2, -1), t3, -sign_pow(da))
        return self.scale(inner, -sign_pow((da - 1) * db))

    def is_zero(self, A: DecClass) -> bool:
        """A representative entry v of class k is decided on a Sylow
        p-subgroup P of C = C_G(x_k): cor o res is multiplication by the unit
        [C:P] in every Tate degree, so [v] = 0 exactly when [res v] = 0 on P
        (Brown III.9-10, VI.5; Cartan-Eilenberg XII.8-10); an entry already
        on P is decided as it is.  Where P's space of that degree is built,
        it projects res v (and refuses a non-cocycle); elsewhere no space is
        built: d(res v) = 0 is checked at element level (ValueError, as
        project), and res v is zero exactly when it lies in im d, which
        ``bounding`` decides; a c it finds must satisfy d(c) = res v
        (VerificationError).  If P = 1, Tate cohomology of C vanishes."""
        n = A.degree
        for cls, (tag, val) in A.parts.items():
            if tag == "c":
                if any(val):
                    return False
                continue
            P = self.sylow(cls)
            if P.order == 1:
                continue
            cplx, w = self.ctx.complex_for(P), self.restrict_entry(cls, n, (tag, val))
            if cplx.built(n):
                if any(cplx.cohomology(n).project(w)):
                    return False
                continue
            if not cplx.differential(w).is_zero():
                raise ValueError("vector is not in the kernel span (not a cocycle)")
            c = cplx.bounding(w)
            if c is None:
                return False
            if cplx.differential(c) != w:
                raise VerificationError(f"a degree {n} coboundary on the Sylow subgroup of class "
                                        f"{self.group.label(self.cd.reps[cls])} fails d(c) = v")
        return True

    def eq(self, A: DecClass, B: DecClass) -> bool:
        return self.is_zero(self.sub(A, B))


# a basis class: (degree, class, index) of its one nonzero coordinate
Label = Tuple[int, int, int]


class TableOps(DecOps):
    """DecOps whose cup and delta expand coordinate entries over basis
    classes, bilinearly, and read a table that computes each basis product
    and each basis BV image once, by DecOps, on first use.  a.b and b.a are
    separate entries and neither is ever filled from the other, so a graded
    commutativity check on the two stays a check.  A representative entry
    goes to DecOps one component pair at a time.  bracket, add and is_zero
    are DecOps's, so a bracket is read off the two tables."""

    def __init__(self, G: Group, p: int, window: Optional[Tuple[int, int]] = None):
        super().__init__(G, p, window)
        self._cups: Dict[Tuple[Label, Label], DecClass] = {}
        self._deltas: Dict[Label, DecClass] = {}

    def cup(self, A: DecClass, B: DecClass) -> DecClass:
        out = DecClass(A.degree + B.degree)
        for i, ea in A.parts.items():
            for j, eb in B.parts.items():
                if ea[0] == "r" or eb[0] == "r":
                    out = self.add(out, super().cup(DecClass(A.degree, {i: ea}),
                                                    DecClass(B.degree, {j: eb})))
                    continue
                for s, u in enumerate(ea[1]):
                    for t, v in enumerate(eb[1]):
                        if u and v:
                            key = ((A.degree, i, s), (B.degree, j, t))
                            if key not in self._cups:
                                self._cups[key] = super().cup(*(_dec_basis_class(self, lab)
                                                                for lab in key))
                            out = self.add(out, self._cups[key], u * v)
        return out

    def delta(self, A: DecClass) -> DecClass:
        out = DecClass(A.degree - 1)
        for cls, entry in A.parts.items():
            if entry[0] == "r":
                out = self.add(out, super().delta(DecClass(A.degree, {cls: entry})))
                continue
            for i, v in enumerate(entry[1]):
                if v:
                    lab = (A.degree, cls, i)
                    if lab not in self._deltas:
                        self._deltas[lab] = super().delta(_dec_basis_class(self, lab))
                    out = self.add(out, self._deltas[lab], v)
        return out


# ---------------------------------------------------------------------------
# CLI commands

def cmd_info(cfg: JobConfig) -> Dict:
    G = make_group(cfg.group)
    cd = conjugacy_classes(G)
    return {
        "config": _config_dict(cfg),
        "order": G.order,
        "abelian": G.is_abelian,
        "labels": [G.label(g) for g in range(G.order)],
        "classes": [{"rep": G.label(cd.reps[k]), "size": len(cd.classes[k]),
                     "centralizer_order": cd.centralizers[k].order}
                    for k in range(cd.num_classes)],
        "dims_per_degree": {str(d): dim_degree(G, d)
                            for d in range(cfg.window[0], cfg.window[1] + 1)},
        "provenance": _provenance(cfg),
    }


def _config_dict(cfg: JobConfig) -> Dict:
    return {"group": cfg.group, "char": cfg.p, "window": list(cfg.window),
            "seed": cfg.seed, "format": cfg.fmt, "threads": 1}  # every job runs in one thread


def _minimal_generators(p: int, K: List, KI: List, n: int) -> List:
    """The vectors of K, a basis of the submodule K_(n-1), that one feed of
    KI, vectors spanning K_(n-1)·I, and then K keeps as pivots: they lift a
    basis of K_(n-1)/K_(n-1)·I, so by Nakayama they generate K_(n-1), and
    minimally.  As K_(n-1)·I lies in K_(n-1), the feed must find exactly
    len(K) pivots."""
    pivots = _engine(p).feed(KI + K, False)[0]
    if len(pivots) != len(K):
        raise VerificationError(f"resolution at degree {n}: the feed finds {len(pivots)} "
                                f"pivots in a submodule of dimension {len(K)}")
    return [K[j - len(KI)] for j in pivots if j >= len(KI)]


def _orbit_generators(p: int, K: List, orbit) -> List:
    """For a C that is no p-group: the v in K, a basis of the submodule
    K_(n-1), whose orbit(v) holds a pivot of one feed of the orbits of K in
    turn.  Each other orbit lies in the span of those before, so they
    generate K_(n-1); the feed stops at len(K) pivots, and a pick that spans
    less fails the exactness guard of ``_resolution``."""
    E, gens = _engine(p), []
    for v in K:
        if len(E.lead) < len(K) and E.feed(orbit(v), False)[0]:
            gens.append(v)
    return gens


def _resolution(C: Subgroup, p: int, top: int) -> Tuple[List[int], List[List]]:
    """A free resolution F_n = A^(r_n) of F_p over A = F_p[C] up to degree
    top: the indices S of a generating set of C, and per n = 1..top the
    images d_n(e_i) in F_(n-1), engine vectors whose index i*m + a is e_i
    times the a-th member of C (m = |C|).  K_0 = I, d_n sends e_i g to
    generator_i g, and K_n = ker d_n.  For a p-group C, F_p[C] is local and
    ``_minimal_generators`` picks against K_(n-1)·I, which the v(s-1) span
    (v in K_(n-1), s in S); for other C ``_orbit_generators`` picks.  Guards
    (VerificationError): the pick's, rank d_n = dim K_(n-1) (exactness) and,
    for a p-group, K_n in F_n·I, entry sum 0 in each block (minimality)."""
    m, mult = C.order, C.parent.mult
    where = {g: a for a, g in enumerate(C.members)}
    right = [[where[mult[g][h]] for g in C.members] for h in C.members]  # [b][a]: member a times b
    S: List[int] = []  # the indices of a generating set of C
    for b in range(1, m):
        if C.members[b] not in generated_subgroup(C.parent, [C.members[s] for s in S]):
            S.append(b)
    local = pow(p, m, m) == 0  # m divides p^m: C is a p-group
    E = _engine(p)
    K = [E.split({0: p - 1, a: 1}) for a in range(1, m)]  # the basis g - 1 of K_0 = I
    out: List[List] = []
    for n in range(1, top + 1):
        acts = [[i * m + a for i in range(len(out[-1]) if out else 1) for a in row] for row in right]
        if local:
            gens = _minimal_generators(p, K, [E.sub(E.permute(v, acts[s]), v) for v in K for s in S], n)
        else:
            gens = _orbit_generators(p, K, lambda v: [E.permute(v, act) for act in acts])
        d = SparseMatrix(len(acts[0]), len(gens) * m, p, None,
                         vectors=lambda _: (E.permute(g, act) for g in gens for act in acts))
        pivots, kernel = _eliminate(d, True)
        if len(pivots) != len(K):
            raise VerificationError(f"resolution at degree {n}: d_{n} has rank {len(pivots)}, "
                                    f"not dim K_{n - 1} = {len(K)}")
        K = [c for _, c in kernel]
        if local and any(any(E.block_sums(c, m)) for c in K):
            raise VerificationError(f"resolution at degree {n}: ker d_{n} is not in F_{n}·I, "
                                    "so the resolution is not minimal")
        out.append(gens)
    return S, out


def resolution_dims(ranks: List[int], degrees: Sequence[int]) -> List[int]:
    """dim Ĥ^n(C) in each degree n, from ranks[k] = dim Ĥ^k(C) for k =
    0..top, top >= max(n, -n-1): ranks[n] for n >= 0, and ranks[-n-1] for
    n <= -1 by Tate duality (Green, LNM 1828; Brown VI.7)."""
    return [ranks[n if n >= 0 else -n - 1] for n in degrees]


def sylow_ranks(C: Subgroup, P: Subgroup, p: int, top: int) -> List[int]:
    """dim Ĥ^n(C) for n = 0..top, P a Sylow p-subgroup of C with 1 < P < C.
    ``_resolution``'s minimal resolution of F_p over F_p[P], induced up to C
    (the same generators, each d_n(e_i) re-indexed from P's members to
    C's), resolves k[P\\C]; [C:P] is a unit, so phi = [C:P]^-1 (norm o aug)
    is an idempotent on k[P\\C] with image k (Higman's criterion; Brown
    III.9-10).  Its lift Phi has Phi_0(e) = [C:P]^-1 times the sum of the
    right coset representatives, and Phi_n(e_i) the x with d_n x =
    Phi_(n-1)(d_n e_i), which ``clear`` reads off one tracked feed of d_n
    (it leaves c with d_n c = -v).  Hom_C(F_n, k) = k^(r_n) has zero
    differential, as P's resolution is minimal, and Phi_n^* on it is the
    matrix M_n whose column i is the block sums of Phi_n(e_i); so dim
    Ĥ^n(C) = rank M_n for n >= 1, and Ĥ^0 = F_p.  Guards
    (VerificationError): ``_resolution``'s, every solve leaving zero, and
    M_n^2 = M_n."""
    m, mult = C.order, C.parent.mult
    where = {g: a for a, g in enumerate(C.members)}
    right = [[where[mult[g][h]] for g in C.members] for h in C.members]  # [b][a]: member a times b
    into = [where[g] for g in P.members]
    E = _engine(p)
    zero = E.split({})
    cosets = dict.fromkeys([where[g] for g in right_coset_system(P, C.members).gamma], 1)
    phi = [E.scale(E.split(cosets), pow(m // P.order, -1, p))]
    ranks = [1]
    for n, gens in enumerate(_resolution(P, p, top)[1], 1):
        r = len(phi)  # r_(n-1)
        acts = [[i * m + a for i in range(r) for a in row] for row in right]
        d = [E.permute(g, [i * m + a for i in range(r) for a in into]) for g in gens]
        echelon = _engine(p)
        echelon.feed((E.permute(g, act) for g in d for act in acts), True)
        phi_n = []
        for g in gens:  # Phi_(n-1)(d_n e_i), read on P's indices
            v = zero
            for t, x in enumerate(E.coords(g, r * P.order)):
                if x:
                    v = E.sub(v, E.scale(E.permute(phi[t // P.order], acts[into[t % P.order]]), -x))
            v, c = echelon.clear(v, zero)
            if E.support(v):
                raise VerificationError(f"induced resolution at degree {n}: Phi_{n - 1} d_{n} "
                                        f"is not in im d_{n}")
            phi_n.append(E.scale(c, -1))
        M = [(E.block_sums(x, m) + [0] * len(gens))[:len(gens)] for x in phi_n]
        for col in M:
            if [sum(M[k][i] * c for k, c in enumerate(col)) % p for i in range(len(col))] != col:
                raise VerificationError(f"induced resolution at degree {n}: M_{n}^2 != M_{n}")
        ranks.append(_rank_of(p, len(M), [dict(enumerate(col)) for col in M]))
        phi = phi_n
    return ranks


def _rank_of(p: int, nrows: int, cols: List[Dict[int, int]]) -> int:
    return rank(SparseMatrix(nrows, len(cols), p, lambda: [
        {i: x % p for i, x in c.items() if x % p} for c in cols]))


def _tate_ends(p: int, act: List[List[int]], S: Sequence[int]) -> Tuple[int, int]:
    """(dim Ĥ^0, dim Ĥ^-1) = (dim M^G/N·M, dim ker N/M·I), M the permutation
    module y g = act[g][y], by the ranks of N = sum_g g, of y -> (y s - y)_s
    (kernel M^G) and of (s, y) -> y s - y (image M·I), s in the generators S."""
    k = len(act[0])
    moves = [[{} if act[s][y] == y else {act[s][y]: 1, y: -1} for y in range(k)] for s in S]
    rank_n = _rank_of(p, k, [collections.Counter(row[y] for row in act) for y in range(k)])
    fixed = k - _rank_of(p, len(S) * k, [{t * k + z: x for t, col in enumerate(moves)
                                          for z, x in col[y].items()} for y in range(k)])
    return fixed - rank_n, k - rank_n - _rank_of(p, k, [c for col in moves for c in col])


def direct_dims(G: Group, p: int, cd: ConjugacyData, degrees: Sequence[int],
                resolution: Optional[Tuple[List[int], List[List]]] = None) -> List[List[int]]:
    """dim Ĥ^n(G, k[K]) for each class K of cd and degree n, k[K] under y g
    = g^-1 y g, without Shapiro's lemma: the other side of ``dims``'s check.
    ``resolution``, if given, is ``_resolution`` of G to a degree of at
    least max(n, -n-1) + 1 over degrees, which is then not built again.
    On F from ``_resolution``, Hom_G(F_n, k[K]) = k[K]^(r_n); if d_(n+1) e_i
    = sum_(j,a) c_ija e_j g_a, delta_n is r_(n+1)|K| x r_n|K| with blocks
    (i, j) = sum_a c_ija rho(g_a), c_ija at row (i, y g_a) of column (j, y).
    dim Ĥ^n = r_n|K| - rank delta_n - rank delta_(n-1) for n >= 1, n = 0,
    -1 are ``_tate_ends``'s, and n <= -2 reads -n-1: k[K] is self-dual."""
    m, mult, inv = G.order, G.mult, G.inv
    top = max((max(n, -n - 1) for n in degrees), default=0)
    depth = top + 1 if top else 0  # delta_top reads d_(top+1)
    S, gens = resolution or _resolution(whole_group(G), p, depth)
    gens = gens[:depth]
    E, ranks = _engine(p), [1] + [len(gs) for gs in gens]
    terms = [[(i, t // m, t % m, x) for i, g in enumerate(gs) for t, x in enumerate(E.coords(g, r * m))
              if x] for r, gs in zip(ranks, gens)]  # per n, the (i, j, a, c_ija) of d_(n+1)
    out = []
    for K in cd.classes:
        k, at = len(K), {y: i for i, y in enumerate(K)}
        act = [[at[mult[mult[inv[g]][y]][g]] for y in K] for g in range(m)]
        delta = []  # rank delta_n for n = 0..top
        for r, r_next, cs in zip(ranks, ranks[1:], terms):
            cols = [collections.Counter() for _ in range(r * k)]
            for i, j, a, x in cs:
                for y, z in enumerate(act[a]):
                    cols[j * k + y][i * k + z] += x
            delta.append(_rank_of(p, r_next * k, cols))
        dims = dict(zip((0, -1), _tate_ends(p, act, S)))
        dims.update((n, ranks[n] * k - delta[n] - delta[n - 1]) for n in range(1, top + 1))
        out.append([dims[n if n >= -1 else -n - 1] for n in degrees])
    return out


def cmd_dims(cfg: JobConfig) -> Dict:
    """dim HH^n(kG) as the sum over conjugacy classes of dim Ĥ^n(C_k), each
    distinct centralizer read once by the route its Sylow p-subgroup P
    picks (module docstring): zeros for P = 1, and otherwise
    ``resolution_dims`` of the ranks of C's minimal resolution for P = C,
    or of ``sylow_ranks`` for P < C; no complex is built.  Where the D-complex fits
    DIRECT_COLUMN_CAP, ``direct_dims`` must agree with it class by class on
    the inner degrees, and ``direct`` holds their totals.  If G is a
    p-group, both sides read one resolution of G, as they need it to the
    same degree max(hi, -lo-1)."""
    G = make_group(cfg.group)
    cd = conjugacy_classes(G)
    lo, hi = cfg.window
    check_decomposition_cost(cd, cfg.window)
    top = max(hi, -lo - 1)
    degrees = list(range(lo, hi + 1))
    dims: Dict[Tuple[int, ...], List[int]] = {}
    whole = None  # G's resolution, if G is a p-group
    for C in cd.centralizers:
        if C.members in dims:
            continue
        P = sylow_subgroup(C, cfg.p)
        if P.order == 1:
            dims[C.members] = [0] * len(degrees)
        elif P.order == C.order:
            resolution = _resolution(C, cfg.p, top)
            dims[C.members] = resolution_dims([1] + [len(g) for g in resolution[1]], degrees)
            if C.order == G.order:
                whole = resolution
        else:
            dims[C.members] = resolution_dims(sylow_ranks(C, P, cfg.p, top), degrees)
    per_class = [dims[C.members] for C in cd.centralizers]
    totals = [sum(col) for col in zip(*per_class)] if per_class else []

    direct: Optional[Dict[str, int]] = None
    if direct_fits(G, lo, hi):
        inner = range(lo + 1, hi)
        by_class = direct_dims(G, cfg.p, cd, inner, whole)
        for n, k in ((n, k) for t, n in enumerate(inner) for k in range(cd.num_classes)
                     if by_class[k][t] != per_class[k][n - lo]):
            raise VerificationError(f"direct and decomposition dims disagree at degree {n} "
                                    f"on class {G.label(cd.reps[k])}")
        direct = {str(n): sum(col) for n, col in zip(inner, zip(*by_class))}
    return {
        "config": _config_dict(cfg),
        "dims": {"degrees": degrees, "total": totals,
                 "per_class": {G.label(cd.reps[k]): per_class[k] for k in range(cd.num_classes)},
                 "direct": direct},
        "classes": [G.label(r) for r in cd.reps],
        "tables": None,
        "provenance": _provenance(cfg),
    }


def _basis_labels(ops: DecOps, degrees: Sequence[int]) -> List[Label]:
    out = []
    for d in degrees:
        for cls in range(ops.cd.num_classes):
            for i in range(ops.cls_dim(cls, d)):
                out.append((d, cls, i))
    return out


def _label_str(ops: DecOps, lab: Label) -> str:
    d, cls, i = lab
    return f"deg{d}:{ops.group.label(ops.cd.reps[cls])}:{i}"


def _dec_basis_class(ops: DecOps, lab: Label) -> DecClass:
    d, cls, i = lab
    space = ops.space(cls, d)
    coords = [1 if j == i else 0 for j in range(space.dim)]
    return ops.from_class(cls, CohClass(space, tuple(coords)))


def _dec_to_vector(ops: DecOps, A: DecClass) -> Optional[Dict[str, int]]:
    out: Dict[str, int] = {}
    for cls, (tag, val) in A.parts.items():
        if tag != "c":
            return None
        for i, v in enumerate(val):
            if v:
                out[_label_str(ops, (A.degree, cls, i))] = v
    return out


def direct_cup(ops: DecOps, dec: ClassDecomposition, i: int, a: GroupTateElement,
               j: int, b: GroupTateElement) -> Dict[int, Tuple[int, ...]]:
    """The product of cocycles a (class i) and b (class j) on the direct
    path: both retracted up into the D-complex of ``dec``, cupped there, and
    retracted down; each class component is projected onto ``ops.space``,
    and the nonzero coordinate tuples are kept by class."""
    down = dec.retract_down(cup(dec.retract_up(i, a), dec.retract_up(j, b)))
    out: Dict[int, Tuple[int, ...]] = {}
    for k, g in down.items():
        coords = tuple(ops.space(k, a.degree + b.degree).project(g))
        if any(coords):
            out[k] = coords
    return out


def _graded_table(ops: DecOps, labels: List[Label], basis: Dict[Label, DecClass], in_window,
                  op, sign) -> Dict[Tuple[Label, Label], DecClass]:
    """op on every ordered pair (a, b) of labels with in_window(|a| + |b|):
    computed by op where a <= b in label order, and filled otherwise as
    sign(|a|, |b|) times the entry of (b, a), computed before it."""
    out: Dict[Tuple[Label, Label], DecClass] = {}
    for la in labels:
        for lb in labels:
            if in_window(la[0] + lb[0]):
                out[la, lb] = (op(basis[la], basis[lb]) if la <= lb
                               else ops.scale(out[lb, la], sign(la[0], lb[0])))
    return out


def _check_filled(ops: DecOps, table: Dict[Tuple[Label, Label], DecClass],
                  basis: Dict[Label, DecClass], op, rng: random.Random, name: str) -> None:
    """Recompute a seeded tenth (at least one) of the entries that
    _graded_table filled, each by op in its own order; raise
    VerificationError on the first that differs."""
    filled = [(la, lb) for la, lb in table if lb < la]
    for la, lb in rng.sample(filled, min(len(filled), max(1, len(filled) // 10))):
        if not ops.eq(op(basis[la], basis[lb]), table[la, lb]):
            raise VerificationError(f"{name} of {_label_str(ops, la)} and {_label_str(ops, lb)} "
                                    f"differs from the entry filled from its other order")


def cmd_tables(cfg: JobConfig) -> Dict:
    """Cup, BV and bracket structure constants on the basis classes of
    degrees lo..hi.  Only the printed degrees lo..hi are put into
    coordinates: the BV images of degree-lo classes, in degree lo-1, stay
    representatives for the next cup, so no cohomology space outside lo..hi
    is built.  Each unordered pair of basis labels is computed once, in label
    order; the other order is filled by graded commutativity,
    b.a = (-1)^(|a||b|) a.b, and graded antisymmetry,
    [b, a] = -(-1)^((|a|-1)(|b|-1)) [a, b].  The brackets are TableOps.bracket,
    whose terms are read off the cup and BV tables; only a product with a
    degree lo-1 factor runs a cup of its own.  A seeded tenth of the filled
    brackets, and of the filled cups where the direct path is over
    DIRECT_COLUMN_CAP, is recomputed in its own order; where the direct path
    runs, its 10% spot check draws filled cups as well as computed ones."""
    check_dec_window(cfg.window)
    G = make_group(cfg.group)
    cd = conjugacy_classes(G)
    check_decomposition_cost(cd, cfg.window)
    lo, hi = cfg.window
    ops = TableOps(G, cfg.p, window=cfg.window)
    rng = random.Random(cfg.seed)
    degrees = list(range(lo, hi + 1))
    labels = _basis_labels(ops, degrees)
    basis = {la: _dec_basis_class(ops, la) for la in labels}
    names = {la: _label_str(ops, la) for la in labels}

    cups = _graded_table(ops, labels, basis, lambda d: lo <= d <= hi, ops.cup,
                         lambda da, db: sign_pow(da * db))
    cup_table = {f"{names[la]} * {names[lb]}": _dec_to_vector(ops, cups[la, lb])
                 if (la, lb) in cups else None for la in labels for lb in labels}
    products = [(la, lb, prod) for (la, lb), prod in cups.items() if any(prod.parts)]

    delta_table = {names[la]: _dec_to_vector(ops, ops.delta(basis[la]))
                   if lo <= la[0] - 1 else None for la in labels}

    brackets = _graded_table(ops, labels, basis, lambda d: lo < d <= hi, ops.bracket,
                             lambda da, db: -sign_pow((da - 1) * (db - 1)))
    bracket_table = {f"[{names[la]}, {names[lb]}]": _dec_to_vector(ops, brackets[la, lb])
                     if (la, lb) in brackets else None for la in labels for lb in labels}

    direct = direct_fits(G, lo - 1, hi + 1)
    mirror_rng = random.Random(f"{cfg.seed}:mirror")
    if not direct:  # else the spot check below compares filled cups
        _check_filled(ops, cups, basis, ops.cup, mirror_rng, "cup")
    _check_filled(ops, brackets, basis, ops.bracket, mirror_rng, "bracket")

    # spot-check exported structure constants against the direct path
    spot = {"checked": 0, "failed": 0}
    if direct:
        decd = ClassDecomposition(DComplex(G, cfg.p, (lo - 1, hi + 1)), cd)
        rng.shuffle(products)
        for la, lb, expect in products[: max(1, len(products) // 10)]:
            got = direct_cup(ops, decd, la[1], ops.space(la[1], la[0]).representative(la[2]),
                             lb[1], ops.space(lb[1], lb[0]).representative(lb[2]))
            want = {cls: val for cls, (tag, val) in expect.parts.items()}
            spot["checked"] += 1
            if got != want:
                spot["failed"] += 1
    if spot["failed"]:
        raise VerificationError(f"direct-path spot check failed on {spot['failed']} products")

    return {
        "config": _config_dict(cfg),
        "dims": {str(d): sum(ops.cls_dim(c, d) for c in range(cd.num_classes)) for d in degrees},
        "classes": [G.label(r) for r in cd.reps],
        "tables": {"basis": [_label_str(ops, l) for l in labels],
                   "cup": cup_table, "delta": delta_table, "bracket": bracket_table,
                   "spot_check": spot},
        "provenance": _provenance(cfg),
    }


def cmd_export_diff(cfg: JobConfig) -> Dict:
    G = make_group(cfg.group)
    lo, hi = cfg.window
    if not direct_fits(G, lo - 1, hi + 1):
        raise CostCapError(f"direct path needs more than {DIRECT_COLUMN_CAP} basis columns")
    dc = DComplex(G, cfg.p, (lo, hi))
    triples = []
    for d in range(lo, hi):
        M = dc.matrix(d)
        for i, j, v in M.triples():
            triples.append([d, i, j, v])
    return {
        "config": _config_dict(cfg),
        "format": "(degree, row, col, value); row/col index the canonical bases "
                  "of degrees d+1 and d",
        "triples": triples,
        "provenance": _provenance(cfg),
    }
