"""Conjugation, restriction and corestriction on subgroup Tate complexes,
cup products on subgroup cohomology through the ambient Tate-Hochschild
complex, and the double-coset product formula.

All three structure maps are realized on the standard complexes by the
coset-threading comparison machinery (the same construction as the
centralizer retracts, applied to an arbitrary pair H <= K):

* conjugation is entrywise, in both degree signs;
* cochain restriction restricts the map to tuples over the subgroup, and
  chain corestriction includes tuples -- the two cheap directions;
* cochain corestriction and chain restriction are the coset-threading
  sums over a fixed right transversal: over the coset paths of
  CosetSystem.paths, and over CosetSystem.thread from each coset.

The double-coset product evaluates, for each double coset representative,
conjugate-restrict-cup-corestrict at the chain level and accumulates the
result per target conjugacy class.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .bv import CohClass, class_of, cup
from .complexes import DComplex, GroupComplex, GroupTateElement, Key, TateElement, _acc
from .groups import (ConjugacyData, CosetSystem, Group, Subgroup, class_rep_and_witness,
                     conjugate_subgroup, double_cosets, intersect_subgroups,
                     right_coset_system)

SubgroupClass = CohClass

# Degrees of the D-complex of each subgroup's local model.  Transfers act
# on classes of a job's products, whose degrees stay within -40..40 for
# every group of order >= 3 that passes harness.DECOMPOSITION_CAP (see
# harness.DEC_WINDOW); the margin costs nothing, as bases are built lazily.
LOCAL_WINDOW = (-99, 99)


class TransferContext:
    """Shared caches for one (group, characteristic) pair."""

    def __init__(self, G: Group, p: int, cd: ConjugacyData):
        self.group = G
        self.p = p
        self.cd = cd
        self._complexes: Dict[Tuple[int, ...], GroupComplex] = {}
        self._cosets: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], CosetSystem] = {}
        self._subgroups: Dict[Tuple[int, ...], Subgroup] = {}
        self._locals: Dict[Tuple[int, ...], Tuple[Group, Dict[int, int], Tuple[int, ...], DComplex]] = {}
        self._dcs: Dict[Tuple[int, int], object] = {}

    def subgroup(self, members) -> Subgroup:
        key = tuple(sorted(members))
        if key not in self._subgroups:
            self._subgroups[key] = Subgroup(self.group, key)
        return self._subgroups[key]

    def complex_for(self, H: Subgroup) -> GroupComplex:
        key = H.members
        if key not in self._complexes:
            self._complexes[key] = GroupComplex(H, self.p)
        return self._complexes[key]

    def cosets_in(self, K: Subgroup, H: Subgroup) -> CosetSystem:
        key = (K.members, H.members)
        if key not in self._cosets:
            self._cosets[key] = right_coset_system(H, ambient=K.members)
        return self._cosets[key]

    def local_model(self, H: Subgroup):
        key = H.members
        if key not in self._locals:
            Gloc, to_local, from_local = H.as_group()
            dc = DComplex(Gloc, self.p, LOCAL_WINDOW)
            self._locals[key] = (Gloc, to_local, from_local, dc)
        return self._locals[key]

    def double_cosets(self, i: int, j: int):
        key = (i, j)
        if key not in self._dcs:
            self._dcs[key] = double_cosets(self.group, self.cd.centralizers[i],
                                           self.cd.centralizers[j])
        return self._dcs[key]

    # -- chain-level structure maps ------------------------------------------

    def conjugate_element(self, g: int, elem: GroupTateElement) -> GroupTateElement:
        """Entrywise conjugation onto the complex of gHg^-1."""
        G = self.group
        H = elem.subgroup
        target = self.complex_for(self.subgroup(G.conj(g, h) for h in H.members))
        out = {tuple(G.conj(g, t) for t in T): c for T, c in elem.coeffs.items()}
        return target.element(elem.degree, out)

    def restrict_element(self, H: Subgroup, elem: GroupTateElement) -> GroupTateElement:
        """res^K_H at the complex level; K is the subgroup elem lives over."""
        K = elem.subgroup
        if not all(h in K for h in H.members):
            raise ValueError("restriction target is not a subgroup of the source")
        target = self.complex_for(H)
        d = elem.degree
        out: Dict[Key, int] = {}
        if d >= 0:
            for T, c in elem.coeffs.items():
                if all(t in H for t in T):
                    _acc(out, T, c)
        else:
            cs = self.cosets_in(K, H)
            for T, c in elem.coeffs.items():
                for i in range(cs.count):
                    hs, _ = cs.thread(i, T)
                    if all(hs):
                        _acc(out, hs, c)
        return target.element(d, out)

    def corestrict_element(self, K: Subgroup, elem: GroupTateElement) -> GroupTateElement:
        """cor^K_H at the complex level; H is the subgroup elem lives over."""
        H = elem.subgroup
        if not all(h in K for h in H.members):
            raise ValueError("corestriction source is not a subgroup of the target")
        target = self.complex_for(K)
        d = elem.degree
        out: Dict[Key, int] = {}
        if d < 0:
            for T, c in elem.coeffs.items():
                _acc(out, T, c)
            return target.element(d, out)
        cs = self.cosets_in(K, H)
        for T, c in elem.coeffs.items():
            for _, gs in cs.paths(T):
                _acc(out, gs, c)
        return target.element(d, out)

    # -- cup products through the ambient complex -----------------------------

    def embed_identity(self, elem: GroupTateElement) -> TateElement:
        """Identity-class embedding of a subgroup Tate element into D*(kH,kH)."""
        Gloc, to_local, _, dc = self.local_model(elem.subgroup)
        out: Dict[Key, int] = {}
        if elem.degree >= 0:
            for T, c in elem.coeffs.items():
                loc = tuple(to_local[t] for t in T)
                out[(loc, Gloc.prod(loc))] = c
        else:
            for T, c in elem.coeffs.items():
                loc = tuple(to_local[t] for t in T)
                out[(Gloc.inv[Gloc.prod(loc)], loc)] = c
        return dc.element(elem.degree, out)

    def project_identity(self, H: Subgroup, elem: TateElement) -> GroupTateElement:
        """Identity-class projection back from D*(kH,kH); off-component keys
        are rejected (the product of identity components must stay there)."""
        Gloc, _, from_local, _ = self.local_model(H)
        target = self.complex_for(H)
        out: Dict[Key, int] = {}
        if elem.degree >= 0:
            for (A, h), c in elem.coeffs.items():
                if h != Gloc.prod(A):
                    raise ValueError("product left the identity-class component")
                _acc(out, tuple(from_local[a] for a in A), c)
        else:
            for (g0, T), c in elem.coeffs.items():
                if g0 != Gloc.inv[Gloc.prod(T)]:
                    raise ValueError("product left the identity-class component")
                _acc(out, tuple(from_local[a] for a in T), c)
        return target.element(elem.degree, out)

    def group_cup_rep(self, a: GroupTateElement, b: GroupTateElement) -> GroupTateElement:
        """Cup product of subgroup Tate cochains through D* of the subgroup."""
        if a.subgroup.members != b.subgroup.members:
            raise ValueError("cup factors live over different subgroups")
        prod = cup(self.embed_identity(a), self.embed_identity(b))
        return self.project_identity(a.subgroup, prod)

    def group_cup(self, a: SubgroupClass, b: SubgroupClass) -> SubgroupClass:
        rep = self.group_cup_rep(a.space.lift(list(a.coords)), b.space.lift(list(b.coords)))
        space = a.space.complex.cohomology(a.degree + b.degree)
        return class_of(space, rep)

    # -- the double-coset product ---------------------------------------------

    def double_coset_cup_reps(self, i: int, j: int, a: GroupTateElement,
                              b: GroupTateElement) -> Dict[int, GroupTateElement]:
        """Chain-level double-coset product of centralizer classes.

        a lives over the centralizer of the i-th class representative, b over
        the j-th; the result collects one cocycle per target class k.
        """
        G, cd = self.group, self.cd
        gi, gj = cd.reps[i], cd.reps[j]
        Hi, Hj = cd.centralizers[i], cd.centralizers[j]
        out: Dict[int, GroupTateElement] = {}
        for x in self.double_cosets(i, j).reps:
            w = G.mult[gi][G.conj(x, gj)]
            k, y = class_rep_and_witness(cd, w)
            yx = G.mult[y][x]
            Hi_y = self.subgroup(conjugate_subgroup(G, y, Hi).members)
            Hj_yx = self.subgroup(conjugate_subgroup(G, yx, Hj).members)
            W = self.subgroup(intersect_subgroups(Hj_yx, Hi_y).members)
            Hk = cd.centralizers[k]
            if not all(u in Hk for u in W.members):
                raise AssertionError("double-coset intersection escaped the centralizer")
            ra = self.restrict_element(W, self.conjugate_element(y, a))
            rb = self.restrict_element(W, self.conjugate_element(yx, b))
            term = self.corestrict_element(Hk, self.group_cup_rep(ra, rb))
            if k in out:
                out[k] = out[k].add(term)
            else:
                out[k] = term
        return {k: v for k, v in out.items() if not v.is_zero()}

    def double_coset_cup(self, i: int, j: int, a: SubgroupClass,
                         b: SubgroupClass) -> Dict[int, SubgroupClass]:
        reps = self.double_coset_cup_reps(i, j, a.space.lift(list(a.coords)),
                                          b.space.lift(list(b.coords)))
        deg = a.degree + b.degree
        out: Dict[int, SubgroupClass] = {}
        for k, elem in reps.items():
            space = self.complex_for(self.cd.centralizers[k]).cohomology(deg)
            out[k] = class_of(space, elem)
        return out

    # -- class-level structure maps -------------------------------------------

    def conjugation(self, g: int, c: SubgroupClass) -> SubgroupClass:
        elem = self.conjugate_element(g, c.space.lift(list(c.coords)))
        return class_of(elem.complex.cohomology(c.degree), elem)

    def restriction(self, H: Subgroup, c: SubgroupClass) -> SubgroupClass:
        elem = self.restrict_element(H, c.space.lift(list(c.coords)))
        return class_of(elem.complex.cohomology(c.degree), elem)

    def corestriction(self, K: Subgroup, c: SubgroupClass) -> SubgroupClass:
        elem = self.corestrict_element(K, c.space.lift(list(c.coords)))
        return class_of(elem.complex.cohomology(c.degree), elem)
