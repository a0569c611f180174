"""Conjugation, restriction and corestriction on subgroup Tate complexes,
cup products of subgroup Tate cochains, and the double-coset product formula.

All three structure maps are realized on the standard complexes by the
coset-threading comparison machinery (the same construction as the
centralizer retracts, applied to an arbitrary pair H <= K):

* conjugation is entrywise, in both degree signs;
* cochain restriction restricts the map to tuples over the subgroup, and
  chain corestriction includes tuples -- the two cheap directions;
* cochain corestriction and chain restriction are the coset-threading
  sums over a fixed right transversal: over the coset paths of
  CosetSystem.paths, and over CosetSystem.thread from each coset.
  Cochain corestriction has one routine, ``corestrict_terms``, which
  ``corestrict_element`` and the double-coset product share; it reads the
  slot tuples of each key's coset paths from a memo kept per coset system.

The cup product is the identity-class component of bv.cup on D*(kH, kH),
which the cup keeps, read directly on the subgroup's tuples;
``group_cup_rep`` adds its terms into a dict its caller passes.

The double-coset product (``double_coset_cup_reps``, which DecOps.cup
reads into class coordinates) evaluates, for each double coset
representative, conjugate-restrict-cup-corestrict at the chain level and
sums the terms of each target conjugacy class into one unreduced dict,
which becomes one element at the end.  Where W = C_k (cor is the identity)
or the product has negative degree (cor is the inclusion), the cup terms
go straight into that dict.  Everything in it that depends only on the
group is built once per context: the plan of each class pair (target
class, conjugating elements, intersection subgroup and centralizer per
double coset), the conjugation row and target complex of each (g, H), the
coset-path slot tuples of each cochain key under each coset system, and
(in CosetSystem) the coset step table of each g.  So is each factor
res_W conj_y a of a factor that its caller labels (``cup_factor``): DecOps
labels each coordinate entry by its basis label, and a factor met in many
double cosets of many class pairs is conjugated and restricted once per
(label, y, W).  No product is kept.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from .complexes import GroupComplex, GroupTateElement, Key, _acc
from .groups import (ConjugacyData, CosetSystem, Group, Subgroup, class_rep_and_witness,
                     conjugate_subgroup, double_cosets, intersect_subgroups,
                     right_coset_system)


class TransferContext:
    """Shared caches for one (group, characteristic) pair."""

    def __init__(self, G: Group, p: int, cd: ConjugacyData):
        self.group = G
        self.p = p
        self.cd = cd
        self._complexes: Dict[Tuple[int, ...], GroupComplex] = {}
        self._cosets: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], CosetSystem] = {}
        self._subgroups: Dict[Tuple[int, ...], Subgroup] = {}
        self._conjugations: Dict[Tuple[int, Tuple[int, ...]], Tuple[List[int], GroupComplex]] = {}
        self._plans: Dict[Tuple[int, int], List[Tuple[int, int, int, Subgroup, Subgroup]]] = {}
        self._factors: Dict[Tuple[Hashable, int, Tuple[int, ...]], GroupTateElement] = {}
        self._paths: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Dict[Key, Tuple[Key, ...]]] = {}

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

    # -- chain-level structure maps ------------------------------------------

    def conjugate_element(self, g: int, elem: GroupTateElement) -> GroupTateElement:
        """Entrywise conjugation onto the complex of gHg^-1."""
        key = (g, elem.subgroup.members)
        if key not in self._conjugations:
            row = [self.group.conj(g, t) for t in range(self.group.order)]
            self._conjugations[key] = row, self.complex_for(self.subgroup(row[h] for h in key[1]))
        row, target = self._conjugations[key]
        return target.element(elem.degree, {tuple([row[t] for t in T]): c
                                            for T, c in elem.coeffs.items()})

    def restrict_element(self, H: Subgroup, elem: GroupTateElement) -> GroupTateElement:
        """res^K_H at the complex level; K is the subgroup elem lives over."""
        K = elem.subgroup
        if not K.member_set.issuperset(H.members):
            raise ValueError("restriction target is not a subgroup of the source")
        target = self.complex_for(H)
        d = elem.degree
        out: Dict[Key, int] = {}
        if d >= 0:
            inside = H.member_set.issuperset
            for T, c in elem.coeffs.items():
                if inside(T):
                    _acc(out, T, c)
        else:
            cs = self.cosets_in(K, H)
            for T, c in elem.coeffs.items():
                for i in range(cs.count):
                    hs, _ = cs.thread(i, T)
                    if all(hs):
                        _acc(out, hs, c)
        return target.element(d, out)

    def corestrict_terms(self, K: Subgroup, H: Subgroup, coeffs: Dict[Key, int],
                         out: Dict[Key, int]) -> Dict[Key, int]:
        """Adds the cochain corestriction cor^K_H of coeffs (terms of one
        degree >= 0 over H < K) into out, unreduced: each key T goes to the
        slot tuples of its coset paths (CosetSystem.paths).  Those tuples are
        group data, kept per coset system and T for the life of this context,
        so each key is threaded once however many products reach it."""
        memo = self._paths.setdefault((K.members, H.members), {})
        for T, c in coeffs.items():
            slots = memo.get(T)
            if slots is None:
                slots = memo[T] = tuple([gs for _, gs in self.cosets_in(K, H).paths(T)])
            for gs in slots:
                _acc(out, gs, c)
        return out

    def corestrict_element(self, K: Subgroup, elem: GroupTateElement) -> GroupTateElement:
        """cor^K_H at the complex level; H is the subgroup elem lives over.
        On chains cor is the inclusion and cor^K_K the identity, so both copy
        the terms; otherwise they pass through ``corestrict_terms``."""
        H = elem.subgroup
        if not K.member_set.issuperset(H.members):
            raise ValueError("corestriction source is not a subgroup of the target")
        d = elem.degree
        coeffs = elem.coeffs
        if d >= 0 and H.members != K.members:
            coeffs = self.corestrict_terms(K, H, coeffs, {})
        return self.complex_for(K).element(d, coeffs)

    # -- cup products on subgroup tuples -------------------------------------

    def group_cup_rep(self, a: GroupTateElement, b: GroupTateElement,
                      out: Dict[Key, int]) -> Dict[Key, int]:
        """Adds the cup product of subgroup Tate cochains a and b, of degree
        a.degree + b.degree over their common subgroup, into out, unreduced:
        bv.cup's six degree-sign cases on the identity-class component of
        D*(kH, kH) (a cochain T as (T, prod T), a chain T as ((prod T)^-1, T)),
        read on tuples in bv.cup's loop order.  tests/test_transfer.py pins it
        to the ambient cup."""
        H = a.subgroup
        if H.members != b.subgroup.members:
            raise ValueError("cup factors live over different subgroups")
        G = self.group
        mult, inv = G.mult, G.inv
        da, db = a.degree, b.degree
        ac, bc = a.coeffs, b.coeffs
        if da >= 0 and db >= 0:
            for A, ca in ac.items():
                for B, cb in bc.items():
                    _acc(out, A + B, ca * cb)
        elif da <= -1 and db <= -1:
            for gs, ca in ac.items():
                g0 = inv[G.prod(gs)]
                mids = [m for m in (mult[inv[g]][g0] for g in H.members) if m]
                for ht, cb in bc.items():
                    c = ca * cb
                    for mid in mids:
                        _acc(out, ht + (mid,) + gs, c)
        elif da >= 0:
            n, t = da, -db - 1
            if da + db <= -1:
                for ht, cb in bc.items():
                    ca = ac.get(ht[t - n:])
                    if ca:
                        _acc(out, ht[:t - n], ca * cb)
            else:
                cut = n - t - 1
                for A, ca in ac.items():
                    cb = bc.get(A[cut + 1:])
                    if cb:
                        _acc(out, A[:cut], ca * cb)
        else:
            s, m = -da - 1, db
            if da + db <= -1:
                for gs, ca in ac.items():
                    cb = bc.get(gs[:m])
                    if cb:
                        _acc(out, gs[m:], ca * cb)
            else:
                for B, cb in bc.items():
                    ca = ac.get(B[:s])
                    if ca:
                        _acc(out, B[s + 1:], ca * cb)
        return out

    # -- the double-coset product ---------------------------------------------

    def double_coset_plan(self, i: int, j: int) -> List[Tuple[int, int, int, Subgroup, Subgroup]]:
        """(k, y, yx, W, C_k) for each double coset C_i x C_j, built once per
        (i, j): y conjugates g_i x g_j x^-1 to the k-th class representative,
        and W = y C_i y^-1 meets yx C_j (yx)^-1, inside the centralizer C_k."""
        if (i, j) not in self._plans:
            G, cd = self.group, self.cd
            Hi, Hj = cd.centralizers[i], cd.centralizers[j]
            plan = []
            for x in double_cosets(G, Hi, Hj):
                k, y = class_rep_and_witness(cd, G.mult[cd.reps[i]][G.conj(x, cd.reps[j])])
                yx = G.mult[y][x]
                W = self.subgroup(intersect_subgroups(conjugate_subgroup(G, y, Hi),
                                                      conjugate_subgroup(G, yx, Hj)).members)
                if not all(u in cd.centralizers[k] for u in W.members):
                    raise AssertionError("double-coset intersection escaped the centralizer")
                plan.append((k, y, yx, W, cd.centralizers[k]))
            self._plans[i, j] = plan
        return self._plans[i, j]

    def cup_factor(self, y: int, W: Subgroup, elem: GroupTateElement,
                   label: Optional[Hashable] = None) -> GroupTateElement:
        """res_W conj_y elem, a factor of the double-coset product: y = 1
        skips the conjugation, and a conjugate that already lives over W the
        restriction, so (1, elem's own subgroup) gives elem itself.  With a
        label, a name that fixes elem for the life of this context (DecOps
        passes the basis label of a coordinate entry), the factor is built
        once per (label, y, W) and shared, so no caller may mutate it;
        without one (a representative entry) it is built and not kept."""
        key = None if label is None else (label, y, W.members)
        if key in self._factors:
            return self._factors[key]
        out = elem if y == 0 else self.conjugate_element(y, elem)
        if out.subgroup.members != W.members:
            out = self.restrict_element(W, out)
        if key is not None:
            self._factors[key] = out
        return out

    def double_coset_cup_reps(self, i: int, j: int, a: GroupTateElement, b: GroupTateElement,
                              labels: Tuple[Optional[Hashable], Optional[Hashable]] = (None, None)
                              ) -> Dict[int, GroupTateElement]:
        """Chain-level double-coset product of centralizer classes.

        a lives over the centralizer of the i-th class representative, b over
        the j-th; the result collects one cocycle per target class k, summed
        unreduced in one dict per k and reduced once.  labels name a and b
        for ``cup_factor``, which conjugates and restricts each labelled
        factor once per (y, W) over all the products of a context.  Where
        cor^{C_k}_W is the identity (W = C_k) or the inclusion (a product of
        negative degree), the cup terms go straight into k's dict; otherwise
        they pass through ``corestrict_terms``.
        """
        la, lb = labels
        d = a.degree + b.degree
        sums: Dict[int, Dict[Key, int]] = {}
        for k, y, yx, W, Hk in self.double_coset_plan(i, j):
            out = sums.setdefault(k, {})
            fa, fb = self.cup_factor(y, W, a, la), self.cup_factor(yx, W, b, lb)
            if d >= 0 and W.members != Hk.members:
                self.corestrict_terms(Hk, W, self.group_cup_rep(fa, fb, {}), out)
            else:
                self.group_cup_rep(fa, fb, out)
        elems = {k: self.complex_for(self.cd.centralizers[k]).element(d, out)
                 for k, out in sums.items()}
        return {k: v for k, v in elems.items() if not v.is_zero()}
