"""Additive decomposition of the Tate-Hochschild complex at the chain level.

For each conjugacy class representative x with centralizer C = C_G(x) and a
fixed right coset decomposition G = C*gamma_1 u ... u C*gamma_t (gamma_1 = 1,
x_i = gamma_i^-1 x gamma_i), this module realizes:

* the class component splitting of D*(kG, kG),
* the comparison maps between a class component and the Tate cochain
  complex of the centralizer (both cochain and chain families), together
  with the explicit homotopies making them deformation retracts,
* the assembled retract on the whole complex,
* the transferred BV operators ``delta_tilde`` and ``b_tilde``, module
  functions that need only x and an element of the centralizer complex:
  DecOps computes the BV operator with them and builds no D-complex.

All maps are implemented as pushforwards on basis keys: each basis element
of the source contributes finitely many basis elements of the target, with
terms dropped whenever the normalized convention puts an identity into a
tuple slot.  The cochain-side maps sum over the coset paths of
CosetSystem.paths, which drops a path at its first identity slot (for a
central x the one path of a tuple is the tuple itself); the chain-side
maps thread a key's one path with CosetSystem.thread.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .complexes import (DComplex, GroupComplex, GroupTateElement, Key, TateElement,
                        _acc, class_of_index)
from .groups import ConjugacyData, CosetSystem, right_coset_system


class ClassDecomposition:
    """Per-class bookkeeping for one group/field pair."""

    def __init__(self, dcomplex: DComplex, cd: ConjugacyData):
        self.dcomplex = dcomplex
        self.cd = cd
        self.group = dcomplex.group
        self.p = dcomplex.p
        G = self.group
        shared: Dict[Tuple[int, ...], GroupComplex] = {}  # one complex per centralizer
        self.cosets: List[CosetSystem] = []
        self.complexes: List[GroupComplex] = []
        self.twisted: List[Tuple[int, ...]] = []  # x_i = gamma_i^-1 x gamma_i per class
        self.coset_of_twisted: List[Dict[int, int]] = []
        self.gamma_index: List[Dict[int, int]] = []
        for k, x in enumerate(cd.reps):
            cent = cd.centralizers[k]
            cs = right_coset_system(cent)
            xs = tuple(G.conj(G.inv[g], x) for g in cs.gamma)
            self.cosets.append(cs)
            if cent.members not in shared:
                shared[cent.members] = GroupComplex(cent, self.p)
            self.complexes.append(shared[cent.members])
            self.twisted.append(xs)
            self.coset_of_twisted.append({u: i for i, u in enumerate(xs)})
            self.gamma_index.append({g: i for i, g in enumerate(cs.gamma)})

    # -- class component splitting -----------------------------------------

    def components(self, elem: TateElement) -> Dict[int, TateElement]:
        split: Dict[int, Dict[Key, int]] = {}
        for key, c in elem.coeffs.items():
            k = class_of_index(self.cd, elem.degree, key)
            split.setdefault(k, {})[key] = c
        return {k: self.dcomplex.element(elem.degree, coeffs) for k, coeffs in split.items()}

    def _require_class(self, elem: TateElement, cls: int) -> None:
        for key in elem.coeffs:
            if class_of_index(self.cd, elem.degree, key) != cls:
                raise ValueError(f"support outside class component {cls}")

    # -- cochain-side comparison maps ----------------------------------------

    def iota_cochain(self, cls: int, elem: TateElement) -> GroupTateElement:
        """Class-x cochain -> centralizer cochain: the x-coefficient of the
        twisted value, restricted to centralizer tuples."""
        if elem.degree < 0:
            raise ValueError("iota_cochain needs degree >= 0")
        self._require_class(elem, cls)
        G = self.group
        cent = self.cd.centralizers[cls]
        x = self.cd.reps[cls]
        out: Dict[Key, int] = {}
        for (A, h), c in elem.coeffs.items():
            if all(t in cent for t in A) and h == G.mult[x][G.prod(A)]:
                _acc(out, A, c)
        return self.complexes[cls].element(elem.degree, out)

    def rho_cochain(self, cls: int, gelem: GroupTateElement) -> TateElement:
        """Centralizer cochain -> class-x cochain by coset threading."""
        n = gelem.degree
        if n < 0:
            raise ValueError("rho_cochain needs degree >= 0")
        G = self.group
        cs = self.cosets[cls]
        xs = self.twisted[cls]
        out: Dict[Key, int] = {}
        for T, c in gelem.coeffs.items():
            for start, gt in cs.paths(T):
                _acc(out, (gt, G.mult[xs[start]][G.prod(gt)]), c)
        return self.dcomplex.element(n, out)

    def homotopy_cochain(self, cls: int, elem: TateElement) -> TateElement:
        """The cochain homotopy s^x: class-x degree n -> class-x degree n-1."""
        n = elem.degree
        if n < 1:
            raise ValueError("homotopy_cochain needs degree >= 1")
        self._require_class(elem, cls)
        G = self.group
        cs = self.cosets[cls]
        xs = self.twisted[cls]
        gamma_idx = self.gamma_index[cls]
        cent = self.cd.centralizers[cls]
        x = self.cd.reps[cls]
        out: Dict[Key, int] = {}
        for (A, h), c in elem.coeffs.items():
            for j in range(n):
                end = gamma_idx.get(A[j])
                if end is None:
                    continue
                if any(a not in cent for a in A[:j]):
                    continue
                raw = A[j + 1:]
                sign_c = c if j % 2 == 0 else -c
                for start, gs in cs.paths(A[:j], end):
                    gt = gs + raw
                    pg = G.prod(gt)
                    if h != G.mult[x][G.mult[cs.gamma[start]][pg]]:
                        continue
                    _acc(out, (gt, G.mult[xs[start]][pg]), sign_c)
        return self.dcomplex.element(n - 1, out)

    # -- chain-side comparison maps ------------------------------------------

    def iota_chain(self, cls: int, gelem: GroupTateElement) -> TateElement:
        """Centralizer chain -> class-x chain: tuple T -> ((prod T)^-1 x, T)."""
        d = gelem.degree
        if d > -1:
            raise ValueError("iota_chain needs degree <= -1")
        G = self.group
        x = self.cd.reps[cls]
        out: Dict[Key, int] = {}
        for T, c in gelem.coeffs.items():
            _acc(out, (G.mult[G.inv[G.prod(T)]][x], T), c)
        return self.dcomplex.element(d, out)

    def rho_chain(self, cls: int, elem: TateElement) -> GroupTateElement:
        """Class-x chain -> centralizer chain by coset threading."""
        d = elem.degree
        if d > -1:
            raise ValueError("rho_chain needs degree <= -1")
        self._require_class(elem, cls)
        G = self.group
        cs = self.cosets[cls]
        coset_of = self.coset_of_twisted[cls]
        out: Dict[Key, int] = {}
        for (g0, T), c in elem.coeffs.items():
            i = coset_of[G.mult[G.prod(T)][g0]]
            hs, _ = cs.thread(i, T)
            if all(hs):
                _acc(out, hs, c)
        return self.complexes[cls].element(d, out)

    def homotopy_chain(self, cls: int, elem: TateElement) -> TateElement:
        """The chain homotopy s_x: class-x degree d -> class-x degree d-1."""
        d = elem.degree
        if d > -1:
            raise ValueError("homotopy_chain needs degree <= -1")
        self._require_class(elem, cls)
        G = self.group
        cs = self.cosets[cls]
        coset_of = self.coset_of_twisted[cls]
        x = self.cd.reps[cls]
        out: Dict[Key, int] = {}
        for (g0, T), c in elem.coeffs.items():
            i = coset_of[G.mult[G.prod(T)][g0]]
            head = G.mult[G.inv[G.mult[cs.gamma[i]][G.prod(T)]]][x]
            hs, path = cs.thread(i, T)
            for j in range(len(T) + 1):
                if j >= 1 and hs[j - 1] == 0:
                    break  # all later prefixes contain an identity slot
                gslot = cs.gamma[path[j]]
                if gslot == 0:
                    continue
                tail = hs[:j] + (gslot,) + T[j:]
                _acc(out, (head, tail), c if j % 2 == 0 else -c)
        return self.dcomplex.element(d - 1, out)

    # -- assembled retract ----------------------------------------------------

    def retract_down(self, elem: TateElement) -> Dict[int, GroupTateElement]:
        """rho-hat: split into class components and compare each down."""
        out: Dict[int, GroupTateElement] = {}
        for cls, part in self.components(elem).items():
            if elem.degree >= 0:
                out[cls] = self.iota_cochain(cls, part)
            else:
                out[cls] = self.rho_chain(cls, part)
        return out

    def retract_up(self, cls: int, gelem: GroupTateElement) -> TateElement:
        """iota-hat: embed a centralizer Tate element into its class component."""
        if gelem.degree >= 0:
            return self.rho_cochain(cls, gelem)
        return self.iota_chain(cls, gelem)

    def homotopy(self, elem: TateElement, signed: bool = False) -> TateElement:
        """The assembled homotopy s-hat; with ``signed`` the chain part is
        rescaled by (-1)^s, which conjugates the retract identity from the
        unsigned differential to the signed one."""
        d = elem.degree
        if d == 0:
            return self.dcomplex.element(-1)
        out = self.dcomplex.element(d - 1)
        for cls, part in self.components(elem).items():
            if d >= 1:
                out = out.add(self.homotopy_cochain(cls, part))
            else:
                piece = self.homotopy_chain(cls, part)
                if signed and (-d - 1) % 2 == 0:
                    piece = piece.scale(-1)
                out = out.add(piece)
        return out


# ---------------------------------------------------------------------------
# transferred BV operators: the result lives on the argument's complex, the
# Tate complex of C_G(x)

def delta_tilde(x: int, gelem: GroupTateElement) -> GroupTateElement:
    """The BV operator transferred to the centralizer cochain complex.

    T rotates at a cut iff T[cut] = (x prod(h))^-1, h = T[cut+1:] + T[:cut].
    With ab = prod(T[:cut+1]), prod(h) T[cut] = (ab)^-1 prod(T) ab and ab
    commutes with x, so that test is prod(T) = x^-1 at every cut."""
    n = gelem.degree
    if n < 1:
        raise ValueError("delta_tilde needs degree >= 1")
    G = gelem.complex.subgroup.parent
    x_inv = G.inv[x]
    out: Dict[Key, int] = {}
    for T, c in gelem.coeffs.items():
        if G.prod(T) != x_inv:
            continue
        for i in range(1, n + 1):
            cut = n - i
            _acc(out, T[cut + 1:] + T[:cut], c if (i * (n - 1)) % 2 == 0 else -c)
    return gelem.complex.element(n - 1, out)


def b_tilde(x: int, gelem: GroupTateElement) -> GroupTateElement:
    """Connes' operator transferred to the centralizer chain complex."""
    d = gelem.degree
    if d > -1:
        raise ValueError("b_tilde needs degree <= -1")
    G = gelem.complex.subgroup.parent
    out: Dict[Key, int] = {}
    for T, c in gelem.coeffs.items():
        s = len(T)
        ins = G.mult[G.inv[G.prod(T)]][x]
        if ins == 0:
            continue
        for i in range(s + 1):
            if i == 0:
                tup = (ins,) + T
            else:
                tup = T[i - 1:] + (ins,) + T[: i - 1]
            _acc(out, tup, c if (i * s) % 2 == 0 else -c)
    return gelem.complex.element(d - 1, out)
