"""Algebraic structure on the Tate-Hochschild complex: the bilinear pairing,
the six-case generalized cup product, the cyclic A-infinity product m3, the
BV operator, and the induced operations on cohomology classes.

All operators act on basis keys and extend bilinearly; sums over the whole
group collapse to the finitely many terms where the normalized convention
leaves the term alive (tuple slots never hold the identity).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .complexes import CohomologySpace, TateElement, _acc, sign_pow


def pairing(a: TateElement, b: TateElement) -> int:
    """<a, b>: nonzero only between complementary degrees m and -m-1.

    On basis elements: a cochain (args -> h) pairs to 1 with the chain
    (h^-1, args) and to 0 with everything else; the form is symmetric.
    """
    if a.complex.group is not b.complex.group or a.p != b.p:
        raise ValueError("pairing needs elements over the same group and field")
    if a.degree >= 0 and b.degree <= -1:
        co, ch = a, b
    elif b.degree >= 0 and a.degree <= -1:
        co, ch = b, a
    else:
        return 0
    if co.degree != -ch.degree - 1:
        return 0
    G = co.complex.group
    total = 0
    for (g0, tail), cb in ch.coeffs.items():
        ca = co.coeffs.get((tail, G.inv[g0]))
        if ca:
            total += ca * cb
    return total % a.p


def cup(a: TateElement, b: TateElement) -> TateElement:
    """Generalized cup product, dispatching the six degree-sign cases."""
    if a.complex is not b.complex:
        raise ValueError("cup needs elements of the same complex")
    cplx = a.complex
    G = cplx.group
    da, db = a.degree, b.degree
    out: Dict = {}
    if da >= 0 and db >= 0:
        # case 1: usual cup product of cochains
        for (A, h), ca in a.coeffs.items():
            for (B, k), cb in b.coeffs.items():
                _acc(out, (A + B, G.mult[h][k]), ca * cb)
    elif da <= -1 and db <= -1:
        # case 2: the string-topology style product of chains
        for (g0, gs), ca in a.coeffs.items():
            for (h0, ht), cb in b.coeffs.items():
                c = ca * cb
                for g in range(G.order):
                    mid = G.mult[G.inv[g]][g0]
                    if mid:
                        _acc(out, (G.mult[g][h0], ht + (mid,) + gs), c)
    elif da >= 0:
        n = da
        t = -db - 1
        if da + db <= -1:
            # case 3: cap product, the cochain eats the tail's last n slots
            index: Dict = {}
            for (A, h), ca in a.coeffs.items():
                index.setdefault(A, []).append((h, ca))
            for (h0, ht), cb in b.coeffs.items():
                for h, ca in index.get(ht[t - n:], ()):
                    _acc(out, (G.mult[h][h0], ht[: t - n]), ca * cb)
        else:
            # case 4: generalized cap landing in cochains
            cut = n - t - 1
            index = {}
            for (g0, gt), cb in b.coeffs.items():
                index.setdefault(gt, []).append((g0, cb))
            for (A, h), ca in a.coeffs.items():
                w = A[cut]
                for g0, cb in index.get(A[cut + 1:], ()):
                    tgt = G.mult[G.mult[h][g0]][G.inv[w]]
                    _acc(out, (A[:cut], tgt), ca * cb)
    else:
        s = -da - 1
        m = db
        if da + db <= -1:
            # case 5: cap product from the right
            index = {}
            for (B, k), cb in b.coeffs.items():
                index.setdefault(B, []).append((k, cb))
            for (g0, gs), ca in a.coeffs.items():
                for k, cb in index.get(gs[:m], ()):
                    _acc(out, (G.mult[g0][k], gs[m:]), ca * cb)
        else:
            # case 6: generalized cap from the right landing in cochains
            index = {}
            for (g0, gs), ca in a.coeffs.items():
                index.setdefault(gs, []).append((g0, ca))
            for (B, k), cb in b.coeffs.items():
                for g0, ca in index.get(B[:s], ()):
                    w = B[s]
                    tgt = G.mult[G.inv[w]][G.mult[g0][k]]
                    _acc(out, (B[s + 1:], tgt), ca * cb)
    return cplx.element(da + db, out)


def m3(a: TateElement, b: TateElement, c: TateElement) -> TateElement:
    """The A-infinity product m3; nonzero only on the two mixed patterns
    (cochain, chain, cochain) and (chain, cochain, chain)."""
    if a.complex is not b.complex or b.complex is not c.complex:
        raise ValueError("m3 needs elements of the same complex")
    cplx = a.complex
    deg = a.degree + b.degree + c.degree - 1
    pattern = (a.degree >= 0, b.degree >= 0, c.degree >= 0)
    if pattern == (True, False, True):
        return _m3_mid_chain(cplx, a, b, c, deg)
    if pattern == (False, True, False):
        return _m3_mid_cochain(cplx, a, b, c, deg)
    return cplx.element(deg)


def _m3_mid_chain(cplx, phi, alpha, psi, deg) -> TateElement:
    G = cplx.group
    m, n = phi.degree, psi.degree
    r = -alpha.degree - 1
    out: Dict = {}
    if r + 2 <= m + n:
        jlo = max(1, r + 2 - m)
        jhi = min(n, r + 1)
        for (F, f), c1 in phi.coeffs.items():
            for (g0, gr), c2 in alpha.coeffs.items():
                pre = c1 * c2
                for (P, q), c3 in psi.coeffs.items():
                    for j in range(jlo, jhi + 1):
                        cut = m - r + j - 2
                        if F[cut + 1:] != gr[j - 1:]:
                            continue
                        if P[: j - 1] != gr[: j - 1]:
                            continue
                        if P[j - 1] != G.inv[F[cut]]:
                            continue
                        sign = -1 if (m + r + j - 1) % 2 else 1
                        tgt = G.mult[G.mult[f][g0]][q]
                        _acc(out, (F[:cut] + P[j:], tgt), sign * pre * c3)
    return cplx.element(deg, out)


def _m3_mid_cochain(cplx, alpha, phi, beta, deg) -> TateElement:
    # realized by cyclic duality from the (cochain, chain, cochain) case;
    # the output chain length is u = r + s + 2 - m
    G = cplx.group
    r = -alpha.degree - 1
    m = phi.degree
    s = -beta.degree - 1
    out: Dict = {}
    if m - 1 <= r + s:
        u = r + s + 2 - m
        for (g0, gr), c1 in alpha.coeffs.items():
            for (F, f), c2 in phi.coeffs.items():
                pre = c1 * c2
                for (h0, hs), c3 in beta.coeffs.items():
                    for k in range(max(0, s - m + 1), min(s, r + s + 1 - m) + 1):
                        cut = k + m - s - 1
                        if F[:cut] != gr[:cut]:
                            continue
                        if F[cut + 1:] != hs[k:]:
                            continue
                        g = F[cut]
                        head = G.mult[G.mult[g0][f]][h0]
                        tail = hs[:k] + (G.inv[g],) + gr[cut:]
                        sign = -1 if (u + k) % 2 else 1
                        _acc(out, (head, tail), sign * pre * c3)
    return cplx.element(deg, out)


def connes_b(a: TateElement) -> TateElement:
    """The rotation operator on the chain part: (g0, g_{1,s}) goes to the
    signed cyclic sum of identity-headed rotations; zero on degrees >= 0."""
    cplx = a.complex
    d = a.degree
    if d >= 0:
        raise ValueError("the rotation operator acts on the chain part only")
    s = -d - 1
    out: Dict = {}
    for (g0, tail), c in a.coeffs.items():
        if g0 == 0:
            continue  # the rotated head would land in a normalized slot
        for i in range(s + 1):
            if i == 0:
                tup = (g0,) + tail
            else:
                tup = tail[i - 1:] + (g0,) + tail[: i - 1]
            sign = -1 if (i * s) % 2 else 1
            _acc(out, (0, tup), sign * c)
    return cplx.element(d - 1, out)


def bv_operator(a: TateElement) -> TateElement:
    """The BV operator: the dual of the rotation operator on positive
    degrees, zero out of degree 0, and (-1)^(s+1) times the rotation
    operator out of chain degree s.

    The chain-degree sign makes the operator anticommute with the official
    signed differential in every degree; without it the bracket generated
    on cohomology fails the Poisson rule in mixed-degree patterns, and with
    it the operator also reproduces the transferred values on the negative
    part that the positive part forces through the BV identities.
    """
    cplx = a.complex
    G = cplx.group
    d = a.degree
    if d == 0:
        return cplx.element(-1)
    if d >= 1:
        n = d
        out: Dict = {}
        for (A, h), c in a.coeffs.items():
            if h != 0:
                continue  # only the identity coefficient survives <.,1>
            for i in range(1, n + 1):
                cut = n - i
                sign = -1 if (i * (n - 1)) % 2 else 1
                _acc(out, (A[cut + 1:] + A[:cut], G.inv[A[cut]]), sign * c)
        return cplx.element(n - 1, out)
    s = -d - 1
    img = connes_b(a)
    return img if s % 2 else img.scale(-1)


def signed_anticommutator(a: TateElement) -> TateElement:
    """d'(Delta(a)) + Delta(d'(a)) with the signed differential (expected 0)."""
    cplx = a.complex
    first = cplx.differential(bv_operator(a))
    second = bv_operator(cplx.differential(a))
    return first.add(second)


class CohClass:
    """A cohomology class: coordinates in a CohomologySpace's basis."""

    def __init__(self, space: CohomologySpace, coords: Tuple[int, ...]):
        self.space, self.coords = space, coords

    @property
    def degree(self) -> int:
        return self.space.degree

    def rep(self) -> TateElement:
        return self.space.lift(list(self.coords))

    def add(self, other: "CohClass", c: int = 1) -> "CohClass":
        if other.space is not self.space:
            raise ValueError("classes live in different spaces")
        p = self.space.complex.p
        return CohClass(self.space, tuple((x + c * y) % p for x, y in zip(self.coords, other.coords)))

    def scale(self, c: int) -> "CohClass":
        p = self.space.complex.p
        return CohClass(self.space, tuple((c * x) % p for x in self.coords))


def class_of(space: CohomologySpace, elem: TateElement) -> CohClass:
    return CohClass(space, tuple(space.project(elem)))


def _checked_rep(a: CohClass) -> TateElement:
    """a's representative, lifted and checked to be a cocycle on its first
    use and kept on its space."""
    reps = a.space.checked_reps
    coords = tuple(a.coords)
    if coords not in reps:
        rep = a.rep()
        if not a.space.complex.differential(rep).is_zero():
            raise ValueError("representative is not a cocycle (corrupt space)")
        reps[coords] = rep
    return reps[coords]


def induced_cup(a: CohClass, b: CohClass) -> CohClass:
    cplx = a.space.complex
    prod = cup(_checked_rep(a), _checked_rep(b))
    target = cplx.cohomology(a.degree + b.degree)
    return class_of(target, prod)


def induced_delta(a: CohClass) -> CohClass:
    cplx = a.space.complex
    img = bv_operator(_checked_rep(a))
    target = cplx.cohomology(a.degree - 1)
    return class_of(target, img)


def lie_bracket(a: CohClass, b: CohClass) -> CohClass:
    """[a, b] from the BV operator and the cup product on cohomology."""
    p = a.space.complex.p
    da, db = a.degree, b.degree
    t1 = induced_delta(induced_cup(a, b))
    t2 = induced_cup(induced_delta(a), b)
    t3 = induced_cup(a, induced_delta(b))
    inner = t1.add(t2, -1).add(t3, -sign_pow(da))
    outer = -sign_pow((da - 1) * db)
    return inner.scale(outer % p)
