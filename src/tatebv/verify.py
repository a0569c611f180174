"""Verification suites: the flagship symmetric-group-of-degree-3 check in
characteristic 3, the triviality of the rotation operator on group homology,
and the randomized identity self-test.

The S3 suite runs in two phases.  Phase A checks every scale-invariant
fact: dimensions, all products and brackets that must vanish, and the
one-dimensional membership relations.  Phase B treats the six graded
generators as determined only up to nonzero scalars and searches the 64
rescalings for one under which the full presentation, the BV-operator
table and all 49 generator brackets hold verbatim.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .bv import (bv_operator, class_of, cup, induced_cup, lie_bracket, m3,
                 pairing, signed_anticommutator)
from .complexes import DComplex, GroupComplex, class_of_index, dim_degree, sign_pow
from .decomposition import ClassDecomposition, b_tilde
from .groups import conjugacy_classes, preset_group, whole_group
from .harness import (ConfigError, DecClass, DecOps, JobConfig, TableOps, _config_dict,
                      _provenance, check_dec_window, check_decomposition_cost, direct_cup,
                      direct_dims, direct_fits, make_group)
from .linalg import kernel_basis


class CheckList:
    def __init__(self):
        self.checks: List[Dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)


# ---------------------------------------------------------------------------
# the S3 / F3 flagship suite

GEN_INDEX = {"x": 0, "z": 1, "zi": 2, "W1": 3, "W2": 4, "W2i": 5}

# The 49 bracket cases: (item, left, right, expected) with expected one of
# None (must vanish) or a list of (monomial over GEN_INDEX, value key, coeff).
#
# Ten of the printed items are arithmetically inconsistent with the rest of
# the printed presentation (see PRINTED_CLAIMS below for the printed
# versions, which the verifier evaluates and reports separately): with the
# relation x W2 = z W1 and the Poisson rule, [x W2, x] = x [W2, x] must
# equal [z W1, x] = z [W1, x] = z x (1 - C) != 0, so [W2, x] cannot vanish.
# The transferred BV operator satisfies Delta_a(w1 w2^j) = -w2^j on
# coherent powers for every j (three independent routes: the explicit
# transfer formula, transport through the deformation retract, and the
# circle-product bracket it must generate), which fixes the values below.
BRACKET_TABLE = [
    (1, "x", "x", None), (2, "x", "z", None), (3, "z", "x", None),
    (4, "x", "zi", None), (5, "zi", "x", None),
    (6, "x", "C", [((4,), "W2", 1)]),
    (7, "C", "x", [((4,), "W2", -1)]),
    (8, "x", "W1", [((0,), "xC-x", 1)]),
    (9, "W1", "x", [((0,), "xC-x", -1)]),
    (10, "x", "W2", [((1,), "zC-z", 1)]),
    (11, "W2", "x", [((1,), "zC-z", -1)]),
    (12, "x", "W2i", [((), "E2", 1)]),
    (13, "W2i", "x", [((), "E2", -1)]),
    (14, "x", "x", None), (15, "x", "z", None), (16, "z", "x", None),
    (17, "z", "C", None), (18, "C", "z", None),
    (19, "z", "W1", None),
    (20, "W1", "z", None),
    (21, "z", "W2", None), (22, "W2", "z", None),
    (23, "z", "W2i", None), (24, "W2i", "z", None),
    (25, "zi", "zi", None),
    (26, "zi", "C", None), (27, "C", "zi", None),
    (28, "zi", "W1", None),
    (29, "W1", "zi", None),
    (30, "zi", "W2", None), (31, "W2", "zi", None),
    (32, "zi", "W2i", None), (33, "W2i", "zi", None),
    (34, "C", "C", None),
    (35, "C", "W1", [((), "C", -1)]),
    (36, "W1", "C", [((), "C", 1)]),
    (37, "C", "W2", None), (38, "W2", "C", None),
    (39, "C", "W2i", None), (40, "W2i", "C", None),
    (41, "W1", "W1", None),
    (42, "W1", "W2", [((4,), "W2", -1)]),
    (43, "W2", "W1", [((4,), "W2", 1)]),
    (44, "W1", "W2i", [((5,), "W2i", -1)]),
    (45, "W2i", "W1", [((5,), "W2i", 1)]),
    (46, "W2", "W2", None),
    (47, "W2", "W2i", None), (48, "W2i", "W2", None),
    (49, "W2i", "W2i", None),
]

# presentation relations and the BV-operator table for phase B:
# each side is a list of (monomial, value key, coefficient)
RELATIONS = [
    ("z zi = 1", [((1, 2), "zzi", 1)], [((), "E1", 1)]),
    ("W2 W2i = C", [((4, 5), "w2w2i", 1)], [((), "C", 1)]),
    ("x W2 = z W1", [((0, 4), "xW2", 1)], [((1, 3), "zW1", 1)]),
    ("zi W1 = x zi W2i", [((2, 3), "ziW1", 1)], [((0, 2, 5), "xzi.W2i", 1)]),
    ("W2^2 = z C", [((4, 4), "W2W2", 1)], [((1,), "zC", 1)]),
    ("W2i^2 = zi C", [((5, 5), "W2iW2i", 1)], [((2,), "ziC", 1)]),
    ("W1 W2 = x C", [((3, 4), "W1W2", 1)], [((0,), "xC", 1)]),
    ("W1 W2i = x zi C", [((3, 5), "W1W2i", 1)], [((0, 2), "xzi.C", 1)]),
    ("x W2i = W1", [((0, 5), "xW2i", 1)], [((3,), "W1", 1)]),
    ("Delta(W1) = 1 - C", [((3,), "D.W1", 1)], [((), "E2", -1)]),
    ("Delta(W1 W2) = -W2", [((3, 4), "D.W1W2", 1)], [((4,), "W2", -1)]),
    ("Delta(W1 W2i) = -W2i", [((3, 5), "D.W1W2i", 1)], [((5,), "W2i", -1)]),
]

# The printed versions of the items that cannot hold jointly with the
# printed presentation; evaluated under the solved normalization and
# reported as source discrepancies, each entry carrying only the printed
# claim and whether it holds (the corrected values are in BRACKET_TABLE).
PRINTED_CLAIMS = [
    ("(10) [x,W2] = 0", [((0, 4), "bracket10", 1)], []),
    ("(11) [W2,x] = 0", [((0, 4), "bracket11", 1)], []),
    ("(19) [z,W1] = z(C-1)", [((1, 3), "bracket19", 1)], [((1,), "zC-z", 1)]),
    ("(20) [W1,z] = z(1-C)", [((1, 3), "bracket20", 1)], [((1,), "zC-z", -1)]),
    ("(28) [zi,W1] = zi(C-1)", [((2, 3), "bracket28", 1)], [((2,), "ziC-zi", 1)]),
    ("(29) [W1,zi] = zi(1-C)", [((2, 3), "bracket29", 1)], [((2,), "ziC-zi", -1)]),
    ("(35) [C,W1] = C", [((3,), "bracket35", 1)], [((), "C", 1)]),
    ("(36) [W1,C] = -C", [((3,), "bracket36", 1)], [((), "C", -1)]),
    ("(44) [W1,W2i] = W2i", [((3, 5), "bracket44", 1)], [((5,), "W2i", 1)]),
    ("(45) [W2i,W1] = -W2i", [((3, 5), "bracket45", 1)], [((5,), "W2i", -1)]),
]

ZERO_PRODUCTS = [
    ("x W1 = 0", "xW1"), ("C^2 = 0", "CC"), ("C W1 = 0", "CW1"),
    ("C W2 = 0", "CW2"), ("C W2i = 0", "CW2i"),
    ("x^2 = 0", "xx"), ("W2^3 = 0", "W2cube"), ("W2i^3 = 0", "W2icube"),
]

ZERO_DELTAS = ["x", "z", "zi", "C", "W2", "W2i", "W2iW2i"]

MEMBERSHIP_LINES = [
    ("Delta(W1) in kx.E2", "D.W1", "E2"),
    ("Delta(W1 W2) in kx.W2", "D.W1W2", "W2"),
    ("Delta(W1 W2i) in kx.W2i", "D.W1W2i", "W2i"),
    ("W2 W2i in kx.C", "w2w2i", "C"),
    ("[x, C] in kx.W2", "br6", "W2"),
    ("x W2 in kx.(z W1)", "xW2", "zW1"),
    ("x W2i in kx.W1", "xW2i", "W1"),
    ("zi W1 in kx.(x zi W2i)", "ziW1", "xzi.W2i"),
    ("W2^2 in kx.(z C)", "W2W2", "zC"),
    ("W2i^2 in kx.(zi C)", "W2iW2i", "ziC"),
    ("W1 W2 in kx.(x C)", "W1W2", "xC"),
    ("W1 W2i in kx.(x zi C)", "W1W2i", "xzi.C"),
    ("z zi in kx.1", "zzi", "E1"),
]


class S3Verifier:
    def __init__(self):
        G = preset_group("symmetric", 3)
        self.ops = TableOps(G, 3, window=(-4, 4))
        self.checks = CheckList()

    def _gen_class(self, cls: int, degree: int) -> DecClass:
        space = self.ops.space(cls, degree)
        if space.dim != 1:
            raise AssertionError(f"expected a 1-dimensional space at degree {degree}")
        return self.ops.from_class(cls, class_of(space, space.representative(0)))

    def run(self) -> Dict:
        ops, ck = self.ops, self.checks

        dims_dec = [sum(ops.cls_dim(c, n) for c in range(3)) for n in range(-4, 4)]
        ck.add("dims decomposition path -4..3", dims_dec == [2, 1, 1, 2, 2, 1, 1, 2],
               str(dims_dec))
        dims_dir = [sum(col) for col in zip(*direct_dims(ops.group, 3, ops.cd, range(-3, 3)))]
        ck.add("dims direct path -3..2", dims_dir == [1, 1, 2, 2, 1, 1], str(dims_dir))

        gen: Dict[str, DecClass] = {}
        gen["x"] = self._gen_class(0, 3)
        gen["z"] = self._gen_class(0, 4)
        gen["zi"] = self._gen_class(0, -4)
        gen["W1"] = self._gen_class(1, 1)
        gen["W2"] = self._gen_class(1, 2)
        gen["W2i"] = self._gen_class(1, -2)
        gen["E1"] = ops.unit()
        gen["E2"] = self._gen_class(1, 0)  # the unit of class 1: H^0 is spanned by ()
        gen["C"] = ops.add(gen["E1"], gen["E2"])
        self.gen = gen

        vals = self._values()
        self._phase_a(vals)
        scalars, first_violation = self._phase_b(vals)
        ck.add("scalar normalization exists", scalars is not None,
               f"lambda = {scalars}" if scalars else f"first violation: {first_violation}")
        discrepancies = []
        if scalars is not None:
            pattern = tuple(scalars[k] for k in GEN_INDEX)
            for name, lhs, rhs in PRINTED_CLAIMS:
                l = self._combine(vals, lhs, pattern)
                r = self._combine(vals, rhs, pattern)
                discrepancies.append({"printed": name,
                                      "holds": ops.eq(l, r)})
        return {
            "checks": ck.checks,
            "passed": ck.passed,
            "normalization": {"found": scalars is not None, "scalars": scalars,
                              "first_violation": first_violation},
            "source_discrepancies": discrepancies,
        }

    # -- the product / delta / bracket catalogue -------------------------------

    def _values(self) -> Dict[str, DecClass]:
        ops, gen = self.ops, self.gen
        v: Dict[str, DecClass] = dict(gen)
        v["zzi"] = ops.cup(gen["z"], gen["zi"])
        v["w2w2i"] = ops.cup(gen["W2"], gen["W2i"])
        v["xW2"] = ops.cup(gen["x"], gen["W2"])
        v["zW1"] = ops.cup(gen["z"], gen["W1"])
        v["ziW1"] = ops.cup(gen["zi"], gen["W1"])
        v["xzi"] = ops.cup(gen["x"], gen["zi"])
        v["xzi.W2i"] = ops.cup(v["xzi"], gen["W2i"])
        v["xzi.C"] = ops.cup(v["xzi"], gen["C"])
        v["W2W2"] = ops.cup(gen["W2"], gen["W2"])
        v["W2iW2i"] = ops.cup(gen["W2i"], gen["W2i"])
        v["zC"] = ops.cup(gen["z"], gen["C"])
        v["ziC"] = ops.cup(gen["zi"], gen["C"])
        v["W1W2"] = ops.cup(gen["W1"], gen["W2"])
        v["W1W2i"] = ops.cup(gen["W1"], gen["W2i"])
        v["xC"] = ops.cup(gen["x"], gen["C"])
        v["xW1"] = ops.cup(gen["x"], gen["W1"])
        v["xW2i"] = ops.cup(gen["x"], gen["W2i"])
        v["CC"] = ops.cup(gen["C"], gen["C"])
        v["CW1"] = ops.cup(gen["C"], gen["W1"])
        v["CW2"] = ops.cup(gen["C"], gen["W2"])
        v["CW2i"] = ops.cup(gen["C"], gen["W2i"])
        v["xx"] = ops.cup(gen["x"], gen["x"])
        v["W2cube"] = ops.cup(v["W2W2"], gen["W2"])
        v["W2icube"] = ops.cup(v["W2iW2i"], gen["W2i"])
        v["xC-x"] = ops.sub(v["xC"], gen["x"])
        v["zC-z"] = ops.sub(v["zC"], gen["z"])
        v["ziC-zi"] = ops.sub(v["ziC"], gen["zi"])
        v["D.W1"] = ops.delta(gen["W1"])
        v["D.W1W2"] = ops.delta(v["W1W2"])
        v["D.W1W2i"] = ops.delta(v["W1W2i"])
        for k in ZERO_DELTAS:
            v["D." + k] = ops.delta(v[k])
        v["br6"] = ops.bracket(gen["x"], gen["C"])
        return v

    # -- phase A: scale-invariant facts ----------------------------------------

    def _phase_a(self, v: Dict[str, DecClass]) -> None:
        ops, ck, gen = self.ops, self.checks, self.gen
        for name, key in ZERO_PRODUCTS:
            ck.add(name, ops.is_zero(v[key]))
        for key in ZERO_DELTAS:
            ck.add(f"Delta({key}) = 0", ops.is_zero(v["D." + key]))
        for name, key, line in MEMBERSHIP_LINES:
            ck.add(name, self._on_line(v[key], v[line]))
        # graded commutativity of the cup product on all generator pairs
        names = ["x", "z", "zi", "C", "W1", "W2", "W2i"]
        for i, a in enumerate(names):
            for b in names[i:]:
                da, db = gen[a].degree, gen[b].degree
                ab = ops.cup(gen[a], gen[b])
                ba = ops.cup(gen[b], gen[a])
                ok = ops.is_zero(ops.add(ab, ba, -sign_pow(da * db)))
                ck.add(f"graded commutativity {a}*{b}", ok)
        # the full bracket table: vanishing pattern now, values in phase B
        self.brackets: Dict[Tuple[str, str], DecClass] = {}
        for item, a, b, expected in BRACKET_TABLE:
            if (a, b) not in self.brackets:
                self.brackets[(a, b)] = ops.bracket(gen[a], gen[b])
            v[f"bracket{item}"] = self.brackets[(a, b)]
            if expected is None:
                ck.add(f"bracket ({item}) [{a},{b}] = 0", ops.is_zero(self.brackets[(a, b)]))
            else:
                target = self._combine(v, [(m, k, c) for m, k, c in expected], None)
                ck.add(f"bracket ({item}) [{a},{b}] on expected line",
                       self._on_line(self.brackets[(a, b)], target))
        # antisymmetry across the whole table
        ok = True
        for (a, b), val in self.brackets.items():
            if (b, a) not in self.brackets:
                continue
            da, db = gen[a].degree, gen[b].degree
            if not ops.is_zero(ops.add(val, self.brackets[(b, a)],
                                       sign_pow((da - 1) * (db - 1)))):
                ok = False
        ck.add("bracket antisymmetry over the table", ok)
        # a Poisson-rule instance tying the corrected values to the relation
        # x W2 = z W1: [x W2, x] must match both expansions
        lhs1 = ops.add(ops.cup(self.brackets[("x", "x")], gen["W2"]),
                       ops.cup(gen["x"], self.brackets[("W2", "x")]), sign_pow(3 * (3 - 1)))
        lhs2 = ops.add(ops.cup(self.brackets[("z", "x")], gen["W1"]),
                       ops.cup(gen["z"], self.brackets[("W1", "x")]), sign_pow(4 * (3 - 1)))
        ck.add("Poisson consistency [xW2,x] = [zW1,x]", ops.eq(lhs1, lhs2))

    def _on_line(self, val: DecClass, line: DecClass) -> bool:
        """val = lambda * line for some nonzero scalar (both must be nonzero)."""
        ops = self.ops
        if ops.is_zero(line) or ops.is_zero(val):
            return False
        for lam in range(1, ops.p):
            if ops.is_zero(ops.add(val, line, -lam)):
                return True
        return False

    # -- phase B: solve the generator normalization ----------------------------

    def _combine(self, v: Dict[str, DecClass], terms, lam: Optional[Sequence[int]]) -> DecClass:
        ops = self.ops
        out: Optional[DecClass] = None
        for mono, key, coef in terms:
            c = coef
            if lam is not None:
                for idx in mono:
                    c *= lam[idx]
            piece = ops.scale(v[key], c)
            out = piece if out is None else ops.add(out, piece)
        return out if out is not None else DecClass(0)

    def _phase_b(self, v: Dict[str, DecClass]):
        ops, gen = self.ops, self.gen
        idents = []
        for name, lhs, rhs in RELATIONS:
            idents.append((name, lhs, rhs))
        for item, a, b, expected in BRACKET_TABLE:
            if expected is None:
                continue
            mono_ab = tuple(sorted(
                ([GEN_INDEX[a]] if a in GEN_INDEX else []) +
                ([GEN_INDEX[b]] if b in GEN_INDEX else [])))
            idents.append((f"({item}) [{a},{b}]", [(mono_ab, f"bracket{item}", 1)], expected))
        first_violation = None
        for pattern in itertools.product((1, 2), repeat=6):
            bad = None
            for name, lhs, rhs in idents:
                l = self._combine(v, lhs, pattern)
                r = self._combine(v, rhs, pattern)
                if not ops.eq(l, r):
                    bad = name
                    break
            if bad is None:
                return {k: pattern[i] for k, i in GEN_INDEX.items()}, None
            if first_violation is None:
                first_violation = f"{bad} (at lambda = {pattern})"
        return None, first_violation


def cmd_verify_s3(cfg: JobConfig) -> Dict:
    check_dec_window(cfg.window)
    if cfg.p != 3:
        raise ConfigError("the flagship suite requires characteristic 3")
    if make_group(cfg.group).mult != preset_group("symmetric", 3).mult:
        raise ConfigError(f"the flagship suite runs on symmetric:3, not {cfg.group}")
    report = S3Verifier().run()
    report["config"] = _config_dict(cfg)
    report["provenance"] = _provenance(cfg)
    return report


# ---------------------------------------------------------------------------
# triviality of the rotation operator on group homology

def cmd_verify_appendix_b(cfg: JobConfig) -> Dict:
    check_dec_window(cfg.window)
    G = make_group(cfg.group)
    if G.order % cfg.p:
        raise ConfigError("this check needs the characteristic to divide the group order")
    check_decomposition_cost(conjugacy_classes(G), (-4, -1))  # whole-group degrees -5..0
    cplx = GroupComplex(whole_group(G), cfg.p)
    ck = CheckList()
    for s in range(0, 3):
        basis = cplx.basis(-s - 1)
        cycles = [cplx.element(-s - 1, {basis[i]: c for i, c in kv.items()})
                  for kv in kernel_basis(cplx.matrix(-s - 1))]
        boundary_space = cplx.cohomology(-s - 2)
        ok = True
        for cyc in cycles:
            img = b_tilde(0, cyc)
            if img.is_zero():
                continue
            if any(boundary_space.project(img)):
                ok = False
                break
        ck.add(f"B sends degree-{s} cycles to boundaries ({len(cycles)} cycles)", ok)
    return {"config": _config_dict(cfg), "checks": ck.checks, "passed": ck.passed,
            "provenance": _provenance(cfg)}


# ---------------------------------------------------------------------------
# the randomized self-test driver

def cmd_selftest(cfg: JobConfig) -> Dict:
    """Each suite is a generator whose runs yield their number of failed
    checks (a bool where a run makes one check); ``tally`` counts them, and
    a ValueError out of a suite as one more failed run."""
    G = make_group(cfg.group)
    p = cfg.p
    lo, hi = cfg.window
    cd = conjugacy_classes(G)
    check_decomposition_cost(cd, cfg.window)
    rng = random.Random(cfg.seed)
    dc = DComplex(G, p, (lo - 2, hi + 2))
    dec = ClassDecomposition(dc, cd)
    suites: Dict[str, Dict[str, int]] = {}

    def tally(runs: Iterator[int]) -> Dict[str, int]:
        n = f = 0
        try:
            for fails in runs:
                n += 1
                f += fails
        except ValueError:  # say, d^2 != 0 refused a quotient space or a projection
            n, f = n + 1, f + 1
        return {"runs": n, "failures": f}

    def rand(d, terms=3):
        return dc.random_element(d, rng, terms)

    degs = list(range(lo, hi + 1))

    def d2_zero():
        for d in degs:
            for _ in range(25):
                yield not dc.differential(dc.differential(rand(d))).is_zero()
    suites["d2_zero"] = tally(d2_zero())

    def differential_class_grading():
        for d in degs:
            for key in dc.basis(d)[:: max(1, len(dc.basis(d)) // 30)]:
                cls = class_of_index(cd, d, key)
                img = dc.differential(dc.element(d, {key: 1}))
                yield any(class_of_index(cd, d + 1, k) != cls for k in img.coeffs)
    suites["differential_class_grading"] = tally(differential_class_grading())

    def dimension_bookkeeping():
        for d in degs:
            yield len(dc.basis(d)) != dim_degree(G, d)
    suites["dimension_bookkeeping"] = tally(dimension_bookkeeping())

    def leibniz():
        for _ in range(120):
            da, db = rng.choice(degs), rng.choice(degs)
            if not (lo - 2 <= da + db <= hi + 1):
                continue
            a, b = rand(da), rand(db)
            lhs = dc.differential(cup(a, b))
            rhs = cup(dc.differential(a), b).add(cup(a, dc.differential(b)), sign_pow(da))
            yield not lhs.sub(rhs).is_zero()
    suites["leibniz"] = tally(leibniz())

    def pairing_adjunction():
        for _ in range(120):
            da = rng.choice(degs)
            db = rng.choice(degs)
            dg = -1 - da - db
            if not (lo <= dg <= hi):
                continue
            a, b, c = rand(da), rand(db), rand(dg)
            yield (pairing(cup(a, b), c) - pairing(a, cup(b, c))) % p != 0
    suites["pairing_adjunction"] = tally(pairing_adjunction())

    def homotopy_associativity():
        for _ in range(100):
            da, db, dg = rng.choice(degs), rng.choice(degs), rng.choice(degs)
            if not (lo - 1 <= da + db + dg <= hi + 1 and lo - 2 <= da + db <= hi + 2
                    and lo - 2 <= db + dg <= hi + 2):
                continue
            a, b, c = rand(da), rand(db), rand(dg)
            lhs = cup(a, cup(b, c)).sub(cup(cup(a, b), c))
            rhs = dc.differential(m3(a, b, c))
            rhs = rhs.add(m3(dc.differential(a), b, c))
            rhs = rhs.add(m3(a, dc.differential(b), c), sign_pow(da))
            rhs = rhs.add(m3(a, b, dc.differential(c)), sign_pow(da + db))
            yield not lhs.sub(rhs).is_zero()
    suites["homotopy_associativity"] = tally(homotopy_associativity())

    def bv_chain_map_and_square():
        for _ in range(200):
            a = rand(rng.choice(degs))
            chain_map = signed_anticommutator(a).is_zero()
            square = bv_operator(bv_operator(a)).is_zero()
            yield (not chain_map) + (not square)
    suites["bv_chain_map_and_square"] = tally(bv_chain_map_and_square())

    def cyclicity():
        for _ in range(120):
            d0 = rng.choice(degs)
            d1, d2 = rng.choice(degs), rng.choice(degs)
            d3 = -d0 - d1 - d2
            if not (lo <= d3 <= hi):
                continue
            a0, a1, a2, a3 = (rand(d, 4) for d in (d0, d1, d2, d3))
            yield pairing(a0, m3(a1, a2, a3)) != (sign_pow(d0 + 1) * pairing(m3(a0, a1, a2), a3)) % p
    suites["cyclicity"] = tally(cyclicity())

    def poisson_rule_on_classes():
        classes = []
        for d in range(lo + 1, hi):
            space = dc.cohomology(d)
            classes += [class_of(space, space.representative(i)) for i in range(space.dim)]
        runs = attempts = 0
        while runs < 15 and attempts < 500 and classes:
            attempts += 1
            a, b, c = (classes[rng.randrange(len(classes))] for _ in range(3))
            da, db, dg = a.degree, b.degree, c.degree
            bounds = [da + db, da + db + dg - 1, da + db + dg, da + dg - 1,
                      db + dg - 1, da + dg, db + dg]
            if not all(lo + 1 <= v <= hi - 1 for v in bounds):
                continue
            lhs = lie_bracket(induced_cup(a, b), c)
            rhs = induced_cup(lie_bracket(a, c), b).add(
                induced_cup(a, lie_bracket(b, c)), sign_pow(da * (dg - 1)))
            runs += 1
            yield lhs.coords != rhs.coords

    if direct_fits(G, lo - 1, hi + 1):
        poisson = tally(poisson_rule_on_classes())
        if poisson["runs"]:  # no classes or no triple in the window: no entry
            suites["poisson_rule_on_classes"] = poisson

    def retract_rho_iota_identity():
        for cls in range(cd.num_classes):
            gcplx = dec.complexes[cls]
            for d in degs:
                for _ in range(6):
                    g = gcplx.random_element(d, rng, 2)
                    down = dec.retract_down(dec.retract_up(cls, g))
                    resid = down.get(cls, gcplx.zero(d)).sub(g)
                    yield (not resid.is_zero()
                           or any(not v.is_zero() for k, v in down.items() if k != cls))
    suites["retract_rho_iota_identity"] = tally(retract_rho_iota_identity())

    def retract_homotopy_identity():
        for d in degs:
            for _ in range(10):
                e = rand(d)
                down = dec.retract_down(e)
                back = dc.zero(d)
                for cls, g in down.items():
                    back = back.add(dec.retract_up(cls, g))
                lhs = e.sub(back)
                rhs = dc.differential(dec.homotopy(e), signed=False).add(
                    dec.homotopy(dc.differential(e, signed=False)))
                rhs2 = dc.differential(dec.homotopy(e, signed=True)).add(
                    dec.homotopy(dc.differential(e), signed=True))
                yield (not lhs.sub(rhs).is_zero()) + (not lhs.sub(rhs2).is_zero())
    suites["retract_homotopy_identity"] = tally(retract_homotopy_identity())

    def double_coset_path_equivalence():
        ops = DecOps(G, p)  # the base product that tables and verify-s3 tabulate
        runs = attempts = 0
        while runs < 20 and attempts < 400:
            attempts += 1
            i, j = rng.randrange(cd.num_classes), rng.randrange(cd.num_classes)
            di, dj = rng.choice(degs), rng.choice(degs)
            if not (lo <= di + dj <= hi):
                continue
            si, sj = ops.space(i, di), ops.space(j, dj)
            if si.dim == 0 or sj.dim == 0:
                continue
            a = class_of(si, si.representative(rng.randrange(si.dim)))
            b = class_of(sj, sj.representative(rng.randrange(sj.dim)))
            p1 = {k: coords for k, (_, coords) in
                  ops.cup(ops.from_class(i, a), ops.from_class(j, b)).parts.items()}
            p2 = direct_cup(ops, dec, i, a.space.lift(list(a.coords)),
                            j, b.space.lift(list(b.coords)))
            runs += 1
            yield p1 != p2

    if cd.num_classes > 1:
        suites["double_coset_path_equivalence"] = tally(double_coset_path_equivalence())

    passed = all(s["failures"] == 0 for s in suites.values())
    return {"config": _config_dict(cfg), "suites": suites, "passed": passed,
            "provenance": _provenance(cfg)}
