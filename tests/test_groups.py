import itertools
import math
import random

import pytest

from tatebv import groups
from tatebv.groups import (GroupError, Subgroup, class_rep_and_witness,
                           conjugacy_classes, conjugate_subgroup, double_cosets,
                           generated_subgroup, group_from_mult_table,
                           group_from_permutations, intersect_subgroups, parse_cycles,
                           preset_group, right_coset_system, sylow_subgroup,
                           trivial_subgroup, whole_group)
from tatebv.harness import make_group


def test_trivial_group():
    G = group_from_mult_table([[0]])
    assert G.order == 1 and G.inv == (0,)


def test_c2_table():
    G = group_from_mult_table([[0, 1], [1, 0]])
    assert G.order == 2
    assert G.mult[1][1] == 0


def test_identity_relocated():
    # identity sits at index 1; construction must relabel it to 0
    table = [[1, 0], [0, 1]]
    G = group_from_mult_table(table)
    assert all(G.mult[0][x] == x for x in range(2))


def test_non_associative_rejected():
    # quasigroup (subtraction mod 6): has two-sided identity only partially;
    # build a magma with identity but broken associativity
    n = 6
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    table[2][3] = 4  # break (2*3) while keeping row/col ranges valid
    # independent brute-force oracle: find a violating triple first
    def assoc_violation():
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        return True
        return False
    assert assoc_violation()
    with pytest.raises(GroupError, match="associative"):
        group_from_mult_table(table)


def test_non_associative_120_element_table_rejected():
    """Associativity is checked exactly at every order: S5's table with
    two entries of one row swapped keeps its identity and inverses, and a
    deterministic sample of 30n triples, t -> (7t, 11t + 3, 13t + 5) mod n,
    misses every violation, yet the table is refused."""
    table = [list(row) for row in preset_group("symmetric", 5).mult]
    n = len(table)
    table[5][7], table[5][11] = table[5][11], table[5][7]

    def violates(a, b, c):
        return table[table[a][b]][c] != table[a][table[b][c]]

    sample = [((7 * t) % n, (11 * t + 3) % n, (13 * t + 5) % n) for t in range(30 * n)]
    assert not any(violates(*abc) for abc in sample)
    assert any(violates(5, 7, c) for c in range(n))
    with pytest.raises(GroupError, match="not associative"):
        group_from_mult_table(table)


def test_no_identity_rejected():
    with pytest.raises(GroupError, match="identity"):
        group_from_mult_table([[1, 0], [1, 0]])


def test_missing_inverse_rejected():
    # multiplicative monoid {0, 1}: identity present, 0 has no inverse
    with pytest.raises(GroupError, match="inverse"):
        group_from_mult_table([[0, 0], [0, 1]])


def test_permutation_closure_s3():
    G = group_from_permutations(parse_cycles("(0 1 2),(0 1)"))
    assert G.order == 6
    assert conjugacy_classes(G).num_classes == 3


def test_permutation_closure_c4():
    G = group_from_permutations(parse_cycles("(0 1 2 3)"))
    assert G.order == 4
    assert G.is_abelian


def test_single_transposition():
    G = group_from_permutations([[1, 0]])
    assert G.order == 2


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(groups, "CLOSURE_CAP", 16)
    with pytest.raises(GroupError, match="cap 16"):
        group_from_permutations(parse_cycles("(0 1 2 3 4),(0 1)"))
    assert group_from_permutations(parse_cycles("(0 1 2 3)")).order == 4


def test_presets():
    assert preset_group("cyclic", 3).order == 3
    S3 = preset_group("symmetric", 3)
    assert S3.order == 6
    assert conjugacy_classes(S3).num_classes == 3
    D4 = preset_group("dihedral", 4)
    assert D4.order == 8
    cd = conjugacy_classes(D4)
    assert sorted(len(c) for c in cd.classes) == [1, 1, 2, 2, 2]
    assert preset_group("klein_four").order == 4
    Q8 = preset_group("quaternion8")
    assert Q8.order == 8
    assert conjugacy_classes(Q8).num_classes == 5
    with pytest.raises(GroupError):
        preset_group("symmetric", 9)
    with pytest.raises(GroupError):
        preset_group("cyclic", 0)


def test_symmetric3_presentation_ordering():
    # elements e, a, a2, b, ab, a2b with b a b = a^-1
    G = preset_group("symmetric", 3)
    assert G.labels == ("e", "a", "a2", "b", "ab", "a2b")
    a, b = 1, 3
    assert G.mult[a][a] == 2
    bab = G.mult[G.mult[b][a]][b]
    assert bab == G.inv[a]


def test_conjugacy_s3(s3, s3_cd):
    assert [c.order for c in s3_cd.centralizers] == [6, 3, 2]
    assert s3_cd.reps[0] == 0
    # orbit-stabilizer
    assert sum(s3.order // c.order for c in s3_cd.centralizers) == s3.order


def test_conjugacy_abelian():
    G = preset_group("cyclic", 5)
    cd = conjugacy_classes(G)
    assert cd.num_classes == 5
    assert all(c.order == 5 for c in cd.centralizers)


def test_inverse_antihomomorphism(s3):
    for g in range(6):
        for h in range(6):
            assert s3.inv[s3.mult[g][h]] == s3.mult[s3.inv[h]][s3.inv[g]]


def test_coset_system(s3):
    H = generated_subgroup(s3, [1])  # <a>
    cs = right_coset_system(H)
    assert cs.count == 2
    assert cs.gamma[0] == 0
    for g in range(6):
        h, i = cs.decomp[g]
        assert s3.mult[h][cs.gamma[i]] == g
    full = right_coset_system(whole_group(s3))
    assert full.count == 1
    triv = right_coset_system(trivial_subgroup(s3))
    assert triv.count == 6
    assert all(triv.decomp[g] == (0, triv.gamma.index(g)) for g in range(6))
    # thread: gamma_{i_k} * g_k = h_k * gamma_{i_{k+1}} along the cosets i_0 = i, ..., i_n
    for i in range(cs.count):
        for elems in ((), (1,), (3, 4), (4, 0, 5)):
            hs, cosets = cs.thread(i, elems)
            assert len(hs) == len(elems) and len(cosets) == len(elems) + 1
            assert cosets[0] == i
            for k, g in enumerate(elems):
                assert hs[k] in H
                assert s3.mult[cs.gamma[cosets[k]]][g] == s3.mult[hs[k]][cs.gamma[cosets[k + 1]]]


def _product_paths(cs, elems):
    """Reference walk: every coset path i_0..i_n from itertools.product whose
    slots gamma_{i_k}^-1 elems[k] gamma_{i_{k+1}} are all non-identity."""
    G = cs.subgroup.parent
    out = []
    for path in itertools.product(range(cs.count), repeat=len(elems) + 1):
        slots = tuple(G.mult[G.mult[G.inv[cs.gamma[path[k]]]][g]][cs.gamma[path[k + 1]]]
                      for k, g in enumerate(elems))
        if all(slots):
            out.append((path, slots))
    return out


def test_coset_paths_match_product_enumeration(s3, d4):
    systems = [right_coset_system(generated_subgroup(s3, gens)) for gens in ([], [3], [1], [1, 3])]
    # the corestriction shape: the ambient is a proper subgroup K = <a>, not S3
    K = generated_subgroup(s3, [1])
    systems.append(right_coset_system(trivial_subgroup(s3), ambient=K.members))
    systems.append(right_coset_system(generated_subgroup(d4, [2, 4])))  # order 4 in D8
    assert [cs.count for cs in systems] == [6, 3, 2, 1, 3, 2]
    rng = random.Random(11)
    for cs in systems:
        nontrivial = [g for g in cs.ambient if g]
        for n in range(5):
            for _ in range(4):
                elems = [rng.choice(nontrivial) for _ in range(n)]
                draws = [tuple(elems)]
                if n:
                    elems[rng.randrange(n)] = 0
                    draws.append(tuple(elems))
                for elems in draws:
                    ref = _product_paths(cs, elems)
                    assert cs.paths(elems) == [(path[0], slots) for path, slots in ref]
                    for end in range(cs.count):
                        assert cs.paths(elems, end) == [(path[0], slots) for path, slots in ref
                                                        if path[-1] == end]


@pytest.mark.parametrize("group,param", [("symmetric", 3), ("dihedral", 4), ("symmetric", 4)])
def test_coset_paths_match_enumeration_with_cached_steps(group, param):
    """paths keeps one step table per g on its coset system: on random
    subgroups and random keys (the identity included), a first call and a
    repeat on the cached tables both equal the enumeration of coset
    sequences."""
    G = preset_group(group, param)
    rng = random.Random(param)
    for _ in range(6):
        gens = rng.sample(range(1, G.order), rng.randrange(1, 3))
        cs = right_coset_system(generated_subgroup(G, gens))
        for _ in range(10):
            n = rng.randrange((4 if cs.count <= 6 else 3) + 1)
            elems = tuple(rng.randrange(G.order) for _ in range(n))
            ref = _product_paths(cs, elems)
            end = rng.randrange(cs.count)
            for _ in range(2):
                assert cs.paths(elems) == [(path[0], slots) for path, slots in ref]
                assert cs.paths(elems, end) == [(path[0], slots) for path, slots in ref
                                                if path[-1] == end]


def test_coset_system_rejects_non_subgroup(s3):
    with pytest.raises(GroupError):
        Subgroup(s3, (0, 1))  # {e, a} not closed: a*a = a2


def test_double_cosets(s3):
    G = whole_group(s3)
    assert double_cosets(s3, G, G) == (0,)
    H = generated_subgroup(s3, [1])
    reps = double_cosets(s3, H, H)
    assert len(reps) == 2
    cosets = [{s3.mult[s3.mult[h][x]][k] for h in H.members for k in H.members} for x in reps]
    assert sorted(map(len, cosets)) == [3, 3] and set().union(*cosets) == set(range(6))
    assert all(x == min(c) for x, c in zip(reps, cosets))
    T = trivial_subgroup(s3)
    assert double_cosets(s3, T, T) == tuple(range(6))


def test_class_rep_and_witness(s3, s3_cd):
    assert class_rep_and_witness(s3_cd, 0) == (0, 0)
    k, y = class_rep_and_witness(s3_cd, 2)  # a2 is conjugate to a
    assert k == 1 and s3.conj(y, 2) == s3_cd.reps[1]
    k, y = class_rep_and_witness(s3_cd, 4)  # ab lies in the class of b
    assert k == 2 and s3.conj(y, 4) == s3_cd.reps[2]


def test_subgroup_ops(s3):
    H = generated_subgroup(s3, [1])
    G = whole_group(s3)
    assert conjugate_subgroup(s3, 0, H).members == H.members
    assert intersect_subgroups(H, G).members == H.members
    assert conjugate_subgroup(s3, 3, H).members == H.members  # <a> is normal


A4 = "perms:(0 1 2),(0 1)(2 3)"
SYLOW_PAIRS = [("symmetric:3", 2), ("symmetric:3", 3), ("symmetric:3", 5),
               ("symmetric:4", 2), ("symmetric:4", 3), ("dihedral:4", 2), ("quaternion8", 2),
               ("dihedral:5", 2), ("dihedral:6", 2), ("dihedral:5", 5), ("dihedral:6", 3),
               ("cyclic:6", 2), ("cyclic:6", 3), (A4, 2), (A4, 3)]


@pytest.mark.parametrize("spec,p", SYLOW_PAIRS,
                         ids=[f"{'A4' if spec == A4 else spec}-p{p}" for spec, p in SYLOW_PAIRS])
def test_sylow_subgroup_of_each_centralizer(spec, p):
    G = make_group(spec)
    for H in conjugacy_classes(G).centralizers:
        P = sylow_subgroup(H, p)
        assert P.order == math.gcd(H.order, p ** H.order)  # the p-part of |H|
        assert P.member_set <= H.member_set
        for g in P.members:
            order, power = 1, g
            while power:
                order, power = order + 1, G.mult[power][g]
            while order % p == 0:
                order //= p
            assert order == 1, (G.label(g), p)

