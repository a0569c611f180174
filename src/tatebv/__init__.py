"""Exact Tate-Hochschild cochain complexes of finite group algebras over
prime fields, with the full chain-level algebraic structure: generalized
cup product, cyclic A-infinity product m3, BV operator, Lie bracket,
additive decomposition via homotopy deformation retracts, and double-coset
cup products."""

from .groups import (ConjugacyData, CosetSystem, Group, GroupError,
                     Subgroup, class_rep_and_witness, conjugacy_classes,
                     conjugate_subgroup, double_cosets, generated_subgroup,
                     group_from_mult_table, group_from_permutations,
                     intersect_subgroups, preset_group, right_coset_system,
                     trivial_subgroup, whole_group)
from .linalg import QuotientSpace, SparseMatrix, kernel_basis, rank
from .complexes import (CohomologySpace, DComplex, GroupComplex, GroupTateElement,
                        TateElement, WindowError, class_of_index, dim_degree)
from .bv import (CohClass, bv_operator, class_of, connes_b, cup, induced_cup,
                 induced_delta, lie_bracket, m3, pairing, signed_anticommutator)
from .decomposition import ClassDecomposition, b_tilde, delta_tilde
from .transfer import TransferContext

__version__ = "0.1.0"
