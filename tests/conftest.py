import pytest

from tatebv import conjugacy_classes, preset_group
from tatebv.complexes import DComplex, GroupComplex
from tatebv.linalg import SparseMatrix, rank


class _TemplateMatrices:
    """Builds every matrix, and so every rank, from the dict columns of
    ``unsigned_terms``, so that an override of that template reaches them;
    the face tables stream the unchanged map."""

    def _new_matrix(self, d):
        return SparseMatrix(self.dim(d + 1), self.dim(d), self.p, build=lambda: self._columns(d))

    def _eliminated_rank(self, d):
        return rank(self._new_matrix(d))


class MutatedDComplex(_TemplateMatrices, DComplex):
    """Corrupts one differential to prove the checks have teeth: every
    degree-0 column gains +1 at ((g1,), e), so d^2 != 0.  Its matrices come
    from the override, not from the face tables, and its rank(d) for d <=
    -2 reads its own corrupted rank(-d-2), so rank(-2) is that of the
    corrupted degree-0 matrix."""

    def unsigned_terms(self, key, d, out, c):
        super().unsigned_terms(key, d, out, c)
        if d == 0:
            bogus = (tuple([self.group.nontrivial[0]]), 0)
            out[bogus] = out.get(bogus, 0) + c
        return out


class MutatedGroupComplex(_TemplateMatrices, GroupComplex):
    """A subgroup complex whose degree-0 coboundary breaks d^2 = 0."""

    def unsigned_terms(self, key, d, out, c):
        super().unsigned_terms(key, d, out, c)
        if d == 0 and self.subgroup.order > 1:
            bogus = (self.subgroup.nontrivial[0],)
            out[bogus] = out.get(bogus, 0) + c
        return out


@pytest.fixture(scope="session")
def s3():
    return preset_group("symmetric", 3)


@pytest.fixture(scope="session")
def s3_cd(s3):
    return conjugacy_classes(s3)


@pytest.fixture(scope="session")
def s3_complex(s3):
    return DComplex(s3, 3, (-10, 9))


@pytest.fixture(scope="session")
def d4():
    return preset_group("dihedral", 4)
