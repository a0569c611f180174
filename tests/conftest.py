import pytest

from tatebv import conjugacy_classes, preset_group
from tatebv.complexes import DComplex, GroupComplex
from tatebv.linalg import SparseMatrix, rank


class _TemplateMatrices:
    """Builds every matrix from the dict columns of ``unsigned_terms``, so
    that an override of that template reaches them; the face tables stream
    the unchanged map."""

    def matrix(self, d):
        self.check_degree(d)
        self.check_degree(d + 1)
        if d not in self._matrix:
            self._matrix[d] = SparseMatrix(self.dim(d + 1), self.dim(d), self.p,
                                           build=lambda: self._columns(d))
        return self._matrix[d]


def ranked_dims(cplx, degrees):
    """dim C^n - rank d_n - rank d_(n-1) of cplx in each degree n, each rank
    by ``linalg.rank`` of the complex's own matrix: its cohomology
    dimensions if d^2 = 0, which this does not check."""
    return [cplx.dim(n) - rank(cplx.matrix(n)) - rank(cplx.matrix(n - 1)) for n in degrees]


class MutatedDComplex(_TemplateMatrices, DComplex):
    """Corrupts one differential to prove the checks have teeth: every
    degree-0 column gains +1 at ((g1,), e), so d^2 != 0.  Its matrices come
    from the override, not from the face tables, so only matrix(0) is
    corrupted."""

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
