import pytest

from tatebv import conjugacy_classes, preset_group
from tatebv.complexes import DComplex, GroupComplex


class MutatedDComplex(DComplex):
    """Corrupts one differential to prove the checks have teeth: every
    degree-0 column gains +1 at ((g1,), e), so d^2 != 0.  Its matrices come
    from the override, not from the face tables."""

    coboundary_faces = None

    def unsigned_terms(self, key, d, out, c):
        super().unsigned_terms(key, d, out, c)
        if d == 0:
            bogus = (tuple([self.group.nontrivial[0]]), 0)
            out[bogus] = out.get(bogus, 0) + c
        return out


class MutatedGroupComplex(GroupComplex):
    """A subgroup complex whose degree-0 coboundary breaks d^2 = 0."""

    coboundary_faces = None

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
