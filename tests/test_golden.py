"""Golden outputs: the SHA-256 of each job's CLI JSON, ``provenance``
removed, serialized with ``json.dumps(..., sort_keys=True)``.

The digests were computed from the code before quotient pivots and wide
``pivot_columns`` moved onto the bitset echelon core, so they pin the
outputs that change had to keep byte for byte; the ``verify-s3 -4..3``
digest (the job that runs the largest identity-class cups) was computed
before subgroup cups were read directly on tuples, and the ``tables
dihedral:5`` digest (the one job here that takes representatives,
``project`` and ``lift`` at p >= 5, on dict vectors) before
``QuotientSpace`` was built from its two matrices.  ``tables`` prints its
structure constants in the representative basis, so its digests also
guard the representatives' entries.  The ``tables symmetric:3`` digests
of the windows -5..5 and -2..4 were computed on commit 85922a1, while
``tables`` still built the cohomology spaces of degree lo-1, so they pin
the outputs that ``tables`` had to keep when it stopped building them.
The digests of ``tables dihedral:5 -3..3``, ``dims cyclic:5 -5..5`` and
``dims dihedral:5`` at p = 2^31 - 1 were computed on commit 911be06,
while p >= 5 still took a numpy int32 engine on small matrices, so they
pin the outputs that the dict leading-row loop had to keep.  The
``selftest`` digests other than S3/F3 (p = 2 on D8 and Q8, the cyclic:2
window with no Poisson suite, and D10 at p = 5) were computed on commit
1945b8c, before each suite's runs were counted by one tally, so they pin
the counts that change had to keep.  Each job takes about a second or
less in-process.
"""

import hashlib
import json

import pytest

from tatebv.cli import main

GOLDEN = [
    (("dims", "--group", "dihedral:4", "--char", "2", "--window", "-2..2"),
     "92929537dde276d1188cacecc96a9e881043015205218a338027eb4e738a7954"),
    (("dims", "--group", "quaternion8", "--char", "2", "--window", "-3..3"),
     "930e2b7165d552e2722ff45fea97d7225c0d15746dddfafa6957f328c88ed70a"),
    (("tables", "--group", "symmetric:3", "--char", "3", "--window", "-4..4"),
     "78694b0951c4503a39d43983939e022f54e56777680539167b93762bf69fbccc"),
    (("tables", "--group", "symmetric:3", "--char", "3", "--window", "-5..5"),
     "99af893f21f9cf71a3c09e3e8381093cf0caa3da41095c60d9e42c254ce88679"),
    (("tables", "--group", "symmetric:3", "--char", "3", "--window", "-2..4"),
     "b785fee7a2e0765473af6f1d76789168fcf2fa3839adeefecd568558cb1b1996"),
    (("tables", "--group", "dihedral:4", "--char", "2", "--window", "-2..2"),
     "fcf3e1326d919be15d015a2e6578a84204dfa481de7ba9afb9ae6904c9aee470"),
    (("verify-s3", "--window", "-3..3"),
     "9b52804e234cde91d806adaa45715bb55cf0a5bcbdfbd3d31a9a86f6f35dd4f0"),
    (("verify-s3", "--char", "3", "--window", "-4..3"),
     "639f3cb4082ad86a5452a4e9fc32a963f678d3d3c8e33ab7406e4911bd9b575f"),
    (("selftest", "--group", "symmetric:3", "--char", "3", "--window", "-3..3", "--seed", "0"),
     "860b528427cbc80558cd024efb47aa95d9cf5eefa23f44c5ba67a82e0f886b30"),
    (("selftest", "--group", "dihedral:4", "--char", "2", "--window", "-2..2", "--seed", "1"),
     "2be29170710ae9660bc26810f79869c50b30692acb8418231ba864a6f495e602"),
    (("selftest", "--group", "quaternion8", "--char", "2", "--window", "-2..2", "--seed", "3"),
     "01eace289f8bc5b8e579a096ef4420829d4feeedd2943621709910ea37c63008"),
    (("selftest", "--group", "cyclic:2", "--char", "3", "--window", "-2..1", "--seed", "1"),
     "119e2fe6dc6f22de7b519d4a80cd6edad984665aa6a7c37e3b092c114601a8b6"),
    (("selftest", "--group", "dihedral:5", "--char", "5", "--window", "-2..2", "--seed", "2"),
     "684dd7c04601048791adee3c1d0de0eba01d78d14c0f50b85dd7a2df6c8db574"),
    (("export-diff", "--group", "symmetric:3", "--char", "3", "--window", "-3..3"),
     "6025785572ce266aaf8b9315492d3acd15a66cd00dfb30a66465d180beaa3528"),
    (("dims", "--group", "symmetric:3", "--char", "5", "--window", "-3..3"),
     "7b47285c6feff3dc4424312c0fb574775e283897c33988b9f0bb0720201fdd67"),
    (("tables", "--group", "dihedral:5", "--char", "5", "--window", "-2..2"),
     "257b1ad7528509ca5f12daacdba277de4a0d2c5897d71744a2ed73e2f05ddaf2"),
    (("tables", "--group", "dihedral:5", "--char", "5", "--window", "-3..3"),
     "ed176dec9de3f028a171517c5ac334f14c6c4384f896b70790cf36e182388810"),
    (("dims", "--group", "cyclic:5", "--char", "5", "--window", "-5..5"),
     "02330416deee5c8156d5623adcc0aa490e612300f2be864f909f28375fd44b3e"),
    (("dims", "--group", "dihedral:5", "--char", "2147483647", "--window", "-3..3"),
     "990a3cd9ee63f2d1e2234f6a486d10e09a4ffd3dcfc60734b6d3305ac0fc5195"),
]


@pytest.mark.parametrize("args,digest", GOLDEN,
                         ids=["_".join(x for x in a if not x.startswith("--")) for a, _ in GOLDEN])
def test_golden_output(capsys, args, digest):
    rc = main(list(args) + ["--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    data.pop("provenance")
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == digest
