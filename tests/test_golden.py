"""Byte-for-byte golden ``--json`` reports.

The documents and reports under ``tests/golden/`` were produced by the
command line before the pipeline was restructured to run each stage
once per input; the ``norm --f 1`` report was produced before the norm
map stopped building its base level twice and before the Smith normal
form began replaying its transforms from a log.  The three
``homology-z6`` reports were produced when Z/n homology began to be read
off the integral Smith forms by the universal coefficient theorem, with
one representative per summand.  ``rulings.homology-z0`` was produced
when Z homology began to be presented the same way, one generator per
summand; before, H_0 = Z was presented on all four vertices.
``fermat4-cover.extend-f4`` was produced before a split degree (one
where Frobenius^f fixes every id) began to reuse the geometric complex
as its quotient, with the identity as its collapse map.
``swap.kernel-sweep2`` was regenerated when a sweep's trend began to be
read off the period P: its trend at ell = 3 reads "periodic with period
2", where the old sequence rule printed "eventually trivial" although
every odd f bounds the kernel by Z/3 again.  The three ``cmaps``
reports were produced when that document was added, the first whose
component map adds a relation to y0.  Any change to a report byte is a
behaviour change, not a refactor.  Never regenerate them to make this test pass.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from snckit.cli import main

from conftest import dense_document, moore_document, suspension_document

GOLDEN = Path(__file__).parent / "golden"
ELLS = ["--ell", "2", "--ell", "3", "--ell", "5"]

# (golden report, argv with the input document name first after the command)
CASES = [
    ("rulings.json", ["example", "rulings"]),
    ("fermat5.json", ["example", "fermat", "--n", "5"]),
    ("fermat4-cover.json", ["example", "fermat", "--n", "4", "--cover"]),
]
for _doc in ("rulings", "fermat5"):
    CASES += [
        (f"{_doc}.validate.out.json", ["validate", f"{_doc}.json"]),
        (f"{_doc}.dual-complex.out.json", ["dual-complex", f"{_doc}.json"]),
        (f"{_doc}.homology-z.out.json", ["homology", f"{_doc}.json"]),
        (f"{_doc}.homology-z6.out.json", ["homology", f"{_doc}.json", "--coeff", "z/6"]),
        (f"{_doc}.suspend.out.json", ["suspend", f"{_doc}.json"]),
        (f"{_doc}.theta.out.json", ["theta", f"{_doc}.json", *ELLS]),
        (f"{_doc}.alpha.out.json", ["alpha", f"{_doc}.json", *ELLS]),
        (f"{_doc}.kernel-f1.out.json", ["kernel", f"{_doc}.json", *ELLS, "--f", "1"]),
        (f"{_doc}.kernel-sweep6.out.json", ["kernel", f"{_doc}.json", *ELLS, "--sweep", "6"]),
    ]
CASES += [
    ("fermat4-cover.extend-f2.out.json", ["extend", "fermat4-cover.json", "--f", "2"]),
    ("fermat4-cover.extend-f4.out.json", ["extend", "fermat4-cover.json", "--f", "4"]),
    ("fermat4-cover.norm-f4.out.json", ["norm", "fermat4-cover.json", "--f", "4"]),
    ("fermat4-cover.norm-f1.out.json", ["norm", "fermat4-cover.json", "--f", "1"]),
    ("fermat4-cover.homology-z6.out.json",
     ["homology", "fermat4-cover.json", "--coeff", "z/6"]),
    ("rulings.homology-z0.out.json", ["homology", "rulings.json", "--degree", "0"]),
    ("swap.kernel-sweep2.out.json", ["kernel", "swap.json", "--sweep", "2", "--ell", "3"]),
    ("coned.kernel-sweep3.out.json", ["kernel", "coned.json", "--sweep", "3", "--ell", "3"]),
    # the one document with a component map: theta adds its image to
    # y0's relations, and the map and its Frobenius equivariance are checked
    ("cmaps.theta.out.json", ["theta", "cmaps.json", "--ell", "2", "--ell", "3"]),
    ("cmaps.alpha.out.json", ["alpha", "cmaps.json", "--ell", "2", "--ell", "3"]),
    ("cmaps.kernel-sweep2.out.json",
     ["kernel", "cmaps.json", "--ell", "2", "--ell", "3", "--sweep", "2"]),
]


def _argv(args: list[str]) -> list[str]:
    if args[0] == "example":
        return args
    return [args[0], str(GOLDEN / args[1]), *args[2:], "--json"]


@pytest.mark.parametrize("golden,args", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(capsys, golden, args):
    assert main(_argv(args)) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


# sha256 of ``--json`` reports too large to keep as files, over Z/6.
# Each representative is a Smith generator's integral cycle, or 6/g
# times a chain whose boundary is t times one, reduced into [0, 6), so
# the hashes depend on the pivot sequences of the Smith normal forms of
# the boundaries and the integral relation matrices.  They were taken
# when Z/n homology began to be read off those forms; none of these
# groups has a Tor summand.  The suspension-2 degree-4 group is trivial,
# and its report is the one first pinned.
Z6_HASHES = {
    ("cover-25", ()): "b248afe8aa7be233e1e0ff2cbdc776916e9cca9725b2f943badfba5b4106ab62",
    ("cover-50", ()): "74192a55acbfd2bfec1e568a30124fc256eba33156831cbdf7a32bde744533c0",
    ("suspension-2", ("--degree", "3")):
        "f3f3bd446031e2ae3c2fc71ab6594841ad108077d96df673a7e29d660206c9ee",
    ("suspension-2", ("--degree", "4")):
        "2706e004c63fbae2ef464ccdbbe17df7843bf876994c89079f468c4acf1381ee",
    ("suspension-3", ("--degree", "3")):
        "632f678373bc54cb2c3009f538b573add7fa8fd61b40ee6cefd6af84c2be0479",
    ("suspension-3", ("--degree", "4")):
        "1e64c4f4c7382f6ded724d20812d9622fe012396381721cfc764ad8a5960a362",
}


def _document(capsys, tmp_path, doc: str) -> str:
    kind, size = doc.split("-")
    path = tmp_path / f"{doc}.json"
    if kind == "cover":
        assert main(["example", "fermat", "--n", size, "--cover"]) == 0
        path.write_text(capsys.readouterr().out)
    elif kind == "moore":
        path.write_text(json.dumps(moore_document(int(size))))
    else:
        path.write_text(json.dumps(suspension_document(int(size))))
    return str(path)


@pytest.mark.parametrize("doc,flags", sorted(Z6_HASHES),
                         ids=[f"{d}{''.join(f)}" for d, f in sorted(Z6_HASHES)])
def test_z6_report_hash_is_pinned(capsys, tmp_path, doc, flags):
    path = _document(capsys, tmp_path, doc)
    assert main(["homology", path, *flags, "--coeff", "z/6", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == Z6_HASHES[doc, flags]


# sha256 of ``homology --json`` on ``moore_document(4)``, whose H_1 is
# Z/4.  In degree 2 over Z/4 and Z/6 the group is the Tor summand, whose
# representative is (n/g) times column i of v in the Smith form
# u·d_2·v = D, for the diagonal entry d_i = 4; they were taken when the
# Tor part began to be read off the form of d_2 alone.  At that change
# the Z/4 report changed (its representative was 3 times the present
# one) and the Z/6 one did not.  Degree 1 over Z/6 has no Tor summand
# and is a control: its report is older than that change.
MOORE_HASHES = {
    ("2", "z/4"): "411556acd86045a72d2627ce7affb1572f0f774b2fa2d3280195f17eaa865c9e",
    ("2", "z/6"): "fcdf880c41540d46d3fa9b7da46ce2330a1d66a223336c0031ad0f3a1b70155c",
    ("1", "z/6"): "39535a7f4f805052441dd2693dcc17cc1089fb7aef9fe49fc1d2574e557816e6",
}


@pytest.mark.parametrize("degree,coeff", sorted(MOORE_HASHES))
def test_moore_report_hash_is_pinned(capsys, tmp_path, degree, coeff):
    path = tmp_path / "moore-4.json"
    path.write_text(json.dumps(moore_document(4)))
    assert main(["homology", str(path), "--degree", degree, "--coeff", coeff, "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == MOORE_HASHES[degree, coeff]


# sha256 of ``homology --json`` over Z in the given degree, taken when Z
# homology began to be presented on one Smith generator per summand, as
# Z/n homology was.  Before, each group was presented on the kernel
# basis of the boundary: Z/4 on 12 generators (the Moore complex in degree 1),
# the trivial group on 25 boundaries (the double suspension of the
# 6-cycle in degree 1) and Z on all 200 vertices (the 100-cover in
# degree 0).
Z_HASHES = {
    ("moore-4", "1"): "228dd49e8f84058c4fd4c53e4077e2abc44b717e9890d66fc9f82668724a5f6f",
    ("suspension-2", "1"): "18567d7b91c0d78c2c263793f16ea5a111fbd1dee846f0669ca6ca80b67bb825",
    ("cover-100", "0"): "fbb9614e647dfab2107c82f172f5a51dcaa14419f6e7d389a718a21965da6fa7",
}


@pytest.mark.parametrize("doc,degree", sorted(Z_HASHES))
def test_z_report_hash_is_pinned(capsys, tmp_path, doc, degree):
    path = _document(capsys, tmp_path, doc)
    assert main(["homology", path, "--degree", degree, "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == Z_HASHES[doc, degree]


# sha256 of ``kernel --ell 2 --ell 3 --ell 5 --json`` on the dense g = 32
# document of generator seed 6, taken before the groups read their Smith
# coordinates modulo the invariant factors (a run then took about 50 s
# on 2 shared cores, and under a second after).
DENSE_32_HASH = "e8fa1acb484fdb487cc6c3817668418cd890e7207f82408eeb7688952148aa7e"


def test_dense_32_kernel_report_hash_is_pinned(capsys, tmp_path):
    path = tmp_path / "dense-32.json"
    path.write_text(json.dumps(dense_document(random.Random(6), 32, "dense-32")))
    assert main(["kernel", str(path), *ELLS, "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DENSE_32_HASH
