"""Byte-for-byte golden ``--json`` reports.

The documents and reports under ``tests/golden/`` were produced by the
command line before the pipeline was restructured to run each stage
once per input; the ``norm --f 1`` report was produced before the norm
map stopped building its base level twice and before the Smith normal
form began replaying its transforms from a log.  Any change to a report
byte is a behaviour change, not a refactor.  Never regenerate them to make this test pass.
"""

from pathlib import Path

import pytest

from snckit.cli import main

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
    ("fermat4-cover.norm-f4.out.json", ["norm", "fermat4-cover.json", "--f", "4"]),
    ("fermat4-cover.norm-f1.out.json", ["norm", "fermat4-cover.json", "--f", "1"]),
    ("fermat4-cover.homology-z6.out.json",
     ["homology", "fermat4-cover.json", "--coeff", "z/6"]),
    ("swap.kernel-sweep2.out.json", ["kernel", "swap.json", "--sweep", "2", "--ell", "3"]),
    ("coned.kernel-sweep3.out.json", ["kernel", "coned.json", "--sweep", "3", "--ell", "3"]),
]


def _argv(args: list[str]) -> list[str]:
    if args[0] == "example":
        return args
    return [args[0], str(GOLDEN / args[1]), *args[2:], "--json"]


@pytest.mark.parametrize("golden,args", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(capsys, golden, args):
    assert main(_argv(args)) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()
