"""End-to-end command-line behaviour: exit codes, report shape,
determinism, and the failure modes that must name their objects."""

import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from snckit.cli import main
from snckit.config_io import serialize_bundle
from snckit.fixtures import fermat_bundle, rulings_bundle
from snckit.groups import PRIME_BOUND

from conftest import det, suspension_document, triangle_config

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def rulings_path(tmp_path):
    path = tmp_path / "rulings.json"
    path.write_text(serialize_bundle(rulings_bundle()))
    return str(path)


@pytest.fixture
def fermat_path(tmp_path):
    path = tmp_path / "fermat.json"
    path.write_text(serialize_bundle(fermat_bundle(5)))
    return str(path)


def run_json(capsys, argv) -> dict:
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys, rulings_path):
        assert main([]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["extend", rulings_path]) == 2  # --f is required
        assert main(["theta", rulings_path, "--ell", "4"]) == 2  # not prime
        # out-of-range values are usage errors too, not tracebacks
        assert main(["extend", rulings_path, "--f", "0"]) == 2
        assert main(["norm", rulings_path, "--f", "0"]) == 2
        assert main(["kernel", rulings_path, "--ell", "2", "--f", "-2"]) == 2
        assert main(["kernel", rulings_path, "--ell", "2", "--sweep", "0"]) == 2
        capsys.readouterr()
        # one degree or a sweep, never both
        assert main(["kernel", str(GOLDEN / "fermat5.json"), "--ell", "5", "--f", "3",
                     "--sweep", "2"]) == 2
        assert "argument --sweep: not allowed with argument --f" in capsys.readouterr().err
        assert main(["homology", rulings_path, "--degree", "-1"]) == 2
        assert main(["homology", rulings_path, "--coeff", "z/abc"]) == 2
        assert main(["extend", rulings_path, "--f", "abc"]) == 2
        assert main(["example", "fermat", "--n", "1"]) == 2
        assert main(["oracle-check", "--max-vertices", "0"]) == 2
        # past ORACLE_SIZE_BOUND // 4 a random complex could outgrow the oracle
        assert main(["oracle-check", "--count", "1", "--max-vertices", "251"]) == 2
        assert main(["oracle-check", "--count", "1", "--seed", "0", "--max-vertices", "700"]) == 2
        assert main(["oracle-check", "--max-vertices", "10000000"]) == 2
        assert main(["oracle-check", "--count", "-5"]) == 2
        capsys.readouterr()
        # primality is decided only below the bound, which the message names
        for ell in (PRIME_BOUND, 10**40 + 1):
            assert main(["theta", rulings_path, "--ell", str(ell)]) == 2
            assert f"--ell expects a prime below {PRIME_BOUND}" in capsys.readouterr().err

    def test_validation_errors_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"components": []}')
        assert main(["validate", str(bad)]) == 1
        assert "at least one component required" in capsys.readouterr().err
        # a group past the generator cap is refused before it is built
        bad.write_text('{"components": [{"id": "A"}], "pi1_y0": {"generators": 1001}}')
        assert main(["validate", str(bad)]) == 1
        assert "pi1_y0.generators: at most 1000 allowed" in capsys.readouterr().err
        bad.write_text('{"components": [{"id": "A"}, {"id": "B"}], '
                       '"strata": {"2": [{"id": "", "on": ["A", "B"]}]}}')
        assert main(["validate", str(bad)]) == 1
        assert "stratum with empty id" in capsys.readouterr().err

    def test_non_utf8_input_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"name": "caf\xe9", "components": [{"id": "A"}]}')
        assert main(["validate", str(bad)]) == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_json_exits_one(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", str(deep)]) == 1
        assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"

    def test_overlong_decimal_string_names_its_path(self, capsys, tmp_path):
        doc = {"components": [{"id": "A"}],
               "pi1_y0": {"generators": 1, "relations": [["9" * 5000]]}}
        path = tmp_path / "long-string.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pi1_y0.relations[0][0]: ")
        assert "digits" in err

    @pytest.mark.parametrize("doc, where, message", [
        ({"strata": {"²": []}},
         "strata['²']", "depth key must be an integer of at least 2"),
        ({"strata": {"9" * 5000: []}},
         f"strata[{'9' * 5000!r}]", "decimal integer of 5000 digits is too long"),
        ({"pi1_y0": {"generators": "²"}},
         "pi1_y0.generators", "not a decimal integer: '²'"),
        ({"pi1_y0": {"generators": "١٢"}},
         "pi1_y0.generators", "not a decimal integer: '١٢'"),
    ], ids=["superscript-depth", "overlong-depth", "superscript-string", "arabic-indic-string"])
    def test_digits_outside_ascii_or_the_limit_exit_one(self, capsys, tmp_path,
                                                        doc, where, message):
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"components": [{"id": "A"}], **doc}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    @pytest.mark.parametrize("doc, where, message", [
        ({"strata": {"2": [{"id": "s", "on": ["A", "B"], "point_degrees": [1, True]}]}},
         "strata['2'][0].point_degrees[1]", "expected an integer, got a boolean"),
        ({"components": [{"id": "A"}, {"id": "B", "point_degrees": [2, "9" * 5000]}]},
         "components[1].point_degrees[1]", "decimal integer of 5000 digits is too long"),
        ({"strata": {"2": [{"id": "s", "on": ["A", "B"]}, ["t"]]}},
         "strata['2'][1]", "expected an object"),
        ({"strata": {"2": [{"id": 7, "on": ["A", "B"]}]}},
         "strata['2'][0].id", "expected a string, got int"),
        ({"frobenius": {"order": 2, "components": {"A": "B", "B": 7}}},
         "frobenius.components['B']", "expected a string, got int"),
        ({"frobenius": {"order": 2, "components": {"A": 1},
                        "strata": {"s": None, "t": ["x"]}}},
         "frobenius.components['A']", "expected a string, got int; "
         "frobenius.strata['s']: expected a string, got NoneType; "
         "frobenius.strata['t']: expected a string, got list"),
        ({"frobenius": {"order": 2, "strata": []}},
         "frobenius.strata", "expected an object"),
        ({"strata": {"2": {}}},
         "strata['2']", "expected a list"),
        ({"pi1_y0": {"generators": 2, "frobenius": 5}},
         "pi1_y0.frobenius", "expected a matrix (list of rows), got int"),
        ({"pi1_y0": {"generators": 2, "frobenius": [[1, 0], [1]]}},
         "pi1_y0.frobenius", "rows have different lengths"),
        ({"pi1_y0": {"generators": 2, "frobenius": [[1], [1]]}},
         "pi1_y0.frobenius", "expected 2 columns, got 1"),
        ({"pi1_y0": {"generators": 2, "relations": 5}},
         "pi1_y0.relations", "expected a list of relation vectors"),
        ({"components": [{"id": "C1"}, {"id": "B"}], "pi1_y0": {"generators": 1},
          "component_maps": {"C1": {"generators": 1, "relations": [[2]], "matrix": [[1]]}}},
         "component_maps['C1'].matrix",
         "source relation #0 is not sent into the target relation lattice"),
        ({"pi1_y0": {"generators": 1, "order": "x"}},
         "pi1_y0.order", "not a decimal integer: 'x'"),
        ({"pi1_y0": {"generators": 1, "order": 0}},
         "pi1_y0.order", "must be positive"),
    ], ids=["bool-degree", "overlong-degree", "stratum-not-object", "stratum-id-not-string",
            "frobenius-image-not-string", "frobenius-images-not-strings",
            "frobenius-permutation-not-object", "strata-depth-not-list",
            "matrix-not-list", "ragged-matrix", "matrix-columns", "relations-not-list",
            "component-map-ill-defined", "order-not-integer", "order-not-positive"])
    def test_walker_fast_paths_name_the_failing_path(self, capsys, tmp_path,
                                                       doc, where, message):
        """The schema walker takes well-formed lists and items without
        formatting their paths, and still names the exact path of the
        one that is not, matrices and relation lists of the pi1 data and
        an ill-defined component map included."""
        path = tmp_path / "walker.json"
        path.write_text(json.dumps({"components": [{"id": "A"}, {"id": "B"}], **doc}))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {where}: {message}\n"

    def test_parallel_edges_with_mismatched_explicit_facets_exit_one(self, capsys, tmp_path):
        """Triangles ABC and ABD bound the parallel edges AB and AB2, so
        the inferred tetrahedron T on them has d∘d != 0; validation
        accepts every stratum, and building the dual complex rejects T."""
        doc = {
            "components": [{"id": c} for c in "ABCD"],
            "strata": {
                "2": [{"id": e, "on": list(e)} for e in ("AB", "AC", "AD", "BC", "BD", "CD")]
                     + [{"id": "AB2", "on": ["A", "B"]}],
                "3": [
                    {"id": "ABC", "on": ["A", "B", "C"], "facets": ["BC", "AC", "AB"]},
                    {"id": "ABD", "on": ["A", "B", "D"], "facets": ["BD", "AD", "AB2"]},
                    {"id": "ACD", "on": ["A", "C", "D"]},
                    {"id": "BCD", "on": ["B", "C", "D"]},
                ],
                "4": [{"id": "T", "on": ["A", "B", "C", "D"]}],
            },
        }
        path = tmp_path / "parallel-edges.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: boundary squared is nonzero in dimension 3\n"

    def test_overlong_json_number_is_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "long-number.json"
        path.write_text('{"components": [{"id": "A"}], "name": ' + "9" * 5000 + "}")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, status, problems", [
        (["validate", "{bad}"], 1,
         ["name: expected a string, got int",
          "components: required list is missing or not a list"]),
        (["validate", "{absent}"], 1, None),
        (["example", "rulings", "--n", "3"], 2, ["--n only applies to the fermat example"]),
    ], ids=["malformed", "missing-file", "usage"])
    def test_a_failed_json_run_prints_one_error_object(self, capsys, tmp_path,
                                                       argv, status, problems):
        """After its arguments parse, a failing ``--json`` run prints one
        JSON object on stdout, with the command, the exit status and the
        problems, and the same stderr and exit status as without
        ``--json``, which prints nothing on stdout."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": 5}')
        argv = [a.format(bad=bad, absent=tmp_path / "absent.json") for a in argv]
        assert main(argv) == status
        plain = capsys.readouterr()
        assert plain.out == ""
        assert main(argv + ["--json"]) == status
        captured = capsys.readouterr()
        assert captured.err == plain.err
        report = json.loads(captured.out)  # one object, with nothing after it
        assert report == {"command": argv[0], "exit_status": status,
                          "problems": problems or [plain.err.removeprefix("error: ").rstrip()]}

    def test_success_exits_zero(self, capsys, rulings_path):
        assert main(["validate", rulings_path]) == 0
        assert capsys.readouterr().out.startswith("OK: rulings")


class TestJsonReports:
    def test_report_shape_and_digest(self, capsys, rulings_path):
        report = run_json(capsys, ["dual-complex", rulings_path])
        assert set(report) == {"command", "input_digest", "results"}
        assert report["command"] == "dual-complex"
        with open(rulings_path, "rb") as fh:
            assert report["input_digest"] == hashlib.sha256(fh.read()).hexdigest()
        assert report["results"]["counts"] == [4, 4]
        assert report["results"]["euler_characteristic"] == 0

    def test_byte_determinism(self, capsys, fermat_path):
        argv = ["kernel", fermat_path, "--ell", "5", "--sweep", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_homology_group_payload(self, capsys, rulings_path):
        report = run_json(capsys, ["homology", rulings_path, "--degree", "1"])
        group = report["results"]["group"]
        assert group == {"description": "Z", "invariant_factors": [], "free_rank": 1}
        reps = report["results"]["representatives"]
        assert len(reps) == 1
        assert set(reps[0]) <= {"P11", "P12", "P21", "P22"}

    def test_homology_mod_n(self, capsys, rulings_path):
        report = run_json(
            capsys, ["homology", rulings_path, "--degree", "0", "--coeff", "z/6"])
        assert report["results"]["coefficients"] == "Z/6"
        assert report["results"]["group"]["invariant_factors"] == [6]
        # 'z' names the default coefficients
        assert main(["homology", rulings_path, "--coeff", "z", "--json"]) == 0
        with_z = capsys.readouterr().out
        assert main(["homology", rulings_path, "--json"]) == 0
        assert capsys.readouterr().out == with_z

    def test_suspend_counts(self, capsys, rulings_path):
        report = run_json(capsys, ["suspend", rulings_path])
        assert report["results"]["suspension"]["counts"] == [6, 12, 8]
        assert report["results"]["suspension"]["euler_characteristic"] == 2

    def test_big_integers_as_strings(self, capsys, tmp_path):
        big = 2 ** 70
        doc = {
            "components": [{"id": "A"}, {"id": "B"}],
            "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
            "pi1_y0": {"generators": 1, "relations": [[str(big)]]},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        report = run_json(capsys, ["theta", str(path), "--ell", "2"])
        assert report["results"]["primes"]["2"]["theta"]["invariant_factors"] == [str(big)]


class TestKernelCommand:
    def test_fermat_exact(self, capsys, fermat_path):
        assert main(["kernel", fermat_path, "--ell", "5"]) == 0
        out = capsys.readouterr().out
        assert "verdict exact" in out
        assert "kernel = Z/5" in out

    def test_repeatable_ell(self, capsys, fermat_path):
        report = run_json(capsys, ["kernel", fermat_path, "--ell", "5", "--ell", "2"])
        assert set(report["results"]["primes"]) == {"2", "5"}
        assert report["results"]["primes"]["5"]["verdict"] == "exact"
        assert report["results"]["primes"]["5"]["predicted_kernel"]["description"] == "Z/5"
        assert report["results"]["primes"]["2"]["predicted_kernel"]["description"] == "0"

    @pytest.mark.parametrize("command", ["theta", "alpha"])
    def test_repeated_ell_runs_once(self, capsys, fermat_path, command):
        """A prime given twice is computed and printed once, in the
        order of its first mention, and the JSON report is the one of
        the distinct primes."""
        repeated = [command, fermat_path, "--ell", "5", "--ell", "2", "--ell", "5"]
        assert main(repeated) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if "ell=" in line] == [
            f"{command} at ell=5", f"{command} at ell=2"]
        assert main(repeated + ["--json"]) == 0
        once = capsys.readouterr().out
        assert main([command, fermat_path, "--ell", "5", "--ell", "2", "--json"]) == 0
        assert once == capsys.readouterr().out

    def test_sweep_trends(self, capsys, fermat_path):
        report = run_json(capsys, ["kernel", fermat_path, "--ell", "5", "--sweep", "4"])
        assert len(report["results"]["sweep"]) == 4
        assert report["results"]["trends"] == {"5": "stable"}

    @pytest.mark.parametrize("command", ["alpha", "kernel"])
    def test_alpha_outside_the_torsion_warns(self, capsys, tmp_path, command):
        """With y0 = Z the image of alpha at ell = 5 is free, not inside
        the torsion of theta, and both commands say so."""
        doc = json.loads(GOLDEN.joinpath("fermat5.json").read_text())
        doc["pi1_y0"] = {"generators": 1}
        path = tmp_path / "free-y0.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--ell", "5"]) == 0
        assert ("warning: image of alpha at ell=5 is not contained in the torsion of theta "
                "(expected only for non-geometric inputs)") in capsys.readouterr().out

    def test_bound_verdict_names_the_bound(self, capsys):
        assert main(["kernel", str(GOLDEN / "swap.json"), "--ell", "3"]) == 0
        assert "  ell=3: verdict bound, kernel bounded by Z/3\n" in capsys.readouterr().out

    def test_component_map_closed_form(self, capsys):
        """``cmaps``: y0 = (Z/4)² with Frobenius swapping e1 and e2, and
        C1's Z/4 mapped onto (1, 1).  theta at 2 is y0/(1, 1) ≅ Z/4 on e1
        (e2 = −e1), where Frobenius acts as −1; at 3 it is 0.  H_1 of two
        components crossing at P1 and P2 is Z on P1 − P2, whose labels
        give e1 − e2 = 2e1, so alpha's image is Z/2.  Frobenius swaps P1
        and P2: at f = 1 it is −1 on theta, whose coinvariants Z/2 the
        torsion does not inject into, so Z/4 is only a bound; at f = 2 it
        is the identity and the kernel is Z/4 / Z/2 = Z/2."""
        path = str(GOLDEN / "cmaps.json")
        ells = ["--ell", "2", "--ell", "3"]
        theta = run_json(capsys, ["theta", path, *ells])["results"]["primes"]
        assert (theta["2"]["theta"]["description"], theta["2"]["frobenius_trivial"]) == (
            "Z/4", False)
        assert theta["3"]["theta"]["description"] == "0"
        alpha = run_json(capsys, ["alpha", path, *ells])["results"]["primes"]
        assert alpha["2"]["image"]["description"] == "Z/2"
        kernel = run_json(capsys, ["kernel", path, *ells, "--sweep", "2"])["results"]
        f1, f2 = (report["primes"]["2"] for report in kernel["sweep"])
        assert (f1["verdict"], f1["kernel_bound"]["description"]) == ("bound", "Z/4")
        assert f1["warnings"] == ["ell=2, f=1: torsion of theta does not inject into the "
                                  "coinvariants (expected only for non-geometric inputs)"]
        assert (f2["verdict"], f2["predicted_kernel"]["description"]) == ("exact", "Z/2")
        assert kernel["trends"] == {"2": "periodic with period 2", "3": "stable"}

    def test_alpha_and_theta_commands(self, capsys, fermat_path):
        theta = run_json(capsys, ["theta", fermat_path, "--ell", "5"])
        assert theta["results"]["primes"]["5"]["theta"]["description"] == "Z/5"
        alpha = run_json(capsys, ["alpha", fermat_path, "--ell", "5"])
        assert alpha["results"]["primes"]["5"]["surjective"] is True
        assert alpha["results"]["primes"]["5"]["warnings"] == []


class TestFailuresNameTheirObjects:
    def test_collapse_names_stratum_and_components(self, capsys, tmp_path):
        doc = {
            "components": [{"id": "A"}, {"id": "B"}],
            "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
            "frobenius": {
                "order": 2,
                "components": {"A": "B", "B": "A"},
                "strata": {"s": "s"},
            },
        }
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(doc))
        assert main(["extend", str(path), "--f", "1"]) == 1
        err = capsys.readouterr().err
        assert "not SNC after extension" in err
        assert "stratum 's' keeps components 'A' and 'B'" in err
        # over the quadratic extension the orbits separate again
        assert main(["extend", str(path), "--f", "2"]) == 0
        capsys.readouterr()
        # degree 3 shares its orbits with degree 1, and the error names
        # the degree asked for
        assert main(["kernel", str(path), "--ell", "3", "--f", "3"]) == 1
        assert "over the degree-3 extension" in capsys.readouterr().err

    def test_cocycle_violation_names_face(self, capsys, tmp_path):
        doc = {
            "components": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
            "strata": {
                "2": [
                    {"id": "AB", "on": ["A", "B"]},
                    {"id": "AC", "on": ["A", "C"]},
                    {"id": "BC", "on": ["B", "C"]},
                ],
                "3": [{"id": "T", "on": ["A", "B", "C"]}],
            },
            "pi1_y0": {"generators": 1, "relations": [[4]]},
            "edge_labels": {"AB": [1]},
        }
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "labels do not descend to H₁" in err
        assert "2-simplex 'T'" in err

    def test_equivariance_violation_names_edge(self, capsys, tmp_path):
        doc = {
            "components": [{"id": "A"}, {"id": "B"}],
            "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
            "frobenius": {
                "order": 2,
                "components": {"A": "B", "B": "A"},
                "strata": {"s": "s"},
            },
            "pi1_y0": {
                "generators": 1, "relations": [[5]],
                "frobenius": [[2]], "order": 4,
            },
            "edge_labels": {"s": [1]},
        }
        path = tmp_path / "unequivariant.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "label on edge 's' is not Frobenius-equivariant" in capsys.readouterr().err


class TestExampleAndPipelines:
    def test_example_emits_parseable_document(self, capsys):
        assert main(["example", "rulings"]) == 0
        out = capsys.readouterr().out
        assert out == serialize_bundle(rulings_bundle())

    def test_fermat_needs_n(self, capsys):
        assert main(["example", "fermat"]) == 2
        assert "requires --n" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--n", "3"], ["--cover"]], ids=["n", "cover"])
    def test_fermat_flags_are_usage_errors_on_rulings(self, capsys, flags):
        """``--n`` and ``--cover`` apply only to the fermat example; on
        rulings either is a usage error that names the flag."""
        assert main(["example", "rulings", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flags[0]} only applies to the fermat example" in captured.err

    def test_cover_pipes_into_extend_and_norm(self, capsys, tmp_path):
        assert main(["example", "fermat", "--n", "4", "--cover"]) == 0
        path = tmp_path / "cover.json"
        path.write_text(capsys.readouterr().out)

        report = run_json(capsys, ["extend", str(path), "--f", "2"])
        assert report["results"]["complex"]["counts"] == [4, 4]
        assert len(report["results"]["component_orbits"]) == 4

        report = run_json(capsys, ["norm", str(path), "--f", "4", "--degree", "1"])
        assert report["results"]["matrix"] in ([[4]], [[-4]])
        assert report["results"]["cokernel"]["description"] == "Z/4"

    def test_oracle_check(self, capsys):
        report = run_json(capsys, ["oracle-check", "--count", "5", "--seed", "3"])
        assert report["results"]["mismatches"] == []

    def test_oracle_check_at_the_vertex_cap(self, capsys):
        """At the largest accepted --max-vertices every random complex
        stays within the oracle's size bound."""
        report = run_json(capsys, ["oracle-check", "--count", "2", "--seed", "0",
                                   "--max-vertices", "250"])
        assert report["results"]["mismatches"] == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "snckit.cli", "example", "rulings"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "rulings"


class _FailingStdout:
    """A stdout whose ``write`` (or, with ``on_flush``, whose ``flush``)
    raises ``error``, and which has no file descriptor."""

    def __init__(self, error: OSError, on_flush: bool = False):
        self.error = error
        self.on_flush = on_flush

    def write(self, text: str) -> int:
        if not self.on_flush:
            raise self.error
        return len(text)

    def flush(self) -> None:
        if self.on_flush:
            raise self.error


@pytest.mark.parametrize("on_flush", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [["--json"], []], ids=["json", "text"])
def test_failed_report_write_exits_one(capsys, monkeypatch, rulings_path, argv, on_flush):
    """A closed pipe ends the run with status 1 and no message; any
    other write error with status 1 and the error on stderr."""
    full = OSError(errno.ENOSPC, "No space left on device")
    for error, message in ((BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
                           (full, "error: [Errno 28] No space left on device\n")):
        monkeypatch.setattr(sys, "stdout", _FailingStdout(error, on_flush))
        assert main(["dual-complex", rulings_path] + argv) == 1
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv", [["homology", "--degree", "0", "--json"], ["validate"]],
                         ids=["report", "summary"])
def test_console_write_failures_leave_no_traceback(tmp_path, argv):
    """``snckit ... | head`` and ``snckit ... > /dev/full`` exit 1 with at
    most one line on stderr, and the interpreter reports nothing at
    exit: a report larger than the stream buffer fails in ``write``, a
    summary line in the flush."""
    path = tmp_path / "cover.json"
    with open(path, "w") as fh:
        subprocess.run([sys.executable, "-m", "snckit.cli", "example", "fermat",
                        "--n", "200", "--cover"], stdout=fh, check=True)
    command = [sys.executable, "-m", "snckit.cli", argv[0], str(path)] + argv[1:]

    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")

    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (
            1, "error: [Errno 28] No space left on device\n")


def _rebind(monkeypatch, original, wrapper):
    """Replace ``original`` by ``wrapper`` at every snckit binding site."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "snckit" or name.startswith("snckit."))]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)


def _counting(counts, key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_complexes(monkeypatch, counts):
    """Count every complex built, through the checking constructor or
    the trusted ``DeltaComplex._of``, under ``counts["complex"]``, and
    the simplices whose d∘d sum is taken, by the checking constructor or
    by configuration validation, under ``counts["dd"]``."""
    from snckit import complexes, snc

    cls = complexes.DeltaComplex
    monkeypatch.setattr(cls, "__init__", _counting(counts, "complex", cls.__init__))
    monkeypatch.setattr(cls, "_of", classmethod(_counting(counts, "complex", cls._of.__func__)))
    check = complexes._boundary_squared_problems

    def checking(facets, ids):
        ids = list(ids)
        counts["dd"] += len(ids)
        return check(facets, ids)

    for module in (complexes, snc):
        monkeypatch.setattr(module, "_boundary_squared_problems", checking)


def test_sweep_runs_each_stage_once(capsys, monkeypatch):
    """One sweep builds the geometric complex once plus one quotient per
    degree class gcd(f, P) that is not split, evaluates alpha and its
    surjectivity once per prime, and computes H₁ once per complex built.
    fermat-5 has P = 1, so its one class is split: Frobenius fixes every
    id and the class reuses the geometric complex and its H₁.  swap has
    P = 2: its class 1 swaps two components and builds a quotient, its
    class 2 is split."""
    from snckit import groups, homology, matrices, reciprocity

    for doc, argv, built in (
            ("fermat5.json", ["--sweep", "10", "--ell", "2", "--ell", "3", "--ell", "5"], 1),
            ("swap.json", ["--sweep", "2", "--ell", "3"], 2)):
        counts = {"complex": 0, "dd": 0, "alpha": 0, "surjective": 0, "snf": 0, "h1": 0}
        with monkeypatch.context() as patch:
            _count_complexes(patch, counts)
            surjective = groups.ModuleMap.is_surjective
            patch.setattr(groups.ModuleMap, "is_surjective",
                          _counting(counts, "surjective", surjective))
            for key, original in (("alpha", reciprocity.alpha_map),
                                  ("snf", matrices._smith_form),
                                  ("h1", homology.homology_group)):
                _rebind(patch, original, _counting(counts, key, original))
            assert main(["kernel", str(GOLDEN / doc), *argv, "--json"]) == 0
        capsys.readouterr()
        assert counts["complex"] == counts["h1"] == built, doc
        assert counts["alpha"] == counts["surjective"] == argv.count("--ell"), doc
        assert counts["snf"] <= 27, doc


def test_kernel_takes_alpha_cycles_only_when_needed(capsys, monkeypatch, tmp_path):
    """Alpha's cycles are read off the bundle when a split class or a
    prime first needs them: ``kernel`` at a degree that is not
    admissible raises before any H₁, and a prediction at a degree that
    is not split and no prime computes only the quotient's H₁."""
    from snckit import homology, reciprocity
    from snckit.config_io import parse_config
    from snckit.reciprocity import ConfigBundle

    doc = {
        "components": [{"id": "A"}, {"id": "B"}],
        "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
        "frobenius": {"order": 2, "components": {"A": "B", "B": "A"},
                      "strata": {"s": "s"}},
    }
    path = tmp_path / "collapse.json"
    path.write_text(json.dumps(doc))
    counts = {"cycles": 0, "h1": 0}
    with monkeypatch.context() as patch:
        # every read of the cached property, the first one included
        cycles = ConfigBundle._cycles
        patch.setattr(ConfigBundle, "_cycles",
                      property(_counting(counts, "cycles", cycles.__get__)))
        _rebind(patch, homology.homology_group,
                _counting(counts, "h1", homology.homology_group))
        assert main(["kernel", str(path), "--ell", "3", "--f", "3"]) == 1
        assert "not SNC after extension" in capsys.readouterr().err
        assert counts == {"cycles": 0, "h1": 0}

        bundle = parse_config(GOLDEN.joinpath("swap.json").read_text())
        report = reciprocity.predict_kernel(bundle, (), f=1)
        assert report.primes == {}
        assert counts == {"cycles": 0, "h1": 1}


def test_sweep_builds_each_group_payload_once(capsys, monkeypatch):
    """A sweep report builds the payload of each group object at most
    once, however many degrees and prime blocks show it."""
    from snckit import cli

    for doc, argv in (("fermat5.json", ["--sweep", "12", "--ell", "2", "--ell", "3", "--ell", "5"]),
                      ("swap.json", ["--sweep", "4", "--ell", "3"]),
                      ("coned.json", ["--sweep", "6", "--ell", "3"])):
        seen = []
        original = cli._group_payload

        def recording(g):
            seen.append(g)  # kept alive, so no id is reused
            return original(g)

        with monkeypatch.context() as patch:
            _rebind(patch, original, recording)
            report = run_json(capsys, ["kernel", str(GOLDEN / doc), *argv])
        assert len(report["results"]["sweep"]) == int(argv[1]), doc
        assert seen and len({id(g) for g in seen}) == len(seen), doc


@pytest.mark.parametrize("doc, sweep, ells, tests", [
    # P = 2 and theta of order 2: one test per f mod 2
    ("swap.json", 4, (3,), 2),
    # P = 3 but theta of order 1: Frobenius is the identity on theta, so
    # no test runs, where a test per prime made two
    ("coned.json", 6, (2, 3), 0),
    # theta of order 2 but with no torsion at 2 and 5: Frobenius^f is
    # trivial on the zero group, which injects into anything
    ("swap.json", 4, (2, 5), 0),
])
def test_frobenius_tests_run_once_per_theta_order_class(capsys, monkeypatch, doc, sweep,
                                                         ells, tests):
    """The Frobenius tests at ell read only the group Frobenius^f
    generates, so a sweep runs ``coinvariants`` once per
    (ell, gcd(f, theta's order)), and never when theta has order 1 or
    its torsion is trivial."""
    from snckit import groups

    counts = {"coinvariants": 0}
    argv = ["kernel", str(GOLDEN / doc), "--sweep", str(sweep)]
    for ell in ells:
        argv += ["--ell", str(ell)]
    with monkeypatch.context() as patch:
        _rebind(patch, groups.coinvariants, _counting(counts, "coinvariants", groups.coinvariants))
        run_json(capsys, argv)
    assert counts["coinvariants"] == tests


def test_a_warning_that_names_f_is_not_shared(capsys):
    """swap's torsion of theta does not inject into the coinvariants at
    odd f, and the warning names f, so those blocks stay one per degree;
    the blocks of even f are one shared object."""
    from snckit.cli import _kernel_payloads
    from snckit.config_io import parse_config
    from snckit.reciprocity import sweep_extensions

    bundle = parse_config(GOLDEN.joinpath("swap.json").read_text())
    result = sweep_extensions(bundle, (3,), 4)
    blocks = [p["primes"]["3"] for p in _kernel_payloads(result.reports)]
    for f, block in enumerate(blocks, 1):
        assert block["warnings"] == ([
            f"ell=3, f={f}: torsion of theta does not inject into the coinvariants "
            f"(expected only for non-geometric inputs)"] if f % 2 else []), f
    assert blocks[0] is not blocks[2]
    assert blocks[1] is blocks[3]
    # the theta payload is one object in every block
    assert len({id(block["theta"]) for block in blocks}) == 1


@pytest.mark.parametrize("doc, ells, f_max", [("fermat5.json", (2, 3, 5), 10),
                                               ("swap.json", (3,), 4)])
def test_a_degree_class_shares_its_flags_payload(doc, ells, f_max):
    """Every degree of a class gcd(f, P) has the same rational-point
    flags, so within a class every entry's flags payload is one object,
    which ``json_text`` writes once.  fermat-5 has P = 1, one class;
    swap has P = 2, two."""
    from math import gcd

    from snckit.cli import _kernel_payloads
    from snckit.config_io import parse_config
    from snckit.reciprocity import _period, sweep_extensions

    bundle = parse_config(GOLDEN.joinpath(doc).read_text())
    result = sweep_extensions(bundle, ells, f_max)
    period = _period(bundle.config, bundle.pi1)
    payloads = _kernel_payloads(result.reports)
    classes: dict[int, list] = {}
    for report, payload in zip(result.reports, payloads):
        flags = payload["rational_point_flags"]
        assert flags == dict(sorted(report.rational_point_flags.items()))
        classes.setdefault(gcd(report.f, period), []).append(flags)
    assert len(classes) == period
    for flags in classes.values():
        assert all(entry is flags[0] for entry in flags)


@pytest.mark.parametrize("exponent", [7, 1000])
@pytest.mark.parametrize("where", ["frobenius", "pi1_y0"])
def test_huge_frobenius_orders_stay_cheap(capsys, monkeypatch, tmp_path, where, exponent):
    """A declared Frobenius order of 10^7 or 10^1000, on the
    configuration or on y0, costs nothing proportional to the order:
    ``validate``, ``theta`` and a kernel sweep exit 0, and each power
    ``groups._power_on`` takes makes at most 2 · order.bit_length()
    matrix products (square-and-multiply)."""
    from snckit import groups
    from snckit.matrices import IntMatrix

    doc = json.loads(GOLDEN.joinpath("swap.json").read_text())
    order = 10 ** exponent  # even, as both swap's permutation and y0 need
    doc[where]["order"] = order
    path = tmp_path / "huge-order.json"
    path.write_text(json.dumps(doc))

    products = {"count": 0}
    per_call = []
    power_on = groups._power_on

    def counting_power_on(group, m, k):
        before = products["count"]
        result = power_on(group, m, k)
        per_call.append(products["count"] - before)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(IntMatrix, "__matmul__",
                      _counting(products, "count", IntMatrix.__matmul__))
        patch.setattr(groups, "_power_on", counting_power_on)
        for argv in (["validate"], ["theta", "--ell", "3"],
                     ["kernel", "--ell", "3", "--sweep", "3"]):
            assert main([argv[0], str(path), *argv[1:], "--json"]) == 0, argv
            capsys.readouterr()
    assert per_call and max(per_call) <= 2 * order.bit_length()


def test_validate_builds_no_complex(capsys, monkeypatch, tmp_path):
    """``validate`` on the 4-fold suspension of the 6-cycle builds no
    dual complex, since the document has no edge labels to check, and
    takes no d∘d sum: every facet there is inferred, so validation
    already implies d∘d = 0.  ``dual-complex`` and ``homology`` build it
    once."""
    path = tmp_path / "suspension-4.json"
    path.write_text(json.dumps(suspension_document(4)))
    for command, built in (("validate", 0), ("dual-complex", 1), ("homology", 1)):
        counts = {"complex": 0, "dd": 0}
        with monkeypatch.context() as patch:
            _count_complexes(patch, counts)
            assert main([command, str(path)]) == 0
        capsys.readouterr()
        assert counts == {"complex": built, "dd": 0}


def test_main_builds_its_parser_once(capsys, monkeypatch, rulings_path):
    """``main`` reuses one parser for the life of the process, while
    ``build_parser`` still returns a fresh one."""
    from snckit import cli

    counts = {"parser": 0}
    monkeypatch.setattr(cli, "build_parser", _counting(counts, "parser", cli.build_parser))
    cli._parser.cache_clear()
    assert main(["validate", rulings_path]) == 0
    assert main(["dual-complex", rulings_path, "--json"]) == 0
    assert main(["no-such-command"]) == 2
    assert main(["homology", rulings_path, "--coeff", "z/6"]) == 0
    capsys.readouterr()
    assert counts["parser"] == 1
    assert cli.build_parser() is not cli.build_parser()


def test_reused_parser_carries_nothing_between_calls(capsys, fermat_path):
    """Each call reports only what its own argv asked for, and keeps its
    own exit status."""
    for ell in ("2", "3"):
        report = run_json(capsys, ["kernel", fermat_path, "--ell", ell])
        assert list(report["results"]["primes"]) == [ell]
    bad = ["kernel", fermat_path, "--ell", "4"]
    assert [main(bad), main(["kernel", fermat_path, "--ell", "5"]), main(bad)] == [2, 0, 2]
    capsys.readouterr()


def test_alpha_checks_labels_and_computes_h1_once(capsys, monkeypatch, tmp_path):
    """``alpha`` does its prime-independent work once, however many
    primes it is asked for: one label check, on parsing, and one H₁ of
    the geometric complex."""
    from snckit import homology, reciprocity

    assert main(["example", "fermat", "--n", "5"]) == 0
    path = tmp_path / "fermat5.json"
    path.write_text(capsys.readouterr().out)
    counts = {"labels": 0, "h1": 0}
    for key, original in (("labels", reciprocity.validate_labels),
                          ("h1", homology.homology_group)):
        _rebind(monkeypatch, original, _counting(counts, key, original))

    argv = ["alpha", str(path), "--ell", "2", "--ell", "3", "--ell", "5"]
    assert main(argv + ["--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)["results"]["primes"]) == {"2", "3", "5"}
    assert counts == {"labels": 1, "h1": 1}


@pytest.mark.parametrize("flags", [["--f", "2"], ["--sweep", "4"]])
def test_kernel_checks_pi1_and_labels_once(capsys, monkeypatch, tmp_path, flags):
    """``kernel`` trusts the bundle that ``parse_config`` checked."""
    from snckit import reciprocity

    assert main(["example", "fermat", "--n", "5"]) == 0
    path = tmp_path / "fermat5.json"
    path.write_text(capsys.readouterr().out)
    counts = {"pi1": 0, "labels": 0}
    for key, original in (("pi1", reciprocity.validate_pi1),
                          ("labels", reciprocity.validate_labels)):
        _rebind(monkeypatch, original, _counting(counts, key, original))
    assert main(["kernel", str(path), "--ell", "5", *flags, "--json"]) == 0
    capsys.readouterr()
    assert counts == {"pi1": 1, "labels": 1}


@pytest.mark.parametrize("doc", ["fermat5.json", "cmaps.json"])
def test_the_cli_checks_once_through_the_public_api(capsys, monkeypatch, doc):
    """``kernel --sweep`` and ``alpha`` call the public reciprocity
    entry points on the bundle ``parse_config`` returned: each run
    checks the pi1 data and the labels once, on parsing, and evaluates
    alpha once per distinct prime.  The entry points, called again on a
    parsed bundle, read its cached check and run neither check again."""
    from snckit import reciprocity
    from snckit.config_io import parse_config

    counts = {"pi1": 0, "labels": 0, "alpha": 0}
    for key, original in (("pi1", reciprocity.validate_pi1),
                          ("labels", reciprocity.validate_labels),
                          ("alpha", reciprocity.alpha_map)):
        _rebind(monkeypatch, original, _counting(counts, key, original))
    path = str(GOLDEN / doc)
    ells = ["--ell", "2", "--ell", "3", "--ell", "2"]
    for argv in (["kernel", path, *ells, "--sweep", "3"], ["alpha", path, *ells]):
        counts.update(dict.fromkeys(counts, 0))
        run_json(capsys, argv)
        assert counts == {"pi1": 1, "labels": 1, "alpha": 2}, argv

    bundle = parse_config((GOLDEN / doc).read_text())
    counts.update(dict.fromkeys(counts, 0))
    reciprocity.alpha_map(bundle, 5)
    reciprocity.predict_kernel(bundle, (2, 3))
    reciprocity.sweep_extensions(bundle, (2, 3), 3)
    assert counts == {"pi1": 0, "labels": 0, "alpha": 5}


def test_a_hand_built_bundle_is_checked_once(monkeypatch):
    """A bundle that did not come from ``parse_config`` is checked by
    the first entry point called on it, and the check is kept: a label
    that does not descend makes each of the three raise LabelError,
    with one label check between them."""
    from snckit import reciprocity
    from snckit.errors import LabelError
    from snckit.groups import FgAbelianGroup, GaloisModule
    from snckit.matrices import IntMatrix
    from snckit.reciprocity import ConfigBundle, Pi1Input

    counts = {"pi1": 0, "labels": 0}
    for key, original in (("pi1", reciprocity.validate_pi1),
                          ("labels", reciprocity.validate_labels)):
        _rebind(monkeypatch, original, _counting(counts, key, original))
    cfg = triangle_config(with_face=True)
    y0 = GaloisModule(FgAbelianGroup.cyclic(4), IntMatrix.identity(1), 1)
    bundle = ConfigBundle(cfg.name, cfg, Pi1Input(y0), {"AB": (1,)})
    for call in (lambda: reciprocity.alpha_map(bundle, 2),
                 lambda: reciprocity.predict_kernel(bundle, (2,)),
                 lambda: reciprocity.sweep_extensions(bundle, (2,), 2)):
        with pytest.raises(LabelError, match="do not descend"):
            call()
    assert counts == {"pi1": 1, "labels": 1}


def _cover_path(capsys, tmp_path, n: int) -> str:
    """The ``example fermat --n N --cover`` document, written to a file."""
    assert main(["example", "fermat", "--n", str(n), "--cover"]) == 0
    path = tmp_path / f"cover-{n}.json"
    path.write_text(capsys.readouterr().out)
    return str(path)


def test_norm_at_base_degree_builds_one_extension(capsys, monkeypatch, tmp_path):
    """At f = 1 the source and target levels of the norm coincide."""
    from snckit import galois

    path = _cover_path(capsys, tmp_path, 4)
    counts = {"extension": 0}
    original = galois.extension_complex
    _rebind(monkeypatch, original, _counting(counts, "extension", original))
    assert main(["norm", path, "--f", "1", "--json"]) == 0
    capsys.readouterr()
    assert counts["extension"] == 1


def _dense_relation_document(g: int, seed: int) -> dict:
    """Two components crossing twice; y0 is Z^g modulo a seeded dense
    nonsingular g x g relation matrix with entries in [-9, 9], and edge
    P1 carries a seeded label."""
    from snckit.matrices import IntMatrix

    rng = random.Random(seed)
    while True:
        rel = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(g)]
        if det(IntMatrix.from_rows(rel)) != 0:
            break
    return {
        "name": f"dense-{g}",
        "components": [{"id": "C1"}, {"id": "C2"}],
        "strata": {"2": [{"id": "P1", "on": ["C1", "C2"]},
                         {"id": "P2", "on": ["C1", "C2"]}]},
        "pi1_y0": {"generators": g, "relations": rel},
        "edge_labels": {"P1": [rng.randint(-9, 9) for _ in range(g)]},
    }


# (command and flags, full SNF calls, SNF extension calls, largest
# matrix reduced (rows, cols), peak entry bit length over u, d, v, u_inv
# and v_inv of every SNF).  Every form comes from ``_smith_form``; a full
# SNF is a call that eliminates, outside ``_continue_snf``.  An
# extension of the SNF of a by columns b takes the form of [d | c], c
# the Smith coordinates of b, so its shape is that of [a | b].  Homology
# eliminates the form of d_a and the relation matrix of H_a on the
# kernel basis, whose rows it reads off that form, and no matrix that
# is in Smith form already: a relation matrix with no nonzero entry, and
# its own diagonal presentation whenever the orders make a
# divisibility chain.  On the 50-cover H_1 has no relations (the
# complex is a graph) and its presentation is Z over Z and Z/6 over Z/6,
# so both rings eliminate d_1 alone, and so does every H_1 of a kernel
# run.  Z/6 homology in degree 4 of the 3-fold suspension of the 6-cycle
# eliminates d_4 (120 x 48) alone, and no form of d_3 (116 x 120): H_4
# has no relations, and every invariant factor of d_4 is 1, so H_3 has
# no torsion to meet 6.  A change may lower these counts and pin the
# lower values; none may rise.
SNF_WORK = {
    "cover-50": (["homology"], 1, 0, (100, 100), 1),
    "cover-50-z6": (["homology", "--coeff", "z/6"], 1, 0, (100, 100), 1),
    "dense-12": (["kernel", "--ell", "3"], 3, 2, (12, 14), 306),
    "dense-24": (["kernel", "--ell", "2", "--ell", "3", "--ell", "5"], 5, 6, (24, 26), 32948),
    "suspension-3-z6": (["homology", "--degree", "4", "--coeff", "z/6"], 1, 0, (120, 48), 1),
}
DENSE_SEEDS = {"dense-12": (12, 12), "dense-24": (24, 6)}


def _measure_snf_work(monkeypatch):
    """Wrap ``_smith_form``, which makes every Smith form, and
    ``_continue_snf``, which continues one through it, at every binding
    site; returns the dict the wrappers fill in.  A ``_smith_form`` call
    is a full SNF when it logs an operation (rows in Smith form already
    are their own form) and ``_continue_snf`` did not make it, so every
    full SNF and every extension is counted once."""
    from snckit import matrices

    seen = {"calls": 0, "extensions": 0, "shape": (0, 0), "bits": 0, "rows": []}
    extending = False

    def record(key, shape, s):
        seen[key] += 1
        if shape[0] * shape[1] > seen["shape"][0] * seen["shape"][1]:
            seen["shape"] = shape
        for m in (s.u, s.d, s.v, s.u_inv, s.v_inv):
            for x in m._entries:
                seen["bits"] = max(seen["bits"], x.bit_length())
        return s

    smith_form, extend = matrices._smith_form, matrices._continue_snf

    def measuring(rows, cols):
        shape = (len(rows), cols)
        s = smith_form(rows, cols)
        if extending or not (s.row_log or s.col_log):
            return s
        seen["rows"].append(shape[0])
        return record("calls", shape, s)

    def measuring_extension(s, block, width):
        nonlocal extending
        extending = True
        try:
            e = extend(s, block, width)
        finally:
            extending = False
        return record("extensions", e.shape, e)

    _rebind(monkeypatch, smith_form, measuring)
    _rebind(monkeypatch, extend, measuring_extension)
    return seen


def _dense_path(tmp_path, doc: str) -> str:
    g, seed = DENSE_SEEDS[doc]
    path = tmp_path / f"{doc}.json"
    path.write_text(json.dumps(_dense_relation_document(g, seed=seed)))
    return str(path)


@pytest.mark.parametrize("doc", sorted(SNF_WORK))
def test_snf_work_is_pinned(capsys, monkeypatch, tmp_path, doc):
    """Deterministic SNF work of one command: calls, shapes, entry size.
    theta, its localizations, alpha's image and cokernel and the
    coinvariants all add relations to y0, so a kernel run makes one full
    SNF of a g-row matrix, y0's own, and continues it for the rest."""
    argv, calls, extensions, shape, bits = SNF_WORK[doc]
    if doc.startswith("cover-50"):
        path = _cover_path(capsys, tmp_path, 50)
    elif doc.startswith("suspension-3"):
        (tmp_path / "suspension-3.json").write_text(json.dumps(suspension_document(3)))
        path = str(tmp_path / "suspension-3.json")
    else:
        path = _dense_path(tmp_path, doc)
    seen = _measure_snf_work(monkeypatch)
    assert main([argv[0], path, *argv[1:], "--json"]) == 0
    capsys.readouterr()
    assert (seen["calls"], seen["extensions"], seen["shape"], seen["bits"]) == (
        calls, extensions, shape, bits)
    if doc in DENSE_SEEDS:
        g = DENSE_SEEDS[doc][0]
        assert seen["rows"].count(g) == 1 and max(seen["rows"]) == g
    if doc == "suspension-3-z6":
        assert 116 not in seen["rows"]


def test_derived_groups_pay_only_for_what_they_add(capsys, monkeypatch, tmp_path):
    """On the dense-24 kernel run, theta, its localizations, alpha's
    image and cokernel and the coinvariants continue y0's form over the
    rows past its unit invariant factors only (33 rows reach
    ``_eliminate``, y0's 24 among them), read their Smith rows and
    columns off their parent's, so ``_smith_vector`` walks no more steps
    than y0's own two walks of its row log, and build no ``[a | b]``
    relation matrix, which nothing reads."""
    import inspect

    from snckit import matrices
    from snckit.matrices import IntMatrix

    counts = {"rows": 0, "steps": 0, "hstack": 0}
    eliminate, vector = matrices._eliminate, matrices._smith_vector
    signature = inspect.signature(vector)

    def counting_eliminate(d, n, row_log, col_log):
        counts["rows"] += len(d)
        return eliminate(d, n, row_log, col_log)

    def counting_vector(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        counts["steps"] += len(bound["s"].row_log) - bound.get("start", 0)
        return vector(*args, **kwargs)

    monkeypatch.setattr(matrices, "_eliminate", counting_eliminate)
    _rebind(monkeypatch, vector, counting_vector)
    monkeypatch.setattr(IntMatrix, "hstack", _counting(counts, "hstack", IntMatrix.hstack))
    argv = ["kernel", _dense_path(tmp_path, "dense-24"), "--ell", "2", "--ell", "3",
            "--ell", "5", "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts["rows"] <= 33 and counts["steps"] <= 2658 and counts["hstack"] == 0, counts


@pytest.mark.parametrize("doc,argv", [
    ("dense-24", ["--ell", "2", "--ell", "3", "--ell", "5"]),
    ("coned.json", ["--sweep", "3", "--ell", "3"]),
    ("cmaps.json", ["--ell", "2", "--ell", "3", "--sweep", "2"]),
], ids=["dense-24", "coned-sweep3", "cmaps-sweep2"])
def test_continuations_take_only_the_non_unit_block(capsys, monkeypatch, tmp_path, doc, argv):
    """Every ``_continue_snf`` call of a kernel run passes the rows of
    its parent's non-unit coordinates alone: m − r rows for a parent of
    m rows whose first r invariant factors are 1."""
    from snckit import matrices

    passed = []
    extend = matrices._continue_snf

    def recording(s, block, width):
        passed.append((len(block), s.shape[0] - s.diagonal.count(1)))
        return extend(s, block, width)

    _rebind(monkeypatch, extend, recording)
    path = _dense_path(tmp_path, doc) if doc in DENSE_SEEDS else str(GOLDEN / doc)
    assert main(["kernel", path, *argv, "--json"]) == 0
    capsys.readouterr()
    assert passed and all(rows == expected for rows, expected in passed), passed


def test_dense_kernel_replays_no_transform(capsys, monkeypatch, tmp_path):
    """The groups read single Smith coordinates, so a dense-24 kernel
    run replays no ``u``, ``u_inv``, ``v`` or ``v_inv`` of any form."""
    from snckit import matrices

    counts = {"replayed": 0}
    cls = matrices.SnfDecomposition
    monkeypatch.setattr(cls, "_replayed", _counting(counts, "replayed", cls._replayed))
    argv = ["kernel", _dense_path(tmp_path, "dense-24"), "--ell", "2", "--ell", "3",
            "--ell", "5", "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"replayed": 0}


@pytest.mark.parametrize("argv", [
    ["homology", "cover-100"],
    ["homology", "cover-100", "--coeff", "z/6"],
    ["kernel", "dense-24", "--ell", "2", "--ell", "3", "--ell", "5"],
], ids=["cover-100", "cover-100-z6", "dense-24"])
def test_no_command_reads_a_dense_smith_form(capsys, monkeypatch, tmp_path, argv):
    """A Smith form stores its diagonal, shape and logs, and ``d`` is
    built only when read: homology of the 100-cover, over Z and over
    Z/6, and the dense-24 kernel read no form's ``d``."""
    from snckit import matrices

    command, doc, *rest = argv
    path = _cover_path(capsys, tmp_path, 100) if doc == "cover-100" else _dense_path(tmp_path, doc)
    counts = {"d": 0}
    cls = matrices.SnfDecomposition
    monkeypatch.setattr(cls, "d", property(_counting(counts, "d", cls.__dict__["d"].func)))
    assert main([command, path, *rest, "--json"]) == 0
    capsys.readouterr()
    assert counts == {"d": 0}


def test_order_one_runs_build_no_identity_for_frobenius_minus_one(capsys, monkeypatch,
                                                                  tmp_path):
    """frobenius − 1 is made by decrementing the diagonal, and an order-1
    module skips its tests: dense-12 ``theta`` and ``kernel`` runs build
    no identity matrix in the module's order check, ``acts_trivially``
    or ``coinvariants``."""
    from snckit import groups
    from snckit.matrices import IntMatrix

    sites = {groups.GaloisModule.__init__.__code__,
             groups.GaloisModule.acts_trivially.__code__, groups.coinvariants.__code__}
    built = []
    identity = IntMatrix.identity.__func__

    def recording(cls, n):
        if sys._getframe(1).f_code in sites:
            built.append(n)
        return identity(cls, n)

    monkeypatch.setattr(IntMatrix, "identity", classmethod(recording))
    path = _dense_path(tmp_path, "dense-12")
    for command in ("theta", "kernel"):
        assert main([command, path, "--ell", "2", "--ell", "3", "--ell", "5", "--json"]) == 0
    capsys.readouterr()
    assert built == []


def test_identity_factors_reach_no_dot_product(capsys, monkeypatch, tmp_path):
    """y0's Frobenius is the identity in the dense-12 document, so its
    well-definedness check, the label equivariance test and theta's
    torsion inclusion multiply by an identity: ``theta`` and ``kernel``
    runs make such products, and none of them reaches the dot-product
    loop."""
    from snckit import matrices
    from snckit.matrices import IntMatrix

    product, dot = IntMatrix.__matmul__, matrices.mul
    state = {"identity_factor": False, "identity_products": 0, "dots": 0}

    def is_identity(m):
        return m.to_rows() == [[int(i == j) for j in range(m.cols)] for i in range(m.rows)]

    def recording(a, b):
        outer = state["identity_factor"]
        state["identity_factor"] = is_identity(a) or is_identity(b)
        state["identity_products"] += state["identity_factor"]
        try:
            return product(a, b)
        finally:
            state["identity_factor"] = outer

    def counting(x, y):
        state["dots"] += state["identity_factor"]
        return dot(x, y)

    monkeypatch.setattr(IntMatrix, "__matmul__", recording)
    monkeypatch.setattr(matrices, "mul", counting)
    path = _dense_path(tmp_path, "dense-12")
    for command in ("theta", "kernel"):
        assert main([command, path, "--ell", "2", "--ell", "3", "--ell", "5", "--json"]) == 0
    capsys.readouterr()
    assert state["identity_products"] >= 3
    assert state["dots"] == 0


def test_theta_shares_one_frobenius_payload(tmp_path):
    """Every prime's theta acts by y0's Frobenius matrix, so every
    prime's block holds one ``SharedList`` of its rows, which
    ``json_text`` writes once."""
    from snckit.cli import _cmd_theta, build_parser
    from snckit.config_io import SharedList

    args = build_parser().parse_args(["theta", _dense_path(tmp_path, "dense-12"), "--ell", "2",
                                      "--ell", "3", "--ell", "5"])
    blocks = _cmd_theta(args)[1]["primes"].values()
    payloads = {id(block["frobenius_matrix"]) for block in blocks}
    assert len(payloads) == 1
    payload = next(iter(blocks))["frobenius_matrix"]
    assert type(payload) is SharedList and payload == [
        [int(i == j) for j in range(12)] for i in range(12)]


def test_kernel_checks_only_input_modules(capsys, monkeypatch, tmp_path):
    """Modules and maps are checked where the document enters, once each;
    theta, its localization and alpha are derived from checked objects
    and are not checked again."""
    from snckit import groups

    path = tmp_path / "dense-12.json"
    path.write_text(json.dumps(_dense_relation_document(12, seed=12)))
    counts = {"module": 0, "map": 0}
    for key, cls in (("module", groups.GaloisModule), ("map", groups.ModuleMap)):
        monkeypatch.setattr(cls, "__init__", _counting(counts, key, cls.__init__))
    argv = ["kernel", str(path), "--ell", "2", "--ell", "3", "--ell", "5", "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    assert counts == {"module": 1, "map": 1}
