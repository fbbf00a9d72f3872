"""End-to-end command-line behaviour: exit codes, report shape,
determinism, and the failure modes that must name their objects."""

import hashlib
import json
import random
import subprocess
import sys

import pytest

from snckit.cli import main
from snckit.config_io import serialize_bundle
from snckit.fixtures import fermat_bundle, rulings_bundle


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
        assert main(["homology", rulings_path, "--degree", "-1"]) == 2
        assert main(["example", "fermat", "--n", "1"]) == 2
        assert main(["oracle-check", "--max-vertices", "0"]) == 2
        capsys.readouterr()

    def test_validation_errors_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"components": []}')
        assert main(["validate", str(bad)]) == 1
        assert "at least one component required" in capsys.readouterr().err

    def test_non_utf8_input_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"name": "caf\xe9", "components": [{"id": "A"}]}')
        assert main(["validate", str(bad)]) == 1
        assert "not UTF-8" in capsys.readouterr().err

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

    def test_overlong_json_number_is_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "long-number.json"
        path.write_text('{"components": [{"id": "A"}], "name": ' + "9" * 5000 + "}")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")

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

    def test_sweep_trends(self, capsys, fermat_path):
        report = run_json(capsys, ["kernel", fermat_path, "--ell", "5", "--sweep", "4"])
        assert len(report["results"]["sweep"]) == 4
        assert report["results"]["trends"] == {"5": "stable"}

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
        assert main(["example", "fermat"]) == 1
        assert "requires --n" in capsys.readouterr().err

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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "snckit.cli", "example", "rulings"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["name"] == "rulings"


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


def test_sweep_runs_each_stage_once(capsys, monkeypatch, fermat_path):
    """One sweep builds the geometric complex once plus one quotient per
    degree class gcd(f, P) (fermat-5 has P = 1, so one class), evaluates
    alpha and its surjectivity once per prime, and keeps SNF work
    bounded."""
    from snckit import complexes, groups, matrices, reciprocity

    counts = {"complex": 0, "alpha": 0, "surjective": 0, "snf": 0}
    init = complexes.DeltaComplex.__init__
    monkeypatch.setattr(complexes.DeltaComplex, "__init__", _counting(counts, "complex", init))
    surjective = groups.ModuleMap.is_surjective
    monkeypatch.setattr(groups.ModuleMap, "is_surjective",
                        _counting(counts, "surjective", surjective))
    for key, original in (("alpha", reciprocity._alpha_at), ("snf", matrices.snf)):
        _rebind(monkeypatch, original, _counting(counts, key, original))

    argv = ["kernel", fermat_path, "--sweep", "10", "--ell", "2", "--ell", "3", "--ell", "5"]
    assert main(argv + ["--json"]) == 0
    capsys.readouterr()
    assert counts["complex"] == 2
    assert counts["alpha"] == 3
    assert counts["surjective"] == 3
    assert counts["snf"] <= 27


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
        if IntMatrix.from_rows(rel).det() != 0:
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
# and v_inv of every SNF).  An extension of the SNF of a by columns b
# reduces [a | b], so its shape is that of [a | b].  A change may lower
# these counts and pin the lower values; none may rise.
SNF_WORK = {
    "cover-50": (["homology"], 3, 0, (100, 100), 1),
    "dense-12": (["kernel", "--ell", "3"], 8, 4, (12, 25), 306),
    "dense-24": (["kernel", "--ell", "2", "--ell", "3", "--ell", "5"], 12, 12, (24, 50), 33041),
}
DENSE_SEEDS = {"dense-12": (12, 12), "dense-24": (24, 6)}


def _measure_snf_work(monkeypatch):
    """Wrap ``snf`` and ``_extend_snf`` at every binding site; returns
    the dict the wrappers fill in."""
    from snckit import matrices

    seen = {"calls": 0, "extensions": 0, "shape": (0, 0), "bits": 0, "rows": []}

    def record(key, shape, s):
        seen[key] += 1
        if shape[0] * shape[1] > seen["shape"][0] * seen["shape"][1]:
            seen["shape"] = shape
        for m in (s.u, s.d, s.v, s.u_inv, s.v_inv):
            for x in m._entries:
                seen["bits"] = max(seen["bits"], x.bit_length())
        return s

    snf, extend = matrices.snf, matrices._extend_snf

    def measuring(a):
        seen["rows"].append(a.rows)
        return record("calls", (a.rows, a.cols), snf(a))

    def measuring_extension(s, b):
        return record("extensions", (b.rows, s.d.cols + b.cols), extend(s, b))

    _rebind(monkeypatch, snf, measuring)
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
    if doc == "cover-50":
        path = _cover_path(capsys, tmp_path, 50)
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
