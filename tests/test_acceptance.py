"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criteria 1-2 replay the two bundled examples end to end through the
CLI and must finish under a second.  Criteria 3-7 are property checks
over seeded random inputs (suspension isomorphism, oracle agreement,
the Smith normal form contract, tower functoriality, universal
coefficients).  Criterion 8 exercises the three validation negatives
through the CLI and checks exit status and error wording.
"""

import json
import math
import random
import time
from contextlib import contextmanager

from snckit.cli import main
from snckit.complexes import suspend
from snckit.config_io import serialize_bundle
from snckit.fixtures import fermat_bundle, fermat_cover_config
from snckit.galois import connecting_map, extension_complex
from snckit.homology import homology_group, induced_map, oracle_homology, random_complex
from snckit.matrices import IntMatrix

from conftest import random_admissible_config
from test_matrices import assert_snf_contract
from zn_reference import homology_mod_n


@contextmanager
def criterion(capsys, number: int, summary: str):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"[criterion {number}] {verdict}: {summary}")


def _scan(capsys, argv) -> dict:
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _complexes(seed: int, count: int):
    rng = random.Random(seed)
    return [random_complex(rng, max_vertices=6) for _ in range(count)]


# regenerated identically in criterion 7, as required
C3_COMPLEXES = _complexes(301, 50)
C4_COMPLEXES = _complexes(401, 100)
MODULI = (2, 3, 4, 6)


def test_criterion_1_rulings_example(capsys, tmp_path):
    with criterion(capsys, 1, "rulings example: injective reciprocity at "
                              "every extension degree, under 1 s"):
        start = time.perf_counter()
        assert main(["example", "rulings"]) == 0
        path = tmp_path / "rulings.json"
        path.write_text(capsys.readouterr().out)

        dual = _scan(capsys, ["dual-complex", str(path)])
        assert dual["results"]["counts"] == [4, 4]
        assert dual["results"]["euler_characteristic"] == 0

        report = _scan(capsys, ["kernel", str(path), "--ell", "2", "--ell", "3",
                                "--ell", "5", "--sweep", "3"])
        sweep = report["results"]["sweep"]
        assert [r["f"] for r in sweep] == [1, 2, 3]
        for level in sweep:
            assert level["h1_quotient"] == {
                "description": "Z", "invariant_factors": [], "free_rank": 1}
            for ell in ("2", "3", "5"):
                pr = level["primes"][ell]
                assert pr["theta"]["description"] == "0"
                assert pr["verdict"] == "exact"
                assert pr["predicted_kernel"]["description"] == "0"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_fermat_example(capsys, tmp_path):
    with criterion(capsys, 2, "cyclic-cover example: kernel Z/n at every "
                              "extension degree for n = 5, 3, 7, under 1 s"):
        for n in (5, 3, 7):
            start = time.perf_counter()
            cover = fermat_cover_config(n)
            cover_cx = extension_complex(cover, n).complex
            assert cover_cx.counts() == (2 * n, 2 * n)
            assert extension_complex(cover, 1).complex.counts() == (2, 2)

            path = tmp_path / f"fermat{n}.json"
            path.write_text(serialize_bundle(fermat_bundle(n)))
            dual = _scan(capsys, ["dual-complex", str(path)])
            assert dual["results"]["counts"] == [2, 2]

            h1 = _scan(capsys, ["homology", str(path), "--degree", "1"])
            assert h1["results"]["group"]["description"] == "Z"

            report = _scan(capsys, ["kernel", str(path), "--ell", str(n),
                                    "--sweep", "4"])
            assert report["results"]["trends"] == {str(n): "stable"}
            for level in report["results"]["sweep"]:
                pr = level["primes"][str(n)]
                assert pr["theta"]["invariant_factors"] == [n]
                assert pr["frobenius_trivial_on_torsion"] is True
                assert pr["alpha_surjective"] is True
                assert pr["verdict"] == "exact"
                assert pr["predicted_kernel"]["invariant_factors"] == [n]
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"


def test_criterion_3_suspension_isomorphism(capsys):
    with criterion(capsys, 3, "suspension isomorphism on 50 random "
                              "complexes, integral and mod n, under 30 s"):
        start = time.perf_counter()
        for i, cx in enumerate(C3_COMPLEXES):
            scx = suspend(cx, "apex0!", "apex1!")
            for n in MODULI:
                up = homology_group(scx, 2, n).group
                down = homology_group(cx, 1, n).group
                assert up.invariant_factors == down.invariant_factors, i
            for a in (0, 1):
                up = homology_group(scx, a + 1).group
                down = homology_group(cx, a, reduced=True).group
                assert up.iso_type() == down.iso_type(), (i, a)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_oracle_agreement(capsys):
    with criterion(capsys, 4, "mod-p dimensions match the elimination "
                              "oracle on 100 random complexes, p in {2,3,5}"):
        for i, cx in enumerate(C4_COMPLEXES):
            for a in range(cx.dimension + 2):
                for p in (2, 3, 5):
                    expected = oracle_homology(cx, a, p)
                    group = homology_group(cx, a, p).group
                    assert group.free_rank == 0
                    assert len(group.invariant_factors) == expected, (i, a, p)


def test_criterion_5_snf_contract(capsys):
    with criterion(capsys, 5, "Smith normal form contract on 200 random "
                              "matrices up to 8x8, entries in [-9, 9]"):
        rng = random.Random(501)
        for _ in range(200):
            rows = rng.randint(0, 8)
            cols = rng.randint(0, 8)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
                cols=cols,
            )
            assert_snf_contract(m)


def test_criterion_6_tower_functoriality(capsys):
    with criterion(capsys, 6, "collapse maps compose along towers of "
                              "extensions, on chains and on H0, H1"):
        rng = random.Random(601)
        towers = [(2, 1), (4, 2), (4, 1), (6, 2), (6, 3), (6, 1)]
        for _ in range(20):
            e = rng.choice([2, 3, 4, 6])
            cfg = random_admissible_config(rng, e)
            f_fine, f_mid = rng.choice(towers)

            fine = extension_complex(cfg, f_fine)
            mid = extension_complex(cfg, f_mid)
            base = extension_complex(cfg, 1)
            direct = connecting_map(cfg, f_fine, 1, fine=fine, coarse=base)
            upper = connecting_map(cfg, f_fine, f_mid, fine=fine, coarse=mid)
            lower = connecting_map(cfg, f_mid, 1, fine=mid, coarse=base)
            assert lower.compose(upper).assignment == direct.assignment

            for a in (0, 1):
                h_fine = homology_group(fine.complex, a)
                h_mid = homology_group(mid.complex, a)
                h_base = homology_group(base.complex, a)
                m_direct = induced_map(direct, a, source=h_fine, target=h_base)
                m_up = induced_map(upper, a, source=h_fine, target=h_mid)
                m_down = induced_map(lower, a, source=h_mid, target=h_base)
                assert m_down.compose(m_up).matrix == m_direct.matrix


def test_criterion_7_universal_coefficients(capsys):
    with criterion(capsys, 7, "universal-coefficient cardinality identity "
                              "on every complex from criteria 3 and 4"):
        for cx in _complexes(301, 50) + _complexes(401, 100):
            integral = [homology_group(cx, a).group
                        for a in range(cx.dimension + 1)]
            for n in MODULI:
                for a in range(cx.dimension + 1):
                    h = integral[a]
                    expected = n ** h.free_rank
                    for d in h.invariant_factors:
                        expected *= math.gcd(d, n)
                    if a > 0:
                        for d in integral[a - 1].invariant_factors:
                            expected *= math.gcd(d, n)
                    assert homology_mod_n(cx, a, n)[0].order() == expected


def test_criterion_8_validation_negatives(capsys, tmp_path):
    with criterion(capsys, 8, "the three malformed inputs exit with "
                              "status 1 and name the offending object"):
        collapse = {
            "components": [{"id": "A"}, {"id": "B"}],
            "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
            "frobenius": {"order": 2, "components": {"A": "B", "B": "A"},
                          "strata": {"s": "s"}},
        }
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(collapse))
        assert main(["extend", str(path), "--f", "1"]) == 1
        err = capsys.readouterr().err
        assert "not SNC after extension" in err
        assert "'s'" in err and "'A'" in err and "'B'" in err

        cocycle = {
            "components": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
            "strata": {
                "2": [{"id": "AB", "on": ["A", "B"]},
                      {"id": "AC", "on": ["A", "C"]},
                      {"id": "BC", "on": ["B", "C"]}],
                "3": [{"id": "T", "on": ["A", "B", "C"]}],
            },
            "pi1_y0": {"generators": 1, "relations": [[4]]},
            "edge_labels": {"AB": [1]},
        }
        path = tmp_path / "cocycle.json"
        path.write_text(json.dumps(cocycle))
        assert main(["kernel", str(path), "--ell", "2"]) == 1
        err = capsys.readouterr().err
        assert "labels do not descend" in err and "'T'" in err

        unequivariant = {
            "components": [{"id": "A"}, {"id": "B"}],
            "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
            "frobenius": {"order": 2, "components": {"A": "B", "B": "A"},
                          "strata": {"s": "s"}},
            "pi1_y0": {"generators": 1, "relations": [[5]],
                       "frobenius": [[2]], "order": 4},
            "edge_labels": {"s": [1]},
        }
        path = tmp_path / "unequivariant.json"
        path.write_text(json.dumps(unequivariant))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "not Frobenius-equivariant" in err and "'s'" in err
