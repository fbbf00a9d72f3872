"""Homology over Z and Z/n, induced maps, and the elimination oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from snckit.complexes import ChainMap, DeltaComplex, Simplex, suspend
from snckit.homology import (
    homology_group,
    induced_map,
    oracle_homology,
    random_complex,
)

from conftest import cycle_complex


def multigraph():
    return DeltaComplex.graph(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])


class TestHomologyGroup:
    def test_four_cycle_h1_is_Z(self):
        h = homology_group(cycle_complex(4), 1)
        assert h.group.describe() == "Z"

    def test_point(self):
        pt = DeltaComplex([Simplex.vertex("p")])
        assert homology_group(pt, 0).group.describe() == "Z"
        assert homology_group(pt, 1).group.is_trivial()

    def test_multigraph_h1(self):
        h = homology_group(multigraph(), 1)
        assert h.group.describe() == "Z"

    def test_h0_counts_components(self):
        two = DeltaComplex([Simplex.vertex("a"), Simplex.vertex("b")])
        assert homology_group(two, 0).group.free_rank == 2
        assert homology_group(two, 0, reduced=True).group.free_rank == 1

    def test_suspension_of_four_cycle_mod_6(self):
        s = suspend(cycle_complex(4), "O", "inf")
        h = homology_group(s, 2, 6)
        assert h.group.iso_type().torsion == (6,)
        assert h.group.free_rank == 0
        # independent dimension check over the prime parts
        assert oracle_homology(s, 2, 2) == 1
        assert oracle_homology(s, 2, 3) == 1

    def test_degree_above_dimension_is_trivial(self):
        assert homology_group(cycle_complex(3), 7).group.is_trivial()

    def test_mod_n_of_circle(self):
        h = homology_group(cycle_complex(5), 1, 4)
        assert h.group.iso_type().torsion == (4,)

    def test_representatives_are_cycles(self):
        cx = suspend(cycle_complex(4), "O", "inf")
        for a in (0, 1, 2):
            for modulus in (None, 4):
                h = homology_group(cx, a, modulus)
                d = cx.boundary_matrix(a)
                for j in range(h.group.generator_count):
                    image = d.apply(h.representative(j))
                    if modulus is None:
                        assert all(x == 0 for x in image)
                    else:
                        assert all(x % modulus == 0 for x in image)

    def test_class_of_roundtrip(self):
        cx = cycle_complex(4)
        h = homology_group(cx, 1)
        z = h.representative(0)
        assert h.class_of(z) == (1,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            homology_group(cycle_complex(3), -1)
        with pytest.raises(ValueError):
            homology_group(cycle_complex(3), 1, 1)


class TestInducedMap:
    def test_identity(self):
        cx = cycle_complex(4)
        m = induced_map(ChainMap.identity(cx), 1)
        assert m.matrix.is_identity()

    def test_rotation_quotient_is_multiplication_by_two(self):
        cx = cycle_complex(4)
        target = multigraph()
        # orbits of rotation by two: {v0,v2} -> a, {v1,v3} -> b,
        # {e0,e2} -> e1, {e1,e3} -> e2; e1 = (v1,v2) lands reversed
        assignment = {
            "v0": ("a", 1), "v1": ("b", 1), "v2": ("a", 1), "v3": ("b", 1),
            "e0": ("e1", 1), "e1": ("e2", -1), "e2": ("e1", 1), "e3": ("e2", 1),
        }
        f = ChainMap(cx, target, assignment)
        m = induced_map(f, 1)
        assert abs(m.matrix[0, 0]) == 2

    def test_vertex_inclusion_iso_on_h0(self):
        cx = cycle_complex(5)
        pt = DeltaComplex([Simplex.vertex("v0")])
        f = ChainMap(pt, cx, {"v0": ("v0", 1)})
        m = induced_map(f, 0)
        assert m.is_injective() and m.is_surjective()

    def test_functoriality(self):
        cx = cycle_complex(6)
        rot = {f"v{i}": (f"v{(i + 1) % 6}", 1) for i in range(6)}
        for i in range(4):
            rot[f"e{i}"] = (f"e{i + 1}", 1)
        rot["e4"] = ("e5", -1)
        rot["e5"] = ("e0", -1)
        f = ChainMap(cx, cx, rot)
        g = f.compose(f)
        lhs = induced_map(g, 1)
        rhs = induced_map(f, 1).compose(induced_map(f, 1))
        assert lhs.equals_mod_relations(rhs)

    def test_one_snf_per_map(self, monkeypatch):
        from snckit import groups, matrices

        cx = DeltaComplex.graph(["a", "b"], [(f"e{i}", "a", "b") for i in range(3)])
        h = homology_group(cx, 1)
        assert h.group.describe() == "Z^2"
        swap = {s.id: (s.id, 1) for s in cx.all_simplices()}
        swap["e0"], swap["e1"] = ("e1", 1), ("e0", 1)
        calls = []
        original = matrices.snf
        for module in (matrices, groups):
            monkeypatch.setattr(module, "snf", lambda a: calls.append(a) or original(a))
        m = induced_map(ChainMap(cx, cx, swap), 1, source=h, target=h)
        assert len(calls) == 1
        assert m.matrix.det() == -1

    def test_mod_n_induced(self):
        cx = cycle_complex(4)
        m = induced_map(ChainMap.identity(cx), 1, modulus=3)
        assert m.source.iso_type().torsion == (3,)
        assert m.matrix.is_identity()


class TestOracle:
    def test_four_cycle(self):
        assert oracle_homology(cycle_complex(4), 1, 2) == 1

    def test_point_degree_one(self):
        pt = DeltaComplex([Simplex.vertex("p")])
        assert oracle_homology(pt, 1, 3) == 0

    def test_six_cycle_connected(self):
        assert oracle_homology(cycle_complex(6), 0, 5) == 1

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            oracle_homology(cycle_complex(3), 1, 6)

    def test_oracle_equivalence_random(self):
        rng = random.Random(23)
        for _ in range(40):
            cx = random_complex(rng, max_vertices=7)
            for a in range(cx.dimension + 2):
                for p in (2, 3, 5):
                    expected = oracle_homology(cx, a, p)
                    got = len(homology_group(cx, a, p).group.invariant_factors)
                    assert got == expected, (cx, a, p)


def mod_quotient_size(group, n: int) -> int:
    """|G/nG| from invariant factors."""
    from math import gcd

    size = n ** group.free_rank
    for d in group.invariant_factors:
        size *= gcd(d, n)
    return size


def n_torsion_size(group, n: int) -> int:
    from math import gcd

    size = 1
    for d in group.invariant_factors:
        size *= gcd(d, n)
    return size


class TestUniversalCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_cardinality_identity_random(self, n):
        rng = random.Random(100 + n)
        for _ in range(25):
            cx = random_complex(rng, max_vertices=6)
            for a in range(cx.dimension + 2):
                h_mod = homology_group(cx, a, n).group
                h_int = homology_group(cx, a).group
                lower = (
                    homology_group(cx, a - 1).group if a >= 1 else None
                )
                expected = mod_quotient_size(h_int, n)
                if lower is not None:
                    expected *= n_torsion_size(lower, n)
                assert h_mod.order() == expected


class TestSuspensionIsomorphism:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_mod_n(self, n):
        rng = random.Random(17)
        for _ in range(12):
            cx = random_complex(rng, max_vertices=5)
            s = suspend(cx, "A0", "A1")
            for a in range(cx.dimension + 1):
                up = homology_group(s, a + 1, n).group.invariant_factors
                down_h = homology_group(cx, a, n, reduced=(a == 0))
                assert up == down_h.group.invariant_factors

    def test_integral(self):
        rng = random.Random(18)
        for _ in range(12):
            cx = random_complex(rng, max_vertices=5)
            s = suspend(cx, "A0", "A1")
            for a in range(cx.dimension + 1):
                up = homology_group(s, a + 1).group.iso_type()
                down = homology_group(cx, a, reduced=(a == 0)).group.iso_type()
                assert up == down
