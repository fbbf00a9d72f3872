"""Configuration validation, facet resolution, dual complex."""

import pytest

from snckit.errors import ValidationError
from snckit.snc import (
    Component,
    FrobeniusAction,
    SncConfiguration,
    Stratum,
    build_dual_complex,
    has_rational_point,
    validate_config,
)

from conftest import (
    cycle_config,
    multigraph_config,
    reflection_action,
    rotation_action,
    triangle_config,
)


class TestValidateConfig:
    def test_single_component_ok(self):
        cfg = SncConfiguration("one", (Component("C"),))
        assert validate_config(cfg) == []

    def test_empty_components(self):
        cfg = SncConfiguration("none", ())
        assert validate_config(cfg) == ["at least one component required"]

    def test_repeated_component_in_stratum(self):
        cfg = SncConfiguration(
            "bad", (Component("C1"), Component("C2")),
            (Stratum("s", ("C1", "C1")),),
        )
        problems = validate_config(cfg)
        assert any("repeated component" in p for p in problems)

    def test_duplicate_ids(self):
        cfg = SncConfiguration("bad", (Component("C"), Component("C")))
        assert any("duplicate" in p for p in validate_config(cfg))
        cfg2 = SncConfiguration(
            "bad2", (Component("C"), Component("D")),
            (Stratum("C", ("C", "D")),),
        )
        assert any("duplicate" in p for p in validate_config(cfg2))

    def test_id_lookups_find_the_first_of_repeats(self):
        first, second = Component("C", (2,)), Component("C", (3,))
        s1, s2 = Stratum("s", ("C", "D")), Stratum("s", ("D", "E"))
        cfg = SncConfiguration("bad", (first, Component("D"), second), (s1, s2))
        assert cfg.component("C") is first
        assert cfg.stratum("s") is s1
        assert sum("duplicate" in p for p in validate_config(cfg)) >= 2
        for lookup in (cfg.component, cfg.stratum):
            with pytest.raises(KeyError) as err:
                lookup("nope")
            assert err.value.args == ("nope",)

    def test_unknown_component(self):
        cfg = SncConfiguration(
            "bad", (Component("C1"),), (Stratum("s", ("C1", "ZZ")),),
        )
        assert any("unknown components" in p for p in validate_config(cfg))

    def test_nonpositive_degrees(self):
        cfg = SncConfiguration("bad", (Component("C", (0,)),))
        assert any("not positive" in p for p in validate_config(cfg))

    def test_facet_ambiguity(self):
        base = triangle_config(with_face=False)
        strata = base.strata + (
            Stratum("AB2", ("A", "B")),
            Stratum("T", ("A", "B", "C")),
        )
        cfg = SncConfiguration("ambig", base.components, strata)
        problems = validate_config(cfg)
        assert any("ambiguity" in p for p in problems)
        # explicit facets resolve it
        strata_fixed = base.strata + (
            Stratum("AB2", ("A", "B")),
            Stratum("T", ("A", "B", "C"), facets=("AB", "AC", "BC")),
        )
        cfg_fixed = SncConfiguration("fixed", base.components, strata_fixed)
        assert validate_config(cfg_fixed) == []

    def test_missing_facet(self):
        cfg = SncConfiguration(
            "gap",
            (Component("A"), Component("B"), Component("C")),
            (Stratum("AB", ("A", "B")), Stratum("T", ("A", "B", "C"))),
        )
        assert any("no depth-2 stratum" in p for p in validate_config(cfg))

    def test_frobenius_must_be_bijection(self):
        cfg = cycle_config(3, frobenius=FrobeniusAction(
            3, {"v0": "v1", "v1": "v1"}, {}))
        assert any("bijection" in p for p in validate_config(cfg))

    def test_frobenius_must_respect_incidence(self):
        cfg = cycle_config(
            4,
            frobenius=FrobeniusAction(
                4,
                {f"v{i}": f"v{(i + 1) % 4}" for i in range(4)},
                {f"e{i}": f"e{i}" for i in range(4)},  # strata not rotated
            ),
        )
        assert any("image components" in p for p in validate_config(cfg))

    def test_frobenius_order_must_be_multiple(self):
        cfg = cycle_config(
            4,
            frobenius=FrobeniusAction(
                3,  # rotation by 1 has order 4, not dividing 3
                {f"v{i}": f"v{(i + 1) % 4}" for i in range(4)},
                {f"e{i}": f"e{(i + 1) % 4}" for i in range(4)},
            ),
        )
        assert any("order does not divide" in p for p in validate_config(cfg))

    def test_frobenius_order_is_checked_by_orbit_length(self):
        # orders this large are only checkable from orbit lengths
        order = 10**18
        reflection = reflection_action(4)
        cfg = cycle_config(4, frobenius=FrobeniusAction(
            order, reflection.component_perm, reflection.stratum_perm))
        assert validate_config(cfg) == []
        rotation = rotation_action(3, 1, order)
        assert validate_config(cycle_config(3, frobenius=rotation)) == [
            f"frobenius: component permutation order does not divide {order}",
            f"frobenius: stratum permutation order does not divide {order}",
        ]


class TestBuildDualComplex:
    def test_rulings_is_four_cycle(self):
        from snckit.fixtures import rulings_bundle

        cx = build_dual_complex(rulings_bundle().config)
        assert cx.counts() == (4, 4)
        # every vertex has exactly two incident edges
        incidence = {v: 0 for v in cx.vertex_order}
        for e in cx.simplices(1):
            for v in e.vertices:
                incidence[v] += 1
        assert set(incidence.values()) == {2}

    def test_single_component(self):
        cx = build_dual_complex(SncConfiguration("one", (Component("C"),)))
        assert cx.counts() == (1,)

    def test_multigraph_semantics(self):
        cx = build_dual_complex(multigraph_config())
        assert cx.counts() == (2, 2)
        ids = [e.id for e in cx.simplices(1)]
        assert ids == ["P1", "P2"]

    def test_triangle_with_face(self):
        cx = build_dual_complex(triangle_config())
        assert cx.counts() == (3, 3, 1)
        t = cx.simplex("T")
        assert t.vertices == ("A", "B", "C")
        assert t.facets == ("BC", "AC", "AB")

    def test_vertex_tuple_sorted_by_component_order(self):
        cfg = SncConfiguration(
            "swapped",
            (Component("Z"), Component("A")),
            (Stratum("s", ("A", "Z")),),
        )
        cx = build_dual_complex(cfg)
        assert cx.simplex("s").vertices == ("Z", "A")

    def test_renaming_preserves_structure(self):
        cfg = cycle_config(5)
        renamed = SncConfiguration(
            "renamed",
            tuple(Component(f"X{i}") for i in range(5)),
            tuple(
                Stratum(f"Y{i}", (f"X{i}", f"X{(i + 1) % 5}")) for i in range(5)
            ),
        )
        assert (
            build_dual_complex(cfg).structure_signature()
            == build_dual_complex(renamed).structure_signature()
        )

    def test_invalid_raises(self):
        cfg = SncConfiguration("none", ())
        with pytest.raises(ValidationError):
            build_dual_complex(cfg)


def test_has_rational_point():
    assert has_rational_point([1], 1)
    assert not has_rational_point([2], 1)
    assert has_rational_point([2], 4)
    assert has_rational_point([3, 2], 2)
    assert not has_rational_point([], 6)
