"""Configuration validation, facet resolution, dual complex."""

import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from snckit.complexes import DeltaComplex, Simplex
from snckit.config_io import ConfigBundle, parse_config, serialize_bundle
from snckit.errors import ValidationError
from snckit.fixtures import fermat_bundle, fermat_cover_config, rulings_bundle, trivial_pi1
from snckit.snc import (
    Component,
    FrobeniusAction,
    SncConfiguration,
    Stratum,
    build_dual_complex,
    ensure_valid,
    has_rational_point,
    resolved_facets,
    validate_config,
)

from facets_reference import _resolve_facets as reference_facets
from conftest import (
    cycle_config,
    moore_complex,
    moore_document,
    multigraph_config,
    random_admissible_config,
    reflection_action,
    rotation_action,
    suspension_document,
    triangle_config,
)


def _S(sid, on=None, facets=None):
    """A stratum on the components named by the letters of ``on``
    (default: of its id)."""
    return Stratum(sid, tuple(sid if on is None else on), facets)


# explicit facets around the parallel strata AB2 and ACE2 on five
# components: the tetrahedra ACDE and ABCE meet on ACE2 and ACE
_ACE2_FACETS = {"ABC": ("BC", "AC", "AB"), "ABE": ("BE", "AE", "AB"),
                "ACDE": ("CDE", "ADE", "ACE2", "ACD"), "ABCE": ("BCE", "ACE", "ABE", "ABC")}


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

    def test_empty_ids(self):
        cfg = SncConfiguration("x", (Component("A"), Component("B")), (Stratum("", ("A", "B")),))
        assert validate_config(cfg) == ["stratum with empty id"]
        # reported where the strata loop meets it, before a duplicate id
        cfg = SncConfiguration("x", (Component(""), Component("B")),
                               (Stratum("", ("", "B")), Stratum("", ("", "B"))))
        assert validate_config(cfg) == [
            "component with empty id",
            "stratum with empty id",
            "duplicate id '' (ids are global across components and strata)",
            "stratum with empty id",
            "duplicate id '' (ids are global across components and strata)",
        ]

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

    @pytest.mark.parametrize("components, strata, action, problems", [
        ("ABC", [_S("AB"), _S("BC"), _S("AC", "CA")], FrobeniusAction(0),
         ["frobenius: order must be positive"]),
        ("ABC", [_S("AB"), _S("BC")], FrobeniusAction(2, {"zz": "A", "B": "yy"}, {"q": "r"}),
         ["frobenius: component permutation maps unknown id 'zz'",
          "frobenius: component permutation targets unknown id 'yy'"]),
        ("ABC", [_S("AB"), _S("BC")], FrobeniusAction(2, {}, {"AB": "q", "A": "AB"}),
         ["frobenius: stratum permutation targets unknown id 'q'",
          "frobenius: stratum permutation maps unknown id 'A'"]),
        ("ABC", [_S("AB"), _S("BC")], FrobeniusAction(2, {"A": "B", "B": "B"}, {"AB": "BC"}),
         ["frobenius: component permutation is not a bijection"]),
        ("ABC", [_S("AB"), _S("BC")], FrobeniusAction(2, {}, {"AB": "BC"}),
         ["frobenius: stratum permutation is not a bijection"]),
        ("ABC", [_S("AB"), _S("AC"), _S("BC"), _S("ABC")],
         FrobeniusAction(2, {"A": "B", "B": "A"}, {"AB": "ABC", "ABC": "AB"}),
         ["frobenius: stratum 'AB' (depth 2) maps to 'ABC' (depth 3)",
          "frobenius: stratum 'AC' maps to 'AC', which does not lie on the image components",
          "frobenius: stratum 'BC' maps to 'BC', which does not lie on the image components",
          "frobenius: stratum 'ABC' (depth 3) maps to 'AB' (depth 2)"]),
        ("ABC", [_S("AB"), _S("BC"), _S("AC", "CA")],
         FrobeniusAction(2, {"A": "B", "B": "C", "C": "A"}, {"AB": "BC", "BC": "AC", "AC": "AB"}),
         ["frobenius: component permutation order does not divide 2",
          "frobenius: stratum permutation order does not divide 2"]),
        # at order 1 the action is the identity, whatever the permutations
        # say, so the incidence checks pass and only the order check sees them
        ("ABC", [_S("AB"), _S("BC"), _S("AC", "CA")],
         FrobeniusAction(1, {"A": "B", "B": "C", "C": "A"}, {"AB": "BC", "BC": "AB"}),
         ["frobenius: component permutation order does not divide 1",
          "frobenius: stratum permutation order does not divide 1"]),
        ("ABC", [_S("AB"), _S("AB2", "AB"), _S("AC"), _S("BC"),
                 _S("T", "ABC", ("BC", "AC", "AB")), _S("T2", "ABC", ("AB2", "AC", "BC"))],
         FrobeniusAction(2, {}, {"T": "T2", "T2": "T"}),
         ["frobenius: facet 'AB' of stratum 'T' does not map to a facet of 'T2'",
          "frobenius: facet 'AB2' of stratum 'T2' does not map to a facet of 'T'"]),
    ], ids=["order", "component-ids", "stratum-ids", "component-bijection",
            "stratum-bijection", "incidence", "orbit-length", "order-one", "facets"])
    def test_frobenius_messages(self, components, strata, action, problems):
        """Every Frobenius message, with its exact text, in the order of
        the checks and, within one, of the permutation's items or of the
        strata and their facets."""
        cfg = SncConfiguration("x", tuple(Component(c) for c in components), tuple(strata),
                               action)
        assert validate_config(cfg) == problems

    @pytest.mark.parametrize("components, strata, problems", [
        ("ABCD",
         [_S("AB"), _S("BC"), _S("BD"), _S("AB2", "BA"), _S("T", "CAB"), _S("U", "BDC")],
         ["stratum 'T': no depth-2 stratum on ('A', 'C')",
          "stratum 'T': facet ambiguity, candidates ['AB', 'AB2'] all lie on the same "
          "components; give explicit facets",
          "stratum 'U': no depth-2 stratum on ('C', 'D')"]),
        ("ABC",
         [_S("AB"), _S("AC"), _S("BC"), _S("AB2", "AB"),
          _S("T", "ABC", ("AB", "BC", "AB2")), _S("T2", "CBA", ("AB2", "AB", "AB"))],
         ["stratum 'T': facets 'AB' and 'AB2' omit the same component",
          "stratum 'T2': facets 'AB2' and 'AB' omit the same component",
          "stratum 'T2': facets 'AB2' and 'AB' omit the same component"]),
        ("ABC",
         [_S("AB", "AB", ("B", "C")), _S("AC", "CA", ("A", "C")), _S("BC", "BC", ("B",)),
          _S("BC2", "CB", ("B", "B"))],
         ["stratum 'AB': explicit facets ['B', 'C'] must be its two components",
          "stratum 'BC': explicit facets ['B'] must be its two components",
          "stratum 'BC2': explicit facets ['B'] must be its two components"]),
        ("ABCD",
         [_S("AB"), _S("AC"), _S("BC"), _S("BD"), _S("CD"), _S("BCD"),
          _S("T", "ABC", ("BD", "AC", "BCD")), _S("T2", "BAC", ("AB", "AC", "BC", "AB")),
          _S("T3", "ABC", ("A", "zz", "BC")), _S("T4", "CAB", ("AB", "AC"))],
         ["stratum 'T': facet 'BD' does not omit exactly one of its components",
          "stratum 'T': facet 'BCD' does not omit exactly one of its components",
          "stratum 'T2': 4 explicit facets, expected 3",
          "stratum 'T3': facet 'A' does not exist",
          "stratum 'T3': facet 'zz' does not exist",
          "stratum 'T4': 2 explicit facets, expected 3"]),
        ("ABA",
         [_S("AB"), _S("B", "AB"), _S("AB", "BA")],
         ["duplicate component id 'A'",
          "duplicate id 'B' (ids are global across components and strata)",
          "duplicate id 'AB' (ids are global across components and strata)"]),
    ], ids=["inferred", "same-component", "edge-facets", "explicit", "duplicate-ids"])
    def test_facet_resolution_messages(self, components, strata, problems):
        """Every facet-resolution message, with its exact text, in the
        order of the strata and, within one, of its facets (vertex order
        when inferred, listing order when explicit)."""
        cfg = SncConfiguration("x", tuple(Component(c) for c in components), tuple(strata))
        assert validate_config(cfg) == problems

    def test_resolved_facets_of_a_valid_configuration(self):
        """On coned, whose depth-3 strata have inferred facets, every
        stratum gets the facets the reference resolution gives, which are
        its simplex's facets in the dual complex."""
        text = (Path(__file__).parent / "golden" / "coned.json").read_text(encoding="utf-8")
        cfg = parse_config(text).config
        facets = resolved_facets(cfg)
        assert facets == reference_facets(cfg)[0]
        cx = build_dual_complex(cfg)
        assert facets == {s.id: s.facets for s in cx.all_simplices() if s.dim}
        assert max(len(f) for f in facets.values()) == 3

    def test_resolved_facets_names_a_stratum_on_unknown_components(self):
        cfg = SncConfiguration("x", (Component("A"),), (Stratum("s", ("A", "Z")),))
        with pytest.raises(ValidationError) as info:
            resolved_facets(cfg)
        assert info.value.problems == ["stratum 's' lies on unknown components ['Z']"]
        # validation reports it once, from its own check
        assert validate_config(cfg) == ["stratum 's' lies on unknown components ['Z']"]

    def test_unknown_component_named_like_a_stratum(self):
        cfg = SncConfiguration("x", (Component("A"), Component("B")),
                               (_S("s", "AB"), Stratum("t", ("A", "s"))))
        assert validate_config(cfg) == ["stratum 't' lies on unknown components ['s']"]

    @pytest.mark.parametrize("components, strata", [
        ("AB", [_S("aa", "AA")]),
        ("AB", [_S("ab", "AB"), _S("ab", "BA")]),
        ("AA", []),
    ], ids=["repeated-component", "duplicate-stratum-id", "duplicate-component-id"])
    def test_resolved_facets_raises_what_validation_reports(self, components, strata):
        cfg = SncConfiguration("x", tuple(Component(c) for c in components), tuple(strata))
        problems = validate_config(cfg)
        assert problems
        for call in (resolved_facets, build_dual_complex):
            with pytest.raises(ValidationError) as info:
                call(cfg)
            assert info.value.problems == problems

    @pytest.mark.parametrize("components, facets, dimension", [
        ("ABCD", {"ABC": ("BC", "AC", "AB"), "ABD": ("BD", "AD", "AB2")}, 3),
        ("ABCDE", {**_ACE2_FACETS, "ABD": ("BD", "AD", "AB")}, 4),
        ("ABCDE", {**_ACE2_FACETS, "ABD": ("BD", "AD", "AB2")}, 3),
    ], ids=["tetrahedron", "4-simplex", "lowest-dimension"])
    def test_boundary_squared_is_a_validation_problem(self, components, facets, dimension):
        """The full simplex on the components, plus the parallel edge
        AB2, and on five components the parallel triangle ACE2.  Where
        ABD takes AB2 and ABC takes AB, the tetrahedron ABCD has d∘d != 0;
        where the tetrahedra ACDE and ABCE meet on ACE2 and ACE, the
        4-simplex has.  Validation reports the lowest such dimension,
        whatever the listing order (the 4-simplex is listed first), with
        the text the checking constructor gives."""
        strata = [_S(components)] + [
            _S("".join(span), span, facets.get("".join(span)))
            for r in range(2, len(components))
            for span in itertools.combinations(components, r)
        ] + [_S("AB2", "AB")] + ([_S("ACE2", "ACE")] if "E" in components else [])
        cfg = SncConfiguration("x", tuple(Component(c) for c in components), tuple(strata))
        problems = [f"boundary squared is nonzero in dimension {dimension}"]
        assert validate_config(cfg) == problems
        with pytest.raises(ValidationError) as checked:
            DeltaComplex(_checked_simplices(cfg))
        assert checked.value.problems == problems
        for call in (ensure_valid, resolved_facets, build_dual_complex):
            with pytest.raises(ValidationError) as info:
                call(cfg)
            assert info.value.problems == problems


class TestBuildDualComplex:
    def test_rulings_is_four_cycle(self):
        from snckit.fixtures import rulings_bundle

        cx = build_dual_complex(rulings_bundle().config)
        assert cx.counts() == (4, 4)
        # every vertex has exactly two incident edges
        incidence = {v.id: 0 for v in cx.simplices(0)}
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
        (t,) = cx.simplices(2)
        assert t.id == "T"
        assert t.vertices == ("A", "B", "C")
        assert t.facets == ("BC", "AC", "AB")

    def test_vertex_tuple_sorted_by_component_order(self):
        cfg = SncConfiguration(
            "swapped",
            (Component("Z"), Component("A")),
            (Stratum("s", ("A", "Z")),),
        )
        cx = build_dual_complex(cfg)
        (s,) = cx.simplices(1)
        assert (s.id, s.vertices) == ("s", ("Z", "A"))

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

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_moore_document_is_the_moore_complex(self, k):
        cx = build_dual_complex(parse_config(json.dumps(moore_document(k))).config)
        assert cx.structure_signature() == moore_complex(k).structure_signature()

    def test_invalid_raises(self):
        cfg = SncConfiguration("none", ())
        with pytest.raises(ValidationError):
            build_dual_complex(cfg)


@st.composite
def parallel_configs(draw):
    """Components listed in a drawn order, then up to two strata on
    every set of 2 to 4 of them whose faces all carry strata.  A stratum
    of depth 3 or 4 names explicit facets, drawn from the strata on its
    faces, whenever a face carries two strata, and otherwise sometimes;
    edges sometimes name their components.  Strata are listed in a drawn
    order and each lists its components in a drawn order.  Every such
    configuration validates; d∘d fails where two explicit facets meet on
    different parallel strata."""
    comps = draw(st.permutations([f"c{i}" for i in range(draw(st.sampled_from([4, 5, 3, 2])))]))
    on_span = {(c,): [c] for c in comps}
    strata = []
    for r in (2, 3, 4):
        for span in itertools.combinations(comps, r):
            faces = [on_span.get(span[:i] + span[i + 1:]) for i in range(r)]
            if not all(faces):
                continue
            for k in range(draw(st.sampled_from([1, 2, 1, 2, 1, 0]))):
                sid = "".join(span) + f"#{k}"
                facets = None
                if any(len(f) > 1 for f in faces) or draw(st.booleans()):
                    facets = draw(st.permutations([draw(st.sampled_from(f)) for f in faces]))
                strata.append(Stratum(sid, tuple(draw(st.permutations(span))),
                                      None if facets is None else tuple(facets)))
                on_span.setdefault(span, []).append(sid)
    return SncConfiguration("parallel", tuple(Component(c) for c in comps),
                            tuple(draw(st.permutations(strata))))


BUILT_CONFIGS = [
    cycle_config(5),
    cycle_config(4, frobenius=reflection_action(4)),
    triangle_config(),
    triangle_config(with_face=False),
    multigraph_config(),
    rulings_bundle().config,
    fermat_bundle(5).config,
    fermat_cover_config(4),
    parse_config(json.dumps(suspension_document(3))).config,
    parse_config(json.dumps(moore_document(2))).config,
]

configurations = (
    st.sampled_from(BUILT_CONFIGS)
    | st.builds(random_admissible_config, st.integers(0, 10**6).map(random.Random),
                st.integers(1, 3))
    | parallel_configs()
)


def _checked_simplices(cfg: SncConfiguration) -> list[Simplex]:
    """The dual complex's simplices as the checking constructor takes
    them: vertices, then strata by depth, on vertex tuples sorted by the
    component order, with the facets the reference resolution gives."""
    facets, vertices, problems = reference_facets(cfg)
    assert problems == ()
    simplices = [Simplex(c.id, (c.id,)) for c in cfg.components]
    for r in cfg.depths():
        for s in cfg.strata_of_depth(r):
            simplices.append(Simplex(s.id, vertices[s.id], facets[s.id]))
    return simplices


def _ids_by_dimension(cx: DeltaComplex) -> list[list[str]]:
    return [[s.id for s in cx.simplices(a)] for a in range(cx.dimension + 1)]


class TestTrustedDualComplex:
    """The dual complex of a validated configuration is built through
    ``DeltaComplex._of``, which skips what validation proved; it must
    accept and reject what the checking constructor does."""

    @settings(max_examples=300, deadline=None)
    @given(configurations)
    def test_matches_checking_constructor(self, cfg):
        text = serialize_bundle(ConfigBundle(cfg.name, cfg, trivial_pi1()))
        try:
            checked = DeltaComplex(_checked_simplices(cfg))
        except ValidationError as err:
            assert validate_config(cfg) == err.problems
            for build in (lambda: build_dual_complex(cfg), lambda: parse_config(text)):
                with pytest.raises(ValidationError) as rejected:
                    build()
                assert rejected.value.problems == err.problems
            return
        assert validate_config(cfg) == []
        for cx in (build_dual_complex(cfg), build_dual_complex(parse_config(text).config)):
            for other in (DeltaComplex(list(cx.all_simplices())), checked):
                assert cx.structure_signature() == other.structure_signature()
                assert cx.counts() == other.counts()
                assert _ids_by_dimension(cx) == _ids_by_dimension(other)


@st.composite
def facet_configs(draw):
    """Components listed in a drawn order, then zero to two strata on
    every set of 2 to 4 of them, so some faces carry no stratum and some
    carry parallel ones.  Each stratum lists its components in a drawn
    order and may name explicit facets: its faces' strata, drawn per
    face or drawn from all its faces (so two may share a side), or any
    list of ids (the ones listed so far, components and an unknown one),
    which may be too short or too long.  Strata are listed in a drawn
    order.  Ids are distinct and every stratum lies on known, distinct
    components, so the configurations reach facet resolution; most of
    them fail it."""
    comps = draw(st.permutations([f"c{i}" for i in range(draw(st.integers(2, 5)))]))
    on_span = {(c,): [c] for c in comps}
    strata = []
    for r in (2, 3, 4):
        for span in itertools.combinations(comps, r):
            faces = [on_span.get(span[:i] + span[i + 1:], []) for i in range(r)]
            for k in range(draw(st.sampled_from([0, 1, 1, 2]))):
                sid = "".join(span) + f"#{k}"
                mode = draw(st.sampled_from(["inferred", "inferred", "faces", "sides", "any"]))
                facets = None
                if mode == "faces" and all(faces):
                    facets = tuple(draw(st.permutations(
                        [draw(st.sampled_from(f)) for f in faces])))
                elif mode == "sides" and any(faces):
                    facets = tuple(draw(st.lists(st.sampled_from(sum(faces, [])),
                                                 min_size=r, max_size=r)))
                elif mode == "any":
                    ids = [x.id for x in strata] + list(comps) + ["nowhere"]
                    facets = tuple(draw(st.lists(st.sampled_from(ids),
                                                 min_size=r - 1, max_size=r + 1)))
                strata.append(Stratum(sid, tuple(draw(st.permutations(span))), facets))
                on_span.setdefault(span, []).append(sid)
    return SncConfiguration("facets", tuple(Component(c) for c in comps),
                            tuple(draw(st.permutations(strata))))


class TestFacetsMatchReference:
    """Facet resolution on vertex tuples against the frozenset-keyed
    reference in ``tests/facets_reference.py``."""

    @settings(max_examples=400, deadline=None)
    @given(facet_configs() | parallel_configs())
    def test_problems_facets_and_vertices_agree(self, cfg):
        facets, vertices, problems = reference_facets(cfg)
        got_problems, got_facets, got_vertices = cfg._validation
        assert got_vertices == vertices
        # the facets of every stratum whose facets resolve, in listing order
        assert list(got_facets.items()) == list(facets.items())
        if problems:
            assert list(got_problems) == list(problems)
            return
        try:
            DeltaComplex(_checked_simplices(cfg))
        except ValidationError as err:
            assert list(got_problems) == err.problems
        else:
            assert got_problems == ()


def test_has_rational_point():
    assert has_rational_point([1], 1)
    assert not has_rational_point([2], 1)
    assert has_rational_point([2], 4)
    assert has_rational_point([3, 2], 2)
    assert not has_rational_point([], 6)
