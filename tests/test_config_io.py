"""Parsing, validation messages with JSON paths, and serialization."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from snckit.config_io import (
    ConfigBundle,
    encode_json_value,
    json_text,
    parse_config,
    serialize_bundle,
)
from snckit.errors import ValidationError
from snckit.fixtures import fermat_bundle, rulings_bundle


MINIMAL = {
    "name": "pair",
    "components": [{"id": "A"}, {"id": "B"}],
    "strata": {"2": [{"id": "s", "on": ["A", "B"]}]},
}


def _doc(**overrides) -> str:
    doc = {**MINIMAL, **overrides}
    return json.dumps(doc)


def _problems(text: str) -> list[str]:
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    return info.value.problems


class TestParseBasics:
    def test_minimal_document(self):
        bundle = parse_config(_doc())
        assert bundle.name == "pair"
        assert [c.id for c in bundle.config.components] == ["A", "B"]
        assert bundle.config.strata[0].on == ("A", "B")
        assert bundle.pi1.y0.group.is_trivial()
        assert bundle.labels == {}

    def test_invalid_json(self):
        assert _problems("{nope")[0].startswith("invalid JSON")

    def test_top_level_not_object(self):
        assert _problems("[1, 2]") == ["top level: expected an object"]

    def test_unknown_key(self):
        problems = _problems(_doc(extra=1))
        assert "extra: unknown top-level key" in problems

    def test_missing_components(self):
        problems = _problems(json.dumps({"strata": {}}))
        assert any(p.startswith("components:") for p in problems)

    def test_empty_components_is_semantic_error(self):
        problems = _problems(json.dumps({"components": []}))
        assert problems == ["at least one component required"]

    def test_component_id_location(self):
        problems = _problems(json.dumps({"components": [{"id": 7}]}))
        assert any(p.startswith("components[0].id:") for p in problems)

    def test_bad_depth_key(self):
        problems = _problems(_doc(strata={"1": []}))
        assert any("depth key" in p for p in problems)

    def test_on_length_must_match_depth(self):
        problems = _problems(_doc(strata={"3": [{"id": "s", "on": ["A", "B"]}]}))
        assert any("2 components listed under depth 3" in p for p in problems)

    def test_integers_as_strings(self):
        doc = json.loads(_doc())
        doc["components"][0]["point_degrees"] = ["2", 3]
        bundle = parse_config(json.dumps(doc))
        assert bundle.config.components[0].point_degrees == (2, 3)

    def test_rejects_booleans_and_junk(self):
        doc = json.loads(_doc())
        doc["components"][0]["point_degrees"] = [True]
        assert any("boolean" in p for p in _problems(json.dumps(doc)))
        doc["components"][0]["point_degrees"] = ["1.5"]
        assert any("not a decimal integer" in p for p in _problems(json.dumps(doc)))


class TestParsePi1AndLabels:
    def test_group_parsing(self):
        doc = json.loads(_doc())
        doc["pi1_y0"] = {
            "generators": 2,
            "relations": [[4, 0], [0, 6]],
            "frobenius": [[1, 0], [0, -1]],
            "order": 2,
        }
        bundle = parse_config(json.dumps(doc))
        y0 = bundle.pi1.y0
        assert y0.group.invariant_factors == (2, 12)
        assert y0.order == 2
        assert y0.frobenius.to_rows() == [[1, 0], [0, -1]]

    def test_relation_vector_length(self):
        doc = json.loads(_doc())
        doc["pi1_y0"] = {"generators": 2, "relations": [[1, 2, 3]]}
        problems = _problems(json.dumps(doc))
        assert any(p.startswith("pi1_y0.relations[0]:") for p in problems)

    def test_frobenius_order_must_hold(self):
        doc = json.loads(_doc())
        doc["pi1_y0"] = {"generators": 1, "frobenius": [[2]], "order": 2}
        problems = _problems(json.dumps(doc))
        assert any(p.startswith("pi1_y0:") for p in problems)

    def test_component_map_shape_checked_against_y0(self):
        doc = json.loads(_doc())
        doc["pi1_y0"] = {"generators": 2, "relations": [[2, 0], [0, 2]]}
        doc["component_maps"] = {
            "A": {"generators": 1, "relations": [[2]], "matrix": [[1], [0]]},
        }
        bundle = parse_config(json.dumps(doc))
        assert bundle.pi1.component_maps["A"].map_to_y0.matrix.to_rows() == [[1], [0]]
        doc["component_maps"]["A"]["matrix"] = [[1]]
        problems = _problems(json.dumps(doc))
        assert any("expected 2 rows" in p for p in problems)

    def test_label_wrong_length_names_edge(self):
        doc = json.loads(_doc())
        doc["pi1_y0"] = {"generators": 1, "relations": [[3]]}
        doc["edge_labels"] = {"s": [1, 2]}
        problems = _problems(json.dumps(doc))
        assert problems == [
            "label vector of wrong length on edge 's': got 2, y0 has 1 generators"
        ]

    def test_semantic_checks_run_in_order(self):
        # config problems mask pi1 problems, which mask label problems
        doc = json.loads(_doc())
        doc["strata"]["2"][0]["on"] = ["A", "ZZ"]
        doc["component_maps"] = {"nope": {"generators": 0, "matrix": []}}
        problems = _problems(json.dumps(doc))
        assert all("unknown components" in p or "ZZ" in p for p in problems)


class TestRoundTrip:
    @pytest.mark.parametrize("bundle", [rulings_bundle(), fermat_bundle(7)],
                             ids=["rulings", "fermat7"])
    def test_serialize_parse_serialize(self, bundle):
        text = serialize_bundle(bundle)
        again = parse_config(text)
        assert serialize_bundle(again) == text

    def test_defaults_are_omitted(self):
        doc = json.loads(serialize_bundle(rulings_bundle()))
        assert "frobenius" not in doc
        assert doc["pi1_y0"] == {"generators": 0}
        assert "component_maps" not in doc
        assert "edge_labels" not in doc

    def test_big_integers_round_trip(self):
        big = 2 ** 80 + 7
        doc = json.loads(_doc())
        doc["pi1_y0"] = {"generators": 1, "relations": [[str(big)]]}
        doc["edge_labels"] = {"s": [str(big - 1)]}
        bundle = parse_config(json.dumps(doc))
        assert bundle.pi1.y0.group.invariant_factors == (big,)
        assert bundle.labels["s"] == (big - 1,)
        text = serialize_bundle(bundle)
        emitted = json.loads(text)
        assert emitted["pi1_y0"]["relations"] == [[str(big)]]
        assert emitted["edge_labels"]["s"] == [str(big - 1)]
        assert serialize_bundle(parse_config(text)) == text


class TestEncodeJsonValue:
    def test_small_ints_stay_numbers(self):
        assert encode_json_value({"a": [1, -(2 ** 62)]}) == {"a": [1, -(2 ** 62)]}

    def test_large_ints_become_strings(self):
        assert encode_json_value(2 ** 63) == str(2 ** 63)
        assert encode_json_value(-(2 ** 63)) == str(-(2 ** 63))

    def test_bools_untouched(self):
        assert encode_json_value([True, False]) == [True, False]

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            encode_json_value({1, 2})



# every kind of value a report holds, with integers on both sides of
# ±2^63 and keys that are not strings, some equal as strings
_edge_ints = st.sampled_from([2 ** 63 - 1, 2 ** 63, -(2 ** 63 - 1), -(2 ** 63)])
_report_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(-(2 ** 64), 2 ** 64) | _edge_ints,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4) | st.integers(-2, 2), inner,
                                     max_size=4)),
    max_leaves=30,
)


class TestJsonText:
    """The one-pass writer against its oracle, ``json.dumps`` of
    ``encode_json_value``."""

    @given(_report_values)
    @settings(max_examples=400, deadline=None)
    @example({1: "int key", "1": "string key", True: [], "": {}})
    @example({"ключ": ["é\u2028\"\\\n", 2 ** 63, -(2 ** 63) + 1, float("nan"), -0.0]})
    def test_matches_json_dumps(self, value):
        expected = json.dumps(encode_json_value(value), indent=2, ensure_ascii=False)
        assert json_text(value) == expected

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            json_text({"a": [{1, 2}]})

# Integers stay small, so no document can ask for a huge group; the
# string forms include digits outside ASCII and past the digit limit.
_small = st.integers(-2, 4)
_ints = _small | _small.map(str) | st.sampled_from(["²", "١٢", "-", "", "9" * 5000])
_ids = st.sampled_from(["A", "B", "C", "s", "t", ""])
_json = st.recursive(
    st.none() | st.booleans() | _small | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10,
)


def _or_any(schema):
    """A schema-shaped value, or any JSON value in its place."""
    return schema | _json


_vector = st.lists(_ints, max_size=3)
_group_fields = {"relations": st.lists(_vector, max_size=3),
                 "frobenius": st.lists(_vector, max_size=3), "order": _ints}
_group = st.fixed_dictionaries({"generators": _ints}, optional=_group_fields)
_component_map = st.fixed_dictionaries(
    {"generators": _ints, "matrix": st.lists(_vector, max_size=3)}, optional=_group_fields)
_component = st.fixed_dictionaries({"id": _ids}, optional={"point_degrees": _vector})
_stratum = st.fixed_dictionaries(
    {"id": _ids, "on": st.lists(_ids, max_size=4)},
    optional={"facets": st.lists(_ids, max_size=4), "point_degrees": _vector})
_documents = st.fixed_dictionaries(
    {"components": _or_any(st.lists(_component, max_size=4))},
    optional={
        "name": _or_any(st.text(max_size=3)),
        "strata": _or_any(st.dictionaries(
            st.sampled_from(["1", "2", "3", "02", "²", "x", "9" * 5000]),
            st.lists(_stratum, max_size=4), max_size=3)),
        "frobenius": _or_any(st.fixed_dictionaries(
            {"order": _ints},
            optional={"components": st.dictionaries(_ids, _ids, max_size=3),
                      "strata": st.dictionaries(_ids, _ids, max_size=3)})),
        "pi1_y0": _or_any(_group),
        "component_maps": _or_any(st.dictionaries(_ids, _component_map, max_size=2)),
        "edge_labels": _or_any(st.dictionaries(_ids, _vector, max_size=3)),
    },
)


def _bundle_or_validation_error(text: str) -> None:
    try:
        bundle = parse_config(text)
    except ValidationError:
        return
    assert isinstance(bundle, ConfigBundle)


class TestParseNeverLeaks:
    """Any input ends in a bundle or a ValidationError, never another
    exception."""

    @given(st.text(max_size=20) | _json.map(json.dumps))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json(self, text):
        _bundle_or_validation_error(text)

    @given(_documents)
    @settings(max_examples=300, deadline=None)
    @example({"components": [{"id": "A"}], "strata": {"²": []}})
    @example({"components": [{"id": "A"}], "strata": {"9" * 5000: []}})
    @example({"components": [{"id": "A"}], "pi1_y0": {"generators": "²"}})
    @example({"components": [{"id": "A"}], "pi1_y0": {"generators": "١٢"}})
    def test_schema_shaped_json(self, doc):
        _bundle_or_validation_error(json.dumps(doc))
