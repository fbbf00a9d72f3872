"""One JSON document in, validated objects out, and back again.

Schema (top-level keys):

* ``name``: optional string.
* ``components``: list of ``{"id", "point_degrees"?}`` in the fixed
  order that orients everything downstream.
* ``strata``: object keyed by depth ("2", "3", ...), each a list of
  ``{"id", "on", "facets"?, "point_degrees"?}``.
* ``frobenius``: optional ``{"order", "components"?, "strata"?}`` where
  the two maps send ids to ids (identity where omitted).
* ``pi1_y0``: optional ``{"generators", "relations"?, "frobenius"?,
  "order"?}``; ``relations`` is a list of generator-coefficient
  vectors, ``frobenius`` a row-major square matrix.
* ``component_maps``: optional object keyed by component id, each
  ``{"generators", "relations"?, "frobenius"?, "order"?, "matrix"}``
  with ``matrix`` row-major, y0-generators tall.
* ``edge_labels``: optional object: edge (depth-2 stratum) id -> vector
  of y0 generator coefficients.

Integers anywhere may be JSON numbers or decimal strings of the ASCII
digits 0-9 with an optional leading ``-``; values that do not fit in
64 bits are emitted as decimal strings so that every JSON reader
round-trips them exactly.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _quote
from typing import Any

from .errors import SnckitError, ValidationError
from .groups import FgAbelianGroup, GaloisModule, ModuleMap
from .matrices import IntMatrix
from .reciprocity import ComponentPi1, ConfigBundle, Pi1Input
from .snc import Component, FrobeniusAction, SncConfiguration, Stratum

__all__ = ["ConfigBundle", "parse_config", "serialize_bundle", "json_text"]

_I64 = 2 ** 63
# generators of one group (y0 or a component's); the Frobenius identity
# and the order check hold generators**2 entries, so a few bytes of
# input could otherwise ask for billions
MAX_GENERATORS = 1000
_int_text = int.__repr__


def _is_decimal(text: str) -> bool:
    """Whether ``text`` is a nonempty run of the ASCII digits 0-9;
    ``str.isdigit`` alone also accepts digits such as ``²`` and ``١``."""
    return text.isascii() and text.isdigit()


class SharedDict(dict):
    """A dict that a report holds in more than one place, whose text
    ``json_text`` writes once per indent and then reuses."""

    __slots__ = ()


class SharedList(list):
    """A list that a report holds in more than one place, whose text
    ``json_text`` writes once per indent and then reuses."""

    __slots__ = ()


def json_text(value: Any) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, with
    integers past 64 bits quoted as decimal strings, written in one
    pass.

    ``json.dumps`` falls back to its pure-Python encoder whenever
    ``indent`` is set.  Here strings and keys go through the C routine
    ``json.encoder.encode_basestring``, so every key must be a string
    (any other raises ``TypeError``), integers through
    ``int.__repr__`` (quoted past 64 bits) and floats through
    ``json.dumps``; any other type raises ``TypeError``.  A shared subtree,
    a ``SharedDict`` or ``SharedList`` object that the value holds more
    than once, is written once at each indent it sits at: its text
    depends only on the object and the indent, so every later place
    reuses that text.
    """
    out: list[str] = []
    _write_json(value, "\n", out, {})
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str],
                shared: dict[tuple[int, str], str]) -> None:
    """Append the text of ``value``, whose closing bracket, if any,
    goes after ``newline`` (the line break and indent it sits at).
    ``shared`` holds the text of each shared subtree already written,
    keyed by the object's id and ``newline``."""
    # containers first: the loops below write small integers and strings
    # themselves, so most values that reach here are dicts and lists
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if type(value) is SharedDict:
            _write_shared(value, newline, out, shared)
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in value.items():
            head = sep + _quote(k) + ": "
            # small integers and strings, most of every report, skip the dispatch
            if type(v) is int and -_I64 < v < _I64:
                out.append(head + _int_text(v))
            elif type(v) is str:
                out.append(head + _quote(v))
            else:
                out.append(head)
                _write_json(v, inner, out, shared)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if type(value) is SharedList:
            _write_shared(value, newline, out, shared)
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            if type(v) is int and -_I64 < v < _I64:
                out.append(sep + _int_text(v))
            elif type(v) is str:
                out.append(sep + _quote(v))
            else:
                out.append(sep)
                _write_json(v, inner, out, shared)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(_int_text(value) if -_I64 < value < _I64 else _quote(str(value)))
    elif isinstance(value, float):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _write_shared(value: SharedDict | SharedList, newline: str, out: list[str],
                  shared: dict[tuple[int, str], str]) -> None:
    """``_write_json`` of a ``SharedDict`` or ``SharedList``: the first
    time at this indent, the text of a plain copy, which ``shared`` then
    keeps; after that, the kept text."""
    key = (id(value), newline)
    text = shared.get(key)
    if text is None:
        start = len(out)
        _write_json(dict(value) if type(value) is SharedDict else list(value),
                    newline, out, shared)
        text = shared[key] = "".join(out[start:])
        out[start:] = [text]
    else:
        out.append(text)


def _plain_ints(value: Any) -> bool:
    """Whether ``value`` is a list of JSON numbers that are integers,
    which ``_Reader.int_list`` takes as they are (a bool is not one)."""
    return type(value) is list and all(type(x) is int for x in value)


class _Reader:
    """Schema walker collecting problems with JSON-path locations.  A
    path is formatted only to report a problem, so input that is
    already well formed formats none."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def fail(self, where: str, message: str) -> None:
        self.problems.append(f"{where}: {message}")

    def int_value(self, value: Any, where: str) -> int | None:
        if isinstance(value, bool):
            self.fail(where, "expected an integer, got a boolean")
            return None
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            body = value[1:] if value.startswith("-") else value
            if _is_decimal(body):
                try:
                    return int(value)
                except ValueError:  # past the interpreter's digit limit
                    self.fail(where, f"decimal integer of {len(body)} digits is too long")
                    return None
            self.fail(where, f"not a decimal integer: {value!r}")
            return None
        self.fail(where, f"expected an integer, got {type(value).__name__}")
        return None

    def str_value(self, value: Any, where: str) -> str | None:
        if isinstance(value, str):
            return value
        self.fail(where, f"expected a string, got {type(value).__name__}")
        return None

    def int_list(self, value: Any, where: str) -> list[int] | None:
        if _plain_ints(value):
            return value
        if not isinstance(value, list):
            self.fail(where, f"expected a list, got {type(value).__name__}")
            return None
        out = []
        for i, x in enumerate(value):
            n = self.int_value(x, f"{where}[{i}]")
            if n is None:
                return None
            out.append(n)
        return out

    def matrix(self, value: Any, where: str, rows: int | None = None,
               cols: int | None = None) -> IntMatrix | None:
        if not isinstance(value, list):
            self.fail(where, f"expected a matrix (list of rows), got {type(value).__name__}")
            return None
        data = []
        for i, row in enumerate(value):
            parsed = self.int_list(row, f"{where}[{i}]")
            if parsed is None:
                return None
            data.append(parsed)
        if rows is not None and len(data) != rows:
            self.fail(where, f"expected {rows} rows, got {len(data)}")
            return None
        width = cols
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                self.fail(where, "rows have different lengths")
                return None
            if width is not None and widths != {width}:
                self.fail(where, f"expected {width} columns, got {widths.pop()}")
                return None
            width = widths.pop()
        return IntMatrix.from_rows(data, cols=width or 0)

    def group(self, obj: Any, where: str) -> GaloisModule | None:
        if not isinstance(obj, dict):
            self.fail(where, "expected an object")
            return None
        gens = self.int_value(obj.get("generators"), f"{where}.generators")
        if gens is None or gens < 0:
            if gens is not None:
                self.fail(f"{where}.generators", "must be nonnegative")
            return None
        if gens > MAX_GENERATORS:
            self.fail(f"{where}.generators", f"at most {MAX_GENERATORS} allowed, got {gens}")
            return None
        relations = IntMatrix.zeros(gens, 0)
        if "relations" in obj:
            rel_rows = obj["relations"]
            if not isinstance(rel_rows, list):
                self.fail(f"{where}.relations", "expected a list of relation vectors")
                return None
            vecs = []
            for i, vec in enumerate(rel_rows):
                parsed = self.int_list(vec, f"{where}.relations[{i}]")
                if parsed is None:
                    return None
                if len(parsed) != gens:
                    self.fail(f"{where}.relations[{i}]",
                              f"length {len(parsed)}, expected {gens}")
                    return None
                vecs.append(parsed)
            relations = IntMatrix.from_columns(vecs, rows=gens)
        frob = IntMatrix.identity(gens)
        if "frobenius" in obj:
            parsed = self.matrix(obj["frobenius"], f"{where}.frobenius",
                                 rows=gens, cols=gens)
            if parsed is None:
                return None
            frob = parsed
        order = 1
        if "order" in obj:
            parsed_order = self.int_value(obj["order"], f"{where}.order")
            if parsed_order is None:
                return None
            order = parsed_order
        if order < 1:
            self.fail(f"{where}.order", "must be positive")
            return None
        try:
            return GaloisModule(FgAbelianGroup(gens, relations), frob, order)
        except SnckitError as exc:
            self.fail(where, str(exc))
            return None


def parse_config(text: str) -> ConfigBundle:
    """Parse and fully validate one document; raises ValidationError
    carrying every problem found."""
    reader = _Reader()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or a number past the digit limit
        raise ValidationError([f"invalid JSON: {exc}"]) from exc
    except RecursionError as exc:  # arrays or objects nested past the decoder's depth
        raise ValidationError(["invalid JSON: nested too deeply"]) from exc
    if not isinstance(doc, dict):
        raise ValidationError(["top level: expected an object"])

    known_keys = {"name", "components", "strata", "frobenius", "pi1_y0",
                  "component_maps", "edge_labels"}
    for key in doc:
        if key not in known_keys:
            reader.fail(key, "unknown top-level key")

    name = ""
    if "name" in doc:
        name = reader.str_value(doc["name"], "name") or ""

    components: list[Component] = []
    comps = doc.get("components")
    if not isinstance(comps, list):
        reader.fail("components", "required list is missing or not a list")
    else:
        for i, item in enumerate(comps):
            if not isinstance(item, dict):
                reader.fail(f"components[{i}]", "expected an object")
                continue
            cid = item.get("id")
            if not isinstance(cid, str):
                reader.str_value(cid, f"components[{i}].id")
                continue
            degrees = (1,)
            if "point_degrees" in item:
                raw = item["point_degrees"]
                parsed = raw if _plain_ints(raw) else reader.int_list(
                    raw, f"components[{i}].point_degrees")
                if parsed is None:
                    continue
                degrees = tuple(parsed)
            components.append(Component(cid, degrees))

    strata: list[Stratum] = []
    strata_doc = doc.get("strata", {})
    if not isinstance(strata_doc, dict):
        reader.fail("strata", "expected an object keyed by depth")
        strata_doc = {}
    for depth_key in sorted(strata_doc, key=lambda k: (len(k), k)):
        where = f"strata[{depth_key!r}]"
        depth = reader.int_value(depth_key, where) if _is_decimal(depth_key) else 0
        if depth is None:  # past the digit limit; int_value named the problem
            continue
        if depth < 2:
            reader.fail(where, "depth key must be an integer of at least 2")
            continue
        items = strata_doc[depth_key]
        if not isinstance(items, list):
            reader.fail(where, "expected a list")
            continue
        for i, item in enumerate(items):
            if not isinstance(item, dict):
                reader.fail(f"{where}[{i}]", "expected an object")
                continue
            sid = item.get("id")
            if not isinstance(sid, str):
                reader.str_value(sid, f"{where}[{i}].id")
                continue
            on_raw = item.get("on")
            if not isinstance(on_raw, list) or not all(map(str.__instancecheck__, on_raw)):
                reader.fail(f"{where}[{i}].on", "expected a list of component ids")
                continue
            if len(on_raw) != depth:
                reader.fail(f"{where}[{i}].on",
                            f"{len(on_raw)} components listed under depth {depth}")
                continue
            facets = None
            if "facets" in item:
                fr = item["facets"]
                if not isinstance(fr, list) or not all(map(str.__instancecheck__, fr)):
                    reader.fail(f"{where}[{i}].facets", "expected a list of stratum ids")
                    continue
                facets = tuple(fr)
            degrees = (1,)
            if "point_degrees" in item:
                raw = item["point_degrees"]
                parsed = raw if _plain_ints(raw) else reader.int_list(
                    raw, f"{where}[{i}].point_degrees")
                if parsed is None:
                    continue
                degrees = tuple(parsed)
            strata.append(Stratum._of(sid, tuple(on_raw), facets, degrees))

    frobenius = None
    if "frobenius" in doc:
        fr_doc = doc["frobenius"]
        if not isinstance(fr_doc, dict):
            reader.fail("frobenius", "expected an object")
        else:
            order = reader.int_value(fr_doc.get("order"), "frobenius.order")
            comp_perm: dict[str, str] = {}
            strat_perm: dict[str, str] = {}
            for field_name, store in (("components", comp_perm), ("strata", strat_perm)):
                raw = fr_doc.get(field_name, {})
                if not isinstance(raw, dict):
                    reader.fail(f"frobenius.{field_name}", "expected an object")
                    continue
                for k, v in raw.items():
                    if isinstance(v, str):
                        store[k] = v
                    else:
                        reader.str_value(v, f"frobenius.{field_name}[{k!r}]")
            if order is not None:
                if order < 1:
                    reader.fail("frobenius.order", "must be positive")
                else:
                    frobenius = FrobeniusAction(order, comp_perm, strat_perm)

    cfg = SncConfiguration(name, tuple(components), tuple(strata), frobenius)

    y0 = None
    if "pi1_y0" in doc:
        y0 = reader.group(doc["pi1_y0"], "pi1_y0")
    if y0 is None:
        y0 = GaloisModule(FgAbelianGroup.trivial(), IntMatrix.identity(0), 1)

    component_maps: dict[str, ComponentPi1] = {}
    cm_doc = doc.get("component_maps", {})
    if not isinstance(cm_doc, dict):
        reader.fail("component_maps", "expected an object keyed by component id")
        cm_doc = {}
    for cid in sorted(cm_doc):
        where = f"component_maps[{cid!r}]"
        entry = cm_doc[cid]
        if not isinstance(entry, dict):
            reader.fail(where, "expected an object")
            continue
        module = reader.group(entry, where)
        if module is None:
            continue
        mat = reader.matrix(
            entry.get("matrix"), f"{where}.matrix",
            rows=y0.group.generator_count, cols=module.group.generator_count,
        )
        if mat is None:
            continue
        try:
            to_y0 = ModuleMap(module.group, y0.group, mat)
        except SnckitError as exc:
            reader.fail(f"{where}.matrix", str(exc))
            continue
        component_maps[cid] = ComponentPi1(module, to_y0)

    labels: dict[str, tuple[int, ...]] = {}
    labels_doc = doc.get("edge_labels", {})
    if not isinstance(labels_doc, dict):
        reader.fail("edge_labels", "expected an object keyed by edge id")
        labels_doc = {}
    for eid in sorted(labels_doc):
        parsed = reader.int_list(labels_doc[eid], f"edge_labels[{eid!r}]")
        if parsed is not None:
            labels[eid] = tuple(parsed)

    if reader.problems:
        raise ValidationError(reader.problems)

    # the bundle keeps its check, so the reciprocity entry points that
    # take it do not check it again
    bundle = ConfigBundle(name, cfg, Pi1Input(y0, component_maps), labels)
    problems, label_problems = bundle._problems
    if problems or label_problems:
        raise ValidationError([*problems, *label_problems])
    return bundle


def _group_doc(module: GaloisModule) -> dict:
    g = module.group
    doc: dict[str, Any] = {"generators": g.generator_count}
    if g.relations.cols:
        doc["relations"] = [list(g.relations.col(j)) for j in range(g.relations.cols)]
    if not module.frobenius.is_identity():
        doc["frobenius"] = module.frobenius.to_rows()
    if module.order != 1:
        doc["order"] = module.order
    return doc


def serialize_bundle(bundle: ConfigBundle) -> str:
    """The inverse of parse_config, up to defaulted fields."""
    cfg = bundle.config
    doc: dict[str, Any] = {"name": bundle.name}
    doc["components"] = [
        {"id": c.id, "point_degrees": list(c.point_degrees)} for c in cfg.components
    ]
    strata: dict[str, list] = {}
    for r in cfg.depths():
        rows = []
        for s in cfg.strata_of_depth(r):
            item: dict[str, Any] = {"id": s.id, "on": list(s.on)}
            if s.facets is not None:
                item["facets"] = list(s.facets)
            item["point_degrees"] = list(s.point_degrees)
            rows.append(item)
        strata[str(r)] = rows
    doc["strata"] = strata
    if cfg.frobenius is not None:
        fr = cfg.frobenius
        doc["frobenius"] = {
            "order": fr.order,
            "components": {k: fr.component_perm[k] for k in sorted(fr.component_perm)},
            "strata": {k: fr.stratum_perm[k] for k in sorted(fr.stratum_perm)},
        }
    doc["pi1_y0"] = _group_doc(bundle.pi1.y0)
    if bundle.pi1.component_maps:
        doc["component_maps"] = {
            cid: {**_group_doc(cp.module), "matrix": cp.map_to_y0.matrix.to_rows()}
            for cid, cp in sorted(bundle.pi1.component_maps.items())
        }
    if bundle.labels:
        doc["edge_labels"] = {eid: list(vec) for eid, vec in sorted(bundle.labels.items())}
    return json_text(doc) + "\n"
