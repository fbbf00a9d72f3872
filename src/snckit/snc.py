"""Intersection-combinatorics input model and its dual complex.

A configuration lists irreducible components in a fixed order, plus
the strata where they cross: a depth-r stratum lies on exactly r
distinct components.  The dual complex has one vertex per component
and one (r-1)-simplex per depth-r stratum, vertices sorted by the
fixed component order, boundary signs positional.

Facets of a deep stratum are themselves strata.  They are inferred
when a unique depth-(r-1) stratum sits on each component subset;
otherwise (parallel strata) explicit ``facets`` are required and
inference failure is a validation error, never a guess.

Validation proves everything the checking ``DeltaComplex`` constructor
would check of the dual complex except d∘d = 0, so the dual complex is
built once, in one pass over the strata, through the trusted
``DeltaComplex._of``.  d∘d = 0 is checked only on simplices with a
facet whose own facets were given explicitly: wherever facets were
inferred, the facets of facets that must cancel are the same unique
stratum.

An optional Frobenius action permutes components and strata
compatibly; its admissibility for a given scalar extension is the
business of the extension machinery, not of validation here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import ChainMap, DeltaComplex, Simplex
from .errors import ValidationError

__all__ = [
    "Component",
    "Stratum",
    "FrobeniusAction",
    "SncConfiguration",
    "validate_config",
    "ensure_valid",
    "build_dual_complex",
    "resolved_facets",
    "has_rational_point",
]


@dataclass(frozen=True)
class Component:
    """An irreducible component; ``point_degrees`` lists degrees of
    known closed points (degree d splits into rational points exactly
    over extensions of degree divisible by d)."""

    id: str
    point_degrees: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class Stratum:
    """A depth-r crossing stratum on the r components in ``on``.
    ``facets`` optionally names the depth-(r-1) strata bounding it, in
    any order; they are matched to omitted components during
    resolution."""

    id: str
    on: tuple[str, ...]
    facets: tuple[str, ...] | None = None
    point_degrees: tuple[int, ...] = (1,)

    @property
    def depth(self) -> int:
        return len(self.on)


@dataclass(frozen=True)
class FrobeniusAction:
    """The arithmetic Frobenius as a permutation of ids.  ``order`` is
    the degree over which the action becomes trivial (the field of
    definition of everything)."""

    order: int
    component_perm: Mapping[str, str] = field(default_factory=dict)
    stratum_perm: Mapping[str, str] = field(default_factory=dict)

    def component_image(self, cid: str, f: int = 1) -> str:
        return _walk(self.component_perm, cid, f % self.order if self.order > 1 else 0)

    def stratum_image(self, sid: str, f: int = 1) -> str:
        return _walk(self.stratum_perm, sid, f % self.order if self.order > 1 else 0)


def _walk(perm: Mapping[str, str], x: str, steps: int) -> str:
    """``x`` moved ``steps`` times along ``perm`` (identity off its
    keys), going round x's cycle at most once."""
    path = [x]
    for _ in range(steps):
        y = perm.get(path[-1], path[-1])
        if y == x:
            return path[steps % len(path)]
        path.append(y)
    return path[-1]


_TRIVIAL = FrobeniusAction(order=1)


def _action(cfg: "SncConfiguration") -> FrobeniusAction:
    return cfg.frobenius if cfg.frobenius is not None else _TRIVIAL


def _orbits(ids: Sequence[str], step: Callable[[str], str],
            f: int = 1) -> list[tuple[str, ...]]:
    """Orbits of the f-th power of the permutation ``step``, scanning
    ``ids`` in order, so each orbit starts at its earliest member and
    orbits are listed by that member.

    Each orbit is read off the cycle of ``step`` through its first
    member: a cycle x_0, ..., x_{L-1} splits into gcd(f, L) orbits
    x_k, x_{k+f}, x_{k+2f}, ... (indices mod L), so the cost is the
    cycle lengths, whatever f is.
    """
    cycle_of: dict[str, tuple[list[str], int]] = {}
    seen: set[str] = set()
    out: list[tuple[str, ...]] = []
    for x in ids:
        if x in seen:
            continue
        if x not in cycle_of:
            cycle = [x]
            y = step(x)
            while y != x:
                cycle.append(y)
                y = step(y)
            for k, member in enumerate(cycle):
                cycle_of[member] = (cycle, k)
        cycle, k = cycle_of[x]
        length = len(cycle)
        orbit = tuple(cycle[(k + i * f) % length] for i in range(length // gcd(f, length)))
        seen.update(orbit)
        out.append(orbit)
    return out


@dataclass(frozen=True)
class SncConfiguration:
    """Frozen, so its validation problems, resolved facets, dual
    complex and Frobenius chain map are derived once, on first use, and
    kept on the object."""

    name: str
    components: tuple[Component, ...]
    strata: tuple[Stratum, ...] = ()
    frobenius: FrobeniusAction | None = None

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(_find_problems(self))

    @cached_property
    def _facets(self) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]],
                               tuple[str, ...]]:
        return _resolve_facets(self)

    @cached_property
    def _dual_complex(self) -> DeltaComplex:
        # Built only once validation found no problem, so _of may skip
        # what validation proved:
        # - ids are distinct: _find_problems rejects a duplicate id
        #   across components and strata;
        # - there is a vertex: it rejects an empty component list;
        # - every stratum lies on known, distinct components, and so is
        #   a simplex on distinct vertices: it rejects the rest;
        # - vertex order: the vertex tuples of _resolve_facets are
        #   sorted by the component order, which is layer 0's order;
        # - facet ids, count and spans: _resolve_facets gives every
        #   stratum one facet per vertex, the one omitting it, which is
        #   a depth-(r-1) stratum on the other components (or, for an
        #   edge, the other component); so depths run from 2 without
        #   gaps.
        # d∘d = 0 is checked on the simplices with a facet whose own
        # facets were given explicitly.  In any other simplex every facet
        # is an edge or had its facets inferred, and inference takes the
        # only stratum on a set of components; so facet j's facet i and
        # facet i's facet j-1, which lie on the same components, are
        # both the only stratum (or component) there, and their signs
        # cancel.
        facets, vertices, _ = self._facets
        layers: list[list[Simplex]] = [[Simplex.vertex(c.id) for c in self.components]]
        explicit: set[str] = set()
        for s in self.strata:
            verts = vertices[s.id]
            while len(layers) < len(verts):
                layers.append([])
            layers[len(verts) - 1].append(Simplex(s.id, verts, facets[s.id]))
            if s.facets is not None and len(verts) >= 3:
                explicit.add(s.id)
        suspects = [t for layer in layers[3:] for t in layer
                    if not explicit.isdisjoint(t.facets)] if explicit else []
        return DeltaComplex._of(layers, suspects)

    @cached_property
    def _frobenius_chain(self) -> ChainMap:
        action = _action(self)
        image = {c.id: action.component_image(c.id) for c in self.components}
        image.update((s.id, action.stratum_image(s.id)) for s in self.strata)
        return ChainMap.induced(self._dual_complex, self._dual_complex, image)

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    # id lookups: the first of repeated ids wins, as a scan would find
    # it (validation reports the repeats); a miss raises KeyError(id)

    @cached_property
    def _component_by_id(self) -> dict[str, Component]:
        return {c.id: c for c in reversed(self.components)}

    @cached_property
    def _stratum_by_id(self) -> dict[str, Stratum]:
        return {s.id: s for s in reversed(self.strata)}

    def component(self, cid: str) -> Component:
        return self._component_by_id[cid]

    def stratum(self, sid: str) -> Stratum:
        return self._stratum_by_id[sid]

    def depths(self) -> tuple[int, ...]:
        return tuple(sorted({s.depth for s in self.strata}))

    def strata_of_depth(self, r: int) -> tuple[Stratum, ...]:
        return tuple(s for s in self.strata if s.depth == r)


def has_rational_point(point_degrees: Iterable[int], f: int) -> bool:
    """Whether a place of degree f sees a rational point: some
    recorded closed-point degree divides f."""
    return any(f % d == 0 for d in point_degrees)


def _check_degrees(problems: list[str], kind: str, oid: str, degrees: Sequence[int]) -> None:
    for d in degrees:
        if d < 1:
            problems.append(f"{kind} {oid!r}: point degree {d} is not positive")


def _perm_problems(label: str, perm: Mapping[str, str], domain: Sequence[str],
                   problems: list[str]) -> bool:
    """Append problems unless ``perm`` (with identity default) is a
    bijection of ``domain``.  Returns True when clean."""
    ok = True
    dom = set(domain)
    for a, b in perm.items():
        if a not in dom:
            problems.append(f"frobenius: {label} permutation maps unknown id {a!r}")
            ok = False
        if b not in dom:
            problems.append(f"frobenius: {label} permutation targets unknown id {b!r}")
            ok = False
    if not ok:
        return False
    images = [perm.get(x, x) for x in domain]
    if len(set(images)) != len(domain):
        problems.append(f"frobenius: {label} permutation is not a bijection")
        return False
    return True


def validate_config(cfg: SncConfiguration) -> list[str]:
    """All violated invariants, empty when the configuration is OK."""
    return list(cfg._problems)


def _find_problems(cfg: SncConfiguration) -> list[str]:
    problems: list[str] = []
    if not cfg.components:
        problems.append("at least one component required")
        return problems

    seen: set[str] = set()
    for c in cfg.components:
        if not c.id:
            problems.append("component with empty id")
        if c.id in seen:
            problems.append(f"duplicate component id {c.id!r}")
        seen.add(c.id)
        _check_degrees(problems, "component", c.id, c.point_degrees)
    comp_set = set(cfg.component_ids())

    for s in cfg.strata:
        if s.id in seen:
            problems.append(f"duplicate id {s.id!r} (ids are global across components and strata)")
        seen.add(s.id)
        _check_degrees(problems, "stratum", s.id, s.point_degrees)
        depth = len(s.on)
        if depth < 2:
            problems.append(f"stratum {s.id!r} has depth {depth}, expected at least 2")
            continue
        if len(set(s.on)) != depth:
            problems.append(f"stratum {s.id!r}: repeated component in {s.on}")
            continue
        if not comp_set.issuperset(s.on):
            unknown = [c for c in s.on if c not in comp_set]
            problems.append(f"stratum {s.id!r} lies on unknown components {unknown}")

    if not problems:
        problems.extend(cfg._facets[2])

    if cfg.frobenius is not None and not problems:
        problems.extend(_frobenius_problems(cfg))
    return problems


def _frobenius_problems(cfg: SncConfiguration) -> list[str]:
    problems: list[str] = []
    fr = cfg.frobenius
    assert fr is not None
    if fr.order < 1:
        problems.append("frobenius: order must be positive")
        return problems
    comp_ids = [c.id for c in cfg.components]
    strat_ids = [s.id for s in cfg.strata]
    if not _perm_problems("component", fr.component_perm, comp_ids, problems):
        return problems
    if not _perm_problems("stratum", fr.stratum_perm, strat_ids, problems):
        return problems

    for s in cfg.strata:
        image = cfg.stratum(fr.stratum_image(s.id))
        if image.depth != s.depth:
            problems.append(
                f"frobenius: stratum {s.id!r} (depth {s.depth}) maps to "
                f"{image.id!r} (depth {image.depth})"
            )
            continue
        want = {fr.component_image(c) for c in s.on}
        if set(image.on) != want:
            problems.append(
                f"frobenius: stratum {s.id!r} maps to {image.id!r}, which does not "
                f"lie on the image components"
            )
    if problems:
        return problems

    # a permutation's order divides ``order`` exactly when each orbit's length does
    for label, perm, ids in (("component", fr.component_perm, comp_ids),
                             ("stratum", fr.stratum_perm, strat_ids)):
        if any(fr.order % len(o) for o in _orbits(ids, lambda x: perm.get(x, x))):
            problems.append(f"frobenius: {label} permutation order does not divide {fr.order}")
    if problems:
        return problems

    facets = cfg._facets[0]
    for s in cfg.strata:
        if s.depth < 3:
            continue
        image = cfg.stratum(fr.stratum_image(s.id))
        image_facets = set(facets[image.id])
        for fid in facets[s.id]:
            if fr.stratum_image(fid) not in image_facets:
                problems.append(
                    f"frobenius: facet {fid!r} of stratum {s.id!r} does not map to "
                    f"a facet of {image.id!r}"
                )
    return problems


def ensure_valid(cfg: SncConfiguration) -> None:
    problems = validate_config(cfg)
    if problems:
        raise ValidationError(problems)


def resolved_facets(cfg: SncConfiguration) -> dict[str, tuple[str, ...]]:
    """Positional facet ids for every stratum: entry i of a stratum's
    tuple omits vertex i of its sorted vertex tuple.  Depth-2 strata
    get component ids.  Raises when inference is ambiguous or a facet
    is missing."""
    facets, _, problems = cfg._facets
    if problems:
        raise ValidationError(list(problems))
    return dict(facets)


def _resolve_facets(cfg: SncConfiguration) -> tuple[dict[str, tuple[str, ...]],
                                                    dict[str, tuple[str, ...]],
                                                    tuple[str, ...]]:
    """The positional facets of every stratum whose facets resolve, the
    vertex tuple of every stratum, sorted by the component order, and
    the problems found; a stratum on an unknown component is such a
    problem and is skipped.  ``_find_problems`` reads them only when
    every stratum has depth at least 2 and lies on known, distinct
    components."""
    problems: list[str] = []
    order = {c.id: i for i, c in enumerate(cfg.components)}
    on_sets = [frozenset(s.on) for s in cfg.strata]
    by_on: dict[frozenset, list[str]] = {}
    for s, on in zip(cfg.strata, on_sets):
        by_on.setdefault(on, []).append(s.id)
    out: dict[str, tuple[str, ...]] = {}
    vertices: dict[str, tuple[str, ...]] = {}

    for s, on in zip(cfg.strata, on_sets):
        try:
            verts = vertices[s.id] = tuple(sorted(s.on, key=order.__getitem__))
        except KeyError:
            unknown = [c for c in s.on if c not in order]
            problems.append(f"stratum {s.id!r} lies on unknown components {unknown}")
            continue
        r = len(verts)
        if r == 2:
            if s.facets is not None:
                given = set(s.facets)
                if given != set(verts):
                    problems.append(
                        f"stratum {s.id!r}: explicit facets {sorted(given)} must be "
                        f"its two components"
                    )
                    continue
            out[s.id] = (verts[1], verts[0])
            continue

        positional: list[str | None] = [None] * r
        if s.facets is not None:
            if len(s.facets) != r:
                problems.append(
                    f"stratum {s.id!r}: {len(s.facets)} explicit facets, "
                    f"expected {r}"
                )
                continue
            ok = True
            for fid in s.facets:
                f = cfg._stratum_by_id.get(fid)
                if f is None:
                    problems.append(f"stratum {s.id!r}: facet {fid!r} does not exist")
                    ok = False
                    continue
                missing = on - set(f.on)
                if f.depth != r - 1 or not on.issuperset(f.on) or len(missing) != 1:
                    problems.append(
                        f"stratum {s.id!r}: facet {fid!r} does not omit exactly one "
                        f"of its components"
                    )
                    ok = False
                    continue
                (omitted,) = missing
                i = verts.index(omitted)
                if positional[i] is not None:
                    problems.append(
                        f"stratum {s.id!r}: facets {positional[i]!r} and {fid!r} omit "
                        f"the same component"
                    )
                    ok = False
                    continue
                positional[i] = fid
            if ok and all(p is not None for p in positional):
                out[s.id] = tuple(positional)  # type: ignore[arg-type]
            elif ok:
                problems.append(f"stratum {s.id!r}: explicit facets do not cover all sides")
            continue

        ok = True
        for i, v in enumerate(verts):
            key = on - {v}
            candidates = by_on.get(key, [])
            if len(candidates) == 1:
                positional[i] = candidates[0]
            elif not candidates:
                problems.append(
                    f"stratum {s.id!r}: no depth-{r - 1} stratum on "
                    f"{tuple(sorted(key, key=order.__getitem__))}"
                )
                ok = False
            else:
                problems.append(
                    f"stratum {s.id!r}: facet ambiguity, candidates {sorted(candidates)} "
                    f"all lie on the same components; give explicit facets"
                )
                ok = False
        if ok:
            out[s.id] = tuple(positional)  # type: ignore[arg-type]

    return out, vertices, tuple(problems)


def build_dual_complex(cfg: SncConfiguration) -> DeltaComplex:
    """The dual complex: components become vertices (in order), each
    depth-r stratum one (r-1)-simplex.  Listing order per dimension is
    the stratum listing order."""
    ensure_valid(cfg)
    return cfg._dual_complex
