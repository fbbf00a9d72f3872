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

Validation sorts each stratum's components by the component order
once.  That vertex tuple shows unknown components, keys the strata for
facet inference (facet i is the lookup of the tuple without vertex i)
and places explicit facets.  Validation proves everything the checking
``DeltaComplex`` constructor would check of the dual complex, d∘d = 0
included, so nothing needs the complex to validate a configuration; it
is built once, when first read, in one pass over the strata, through
the trusted ``DeltaComplex._of``.  d∘d = 0 is summed only on simplices
with a facet whose own facets were given explicitly: wherever facets
were inferred, the facets of facets that must cancel are the same
unique stratum.

An optional Frobenius action permutes components and strata
compatibly; its admissibility for a given scalar extension is the
business of the extension machinery, not of validation here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import gcd
from typing import Iterable, Mapping, Sequence

from .complexes import ChainMap, DeltaComplex, Simplex, _boundary_squared_problems, _new, _set
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

    @classmethod
    def _of(cls, sid: str, on: tuple[str, ...], facets: tuple[str, ...] | None,
            point_degrees: tuple[int, ...]) -> "Stratum":
        """``Stratum(sid, on, facets, point_degrees)`` at half the cost,
        as ``Simplex._of``."""
        s = _new(cls)
        _set(s, "id", sid)
        _set(s, "on", on)
        _set(s, "facets", facets)
        _set(s, "point_degrees", point_degrees)
        return s


@dataclass(frozen=True)
class FrobeniusAction:
    """The arithmetic Frobenius as a permutation of ids.  ``order`` is
    the degree over which the action becomes trivial (the field of
    definition of everything)."""

    order: int
    component_perm: Mapping[str, str] = field(default_factory=dict)
    stratum_perm: Mapping[str, str] = field(default_factory=dict)


_TRIVIAL = FrobeniusAction(order=1)


def _action(cfg: "SncConfiguration") -> FrobeniusAction:
    return cfg.frobenius if cfg.frobenius is not None else _TRIVIAL


def _orbits(cfg: "SncConfiguration", ids: Sequence[str], f: int) -> list[tuple[str, ...]]:
    """Orbits of Frobenius^f on ``ids``, scanning them in order, so
    each orbit starts at its earliest member and orbits are listed by
    that member.

    Each orbit is read off the cached Frobenius cycle through its first
    member: a cycle x_0, ..., x_{L-1} splits into gcd(f, L) orbits
    x_k, x_{k+f}, x_{k+2f}, ... (indices mod L), so the cost is the
    orbit lengths, whatever f is.  When L divides f the orbit is x
    alone; ``ids`` are distinct, so it is emitted at once and x is not
    recorded as seen.
    """
    cycles = cfg._frobenius_cycles
    seen: set[str] = set()
    out: list[tuple[str, ...]] = []
    for x in ids:
        if x in seen:
            continue
        cycle, k = cycles[x]
        length = len(cycle)
        if not f % length:
            out.append((x,))
            continue
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
    def _validation(self) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]],
                                   dict[str, tuple[str, ...]]]:
        return _find_problems(self)

    @cached_property
    def _dual_complex(self) -> DeltaComplex:
        # Built only once validation found no problem, so _of may skip
        # what validation proved:
        # - ids are distinct: _find_problems rejects a duplicate id
        #   across components and strata;
        # - there is a vertex: it rejects an empty component list;
        # - every stratum lies on known, distinct components, and so is
        #   a simplex on distinct vertices: it rejects the rest;
        # - vertex order: the vertex tuples of _find_problems are
        #   sorted by the component order, which is layer 0's order;
        # - facet ids, count and spans: _resolve_facets gives every
        #   stratum one facet per vertex, the one omitting it, which is
        #   a depth-(r-1) stratum on the other components (or, for an
        #   edge, the other component); so depths run from 2 without
        #   gaps;
        # - d∘d = 0: _boundary_squared checks it wherever facets were
        #   given explicitly, and inference implies it everywhere else.
        _, facets, vertices = self._validation
        layers: list[list[Simplex]] = [[Simplex.vertex(c.id) for c in self.components]]
        for s in self.strata:
            verts = vertices[s.id]
            while len(layers) < len(verts):
                layers.append([])
            layers[len(verts) - 1].append(Simplex._of(s.id, verts, facets[s.id]))
        return DeltaComplex._of(layers)

    @cached_property
    def _frobenius_image(self) -> dict[str, str]:
        """Every component and stratum id mapped to its Frobenius image:
        its successor in its Frobenius cycle, or the identity at order 1
        whatever the permutations say.  Read, like the cycles, only once
        validation found both permutations bijections."""
        step = 1 if _action(self).order > 1 else 0
        return {x: cycle[(k + step) % len(cycle)]
                for x, (cycle, k) in self._frobenius_cycles.items()}

    @cached_property
    def _frobenius_cycles(self) -> dict[str, tuple[tuple[str, ...], int]]:
        """Every component and stratum id mapped to its Frobenius cycle
        and its position there, walking the permutations (identity
        default) once.  Read only once validation found both
        permutations bijections, so every walk closes."""
        action = _action(self)
        cycles: dict[str, tuple[tuple[str, ...], int]] = {}
        for ids, perm in ((self.component_ids(), action.component_perm),
                          ([s.id for s in self.strata], action.stratum_perm)):
            for x in ids:
                if x in cycles:
                    continue
                walk, y = [x], perm.get(x, x)
                while y != x:
                    walk.append(y)
                    y = perm.get(y, y)
                cycle = tuple(walk)
                for k, member in enumerate(cycle):
                    cycles[member] = (cycle, k)
        return cycles

    @cached_property
    def _frobenius_chain(self) -> ChainMap:
        return ChainMap.induced(self._dual_complex, self._dual_complex, self._frobenius_image)

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
    return list(cfg._validation[0])


def _find_problems(cfg: SncConfiguration) -> tuple[tuple[str, ...],
                                                   dict[str, tuple[str, ...]],
                                                   dict[str, tuple[str, ...]]]:
    """The problems of ``cfg``, the positional facets of every stratum
    whose facets resolve (none while an earlier check fails), and the
    vertex tuple of every stratum on at least two known, distinct
    components, sorted by the component order.  That one sort per
    stratum finds its unknown and repeated components and keys facet
    resolution."""
    problems: list[str] = []
    facets: dict[str, tuple[str, ...]] = {}
    vertices: dict[str, tuple[str, ...]] = {}
    if not cfg.components:
        problems.append("at least one component required")
        return tuple(problems), facets, vertices

    seen: set[str] = set()
    for c in cfg.components:
        if not c.id:
            problems.append("component with empty id")
        if c.id in seen:
            problems.append(f"duplicate component id {c.id!r}")
        seen.add(c.id)
        _check_degrees(problems, "component", c.id, c.point_degrees)
    order = {c.id: i for i, c in enumerate(cfg.components)}
    position = order.__getitem__

    for s in cfg.strata:
        if not s.id:
            problems.append("stratum with empty id")
        if s.id in seen:
            problems.append(f"duplicate id {s.id!r} (ids are global across components and strata)")
        seen.add(s.id)
        _check_degrees(problems, "stratum", s.id, s.point_degrees)
        depth = len(s.on)
        if depth < 2:
            problems.append(f"stratum {s.id!r} has depth {depth}, expected at least 2")
            continue
        try:
            verts = tuple(sorted(s.on, key=position))
        except KeyError:  # an unknown component, unless a repeat is reported first
            verts = None
        if len(set(s.on)) != depth:
            problems.append(f"stratum {s.id!r}: repeated component in {s.on}")
        elif verts is None:
            unknown = [c for c in s.on if c not in order]
            problems.append(f"stratum {s.id!r} lies on unknown components {unknown}")
        else:
            vertices[s.id] = verts

    if not problems:
        facets, problems = _resolve_facets(cfg, vertices)
    if cfg.frobenius is not None and not problems:
        problems.extend(_frobenius_problems(cfg, facets))
    if not problems:
        problems.extend(_boundary_squared(cfg, facets))
    return tuple(problems), facets, vertices


def _frobenius_problems(cfg: SncConfiguration,
                        facets: Mapping[str, tuple[str, ...]]) -> list[str]:
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

    step = cfg._frobenius_image
    for s in cfg.strata:
        image = cfg.stratum(step[s.id])
        if len(image.on) != len(s.on):
            problems.append(
                f"frobenius: stratum {s.id!r} (depth {len(s.on)}) maps to "
                f"{image.id!r} (depth {len(image.on)})"
            )
            continue
        if set(image.on) != set(map(step.__getitem__, s.on)):
            problems.append(
                f"frobenius: stratum {s.id!r} maps to {image.id!r}, which does not "
                f"lie on the image components"
            )
    if problems:
        return problems

    # a permutation's order divides ``order`` exactly when each cycle's
    # length does; the cycles walk the permutations themselves, since at
    # order 1 the image is the identity whatever they say
    cycles = cfg._frobenius_cycles
    for label, objs in (("component", cfg.components), ("stratum", cfg.strata)):
        if any(fr.order % len(cycles[o.id][0]) for o in objs):
            problems.append(f"frobenius: {label} permutation order does not divide {fr.order}")
    if problems:
        return problems

    for s in cfg.strata:
        if len(s.on) < 3:
            continue
        image = step[s.id]
        image_facets = facets[image]
        for fid in facets[s.id]:
            if step[fid] not in image_facets:
                problems.append(
                    f"frobenius: facet {fid!r} of stratum {s.id!r} does not map to "
                    f"a facet of {image!r}"
                )
    return problems


def ensure_valid(cfg: SncConfiguration) -> None:
    problems = validate_config(cfg)
    if problems:
        raise ValidationError(problems)


def resolved_facets(cfg: SncConfiguration) -> dict[str, tuple[str, ...]]:
    """Positional facet ids for every stratum: entry i of a stratum's
    tuple omits vertex i of its sorted vertex tuple.  Depth-2 strata
    get component ids.  Raises, as ``build_dual_complex`` does, unless
    the configuration is valid."""
    ensure_valid(cfg)
    return dict(cfg._validation[1])


def _resolve_facets(cfg: SncConfiguration, vertices: Mapping[str, tuple[str, ...]]
                    ) -> tuple[dict[str, tuple[str, ...]], list[str]]:
    """The positional facets of every stratum whose facets resolve, and
    the problems found.  ``vertices`` holds the vertex tuple of every
    stratum, and ids are distinct.

    Strata are keyed by vertex tuple, so an inferred facet is one dict
    lookup, of the tuple without the vertex it omits.  An explicit facet
    is placed by the vertex its own tuple omits."""
    facet_of: dict[tuple[str, ...], str] = {}
    parallel: dict[tuple[str, ...], list[str]] = {}
    for sid, verts in vertices.items():
        first = facet_of.setdefault(verts, sid)
        if first != sid:
            parallel.setdefault(verts, [first]).append(sid)
    for verts in parallel:  # parallel strata infer no facet
        del facet_of[verts]
    out: dict[str, tuple[str, ...]] = {}
    problems: list[str] = []

    for s in cfg.strata:
        verts = vertices[s.id]
        r = len(verts)
        if r == 2:
            if s.facets is not None and set(s.facets) != set(verts):
                problems.append(
                    f"stratum {s.id!r}: explicit facets {sorted(set(s.facets))} must be "
                    f"its two components"
                )
                continue
            out[s.id] = (verts[1], verts[0])
            continue

        if s.facets is not None:
            if len(s.facets) != r:
                problems.append(
                    f"stratum {s.id!r}: {len(s.facets)} explicit facets, "
                    f"expected {r}"
                )
                continue
            # r facets, each on its own side, cover all r sides
            positional: list[str | None] = [None] * r
            ok = True
            for fid in s.facets:
                fverts = vertices.get(fid)
                if fverts is None:
                    problems.append(f"stratum {s.id!r}: facet {fid!r} does not exist")
                    ok = False
                    continue
                i = _omitted(verts, fverts)
                if i is None:
                    problems.append(
                        f"stratum {s.id!r}: facet {fid!r} does not omit exactly one "
                        f"of its components"
                    )
                    ok = False
                elif positional[i] is not None:
                    problems.append(
                        f"stratum {s.id!r}: facets {positional[i]!r} and {fid!r} omit "
                        f"the same component"
                    )
                    ok = False
                else:
                    positional[i] = fid
            if ok:
                out[s.id] = tuple(positional)  # type: ignore[arg-type]
            continue

        try:
            # combinations omits the last vertex first
            out[s.id] = tuple(map(facet_of.__getitem__, combinations(verts, r - 1)))[::-1]
        except KeyError:
            for i in range(r):
                side = verts[:i] + verts[i + 1:]
                if side in parallel:
                    problems.append(
                        f"stratum {s.id!r}: facet ambiguity, candidates "
                        f"{sorted(parallel[side])} all lie on the same components; "
                        f"give explicit facets"
                    )
                elif side not in facet_of:
                    problems.append(f"stratum {s.id!r}: no depth-{r - 1} stratum on {side}")
    return out, problems


def _omitted(verts: tuple[str, ...], side: tuple[str, ...]) -> int | None:
    """The position i with ``side`` = ``verts`` without vertex i, both
    sorted by the component order, or None."""
    for i in range(len(verts)):
        if verts[:i] + verts[i + 1:] == side:
            return i
    return None


def _boundary_squared(cfg: SncConfiguration,
                      facets: Mapping[str, tuple[str, ...]]) -> list[str]:
    """The d∘d problem of the dual complex, if any.  The sum is taken
    only on simplices with a facet whose own facets were given
    explicitly.  In any other simplex every facet is an edge or had its
    facets inferred, and inference takes the only stratum on a set of
    components; so facet j's facet i and facet i's facet j-1, which lie
    on the same components, are both the only stratum (or component)
    there, and their signs cancel."""
    explicit = {s.id for s in cfg.strata if s.facets is not None and len(s.on) >= 3}
    if not explicit:
        return []
    suspects = [sid for sid, fs in facets.items()
                if len(fs) >= 4 and not explicit.isdisjoint(fs)]
    suspects.sort(key=lambda sid: len(facets[sid]))
    return _boundary_squared_problems(facets, suspects)


def build_dual_complex(cfg: SncConfiguration) -> DeltaComplex:
    """The dual complex: components become vertices (in order), each
    depth-r stratum one (r-1)-simplex.  Listing order per dimension is
    the stratum listing order."""
    ensure_valid(cfg)
    return cfg._dual_complex
