"""Scalar extension of a configuration along its Frobenius action.

Over the degree-f extension the components and strata are the orbits
of the f-th power of Frobenius.  The quotient complex uses orbit
representatives as ids.  Vertex order is induced from the base order:
orbits are listed by their earliest member.  A representative stratum
keeps its positional facets from the validated dual complex, reordered
with its vertices.  The collapse maps, from the geometric complex and
between extension levels, send each simplex to its orbit
representative; ``ChainMap.induced`` signs them by the parity of the
image vertices in the quotient's vertex order.  An ``Extension`` keeps
that representative map, built once with the quotient, and both
collapse maps read it.  The one from the geometric complex
(``Extension.sigma``) is built on first read, since only the ``extend``
report reads it.  At a split degree, where every Frobenius cycle length
divides f, every orbit is a single id and the quotient would be a copy
of the geometric complex with the same ids, order and facets: the
extension is the geometric complex itself, and ``sigma`` is its
identity.  At any other degree the quotient is built by the checking
``DeltaComplex`` constructor, and every collapse map, the identity
included, by the checking ``ChainMap`` constructor, so both are
validated like caller data.

A configuration stops being simple normal crossing over F when an
orbit identifies two components of one stratum; that is detected here
and reported, never silently quotiented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .complexes import ChainMap, DeltaComplex, Simplex
from .errors import ExtensionError
from .groups import FgAbelianGroup, GaloisModule, ModuleMap, image_subgroup
from .homology import HomologyResult, homology_group, induced_map
from .snc import SncConfiguration, _action, _orbits, build_dual_complex, ensure_valid

__all__ = [
    "Extension",
    "NormMapResult",
    "extension_complex",
    "connecting_map",
    "norm_map",
    "frobenius_chain_map",
    "frobenius_on_homology",
    "check_admissible",
]


@dataclass(frozen=True)
class Extension:
    """The degree-f scalar extension: quotient complex, the geometric
    complex ``base`` it collapses, and the orbits themselves (each tuple
    starts at the representative that names the orbit).  ``_rep`` maps
    every component and stratum id to the representative of its orbit.

    The collapse chain map ``sigma`` is built, and checked to commute
    with the boundary, on first read: the ``extend`` report reads it,
    while norm maps and kernel reports need only the quotient and the
    maps between levels (``connecting_map``).  At a split degree
    ``complex is base`` and ``sigma`` is the identity."""

    f: int
    complex: DeltaComplex
    base: DeltaComplex
    component_orbits: tuple[tuple[str, ...], ...]
    stratum_orbits: tuple[tuple[str, ...], ...]
    _rep: Mapping[str, str] = field(repr=False, compare=False)

    @cached_property
    def sigma(self) -> ChainMap:
        return ChainMap.induced(self.base, self.complex, self._rep)


def check_admissible(cfg: SncConfiguration, f: int) -> None:
    """Raise unless the degree-f quotient is again simple normal
    crossing (no stratum has two components in one orbit)."""
    _admissible_component_orbits(cfg, f)


def _admissible_component_orbits(
        cfg: SncConfiguration, f: int) -> tuple[list[tuple[str, ...]], dict[str, str]]:
    """The component orbits over the degree-f extension, and each
    component mapped to its orbit's representative, raising as
    ``check_admissible`` does."""
    ensure_valid(cfg)
    if f < 1:
        raise ValueError("extension degree must be positive")
    orbits = _orbits(cfg, cfg.component_ids(), f)
    rep = {member: orbit[0] for orbit in orbits for member in orbit}
    image = rep.__getitem__
    for s in cfg.strata:
        if len(set(map(image, s.on))) != len(s.on):
            images = [rep[c] for c in s.on]
            dup = next(r for r in images if images.count(r) > 1)
            pair = [c for c in s.on if rep[c] == dup]
            raise ExtensionError(
                f"not SNC after extension: stratum {s.id!r} keeps components "
                f"{pair[0]!r} and {pair[1]!r}, which fall into one Frobenius orbit "
                f"over the degree-{f} extension"
            )
    return orbits, rep


def extension_complex(cfg: SncConfiguration, f: int) -> Extension:
    """Quotient complex over the degree-f extension, whose collapse map
    from the geometric complex is built on first read of ``sigma``; at a
    split degree the geometric complex itself.  Raises ExtensionError
    when the quotient would not be simple normal crossing."""
    comp_orbits, rep = _admissible_component_orbits(cfg, f)
    base = build_dual_complex(cfg)
    # Frobenius keeps depths, so no orbit crosses dimensions
    strata = [s.id for a in range(1, base.dimension + 1) for s in base.simplices(a)]
    strat_orbits = _orbits(cfg, strata, f)
    for orbit in strat_orbits:
        for member in orbit:
            rep[member] = orbit[0]
    if len(comp_orbits) == len(base.simplices(0)) and len(strat_orbits) == len(strata):
        # a split degree: Frobenius^f fixes every id, so the quotient
        # would be a copy of the geometric complex, simplex for simplex
        return Extension(f, base, base, tuple(comp_orbits), tuple(strat_orbits), rep)

    # a representative keeps its base facets, reordered along with its
    # vertices into the quotient vertex order; the sort is skipped when
    # the image vertices already come in that order, as they do for
    # every stratum when the components are fixed
    quotient_pos = {orbit[0]: i for i, orbit in enumerate(comp_orbits)}
    simplices = [Simplex.vertex(orbit[0]) for orbit in comp_orbits]
    image = rep.__getitem__
    by_id = base._by_id
    of = Simplex._of
    for orbit in strat_orbits:
        s = by_id[orbit[0]]
        vertices = tuple(map(image, s.vertices))
        facets = tuple(map(image, s.facets))
        pos = [quotient_pos[v] for v in vertices]
        if pos != sorted(pos):
            perm = sorted(range(len(pos)), key=pos.__getitem__)
            vertices = tuple(vertices[i] for i in perm)
            facets = tuple(facets[i] for i in perm)
        simplices.append(of(s.id, vertices, facets))
    return Extension(f, DeltaComplex(simplices), base, tuple(comp_orbits),
                     tuple(strat_orbits), rep)


def connecting_map(cfg: SncConfiguration, f_fine: int, f_coarse: int,
                   fine: Extension | None = None,
                   coarse: Extension | None = None) -> ChainMap:
    """The collapse map between extension levels, from the finer
    (larger-degree) quotient down to the coarser; requires
    f_coarse | f_fine.  Precomputed extensions may be passed in."""
    if f_coarse < 1:
        raise ValueError("extension degree must be positive")
    if f_fine % f_coarse != 0:
        raise ValueError(f"{f_coarse} does not divide {f_fine}")
    if fine is None:
        fine = extension_complex(cfg, f_fine)
    if coarse is None:
        coarse = extension_complex(cfg, f_coarse)
    return ChainMap.induced(fine.complex, coarse.complex, coarse._rep)


@dataclass(frozen=True)
class NormMapResult:
    """The induced map on degree-a homology from the degree-f level
    down to the base level, with its image presented as a subgroup of
    the target."""

    f: int
    degree: int
    modulus: int | None
    map: ModuleMap
    image_group: FgAbelianGroup
    source_homology: HomologyResult
    target_homology: HomologyResult


def norm_map(cfg: SncConfiguration, f: int, a: int,
             modulus: int | None = None) -> NormMapResult:
    fine = extension_complex(cfg, f)
    # at f == 1 the two levels coincide, so build them once; when both
    # are split, both complexes are the geometric one, so its homology
    # is computed once
    coarse = fine if f == 1 else extension_complex(cfg, 1)
    chain = connecting_map(cfg, f, 1, fine=fine, coarse=coarse)
    source = homology_group(fine.complex, a, modulus)
    target = (source if coarse.complex is fine.complex
              else homology_group(coarse.complex, a, modulus))
    m = induced_map(chain, a, modulus, source=source, target=target)
    image = image_subgroup(m)
    return NormMapResult(f, a, modulus, m, image, source, target)


def frobenius_chain_map(cfg: SncConfiguration) -> ChainMap:
    """The automorphism of the geometric complex induced by one
    application of Frobenius, built once per configuration."""
    build_dual_complex(cfg)  # raises unless the configuration is valid
    return cfg._frobenius_chain


def frobenius_on_homology(cfg: SncConfiguration, a: int,
                          modulus: int | None = None) -> GaloisModule:
    """Degree-a homology of the geometric complex as a module over the
    Frobenius."""
    chain = frobenius_chain_map(cfg)
    h = homology_group(chain.source, a, modulus)
    m = induced_map(chain, a, modulus, source=h, target=h)
    order = _action(cfg).order
    return GaloisModule(h.group, m.matrix, order)
