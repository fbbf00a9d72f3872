"""Facet resolution as the package first computed it, kept only as a
test oracle.

Strata are keyed by the ``frozenset`` of their components, and a facet
is inferred by looking up the set with one vertex removed.  The package
now keys strata by their vertex tuples, sorted by the component order,
so a comparison with ``snckit.snc`` is a real cross-check;
``test_snc.TestFacetsMatchReference`` makes it.  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

from snckit.snc import SncConfiguration


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
