"""Shared builders for the test suite: small standard configurations,
actions with known quotients, and random admissible actions; and the
exact determinant and map comparison that tests use as oracles."""

from __future__ import annotations

import random

from snckit.complexes import ChainMap, DeltaComplex, Simplex
from snckit.groups import FgAbelianGroup, GaloisModule, ModuleMap
from snckit.matrices import IntMatrix
from snckit.reciprocity import Pi1Input
from snckit.snc import Component, FrobeniusAction, SncConfiguration, Stratum


def cycle_config(n: int, name: str = "cycle",
                 frobenius: FrobeniusAction | None = None) -> SncConfiguration:
    """An n-cycle: components v0..v{n-1}, edge e{i} on (v{i}, v{i+1})."""
    comps = tuple(Component(f"v{i}") for i in range(n))
    strata = tuple(
        Stratum(f"e{i}", (f"v{i}", f"v{(i + 1) % n}")) for i in range(n)
    )
    return SncConfiguration(name, comps, strata, frobenius)


def graph_complex(vertices: list[str],
                  edges: list[tuple[str, str, str]]) -> DeltaComplex:
    """A 1-dimensional complex from vertex ids and (edge id, u, v)
    triples; endpoint order is normalized to the vertex order."""
    pos = {v: i for i, v in enumerate(vertices)}
    simplices = [Simplex.vertex(v) for v in vertices]
    for eid, u, v in edges:
        if pos[u] > pos[v]:
            u, v = v, u
        simplices.append(Simplex(eid, (u, v), (v, u)))
    return DeltaComplex(simplices)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def identity_map(cx: DeltaComplex) -> ChainMap:
    """The identity chain map of ``cx``."""
    return ChainMap.induced(cx, cx, {s.id: s.id for s in cx.all_simplices()})


def augmentation_matrix(cx: DeltaComplex) -> IntMatrix:
    """The map C_0 -> Z sending every vertex to 1, the degree-0
    boundary of reduced homology."""
    vertices = len(cx.simplices(0))
    return IntMatrix.from_rows([[1] * vertices], cols=vertices)


def diagonal_entries(m: IntMatrix) -> tuple[int, ...]:
    """The entries (i, i) of ``m``, for i below min(rows, cols)."""
    return tuple(m[i, i] for i in range(min(m.rows, m.cols)))


def agree_mod_relations(f: ModuleMap, g: ModuleMap) -> bool:
    """Whether two maps agree as homomorphisms: their matrices have one
    shape and differ, column by column, by relations of f's target."""
    if (f.matrix.rows, f.matrix.cols) != (g.matrix.rows, g.matrix.cols):
        return False
    return not f.target._outside(f.matrix - g.matrix)


def cycle_complex(n: int) -> DeltaComplex:
    return graph_complex(
        [f"v{i}" for i in range(n)],
        [(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)],
    )


def moore_complex(k: int) -> DeltaComplex:
    """A disk whose boundary runs k times round the triangle abc: the
    cone from o over a 3k-gon whose j-th corner lies on the j-th vertex
    of abc, joined to that vertex by the spoke s{j}.  H_1 is Z/k."""
    ring = ["a", "b", "c"]
    edges = {("a", "b"): "ab", ("b", "c"): "bc", ("a", "c"): "ac"}
    simplices = [Simplex.vertex(v) for v in ["o", *ring]]
    simplices += [Simplex(e, pair, pair[::-1]) for pair, e in edges.items()]
    simplices += [Simplex(f"s{j}", ("o", ring[j % 3]), (ring[j % 3], "o"))
                  for j in range(3 * k)]
    for j in range(3 * k):
        ends = sorted([(ring[j % 3], j), (ring[(j + 1) % 3], (j + 1) % (3 * k))])
        (x, sx), (y, sy) = ends
        simplices.append(Simplex(f"t{j}", ("o", x, y), (edges[x, y], f"s{sy}", f"s{sx}")))
    return DeltaComplex(simplices)


def moore_document(k: int) -> dict:
    """``moore_complex(k)`` as a configuration document: components o,
    a, b, c; the edges and spokes are depth-2 strata (the spokes to one
    corner are parallel), and the triangles depth-3 strata with explicit
    facets, so its dual complex has the structure of ``moore_complex(k)``."""
    ring = ["a", "b", "c"]
    edges = {("a", "b"): "ab", ("b", "c"): "bc", ("a", "c"): "ac"}
    strata2 = [{"id": e, "on": list(pair)} for pair, e in edges.items()]
    strata2 += [{"id": f"s{j}", "on": ["o", ring[j % 3]]} for j in range(3 * k)]
    strata3 = []
    for j in range(3 * k):
        (x, sx), (y, sy) = sorted([(ring[j % 3], j), (ring[(j + 1) % 3], (j + 1) % (3 * k))])
        strata3.append({"id": f"t{j}", "on": ["o", x, y],
                        "facets": [edges[x, y], f"s{sy}", f"s{sx}"]})
    return {
        "name": f"moore-{k}",
        "components": [{"id": c} for c in ["o", *ring]],
        "strata": {"2": strata2, "3": strata3},
    }


def rotation_action(n: int, step: int, order: int) -> FrobeniusAction:
    """Rotate the n-cycle by ``step``; caller supplies the order."""
    return FrobeniusAction(
        order,
        {f"v{i}": f"v{(i + step) % n}" for i in range(n)},
        {f"e{i}": f"e{(i + step) % n}" for i in range(n)},
    )


def reflection_action(n: int) -> FrobeniusAction:
    """Reflect the n-cycle: v_i -> v_{-i}, so e_i on (v_i, v_{i+1})
    goes to the edge on (v_{-i-1}, v_{-i}), which is e_{-i-1}."""
    return FrobeniusAction(
        2,
        {f"v{i}": f"v{(-i) % n}" for i in range(n)},
        {f"e{i}": f"e{(-i - 1) % n}" for i in range(n)},
    )


def multigraph_config() -> SncConfiguration:
    """Two components crossing twice (two parallel edges)."""
    return SncConfiguration(
        "double-crossing",
        (Component("C1"), Component("C2")),
        (Stratum("P1", ("C1", "C2")), Stratum("P2", ("C1", "C2"))),
    )


def triangle_config(with_face: bool = True) -> SncConfiguration:
    """Three components crossing pairwise, optionally with the deep
    triple point filled in."""
    strata = [
        Stratum("AB", ("A", "B")),
        Stratum("AC", ("A", "C")),
        Stratum("BC", ("B", "C")),
    ]
    if with_face:
        strata.append(Stratum("T", ("A", "B", "C")))
    return SncConfiguration(
        "triangle",
        (Component("A"), Component("B"), Component("C")),
        tuple(strata),
    )


def swap_upgrade_fixture():
    """Two swapped components joined through a fixed one, with a y0 on
    which Frobenius acts by -1: the torsion assumption fails over the
    base field and holds over its quadratic extension."""
    cfg = SncConfiguration(
        "swap",
        (Component("A1"), Component("A2"), Component("B")),
        (Stratum("s1", ("A1", "B")), Stratum("s2", ("A2", "B"))),
        FrobeniusAction(
            2,
            {"A1": "A2", "A2": "A1", "B": "B"},
            {"s1": "s2", "s2": "s1"},
        ),
    )
    y0 = GaloisModule(FgAbelianGroup.cyclic(3), IntMatrix.from_rows([[2]]), 2)
    return cfg, Pi1Input(y0, {}), {}


def random_admissible_config(rng: random.Random, e: int,
                             shape: str | None = None) -> SncConfiguration:
    """A random configuration with an order-e action whose quotients
    stay simple normal crossing at every extension degree.

    Three shapes: e rotated disjoint cycles; one long cycle rotated a
    full block; the block-rotated cycle with two fixed components coned
    on (giving depth-3 strata and 2-dimensional complexes).
    """
    if shape is None:
        shape = rng.choice(["copies", "block", "coned"])
    if shape == "copies":
        m = rng.randint(3, 5)
        comps, strata, cp, sp = [], [], {}, {}
        for k in range(e):
            for i in range(m):
                comps.append(Component(f"c{k}_{i}", (rng.randint(1, 3),)))
                cp[f"c{k}_{i}"] = f"c{(k + 1) % e}_{i}"
            for i in range(m):
                strata.append(
                    Stratum(f"d{k}_{i}", (f"c{k}_{i}", f"c{k}_{(i + 1) % m}"))
                )
                sp[f"d{k}_{i}"] = f"d{(k + 1) % e}_{i}"
        return SncConfiguration(
            "copies", tuple(comps), tuple(strata), FrobeniusAction(e, cp, sp)
        )

    m = rng.randint(2, 4)
    n = m * e
    action = rotation_action(n, m, e)
    base = cycle_config(n, "block", action)
    if shape == "block":
        return base

    comps = list(base.components) + [Component("O"), Component("inf")]
    strata = list(base.strata)
    cp = dict(action.component_perm)
    sp = dict(action.stratum_perm)
    cp["O"] = "O"
    cp["inf"] = "inf"
    for apex in ("O", "inf"):
        for i in range(n):
            strata.append(Stratum(f"v{i}x{apex}", (f"v{i}", apex)))
            sp[f"v{i}x{apex}"] = f"v{(i + m) % n}x{apex}"
    for apex in ("O", "inf"):
        for i in range(n):
            j = (i + 1) % n
            strata.append(
                Stratum(
                    f"e{i}x{apex}",
                    (f"v{i}", f"v{j}", apex),
                    facets=(f"e{i}", f"v{i}x{apex}", f"v{j}x{apex}"),
                )
            )
            sp[f"e{i}x{apex}"] = f"e{(i + m) % n}x{apex}"
    return SncConfiguration(
        "coned", tuple(comps), tuple(strata), FrobeniusAction(e, cp, sp)
    )


SUSPENSION_CYCLE = 6


def suspension_document(k: int) -> dict:
    """The 6-cycle suspended k times, as a configuration document: apex
    components O1, I1, O2, I2, ... follow the cycle in the component
    order, and every simplex of dimension a >= 1 is a depth-(a+1)
    stratum whose facets are inferred from its components."""
    comps = [f"v{i}" for i in range(SUSPENSION_CYCLE)]
    simplices: dict[str, tuple[str, ...]] = {c: (c,) for c in comps}
    for i in range(SUSPENSION_CYCLE):
        simplices[f"e{i}"] = (f"v{i}", f"v{(i + 1) % SUSPENSION_CYCLE}")
    for level in range(1, k + 1):
        apexes = (f"O{level}", f"I{level}")
        joined = {}
        for apex in apexes:
            for sid, verts in simplices.items():
                joined[f"{sid}*{apex}"] = verts + (apex,)
        comps += apexes
        simplices.update({apex: (apex,) for apex in apexes})
        simplices.update(joined)
    strata: dict[str, list] = {}
    for sid, verts in simplices.items():
        if len(verts) >= 2:
            strata.setdefault(str(len(verts)), []).append({"id": sid, "on": list(verts)})
    return {
        "name": f"suspension-{k}",
        "components": [{"id": c} for c in comps],
        "strata": strata,
    }


DENSE_ENTRY = 9


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by row reduction."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            c = rows[i][col]
            if i != rank and c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def dense_document(rng: random.Random, g: int, name: str) -> dict:
    """Two components crossing twice; y0 is Z^g modulo a dense nonsingular
    g x g relation matrix with entries in [-9, 9], Frobenius is the
    identity, and edge P1 carries a seeded label.  The same documents as
    the benchmark's dense workload builds from the same generator state."""
    while True:
        rel = [[rng.randint(-DENSE_ENTRY, DENSE_ENTRY) for _ in range(g)] for _ in range(g)]
        # full rank modulo a prime certifies a nonzero determinant
        if _rank_mod(rel, 2_147_483_647) == g:
            break
    label = [rng.randint(-DENSE_ENTRY, DENSE_ENTRY) for _ in range(g)]
    return {
        "name": name,
        "components": [{"id": "C1"}, {"id": "C2"}],
        "strata": {"2": [{"id": "P1", "on": ["C1", "C2"]},
                         {"id": "P2", "on": ["C1", "C2"]}]},
        # relation vectors are the columns of the g x g matrix
        "pi1_y0": {"generators": g, "relations": rel},
        "edge_labels": {"P1": label},
    }
