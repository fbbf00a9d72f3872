"""Simplicial homology of Δ-complexes over Z and Z/n, exactly.

Integral homology in degree a is presented on a basis of the kernel of
the boundary, with one relation per (a+1)-simplex.  Mod-n homology is
computed from its own presentation (cycles mod n, relations from
boundaries and n-multiples) rather than by reducing the integral
answer, so universal-coefficient comparisons in the tests are a real
cross-check and not a tautology.

``oracle_homology`` is a deliberately separate code path: plain
Gaussian elimination over a prime field, sharing nothing with the
Smith normal form engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .complexes import ChainMap, DeltaComplex, Simplex
from .errors import WellDefinednessError
from .groups import FgAbelianGroup, ModuleMap
from .matrices import IntMatrix, kernel_basis, preimage_generators, solve, solve_matrix

__all__ = [
    "HomologyResult",
    "homology_group",
    "induced_map",
    "oracle_homology",
    "random_complex",
]

ORACLE_SIZE_BOUND = 1000


@dataclass(frozen=True)
class HomologyResult:
    """Homology in one degree: a presented group plus, for each of its
    generators, an explicit representative cycle (a column of
    ``cycle_matrix`` in chain coordinates)."""

    complex: DeltaComplex
    degree: int
    modulus: int | None
    group: FgAbelianGroup
    cycle_matrix: IntMatrix

    def representative(self, j: int) -> tuple[int, ...]:
        return self.cycle_matrix.col(j)

    def representative_chain(self, j: int) -> dict[str, int]:
        col = self.cycle_matrix.col(j)
        layer = self.complex.simplices(self.degree)
        return {layer[i].id: col[i] for i in range(len(layer)) if col[i] != 0}

    def class_of(self, chain: Sequence[int]) -> tuple[int, ...]:
        """Coordinates, on the chosen generators, of the class of a
        cycle given in chain coordinates."""
        y = solve(self.cycle_matrix, chain)
        if y is None:
            raise ValueError("chain is not a cycle for these coefficients")
        return y

    def describe(self) -> str:
        return self.group.describe()


def _boundary(cx: DeltaComplex, a: int, reduced: bool) -> IntMatrix:
    if a == 0 and reduced:
        return cx.augmentation_matrix()
    return cx.boundary_matrix(a)


def homology_group(cx: DeltaComplex, a: int, modulus: int | None = None,
                   reduced: bool = False) -> HomologyResult:
    """H_a of the complex with Z (modulus None) or Z/modulus
    coefficients.  Degrees above the dimension give the trivial group.

    With ``reduced`` the degree-0 boundary is replaced by the
    augmentation, so H̃_0 counts components minus one.
    """
    if a < 0:
        raise ValueError("degree must be nonnegative")
    if modulus is not None and modulus < 2:
        raise ValueError("modulus must be at least 2")
    d_a = _boundary(cx, a, reduced)
    d_next = cx.boundary_matrix(a + 1)
    n_chains = d_a.cols

    if modulus is None:
        cycles = kernel_basis(d_a)
        relations = solve_matrix(cycles, d_next)
        if relations is None:
            raise WellDefinednessError("a boundary is not a cycle")
        group = FgAbelianGroup(cycles.cols, relations)
        return HomologyResult(cx, a, None, group, cycles)

    scale = IntMatrix.diagonal([modulus] * d_a.rows)
    cycles = preimage_generators(d_a, scale)
    targets = d_next.hstack(IntMatrix.diagonal([modulus] * n_chains))
    relations = preimage_generators(cycles, targets)
    group = FgAbelianGroup(cycles.cols, relations)
    return HomologyResult(cx, a, modulus, group, cycles)


def induced_map(f: ChainMap, a: int, modulus: int | None = None,
                reduced: bool = False,
                source: HomologyResult | None = None,
                target: HomologyResult | None = None) -> ModuleMap:
    """The map on degree-a homology induced by a chain map, expressed
    on the generators chosen by ``homology_group``.

    Precomputed source/target results may be passed in; they must come
    from the same complexes, degree and coefficients.
    """
    if source is None:
        source = homology_group(f.source, a, modulus, reduced)
    if target is None:
        target = homology_group(f.target, a, modulus, reduced)
    matrix = solve_matrix(target.cycle_matrix, f.matrix(a) @ source.cycle_matrix)
    if matrix is None:
        raise ValueError("chain is not a cycle for these coefficients")
    return ModuleMap(source.group, target.group, matrix)


# -- independent verification ---------------------------------------------


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row echelon rank over F_p; self-contained on purpose."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p != 0:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def oracle_homology(cx: DeltaComplex, a: int, p: int) -> int:
    """dim_{F_p} H_a(cx), by rank-nullity with plain elimination."""
    if cx.size() > ORACLE_SIZE_BOUND:
        raise ValueError(f"complex exceeds the oracle size bound of {ORACLE_SIZE_BOUND}")
    if p < 2 or any(p % q == 0 for q in range(2, p)):
        raise ValueError(f"{p} is not prime")
    if a < 0:
        raise ValueError("degree must be nonnegative")
    d_a = cx.boundary_matrix(a)
    d_next = cx.boundary_matrix(a + 1)
    rank_a = _rank_mod_p(d_a.to_rows(), p)
    rank_next = _rank_mod_p(d_next.to_rows(), p)
    return d_a.cols - rank_a - rank_next


# -- random instances for property tests and self-checks -------------------


def random_complex(rng: random.Random, max_vertices: int = 8,
                   max_dim: int = 2) -> DeltaComplex:
    """A random Δ-complex with parallel simplices allowed.  Intended
    for property tests; every output passes full validation."""
    nv = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    simplices = [Simplex.vertex(v) for v in vertices]
    by_pair: dict[tuple[int, int], list[str]] = {}
    if nv >= 2 and max_dim >= 1:
        n_edges = rng.randint(0, 2 * nv)
        for k in range(n_edges):
            i, j = sorted(rng.sample(range(nv), 2))
            eid = f"e{k}"
            simplices.append(Simplex(eid, (vertices[i], vertices[j]),
                                     (vertices[j], vertices[i])))
            by_pair.setdefault((i, j), []).append(eid)
    if nv >= 3 and max_dim >= 2:
        triples = [
            (i, j, k)
            for i in range(nv) for j in range(i + 1, nv) for k in range(j + 1, nv)
            if (i, j) in by_pair and (i, k) in by_pair and (j, k) in by_pair
        ]
        rng.shuffle(triples)
        for t, (i, j, k) in enumerate(triples[: rng.randint(0, max(1, nv))]):
            facets = (
                rng.choice(by_pair[(j, k)]),
                rng.choice(by_pair[(i, k)]),
                rng.choice(by_pair[(i, j)]),
            )
            simplices.append(
                Simplex(f"t{t}", (vertices[i], vertices[j], vertices[k]), facets)
            )
    return DeltaComplex(simplices)
