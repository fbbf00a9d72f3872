"""Simplicial homology of Δ-complexes over Z and Z/n, exactly.

Integral homology in degree a is presented on a basis of the kernel of
the boundary, with one relation per (a+1)-simplex; in degree 0 that
basis is the identity and the relations are d_1 itself.  Everything
over Z comes from one Smith form u·d_a·v = D, eliminated on sparse
rows built from the facets (no dense boundary): the basis is the
columns of v past the rank, and the relations, and the coordinates of
any cycle that an induced map writes on the basis, are the rows past
the rank of v⁻¹ applied to it, replayed from the column log.  No
second form is eliminated for the cycle basis, and the result keeps
the form of d_a for its induced maps.  Mod-n homology is read off the
same form and the relation form of H_a by the universal coefficient
theorem: the diagonal entries above 1 of D are the torsion
coefficients of H_{a-1}, and the columns of v inside the rank lift
them (see ``_mod_n``).  So no boundary of lower degree is eliminated,
no matrix is stacked with n·I, and the coordinates of a chain mod n,
which an induced map over Z/n writes, come from the same replay of
v⁻¹ with no elimination either.  The tests compare it with Z/n
homology computed from its own presentation (``tests/zn_reference.py``),
so the universal-coefficient checks there are a real cross-check and
not a tautology.

``oracle_homology`` is a deliberately separate code path: plain
Gaussian elimination over a prime field, sharing nothing with the
Smith normal form engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .complexes import ChainMap, DeltaComplex, Simplex
from .errors import WellDefinednessError
from .groups import FgAbelianGroup, ModuleMap, is_prime
from .matrices import (
    IntMatrix,
    SnfDecomposition,
    _cycle_coordinates,
    _from_columns,
    _from_rows,
    _smith_vector,
    _snf_rows,
    _sparse_rows,
    _v_columns,
)

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
    # the Smith form of d_a (of the augmentation in reduced degree 0)
    # that gave the integral cycles, and H_a over Z presented on them
    # (``group`` itself over Z)
    _boundary_form: SnfDecomposition = field(repr=False, compare=False)
    _cycle_group: FgAbelianGroup = field(repr=False, compare=False)

    def representative(self, j: int) -> tuple[int, ...]:
        return self.cycle_matrix.col(j)

    def representative_chain(self, j: int) -> dict[str, int]:
        col = self.cycle_matrix.col(j)
        layer = self.complex.simplices(self.degree)
        return {layer[i].id: col[i] for i in range(len(layer)) if col[i] != 0}

    def _coordinates(self, chains: IntMatrix) -> IntMatrix:
        """Coordinates, on the chosen generators, of the classes of the
        columns of ``chains``, which must be cycles, read off the form of
        d_a with no elimination.

        The coordinates w = v⁻¹·x of a chain x on the columns of v say
        whether it is a cycle (mod n, d_i·w_i ≡ 0 for every i below the
        rank).  Over Z the rows of w past the rank are its coordinates.
        Over Z/n those rows times the Smith rows of H_a give its H_a ⊗
        Z/n part, and w_i / (n/g) its coordinate on the Tor summand Z/g
        of diagonal entry i (see ``_mod_n``); each is reduced modulo its
        summand's order, which makes it unique."""
        s, n = self._boundary_form, self.modulus
        w = _cycle_coordinates(s, _sparse_rows(chains), n or 0)
        if w is None:
            raise ValueError("chain is not a cycle for these coefficients")
        k = chains.cols
        kernel = _from_rows(w[s.rank:], k)
        if n is None:
            return kernel
        gcds = [gcd(t, n) for t in self._cycle_group._smith_rows()[2]]
        rows = [[x % g for x in row]
                for g, row in zip(gcds, self._cycle_group._reduced(kernel)) if g > 1]
        rows += [[w[i].get(j, 0) // (n // g) % g for j in range(k)] for i, g in _tor_summands(s, n)]
        return IntMatrix._of(len(rows), k, [x for row in rows for x in row])

    def describe(self) -> str:
        return self.group.describe()


def _boundary_rows(cx: DeltaComplex, a: int, reduced: bool) -> list[dict[int, int]]:
    """The sparse rows of d_a, or of the augmentation in reduced degree 0."""
    if a == 0 and reduced:
        return [dict.fromkeys(range(len(cx.simplices(0))), 1)]
    return cx._boundary_rows(a)


def _integral(cx: DeltaComplex, a: int, reduced: bool
              ) -> tuple[SnfDecomposition, list[dict[int, int]], IntMatrix, FgAbelianGroup]:
    """The Smith form u·d_a·v = D of d_a, the columns of v inside its
    rank as sparse dicts, the basis of its kernel (the columns past the
    rank), and H_a over Z presented on that basis, one relation per
    (a+1)-simplex.

    The relations are the coordinates of d_{a+1} on the basis: since
    d_a·d_{a+1} = 0, the first rank rows of v⁻¹·d_{a+1} vanish and the
    rest are those coordinates, read by replaying the column log on the
    sparse rows of d_{a+1}.  The basis is saturated, so they are the
    unique solution, and no second form is eliminated.  In degree 0,
    d_0 has no rows, its form logs no operation, and the relations are
    d_1 itself."""
    width = len(cx.simplices(a))
    s = _snf_rows(_boundary_rows(cx, a, reduced), width)
    relations = _cycle_coordinates(s, cx._boundary_rows(a + 1))
    if relations is None:
        raise WellDefinednessError("a boundary is not a cycle")
    group = FgAbelianGroup(width - s.rank,
                           _from_rows(relations[s.rank:], len(cx.simplices(a + 1))))
    columns = _v_columns(s)
    return s, columns[:s.rank], _from_columns(columns[s.rank:], width), group


def _smith_cycles(cycles: IntMatrix, group: FgAbelianGroup,
                  n: int) -> tuple[list[int], IntMatrix]:
    """The gcds g = gcd(t, n) > 1 over the orders t of the Smith
    generators of ``group`` (0 when free) and, as the columns of a
    matrix, the cycles of those generators: the torsion ones in
    divisibility order, then the free ones."""
    s = group.relation_snf()
    orders = s.diagonal + (0,) * (group.generator_count - len(s.diagonal))
    picked = [(i, g) for i, g in enumerate(gcd(t, n) for t in orders) if g > 1]
    # generator i of the Smith form is column i of u_inv, read without
    # building u_inv
    generators = IntMatrix.from_columns([_smith_vector(s, i, column=True) for i, _ in picked],
                                        rows=group.generator_count)
    return [g for _, g in picked], cycles @ generators


def _tor_summands(s: SnfDecomposition, n: int) -> list[tuple[int, int]]:
    """The pairs (i, g) with g = gcd(d_i, n) > 1 over the nonzero
    diagonal entries d_i of the form ``s`` of d_a, in order: the Tor
    summands Z/g of H_a(X; Z/n) (see ``_mod_n``)."""
    return [(i, g) for i, g in enumerate(gcd(t, n) for t in s.diagonal[:s.rank]) if g > 1]


def _mod_n(cx: DeltaComplex, a: int, n: int, reduced: bool) -> HomologyResult:
    """H_a with Z/n coefficients by the universal coefficient theorem,
    H_a(X; Z/n) = H_a(X) ⊗ Z/n ⊕ Tor(H_{a-1}(X), Z/n), on one generator
    per summand of order above 1, with diagonal relations, read off the
    Smith form u·d_a·v = D of d_a and the relation form of H_a alone.

    A Smith generator z of H_a of order t (0 when free) gives Z/gcd(t, n),
    represented by z.  The sequence 0 -> H_{a-1} -> coker d_a ->
    C_{a-1}/Z_{a-1} -> 0 splits, since the quotient embeds in the free
    C_{a-2}, so the torsion of H_{a-1} is that of coker d_a: the
    diagonal entries t > 1 of D are its coefficients, and column i of
    u⁻¹ is a cycle z of order t = d_i.  Since d_a·v = u⁻¹·D, column i of
    v is a chain c with ∂c = t·z, so t with g = gcd(t, n) > 1 gives Z/g,
    represented by (n/g)·c: the Bockstein H_a(X; Z/n) -> H_{a-1}(X)
    sends it to (t/g)·z, of order g.  H_{a-1} is never computed and
    nothing is solved.  Representatives are reduced into [0, n).
    """
    s, lifts, cycles, group = _integral(cx, a, reduced)
    gcds, reps = _smith_cycles(cycles, group, n)
    tor = _tor_summands(s, n)
    reps = reps.hstack(_from_columns([{k: n // g * x for k, x in lifts[i].items()}
                                      for i, g in tor], cycles.rows))
    gcds += [g for _, g in tor]
    reps = IntMatrix._of(reps.rows, reps.cols, [x % n for x in reps._entries])
    return HomologyResult(cx, a, n, FgAbelianGroup(len(gcds), IntMatrix.diagonal(gcds)), reps,
                          s, group)


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
    if modulus is not None:
        return _mod_n(cx, a, modulus, reduced)
    s, _, cycles, group = _integral(cx, a, reduced)
    return HomologyResult(cx, a, None, group, cycles, s, group)


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
    matrix = target._coordinates(f.matrix(a) @ source.cycle_matrix)
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
    if not is_prime(p):
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
