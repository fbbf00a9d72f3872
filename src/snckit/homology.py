"""Simplicial homology of Δ-complexes over Z and Z/n, exactly.

One reader serves both rings: Z is the case n = 0 of Z/n, and H_a is
presented on one generator per cyclic summand, with diagonal
relations.  Everything comes from the Smith form u·d_a·v = D, made
by ``matrices._smith_form`` from sparse rows built from the facets (no
dense boundary).  The columns of v past the rank are a basis of the
cycles, and the relations of H_a over Z on it are the rows past the
rank of v⁻¹·d_{a+1}, replayed from the column log and put in Smith
form by the same routine as they are, sparse rows
(``HomologyResult._cycle_form``).  By the universal coefficient
theorem, H_a(X; Z/n) = H_a(X) ⊗ Z/n ⊕ Tor(H_{a-1}(X), Z/n): the Smith
generators of that group give the ⊗ part, and the diagonal entries
above 1 of D, which are the torsion coefficients of H_{a-1}, give the
Tor part, lifted by the columns of v inside the rank (see
``homology_group``).  With n = 0, gcd(t, 0) = t,
so the ⊗ part is H_a itself on its Smith generators, and Tor(-, Z) = 0.
So no boundary of lower degree is eliminated, no matrix is stacked with
n·I, and the coordinates of a cycle, which an induced map writes, come
from the same replay of v⁻¹ with no elimination either.  The tests
compare it with Z/n homology computed from its own presentation
(``tests/zn_reference.py``), so the universal-coefficient checks there
are a real cross-check and not a tautology.

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
    _combination,
    _cycle_coordinates,
    _from_columns,
    _smith_form,
    _smith_vector,
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
    # the Smith forms of d_a (of the augmentation in reduced degree 0)
    # and of H_a's relations over Z on its kernel basis, one per
    # (a+1)-simplex, and the summands (i, g), Z/g (Z when g = 0) on
    # diagonal entry i of the second form (⊗) and of the first (Tor)
    _boundary_form: SnfDecomposition = field(repr=False, compare=False)
    _cycle_form: SnfDecomposition = field(repr=False, compare=False)
    _tensor: list[tuple[int, int]] = field(repr=False, compare=False)
    _tor: list[tuple[int, int]] = field(repr=False, compare=False)

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
        rank).  Row i of the u of ``_cycle_form`` combines the rows of w
        past the rank into the coordinate on the ⊗ summand of diagonal
        entry i, and w_i / (n/g) is the coordinate on the Tor summand
        Z/g of diagonal entry i of d_a (see ``homology_group``); each is
        reduced modulo its summand's order g, which makes it unique, and
        is exact when g = 0 (a free summand over Z)."""
        s, n = self._boundary_form, self.modulus or 0
        w = _cycle_coordinates(s, _sparse_rows(chains), n)
        if w is None:
            raise ValueError("chain is not a cycle for these coefficients")
        k, kernel = chains.cols, w[s.rank:]
        rows = [_combination(kernel, _smith_vector(self._cycle_form, i), g) for i, g in self._tensor]
        rows += [{j: x // (n // g) % g for j, x in w[i].items()} for i, g in self._tor]
        return IntMatrix._of(len(rows), k, [row.get(j, 0) for row in rows for j in range(k)])


def _boundary_rows(cx: DeltaComplex, a: int, reduced: bool) -> list[dict[int, int]]:
    """The sparse rows of d_a, or of the augmentation in reduced degree 0."""
    if a == 0 and reduced:
        return [dict.fromkeys(range(len(cx.simplices(0))), 1)]
    return cx._boundary_rows(a)


def homology_group(cx: DeltaComplex, a: int, modulus: int | None = None,
                   reduced: bool = False) -> HomologyResult:
    """H_a of the complex with Z (modulus None) or Z/modulus
    coefficients, on one generator per cyclic summand of order other
    than 1, with diagonal relations.  Degrees above the dimension give
    the trivial group.

    With ``reduced`` the degree-0 boundary is replaced by the
    augmentation, so H̃_0 counts components minus one.

    Z is the case n = 0.  By the universal coefficient theorem,
    H_a(X; Z/n) = H_a(X) ⊗ Z/n ⊕ Tor(H_{a-1}(X), Z/n), and both parts
    are read off the Smith form u·d_a·v = D of d_a and the relation form
    of H_a over Z on the kernel basis of d_a (the columns of v past the
    rank; its relations are the rows past the rank of v⁻¹·d_{a+1}, which
    vanish inside the rank since d_a·d_{a+1} = 0), taken from those
    sparse rows by ``matrices._smith_form``.

    A Smith generator z of H_a of order t (0 when free) gives
    Z/gcd(t, n), represented by z: torsion first, in divisibility
    order, then free.  Over Z that is H_a itself.  The sequence
    0 -> H_{a-1} -> coker d_a -> C_{a-1}/Z_{a-1} -> 0 splits, since the
    quotient embeds in the free C_{a-2}, so the torsion of H_{a-1} is
    that of coker d_a: the diagonal entries t > 1 of D are its
    coefficients, and column i of u⁻¹ is a cycle z of order t = d_i.
    Since d_a·v = u⁻¹·D, column i of v is a chain c with ∂c = t·z, so t
    with g = gcd(t, n) > 1 gives Z/g, represented by (n/g)·c: the
    Bockstein H_a(X; Z/n) -> H_{a-1}(X) sends it to (t/g)·z, of order
    g.  H_{a-1} is never computed and nothing is solved.  Each
    representative is a sparse combination of columns of v, reduced
    into [0, n) over Z/n.  The group's relations are the diagonal of the
    orders, in Smith form over Z, and over Z/n unless a Tor summand
    breaks the divisibility chain, so describing it then eliminates
    nothing (see ``matrices.snf``).
    """
    if a < 0:
        raise ValueError("degree must be nonnegative")
    if modulus is not None and modulus < 2:
        raise ValueError("modulus must be at least 2")
    n = modulus or 0
    width = len(cx.simplices(a))
    s = _smith_form(_boundary_rows(cx, a, reduced), width)
    relations = _cycle_coordinates(s, cx._boundary_rows(a + 1))
    if relations is None:
        raise WellDefinednessError("a boundary is not a cycle")
    form = _smith_form(relations[s.rank:], len(cx.simplices(a + 1)))
    orders = form.diagonal + (0,) * (width - s.rank - len(form.diagonal))
    tensor = [(i, g) for i, g in enumerate(gcd(t, n) for t in orders) if g != 1]
    # over Z (n = 0) there is no Tor summand: no g has 1 < g <= 0
    tor = [(i, g) for i, g in enumerate(gcd(t, n) for t in s.diagonal[:s.rank]) if 1 < g <= n]
    columns = _v_columns(s)
    # generator i of the Smith form is column i of its u⁻¹, read without
    # building u⁻¹
    reps = [_combination(columns[s.rank:], _smith_vector(form, i, column=True, modulus=n), n)
            for i, _ in tensor]
    reps += [_combination([columns[i]], [n // g], n) for i, g in tor]
    orders = [g for _, g in tensor + tor]
    return HomologyResult(cx, a, modulus, FgAbelianGroup(len(orders), IntMatrix.diagonal(orders)),
                          _from_columns(reps, width), s, form, tensor, tor)


def induced_map(f: ChainMap, a: int, modulus: int | None = None,
                source: HomologyResult | None = None,
                target: HomologyResult | None = None) -> ModuleMap:
    """The map on degree-a homology induced by a chain map, expressed
    on the generators chosen by ``homology_group``.

    Precomputed source/target results may be passed in; they must come
    from the same complexes, degree and coefficients.  Homology is
    unreduced unless they are reduced results.
    """
    if source is None:
        source = homology_group(f.source, a, modulus)
    if target is None:
        target = homology_group(f.target, a, modulus)
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
