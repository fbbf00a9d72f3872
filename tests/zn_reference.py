"""Homology with Z/n coefficients from its own presentation, as the
package first computed it, kept only as a test oracle.

Cycles mod n are the preimage of n·Z^rows under d_a, and the relations
are the preimage, under those cycles, of the lattice spanned by d_{a+1}
and n·I.  Nothing here reads integral homology, so a comparison with
``snckit.homology.homology_group``, which reads Z/n homology off the
integral Smith forms by the universal coefficient theorem, is a real
cross-check.  ``test_homology.TestModNMatchesReference`` makes it.

``coordinates_mod_n`` is the stacked solve the package first used to
write a chain on the generators of a Z/n homology result, kept as the
oracle for ``HomologyResult._coordinates``, which reads them off the
Smith form of d_a instead.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from snckit.complexes import DeltaComplex
from snckit.groups import FgAbelianGroup
from snckit.homology import HomologyResult
from snckit.matrices import IntMatrix, preimage_generators, solve_matrix


def homology_mod_n(cx: DeltaComplex, a: int, n: int,
                   reduced: bool = False) -> tuple[FgAbelianGroup, IntMatrix]:
    """H_a(cx; Z/n) presented on generators of the cycles mod n, and
    those generators as the columns of a matrix in chain coordinates.
    Reduced degree 0 takes the augmentation, the 1 x V row of ones."""
    vertices = len(cx.simplices(0))
    d_a = (IntMatrix.from_rows([[1] * vertices], cols=vertices) if a == 0 and reduced
           else cx.boundary_matrix(a))
    d_next = cx.boundary_matrix(a + 1)
    cycles = preimage_generators(d_a, IntMatrix.diagonal([n] * d_a.rows))
    targets = d_next.hstack(IntMatrix.diagonal([n] * d_a.cols))
    relations = preimage_generators(cycles, targets)
    return FgAbelianGroup(cycles.cols, relations), cycles


def coordinates_mod_n(h: HomologyResult, chains: IntMatrix) -> IntMatrix | None:
    """Coordinates, on the generators of the Z/n result ``h``, of the
    classes of the columns of ``chains``, or None when some column is
    not a cycle mod n.  The representatives, d_{a+1} and n·I span the
    cycles mod n, so ``chains`` is solved once on ``[representatives |
    d_{a+1} | n·I]``, and the representatives' block, reduced modulo
    each summand's order, is the unique coordinate vector."""
    n, rows = h.modulus, h.cycle_matrix.rows
    lattice = h.cycle_matrix.hstack(h.complex.boundary_matrix(h.degree + 1))
    x = solve_matrix(lattice.hstack(IntMatrix.diagonal([n] * rows)), chains)
    if x is None:
        return None
    relations = h.group.relations
    orders = [relations[i, i] for i in range(min(relations.rows, relations.cols))]
    return IntMatrix(len(orders), x.cols,
                     [x[i, j] % g for i, g in enumerate(orders) for j in range(x.cols)])
