"""Homology with Z/n coefficients from its own presentation, as the
package first computed it, kept only as a test oracle.

Cycles mod n are the preimage of n·Z^rows under d_a, and the relations
are the preimage, under those cycles, of the lattice spanned by d_{a+1}
and n·I.  Nothing here reads integral homology, so a comparison with
``snckit.homology.homology_group``, which reads Z/n homology off the
integral Smith forms by the universal coefficient theorem, is a real
cross-check.  ``test_homology.TestModNMatchesReference`` makes it.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from snckit.complexes import DeltaComplex
from snckit.groups import FgAbelianGroup
from snckit.matrices import IntMatrix, preimage_generators


def homology_mod_n(cx: DeltaComplex, a: int, n: int,
                   reduced: bool = False) -> tuple[FgAbelianGroup, IntMatrix]:
    """H_a(cx; Z/n) presented on generators of the cycles mod n, and
    those generators as the columns of a matrix in chain coordinates."""
    d_a = cx.augmentation_matrix() if a == 0 and reduced else cx.boundary_matrix(a)
    d_next = cx.boundary_matrix(a + 1)
    cycles = preimage_generators(d_a, IntMatrix.diagonal([n] * d_a.rows))
    targets = d_next.hstack(IntMatrix.diagonal([n] * d_a.cols))
    relations = preimage_generators(cycles, targets)
    return FgAbelianGroup(cycles.cols, relations), cycles
