"""The construction checks of Δ-complexes and chain maps as the package
first made them, with dense matrix products, kept only as a test oracle.

``DeltaComplex`` now checks d∘d = 0, and ``ChainMap`` checks d f = f d,
one simplex at a time.  ``test_complexes.TestChecksMatchDenseProducts``
checks that they accept and reject exactly what these products do, and
name the same dimension.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from snckit.complexes import DeltaComplex, Simplex
from snckit.matrices import IntMatrix


def _boundary(layers: Sequence[Sequence[Simplex]], a: int) -> IntMatrix:
    """d_a as a dense matrix: rows follow layer a-1, columns layer a."""
    index = {s.id: i for i, s in enumerate(layers[a - 1])}
    cols = []
    for s in layers[a]:
        col = [0] * len(layers[a - 1])
        for i, fid in enumerate(s.facets):
            col[index[fid]] += (-1) ** i
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=len(layers[a - 1]))


def _layers(simplices: Sequence[Simplex]) -> list[list[Simplex]]:
    layers: list[list[Simplex]] = []
    for s in simplices:
        while len(layers) <= s.dim:
            layers.append([])
        layers[s.dim].append(s)
    return layers


def boundary_squared_failure(simplices: Sequence[Simplex]) -> int | None:
    """The least a with d_{a-1} d_a != 0, or None.  The simplices must
    pass every other check of ``DeltaComplex``."""
    layers = _layers(simplices)
    for a in range(2, len(layers)):
        if not (_boundary(layers, a - 1) @ _boundary(layers, a)).is_zero():
            return a
    return None


def _map_matrix(source: DeltaComplex, target: DeltaComplex,
                assignment: Mapping[str, tuple[str, int]], a: int) -> IntMatrix:
    index = {s.id: i for i, s in enumerate(target.simplices(a))}
    cols = []
    for s in source.simplices(a):
        col = [0] * len(index)
        tid, sign = assignment[s.id]
        col[index[tid]] += sign
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=len(index))


def commutation_failure(source: DeltaComplex, target: DeltaComplex,
                        assignment: Mapping[str, tuple[str, int]]) -> int | None:
    """The least a with d_a f_a != f_{a-1} d_a, or None.  The
    assignment must pass every other check of ``ChainMap``."""
    src = [source.simplices(a) for a in range(source.dimension + 1)]
    tgt = [target.simplices(a) for a in range(target.dimension + 1)]
    for a in range(1, source.dimension + 1):
        lhs = _boundary(tgt, a) @ _map_matrix(source, target, assignment, a)
        rhs = _map_matrix(source, target, assignment, a - 1) @ _boundary(src, a)
        if lhs != rhs:
            return a
    return None
