"""Finite Δ-complexes with ordered vertices, chain maps, and the
suspension construction.

A complex is a list of simplices per dimension.  Vertices are the
dimension-0 simplices; their listing order is the global vertex order
that every higher simplex must respect.  Simplices carry explicit
facet ids, so two simplices may share a vertex tuple (parallel edges
and worse are legal; they arise naturally from intersection data).

The boundary convention is positional: the facet omitting vertex
position i enters the boundary with sign (-1)^i.

Construction checks the chain-level identities combinatorially, one
simplex at a time, and builds no matrix: d∘d = 0 by summing the signs
over the facets of each simplex's facets, and d f = f d for a chain map
by comparing the signed boundary of each simplex's image with the
signed images of its facets.  Each simplex is one column of the
products d_{a-1} d_a and d f, f d, so the checks are exact.  A
chain-map matrix and a dense boundary are built on each read; homology
reads each boundary as sparse rows built from the facets
(``_boundary_rows``), with no dense matrix.

``DeltaComplex`` checks everything about simplices a caller gives it.
The dual complex of a validated configuration is built with the private
``DeltaComplex._of`` instead, which takes the layers as they are and
checks nothing, d∘d = 0 included; its call site states which validation
step implies each check it skips.  The d∘d sum itself,
``_boundary_squared_problems``, reads only facet ids, so configuration
validation takes it on its own positional facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, starmap
from operator import gt
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .matrices import IntMatrix, _from_rows

__all__ = ["Simplex", "DeltaComplex", "ChainMap", "suspend", "sort_parity"]

_new = object.__new__
_set = object.__setattr__


def sort_parity(seq: Sequence[int]) -> int:
    """+1 or -1: the sign of the permutation sorting ``seq`` (entries
    distinct), the parity of its count of inversions."""
    return -1 if sum(starmap(gt, combinations(seq, 2))) % 2 else 1


@dataclass(frozen=True)
class Simplex:
    """One cell: ``facets[i]`` is the id of the facet omitting
    ``vertices[i]``.  Dimension-0 simplices have ``vertices == (id,)``
    and no facets."""

    id: str
    vertices: tuple[str, ...]
    facets: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @staticmethod
    def vertex(vid: str) -> "Simplex":
        return Simplex._of(vid, (vid,), ())

    @classmethod
    def _of(cls, sid: str, vertices: tuple[str, ...],
            facets: tuple[str, ...]) -> "Simplex":
        """``Simplex(sid, vertices, facets)`` at half the cost: the frozen
        dataclass's ``__init__`` looks ``object.__setattr__`` up again
        for every field.  (Filling the instance ``__dict__`` would build
        as fast, but would make every later attribute read slower.)"""
        s = _new(cls)
        _set(s, "id", sid)
        _set(s, "vertices", vertices)
        _set(s, "facets", facets)
        return s


def _boundary_squared_problems(facets: Mapping[str, Sequence[str]],
                               ids: Iterable[str]) -> list[str]:
    """[] when the signed facets of the facets of each simplex in
    ``ids`` cancel; otherwise the one problem naming the dimension of the
    first that does not.  ``facets`` maps the simplices in ``ids`` and
    their facets to their facet ids.  Facet data alone gives d(d(s))
    matching supports; the sign bookkeeping is what this checks, one
    simplex (one column of d_{a-1} d_a) at a time."""
    for sid in ids:
        twice: dict[str, int] = {}
        own = facets[sid]
        for i, fid in enumerate(own):
            for k, gid in enumerate(facets[fid]):
                twice[gid] = twice.get(gid, 0) + (-1 if (i + k) % 2 else 1)
        if any(twice.values()):
            return [f"boundary squared is nonzero in dimension {len(own) - 1}"]
    return []


class DeltaComplex:
    """An immutable Δ-complex; the constructor validates everything, and
    checks d∘d = 0 per simplex: the signed facets of its facets cancel."""

    __slots__ = ("_by_dim", "_by_id", "_vertex_pos", "_index_in_dim")

    def __init__(self, simplices: Iterable[Simplex]):
        by_dim: list[list[Simplex]] = []
        by_id: dict[str, Simplex] = {}
        problems: list[str] = []
        for s in simplices:
            sid = s.id
            if sid in by_id:
                problems.append(f"duplicate simplex id {sid!r}")
                continue
            by_id[sid] = s
            dim = len(s.vertices) - 1
            while len(by_dim) <= dim:
                by_dim.append([])
            by_dim[dim].append(s)
        if problems:
            raise ValidationError(problems)
        if not by_dim:
            raise ValidationError(["complex has no simplices"])

        vertex_pos = {s.id: i for i, s in enumerate(by_dim[0])}
        for s in by_dim[0]:
            if s.vertices != (s.id,):
                problems.append(f"vertex {s.id!r} must list itself as its only vertex")
            if s.facets != ():
                problems.append(f"vertex {s.id!r} must have no facets")

        position = vertex_pos.get
        for a in range(1, len(by_dim)):
            for s in by_dim[a]:
                vertices = s.vertices
                if len(set(vertices)) != len(vertices):
                    problems.append(f"simplex {s.id!r} repeats a vertex")
                    continue
                pos = list(map(position, vertices))
                if None in pos:
                    missing = [v for v in vertices if v not in vertex_pos]
                    problems.append(f"simplex {s.id!r} uses unknown vertices {missing}")
                    continue
                if pos != sorted(pos):
                    problems.append(
                        f"simplex {s.id!r} lists vertices out of the global order"
                    )
                facets = s.facets
                if len(facets) != a + 1:
                    problems.append(
                        f"simplex {s.id!r} has {len(facets)} facets, expected {a + 1}"
                    )
                    continue
                for i, fid in enumerate(facets):
                    f = by_id.get(fid)
                    if f is None:
                        problems.append(f"simplex {s.id!r} facet {fid!r} does not exist")
                        continue
                    if len(f.vertices) != a:
                        problems.append(
                            f"simplex {s.id!r} facet {fid!r} has dimension {f.dim}, "
                            f"expected {a - 1}"
                        )
                        continue
                    expected = vertices[:i] + vertices[i + 1:]
                    if f.vertices != expected:
                        problems.append(
                            f"simplex {s.id!r} facet {fid!r} spans {f.vertices}, "
                            f"expected {expected}"
                        )
        if problems:
            raise ValidationError(problems)

        if len(by_dim) > 2:  # below dimension 2 no facet has facets
            problems = _boundary_squared_problems(
                {sid: s.facets for sid, s in by_id.items()},
                [s.id for layer in by_dim[2:] for s in layer])
            if problems:
                raise ValidationError(problems)
        self._set_layers(by_dim, by_id, vertex_pos)

    @classmethod
    def _of(cls, by_dim: Sequence[Sequence[Simplex]]) -> "DeltaComplex":
        """A complex from layers the package built itself, listed by
        dimension, whose simplices have distinct ids, respect the order
        of layer 0, have the facets their vertices call for and satisfy
        d∘d = 0; skips the checks that ``__init__`` makes on caller
        data."""
        cx = object.__new__(cls)
        cx._set_layers(by_dim, {s.id: s for layer in by_dim for s in layer},
                       {s.id: i for i, s in enumerate(by_dim[0])})
        return cx

    def _set_layers(self, by_dim: Sequence[Sequence[Simplex]],
                    by_id: dict[str, Simplex], vertex_pos: dict[str, int]) -> None:
        self._by_dim = tuple(tuple(layer) for layer in by_dim)
        self._by_id = by_id
        self._vertex_pos = vertex_pos
        self._index_in_dim = {
            s.id: j for layer in self._by_dim for j, s in enumerate(layer)
        }

    # -- accessors ------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self._by_dim) - 1

    def simplices(self, a: int) -> tuple[Simplex, ...]:
        if 0 <= a < len(self._by_dim):
            return self._by_dim[a]
        return ()

    def all_simplices(self) -> Iterable[Simplex]:
        for layer in self._by_dim:
            yield from layer

    def index_in_dimension(self, sid: str) -> int:
        return self._index_in_dim[sid]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self._by_dim)

    def size(self) -> int:
        return sum(self.counts())

    def euler_characteristic(self) -> int:
        return sum((-1) ** a * c for a, c in enumerate(self.counts()))

    # -- chain level ------------------------------------------------------

    def boundary_matrix(self, a: int) -> IntMatrix:
        """The boundary C_a -> C_{a-1}; rows follow the (a-1)-simplex
        order, columns the a-simplex order.  For a == 0 this is the
        zero map to the zero module, for a > dimension the zero map
        from it.  Built from ``_boundary_rows`` on each call; homology
        eliminates those sparse rows and reads no dense boundary."""
        return _from_rows(self._boundary_rows(a), len(self.simplices(a)))

    def _boundary_rows(self, a: int) -> list[dict[int, int]]:
        """The rows of ``boundary_matrix(a)`` as fresh ``{column: value}``
        dicts of their nonzero entries, built from the facets with no
        dense matrix; the caller may reduce them in place.  The facets
        of a simplex span different vertex sets, so they are distinct
        and no entry sums two signs."""
        rows: list[dict[int, int]] = [{} for _ in self.simplices(a - 1)] if a >= 1 else []
        index = self._index_in_dim
        for j, s in enumerate(self.simplices(a)):
            for i, fid in enumerate(s.facets):
                rows[index[fid]][j] = -1 if i % 2 else 1
        return rows

    # -- comparison --------------------------------------------------------

    def structure_signature(self) -> tuple:
        """Id-free positional encoding: vertex positions and facet
        indices of every simplex, per dimension and in listing order.
        Two complexes built the same way compare equal regardless of
        how their simplices are named."""
        sig = []
        for a, layer in enumerate(self._by_dim):
            level = []
            for s in layer:
                vpos = tuple(self._vertex_pos[v] for v in s.vertices)
                fpos = tuple(self._index_in_dim[f] for f in s.facets)
                level.append((vpos, fpos))
            sig.append(tuple(level))
        return tuple(sig)

    def __repr__(self) -> str:
        shape = "x".join(str(c) for c in self.counts())
        return f"<DeltaComplex {shape}>"


class ChainMap:
    """A map of complexes sending each simplex to a signed simplex of
    the same dimension; construction checks it commutes with the
    boundary, exactly and per source simplex: the signed boundary of its
    image equals the signed images of its facets."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source: DeltaComplex, target: DeltaComplex,
                 assignment: Mapping[str, tuple[str, int]]):
        problems: list[str] = []
        targets = target._by_id
        for s in source.all_simplices():
            try:
                tid, sign = assignment[s.id]
            except KeyError:
                problems.append(f"simplex {s.id!r} has no image")
                continue
            if sign not in (1, -1):
                problems.append(f"simplex {s.id!r} has sign {sign}, expected +1 or -1")
            t = targets.get(tid)
            if t is None:
                problems.append(f"simplex {s.id!r} maps to unknown id {tid!r}")
            elif len(t.vertices) != len(s.vertices):
                problems.append(
                    f"simplex {s.id!r} (dim {s.dim}) maps to {tid!r} (dim {t.dim})"
                )
        extra = assignment.keys() - source._by_id.keys()
        if extra:
            problems.append(f"assignment covers unknown ids {sorted(extra)}")
        if problems:
            raise ValidationError(problems)

        self.source = source
        self.target = target
        self.assignment = images = dict(assignment)

        layers = source._by_dim
        for a in range(1, len(layers)):
            for s in layers[a]:
                tid, sign = images[s.id]
                t_facets = targets[tid].facets
                # the usual case, facet i onto facet i of the image with
                # the image's sign, is one where both sides agree term by term
                for fid, gid in zip(s.facets, t_facets):
                    if images[fid] != (gid, sign):
                        break
                else:
                    continue
                diff: dict[str, int] = {}
                for i, gid in enumerate(t_facets):
                    diff[gid] = diff.get(gid, 0) + (-sign if i % 2 else sign)
                for i, fid in enumerate(s.facets):
                    gid, fsign = images[fid]
                    diff[gid] = diff.get(gid, 0) - (-fsign if i % 2 else fsign)
                if any(diff.values()):
                    raise ValidationError(
                        [f"map does not commute with the boundary in dimension {a}"]
                    )

    def matrix(self, a: int) -> IntMatrix:
        """The induced map on a-chains (target rows, source columns),
        built on each call; construction never needs it."""
        rows = len(self.target.simplices(a))
        src = self.source.simplices(a)
        cols = len(src)
        entries = [0] * (rows * cols)
        for j, s in enumerate(src):
            tid, sign = self.assignment[s.id]
            entries[self.target.index_in_dimension(tid) * cols + j] += sign
        return IntMatrix._of(rows, cols, entries)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other; the images of ``other`` must be simplex ids
        of ``self.source``."""
        if other.target is not self.source and other.target.structure_signature() \
                != self.source.structure_signature():
            raise ValueError("chain maps are not composable")
        combined = {}
        for sid, (mid, sign1) in other.assignment.items():
            if mid not in self.assignment:
                # same shape, other ids
                raise ValueError("chain maps are not composable")
            tid, sign2 = self.assignment[mid]
            combined[sid] = (tid, sign1 * sign2)
        return ChainMap(other.source, self.target, combined)

    @classmethod
    def induced(cls, source: DeltaComplex, target: DeltaComplex,
                image: Mapping[str, str]) -> "ChainMap":
        """The chain map sending each simplex of ``source`` to the
        target simplex ``image[id]``, signed by the parity of its image
        vertices' positions in the target vertex order.  Every signed
        simplicial map in the package is built here."""
        pos = target._vertex_pos
        return cls(source, target, {
            s.id: (image[s.id], sort_parity([pos[image[v]] for v in s.vertices]))
            for s in source.all_simplices()})

    def __repr__(self) -> str:
        return f"<ChainMap {self.source!r} -> {self.target!r}>"


def suspend(cx: DeltaComplex, apex0: str, apex1: str) -> DeltaComplex:
    """The suspension: every simplex is kept and also joined to each of
    two new apex vertices, which are appended last in the vertex order
    and never joined to each other.

    Join ids are ``"{simplex}*{apex}"``; per dimension the original
    simplices come first, then the apex0 joins, then the apex1 joins.
    """
    if apex0 == apex1:
        raise ValidationError([f"apex ids must differ, got {apex0!r} twice"])
    taken = {s.id for s in cx.all_simplices()}
    fresh = [apex0, apex1]
    for s in cx.all_simplices():
        fresh.append(f"{s.id}*{apex0}")
        fresh.append(f"{s.id}*{apex1}")
    collisions = sorted({f for f in fresh if f in taken})
    if collisions or len(set(fresh)) != len(fresh):
        raise ValidationError([f"apex id collision: {collisions or sorted(fresh)}"])

    def join(s: Simplex, apex: str) -> Simplex:
        if s.dim == 0:
            facets = (apex, s.id)
        else:
            facets = tuple(f"{fid}*{apex}" for fid in s.facets) + (s.id,)
        return Simplex(f"{s.id}*{apex}", s.vertices + (apex,), facets)

    out: list[Simplex] = list(cx.simplices(0))
    out.append(Simplex.vertex(apex0))
    out.append(Simplex.vertex(apex1))
    for a in range(1, cx.dimension + 2):
        out.extend(cx.simplices(a))
        for apex in (apex0, apex1):
            out.extend(join(s, apex) for s in cx.simplices(a - 1))
    return DeltaComplex(out)
