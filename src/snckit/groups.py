"""Finitely generated abelian groups, maps between them, and
Frobenius-equipped modules.

A group is presented by a generator count and an integer matrix whose
*columns* are relation vectors: the group is Z^n modulo the column
span.  Maps are matrices on generator coordinates, so composition is
matrix product and a map is well defined exactly when it carries every
source relation into the target relation lattice (decided through the
Smith normal form, never by floating point or randomness).

A group made from another by adding relation columns (a cokernel,
coinvariants, a localization, theta over y0) continues that group's
Smith normal form over the added columns (``matrices._extend_snf``)
instead of eliminating its whole relation matrix again.  A map makes
that continuation of its target's form by its matrix once, as the form
of its cokernel, and its image, its cokernel and both of
``is_injective`` and ``is_surjective`` read the same one.  A derived
group's relation matrix is still the parent's with the new columns
appended.

``GaloisModule`` pairs a group with a finite-order automorphism, the
Frobenius of a ground field acting on an invariant of the geometric
object; ``coinvariants``, torsion restriction and localization at a
prime all live here because they are pure group theory.

The ``ModuleMap`` and ``GaloisModule`` constructors always check
well-definedness (and, for a module, the declared order), so every
object a caller builds is sound.  Objects the package derives from
checked ones are built with the private ``_of`` instead, which skips
that check; each such site states why its invariant already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import WellDefinednessError
from .matrices import (
    IntMatrix,
    SnfDecomposition,
    _extend_snf,
    _preimage_lattice,
    _smith_coordinates,
    snf,
)

__all__ = [
    "IsoType",
    "FgAbelianGroup",
    "SmithForm",
    "ModuleMap",
    "GaloisModule",
    "cokernel",
    "image_subgroup",
    "torsion_and_primary",
    "coinvariants",
    "is_prime",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3):
        if n % q == 0:
            return n == q
    i = 5
    while i * i <= n:
        if n % i == 0 or n % (i + 2) == 0:
            return False
        i += 6
    return True


def _require_prime(ell: int) -> None:
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")


@dataclass(frozen=True)
class IsoType:
    """Isomorphism type: invariant factors (each > 1, divisibility
    order) plus free rank."""

    torsion: tuple[int, ...]
    rank: int

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def order(self) -> int | None:
        if self.rank > 0:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


class FgAbelianGroup:
    """Z^n modulo the column span of ``relations`` (an n-row matrix)."""

    __slots__ = ("generator_count", "relations", "_snf", "_smith", "_base")

    def __init__(self, generator_count: int, relations: IntMatrix | None = None):
        if generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        if relations is None:
            relations = IntMatrix.zeros(generator_count, 0)
        if relations.rows != generator_count:
            raise ValueError(
                f"relations have {relations.rows} rows for {generator_count} generators"
            )
        self.generator_count = generator_count
        self.relations = relations
        self._snf: SnfDecomposition | None = None
        self._smith: "SmithForm | None" = None
        self._base: "tuple[FgAbelianGroup, IntMatrix] | None" = None

    @classmethod
    def _extended(cls, base: "FgAbelianGroup", columns: IntMatrix) -> "FgAbelianGroup":
        """``base`` with the relation ``columns`` added.  Its Smith form
        is ``base``'s continued over the new columns, on first use."""
        g = cls(base.generator_count, base.relations.hstack(columns))
        g._base = (base, columns)
        return g

    # -- constructors -------------------------------------------------

    @classmethod
    def free(cls, n: int) -> "FgAbelianGroup":
        return cls(n)

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0)

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        if n < 1:
            raise ValueError("cyclic order must be positive")
        return cls(1, IntMatrix.from_columns([[n]]))

    @classmethod
    def from_invariants(cls, torsion: Sequence[int], rank: int) -> "FgAbelianGroup":
        tors = [int(d) for d in torsion]
        if any(d < 2 for d in tors):
            raise ValueError("invariant factors must exceed 1")
        n = len(tors) + rank
        rel = IntMatrix.from_columns(
            [[tors[j] if i == j else 0 for i in range(n)] for j in range(len(tors))],
            rows=n,
        )
        return cls(n, rel)

    # -- normal form --------------------------------------------------

    def relation_snf(self) -> SnfDecomposition:
        if self._snf is None:
            if self._base is None:
                self._snf = snf(self.relations)
            else:
                base, columns = self._base
                self._snf = _extend_snf(base.relation_snf(), columns)
                self._base = None
        return self._snf

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.relation_snf().diagonal() if d > 1)

    @property
    def free_rank(self) -> int:
        return self.generator_count - self.relation_snf().rank

    def iso_type(self) -> IsoType:
        return IsoType(self.invariant_factors, self.free_rank)

    def isomorphic_to(self, other: "FgAbelianGroup") -> bool:
        return self.iso_type() == other.iso_type()

    def order(self) -> int | None:
        return self.iso_type().order()

    def is_trivial(self) -> bool:
        return self.iso_type().is_trivial

    def describe(self) -> str:
        return self.iso_type().describe()

    # -- element calculus ---------------------------------------------

    def in_relation_lattice(self, vec: Sequence[int]) -> bool:
        """Whether ``vec`` represents zero, i.e. lies in the relation lattice."""
        # zero always does, and this spares reading the SNF
        if len(vec) == self.generator_count and not any(vec):
            return True
        # one SNF answers every membership test of this group, so u is
        # built once and reused, where a one-off solve replays the log
        s = self.relation_snf()
        column = [{0: x} if x else {} for x in s.u.apply(vec)]
        return _smith_coordinates(s, column) is not None

    def smith(self) -> "SmithForm":
        if self._smith is None:
            self._smith = SmithForm._build(self)
        return self._smith

    def element_order(self, vec: Sequence[int]) -> int | None:
        """Order of the class of ``vec``; None when infinite."""
        sm = self.smith()
        y = sm.to_smith.matrix.apply(vec)
        if any(y[sm.torsion_count + k] != 0 for k in range(sm.free_count)):
            return None
        n = 1
        for i, d in enumerate(sm.torsion_orders):
            k = d // gcd(d, y[i] % d)
            n = n * k // gcd(n, k)
        return n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return (
            self.generator_count == other.generator_count
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.generator_count, self.relations))

    def __repr__(self) -> str:
        return f"<FgAbelianGroup {self.describe()} on {self.generator_count} generators>"


class SmithForm:
    """Diagonalized picture of a group with the change of basis.

    ``group`` is presented on ``torsion_count + free_count`` generators
    (torsion first, in divisibility order) and ``to_smith`` /
    ``from_smith`` are mutually inverse isomorphisms with the original
    presentation.
    """

    __slots__ = ("group", "to_smith", "from_smith", "torsion_orders", "torsion_count", "free_count")

    def __init__(self, group, to_smith, from_smith, torsion_orders, free_count):
        self.group = group
        self.to_smith = to_smith
        self.from_smith = from_smith
        self.torsion_orders = torsion_orders
        self.torsion_count = len(torsion_orders)
        self.free_count = free_count

    @classmethod
    def _build(cls, g: FgAbelianGroup) -> "SmithForm":
        s = g.relation_snf()
        diag = s.diagonal()
        torsion_idx = [i for i, d in enumerate(diag) if d > 1]
        free_idx = [i for i, d in enumerate(diag) if d == 0]
        free_idx += list(range(len(diag), g.generator_count))
        kept = torsion_idx + free_idx
        orders = tuple(diag[i] for i in torsion_idx)
        smith_group = FgAbelianGroup.from_invariants(orders, len(free_idx))
        to_mat = IntMatrix.from_rows([list(s.u.row(i)) for i in kept], cols=g.generator_count)
        from_mat = IntMatrix.from_columns([s.u_inv.col(i) for i in kept], rows=g.generator_count)
        # u carries the relation lattice onto the diagonal one and u_inv
        # carries it back, so both maps are well defined
        to_smith = ModuleMap._of(g, smith_group, to_mat)
        from_smith = ModuleMap._of(smith_group, g, from_mat)
        return cls(smith_group, to_smith, from_smith, orders, len(free_idx))


class ModuleMap:
    """A homomorphism between presented groups, as a matrix on
    generator coordinates (target rows, source columns)."""

    __slots__ = ("source", "target", "matrix", "_cokernel")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup,
                 matrix: IntMatrix):
        if matrix.rows != target.generator_count or matrix.cols != source.generator_count:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{target.generator_count}x{source.generator_count}"
            )
        for j in range(source.relations.cols):
            image = matrix.apply(source.relations.col(j))
            if not target.in_relation_lattice(image):
                raise WellDefinednessError(
                    f"source relation #{j} is not sent into the target relation lattice"
                )
        self.source = source
        self.target = target
        self.matrix = matrix
        self._cokernel: FgAbelianGroup | None = None

    @classmethod
    def _of(cls, source: FgAbelianGroup, target: FgAbelianGroup,
            matrix: IntMatrix) -> "ModuleMap":
        """A map the package derived from well-defined ones; skips the
        check that ``__init__`` makes on caller data."""
        m = object.__new__(cls)
        m.source = source
        m.target = target
        m.matrix = matrix
        m._cokernel = None
        return m

    @classmethod
    def identity(cls, g: FgAbelianGroup) -> "ModuleMap":
        return cls._of(g, g, IntMatrix.identity(g.generator_count))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.matrix.apply(vec)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target.generator_count != self.source.generator_count:
            raise ValueError("maps are not composable")
        # a composite of well-defined maps is well defined
        return ModuleMap._of(other.source, self.target, self.matrix @ other.matrix)

    def equals_mod_relations(self, other: "ModuleMap") -> bool:
        """Whether the two maps agree as homomorphisms (columns may
        differ by target relations)."""
        if self.matrix.cols != other.matrix.cols or self.matrix.rows != other.matrix.rows:
            return False
        diff = self.matrix - other.matrix
        return all(self.target.in_relation_lattice(diff.col(j)) for j in range(diff.cols))

    def _cokernel_group(self) -> FgAbelianGroup:
        """The target modulo the image, made once per map; its Smith
        form is the target's continued by the matrix, and the preimage
        lattice is read off that same form."""
        if self._cokernel is None:
            self._cokernel = FgAbelianGroup._extended(self.target, self.matrix)
        return self._cokernel

    def _preimage(self) -> IntMatrix:
        """Generators of the source vectors sent into the target's
        relation lattice."""
        return _preimage_lattice(self.target.relation_snf(),
                                 self._cokernel_group().relation_snf())

    def is_injective(self) -> bool:
        gens = self._preimage()
        return all(
            self.source.in_relation_lattice(gens.col(j)) for j in range(gens.cols)
        )

    def is_surjective(self) -> bool:
        return self._cokernel_group().is_trivial()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.matrix))

    def __repr__(self) -> str:
        return f"<ModuleMap {self.source.describe()} -> {self.target.describe()}>"


def cokernel(f: ModuleMap) -> tuple[FgAbelianGroup, ModuleMap]:
    """Target modulo the image, with the projection map."""
    g = f._cokernel_group()
    # g only adds relations to the target, so the identity descends
    proj = ModuleMap._of(f.target, g, IntMatrix.identity(g.generator_count))
    return g, proj


def image_subgroup(f: ModuleMap) -> tuple[FgAbelianGroup, ModuleMap]:
    """The image of ``f`` inside its target.

    Returns the image as an abstract group (generated by the images of
    the source generators) together with its inclusion into the
    target; the inclusion's matrix columns are the generating vectors.
    """
    g = FgAbelianGroup(f.source.generator_count, f._preimage())
    # g's relations are the preimage of the target lattice under f
    incl = ModuleMap._of(g, f.target, f.matrix)
    return g, incl


def torsion_and_primary(g: FgAbelianGroup, ell: int) -> tuple[FgAbelianGroup, FgAbelianGroup]:
    """The torsion subgroup and its ell-primary part, as abstract groups."""
    _require_prime(ell)
    factors = g.invariant_factors
    torsion = (
        FgAbelianGroup.from_invariants(factors, 0) if factors else FgAbelianGroup.trivial()
    )
    parts = []
    for d in factors:
        p = 1
        while d % ell == 0:
            p *= ell
            d //= ell
        if p > 1:
            parts.append(p)
    primary = FgAbelianGroup.from_invariants(parts, 0) if parts else FgAbelianGroup.trivial()
    return torsion, primary


class GaloisModule:
    """A group together with a finite-order Frobenius automorphism.

    ``order`` is a declared bound: the matrix raised to that power must
    act as the identity, which also certifies the endomorphism is an
    automorphism.
    """

    __slots__ = ("group", "frobenius", "order")

    def __init__(self, group: FgAbelianGroup, frobenius: IntMatrix, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        n = group.generator_count
        if frobenius.rows != n or frobenius.cols != n:
            raise ValueError(f"frobenius must be {n}x{n}")
        ModuleMap(group, group, frobenius)  # raises if ill-defined
        power = frobenius.power(order) - IntMatrix.identity(n)
        for j in range(n):
            if not group.in_relation_lattice(power.col(j)):
                raise WellDefinednessError(
                    f"frobenius is not an automorphism whose order divides {order}"
                )
        self.group = group
        self.frobenius = frobenius
        self.order = order

    @classmethod
    def _of(cls, group: FgAbelianGroup, frobenius: IntMatrix,
            order: int) -> "GaloisModule":
        """A module the package derived from checked ones; skips the
        checks that ``__init__`` makes on caller data."""
        m = object.__new__(cls)
        m.group = group
        m.frobenius = frobenius
        m.order = order
        return m

    def power(self, f: int) -> "GaloisModule":
        """The same group acted on by the f-th power of Frobenius
        (the Frobenius of the degree-f scalar extension)."""
        if f < 1:
            raise ValueError("extension degree must be positive")
        mat = self.frobenius.power(f % self.order if self.order > 1 else 0)
        # a power of an automorphism of order dividing n has order
        # dividing n / gcd(n, f)
        return GaloisModule._of(self.group, mat, self.order // gcd(self.order, f))

    def acts_trivially(self) -> bool:
        delta = self.frobenius - IntMatrix.identity(self.group.generator_count)
        return all(
            self.group.in_relation_lattice(delta.col(j)) for j in range(delta.cols)
        )

    def torsion_submodule(self) -> tuple["GaloisModule", ModuleMap]:
        """The torsion subgroup with the restricted action, plus its
        inclusion into the full module."""
        sm = self.group.smith()
        t = sm.torsion_count
        full = sm.to_smith.matrix @ self.frobenius @ sm.from_smith.matrix
        # torsion is characteristic, so the free coordinates of the
        # image of a torsion generator vanish identically
        for i in range(t, t + sm.free_count):
            for j in range(t):
                if full[i, j] != 0:
                    raise WellDefinednessError(
                        "frobenius does not preserve the torsion subgroup"
                    )
        block = IntMatrix.from_rows(
            [[full[i, j] for j in range(t)] for i in range(t)], cols=t
        )
        tors_group = (
            FgAbelianGroup.from_invariants(sm.torsion_orders, 0)
            if t else FgAbelianGroup.trivial()
        )
        incl_mat = IntMatrix.from_columns(
            [sm.from_smith.matrix.col(i) for i in range(t)],
            rows=self.group.generator_count,
        )
        # torsion is characteristic (checked above), so the restricted
        # action keeps the order bound and the inclusion is well defined
        incl = ModuleMap._of(tors_group, self.group, incl_mat)
        return GaloisModule._of(tors_group, block, self.order), incl

    def localized(self, ell: int) -> tuple["GaloisModule", ModuleMap]:
        """Quotient by the prime-to-ell torsion: the ell-primary
        torsion plus the free part survive.  Returns the localized
        module and the projection."""
        _require_prime(ell)
        sm = self.group.smith()
        extra = []
        for i, d in enumerate(sm.torsion_orders):
            m = d
            while m % ell == 0:
                m //= ell
            if m > 1:
                lpart = d // m
                col = sm.from_smith.matrix.col(i)
                extra.append([lpart * x for x in col])
        quotient = FgAbelianGroup._extended(
            self.group, IntMatrix.from_columns(extra, rows=self.group.generator_count)
        ) if extra else self.group
        proj = ModuleMap._of(self.group, quotient,
                             IntMatrix.identity(self.group.generator_count))
        # the prime-to-ell torsion is characteristic, so Frobenius and its
        # order bound descend to the quotient of this checked module
        return GaloisModule._of(quotient, self.frobenius, self.order), proj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaloisModule):
            return NotImplemented
        return (self.group == other.group and self.frobenius == other.frobenius
                and self.order == other.order)

    def __hash__(self) -> int:
        return hash((self.group, self.frobenius, self.order))

    def __repr__(self) -> str:
        return f"<GaloisModule {self.group.describe()}, order {self.order}>"


def coinvariants(m: GaloisModule) -> tuple[FgAbelianGroup, ModuleMap]:
    """Coinvariants of the action: the group modulo (frobenius - id),
    with the projection."""
    delta = m.frobenius - IntMatrix.identity(m.group.generator_count)
    # frobenius - id is a difference of endomorphisms of a checked module
    return cokernel(ModuleMap._of(m.group, m.group, delta))
