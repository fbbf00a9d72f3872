"""Finitely generated abelian groups, maps between them, and
Frobenius-equipped modules.

A group is presented by a generator count and an integer matrix whose
*columns* are relation vectors: the group is Z^n modulo the column
span.  Maps are matrices on generator coordinates, so composition is
matrix product and a map is well defined exactly when it carries every
source relation into the target relation lattice (decided through the
Smith normal form, never by floating point or randomness).

Groups work in Smith coordinates and read only the ones they need.
If ``u @ relations @ v == d``, a vector x lies in the relation lattice
exactly when every coordinate i of ``u @ x`` is a multiple of d_i, so
a row of ``u`` with d_i == 1 is never read, and a row with d_i > 1 is
read modulo d_i (``matrices._smith_vector``); free rows, with d_i == 0,
are read exactly.  A membership test of many vectors is one product of
those rows with the block of vectors, and no caller replays a whole
``u`` or ``u_inv``.

A group made from another by adding relation columns (a cokernel,
coinvariants, a localization, theta over y0) continues that group's
Smith normal form (``matrices._continue_snf``) over the sparse rows of
the Smith coordinates of the added columns, reduced the same way
(``_smith_block``), instead of eliminating its whole relation matrix
again.  That is the form of a presentation ``[a | b']`` with ``b'``
congruent to the added ``b`` modulo the parent's relation lattice: the
same lattice, so the same diagonal, the same membership tests and the
same preimages.  A derived group keeps its parent and the added
columns, and pays only for what they add.  One walker, ``_walked``,
reads every group's Smith rows and columns off its form's row log: a
derived group whose parent's form logs a row operation walks only the
operations its own form adds, and ``_smith_rows`` and
``_smith_columns`` combine those with the parent's cached rows and
columns, so no group walks its parent's log again; every other group
walks its whole log.  Its ``relations`` is the parent's with the exact
new columns appended, ``[a | b]``, built only when read; only its
``relation_snf()`` is that of the congruent presentation.  A map makes
that continuation of its target's form by its matrix once, as the form
of its cokernel, and its image, its cokernel and both of
``is_injective`` and ``is_surjective`` read the same one.

``GaloisModule`` pairs a group with a finite-order automorphism, the
Frobenius of a ground field acting on an invariant of the geometric
object; ``coinvariants``, torsion restriction and localization at a
prime all live here because they are pure group theory.  Torsion and
localization read the group's cached Smith rows and columns; the
public ``smith()`` view is for callers, and no package code reads it.
The torsion's action reads only the torsion rows of the Smith data: an
endomorphism sends torsion to torsion, whose free Smith coordinates are
exactly 0.  ``frobenius − 1``, which the order check, ``acts_trivially``
and ``coinvariants`` read, is Frobenius with its diagonal decremented
(``_minus_identity``); no identity matrix is built for it.  Every
module's order bound holds, so at order 1 that block lies in the
relation lattice, and for an identity Frobenius it is zero, which the
lattice test answers without reading the Smith form.  An identity
Frobenius, the default for a module given without one, costs no
product: ``IntMatrix.__matmul__`` returns the other factor of a product
with an identity, so the well-definedness check of ``frobenius @
relations`` and the torsion's ``frobenius @ incl`` multiply nothing.

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
    _continue_snf,
    _power,
    _preimage_lattice,
    _smith_vector,
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


# Miller–Rabin on the prime bases 2 to 41 decides every n below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015).
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin.  Raises ValueError at or above
    ``PRIME_BOUND``, where the bases decide nothing."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_BOUND}")
    if n < 43 or n % 2 == 0:  # the primes below 43, and the even prime, are bases
        return n in _BASES
    d = n - 1
    while d % 2 == 0:
        d //= 2
    for a in _BASES:
        # a prime passes: a^d is 1, or a^(d·2^i) is -1 for some d·2^i < n - 1
        t, x = d, pow(a, d, n)
        while t != n - 1 and x != 1 and x != n - 1:
            x, t = x * x % n, t * 2
        if x != n - 1 and t != d:
            return False
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


def _rows_mod(y: IntMatrix, moduli: Sequence[int]) -> list[list[int]]:
    """The rows of ``y``, row r reduced into [0, moduli[r]) and exact
    where that modulus is 0."""
    e, k = y._entries, y.cols
    return [[x % m for x in e[r * k:(r + 1) * k]] if m else list(e[r * k:(r + 1) * k])
            for r, m in enumerate(moduli)]


class FgAbelianGroup:
    """Z^n modulo the column span of ``relations`` (an n-row matrix)."""

    __slots__ = ("generator_count", "_relations", "_snf", "_base", "_rows", "_columns",
                 "_iso")

    def __init__(self, generator_count: int, relations: IntMatrix | None = None):
        if generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        if relations is None:
            relations = IntMatrix.zeros(generator_count, 0)
        if relations.rows != generator_count:
            raise ValueError(
                f"relations have {relations.rows} rows for {generator_count} generators"
            )
        self._start(generator_count, relations, None)

    def _start(self, generator_count: int, relations: IntMatrix | None,
               base: "tuple[FgAbelianGroup, IntMatrix] | None") -> None:
        """Set the fields: a derived group has a ``base``, its parent and
        the added columns, and builds its relations only when read."""
        self.generator_count = generator_count
        self._relations = relations
        self._base = base
        self._snf: SnfDecomposition | None = None
        self._rows: "tuple[tuple[int, ...], IntMatrix, tuple[int, ...]] | None" = None
        self._columns: IntMatrix | None = None
        self._iso: IsoType | None = None

    @classmethod
    def _extended(cls, base: "FgAbelianGroup", columns: IntMatrix) -> "FgAbelianGroup":
        """``base`` with the relation ``columns`` added.  Its Smith form
        is ``base``'s continued over the reduced Smith coordinates of the
        new columns, and its relations ``[a | b]`` are built, on first
        use."""
        g = object.__new__(cls)
        g._start(base.generator_count, None, (base, columns))
        return g

    @property
    def relations(self) -> IntMatrix:
        """The relation columns; a derived group's are its parent's with
        the added columns appended, built the first time they are
        read."""
        if self._relations is None:
            base, columns = self._base
            self._relations = base.relations.hstack(columns)
        return self._relations

    # -- constructors -------------------------------------------------

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
                self._snf = _continue_snf(base.relation_snf(), base._smith_block(columns),
                                          columns.cols)
        return self._snf

    def _walked(self, idx: Sequence[int], column: bool = False,
                modulus: int = 0) -> "tuple[IntMatrix, FgAbelianGroup | None]":
        """The rows i in ``idx`` of this group's form's ``u`` (with
        ``column``, the columns i of ``u_inv``, as rows, exact or reduced
        into [0, modulus)), and the group they are relative to.  A
        derived group whose parent's form logs a row operation walks only
        the operations past the parent's log, which touch no row before
        the parent's non-unit coordinates, and cuts its rows to those
        coordinates; every other group walks its whole log and has no
        parent."""
        s, n = self.relation_snf(), self.generator_count
        parent, start, k = None, 0, n
        if self._base is not None and self._base[0].relation_snf().row_log:
            parent = self._base[0]
            start, k = len(parent.relation_snf().row_log), len(parent._smith_rows()[0])
        return IntMatrix._of(len(idx), k, [
            x for i in idx for x in _smith_vector(s, i, column, modulus, start)[n - k:]]), parent

    def _smith_rows(self) -> tuple[tuple[int, ...], IntMatrix, tuple[int, ...]]:
        """The Smith coordinates this group reads: the indices i of the
        rows of its form's ``u`` with d_i != 1, in order (torsion, then
        free), those rows as a matrix, row i reduced into [0, d_i) and
        exact when free, and the moduli d_i, 0 for a free row.

        The rows are ``_walked``; those relative to a parent are times
        the parent's cached Smith rows, reduced modulo d_i: a derived
        group's ``u`` is the block's times its parent's, and reducing a
        parent row k modulo its d_k changes the product by a multiple of
        (block u)_ik·d_k, which d_i divides, since block u times the
        parent's diagonal is d times the inverse of the block's v."""
        if self._rows is None:
            diag, n = self.relation_snf().diagonal, self.generator_count
            idx = tuple(i for i in range(n) if i >= len(diag) or diag[i] != 1)
            moduli = tuple(diag[i] if i < len(diag) else 0 for i in idx)
            rows, parent = self._walked(idx)
            if parent is not None:
                y = rows @ parent._smith_rows()[1]
                rows = IntMatrix._of(len(idx), n, [x for row in _rows_mod(y, moduli) for x in row])
            self._rows = (idx, rows, moduli)
        return self._rows

    def _smith_columns(self) -> IntMatrix:
        """The columns i of its form's ``u_inv`` that this group reads,
        for the indices i of ``_smith_rows``, reduced into [0, e) for the
        exponent e of a finite group and exact when it has a free part.
        They are ``_walked``; those relative to a parent are, the same
        way, the parent's cached columns times them: the group's exponent
        divides the parent's, which is 0 only when its own is."""
        if self._columns is None:
            idx, e, n = self._smith_rows()[0], self._exponent(), self.generator_count
            walked, parent = self._walked(idx, True, e)
            columns = walked.transpose()
            if parent is not None:
                columns = parent._smith_columns() @ columns
                if e:
                    columns = IntMatrix._of(n, len(idx), [x % e for x in columns._entries])
            self._columns = columns
        return self._columns

    def _reduced(self, block: IntMatrix) -> list[list[int]]:
        """The rows of ``_smith_rows`` times ``block``, row i reduced
        into [0, d_i): zero exactly where a column of ``block`` has a
        coordinate outside the relation lattice."""
        _, rows, moduli = self._smith_rows()
        return _rows_mod(rows @ block, moduli)

    def _outside(self, block: IntMatrix) -> list[int]:
        """The indices of the columns of ``block`` that do not lie in
        the relation lattice, in order."""
        # zero columns always lie in it, and this spares reading the SNF
        if block.is_zero():
            return []
        reduced = self._reduced(block)
        return [j for j in range(block.cols) if any(row[j] for row in reduced)]

    def _smith_block(self, columns: IntMatrix) -> list[dict[int, int]]:
        """The sparse rows of the non-unit Smith coordinates of
        ``columns``, which ``_continue_snf`` takes: row i of ``u @
        columns`` reduced into [0, d_i), exact when free, for each i with
        d_i != 1.  Those are the coordinates past the unit factors, which
        lead the divisibility chain."""
        return [{j: x for j, x in enumerate(row) if x} for row in self._reduced(columns)]

    def _exponent(self) -> int:
        """The largest invariant factor when the group is finite (1 when
        it is trivial), so that it times Z^n lies in the relation
        lattice; 0 when the group has a free part."""
        iso = self.iso_type()
        if iso.rank:
            return 0
        return iso.torsion[-1] if iso.torsion else 1

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.iso_type().torsion

    @property
    def free_rank(self) -> int:
        return self.iso_type().rank

    def iso_type(self) -> IsoType:
        if self._iso is None:
            s = self.relation_snf()
            self._iso = IsoType(tuple(d for d in s.diagonal if d > 1),
                                self.generator_count - s.rank)
        return self._iso

    def order(self) -> int | None:
        return self.iso_type().order()

    def is_trivial(self) -> bool:
        return self.iso_type().is_trivial

    def describe(self) -> str:
        return self.iso_type().describe()

    # -- element calculus ---------------------------------------------

    def in_relation_lattice(self, vec: Sequence[int]) -> bool:
        """Whether ``vec`` represents zero, i.e. lies in the relation lattice."""
        return not self._outside(IntMatrix.from_columns([vec], rows=self.generator_count))

    def smith(self) -> "SmithForm":
        """The public Smith view, built on each call; no package code
        reads it."""
        return SmithForm._build(self)

    def element_order(self, vec: Sequence[int]) -> int | None:
        """Order of the class of ``vec``; None when infinite."""
        _, rows, moduli = self._smith_rows()
        n = 1
        for x, d in zip(rows.apply(vec), moduli):
            if d == 0:
                if x:
                    return None
                continue
            k = d // gcd(d, x)
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
    """Diagonalized picture of a group with the change of basis, the
    public view that ``FgAbelianGroup.smith`` builds for callers.

    ``group`` is presented on ``torsion_count + free_count`` generators
    (torsion first, in divisibility order) and ``to_smith`` /
    ``from_smith`` are mutually inverse isomorphisms with the original
    presentation.  Their matrices hold what the group needs of its
    form's ``u`` and ``u_inv``: rows of ``u`` reduced modulo their
    invariant factors, and columns of ``u_inv`` reduced modulo the
    exponent of a finite group, exact where there is a free part.  Both
    are the group's cached ``_smith_rows`` and ``_smith_columns``, which
    ``_walked`` reads; the package reads those directly and never builds
    this view.
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
        _, to_mat, moduli = g._smith_rows()
        orders = tuple(m for m in moduli if m)
        free_count = len(moduli) - len(orders)
        smith_group = FgAbelianGroup.from_invariants(orders, free_count)
        from_mat = g._smith_columns()
        # u carries the relation lattice onto the diagonal one and u_inv
        # carries it back, so both maps are well defined; reducing row i
        # of u modulo d_i, and u_inv modulo the exponent e of a finite
        # group (e times Z^n lies in its relation lattice), changes them
        # by relations only
        to_smith = ModuleMap._of(g, smith_group, to_mat)
        from_smith = ModuleMap._of(smith_group, g, from_mat)
        return cls(smith_group, to_smith, from_smith, orders, free_count)


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
        outside = target._outside(matrix @ source.relations)
        if outside:
            raise WellDefinednessError(
                f"source relation #{outside[0]} is not sent into the target relation lattice"
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

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target.generator_count != self.source.generator_count:
            raise ValueError("maps are not composable")
        # a composite of well-defined maps is well defined
        return ModuleMap._of(other.source, self.target, self.matrix @ other.matrix)

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
        return not self.source._outside(self._preimage())

    def is_surjective(self) -> bool:
        return self._cokernel_group().is_trivial()

    def __repr__(self) -> str:
        return f"<ModuleMap {self.source.describe()} -> {self.target.describe()}>"


def cokernel(f: ModuleMap) -> tuple[FgAbelianGroup, ModuleMap]:
    """Target modulo the image, with the projection map."""
    g = f._cokernel_group()
    # g only adds relations to the target, so the identity descends
    proj = ModuleMap._of(f.target, g, IntMatrix.identity(g.generator_count))
    return g, proj


def image_subgroup(f: ModuleMap) -> FgAbelianGroup:
    """The image of ``f`` inside its target, as an abstract group
    generated by the images of the source generators: the columns of
    ``f.matrix`` are the generating vectors, and the relations are the
    preimage of the target lattice under ``f``."""
    return FgAbelianGroup(f.source.generator_count, f._preimage())


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


def _minus_identity(m: IntMatrix) -> IntMatrix:
    """The square matrix ``m`` minus the identity, made by decrementing
    its diagonal, with no identity matrix built."""
    entries = list(m._entries)
    for i in range(0, len(entries), m.cols + 1):
        entries[i] -= 1
    return IntMatrix._of(m.rows, m.cols, entries)


def _power_on(group: FgAbelianGroup, m: IntMatrix, k: int) -> IntMatrix:
    """``m`` to the power ``k``, as a map of ``group``: exact when the
    group has a free part, and otherwise by square-and-multiply with
    every product reduced into [0, e), e the exponent, since e times Z^n
    lies in the relation lattice."""
    return _power(m, k, group._exponent())


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
        if group._outside(_minus_identity(_power_on(group, frobenius, order))):
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
        mat = _power_on(self.group, self.frobenius, f % self.order)
        # a power of an automorphism of order dividing n has order
        # dividing n / gcd(n, f)
        return GaloisModule._of(self.group, mat, self.order // gcd(self.order, f))

    def acts_trivially(self) -> bool:
        return not self.group._outside(_minus_identity(self.frobenius))

    def torsion_submodule(self) -> tuple["GaloisModule", ModuleMap]:
        """The torsion subgroup with the restricted action, plus its
        inclusion into the full module."""
        _, to_smith, moduli = self.group._smith_rows()
        orders = tuple(d for d in moduli if d)
        t, n = len(orders), self.group.generator_count
        # the torsion Smith coordinates come first
        columns = self.group._smith_columns()
        incl_mat = IntMatrix.from_columns([columns.col(i) for i in range(t)], rows=n)
        # an endomorphism sends torsion to torsion, whose free Smith
        # coordinates are exactly 0, so only the torsion rows are read;
        # the restricted action keeps the order bound and the inclusion
        # is well defined
        block = IntMatrix._of(t, n, to_smith._entries[:t * n]) @ (self.frobenius @ incl_mat)
        tors_group = FgAbelianGroup.from_invariants(orders, 0) if t else FgAbelianGroup.trivial()
        incl = ModuleMap._of(tors_group, self.group, incl_mat)
        return GaloisModule._of(tors_group, block, self.order), incl

    def localized(self, ell: int) -> tuple["GaloisModule", ModuleMap]:
        """Quotient by the prime-to-ell torsion: the ell-primary
        torsion plus the free part survive.  Returns the localized
        module and the projection."""
        _require_prime(ell)
        extra = []
        for i, d in enumerate(self.group._smith_rows()[2]):
            m = d
            while m > 1 and m % ell == 0:
                m //= ell
            if m > 1:
                extra.append([d // m * x for x in self.group._smith_columns().col(i)])
        quotient = FgAbelianGroup._extended(
            self.group, IntMatrix.from_columns(extra, rows=self.group.generator_count)
        ) if extra else self.group
        proj = ModuleMap._of(self.group, quotient,
                             IntMatrix.identity(self.group.generator_count))
        # the prime-to-ell torsion is characteristic, so Frobenius and its
        # order bound descend to the quotient of this checked module
        return GaloisModule._of(quotient, self.frobenius, self.order), proj

    def __repr__(self) -> str:
        return f"<GaloisModule {self.group.describe()}, order {self.order}>"


def coinvariants(m: GaloisModule) -> tuple[FgAbelianGroup, ModuleMap]:
    """Coinvariants of the action: the group modulo (frobenius - id),
    with the projection."""
    # frobenius - id is a difference of endomorphisms of a checked module
    return cokernel(ModuleMap._of(m.group, m.group, _minus_identity(m.frobenius)))
