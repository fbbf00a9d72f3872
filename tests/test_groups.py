"""Presented abelian groups, maps, and Frobenius modules."""

from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from snckit.errors import WellDefinednessError
from snckit.groups import (
    PRIME_BOUND,
    FgAbelianGroup,
    GaloisModule,
    IsoType,
    ModuleMap,
    coinvariants,
    _power_on,
    cokernel,
    image_subgroup,
    is_prime,
    torsion_and_primary,
)
from snckit.matrices import IntMatrix, _power, _smith_vector, preimage_generators, snf, solve

from conftest import agree_mod_relations, det, diagonal_entries
from snf_reference import snf as reference_snf


def group_of(*relations, generators=None):
    gens = generators if generators is not None else (len(relations[0]) if relations else 0)
    return FgAbelianGroup(gens, IntMatrix.from_columns([list(r) for r in relations], rows=gens))


class TestFgAbelianGroup:
    def test_trivial_and_free(self):
        assert FgAbelianGroup.trivial().is_trivial()
        g = FgAbelianGroup(3)
        assert g.free_rank == 3 and g.invariant_factors == ()
        assert g.describe() == "Z^3"

    def test_cyclic(self):
        g = FgAbelianGroup.cyclic(6)
        assert g.invariant_factors == (6,)
        assert g.order() == 6
        assert g.describe() == "Z/6"

    def test_unit_relations_collapse(self):
        g = group_of([1, 0], [0, 2], generators=2)
        assert g.iso_type().torsion == (2,)
        assert g.free_rank == 0

    def test_divisibility_order(self):
        g = group_of([4, 0], [0, 6], generators=2)
        assert g.invariant_factors == (2, 12)

    def test_describe_mixed(self):
        g = FgAbelianGroup.from_invariants([2, 4], 1)
        assert g.describe() == "Z ⊕ Z/2 ⊕ Z/4"
        assert g.order() is None

    def test_in_relation_lattice(self):
        g = FgAbelianGroup.cyclic(5)
        assert g.in_relation_lattice([10])
        assert not g.in_relation_lattice([3])

    def test_element_order(self):
        g = FgAbelianGroup.from_invariants([2, 4], 0)
        assert g.element_order([0, 0]) == 1
        assert g.element_order([1, 0]) == 2
        assert g.element_order([0, 1]) == 4
        assert g.element_order([1, 2]) == 2
        free = FgAbelianGroup(1)
        assert free.element_order([1]) is None

    def test_smith_form_maps_are_inverse_isomorphisms(self):
        g = group_of([4, 2], [0, 6], generators=2)
        sm = g.smith()
        both = sm.from_smith.compose(sm.to_smith)
        assert agree_mod_relations(both, ModuleMap(g, g, IntMatrix.identity(g.generator_count)))
        back = sm.to_smith.compose(sm.from_smith)
        assert agree_mod_relations(back, ModuleMap(sm.group, sm.group, IntMatrix.identity(sm.group.generator_count)))


class TestModuleMap:
    def test_well_definedness_enforced(self):
        z4 = FgAbelianGroup.cyclic(4)
        z2 = FgAbelianGroup.cyclic(2)
        ModuleMap(z4, z2, IntMatrix.from_rows([[1]]))  # fine: 4 | 1*4 mod 2
        with pytest.raises(WellDefinednessError):
            ModuleMap(z2, z4, IntMatrix.from_rows([[1]]))  # 2 does not die in Z/4

    def test_compose(self):
        z8 = FgAbelianGroup.cyclic(8)
        z4 = FgAbelianGroup.cyclic(4)
        z2 = FgAbelianGroup.cyclic(2)
        f = ModuleMap(z8, z4, IntMatrix.from_rows([[1]]))
        g = ModuleMap(z4, z2, IntMatrix.from_rows([[1]]))
        assert g.compose(f).matrix.to_rows() == [[1]]

    def test_cokernel(self):
        z = FgAbelianGroup(1)
        times3 = ModuleMap(z, z, IntMatrix.from_rows([[3]]))
        coker, proj = cokernel(times3)
        assert coker.invariant_factors == (3,)
        assert proj.matrix.is_identity()

    def test_image_subgroup(self):
        z = FgAbelianGroup(1)
        z12 = FgAbelianGroup.cyclic(12)
        f = ModuleMap(z, z12, IntMatrix.from_rows([[4]]))
        image = image_subgroup(f)
        assert image.iso_type().torsion == (3,)

    def test_injective_surjective(self):
        z = FgAbelianGroup(1)
        z6 = FgAbelianGroup.cyclic(6)
        onto = ModuleMap(z, z6, IntMatrix.from_rows([[1]]))
        assert onto.is_surjective() and not onto.is_injective()
        doubling = ModuleMap(z, z, IntMatrix.from_rows([[2]]))
        assert doubling.is_injective() and not doubling.is_surjective()

    def test_injectivity_catches_torsion_kernel(self):
        z4 = FgAbelianGroup.cyclic(4)
        z2 = FgAbelianGroup.cyclic(2)
        f = ModuleMap(z4, z2, IntMatrix.from_rows([[1]]))
        assert not f.is_injective()


class TestTorsionAndPrimary:
    def test_primary_extraction(self):
        g = FgAbelianGroup.from_invariants([6, 12], 2)
        torsion, two_part = torsion_and_primary(g, 2)
        assert torsion.invariant_factors == (6, 12)
        assert two_part.invariant_factors == (2, 4)
        _, three_part = torsion_and_primary(g, 3)
        assert three_part.invariant_factors == (3, 3)
        _, five_part = torsion_and_primary(g, 5)
        assert five_part.is_trivial()

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            torsion_and_primary(FgAbelianGroup.cyclic(4), 4)


class TestGaloisModule:
    def test_order_validation(self):
        z5 = FgAbelianGroup.cyclic(5)
        GaloisModule(z5, IntMatrix.from_rows([[2]]), 4)  # 2^4 = 16 = 1 mod 5
        with pytest.raises(WellDefinednessError):
            GaloisModule(z5, IntMatrix.from_rows([[2]]), 3)

    def test_power(self):
        z5 = FgAbelianGroup.cyclic(5)
        m = GaloisModule(z5, IntMatrix.from_rows([[2]]), 4)
        assert m.power(2).frobenius.to_rows() == [[4]]
        assert m.power(2).order == 2
        assert m.power(4).acts_trivially()

    def test_torsion_submodule(self):
        g = FgAbelianGroup.from_invariants([3], 1)
        frob = IntMatrix.from_rows([[2, 0], [0, 1]])  # -1 on Z/3, identity on Z
        m = GaloisModule(g, frob, 2)
        tors, incl = m.torsion_submodule()
        assert tors.group.invariant_factors == (3,)
        assert not tors.acts_trivially()
        assert tors.power(2).acts_trivially()
        # inclusion really lands on the torsion generator
        image = incl.matrix.col(0)
        assert g.element_order(image) == 3

    def test_localized(self):
        g = FgAbelianGroup.from_invariants([12], 1)
        m = GaloisModule(g, IntMatrix.identity(2), 1)
        at2, _ = m.localized(2)
        assert at2.group.iso_type().torsion == (4,)
        assert at2.group.free_rank == 1
        at3, _ = m.localized(3)
        assert at3.group.iso_type().torsion == (3,)
        at5, _ = m.localized(5)
        assert at5.group.iso_type().torsion == ()

    def test_coinvariants(self):
        z = FgAbelianGroup(1)
        m = GaloisModule(z, IntMatrix.from_rows([[-1]]), 2)
        coinv, _ = coinvariants(m)
        assert coinv.invariant_factors == (2,)
        trivial = GaloisModule(z, IntMatrix.identity(1), 1)
        coinv2, _ = coinvariants(trivial)
        assert coinv2.free_rank == 1


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_quotient_order_equals_det_magnitude(diag_extra, rel_vectors):
    """|Z^n / L| equals |det| of a full-rank relation matrix."""
    rels = [list(r) for r in rel_vectors]
    n = 4
    square = IntMatrix.from_columns(rels, rows=n) if rels else IntMatrix.zeros(n, 0)
    g = FgAbelianGroup(n, square)
    if square.cols == n and det(square) != 0:
        assert g.order() == abs(det(square))


def _stacked_iso_type(generators: int, relations: IntMatrix) -> IsoType:
    """The iso type of Z^generators modulo the columns of ``relations``,
    from a full elimination of that matrix."""
    s = snf(relations)
    return IsoType(tuple(d for d in s.diagonal if d > 1), generators - s.rank)


def _stacked_localized(g: FgAbelianGroup, ell: int) -> IsoType:
    """``g`` modulo its prime-to-ell torsion, the way ``localized`` builds
    it, from a full elimination of g's relations and of the stacked
    quotient."""
    s = snf(g.relations)
    extra = []
    for i, d in enumerate(s.diagonal):
        m = d
        while m > 1 and m % ell == 0:
            m //= ell
        if d > 1 and m > 1:
            extra.append([(d // m) * x for x in s.u_inv.col(i)])
    if extra:
        rel = g.relations.hstack(IntMatrix.from_columns(extra, rows=g.generator_count))
    else:
        rel = g.relations
    return _stacked_iso_type(g.generator_count, rel)


def _stacked_answers(f: ModuleMap) -> dict:
    """What the map questions answer from full eliminations of the
    stacked matrices: ``snf`` for the cokernel, ``preimage_generators``
    for the image and injectivity."""
    target = f.target
    coker = _stacked_iso_type(target.generator_count, target.relations.hstack(f.matrix))
    preimage = preimage_generators(f.matrix, target.relations)
    return {
        "injective": all(solve(f.source.relations, preimage.col(j)) is not None
                         for j in range(preimage.cols)),
        "surjective": coker.is_trivial,
        "image": _stacked_iso_type(f.source.generator_count, preimage),
        "cokernel": coker,
    }


@st.composite
def maps(draw):
    """A map S -> T of small random groups; S's relations are random
    combinations of the preimage of T's, so the map is well defined."""
    def block(rows, cols, lo=-6, hi=6):
        return IntMatrix.from_rows(
            [draw(st.lists(st.integers(lo, hi), min_size=cols, max_size=cols))
             for _ in range(rows)], cols=cols)

    m, k = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    target = FgAbelianGroup(m, block(m, draw(st.integers(0, 4))))
    matrix = block(m, k)
    preimage = preimage_generators(matrix, target.relations)
    source_relations = preimage @ block(preimage.cols, draw(st.integers(0, 3)), -2, 2)
    return ModuleMap(FgAbelianGroup(k, source_relations), target, matrix)


@given(maps())
@settings(max_examples=150, deadline=None)
def test_derived_groups_match_full_eliminations(f):
    """Cokernel, image, injectivity, surjectivity and localization,
    which continue the target's Smith form, agree with eliminating the
    stacked matrices from scratch."""
    expected = _stacked_answers(f)
    coker, _ = cokernel(f)
    image = image_subgroup(f)
    assert f.is_injective() == expected["injective"]
    assert f.is_surjective() == expected["surjective"]
    assert image.iso_type() == expected["image"]
    assert coker.iso_type() == expected["cokernel"]
    for g in (f.target, coker):
        module = GaloisModule(g, IntMatrix.identity(g.generator_count), 1)
        for ell in (2, 3, 5):
            localized, _ = module.localized(ell)
            assert localized.group.iso_type() == _stacked_localized(g, ell)


def test_is_prime():
    assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(2, 20000) if is_prime(n)] == list(sympy.primerange(2, 20000))
    # strong pseudoprimes to the first 4, 11 and 12 prime bases, and a prime
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 10**18 + 3):
        assert is_prime(n) == sympy.isprime(n)
    assert is_prime(10**18 + 3)
    assert is_prime(PRIME_BOUND - 1) == sympy.isprime(PRIME_BOUND - 1)


def test_is_prime_refuses_past_its_bound():
    # the bound is the least strong pseudoprime to the bases 2 to 41
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 10**30):
        with pytest.raises(ValueError, match=f"only below {PRIME_BOUND}"):
            is_prime(n)


def _reference_member(relations: IntMatrix, vec) -> bool:
    """Whether ``vec`` lies in the column span of ``relations``, by an
    exact solve on the eager oracle SNF."""
    s = reference_snf(relations)
    diag = diagonal_entries(s.d)
    for i, c in enumerate(s.u.apply(vec)):
        d = diag[i] if i < len(diag) else 0
        if (c % d if d else c) != 0:
            return False
    return True


@st.composite
def groups_with_vectors(draw):
    """A group with unit factors, torsion and a free part, a chain of
    two groups derived from it by added relations, and test vectors:
    combinations of the final relations (members) and free draws."""
    n = draw(st.integers(0, 5))

    def block(cols, lo=-9, hi=9):
        return IntMatrix.from_rows(
            [draw(st.lists(st.integers(lo, hi), min_size=cols, max_size=cols))
             for _ in range(n)], cols=cols)

    base = FgAbelianGroup(n, block(draw(st.integers(0, n + 1))))
    first = FgAbelianGroup._extended(base, block(draw(st.integers(0, 3))))
    second = FgAbelianGroup._extended(first, block(draw(st.integers(0, 2))))
    vectors = []
    for g in (base, first, second):
        rel = g.relations
        x = draw(st.lists(st.integers(-3, 3), min_size=rel.cols, max_size=rel.cols))
        vectors.append(rel.apply(x))
    for _ in range(draw(st.integers(0, 3))):
        vectors.append(tuple(draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))))
    return (base, first, second), vectors


@given(groups_with_vectors())
@settings(max_examples=200, deadline=None)
def test_smith_coordinates_match_an_exact_solve(case):
    """Membership in Smith coordinates, one vector at a time and in one
    block, agrees with an exact solve on the stacked relations; derived
    groups, whose forms continue over reduced Smith coordinates, keep the
    diagonal of the stacked matrix; torsion rows stay inside [0, d_i)."""
    chain, vectors = case
    for g in chain:
        n = g.generator_count
        expected = [_reference_member(g.relations, v) for v in vectors]
        assert [g.in_relation_lattice(v) for v in vectors] == expected
        block = IntMatrix.from_columns(vectors, rows=n)
        assert g._outside(block) == [j for j, ok in enumerate(expected) if not ok]
        assert g.relation_snf().diagonal == diagonal_entries(reference_snf(g.relations).d)
        _, rows, moduli = g._smith_rows()
        for r, m in enumerate(moduli):
            assert m != 1
            if m:
                assert all(0 <= x < m for x in rows.row(r))
        iso = g.iso_type()
        assert iso is g.iso_type()
        assert iso == _stacked_iso_type(n, g.relations)


def _walked_smith_data(g: FgAbelianGroup) -> tuple[IntMatrix, IntMatrix]:
    """The Smith rows and columns of ``g`` by walking the whole row log
    of its form: rows i of ``u`` with d_i != 1, reduced modulo d_i, and
    those columns of ``u_inv``, reduced modulo the exponent."""
    s, n = g.relation_snf(), g.generator_count
    diag = s.diagonal
    idx = [i for i in range(n) if i >= len(diag) or diag[i] != 1]
    rows = IntMatrix.from_rows([_smith_vector(s, i) for i in idx], cols=n)
    columns = IntMatrix.from_columns(
        [_smith_vector(s, i, column=True, modulus=g._exponent()) for i in idx], rows=n)
    return rows, columns


def _stacked(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """``[a | b]``, built column by column."""
    return IntMatrix.from_columns([a.col(j) for j in range(a.cols)] +
                                  [b.col(j) for j in range(b.cols)], rows=a.rows)


@st.composite
def derivations(draw):
    """Relations of a group with unit factors, torsion or a free part,
    and two blocks of columns that a chain of two groups derived from it
    adds."""
    n = draw(st.integers(0, 5))

    def block(cols):
        return IntMatrix.from_rows(
            [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
             for _ in range(n)], cols=cols)

    return block(draw(st.integers(0, n + 1))), block(draw(st.integers(0, 3))), block(
        draw(st.integers(0, 3)))


@given(derivations())
@example((IntMatrix.from_rows([[2], [4]]), IntMatrix.from_rows([[0], [3]]),
          IntMatrix.from_rows([[1], [1]])))
@example((IntMatrix.from_rows([[2, 0], [0, 4]]), IntMatrix.from_rows([[1], [2]]),
          IntMatrix.from_rows([[0], [1]])))
@settings(max_examples=200, deadline=None)
def test_derived_smith_data_matches_walks_of_the_merged_form(case):
    """A derived group reads its Smith rows and columns off its parent's
    and the block's operations alone; they equal full walks of its
    merged form.  Its relations are built on first read and are ``[a |
    b]``.  The first example derives a finite group from a parent with
    a free part, whose exponent is 0, and derives a group from that one.
    The second derives a group from Z/2 ⊕ Z/4 in Smith form, whose form
    logs no row operation, so ``_walked`` walks the derived group's
    whole log and returns no parent."""
    relations, b1, b2 = case
    base = FgAbelianGroup(relations.rows, relations)
    first = FgAbelianGroup._extended(base, b1)
    second = FgAbelianGroup._extended(first, b2)
    for g in (base, first, second):
        rows, columns = _walked_smith_data(g)
        assert g._smith_rows()[1] == rows
        assert g.smith().from_smith.matrix == columns
    for g, added in ((first, b1), (second, b2)):
        assert g._relations is None
        assert g.relations == _stacked(g._base[0].relations, added)


@st.composite
def checked_modules(draw, order_one: bool = False):
    """A checked module on a root group, whose relations are already a
    Smith form (its form logs no operation) or are random (its form
    logs some), or on one or two groups derived from such a root, with
    or without a free part.  Frobenius is k times the identity plus
    combinations of the relations, so it acts as k: it has the order of
    k modulo the exponent of a finite group, and k is ±1 on one with a
    free part.  With ``order_one``, k is 1 and the declared order 1."""
    n = draw(st.integers(0, 4))

    def block(rows, cols, lo=-6, hi=6):
        return IntMatrix.from_rows(
            [draw(st.lists(st.integers(lo, hi), min_size=cols, max_size=cols))
             for _ in range(rows)], cols=cols)

    if draw(st.booleans()):
        factors, d = [], 1
        for step in draw(st.lists(st.integers(1, 4), max_size=n)):
            d *= step
            factors.append(d)
        group = FgAbelianGroup(n, IntMatrix.diagonal(factors, rows=n))
        assert not group.relation_snf().row_log
    else:
        group = FgAbelianGroup(n, block(n, draw(st.integers(0, n + 1))))
    for _ in range(draw(st.integers(0, 2))):
        group = FgAbelianGroup._extended(group, block(n, draw(st.integers(0, 2))))
    e = group._exponent()
    if order_one:
        k, order = 1, 1
    elif e:
        k = draw(st.integers(-6, 6).filter(lambda k: gcd(k, e) == 1))
        order, x = 1, k % e
        while x != 1 % e:
            order, x = order + 1, x * k % e
    else:
        k = draw(st.sampled_from([1, -1]))
        order = 2
    relations = group.relations
    # block's range is symmetric, so k - relations @ block is any k + relations @ block
    frobenius = IntMatrix.diagonal([k] * n) - relations @ block(relations.cols, n, -2, 2)
    return GaloisModule(group, frobenius, order)


@given(checked_modules())
@settings(max_examples=200, deadline=None)
def test_torsion_and_localization_match_the_smith_view(module):
    """The torsion submodule, read off the cached Smith rows and
    columns, is the one the public ``smith()`` view gives: its action is
    the torsion corner of ``to_smith @ frobenius @ from_smith`` and its
    inclusion the torsion columns of ``from_smith``.  The localizations
    have the iso types of full eliminations of the stacked relations."""
    sm = module.group.smith()
    t, n = sm.torsion_count, module.group.generator_count
    torsion, incl = module.torsion_submodule()
    full = sm.to_smith.matrix @ module.frobenius @ sm.from_smith.matrix
    assert torsion.frobenius == IntMatrix.from_rows(
        [[full[i, j] for j in range(t)] for i in range(t)], cols=t)
    assert incl.matrix == IntMatrix.from_columns(
        [sm.from_smith.matrix.col(j) for j in range(t)], rows=n)
    assert torsion.group.invariant_factors == sm.torsion_orders
    assert torsion.group.free_rank == 0 and torsion.order == module.order
    assert incl.source is torsion.group and incl.target is module.group
    for ell in (2, 3, 5):
        localized, proj = module.localized(ell)
        assert localized.group.iso_type() == _stacked_localized(module.group, ell)
        assert localized.frobenius is module.frobenius and proj.matrix.is_identity()


@given(checked_modules() | checked_modules(order_one=True))
@settings(max_examples=200, deadline=None)
def test_acts_trivially_is_the_lattice_test_of_frobenius_minus_one(module):
    """At order 1 ``acts_trivially`` answers True without a test, and
    that is what the lattice test of frobenius − 1, column by column on
    the eager oracle SNF, gives on every checked order-1 module; at any
    other order it makes that test."""
    n = module.group.generator_count
    delta = module.frobenius - IntMatrix.identity(n)
    expected = all(_reference_member(module.group.relations, delta.col(j)) for j in range(n))
    assert module.acts_trivially() == expected
    if module.order == 1:
        assert expected


def _exact_order_check(group: FgAbelianGroup, frobenius: IntMatrix, order: int) -> bool:
    """Whether the module constructor should accept: Frobenius keeps the
    relations and its exact order-th power is the identity modulo them."""
    images = frobenius @ group.relations
    if not all(_reference_member(group.relations, images.col(j)) for j in range(images.cols)):
        return False
    power = _power(frobenius, order) - IntMatrix.identity(group.generator_count)
    return all(_reference_member(group.relations, power.col(j)) for j in range(power.cols))


@st.composite
def modules(draw):
    n = draw(st.integers(0, 3))

    def square(lo, hi):
        return IntMatrix.from_rows(
            [draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)) for _ in range(n)],
            cols=n)

    relations = square(-6, 6)
    if draw(st.booleans()):
        # a divisibility chain of factors, so the exponent exceeds the
        # others; a diagonal presentation without 0 is finite
        factors, d = [], 1
        for step in draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)):
            d *= step
            factors.append(d)
        relations = IntMatrix.diagonal(factors)
    return FgAbelianGroup(n, relations), square(-3, 3), draw(st.integers(1, 12))


@given(modules())
@example((FgAbelianGroup.from_invariants([2, 4], 0), IntMatrix.from_rows([[1, 0], [0, 3]]), 1))
@settings(max_examples=300, deadline=None)
def test_order_check_matches_the_exact_power(case):
    group, frobenius, order = case
    try:
        GaloisModule(group, frobenius, order)
        accepted = True
    except WellDefinednessError:
        accepted = False
    assert accepted == _exact_order_check(group, frobenius, order)


def test_a_first_power_makes_no_product(monkeypatch):
    """Square-and-multiply makes no product with the identity: the order
    check of a module of order 1 takes the matrix itself, reduced modulo
    the exponent of a finite group, and 13 = 0b1101 takes three squares
    and two products, exactly or modulo the exponent."""
    m = IntMatrix.from_rows([[1, 2], [0, 5]])
    exact = {1: m, 13: _power(m, 13)}
    products = {"count": 0}
    product = IntMatrix.__matmul__

    def counting(x, y):
        products["count"] += 1
        return product(x, y)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    for group, e in ((FgAbelianGroup.from_invariants([4], 1), 0),
                     (FgAbelianGroup.from_invariants([4, 12], 0), 12)):
        for k, count in ((1, 0), (13, 5)):
            products["count"] = 0
            power = _power_on(group, m, k)
            assert products["count"] == count
            assert power._entries == tuple(x % e if e else x for x in exact[k]._entries)


def test_order_check_works_modulo_the_exponent(monkeypatch):
    """Order 10^18 on Z/5 ⊕ Z/10: square-and-multiply modulo the exponent
    10 makes O(log order) products of entries below 10.  Each product is
    checked as it is made, so an exact power fails at once instead of
    building 10^18-bit entries."""
    group = FgAbelianGroup.from_invariants([5, 10], 0)
    frobenius = IntMatrix.from_rows([[2, 0], [0, 3]])  # orders 4 and 4
    # a product of 2 x 2 matrices with entries below 10 is below 2 * 81
    bound = (2 * 9 * 9).bit_length()
    products = []
    product = IntMatrix.__matmul__

    def bounded(a, b):
        out = product(a, b)
        assert all(abs(x).bit_length() <= bound for x in out._entries)
        products.append(out)
        return out

    monkeypatch.setattr(IntMatrix, "__matmul__", bounded)
    module = GaloisModule(group, frobenius, 10 ** 18)
    assert len(products) <= 2 * (10 ** 18).bit_length() + 2
    with pytest.raises(WellDefinednessError):
        GaloisModule(group, frobenius, 10 ** 18 + 2)
    # the Frobenius of a degree-f extension is reduced the same way
    products.clear()
    power = module.power(10 ** 18 - 1)
    assert len(products) <= 2 * (10 ** 18).bit_length() + 2
    assert power.order == 10 ** 18
    # the inverse of Frobenius, reduced modulo 10: 8 is 2^-1 mod 5 and 7
    # is 3^-1 mod 10
    assert power.frobenius == IntMatrix.from_rows([[8, 0], [0, 7]])
    assert power.power(4).acts_trivially()
