"""Homology over Z and Z/n, induced maps, and the elimination oracle."""

import random
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from snckit.complexes import ChainMap, DeltaComplex, Simplex, suspend
from snckit.groups import FgAbelianGroup, is_prime
from snckit.homology import (
    homology_group,
    induced_map,
    oracle_homology,
    random_complex,
)
from snckit.matrices import IntMatrix, kernel_basis, snf, solve, solve_matrix

from conftest import (
    agree_mod_relations,
    augmentation_matrix,
    cycle_complex,
    det,
    diagonal_entries,
    graph_complex,
    identity_map,
    moore_complex,
)
from zn_reference import coordinates_mod_n, homology_mod_n


def class_of(h, chain) -> tuple[int, ...]:
    """Coordinates, on the chosen generators of ``h``, of the class of
    a cycle given in chain coordinates."""
    return h._coordinates(IntMatrix.from_columns([chain], rows=h.cycle_matrix.rows)).col(0)


def disjoint_union(x: DeltaComplex, y: DeltaComplex) -> DeltaComplex:
    """``x`` beside a copy of ``y`` whose ids all gain the prefix y."""
    copy = [Simplex(f"y{s.id}", tuple(f"y{v}" for v in s.vertices),
                    tuple(f"y{f}" for f in s.facets)) for s in y.all_simplices()]
    return DeltaComplex([*x.all_simplices(), *copy])


def multigraph():
    return graph_complex(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])


class TestHomologyGroup:
    def test_four_cycle_h1_is_Z(self):
        h = homology_group(cycle_complex(4), 1)
        assert h.group.describe() == "Z"

    def test_point(self):
        pt = DeltaComplex([Simplex.vertex("p")])
        assert homology_group(pt, 0).group.describe() == "Z"
        assert homology_group(pt, 1).group.is_trivial()

    def test_multigraph_h1(self):
        h = homology_group(multigraph(), 1)
        assert h.group.describe() == "Z"

    def test_h0_counts_components(self):
        two = DeltaComplex([Simplex.vertex("a"), Simplex.vertex("b")])
        assert homology_group(two, 0).group.free_rank == 2
        assert homology_group(two, 0, reduced=True).group.free_rank == 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 2))
    def test_h0_relations_are_d1(self, seed, max_dim):
        """In degree 0 the cycle basis is the identity, so H_0 on that
        basis is presented by d_1 itself: ``_cycle_form`` is the Smith
        form of the relations that solving for them on the kernel basis
        finds, which are d_1 entry for entry.  The reported group has
        one generator per component."""
        cx = random_complex(random.Random(seed), max_dim=max_dim)
        h = homology_group(cx, 0)
        cycles = kernel_basis(cx.boundary_matrix(0))
        assert h._boundary_form.v == cycles == IntMatrix.identity(len(cx.simplices(0)))
        relations = solve_matrix(cycles, cx.boundary_matrix(1))
        assert relations == cx.boundary_matrix(1)
        assert h._cycle_form == snf(relations)
        assert h.group.generator_count == h.group.free_rank == oracle_homology(cx, 0, 2)

    def test_suspension_of_four_cycle_mod_6(self):
        s = suspend(cycle_complex(4), "O", "inf")
        h = homology_group(s, 2, 6)
        assert h.group.iso_type().torsion == (6,)
        assert h.group.free_rank == 0
        # independent dimension check over the prime parts
        assert oracle_homology(s, 2, 2) == 1
        assert oracle_homology(s, 2, 3) == 1

    def test_degree_above_dimension_is_trivial(self):
        assert homology_group(cycle_complex(3), 7).group.is_trivial()

    def test_mod_n_of_circle(self):
        h = homology_group(cycle_complex(5), 1, 4)
        assert h.group.iso_type().torsion == (4,)

    def test_representatives_are_cycles(self):
        cx = suspend(cycle_complex(4), "O", "inf")
        for a in (0, 1, 2):
            for modulus in (None, 4):
                h = homology_group(cx, a, modulus)
                d = cx.boundary_matrix(a)
                for j in range(h.group.generator_count):
                    image = d.apply(h.cycle_matrix.col(j))
                    if modulus is None:
                        assert all(x == 0 for x in image)
                    else:
                        assert all(x % modulus == 0 for x in image)

    def test_class_of_roundtrip(self):
        cx = cycle_complex(4)
        h = homology_group(cx, 1)
        z = h.cycle_matrix.col(0)
        assert class_of(h, z) == (1,)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            homology_group(cycle_complex(3), -1)
        with pytest.raises(ValueError):
            homology_group(cycle_complex(3), 1, 1)


class TestInducedMap:
    def test_identity(self):
        cx = cycle_complex(4)
        m = induced_map(identity_map(cx), 1)
        assert m.matrix.is_identity()

    def test_rotation_quotient_is_multiplication_by_two(self):
        cx = cycle_complex(4)
        target = multigraph()
        # orbits of rotation by two: {v0,v2} -> a, {v1,v3} -> b,
        # {e0,e2} -> e1, {e1,e3} -> e2; e1 = (v1,v2) lands reversed
        assignment = {
            "v0": ("a", 1), "v1": ("b", 1), "v2": ("a", 1), "v3": ("b", 1),
            "e0": ("e1", 1), "e1": ("e2", -1), "e2": ("e1", 1), "e3": ("e2", 1),
        }
        f = ChainMap(cx, target, assignment)
        m = induced_map(f, 1)
        assert abs(m.matrix[0, 0]) == 2

    def test_vertex_inclusion_iso_on_h0(self):
        cx = cycle_complex(5)
        pt = DeltaComplex([Simplex.vertex("v0")])
        f = ChainMap(pt, cx, {"v0": ("v0", 1)})
        m = induced_map(f, 0)
        assert m.is_injective() and m.is_surjective()

    def test_functoriality(self):
        cx = cycle_complex(6)
        rot = {f"v{i}": (f"v{(i + 1) % 6}", 1) for i in range(6)}
        for i in range(4):
            rot[f"e{i}"] = (f"e{i + 1}", 1)
        rot["e4"] = ("e5", -1)
        rot["e5"] = ("e0", -1)
        f = ChainMap(cx, cx, rot)
        g = f.compose(f)
        lhs = induced_map(g, 1)
        rhs = induced_map(f, 1).compose(induced_map(f, 1))
        assert agree_mod_relations(lhs, rhs)

    def test_one_snf_per_map(self, monkeypatch):
        """At most one elimination per map, and over Z from precomputed
        homology none: the coordinates are read off the target's Smith
        form of d_1."""
        from snckit import matrices

        from test_cli import _rebind

        cx = graph_complex(["a", "b"], [(f"e{i}", "a", "b") for i in range(3)])
        h = homology_group(cx, 1)
        assert h.group.describe() == "Z^2"
        swap = {s.id: (s.id, 1) for s in cx.all_simplices()}
        swap["e0"], swap["e1"] = ("e1", 1), ("e0", 1)
        calls = []
        for original in (matrices._smith_form, matrices._continue_snf):
            _rebind(monkeypatch, original,
                    lambda *args, original=original: calls.append(args) or original(*args))
        m = induced_map(ChainMap(cx, cx, swap), 1, source=h, target=h)
        assert len(calls) == 0
        assert det(m.matrix) == -1

    def test_mod_n_map_eliminates_nothing(self, monkeypatch):
        """Over Z/n, too, a map from precomputed homology eliminates
        nothing: the coordinates, Tor ones included, are read off the
        target's form of d_a and the relation form of its H_a, both
        eliminated already.  H_2 of the Moore complex M(Z/4, 1) over Z/4
        is its Tor summand, and H_1 of three parallel edges over Z/6 is
        the tensor part (Z/6)^2."""
        from snckit import matrices

        from test_cli import _rebind

        multi = graph_complex(["a", "b"], [(f"e{i}", "a", "b") for i in range(3)])
        cases = [(moore_complex(4), 2, 4, "Z/4"), (multi, 1, 6, "Z/6 ⊕ Z/6")]
        results = [(cx, a, n, homology_group(cx, a, n)) for cx, a, n, _ in cases]
        assert [h.group.describe() for *_, h in results] == [want for *_, want in cases]
        calls = []
        for original in (matrices._smith_form, matrices._continue_snf):
            _rebind(monkeypatch, original,
                    lambda *args, original=original: calls.append(args) or original(*args))
        for cx, a, n, h in results:
            m = induced_map(identity_map(cx), a, n, source=h, target=h)
            assert m.matrix.is_identity()
        assert calls == []

    def test_mod_n_induced(self):
        cx = cycle_complex(4)
        m = induced_map(identity_map(cx), 1, modulus=3)
        assert m.source.iso_type().torsion == (3,)
        assert m.matrix.is_identity()


class TestReadOffTheBoundaryForm:
    """Over Z the relations of H_a on the kernel basis of d_a and the
    coordinates of a cycle are read off the Smith form of d_a; a solve
    against that basis, which eliminated a second form, is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), reduced=st.booleans())
    def test_matches_a_solve_on_the_cycle_basis(self, seed, reduced):
        """``_cycle_form`` is the Smith form of H_a presented on the
        columns of v past the rank, with the relations a solve finds for
        d_{a+1} on them.  The coordinates of a cycle x on the reported
        generators write the class of its kernel coordinates: x minus
        the representatives times its coordinates is a relation of that
        presentation, and each coordinate on a torsion generator is
        reduced below its order."""
        rng = random.Random(seed)
        cx = random_complex(rng, max_vertices=7)
        for a in range(cx.dimension + 2):
            h = homology_group(cx, a, reduced=reduced)
            s, d_next = h._boundary_form, cx.boundary_matrix(a + 1)
            cycles = IntMatrix.from_columns([s.v.col(j) for j in range(s.rank, s.shape[1])],
                                            rows=s.shape[1])
            relations = solve_matrix(cycles, d_next)
            assert h._cycle_form == snf(relations)
            coeffs = IntMatrix(cycles.cols, 3,
                               [rng.randint(-4, 4) for _ in range(3 * cycles.cols)])
            fill = IntMatrix(d_next.cols, 3, [rng.randint(-4, 4) for _ in range(3 * d_next.cols)])
            chains = cycles @ coeffs - d_next @ fill
            coordinates = h._coordinates(chains)
            reps = solve_matrix(cycles, h.cycle_matrix)
            cycle_group = FgAbelianGroup(cycles.cols, relations)
            assert not cycle_group._outside(solve_matrix(cycles, chains) - reps @ coordinates)
            orders = diagonal_entries(h.group.relations)
            assert all(0 <= coordinates[i, j] < t or t == 0
                       for i, t in enumerate(orders) for j in range(3))
            d_a = augmentation_matrix(cx) if a == 0 and reduced else cx.boundary_matrix(a)
            outside = [j for j in range(d_a.cols) if any(d_a.col(j))]
            if outside:
                with pytest.raises(ValueError, match="not a cycle"):
                    class_of(h, [int(i == outside[0]) for i in range(d_a.cols)])

    @pytest.mark.parametrize("modulus, reduced, want", [
        (None, False, "Z"), (6, False, "Z/6"), (None, True, "0")], ids=["z", "z6", "reduced"])
    def test_degree_0_builds_no_quadratic_matrix(self, monkeypatch, modulus, reduced, want):
        """In degree 0 the relations on the kernel basis are d_1 itself
        (its V - 1 rows past the augmentation's rank when reduced), V x V
        on the 360-cycle.  They reach their Smith form as sparse rows, so
        no ``IntMatrix`` larger than one representative column of V
        entries is built, and none with V² entries."""
        cx = cycle_complex(360)
        sizes = []
        init, of = IntMatrix.__init__, IntMatrix._of.__func__

        def recording_init(self, rows, cols, entries):
            init(self, rows, cols, entries)
            sizes.append(self.rows * self.cols)

        def recording_of(cls, rows, cols, entries):
            sizes.append(rows * cols)
            return of(cls, rows, cols, entries)

        monkeypatch.setattr(IntMatrix, "__init__", recording_init)
        monkeypatch.setattr(IntMatrix, "_of", classmethod(recording_of))
        h = homology_group(cx, 0, modulus, reduced)
        assert h.group.describe() == want
        assert max(sizes) <= 360


class TestOracle:
    def test_four_cycle(self):
        assert oracle_homology(cycle_complex(4), 1, 2) == 1

    def test_point_degree_one(self):
        pt = DeltaComplex([Simplex.vertex("p")])
        assert oracle_homology(pt, 1, 3) == 0

    def test_six_cycle_connected(self):
        assert oracle_homology(cycle_complex(6), 0, 5) == 1

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            oracle_homology(cycle_complex(3), 1, 6)

    def test_oracle_equivalence_random(self):
        rng = random.Random(23)
        for _ in range(40):
            cx = random_complex(rng, max_vertices=7)
            for a in range(cx.dimension + 2):
                for p in (2, 3, 5):
                    expected = oracle_homology(cx, a, p)
                    got = len(homology_group(cx, a, p).group.invariant_factors)
                    assert got == expected, (cx, a, p)


def mod_quotient_size(group, n: int) -> int:
    """|G/nG| from invariant factors."""
    size = n ** group.free_rank
    for d in group.invariant_factors:
        size *= gcd(d, n)
    return size


def n_torsion_size(group, n: int) -> int:
    size = 1
    for d in group.invariant_factors:
        size *= gcd(d, n)
    return size


class TestUniversalCoefficients:
    """Z/n homology from its own presentation (the reference) against
    the universal coefficient formula on the library's integral groups."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_cardinality_identity_random(self, n):
        rng = random.Random(100 + n)
        for _ in range(25):
            cx = random_complex(rng, max_vertices=6)
            for a in range(cx.dimension + 2):
                h_mod, _ = homology_mod_n(cx, a, n)
                h_int = homology_group(cx, a).group
                lower = (
                    homology_group(cx, a - 1).group if a >= 1 else None
                )
                expected = mod_quotient_size(h_int, n)
                if lower is not None:
                    expected *= n_torsion_size(lower, n)
                assert h_mod.order() == expected


@st.composite
def complexes(draw):
    """A random complex, or a Moore space M(Z/k, 1) or its suspension,
    whose torsion feeds the Tor part in degrees 2 and 3."""
    kind = draw(st.sampled_from(["random", "moore", "suspended moore"]))
    if kind == "random":
        return random_complex(random.Random(draw(st.integers(0, 2**32))), max_vertices=6)
    moore = moore_complex(draw(st.integers(2, 6)))
    return moore if kind == "moore" else suspend(moore, "N", "S")


class TestModNMatchesReference:
    @given(complexes(), st.integers(2, 12), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_groups_and_representatives(self, cx, n, reduced):
        for a in range(cx.dimension + 2):
            h = homology_group(cx, a, n, reduced=reduced)
            ref, ref_cycles = homology_mod_n(cx, a, n, reduced)
            assert h.group.iso_type() == ref.iso_type()
            if is_prime(n):
                expected = oracle_homology(cx, a, n) - (1 if reduced and a == 0 else 0)
                assert len(h.group.invariant_factors) == expected
            d_a = augmentation_matrix(cx) if reduced and a == 0 else cx.boundary_matrix(a)
            orders = diagonal_entries(h.group.relations)
            assert h.group.relations == IntMatrix.diagonal(orders)
            product = 1
            for j, g in enumerate(orders):
                rep = h.cycle_matrix.col(j)
                assert any(rep) and all(0 <= x < n for x in rep)
                assert all(x % n == 0 for x in d_a.apply(rep))
                assert ref.element_order(solve(ref_cycles, rep)) == g
                product *= g
            assert product == ref.order()

    @given(complexes(), st.integers(2, 12), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    # torsion Z/4 or Z/6 that shares a prime with n without dividing it,
    # in degree 1 or 2, and its Tor summand one degree up
    @example(moore_complex(4), 6, False, 1)
    @example(suspend(moore_complex(6), "N", "S"), 4, True, 3)
    def test_class_of_reads_coordinates_modulo_orders(self, cx, n, reduced, seed):
        rng = random.Random(seed)
        a = rng.randint(0, cx.dimension)
        h = homology_group(cx, a, n, reduced)
        orders = diagonal_entries(h.group.relations)
        d_next = cx.boundary_matrix(a + 1)
        coeffs = [rng.randint(-20, 20) for _ in orders]
        chain = [0] * h.cycle_matrix.rows
        for j, c in enumerate(coeffs):
            chain = [x + c * y for x, y in zip(chain, h.cycle_matrix.col(j))]
        boundary = d_next.apply([rng.randint(-3, 3) for _ in range(d_next.cols)])
        chain = [x + y + n * rng.randint(-2, 2) for x, y in zip(chain, boundary)]
        assert class_of(h, chain) == tuple(c % g for c, g in zip(coeffs, orders))
        # every column of d_a has entries ±1, so adding a simplex with a
        # nonzero boundary leaves no cycle mod n
        d_a = augmentation_matrix(cx) if reduced and a == 0 else cx.boundary_matrix(a)
        outside = [j for j in range(d_a.cols) if any(d_a.col(j))]
        if outside:
            chain[outside[0]] += 1
            with pytest.raises(ValueError, match="not a cycle"):
                class_of(h, chain)

    @given(complexes(), st.integers(2, 12), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    @example(moore_complex(4), 6, False, 1)
    @example(suspend(moore_complex(6), "N", "S"), 4, True, 3)
    def test_coordinates_match_the_stacked_solve(self, cx, n, reduced, seed):
        """The coordinates read off the form of d_a equal those of one
        solve on [representatives | d_{a+1} | n·I]
        (``zn_reference.coordinates_mod_n``) on combinations of the
        representatives, boundaries and multiples of n, and a random
        chain raises exactly where that solve finds no solution.  Z/n
        maps induced by the identity and by the inclusion into the
        suspension agree with the solve too."""
        rng = random.Random(seed)

        def rand(rows, cols, bound):
            return IntMatrix(rows, cols, [rng.randint(-bound, bound) for _ in range(rows * cols)])

        top = suspend(cx, "P", "Q")
        inclusion = ChainMap(cx, top, {s.id: (s.id, 1) for s in cx.all_simplices()})
        for a in range(cx.dimension + 2):
            h = homology_group(cx, a, n, reduced)
            reps, d_next = h.cycle_matrix, cx.boundary_matrix(a + 1)
            rows = reps.rows
            cycles = (reps @ rand(reps.cols, 3, 20) - d_next @ rand(d_next.cols, 3, 3)
                      - IntMatrix.diagonal([n] * rows) @ rand(rows, 3, 2))
            assert h._coordinates(cycles) == coordinates_mod_n(h, cycles)
            for _ in range(3):
                chain = rand(rows, 1, n)
                expected = coordinates_mod_n(h, chain)
                if expected is None:
                    with pytest.raises(ValueError, match="not a cycle"):
                        h._coordinates(chain)
                else:
                    assert h._coordinates(chain) == expected
            for f, target in ((identity_map(cx), h),
                              (inclusion, homology_group(top, a, n, reduced))):
                m = induced_map(f, a, n, source=h, target=target)
                assert m.matrix == coordinates_mod_n(target, f.matrix(a) @ reps)

    def test_snf_work_is_that_of_integral_homology(self, monkeypatch):
        """Z/n homology in degree a eliminates exactly what Z homology in
        degree a eliminates (the form of d_a and the relation form of
        H_a on the kernel basis, each unless it is in Smith form already),
        plus the k x k diagonal of its own presentation when that is not
        in Smith form, which needs a Tor summand after the H_a ⊗ Z/n
        part.  Its Tor summands are read off the form of d_a, so no form
        of d_{a-1} is eliminated, even where the torsion of H_{a-1}
        meets n.  Nothing it eliminates is wider than d_a or d_{a+1},
        which the n·I route exceeds whenever d_{a+1} has columns."""
        from snckit import matrices

        from test_cli import _rebind

        shapes = []
        original = matrices._smith_form

        def recording(rows, cols):
            shape = (len(rows), cols)
            s = original(rows, cols)
            if s.row_log or s.col_log:
                shapes.append(shape)
            return s

        _rebind(monkeypatch, original, recording)

        def recorded(run):
            shapes.clear()
            run()
            return sorted(shapes)

        rng = random.Random(5)
        cases = [suspend(cycle_complex(4), "O", "inf"), cycle_complex(6), moore_complex(4),
                 suspend(moore_complex(6), "N", "S")]
        cases += [random_complex(rng, max_vertices=6) for _ in range(6)]
        # H_2 = Z and H_1 = Z/2: over Z/4 and Z/6 the orders of H_2 are
        # n, then the Tor summand's 2, which is no divisibility chain
        cases.append(disjoint_union(cases[0], moore_complex(2)))
        seen = {}
        for index, cx in enumerate(cases):
            for a in range(cx.dimension + 2):
                for n, reduced in ((4, False), (6, False), (6, True)):
                    got = recorded(lambda: homology_group(cx, a, n, reduced).group.iso_type())
                    orders = diagonal_entries(homology_group(cx, a, n, reduced).group.relations)
                    k = len(orders)
                    expected = recorded(
                        lambda: homology_group(cx, a, reduced=reduced).group.iso_type())
                    chain = all(y % x == 0 for x, y in zip(orders, orders[1:]))
                    assert got == sorted(expected + [(k, k)] * (not chain)), (cx, a, n)
                    iso = homology_group(cx, a, reduced=reduced).group.iso_type()
                    tensor = iso.rank + sum(1 for t in iso.torsion if gcd(t, n) > 1)
                    assert chain or k > tensor, (cx, a, n)
                    widest = max(cx.boundary_matrix(b).cols for b in (a, a + 1))
                    assert max((cols for _, cols in got), default=0) <= widest
                    old = recorded(lambda: homology_mod_n(cx, a, n, reduced))
                    if cx.boundary_matrix(a + 1).cols:
                        assert max(cols for _, cols in old) > widest
                    seen[index, a, n, reduced] = got
        # the Moore complex's Z/4 torsion in H_1 meets 4 and 6, so its H_2
        # is a Tor summand, and still no form of its 4 x 15 d_1 is made
        moore = cases[2]
        assert moore.boundary_matrix(1).rows == 4 and moore.boundary_matrix(1).cols == 15
        for n in (4, 6):
            assert homology_group(moore, 2, n).group.invariant_factors == (gcd(4, n),)
            assert (4, 15) not in seen[2, 2, n, False]
        union = cases[-1]
        for n in (4, 6):
            assert diagonal_entries(homology_group(union, 2, n).group.relations) == (n, 2)
            assert (2, 2) in seen[len(cases) - 1, 2, n, False]


class TestOneGeneratorPerSummand:
    @given(complexes(), st.sampled_from([None, 2, 3, 4, 6]), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_generators_are_minimal_cycles(self, cx, n, reduced):
        """Over Z and over Z/n alike, one generator per cyclic summand,
        each represented by a cycle (mod n) whose coordinates are its
        own unit vector; for a prime n their count is the F_p dimension
        of the elimination oracle."""
        for a in range(cx.dimension + 2):
            h = homology_group(cx, a, n, reduced)
            iso = h.group.iso_type()
            k = h.group.generator_count
            assert k == len(iso.torsion) + iso.rank
            assert h.cycle_matrix.cols == k
            d_a = augmentation_matrix(cx) if reduced and a == 0 else cx.boundary_matrix(a)
            image = d_a @ h.cycle_matrix
            assert all(x % n == 0 for x in image._entries) if n else image.is_zero()
            assert h._coordinates(h.cycle_matrix) == IntMatrix.identity(k)
            if n is not None and is_prime(n):
                assert iso.rank == 0
                assert len(iso.torsion) == oracle_homology(cx, a, n) - (reduced and a == 0)


class TestSuspensionIsomorphism:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_mod_n(self, n):
        rng = random.Random(17)
        for _ in range(12):
            cx = random_complex(rng, max_vertices=5)
            s = suspend(cx, "A0", "A1")
            for a in range(cx.dimension + 1):
                up, _ = homology_mod_n(s, a + 1, n)
                down, _ = homology_mod_n(cx, a, n, reduced=(a == 0))
                assert up.invariant_factors == down.invariant_factors

    def test_integral(self):
        rng = random.Random(18)
        for _ in range(12):
            cx = random_complex(rng, max_vertices=5)
            s = suspend(cx, "A0", "A1")
            for a in range(cx.dimension + 1):
                up = homology_group(s, a + 1).group.iso_type()
                down = homology_group(cx, a, reduced=(a == 0)).group.iso_type()
                assert up == down
