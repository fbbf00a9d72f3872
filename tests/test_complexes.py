"""Δ-complex construction, validation, chain maps, suspension."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from snckit.complexes import ChainMap, DeltaComplex, Simplex, sort_parity, suspend
from snckit.errors import ValidationError
from snckit.homology import homology_group, random_complex
from snckit.matrices import IntMatrix

from chain_reference import boundary_squared_failure, commutation_failure
from conftest import cycle_complex, graph_complex, identity_map


def vertex_order(cx: DeltaComplex) -> tuple[str, ...]:
    return tuple(s.id for s in cx.simplices(0))


def chain_vector(cx: DeltaComplex, coeffs: dict[str, int], a: int) -> tuple[int, ...]:
    """A chain given as {simplex id: coefficient} in dimension a, as a
    coordinate vector on the simplices of that dimension in order."""
    ids = [s.id for s in cx.simplices(a)]
    vec = [0] * len(ids)
    for sid, c in coeffs.items():
        if sid not in ids:
            raise KeyError(f"no {a}-simplex with id {sid!r}")
        vec[ids.index(sid)] += c
    return tuple(vec)


def path_complex():
    return graph_complex(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")])


class TestValidation:
    def test_vertex_conventions(self):
        with pytest.raises(ValidationError, match="only vertex"):
            DeltaComplex([Simplex("v", ("w",))])

    def test_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            DeltaComplex([Simplex.vertex("v"), Simplex.vertex("v")])

    def test_vertex_order_enforced(self):
        vs = [Simplex.vertex("a"), Simplex.vertex("b")]
        with pytest.raises(ValidationError, match="out of the global order"):
            DeltaComplex(vs + [Simplex("e", ("b", "a"), ("a", "b"))])

    def test_facet_must_span_correct_vertices(self):
        vs = [Simplex.vertex("a"), Simplex.vertex("b")]
        with pytest.raises(ValidationError, match="facet"):
            DeltaComplex(vs + [Simplex("e", ("a", "b"), ("a", "b"))])

    def test_missing_facet(self):
        vs = [Simplex.vertex("a"), Simplex.vertex("b")]
        with pytest.raises(ValidationError, match="does not exist"):
            DeltaComplex(vs + [Simplex("e", ("a", "b"), ("b", "nope"))])

    def test_collects_all_problems(self):
        vs = [Simplex.vertex("a"), Simplex.vertex("b")]
        bad = [
            Simplex("e1", ("a", "b"), ("a", "b")),
            Simplex("e2", ("a", "b"), ("b",)),
        ]
        with pytest.raises(ValidationError) as err:
            DeltaComplex(vs + bad)
        assert len(err.value.problems) >= 2

    def test_parallel_edges_in_a_tetrahedron_break_boundary_squared(self):
        # faces abc and abd bound through different parallel ab edges, so
        # the tetrahedron's boundary of its boundary is ab1 - ab2
        edges = [Simplex(eid, (eid[0], eid[1]), (eid[1], eid[0]))
                 for eid in ("ab1", "ab2", "ac", "ad", "bc", "bd", "cd")]
        faces = [
            Simplex("abc", ("a", "b", "c"), ("bc", "ac", "ab1")),
            Simplex("abd", ("a", "b", "d"), ("bd", "ad", "ab2")),
            Simplex("acd", ("a", "c", "d"), ("cd", "ad", "ac")),
            Simplex("bcd", ("b", "c", "d"), ("cd", "bd", "bc")),
        ]
        below = [Simplex.vertex(v) for v in "abcd"] + edges + faces
        assert DeltaComplex(below).counts() == (4, 7, 4)
        tetra = Simplex("abcd", ("a", "b", "c", "d"), ("bcd", "acd", "abd", "abc"))
        with pytest.raises(ValidationError) as err:
            DeltaComplex(below + [tetra])
        assert err.value.problems == ["boundary squared is nonzero in dimension 3"]

    @pytest.mark.parametrize("simplices, problems", [
        ([], ["complex has no simplices"]),
        ([Simplex.vertex("v"), Simplex.vertex("w"), Simplex.vertex("v"),
          Simplex("e", ("v", "w"), ("w", "v")), Simplex.vertex("w")],
         ["duplicate simplex id 'v'", "duplicate simplex id 'w'"]),
        ([Simplex("z", ("y",), ("q",))],
         ["vertex 'z' must list itself as its only vertex",
          "vertex 'z' must have no facets"]),
        ([Simplex("e", ("a", "b"), ("b", "a"))],
         ["simplex 'e' uses unknown vertices ['a', 'b']"]),
        ([Simplex("v", ("w",)), Simplex("u", ("u",), ("x",)),
          Simplex.vertex("a"), Simplex.vertex("b"), Simplex.vertex("c"),
          Simplex("rep", ("a", "a"), ("a", "a")),
          Simplex("unk", ("a", "x", "y"), ("a", "b", "c")),
          Simplex("ord", ("b", "a"), ("a", "b")),
          Simplex("cnt", ("a", "b"), ("a",)),
          Simplex("ordcnt", ("c", "a"), ("a",)),
          Simplex("ab", ("a", "b"), ("b", "a")),
          Simplex("bad", ("a", "c"), ("nope", "ab")),
          Simplex("span", ("b", "c"), ("b", "c")),
          Simplex("abc", ("a", "b", "c"), ("span", "bad", "a"))],
         ["vertex 'v' must list itself as its only vertex",
          "vertex 'u' must have no facets",
          "simplex 'rep' repeats a vertex",
          "simplex 'ord' lists vertices out of the global order",
          "simplex 'cnt' has 1 facets, expected 2",
          "simplex 'ordcnt' lists vertices out of the global order",
          "simplex 'ordcnt' has 1 facets, expected 2",
          "simplex 'bad' facet 'nope' does not exist",
          "simplex 'bad' facet 'ab' has dimension 1, expected 0",
          "simplex 'span' facet 'b' spans ('b',), expected ('c',)",
          "simplex 'span' facet 'c' spans ('c',), expected ('b',)",
          "simplex 'unk' uses unknown vertices ['x', 'y']",
          "simplex 'abc' facet 'a' has dimension 0, expected 1"]),
    ], ids=["empty", "duplicate-ids", "vertex-conventions", "no-vertices", "every-check"])
    def test_every_problem_is_named_in_order(self, simplices, problems):
        """Each construction message, word for word, in the order the
        checks run: duplicates alone first, then vertices, then each
        higher dimension in turn, simplex by simplex in listing order."""
        with pytest.raises(ValidationError) as err:
            DeltaComplex(simplices)
        assert err.value.problems == problems


class TestStructure:
    def test_counts_and_euler(self):
        cx = cycle_complex(4)
        assert cx.counts() == (4, 4)
        assert cx.euler_characteristic() == 0
        assert cx.dimension == 1

    def test_boundary_matrix_signs(self):
        cx = path_complex()
        d1 = cx.boundary_matrix(1)
        # boundary of ab is b - a
        assert d1.col(0) == (-1, 1, 0)
        assert d1.col(1) == (0, -1, 1)

    def test_boundary_squared_zero(self):
        rng = random.Random(7)
        for _ in range(15):
            cx = random_complex(rng, max_vertices=6)
            for a in range(1, cx.dimension + 1):
                assert (cx.boundary_matrix(a) @ cx.boundary_matrix(a + 1)).is_zero()

    def test_boundary_out_of_range(self):
        cx = path_complex()
        assert cx.boundary_matrix(5).cols == 0
        assert cx.boundary_matrix(0).rows == 0

    def test_parallel_edges_are_legal(self):
        cx = graph_complex(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        assert cx.counts() == (2, 2)

    def test_structure_signature_ignores_names(self):
        one = cycle_complex(4)
        other = graph_complex(
            ["w0", "w1", "w2", "w3"],
            [("f0", "w0", "w1"), ("f1", "w1", "w2"),
             ("f2", "w2", "w3"), ("f3", "w0", "w3")],
        )
        assert one.structure_signature() == other.structure_signature()

    def test_structure_signature_is_order_sensitive(self):
        one = graph_complex(["a", "b"], [("e", "a", "b")])
        two = graph_complex(["b", "a"], [("e", "a", "b")])
        assert one.structure_signature() == two.structure_signature()
        three = graph_complex(["a", "b", "c"], [("e", "a", "c")])
        four = graph_complex(["a", "b", "c"], [("e", "b", "c")])
        assert three.structure_signature() != four.structure_signature()

    def test_chain_vector(self):
        cx = path_complex()
        assert chain_vector(cx, {"bc": 2, "ab": -1}, 1) == (-1, 2)
        with pytest.raises(KeyError):
            chain_vector(cx, {"zz": 1}, 1)
        with pytest.raises(KeyError):
            chain_vector(cx, {"a": 1}, 1)


class TestChainMap:
    def test_identity(self):
        cx = cycle_complex(3)
        m = identity_map(cx)
        assert m.matrix(1).is_identity()

    def test_totality_enforced(self):
        cx = cycle_complex(3)
        partial = {s.id: (s.id, 1) for s in cx.all_simplices() if s.id != "e1"}
        with pytest.raises(ValidationError, match="no image"):
            ChainMap(cx, cx, partial)

    def test_every_problem_is_named_in_order(self):
        """Each assignment message, word for word: per source simplex in
        listing order (a missing image, then its sign, then its target),
        and the unknown source ids last, sorted."""
        cx = path_complex()
        assignment = {"a": ("a", 2), "b": ("zz", 0), "ab": ("a", 1), "bc": ("bc", -1),
                      "q": ("a", 1), "p": ("a", 1)}
        with pytest.raises(ValidationError) as err:
            ChainMap(cx, cx, assignment)
        assert err.value.problems == [
            "simplex 'a' has sign 2, expected +1 or -1",
            "simplex 'b' has sign 0, expected +1 or -1",
            "simplex 'b' maps to unknown id 'zz'",
            "simplex 'c' has no image",
            "simplex 'ab' (dim 1) maps to 'a' (dim 0)",
            "assignment covers unknown ids ['p', 'q']",
        ]

    def test_must_commute_with_boundary(self):
        cx = graph_complex(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        bad = {"a": ("a", 1), "b": ("b", 1), "e1": ("e2", -1), "e2": ("e2", 1)}
        with pytest.raises(ValidationError, match="commute"):
            ChainMap(cx, cx, bad)
        good = {"a": ("a", 1), "b": ("b", 1), "e1": ("e2", 1), "e2": ("e2", 1)}
        ChainMap(cx, cx, good)

    def test_flipped_edge_sign_does_not_commute(self):
        cx = DeltaComplex([Simplex.vertex(v) for v in "abc"] + [
            Simplex("ab", ("a", "b"), ("b", "a")),
            Simplex("ac", ("a", "c"), ("c", "a")),
            Simplex("bc", ("b", "c"), ("c", "b")),
            Simplex("abc", ("a", "b", "c"), ("bc", "ac", "ab")),
        ])
        flipped = {s.id: (s.id, 1) for s in cx.all_simplices()}
        flipped["ab"] = ("ab", -1)
        with pytest.raises(ValidationError) as err:
            ChainMap(cx, cx, flipped)
        assert err.value.problems == [
            "map does not commute with the boundary in dimension 1"
        ]

    def test_compose(self):
        cx = cycle_complex(4)
        # rotation by one step; edges crossing the wrap-around flip
        rot = {f"v{i}": (f"v{(i + 1) % 4}", 1) for i in range(4)}
        rot["e0"] = ("e1", 1)
        rot["e1"] = ("e2", 1)
        rot["e2"] = ("e3", -1)
        rot["e3"] = ("e0", -1)
        f = ChainMap(cx, cx, rot)
        f2 = f.compose(f)
        assert f2.assignment["v0"] == ("v2", 1)
        assert f2.assignment["e1"] == ("e3", -1)
        assert f2.assignment["e2"] == ("e0", 1)

    def test_compose_needs_the_ids_of_the_source(self):
        """Two complexes of one shape with other ids compare equal by
        structure, but the images of the first map are no simplices of
        the second map's source, so the maps are not composable."""
        ab = graph_complex(["a", "b"], [("ab", "a", "b")])
        xy = graph_complex(["x", "y"], [("xy", "x", "y")])
        assert ab.structure_signature() == xy.structure_signature()
        with pytest.raises(ValueError, match="chain maps are not composable"):
            identity_map(xy).compose(identity_map(ab))

    def test_induced_signs_follow_image_vertex_order(self):
        cx = cycle_complex(4)
        # reflection v_i -> v_{-i}; e1 = (v1, v2) lands on (v3, v2), out of order
        image = {f"v{i}": f"v{-i % 4}" for i in range(4)}
        image.update({f"e{i}": f"e{(-i - 1) % 4}" for i in range(4)})
        f = ChainMap.induced(cx, cx, image)
        assert f.assignment == {
            "v0": ("v0", 1), "v1": ("v3", 1), "v2": ("v2", 1), "v3": ("v1", 1),
            "e0": ("e3", 1), "e1": ("e2", -1), "e2": ("e1", -1), "e3": ("e0", 1),
        }

    def test_induced_must_commute_with_boundary(self):
        cx = cycle_complex(3)
        image = {s.id: s.id for s in cx.all_simplices()}
        image["e0"] = "e1"
        with pytest.raises(ValidationError, match="commute"):
            ChainMap.induced(cx, cx, image)


class TestSuspend:
    def test_point(self):
        pt = DeltaComplex([Simplex.vertex("p")])
        s = suspend(pt, "O", "inf")
        assert s.counts() == (3, 2)
        assert vertex_order(s) == ("p", "O", "inf")

    def test_four_cycle(self):
        s = suspend(cycle_complex(4), "O", "inf")
        assert s.counts() == (6, 12, 8)
        assert s.euler_characteristic() == 2

    def test_multigraph(self):
        cx = graph_complex(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        s = suspend(cx, "O", "inf")
        assert s.counts() == (4, 6, 4)

    def test_counts_formula_random(self):
        rng = random.Random(3)
        for _ in range(10):
            cx = random_complex(rng, max_vertices=5)
            s = suspend(cx, "apex0", "apex1")
            counts = list(cx.counts()) + [0]
            expected = [counts[0] + 2]
            expected += [
                counts[a] + 2 * counts[a - 1] for a in range(1, len(counts))
            ]
            assert list(s.counts()) == expected
            assert s.euler_characteristic() == 2 - cx.euler_characteristic()

    def test_apex_collision(self):
        cx = cycle_complex(3)
        with pytest.raises(ValidationError, match="collision"):
            suspend(cx, "v0", "inf")
        with pytest.raises(ValidationError, match="differ"):
            suspend(cx, "O", "O")

    def test_apexes_never_joined(self):
        s = suspend(cycle_complex(4), "O", "inf")
        for e in s.simplices(1):
            assert set(e.vertices) != {"O", "inf"}


@st.composite
def structured_simplices(draw):
    """Vertices v0 < v1 < ..., then up to two simplices on every vertex
    set of each dimension up to 3, each on facets drawn from the
    simplices already on its faces.  Only the signs of d∘d can fail."""
    n = draw(st.sampled_from([4, 3, 2, 1]))
    verts = [f"v{i}" for i in range(n)]
    simplices = [Simplex.vertex(v) for v in verts]
    on_span = {(v,): [v] for v in verts}
    for a in range(1, n):
        for span in itertools.combinations(verts, a + 1):
            faces = [on_span.get(span[:i] + span[i + 1:]) for i in range(a + 1)]
            if not all(faces):
                continue
            for k in range(draw(st.sampled_from([1, 2] if a == 1 else [1, 2, 1, 0]))):
                sid = "".join(span) + f"#{k}"
                facets = tuple(draw(st.sampled_from(f)) for f in faces)
                simplices.append(Simplex(sid, span, facets))
                on_span.setdefault(span, []).append(sid)
    return simplices


@st.composite
def complex_with_assignment(draw):
    """A valid complex and a signed assignment on it: each simplex goes
    to a simplex on the image of its vertices under a vertex map
    (a permutation or any function), signed by parity, when there is
    one, and to any simplex of its dimension otherwise; then at most one
    sign is flipped."""
    simplices = draw(structured_simplices())
    if boundary_squared_failure(simplices) is not None:
        simplices = [s for s in simplices if s.dim < 3]
    cx = DeltaComplex(simplices)
    verts = vertex_order(cx)
    position = {v: i for i, v in enumerate(verts)}
    images = st.permutations(verts) | st.lists(
        st.sampled_from(verts), min_size=len(verts), max_size=len(verts))
    vmap = dict(zip(verts, draw(images)))
    assignment = {}
    for s in cx.all_simplices():
        image = [vmap[v] for v in s.vertices]
        span = tuple(sorted(image, key=position.__getitem__))
        on = [t.id for t in cx.simplices(s.dim) if t.vertices == span]
        if on and len(set(span)) == len(span):
            tid = draw(st.sampled_from(on))
            sign = sort_parity([position[v] for v in image])
        else:
            tid = draw(st.sampled_from([t.id for t in cx.simplices(s.dim)]))
            sign = 1
        assignment[s.id] = (tid, sign)
    flip = draw(st.none() | st.sampled_from(sorted(assignment)))
    if flip is not None:
        tid, sign = assignment[flip]
        assignment[flip] = (tid, -sign)
    return cx, assignment


class TestChecksMatchDenseProducts:
    """The per-simplex checks accept and reject exactly what the dense
    products d_{a-1} d_a and d f, f d of ``chain_reference`` do, and
    name the same dimension."""

    @settings(max_examples=300, deadline=None)
    @given(structured_simplices())
    def test_boundary_squared(self, simplices):
        failure = boundary_squared_failure(simplices)
        if failure is None:
            DeltaComplex(simplices)
        else:
            with pytest.raises(ValidationError) as err:
                DeltaComplex(simplices)
            assert err.value.problems == [
                f"boundary squared is nonzero in dimension {failure}"
            ]

    @settings(max_examples=300, deadline=None)
    @given(complex_with_assignment())
    def test_commutation(self, case):
        cx, assignment = case
        failure = commutation_failure(cx, cx, assignment)
        if failure is None:
            f = ChainMap(cx, cx, assignment)
            for a in range(1, cx.dimension + 1):
                assert (cx.boundary_matrix(a) @ f.matrix(a)
                        == f.matrix(a - 1) @ cx.boundary_matrix(a))
        else:
            with pytest.raises(ValidationError) as err:
                ChainMap(cx, cx, assignment)
            assert err.value.problems == [
                f"map does not commute with the boundary in dimension {failure}"
            ]


def test_suspension_tower_construction_multiplies_no_matrices(monkeypatch):
    """Building the 4-fold suspension of the 6-cycle and its identity
    map checks d∘d and d f = f d without a matrix product and without
    building a chain-level matrix; its H₅ is the one the dense checks
    gave."""
    counts = {"matmul": 0, "boundary": 0, "map": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls, name, key in ((IntMatrix, "__matmul__", "matmul"),
                           (DeltaComplex, "boundary_matrix", "boundary"),
                           (ChainMap, "matrix", "map")):
        monkeypatch.setattr(cls, name, counting(key, getattr(cls, name)))
    cx = cycle_complex(6)
    for k in range(1, 5):
        cx = suspend(cx, f"O{k}", f"I{k}")
    identity_map(cx)
    assert counts == {"matmul": 0, "boundary": 0, "map": 0}
    assert cx.counts() == (14, 78, 224, 352, 288, 96)

    h5 = homology_group(cx, 5)
    assert h5.group.describe() == "Z"
    assert "".join("+" if c > 0 else "-" for c in h5.cycle_matrix.col(0)) == (
        "-----++++++-+++++------++++++------+-----++++++-"
        "+++++------+-----++++++------++++++-+++++------+"
    )
