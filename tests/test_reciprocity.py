"""theta, alpha, and the kernel predictions."""

import itertools
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from snckit.complexes import ChainMap
from snckit.config_io import parse_config
from snckit.errors import LabelError, ValidationError, WellDefinednessError
from snckit import reciprocity
from snckit.fixtures import fermat_bundle, rulings_bundle, trivial_pi1
from snckit.galois import extension_complex, frobenius_chain_map
from snckit.groups import FgAbelianGroup, GaloisModule, ModuleMap, coinvariants
from snckit.homology import homology_group
from snckit.matrices import IntMatrix, _power
from snckit.reciprocity import (
    ComponentPi1,
    ConfigBundle,
    Pi1Input,
    alpha_map,
    compute_theta,
    predict_kernel,
    rational_point_flags,
    sweep_extensions,
    validate_labels,
    validate_pi1,
)
from snckit.snc import (
    Component,
    FrobeniusAction,
    SncConfiguration,
    Stratum,
    build_dual_complex,
    validate_config,
)

from conftest import (
    cycle_config,
    dense_document,
    random_admissible_config,
    reflection_action,
    swap_upgrade_fixture,
    triangle_config,
)


def _module(group: FgAbelianGroup, frob=None, order: int = 1) -> GaloisModule:
    if frob is None:
        frob = IntMatrix.identity(group.generator_count)
    return GaloisModule(group, frob, order)


def _map(source: GaloisModule, target: GaloisModule, rows) -> ComponentPi1:
    return ComponentPi1(source, ModuleMap(source.group, target.group,
                                          IntMatrix.from_rows(rows)))


def _bundle(cfg: SncConfiguration, pi1: Pi1Input, labels=None) -> ConfigBundle:
    return ConfigBundle(cfg.name, cfg, pi1, labels or {})


class TestComputeTheta:
    def test_no_component_maps_takes_ell_part(self):
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(6)))
        assert compute_theta(pi1, 2).group.invariant_factors == (2,)
        assert compute_theta(pi1, 3).group.invariant_factors == (3,)
        assert compute_theta(pi1, 5).group.is_trivial()

    def test_identity_component_map_kills_theta(self):
        y0 = _module(FgAbelianGroup.cyclic(4))
        comp = _map(_module(FgAbelianGroup.cyclic(4)), y0, [[1]])
        pi1 = Pi1Input(y0, {"C1": comp})
        assert compute_theta(pi1, 2).group.is_trivial()

    def test_free_part_survives_localization(self):
        pi1 = Pi1Input(_module(FgAbelianGroup(1)))
        for ell in (2, 7):
            theta = compute_theta(pi1, ell)
            assert theta.group.iso_type().rank == 1

    def test_partial_quotient(self):
        # Z/12 modulo the image of 4: Z/4, whose 3-part is trivial
        y0 = _module(FgAbelianGroup.cyclic(12))
        comp = _map(_module(FgAbelianGroup.cyclic(3)), y0, [[4]])
        pi1 = Pi1Input(y0, {"C1": comp})
        assert compute_theta(pi1, 2).group.invariant_factors == (4,)
        assert compute_theta(pi1, 3).group.is_trivial()

    def test_requires_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            compute_theta(trivial_pi1(), 4)

    def test_rejects_image_not_frobenius_stable(self):
        # Frobenius swaps the generators of Z^2, so the image of the
        # first one is not stable and theta has no Frobenius
        y0 = _module(FgAbelianGroup(2), IntMatrix.from_rows([[0, 1], [1, 0]]), 2)
        comp = _map(_module(FgAbelianGroup(1)), y0, [[1], [0]])
        with pytest.raises(WellDefinednessError, match="source relation #0"):
            compute_theta(Pi1Input(y0, {"C1": comp}), 2)


class TestValidatePi1:
    def test_unknown_component(self):
        cfg = cycle_config(3)
        y0 = _module(FgAbelianGroup.cyclic(2))
        pi1 = Pi1Input(y0, {"nope": _map(_module(FgAbelianGroup.trivial()), y0, [[]])})
        problems = validate_pi1(cfg, pi1)
        assert any("unknown component 'nope'" in p for p in problems)

    def test_source_mismatch(self):
        cfg = cycle_config(3)
        y0 = _module(FgAbelianGroup.cyclic(2))
        bad = ComponentPi1(
            _module(FgAbelianGroup.cyclic(3)),
            ModuleMap(FgAbelianGroup.cyclic(2), y0.group, IntMatrix.identity(1)),
        )
        problems = validate_pi1(cfg, Pi1Input(y0, {"v0": bad}))
        assert any("source is not its module" in p for p in problems)

    def test_target_mismatch(self):
        cfg = cycle_config(3)
        y0 = _module(FgAbelianGroup.cyclic(2))
        source = _module(FgAbelianGroup(1))
        bad = ComponentPi1(source, ModuleMap(source.group, FgAbelianGroup(1),
                                             IntMatrix.identity(1)))
        problems = validate_pi1(cfg, Pi1Input(y0, {"v0": bad}))
        assert problems == ["component 'v0': map target is not y0"]

    def test_equivariance(self):
        cfg = cycle_config(3)
        y0 = _module(FgAbelianGroup.cyclic(5), IntMatrix.from_rows([[-1]]), 2)
        comp = _map(_module(FgAbelianGroup.cyclic(5), order=2), y0, [[1]])
        problems = validate_pi1(cfg, Pi1Input(y0, {"v0": comp}))
        assert problems == ["component 'v0': map into y0 is not Frobenius-equivariant"]
        # negation on both sides commutes with the identity map
        comp2 = _map(
            _module(FgAbelianGroup.cyclic(5), IntMatrix.from_rows([[-1]]), 2),
            y0, [[1]],
        )
        assert validate_pi1(cfg, Pi1Input(y0, {"v0": comp2})) == []


class TestValidateLabels:
    def test_unknown_edge(self):
        cfg = cycle_config(3)
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(2)))
        problems = validate_labels(cfg, pi1, {"zz": (1,)})
        assert problems == ["label on unknown edge id 'zz'"]

    def test_wrong_length(self):
        cfg = cycle_config(3)
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(2)))
        problems = validate_labels(cfg, pi1, {"e0": (1, 0)})
        assert problems == [
            "label vector of wrong length on edge 'e0': got 2, y0 has 1 generators"
        ]

    def test_equivariance(self):
        cfg, _, _ = swap_upgrade_fixture()
        y0 = _module(FgAbelianGroup.cyclic(3), IntMatrix.from_rows([[2]]), 2)
        pi1 = Pi1Input(y0)
        bad = validate_labels(cfg, pi1, {"s1": (1,), "s2": (1,)})
        assert "label on edge 's1' is not Frobenius-equivariant" in bad
        good = validate_labels(cfg, pi1, {"s1": (1,), "s2": (2,)})
        assert good == []

    def test_cocycle_condition(self):
        cfg = triangle_config(with_face=True)
        y0 = _module(FgAbelianGroup.cyclic(4))
        problems = validate_labels(cfg, Pi1Input(y0), {"AB": (1,)})
        assert problems == [
            "labels do not descend to H₁: boundary of 2-simplex 'T' "
            "pairs to a nonzero class"
        ]
        # the same boundary sum is fine once a component map absorbs it
        comp = _map(_module(FgAbelianGroup(1)), y0, [[1]])
        pi1 = Pi1Input(y0, {"A": comp})
        assert validate_labels(cfg, pi1, {"AB": (1,)}) == []

    def test_missing_labels_default_to_zero(self):
        cfg = cycle_config(4)
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(3)))
        assert validate_labels(cfg, pi1, {}) == []

    def test_no_labels_still_need_a_valid_configuration(self):
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(3)))
        bad = SncConfiguration("bad", (Component("A"),), (Stratum("s", ("A", "Z")),))
        for labels in ({}, {"s": (1,)}):
            with pytest.raises(ValidationError) as info:
                validate_labels(bad, pi1, labels)
            assert info.value.problems == ["stratum 's' lies on unknown components ['Z']"]

    def test_zero_labels_build_no_frobenius_chain_map(self, monkeypatch):
        """Zero labels are equivariant and descend whatever Frobenius
        does, so their check builds no chain map: no labels, zero
        vectors, or a y0 without generators."""
        built = []
        monkeypatch.setattr(reciprocity, "frobenius_chain_map", built.append)
        cfg, _, _ = swap_upgrade_fixture()
        y0 = _module(FgAbelianGroup.cyclic(3), IntMatrix.from_rows([[2]]), 2)
        assert validate_labels(cfg, Pi1Input(y0), {}) == []
        assert validate_labels(cfg, Pi1Input(y0), {"s1": (0,), "s2": (0,)}) == []
        trivial = Pi1Input(_module(FgAbelianGroup.trivial()))
        assert validate_labels(cfg, trivial, {"s1": (), "s2": ()}) == []
        assert built == []
        # structural problems are still reported
        assert validate_labels(cfg, trivial, {"s1": (0,)}) == [
            "label vector of wrong length on edge 's1': got 1, y0 has 0 generators"
        ]

    def test_accepted_frobenius_always_gives_a_chain_map(self):
        """What lets zero labels skip the chain map: every Frobenius
        action the configuration checks accept commutes with the
        boundary, so building the chain map rejects nothing more.
        Random configurations on up to 4 components with parallel edges
        and triangles (explicit or inferred facets) and a random action
        that respects the components of each stratum."""
        rng = random.Random(8)
        accepted = 0
        for _ in range(600):
            cfg = _random_frobenius_config(rng)
            if cfg is None or validate_config(cfg):
                continue
            accepted += 1
            frobenius_chain_map(cfg)
        assert accepted > 150



def _dense_label_problems(cfg: SncConfiguration, pi1: Pi1Input, labels) -> list[str]:
    """The label checks as the matrix products L·F₁ − Y·L and L·∂₂, the
    reference for the per-column checks of ``validate_labels``."""
    cx = build_dual_complex(cfg)
    gc = pi1.y0.group.generator_count
    edges = cx.simplices(1)
    label = IntMatrix.from_columns([labels.get(e.id, (0,) * gc) for e in edges], rows=gc)
    skew = label @ frobenius_chain_map(cfg).matrix(1) - pi1.y0.frobenius @ label
    problems = [f"label on edge {e.id!r} is not Frobenius-equivariant"
                for j, e in enumerate(edges)
                if not pi1.y0.group.in_relation_lattice(skew.col(j))]
    if problems:
        return problems
    vanishing, _ = reciprocity._component_quotient(pi1)
    boundary = label @ cx.boundary_matrix(2)
    return [f"labels do not descend to H₁: boundary of 2-simplex {t.id!r} "
            f"pairs to a nonzero class"
            for j, t in enumerate(cx.simplices(2))
            if not vanishing.in_relation_lattice(boundary.col(j))]


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_label_checks_match_the_dense_products(seed, e, coboundary, frobenius_trivial):
    """Random labels fail equivariance or descent somewhere; coboundaries
    of vertex cochains always descend, and with Frobenius trivial on
    both sides (e = 1) are equivariant too, so every branch is reached."""
    rng = random.Random(seed)
    cfg = random_admissible_config(rng, e)
    y0 = _module(FgAbelianGroup.cyclic(3),
                 None if frobenius_trivial else IntMatrix.from_rows([[2]]),
                 1 if frobenius_trivial else 2)
    cx = build_dual_complex(cfg)
    if coboundary:
        value = {v.id: rng.randrange(3) for v in cx.simplices(0)}
        labels = {}
        for edge in cx.simplices(1):
            head, tail = edge.facets  # the boundary of an edge is head - tail
            labels[edge.id] = ((value[head] - value[tail]) % 3,)
    else:
        labels = {edge.id: (rng.randrange(3),) for edge in cx.simplices(1)
                  if rng.random() < 0.5}
    expected = _dense_label_problems(cfg, Pi1Input(y0), labels)
    assert validate_labels(cfg, Pi1Input(y0), labels) == expected


def _coned_labeled_document(m: int, e: int = 2) -> dict:
    """A cycle of m·e components rotated m steps by an order-e
    Frobenius and coned off at two fixed apexes (depth-3 strata with
    explicit facets), y0 = Z/9, and nonzero labels that pass both
    checks: the coboundary of a Frobenius-invariant vertex cochain."""
    n = m * e
    comps = [f"v{i}" for i in range(n)] + ["O", "inf"]
    value = {f"v{i}": 1 + i % m for i in range(n)}
    position = {c: i for i, c in enumerate(comps)}
    edges, triangles, labels = [], [], {}
    cp = {f"v{i}": f"v{(i + m) % n}" for i in range(n)}
    sp = {}

    def edge(sid, a, b, image):
        tail, head = sorted((a, b), key=position.__getitem__)
        edges.append({"id": sid, "on": [a, b]})
        labels[sid] = [(value.get(head, 0) - value.get(tail, 0)) % 9]
        sp[sid] = image

    for i in range(n):
        j = (i + 1) % n
        edge(f"e{i}", f"v{i}", f"v{j}", f"e{(i + m) % n}")
        for apex in ("O", "inf"):
            edge(f"v{i}x{apex}", f"v{i}", apex, f"v{(i + m) % n}x{apex}")
    for i in range(n):
        j = (i + 1) % n
        for apex in ("O", "inf"):
            sid = f"e{i}x{apex}"
            triangles.append({"id": sid, "on": [f"v{i}", f"v{j}", apex],
                              "facets": [f"e{i}", f"v{i}x{apex}", f"v{j}x{apex}"]})
            sp[sid] = f"e{(i + m) % n}x{apex}"
    return {
        "components": [{"id": c} for c in comps],
        "strata": {"2": edges, "3": triangles},
        "frobenius": {"order": e, "components": cp, "strata": sp},
        "pi1_y0": {"generators": 1, "relations": [[9]]},
        "edge_labels": labels,
    }


def test_label_checks_build_no_quadratic_matrix(monkeypatch):
    """``parse_config`` checks each edge label against the label of its
    Frobenius image, and each 2-simplex against its facet labels: it
    builds no matrix with (edges)² entries and never asks a chain map
    for its matrix."""
    doc = _coned_labeled_document(60)
    edges = len(doc["strata"]["2"])
    sizes, chain_matrices = [], []
    init, of = IntMatrix.__init__, IntMatrix._of.__func__

    def recording_init(self, rows, cols, entries):
        init(self, rows, cols, entries)
        sizes.append(self.rows * self.cols)

    def recording_of(cls, rows, cols, entries):
        sizes.append(rows * cols)
        return of(cls, rows, cols, entries)

    monkeypatch.setattr(IntMatrix, "__init__", recording_init)
    monkeypatch.setattr(IntMatrix, "_of", classmethod(recording_of))
    monkeypatch.setattr(ChainMap, "matrix", lambda self, a: chain_matrices.append(a))
    bundle = parse_config(json.dumps(doc))
    assert any(any(vec) for vec in bundle.labels.values())
    assert max(sizes) < edges ** 2
    assert chain_matrices == []
    # the checks still run: one wrong label is named
    doc["edge_labels"]["e0"] = [doc["edge_labels"]["e0"][0] + 1]
    with pytest.raises(ValidationError, match="'e0' is not Frobenius-equivariant"):
        parse_config(json.dumps(doc))

def _random_frobenius_config(rng: random.Random) -> SncConfiguration | None:
    comps = [f"c{i}" for i in range(rng.randint(2, 4))]
    strata: list[Stratum] = []
    by_on: dict[tuple[str, ...], list[str]] = {}

    def add(on, facets=None):
        sid = f"s{len(strata)}"
        strata.append(Stratum(sid, on, facets))
        by_on.setdefault(on, []).append(sid)

    for pair in itertools.combinations(comps, 2):
        for _ in range(rng.choice([0, 1, 1, 2])):
            add(pair)
    for tri in itertools.combinations(comps, 3):
        faces = [tuple(x for x in tri if x != v) for v in tri]
        if all(by_on.get(f) for f in faces):
            for _ in range(rng.choice([0, 1, 2])):
                facets = tuple(rng.choice(by_on[f]) for f in faces)
                add(tri, facets if rng.random() < 0.8 else None)
    image = comps[:]
    rng.shuffle(image)
    cp = dict(zip(comps, image))
    sp = {}
    for on, ids in by_on.items():
        targets = list(by_on.get(tuple(sorted(cp[c] for c in on)), []))
        if len(targets) != len(ids):
            return None
        rng.shuffle(targets)
        sp.update(zip(ids, targets))
    return SncConfiguration("random", tuple(Component(c) for c in comps), tuple(strata),
                            FrobeniusAction(rng.choice([1, 2, 3, 4, 6, 12]), cp, sp))


class TestAlphaMap:
    def test_fermat_alpha_is_surjective(self):
        bundle = fermat_bundle(5)
        res = alpha_map(bundle, 5)
        assert res.theta.group.invariant_factors == (5,)
        assert res.surjective
        assert res.image_group.iso_type() == FgAbelianGroup.cyclic(5).iso_type()
        assert res.torsion_contained
        assert res.warnings == ()

    def test_zero_labels_give_zero_map(self):
        cfg = cycle_config(4)
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(4)))
        res = alpha_map(_bundle(cfg, pi1), 2)
        assert res.map.matrix.is_zero()
        assert res.image_group.is_trivial()

    def test_single_labelled_edge(self):
        cfg = cycle_config(4)
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(4)))
        labels = {"e0": (1,)}
        res = alpha_map(_bundle(cfg, pi1, labels), 2)
        assert res.image_group.iso_type() == FgAbelianGroup.cyclic(4).iso_type()
        # at 3 nothing of theta remains
        res3 = alpha_map(_bundle(cfg, pi1, labels), 3)
        assert res3.theta.group.is_trivial()
        assert res3.image_group.is_trivial()

    def test_linearity_in_labels(self):
        bundle = fermat_bundle(9)
        res1 = alpha_map(bundle, 3)
        doubled = {e: tuple(2 * x for x in v) for e, v in bundle.labels.items()}
        res2 = alpha_map(replace(bundle, labels=doubled), 3)
        assert res2.map.matrix.to_rows() == [[2 * x for x in row]
                                             for row in res1.map.matrix.to_rows()]

    def test_rejects_bad_labels(self):
        cfg = triangle_config(with_face=True)
        pi1 = Pi1Input(_module(FgAbelianGroup.cyclic(4)))
        with pytest.raises(LabelError, match="do not descend"):
            alpha_map(_bundle(cfg, pi1, {"AB": (1,)}), 2)

    def test_rejects_bad_pi1(self):
        cfg = cycle_config(3)
        y0 = _module(FgAbelianGroup.cyclic(2))
        pi1 = Pi1Input(y0, {"nope": _map(_module(FgAbelianGroup.trivial()), y0, [[]])})
        with pytest.raises(ValidationError, match="unknown component"):
            alpha_map(_bundle(cfg, pi1), 2)


class TestRationalPointFlags:
    def test_default_degrees_always_pass(self):
        cfg = rulings_bundle().config
        flags = rational_point_flags(cfg, extension_complex(cfg, 1))
        assert set(flags) == {
            "L1 x O", "L1 x inf", "L2 x O", "L2 x inf",
            "M1 x O", "M1 x inf", "M2 x O", "M2 x inf",
            "P11 x P1", "P12 x P1", "P21 x P1", "P22 x P1",
        }
        assert all(flags.values())

    def test_degree_two_needs_even_extension(self):
        cfg = SncConfiguration(
            "quadratic",
            (Component("C1", (2,)), Component("C2")),
            (Stratum("P", ("C1", "C2"), point_degrees=(2,)),),
        )
        f1 = rational_point_flags(cfg, extension_complex(cfg, 1))
        assert f1["C1 x O"] is False and f1["C1 x inf"] is False
        assert f1["C2 x O"] is True
        assert f1["P x P1"] is False
        f2 = rational_point_flags(cfg, extension_complex(cfg, 2))
        assert all(f2.values())

    def test_orbit_pools_degrees(self):
        # the swap orbit {A1, A2} pools degrees {1, 3}; degree 1 saves it
        cfg = SncConfiguration(
            "swap",
            (Component("A1", (3,)), Component("A2", (1,)), Component("B")),
            (Stratum("s1", ("A1", "B")), Stratum("s2", ("A2", "B"))),
            FrobeniusAction(2, {"A1": "A2", "A2": "A1", "B": "B"},
                            {"s1": "s2", "s2": "s1"}),
        )
        flags = rational_point_flags(cfg, extension_complex(cfg, 1))
        assert flags["A1 x O"] is True
        assert flags["s1 x P1"] is True
        assert set(flags) == {"A1 x O", "A1 x inf", "B x O", "B x inf", "s1 x P1"}

    def test_deep_strata_carry_no_flag(self):
        cfg = triangle_config(with_face=True)
        flags = rational_point_flags(cfg, extension_complex(cfg, 1))
        assert "T x P1" not in flags
        assert "AB x P1" in flags


class TestPredictKernel:
    def test_rulings_trivial_and_exact(self):
        bundle = rulings_bundle()
        report = predict_kernel(bundle, [2, 3, 5])
        assert report.assumption_rational_points
        assert report.h1_quotient.group.iso_type().rank == 1
        for ell in (2, 3, 5):
            pr = report.primes[ell]
            assert pr.verdict == "exact"
            assert pr.predicted_kernel is not None
            assert pr.predicted_kernel.is_trivial()
            assert pr.kernel_bound.is_trivial()
            assert pr.warnings == ()

    def test_fermat_exact_cyclic(self):
        bundle = fermat_bundle(5)
        report = predict_kernel(bundle, [5, 2])
        pr = report.primes[5]
        assert pr.verdict == "exact"
        assert pr.predicted_kernel.iso_type() == FgAbelianGroup.cyclic(5).iso_type()
        assert pr.theta_torsion.invariant_factors == (5,)
        assert pr.frobenius_trivial_on_torsion
        assert report.primes[2].predicted_kernel.is_trivial()

    def test_missing_rational_point_downgrades(self):
        bundle = fermat_bundle(5)
        cfg = bundle.config
        quadratic = SncConfiguration(
            cfg.name,
            (Component("C1", (2,)),) + cfg.components[1:],
            cfg.strata,
        )
        r1 = predict_kernel(replace(bundle, config=quadratic), [5], f=1)
        assert not r1.assumption_rational_points
        assert r1.primes[5].verdict == "bound"
        assert r1.primes[5].predicted_kernel is None
        assert r1.primes[5].kernel_bound.invariant_factors == (5,)
        r2 = predict_kernel(replace(bundle, config=quadratic), [5], f=2)
        assert r2.primes[5].verdict == "exact"

    def test_frobenius_on_torsion_downgrades(self):
        bundle = _bundle(*swap_upgrade_fixture())
        r1 = predict_kernel(bundle, [3], f=1)
        assert r1.assumption_rational_points
        assert not r1.primes[3].frobenius_trivial_on_torsion
        assert r1.primes[3].verdict == "bound"
        assert r1.primes[3].kernel_bound.invariant_factors == (3,)
        r2 = predict_kernel(bundle, [3], f=2)
        assert r2.primes[3].verdict == "exact"
        assert r2.primes[3].predicted_kernel.is_trivial()


def _reflection_bundle():
    """4-cycle with the reflection action, y0 = Z/4 negated by
    Frobenius, labels concentrated on the fixed pair of edges."""
    cfg = cycle_config(4, frobenius=reflection_action(4))
    y0 = GaloisModule(FgAbelianGroup.cyclic(4), IntMatrix.from_rows([[-1]]), 2)
    labels = {"e0": (1,), "e3": (3,)}
    return cfg, Pi1Input(y0), labels


class TestSweep:
    def test_fermat_stable(self):
        bundle = fermat_bundle(5)
        sweep = sweep_extensions(bundle, [5], 4)
        assert len(sweep.reports) == 4
        assert sweep.trends[5] == "stable"
        for rep in sweep.reports:
            assert rep.primes[5].verdict == "exact"
            kernel = rep.primes[5].predicted_kernel
            assert kernel.iso_type() == FgAbelianGroup.cyclic(5).iso_type()
            assert rep.primes[5].warnings == ()

    def test_rulings_stable_trivial(self):
        bundle = rulings_bundle()
        sweep = sweep_extensions(bundle, [2, 3, 5], 3)
        assert sweep.trends == {2: "stable", 3: "stable", 5: "stable"}

    def test_swap_is_periodic(self):
        """swap has P = 2: odd f bounds the kernel by Z/3 and even f
        gives 0, so no window is "eventually trivial"; the trend names
        the period, and a window shorter than it claims nothing."""
        bundle = _bundle(*swap_upgrade_fixture())
        sweep = sweep_extensions(bundle, [3], 2)
        assert sweep.trends[3] == "periodic with period 2"
        assert sweep_extensions(bundle, [3], 1).trends[3] == (
            "undetermined: the window 1..1 is shorter than the period 2")

    def test_reflection_is_periodic(self):
        """The reflection bundle's kernel is bounded at odd f and exactly
        Z/2 at even f: periodic with period 2 in every window past 1,
        never "shrinking"."""
        cfg, pi1, labels = _reflection_bundle()
        assert validate_labels(cfg, pi1, labels) == []
        two = sweep_extensions(_bundle(cfg, pi1, labels), [2], 2)
        assert [r.primes[2].verdict for r in two.reports] == ["bound", "exact"]
        kernel = two.reports[1].primes[2].predicted_kernel
        assert kernel.iso_type() == FgAbelianGroup.cyclic(2).iso_type()
        assert two.trends[2] == "periodic with period 2"
        three = sweep_extensions(_bundle(cfg, pi1, labels), [2], 3)
        assert three.trends[2] == "periodic with period 2"

    def test_bad_f_max(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_extensions(_bundle(*swap_upgrade_fixture()), [3], 0)

    def test_each_degree_class_is_evaluated_once(self, monkeypatch):
        cfg = random_admissible_config(random.Random(4), 4, "coned")
        # a degree-3 point makes P = lcm(4, 2, 3) = 12, and the classes
        # gcd(f, 12) are its 6 divisors, each first met at f = itself
        first = replace(cfg.components[0], point_degrees=(3,))
        cfg = replace(cfg, components=(first, *cfg.components[1:]))
        _, pi1, labels = swap_upgrade_fixture()
        calls = []
        original = reciprocity.extension_complex
        monkeypatch.setattr(reciprocity, "extension_complex",
                            lambda c, f: calls.append(f) or original(c, f))
        sweep = sweep_extensions(_bundle(cfg, pi1, labels), [3], 48)
        assert [rep.f for rep in sweep.reports] == list(range(1, 49))
        assert calls == [1, 2, 3, 4, 6, 12]


def _random_degrees(rng: random.Random, cfg: SncConfiguration) -> SncConfiguration:
    return replace(
        cfg,
        components=tuple(replace(c, point_degrees=(rng.randint(1, 3),))
                         for c in cfg.components),
        strata=tuple(replace(s, point_degrees=(rng.randint(1, 3),)) for s in cfg.strata),
    )


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
@example(seed=0, e=3, vary_degrees=False)  # block shape: P = lcm(3, 2)
@settings(max_examples=25, deadline=None)
def test_sweep_reports_match_direct_evaluation(seed, e, vary_degrees):
    """A sweep evaluates each class gcd(f, P) once; every report must
    still equal what its own f gives when evaluated directly."""
    rng = random.Random(seed)
    cfg = random_admissible_config(rng, e)
    if vary_degrees:
        cfg = _random_degrees(rng, cfg)
    _, pi1, labels = swap_upgrade_fixture()  # y0 = Z/3, Frobenius -1
    degrees = [d for x in (*cfg.components, *cfg.strata) for d in x.point_degrees]
    period = math.lcm(e, pi1.y0.order, *degrees)
    theta = compute_theta(pi1, 3)
    torsion, incl = theta.torsion_submodule()

    sweep = sweep_extensions(_bundle(cfg, pi1, labels), [3], 3 * period)
    assert [rep.f for rep in sweep.reports] == list(range(1, 3 * period + 1))
    for f, rep in enumerate(sweep.reports, start=1):
        ext = extension_complex(cfg, f)
        h1 = homology_group(ext.complex, 1)
        assert rep.h1_quotient.group.iso_type() == h1.group.iso_type()
        flags = rational_point_flags(cfg, ext)
        assert rep.rational_point_flags == flags
        exact = all(flags.values()) and torsion.power(f).acts_trivially()
        assert rep.primes[3].verdict == ("exact" if exact else "bound")
        _, proj = coinvariants(theta.power(f))
        named = [w for w in rep.primes[3].warnings if "coinvariants" in w]
        assert named == ([] if proj.compose(incl).is_injective() else [
            f"ell=3, f={f}: torsion of theta does not inject into the coinvariants "
            f"(expected only for non-geometric inputs)"])


@pytest.mark.parametrize("name", ["fermat5", "coned", "dense-10"])
def test_order_one_frobenius_tests_match_a_direct_computation(name):
    """An order-1 theta records both Frobenius tests as holding without
    making them; made here directly, at every prime and degree,
    Frobenius^f is trivial on the torsion of theta (a lattice test of
    Frobenius^f − 1) and that torsion injects into the coinvariants."""
    if name == "dense-10":
        text = json.dumps(dense_document(random.Random(1), 10, name))
    else:
        text = (Path(__file__).parent / "golden" / f"{name}.json").read_text()
    bundle = parse_config(text)
    assert bundle.pi1.y0.order == 1
    reports = reciprocity._kernel_reports(bundle, (2, 3, 5), (1, 2, 3, 6))
    for report in reports:
        for ell, pr in report.primes.items():
            theta = compute_theta(bundle.pi1, ell)
            torsion, incl = theta.torsion_submodule()
            t = torsion.group.generator_count
            delta = _power(torsion.frobenius, report.f) - IntMatrix.identity(t)
            trivial = all(torsion.group.in_relation_lattice(delta.col(j)) for j in range(t))
            _, proj = coinvariants(theta.power(report.f))
            injective = proj.compose(incl).is_injective()
            reported = not any("does not inject" in w for w in pr.warnings)
            assert (pr.frobenius_trivial_on_torsion, reported) == (trivial, injective)


@pytest.mark.parametrize("ell", [2, 5])
def test_trivial_torsion_frobenius_tests_match_a_direct_computation(ell):
    """swap's theta has order 2 but no torsion at ell = 2 or 5, so
    ``_frobenius_tests`` takes both tests as holding without making
    them; made here directly at every degree of two periods, they give
    the same pair."""
    bundle = parse_config((Path(__file__).parent / "golden" / "swap.json").read_text())
    theta = compute_theta(bundle.pi1, ell)
    torsion, incl = theta.torsion_submodule()
    assert theta.order == 2 and torsion.group.is_trivial()
    for f in range(1, 5):
        trivial = torsion.power(f).acts_trivially()
        _, proj = coinvariants(theta.power(f))
        injective = proj.compose(incl).is_injective()
        assert reciprocity._frobenius_tests(theta, torsion, incl, f) == (trivial, injective)


def _sweep_case(case):
    """A configuration, pi1 data, labels and primes: the swap or the
    reflection fixture, or a random admissible configuration (random
    point degrees when asked) with swap's y0 = Z/3, on which Frobenius
    acts by -1, so that the kernel at ell = 3 alternates with f."""
    if case == "swap":
        return (*swap_upgrade_fixture(), (3,))
    if case == "reflection":
        return (*_reflection_bundle(), (2,))
    seed, e, vary_degrees = case
    rng = random.Random(seed)
    cfg = random_admissible_config(rng, e)
    if vary_degrees:
        cfg = _random_degrees(rng, cfg)
    _, pi1, labels = swap_upgrade_fixture()
    return cfg, pi1, labels, (2, 3)


@given(st.sampled_from(["swap", "reflection"])
       | st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans()))
@example(case="swap")
@example(case="reflection")
@settings(max_examples=25, deadline=None)
def test_sweep_trend_is_read_off_the_period(case):
    """Every report depends on f only through gcd(f, P), so the trend
    of a sweep over 1..F is the same for every F from P on, and is
    "stable" exactly when the kernels of the degree classes g | P,
    evaluated at f = g, agree.  A window shorter than P never says
    "stable": it names the period when its own kernels differ and
    claims nothing otherwise."""
    cfg, pi1, labels, ells = _sweep_case(case)
    bundle = _bundle(cfg, pi1, labels)
    period = reciprocity._period(cfg, pi1)
    divisors = [g for g in range(1, period + 1) if period % g == 0]
    classes = reciprocity._kernel_reports(bundle, ells, divisors)

    def kernel(pr):
        return (pr.predicted_kernel or pr.kernel_bound).iso_type()

    expected = {}
    for ell in ells:
        kernels = {kernel(rep.primes[ell]) for rep in classes}
        expected[ell] = "stable" if len(kernels) == 1 else f"periodic with period {period}"
    for f_max in range(period, period + 4):
        assert sweep_extensions(bundle, ells, f_max).trends == expected
    for f_max in range(1, period):
        sweep = sweep_extensions(bundle, ells, f_max)
        for ell, trend in sweep.trends.items():
            window = {kernel(rep.primes[ell]) for rep in sweep.reports}
            assert "stable" not in trend
            assert trend == (expected[ell] if len(window) > 1 else
                             f"undetermined: the window 1..{f_max} is shorter than "
                             f"the period {period}")
