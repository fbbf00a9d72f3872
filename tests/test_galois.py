"""Scalar extension quotients, collapse detection, tower functoriality,
the Frobenius action on homology, and norm maps."""

import contextlib
import io
import itertools
import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from snckit import galois
from snckit.cli import main
from snckit.complexes import ChainMap, DeltaComplex, sort_parity
from snckit.config_io import ConfigBundle, serialize_bundle
from snckit.errors import ExtensionError
from snckit.fixtures import fermat_cover_config, rulings_bundle, trivial_pi1
from snckit.galois import (
    check_admissible,
    connecting_map,
    extension_complex,
    frobenius_chain_map,
    frobenius_on_homology,
    norm_map,
)
from snckit.groups import coinvariants, cokernel
from snckit.homology import homology_group, induced_map
from snckit.matrices import _power
from snckit.snc import FrobeniusAction, _orbits, build_dual_complex

from conftest import (
    agree_mod_relations,
    cycle_config,
    random_admissible_config,
    reflection_action,
    rotation_action,
)


def test_sort_parity():
    assert sort_parity([0, 1, 2]) == 1
    assert sort_parity([1, 0]) == -1
    assert sort_parity([2, 0, 1]) == 1
    assert sort_parity([]) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-20, 20), max_size=6, unique=True))
def test_sort_parity_is_the_parity_of_the_inversion_count(seq):
    inversions = sum(1 for x, y in itertools.combinations(seq, 2) if x > y)
    assert sort_parity(seq) == (-1) ** inversions


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.sampled_from([2, 3, 4, 6]))
def test_orbits_are_those_of_the_iterated_frobenius(seed, e):
    """For f in 1..2e, the orbits read off the Frobenius cycles are
    those found by applying Frobenius f times until the walk closes,
    each starting at its earliest member and listed by it."""
    cfg = random_admissible_config(random.Random(seed), e)
    action = cfg.frobenius
    for ids, perm in ((cfg.component_ids(), action.component_perm),
                      ([s.id for s in cfg.strata], action.stratum_perm)):
        for f in range(1, 2 * e + 1):
            def step(x):
                for _ in range(f):
                    x = perm.get(x, x)
                return x

            expected, seen = [], set()
            for x in ids:
                if x not in seen:
                    orbit, y = [x], step(x)
                    while y != x:
                        orbit.append(y)
                        y = step(y)
                    seen.update(orbit)
                    expected.append(tuple(orbit))
            assert _orbits(cfg, ids, f) == expected


class _CountingPerm(dict):
    """A permutation that counts its lookups and fails past ``limit``."""

    def __init__(self, items, limit: int):
        super().__init__(items)
        self.calls = 0
        self.limit = limit

    def get(self, key, default=None):
        self.calls += 1
        assert self.calls <= self.limit, f"more than {self.limit} permutation lookups"
        return super().get(key, default)


class TestExtension:
    def test_trivial_action_any_degree(self):
        cfg = cycle_config(5)
        for f in (1, 2, 7):
            ext = extension_complex(cfg, f)
            assert ext.complex.counts() == (5, 5)
            assert all(sign == 1 for _, sign in ext.sigma.assignment.values())
            assert all(ext.sigma.assignment[s] == (s, 1)
                       for s in ext.sigma.assignment)

    def test_rotation_by_two_collapses_to_multigraph(self):
        cfg = cycle_config(4, frobenius=rotation_action(4, 2, 2))
        ext = extension_complex(cfg, 1)
        assert ext.component_orbits == (("v0", "v2"), ("v1", "v3"))
        assert ext.stratum_orbits == (("e0", "e2"), ("e1", "e3"))
        assert ext.complex.counts() == (2, 2)
        # both quotient edges run between the two vertex orbits
        assert {e.id: e.vertices for e in ext.complex.simplices(1)} == {
            "e0": ("v0", "v1"), "e1": ("v0", "v1")}
        # e1 goes v1 -> v2, whose image v1 -> v0 reverses orientation;
        # e3 = (v0, v3) maps to (v0, v1), orientation kept
        assert ext.sigma.assignment["e0"] == ("e0", 1)
        assert ext.sigma.assignment["e2"] == ("e0", 1)
        assert ext.sigma.assignment["e1"] == ("e1", -1)
        assert ext.sigma.assignment["e3"] == ("e1", 1)
        assert next(o[0] for o in ext.component_orbits if "v3" in o) == "v1"

    def test_full_degree_recovers_geometric_complex(self):
        cfg = cycle_config(4, frobenius=rotation_action(4, 2, 2))
        ext = extension_complex(cfg, 2)
        base = extension_complex(cycle_config(4), 1).complex
        assert ext.complex.structure_signature() == base.structure_signature()
        assert all(ext.sigma.assignment[s] == (s, 1)
                   for s in ext.sigma.assignment)

    def test_reflection_quotient_is_path(self):
        cfg = cycle_config(4, frobenius=reflection_action(4))
        ext = extension_complex(cfg, 1)
        assert ext.complex.counts() == (3, 2)
        h1 = homology_group(ext.complex, 1)
        assert h1.group.is_trivial()

    def test_cover_orbit_counts(self):
        cfg = fermat_cover_config(6)
        for f in range(1, 7):
            g = math.gcd(6, f)
            ext = extension_complex(cfg, f)
            assert ext.complex.counts() == (2 * g, 2 * g)
            assert len(ext.component_orbits) == 2 * g
            h1 = homology_group(ext.complex, 1)
            assert h1.group.iso_type().rank == 1

    def test_huge_degree_walks_each_cycle_once(self):
        # with order 10**18, walking f % order steps per id would not
        # finish, so lookups are counted and capped
        small = random_admissible_config(random.Random(6), 4, "copies")
        ids = len(small.components) + len(small.strata)
        component_perm = _CountingPerm(small.frobenius.component_perm, 10 * ids)
        stratum_perm = _CountingPerm(small.frobenius.stratum_perm, 10 * ids)
        huge = replace(small, frobenius=FrobeniusAction(10**18, component_perm, stratum_perm))
        ext = extension_complex(huge, 10**18 - 1)
        # 10**18 - 1 is 3 mod 4, so the orbits, member order included,
        # are those of the cube of the order-4 action
        expected = extension_complex(small, 3)
        assert ext.component_orbits == expected.component_orbits
        assert ext.stratum_orbits == expected.stratum_orbits
        assert ext.component_orbits[0] == ("c0_0", "c3_0", "c2_0", "c1_0")
        # validation and the extension each look up every id, or every
        # component of every stratum, a bounded number of times
        assert component_perm.calls + stratum_perm.calls <= 5 * ids

    def test_cycles_are_walked_once_per_configuration(self):
        # validation reads each permutation once for the bijection check
        # and once for the image dict, and the cycle map once; every
        # extension then reads its orbits off the cycle map
        small = random_admissible_config(random.Random(6), 4, "copies")
        ids = len(small.components) + len(small.strata)
        component_perm = _CountingPerm(small.frobenius.component_perm, 3 * ids)
        stratum_perm = _CountingPerm(small.frobenius.stratum_perm, 3 * ids)
        cfg = replace(small, frobenius=replace(small.frobenius, component_perm=component_perm,
                                               stratum_perm=stratum_perm))
        for f in (1, 2, 3, 5, 7, 10**18 - 1):
            ext, expected = extension_complex(cfg, f), extension_complex(small, f)
            assert (ext.component_orbits, ext.stratum_orbits) \
                == (expected.component_orbits, expected.stratum_orbits)
        assert component_perm.calls + stratum_perm.calls <= 3 * ids

    def test_collapse_detected(self):
        cfg = cycle_config(4, frobenius=rotation_action(4, 1, 4))
        with pytest.raises(ExtensionError, match="not SNC after extension"):
            extension_complex(cfg, 1)
        with pytest.raises(ExtensionError, match="stratum 'e0' keeps components 'v0' and 'v1'"):
            check_admissible(cfg, 1)
        # squaring the rotation separates the orbits again
        assert extension_complex(cfg, 2).complex.counts() == (2, 2)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            check_admissible(cycle_config(3), 0)

    def test_coned_quotient_is_sphere(self):
        rng = random.Random(11)
        cfg = random_admissible_config(rng, 3, shape="coned")
        for f in (1, 3):
            ext = extension_complex(cfg, f)
            assert ext.complex.dimension == 2
            assert homology_group(ext.complex, 2).group.iso_type().rank == 1
            assert homology_group(ext.complex, 1).group.is_trivial()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.sampled_from([2, 3, 4, 6]), f=st.integers(1, 12))
def test_sigma_builds_whenever_the_extension_does(seed, e, f):
    """The collapse map is built on first read, so its checks run
    there; on admissible configurations it always builds, from the
    geometric complex onto the quotient, once per extension."""
    cfg = random_admissible_config(random.Random(seed), e)
    ext = extension_complex(cfg, f)
    sigma = ext.sigma
    assert sigma is ext.sigma
    assert sigma.source is ext.base is build_dual_complex(cfg)
    assert sigma.target is ext.complex
    reps = {member: orbit[0] for orbit in ext.component_orbits + ext.stratum_orbits
            for member in orbit}
    assert {sid: tid for sid, (tid, _) in sigma.assignment.items()} == reps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.sampled_from([1, 2, 3, 4, 6]),
       f=st.integers(1, 12))
def test_a_split_degree_is_the_geometric_level(seed, e, f):
    """Every Frobenius cycle of an order-e configuration has length
    dividing e, and some component cycle has length e, so Frobenius^f
    fixes every id exactly when e | f (at every f when e = 1).  There
    the degree-f level is the geometric complex itself: no
    ``DeltaComplex.__init__`` runs, and the collapse map sends every id
    to itself with sign +1.  At any other f the quotient is a new
    complex, built by the checking constructor."""
    cfg = random_admissible_config(random.Random(seed), e)
    base = build_dual_complex(cfg)
    built = []
    init = DeltaComplex.__init__

    def building(self, simplices):
        built.append(self)
        init(self, simplices)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DeltaComplex, "__init__", building)
        ext = extension_complex(cfg, f)
        sigma = ext.sigma
    if f % e:
        assert built == [ext.complex] and ext.complex is not base
    else:
        assert built == [] and ext.complex is base
        assert sigma.assignment == {s.id: (s.id, 1) for s in base.all_simplices()}
    assert sigma.source is base and sigma.target is ext.complex


def _maps_onto_quotients(argv: list[str]) -> tuple[int, int]:
    """Run ``argv`` and count the chain maps it builds onto an extension
    quotient, and among them the collapse maps from the geometric
    complex."""
    from test_cli import _rebind

    extensions, built = [], []
    original = galois.extension_complex

    def recording(*args, **kwargs):
        ext = original(*args, **kwargs)
        extensions.append(ext)
        return ext

    init = ChainMap.__init__

    def building(self, source, target, assignment):
        built.append((source, target))
        init(self, source, target, assignment)

    with pytest.MonkeyPatch.context() as mp:
        _rebind(mp, original, recording)
        mp.setattr(ChainMap, "__init__", building)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--json"]) == 0
    onto = [(s, t) for s, t in built if any(t is x.complex for x in extensions)]
    collapse = [(s, t) for s, t in onto if any(s is x.base for x in extensions)]
    return len(onto), len(collapse)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.sampled_from([2, 3, 4, 6]), f=st.integers(1, 6))
def test_only_extend_builds_the_collapse_map(seed, e, f):
    """``norm`` builds one chain map onto a quotient, the connecting map
    between levels, and ``kernel --sweep`` none; ``extend`` builds
    exactly one, the collapse map from the geometric complex.  At a
    split degree (e | f) the degree-f level is the geometric complex, so
    ``norm``'s connecting map starts there too."""
    cfg = random_admissible_config(random.Random(seed), e)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(serialize_bundle(ConfigBundle(cfg.name, cfg, trivial_pi1(), {})))
        path = str(path)
        split = f % e == 0
        assert _maps_onto_quotients(["norm", path, "--f", str(f)]) == (1, int(split))
        assert _maps_onto_quotients(["kernel", path, "--ell", "2", "--sweep", str(f)]) == (0, 0)
        assert _maps_onto_quotients(["extend", path, "--f", str(f)]) == (1, 1)


class TestConnectingMap:
    def test_requires_divisibility(self):
        cfg = cycle_config(4, frobenius=rotation_action(4, 2, 2))
        with pytest.raises(ValueError, match="does not divide"):
            connecting_map(cfg, 3, 2)

    @pytest.mark.parametrize("f_coarse", [0, -2])
    def test_rejects_a_coarse_degree_below_one(self, f_coarse):
        with pytest.raises(ValueError, match="extension degree must be positive"):
            connecting_map(fermat_cover_config(4), 4, f_coarse)

    def test_top_level_is_sigma(self):
        cfg = fermat_cover_config(4)
        chain = connecting_map(cfg, 4, 1)
        ext = extension_complex(cfg, 1)
        assert chain.assignment == ext.sigma.assignment

    @pytest.mark.parametrize("seed", range(8))
    def test_tower_functoriality(self, seed):
        rng = random.Random(seed)
        e = rng.choice([2, 3, 4, 6])
        cfg = random_admissible_config(rng, e)
        f_fine, f_mid, f_coarse = rng.choice([(4, 2, 1), (6, 3, 1), (6, 2, 1)])

        fine = extension_complex(cfg, f_fine)
        mid = extension_complex(cfg, f_mid)
        coarse = extension_complex(cfg, f_coarse)
        direct = connecting_map(cfg, f_fine, f_coarse, fine=fine, coarse=coarse)
        upper = connecting_map(cfg, f_fine, f_mid, fine=fine, coarse=mid)
        lower = connecting_map(cfg, f_mid, f_coarse, fine=mid, coarse=coarse)
        assert lower.compose(upper).assignment == direct.assignment

        for modulus in (None, 4):
            for a in range(fine.complex.dimension + 1):
                h_fine = homology_group(fine.complex, a, modulus)
                h_mid = homology_group(mid.complex, a, modulus)
                h_coarse = homology_group(coarse.complex, a, modulus)
                m_direct = induced_map(direct, a, modulus,
                                       source=h_fine, target=h_coarse)
                m_up = induced_map(upper, a, modulus,
                                   source=h_fine, target=h_mid)
                m_down = induced_map(lower, a, modulus,
                                     source=h_mid, target=h_coarse)
                assert agree_mod_relations(m_down.compose(m_up), m_direct)


class TestFrobeniusOnHomology:
    def test_rotation_acts_trivially_on_h1(self):
        cfg = cycle_config(6, frobenius=rotation_action(6, 1, 6))
        gm = frobenius_on_homology(cfg, 1)
        assert gm.group.iso_type().rank == 1
        assert gm.frobenius.is_identity()
        assert gm.acts_trivially()

    def test_reflection_negates_h1(self):
        cfg = cycle_config(4, frobenius=reflection_action(4))
        gm = frobenius_on_homology(cfg, 1)
        assert gm.frobenius.to_rows() == [[-1]]
        assert not gm.acts_trivially()
        group, _ = coinvariants(gm)
        assert group.invariant_factors == (2,)
        assert group.free_rank == 0
        # but trivially on H0
        assert frobenius_on_homology(cfg, 0).acts_trivially()

    def test_chain_level_order(self):
        cfg = fermat_cover_config(5)
        chain = frobenius_chain_map(cfg)
        for a in (0, 1):
            assert _power(chain.matrix(a), 5).is_identity()
            assert not chain.matrix(a).is_identity()

    def test_mod_n_action(self):
        cfg = cycle_config(4, frobenius=reflection_action(4))
        gm = frobenius_on_homology(cfg, 1, modulus=2)
        # -1 is 1 mod 2
        assert gm.acts_trivially()


class TestNormMap:
    def test_trivial_action_norm_is_identity(self):
        cfg = cycle_config(5)
        for f in (1, 4):
            res = norm_map(cfg, f, 1)
            assert res.map.matrix.is_identity()
            assert res.map.is_surjective()
            assert res.image_group.iso_type() == res.target_homology.group.iso_type()

    def test_double_cover_norm_has_index_two(self):
        cfg = cycle_config(4, frobenius=rotation_action(4, 2, 2))
        res = norm_map(cfg, 2, 1)
        assert res.source_homology.group.iso_type().rank == 1
        assert res.target_homology.group.iso_type().rank == 1
        assert abs(res.map.matrix[0, 0]) == 2
        assert res.image_group.iso_type().rank == 1
        assert not res.map.is_surjective()
        # the cokernel of the inclusion measures the index
        _, proj = cokernel(res.map)
        assert proj.target.order() == 2

    def test_double_cover_norm_mod_two_vanishes(self):
        cfg = cycle_config(4, frobenius=rotation_action(4, 2, 2))
        res = norm_map(cfg, 2, 1, modulus=2)
        assert res.source_homology.group.order() == 2
        assert res.target_homology.group.order() == 2
        assert res.image_group.is_trivial()

    def test_norm_on_h0_connected(self):
        cfg = fermat_cover_config(3)
        for f in (1, 2, 3):
            res = norm_map(cfg, f, 0)
            assert res.map.is_surjective()
            assert res.target_homology.group.iso_type().rank == 1

    def test_cover_norm_index_is_covering_degree(self):
        # the level-f quotient is a 2*gcd(6,f)-cycle wrapping the base
        # 2-cycle gcd(6,f) times, so the norm image has that index
        cfg = fermat_cover_config(6)
        for f in (1, 2, 3, 6):
            res = norm_map(cfg, f, 1)
            _, proj = cokernel(res.map)
            assert proj.target.order() == math.gcd(6, f)

    def test_rulings_norms_trivial_h1(self):
        cfg = rulings_bundle().config
        res = norm_map(cfg, 2, 1)
        assert res.map.matrix.is_identity()
