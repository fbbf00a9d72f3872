"""Seeded input documents and job lists for the benchmark workloads.

A workload is a list of jobs.  A job is one ``snckit`` CLI call on one
generated document, plus the facts the independent checker in
``check.py`` needs to judge the answer.  A *unit* is one copy of the
workload's job list as the benchmark README describes it; a run executes
as many units as fit its time budget, and the seed decides every
document and the order in which the jobs run.

Nothing here imports the test suite: the admissible-shape builder is a
port of the one the tests use, extended with seeded edge labels and
point degrees.  Fermat documents come from the public ``example``
command.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd

ELLS = (2, 3, 5)
ELL_ARGS = tuple(a for ell in ELLS for a in ("--ell", str(ell)))

COVER_SIZES = (25, 50, 100)
COVER_MODULUS = 6
# Z/6 homology of the 100-cover takes 6 s, a third of a 20-second run on
# its own, which would leave too few jobs for a steady median and tail.
COVER_ZN_SIZES = (25, 50)
# Larger g is left out: the two jobs on one seeded matrix cost 0.30-0.65 s
# at g = 18, 0.40-1.93 s at g = 20 and 0.57-6.8 s at g = 24, so a
# 20-second run could not hold its tail across seeds.
DENSE_SIZES = (12, 14, 16)
DENSE_ENTRY = 9
SWEEP_SHAPES = ("copies", "block", "coned")
SWEEP_ORDERS = (3, 4, 6)
SWEEP_CYCLE = 2
FERMAT_SWEEP = ((5, 12), (7, 12))
Y0_MODULUS = 9
SUSPENSION_CYCLE = 6
SUSPENSION_DEPTHS = (2, 3, 4)
# Z/6 homology of the 4-fold suspension takes 3.5 s, nearly all of it in
# SNF, which would hide the construction cost this workload is for.
SUSPENSION_ZN_DEPTHS = (2, 3)

# About the seconds one unit of each workload takes at the commit that
# defined the benchmark (Python 3.11, 2 shared cores).  The number of units a run
# executes is derived from --seconds with these, so the amount of work,
# and with it the sample count behind every percentile, is fixed by the
# arguments alone and never by how fast the code under test happens to be.
UNIT_SECONDS = {
    "cover-homology": 3.0,
    "dense-kernel": 0.55,
    "extension-sweep": 1.4,
    "suspension-tower": 4.0,
}


@dataclass(frozen=True)
class Job:
    doc: str
    command: str
    options: tuple[str, ...]
    expect: dict

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.options, "--json"]


@dataclass
class Workload:
    docs: dict[str, dict]
    jobs: list[Job]


def example_document(*args: str) -> dict:
    """A bundled example, taken from the public ``example`` command."""
    from snckit.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["example", *args])
    if status != 0:
        raise RuntimeError(f"snckit example {' '.join(args)} exited {status}")
    return json.loads(out.getvalue())


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / UNIT_SECONDS[workload]))


# -- cover-homology -----------------------------------------------------


def cover_unit(rng: random.Random, unit: int, docs: dict) -> list[Job]:
    jobs = []
    for n in COVER_SIZES:
        name = f"cover-{n}"
        if name not in docs:
            docs[name] = example_document("fermat", "--n", str(n), "--cover")
        base = {"kind": "cover", "n": n}
        jobs += [
            Job(name, "homology", (), {**base, "modulus": None}),
            Job(name, "norm", ("--f", str(n)), {**base, "f": n}),
            Job(name, "extend", ("--f", str(n)), {**base, "f": n}),
        ]
        if n in COVER_ZN_SIZES:
            jobs.append(Job(name, "homology", ("--coeff", f"z/{COVER_MODULUS}"),
                            {**base, "modulus": COVER_MODULUS}))
    return jobs


# -- dense-kernel -------------------------------------------------------


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by row reduction."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            c = rows[i][col]
            if i != rank and c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def dense_document(rng: random.Random, g: int, name: str) -> dict:
    """Two components crossing twice; y0 is Z^g modulo a dense nonsingular
    g x g relation matrix, Frobenius is the identity, and edge P1 carries a
    seeded label."""
    while True:
        rel = [[rng.randint(-DENSE_ENTRY, DENSE_ENTRY) for _ in range(g)] for _ in range(g)]
        # full rank modulo a prime certifies a nonzero determinant
        if rank_mod(rel, 2_147_483_647) == g:
            break
    label = [rng.randint(-DENSE_ENTRY, DENSE_ENTRY) for _ in range(g)]
    return {
        "name": name,
        "components": [{"id": "C1"}, {"id": "C2"}],
        "strata": {"2": [{"id": "P1", "on": ["C1", "C2"]},
                         {"id": "P2", "on": ["C1", "C2"]}]},
        # relation vectors are the columns of the g x g matrix
        "pi1_y0": {"generators": g, "relations": rel},
        "edge_labels": {"P1": label},
    }


def dense_unit(rng: random.Random, unit: int, docs: dict) -> list[Job]:
    jobs = []
    for g in DENSE_SIZES:
        name = f"dense-{g}-u{unit}"
        docs[name] = dense_document(rng, g, name)
        for command in ("theta", "kernel"):
            jobs.append(Job(name, command, ELL_ARGS, {"kind": "dense"}))
    return jobs


# -- extension-sweep ----------------------------------------------------


def _orbit_labels(edges, step, sign, seed_value) -> dict[str, int]:
    """Frobenius-equivariant labels in Z/9 with Frobenius -1: walk each
    edge orbit from a seeded value, so that sign * L(step(e)) = -L(e).
    An orbit that does not close up consistently gets label 0."""
    labels: dict[str, int] = {}
    for e in edges:
        if e in labels:
            continue
        orbit = [(e, seed_value())]
        while True:
            cur, val = orbit[-1]
            nxt = step(cur)
            nval = (-sign(cur) * val) % Y0_MODULUS
            if nxt == e:
                consistent = nval == orbit[0][1]
                break
            orbit.append((nxt, nval))
        for eid, val in orbit:
            labels[eid] = val if consistent else 0
    return labels


def admissible_document(rng: random.Random, shape: str, e: int, m: int, name: str) -> dict:
    """A configuration with an order-e Frobenius whose quotients stay simple
    normal crossing at every extension degree (ported from the test
    builders): e rotated disjoint m-cycles ("copies"), one (m*e)-cycle
    rotated a full block ("block"), or that block cycle coned off at two
    fixed components ("coned", depth-3 strata).  y0 is Z/9 with Frobenius
    -1, components get seeded point degrees, and the edge labels are
    seeded and equivariant."""
    comps: list[str] = []
    strata: dict[str, tuple[str, ...]] = {}
    facets: dict[str, tuple[str, ...]] = {}
    cp: dict[str, str] = {}
    sp: dict[str, str] = {}
    if shape == "copies":
        for k in range(e):
            for i in range(m):
                comps.append(f"c{k}_{i}")
                cp[f"c{k}_{i}"] = f"c{(k + 1) % e}_{i}"
            for i in range(m):
                strata[f"d{k}_{i}"] = (f"c{k}_{i}", f"c{k}_{(i + 1) % m}")
                sp[f"d{k}_{i}"] = f"d{(k + 1) % e}_{i}"
    else:
        n = m * e
        for i in range(n):
            comps.append(f"v{i}")
            cp[f"v{i}"] = f"v{(i + m) % n}"
        for i in range(n):
            strata[f"e{i}"] = (f"v{i}", f"v{(i + 1) % n}")
            sp[f"e{i}"] = f"e{(i + m) % n}"
        if shape == "coned":
            comps += ["O", "inf"]
            for apex in ("O", "inf"):
                for i in range(n):
                    strata[f"v{i}x{apex}"] = (f"v{i}", apex)
                    sp[f"v{i}x{apex}"] = f"v{(i + m) % n}x{apex}"
            for apex in ("O", "inf"):
                for i in range(n):
                    j = (i + 1) % n
                    sid = f"e{i}x{apex}"
                    strata[sid] = (f"v{i}", f"v{j}", apex)
                    facets[sid] = (f"e{i}", f"v{i}x{apex}", f"v{j}x{apex}")
                    sp[sid] = f"e{(i + m) % n}x{apex}"
    pos = {c: i for i, c in enumerate(comps)}

    def sorted_on(sid):
        return sorted(strata[sid], key=pos.__getitem__)

    def sign(eid):
        a, b = sorted_on(eid)
        return 1 if pos[cp.get(a, a)] < pos[cp.get(b, b)] else -1

    edges = [s for s in strata if len(strata[s]) == 2]
    if shape == "coned":
        # a coboundary of an equivariant vertex cochain descends through
        # every triangle; the apexes are fixed, so their value is 0
        vertex_values = _orbit_labels(
            [c for c in comps if c in cp],
            cp.__getitem__, lambda c: 1, lambda: rng.randrange(Y0_MODULUS))
        labels = {}
        for eid in edges:
            a, b = sorted_on(eid)
            labels[eid] = (vertex_values.get(b, 0) - vertex_values.get(a, 0)) % Y0_MODULUS
    else:
        labels = _orbit_labels(edges, sp.__getitem__, sign,
                               lambda: rng.randrange(Y0_MODULUS))

    doc_strata: dict[str, list] = {}
    for sid, on in strata.items():
        item: dict = {"id": sid, "on": list(on)}
        if sid in facets:
            item["facets"] = list(facets[sid])
        doc_strata.setdefault(str(len(on)), []).append(item)
    return {
        "name": name,
        "components": [{"id": c, "point_degrees": [rng.choice((1, 1, 2, 3))]} for c in comps],
        "strata": doc_strata,
        "frobenius": {"order": e, "components": cp, "strata": sp},
        "pi1_y0": {"generators": 1, "relations": [[Y0_MODULUS]],
                   "frobenius": [[-1]], "order": 2},
        "edge_labels": {eid: [v] for eid, v in sorted(labels.items()) if v},
    }


def sweep_unit(rng: random.Random, unit: int, docs: dict) -> list[Job]:
    jobs = []
    for n, f_max in FERMAT_SWEEP:
        name = f"fermat-{n}"
        if name not in docs:
            docs[name] = example_document("fermat", "--n", str(n))
        jobs.append(Job(name, "kernel", (*ELL_ARGS, "--sweep", str(f_max)),
                        {"kind": "sweep", "shape": "fermat", "e": 1}))
    for shape in SWEEP_SHAPES:
        for e in SWEEP_ORDERS:
            name = f"{shape}-e{e}-u{unit}"
            docs[name] = admissible_document(rng, shape, e, SWEEP_CYCLE, name)
            # one Frobenius period, f = 1..e
            jobs.append(Job(name, "kernel", (*ELL_ARGS, "--sweep", str(e)),
                            {"kind": "sweep", "shape": shape, "e": e}))
    return jobs


# -- suspension-tower ---------------------------------------------------


def suspension_document(k: int) -> dict:
    """The 6-cycle suspended k times, as a configuration: apex components
    O1, I1, O2, I2, ... follow the cycle in the component order, and every
    simplex of dimension a >= 1 is a depth-(a+1) stratum whose facets are
    inferred from its components."""
    comps = [f"v{i}" for i in range(SUSPENSION_CYCLE)]
    simplices: dict[str, tuple[str, ...]] = {c: (c,) for c in comps}
    for i in range(SUSPENSION_CYCLE):
        simplices[f"e{i}"] = (f"v{i}", f"v{(i + 1) % SUSPENSION_CYCLE}")
    for level in range(1, k + 1):
        apexes = (f"O{level}", f"I{level}")
        joined = {}
        for apex in apexes:
            for sid, verts in simplices.items():
                joined[f"{sid}*{apex}"] = verts + (apex,)
        comps += apexes
        simplices.update({apex: (apex,) for apex in apexes})
        simplices.update(joined)
    strata: dict[str, list] = {}
    for sid, verts in simplices.items():
        if len(verts) >= 2:
            strata.setdefault(str(len(verts)), []).append({"id": sid, "on": list(verts)})
    return {
        "name": f"suspension-{k}",
        "components": [{"id": c} for c in comps],
        "strata": strata,
    }


def suspension_unit(rng: random.Random, unit: int, docs: dict) -> list[Job]:
    jobs = []
    for k in SUSPENSION_DEPTHS:
        name = f"suspension-{k}"
        if name not in docs:
            docs[name] = suspension_document(k)
        base = {"kind": "suspension", "k": k}
        jobs += [
            Job(name, "validate", (), base),
            Job(name, "dual-complex", (), base),
            Job(name, "homology", ("--degree", str(k + 1)), {**base, "modulus": None}),
        ]
        if k in SUSPENSION_ZN_DEPTHS:
            jobs.append(Job(name, "homology",
                            ("--degree", str(k + 1), "--coeff", f"z/{COVER_MODULUS}"),
                            {**base, "modulus": COVER_MODULUS}))
    return jobs


UNIT_BUILDERS = {
    "cover-homology": cover_unit,
    "dense-kernel": dense_unit,
    "extension-sweep": sweep_unit,
    "suspension-tower": suspension_unit,
}
WORKLOADS = tuple(UNIT_BUILDERS)


def build(workload: str, seed: int, units: int) -> Workload:
    """Documents and the shuffled job list of ``units`` units."""
    rng = random.Random(f"{workload}:{seed}")
    docs: dict[str, dict] = {}
    jobs: list[Job] = []
    for unit in range(units):
        jobs += UNIT_BUILDERS[workload](rng, unit, docs)
    rng.shuffle(jobs)
    return Workload(docs, jobs)
