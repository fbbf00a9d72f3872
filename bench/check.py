"""Independent answer checks for benchmark jobs.

A ``Checker`` returns the list of problems with one job's parsed JSON
report; an empty list means the answer is right.  Nothing
here calls ``snckit``: covers, suspensions and fermat examples are judged
against closed forms, dense relation matrices with exact fractions and
elimination over F_ell, and edge-label images with spanning-tree cycles.

Only isomorphism types are compared, and every reported homology
representative must be a cycle for its coefficients.  Generator counts
and whole report bytes are never compared, so a smaller but equivalent
presentation is not a failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from gen import ELLS, SUSPENSION_CYCLE, rank_mod


def iso(payload: dict | None):
    if payload is None:
        return None
    return tuple(payload["invariant_factors"]), payload["free_rank"]


def cyclic(order: int):
    return ((order,) if order > 1 else ()), 0


FREE_CYCLIC = ((), 1)


def ell_part(n: int, ell: int) -> int:
    part = 1
    n = abs(n)
    while n and n % ell == 0:
        part *= ell
        n //= ell
    return part


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# -- chains ---------------------------------------------------------------


def _chain_boundary(doc: dict, chain: dict[str, int]) -> dict[frozenset, int]:
    """Boundary of a chain of strata, keyed by the vertex set of each face:
    facet i of a simplex omits vertex i (vertices in component order) and
    carries the sign (-1)^i."""
    pos = {c["id"]: i for i, c in enumerate(doc["components"])}
    on = {s["id"]: s["on"] for items in doc.get("strata", {}).values() for s in items}
    out: dict[frozenset, int] = {}
    for sid, coeff in chain.items():
        verts = sorted(on[sid], key=pos.__getitem__)
        for i in range(len(verts)):
            face = frozenset(verts[:i] + verts[i + 1:])
            out[face] = out.get(face, 0) + (-1) ** i * coeff
    return out


def _check_cycles(problems: list[str], doc: dict, reps: list[dict], modulus: int | None) -> None:
    for j, rep in enumerate(reps):
        boundary = _chain_boundary(doc, rep)
        bad = [c for c in boundary.values() if (c % modulus if modulus else c)]
        if bad:
            problems.append(f"representative {j} is not a cycle")


def _check_homology(problems, doc, report, modulus, want) -> None:
    _expect(problems, "coefficients", report["coefficients"],
            "Z" if modulus is None else f"Z/{modulus}")
    _expect(problems, "homology", iso(report["group"]), want)
    _check_cycles(problems, doc, report["representatives"], modulus)


# -- covers -------------------------------------------------------------


def cover_extension_counts(n: int, f: int) -> list[int]:
    """Counts of the degree-f quotient of the 2n-cycle cover: the deck
    rotation to the f-th power has gcd(n, f) orbits on each kind of line
    and each kind of crossing."""
    g = gcd(n, f)
    return [2 * g, 2 * g]


def check_cover(doc: dict, job, report: dict, _facts=None) -> list[str]:
    problems: list[str] = []
    n = job.expect["n"]
    if job.command == "homology":
        modulus = job.expect["modulus"]
        _check_homology(problems, doc, report, modulus,
                        FREE_CYCLIC if modulus is None else cyclic(modulus))
    elif job.command == "norm":
        _expect(problems, "norm matrix", report["matrix"] in ([[n]], [[-n]]), True)
        _expect(problems, "source", iso(report["source"]), FREE_CYCLIC)
        _expect(problems, "target", iso(report["target"]), FREE_CYCLIC)
        _expect(problems, "cokernel", iso(report["cokernel"]), cyclic(n))
    elif job.command == "extend":
        counts = cover_extension_counts(n, job.expect["f"])
        _expect(problems, "counts", report["complex"]["counts"], counts)
        _expect(problems, "euler characteristic", report["complex"]["euler_characteristic"], 0)
        _expect(problems, "component orbits", len(report["component_orbits"]), counts[0])
    return problems


# -- suspensions --------------------------------------------------------


def suspension_counts(k: int) -> list[int]:
    counts = [SUSPENSION_CYCLE, SUSPENSION_CYCLE]
    for _ in range(k):
        counts = [counts[0] + 2] + [
            (counts[a] if a < len(counts) else 0) + 2 * counts[a - 1]
            for a in range(1, len(counts) + 1)
        ]
    return counts


def check_suspension(doc: dict, job, report: dict, _facts=None) -> list[str]:
    problems: list[str] = []
    k = job.expect["k"]
    counts = suspension_counts(k)
    if job.command == "validate":
        _expect(problems, "valid", report["valid"], True)
        _expect(problems, "components", report["components"], counts[0])
        _expect(problems, "strata", report["strata"], sum(counts) - counts[0])
    elif job.command == "dual-complex":
        _expect(problems, "counts", report["counts"], counts)
        _expect(problems, "euler characteristic", report["euler_characteristic"],
                1 + (-1) ** (k + 1))
    elif job.command == "homology":
        modulus = job.expect["modulus"]
        _check_homology(problems, doc, report, modulus,
                        FREE_CYCLIC if modulus is None else cyclic(modulus))
    return problems


# -- dense relation matrices ---------------------------------------------


def _columns_to_rows(vectors: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in zip(*vectors)]


def det_fraction(rows: list[list[int]]) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            factor = a[i][c] / a[c][c]
            if factor:
                for j in range(c, n):
                    a[i][j] -= factor * a[c][j]
    return int(det)


def solve_fraction(rows: list[list[int]], b: list[int]) -> list[Fraction]:
    """The unique rational solution of a nonsingular square system."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(y)] for r, y in zip(rows, b)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def dense_facts(doc: dict) -> dict:
    """|det R|, the F_ell-ranks of R and the order of the label of P1 in
    Z^g / R Z^g."""
    rows = _columns_to_rows(doc["pi1_y0"]["relations"])
    label = doc["edge_labels"]["P1"]
    y = solve_fraction(rows, label)
    return {
        "g": len(rows),
        "det": abs(det_fraction(rows)),
        "ranks": {ell: rank_mod(rows, ell) for ell in ELLS},
        "label_order": lcm(*(v.denominator for v in y)),
    }


def _theta_iso_problems(problems, what, got, facts, ell) -> None:
    factors, free = got
    if free != 0:
        problems.append(f"{what}: free rank {free}, expected 0")
    order = 1
    for d in factors:
        order *= d
        if ell_part(d, ell) != d:
            problems.append(f"{what}: invariant factor {d} is not a power of {ell}")
    _expect(problems, f"{what} order", order, ell_part(facts["det"], ell))
    _expect(problems, f"{what} cyclic summands", len(factors), facts["g"] - facts["ranks"][ell])


def check_dense(doc: dict, job, report: dict, facts: dict) -> list[str]:
    problems: list[str] = []
    for ell in ELLS:
        pr = report["primes"][str(ell)]
        if job.command == "theta":
            _theta_iso_problems(problems, f"theta at {ell}", iso(pr["theta"]), facts, ell)
            _expect(problems, f"torsion at {ell}", iso(pr["torsion"]), iso(pr["theta"]))
            _expect(problems, f"frobenius at {ell}", pr["frobenius_trivial"], True)
            continue
        _theta_iso_problems(problems, f"theta at {ell}", iso(pr["theta"]), facts, ell)
        image = cyclic(ell_part(facts["label_order"], ell))
        _expect(problems, f"torsion at {ell}", iso(pr["theta_torsion"]), iso(pr["theta"]))
        _expect(problems, f"verdict at {ell}", pr["verdict"], "exact")
        _expect(problems, f"alpha image at {ell}", iso(pr["alpha_image"]), image)
        _expect(problems, f"kernel at {ell}", iso(pr["predicted_kernel"]), image)
        _expect(problems, f"bound at {ell}", iso(pr["kernel_bound"]), iso(pr["theta"]))
    if job.command == "kernel":
        _expect(problems, "rational points", report["assumption_rational_points"], True)
        _expect(problems, "h1 over the extension", iso(report["h1_quotient"]), FREE_CYCLIC)
    return problems


# -- extension sweeps ---------------------------------------------------


def _power(perm: dict[str, str], x: str, f: int) -> str:
    for _ in range(f):
        x = perm.get(x, x)
    return x


def _orbits_pool_points(degrees, perm, f) -> bool:
    """Whether every orbit of perm^f on the ids of ``degrees`` has a point
    of degree dividing f."""
    seen: set[str] = set()
    for x in degrees:
        if x in seen:
            continue
        orbit = [x]
        y = _power(perm, x, f)
        while y != x:
            orbit.append(y)
            y = _power(perm, y, f)
        seen.update(orbit)
        if not any(f % d == 0 for member in orbit for d in degrees[member]):
            return False
    return True


def label_image_order(doc: dict, modulus: int) -> int:
    """Order of the subgroup of Z/modulus that the edge labels take on
    integral 1-cycles, from the fundamental cycles of a spanning forest."""
    pos = {c["id"]: i for i, c in enumerate(doc["components"])}
    labels = {eid: vec[0] for eid, vec in doc.get("edge_labels", {}).items()}
    edges = [(sorted(s["on"], key=pos.__getitem__), labels.get(s["id"], 0))
             for s in doc["strata"].get("2", [])]
    adjacent: dict[str, list[tuple[str, int]]] = {c: [] for c in pos}
    for (a, b), value in edges:
        adjacent[a].append((b, value))
        adjacent[b].append((a, -value))
    potential: dict[str, int] = {}
    for root in pos:
        if root in potential:
            continue
        potential[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, value in adjacent[x]:
                if y not in potential:
                    potential[y] = potential[x] + value
                    stack.append(y)
    g = modulus
    for (a, b), value in edges:
        g = gcd(g, potential[a] + value - potential[b])
    return modulus // g


def sweep_facts(doc: dict) -> dict:
    y0 = doc["pi1_y0"]
    modulus = y0["relations"][0][0]
    return {
        "modulus": modulus,
        "frobenius_sign": y0.get("frobenius", [[1]])[0][0],
        "image_order": label_image_order(doc, modulus),
    }


def sweep_h1_rank(shape: str, e: int, f: int) -> int:
    """Rank of H_1 of the degree-f quotient: the e rotated copies fall into
    gcd(e, f) orbits of cycles, the block cycle stays one cycle, and the
    coned cycle is a 2-sphere."""
    return {"copies": gcd(e, f), "block": 1, "coned": 0, "fermat": 1}[shape]


def check_sweep(doc: dict, job, report: dict, facts: dict) -> list[str]:
    problems: list[str] = []
    frob = doc.get("frobenius", {})
    cp, sp = frob.get("components", {}), frob.get("strata", {})
    comp_degrees = {c["id"]: c.get("point_degrees", [1]) for c in doc["components"]}
    edge_degrees = {s["id"]: s.get("point_degrees", [1]) for s in doc["strata"].get("2", [])}
    modulus = facts["modulus"]
    f_max = int(job.options[job.options.index("--sweep") + 1])
    _expect(problems, "sweep levels", [r["f"] for r in report["sweep"]], list(range(1, f_max + 1)))
    for level in report["sweep"]:
        f = level["f"]
        points = (_orbits_pool_points(comp_degrees, cp, f)
                  and _orbits_pool_points(edge_degrees, sp, f))
        _expect(problems, f"f={f} rational points", level["assumption_rational_points"], points)
        _expect(problems, f"f={f} h1", iso(level["h1_quotient"]),
                ((), sweep_h1_rank(job.expect["shape"], job.expect["e"], f)))
        for ell in ELLS:
            pr = level["primes"][str(ell)]
            theta = cyclic(ell_part(modulus, ell))
            # Frobenius^f is (+-1)^f on a cyclic theta, trivial iff it is 1
            # or theta has order at most 2
            trivial = facts["frobenius_sign"] ** f == 1 or ell_part(modulus, ell) <= 2
            exact = points and trivial
            image = cyclic(ell_part(facts["image_order"], ell))
            where = f"f={f} ell={ell}"
            _expect(problems, f"{where} theta", iso(pr["theta"]), theta)
            _expect(problems, f"{where} torsion", iso(pr["theta_torsion"]), theta)
            _expect(problems, f"{where} frobenius", pr["frobenius_trivial_on_torsion"], trivial)
            _expect(problems, f"{where} verdict", pr["verdict"], "exact" if exact else "bound")
            _expect(problems, f"{where} alpha image", iso(pr["alpha_image"]), image)
            _expect(problems, f"{where} kernel", iso(pr["predicted_kernel"]),
                    image if exact else None)
            _expect(problems, f"{where} bound", iso(pr["kernel_bound"]), theta)
    return problems


# -- dispatch -----------------------------------------------------------

FACTS = {"dense": dense_facts, "sweep": sweep_facts}
CHECKERS = {
    "cover": check_cover,
    "suspension": check_suspension,
    "dense": check_dense,
    "sweep": check_sweep,
}


class Checker:
    """Judges reports, computing each document's reference facts once."""

    def __init__(self, docs: dict[str, dict]):
        self.docs = docs
        self.facts: dict[str, dict] = {}

    def __call__(self, job, report: dict) -> list[str]:
        kind = job.expect["kind"]
        doc = self.docs[job.doc]
        if kind in FACTS and job.doc not in self.facts:
            self.facts[job.doc] = FACTS[kind](doc)
        try:
            return CHECKERS[kind](doc, job, report["results"], self.facts.get(job.doc))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]
