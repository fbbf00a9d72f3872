"""Kernel predictions for the degree-zero reciprocity map of a simple
normal crossing surface built from a doubled configuration.

The inputs are combinatorial: the configuration of the divisor D with
its Frobenius action, fundamental-group data (a module y0 for the
ambient piece, one module-with-map per component of D), and a label in
y0 on every edge of the dual complex.  The labels are the columns of
one matrix L, checked column by column: Frobenius-equivariance on the
columns of L·F₁ − Y·L (F₁ the Frobenius chain map on edges, Y its
action on y0), each the signed label of an edge's image minus Y times
its own, and descent on the columns of L·∂₂, each the signed sum of a
2-simplex's facet labels; neither product is formed.  From these the
pipeline forms

* theta: the cokernel of the component maps into y0, localized at a
  prime ell (prime-to-ell torsion discarded, free part kept);
* alpha: the map sending a 1-cycle of the dual complex to the class of
  the signed sum of its edge labels in theta, computed as the label
  matrix L (one column per edge) times the cycle matrix of H₁;
* a verdict per prime: when every relevant stratum sees a rational
  point and Frobenius fixes the torsion of theta, the kernel of the
  reciprocity map is exactly the image of alpha ("exact"); otherwise
  only the subquotient bound by the torsion of theta is asserted
  ("bound").

Alpha itself is geometric and stays fixed as the extension degree f
varies; only the arithmetic inputs (orbits, rational points, the f-th
Frobenius power) move, and they depend on f only through the degree
class gcd(f, P), P the lcm of the Frobenius orders and point degrees.
So a sweep over f evaluates each class once and relabels its reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Mapping, Sequence

from .complexes import DeltaComplex
from .errors import LabelError, ValidationError, WellDefinednessError
from .galois import Extension, extension_complex, frobenius_chain_map
from .groups import (
    FgAbelianGroup,
    GaloisModule,
    ModuleMap,
    coinvariants,
    image_subgroup,
)
from .homology import HomologyResult, homology_group
from .matrices import IntMatrix
from .snc import SncConfiguration, _action, build_dual_complex, has_rational_point

__all__ = [
    "ComponentPi1",
    "Pi1Input",
    "validate_pi1",
    "EdgeLabelCochain",
    "validate_labels",
    "compute_theta",
    "AlphaResult",
    "alpha_map",
    "rational_point_flags",
    "PrimeReport",
    "KernelReport",
    "predict_kernel",
    "SweepResult",
    "sweep_extensions",
]


@dataclass(frozen=True)
class ComponentPi1:
    """Fundamental-group data of one component: its module and the map
    into y0."""

    module: GaloisModule
    map_to_y0: ModuleMap


@dataclass(frozen=True)
class Pi1Input:
    """y0 plus the per-component maps.  Components without an entry
    contribute nothing (trivial group, zero map)."""

    y0: GaloisModule
    component_maps: Mapping[str, ComponentPi1] = field(default_factory=dict)


def validate_pi1(cfg: SncConfiguration, pi1: Pi1Input) -> list[str]:
    problems: list[str] = []
    known = {c.id for c in cfg.components}
    for cid, cp in pi1.component_maps.items():
        if cid not in known:
            problems.append(f"component map for unknown component {cid!r}")
            continue
        m = cp.map_to_y0
        if m.source is not cp.module.group and m.source != cp.module.group:
            problems.append(f"component {cid!r}: map source is not its module")
            continue
        if m.target is not pi1.y0.group and m.target != pi1.y0.group:
            problems.append(f"component {cid!r}: map target is not y0")
            continue
        diff = pi1.y0.frobenius @ m.matrix - m.matrix @ cp.module.frobenius
        for j in range(diff.cols):
            if not pi1.y0.group.in_relation_lattice(diff.col(j)):
                problems.append(
                    f"component {cid!r}: map into y0 is not Frobenius-equivariant"
                )
                break
    return problems


#: edge id -> element of y0 in generator coordinates
EdgeLabelCochain = Mapping[str, Sequence[int]]


def _component_quotient(pi1: Pi1Input) -> FgAbelianGroup:
    """y0 modulo the images of the component maps, which is y0's own
    group when no map adds a column; either way its Smith form is y0's,
    continued over the added columns."""
    y0 = pi1.y0.group
    columns = IntMatrix.zeros(y0.generator_count, 0)
    for cid in sorted(pi1.component_maps):
        columns = columns.hstack(pi1.component_maps[cid].map_to_y0.matrix)
    return FgAbelianGroup._extended(y0, columns) if columns.cols else y0


def _label_columns(cx: DeltaComplex, pi1: Pi1Input,
                   labels: EdgeLabelCochain) -> tuple[dict[str, tuple[int, ...]], list[str]]:
    """The label of every edge of ``cx``, keyed by edge id in the edge
    order of ``cx`` (missing edges are zero), plus structural
    problems."""
    problems: list[str] = []
    gc = pi1.y0.group.generator_count
    edges = cx.simplices(1)
    columns = {e.id: (0,) * gc for e in edges}
    for eid, vec in labels.items():
        if eid not in columns:
            problems.append(f"label on unknown edge id {eid!r}")
            continue
        if len(vec) != gc:
            problems.append(
                f"label vector of wrong length on edge {eid!r}: "
                f"got {len(vec)}, y0 has {gc} generators"
            )
            continue
        columns[eid] = tuple(int(x) for x in vec)
    return columns, problems


def validate_labels(cfg: SncConfiguration, pi1: Pi1Input,
                    labels: EdgeLabelCochain) -> list[str]:
    """Equivariance and descent checks; empty list when the labels
    define a map on homology.  Each edge and each 2-simplex is checked
    on its own column, so the work is linear in the size of the complex."""
    cx = build_dual_complex(cfg)
    columns, problems = _label_columns(cx, pi1, labels)
    if problems:
        return problems
    # zero labels (none given, or y0 without generators) are equivariant
    # and descend whatever Frobenius does; the configuration's own checks
    # already accept only Frobenius actions that give a chain map
    if not any(any(vec) for vec in columns.values()):
        return []

    y0 = pi1.y0
    frobenius = frobenius_chain_map(cfg).assignment
    for e in cx.simplices(1):
        # the label of Frobenius(e), signed, minus Frobenius of e's label
        image, sign = frobenius[e.id]
        own = y0.frobenius.apply(columns[e.id])
        skew = [sign * x - y for x, y in zip(columns[image], own)]
        if not y0.group.in_relation_lattice(skew):
            problems.append(f"label on edge {e.id!r} is not Frobenius-equivariant")
    if problems:
        return problems

    vanishing = _component_quotient(pi1)
    zero = (0,) * y0.group.generator_count
    for t in cx.simplices(2):
        # the label of the boundary of the 2-simplex t
        boundary = zero
        for i, fid in enumerate(t.facets):
            sign = -1 if i % 2 else 1
            boundary = [b + sign * x for b, x in zip(boundary, columns[fid])]
        if not vanishing.in_relation_lattice(boundary):
            problems.append(
                f"labels do not descend to H₁: boundary of 2-simplex {t.id!r} "
                f"pairs to a nonzero class"
            )
    return problems


def compute_theta(pi1: Pi1Input, ell: int) -> GaloisModule:
    """theta at ell: y0 modulo the images of the component maps, then
    prime-to-ell torsion discarded.  Presented on the generators of
    y0.  Raises WellDefinednessError when Frobenius does not preserve
    the images of the component maps."""
    y0 = pi1.y0
    quotient = _component_quotient(pi1)
    rel = quotient.relations
    # y0 is checked, so Frobenius already keeps its own relations and its
    # order bound; only the component-map columns remain to be tested
    for j in range(y0.group.relations.cols, rel.cols):
        if not quotient.in_relation_lattice(y0.frobenius.apply(rel.col(j))):
            raise WellDefinednessError(
                f"source relation #{j} is not sent into the target relation lattice"
            )
    localized, _ = GaloisModule._of(quotient, y0.frobenius, y0.order).localized(ell)
    return localized


@dataclass(frozen=True)
class AlphaResult:
    """The map alpha from degree-1 homology of the geometric complex
    into theta, with its image."""

    ell: int
    map: ModuleMap
    image_group: FgAbelianGroup
    image_inclusion: ModuleMap
    surjective: bool
    torsion_contained: bool
    h1: HomologyResult
    theta: GaloisModule
    warnings: tuple[str, ...]


def _check_inputs(cfg: SncConfiguration, pi1: Pi1Input, labels: EdgeLabelCochain) -> None:
    """Raise ValidationError or LabelError unless the pi1 data and the
    labels pass ``validate_pi1`` and ``validate_labels``.  The public
    entry points below call this; ``parse_config`` makes the same checks
    on every bundle it returns, so the command line calls the unchecked
    ``_label_cycles``, ``_kernel_reports`` and ``_sweep`` on parsed
    bundles."""
    pi1_problems = validate_pi1(cfg, pi1)
    if pi1_problems:
        raise ValidationError(pi1_problems)
    label_problems = validate_labels(cfg, pi1, labels)
    if label_problems:
        raise LabelError("; ".join(label_problems))


def alpha_map(cfg: SncConfiguration, pi1: Pi1Input, labels: EdgeLabelCochain,
              ell: int) -> AlphaResult:
    """Evaluate the labels on homology generators.  Raises LabelError
    when the labels are not equivariant or do not descend."""
    _check_inputs(cfg, pi1, labels)
    return _alpha_at(pi1, *_label_cycles(cfg, pi1, labels), ell)


def _label_cycles(cfg: SncConfiguration, pi1: Pi1Input,
                  labels: EdgeLabelCochain) -> tuple[HomologyResult, IntMatrix]:
    """The part of alpha that no prime changes, from checked inputs: H₁
    of the geometric complex, and the labels evaluated on its cycles
    (one column per H₁ generator, in y0 coordinates)."""
    cx = build_dual_complex(cfg)
    h1 = homology_group(cx, 1)
    columns = _label_columns(cx, pi1, labels)[0]
    label = IntMatrix.from_columns(list(columns.values()), rows=pi1.y0.group.generator_count)
    return h1, label @ h1.cycle_matrix


def _alpha_at(pi1: Pi1Input, h1: HomologyResult, matrix: IntMatrix,
              ell: int) -> AlphaResult:
    """Alpha at ell from the output of ``_label_cycles``."""
    theta = compute_theta(pi1, ell)
    # validate_labels checked descent over every 2-simplex, which is
    # exactly this map's well-definedness
    amap = ModuleMap._of(h1.group, theta.group, matrix)
    image, inclusion = image_subgroup(amap)
    surjective = amap.is_surjective()

    warnings: list[str] = []
    contained = all(
        theta.group.element_order(matrix.col(j)) is not None
        for j in range(matrix.cols)
    )
    if not contained:
        warnings.append(
            f"image of alpha at ell={ell} is not contained in the torsion of theta "
            f"(expected only for non-geometric inputs)"
        )
    return AlphaResult(ell, amap, image, inclusion, surjective, contained, h1, theta,
                       tuple(warnings))


def rational_point_flags(cfg: SncConfiguration, f: int,
                         ext: Extension | None = None) -> dict[str, bool]:
    """Rational-point availability over the degree-f extension for
    each connected piece of the double locus of the doubled surface:
    two horizontal copies per component of D and one vertical ruled
    piece per depth-2 stratum.  Orbits pool their point degrees."""
    if ext is None:
        ext = extension_complex(cfg, f)
    flags: dict[str, bool] = {}
    for orbit in ext.component_orbits:
        degs: list[int] = []
        for cid in orbit:
            degs.extend(cfg.component(cid).point_degrees)
        ok = has_rational_point(degs, f)
        flags[f"{orbit[0]} x O"] = ok
        flags[f"{orbit[0]} x inf"] = ok
    for orbit in ext.stratum_orbits:
        rep = cfg.stratum(orbit[0])
        if rep.depth != 2:
            continue
        degs = []
        for sid in orbit:
            degs.extend(cfg.stratum(sid).point_degrees)
        flags[f"{orbit[0]} x P1"] = has_rational_point(degs, f)
    return flags


@dataclass(frozen=True)
class PrimeReport:
    """Everything the main statement says at one prime."""

    ell: int
    theta: GaloisModule
    theta_torsion: FgAbelianGroup
    frobenius_trivial_on_torsion: bool
    alpha: AlphaResult
    verdict: str  # "exact" or "bound"
    predicted_kernel: FgAbelianGroup | None
    kernel_bound: FgAbelianGroup
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class KernelReport:
    """One extension level: the arithmetic context plus one PrimeReport
    per requested prime."""

    f: int
    rational_point_flags: dict[str, bool]
    assumption_rational_points: bool
    h1_quotient: HomologyResult
    primes: dict[int, PrimeReport]


def _period(cfg: SncConfiguration, pi1: Pi1Input) -> int:
    """P = lcm(configuration Frobenius order, y0 Frobenius order, every
    point degree).  Every degree-dependent input to a kernel report
    depends on f only through gcd(f, P): on ids, σ^f and σ^gcd(f, P)
    generate the same group, so they have the same orbits; a point
    degree d divides f exactly when it divides gcd(f, P); and
    Frobenius^f and Frobenius^gcd(f, P) generate the same group of
    automorphisms of theta."""
    degrees = [d for c in cfg.components for d in c.point_degrees]
    degrees += [d for s in cfg.strata for d in s.point_degrees]
    return lcm(_action(cfg).order, pi1.y0.order, *degrees)


def _kernel_reports(cfg: SncConfiguration, pi1: Pi1Input, labels: EdgeLabelCochain,
                    ells: Sequence[int], degrees: Sequence[int]) -> tuple[KernelReport, ...]:
    """One KernelReport per extension degree, from checked inputs.

    Alpha, theta and the torsion of theta are geometric: alpha's cycles
    are computed once, and the rest once per prime.  The
    degree-dependent work (the extension, its rational points and H₁,
    Frobenius^f on the torsion of theta and the coinvariants test) is
    done once per degree class gcd(f, P) (see
    ``_period``), at the first requested degree of the class, so an
    ExtensionError names that degree.  Each report keeps its own f.
    """
    period = _period(cfg, pi1)
    cycles: tuple[HomologyResult, IntMatrix] | None = None
    geometric: dict[int, tuple[AlphaResult, GaloisModule, ModuleMap]] = {}
    classes: dict[int, tuple[dict[str, bool], HomologyResult, dict[int, tuple[bool, bool]]]] = {}
    reports = []
    for f in degrees:
        g = gcd(f, period)
        if g not in classes:
            ext = extension_complex(cfg, f)
            flags = rational_point_flags(cfg, f, ext=ext)
            h1_quotient = homology_group(ext.complex, 1)
            # per prime: Frobenius^f trivial on the torsion of theta, and
            # that torsion injecting into the Frobenius^f coinvariants
            arithmetic: dict[int, tuple[bool, bool]] = {}
            for ell in ells:
                if ell not in geometric:
                    if cycles is None:
                        cycles = _label_cycles(cfg, pi1, labels)
                    alpha = _alpha_at(pi1, *cycles, ell)
                    geometric[ell] = (alpha, *alpha.theta.torsion_submodule())
                alpha, torsion_module, torsion_incl = geometric[ell]
                trivial = torsion_module.power(f).acts_trivially()
                _, proj = coinvariants(alpha.theta.power(f))
                arithmetic[ell] = (trivial, proj.compose(torsion_incl).is_injective())
            classes[g] = (flags, h1_quotient, arithmetic)
        flags, h1_quotient, arithmetic = classes[g]
        assumption_i = all(flags.values())

        primes: dict[int, PrimeReport] = {}
        for ell, (assumption_ii, injective) in arithmetic.items():
            alpha, torsion_module, _ = geometric[ell]
            warnings = list(alpha.warnings)
            if not injective:
                warnings.append(
                    f"ell={ell}, f={f}: torsion of theta does not inject into the "
                    f"coinvariants (expected only for non-geometric inputs)"
                )
            exact = assumption_i and assumption_ii
            primes[ell] = PrimeReport(
                ell=ell,
                theta=alpha.theta,
                theta_torsion=torsion_module.group,
                frobenius_trivial_on_torsion=assumption_ii,
                alpha=alpha,
                verdict="exact" if exact else "bound",
                predicted_kernel=alpha.image_group if exact else None,
                kernel_bound=torsion_module.group,
                warnings=tuple(warnings),
            )
        reports.append(KernelReport(f, dict(flags), assumption_i, h1_quotient, primes))
    return tuple(reports)


def predict_kernel(cfg: SncConfiguration, pi1: Pi1Input, labels: EdgeLabelCochain,
                   ells: Sequence[int], f: int = 1) -> KernelReport:
    """The kernel prediction over the degree-f extension, at each
    requested prime."""
    _check_inputs(cfg, pi1, labels)
    return _kernel_reports(cfg, pi1, labels, ells, (f,))[0]


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[KernelReport, ...]
    trends: dict[int, str]


def _trend(types: list) -> str:
    if all(t == types[0] for t in types):
        return "stable"
    if types[-1].is_trivial:
        return "eventually trivial"
    orders = [t.order() for t in types]
    if all(o is not None for o in orders) and all(
        a >= b for a, b in zip(orders, orders[1:])
    ):
        return "shrinking"
    return "varies"


def sweep_extensions(cfg: SncConfiguration, pi1: Pi1Input, labels: EdgeLabelCochain,
                     ells: Sequence[int], f_max: int) -> SweepResult:
    """Kernel predictions for f = 1..f_max with a per-prime trend
    summary over the predicted kernels (the bound, where no exact
    prediction is available)."""
    if f_max < 1:
        raise ValueError("f_max must be positive")
    _check_inputs(cfg, pi1, labels)
    return _sweep(cfg, pi1, labels, ells, f_max)


def _sweep(cfg: SncConfiguration, pi1: Pi1Input, labels: EdgeLabelCochain,
           ells: Sequence[int], f_max: int) -> SweepResult:
    """``sweep_extensions`` on checked inputs."""
    reports = _kernel_reports(cfg, pi1, labels, ells, range(1, f_max + 1))
    trends: dict[int, str] = {}
    for ell in ells:
        types = []
        for rep in reports:
            pr = rep.primes[ell]
            group = pr.predicted_kernel if pr.predicted_kernel is not None else pr.kernel_bound
            types.append(group.iso_type())
        trends[ell] = _trend(types)
    return SweepResult(reports, trends)
