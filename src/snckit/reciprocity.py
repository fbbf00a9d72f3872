"""Kernel predictions for the degree-zero reciprocity map of a simple
normal crossing surface built from a doubled configuration.

The inputs are combinatorial: the configuration of the divisor D with
its Frobenius action, fundamental-group data (a module y0 for the
ambient piece, one module-with-map per component of D), and a label in
y0 on every edge of the dual complex, held together by a ConfigBundle
that keeps its own check.  The labels are the columns of
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
class gcd(f, P), P the lcm of the Frobenius orders and point degrees;
the Frobenius tests at ell depend on f only through gcd(f, theta's
order).  So a sweep over f evaluates each class, and each test, once and
relabels its reports, and reads its per-prime trend off P.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
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
from .snc import (
    SncConfiguration,
    _action,
    build_dual_complex,
    ensure_valid,
    has_rational_point,
    validate_config,
)

__all__ = [
    "ComponentPi1",
    "Pi1Input",
    "ConfigBundle",
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
        if pi1.y0.group._outside(diff):
            problems.append(f"component {cid!r}: map into y0 is not Frobenius-equivariant")
    return problems


#: edge id -> element of y0 in generator coordinates
EdgeLabelCochain = Mapping[str, Sequence[int]]


def _component_quotient(pi1: Pi1Input) -> tuple[FgAbelianGroup, IntMatrix]:
    """y0 modulo the images of the component maps, which is y0's own
    group when no map adds a column, and the added columns, the
    component maps' matrices side by side; either way the group's Smith
    form is y0's, continued over those columns."""
    y0 = pi1.y0.group
    columns = IntMatrix.zeros(y0.generator_count, 0)
    for cid in sorted(pi1.component_maps):
        columns = columns.hstack(pi1.component_maps[cid].map_to_y0.matrix)
    return (FgAbelianGroup._extended(y0, columns) if columns.cols else y0), columns


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
    on its own column, so the work is linear in the size of the complex.
    With no labels there is nothing to check, and no complex is built."""
    if not labels:
        ensure_valid(cfg)
        return []
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
    gc = y0.group.generator_count
    frobenius = frobenius_chain_map(cfg).assignment
    edges = cx.simplices(1)
    # per edge, the label of Frobenius(e), signed, minus Frobenius of
    # e's label; all edges are tested in one product
    images = []
    for e in edges:
        image, sign = frobenius[e.id]
        images.append([sign * x for x in columns[image]])
    own = y0.frobenius @ IntMatrix.from_columns([columns[e.id] for e in edges], rows=gc)
    for j in y0.group._outside(IntMatrix.from_columns(images, rows=gc) - own):
        problems.append(f"label on edge {edges[j].id!r} is not Frobenius-equivariant")
    if problems:
        return problems

    triangles = cx.simplices(2)
    zero = (0,) * gc
    boundaries = []
    for t in triangles:
        # the label of the boundary of the 2-simplex t
        boundary = zero
        for i, fid in enumerate(t.facets):
            sign = -1 if i % 2 else 1
            boundary = [b + sign * x for b, x in zip(boundary, columns[fid])]
        boundaries.append(boundary)
    vanishing, _ = _component_quotient(pi1)
    for j in vanishing._outside(IntMatrix.from_columns(boundaries, rows=gc)):
        problems.append(
            f"labels do not descend to H₁: boundary of 2-simplex {triangles[j].id!r} "
            f"pairs to a nonzero class"
        )
    return problems


@dataclass(frozen=True)
class ConfigBundle:
    """Everything one document describes: the input of ``alpha_map``,
    ``predict_kernel`` and ``sweep_extensions``.

    Frozen, so its check and the labels on its H₁ cycles are derived
    once, on first use, and kept on the object, as a configuration keeps
    its validation.  The contract is the configuration's: neither the
    fields nor the mappings they hold are mutated after the first
    check."""

    name: str
    config: SncConfiguration
    pi1: Pi1Input
    labels: EdgeLabelCochain = field(default_factory=dict)

    @cached_property
    def _problems(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The configuration's problems, or else the pi1 data's; then
        the labels' problems, checked only when there are none of
        those."""
        problems = validate_config(self.config) or validate_pi1(self.config, self.pi1)
        if problems:
            return tuple(problems), ()
        return (), tuple(validate_labels(self.config, self.pi1, self.labels))

    @cached_property
    def _cycles(self) -> tuple[HomologyResult, IntMatrix]:
        """The part of alpha that no prime changes, on a checked bundle:
        H₁ of the geometric complex, and the labels evaluated on its
        cycles (one column per H₁ generator, in y0 coordinates)."""
        cx = build_dual_complex(self.config)
        h1 = homology_group(cx, 1)
        columns = _label_columns(cx, self.pi1, self.labels)[0]
        label = IntMatrix.from_columns(list(columns.values()),
                                       rows=self.pi1.y0.group.generator_count)
        return h1, label @ h1.cycle_matrix


def _check(bundle: ConfigBundle) -> None:
    """Raise ValidationError for the configuration's or the pi1 data's
    problems, or LabelError for the labels', as the bundle's cached
    check found them."""
    problems, label_problems = bundle._problems
    if problems:
        raise ValidationError(problems)
    if label_problems:
        raise LabelError("; ".join(label_problems))


def compute_theta(pi1: Pi1Input, ell: int) -> GaloisModule:
    """theta at ell: y0 modulo the images of the component maps, then
    prime-to-ell torsion discarded.  Presented on the generators of
    y0.  Raises WellDefinednessError when Frobenius does not preserve
    the images of the component maps."""
    y0 = pi1.y0
    quotient, added = _component_quotient(pi1)
    # y0 is checked, so Frobenius already keeps its own relations and its
    # order bound; only the component-map columns remain to be tested
    outside = quotient._outside(y0.frobenius @ added)
    if outside:
        raise WellDefinednessError(
            f"source relation #{y0.group.relations.cols + outside[0]} is not sent into "
            f"the target relation lattice"
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
    surjective: bool
    torsion_contained: bool
    h1: HomologyResult
    theta: GaloisModule
    warnings: tuple[str, ...]


def alpha_map(bundle: ConfigBundle, ell: int) -> AlphaResult:
    """Evaluate the labels on homology generators.  Raises
    ValidationError when the configuration or the pi1 data is invalid,
    and LabelError when the labels are not equivariant or do not
    descend."""
    _check(bundle)
    h1, matrix = bundle._cycles
    theta = compute_theta(bundle.pi1, ell)
    # the check proved descent over every 2-simplex, which is exactly
    # this map's well-definedness
    amap = ModuleMap._of(h1.group, theta.group, matrix)
    image = image_subgroup(amap)
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
    return AlphaResult(ell, amap, image, surjective, contained, h1, theta, tuple(warnings))


def rational_point_flags(cfg: SncConfiguration, ext: Extension) -> dict[str, bool]:
    """Rational-point availability over the degree-``ext.f`` extension
    for each connected piece of the double locus of the doubled surface:
    two horizontal copies per component of D and one vertical ruled
    piece per depth-2 stratum.  Orbits pool their point degrees; they
    are those of ``ext = extension_complex(cfg, f)``."""
    f = ext.f
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


def _frobenius_tests(theta: GaloisModule, torsion: GaloisModule, incl: ModuleMap,
                     f: int) -> tuple[bool, bool]:
    """Whether Frobenius^f is trivial on the torsion of theta, and
    whether that torsion, with inclusion ``incl``, injects into the
    Frobenius^f coinvariants.  Both read only the group Frobenius^f
    generates, which Frobenius^gcd(f, theta's order) generates too, so
    ``_kernel_reports`` passes that gcd as f.  An order-1 theta and a
    zero torsion settle both tests without a power or coinvariants."""
    if theta.order == 1 or not torsion.group.generator_count:
        # at order 1 Frobenius^f is the identity on theta (its order was
        # checked on y0): it is trivial on the torsion, and the
        # coinvariants are theta itself, into which the torsion's
        # inclusion injects.  A torsion with no generators (it is
        # presented on its invariant factors) is the zero group:
        # Frobenius^f is trivial on it, and the zero group injects into
        # anything
        return True, True
    trivial = torsion.power(f).acts_trivially()
    _, proj = coinvariants(theta.power(f))
    return trivial, proj.compose(incl).is_injective()


def _kernel_reports(bundle: ConfigBundle, ells: Sequence[int],
                    degrees: Sequence[int]) -> tuple[KernelReport, ...]:
    """One KernelReport per extension degree, from a checked bundle.

    Alpha, theta and the torsion of theta are geometric: alpha's cycles
    are the bundle's, computed once, when a split class or a prime first
    needs them, and the rest once per prime.  The extension, its
    rational points and H₁ are computed once per degree class gcd(f, P)
    (see ``_period``), at the first requested degree of the class, so an
    ExtensionError names that degree.  A split class, whose quotient is the geometric
    complex itself, takes its H₁ from alpha's cycles.  The two Frobenius
    tests at ell (Frobenius^f trivial on the torsion of theta, and that
    torsion injecting into the Frobenius^f coinvariants) read only the
    group that Frobenius^f generates, which is that of
    Frobenius^gcd(f, theta's order), so they run once per
    (ell, gcd(f, theta's order)), at that gcd, and at order 1 or on a
    trivial torsion not at all (``_frobenius_tests``).  The geometric
    pieces at each prime and the tests are cached local functions, each
    computed at its first use.  Each report keeps its own f; the reports
    of a degree class share its one flags dict, and a prime's report is
    one object, shared by every degree where it is the same, unless its
    warning names f.
    """
    cfg = bundle.config
    period = _period(cfg, bundle.pi1)

    @cache
    def geometric(ell: int) -> tuple[AlphaResult, GaloisModule, ModuleMap]:
        alpha = alpha_map(bundle, ell)
        return (alpha, *alpha.theta.torsion_submodule())

    @cache
    def tests(ell: int, k: int) -> tuple[bool, bool]:
        alpha, torsion_module, torsion_incl = geometric(ell)
        return _frobenius_tests(alpha.theta, torsion_module, torsion_incl, k)

    classes: dict[int, tuple[dict[str, bool], bool, HomologyResult,
                             dict[int, tuple[bool, bool]]]] = {}
    shared: dict[tuple, PrimeReport] = {}
    reports = []
    for f in degrees:
        g = gcd(f, period)
        if g not in classes:
            ext = extension_complex(cfg, f)
            flags = rational_point_flags(cfg, ext)
            # a split class's quotient is the geometric complex, whose
            # H₁ alpha's cycles hold
            h1_quotient = (bundle._cycles[0] if ext.complex is ext.base
                           else homology_group(ext.complex, 1))
            # per prime: Frobenius^f trivial on the torsion of theta, and
            # that torsion injecting into the Frobenius^f coinvariants
            arithmetic = {ell: tests(ell, gcd(f, geometric(ell)[0].theta.order))
                          for ell in ells}
            classes[g] = (flags, all(flags.values()), h1_quotient, arithmetic)
        flags, assumption_i, h1_quotient, arithmetic = classes[g]

        primes: dict[int, PrimeReport] = {}
        for ell, (assumption_ii, injective) in arithmetic.items():
            key = (ell, assumption_i, assumption_ii, None if injective else f)
            if key not in shared:
                alpha, torsion_module, _ = geometric(ell)
                warnings = list(alpha.warnings)
                if not injective:
                    warnings.append(
                        f"ell={ell}, f={f}: torsion of theta does not inject into the "
                        f"coinvariants (expected only for non-geometric inputs)"
                    )
                exact = assumption_i and assumption_ii
                shared[key] = PrimeReport(
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
            primes[ell] = shared[key]
        reports.append(KernelReport(f, flags, assumption_i, h1_quotient, primes))
    return tuple(reports)


def predict_kernel(bundle: ConfigBundle, ells: Sequence[int], f: int = 1) -> KernelReport:
    """The kernel prediction over the degree-f extension, at each
    requested prime."""
    _check(bundle)
    return _kernel_reports(bundle, ells, (f,))[0]


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[KernelReport, ...]
    trends: dict[int, str]


def sweep_extensions(bundle: ConfigBundle, ells: Sequence[int], f_max: int) -> SweepResult:
    """Kernel predictions for f = 1..f_max with a per-prime trend over
    the predicted kernels (the bound, where no exact prediction is
    available).  Every report depends on f only through gcd(f, P)
    (``_period``), so the kernels are periodic in f with period P: the
    trend is "periodic with period P" when they differ, "stable" when
    they agree and the window reaches P, where every class g | P has
    occurred (at f = g), and otherwise says that the window is shorter
    than the period, claiming nothing."""
    if f_max < 1:
        raise ValueError("f_max must be positive")
    _check(bundle)
    reports = _kernel_reports(bundle, ells, range(1, f_max + 1))
    period = _period(bundle.config, bundle.pi1)
    trends: dict[int, str] = {}
    for ell in ells:
        kernels = {(pr.predicted_kernel or pr.kernel_bound).iso_type()
                   for pr in (rep.primes[ell] for rep in reports)}
        if len(kernels) > 1:
            trends[ell] = f"periodic with period {period}"
        elif f_max >= period:
            trends[ell] = "stable"
        else:
            trends[ell] = (f"undetermined: the window 1..{f_max} is shorter than "
                           f"the period {period}")
    return SweepResult(reports, trends)
