"""Built-in example configurations.

``rulings`` is the union of four lines cut out on a smooth quadric by
x^2 = y^2 and z^2 = w^2: two lines from each ruling, meeting in four
points, so the dual complex is a 4-cycle.  The ambient piece is simply
connected, every map is zero, and every kernel prediction is trivial.

``fermat(n)`` is the two-component quotient configuration of a cyclic
degree-n cover: 2n lines forming a 2n-cycle upstairs, rotated one step
by the deck transformation tau, descending to two components crossing
in two rational points.  Downstairs y0 is cyclic of order n generated
by tau, the component groups vanish, and exactly one of the two edges
picks up the deck increment, so the fundamental cycle maps onto y0.
"""

from __future__ import annotations

from .groups import FgAbelianGroup, GaloisModule
from .matrices import IntMatrix
from .reciprocity import ConfigBundle, Pi1Input
from .snc import Component, FrobeniusAction, SncConfiguration, Stratum

__all__ = ["trivial_pi1", "rulings_bundle", "fermat_bundle", "fermat_cover_config", "generate_example"]


def trivial_pi1() -> Pi1Input:
    y0 = GaloisModule(FgAbelianGroup.trivial(), IntMatrix.identity(0), 1)
    return Pi1Input(y0, {})


def rulings_bundle() -> ConfigBundle:
    components = tuple(Component(cid) for cid in ("L1", "L2", "M1", "M2"))
    strata = (
        Stratum("P11", ("L1", "M1")),
        Stratum("P12", ("L1", "M2")),
        Stratum("P21", ("L2", "M1")),
        Stratum("P22", ("L2", "M2")),
    )
    cfg = SncConfiguration("rulings", components, strata)
    return ConfigBundle("rulings", cfg, trivial_pi1(), {})


def fermat_bundle(n: int) -> ConfigBundle:
    """The quotient-side data for the degree-n cyclic cover."""
    if n < 2:
        raise ValueError("n must be at least 2")
    cfg = SncConfiguration(
        f"fermat-{n}",
        (Component("C1"), Component("C2")),
        (Stratum("P1", ("C1", "C2")), Stratum("P2", ("C1", "C2"))),
    )
    y0 = GaloisModule(FgAbelianGroup.cyclic(n), IntMatrix.identity(1), 1)
    labels = {"P1": (1,), "P2": (0,)}
    return ConfigBundle(f"fermat-{n}", cfg, Pi1Input(y0, {}), labels)


def fermat_cover_config(n: int) -> SncConfiguration:
    """The cover side: a 2n-cycle of lines rotated one step by the
    order-n deck transformation (stored in the Frobenius slot so the
    quotient machinery can collapse it)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    components = []
    strata = []
    comp_perm = {}
    strat_perm = {}
    for i in range(n):
        components.append(Component(f"L1t{i}"))
        components.append(Component(f"L2t{i}"))
        strata.append(Stratum(f"Q1t{i}", (f"L1t{i}", f"L2t{i}")))
        strata.append(Stratum(f"Q2t{i}", (f"L2t{i}", f"L1t{(i + 1) % n}")))
        comp_perm[f"L1t{i}"] = f"L1t{(i + 1) % n}"
        comp_perm[f"L2t{i}"] = f"L2t{(i + 1) % n}"
        strat_perm[f"Q1t{i}"] = f"Q1t{(i + 1) % n}"
        strat_perm[f"Q2t{i}"] = f"Q2t{(i + 1) % n}"
    action = FrobeniusAction(n, comp_perm, strat_perm)
    return SncConfiguration(f"fermat-{n}-cover", tuple(components), tuple(strata), action)


def generate_example(kind: str, n: int | None = None) -> ConfigBundle:
    if kind == "rulings":
        return rulings_bundle()
    if kind == "fermat":
        if n is None:
            raise ValueError("fermat needs n")
        return fermat_bundle(n)
    raise ValueError(f"unknown example kind {kind!r}")
