"""Command-line front end.

Every subcommand reads one JSON configuration document (except
``example`` and ``oracle-check``), prints a human summary, and with
``--json`` prints a single machine-readable report object instead.
Exit status: 0 success, 1 semantic/validation failure, 2 usage error.

``main`` builds its argument parser on first use and keeps it for the
rest of the process (``build_parser`` still returns a fresh one).  One
command-line run calls ``main`` once, so only a process that calls it
many times (tests, the benchmark, a program embedding snckit) saves the
work.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
import sys
from pathlib import Path

from .complexes import suspend
from .config_io import ConfigBundle, json_text, parse_config, serialize_bundle
from .errors import SnckitError, ValidationError
from .fixtures import fermat_cover_config, generate_example, trivial_pi1
from .galois import extension_complex, norm_map
from .groups import FgAbelianGroup, cokernel
from .homology import homology_group, oracle_homology, random_complex
from .reciprocity import (
    KernelReport,
    _alpha_at,
    _kernel_reports,
    _label_cycles,
    _sweep,
    compute_theta,
)
from .snc import build_dual_complex

__all__ = ["main", "build_parser"]


def _coeff(text: str):
    t = text.strip().lower()
    if t == "z":
        return None
    if t.startswith("z/"):
        try:
            n = int(t[2:])
        except ValueError:
            n = 0
        if n >= 2:
            return n
    raise argparse.ArgumentTypeError(f"coefficients must be 'z' or 'z/N', got {text!r}")


def _coeff_name(modulus: int | None) -> str:
    return "Z" if modulus is None else f"Z/{modulus}"


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _at_least(low: int):
    def parse(text: str) -> int:
        n = _integer(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {n}")
        return n
    return parse


def _prime(text: str) -> int:
    n = _integer(text)
    from .groups import is_prime

    if not is_prime(n):
        raise argparse.ArgumentTypeError(f"--ell expects a prime, got {n}")
    return n


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _group_payload(g: FgAbelianGroup) -> dict:
    return {
        "description": g.describe(),
        "invariant_factors": list(g.invariant_factors),
        "free_rank": g.free_rank,
    }


def _complex_payload(cx) -> dict:
    return {
        "counts": list(cx.counts()),
        "euler_characteristic": cx.euler_characteristic(),
        "simplices": {
            str(a): [s.id for s in cx.simplices(a)] for a in range(cx.dimension + 1)
        },
    }


def _load(args) -> tuple[ConfigBundle, str]:
    raw = Path(args.config).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError([f"input is not UTF-8: {exc}"]) from exc
    return parse_config(text), _digest(raw)


# -- handlers: each returns (digest, results payload, human lines) ---------


def _cmd_validate(args):
    bundle, digest = _load(args)
    cfg = bundle.config
    lines = [
        f"OK: {bundle.name or '(unnamed)'}: {len(cfg.components)} components, "
        f"{len(cfg.strata)} strata"
    ]
    payload = {
        "valid": True,
        "name": bundle.name,
        "components": len(cfg.components),
        "strata": len(cfg.strata),
        "edges_labeled": len(bundle.labels),
    }
    return digest, payload, lines


def _cmd_dual_complex(args):
    bundle, digest = _load(args)
    cx = build_dual_complex(bundle.config)
    payload = _complex_payload(cx)
    lines = [
        f"dual complex of {bundle.name or '(unnamed)'}: "
        + " / ".join(f"{c} of dim {a}" for a, c in enumerate(cx.counts()))
        + f", euler characteristic {cx.euler_characteristic()}"
    ]
    return digest, payload, lines


def _cmd_homology(args):
    bundle, digest = _load(args)
    cx = build_dual_complex(bundle.config)
    h = homology_group(cx, args.degree, args.coeff)
    reps = [
        {k: v for k, v in sorted(h.representative_chain(j).items())}
        for j in range(h.group.generator_count)
    ]
    payload = {
        "degree": args.degree,
        "coefficients": _coeff_name(args.coeff),
        "group": _group_payload(h.group),
        "representatives": reps,
    }
    lines = [f"H_{args.degree}(dual complex, {_coeff_name(args.coeff)}) = {h.group.describe()}"]
    for j, rep in enumerate(reps):
        terms = " + ".join(f"{c}*{sid}" for sid, c in rep.items()) or "0"
        lines.append(f"  generator {j}: {terms}")
    return digest, payload, lines


def _cmd_suspend(args):
    bundle, digest = _load(args)
    cx = build_dual_complex(bundle.config)
    scx = suspend(cx, args.apex0, args.apex1)
    payload = {"apexes": [args.apex0, args.apex1], "suspension": _complex_payload(scx)}
    lines = [
        "suspension: " + " / ".join(f"{c} of dim {a}" for a, c in enumerate(scx.counts()))
        + f", euler characteristic {scx.euler_characteristic()}"
    ]
    return digest, payload, lines


def _cmd_extend(args):
    bundle, digest = _load(args)
    ext = extension_complex(bundle.config, args.f)
    payload = {
        "f": args.f,
        "component_orbits": [list(o) for o in ext.component_orbits],
        "stratum_orbits": [list(o) for o in ext.stratum_orbits],
        "complex": _complex_payload(ext.complex),
        "sigma": {
            sid: {"image": tid, "sign": sign}
            for sid, (tid, sign) in sorted(ext.sigma.assignment.items())
        },
    }
    lines = [
        f"over the degree-{args.f} extension: "
        + " / ".join(f"{c} of dim {a}" for a, c in enumerate(ext.complex.counts())),
        "component orbits: " + "; ".join("{" + ", ".join(o) + "}" for o in ext.component_orbits),
    ]
    return digest, payload, lines


def _cmd_norm(args):
    bundle, digest = _load(args)
    result = norm_map(bundle.config, args.f, args.degree, args.coeff)
    coker, _ = cokernel(result.map)
    payload = {
        "f": args.f,
        "degree": args.degree,
        "coefficients": _coeff_name(args.coeff),
        "source": _group_payload(result.source_homology.group),
        "target": _group_payload(result.target_homology.group),
        "matrix": result.map.matrix.to_rows(),
        "image": _group_payload(result.image_group),
        "cokernel": _group_payload(coker),
    }
    lines = [
        f"norm map on H_{args.degree} ({_coeff_name(args.coeff)}), degree-{args.f} "
        f"extension to base:",
        f"  {result.source_homology.group.describe()} -> "
        f"{result.target_homology.group.describe()}, matrix {result.map.matrix.to_rows()}",
        f"  image {result.image_group.describe()}, cokernel {coker.describe()}",
    ]
    return digest, payload, lines


def _cmd_theta(args):
    bundle, digest = _load(args)
    per_ell = {}
    lines = []
    for ell in args.ell:
        theta = compute_theta(bundle.pi1, ell)
        torsion, _ = theta.torsion_submodule()
        per_ell[str(ell)] = {
            "theta": _group_payload(theta.group),
            "torsion": _group_payload(torsion.group),
            "frobenius_matrix": theta.frobenius.to_rows(),
            "frobenius_trivial": theta.acts_trivially(),
        }
        lines.append(
            f"theta at ell={ell}: {theta.group.describe()} "
            f"(torsion {torsion.group.describe()}, Frobenius "
            f"{'trivial' if theta.acts_trivially() else 'nontrivial'})"
        )
    return digest, {"primes": per_ell}, lines


def _cmd_alpha(args):
    bundle, digest = _load(args)
    per_ell = {}
    lines = []
    # parse_config checked the pi1 data and labels, and H₁'s cycles do
    # not depend on the prime
    cycles = _label_cycles(bundle.config, bundle.pi1, bundle.labels)
    for ell in args.ell:
        res = _alpha_at(bundle.pi1, *cycles, ell)
        surjective = res.surjective
        per_ell[str(ell)] = {
            "source_h1": _group_payload(res.h1.group),
            "theta": _group_payload(res.theta.group),
            "matrix": res.map.matrix.to_rows(),
            "image": _group_payload(res.image_group),
            "surjective": surjective,
            "image_in_torsion": res.torsion_contained,
            "warnings": list(res.warnings),
        }
        lines.append(
            f"alpha at ell={ell}: {res.h1.group.describe()} -> {res.theta.group.describe()}, "
            f"image {res.image_group.describe()}"
            + (", surjective" if surjective else "")
        )
        lines.extend(f"  warning: {w}" for w in res.warnings)
    return digest, {"primes": per_ell}, lines


def _kernel_report_payload(report: KernelReport) -> dict:
    primes = {}
    for ell, pr in sorted(report.primes.items()):
        primes[str(ell)] = {
            "theta": _group_payload(pr.theta.group),
            "theta_torsion": _group_payload(pr.theta_torsion),
            "frobenius_trivial_on_torsion": pr.frobenius_trivial_on_torsion,
            "alpha_image": _group_payload(pr.alpha.image_group),
            "alpha_surjective": pr.alpha.surjective,
            "verdict": pr.verdict,
            "predicted_kernel": (
                _group_payload(pr.predicted_kernel)
                if pr.predicted_kernel is not None else None
            ),
            "kernel_bound": _group_payload(pr.kernel_bound),
            "warnings": list(pr.warnings),
        }
    return {
        "f": report.f,
        "rational_point_flags": dict(sorted(report.rational_point_flags.items())),
        "assumption_rational_points": report.assumption_rational_points,
        "h1_quotient": _group_payload(report.h1_quotient.group),
        "primes": primes,
    }


def _kernel_report_lines(report: KernelReport) -> list[str]:
    lines = [
        f"f={report.f}: H_1 over the extension = {report.h1_quotient.group.describe()}, "
        f"rational points on all double strata: "
        f"{'yes' if report.assumption_rational_points else 'no'}"
    ]
    for ell, pr in sorted(report.primes.items()):
        if pr.verdict == "exact":
            what = f"kernel = {pr.predicted_kernel.describe()}"
        else:
            what = f"kernel bounded by {pr.kernel_bound.describe()}"
        lines.append(f"  ell={ell}: verdict {pr.verdict}, {what}")
        lines.extend(f"    warning: {w}" for w in pr.warnings)
    return lines


def _cmd_kernel(args):
    bundle, digest = _load(args)
    # parse_config checked the pi1 data and labels
    if args.sweep is not None:
        result = _sweep(bundle.config, bundle.pi1, bundle.labels, args.ell, args.sweep)
        payload = {
            "sweep": [_kernel_report_payload(r) for r in result.reports],
            "trends": {str(ell): t for ell, t in sorted(result.trends.items())},
        }
        lines = []
        for rep in result.reports:
            lines.extend(_kernel_report_lines(rep))
        lines.extend(
            f"trend at ell={ell}: {t}" for ell, t in sorted(result.trends.items())
        )
        return digest, payload, lines
    report = _kernel_reports(bundle.config, bundle.pi1, bundle.labels, args.ell, (args.f,))[0]
    return digest, _kernel_report_payload(report), _kernel_report_lines(report)


def _cmd_example(args):
    if args.kind == "fermat" and args.n is None:
        raise SnckitError("example fermat requires --n")
    if args.cover:
        if args.kind != "fermat":
            raise SnckitError("--cover only applies to the fermat example")
        cover = fermat_cover_config(args.n)
        document = serialize_bundle(ConfigBundle(cover.name, cover, trivial_pi1(), {}))
    else:
        document = serialize_bundle(generate_example(args.kind, args.n))
    sys.stdout.write(document)
    return None, None, None


def _cmd_oracle_check(args):
    rng = random.Random(args.seed)
    mismatches = []
    for i in range(args.count):
        cx = random_complex(rng, max_vertices=args.max_vertices)
        for a in range(cx.dimension + 1):
            for p in (2, 3, 5):
                expected = oracle_homology(cx, a, p)
                got = len(homology_group(cx, a, p).group.invariant_factors)
                if got != expected:
                    mismatches.append(
                        {"instance": i, "degree": a, "p": p,
                         "oracle": expected, "pipeline": got}
                    )
    digest = _digest(f"oracle-check:{args.count}:{args.seed}".encode())
    payload = {"count": args.count, "seed": args.seed, "mismatches": mismatches}
    lines = [
        f"checked {args.count} random complexes (seed {args.seed}): "
        f"{len(mismatches)} mismatches"
    ]
    if mismatches:
        raise SnckitError(f"oracle disagreement: {mismatches[0]}")
    return digest, payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snckit",
        description="Exact dual-complex and reciprocity-kernel computations "
                    "for simple normal crossing configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, needs_config: bool = True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if needs_config:
            p.add_argument("config", help="path to a JSON configuration document")
        p.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON report")
        p.set_defaults(handler=handler)
        return p

    add("validate", _cmd_validate, help="parse and validate a document")
    add("dual-complex", _cmd_dual_complex, help="build the dual complex")

    p = add("homology", _cmd_homology, help="homology of the dual complex")
    p.add_argument("--degree", type=_at_least(0), default=1)
    p.add_argument("--coeff", type=_coeff, default=None,
                   help="'z' (default) or 'z/N'")

    p = add("suspend", _cmd_suspend, help="suspension of the dual complex")
    p.add_argument("--apex0", default="O")
    p.add_argument("--apex1", default="inf")

    p = add("extend", _cmd_extend, help="quotient complex over a scalar extension")
    p.add_argument("--f", type=_at_least(1), required=True, help="extension degree")

    p = add("norm", _cmd_norm, help="norm map on homology down to the base")
    p.add_argument("--f", type=_at_least(1), required=True)
    p.add_argument("--degree", type=_at_least(0), default=1)
    p.add_argument("--coeff", type=_coeff, default=None)

    p = add("theta", _cmd_theta, help="the module theta at given primes")
    p.add_argument("--ell", type=_prime, action="append", required=True)

    p = add("alpha", _cmd_alpha, help="the edge-label map into theta")
    p.add_argument("--ell", type=_prime, action="append", required=True)

    p = add("kernel", _cmd_kernel, help="kernel prediction of the reciprocity map")
    p.add_argument("--ell", type=_prime, action="append", required=True)
    p.add_argument("--f", type=_at_least(1), default=1, help="extension degree (default 1)")
    p.add_argument("--sweep", type=_at_least(1), default=None, metavar="F_MAX",
                   help="report every extension degree 1..F_MAX")

    p = add("example", _cmd_example, needs_config=False,
            help="emit a bundled example document")
    p.add_argument("kind", choices=["rulings", "fermat"])
    p.add_argument("--n", type=_at_least(2), default=None, help="cover degree for fermat")
    p.add_argument("--cover", action="store_true",
                   help="emit the fermat cover configuration instead")

    p = add("oracle-check", _cmd_oracle_check, needs_config=False,
            help="compare the pipeline against the elimination oracle")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=_at_least(1), default=6)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses; parsing leaves no state in it, so one
    serves every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        digest, payload, lines = args.handler(args)
    except (SnckitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is None:
        return 0
    if args.json:
        report = {"command": args.command, "input_digest": digest, "results": payload}
        print(json_text(report))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
