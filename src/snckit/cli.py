"""Command-line front end.

Every subcommand reads one JSON configuration document (except
``example`` and ``oracle-check``), prints a human summary, and with
``--json`` prints a single machine-readable report object instead.
Exit status: 0 success, 1 semantic/validation failure, 2 usage error.
A run that fails after its arguments parse prints its error on stderr,
and under ``--json`` also one object on stdout with the command, the
exit status and the list of problems.
A failed write of the output exits 1 as well: with ``error: ...`` on
stderr, or silently when the reader has closed the pipe.

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
import os
import random
import sys
from pathlib import Path

from .complexes import suspend
from .config_io import (
    ConfigBundle,
    SharedDict,
    SharedList,
    json_text,
    parse_config,
    serialize_bundle,
)
from .errors import SnckitError, ValidationError
from .fixtures import fermat_cover_config, generate_example, trivial_pi1
from .galois import extension_complex, norm_map
from .groups import FgAbelianGroup, cokernel
from .homology import ORACLE_SIZE_BOUND, homology_group, oracle_homology, random_complex
from .reciprocity import (
    KernelReport,
    PrimeReport,
    alpha_map,
    compute_theta,
    predict_kernel,
    sweep_extensions,
)
from .snc import build_dual_complex

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """Flags that argparse accepts but that do not apply together: a
    usage error, exit status 2."""


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


def _at_least(low: int, high: int | None = None):
    """An argparse type for integers of at least ``low`` and, when
    ``high`` is given, at most ``high``."""
    def parse(text: str) -> int:
        n = _integer(text)
        if n < low or high is not None and n > high:
            bound = f"of at least {low}" if high is None else f"from {low} to {high}"
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {n}")
        return n
    return parse


def _prime(text: str) -> int:
    n = _integer(text)
    from .groups import PRIME_BOUND, is_prime

    if n >= PRIME_BOUND or not is_prime(n):
        raise argparse.ArgumentTypeError(f"--ell expects a prime below {PRIME_BOUND}, got {n}")
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
    # every prime's theta acts by y0's Frobenius matrix: one payload per
    # matrix, a shared list that json_text writes once
    payloads: dict[object, SharedList] = {}
    for ell in dict.fromkeys(args.ell):
        theta = compute_theta(bundle.pi1, ell)
        torsion, _ = theta.torsion_submodule()
        trivial = theta.acts_trivially()
        if theta.frobenius not in payloads:
            payloads[theta.frobenius] = SharedList(theta.frobenius.to_rows())
        per_ell[str(ell)] = {
            "theta": _group_payload(theta.group),
            "torsion": _group_payload(torsion.group),
            "frobenius_matrix": payloads[theta.frobenius],
            "frobenius_trivial": trivial,
        }
        lines.append(
            f"theta at ell={ell}: {theta.group.describe()} "
            f"(torsion {torsion.group.describe()}, Frobenius "
            f"{'trivial' if trivial else 'nontrivial'})"
        )
    return digest, {"primes": per_ell}, lines


def _cmd_alpha(args):
    bundle, digest = _load(args)
    per_ell = {}
    lines = []
    # the bundle keeps parse_config's check and H₁'s cycles, which do
    # not depend on the prime
    for ell in dict.fromkeys(args.ell):
        res = alpha_map(bundle, ell)
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


def _kernel_payloads(reports: tuple[KernelReport, ...]) -> list[dict]:
    """The payload of each report.  The reports of one run share their
    group objects, and across degrees their prime reports and the flags
    of their degree class, so each group's payload is built once per
    group object, each prime block once per prime report and each flags
    payload once per flags dict.  All are ``SharedDict`` objects, whose
    text ``json_text`` writes once."""
    built: dict[int, SharedDict] = {}

    def once(obj, build) -> SharedDict:
        # keyed by id: every object stays alive in the reports meanwhile
        payload = built.get(id(obj))
        if payload is None:
            payload = built[id(obj)] = SharedDict(build(obj))
        return payload

    def group(g: FgAbelianGroup) -> SharedDict:
        return once(g, _group_payload)

    def block(pr: PrimeReport) -> dict:
        return {
            "theta": group(pr.theta.group),
            "theta_torsion": group(pr.theta_torsion),
            "frobenius_trivial_on_torsion": pr.frobenius_trivial_on_torsion,
            "alpha_image": group(pr.alpha.image_group),
            "alpha_surjective": pr.alpha.surjective,
            "verdict": pr.verdict,
            "predicted_kernel": (
                group(pr.predicted_kernel) if pr.predicted_kernel is not None else None
            ),
            "kernel_bound": group(pr.kernel_bound),
            "warnings": list(pr.warnings),
        }

    return [{
        "f": report.f,
        "rational_point_flags": once(report.rational_point_flags,
                                     lambda flags: dict(sorted(flags.items()))),
        "assumption_rational_points": report.assumption_rational_points,
        "h1_quotient": group(report.h1_quotient.group),
        "primes": {str(ell): once(pr, block) for ell, pr in sorted(report.primes.items())},
    } for report in reports]


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
    if args.sweep is None:
        reports = (predict_kernel(bundle, args.ell, args.f),)
        trends = []
    else:
        result = sweep_extensions(bundle, args.ell, args.sweep)
        reports, trends = result.reports, sorted(result.trends.items())
    # main prints the payload under --json and the lines otherwise
    if not args.json:
        lines = [line for report in reports for line in _kernel_report_lines(report)]
        lines.extend(f"trend at ell={ell}: {t}" for ell, t in trends)
        return digest, None, lines
    payloads = _kernel_payloads(reports)
    if args.sweep is None:
        return digest, payloads[0], []
    return digest, {"sweep": payloads, "trends": {str(ell): t for ell, t in trends}}, []


def _cmd_example(args):
    if args.kind != "fermat" and (args.n is not None or args.cover):
        flag = "--n" if args.n is not None else "--cover"
        raise _UsageError(f"{flag} only applies to the fermat example")
    if args.kind == "fermat" and args.n is None:
        raise _UsageError("the fermat example requires --n")
    if args.cover:
        cover = fermat_cover_config(args.n)
        document = serialize_bundle(ConfigBundle(cover.name, cover, trivial_pi1(), {}))
    else:
        document = serialize_bundle(generate_example(args.kind, args.n))
    # the document ends in the one newline that main writes after each line
    return None, None, [document[:-1]]


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
    degree = p.add_mutually_exclusive_group()
    degree.add_argument("--f", type=_at_least(1), default=1, help="extension degree (default 1)")
    degree.add_argument("--sweep", type=_at_least(1), default=None, metavar="F_MAX",
                        help="report every extension degree 1..F_MAX")

    p = add("example", _cmd_example, needs_config=False,
            help="emit a bundled example document")
    p.add_argument("kind", choices=["rulings", "fermat"])
    p.add_argument("--n", type=_at_least(2), default=None, help="cover degree for fermat")
    p.add_argument("--cover", action="store_true",
                   help="emit the fermat cover configuration instead")

    p = add("oracle-check", _cmd_oracle_check, needs_config=False,
            help="compare the pipeline against the elimination oracle")
    p.add_argument("--count", type=_at_least(0), default=25)
    p.add_argument("--seed", type=int, default=0)
    # a random complex on n vertices has at most 4n simplices (n
    # vertices, 2n edges, n triangles), so every instance stays within
    # the oracle's size bound
    p.add_argument("--max-vertices", type=_at_least(1, ORACLE_SIZE_BOUND // 4), default=6)

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
    except (_UsageError, SnckitError, OSError) as exc:
        status = 2 if isinstance(exc, _UsageError) else 1
        prefix = f"snckit {args.command}: " if status == 2 else ""
        print(f"{prefix}error: {exc}", file=sys.stderr)
        if args.json:
            problems = exc.problems if isinstance(exc, ValidationError) else [str(exc)]
            _write([json_text({"command": args.command, "exit_status": status,
                               "problems": problems})])
        return status
    if args.json and payload is not None:
        report = {"command": args.command, "input_digest": digest, "results": payload}
        lines = [json_text(report)]
    return _write(lines)


def _write(lines: list[str]) -> int:
    """Write each line and a newline after it to stdout, as ``print``
    does, without copying a long report: 0, or 1 when the write fails.
    A closed pipe (a reader such as ``head`` that has stopped) fails
    silently, any other error with ``error: ...`` on stderr.  The
    standard stream still holds the unwritten text, which the
    interpreter would flush again at exit and report as an ignored
    exception, so its file descriptor is pointed at the null device
    first."""
    out = sys.stdout
    try:
        for line in lines:
            out.write(line)
            out.write("\n")
        out.flush()
    except OSError as exc:
        try:
            fd = out.fileno()
        except (AttributeError, OSError, ValueError):
            pass  # no descriptor behind it, so no flush at exit can fail
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
