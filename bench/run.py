"""The snckit benchmark: one client, closed loop, one process.

    python3 bench/run.py --workload cover-homology --seed 1 --seconds 20 --trace 0

A job is one in-process call of the public entry point
``snckit.cli.main([..., "--json"])`` on a generated document, with its
output captured; each job starts when the previous one has finished.
Set-up (a fresh interpreter importing snckit, then generating and
writing the documents) is timed separately and repeated, and its median
is reported.  Every answer is checked independently (``check.py``), one
job per unit is re-run for byte-identical output, and each job runs
under a time limit.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` every job runs twice, untraced
and with the wrappers of ``spans.py`` installed, and the object holds
the per-layer metrics.  ``--workload all`` runs every workload in its
own process and prints one row each.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
from check import Checker
from spans import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
WORK_DIR = BENCH_DIR / ".work"

SETUP_REPEATS = 9
JOB_LIMIT_S = 60
# The machine this benchmark was defined on (2 shared cores) changes speed
# by up to 40% for seconds at a time, and whole runs by 10-15%.  Every
# time is therefore measured against a fixed pure-Python reference loop
# run around (and every PROBE_EVERY_S of CPU time inside) each timed
# region, and reported in reference seconds: wall seconds scaled to the
# loop taking PROBE_REFERENCE_S, about its typical time on that machine.
PROBE_LOOPS = 20_000
PROBE_EVERY_S = 0.2
PROBE_REFERENCE_S = 1.5e-3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import snckit; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job ran past {JOB_LIMIT_S} s")


def probe() -> float:
    """Seconds for a fixed pure-Python loop of about 2 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, probes: list[float]) -> float:
    """Wall seconds converted to reference seconds: what the time would
    have been had the reference loop run at PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / statistics.fmean(probes)


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is (nearest rank).  With ten samples or fewer,
    the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        units = gen.units_for(workload, seconds)
        # a traced run executes its list twice, untraced and traced
        self.units = max(1, round(units / 2)) if trace else units
        self.problems: list[str] = []

    # -- set-up -------------------------------------------------------

    def _fresh_import(self) -> float:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip())

    def setup(self, workdir: Path) -> None:
        setups, imports, digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            before = probe()
            start = time.perf_counter()
            imports.append(self._fresh_import())
            wl = gen.build(self.workload, self.seed, self.units)
            paths = {}
            for name, doc in wl.docs.items():
                path = workdir / f"{name}.json"
                path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                paths[name] = path
            setups.append(scaled(time.perf_counter() - start, [before, probe()]))
            digests.add(hashlib.sha256(
                json.dumps([wl.docs, [j.__dict__ for j in wl.jobs]], sort_keys=True).encode()
            ).hexdigest())
        if len(digests) != 1:
            self.problems.append("generator output differs between set-ups of one seed")
        self.wl, self.paths = wl, paths
        self.setup_s = statistics.median(setups)
        self.import_s = statistics.median(imports)
        self.checker = Checker(wl.docs)
        self.digests = {name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for name, p in paths.items()}

    # -- jobs ---------------------------------------------------------

    def call(self, main, job) -> tuple[float, int | None, str, str, list[float]]:
        """One closed-loop job: (seconds, exit status or None, stdout, error,
        probe seconds).  The reference loop runs right before and after the
        job and every PROBE_EVERY_S of CPU time inside it; the time spent in
        it is not counted as job time."""
        out, err = io.StringIO(), io.StringIO()
        status, error = None, ""
        samples = [probe()]
        inside: list[float] = []
        signal.signal(signal.SIGPROF, lambda signum, frame: inside.append(probe()))
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        signal.alarm(JOB_LIMIT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(job.argv(str(self.paths[job.doc])))
        except JobTimeout as exc:
            error = str(exc)
        except Exception as exc:  # a crash is a failed job, not a benchmark error
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            signal.alarm(0)
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        samples += inside
        samples.append(probe())
        if status not in (None, 0):
            error = f"exit status {status}: {err.getvalue().strip()[:300]}"
        return elapsed - sum(inside), status, out.getvalue(), error, samples

    def judge(self, job, stdout: str, error: str) -> list[str]:
        if error:
            return [error]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        problems = []
        if report.get("command") != job.command:
            problems.append(f"command {report.get('command')!r}, expected {job.command!r}")
        if report.get("input_digest") != self.digests[job.doc]:
            problems.append("input digest does not match the document bytes")
        return problems + self.checker(job, report)

    def run_plain(self) -> dict:
        """The job list once, timed; one job per unit runs a second time,
        untimed, and must print the same bytes."""
        from snckit.cli import main

        jobs = self.wl.jobs
        rerun = set(random.Random(f"rerun:{self.seed}").sample(range(len(jobs)), self.units))
        times, probes, failed = [], [], 0
        for index, job in enumerate(jobs):
            gc.collect()
            elapsed, status, stdout, error, samples = self.call(main, job)
            probes.append(samples)
            times.append(elapsed)
            problems = self.judge(job, stdout, error)
            if not problems and index in rerun and self.call(main, job)[2] != stdout:
                problems.append("output bytes differ on a repeat")
            if problems:
                failed += 1
                self.problems.append(f"{job.doc} {job.command} {' '.join(job.options)}: "
                                     + "; ".join(problems[:3]))
        ok = len(times) - failed
        raw = times
        times = [scaled(t, samples) for t, samples in zip(raw, probes)]
        self.raw = {"jobs_per_s": ok / sum(raw), "job_s.p50": statistics.median(raw),
                    "job_s.tail": tail(raw)[0]}
        tail_s, tail_pct = tail(times)
        self.notes = [f"{len(times)} jobs in {self.units} units; tail is p{tail_pct:.1f}",
                      f"error_rate {failed / len(times):.4f} (failed/attempted)",
                      "uncalibrated wall clock: " + ", ".join(
                          f"{k} {v:.6g}" for k, v in self.raw.items())]
        metrics = {
            "jobs_per_s": ok / sum(times),
            "job_s.p50": statistics.median(times),
            "job_s.tail": tail_s,
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {"attempted": len(times), "failed": failed,
                "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}

    def run_traced(self) -> dict:
        """Each job untraced and traced back to back, in alternating order,
        so that drift in the machine's speed cancels out of the overhead."""
        from snckit.cli import main

        tracer = Tracer()
        plain_s, failed, outputs = 0.0, 0, []
        for index, job in enumerate(self.wl.jobs):
            runs = {}
            for traced in ((False, True) if index % 2 else (True, False)):
                gc.collect()
                if traced:
                    tracer.start_job(index)
                    tracer.install()
                    try:
                        # the wrapper of snckit.cli.main is the root span
                        runs[traced] = self.call(sys.modules["snckit.cli"].main, job)
                    finally:
                        tracer.uninstall()
                        tracer.start_job(None)
                else:
                    runs[traced] = self.call(main, job)
            plain_s += runs[False][0]
            problems = self.judge(job, runs[True][2], runs[True][3])
            if runs[True][2] != runs[False][2]:
                problems.append("traced and untraced output bytes differ")
            if problems:
                failed += 1
                self.problems.append(f"{job.doc} {job.command}: " + "; ".join(problems[:3]))
            outputs.append(runs[True][2])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{self.workload}-{self.seed}.jsonl"
        tracer.write(trace_path)
        report_bytes = sum(len(o.encode("utf-8")) for o in outputs)
        metrics = layer_metrics(tracer, self.wl.jobs, report_bytes, self.import_s, plain_s)
        shares = {k[6:]: v for k, (v, _) in metrics.items() if k.startswith("share.")}
        construction = shares["config_io"] + shares["snc"] + shares["complexes"]
        self.notes = [
            f"{len(self.wl.jobs)} jobs in {self.units} units, each run untraced and traced; "
            f"spans in {trace_path.relative_to(ROOT)}",
            "self-time shares: " + ", ".join(
                f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
                if k != "repeated"),
            f"construction (config_io+snc+complexes) {construction:.3f}; repeated stage "
            f"calls (inclusive) {shares['repeated']:.3f}",
            f"tracing overhead {metrics['trace.overhead'][0]:+.1%} of untraced job time",
        ]
        return {"attempted": len(self.wl.jobs), "failed": failed, "metrics": metrics}


def run_one(args) -> int:
    if not (SRC / "snckit" / "__init__.py").is_file():
        print(f"error: no snckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import snckit  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import snckit from {SRC}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        runner.setup(workdir)
        result = runner.run_traced() if args.trace else runner.run_plain()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"FAIL {problem}")
    print(f"{args.workload} seed {args.seed}: " + "; ".join(runner.notes))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one row each."""
    if not (SRC / "snckit" / "__init__.py").is_file():
        print(f"error: no snckit sources under {SRC}", file=sys.stderr)
        return 2
    rows, correct, attempted, failed = {}, True, 0, 0
    for workload in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        rows[workload] = last
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'workload':18s} {'error_rate':>10s} " + " ".join(f"{n:>14s}" for n in names))
    for workload, row in rows.items():
        cells = " ".join(f"{row['metrics'][n]['value']:>14.6g}" for n in names)
        print(f"{workload:18s} {row['failed'] / row['attempted']:>10.4f} {cells}")
    print("units: error_rate fraction; " + ", ".join(
        f"{n} {next(iter(rows.values()))['metrics'][n]['unit']}" for n in names))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {f"{w}.{n}": m for w, row in rows.items() for n, m in row["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default) for one row each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(gen.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
