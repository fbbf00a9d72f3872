"""Self-tests of the benchmark: ``python3 -m pytest -q bench``.

They check that the generators are deterministic, that every checker
rejects a planted wrong answer (so a zero error rate cannot pass
vacuously), that a job past its time limit counts as failed, and that
traced counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from snckit.cli import main  # noqa: E402
from spans import Tracer  # noqa: E402


def report_for(tmp_path: Path, doc: dict, job: gen.Job) -> dict:
    path = tmp_path / f"{job.doc}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(job.argv(str(path))) == 0
    return json.loads(out.getvalue())


def judged(doc, job, report) -> list[str]:
    return check.Checker({job.doc: doc})(job, report)


def planted(report: dict, edit) -> dict:
    wrong = copy.deepcopy(report)
    edit(wrong["results"])
    return wrong


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_byte_identical_for_one_seed(workload):
    def dump(wl):
        return json.dumps([wl.docs, [j.__dict__ for j in wl.jobs]], sort_keys=True)

    assert dump(gen.build(workload, 7, 2)) == dump(gen.build(workload, 7, 2))


def test_seeded_workloads_depend_on_the_seed():
    for workload in ("dense-kernel", "extension-sweep"):
        assert gen.build(workload, 1, 1).docs != gen.build(workload, 2, 1).docs


def test_cover_checks_reject_wrong_answers(tmp_path):
    doc = gen.example_document("fermat", "--n", "25", "--cover")
    zn = gen.Job("cover-25", "homology", ("--coeff", "z/6"), {"kind": "cover", "n": 25, "modulus": 6})
    report = report_for(tmp_path, doc, zn)
    assert judged(doc, zn, report) == []
    assert judged(doc, zn, planted(report, lambda r: r["group"].update(invariant_factors=[5])))

    def break_cycle(r):
        rep = r["representatives"][0]
        rep[next(iter(rep))] += 1

    assert judged(doc, zn, planted(report, break_cycle))

    norm = gen.Job("cover-25", "norm", ("--f", "25"), {"kind": "cover", "n": 25, "f": 25})
    report = report_for(tmp_path, doc, norm)
    assert judged(doc, norm, report) == []
    assert judged(doc, norm, planted(report, lambda r: r.update(matrix=[[24]])))

    extend = gen.Job("cover-25", "extend", ("--f", "5"), {"kind": "cover", "n": 25, "f": 5})
    report = report_for(tmp_path, doc, extend)
    assert judged(doc, extend, report) == []
    assert report["results"]["complex"]["counts"] == [10, 10]
    assert judged(doc, extend, planted(report, lambda r: r["complex"].update(counts=[2, 2])))


def test_suspension_checks_reject_wrong_answers(tmp_path):
    doc = gen.suspension_document(2)
    base = {"kind": "suspension", "k": 2}
    for job, edit in (
        (gen.Job("suspension-2", "homology", ("--degree", "3"), {**base, "modulus": None}),
         lambda r: r["group"].update(free_rank=0, invariant_factors=[2])),
        (gen.Job("suspension-2", "homology", ("--degree", "3", "--coeff", "z/6"),
                 {**base, "modulus": 6}),
         lambda r: r["group"].update(invariant_factors=[3])),
        (gen.Job("suspension-2", "dual-complex", (), base),
         lambda r: r.update(euler_characteristic=2)),
        (gen.Job("suspension-2", "validate", (), base),
         lambda r: r.update(strata=r["strata"] - 1)),
    ):
        report = report_for(tmp_path, doc, job)
        assert judged(doc, job, report) == [], job
        assert judged(doc, job, planted(report, edit)), job


def test_dense_checks_reject_wrong_answers(tmp_path):
    rng = random.Random(3)
    doc = gen.dense_document(rng, 12, "dense")
    for command, edit in (
        ("theta", lambda r: r["primes"]["2"]["theta"].update(invariant_factors=[2, 2, 2, 2, 2])),
        ("theta", lambda r: r["primes"]["3"]["theta"].update(free_rank=1)),
        ("kernel", lambda r: r["primes"]["5"]["alpha_image"].update(invariant_factors=[7])),
        ("kernel", lambda r: r["primes"]["2"].update(verdict="bound")),
    ):
        job = gen.Job("dense", command, gen.ELL_ARGS, {"kind": "dense"})
        report = report_for(tmp_path, doc, job)
        assert judged(doc, job, report) == [], command
        assert judged(doc, job, planted(report, edit)), command


def test_dense_reference_facts():
    # diag(4, 9, 5): |det| = 180, label (1, 3, 0) has order lcm(4, 3) = 12
    doc = {"pi1_y0": {"relations": [[4, 0, 0], [0, 9, 0], [0, 0, 5]]},
           "edge_labels": {"P1": [1, 3, 0]}}
    facts = check.dense_facts(doc)
    assert facts["det"] == 180
    assert facts["ranks"] == {2: 2, 3: 2, 5: 2}
    assert facts["label_order"] == 12


@pytest.mark.parametrize("shape, e", [("copies", 4), ("block", 4), ("coned", 3)])
def test_sweep_checks_reject_wrong_answers(tmp_path, shape, e):
    doc = gen.admissible_document(random.Random(5), shape, e, 2, "sweep")
    job = gen.Job("sweep", "kernel", (*gen.ELL_ARGS, "--sweep", str(e)),
                  {"kind": "sweep", "shape": shape, "e": e})
    report = report_for(tmp_path, doc, job)
    assert judged(doc, job, report) == []

    def flip_verdict(r):
        pr = r["sweep"][0]["primes"]["3"]
        pr["verdict"] = "exact" if pr["verdict"] == "bound" else "bound"

    assert judged(doc, job, planted(report, flip_verdict))
    assert judged(doc, job, planted(
        report, lambda r: r["sweep"][1]["primes"]["3"]["theta"].update(invariant_factors=[3])))
    assert judged(doc, job, planted(
        report, lambda r: r["sweep"][0]["h1_quotient"].update(free_rank=5)))


def test_copies_labels_reach_a_nontrivial_alpha_image():
    doc = gen.admissible_document(random.Random(11), "copies", 4, 2, "copies")
    assert any(doc["edge_labels"].values())
    assert check.label_image_order(doc, 9) > 1


def test_timeout_counts_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "JOB_LIMIT_S", 1)
    previous = run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    try:
        runner = run.Runner("suspension-tower", 1, 1, False)
        runner.paths = {"doc": tmp_path / "doc.json"}
        job = gen.Job("doc", "validate", (), {"kind": "suspension", "k": 2})
        elapsed, status, _, error, _ = runner.call(lambda argv: time.sleep(5), job)
    finally:
        run.signal.signal(run.signal.SIGALRM, previous)
    assert status is None and "ran past" in error
    assert elapsed < 3


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
    assert sum(1 for i in range(40) if i > value) == 10


def test_traced_counts_repeat_exactly(tmp_path):
    wl = gen.build("extension-sweep", 4, 1)
    jobs = [j for j in wl.jobs if j.doc.startswith(("fermat", "block-e3", "coned-e3"))]
    for name, doc in wl.docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")

    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            for index, job in enumerate(jobs):
                tracer.start_job(index)
                with contextlib.redirect_stdout(io.StringIO()):
                    sys.modules["snckit.cli"].main(job.argv(str(tmp_path / f"{job.doc}.json")))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        return dict(summary["calls"]), dict(tracer.counts), len(tracer.repeats)

    first = counts()
    assert first == counts()
    calls = first[0]
    assert calls["cli.main"] == len(jobs)
    assert calls["matrices.snf"] > 0 and first[2] > 0
