"""The benchmark's own tests, on tiny inputs (well under a second each
except the subprocess check)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._require_source()

import talex  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from talex import verify  # noqa: E402
from talex.twisted import CrossCheckMismatch  # noqa: E402


def tiny_items():
    frac = talex.TwoBridgeFraction
    return (
        workloads.dihedral_item(frac(27, 5), 3),
        workloads.nqp_item(frac(9, 1), 4, 3, verify.NQP_GOLDENS[((9, 1), 4, 3)]),
        workloads.report_item(frac(85, 19), 5),
    )


def traced_outcome(items):
    with tracer.Tracer() as tr:
        outcome = run.run_passes(items, 0, min_passes=1, tracer=tr)
    return tr, outcome


def test_traced_and_untraced_digests_agree():
    items = tiny_items()
    plain = run.run_passes(items, 0, min_passes=2)
    _, under = traced_outcome(items)
    for outcome in (plain, under):
        run.check_outputs(items, outcome)
        assert outcome.failures == {}
    assert run.workloads_digest(plain) == run.workloads_digest(under)


def test_self_times_sum_to_no_more_than_wall():
    tr, outcome = traced_outcome(tiny_items())
    self_total = sum(stat.self_time for stat in tr.stats.values())
    assert 0 < self_total <= sum(outcome.walls)
    assert tr.stats["twisted.nqp_total"].calls == 1
    assert tr.stats["intfactor.int_poly_factor"].calls == 0  # 19/85 splits
    assert all(s is not None for s in tr.spans)


def test_every_wrapped_name_resolves_and_is_restored():
    originals = (talex.dihedral_total, talex.twisted.wada, talex.RingMatrix.det)
    with tracer.Tracer() as tr:
        assert tr.absent == []
        assert talex.dihedral_total is not originals[0]
        assert talex.factorization.dihedral_total is talex.dihedral_total
    assert (talex.dihedral_total, talex.twisted.wada, talex.RingMatrix.det) == originals


def test_contract_names_the_workloads_and_layer_metrics_the_code_has():
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = set(tracer.Tracer().metrics(1, 1)) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"
    }
    assert traced == {m["name"] for m in contract["per_layer"]}
    names = {w["name"] for w in contract["workloads"]}
    assert names == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_absent_function_reports_zero_calls(monkeypatch):
    targets = dict(tracer.TARGETS, words=("fox_derivative", "no_such_walk"))
    monkeypatch.setattr(tracer, "TARGETS", targets)
    tr, _ = traced_outcome(tiny_items()[:1])
    assert tr.absent == ["words.no_such_walk"]
    metrics = tr.metrics(1, 1)
    assert metrics["words.no_such_walk.calls"] == (0.0, "count")
    assert metrics["words.fox_derivative.calls"][0] > 0


def test_fail_ratio_counts_an_injected_exception():
    def boom():
        raise CrossCheckMismatch("injected")

    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first call only")
        return 2

    broken = workloads.Item("broken", boom, str, lambda out: None)
    wrong = workloads.Item("wrong", lambda: 1, str, lambda out: "wrong output")
    half = workloads.Item("half", flaky, str, lambda out: "wrong output")
    items = tiny_items()[:1] + (broken, wrong, half)
    outcome = run.run_passes(items, 0, min_passes=2)
    run.check_outputs(items, outcome)
    assert outcome.attempted == 8
    assert outcome.failed == 6
    assert outcome.failures["CrossCheckMismatch in broken"] == 2
    assert outcome.failures["RuntimeError in half"] == 1
    assert outcome.failures["half: wrong output"] == 1


@pytest.mark.parametrize("alpha, beta", [(3, 1), (27, 5), (85, 19), (85, 66), (115, 21), (301, 44)])
def test_closed_form_alexander_matches_the_library(alpha, beta):
    f = talex.TwoBridgeFraction(alpha, beta)
    assert workloads.alexander_2bridge(f) == talex.alexander(talex.presentation(f))


@pytest.mark.parametrize("n, index, pct", [(4, 3, 100.0), (11, 0, 100 / 11), (40, 29, 75.0)])
def test_tail_index(n, index, pct):
    assert run.tail_index(n) == (index, pytest.approx(pct))


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
