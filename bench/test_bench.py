"""Tests of the benchmark itself:  python3 -m pytest bench"""
from __future__ import annotations

import copy
import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from toricnash import cli  # noqa: E402
from tracing import Trace  # noqa: E402

SEED = run.DEFAULT_SEED
FEW = 25  # batch items analysed by the tests that run the library


@pytest.fixture(scope="module")
def expected():
    return checks.load_expected()


@pytest.fixture(scope="module")
def batch():
    return workloads.inputs("batch", SEED)


def test_same_seed_same_inputs(batch):
    for workload in run.WORKLOADS:
        assert workloads.inputs(workload, SEED) == \
            workloads.inputs(workload, SEED)
    assert workloads.inputs("batch", SEED) == batch


def test_other_seed_changes_batch_draw(batch):
    other = workloads.inputs("batch", SEED + 1)
    assert [spec for _, spec, _ in other] != [spec for _, spec, _ in batch]


def test_named_surfaces_keep_their_generator_sets():
    for workload, table in workloads.NAMED.items():
        for seed in (SEED, SEED + 1):
            items = workloads.inputs(workload, seed)
            assert [(label, sorted(spec.generators), spec.order)
                    for label, spec, _ in items] == \
                [(label, sorted(gens), order) for label, gens, order in table]


def test_batch_mix(batch):
    specs = [spec for _, spec, _ in batch]
    refused = [err for _, _, err in batch if err is not None]
    assert 0 < len(refused) < 0.1 * len(batch)
    groebner = sum(spec.family == "groebner" for spec in specs)
    assert groebner == round(len(specs) / 3)
    assert all(len(spec.generators) <= 5 for spec in specs)
    assert all(abs(c) <= workloads.BOX for spec in specs
               for g in spec.generators for c in g)


def test_tail_percentile_rule():
    values = [float(v) for v in range(100, 0, -1)]
    # 100 samples: the 90th smallest has exactly ten samples above it
    assert run.tail_latency(values) == (90.0, 90.0, 100)
    assert run.tail_latency([5.0] * 3 + [1.0] * 8) == (1.0, 100 / 11, 11)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)


def _report(spec):
    _, outcome = run.analyze(cli, spec)
    assert isinstance(outcome, dict)
    return outcome


def test_mutated_report_fails_digest_check(batch, expected):
    index = next(i for i, (_, _, err) in enumerate(batch) if err is None)
    label, spec, err = batch[index]
    report = _report(spec)
    checker = checks.Checker("batch", SEED, expected, SEED)
    assert checker.problems(index, label, err, report) == []

    wrong_verdict = copy.deepcopy(report)
    wrong_verdict["verdict"]["witness"] = None if \
        wrong_verdict["verdict"]["witness"] else [0]
    assert checker.problems(index, label, err, wrong_verdict)

    # warnings are not part of the answer
    noisy = copy.deepcopy(report)
    noisy["warnings"].append("fell back 99 times")
    assert checker.problems(index, label, err, noisy) == []


def test_independent_batch_check_catches_bad_relation(batch, expected):
    index = next(i for i, (_, _, err) in enumerate(batch) if err is None)
    label, spec, err = batch[index]
    report = _report(spec)
    checker = checks.Checker("batch", SEED + 1, expected, SEED)
    assert checker.digests is None
    assert checker.problems(index, label, err, report) == []
    bad = copy.deepcopy(report)
    bad["ideal"]["groebner_basis"][0]["minus"][0] += 1
    assert checker.problems(index, label, err, bad)
    assert checker.problems(index, label, err, "NotMinimal")


def test_refusal_is_checked_against_its_name(batch, expected):
    index = next(i for i, (_, _, err) in enumerate(batch) if err is not None)
    label, spec, err = batch[index]
    _, outcome = run.analyze(cli, spec)
    assert outcome == err
    for seed in (SEED, SEED + 1):
        checker = checks.Checker("batch", seed, expected, SEED)
        assert checker.problems(index, label, err, outcome) == []
        assert checker.problems(index, label, err, "InvalidGeneratorSet")


def test_traced_and_untraced_digests_agree(batch, expected):
    items = batch[:FEW]
    plain = [run.analyze(cli, spec)[1] for _, spec, _ in items]
    trace = Trace()
    with trace.installed():
        traced = [run.analyze(cli, spec)[1] for _, spec, _ in items]
    assert len(trace) > 0
    for (_, _, err), a, b, want in zip(items, plain, traced, expected["batch"]):
        da = checks.refusal(a) if isinstance(a, str) else checks.digest(a, False)
        db = checks.refusal(b) if isinstance(b, str) else checks.digest(b, False)
        assert da == db == want


def test_self_time_is_span_minus_children():
    trace = Trace()
    inner = trace.wrap(lambda: time.sleep(0.02), "nash.inner")
    outer = trace.wrap(lambda: (inner(), inner(), time.sleep(0.01)),
                       "cli.build_report")
    trace.current_analysis = 7
    outer()
    totals = trace.summary(0, len(trace))
    assert totals["nash.inner"]["calls"] == 2
    assert totals["cli.build_report"]["self_s"] == pytest.approx(
        totals["cli.build_report"]["s"] - totals["nash.inner"]["s"])
    assert totals["cli.build_report"]["self_s"] > 0.005
    assert totals["nash.top_level"]["s"] == totals["nash.inner"]["s"]
    assert list(trace.summary(0, len(trace), by_analysis=True)) == [7]


def test_trace_restores_bindings():
    before = cli.build_report, cli.toric_ideal
    with Trace().installed():
        assert cli.build_report is not before[0]
    assert (cli.build_report, cli.toric_ideal) == before


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = list(run.layer_metrics({}, Counter(), 1.0)) + \
        ["trace.overhead_frac"]
    assert per_layer == {name: run.unit(name) for name in names}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.unit(m["name"])


def _busy(seconds):
    t = time.thread_time()
    while time.thread_time() - t < seconds:
        pass


def test_meter_scales_by_round_time_and_drops_calibration():
    meter = speed.Meter()  # timer not armed: ticks are set by hand
    meter.ticks = [speed.REF_ROUND_S / 2] * speed.WINDOW  # a fast machine
    mark = meter.start()
    meter.calibration_s += 1.0  # a tick that took a second
    _busy(0.01)
    scaled = meter.stop(mark)
    assert meter.unscaled_s < 0.1  # the tick's second is left out
    # with no tick during the work, the last WINDOW ticks set the speed
    assert scaled == pytest.approx(2 * meter.unscaled_s)


def test_meter_ticks_during_work_and_disarms():
    before = signal.getsignal(signal.SIGPROF)
    with speed.Meter() as meter:
        mark = meter.start()
        _busy(3 * speed.WINDOW * speed.TICK_S)
        meter.stop(mark)
    assert len(meter.ticks) > 2 * speed.WINDOW
    assert meter.calibration_s > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == before
