"""Tests of the benchmark's own code: the oracle gate, the tracer's
clean-up and span folding, and the generators' stability.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import passes  # noqa: E402
import refcheck  # noqa: E402
import refspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from todx import KboOrder, Signature  # noqa: E402

NAMES = tuple(workloads.GENERATORS)

# sha256 of each workload's contents at seed 1; a change here changes
# every figure the benchmark reports.
GOLDEN = {
    "swap_lpo": "ba846a0a813ac6dba2379c46a842340e272219fc04887b7d55a2df43cbcbad50",
    "poly_kbo": "31acfef100f6694baf3ccb2deec97491b6a3d254d57cdcba49ec74747254af4f",
    "churn_kbo": "0b025044f895bb0a05e29e528cfa0025bba0855dff4571bc6e6b166f9b923e87",
}


def small(name: str, seed: int = 1, n: int = 60):
    w = workloads.GENERATORS[name](seed)
    return dataclasses.replace(w, ops=w.ops[:n])


def one_pass(workload, expected=None):
    bench = run.Bench(workload, expected or refcheck.expected_answers(workload))
    bench.run_pass(bench.untraced)
    return bench


def originals():
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
             else getattr(owner, attr)) for _, owner, attr in spans.TARGETS]


def assert_restored(saved):
    for owner, attr, original in saved:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner.__name__}.{attr} still wrapped"


@pytest.mark.parametrize("name", NAMES)
def test_all_modes_match_the_oracle(name):
    w = small(name)
    bench = one_pass(w)
    assert bench.failed == 0
    assert bench.attempted == len(passes.MODES) * len(w.ops)
    assert bench.unstable == 0


@pytest.mark.parametrize("name", NAMES)
def test_planted_wrong_answer_is_an_error(name):
    w = small(name)
    expected = refcheck.expected_answers(w)
    k = next(i for i, op in enumerate(w.ops) if op[0] == "q")
    expected[k] = tuple(sorted(set(expected[k]) ^ {1}))
    bench = one_pass(w, expected)
    assert bench.failed == len(passes.MODES)
    assert bench.failed / bench.attempted > 0


def test_error_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SWAP_QUERIES", 40)
    good = refcheck.expected_answers

    def planted(workload):
        out = good(workload)
        out[0] = (99,)
        return out

    monkeypatch.setattr(refcheck, "expected_answers", planted)
    code = run.main(["--workload", "swap_lpo", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == run.MIN_PASSES * len(passes.MODES)


def test_tracer_restores_every_wrapped_function():
    saved = originals()
    w = small("churn_kbo", n=20)
    bench = run.Bench(w, refcheck.expected_answers(w))
    metrics, _ = run.run_traced(bench, 0)
    assert_restored(saved)
    assert bench.failed == 0 and bench.unstable == 0
    assert metrics["tod.created.shared"][0] > 0
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    assert_restored(saved)


def test_recursion_folds_into_the_outermost_span():
    sig = Signature([("a", 0, 1, 0), ("b", 0, 1, 1), ("g", 1, 1, 2)])
    s, t = sig.intern("a"), sig.intern("b")
    for _ in range(30):
        s, t = sig.app("g", [s]), sig.app("g", [t])
    tracer = spans.Tracer()
    with tracer:
        KboOrder(sig).compare(s, t)     # recurses 30 levels down to a, b
    layers = tracer.drain()
    assert layers["ordering.plain"][1] == 1
    assert all(secs >= 0 for secs, _ in layers.values())


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    w = small("churn_kbo", n=20)
    untraced = run.run_untraced(run.Bench(w, refcheck.expected_answers(w)), 0)
    traced, _ = run.run_traced(run.Bench(w, refcheck.expected_answers(w)), 0)
    for section, metrics in (("end_to_end", untraced), ("per_layer", traced)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == {k: unit for k, (_, unit) in metrics.items()}


def test_times_are_scaled_by_the_reference_sample(monkeypatch):
    monkeypatch.setattr(refspeed, "sample", lambda: 2 * refspeed.REF_S)
    result = passes.timed_pass(passes.prepare(small("churn_kbo"), "shared"))
    assert len(result.ref) >= 1
    for raw, scaled in zip(result.latencies, result.scaled):
        assert scaled == pytest.approx(raw / 2)


def test_reference_task_keeps_no_objects():
    gc.disable()
    try:
        before = gc.get_count()[0]
        refspeed.sample()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_medians_cover_only_the_kept_passes():
    rec = run.ModeRecord(2)
    for k in range(run.KEEP + 3):
        lat = passes.array("d", [float(k), 100.0 + k])
        rec.add(passes.PassResult(lat, lat, 0.0, 0, [], passes.array("d")),
                0, {})
    kept = range(3, run.KEEP + 3)
    assert rec.medians() == [statistics.median(kept),
                             statistics.median(100.0 + k for k in kept)]
    assert len(rec.times) == 2 * run.KEEP


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_byte_stable(name):
    gen = workloads.GENERATORS[name]
    assert workloads.fingerprint(gen(1)) == workloads.fingerprint(gen(1))
    assert workloads.fingerprint(gen(1)) != workloads.fingerprint(gen(2))
    assert workloads.fingerprint(gen(1)) == GOLDEN[name]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_for_the_same_seed(name):
    a = one_pass(small(name, n=100))
    b = one_pass(small(name, n=100))
    for mode in passes.MODES:
        assert a.untraced[mode].counts == b.untraced[mode].counts


def test_reference_orders_on_known_pairs():
    kbo = refcheck.RefOrder("kbo", workloads.KBO_SYMBOLS)
    x, y = workloads.X, workloads.Y
    assert kbo.greater(("g", ("a",)), "b")              # weight 3 > 2
    assert kbo.greater(("f", (x, y)), ("g", (x,)))      # equal weight, f > g
    assert not kbo.greater(("g", (x,)), ("f", (x, y)))  # y missing on the left
    lpo = refcheck.RefOrder("lpo", workloads.SWAP_SYMBOLS)
    faa = ("f", ("a", "a"))
    assert lpo.greater(("f", (faa, "a")), ("f", ("a", faa)))
    assert not lpo.greater(("f", (x, y)), ("f", (y, x)))
    assert refcheck.instantiate(("f", (x, y)), {x: y, y: "a"}) == ("f", (y, "a"))
