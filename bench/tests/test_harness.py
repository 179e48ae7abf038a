"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Recorder, Span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from venuetrace import metrics, scenario, sim  # noqa: E402


@pytest.fixture(scope="module")
def honest_metrics() -> dict:
    sc = scenario.build_population_scenario(n_users=12, n_venues=2, days=3, seed=4)
    trace = sim.run(sc, "venue", 4)
    return json.loads(json.dumps(metrics.collect_metrics(trace.data).to_dict()))


def test_gate_passes_an_honest_run(honest_metrics):
    assert gate.check_metrics(honest_metrics) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("recall",), 0.5),
        (("precision",), 0.75),
        (("rejections",), {"bad-opening": 1}),
        (("data_minimisation_violations",), 2),
        (("adversary", "cross_venue_ephid_matches"), 1),
        (("adversary", "cross_visit_ephid_matches"), 3),
        (("ground_truth_pairs",), []),
        (("accepted_reports",), 0),
    ],
)
def test_gate_rejects_a_tampered_metrics_dict(honest_metrics, path, value):
    tampered = copy.deepcopy(honest_metrics)
    target = tampered
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert gate.check_metrics(tampered)


def test_gate_compares_repeats_and_replays(honest_metrics):
    assert gate.check_repeat(b"{}\n", b"{}\n") == []
    assert gate.check_repeat(b'{"recall":1.0}\n', b'{"recall":0.5}\n')
    assert gate.check_replay(honest_metrics, copy.deepcopy(honest_metrics)) == []
    changed = {**honest_metrics, "deliveries": honest_metrics["deliveries"] + 1}
    assert gate.check_replay(honest_metrics, changed) == ["replay metrics differ from run metrics in ['deliveries']"]


def _tree() -> list[Span]:
    # bench.run [0, 10]
    #   sim.emit [1, 4]
    #   actors.process_report [5, 9]
    #     crypto.verify [6, 8]
    #       crypto.verify [6.5, 7]   (nested call of the same name)
    return [
        Span(4, 3, "crypto.verify", 6.5, 7.0, "r"),
        Span(3, 2, "crypto.verify", 6.0, 8.0, "r"),
        Span(2, 0, "actors.process_report", 5.0, 9.0, "r"),
        Span(1, 0, "sim.emit", 1.0, 4.0, "r"),
        Span(0, None, "bench.run", 0.0, 10.0, "r"),
        Span(5, None, "bench.replay", 11.0, 12.0, "r"),
    ]


def test_self_time_is_duration_minus_children():
    selfs = tracer.self_times(_tree())
    assert selfs == {0: 3.0, 1: 3.0, 2: 2.0, 3: 1.5, 4: 0.5, 5: 1.0}
    # self times under a root add up to the root's duration
    assert sum(selfs[i] for i in range(5)) == 10.0


def test_busy_time_counts_nested_same_name_once():
    busy = tracer.busy_times(_tree())
    assert busy["crypto.verify"] == 2.0
    assert busy["bench.run"] == 10.0


def test_layer_self_times_cover_only_the_named_root():
    layers = tracer.layer_self_times(_tree(), "bench.run")
    assert layers["crypto"] == 2.0
    assert layers["actors"] == 2.0
    assert layers["sim"] == 3.0
    assert layers["metrics"] == 0.0


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert tracer.percentile(values, 50) == 50.0
    assert tracer.percentile(values, 99) == 99.0
    assert tracer.percentile([3.0], 99) == 3.0
    assert tracer.percentile([], 50) == 0.0


def test_recorder_patches_and_restores():
    def double(x):
        return 2 * x

    def maybe(x):
        return None if x < 0 else x

    ns = SimpleNamespace(double=double, maybe=maybe)
    rec = Recorder()
    rec.install([
        (ns, "double", "demo.double", True, None),
        (ns, "maybe", "demo.maybe", False, "demo.maybe.hits"),
        (ns, "gone", "demo.gone", True, None),
    ])
    assert rec.missing == ["demo.gone"]
    assert not hasattr(ns, "gone")
    with rec.span("bench.run"):
        assert ns.double(3) == 6
        assert [ns.maybe(v) for v in (-1, 0, 1)] == [None, 0, 1]
    rec.uninstall()
    assert ns.double is double and ns.maybe is maybe
    assert rec.counts["demo.double"] == 1
    assert rec.counts["demo.maybe"] == 3
    assert rec.counts["demo.maybe.hits"] == 2
    assert [s.name for s in rec.spans] == ["demo.double", "bench.run"]
    assert rec.spans[0].parent_id == rec.spans[1].span_id


def test_installed_restores_after_an_error_and_keeps_counts():
    def triple(x):
        return 3 * x

    ns = SimpleNamespace(triple=triple)
    rec = Recorder()
    with pytest.raises(ZeroDivisionError):
        with rec.installed([(ns, "triple", "demo.triple", False, None)]):
            ns.triple(1)
            1 / 0
    assert ns.triple is triple
    with rec.installed([(ns, "triple", "demo.triple", True, None)]):
        ns.triple(2)
    assert ns.triple is triple
    assert rec.counts["demo.triple"] == 2
    assert [s.name for s in rec.spans] == ["demo.triple"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_argument_changes_the_generated_scenario(name):
    wl = WORKLOADS[name]

    def build(seed: int) -> dict:
        return scenario.build_population_scenario(**wl.build_kwargs(seed)).to_dict()

    assert build(1) == build(1)
    assert build(1) != build(2)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
