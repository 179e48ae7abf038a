from venuetrace.metrics import (
    ExposurePolicy,
    collect_metrics,
    comparison_rows,
    ground_truth_exposures,
)
from venuetrace.scenario import build_population_scenario
from venuetrace.sim import BROADCAST_KEYS, run

DAY = 86400


def synthetic_trace(presence, reporters):
    return {"presence": presence, "outcomes": {"reporters": reporters}}


def seg(user, start, end, location, x=0.0, y=0.0):
    return {"user": user, "start": start, "end": end, "location": location, "x": x, "y": y}


class TestGroundTruthOracle:
    def test_long_close_contact_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1000 + 1080, "v0", 0.0, 0.0),
                seg("bob", 1000, 1000 + 1080, "v0", 1.0, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace) == {("bob", "v0", "sick")}

    def test_ten_second_street_encounter_not_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1010, None, 0.0, 0.0),
                seg("bob", 1000, 1010, None, 0.5, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace) == set()

    def test_twenty_minutes_at_five_meters_not_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1000 + 1200, "v0", 0.0, 0.0),
                seg("bob", 1000, 1000 + 1200, "v0", 5.0, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace) == set()

    def test_exactly_fifteen_minutes_exposed(self):
        trace = synthetic_trace(
            [
                seg("sick", 0, 900, "v0", 0.0, 0.0),
                seg("bob", 0, 900, "v0", 2.0, 0.0),  # exactly at the distance gate
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace) == {("bob", "v0", "sick")}

    def test_contiguous_pieces_merge(self):
        # bob shifts seat mid-contact; both positions stay within 2 m
        trace = synthetic_trace(
            [
                seg("sick", 0, 1000, "v0", 0.0, 0.0),
                seg("bob", 0, 500, "v0", 1.0, 0.0),
                seg("bob", 500, 1000, "v0", 1.5, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        assert ground_truth_exposures(trace) == {("bob", "v0", "sick")}

    def test_contact_outside_contagious_period_ignored(self):
        trace = synthetic_trace(
            [
                seg("sick", 1000, 1000 + 1080, "v0", 0.0, 0.0),
                seg("bob", 1000, 1000 + 1080, "v0", 1.0, 0.0),
            ],
            {"sick": [DAY, 2 * DAY]},
        )
        assert ground_truth_exposures(trace) == set()

    def test_policy_overrides(self):
        trace = synthetic_trace(
            [
                seg("sick", 0, 600, "v0", 0.0, 0.0),
                seg("bob", 0, 600, "v0", 3.0, 0.0),
            ],
            {"sick": [0, DAY]},
        )
        relaxed = ExposurePolicy(distance_m=4.0, duration_seconds=300)
        assert ground_truth_exposures(trace, relaxed) == {("bob", "v0", "sick")}
        assert ground_truth_exposures(trace) == set()


class TestCollectMetrics:
    def test_population_run_reports_all_sections(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        report = collect_metrics(trace.data)
        assert report.protocol == "venue"
        assert 0.0 <= report.recall <= 1.0
        assert report.data_minimisation_violations == 0
        assert set(report.duty_cycle) == set(sc.users)
        assert report.accepted_reports > 0
        d = report.to_dict()
        assert d["recall"] == report.recall

    def test_rethresholding_without_resimulation(self):
        sc = build_population_scenario(n_users=10, days=3, seed=4)
        trace = run(sc, "venue", seed=4)
        strict = collect_metrics(trace.data, exposure_seconds=100 * 3600)
        assert strict.at_risk_users == []

    def test_duty_cycle_values(self):
        sc = build_population_scenario(n_users=6, days=2, seed=5)
        venue_duty = collect_metrics(run(sc, "venue", seed=5).data).mean_duty_cycle
        dp3t_duty = collect_metrics(run(sc, "dp3t", seed=5).data).mean_duty_cycle
        assert 0.0 < venue_duty < 0.2
        assert dp3t_duty == 1.0

    def test_comparison_rows(self):
        sc = build_population_scenario(n_users=6, days=2, seed=6)
        reports = [collect_metrics(run(sc, p, seed=6).data) for p in ("venue", "dp3t")]
        rows = comparison_rows(reports)
        assert [r["protocol"] for r in rows] == ["venue", "dp3t"]
        assert all("recall" in r and "mean_duty_cycle" in r for r in rows)

    def test_linkage_scan_counts_cross_venue_payloads(self):
        sc = build_population_scenario(n_users=10, days=3, seed=7)
        trace = run(sc, "venue", seed=7)
        report = collect_metrics(trace.data)
        assert report.adversary["cross_venue_ephid_matches"] == 0
        assert report.adversary["cross_visit_ephid_matches"] == 0
        # corrupt the log: pretend one payload showed up at a second venue
        doctored = dict(trace.data)
        columns = dict(trace.data["broadcasts"])
        for key in BROADCAST_KEYS:
            columns[key] = columns[key] + [columns[key][0]]
        columns["location"][-1] = "elsewhere"
        doctored["broadcasts"] = columns
        assert collect_metrics(doctored).adversary["cross_venue_ephid_matches"] == 1
