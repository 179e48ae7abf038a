"""End-to-end acceptance suite.

Each test drives one headline guarantee of the system at its stated
tolerance and prints a single PASS/FAIL line (bypassing pytest capture) so
a full run reads as a checklist.
"""

import random
import sys
import time
from base64 import b64decode

import pytest

from venuetrace import crypto
from venuetrace.actors import RejectionCode
from venuetrace.bloom import build_filter
from venuetrace.metrics import collect_metrics
from venuetrace.scenario import (
    Scenario,
    ScenarioEvent,
    VenueSpec,
    build_population_scenario,
)
from venuetrace.schedule import (
    DailyKey,
    SchedulingParams,
    derive_window_ephids,
    dp3t_derive_ephids,
    dp3t_next_daily_key,
)
from venuetrace.sim import SimParams, Simulation, run
from venuetrace.trace import _canonical, rows

from bundled import broadcast_rows, bundled

DAY = 86400
L = 180

RESULT_LINES: list[str] = []


def report_line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {status}: {detail}"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def honest_population_run():
    scenario = build_population_scenario(n_users=50, n_venues=3, days=7, seed=0)
    t0 = time.perf_counter()
    trace = run(scenario, "venue", seed=0)
    elapsed = time.perf_counter() - t0
    return trace, elapsed


def test_criterion_1_honest_run_recall_and_minimisation(honest_population_run):
    trace, elapsed = honest_population_run
    report = collect_metrics(trace.data)
    ok = (
        report.recall == 1.0
        and report.data_minimisation_violations == 0
        and len(trace.data["outcomes"]["reporters"]) == 2
        and elapsed < 30.0
    )
    report_line(
        1, ok,
        f"50 users / 3 venues / 7 days: recall={report.recall:.3f}, "
        f"minimisation violations={report.data_minimisation_violations}, "
        f"runtime={elapsed:.1f}s (< 30s)",
    )
    assert report.recall == 1.0
    assert report.data_minimisation_violations == 0
    assert elapsed < 30.0


def _matrix_scenario(tamper=None, suppress=False, imposter=False):
    ev = []
    start = DAY + 36000
    dur = 1800
    for u, v, pos in (("u00", "v0", [0.0, 0.0]), ("u01", "v0", [0.9, 0.0])):
        ev.append(ScenarioEvent(start, "enter", {"user": u, "venue": v, "pos": pos}))
        ev.append(ScenarioEvent(start + dur, "leave", {"user": u}))
    ev.append(ScenarioEvent(start + 4000, "enter", {"user": "u00", "venue": "v1", "pos": [0.0, 0.0]}))
    ev.append(ScenarioEvent(start + 4000 + dur, "leave", {"user": "u00"}))
    if suppress:
        ev.append(
            ScenarioEvent(0, "adversary_action",
                          {"action": "suppress_broadcasts", "user": "u00", "start": 0, "end": 3 * DAY})
        )
    if imposter:
        ev.append(
            ScenarioEvent(0, "adversary_action",
                          {"action": "share_rid", "from_user": "u00", "to_user": "u02"})
        )
        ev.append(ScenarioEvent(start, "enter", {"user": "u02", "venue": "v1", "pos": [10.0, 0.0]}))
        ev.append(ScenarioEvent(start + dur, "leave", {"user": "u02"}))
    ev.append(
        ScenarioEvent(2 * DAY + 3600, "test_positive", {"user": "u00", "period": [DAY, 2 * DAY]})
    )
    rep = {"user": "u00"}
    if tamper:
        rep["tamper"] = tamper
    ev.append(ScenarioEvent(2 * DAY + 4200, "report", rep))
    if imposter:
        ev.append(
            ScenarioEvent(2 * DAY + 4800, "report", {"user": "u02", "use_certificate_of": "u00"})
        )
    return Scenario("matrix", 3 * DAY, ["u00", "u01", "u02"],
                    [VenueSpec("v0"), VenueSpec("v1")], ev)


def test_criterion_2_rejection_matrix():
    cases = [
        (RejectionCode.BAD_CERTIFICATE, _matrix_scenario(tamper="forge_certificate")),
        (RejectionCode.BAD_OPENING, _matrix_scenario(tamper="corrupt_opening")),
        (RejectionCode.BAD_RECEIPT, _matrix_scenario(tamper="swap_venue_keys")),
        (RejectionCode.UNMATCHED_IDENTIFIERS, _matrix_scenario(suppress=True)),
        (RejectionCode.OVERLAPPING_PRESENCE, _matrix_scenario(imposter=True)),
    ]
    passed = 0
    details = []
    for expected, scenario in cases:
        trace = run(scenario, "venue", seed=0)
        reports = rows(trace.data["outcomes"]["reports"])
        codes = {r["code"] for r in reports if not r["accepted"]}
        rejected_not_published = all(
            r["code"] is not None for r in reports if not r["accepted"]
        )
        if codes == {expected.value} and rejected_not_published:
            passed += 1
        else:
            details.append(f"{expected.value}: saw {codes}")
    ok = passed == 5
    report_line(2, ok, f"report rejection matrix: {passed}/5 codes triggered exactly"
                + (f" ({'; '.join(details)})" if details else ""))
    assert passed == 5


def _at_risk(scenario, protocol, seed):
    return set(collect_metrics(run(scenario, protocol, seed=seed).data).at_risk_users)


def test_criterion_3_cross_venue_relay():
    attack = bundled("relay_attack")
    baseline = bundled("relay_baseline")
    venue_extra, dp3t_extra = [], []
    for seed in range(5):
        venue_extra.append(len(_at_risk(attack, "venue", seed) - _at_risk(baseline, "venue", seed)))
        dp3t_extra.append(len(_at_risk(attack, "dp3t", seed) - _at_risk(baseline, "dp3t", seed)))
    ok = all(v == 0 for v in venue_extra) and all(d >= 1 for d in dp3t_extra)
    report_line(
        3, ok,
        f"relay attack over 5 seeds: venue extra at-risk={venue_extra} (all 0), "
        f"dp3t extra at-risk={dp3t_extra} (all >= 1)",
    )
    assert all(v == 0 for v in venue_extra)
    assert all(d >= 1 for d in dp3t_extra)


def test_criterion_4_ephemeral_linkage():
    # venue protocol: no identifier reuse across venues or visits, 10 seeds
    venue_clean = True
    for seed in range(10):
        scenario = build_population_scenario(n_users=20, n_venues=3, days=4, seed=seed)
        report = collect_metrics(run(scenario, "venue", seed=seed).data)
        if (
            report.adversary["cross_venue_ephid_matches"] != 0
            or report.adversary["cross_visit_ephid_matches"] != 0
        ):
            venue_clean = False

    # dp3t: one published daily key links at least two consecutive days
    scenario = build_population_scenario(n_users=20, n_venues=3, days=4, seed=0)
    trace = run(scenario, "dp3t", seed=0)
    linked = 0
    for pub in rows(trace.data["outcomes"]["published_keys"]):
        key = DailyKey(key=b64decode(pub["key"]), day_index=pub["day"])
        day_x = set(dp3t_derive_ephids(key, 96))
        day_x1 = set(dp3t_derive_ephids(dp3t_next_daily_key(key), 96))
        mine = {
            b["payload"]
            for b in broadcast_rows(trace.data)
            if b["emitter"] == pub["reporter"] and not b["injected"]
        }
        if (mine & day_x) and (mine & day_x1):
            linked += 1
    dp3t_linked = linked == len(rows(trace.data["outcomes"]["published_keys"])) and linked > 0
    ok = venue_clean and dp3t_linked
    report_line(
        4, ok,
        f"linkage: venue protocol 0 cross-venue/cross-visit matches over 10 seeds "
        f"({venue_clean}); dp3t published keys link 2 consecutive days by "
        f"recomputation ({linked} keys)",
    )
    assert venue_clean
    assert dp3t_linked


def test_criterion_5_bystander_street_leak():
    scenario = bundled("street_encounter")
    dp3t_trace = run(scenario, "dp3t", seed=0)
    venue_trace = run(scenario, "venue", seed=0)
    dp3t_leak = any(
        a["user"] == "u01" and a.get("leak") for a in rows(dp3t_trace.data["outcomes"]["assessments"])
    )
    venue_leak = any(
        a["user"] == "u01" and a["matched_epochs"] >= 1
        for a in rows(venue_trace.data["outcomes"]["assessments"])
    )
    venue_retrieved = [
        d for d in rows(venue_trace.data["outcomes"]["deliveries"])
        if d["user"] == "u01" and d["record_keys"]
    ]
    ok = dp3t_leak and not venue_leak and not venue_retrieved
    report_line(
        5, ok,
        f"10-second street encounter: dp3t bystander leak={dp3t_leak}, "
        f"venue-protocol leak={venue_leak} (retrieved {len(venue_retrieved)} record sets)",
    )
    assert dp3t_leak
    assert not venue_leak
    assert not venue_retrieved


def test_criterion_6_digest_reconstruction():
    params = SchedulingParams()
    n = params.ids_per_window
    rng = random.Random(2024)
    ha_keys = crypto.keygen(rng)
    mismatches = 0
    trials = 1000
    for trial in range(trials):
        from venuetrace.actors import UserApp

        x = rng.randrange(1, 4)
        y = rng.randrange(1, n + 1)
        venue_id = f"venue-{rng.randrange(50)}"
        app = UserApp(f"user-{trial}", ha_keys.public_key, params, rng, crypto.Verifier())
        app.enter_venue(venue_id, 0)
        epochs = (x - 1) * n + y
        for k in range(epochs):
            app.epoch_tick(k * params.epoch_seconds)
        session = app.session
        user_digest = crypto.hash_bytes(b"".join(r.own_ephid for r in session.records))

        # server side: closed-form reconstruction from the raw key bytes
        rebuilt = []
        for w, key in enumerate(session.window_keys, start=1):
            ids = derive_window_ephids(key, venue_id, params)
            rebuilt.extend(ids if w < x else ids[:y])
        server_digest = crypto.hash_bytes(b"".join(rebuilt))
        if user_digest != server_digest:
            mismatches += 1
    ok = mismatches == 0
    report_line(
        6, ok,
        f"identifier-digest reconstruction: {trials - mismatches}/{trials} "
        f"random (keys, venue, windows, epochs) tuples bit-exact",
    )
    assert mismatches == 0


def test_criterion_7_bloom_fpr_and_no_false_negatives():
    target = 1e-4
    n = 100_000
    worst = 0.0
    false_negatives = 0
    for seed in range(10):
        rng = random.Random(seed)
        inserted = [rng.randbytes(16) for _ in range(n)]
        probes = [rng.randbytes(16) for _ in range(n)]
        bf = build_filter(inserted, target_fpr=target)
        if not all(bf.contains_many(inserted)):
            false_negatives += 1
        inserted_set = set(inserted)
        hits = sum(
            hit and probe not in inserted_set
            for hit, probe in zip(bf.contains_many(probes), probes)
        )
        worst = max(worst, hits / n)
    ok = worst <= 2 * target and false_negatives == 0
    report_line(
        7, ok,
        f"bloom filter at 1e5/1e5: worst measured FPR {worst:.2e} <= {2 * target:.0e}, "
        f"false negatives across 10 seeds: {false_negatives}",
    )
    assert false_negatives == 0
    assert worst <= 2 * target


def test_criterion_8_determinism():
    scenario = build_population_scenario(n_users=15, n_venues=3, days=3, seed=5)
    ok = True
    for protocol in ("venue", "dp3t", "tracetogether"):
        t1 = run(scenario, protocol, seed=5)
        t2 = run(scenario, protocol, seed=5)
        if _canonical(t1.data) != _canonical(t2.data):
            ok = False
        m1 = collect_metrics(t1.data).to_dict()
        m2 = collect_metrics(t2.data).to_dict()
        if m1 != m2:
            ok = False
    report_line(8, ok, "equal seeds give byte-identical traces and metrics for all 3 protocols")
    assert ok


def test_criterion_9_duty_cycle():
    scenario = bundled("duty_cycle")  # 10 users, 2 days, 30% of each day in venues
    venue_report = collect_metrics(run(scenario, "venue", seed=0).data)
    dp3t_report = collect_metrics(run(scenario, "dp3t", seed=0).data)
    slack = L / DAY
    venue_ok = all(d <= 0.30 + slack for d in venue_report.duty_cycle.values())
    dp3t_ok = all(d == 1.0 for d in dp3t_report.duty_cycle.values())
    ok = venue_ok and dp3t_ok
    report_line(
        9, ok,
        f"duty cycle at 30% venue time: venue max={max(venue_report.duty_cycle.values()):.4f} "
        f"<= {0.30 + slack:.4f}, dp3t all = 1.0",
    )
    assert venue_ok and dp3t_ok


def test_criterion_10_crypto_mutation_suites():
    rng = random.Random(99)
    trials = 10_000

    sig_false_accepts = 0
    kp = crypto.keygen(rng)
    for i in range(trials):
        msg = rng.randbytes(32)
        sig = crypto.sign(msg, kp.secret_key)
        if i % 2 == 0:
            pos = rng.randrange(len(msg))
            mutated = bytearray(msg)
            mutated[pos] ^= 1 << rng.randrange(8)
            if crypto.verify(bytes(mutated), sig, kp.public_key):
                sig_false_accepts += 1
        else:
            pos = rng.randrange(len(sig))
            mutated_sig = bytearray(sig)
            mutated_sig[pos] ^= 1 << rng.randrange(8)
            if crypto.verify(msg, bytes(mutated_sig), kp.public_key):
                sig_false_accepts += 1

    commit_false_accepts = 0
    base = crypto.commit(b"baseline message", rng)
    for i in range(trials):
        if i % 2 == 0:
            if crypto.verify_opening(base.value, rng.randbytes(16), base.opening.blinding):
                commit_false_accepts += 1
        else:
            wrong = rng.randrange(1, crypto.GROUP_Q)
            if wrong != base.opening.blinding and crypto.verify_opening(
                base.value, b"baseline message", wrong
            ):
                commit_false_accepts += 1

    ok = sig_false_accepts == 0 and commit_false_accepts == 0
    report_line(
        10, ok,
        f"mutation suites ({trials} trials each): signature false accepts="
        f"{sig_false_accepts}, commitment false accepts={commit_false_accepts}",
    )
    assert sig_false_accepts == 0
    assert commit_false_accepts == 0
