"""Unit tests for the Prometheus-style text exposition.

Two layers: a **golden file** over a hand-built families dict pins the
wire format itself (HELP/TYPE ordering, label escaping and sorting,
int-vs-float value rendering) independently of any simulation, and a
**live snapshot** test walks a real telemetry-on run and checks that
every expected family surface is present, renders, and parses back.
"""

import math
import os

import pytest

from repro.obs import parse_exposition, render_text, snapshot

_GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                       "exposition_golden.txt")

#: Hand-built families: every formatting edge the renderer must pin —
#: unlabeled samples, multi-label sorting, escapes, float repr.
_FAMILIES = {
    "repro_zeta_total": {
        "type": "counter",
        "help": "Sorted last despite being defined first.",
        "samples": [((), 3.0)],
    },
    "repro_alpha_total": {
        "type": "counter",
        "help": "Counter with labeled samples.",
        "samples": [
            ((("host", "server01"), ("vm", "fio")), 7.0),
            ((("host", "server00"), ("vm", "fio")), 12.0),
        ],
    },
    "repro_beta_gauge": {
        "type": "gauge",
        "help": "Gauge mixing integral and fractional values.",
        "samples": [
            ((("metric", "cpi"),), 1.5),
            ((("metric", "iowait_ratio"),), 2.0),
            ((("metric", "weird\"quote\\slash\nnewline"),), 0.25),
        ],
    },
}


def test_render_text_matches_golden():
    got = render_text(_FAMILIES)
    with open(_GOLDEN) as fh:
        want = fh.read()
    assert got == want


def test_golden_parses_back_to_the_same_samples():
    parsed = parse_exposition(render_text(_FAMILIES))
    assert parsed["repro_alpha_total"][
        (("host", "server00"), ("vm", "fio"))] == 12.0
    assert parsed["repro_beta_gauge"][(("metric", "cpi"),)] == 1.5
    assert parsed["repro_zeta_total"][()] == 3.0
    # Escaped label values survive the round trip (still escaped — the
    # parser is deliberately minimal and does not unescape).
    weird = [k for k in parsed["repro_beta_gauge"] if "weird" in k[0][1]]
    assert len(weird) == 1


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_exposition("not a metric line at all!\n")
    with pytest.raises(ValueError):
        parse_exposition('repro_x{unclosed="} 1\n')


@pytest.fixture(scope="module")
def live():
    from repro import teragen, terasort
    from repro.experiments.harness import (
        TestbedConfig, build_testbed, run_until,
    )
    from repro.obs import Telemetry

    telemetry = Telemetry(ledger=True, spans=True)
    bed = build_testbed(TestbedConfig(
        seed=7, num_workers=6, framework="mapreduce",
        antagonists=(("fio", None),),
    ))
    pc = bed.deploy_perfcloud(telemetry=telemetry)
    job = bed.jobtracker.submit(terasort(), teragen(320), num_reducers=4)
    run_until(bed.sim, lambda: job.completion_time is not None, horizon=2000)
    bed.run(60.0)
    families = snapshot(pc, telemetry=telemetry)
    pc.close()
    return families, telemetry


def test_snapshot_covers_every_counter_surface(live):
    families, _ = live
    expected = {
        # node manager / monitor / identifier
        "repro_control_intervals_completed_total",
        "repro_monitor_samples_dropped_total",
        "repro_identifier_fast_updates_total",
        "repro_identifier_full_recomputes_total",
        "repro_identifier_fallbacks_total",
        "repro_identifier_flat_skips_total",
        "repro_actuations_total",
        "repro_caps_active",
        # metric plane
        "repro_plane_dropped_total",
        "repro_plane_vms",
        "repro_plane_metric_latest",
        # coordinator
        "repro_controlplane_serial_ticks_total",
        # data plane
        "repro_dataplane_rows_visited_total",
        "repro_dataplane_rows_delivered_total",
        "repro_dataplane_busy_host_steps_total",
        "repro_dataplane_idle_host_steps_total",
        "repro_dataplane_busy_ticks_total",
        "repro_dataplane_cpu_plan_builds_total",
        "repro_dataplane_disk_plan_builds_total",
        "repro_dataplane_memsys_plan_builds_total",
        # telemetry
        "repro_incidents_opened_total",
        "repro_incidents_resolved_total",
        "repro_incidents_open",
        "repro_spans_recorded_total",
        "repro_spans_retained",
    }
    missing = expected - set(families)
    assert not missing, f"families missing from snapshot: {sorted(missing)}"


def test_live_snapshot_renders_and_parses(live):
    families, telemetry = live
    parsed = parse_exposition(render_text(families))
    assert set(parsed) == set(families)
    # Spot-check values survive the round trip.
    assert parsed["repro_incidents_opened_total"][()] == float(
        telemetry.ledger.opened)
    total_retained = sum(parsed["repro_spans_retained"].values())
    assert total_retained == len(telemetry.spans)
    # The 60 s after the job leave the executors parked: their rows are
    # visited but not delivered.
    visited = parsed["repro_dataplane_rows_visited_total"][()]
    delivered = parsed["repro_dataplane_rows_delivered_total"][()]
    assert 0 < delivered < visited
    assert parsed["repro_dataplane_busy_host_steps_total"][()] > 0
    # Every busy tick runs each kernel once: it builds its plan or
    # reuses the one cached for its rows.
    busy = parsed["repro_dataplane_busy_ticks_total"][()]
    for kernel in ("cpu", "disk", "memsys"):
        builds = parsed[f"repro_dataplane_{kernel}_plan_builds_total"][()]
        assert 0 < builds <= busy
    for samples in parsed.values():
        for value in samples.values():
            assert math.isfinite(value)


def test_snapshot_with_supervisor_and_cache_surfaces():
    class _Cache:
        hits, misses = 5, 2

    families = snapshot(cache=_Cache(),
                        supervisor={"retries": 1, "respawns": 0})
    assert families["repro_cache_hits_total"]["samples"] == [((), 5.0)]
    assert families["repro_supervisor_retries_total"]["samples"] == [((), 1.0)]
