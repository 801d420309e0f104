"""Unit tests for the experiment harness, report rendering, tracing, CLI."""

import json
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments.harness import (
    TestbedConfig,
    build_testbed,
    make_antagonist,
    run_until,
)
from repro.cloud.nova import FLAVORS
from repro.experiments.report import format_pct, format_series, render_table
from repro.hardware.specs import R630
from repro.obs.tracer import MetricTracer
from repro.virt.vm import Priority
from repro.workloads.antagonists import ANTAGONISTS, FioRandomRead


# --------------------------------------------------------------------- report

def test_render_table_alignment():
    out = render_table(["name", "v"], [["a", 1.0], ["long-name", 22.5]],
                       title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "v" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "long-name" in lines[-1]


def test_format_helpers():
    assert format_pct(0.314) == "+31%"
    assert format_pct(0.314, signed=False) == "31%"
    assert format_series([(0.0, 1.234), (5.0, 2.0)]) == "0s:1.23 5s:2.00"
    assert format_series([(0.0, 1.0), (5.0, 2.0)], every=2) == "0s:1.00"


# -------------------------------------------------------------------- harness

def test_build_testbed_shapes():
    tb = build_testbed(TestbedConfig(
        seed=1, num_hosts=2, num_workers=5, framework="both",
        antagonists=(("fio", 0), ("stream", 1)),
    ))
    assert len(tb.cluster.hosts) == 2
    assert len(tb.workers) == 5
    assert tb.jobtracker is not None and tb.spark is not None
    assert tb.antagonist_vms["fio"].host_name == "server00"
    assert tb.antagonist_vms["stream"].host_name == "server01"
    # Workers spread round-robin.
    hosts = [w.host_name for w in tb.workers]
    assert hosts.count("server00") == 3 and hosts.count("server01") == 2


def test_host_specs_go_to_hosts_by_index():
    fast = replace(R630, speed_factor=2.0)
    tb = build_testbed(TestbedConfig(seed=1, num_hosts=3, host_specs=[R630, fast]))
    specs = [tb.cluster.hosts[f"server{i:02d}"].spec for i in range(3)]
    assert specs == [R630, fast, R630]


def test_placement_follows_host_index_past_100_hosts():
    """``server100`` sorts before ``server11`` by name; round-robin
    placement must follow host index instead."""
    tb = build_testbed(TestbedConfig(seed=1, num_hosts=101, num_workers=12,
                                     antagonists=(("fio", 11),)))
    assert [w.host_name for w in tb.workers] \
        == [f"server{i:02d}" for i in range(12)]
    assert tb.antagonist_vms["fio"].host_name == "server11"


def test_build_testbed_duplicate_antagonist_kinds_get_suffixes():
    tb = build_testbed(TestbedConfig(
        seed=1, antagonists=(("oltp", None), ("oltp", None)),
    ))
    assert set(tb.antagonist_vms) == {"oltp", "oltp-2"}


def test_testbed_validation():
    with pytest.raises(ValueError):
        TestbedConfig(num_hosts=0)
    with pytest.raises(ValueError):
        TestbedConfig(num_hosts=1, host_specs=[R630, R630])
    with pytest.raises(ValueError):
        build_testbed(TestbedConfig(framework="flink"))
    with pytest.raises(KeyError):
        make_antagonist("nope")


def test_make_antagonist_registry():
    assert isinstance(make_antagonist("fio"), FioRandomRead)
    assert make_antagonist("fio-episodic").on_s is not None
    # Keyword params override the kind's defaults and keep the rest.
    tuned = make_antagonist("fio-episodic", on_s=5.0, iops_demand=100.0)
    assert (tuned.on_s, tuned.off_s, tuned.iops_demand) == (5.0, 20.0, 100.0)


def test_every_antagonist_kind_boots_alike_in_testbeds_and_worlds():
    """A testbed and a scenario world boot each registry kind with the
    same flavor, LOW priority and driver type."""
    from repro.scenarios.spec import AntagonistDef, JobDef, PolicyDef, \
        WorkloadDef, WorldDef
    from repro.scenarios.world import execute_world

    kinds = sorted(ANTAGONISTS)
    tb = build_testbed(TestbedConfig(
        seed=1, num_hosts=len(kinds), num_workers=1,
        antagonists=tuple((k, i) for i, k in enumerate(kinds)),
    ))
    run = execute_world(WorldDef(
        seed=1, horizon=1.0, cooldown_s=0.0,
        hosts=(WorldDef().hosts[0],) * len(kinds),
        workload=WorkloadDef(workers=1, jobs=(
            JobDef(kind="mapreduce", benchmark="grep", size_mb=64.0),)),
        antagonists=tuple(AntagonistDef(kind=k, host=i)
                          for i, k in enumerate(kinds)),
        policy=PolicyDef(kind="none"),
    ))
    for kind in kinds:
        flavor = FLAVORS[ANTAGONISTS[kind][0]]
        for testbed in (tb, run.testbed):
            vm = testbed.antagonist_vms[kind]
            assert (vm.vcpus, vm.mem_gb) == (flavor.vcpus, flavor.mem_gb)
            assert vm.priority is Priority.LOW
        assert type(tb.antagonist_drivers[kind]) \
            is type(run.testbed.antagonist_drivers[kind])


def test_node_manager_accessor_requires_deployment():
    tb = build_testbed(TestbedConfig(seed=1))
    with pytest.raises(RuntimeError):
        tb.node_manager()
    tb.deploy_perfcloud()
    assert tb.node_manager().host_name == "server00"


def test_run_until():
    tb = build_testbed(TestbedConfig(seed=1))
    hit = run_until(tb.sim, lambda: tb.sim.now >= 12.0, horizon=50.0)
    assert hit and tb.sim.now <= 20.0
    missed = run_until(tb.sim, lambda: False, horizon=30.0)
    assert not missed and tb.sim.now == 30.0


# -------------------------------------------------------------------- tracing

def test_metric_tracer_records_and_exports(tmp_path):
    tb = build_testbed(TestbedConfig(seed=2, num_workers=2))
    tracer = MetricTracer(tb.sim, tb.cluster, interval_s=5.0)
    vm = tb.workers[0]
    vm.attach_workload(FioRandomRead())
    tb.run(20.0)
    tracer.stop()
    assert len(tracer.rows) == 4 * 2  # 4 samples x 2 VMs
    series = tracer.vm_series(vm.name, "io_serviced")
    assert series[-1][1] > series[0][1]
    deltas = tracer.deltas(vm.name, "io_serviced")
    assert all(d >= 0 for _, d in deltas)
    with pytest.raises(KeyError):
        tracer.vm_series(vm.name, "bogus")

    csv_path = tmp_path / "trace.csv"
    tracer.to_csv(str(csv_path))
    assert csv_path.read_text().startswith("time,host,vm")
    data = json.loads(tracer.to_json())
    assert len(data) == len(tracer.rows)


def test_metric_tracer_host_filter():
    tb = build_testbed(TestbedConfig(seed=2, num_hosts=2, num_workers=4))
    tracer = MetricTracer(tb.sim, tb.cluster, interval_s=5.0,
                          hosts=["server00"])
    tb.run(10.0)
    assert all(r["host"] == "server00" for r in tracer.rows)


# ------------------------------------------------------------------------ CLI

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "fig11" in out


def test_cli_fig7_with_json(tmp_path, capsys):
    path = tmp_path / "fig7.json"
    assert main(["fig7", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["beta"] == 0.8
    assert len(data["caps"]) == 13


def test_cli_parser_has_all_figures():
    parser = build_parser()
    help_text = parser.format_help()
    for name in ("fig1", "fig5", "fig9", "fig12", "demo", "list"):
        assert name in help_text


def test_analytic_sweep_shapes():
    from repro.experiments.sweeps import analytic_sweep

    points = analytic_sweep(betas=(0.5, 0.8), gammas=(0.001, 0.02))
    assert len(points) == 4
    by_key = {(p.beta, p.gamma): p for p in points}
    # K shrinks with gamma and grows with beta (K = cbrt(beta/gamma)).
    assert (by_key[(0.8, 0.001)].recovery_intervals
            > by_key[(0.8, 0.02)].recovery_intervals)
    assert (by_key[(0.8, 0.001)].recovery_intervals
            > by_key[(0.5, 0.001)].recovery_intervals)
    assert by_key[(0.8, 0.02)].decrease_depth == pytest.approx(0.2)


def test_cli_demo_runs(capsys):
    assert main(["demo", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "default" in out and "with PerfCloud" in out


def test_perfcloud_throttle_events_aggregate_across_hosts():
    from repro.core.perfcloud import PerfCloud

    tb = build_testbed(TestbedConfig(
        seed=7, num_hosts=2, num_workers=8, framework="mapreduce",
        antagonists=(("fio", 0), ("fio", 1)),
    ))
    pc = tb.deploy_perfcloud()
    from repro.workloads.datagen import teragen
    from repro.workloads.puma import terasort

    tb.jobtracker.submit(terasort(), teragen(640), 10)
    tb.run(120)
    events = pc.throttle_events()
    assert events == sorted(events)
    hosts_acted = {
        nm.host_name for nm in pc.node_managers.values() if nm.actions
    }
    assert len(hosts_acted) == 2  # both agents acted independently


def test_python_dash_m_repro_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "fig7" in proc.stdout
