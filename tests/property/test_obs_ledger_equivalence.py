"""Property test: the incident ledger records real mitigation lifecycles.

The ledger is built from interval data only (detections, judged
antagonist sets, the actuation log, ladder transitions); a classic
mitigation world must fill it with complete incidents.
"""

from repro import teragen, terasort
from repro.obs import Telemetry


def _ledger_outcome(seed, num_hosts, antagonists):
    from repro.experiments.harness import TestbedConfig, build_testbed, run_until

    telemetry = Telemetry(ledger=True, spans=False)
    testbed = build_testbed(
        TestbedConfig(seed=seed, num_hosts=num_hosts,
                      num_workers=3 * num_hosts, framework="mapreduce",
                      antagonists=antagonists)
    )
    pc = testbed.deploy_perfcloud(telemetry=telemetry)
    job = testbed.jobtracker.submit(terasort(), teragen(320), num_reducers=4)
    run_until(testbed.sim, lambda: job.completion_time is not None,
              horizon=2000)
    # Drain: caps release and open incidents get a chance to resolve.
    testbed.run(60.0)
    pc.close()
    return telemetry.ledger.to_jsonable()


def test_ledger_is_not_vacuous_on_a_mitigation_world():
    """A classic fio-vs-terasort world produces at least one incident
    that runs detect -> identify -> throttle -> release -> resolved."""
    payload = _ledger_outcome(7, 1, (("fio", None),))
    assert payload["opened"] >= 1
    full = [
        inc for inc in payload["incidents"]
        if inc["identified"]
        and any(cap is not None for _, _, cap in inc["actions"])
        and any(cap is None for _, _, cap in inc["actions"])
        and inc["resolved_time"] is not None
    ]
    assert full, payload
