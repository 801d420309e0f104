"""Scenario DSL validation and content hashing.

Malformed documents must produce a :class:`ScenarioError` whose
``field`` names the offending field with its full dotted path, and the
content hash must be stable across processes and ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import parse_scenario, scenario_hash
from repro.scenarios.loader import (
    corpus_digest, load_corpus, load_scenario_file, serialize_scenario,
)
from repro.scenarios.spec import ScenarioError


MINIMAL = """
name: minimal
world:
  topology: {count: 2}
  workload:
    jobs:
      - {kind: mapreduce, benchmark: grep, size_mb: 64}
expect:
  - jobs_completed == 1
"""


def variant(**edits):
    """MINIMAL as a dict, with dotted-path edits applied."""
    import yaml

    doc = yaml.safe_load(MINIMAL)
    for dotted, value in edits.items():
        node = doc
        parts = dotted.split(".")
        for key in parts[:-1]:
            node = node[key]
        if value is ...:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value
    return doc


def err(doc):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    return info.value


# ------------------------------------------------------------- diagnostics

def test_minimal_parses():
    spec = parse_scenario(MINIMAL)
    assert spec.name == "minimal"
    assert len(spec.world.hosts) == 2


@pytest.mark.parametrize("edits,field", [
    ({"name": ...}, "scenario.name"),
    ({"name": "Has Spaces"}, "scenario.name"),
    ({"expect": []}, "scenario.expect"),
    ({"world.seed": -1}, "scenario.world.seed"),
    ({"world.seed": "soon"}, "scenario.world.seed"),
    ({"world.topology": {"count": 0}}, "scenario.world.topology.count"),
    ({"world.workload.jobs": []}, "scenario.world.workload.jobs"),
])
def test_error_names_offending_field(edits, field):
    assert err(variant(**edits)).field == field


def test_unknown_field_diagnostic_lists_known_fields():
    e = err(variant(**{"world.warp_speed": 9}))
    assert e.field == "scenario.world.warp_speed"
    assert "seed" in str(e) and "topology" in str(e)


def test_unknown_benchmark_names_registry():
    e = err(variant(**{
        "world.workload.jobs": [
            {"kind": "mapreduce", "benchmark": "minesweeper", "size_mb": 64}
        ]
    }))
    assert e.field == "scenario.world.workload.jobs[0].benchmark"
    assert "terasort" in str(e)


def test_bad_antagonist_host_index():
    e = err(variant(**{
        "world.antagonists": [{"kind": "fio", "host": 7}]
    }))
    assert e.field == "scenario.world.antagonists[0].host"


def test_iperf_pair_requires_peer():
    e = err(variant(**{"world.antagonists": [{"kind": "iperf-pair"}]}))
    assert e.field == "scenario.world.antagonists[0].peer_host"


def test_spark_shape_override_rejected_on_mapreduce():
    e = err(variant(**{
        "world.workload.jobs": [
            {"kind": "mapreduce", "benchmark": "grep", "size_mb": 64,
             "shuffle_ratio": 2.0}
        ]
    }))
    assert e.field == "scenario.world.workload.jobs[0].shuffle_ratio"


def test_bad_expectation_op():
    e = err(variant(expect=[{"metric": "x", "op": "~="}]))
    assert "op" in e.field


def test_unparseable_compact_expectation():
    e = err(variant(expect=["jobs_completed ~~ 1"]))
    assert "expect" in e.field


def test_policy_config_keys_validated():
    e = err(variant(world=variant()["world"] | {
        "policy": {"kind": "perfcloud", "config": {"warp_factor": 2}}
    }))
    assert "warp_factor" in e.field


def test_invalid_yaml_names_source_file(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
    with pytest.raises(ScenarioError) as info:
        load_scenario_file(path)
    assert "broken.yaml" in info.value.field


def test_file_errors_prefix_field_with_filename(tmp_path):
    path = tmp_path / "bad_seed.yaml"
    import yaml

    path.write_text(yaml.safe_dump(variant(**{"world.seed": -5})))
    with pytest.raises(ScenarioError) as info:
        load_scenario_file(path)
    assert info.value.field == "bad_seed.yaml:scenario.world.seed"


def test_duplicate_names_across_corpus_rejected(tmp_path):
    (tmp_path / "a.yaml").write_text(MINIMAL)
    (tmp_path / "b.yaml").write_text(MINIMAL)
    with pytest.raises(ScenarioError) as info:
        load_corpus(tmp_path)
    assert "duplicate" in str(info.value)


# ----------------------------------------------------------------- hashing

def test_hash_ignores_formatting_but_not_semantics():
    spec = parse_scenario(MINIMAL)
    reformatted = parse_scenario(
        MINIMAL.replace("size_mb: 64", "size_mb:    64.0")
    )
    assert scenario_hash(reformatted) == scenario_hash(spec)
    edited = parse_scenario(MINIMAL.replace("size_mb: 64", "size_mb: 65"))
    assert scenario_hash(edited) != scenario_hash(spec)


def test_expectation_edit_changes_scenario_hash_only():
    spec = parse_scenario(MINIMAL)
    relaxed = parse_scenario(
        MINIMAL.replace("jobs_completed == 1", "jobs_completed >= 1")
    )
    assert scenario_hash(relaxed) != scenario_hash(spec)
    assert relaxed.world == spec.world  # same cacheable world


def test_corpus_digest_is_order_insensitive_and_content_sensitive():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL.replace("name: minimal", "name: other"))
    assert corpus_digest([a, b]) == corpus_digest([b, a])
    assert corpus_digest([a]) != corpus_digest([a, b])


def test_hash_stable_across_processes_and_hashseed():
    """The committed corpus hashes identically in a fresh interpreter
    under a different ``PYTHONHASHSEED`` (no ``hash()`` dependence)."""
    specs = load_corpus()
    here = corpus_digest(specs)
    script = (
        "from repro.scenarios.loader import load_corpus, corpus_digest\n"
        "print(corpus_digest(load_corpus()))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[2] / "src"),
                    env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    )
    assert out.stdout.strip() == here


def test_serialize_emits_normal_form():
    spec = parse_scenario(MINIMAL)
    text = serialize_scenario(spec)
    assert parse_scenario(text) == spec
    assert scenario_hash(parse_scenario(text)) == scenario_hash(spec)


def test_chaos_world_round_trips_through_the_dsl():
    """``repro chaos``'s world is a plain WorldDef: it survives the
    normal form and its YAML unchanged, so it can join the corpus."""
    from repro.experiments.chaos import ChaosScenario
    from repro.scenarios.spec import Expectation, ScenarioSpec

    spec = ScenarioSpec(
        name="chaos", world=ChaosScenario().world(),
        expect=(Expectation(metric="survived", op="==", value=True),),
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec
    assert parse_scenario(serialize_scenario(spec)) == spec
