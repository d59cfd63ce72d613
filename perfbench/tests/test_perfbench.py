"""Fast tests of the benchmark itself: each workload's round runs end to
end at a tiny size, each correctness check rejects a corrupted input,
and the result line carries exactly the metrics BENCHMARK.json names.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, harness, workloads  # noqa: E402
from perfbench.tracing import Tracer, install, package_of  # noqa: E402
from repro.experiments.campaign import RunSpec, execute_spec  # noqa: E402
from repro.experiments.runner import experiment_config  # noqa: E402


@pytest.fixture(scope="module")
def small_run():
    spec = RunSpec.single("VA", "static-shared", experiment_config(),
                          scale=0.02)
    return spec, execute_spec(spec).to_dict()


def _round(tmp_path, tracer=None, seed=7):
    return workloads.Round(seed, tracer, str(tmp_path))


def _tiny(monkeypatch):
    monkeypatch.setattr(workloads, "REPORT_FIGURES", ("12",))
    monkeypatch.setattr(workloads, "SIM_MEDIUM", (("VA", 0.02),))
    monkeypatch.setattr(workloads, "FRESH_SCALE", 0.02)
    monkeypatch.setattr(workloads, "STORED_SCALE", 0.02)


# --------------------------------------------------------- workloads
def test_report_cold_round_end_to_end(tmp_path, monkeypatch):
    from repro.experiments import campaign

    _tiny(monkeypatch)
    original = campaign.execute_spec
    rec = workloads.report_cold(_round(tmp_path))
    assert campaign.execute_spec is original
    assert rec["problems"] == []
    assert rec["attempted"] == 15 and rec["failed"] == 0
    assert rec["layers"]["campaign.executed"] == 15
    assert len(rec["job_s"]) == 15 and rec["wall_s"] > 0
    assert 0 < rec["adaptive_vs_best_static"] <= 1.5


def test_sim_medium_round_traced_end_to_end(tmp_path, monkeypatch):
    from repro.gpu.system import GPUSystem

    _tiny(monkeypatch)
    original_init = GPUSystem.__init__
    tracer = Tracer(profile=True)
    install(tracer)
    try:
        rec = workloads.sim_medium(_round(tmp_path, tracer))
    finally:
        tracer.uninstall()
    assert GPUSystem.__init__ is original_init
    assert rec["problems"] == []
    assert rec["attempted"] == 3 and rec["failed"] == 0
    layers = harness.layer_metrics(tracer)
    assert layers["gpu.builds"] == 3
    assert layers["workloads.gen_calls"] == 3
    assert layers["workloads.gen_unique_ratio"] == pytest.approx(1 / 3)
    assert layers["sim.events"] > 0 and layers["gpu.run_s"] > 0
    assert layers["self_s.gpu"] > 0 and layers["self_s.cache"] > 0


def test_serve_closed_round_end_to_end(tmp_path, monkeypatch):
    _tiny(monkeypatch)
    rec = workloads.serve_closed(_round(tmp_path))
    assert rec["problems"] == []
    assert rec["attempted"] == 12 and rec["failed"] == 0
    assert len(rec["job_s"]) == 8
    assert rec["layers"]["service.coalesced"] == 2
    assert rec["layers"]["service.store_hits"] == 4


def test_serve_plans_mix_each_kind_equally():
    import random

    plan_a, plan_b = workloads.serve_plans(random.Random(5))
    kinds = [kind for kind, _ in plan_a + plan_b]
    assert kinds == ["fresh", "hit", "dup"] * 4
    dups = [[s.cache_key() for k, s in plan if k == "dup"]
            for plan in (plan_a, plan_b)]
    assert dups[0] == dups[1]
    keys = [s.cache_key() for k, s in plan_a + plan_b if k != "dup"]
    assert len(set(keys)) == len(keys)


def test_fresh_specs_are_distinct_and_seeded():
    import random

    a = workloads.fresh_specs(random.Random(3))
    b = workloads.fresh_specs(random.Random(3))
    assert [s.cache_key() for s in a] == [s.cache_key() for s in b]
    assert len({s.cache_key() for s in a}) == 6
    stored = {s.cache_key() for s in workloads.stored_specs()}
    assert not stored & {s.cache_key() for s in a}


# ------------------------------------------------------------ checks
def test_clean_result_passes(small_run):
    spec, result = small_run
    assert checks.result_problems(spec, result, checks.TraceFacts()) == []


def test_one_hit_moved_to_a_miss_is_rejected(small_run):
    spec, result = small_run
    bad = dict(result, llc_hits=result["llc_hits"] - 1,
               llc_misses=result["llc_misses"] + 1)
    assert checks.result_problems(spec, bad, checks.TraceFacts())


@pytest.mark.parametrize("field,delta", [
    ("instructions", 1.0), ("llc_accesses", 1), ("cycles", 1.0),
    ("transitions", 1), ("time_in_private", 1.0)])
def test_corrupted_counter_is_rejected(small_run, field, delta):
    spec, result = small_run
    bad = dict(result, **{field: result[field] + delta})
    assert checks.result_problems(spec, bad, checks.TraceFacts())


def test_dram_reads_above_llc_misses_is_rejected(small_run):
    spec, result = small_run
    bad = dict(result, dram_reads=result["llc_misses"] + 1)
    assert checks.result_problems(spec, bad, checks.TraceFacts())


def test_static_private_not_private_all_cycles_is_rejected():
    spec = RunSpec.single("VA", "static-private", experiment_config(),
                          scale=0.02)
    result = execute_spec(spec).to_dict()
    facts = checks.TraceFacts()
    assert checks.result_problems(spec, result, facts) == []
    bad = dict(result, time_in_private=result["cycles"] * 0.99)
    assert checks.result_problems(spec, bad, facts)


def test_service_payload_one_byte_off_is_rejected(small_run):
    _, result = small_run
    text = checks.canonical_json(result)
    index = text.index('"cycles":') + len('"cycles":')
    digit = text[index]
    flipped = text[:index] + ("1" if digit != "1" else "2") \
        + text[index + 1:]
    assert len(flipped) == len(text)
    assert checks.same_payload_problems("x", json.loads(text), result) == []
    assert checks.same_payload_problems("x", json.loads(flipped), result)


def test_report_missing_a_figure_is_rejected():
    manifest = {"figures": [{"number": "11"}, {"number": "12"}]}
    assert checks.report_problems(False, manifest, ["11", "12"], 5, 5) == []
    assert checks.report_problems(False, manifest, ["11", "12", "13"], 5, 5)
    assert checks.report_problems(True, manifest, ["11", "12"], 5, 5)
    assert checks.report_problems(False, manifest, ["11", "12"], 6, 5)


def test_event_tier_oracle_detects_a_different_result(small_run):
    spec, result = small_run
    event = dataclasses.replace(spec, cfg=spec.cfg.replace(tier="event"))
    assert checks.same_payload_problems(
        "x", result, execute_spec(event).to_dict()) == []
    assert checks.same_payload_problems(
        "x", dict(result, ipc=result["ipc"] * (1 + 1e-12)), result)


# ------------------------------------------------------------ harness
def test_result_line_carries_exactly_the_contract_metrics():
    contract = harness.load_contract()
    plain = {"mode": "plain", "setup_s": 0.5, "wall_s": 2.0,
             "sim_instr": 1e6, "peak_rss_mb": 40.0, "job_s": [0.1, 0.2],
             "adaptive_vs_best_static": 0.9, "attempted": 3, "failed": 0,
             "problems": [], "layers": {}}
    line = harness.result_line([plain, dict(plain, wall_s=3.0)], False,
                               contract)
    assert list(line["metrics"]) == [m["name"]
                                     for m in contract["end_to_end"]]
    assert line["metrics"]["wall_s"]["value"] == 2.5
    assert line["attempted"] == 6 and line["correct"] is True
    traced = [plain, dict(plain, mode="spans", wall_s=2.2),
              dict(plain, mode="profile", wall_s=6.0,
                   layers={"self_s.sim": 1.5})]
    line = harness.result_line(traced, True, contract)
    assert list(line["metrics"]) == [m["name"]
                                     for m in contract["per_layer"]]
    assert line["metrics"]["self_s.sim"]["value"] == 1.5
    assert line["metrics"]["trace.overhead"]["value"] == pytest.approx(1.1)


def test_contract_form():
    contract = harness.load_contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] \
        == list(workloads.WORKLOADS)
    names = [m["name"] for m in contract["end_to_end"]
             + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_wrapping_an_entry_point_twice_wraps_it_once():
    import types

    owner = types.SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    seen = []
    tracer = Tracer()
    tracer.wrap(owner, "f", "f", lambda a, k, r, s: seen.append(("a", r)))
    wrapped = owner.f
    tracer.wrap(owner, "f", "f", lambda a, k, r, s: seen.append(("b", r)))
    assert owner.f is wrapped
    assert owner.f(1) == 2
    assert seen == [("a", 2), ("b", 2)] and len(tracer.spans) == 1
    tracer.uninstall()
    assert owner.f is original


def test_package_rollup():
    assert package_of("/x/src/repro/cache/setassoc.py") == "cache"
    assert package_of("/x/src/repro/service/jobs.py") == "other"
    assert package_of("~") == "other"
