"""Correctness checks on the program's outputs.

Every check compares an output against a property the method must have,
or against a value computed apart from the simulator run that produced
it — never against a stored copy of an earlier run's output.  Each
returns a list of problems (empty = pass), so one round reports every
failure at once.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Optional


def mix_accesses(scale: float) -> int:
    """Trace budget of each tenant of a pair or N-tenant mix.

    The runner has no function for it: ``run_pair``, ``run_mix`` and
    ``run_consolidation`` in ``repro.experiments.runner`` each compute
    this same expression inline, and this copy must follow them.
    """
    return max(4_000, int(60_000 * scale))


def canonical_json(payload: dict) -> str:
    """The byte form two result payloads are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TraceFacts:
    """Instructions and accesses of a spec's generated traces, computed by
    regenerating the traces with the workload generator (memoized)."""

    def __init__(self) -> None:
        self._memo: dict = {}

    def of(self, spec) -> tuple[float, int]:
        from repro.experiments.runner import _accesses_for
        from repro.workloads.catalog import benchmark
        from repro.workloads.generator import generate_workload
        from repro.workloads.multiprogram import make_mix

        num_ctas = spec.num_ctas if spec.num_ctas is not None \
            else 2 * spec.cfg.num_sms
        if spec.pair_with is None:
            total = _accesses_for(spec.benchmark, spec.scale)
            key = (spec.benchmark, num_ctas, total, spec.max_kernels)
            if key not in self._memo:
                wl = generate_workload(benchmark(spec.benchmark),
                                       num_ctas=num_ctas,
                                       total_accesses=total,
                                       max_kernels=spec.max_kernels)
                self._memo[key] = (wl.total_instructions, wl.total_accesses)
            return self._memo[key]
        abbrs = (spec.benchmark, spec.pair_with) \
            + tuple(entry[0] for entry in spec.extra)
        total = mix_accesses(spec.scale)
        key = (abbrs, num_ctas, total, spec.max_kernels)
        if key not in self._memo:
            mix = make_mix(abbrs, total_accesses=total, num_ctas=num_ctas,
                           max_kernels=spec.max_kernels)
            self._memo[key] = (
                sum(p.total_instructions for p in mix.programs),
                sum(p.total_accesses for p in mix.programs))
        return self._memo[key]


def _uniform_policy(spec) -> Optional[str]:
    """The canonical policy every program of ``spec`` runs, or None when
    programs run different policies."""
    from repro.policy import canonical_policy_name

    names = {canonical_policy_name(spec.mode)}
    if spec.mode_b is not None:
        names.add(canonical_policy_name(spec.mode_b))
    names.update(canonical_policy_name(entry[1]) for entry in spec.extra)
    return names.pop() if len(names) == 1 else None


def result_problems(spec, result: dict, facts: TraceFacts) -> list[str]:
    """Invariants every ``RunResult.to_dict()`` of ``spec`` must hold."""
    label = spec.label()
    out = []
    instructions, accesses = facts.of(spec)
    if result["instructions"] != instructions:
        out.append(f"{label}: retired {result['instructions']} "
                   f"instructions, traces hold {instructions}")
    if result["llc_hits"] + result["llc_misses"] != result["llc_accesses"]:
        out.append(f"{label}: llc_hits + llc_misses != llc_accesses")
    if result["llc_accesses"] and not math.isclose(
            result["llc_miss_rate"],
            result["llc_misses"] / result["llc_accesses"], rel_tol=1e-9):
        out.append(f"{label}: llc_miss_rate != llc_misses / llc_accesses")
    if not math.isclose(result["ipc"] * result["cycles"],
                        result["instructions"], rel_tol=1e-9):
        out.append(f"{label}: ipc x cycles != instructions")
    if result["dram_reads"] > result["llc_misses"]:
        out.append(f"{label}: dram_reads {result['dram_reads']} > "
                   f"llc_misses {result['llc_misses']}")
    if result["llc_accesses"] > accesses:
        out.append(f"{label}: {result['llc_accesses']} LLC accesses from "
                   f"traces of {accesses} accesses")
    policy = _uniform_policy(spec)
    if policy == "static-shared" and (result["transitions"] != 0
                                      or result["time_in_private"] != 0):
        out.append(f"{label}: static-shared run transitioned or spent "
                   f"time private")
    if policy == "static-private" and not math.isclose(
            result["time_in_private"], result["cycles"], rel_tol=1e-9):
        out.append(f"{label}: static-private run spent "
                   f"{result['time_in_private']} of {result['cycles']} "
                   f"cycles private")
    return out


def results_problems(pairs: Iterable[tuple], facts: TraceFacts) -> list[str]:
    """:func:`result_problems` over ``(spec, result_dict)`` pairs."""
    out = []
    for spec, result in pairs:
        out.extend(result_problems(spec, result, facts))
    return out


def same_payload_problems(label: str, got: dict, want: dict) -> list[str]:
    """A result payload must equal its reference byte for byte."""
    if canonical_json(got) != canonical_json(want):
        return [f"{label}: payload differs from its reference"]
    return []


def report_problems(has_errors: bool, manifest: dict, figures: list[str],
                    executed: int, unique_keys: int) -> list[str]:
    """A report round: no trend ERROR, every requested figure in the
    manifest, and exactly one simulation per unique declared cache key."""
    out = []
    if has_errors:
        out.append("report: a trend check raised ERROR")
    listed = sorted(f["number"] for f in manifest.get("figures", []))
    if listed != sorted(figures):
        out.append(f"report: manifest lists figures {listed}, "
                   f"expected {sorted(figures)}")
    if executed != unique_keys:
        out.append(f"report: executed {executed} simulations for "
                   f"{unique_keys} unique declared cache keys")
    return out
