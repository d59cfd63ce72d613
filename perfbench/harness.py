"""Round loop, aggregation and the result line.

The parent process runs rounds of one workload, each in a fresh child
process, until ``--seconds`` have passed; then it aggregates the rounds
into the metrics ``BENCHMARK.json`` names and prints them as the last
line of standard output::

    {"correct": true, "attempted": 27, "failed": 0,
     "metrics": {"wall_s": {"value": 9.61, "unit": "s"}, ...}}

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs three
rounds — untraced, with spans, with spans and cProfile — and prints the
per-layer metrics: span figures from the second round, ``self_s.*`` from
the third, and each one's wall time over the untraced round's as its
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (stores, reports, spans, round
#: records); listed in .gitignore.
WORK = os.path.join(ROOT, ".perfbench")

#: A run stops starting rounds once this much time has passed, whatever
#: ``--seconds`` says, so it ends well inside 180 s.
HARD_STOP_S = 120.0
ROUND_TIMEOUT_S = 150.0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def round_seed(seed: int, index: int) -> int:
    """Round ``index`` of a run seeded ``seed`` gets its own input seed."""
    return random.Random(f"{seed}:{index}").randrange(1 << 31)


# --------------------------------------------------------------- child
def child_main(args: argparse.Namespace) -> int:
    """One round in this (fresh) process; writes its record as JSON."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from perfbench import workloads
    from perfbench.tracing import Tracer, install

    tracer = Tracer(profile=args.mode == "profile")
    if args.mode != "plain":
        install(tracer)
    tmp = os.path.join(WORK, f"round-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        rnd = workloads.Round(args.seed, tracer, tmp, oracle=args.oracle)
        record = workloads.WORKLOADS[args.workload](rnd)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["ready_at"] = rnd.ready_at
    record["mode"] = args.mode
    if args.mode != "plain":
        record["layers"] = dict(layer_metrics(tracer), **record["layers"])
        tracer.write(os.path.join(
            WORK, "spans", f"{args.workload}-{args.seed}-{args.mode}.json"))
    with open(args.round_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


def layer_metrics(tracer) -> dict:
    """The per-layer numbers the spans and the profile give."""
    counts = tracer.counts
    gen_calls = counts["workloads.gen_calls"]
    run_s = tracer.total("gpu.run")
    out = {
        "workloads.gen_s": tracer.total("workloads.generate",
                                        "workloads.make_mix"),
        "workloads.gen_calls": gen_calls,
        "workloads.gen_unique_ratio":
            len(tracer.gen_keys) / gen_calls if gen_calls else 0.0,
        "gpu.build_s": tracer.total("gpu.build"),
        "gpu.builds": counts["gpu.builds"],
        "gpu.runs.event": counts["gpu.runs.event"],
        "gpu.runs.fastpath": counts["gpu.runs.fastpath"],
        "gpu.runs.batch": counts["gpu.runs.batch"],
        "gpu.run_s": run_s,
        "sim.events": counts["sim.events"],
        "sim.ns_per_event": run_s / counts["sim.events"] * 1e9
        if counts["sim.events"] else 0.0,
        "campaign.overhead_s": tracer.self_time("campaign.prefetch"),
        "store.write_s": tracer.total("store.write"),
        "store.writes": counts["store.writes"],
        "store.read_s": tracer.total("store.read"),
        "store.reads": counts["store.reads"],
        "store.bytes": counts["store.bytes"],
        "report.render_s": tracer.self_time("report.build"),
        "consolidate.run_s": counts["consolidate.run_s"],
    }
    out.update(tracer.self_seconds())
    return out


# -------------------------------------------------------------- parent
def run_round(workload: str, seed: int, mode: str, oracle: bool) -> dict:
    """Run one round in a fresh process and return its record.

    The round runs in its own session, so a round that overruns is
    killed together with any server and workers it started.  Every
    round gets the same hash seed, so rounds differ by their inputs and
    the host, not by the interpreter's string hashing.
    """
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"record-{os.getpid()}-{seed}.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--round-out", out,
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if oracle:
        cmd.append("--oracle")
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    os.remove(out)
    record["setup_s"] = record["ready_at"] - spawned_at
    return record


def run_rounds(workload: str, seed: int, seconds: float,
               trace: bool) -> list[dict]:
    """Whole untraced rounds for ``seconds``, or the three rounds of a
    traced run.

    A run starts another round only while the median round so far would
    end within ``seconds``, so it ends near ``seconds`` rather than up
    to one round later.
    """
    if trace:
        return [run_round(workload, round_seed(seed, i), mode, i == 0)
                for i, mode in enumerate(("plain", "spans", "profile"))]
    rounds: list[dict] = []
    took: list[float] = []
    start = time.monotonic()
    while not rounds or (time.monotonic() - start + statistics.median(took)
                         <= min(seconds, HARD_STOP_S)):
        began = time.monotonic()
        rounds.append(run_round(workload, round_seed(seed, len(rounds)),
                                "plain", not rounds))
        took.append(time.monotonic() - began)
    return rounds


def end_to_end(rounds: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "sim_instr_per_s": statistics.median(r["sim_instr"] / r["wall_s"]
                                             for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "job_p50_s": statistics.median(s for r in rounds for s in r["job_s"]),
        "adaptive_vs_best_static": statistics.median(
            r["adaptive_vs_best_static"] for r in rounds),
    }


def per_layer(rounds: list[dict], names: list[str]) -> dict:
    by_mode = {r["mode"]: r for r in rounds}
    plain, spans, profile = (by_mode[m] for m in ("plain", "spans",
                                                   "profile"))
    out = {name: (profile if name.startswith("self_s.") else spans)
           ["layers"].get(name, 0) for name in names}
    out["trace.overhead"] = spans["wall_s"] / plain["wall_s"]
    out["trace.profile_overhead"] = profile["wall_s"] / plain["wall_s"]
    return out


def result_line(rounds: list[dict], trace: bool, contract: dict) -> dict:
    specs = contract["per_layer"] if trace else contract["end_to_end"]
    names = [m["name"] for m in specs]
    values = per_layer(rounds, names) if trace else end_to_end(rounds)
    return {
        "correct": all(not r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }


def print_summary(workload: str, rounds: list[dict]) -> None:
    """Human-readable lines before the result: operations by kind and
    every correctness problem."""
    totals: dict = {}
    for r in rounds:
        for kind, (attempted, failed) in r["ops"].items():
            t = totals.setdefault(kind, [0, 0])
            t[0] += attempted
            t[1] += failed
    ops = ", ".join(f"{kind} {a} attempted / {f} failed"
                    for kind, (a, f) in totals.items())
    print(f"[perfbench] {workload}: {len(rounds)} rounds; {ops}")
    for r in rounds:
        for problem in r["problems"]:
            print(f"[perfbench] CHECK FAILED: {problem}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload; print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One round in a child process (used by the parent, not by hand).
    parser.add_argument("--round-out", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"),
                        default="plain", help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        contract = load_contract()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {workloads})", file=sys.stderr)
        return 2
    if args.round_out:
        return child_main(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(rounds, bool(args.trace), contract)
    print_summary(args.workload, rounds)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1
