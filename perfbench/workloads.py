"""The three benchmark workloads, one round each.

A round is one fixed set of operations run in a fresh process, so every
round starts cold (no in-process memo, empty result store).  Each round
function takes a :class:`Round`, marks the instant it is ready to issue
its first operation, times its operations, then — outside the timed
region and with tracing removed — checks the outputs and returns a
record of plain numbers for the harness to aggregate.

Workloads (see README.md for why each was chosen):

* ``report-cold``: ``ReportBuilder.build`` at smoke scale into an empty
  store, one process.
* ``sim-medium``: Figure-11-style single-program ``execute_spec`` runs,
  one benchmark per catalog category under three policies.
* ``serve-closed``: ``repro serve`` with two workers, two closed-loop
  ``ServiceClient`` threads.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

from perfbench import checks
from perfbench.tracing import Tracer

POLICIES = ("static-shared", "static-private", "paper-adaptive")

#: report-cold: the figures built and their scale (the ``smoke`` preset).
#: Figure 11 is the paper's headline comparison; 12 and 13 declare specs
#: that collapse onto Figure 11's in the campaign dedup; 14 attaches the
#: energy model to its runs.
REPORT_FIGURES = ("11", "12", "13", "14")
REPORT_SCALE = 0.02

#: sim-medium: (benchmark, scale) per catalog category, each sized so one
#: simulation takes 0.6-1.1 s on a 2-core x86 host.  Trace generation
#: grows with the trace like the run does, so larger scales would not
#: shrink its ~10% share of the time.
SIM_MEDIUM = (("LUD", 0.25), ("AN", 0.75), ("BS", 0.15))

#: serve-closed: fresh jobs are 3-tenant mixes at this scale under
#: Poisson arrivals; the store is pre-populated with closed mixes of
#: STORED_MIXES under every policy, at STORED_SCALE.
FRESH_SCALE = 0.25
FRESH_ARRIVALS = "poisson:gap=1000"
STORED_MIXES = (("LUD", "AN", "BS"), ("SP", "SN", "VA"))
STORED_SCALE = 0.05
SERVE_WORKERS = 2


class Round:
    """What one round process knows: its seed, tracer and scratch dir.

    An untraced round gets a bare :class:`Tracer` (no entry point
    wrapped, no profile), which a round function may still use to hook
    one entry point.  ``oracle`` asks the round to re-run a seeded sample
    of its results outside the timed region; a run does that once, in
    its first round.
    """

    def __init__(self, seed: int, tracer: Optional[Tracer], tmp: str,
                 oracle: bool = True):
        self.seed = seed
        self.oracle = oracle
        self.rng = random.Random(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self.tmp = tmp
        self.ready_at: Optional[float] = None

    def ready(self) -> None:
        """Set-up is over: the first operation can be issued now."""
        self.ready_at = time.monotonic()

    def profiled(self):
        """Wrap the timed operations (cProfile in a profile round)."""
        return self.tracer.profiled()

    def stop_tracing(self) -> None:
        self.tracer.uninstall()


# ------------------------------------------------------------- helpers
def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (from /proc children lists)."""
    out, todo = [], [pid]
    while todo:
        parent = todo.pop()
        task_dir = f"/proc/{parent}/task"
        try:
            tids = os.listdir(task_dir)
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/children", encoding="ascii") \
                        as fh:
                    kids = [int(k) for k in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def adaptive_vs_best_static(ipcs: dict) -> float:
    """Geometric mean over comparison groups of IPC(paper-adaptive) /
    max(IPC(static-shared), IPC(static-private)).

    ``ipcs`` maps a group (a benchmark or a mix) to ``{policy: ipc}``;
    groups without all three policies are skipped.
    """
    ratios = [g["paper-adaptive"] / max(g["static-shared"],
                                        g["static-private"])
              for g in ipcs.values() if all(p in g for p in POLICIES)]
    if not ratios:
        raise ValueError("no group ran under all three policies")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def policy_groups(pairs) -> dict:
    """``{group: {canonical policy: ipc}}`` for uniform-policy specs,
    grouped by everything in the spec but the policy."""
    import dataclasses

    from repro.policy import canonical_policy_name

    groups: dict = {}
    for spec, result in pairs:
        if spec.mode_b is not None:
            continue
        policy = canonical_policy_name(spec.mode)
        if any(canonical_policy_name(e[1]) != policy for e in spec.extra):
            continue
        group = dataclasses.replace(
            spec, mode="static-shared", policy_params=(),
            extra=tuple((e[0], "static-shared", ()) for e in spec.extra)
        ).cache_key()
        groups.setdefault(group, {})[policy] = result["ipc"]
    return groups


def modelled_metrics(results: list[dict]) -> dict:
    """Per-layer modelled quantities summed over a round's fresh results."""
    accesses = sum(r["llc_accesses"] for r in results)
    cycles = sum(r["cycles"] for r in results)
    p95s = [max(p["latency"]["p95"] for p in r["programs"])
            for r in results
            if any(p.get("latency") for p in r["programs"])]
    return {
        "cache.llc_accesses": accesses,
        "cache.llc_miss_rate": (sum(r["llc_misses"] for r in results)
                                / accesses) if accesses else 0.0,
        "cache.l1_miss_rate": statistics.fmean(
            r["l1_miss_rate"] for r in results) if results else 0.0,
        "noc.response_flits": sum(r["llc_response_flits"] for r in results),
        "mem.dram_reads": sum(r["dram_reads"] for r in results),
        "mem.dram_writes": sum(r["dram_writes"] for r in results),
        "core.transitions": sum(r["transitions"] for r in results),
        "core.decisions": sum(len(r["decisions"]) for r in results),
        "core.private_share": (sum(r["time_in_private"] for r in results)
                               / cycles) if cycles else 0.0,
        "core.stall_cycles": sum(r["stall_cycles"] for r in results),
        "consolidate.latency_p95_cycles": statistics.median(p95s)
        if p95s else 0.0,
    }


# ---------------------------------------------------------- report-cold
def report_cold(rnd: Round) -> dict:
    import json

    from repro.experiments import campaign as campaign_mod
    from repro.experiments import figure_module
    from repro.report.builder import ReportBuilder

    figures = list(REPORT_FIGURES)
    rnd.rng.shuffle(figures)
    declared = [s for n in figures
                for s in figure_module(n).specs(scale=REPORT_SCALE)]
    unique = len({s.cache_key() for s in declared})
    campaign = campaign_mod.Campaign(jobs=1,
                                     cache_dir=os.path.join(rnd.tmp, "store"))
    builder = ReportBuilder(os.path.join(rnd.tmp, "report"),
                            scale=REPORT_SCALE, campaign=campaign,
                            figures=figures)
    log: list = []

    def timed(args, _kwargs, result, span):
        log.append((args[0], result, span["end"] - span["start"]))

    rnd.tracer.wrap(campaign_mod, "execute_spec", "experiments.execute_spec",
                    timed)
    rnd.ready()
    start = time.perf_counter()
    error = None
    try:
        with rnd.profiled():
            report = builder.build()
    except Exception as exc:  # a failed simulation aborts the build
        report, error = None, exc
    wall = time.perf_counter() - start
    rss = own_peak_rss_mb()
    rnd.stop_tracing()

    results = [(spec, result.to_dict()) for spec, result, _ in log]
    problems = [f"report build raised {error!r}"] if error else []
    if report is not None:
        with open(report.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        problems += checks.report_problems(report.has_errors, manifest,
                                           figures, campaign.executed,
                                           unique)
    problems += checks.results_problems(results, checks.TraceFacts())
    statuses = [t.status for f in (report.figures if report else [])
                for t in f.trends]
    failed = unique - len(log) if error else 0
    return {
        "wall_s": wall, "peak_rss_mb": rss,
        "ops": {"simulations": [unique, failed],
                "figures": [len(figures), len(figures) if error else 0]},
        "attempted": unique, "failed": failed,
        "sim_instr": sum(r["instructions"] for _, r in results),
        "job_s": [seconds for _, _, seconds in log],
        "adaptive_vs_best_static": adaptive_vs_best_static(
            policy_groups(results)),
        "problems": problems,
        "layers": dict(
            modelled_metrics([r for _, r in results]),
            **{"campaign.declared": len(declared),
               "campaign.unique": unique,
               "campaign.executed": campaign.executed,
               "report.trends_pass": statuses.count("PASS"),
               "report.trends_warn": statuses.count("WARN")}),
    }


# ----------------------------------------------------------- sim-medium
def sim_medium_specs() -> list:
    from repro.experiments.campaign import RunSpec
    from repro.experiments.runner import experiment_config

    cfg = experiment_config()
    return [RunSpec.single(abbr, policy, cfg, scale=scale)
            for abbr, scale in SIM_MEDIUM for policy in POLICIES]


def sim_medium(rnd: Round) -> dict:
    import dataclasses

    from repro.experiments import campaign

    specs = sim_medium_specs()
    rnd.rng.shuffle(specs)
    oracle_index = rnd.rng.randrange(len(specs))
    results, job_s, failed = [], [], 0
    rnd.ready()
    start = time.perf_counter()
    with rnd.profiled():
        for spec in specs:
            t0 = time.perf_counter()
            try:
                result = campaign.execute_spec(spec)
            except Exception:  # counted, the round goes on
                failed += 1
                continue
            job_s.append(time.perf_counter() - t0)
            results.append((spec, result))
    wall = time.perf_counter() - start
    rss = own_peak_rss_mb()
    rnd.stop_tracing()

    pairs = [(spec, result.to_dict()) for spec, result in results]
    problems = checks.results_problems(pairs, checks.TraceFacts())
    # The event tier is the reference oracle: a seeded sample re-run on
    # it must reproduce the timed run's result byte for byte.
    if rnd.oracle and oracle_index < len(pairs):
        spec, got = pairs[oracle_index]
        event_spec = dataclasses.replace(
            spec, cfg=spec.cfg.replace(tier="event"))
        problems += checks.same_payload_problems(
            f"{spec.label()} vs event-tier oracle", got,
            campaign.execute_spec(event_spec).to_dict())
    return {
        "wall_s": wall, "peak_rss_mb": rss,
        "ops": {"simulations": [len(specs), failed]},
        "attempted": len(specs), "failed": failed,
        "sim_instr": sum(r["instructions"] for _, r in pairs),
        "job_s": job_s,
        "adaptive_vs_best_static": adaptive_vs_best_static(
            policy_groups(pairs)),
        "problems": problems,
        "layers": modelled_metrics([r for _, r in pairs]),
    }


# --------------------------------------------------------- serve-closed
def stored_specs() -> list:
    from repro.experiments.campaign import spec_from_mix

    return [spec_from_mix("+".join(mix), scale=STORED_SCALE,
                          default_policy=policy)
            for mix in STORED_MIXES for policy in POLICIES]


def fresh_specs(rng: random.Random) -> list:
    """Six distinct 3-tenant mixes, one tenant per catalog category.

    Within a round every shared-friendly and every neutral benchmark
    appears once, every private-friendly one once plus one seeded repeat,
    and each policy twice, so the round's simulated work barely depends
    on the seed; the pairing, tenant order, policies and arrival seeds
    do.
    """
    from repro.experiments.campaign import spec_from_mix
    from repro.workloads.catalog import CATEGORIES

    shared = rng.sample(CATEGORIES["shared"], 6)
    neutral = rng.sample(CATEGORIES["neutral"], 6)
    private = rng.sample(CATEGORIES["private"], 5)
    private.append(rng.choice(private))
    policies = rng.sample(POLICIES * 2, 6)
    out = []
    for i in range(6):
        tenants = [shared[i], private[i], neutral[i]]
        rng.shuffle(tenants)
        out.append(spec_from_mix("+".join(tenants), scale=FRESH_SCALE,
                                 default_policy=policies[i],
                                 arrivals=FRESH_ARRIVALS,
                                 seed=rng.randrange(1 << 31)))
    return out


def serve_plans(rng: random.Random) -> tuple[list, list]:
    """The two clients' job lists of ``(kind, spec)``.

    Each client runs ``fresh, hit, dup`` twice.  ``fresh`` is a new
    simulation, which writes the store; ``hit`` resubmits a stored key,
    which reads it; ``dup`` is one new spec submitted by both clients at
    once, which the service coalesces.  The mix is synthetic: one job of
    each kind per step, the least that puts every path on the critical
    path, not shares measured from service traffic.
    """
    fresh = fresh_specs(rng)
    hits = stored_specs()
    rng.shuffle(hits)
    plans = []
    for c in range(2):
        plans.append([job for step in range(2)
                      for job in (("fresh", fresh[2 * c + step]),
                                  ("hit", hits[2 * c + step]),
                                  ("dup", fresh[4 + step]))])
    return plans[0], plans[1]


class ServerProcess:
    """``repro serve`` as a child process on an ephemeral port."""

    def __init__(self, cache_dir: str, log_path: str):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(SERVE_WORKERS),
             "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=self._log, env=env)
        self.port: Optional[int] = None

    def wait_port(self, timeout: float = 60.0) -> int:
        """Block until the server prints its bound port."""
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve exited at start")
                line += chunk
        # "[serve] campaign job server on http://127.0.0.1:PORT — ..."
        self.port = int(line.decode().split("http://", 1)[1]
                        .split()[0].rsplit(":", 1)[1])
        return self.port

    def peak_rss_mb(self) -> float:
        """Largest peak RSS among the server and its worker processes."""
        pids = [self.proc.pid] + descendants(self.proc.pid)
        peaks = []
        for pid in pids:
            try:
                peaks.append(peak_rss_mb_of(pid))
            except FileNotFoundError:
                continue
        return max(peaks)

    def stop(self) -> None:
        """SIGINT (the server drains its pool), then make sure every
        process it started is gone."""
        workers = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in workers:  # forked workers share the server's cmdline
            with contextlib.suppress(OSError):
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    if b"repro" in fh.read():
                        os.kill(pid, signal.SIGKILL)
        self.proc.stdout.close()
        self._log.close()


def _client_loop(client, plan, barrier, log, rnd: Round) -> None:
    polls = {"n": 0}
    last_status: dict = {}
    poll = client.job

    def counting_job(job_id):
        status = poll(job_id)
        polls["n"] += 1
        last_status[job_id] = status
        return status

    client.job = counting_job
    with rnd.profiled():
        for kind, spec in plan:
            entry = {"kind": kind, "spec": spec, "error": None}
            log.append(entry)
            try:
                if kind == "dup":
                    barrier.wait(timeout=120)
                entry["t_submit"] = time.perf_counter()
                reply = client.submit_spec(spec)
                entry["t_ack"] = time.perf_counter()
                entry["payload"] = client.wait(reply["id"], timeout=120)
                entry["t_done"] = time.perf_counter()
                entry["wall_done"] = time.time()
                entry["reply"] = reply
                entry["status"] = last_status.get(reply["id"])
            except Exception as exc:  # counted as a failed job
                entry["error"] = repr(exc)
                barrier.abort()
    log.append({"kind": "polls", "n": polls["n"]})


def serve_closed(rnd: Round) -> dict:
    from repro.experiments import campaign
    from repro.experiments.store import ResultStore
    from repro.service.client import ServiceClient

    plan_a, plan_b = serve_plans(rnd.rng)
    sample_rng = random.Random(rnd.rng.random())
    store_dir = os.path.join(rnd.tmp, "store")
    server = ServerProcess(store_dir, os.path.join(rnd.tmp, "serve.log"))
    try:
        store = ResultStore(store_dir)
        stored = {}
        for spec in stored_specs():
            result = campaign.execute_spec(spec).to_dict()
            store.store(spec.cache_key(), spec.to_dict(), result)
            stored[spec.cache_key()] = (spec, result)
        port = server.wait_port()
        clients = [ServiceClient(port=port, client=f"client-{c}")
                   for c in "ab"]
        clients[0].healthz()
        logs: list = [[], []]
        barrier = threading.Barrier(2)
        threads = [threading.Thread(target=_client_loop,
                                    args=(clients[i], plan, barrier,
                                          logs[i], rnd))
                   for i, plan in enumerate((plan_a, plan_b))]
        rnd.ready()
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=150)
        wall = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a service client did not finish")
        rss = max(own_peak_rss_mb(), server.peak_rss_mb())
        stats = clients[0].stats()
    finally:
        server.stop()
    rnd.stop_tracing()

    jobs = [e for log in logs for e in log if e["kind"] != "polls"]
    polls = sum(e["n"] for log in logs for e in log if e["kind"] == "polls")
    failed = sum(1 for e in jobs if e["error"] is not None)
    ok = [e for e in jobs if e["error"] is None]
    problems = [f"{e['spec'].label()}: {e['error']}" for e in jobs
                if e["error"] is not None]
    facts = checks.TraceFacts()
    problems += checks.results_problems(
        ((e["spec"], e["payload"]) for e in ok), facts)
    for e in ok:
        if e["kind"] == "hit":
            problems += checks.same_payload_problems(
                f"{e['spec'].label()} served from the store", e["payload"],
                stored[e["spec"].cache_key()][1])
    fresh_payloads: dict = {}
    for e in ok:
        if e["kind"] == "hit":
            continue
        key = e["spec"].cache_key()
        if key in fresh_payloads:
            problems += checks.same_payload_problems(
                f"{e['spec'].label()} duplicate", e["payload"],
                fresh_payloads[key][1])
        else:
            fresh_payloads[key] = (e["spec"], e["payload"])
    if rnd.oracle and fresh_payloads:
        key = sample_rng.choice(sorted(fresh_payloads))
        spec, payload = fresh_payloads[key]
        problems += checks.same_payload_problems(
            f"{spec.label()} vs in-process execute_spec", payload,
            campaign.execute_spec(spec).to_dict())

    fresh_jobs = [e for e in ok if e["kind"] != "hit"]
    execs = {}
    for e in fresh_jobs:
        status = e["status"] or {}
        if status.get("started_at") is not None:
            execs[e["spec"].cache_key()] = (status["finished_at"]
                                            - status["started_at"])

    def p50(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": wall, "peak_rss_mb": rss,
        "ops": {"service jobs": [len(jobs), failed],
                "http requests": [len(jobs) * 2 + polls + 1, failed]},
        "attempted": len(jobs), "failed": failed,
        "sim_instr": sum(p["instructions"]
                         for _, p in fresh_payloads.values()),
        "job_s": [e["t_done"] - e["t_submit"] for e in fresh_jobs],
        "adaptive_vs_best_static": adaptive_vs_best_static(
            policy_groups(stored.values())),
        "problems": problems,
        "layers": dict(
            modelled_metrics([p for _, p in fresh_payloads.values()]),
            **{"service.submit_p50_s": p50(e["t_ack"] - e["t_submit"]
                                           for e in ok),
               "service.hit_p50_s": p50(e["t_done"] - e["t_submit"]
                                        for e in ok if e["kind"] == "hit"),
               "service.queue_wait_p50_s": p50(
                   e["status"]["started_at"] - e["status"]["submitted_at"]
                   for e in fresh_jobs
                   if (e["status"] or {}).get("started_at") is not None),
               "service.exec_p50_s": p50(execs.values()),
               "service.poll_lag_p50_s": p50(
                   e["wall_done"] - e["status"]["finished_at"]
                   for e in fresh_jobs
                   if (e["status"] or {}).get("finished_at") is not None),
               "service.polls": polls,
               "service.worker_util": sum(execs.values())
               / (SERVE_WORKERS * wall),
               "service.coalesced": stats["jobs"]["coalesced"],
               "service.store_hits": stats["jobs"]["cache_hits"],
               "store.reads": stats["store"]["hits"]
               + stats["store"]["misses"]}),
    }


WORKLOADS = {
    "report-cold": report_cold,
    "sim-medium": sim_medium,
    "serve-closed": serve_closed,
}
