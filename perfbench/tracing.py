"""Spans around the program's public entry points, and a cProfile rollup.

The benchmark never edits the program.  A traced round wraps the public
entry points it names (``ReportBuilder.build``, ``Campaign.prefetch``,
``execute_spec``, ``generate_workload``/``make_mix``,
``GPUSystem.__init__``/``run``, ``ResultStore.store``/``load`` and the
``ServiceClient`` verbs) in thin functions that record a span — name,
start, end, parent — plus the counts measured at that boundary.  Spans
stay in memory and are written out once, when the round ends.  An
untraced round installs none of this; only ``report-cold`` hooks
``execute_spec`` in every round, through the same wrapper, to time each
simulation the campaign runs.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import inspect
import itertools
import json
import os
import pstats
import re
import threading
import time
from collections import Counter
from typing import Callable, Optional

#: Packages of ``repro`` that get their own ``self_s.<package>`` figure;
#: everything else (stdlib, builtins, other ``repro`` packages) is
#: ``self_s.other``.
PROFILE_PACKAGES = ("sim", "gpu", "cache", "noc", "mem", "core", "policy",
                    "workloads", "experiments", "report", "power")

_PACKAGE_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def package_of(filename: str) -> str:
    """The ``self_s`` bucket a profiled function's file belongs to."""
    match = _PACKAGE_RE.search(filename)
    if match and match.group(1) in PROFILE_PACKAGES:
        return match.group(1)
    return "other"


class Tracer:
    """Records spans and boundary counts for one round.

    Spans opened on one thread nest under that thread's open span, so
    the two service clients of ``serve-closed`` keep separate trees.
    ``profile`` also runs cProfile over the timed operations; it slows
    them several times over, so a run takes its span timings from a
    round without it.
    """

    def __init__(self, profile: bool = False) -> None:
        self.profile = profile
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.gen_keys: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._hooks: dict = {}
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ spans
    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1]["id"] if stack else None,
                  "start": time.perf_counter(), "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str,
             on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_return(args, kwargs, result, span)`` runs after the call,
        outside the span, to record the counts measured at this boundary.
        Wrapping an entry point that is wrapped already only adds
        ``on_return`` to the wrapper in place, so each entry point is
        wrapped once and restored once.
        """
        hooks = self._hooks.get((id(owner), attr))
        if hooks is None:
            hooks = self._hooks[(id(owner), attr)] = []
            original = getattr(owner, attr)
            tracer = self

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name) as record:
                    result = original(*args, **kwargs)
                for hook in hooks:
                    hook(args, kwargs, result, record)
                return result

            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        if on_return is not None:
            hooks.append(on_return)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (newest first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._hooks.clear()

    # ---------------------------------------------------------- profile
    @contextlib.contextmanager
    def profiled(self):
        """cProfile the calling thread for the duration of the block
        (a no-op unless the tracer was made with ``profile=True``)."""
        if not self.profile:
            yield
            return
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            with self._lock:
                self._profiles.append(profile)

    def self_seconds(self) -> dict:
        """Profiled self time rolled up into ``self_s.<package>``."""
        out = {f"self_s.{pkg}": 0.0 for pkg in PROFILE_PACKAGES + ("other",)}
        if not self._profiles:
            return out
        stats = pstats.Stats(self._profiles[0])
        for profile in self._profiles[1:]:
            stats.add(profile)
        for (filename, _line, _func), row in stats.stats.items():
            out[f"self_s.{package_of(filename)}"] += row[2]  # tottime
        return out

    # ---------------------------------------------------------- derived
    def total(self, *names: str) -> float:
        """Summed duration of the spans called one of ``names``, leaving
        out those nested in another of them (``make_mix`` calls
        ``generate_workload``)."""
        outer = {s["id"] for s in self.spans if s["name"] in names}
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in names and s["parent"] not in outer)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children
        (children run on the same thread, so they never overlap)."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child_time[s["id"]]
                   for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      fh)


def is_consolidation(spec) -> bool:
    """True for the specs ``execute_spec`` routes to ``run_consolidation``."""
    return bool(spec.extra) or spec.arrivals is not None \
        or spec.placement is not None


def install(tracer: Tracer) -> None:
    """Wrap every public layer entry point the benchmark reaches."""
    from repro.experiments import campaign, runner, store
    from repro.gpu.system import GPUSystem
    from repro.report.builder import ReportBuilder
    from repro.service.client import ServiceClient
    from repro.workloads import generator, multiprogram

    gen_signature = inspect.signature(generator.generate_workload)

    def on_generate(args, kwargs, _workload, _span):
        bound = gen_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.counts["workloads.gen_calls"] += 1
        tracer.gen_keys.add((a["spec"].abbr, a["num_ctas"],
                             a["total_accesses"], a["max_kernels"],
                             a["address_offset"]))

    def on_build(args, _kwargs, _none, _span):
        tracer.counts["gpu.builds"] += 1
        tracer.counts[f"gpu.runs.{args[0].tier}"] += 1

    def on_run(args, _kwargs, _result, _span):
        tracer.counts["sim.events"] += args[0].engine.events_processed

    def on_store(args, _kwargs, _none, _span):
        result_store, key = args[0], args[1]
        path = result_store.path(key)
        tracer.counts["store.writes"] += 1
        if path is not None and os.path.exists(path):
            tracer.counts["store.bytes"] += os.path.getsize(path)

    def on_load(_args, _kwargs, _result, _span):
        tracer.counts["store.reads"] += 1

    tracer.wrap(ReportBuilder, "build", "report.build")
    tracer.wrap(campaign.Campaign, "prefetch", "campaign.prefetch")
    def on_execute(args, _kwargs, _result, span):
        if is_consolidation(args[0]):
            tracer.counts["consolidate.run_s"] += span["end"] - span["start"]

    tracer.wrap(campaign, "execute_spec", "experiments.execute_spec",
                on_execute)
    # runner and multiprogram bound generate_workload at import time, so
    # each module's own reference is the entry point their callers use.
    tracer.wrap(runner, "generate_workload", "workloads.generate",
                on_generate)
    tracer.wrap(multiprogram, "generate_workload", "workloads.generate",
                on_generate)
    tracer.wrap(multiprogram, "make_mix", "workloads.make_mix")
    tracer.wrap(GPUSystem, "__init__", "gpu.build", on_build)
    tracer.wrap(GPUSystem, "run", "gpu.run", on_run)
    tracer.wrap(store.ResultStore, "store", "store.write", on_store)
    tracer.wrap(store.ResultStore, "load", "store.read", on_load)
    for verb in ("submit", "job", "result", "stats"):
        tracer.wrap(ServiceClient, verb, f"service.{verb}")
