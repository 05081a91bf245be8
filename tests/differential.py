"""Differential campaign harness: one seeded campaign, run many ways.

The executor's contract is that *how* a campaign runs — serially, on a
2- or 4-worker pool, with or without the shared-memory golden cache,
interrupted and journal-resumed — must never change *what* it computes.
This module runs the same seeded campaign under each execution mode with
a fresh metrics registry and a fresh JSONL tracer, and returns a
:class:`DifferentialOutcome` capturing the three surfaces the contract
covers:

* ``stats`` — the full per-layer statistical surface (bit-identity, not
  approximate equality);
* ``injections`` — the ``campaign.injection`` trace-event multiset
  (ordering-free: parallel events interleave, but the set of injections
  with their exact ΔLoss/mismatch/SDC floats must match);
* ``counters`` — deterministic counter totals (``injection.*`` bit-flip
  counters and ``campaign.injections_total``), summed across labels and
  stripped of ``worker`` tags.

Every mode also checks, bit for bit, that each surface re-deriving the
per-layer results agrees with the mode's own ``CampaignResult`` (see
:func:`check_surfaces`): the served ``/progress`` document, the report
rebuilt from the JSONL trace and — when the mode journals —
``journal_progress`` on the journal.

For the ``resumed`` mode the campaign is interrupted mid-flight (a real
SIGINT delivered from the supervisor's ``on_record`` hook) and then
resumed from its write-ahead journal; the outcome combines both sub-runs
— journal-skipped records never re-emit events or counters, so the
*union* must equal a serial run exactly.  ``resumed`` counter totals
cover ``campaign.injections_total`` only: worker-side flip counters
stream per shard attempt, and an attempt killed by the interrupt can
have delivered a record batch whose telemetry message never arrived.
"""

from __future__ import annotations

import json
import os
import signal

from repro.core import GoldenEye, run_campaign
from repro.exec import ExecConfig

__all__ = ["MODES", "DifferentialOutcome", "layer_stats",
           "injection_multiset", "counter_totals", "check_surfaces",
           "run_mode"]

#: every execution mode the harness can drive.  A ``-kN`` suffix runs the
#: same campaign with ``fault_batch=N``: the shard loop hands plans to
#: ``execute_injection_batch`` N at a time, and records must stay
#: bit-identical to the ``fault_batch=1`` loop.
MODES = ("serial", "parallel2", "parallel4", "parallel2-noshm", "resumed",
         "serial-k4", "serial-k8", "parallel2-k4", "resumed-k4")

#: counter families that are deterministic under every mode (numerics.*
#: conversion counts legitimately differ between resume and full re-run)
DETERMINISTIC_COUNTER_PREFIXES = ("injection.", "campaign.injections_total")


class DifferentialOutcome:
    """One mode's comparable surfaces (plus the raw result for asserts)."""

    def __init__(self, result, stats, injections, counters, progress=None):
        self.result = result
        self.stats = stats
        self.injections = injections
        self.counters = counters
        #: the final ``progress/v1`` document fetched from a live ``/progress``
        #: endpoint (``run_mode(serve=True)``), or None
        self.progress = progress


def layer_stats(result) -> dict:
    """The full per-layer statistical surface, for bit-identity checks."""
    return {
        name: (r.injections, r.delta_losses, r.mean_delta_loss,
               r.max_delta_loss, r.mismatch_rate, r.sdc_rate)
        for name, r in result.per_layer.items()
    }


def injection_multiset(events) -> list[tuple]:
    """Order-free multiset of ``campaign.injection`` events (exact floats)."""
    return sorted(
        (e["layer"], e["site"], tuple(e["bits"]), e["delta_loss"],
         e["mismatch_rate"], e.get("sdc_rate"))
        for e in events if e.get("name") == "campaign.injection")


def counter_totals(snapshot, prefixes=DETERMINISTIC_COUNTER_PREFIXES) -> dict:
    """Counter values by (name, labels); worker-tagged entries excluded."""
    out: dict = {}
    for name, entries in snapshot.items():
        if not any(name.startswith(p) for p in prefixes):
            continue
        for e in entries:
            if e["type"] != "counter" or "worker" in e["labels"]:
                continue
            key = (name, tuple(sorted(e["labels"].items())))
            out[key] = out.get(key, 0.0) + e["value"]
    return out


def check_surfaces(result, events, journal=None, progress=None) -> None:
    """Assert every per-layer surface reproduces ``result`` bit for bit.

    * ``build_report(events=...)`` — ``repro report`` on the trace: count,
      mean/max ΔLoss, mismatch and SDC rates per layer;
    * ``progress`` (a served ``/progress`` document) and
      ``journal_progress(journal)`` — done and SDC rate per layer, the same
      Wilson interval on both, and — for a complete campaign — a total
      equal to the plan size actually executed.
    """
    from repro.obs.live import journal_progress
    from repro.obs.report import build_report

    expected = {name: (r.injections, r.mean_delta_loss, r.max_delta_loss,
                       r.mismatch_rate, r.sdc_rate)
                for name, r in result.per_layer.items()}
    report = build_report(events=events)
    got = {row["layer"]: (row["injections"], row["mean_delta_loss"],
                          row["max_delta_loss"], row["mismatch_rate"],
                          row["sdc_rate"])
           for row in report["layers"]}
    assert got == expected, f"trace report != result:\n{got}\n{expected}"

    complete = not (result.interrupted or result.quarantined)
    docs = {"/progress": progress}
    if journal is not None:
        docs["journal"] = journal_progress(journal)
    intervals = []
    for what, doc in docs.items():
        if doc is None:
            continue
        layers = {name: entry for name, entry in doc["layers"].items()
                  if entry["done"]}
        got = {name: (entry["done"], entry["sdc_rate"])
               for name, entry in layers.items()}
        want = {name: (r.injections, r.sdc_rate)
                for name, r in result.per_layer.items()}
        assert got == want, f"{what} != result:\n{got}\n{want}"
        if complete:
            assert all(entry["total"] == entry["done"]
                       for entry in layers.values()), \
                f"{what} totals overstate the executed plan: {layers}"
            assert doc["done"] == doc["total"], what
        intervals.append({name: entry["sdc_ci95"]
                          for name, entry in layers.items()})
    assert all(ci == intervals[0] for ci in intervals), intervals


def _sum_counters(*totals: dict) -> dict:
    merged: dict = {}
    for t in totals:
        for key, value in t.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


class _InterruptAfter:
    """Parent-side hook: deliver a real SIGINT after N accepted records."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, total_records: int) -> None:
        if total_records >= self.n:
            os.kill(os.getpid(), signal.SIGINT)


def _traced_campaign(model, format_spec, data, trace_path,
                     **campaign_kwargs):
    """One campaign under a fresh registry + tracer; both restored after."""
    from repro.obs import NULL_TRACER, configure_tracing, reset_registry, \
        set_tracer
    registry = reset_registry()
    tracer = configure_tracing(str(trace_path), registry=registry)
    try:
        with GoldenEye(model, format_spec) as ge:
            result = run_campaign(ge, *data, **campaign_kwargs)
    finally:
        tracer.close()
        set_tracer(NULL_TRACER)
        reset_registry()
    with open(trace_path, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    return result, registry.collect(), events


def run_mode(mode: str, model, format_spec, data, tmp_path, *,
             injections_per_layer: int = 5, seed: int = 13,
             interrupt_after: int = 4, serve: bool = True,
             fault_model="single", protect="none",
             layers=None, ledger=None) -> DifferentialOutcome:
    """Run the seeded campaign under ``mode`` and bundle its surfaces.

    Every mode uses the same ``(format_spec, seed, injections_per_layer,
    data)`` identity — including the fault model and protection
    (``fault_model`` / ``protect`` / ``layers`` extend the identity to the
    non-default injectors of :mod:`repro.core.faultmodels`) — so any
    observable difference between two returned outcomes is an executor
    bug, not a campaign difference.

    ``ledger`` (a path or open :class:`repro.obs.ledger.CampaignLedger`)
    is forwarded to every ``run_campaign`` call, so the parity tests can
    assert that each mode ledgers the same per-layer outcomes — for the
    ``resumed`` mode both the interrupted and the resuming run record
    (the resume updates the original row in place).

    ``serve=True`` (the default) runs the campaign with a live
    observability server on an ephemeral port and captures the final
    schema-validated ``/progress`` document in
    :attr:`DifferentialOutcome.progress` — the harness owns the server's
    lifecycle so the endpoint is still answering *after* ``run_campaign``
    returns (the sealed final state).  Every mode then runs
    :func:`check_surfaces` on its result.
    """
    label, fault_batch = mode, 1
    if "-k" in mode:
        mode, _, k = mode.rpartition("-k")
        fault_batch = int(k)
    common = dict(kind="value", location="neuron",
                  injections_per_layer=injections_per_layer, seed=seed,
                  fault_batch=fault_batch, fault_model=fault_model,
                  protect=protect, layers=layers, ledger=ledger)
    server = None
    if serve:
        from repro.obs.live import LiveServer
        server = LiveServer.start("127.0.0.1:0")
        common["serve"] = server
    journal = None
    try:
        if mode == "serial":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=1, **common)
        elif mode == "parallel2":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=2, **common)
        elif mode == "parallel4":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=4, **common)
        elif mode == "parallel2-noshm":
            result, metrics, events = _traced_campaign(
                model, format_spec, data, tmp_path / f"{label}.trace.jsonl",
                workers=2, shared_cache=False, **common)
        elif mode == "resumed":
            journal = str(tmp_path / "resumed.journal.jsonl")
            cfg = ExecConfig(workers=2, fault_batch=fault_batch,
                             on_record=_InterruptAfter(interrupt_after))
            partial, partial_metrics, partial_events = _traced_campaign(
                model, format_spec, data, tmp_path / "resumed.partial.jsonl",
                journal=journal, exec_config=cfg, **common)
            assert partial.interrupted, \
                "interrupt hook must leave the first run partial"
            result, resumed_metrics, resumed_events = _traced_campaign(
                model, format_spec, data, tmp_path / "resumed.final.jsonl",
                journal=journal, workers=2, **common)
            assert not result.interrupted
            assert result.telemetry["journal_skipped"] >= 1
            events = partial_events + resumed_events
            # see module docstring: only the parent-side acceptance counter
            # is exact across an interrupt boundary
            counters = _sum_counters(
                counter_totals(partial_metrics,
                               ("campaign.injections_total",)),
                counter_totals(resumed_metrics,
                               ("campaign.injections_total",)))
        else:
            raise ValueError(f"unknown differential mode {mode!r}")
        if mode != "resumed":
            counters = counter_totals(metrics)
        progress = _final_progress(server)
        check_surfaces(result, events, journal=journal, progress=progress)
        return DifferentialOutcome(result, layer_stats(result),
                                   injection_multiset(events), counters,
                                   progress=progress)
    finally:
        if server is not None:
            server.close()


def _final_progress(server) -> dict | None:
    """Fetch + validate the sealed /progress document, if a server ran."""
    if server is None:
        return None
    from repro.obs.live import fetch_progress
    return fetch_progress(server.url)
