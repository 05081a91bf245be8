"""GoldenEye end-to-end benchmark: workloads, timed rounds, correctness gate.

Run through ``perfbench/run.py``, which pins the BLAS thread count, points
``REPRO_CACHE_DIR`` at the benchmark's own weight cache and puts the
checkout's ``src`` on ``PYTHONPATH`` before this module (and numpy) is
imported.  ``bench.py --warm`` trains or loads every zoo model the
workloads use; the measuring invocation takes the flags of ``run.py`` and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each workload answers one of the two questions GoldenEye is used for:
"how fault-tolerant is model M under format F?" (an injection campaign
through :func:`repro.core.run_campaign`) or "how accurate is M under F?"
(a format sweep through :func:`repro.core.evaluate_format_accuracy`).
Every workload runs both kinds of work, so that every end-to-end metric is
defined on every workload: its *main* unit is the work it was chosen for,
its *secondary* unit the other kind at a small size.  A run repeats rounds
of (three timed set-ups, one main unit, one secondary unit) for
``--seconds`` and reports medians over the rounds.

All times are host time (the simulator's own run time).  The modelled
accelerator is not validated against hardware, so no simulated time is
reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import nn
from repro.core import (GoldenEye, InferenceOutcome, compare_outcomes,
                        default_target_types, evaluate_format_accuracy,
                        run_campaign)
from repro.core.campaign import sample_layer_plans
from repro.data import SyntheticImageNet, get_pretrained
from repro.exec import ExecConfig
from repro.exec.journal import CampaignJournal
from repro.formats import flip_values_batched, make_format
from repro.nn.tensor import Tensor
from repro.obs import get_registry
from repro.obs.ledger import CampaignLedger, git_describe

from spans import SpanRecorder, install_layer_wrappers

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
OUT_DIR = HERE / "out"

#: the standard experiment dataset (the "ImageNet validation set" stand-in
#: of ``benchmarks/conftest.py`` and the CLI defaults): 800 images, 200 of
#: them in the validation split
DATASET = dict(num_classes=10, num_samples=800, image_size=32, seed=0)

#: training epochs per zoo model (the CLI and pytest-bench defaults)
EPOCHS = {"resnet18": 3, "simple_cnn": 3, "deit_tiny": 8}

#: the format sweep of the "accurate under F?" question, one spec per family
SWEEP_SPECS = ("fp32", "fp16", "int8", "bfp_e5m5_b16", "afp_e5m2", "posit8")
QUANT_SPECS = SWEEP_SPECS[1:]

#: fewest rounds a run makes, however short ``--seconds`` is
MIN_ROUNDS = 3
#: set-ups timed per round: a set-up takes a fraction of a second and varies
#: most from one repeat to the next, so it gets the most samples
SETUPS_PER_ROUND = 3


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    #: format of the campaign (and of the timed set-up's attach)
    spec: str
    #: evaluation batch of every campaign
    batch: int
    #: injections per layer of one campaign
    injections: int
    workers: int = 1
    fault_batch: int = 1
    journal: bool = False
    ledger: bool = False
    #: "campaign" or "sweep": the work the workload was chosen for
    main: str = "campaign"
    #: validation images one sweep evaluates under each format
    sweep_images: int = 200
    #: batch of the native-forward probe (``nn.forward_ms``)
    forward_batch: int = 16


WORKLOADS = {w.name: w for w in (
    # ROADMAP's baseline: single-bit neuron value flips over all 16 conv/
    # linear layers, serial, resumed from the golden checkpoint.  Time goes
    # to nn compute and formats quantize during replay; codec and replay
    # changes show here, exec and journal changes should not.
    Workload("resnet18-bfp-neuron", "resnet18", "bfp_e5m5_b16", batch=16,
             injections=2, sweep_images=32),
    # ~1 ms of compute per injection, so time goes to the exec layer (fork
    # pool, shared cache, record streaming), the journal, the fold, the
    # lane-batched flip kernel and sampling.  165 per layer exceeds the
    # 160-site space of fc, so sampling runs until it exhausts that layer.
    Workload("cnn-fp16-parallel", "simple_cnn", "fp16", batch=32,
             injections=165, workers=2, fault_batch=8, journal=True,
             ledger=True, forward_batch=32),
    # "accurate under F?" with no injection, resume or exec: whole-tensor
    # quantize in every family plus attach-time weight conversion on
    # transformer ops.  Injection and exec changes should read no change in
    # sweep_images_per_s.
    Workload("deit-format-sweep", "deit_tiny", "bfp_e5m5_b16", batch=16,
             injections=2, main="sweep", forward_batch=64),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_injection_s": "s",
    "inj_per_s": "1/s",
    "sweep_images_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "completed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "nn.forward_ms": "ms",
    **{f"formats.quantize_ns_per_elem.{s}": "ns/elem" for s in QUANT_SPECS},
    "formats.quantize_share": "ratio",
    "formats.flip_us_per_call": "us",
    "goldeneye.attach_ms": "ms",
    "goldeneye.capture_golden_ms": "ms",
    "goldeneye.forward_from_ms": "ms",
    "resume.hit_rate": "ratio",
    "resume.replays": "count",
    "campaign.sample_ms": "ms",
    "campaign.sample_yield": "ratio",
    "campaign.execute_ms": "ms",
    "campaign.aggregate_ms": "ms",
    "campaign.layer_ms_per_inj.first": "ms",
    "campaign.layer_ms_per_inj.last": "ms",
    "campaign.unattributed_frac": "ratio",
    "metrics.compare_us": "us",
    "exec.parallel_efficiency": "ratio",
    "exec.journal_append_us": "us",
    "exec.retries": "count",
    "exec.quarantined": "count",
    "exec.worker_deaths": "count",
    "obs.ledger_write_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
    **{f"dse.eval_ms.{s}": "ms" for s in SWEEP_SPECS},
}


class GateError(AssertionError):
    """The program's output failed the benchmark's correctness gate."""


def load_model(workload: Workload):
    """Build the dataset and load the cached weights: ``(model, images, labels)``."""
    dataset = SyntheticImageNet(**DATASET)
    model, (images, labels) = get_pretrained(
        workload.model, dataset, epochs=EPOCHS[workload.model], seed=0)
    return model, images, labels


def warm() -> None:
    """Train (on a cold cache) or load every model the workloads use."""
    for workload in {w.model: w for w in WORKLOADS.values()}.values():
        t0 = time.perf_counter()
        load_model(workload)
        print(f"warm {workload.model}: {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)


# ----------------------------------------------------------------------
# the two kinds of work
# ----------------------------------------------------------------------
class Runner:
    """One workload's model, data, seed and span recorder for a run.

    ``model`` is never left instrumented: each sweep format attaches and
    detaches its own platform.
    """

    def __init__(self, workload: Workload, seed: int,
                 recorder: SpanRecorder | None = None):
        self.w = workload
        self.seed = seed
        self.recorder = recorder
        self._files = 0
        self.model, self.images, self.labels = load_model(workload)

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder is not None \
            else nullcontext()

    def scratch(self, suffix: str) -> str:
        """A fresh file name in the run's scratch directory."""
        self._files += 1
        return str(WORK_DIR / f"{self.w.name}-{self._files}{suffix}")

    @property
    def eval_batch(self):
        return self.images[:self.w.batch], self.labels[:self.w.batch]

    def campaign(self, platform, injections=None, layers=None, workers=None,
                 fault_batch=None, resume=True, journal=None, ledger=None):
        """One ``run_campaign`` with the workload's settings, except where
        an argument overrides them.  ``injection_latency`` is never set."""
        w = self.w
        images, labels = self.eval_batch
        journal = w.journal if journal is None else journal
        ledger = w.ledger if ledger is None else ledger
        with self.span("campaign.run"):
            return run_campaign(
                platform, images, labels, kind="value", location="neuron",
                injections_per_layer=(w.injections if injections is None
                                      else injections),
                seed=self.seed, layers=layers,
                workers=w.workers if workers is None else workers,
                fault_batch=(w.fault_batch if fault_batch is None
                             else fault_batch),
                resume=resume,
                journal=self.scratch(".jsonl") if journal else None,
                ledger=self.scratch(".sqlite") if ledger else None)

    def sweep(self) -> dict[str, float | None]:
        """Accuracy under every sweep format; None where evaluation raised."""
        images = self.images[:self.w.sweep_images]
        labels = self.labels[:self.w.sweep_images]
        out: dict[str, float | None] = {}
        for spec in SWEEP_SPECS:
            with self.span(f"dse.eval.{spec}"):
                try:
                    out[spec] = evaluate_format_accuracy(
                        self.model, images, labels, spec)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    print(f"sweep {spec} failed: {exc!r}", file=sys.stderr)
                    out[spec] = None
        return out


def planned_injections(platform, runner: Runner) -> int:
    """Plans one campaign of the workload draws (the failure denominator).

    Follows the campaign's documented sampling contract (per-layer child
    RNG ``[seed, layer_index]``, see :mod:`repro.core.campaign`) on a
    platform whose output shapes a golden pass has already set.
    """
    total = 0
    for index, layer in enumerate(platform.layer_names()):
        rng = np.random.default_rng([runner.seed, index])
        total += len(sample_layer_plans(platform, layer, "value", "neuron",
                                        runner.w.injections, rng).plans)
    return total


# ----------------------------------------------------------------------
# digests and the correctness gate
# ----------------------------------------------------------------------
def campaign_vector(result) -> list:
    """Per-layer injections, SDC, mismatch and ΔLoss vectors of a campaign."""
    return [[name, r.injections, r.sdc_rate, r.mismatch_rate,
             list(r.delta_losses)]
            for name, r in sorted(result.per_layer.items())]


def digest(payload) -> str:
    """Hash of a result; floats enter by their exact shortest repr."""
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_equal(what: str, reference, other) -> None:
    """Raise :class:`GateError` unless two results are bit-identical."""
    if digest(reference) != digest(other):
        raise GateError(f"{what}: results differ "
                        f"({digest(reference)} != {digest(other)})")


def check_layer_subset(runner: Runner, platform, reference) -> None:
    """Re-run one layer serially, unbatched and without resume.

    Per-layer results depend neither on which other layers run nor on the
    execution mode, so the layer's statistics must match the reference
    campaign bit for bit.
    """
    layers = platform.layer_names()
    layer = layers[runner.seed % len(layers)]
    subset = runner.campaign(platform, layers=[layer], workers=1,
                             fault_batch=1, resume=False, journal=False,
                             ledger=False)
    mine = [row for row in campaign_vector(reference) if row[0] == layer]
    check_equal(f"serial re-run of layer {layer}", mine,
                campaign_vector(subset))


def check_fp32_identity(runner: Runner) -> None:
    """fp32 emulation of the sweep's model must reproduce the native forward
    of a freshly loaded copy bit for bit (which also proves the sweep's
    model carries no leftover instrumentation)."""
    images = Tensor(runner.images[:runner.w.sweep_images])
    fresh = load_model(runner.w)[0]
    runner.model.eval()
    with nn.no_grad():
        native = fresh(images).data.copy()
        with GoldenEye(runner.model, "fp32"):
            emulated = runner.model(images).data.copy()
    if not np.array_equal(native, emulated):
        raise GateError("fp32 emulated logits differ from the native forward")


def check_honest_host() -> None:
    """The emulated device latency defaults to 0; the benchmark never sets
    it (it passes no ``ExecConfig``), so no time is slept away."""
    default = {f.name: f.default for f in dataclasses.fields(ExecConfig)}
    if default["injection_latency"] != 0.0:
        raise GateError("ExecConfig.injection_latency defaults to "
                        f"{default['injection_latency']}, not 0")


# ----------------------------------------------------------------------
# per-layer microbenchmarks: direct calls into each module's public API
# ----------------------------------------------------------------------
def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def capture_activations(model, images) -> list[np.ndarray]:
    """Outputs of every conv/linear layer in one native forward."""
    acts: list[np.ndarray] = []
    handles = [m.register_forward_hook(
                   lambda mod, inp, out: acts.append(out.data.copy()))
               for _, m in model.named_modules()
               if isinstance(m, default_target_types())]
    try:
        with nn.no_grad():
            model(Tensor(images))
    finally:
        for h in handles:
            h.remove()
    return acts


def microbench(runner: Runner, result) -> dict[str, float]:
    """Per-call cost of the layer functions a parallel campaign calls in
    its workers (where spans stay), measured the same way on every workload."""
    w = runner.w
    rng = np.random.default_rng(runner.seed)
    out: dict[str, float] = {}
    runner.model.eval()

    batch = Tensor(runner.images[:w.forward_batch])
    with nn.no_grad():
        out["nn.forward_ms"] = 1e3 * _median_time(
            lambda: runner.model(batch), 7)

    images, labels = runner.eval_batch
    acts = capture_activations(runner.model, images)
    elems = sum(a.size for a in acts)
    for spec in QUANT_SPECS:
        fmt = make_format(spec)
        sec = _median_time(lambda: [fmt.real_to_format_tensor(a)
                                    for a in acts])
        out[f"formats.quantize_ns_per_elem.{spec}"] = 1e9 * sec / elems

    # the flip kernel as the injector calls it: per lane, one victim column
    # (the same element of every sample); fault_batch lanes per call
    fmt = make_format(w.spec)
    act = fmt.real_to_format_tensor(acts[0]).reshape(len(images), -1)
    calls = []
    for _ in range(64):
        cols = rng.integers(0, act.shape[1], size=w.fault_batch)
        values = np.concatenate([act[:, c] for c in cols])
        bits = [[int(rng.integers(0, fmt.bit_width))] for _ in cols]
        calls.append((values, bits))
    out["formats.flip_us_per_call"] = 1e6 * _median_time(
        lambda: [flip_values_batched(fmt, v, b) for v, b in calls]) / 64

    with nn.no_grad():
        logits = runner.model(Tensor(images)).data.copy()
    golden = InferenceOutcome(logits=logits, labels=labels)
    faulty = InferenceOutcome(
        logits=logits + rng.normal(0, 1, logits.shape).astype(np.float32),
        labels=labels)
    out["metrics.compare_us"] = 1e6 * _median_time(
        lambda: [compare_outcomes(golden, faulty) for _ in range(100)]) / 100

    # journal appends in the executor's framing: batches of 32 records,
    # including the journal's open and its flushing close
    records = [{"kind": "value", "site": int(rng.integers(0, 1 << 16)),
                "bits": [int(rng.integers(0, 16))], "delta_loss": float(d),
                "mismatch_rate": 0.0, "sdc_rate": 0.0, "dur_s": 1e-3,
                "layer": "bench", "seq": i}
               for i, d in enumerate(rng.random(256))]

    def journal_appends():
        journal, _ = CampaignJournal.open(runner.scratch(".jsonl"),
                                          result.fingerprint)
        with journal:
            for i in range(0, len(records), 32):
                journal.append_batch(records[i:i + 32])

    out["exec.journal_append_us"] = 1e6 * _median_time(
        journal_appends) / len(records)

    def ledger_write() -> float:
        ledger = CampaignLedger(runner.scratch(".sqlite"))
        try:
            t0 = time.perf_counter()
            ledger.record_campaign(
                result, fingerprint=result.fingerprint, seed=runner.seed,
                injections_per_layer=w.injections, workers=w.workers,
                fault_batch=w.fault_batch, layers=list(result.per_layer))
            return time.perf_counter() - t0
        finally:
            ledger.close()

    out["obs.ledger_write_ms"] = 1e3 * statistics.median(
        ledger_write() for _ in range(5))
    return out


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def peak_rss_mb(workers: int) -> float:
    """Peak resident memory: this process plus, for a worker pool, each
    worker at the largest worker's peak (an upper bound: pages the fork
    shares with the parent count once per worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


@dataclass
class Unit:
    """One timed repetition of a campaign or a sweep."""

    wall: float
    result: object
    planned: int
    completed: int


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.recorder = SpanRecorder() if trace else None
        self.runner = Runner(workload, seed, self.recorder)
        self.planned = 0
        self.campaign_units: list[Unit] = []

    @contextmanager
    def _phase(self, tag: str, traced: bool):
        """Run a block under span tag ``tag``, with wrappers if ``traced``."""
        if self.recorder is not None:
            self.recorder.tag = tag
        if traced:
            install_layer_wrappers(self.recorder)
        try:
            yield
        finally:
            if traced:
                self.recorder.uninstall()

    def setup_once(self) -> tuple[float, float]:
        """Seconds to a ready platform, and to the first injection."""
        t0 = time.perf_counter()
        model, _, _ = load_model(self.w)
        platform = GoldenEye(model, self.w.spec).attach()
        t_ready = time.perf_counter()
        first_layer = platform.layer_names()[:1]
        first = self.runner.campaign(platform, injections=1,
                                     layers=first_layer)
        t_first = time.perf_counter()
        platform.detach()
        if first.per_layer[first_layer[0]].injections != 1:
            raise GateError("the first-injection campaign injected nothing")
        return t_ready - t0, t_first - t0

    def campaign_unit(self, platform) -> Unit:
        t0 = time.perf_counter()
        result = self.runner.campaign(platform)
        wall = time.perf_counter() - t0
        completed = sum(r.injections for r in result.per_layer.values())
        return Unit(wall, result, self.planned, completed)

    def sweep_unit(self) -> Unit:
        t0 = time.perf_counter()
        with self.runner.span("sweep.unit"):
            accs = self.runner.sweep()
        wall = time.perf_counter() - t0
        return Unit(wall, accs, len(accs),
                    sum(a is not None for a in accs.values()))

    def run(self) -> dict:
        w, r = self.w, self.runner
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        WORK_DIR.mkdir(parents=True)

        # the campaign platform instruments its own copy of the model; the
        # sweep, the fp32 check and the microbenchmarks use the pristine one
        platform = GoldenEye(load_model(w)[0], w.spec).attach()
        # a golden pass sets the output shapes that sampling needs
        r.campaign(platform, injections=1, layers=platform.layer_names()[:1],
                   workers=1, journal=False, ledger=False)
        self.planned = planned_injections(platform, r)
        campaign = lambda: self.campaign_unit(platform)  # noqa: E731
        work, secondary = ((campaign, self.sweep_unit) if w.main == "campaign"
                           else (self.sweep_unit, campaign))

        # Rounds interleave every kind of work, so each metric samples the
        # whole run rather than one stretch of it.  A traced run adds a
        # traced copy of the main unit next to the untraced one, so tracing
        # overhead is measured against interleaved baselines.
        setups, main, second, traced = [], [], [], []
        t0 = time.perf_counter()
        while len(main) < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            with self._phase("setup", self.trace):
                setups += [self.setup_once() for _ in range(SETUPS_PER_ROUND)]
            with self._phase("main", False):
                main.append(work())
            if self.trace:
                with self._phase("main", True):
                    traced.append(work())
            with self._phase("secondary", self.trace):
                second.append(secondary())
        rss = peak_rss_mb(w.workers)

        shadow = None
        if self.trace and w.workers > 1:
            # spans inside forked workers stay there: a serial shadow of
            # the same campaign attributes the workers' share of the time
            with self._phase("shadow", True):
                shadow = r.campaign(platform, workers=1, journal=False,
                                    ledger=False)

        campaign_units, sweep_units = ((main, second) if w.main == "campaign"
                                       else (second, main))
        self.campaign_units = campaign_units
        # traced units must reproduce the untraced results bit for bit
        traced_campaigns = traced if w.main == "campaign" else []
        traced_sweeps = traced if w.main == "sweep" else []
        digests = self.gate(
            platform,
            [u.result for u in campaign_units + traced_campaigns]
            + ([shadow] if shadow is not None else []),
            [u.result for u in sweep_units + traced_sweeps])
        platform.detach()

        attempted = sum(u.planned for u in main + second)
        report = {"attempted": attempted,
                  "failed": attempted - sum(u.completed for u in main + second),
                  "digests": digests,
                  "rounds": len(main)}
        if self.trace:
            report["metrics"] = {
                **self.per_layer(campaign_units, traced, main),
                **microbench(r, campaign_units[-1].result)}
        else:
            report["metrics"] = {
                "setup_s": statistics.median(s for s, _ in setups),
                "first_injection_s": statistics.median(f for _, f in setups),
                "inj_per_s": statistics.median(
                    u.completed / u.wall for u in campaign_units),
                "sweep_images_per_s": statistics.median(
                    len(SWEEP_SPECS) * w.sweep_images / u.wall
                    for u in sweep_units),
                "peak_rss_mb": rss,
                "completed_frac": (sum(u.completed for u in main)
                                   / sum(u.planned for u in main)),
            }
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        return report

    def gate(self, platform, campaigns, sweeps) -> dict:
        """Check every result; return the digests.  Untimed."""
        ref = campaigns[0]
        for other in campaigns[1:]:
            check_equal("repeated campaign", campaign_vector(ref),
                        campaign_vector(other))
        if ref.telemetry.get("quarantined_shards") or ref.interrupted:
            raise GateError("the reference campaign did not complete")
        check_layer_subset(self.runner, platform, ref)

        accs = sweeps[0]
        for other in sweeps[1:]:
            check_equal("repeated sweep", accs, other)
        if any(a is None or not 0.0 <= a <= 1.0 for a in accs.values()):
            raise GateError(f"sweep accuracies out of range: {accs}")
        check_fp32_identity(self.runner)
        return {"campaign": digest(campaign_vector(ref)),
                "sweep": digest(accs)}

    # -- per-layer attribution (traced runs) -----------------------------
    def per_layer(self, campaign_units, traced_units,
                  untraced_units) -> dict[str, float]:
        rec, w = self.recorder, self.w
        campaign_tag = "main" if w.main == "campaign" else "secondary"
        # worker-side work of a parallel campaign comes from its serial
        # shadow; parent-side work from the campaign spans themselves
        worker_tag = "shadow" if w.workers > 1 else campaign_tag
        out: dict[str, float] = {}

        def self_ms_per_root(tag, child):
            """Median over campaigns of ``child``'s self time in each (ms)."""
            return 1e3 * statistics.median(
                sum(s.self_time for s in rec.within(root) if s.name == child)
                for root in rec.select("campaign.run", tag))

        def mean_ms(name, tag=None, self_time=False):
            spans = rec.select(name, tag)
            return 1e3 * sum(s.self_time if self_time else s.dur
                             for s in spans) / len(spans)

        out["goldeneye.attach_ms"] = mean_ms("goldeneye.attach", "setup")
        out["goldeneye.capture_golden_ms"] = mean_ms(
            "goldeneye.capture_golden", "setup")
        out["goldeneye.forward_from_ms"] = mean_ms(
            "goldeneye.forward_from", worker_tag, self_time=True)
        out["campaign.sample_ms"] = self_ms_per_root(campaign_tag,
                                                     "campaign.sample")
        out["campaign.execute_ms"] = self_ms_per_root(worker_tag,
                                                      "campaign.execute")
        out["campaign.aggregate_ms"] = self_ms_per_root(campaign_tag,
                                                        "campaign.aggregate")
        roots = (rec.select("sweep.unit", "main") if w.main == "sweep"
                 else rec.select("campaign.run", worker_tag))
        out["formats.quantize_share"] = sum(
            s.self_time for root in roots for s in rec.within(root)
            if s.name == "formats.quantize") / sum(r.dur for r in roots)
        runs = rec.select("campaign.run", campaign_tag)
        out["campaign.unattributed_frac"] = (
            sum(s.self_time for s in runs) / sum(s.dur for s in runs))
        for spec in SWEEP_SPECS:
            out[f"dse.eval_ms.{spec}"] = mean_ms(f"dse.eval.{spec}")

        results = [u.result for u in campaign_units]
        stats = [res.resume_stats for res in results]
        out["resume.hit_rate"] = statistics.median(
            s["hits"] / max(s["hits"] + s["misses"], 1) for s in stats)
        out["resume.replays"] = statistics.median(s["replayed"] for s in stats)
        tel = [res.telemetry for res in results]
        out["campaign.sample_yield"] = statistics.median(
            t["injections"] / (t["injections"] + t["sampling_retries"])
            for t in tel)
        layers = list(results[0].per_layer)
        for key, layer in (("first", layers[0]), ("last", layers[-1])):
            out[f"campaign.layer_ms_per_inj.{key}"] = 1e3 * statistics.median(
                t["per_layer"][layer]["seconds"]
                / t["per_layer"][layer]["injections"] for t in tel)
        out["exec.parallel_efficiency"] = statistics.median(
            sum(p["seconds"] for p in t["per_layer"].values())
            / (t["workers"] * t["wall_seconds"]) for t in tel)

        registry = get_registry()

        def counter(name):
            metric = registry.get(name)
            return float(metric.value) if metric is not None else 0.0

        out["exec.retries"] = counter("exec.shard_retries_total")
        out["exec.worker_deaths"] = counter("exec.worker_deaths_total")
        out["exec.quarantined"] = float(sum(len(res.quarantined)
                                            for res in results))
        out["obs.trace_overhead_frac"] = (
            statistics.median(u.wall for u in traced_units)
            / statistics.median(u.wall for u in untraced_units) - 1.0)
        return out

    def detail(self) -> list[str]:
        """Human-readable attribution printed by a traced run."""
        rec = self.recorder
        lines = ["self time by layer function (phase:function):"]
        totals: dict[str, list] = {}
        for s in rec.spans:
            entry = totals.setdefault(f"{s.tag}:{s.name}", [0, 0.0])
            entry[0] += 1
            entry[1] += s.self_time
        for key, (calls, self_s) in sorted(totals.items()):
            lines.append(f"  {key:44s} calls={calls:6d} self={self_s:9.4f}s")
        tag = "main" if self.w.main == "campaign" else "secondary"
        runs = rec.select("campaign.run", tag)
        lines.append("campaign wall time no wrapped layer function accounts "
                     f"for: {sum(s.self_time for s in runs):.3f}s of "
                     f"{sum(s.dur for s in runs):.3f}s")
        lines.append("campaign ms per injection by instrumented layer:")
        tel = self.campaign_units[0].result.telemetry
        for layer, p in tel["per_layer"].items():
            lines.append(
                f"  {layer:24s} {1e3 * p['seconds'] / p['injections']:8.3f}"
                f"  ({p['injections']} inj, {p['retries']} retries)")
        return lines


def host_info(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_describe": git_describe() or "unknown",
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warm", action="store_true",
                        help="train or load the zoo models, then exit")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.warm:
        warm()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    logging.disable(logging.WARNING)

    check_honest_host()
    print("host " + json.dumps(host_info(args.seed)))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    try:
        report = bench.run()
        correct = True
    except GateError as exc:
        print(f"correctness gate FAILED: {exc}", file=sys.stderr)
        correct = False
        report = {"attempted": 1, "failed": 1, "metrics": {}, "digests": {}}
    for kind, value in report["digests"].items():
        print(f"result_digest {args.workload} {kind} {value}")
    if correct:
        print(f"rounds {report['rounds']}")
    if args.trace and correct:
        print("\n".join(bench.detail()))
        bench.recorder.write(
            str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": float(report["metrics"][name]),
                           "unit": unit}
                    for name, unit in units.items()
                    if name in report["metrics"]},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
