"""In-memory span recorder that wraps the platform's public functions.

The benchmark's traced runs install :class:`SpanRecorder` wrappers around
public functions of each layer (``repro.formats``, ``repro.core.goldeneye``,
``repro.core.campaign``, ``repro.core.metrics``, ``repro.exec`` and
``repro.obs``).  Nothing under ``src/`` is edited: a wrapper replaces the
attribute a caller looks up (a class method, or a module global that another
module calls by name) and restores the original on :meth:`uninstall`.

Each span records its name, start, end, the index of its parent span and a
free-form tag (the benchmark phase).  Spans live in a list and are written
once, at the end of a run.  Only the process and thread that installed the
wrappers record: forked campaign workers inherit the wrappers, but their
spans would be lost at exit anyway, so the wrappers there just call through.

A span's *self time* is its duration minus the time covered by its child
spans; spans nest strictly on one thread, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: str
    child_time: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child_time


class SpanRecorder:
    """Records nested spans from wrapped functions and benchmark phases."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # -- recording ---------------------------------------------------------
    def _recording(self) -> bool:
        """True while wrappers are installed, in the installing thread."""
        return (bool(self._patches) and os.getpid() == self._pid
                and threading.get_ident() == self._thread)

    def span(self, name: str):
        """Context manager recording one span around a block (while
        wrappers are installed)."""
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.dur

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``."""
        func = getattr(owner, attr)
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder._recording():
                return func(*args, **kwargs)
            index = recorder._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                recorder._close(index)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, func))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse install order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def select(self, name: str, tag: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (tag is None or s.tag == tag)]

    def within(self, root: Span) -> list[Span]:
        """Every span recorded inside ``root``'s interval (itself excluded)."""
        return [s for s in self.spans
                if s is not root and s.start >= root.start and s.end <= root.end]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "tag": s.tag,
                    "start": s.start, "end": s.end, "self": s.self_time,
                }) + "\n")


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name
        self.index: int | None = None

    def __enter__(self):
        if self.recorder._recording():
            self.index = self.recorder._open(self.name)
        return self

    def __exit__(self, *exc):
        if self.index is not None:
            self.recorder._close(self.index)
        return False


def install_layer_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public functions whose self time the benchmark attributes.

    Module globals are patched in the module that *calls* them by name
    (``repro.core.campaign`` calls ``compare_outcomes`` and its own stage
    functions by global lookup; ``repro.core.injection`` calls the flip
    kernels), so the wrapper is what the caller actually runs.
    """
    from repro import formats
    from repro.core import campaign, goldeneye, injection
    from repro.exec.journal import CampaignJournal
    from repro.obs.ledger import CampaignLedger

    for cls in (formats.FloatingPoint, formats.AdaptivFloat,
                formats.BlockFloatingPoint, formats.FixedPoint,
                formats.IntegerQuant, formats.Posit):
        if "real_to_format_tensor" in cls.__dict__:
            recorder.wrap(cls, "real_to_format_tensor", "formats.quantize")
    recorder.wrap(injection, "flip_values", "formats.flip")
    recorder.wrap(injection, "flip_values_batched", "formats.flip")
    recorder.wrap(goldeneye.GoldenEye, "attach", "goldeneye.attach")
    recorder.wrap(goldeneye.GoldenEye, "capture_golden",
                  "goldeneye.capture_golden")
    recorder.wrap(goldeneye.GoldenEye, "forward_from", "goldeneye.forward_from")
    recorder.wrap(goldeneye.GoldenEye, "forward_from_batched",
                  "goldeneye.forward_from")
    recorder.wrap(campaign, "sample_layer_plans", "campaign.sample")
    recorder.wrap(campaign, "execute_injection", "campaign.execute")
    recorder.wrap(campaign, "execute_injection_batch", "campaign.execute")
    recorder.wrap(campaign, "aggregate_layer", "campaign.aggregate")
    recorder.wrap(campaign, "compare_outcomes", "metrics.compare")
    recorder.wrap(CampaignJournal, "append_record", "exec.journal_append")
    recorder.wrap(CampaignJournal, "append_batch", "exec.journal_append")
    recorder.wrap(CampaignLedger, "record_campaign", "obs.ledger_write")
