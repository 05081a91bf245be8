"""The GoldenEye platform: number-format emulation over an instrumented model.

Implements the paper's §III-A flow.  The compute fabric (numpy FP32 here) runs
the model natively; a :class:`GoldenEye` instance attaches forward hooks to
the target layers, and each hook reads the layer's FP32 output, converts it to
the nearest value representable in the emulated format, and writes it back as
FP32 — while capturing the format's hardware metadata (shared exponents, scale
factors, exponent biases) for the error-injection engine.

Weights are converted once at attach time ("weight injections can be performed
offline"), neurons on every forward pass.  Backpropagation works through the
emulation via a straight-through estimator, so training with emulated formats
is supported (§V-B).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from .. import nn
from ..formats.base import NumberFormat
from ..formats.bfp import BlockFloatingPoint
from ..formats.registry import make_format
from ..nn.tensor import Tensor
from ..obs.telemetry import get_registry
from ..obs.tracing import get_tracer
from .detector import RangeDetector
from .injection import InjectionEngine
from .resume import DEFAULT_CACHE_BUDGET, ResumeSession

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.numerics import NumericHealthMonitor
    from ..obs.profiler import LayerProfiler

logger = logging.getLogger("repro.goldeneye")

__all__ = ["GoldenEye", "LayerState", "TARGET_KINDS", "default_target_types"]

#: layer-kind selectors for the ``targets`` knob
TARGET_KINDS: dict[str, tuple[type, ...]] = {
    "conv": (nn.Conv2d,),
    "linear": (nn.Linear,),
    "norm": (nn.BatchNorm2d, nn.LayerNorm),
    "activation": (nn.ReLU, nn.GELU, nn.Sigmoid, nn.Tanh, nn.Softmax),
    "pool": (nn.MaxPool2d, nn.AvgPool2d, nn.AdaptiveAvgPool2d),
    "embedding": (nn.Embedding,),
}


def default_target_types() -> tuple[type, ...]:
    """CONV and LINEAR — the paper's defaults, "due to their computational
    intensity" (§V-B)."""
    return TARGET_KINDS["conv"] + TARGET_KINDS["linear"]


@dataclass
class LayerState:
    """Per-instrumented-layer bookkeeping."""

    name: str
    module: nn.Module
    #: format instance for this layer's output activations (neurons)
    neuron_format: NumberFormat | None
    #: format instance for this layer's weights
    weight_format: NumberFormat | None
    #: pristine FP32 weights, restored at detach
    original_weights: dict[str, np.ndarray] = field(default_factory=dict)
    #: metadata captured when the weights were converted
    weight_golden_metadata: Any = None
    #: metadata captured on the most recent forward (clean, pre-corruption)
    neuron_golden_metadata: Any = None
    #: shape of the most recent output (for sampling injection sites)
    last_output_shape: tuple[int, ...] | None = None
    hook_handle: nn.HookHandle | None = None
    #: profiler timestamp pre-hook (installed only when a profiler is set)
    pre_hook_handle: nn.HookHandle | None = None


def _metadata_snapshot(fmt: NumberFormat) -> Any:
    meta = fmt.metadata
    return meta.copy() if hasattr(meta, "copy") and not np.isscalar(meta) else meta


class GoldenEye:
    """Functional simulator of a number format over a model.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`.
    number_format:
        A format spec (``"fp16"``, ``"bfp_e5m5_b16"``, a
        :class:`~repro.formats.NumberFormat` instance), or a mapping of layer
        name to spec for per-layer (mixed) assignment.  Each instrumented
        layer gets its own fresh instance so metadata never aliases.
    targets:
        Iterable of kind selectors from :data:`TARGET_KINDS`, ``"all"``, or an
        explicit list of layer names.  Defaults to CONV + LINEAR.
    quantize_weights / quantize_neurons:
        Convert parameters at attach time / activations per forward pass.
    range_detector:
        Optional :class:`RangeDetector` (the paper's toggleable detector);
        clamps each layer's output to its profiled range *after* injection,
        modelling a low-cost protection mechanism.
    profiler:
        Optional :class:`~repro.obs.profiler.LayerProfiler`.  When set, every
        instrumented forward is split into compute / quantize / inject /
        detect phases with per-layer ns/element and activation-memory
        accounting; when ``None`` (the default) the hook hot path carries a
        single ``is not None`` check and no timing calls.
    numerics:
        Optional :class:`~repro.obs.numerics.NumericHealthMonitor`.  When
        set, :meth:`attach` installs a numeric-health stats sink on every
        layer format (weight *and* neuron streams), recording quantization
        error, saturation/flush/NaN-remap counts and dynamic-range coverage
        per layer; when ``None`` (the default) each tensor conversion pays
        one ``is not None`` check.
    """

    def __init__(
        self,
        model: nn.Module,
        number_format: str | NumberFormat | Mapping[str, str | NumberFormat] = "fp32",
        targets: Iterable[str] | str = ("conv", "linear"),
        quantize_weights: bool = True,
        quantize_neurons: bool = True,
        range_detector: RangeDetector | None = None,
        profiler: "LayerProfiler | None" = None,
        numerics: "NumericHealthMonitor | None" = None,
    ):
        self.model = model
        self.quantize_weights = quantize_weights
        self.quantize_neurons = quantize_neurons
        self.detector = range_detector
        self.profiler = profiler
        self.numerics = numerics
        self.injector = InjectionEngine(self)
        self._attached = False
        self._format_spec = number_format
        self.layers: dict[str, LayerState] = {}
        #: checkpoint-and-resume session (see :meth:`enable_resume`)
        self.resume_session: ResumeSession | None = None
        self._build_layer_states(number_format, targets)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _select_modules(self, targets) -> list[tuple[str, nn.Module]]:
        named = [(name, mod) for name, mod in self.model.named_modules() if name]
        leaves = [(n, m) for n, m in named if not any(True for _ in m.children())]
        if isinstance(targets, str):
            targets = (targets,)
        targets = tuple(targets)
        if "all" in targets:
            return leaves
        selected: list[tuple[str, nn.Module]] = []
        kind_types: tuple[type, ...] = ()
        explicit_names = set()
        for t in targets:
            if t in TARGET_KINDS:
                kind_types += TARGET_KINDS[t]
            else:
                explicit_names.add(t)
        known = {n for n, _ in leaves}
        missing = explicit_names - known
        if missing:
            raise KeyError(f"target layer names not found in model: {sorted(missing)}")
        for name, mod in leaves:
            if isinstance(mod, kind_types) or name in explicit_names:
                selected.append((name, mod))
        if not selected:
            raise ValueError(f"no layers matched targets {targets!r}")
        return selected

    def _build_layer_states(self, number_format, targets) -> None:
        modules = self._select_modules(targets)
        per_layer = isinstance(number_format, Mapping)
        for name, module in modules:
            if per_layer:
                spec = number_format.get(name)
                if spec is None:
                    continue  # unassigned layers stay in the fabric format
            else:
                spec = number_format
            self.layers[name] = LayerState(
                name=name,
                module=module,
                neuron_format=make_format(spec) if self.quantize_neurons else None,
                weight_format=make_format(spec) if self.quantize_weights else None,
            )
        if not self.layers:
            raise ValueError("no layers selected for emulation")

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------
    def attach(self) -> "GoldenEye":
        """Instrument the model: convert weights, register neuron hooks."""
        if self._attached:
            return self
        registry = get_registry()
        if self.numerics is not None:
            # before weight conversion, so the attach-time weight
            # quantization is part of the numeric-health record
            self.numerics.attach(self)
        with get_tracer().span("goldeneye.attach", format=self.format_name(),
                               layers=len(self.layers)):
            for state in self.layers.values():
                if state.weight_format is not None:
                    t0 = time.perf_counter()
                    self._convert_weights(state)
                    registry.histogram(
                        "goldeneye.weight_convert_seconds",
                        help="per-layer attach-time weight conversion",
                        layer=state.name).observe(time.perf_counter() - t0)
                if state.neuron_format is not None or self.detector is not None:
                    if self.profiler is not None:
                        state.pre_hook_handle = state.module.register_forward_pre_hook(
                            self.profiler.make_pre_hook())
                    state.hook_handle = state.module.register_forward_hook(
                        self._make_hook(state)
                    )
        registry.counter("goldeneye.attaches_total",
                         help="platform attach() calls").inc()
        logger.debug("attached %d layers under format %r",
                     len(self.layers), self.format_name())
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove hooks and restore the pristine FP32 weights."""
        for state in self.layers.values():
            if state.hook_handle is not None:
                state.hook_handle.remove()
                state.hook_handle = None
            if state.pre_hook_handle is not None:
                state.pre_hook_handle.remove()
                state.pre_hook_handle = None
            for pname, original in state.original_weights.items():
                np.copyto(getattr(state.module, pname).data, original)
            state.original_weights.clear()
            state.weight_golden_metadata = None
        if self.numerics is not None:
            self.numerics.detach(self)
        self._attached = False
        # cached activations were produced under the (now removed) hooks
        self.clear_resume()

    def __enter__(self) -> "GoldenEye":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    @property
    def attached(self) -> bool:
        return self._attached

    def _convert_weights(self, state: LayerState) -> None:
        fmt = state.weight_format
        weight_metadata = None
        for pname, param in state.module._parameters.items():
            if param is None:
                continue
            state.original_weights[pname] = param.data.copy()
            param.data[...] = fmt.real_to_format_tensor(param.data)
            if pname == "weight":
                weight_metadata = _metadata_snapshot(fmt)
        # the main weight tensor's metadata is the injectable register; keep it
        # captured even though other params (bias) were converted afterwards
        if weight_metadata is not None:
            state.weight_golden_metadata = weight_metadata
            fmt.metadata = weight_metadata

    # ------------------------------------------------------------------
    # the per-layer forward hook (§III-A)
    # ------------------------------------------------------------------
    def _make_hook(self, state: LayerState):
        def hook(module: nn.Module, inputs, output: nn.Tensor):
            data = output.data
            prof = self.profiler
            if prof is not None:
                # books the `compute` phase (pre-hook stamp -> hook entry)
                t_prev = prof.begin_postprocess(state.name, module, data)
            fmt = state.neuron_format
            if fmt is not None:
                quantized = fmt.real_to_format_tensor(data)
                state.neuron_golden_metadata = _metadata_snapshot(fmt)
            else:
                quantized = data.copy()
            if prof is not None:
                now = time.perf_counter()
                prof.record_phase(state.name, "quantize", now - t_prev,
                                  quantized.size)
                t_prev = now
            state.last_output_shape = quantized.shape
            quantized = self.injector.apply_neuron_injections(state, quantized)
            if prof is not None:
                now = time.perf_counter()
                prof.record_phase(state.name, "inject", now - t_prev,
                                  quantized.size)
                t_prev = now
            if self.detector is not None:
                quantized = self.detector.clamp(state.name, quantized)
                if prof is not None:
                    now = time.perf_counter()
                    prof.record_phase(state.name, "detect", now - t_prev,
                                      quantized.size)
            return _straight_through(output, quantized)

        return hook

    # ------------------------------------------------------------------
    # checkpoint-and-resume partial execution (see core/resume.py)
    # ------------------------------------------------------------------
    def enable_resume(self, budget_bytes: int | None = DEFAULT_CACHE_BUDGET) -> ResumeSession:
        """Create (or replace) the activation-checkpoint session.

        ``budget_bytes`` caps the activation cache (LRU-evicted beyond it;
        ``None`` = unlimited).  Call :meth:`capture_golden` afterwards to
        record the golden pass, then :meth:`forward_from` per injection.
        """
        self.resume_session = ResumeSession(self.model, budget_bytes)
        return self.resume_session

    def clear_resume(self) -> None:
        """Drop the resume session and release its cached activations."""
        self.resume_session = None

    def capture_golden(self, images: np.ndarray) -> np.ndarray:
        """Run one clean forward pass, recording every leaf output.

        Returns the golden logits.  Requires :meth:`enable_resume` first and
        an attached platform; no injections may be armed (the recording must
        be fault-free to be a valid checkpoint).
        """
        if self.resume_session is None:
            raise RuntimeError("call enable_resume() before capture_golden()")
        if self.injector.active:
            raise RuntimeError("cannot record a golden pass with injections armed")
        self.model.eval()
        with get_tracer().span("goldeneye.capture_golden",
                               batch=int(np.asarray(images).shape[0])):
            with nn.no_grad(), np.errstate(over="ignore", invalid="ignore"):
                with self.resume_session.recording():
                    logits = self.model.forward_from(
                        self.resume_session, Tensor(np.asarray(images, dtype=np.float32)))
        return logits.data.copy()

    def forward_from(self, layer: str, images: np.ndarray) -> np.ndarray:
        """Resume inference from ``layer``, replaying the cached prefix.

        Every leaf module that executed before ``layer``'s first appearance
        in the recorded golden pass returns its cached output; ``layer`` and
        everything downstream re-execute (applying any armed injections).
        Falls back to a full forward pass — still bit-exact — when no valid
        recording exists for this batch.  ``images`` must be the batch given
        to :meth:`capture_golden`.
        """
        state = self.layers.get(layer)
        if state is None:
            raise KeyError(f"layer {layer!r} is not instrumented")
        session = self.resume_session
        start = None
        if session is not None and session.recorded:
            start = session.start_index_for(state.module)
        x = Tensor(np.asarray(images, dtype=np.float32))
        self.model.eval()
        with nn.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            if start is None:
                logits = self.model(x)  # fallback: full forward
            else:
                with session.replaying(start):
                    logits = self.model.forward_from(session, x)
        return logits.data.copy()

    def forward_from_batched(self, layer: str, plans,
                             images: np.ndarray) -> np.ndarray:
        """Evaluate K injections, one :meth:`forward_from` per plan.

        Each plan is armed alone for its own pass, so ``out[k]`` is exactly
        ``forward_from(layer, images)`` with ``plans[k]`` armed.  Returns
        logits stacked to shape ``(K, batch, ...)``.
        """
        if layer not in self.layers:
            raise KeyError(f"layer {layer!r} is not instrumented")
        plans = list(plans)
        if not plans:
            raise ValueError("forward_from_batched needs at least one plan")
        outs = []
        for plan in plans:
            with self.injector.armed(plan):
                outs.append(self.forward_from(layer, images))
        return np.stack(outs)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def layer_names(self) -> list[str]:
        return list(self.layers)

    def layer_output_shape(self, name: str) -> tuple[int, ...] | None:
        return self.layers[name].last_output_shape

    def describe(self) -> str:
        """Human-readable instrumentation summary."""
        lines = [f"GoldenEye(format={self._format_spec!r}, "
                 f"weights={self.quantize_weights}, neurons={self.quantize_neurons}, "
                 f"detector={'on' if self.detector else 'off'})"]
        for state in self.layers.values():
            fmt = state.neuron_format or state.weight_format
            lines.append(f"  {state.name}: {type(state.module).__name__} -> {fmt}")
        return "\n".join(lines)

    def spawn_format(self) -> NumberFormat | None:
        """A fresh instance of the (single) configured format, if uniform."""
        if isinstance(self._format_spec, Mapping):
            return None
        return make_format(self._format_spec)

    def format_name(self) -> str:
        """Display name of the configured format (``"mixed"`` if per-layer).

        Unlike :meth:`spawn_format` this never instantiates a throwaway
        format object for uniform configurations already materialised in a
        layer state.
        """
        if isinstance(self._format_spec, Mapping):
            return "mixed"
        if isinstance(self._format_spec, NumberFormat):
            return self._format_spec.name
        for state in self.layers.values():
            fmt = state.neuron_format or state.weight_format
            if fmt is not None:
                return fmt.name
        return make_format(self._format_spec).name


def _straight_through(original: nn.Tensor, quantized_data: np.ndarray) -> nn.Tensor:
    """Wrap quantized data as a Tensor whose gradient bypasses the emulation.

    The straight-through estimator is what makes "number format emulation ...
    supported for training ... as backpropagation is supported" (§V-B).
    """
    out = original._make(quantized_data.astype(np.float32, copy=False), (original,))
    if out.requires_grad:

        def _backward():
            original._accumulate(out.grad)

        out._backward = _backward
    return out
