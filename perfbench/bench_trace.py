"""Span tracing and failure accounting around calls into the uavisac layers.

Nothing under ``src/`` is instrumented.  The tracer replaces each traced
function at every module namespace that looks it up (``from .x import f``
binds a name per module), so a call is seen whichever module makes it; a
wrapper installed on the defining module alone would miss calls made through
another module's binding.  Methods are wrapped on their class.

A span records its request (the top-level call it belongs to), its parent,
its name and its start/end clock readings.  Self time is the span's duration
minus the durations of its direct child spans; spans nest because the code is
single-threaded.

The accounting hooks (skip reasons from the pipeline's WARNING records,
non-converged beams, slot-boundary clock reads) stay on in untraced runs:
they count, and the slot probe reads the clock once per slot, but they record
no spans.
"""

from __future__ import annotations

import gzip
import importlib
import logging
import sys
import time
from dataclasses import dataclass, field

# Traced functions: (defining module, attribute or Class.method, layer name).
# The layer name prefixes metric names; `_kernels` becomes `kernels` because
# metric names must start with a letter or digit.
TARGETS = (
    ("uavisac._kernels", "steering_matrix", "kernels"),
    ("uavisac._kernels", "cut_power", "kernels"),
    ("uavisac.beampattern", "synthesize", "beampattern"),
    ("uavisac.beampattern", "_PatternEvaluator.__init__", "beampattern"),
    ("uavisac.beampattern", "_cut_arc", "beampattern"),
    ("uavisac.beampattern", "_sll_from_gains", "beampattern"),
    ("uavisac.beampattern", "_project_out", "beampattern"),
    ("uavisac.beampattern", "chebyshev_taper", "beampattern"),
    ("uavisac.beampattern", "array_gain", "beampattern"),
    ("uavisac.beampattern", "beampattern_gain", "beampattern"),
    ("uavisac.geometry", "direction_angles", "geometry"),
    ("uavisac.geometry", "centered_grid_offsets", "geometry"),
    ("uavisac.geometry", "rotation_matrix", "geometry"),
    ("uavisac.geometry", "steering_vector", "geometry"),
    ("uavisac.channel", "channel_vector", "channel"),
    ("uavisac.channel", "sinr", "channel"),
    ("uavisac.scenario", "generate_trajectories", "scenario"),
    ("uavisac.scenario", "associate", "scenario"),
    ("uavisac.scenario", "label_optimal_association", "scenario"),
    ("uavisac.scenario", "min_required_eirp_dbm", "scenario"),
    ("uavisac.neuralnet", "gradients", "neuralnet"),
    ("uavisac.neuralnet", "AdamState.step", "neuralnet"),
    ("uavisac.neuralnet", "forward", "neuralnet"),
    ("uavisac.pipeline", "generate_dataset", "pipeline"),
    ("uavisac.pipeline", "synthesize_point", "pipeline"),
    ("uavisac.pipeline", "predict_matrix", "pipeline"),
    ("uavisac.pipeline", "sensing_eirp_target_dbm", "pipeline"),
    ("uavisac.pipeline", "train_models", "pipeline"),
    ("uavisac.pipeline", "evaluate_trajectory", "pipeline"),
)

SKIP_REASONS = ("fov", "null_conflict", "not_converged")

# Per-point WARNING templates of uavisac.pipeline.  The closing INFO line is
# not used: it calls every skip "non-converged" whatever its cause.
_WARNING_KINDS = (
    ("outside the serviceable field of view", "fov"),
    ("null conflict, skipping", "null_conflict"),
    ("optimizer did not converge", "not_converged"),
    ("dropping null conflicting with pointing", "null_dropped"),
)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.replace('.__init__', '.build')}"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


def _steering_extra(stat, args, result):
    n, m = args[0].shape[0], args[1].shape[0]
    stat.add("elements", n * m)
    stat.add("bytes", args[0].nbytes + args[1].nbytes + result.nbytes)


def _cut_power_extra(stat, args, result):
    emat, weights = args[0], args[1]
    stat.add("macs", emat.shape[0] * emat.shape[1])
    stat.add("bytes", emat.nbytes + weights.nbytes + result.nbytes)


def _synthesize_extra(stat, args, result):
    stat.add("candidates", result.iterations)
    stat.extra["candidates_max"] = max(stat.extra.get("candidates_max", 0), result.iterations)
    stat.add("converged", int(result.converged))


def _taper_extra(stat, args, result):
    stat.extra.setdefault("distinct", set()).add((int(args[0]), float(args[1])))


def _rows_extra(index):
    def extra(stat, args, result):
        x = args[index]
        stat.add("rows", 1 if getattr(x, "ndim", 1) == 1 else len(x))

    return extra


_EXTRAS = {
    "kernels.steering_matrix": _steering_extra,
    "kernels.cut_power": _cut_power_extra,
    "beampattern.synthesize": _synthesize_extra,
    "beampattern.chebyshev_taper": _taper_extra,
    "neuralnet.gradients": _rows_extra(1),
    "neuralnet.forward": _rows_extra(1),
}


class Tracer:
    """Installs span-recording wrappers; restores the originals on exit."""

    def __init__(self) -> None:
        self.stats = {span_name(layer, attr): Stat() for _, attr, layer in TARGETS}
        self.sites: dict[str, list[str]] = {}
        self.spans: list[tuple] = []
        self._names = list(self.stats)
        self._stack: list[list] = []
        self._request = 0
        self._next_id = 0
        self._restore: list[tuple] = []
        self.t0 = 0.0

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        extra = _EXTRAS.get(name)
        name_id = self._names.index(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            if stack:
                parent = stack[-1][0]
            else:
                parent = 0
                self._request += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans.append((self._request, span_id, parent, name_id, start, end))
            if extra is not None:
                extra(stat, args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "uavisac" or n.startswith("uavisac.")]
        for module_name, attr, layer in TARGETS:
            name = span_name(layer, attr)
            home = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                self.sites[name] = [f"{module_name}.{cls_name}"]
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            self.sites[name] = []
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)
                    self.sites[name].append(module.__name__)
        self.t0 = time.perf_counter()
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: `<layer>.<fn>.calls` and `.self_s` plus extra counts."""
        out: dict[str, tuple[float, str]] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
        k = self.stats["kernels.steering_matrix"].extra
        out["kernels.steering_matrix.elements"] = (k.get("elements", 0), "count")
        out["kernels.steering_matrix.bytes"] = (k.get("bytes", 0), "B")
        k = self.stats["kernels.cut_power"].extra
        out["kernels.cut_power.macs"] = (k.get("macs", 0), "count")
        out["kernels.cut_power.bytes"] = (k.get("bytes", 0), "B")
        syn = self.stats["beampattern.synthesize"]
        calls = max(syn.calls, 1)
        out["beampattern.synthesize.candidates_per_call.mean"] = (
            syn.extra.get("candidates", 0) / calls, "count")
        out["beampattern.synthesize.candidates_per_call.max"] = (
            syn.extra.get("candidates_max", 0), "count")
        out["beampattern.synthesize.converged_ratio"] = (
            syn.extra.get("converged", 0) / calls, "ratio")
        taper = self.stats["beampattern.chebyshev_taper"]
        out["beampattern.chebyshev_taper.distinct_args_ratio"] = (
            len(taper.extra.get("distinct", ())) / max(taper.calls, 1), "ratio")
        for name in ("neuralnet.gradients", "neuralnet.forward"):
            out[f"{name}.rows"] = (self.stats[name].extra.get("rows", 0), "count")
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV, clock readings relative to the trace start."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("request,span,parent,name,start_s,end_s\n")
            for request, span_id, parent, name_id, start, end in self.spans:
                fh.write(f"{request},{span_id},{parent},{self._names[name_id]},"
                         f"{start - self.t0:.9f},{end - self.t0:.9f}\n")


class SkipLog(logging.Handler):
    """Counts the pipeline's per-point WARNING records by reason."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.counts: dict[str, int] = {}
        self.logger = logging.getLogger("uavisac.pipeline")

    def emit(self, record: logging.LogRecord) -> None:
        template = str(record.msg)
        kind = next((k for text, k in _WARNING_KINDS if text in template), "other")
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def skips(self) -> dict[str, int]:
        return {reason: self.counts.get(reason, 0) for reason in SKIP_REASONS}

    def __enter__(self) -> "SkipLog":
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        self.logger.removeHandler(self)


class Hook:
    """Replaces one attribute of a module for the duration of a with-block."""

    def __init__(self, owner, attr: str) -> None:
        self.owner, self.attr = owner, attr
        self.inner = getattr(owner, attr)

    def __enter__(self):
        setattr(self.owner, self.attr, self)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self.inner)


class SynthesisCounter(Hook):
    """Count-only hook on `pipeline.synthesize`; keeps a fixed result subsample.

    Converged results number 1, 51, 101, ... are kept with their inputs, up to
    10 of them, so the output checks can re-derive their SLL and EIRP.
    """

    STRIDE, KEEP = 50, 10

    def __init__(self, pipeline) -> None:
        super().__init__(pipeline, "synthesize")
        self.nonconverged = 0
        self.converged = 0
        self.sample: list[tuple] = []

    def __call__(self, request, config, pose):
        result = self.inner(request, config, pose)
        if result.converged:
            if self.converged % self.STRIDE == 0 and len(self.sample) < self.KEEP:
                self.sample.append((request, config, pose, result))
            self.converged += 1
        else:
            self.nonconverged += 1
        return result


class SlotProbe(Hook):
    """Reads the clock at each per-point association inside generate_dataset.

    generate_dataset associates every point first, so consecutive readings
    bound one slot's wall time, skipped slots included.
    """

    def __init__(self, pipeline) -> None:
        super().__init__(pipeline, "associate")
        self.stamps: list[float] = []

    def __call__(self, *args, **kwargs):
        self.stamps.append(time.perf_counter())
        return self.inner(*args, **kwargs)
