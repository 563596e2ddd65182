"""Span tracing from outside the program.

`install(tracer)` replaces public vlafp functions with timing wrappers at
the names their callers look up (module globals and class attributes)
and returns a handle whose `remove()` puts every original back. Nothing
under src/ is modified; an untraced run never calls `install`.

A span is (layer, start, end, parent span index, operation id). Spans are
kept in memory and written out by `Tracer.write` when the run ends. A
layer's busy time is its self time: span duration minus the time covered
by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

WRAPPED_MARK = "__bench_wrapped__"


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def enter(self) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def leave(self, frame: list, layer: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.spans[frame[0]] = (
            self._layer_id(layer), start, end, parent[0] if parent else -1, self.op_id
        )
        self.calls[layer] += 1
        self.busy_s[layer] += duration - frame[1]

    @contextmanager
    def span(self, layer: str):
        """Record one span around the benchmark's own code; yields its start time."""
        frame = self.enter()
        start = time.perf_counter()
        try:
            yield start
        finally:
            self.leave(frame, layer, start, time.perf_counter())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"layers": self.layers, "fields": ["layer", "start", "end", "parent", "op"]}, fh)
            fh.write("\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s))
                    fh.write("\n")


def _wrap(tracer: Tracer, layer: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter()
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leave(frame, layer, start, time.perf_counter())
        if counter is not None:
            counter(tracer.counts[layer], args, kwargs, out)
        return out

    setattr(wrapper, WRAPPED_MARK, True)
    return wrapper


# -- counters: (counts, args, kwargs, result) -> None ------------------------


def _count_stft(c, args, kwargs, out):
    c["frames"] += out.n_frames


def _count_mel(c, args, kwargs, out):
    c["frames"] += out.n_frames


def _count_segments(c, args, kwargs, out):
    c["segments"] += len(out)
    # Frame-grid segments only; fixed windows are sample spans.
    c["frames"] += sum(s.n_frames for s in out if s.frame_indices is not None)


def _count_fingerprint(c, args, kwargs, out):
    c["frames"] += args[0].shape[0]


def _count_batch_forward(c, args, kwargs, out):
    """Packing counters for the packed forward, from the batch's spans.

    Rows follow the forward's own layout: greedy next-fit into rows whose
    capacity is the longest span (the default row_capacity).
    """
    lengths = [length for _, length in args[0].spans]
    capacity = max(lengths)
    rows, used = 0, capacity
    for length in lengths:
        if used + length > capacity:
            rows += 1
            used = 0
        used += length
    c["frames"] += sum(lengths)
    c["cells"] += rows * capacity
    c["attn_cells"] += rows * capacity * capacity
    c["attn_useful"] += sum(length * length for length in lengths)


def _count_load(c, args, kwargs, out):
    # args = (cls, path): the wrapper sits inside the classmethod.
    c["bytes"] += Path(args[-1]).stat().st_size
    c["entries"] += len(out)


# (layer, [(module, attribute path)], counter). Each function is patched
# where its callers look it up, so a call from any module goes through the
# same wrapper.
TARGETS = [
    ("dsp.stft", [("dsp", "stft"), ("segmentation", "stft"), ("pipeline", "stft")], _count_stft),
    ("dsp.mel", [("dsp", "mel_from_frames"), ("pipeline", "mel_from_frames")], _count_mel),
    ("dsp.spectral_entropies", [("segmentation", "spectral_entropies")], None),
    ("segmentation.main", [("segmentation", "segment_main")], _count_segments),
    ("segmentation.nosilence", [("segmentation", "segment_no_silence")], _count_segments),
    ("segmentation.pelt", [("segmentation", "segment_pelt")], _count_segments),
    ("segmentation.waveform", [("segmentation", "segment_waveform")], _count_segments),
    ("segmentation.fixed", [("pipeline", "segment_fixed"), ("evaluation", "segment_fixed")], _count_segments),
    ("pelt.pelt_changepoints", [("segmentation", "pelt_changepoints")], None),
    ("augment.time_stretch", [("augment", "time_stretch")], None),
    ("augment.mix_background", [("augment", "mix_background")], None),
    ("augment.convolve_ir", [("augment", "convolve_ir")], None),
    ("training.build_batch", [("training", "build_batch")], None),
    ("model.fingerprint", [("pipeline", "fingerprint")], _count_fingerprint),
    ("model.fingerprint_batch_forward", [("training", "fingerprint_batch_forward")], _count_batch_forward),
    ("training.supcon_loss", [("training", "supcon_loss")], None),
    ("autodiff.backward", [("autodiff", "Tensor.backward")], None),
    ("training.adam_step", [("training", "Adam.step")], None),
    ("index.insert", [("index", "FingerprintIndex.insert")], None),
    ("index.save", [("index", "FingerprintIndex.save")], None),
    ("index.load", [("index", "FingerprintIndex.load")], _count_load),
    ("index.search_top_k", [("index", "FingerprintIndex.search_top_k")], None),
    ("evaluation.majority_vote", [("evaluation", "majority_vote")], None),
    ("evaluation.sweep_thresholds", [("evaluation", "sweep_thresholds")], None),
    ("pipeline.segment_mels", [("pipeline", "segment_mels")], None),
]
# Root spans the benchmark records around its own calls: one per loop
# operation and one per build phase. Their self time is the time spent in
# no traced layer (glue inside evaluation/pipeline/training and the loop).
ROOT_LAYERS = ("bench.op", "bench.build")
VLAFP_MODULES = (
    "vlafp", "vlafp.audio", "vlafp.augment", "vlafp.autodiff", "vlafp.dsp", "vlafp.evaluation", "vlafp.index",
    "vlafp.model", "vlafp.pelt", "vlafp.pipeline", "vlafp.segmentation", "vlafp.synth", "vlafp.training",
)


def _site(module: str, path: str):
    """(owner, attribute) for 'name' or 'Class.name' inside vlafp.<module>."""
    owner = importlib.import_module(f"vlafp.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _raw(owner, attr: str):
    # Class attributes are read from __dict__ so a classmethod stays a descriptor.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Installed:
    """Handle for installed wrappers; `remove()` restores every original."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    handle = Installed()
    try:
        for layer, sites, counter in TARGETS:
            raw = _raw(*_site(*sites[0]))
            if isinstance(raw, classmethod):
                wrapper = classmethod(_wrap(tracer, layer, raw.__func__, counter))
            else:
                wrapper = _wrap(tracer, layer, raw, counter)
            for site in sites:
                handle.patch(*_site(*site), wrapper)
    except BaseException:
        handle.remove()
        raise
    return handle


def leftover_wrappers() -> list[str]:
    """Every vlafp module or class attribute that is still a benchmark wrapper."""
    found = []
    for name in VLAFP_MODULES:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for member_name, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if getattr(inner, WRAPPED_MARK, False):
                        found.append(f"{name}.{attr}.{member_name}")
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Run-level metrics the traced run adds beside the layers' own.
RUN_UNITS = {"trace.ops": "count", "trace.overhead_pct": "%", "trace.build_overhead_pct": "%"}


def layer_values(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) over everything the tracer saw (one build + the replayed ops).

    Busy time is given as a share of the traced wall time, so the shares of
    all layers and root spans add up to 100%, and a layer a workload never
    calls reads 0% rather than a constant zero time.
    """
    wall_s = sum(s[2] - s[1] for s in tracer.spans if s is not None and s[3] == -1)
    values = {"trace.wall_ms": (1e3 * wall_s, "ms")}
    for layer in [t[0] for t in TARGETS] + list(ROOT_LAYERS):
        values[f"{layer}.calls"] = (tracer.calls.get(layer, 0), "count")
        values[f"{layer}.busy_pct"] = (100.0 * _ratio(tracer.busy_s.get(layer, 0.0), wall_s), "%")
    c = tracer.counts
    values["dsp.stft.frames"] = (c["dsp.stft"]["frames"], "count")
    values["dsp.mel.frames"] = (c["dsp.mel"]["frames"], "count")
    for method in ("main", "nosilence", "pelt", "waveform", "fixed"):
        seg = c[f"segmentation.{method}"]
        values[f"segmentation.{method}.segments"] = (seg["segments"], "count")
        if method != "fixed":
            values[f"segmentation.{method}.mean_frames"] = (_ratio(seg["frames"], seg["segments"]), "count")
    values["model.fingerprint.frames"] = (c["model.fingerprint"]["frames"], "count")
    fwd = c["model.fingerprint_batch_forward"]
    values["model.fingerprint_batch_forward.frames"] = (fwd["frames"], "count")
    values["model.fingerprint_batch_forward.pack_efficiency"] = (_ratio(fwd["frames"], fwd["cells"]), "ratio")
    values["model.fingerprint_batch_forward.attn_waste"] = (_ratio(fwd["attn_cells"], fwd["attn_useful"]), "ratio")
    load = c["index.load"]
    values["index.load.bytes_per_entry"] = (_ratio(load["bytes"], load["entries"]), "B")
    values["trace.spans"] = (sum(1 for s in tracer.spans if s is not None), "count")
    return values


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    return {name: unit for name, (_, unit) in layer_values(Tracer()).items()} | RUN_UNITS
