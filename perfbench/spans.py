"""In-memory spans around the public functions of arpro's layers.

A `Tracer` swaps each target attribute for a wrapper that records a span
(name, start, end, parent span, run id) while a `with tracer.active(run_id)`
block is open, and puts the originals back when it closes. Targets are named
where their callers look them up: `repair.py` does `from .properties import
grad_guidance`, so the span must wrap `arpro.repair.grad_guidance`, not
`arpro.properties.grad_guidance`. A target that no longer exists is reported
as absent and records nothing; it never stops the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import os
import time
from dataclasses import dataclass


def _rows(args, kwargs) -> int:
    """Rows in the batch passed to `Mlp.forward_np(self, x, t=None)`."""
    x = args[1] if len(args) > 1 else kwargs.get("x")
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _file_bytes(args, kwargs) -> int:
    """Size of the checkpoint file named by the first argument."""
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _steps(args, kwargs) -> int:
    """Optimizer steps of a training call, read from its config argument."""
    for value in (*args, *kwargs.values()):
        steps = getattr(value, "steps", None)
        if isinstance(steps, int):
            return steps
    return 0


# (span name, module, attribute path, optional size function of the call)
TARGETS = (
    ("cli.main", "arpro.cli", "main", None),
    ("harness.run_experiment", "arpro.harness", "run_experiment", None),
    ("harness.prepare", "arpro.harness", "prepare_pipeline", None),
    ("harness.tnr_report", "arpro.harness", "tnr_report", None),
    ("harness.write_report", "arpro.harness", "write_report", None),
    ("repair.guided", "arpro.harness", "guided_repair", None),
    ("repair.baseline", "arpro.harness", "baseline_repair", None),
    ("diffusion.predict_mu", "arpro.repair", "predict_mu", None),
    ("properties.grad_guidance", "arpro.repair", "grad_guidance", None),
    ("properties.loss_breakdown", "arpro.repair", "loss_breakdown", None),
    ("properties.metrics", "arpro.repair", "metrics", None),
    ("detector.score", "arpro.detector", "_DetectorBase.score", None),
    ("detector.calibrate", "arpro.harness", "calibrate_thresholds", None),
    ("detector.fit_recon", "arpro.harness", "fit_recon", _steps),
    ("diffusion.train", "arpro.harness", "train_denoiser", _steps),
    ("tensor.backward", "arpro.tensor", "Tensor.backward", None),
    ("tensor.forward_np", "arpro.tensor", "Mlp.forward_np", _rows),
    ("tensor.adamw_step", "arpro.tensor", "AdamW.step", None),
    ("data.gen_ts", "arpro.harness", "gen_synthetic_ts", None),
    ("data.gen_image", "arpro.harness", "gen_synthetic_image", None),
    ("data.load", "arpro.cli", "load_csv_dataset", None),
    ("data.save", "arpro.cli", "save_dataset", None),
    ("ckpt.read", "arpro.ckpt", "read", _file_bytes),
    ("ckpt.write", "arpro.ckpt", "write", _file_bytes),
    ("ckpt.mlp_payload", "arpro.ckpt", "mlp_payload", None),
    ("ckpt.mlp_from_payload", "arpro.ckpt", "mlp_from_payload", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run_id: str
    size: int = 0  # rows, bytes, ... as the target's size function measures


def _resolve(module: str, path: str):
    """(owner, attribute) for `path` inside `module`, or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans in memory; `write` saves them when the run ends."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._run_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of the `with` block."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run_id))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name: str, fn, size_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if size_fn is not None:
                self.spans[index].size = size_fn(args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, run_id: str):
        """Wrap every present target for the duration of the block."""
        self._run_id = run_id
        installed = []
        absent = []
        try:
            for name, module, path, size_fn in self.targets:
                found = _resolve(module, path)
                if found is None:
                    absent.append(name)
                    continue
                owner, attr = found
                own = attr in vars(owner)  # False for a method a class inherits
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, size_fn))
                installed.append((owner, attr, original, own))
            self.absent = absent
            yield self
        finally:
            for owner, attr, original, own in reversed(installed):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)
            self._run_id = ""

    def write(self, path, extra: dict) -> None:
        """Save every span and `extra` as gzip-compressed JSON."""
        payload = {
            **extra,
            "absent": self.absent,
            "fields": ["name", "start", "end", "parent", "run_id", "size"],
            "spans": [[s.name, s.start, s.end, s.parent, s.run_id, s.size] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, intervals in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out
