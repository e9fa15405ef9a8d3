"""Synthetic datasets with ground-truth anomaly masks, CSV ingestion, scaling.

Time-series instances are flattened windows (feature-major) of per-feature
sinusoid mixtures plus Gaussian noise; image instances are flattened square
textures built from a few smooth basis fields. Anomalies are injected into
normal instances and the exact modified coordinates are recorded as the label
mask. Datasets round-trip through a CSV directory layout with a meta file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ckpt
from .tensor import Array, stream

DATASET_SCHEMA = "arpro-ds-v1"
TS_KINDS = ("spike", "level_shift", "noise_burst", "stuck_sensor")
IMAGE_KINDS = ("square_defect", "stripe_defect")
ANOMALY_KINDS = TS_KINDS + IMAGE_KINDS
DEFAULT_SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class AnomalySpec:
    """What to inject: kind, strength, fraction of coordinates, events per instance."""

    kind: str
    magnitude: float = 1.0
    extent: float = 0.05
    count: int = 1

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(f"unknown anomaly kind {self.kind!r}; expected one of {ANOMALY_KINDS}")
        if self.magnitude <= 0.0:
            raise ValueError(f"anomaly magnitude must be positive, got {self.magnitude}")
        if not (0.0 < self.extent <= 1.0):
            raise ValueError(f"anomaly extent must lie in (0, 1], got {self.extent}")
        if self.count < 1:
            raise ValueError(f"anomaly count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class Dataset:
    train: Array
    test: Array
    labels: Array
    feature_names: tuple[str, ...]
    modality: str
    window: dict | None = None

    def __post_init__(self):
        if self.train.ndim != 2 or self.test.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("dataset arrays must be 2-D")
        n = self.train.shape[1]
        if self.test.shape[1] != n or self.labels.shape != self.test.shape:
            raise ValueError("test/labels shapes do not match the training dimension")
        if len(self.feature_names) != n:
            raise ValueError("feature name count does not match dimension")
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise ValueError("labels must be binary")

    @property
    def n(self) -> int:
        return self.train.shape[1]


# The least value each generator argument with a lower bound may take. A
# window shorter than 6 steps leaves no room for the sinusoids' periods,
# which are drawn from [max(6, window_len / 6), window_len].
_MINIMA = {
    "n_features": 1, "window_len": 6, "side": 1, "n_basis": 1, "n_train": 1, "n_test": 1,
    "n_test_normal": 0, "noise_std": 0.0, "start_jitter": 0.0,
}
MAX_SIDE = 32


def check_generator_args(kind: str, spec, **args) -> list[AnomalySpec]:
    """The `kind` ("ts" or "image") generator's rules on its arguments `args`,
    given by name, and on its anomaly specs; each error names its argument.
    Returns the specs as a list."""
    for key, value in args.items():
        if not value >= _MINIMA[key]:
            raise ValueError(f"{key} must be >= {_MINIMA[key]}, got {value}")
    if args.get("side", 1) > MAX_SIDE:
        raise ValueError(f"side must lie in [1, {MAX_SIDE}], got {args['side']}")
    specs = [spec] if isinstance(spec, AnomalySpec) else list(spec)
    if not specs:
        raise ValueError("anomalies must hold at least one anomaly spec")
    kinds, what = (TS_KINDS, "a time-series") if kind == "ts" else (IMAGE_KINDS, "an image")
    for i, s in enumerate(specs):
        if s.kind not in kinds:
            raise ValueError(f"anomalies[{i}]: anomaly kind {s.kind!r} is not {what} kind")
    return specs


def _contiguous_runs(total: int, count: int, run_max: int):
    """Split `total` coordinates into `count` run lengths capped at run_max."""
    lengths = []
    remaining = total
    for i in range(count):
        take = remaining // (count - i)
        lengths.append(min(max(1, take), run_max))
        remaining -= lengths[-1]
    while remaining > 0:
        for i in range(len(lengths)):
            if lengths[i] < run_max and remaining > 0:
                lengths[i] += 1
                remaining -= 1
        if all(l >= run_max for l in lengths):
            break
    return lengths


def _fix_untouched(x: Array, clean: Array, mask: Array, magnitude: float) -> None:
    # Guarantee every masked coordinate actually differs from the clean value.
    stuck = (mask == 1.0) & (x == clean)
    x[stuck] += 1e-3 * magnitude


def inject_timeseries_anomaly(
    clean: Array, spec: AnomalySpec, n_features: int, window_len: int, g: np.random.Generator
) -> tuple[Array, Array]:
    """Inject one anomaly into a copy of a flattened window.

    Returns the modified instance and its label mask; the instance differs
    from `clean` exactly on the masked coordinates.
    """
    x = np.asarray(clean, dtype=np.float64).copy()
    total = max(1, round(spec.extent * x.size))
    mask = np.zeros(x.size)
    for run in _contiguous_runs(total, spec.count, window_len):
        f = int(g.integers(0, n_features))
        start = int(g.integers(0, window_len - run + 1))
        sl = slice(f * window_len + start, f * window_len + start + run)
        sign = 1.0 if g.random() < 0.5 else -1.0
        if spec.kind == "spike":
            # Triangular bump peaking at the magnitude; every step moves >= mag/2.
            ramp = 1.0 - np.abs(np.linspace(-0.5, 0.5, run))
            x[sl] += sign * spec.magnitude * (0.5 + ramp)
        elif spec.kind == "level_shift":
            x[sl] += sign * spec.magnitude
        elif spec.kind == "noise_burst":
            bump = g.uniform(0.5, 1.5, size=run) * np.where(g.random(run) < 0.5, -1.0, 1.0)
            x[sl] += spec.magnitude * bump
        elif spec.kind == "stuck_sensor":
            before = f * window_len + start - 1
            stuck = x[before] if start > 0 else x[sl].mean() + sign * spec.magnitude
            x[sl] = stuck
        else:
            raise ValueError(f"anomaly kind {spec.kind!r} is not a time-series kind")
        mask[sl] = 1.0
    _fix_untouched(x, clean, mask, spec.magnitude)
    return x, mask


def inject_image_defect(clean: Array, spec: AnomalySpec, side: int, g: np.random.Generator) -> tuple[Array, Array]:
    """Inject one defect into a copy of a flattened image; see above."""
    img = np.asarray(clean, dtype=np.float64).reshape(side, side).copy()
    mask = np.zeros((side, side))
    if spec.kind == "square_defect":
        edge = min(side, max(1, round(side * math.sqrt(spec.extent))))
        for _ in range(spec.count):
            r = int(g.integers(0, side - edge + 1))
            c = int(g.integers(0, side - edge + 1))
            sign = 1.0 if g.random() < 0.5 else -1.0
            img[r : r + edge, c : c + edge] += sign * spec.magnitude
            mask[r : r + edge, c : c + edge] = 1.0
    elif spec.kind == "stripe_defect":
        rows = min(side, max(1, round(side * spec.extent)))
        for _ in range(spec.count):
            r = int(g.integers(0, side - rows + 1))
            sign = 1.0 if g.random() < 0.5 else -1.0
            if g.random() < 0.5:
                img[r : r + rows, :] += sign * spec.magnitude
                mask[r : r + rows, :] = 1.0
            else:
                img[:, r : r + rows] += sign * spec.magnitude
                mask[:, r : r + rows] = 1.0
    else:
        raise ValueError(f"anomaly kind {spec.kind!r} is not an image kind")
    x, mask = img.reshape(side * side), mask.reshape(side * side)
    _fix_untouched(x, np.asarray(clean, dtype=np.float64), mask, spec.magnitude)
    return x, mask


def _draw_dataset(draw_normal, inject, specs, n_train: int, n_test: int, n_test_normal: int, **fields) -> Dataset:
    """The training rows, then the anomalous test rows (each from a fresh
    normal row, the specs taken in turn), then the normal test rows with
    all-zero masks, drawn in that order; `fields` complete the Dataset."""
    train = np.stack([draw_normal() for _ in range(n_train)])
    test_rows, label_rows = [], []
    for i in range(n_test):
        x, mask = inject(draw_normal(), specs[i % len(specs)])
        test_rows.append(x)
        label_rows.append(mask)
    for _ in range(n_test_normal):
        test_rows.append(draw_normal())
        label_rows.append(np.zeros(train.shape[1]))
    return Dataset(train=train, test=np.stack(test_rows), labels=np.stack(label_rows), **fields)


def gen_synthetic_ts(
    n_features: int,
    window_len: int,
    n_train: int,
    n_test: int,
    spec,
    seed: int,
    noise_std: float = 0.1,
    start_jitter: float = 0.0,
    n_test_normal: int = 0,
) -> Dataset:
    """Windows of per-feature sinusoid mixtures; anomalies injected into test.

    Instances are flattened feature-major: coordinate ``f * window_len + t``.
    `start_jitter` shifts each window's start by a uniform random offset (in
    timesteps), emulating unaligned sliding windows over a longer stream.
    Anomalous test instances carry the exact injected coordinates in their
    label mask; `n_test_normal` extra normal test rows get all-zero masks.
    """
    specs = check_generator_args(
        "ts", spec, n_features=n_features, window_len=window_len, n_train=n_train, n_test=n_test,
        n_test_normal=n_test_normal, noise_std=noise_std, start_jitter=start_jitter,
    )
    g = stream(seed, "gen-ts")

    # Two sinusoids per feature with fixed dataset-level parameters.
    taus = np.arange(window_len, dtype=np.float64)
    sinusoids = []
    for f in range(n_features):
        parts = []
        for _ in range(2):
            amp = g.uniform(0.4, 1.0)
            period = g.uniform(max(6.0, window_len / 6.0), window_len)
            phase = g.uniform(0.0, 2.0 * math.pi)
            parts.append((amp, period, phase))
        sinusoids.append(parts)

    def pattern(offset: float) -> Array:
        x = np.zeros((n_features, window_len))
        for f, parts in enumerate(sinusoids):
            for amp, period, phase in parts:
                x[f] += amp * np.sin(2.0 * math.pi * (taus + offset) / period + phase)
        return x

    def draw_normal() -> Array:
        offset = g.uniform(0.0, start_jitter) if start_jitter > 0.0 else 0.0
        gain = 1.0 + 0.05 * g.standard_normal(n_features)
        x = gain[:, None] * pattern(offset) + noise_std * g.standard_normal((n_features, window_len))
        return x.reshape(-1)

    return _draw_dataset(
        draw_normal, lambda x, s: inject_timeseries_anomaly(x, s, n_features, window_len, g),
        specs, n_train, n_test, n_test_normal,
        feature_names=tuple(f"f{f}_t{t}" for f in range(n_features) for t in range(window_len)),
        modality="timeseries",
        window={"len": window_len, "stride": window_len},
    )


def _smooth_basis(side: int, k: int, g: np.random.Generator) -> Array:
    """k localized smooth bumps (unit RMS) spread over the image.

    Localized supports keep the texture covariance spectrum flat enough for
    stable generative modelling while staying low-dimensional per pixel.
    """
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    basis = np.zeros((k, side, side))
    for j in range(k):
        cy, cx = g.uniform(0, side, size=2)
        width = g.uniform(side / 6.0, side / 3.0)
        envelope = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
        fx, fy = g.uniform(0.5, 2.0, size=2)
        px, py = g.uniform(0.0, 2.0 * math.pi, size=2)
        wave = np.cos(2.0 * math.pi * (fx * xx + fy * yy) / side + px + py)
        basis[j] = envelope * wave
        basis[j] /= np.sqrt((basis[j] ** 2).mean())
    return basis


def gen_synthetic_image(
    side: int,
    n_train: int,
    n_test: int,
    spec,
    seed: int,
    n_basis: int = 8,
    noise_std: float = 0.05,
    n_test_normal: int = 0,
) -> Dataset:
    """Smooth grayscale textures with square/stripe defects, flattened row-major."""
    specs = check_generator_args(
        "image", spec, side=side, n_basis=n_basis, n_train=n_train, n_test=n_test,
        n_test_normal=n_test_normal, noise_std=noise_std,
    )
    g = stream(seed, "gen-image")
    basis = _smooth_basis(side, n_basis, g)

    def draw_normal() -> Array:
        coeff = g.standard_normal(n_basis) / math.sqrt(n_basis)
        img = np.tensordot(coeff, basis, axes=1) + noise_std * g.standard_normal((side, side))
        return img.reshape(-1)

    return _draw_dataset(
        draw_normal, lambda x, s: inject_image_defect(x, s, side, g), specs, n_train, n_test, n_test_normal,
        feature_names=tuple(f"px{r}_{c}" for r in range(side) for c in range(side)),
        modality="image",
    )


# -- CSV directory layout --------------------------------------------------------


def save_dataset(ds: Dataset, directory) -> None:
    """Write train.csv, test.csv, test_labels.csv, and meta.json."""
    directory = Path(directory)
    for name, data, cell in (("train.csv", ds.train, repr), ("test.csv", ds.test, repr),
                             ("test_labels.csv", ds.labels, int)):
        ckpt.write_csv(directory / name, ds.feature_names, (list(map(cell, row.tolist())) for row in data))
    meta = {
        "schema": DATASET_SCHEMA,
        "n": ds.n,
        "modality": ds.modality,
        "feature_names": list(ds.feature_names),
        "window": ds.window,
    }
    ckpt.write(directory / "meta.json", meta)


# The bytes of a data block that `np.loadtxt` and `float()` read alike; other
# characters, such as the whitespace \x1c-\x1f that numpy strips and
# `float()` rejects, send a file to the row-by-row parser.
_PLAIN_NUMBERS = b"0123456789.eE+-,\r\n"


def _read_plain_csv(path: Path, n_cols: int | None):
    """The header and values of a CSV whose data rows hold only plain finite
    numbers, parsed in one call. Raises ValueError on any other file."""
    with path.open("r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        body = fh.read()
    lines = body.splitlines()
    # A blank line is an empty row to csv.reader, and np.loadtxt would skip it.
    if (not header or (n_cols is not None and len(header) != n_cols) or not lines or not all(lines)
            or body.encode("utf-8").translate(None, _PLAIN_NUMBERS)):
        raise ValueError(f"{path}: not a block of plain numbers")
    values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if values.shape != (len(lines), len(header)) or not np.isfinite(values).all():
        raise ValueError(f"{path}: not a block of finite numbers")
    return header, values


def _read_csv_rows(path: Path, n_cols: int | None):
    """Parse cell by cell; the one place that words a bad file's error."""
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if n_cols is not None and len(header) != n_cols:
            raise ValueError(f"{path}: expected {n_cols} columns, found {len(header)}")
        rows = []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path} row {r}: expected {len(header)} cells, found {len(row)}")
            parsed = []
            for c, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(f"{path} row {r} column {c}: non-numeric cell {cell!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"{path} row {r} column {c}: non-finite value {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def _read_csv(path: Path, n_cols: int | None = None):
    """The header and the (rows, columns) float64 values of a dataset CSV.

    A file of plain numbers is parsed in one `np.loadtxt` call; any other file
    goes to the row-by-row parser, which gives the same values or names the
    row, column and cell at fault.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    try:
        return _read_plain_csv(path, n_cols)
    except ValueError:
        return _read_csv_rows(path, n_cols)


def load_csv_dataset(directory) -> Dataset:
    """Parse and validate a dataset directory written by `save_dataset`."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"missing dataset file: {meta_path}")
    meta = ckpt.read_object(meta_path, "dataset metadata")
    if meta.get("schema") != DATASET_SCHEMA:
        raise ValueError(f"{meta_path}: expected schema {DATASET_SCHEMA!r}, got {meta.get('schema')!r}")

    header, train = _read_csv(directory / "train.csv")
    for key, value in (("n", len(header)), ("feature_names", header)):
        if key in meta and meta[key] != value:
            raise ValueError(f"{meta_path}: {key} {meta[key]!r} does not match train.csv's header, "
                             f"which gives {value!r}")
    _, test = _read_csv(directory / "test.csv", n_cols=len(header))
    labels_path = directory / "test_labels.csv"
    _, labels = _read_csv(labels_path, n_cols=len(header))
    if labels.shape != test.shape:
        raise ValueError(f"{labels_path}: shape {labels.shape} does not mirror test {test.shape}")
    bad = np.argwhere((labels != 0.0) & (labels != 1.0))
    if bad.size:
        r, c = bad[0]
        raise ValueError(
            f"{labels_path} row {int(r) + 2} column {int(c) + 1}: "
            f"label value {labels[r, c]} not in {{0, 1}}"
        )
    return Dataset(
        train=train,
        test=test,
        labels=labels,
        feature_names=tuple(header),
        modality=meta.get("modality", "timeseries"),
        window=meta.get("window"),
    )


# -- scaling ---------------------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization fitted on training statistics."""

    shift: Array
    scale: Array

    def apply(self, x: Array) -> Array:
        return (np.asarray(x, dtype=np.float64) - self.shift) / self.scale

    def invert(self, x: Array) -> Array:
        return np.asarray(x, dtype=np.float64) * self.scale + self.shift


def fit_scaler(train, scale_floor: float = DEFAULT_SCALE_FLOOR) -> Scaler:
    if scale_floor <= 0.0:
        raise ValueError("scale floor must be positive")
    data = np.asarray(train, dtype=np.float64)
    if data.ndim != 2 or data.size == 0:
        raise ValueError("scaler needs a non-empty 2-D training batch")
    return Scaler(shift=data.mean(axis=0), scale=np.maximum(data.std(axis=0), scale_floor))
