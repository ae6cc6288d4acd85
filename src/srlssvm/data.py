"""Dataset ingestion, normalization, splitting, outlier injection, and
synthetic data generation.

All randomized operations take an explicit seed and are deterministic:
the same seed always yields byte-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InvalidInputError

CLASSIFICATION = "classification"
REGRESSION = "regression"
TASKS = (CLASSIFICATION, REGRESSION)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m x l) with targets; classification targets are +-1."""

    features: np.ndarray
    targets: np.ndarray
    task: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)
        if self.task not in TASKS:
            raise InvalidInputError(f"unknown task {self.task!r}")
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise InvalidInputError("features must be a nonempty m x l matrix")
        if y.shape != (X.shape[0],):
            raise InvalidInputError("targets must be a length-m vector")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise InvalidInputError("features/targets contain NaN or Inf")
        if self.task == CLASSIFICATION and not np.isin(y, (-1.0, 1.0)).all():
            raise InvalidInputError("classification targets must be in {-1, +1}")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def l(self) -> int:
        return self.features.shape[1]

    def take(self, indices, **meta) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.features[idx], self.targets[idx], self.task,
                       {**self.meta, **meta})


def parse_sparse_text(source, task: str = CLASSIFICATION) -> Dataset:
    """Parse the 'label idx:val idx:val ...' sparse text format.

    Indices are 1-based and must be strictly ascending within a line;
    omitted entries are zero and l is the largest index seen anywhere.
    Labels and values must be finite: ``inf`` and ``nan`` are parse
    errors.  Classification labels are mapped onto {-1, +1} (smaller raw
    label -> -1), and exactly two distinct raw labels are required.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        name = str(source)
    elif isinstance(source, bytes):
        text = source.decode()
        name = "<bytes>"
    else:
        raise InvalidInputError("source must be a path or bytes")

    labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataFormatError(f"non-numeric label {tokens[0]!r}", line=lineno)
        if not math.isfinite(label):
            raise DataFormatError(f"non-finite label {tokens[0]!r}", line=lineno)
        entries: list[tuple[int, float]] = []
        prev = 0
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise DataFormatError(f"malformed feature token {tok!r}", line=lineno)
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DataFormatError(f"non-numeric token {tok!r}", line=lineno)
            if not math.isfinite(val):
                raise DataFormatError(f"non-finite value in {tok!r}", line=lineno)
            if idx < 1:
                raise DataFormatError(f"feature index {idx} must be >= 1", line=lineno)
            if idx <= prev:
                raise DataFormatError(
                    f"feature indices must be ascending (saw {idx} after {prev})",
                    line=lineno)
            prev = idx
            entries.append((idx, val))
        max_index = max(max_index, prev)
        labels.append(label)
        rows.append(entries)

    if not rows:
        raise InvalidInputError(f"no samples found in {name}")
    if max_index == 0:
        raise InvalidInputError(f"no features found in {name}")

    X = np.zeros((len(rows), max_index))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            X[i, idx - 1] = val

    y = np.array(labels)
    if task == CLASSIFICATION:
        distinct = np.unique(y)
        if distinct.size != 2:
            raise InvalidInputError(
                f"classification needs exactly 2 distinct labels, found {distinct.size}")
        y = np.where(y == distinct[0], -1.0, 1.0)
    return Dataset(X, y, task, {"source": name})


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-attribute training min/max defining the affine map onto [-1, 1]."""

    lo: np.ndarray
    hi: np.ndarray

    def apply(self, dataset: Dataset) -> Dataset:
        """Apply the training-set map; no clamping, constant attributes -> 0."""
        if dataset.l != self.lo.size:
            raise InvalidInputError(
                f"normalization spec is for {self.lo.size} attributes, got {dataset.l}")
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        X = 2.0 * (dataset.features - self.lo) / safe - 1.0
        X[:, span == 0] = 0.0
        return Dataset(X, dataset.targets.copy(), dataset.task,
                       {**dataset.meta, "normalized": True})


def normalize_minmax(dataset: Dataset) -> tuple[Dataset, NormalizationSpec]:
    """Scale each attribute into [-1, 1]; the returned map lets held-out
    data be transformed with the training statistics."""
    spec = NormalizationSpec(lo=dataset.features.min(axis=0),
                             hi=dataset.features.max(axis=0))
    return spec.apply(dataset), spec


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into disjoint, exhaustive train/test parts."""
    if not 0.0 < train_fraction < 1.0:
        raise InvalidInputError("train_fraction must be in (0, 1)")
    m = dataset.m
    n_train = int(round(m * train_fraction))
    if n_train == 0 or n_train == m:
        raise InvalidInputError(
            f"fraction {train_fraction} leaves an empty side for m={m}")
    perm = np.random.default_rng(seed).permutation(m)
    train = dataset.take(np.sort(perm[:n_train]), split="train", split_seed=seed)
    test = dataset.take(np.sort(perm[n_train:]), split="test", split_seed=seed)
    return train, test


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise InvalidInputError(f"{name} must be in [0, 1], got {value!r}")


def inject_label_outliers(dataset: Dataset, rate_pool: float = 0.30,
                          flip_fraction: float = 1.0 / 3.0, *,
                          reference, seed: int) -> tuple[Dataset, list[int]]:
    """Flip labels of a random slice of the points farthest from the boundary.

    Ranks samples by |f(x)| under the clean-data reference model, pools the
    top ``rate_pool`` fraction, then flips a seeded random ``flip_fraction``
    of the pool (0.30 and 1/3 give a net 10% outlier rate).
    """
    if dataset.task != CLASSIFICATION:
        raise InvalidInputError("label outliers require a classification dataset")
    _check_fraction("rate_pool", rate_pool)
    _check_fraction("flip_fraction", flip_fraction)
    from .model import predict_raw

    scores = np.abs(predict_raw(reference, dataset.features))
    order = np.argsort(-scores, kind="stable")
    pool = order[:int(round(dataset.m * rate_pool))]
    n_flip = int(round(len(pool) * flip_fraction))
    rng = np.random.default_rng(seed)
    flipped = np.sort(rng.choice(pool, size=n_flip, replace=False)) if n_flip else np.array([], dtype=int)

    y = dataset.targets.copy()
    y[flipped] = -y[flipped]
    out = Dataset(dataset.features.copy(), y, dataset.task,
                  {**dataset.meta, "flipped_indices": [int(i) for i in flipped]})
    return out, [int(i) for i in flipped]


def inject_target_noise(dataset: Dataset, rate: float = 0.10, *,
                        seed: int) -> tuple[Dataset, list[int]]:
    """Add N(0, d^2) noise to a seeded random ``rate`` fraction of targets,
    with d = half the mean target (mean-absolute fallback when that is 0)."""
    if dataset.task != REGRESSION:
        raise InvalidInputError("target noise requires a regression dataset")
    _check_fraction("rate", rate)
    meta = {**dataset.meta}
    d = 0.5 * float(dataset.targets.mean())
    if d == 0.0:
        d = 0.5 * float(np.abs(dataset.targets).mean())
        meta["noise_scale_fallback"] = True

    n = int(round(dataset.m * rate))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(dataset.m, size=n, replace=False)) if n else np.array([], dtype=int)
    y = dataset.targets.copy()
    y[idx] += rng.normal(0.0, abs(d), size=n)
    meta["noisy_indices"] = [int(i) for i in idx]
    out = Dataset(dataset.features.copy(), y, dataset.task, meta)
    return out, [int(i) for i in idx]


# geometry of the two-blob synthetic set: unit-variance blobs at +-CENTER
# along the diagonal put the best linear separator near 90% accuracy
_BLOB_CENTER = 0.9063
_OUTLIER_DEPTH = 1.8
_OUTLIER_JITTER = 0.15


def make_synthetic_linear(n_train: int = 60, n_test: int = 100,
                          n_outliers: int = 4, seed: int = 0
                          ) -> tuple[Dataset, Dataset]:
    """Two overlapping 2-D Gaussian class blobs plus planted wrong-label points.

    The wrong-labeled points sit deep inside the opposite class region and
    are appended after the clean samples; their row indices are recorded in
    the training meta under ``outlier_indices``.  The clean samples and the
    test set do not depend on ``n_outliers``.
    """
    if n_train < 1 or n_test < 1 or n_outliers < 0:
        raise InvalidInputError("sizes must be positive (outliers nonnegative)")
    rng = np.random.default_rng(seed)
    c = _BLOB_CENTER

    def blob(n, sign):
        return sign * c + rng.standard_normal((n, 2))

    n_pos = (n_train + 1) // 2
    X = np.vstack([blob(n_pos, +1), blob(n_train - n_pos, -1)])
    y = np.concatenate([np.ones(n_pos), -np.ones(n_train - n_pos)])

    t_pos = (n_test + 1) // 2
    X_test = np.vstack([blob(t_pos, +1), blob(n_test - t_pos, -1)])
    y_test = np.concatenate([np.ones(t_pos), -np.ones(n_test - t_pos)])

    outlier_indices = list(range(n_train, n_train + n_outliers))
    if n_outliers:
        labels = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n_outliers)])
        pos = np.array([-lab * _OUTLIER_DEPTH * c + _OUTLIER_JITTER * rng.standard_normal(2)
                        for lab in labels])
        X = np.vstack([X, pos])
        y = np.concatenate([y, labels])

    train = Dataset(X, y, CLASSIFICATION,
                    {"source": "synthetic-linear", "seed": seed,
                     "outlier_indices": outlier_indices})
    test = Dataset(X_test, y_test, CLASSIFICATION,
                   {"source": "synthetic-linear-test", "seed": seed})
    return train, test


def make_synthetic_regression(n_train: int, n_test: int = 0, n_features: int = 3,
                              noise: float = 0.05, seed: int = 0
                              ) -> tuple[Dataset, Dataset | None]:
    """Smooth nonlinear target on uniform features, with Gaussian noise."""
    if n_train < 1 or n_test < 0 or n_features < 1:
        raise InvalidInputError("sizes must be positive")
    rng = np.random.default_rng(seed)

    def draw(n):
        X = rng.uniform(-1.0, 1.0, (n, n_features))
        y = np.sin(3.0 * X[:, 0])
        if n_features > 1:
            y = y + 0.5 * np.cos(2.0 * X[:, 1])
        if n_features > 2:
            y = y + 0.3 * X[:, 2]
        return X, y + noise * rng.standard_normal(n)

    X, y = draw(n_train)
    train = Dataset(X, y, REGRESSION, {"source": "synthetic-regression", "seed": seed})
    if n_test == 0:
        return train, None
    X_t, y_t = draw(n_test)
    test = Dataset(X_t, y_t, REGRESSION,
                   {"source": "synthetic-regression-test", "seed": seed})
    return train, test


def save_sparse_text(dataset: Dataset, path) -> None:
    """Write the 'label idx:val' format; zero entries are omitted."""
    with open(path, "w") as fh:
        for yi, xi in zip(dataset.targets, dataset.features):
            parts = [repr(float(yi))]
            parts += [f"{j + 1}:{repr(float(v))}" for j, v in enumerate(xi) if v != 0.0]
            fh.write(" ".join(parts) + "\n")
