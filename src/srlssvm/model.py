"""Trained model: prediction, metrics, and persistence.

Models are immutable; every operation here is safe for concurrent
callers.  A gaussian model prepares the landmark side of its kernel block
once, when it is built or loaded, so predicting n points costs the
O(n r l) block against the landmarks and no per-call set-up.  The file
format is a versioned JSON header with base64-encoded little-endian
float64 arrays, so round-trips are bit exact.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import CLASSIFICATION, REGRESSION, Dataset
from .errors import DataFormatError, InvalidInputError, UnsupportedVersionError
from .kernels import KernelSpec, PreparedRows, gram, prepare_landmarks

FORMAT_NAME = "srlssvm-model"
FORMAT_VERSION = 1

# coefficients at or below this magnitude do not count as support vectors
SV_TOL = 1e-12


@dataclass(frozen=True)
class Model:
    """Decision function f(x) = sum_i alpha_i k(landmark_i, x) + b.

    ``prepared`` holds ``kernels.prepare_landmarks(kernel, landmarks)``,
    computed here once and read-only: the shift, the shifted landmarks and
    their squared norms of a gaussian model, None for a linear one.  It is
    left out of ``repr`` and ``==``.
    """

    landmarks: np.ndarray  # (r, l)
    alpha: np.ndarray      # (r,)
    b: float
    kernel: KernelSpec
    task: str
    prepared: PreparedRows | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L = np.asarray(self.landmarks, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "landmarks", L)
        object.__setattr__(self, "alpha", a)
        if L.ndim != 2 or a.shape != (L.shape[0],):
            raise InvalidInputError("alpha must have one entry per landmark row")
        if not (np.isfinite(a).all() and np.isfinite(self.b)):
            raise InvalidInputError("model coefficients must be finite")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise InvalidInputError(f"unknown task {self.task!r}")
        prepared = prepare_landmarks(self.kernel, L)
        if prepared is not None:
            for arr in (prepared.rows, prepared.sq_norms, prepared.shift):
                arr.flags.writeable = False
        object.__setattr__(self, "prepared", prepared)

    @property
    def r(self) -> int:
        return self.landmarks.shape[0]

    @property
    def n_sv(self) -> int:
        return int(np.count_nonzero(np.abs(self.alpha) > SV_TOL))


def predict_raw(model: Model, x):
    """Evaluate f(x); accepts a single vector or an (n, l) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.landmarks.shape[1]:
        raise InvalidInputError(
            f"expected feature dimension {model.landmarks.shape[1]}, got {x.shape}")
    f = gram(model.kernel, X, model.landmarks, prepared=model.prepared) @ model.alpha + model.b
    return float(f[0]) if single else f


def predict_class(model: Model, x):
    """Sign of f(x) as a +-1 label; f = 0 maps to +1."""
    if model.task != CLASSIFICATION:
        raise InvalidInputError("predict_class requires a classification model")
    f = predict_raw(model, x)
    if np.isscalar(f):
        return 1 if f >= 0 else -1
    return np.where(f >= 0, 1, -1)


@dataclass(frozen=True)
class EvalReport:
    """Accuracy (classification) or RMSE (regression) plus model sparsity."""

    task: str
    accuracy: float | None
    rmse: float | None
    n_sv: int
    predict_time_ms: float

    def as_dict(self) -> dict:
        d = {"task": self.task, "n_sv": self.n_sv}
        if self.task == CLASSIFICATION:
            d["accuracy"] = self.accuracy
        else:
            d["rmse"] = self.rmse
        d["timing"] = {"predict_time_ms": self.predict_time_ms}
        return d


def evaluate(model: Model, dataset: Dataset) -> EvalReport:
    """Score the model on a held-out dataset of the same task."""
    if dataset.task != model.task:
        raise InvalidInputError(
            f"task mismatch: model is {model.task}, dataset is {dataset.task}")
    if dataset.m < 1:
        raise InvalidInputError("cannot evaluate on an empty dataset")
    t0 = time.perf_counter()
    f = predict_raw(model, dataset.features)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if model.task == CLASSIFICATION:
        acc = float(np.mean(np.where(f >= 0, 1.0, -1.0) == dataset.targets))
        return EvalReport(CLASSIFICATION, acc, None, model.n_sv, elapsed_ms)
    rmse = float(np.sqrt(np.mean((f - dataset.targets) ** 2)))
    return EvalReport(REGRESSION, None, rmse, model.n_sv, elapsed_ms)


def _encode(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decode(text: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise DataFormatError(f"invalid base64 array payload: {exc}") from exc
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise DataFormatError(
            f"array payload has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def save(model: Model, path) -> None:
    """Write the versioned JSON model file (deterministic bytes)."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "task": model.task,
        "kernel": {"family": model.kernel.family, "sigma": model.kernel.sigma},
        "r": model.r,
        "l": int(model.landmarks.shape[1]),
        "b": model.b,
        "landmarks": _encode(model.landmarks),
        "alpha": _encode(model.alpha),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load(path) -> Model:
    """Read a model file.

    Damage raises a parse error: malformed JSON names the byte offset, a
    missing or invalid field names the field.
    """
    with open(path, "r") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"malformed model file: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise DataFormatError("not a model file (missing format marker)")
    if doc.get("version") != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"model file version {doc.get('version')!r} is not supported "
            f"(this build reads version {FORMAT_VERSION})")
    r, l = _field(doc, "r", int), _field(doc, "l", int)
    kernel = _field(doc, "kernel", lambda k: KernelSpec(k["family"], k["sigma"]))
    landmarks = _field(doc, "landmarks", lambda payload: _decode(payload, (r, l)))
    alpha = _field(doc, "alpha", lambda payload: _decode(payload, (r,)))
    b, task = _field(doc, "b", float), _field(doc, "task", str)
    try:
        return Model(landmarks, alpha, b, kernel, task)
    except InvalidInputError as exc:
        raise DataFormatError(f"invalid model file: {exc}") from exc


def _field(doc: dict, name: str, build):
    """build(doc[name]); any failure is a parse error that names the field."""
    if name not in doc:
        raise DataFormatError(f"model file is missing field {name!r}")
    try:
        return build(doc[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"model file field {name!r} is invalid: {exc}") from exc
