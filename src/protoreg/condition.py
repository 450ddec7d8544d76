"""Text-conditioned modulation: embeddings, adapter, and FiLM.

Prompt embeddings (512-dim, one per prompt category) are consumed from
files; a lightweight affine adapter turns them into per-channel scale and
shift parameters applied as  out = in * (1 + gamma) + beta.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from . import io
from .errors import ValidationError, _array, _keys, _values

EMBED_DIM = 512
SOURCES = ("anatomy", "diagnosis", "planning")


@dataclass(frozen=True)
class Embedding:
    values: np.ndarray            # (512,) float32
    source: str = "anatomy"

    def __post_init__(self):
        v = _array(self.values, "embedding", np.float32, (EMBED_DIM,))
        if self.source not in SOURCES:
            raise ValidationError(f"unknown embedding source {self.source!r}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class FilmParams:
    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        g = _array(self.gamma, "FiLM gamma", np.float64, (None,))
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "beta", _array(self.beta, "FiLM beta", np.float64, g.shape))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class FeatureGrid:
    """C channels of identically shaped 3-D data."""

    data: np.ndarray              # (C, nx, ny, nz)

    def __post_init__(self):
        object.__setattr__(self, "data",
                           _array(self.data, "feature grid", np.float64, (None,) * 4))

    @property
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class AdapterWeights:
    """Affine map 512 -> 2C: first C outputs gamma, last C beta."""

    matrix: np.ndarray            # (2C, 512)
    bias: np.ndarray              # (2C,)

    def __post_init__(self):
        m = _array(self.matrix, "adapter matrix", np.float64, (None, EMBED_DIM))
        if m.shape[0] % 2 != 0:
            raise ValidationError(f"adapter matrix must have an even number of rows, "
                                  f"got {m.shape[0]}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", _array(self.bias, "adapter bias", np.float64,
                                                m.shape[:1]))

    @property
    def channels(self) -> int:
        return self.matrix.shape[0] // 2

    @classmethod
    def random(cls, channels: int, seed: int = 0, scale: float = 0.01) -> "AdapterWeights":
        """Small random initialization for tests / demos."""
        rng = np.random.default_rng(seed)
        return cls(rng.normal(0.0, scale, size=(2 * channels, EMBED_DIM)),
                   rng.normal(0.0, scale, size=(2 * channels,)))

    @classmethod
    def identity(cls, channels: int) -> "AdapterWeights":
        """Zero weights: downstream FiLM is the identity."""
        return cls(np.zeros((2 * channels, EMBED_DIM)), np.zeros(2 * channels))


def film(features: FeatureGrid, params: FilmParams) -> FeatureGrid:
    """Per-channel affine modulation out_c = in_c * (1 + gamma_c) + beta_c."""
    if features.channels != params.channels:
        raise ValidationError(
            f"channel mismatch: {features.channels} features vs {params.channels} params")
    g = params.gamma[:, None, None, None]
    b = params.beta[:, None, None, None]
    return FeatureGrid(features.data * (1.0 + g) + b)


def adapter(embedding: Embedding, weights: AdapterWeights, channels: int) -> FilmParams:
    """Map an embedding to FiLM scale/shift for a given channel count."""
    if weights.channels != channels:
        raise ValidationError(
            f"adapter sized for {weights.channels} channels, requested {channels}")
    out = weights.matrix @ embedding.values.astype(np.float64) + weights.bias
    return FilmParams(out[:channels], out[channels:])


def mean_embedding(embeddings) -> Embedding:
    """Combine the available prompt embeddings by averaging."""
    embeddings = list(embeddings)
    if not embeddings:
        raise ValidationError("no embeddings given")
    stack = np.stack([e.values for e in embeddings])
    return Embedding(stack.mean(axis=0), source=embeddings[0].source)


def pseudo_embedding(text: str, source: str = "anatomy", salt: int = 0) -> Embedding:
    """Deterministic stand-in for a real text encoder.

    Expands a keyed blake2b hash of the prompt into 512 values in [-1, 1)
    and normalizes to unit length; identical text always yields the same
    vector on every platform.
    """
    if not text:
        raise ValidationError("prompt text is empty")
    key = text.encode("utf-8")
    vals = np.empty(EMBED_DIM, dtype=np.float64)
    i = 0
    block = 0
    while i < EMBED_DIM:
        h = hashlib.blake2b(key, digest_size=64,
                            salt=struct.pack("<QQ", salt & (2**64 - 1), block))
        for (word,) in struct.iter_unpack("<Q", h.digest()):
            if i >= EMBED_DIM:
                break
            vals[i] = word / 2.0**63 - 1.0
            i += 1
        block += 1
    norm = np.linalg.norm(vals)
    return Embedding((vals / norm).astype(np.float32), source=source)


# ---------------------------------------------------------------------------
# file formats

def load_embedding(path) -> Embedding:
    """{"source": one of SOURCES (default "anatomy"), "dim": 512,
    "values": 512 finite numbers}."""
    doc = _keys(io.read_json(path, "embedding"), f"embedding file {path}",
                ("dim", "values"), ("source",))
    if doc["dim"] != EMBED_DIM:
        raise ValidationError(f"embedding file {path}: dim must be {EMBED_DIM}")
    values = _values(doc["values"], f"embedding file {path}: values", EMBED_DIM)
    return Embedding(values, source=doc.get("source", "anatomy"))


def save_embedding(path, emb: Embedding) -> None:
    io.write_json(path, {"source": emb.source, "dim": EMBED_DIM,
                         "values": [float(v) for v in emb.values]})


def load_adapter(path) -> AdapterWeights:
    """{"matrix": 2C rows of 512 finite numbers, "bias": 2C finite numbers}."""
    doc = _keys(io.read_json(path, "adapter"), f"adapter file {path}", ("matrix", "bias"))
    if not isinstance(doc["matrix"], list):
        raise ValidationError(f"adapter file {path}: matrix must be a list of rows")
    matrix = [_values(row, f"adapter file {path}: matrix row", EMBED_DIM)
              for row in doc["matrix"]]
    return AdapterWeights(matrix, _values(doc["bias"], f"adapter file {path}: bias"))


def save_adapter(path, w: AdapterWeights) -> None:
    io.write_json(path, {"matrix": [[float(v) for v in row] for row in w.matrix],
                         "bias": [float(v) for v in w.bias]})
