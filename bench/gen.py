"""Seeded inputs for the benchmark: a record pair and, optionally, images.

Deliberately independent of cascadekit (no import of ``cascadekit.synthetic``
or of the record formatter), so a change to those modules cannot shift the
bytes a workload runs on. Records follow the same recipe as the package's
own generator: model A is right about 78% of the time, model B is right
more often where A is wrong, and confidence gaps of right and wrong
answers overlap so no threshold is perfect. Images are block-structured
RGB with noise; a workload may ask for every k-th frame to be all black.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

BLOCKS = 8  # images are an 8x8 grid of flat colour blocks plus noise


@dataclass
class RecordPair:
    """What the generator knows about the records it wrote."""

    ids: list[str]
    labels: np.ndarray   # int, shape (N,)
    a_ok: np.ndarray     # bool: model A's argmax equals the label
    b_ok: np.ndarray     # bool: model B's argmax equals the label


def _model_logits(rng: np.random.Generator, labels: np.ndarray, k: int, ok: np.ndarray) -> np.ndarray:
    n = labels.shape[0]
    wrong = (labels + rng.integers(1, k, size=n)) % k
    pred = np.where(ok, labels, wrong)
    logits = rng.normal(0.0, 1.0, size=(n, k))
    gap = np.where(ok, rng.uniform(0.3, 8.0, size=n), rng.uniform(0.05, 3.0, size=n))
    logits[np.arange(n), pred] = logits.max(axis=1) + gap
    return logits


def _write_records(path: str, ids: list[str], labels: np.ndarray, logits: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, label, row in zip(ids, labels.tolist(), logits.tolist()):
            fh.write(json.dumps({"id": sample_id, "label": label, "logits": row}, separators=(",", ":")))
            fh.write("\n")


def write_record_pair(directory: str, n: int, k: int, seed: int) -> RecordPair:
    """Write ``model_a.jsonl`` and ``model_b.jsonl`` with n samples of k classes."""
    rng = np.random.default_rng([seed, 1])
    width = len(str(n - 1))
    ids = [f"s{i:0{width}d}" for i in range(n)]
    labels = rng.integers(0, k, size=n)
    a_ok = rng.random(n) < 0.78
    b_ok = rng.random(n) < np.where(a_ok, 0.72, 0.85)
    logits_a = _model_logits(rng, labels, k, a_ok)
    logits_b = _model_logits(rng, labels, k, b_ok)
    os.makedirs(directory, exist_ok=True)
    _write_records(os.path.join(directory, "model_a.jsonl"), ids, labels, logits_a)
    _write_records(os.path.join(directory, "model_b.jsonl"), ids, labels, logits_b)
    return RecordPair(ids, labels, a_ok, b_ok)


def write_images(directory: str, ids: list[str], size: int, seed: int, blank_every: int | None) -> list[str]:
    """One binary PPM per id; returns the ids of the all-black frames.

    With ``blank_every = m``, sample i is black when (i + 1) is a multiple of m.
    """
    rng = np.random.default_rng([seed, 2])
    os.makedirs(directory, exist_ok=True)
    header = b"P6\n%d %d\n255\n" % (size, size)
    cell = -(-size // BLOCKS)
    blanks = []
    for i, sample_id in enumerate(ids):
        blocks = rng.integers(0, 256, size=(BLOCKS, BLOCKS, 3))
        noise = rng.normal(0.0, 12.0, size=(size, size, 3))
        if blank_every is not None and (i + 1) % blank_every == 0:
            pixels = np.zeros((size, size, 3), dtype=np.uint8)
            blanks.append(sample_id)
        else:
            base = np.repeat(np.repeat(blocks, cell, axis=0), cell, axis=1)[:size, :size]
            pixels = np.clip(np.rint(base + noise), 0, 255).astype(np.uint8)
        with open(os.path.join(directory, sample_id + ".ppm"), "wb") as fh:
            fh.write(header + pixels.tobytes())
    return blanks


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every regular file under root, keyed by relative path."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            digests[os.path.relpath(path, root)] = sha256_file(path)
    return dict(sorted(digests.items()))
