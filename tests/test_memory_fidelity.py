"""What each fingerprint method counts as the same input.

A memory hit replays an earlier label, so a hit on a different image is a
silent misclassification. This seeded audit pins, per method, how many of
``COUNT`` copies of 32x32 RGB images hit their original under each kind of
change, and how many keys collide among distinct images. The images are the
benchmark's kind (an 8x8 grid of random colour blocks plus Gaussian noise,
sd 12), built here so the test needs no benchmark code. The counts were
recorded from the per-image kernels the stacked ones replaced; the
engine's batch path, ``fingerprint_images``, must give the same table.
"""

from __future__ import annotations

import numpy as np
import pytest

from cascadekit.images import TRANSFORMS, ImageBuffer, to_grayscale
from cascadekit.phash import FINGERPRINTS, dhash_fingerprint, fingerprint_images, moments_fingerprint

SIDE = 32
BLOCKS = 8
COUNT = 500
DISTINCT = 2000  # images searched for key collisions
SEED = 7

# hits out of COUNT copies (collisions: distinct images minus distinct keys), per method
TABLE = {
    "identity": {"dhash": 500, "moments": 500},
    "rot90": {"dhash": 0, "moments": 500},
    "rot180": {"dhash": 0, "moments": 500},
    "mirror_h": {"dhash": 0, "moments": 500},
    "mirror_v": {"dhash": 0, "moments": 500},
    "+1 every channel": {"dhash": 496, "moments": 0},
    "low bit at one pixel": {"dhash": 500, "moments": 329},
    "re-capture": {"dhash": 83, "moments": 0},
    "one-pixel roll": {"dhash": 0, "moments": 0},
    "collisions": {"dhash": 0, "moments": 0},
}


def _scene(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One image's blocks and its pixels: blocks upsampled to SIDE plus one noise draw."""
    blocks = rng.integers(0, 256, size=(BLOCKS, BLOCKS, 3))
    return blocks, _capture(rng, blocks)


def _capture(rng: np.random.Generator, blocks: np.ndarray) -> np.ndarray:
    cell = SIDE // BLOCKS
    base = np.repeat(np.repeat(blocks, cell, axis=0), cell, axis=1)
    return np.clip(np.rint(base + rng.normal(0.0, 12.0, size=(SIDE, SIDE, 3))), 0, 255).astype(np.uint8)


def _image(pixels: np.ndarray) -> ImageBuffer:
    return ImageBuffer(SIDE, SIDE, 3, pixels.tobytes())


def _low_bit(rng: np.random.Generator, pixels: np.ndarray) -> np.ndarray:
    out = pixels.copy()
    y, x, c = rng.integers(0, SIDE), rng.integers(0, SIDE), rng.integers(0, 3)
    out[y, x, c] ^= 1
    return out


def _copies(rng: np.random.Generator) -> tuple[list[ImageBuffer], dict[str, list[ImageBuffer]], list[ImageBuffer]]:
    """The originals, each row's copies of them, and the extra distinct images."""
    scenes = [_scene(rng) for _ in range(COUNT)]
    originals = [_image(pixels) for _, pixels in scenes]
    copies = {name: [transform(img) for img in originals] for name, transform in TRANSFORMS.items()}
    copies["+1 every channel"] = [_image(np.minimum(pixels.astype(np.int16) + 1, 255).astype(np.uint8))
                                  for _, pixels in scenes]
    copies["low bit at one pixel"] = [_image(_low_bit(rng, pixels)) for _, pixels in scenes]
    copies["re-capture"] = [_image(_capture(rng, blocks)) for blocks, _ in scenes]
    copies["one-pixel roll"] = [_image(np.roll(pixels, 1, axis=1)) for _, pixels in scenes]
    extra = [_image(_scene(rng)[1]) for _ in range(DISTINCT - COUNT)]
    return originals, copies, extra


@pytest.fixture(scope="module")
def audit_images():
    return _copies(np.random.default_rng(SEED))


def _table(audit_images, keys) -> dict[str, int]:
    """Hit counts per row, with ``keys(images)`` giving one key per image."""
    originals, copies, extra = audit_images
    own = keys(originals)
    table = {name: sum(a == b for a, b in zip(own, keys(row))) for name, row in copies.items()}
    table["collisions"] = DISTINCT - len(set(own + keys(extra)))
    return table


@pytest.mark.parametrize("method", sorted(FINGERPRINTS))
def test_hit_table_per_image(audit_images, method):
    fingerprint = {"dhash": dhash_fingerprint, "moments": moments_fingerprint}[method]
    got = _table(audit_images, lambda images: [fingerprint(to_grayscale(img)) for img in images])
    assert got == {row: counts[method] for row, counts in TABLE.items()}


@pytest.mark.parametrize("method", sorted(FINGERPRINTS))
def test_hit_table_stacked(audit_images, method):
    got = _table(audit_images, lambda images: fingerprint_images(method, images))
    assert got == {row: counts[method] for row, counts in TABLE.items()}
