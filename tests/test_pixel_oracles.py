"""Differential tests: the numpy pixel path against per-pixel reference loops.

The oracles below are the pure-Python implementations the numpy code
replaced, kept unchanged. Both sides use exact integer arithmetic, so every
output must match byte for byte.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadekit.errors import DataError
from cascadekit.images import (
    ImageBuffer,
    mirror_horizontal,
    mirror_vertical,
    rotate90,
    rotate180,
    rotate270,
    to_grayscale,
)
from cascadekit.phash import DHASH_COLS, DHASH_ROWS, dhash


def oracle_to_grayscale(img: ImageBuffer) -> ImageBuffer:
    """BT.601 luma with half-up integer rounding; identity for 1-channel input."""
    if img.channels == 1:
        return img
    out = bytearray(img.width * img.height)
    px = img.pixels
    for i in range(img.width * img.height):
        r, g, b = px[3 * i], px[3 * i + 1], px[3 * i + 2]
        y = (299 * r + 587 * g + 114 * b + 500) // 1000
        out[i] = min(y, 255)
    return ImageBuffer(img.width, img.height, 1, bytes(out))


def oracle_rotate90(img: ImageBuffer) -> ImageBuffer:
    """Rotate 90 degrees clockwise (width and height swap)."""
    w, h, c = img.width, img.height, img.channels
    out = bytearray(len(img.pixels))
    px = img.pixels
    for y in range(h):
        for x in range(w):
            # old (x, y) -> new (h - 1 - y, x) in an h-wide image
            src = (y * w + x) * c
            dst = (x * h + (h - 1 - y)) * c
            out[dst : dst + c] = px[src : src + c]
    return ImageBuffer(h, w, c, bytes(out))


def oracle_mirror_horizontal(img: ImageBuffer) -> ImageBuffer:
    """Flip left-right."""
    w, h, c = img.width, img.height, img.channels
    out = bytearray(len(img.pixels))
    px = img.pixels
    for y in range(h):
        row = y * w * c
        for x in range(w):
            src = row + x * c
            dst = row + (w - 1 - x) * c
            out[dst : dst + c] = px[src : src + c]
    return ImageBuffer(w, h, c, bytes(out))


def oracle_mirror_vertical(img: ImageBuffer) -> ImageBuffer:
    """Flip top-bottom."""
    w, h, c = img.width, img.height, img.channels
    stride = w * c
    out = bytearray(len(img.pixels))
    px = img.pixels
    for y in range(h):
        out[(h - 1 - y) * stride : (h - y) * stride] = px[y * stride : (y + 1) * stride]
    return ImageBuffer(w, h, c, bytes(out))


def oracle_dhash(gray: ImageBuffer) -> int:
    """64-bit difference hash of a grayscale image.

    The image is split into a 9x8 grid (column boundaries floor(k*W/9),
    row boundaries floor(k*H/8)). Bit (r, c) is 1 iff the mean brightness
    of cell (r, c) strictly exceeds that of cell (r, c+1); means are
    compared by cross-multiplying integer sums so no floats are involved.
    Bits are packed most-significant-first in row-major order.
    """
    if gray.channels != 1:
        raise DataError("dhash requires a 1-channel image")
    w, h = gray.width, gray.height
    if w < DHASH_COLS or h < DHASH_ROWS:
        raise DataError(f"image {w}x{h} smaller than {DHASH_COLS}x{DHASH_ROWS} grid")
    col_edges = [k * w // DHASH_COLS for k in range(DHASH_COLS + 1)]
    row_edges = [k * h // DHASH_ROWS for k in range(DHASH_ROWS + 1)]
    pixels = gray.pixels
    word = 0
    for r in range(DHASH_ROWS):
        y0, y1 = row_edges[r], row_edges[r + 1]
        sums = [0] * DHASH_COLS
        for y in range(y0, y1):
            base = y * w
            for c in range(DHASH_COLS):
                sums[c] += sum(pixels[base + col_edges[c] : base + col_edges[c + 1]])
        rows = y1 - y0
        counts = [(col_edges[c + 1] - col_edges[c]) * rows for c in range(DHASH_COLS)]
        for c in range(DHASH_COLS - 1):
            bit = 1 if sums[c] * counts[c + 1] > sums[c + 1] * counts[c] else 0
            word = (word << 1) | bit
    return word


@st.composite
def images(draw, channels=(1, 3)) -> ImageBuffer:
    """Random images of 1 to 40 pixels a side, a third of them flat 0 or 255."""
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    c = draw(st.sampled_from(channels))
    size = width * height * c
    fill = draw(st.sampled_from((None, 0, 255)))
    if fill is None:
        pixels = draw(st.binary(min_size=size, max_size=size))
    else:
        pixels = bytes([fill]) * size
    return ImageBuffer(width, height, c, pixels)


# deadline=None: the oracles are slow per-pixel loops, and a shared machine
# can stall any single example past Hypothesis's default 200 ms
examples = settings(max_examples=200, deadline=None)


@examples
@given(images())
def test_grayscale_matches_oracle(img):
    assert to_grayscale(img) == oracle_to_grayscale(img)


@examples
@given(images())
def test_rotations_match_oracle(img):
    once = oracle_rotate90(img)
    twice = oracle_rotate90(once)
    assert rotate90(img) == once
    assert rotate180(img) == twice
    assert rotate270(img) == oracle_rotate90(twice)


@examples
@given(images())
def test_mirrors_match_oracle(img):
    assert mirror_horizontal(img) == oracle_mirror_horizontal(img)
    assert mirror_vertical(img) == oracle_mirror_vertical(img)


@examples
@given(images(channels=(1,)))
def test_dhash_matches_oracle(img):
    if img.width >= DHASH_COLS and img.height >= DHASH_ROWS:
        assert dhash(img) == oracle_dhash(img)
    else:
        for fn in (dhash, oracle_dhash):
            with pytest.raises(DataError, match="smaller than"):
                fn(img)
