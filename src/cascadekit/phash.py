"""Perceptual fingerprints and the label memo store.

Two fingerprint methods over grayscale images:

* difference hash: 64 brightness-gradient sign bits from a 9x8 downsampled
  grid, computed in exact integer arithmetic. Fast, but any rotation or
  mirror changes the bits.
* moment fingerprint: the sum of four rotation-and-mirror-invariant
  features built from centroid-centered complex moments, quantized to a
  9-significant-digit key. The key is computed exactly from integer raw
  moments and rounded to a float once, so its invariance under rotations
  by 90, 180 and 270 degrees and both mirror axes (exact pixel
  permutations) is exact, not approximate.

The MemoStore maps fingerprints to class labels for one run, so a cascade
can skip both models when an image (or an invariant transform of it) has
been classified before.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError
from .images import ImageBuffer

DHASH_COLS = 9
DHASH_ROWS = 8


class Fingerprint(NamedTuple):
    """A hashable image key: method name plus canonical key string."""

    method: str  # a FINGERPRINTS name
    key: str


def dhash(gray: ImageBuffer) -> int:
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
    f = np.frombuffer(gray.pixels, dtype=np.uint8).reshape(h, w).astype(np.int64)
    col_edges = np.arange(DHASH_COLS + 1) * w // DHASH_COLS
    row_edges = np.arange(DHASH_ROWS + 1) * h // DHASH_ROWS
    # reduceat needs strictly increasing edges (an empty cell would yield one
    # pixel, not 0), which w >= 9 and h >= 8 guarantee; the int64 cross
    # products stay exact for cells of up to 1.9e8 pixels
    sums = np.add.reduceat(np.add.reduceat(f, row_edges[:-1], axis=0), col_edges[:-1], axis=1)
    counts = np.outer(np.diff(row_edges), np.diff(col_edges))
    bits = sums[:, :-1] * counts[:, 1:] > sums[:, 1:] * counts[:, :-1]
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


def dhash_fingerprint(gray: ImageBuffer) -> Fingerprint:
    return Fingerprint("dhash", format(dhash(gray), "016x"))


def _power_sums(n: int) -> list[int]:
    """Sums of k**p over k in range(n), for p = 0..3."""
    s1 = n * (n - 1) // 2
    return [n, s1, s1 * (2 * n - 1) // 3, s1 * s1]


def _raw_moments(gray: ImageBuffer) -> list[list[int]]:
    """m[q][p] = sum over pixels of y**q * x**p * f(x, y), exact for p + q <= 3."""
    if gray.channels != 1:
        raise DataError("moments require a 1-channel image")
    h, w = gray.height, gray.width
    sx, sy = _power_sums(w), _power_sums(h)
    # int64 is exact while no used moment of an all-255 image reaches 2**63; past that
    # (thin or huge images) the same product runs on Python ints. p + q > 3 may wrap.
    fits = all(255 * sx[p] * sy[q] < 2**63 for p in range(4) for q in range(4 - p))
    dtype = np.int64 if fits else object
    f = np.frombuffer(gray.pixels, dtype=np.uint8).reshape(h, w).astype(dtype)
    ys = np.vander(np.arange(h).astype(dtype), 4, increasing=True)
    xs = np.vander(np.arange(w).astype(dtype), 4, increasing=True)
    return (ys.T @ (f @ xs)).tolist()


def _gmul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers given as (real, imaginary)."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _invariant_numerators(gray: ImageBuffer) -> tuple[int, int, int, tuple[int, int], tuple[int, int]]:
    """m00 and the integer numerators of c11, c21*c12, c20*c12**2 and c30*c12**3.

    With n = m00 their denominators are n**3, n**9, n**12 and n**18: c_pq sums
    z**p * conj(z)**q * f over n**((p+q)/2 + 1), z centered on the centroid, and
    central moments u are kept scaled by n (order 2) or n**2 (order 3)."""
    (n, a, m20, m30), (b, m11, m21, _), (m02, m12, _, _), (m03, _, _, _) = _raw_moments(gray)
    if n == 0:
        raise DataError("zero total intensity")
    u20, u11, u02 = n * m20 - a * a, n * m11 - a * b, n * m02 - b * b
    u30 = n * n * m30 - 3 * n * a * m20 + 2 * a**3
    u03 = n * n * m03 - 3 * n * b * m02 + 2 * b**3
    u21 = n * n * m21 - n * (2 * a * m11 + b * m20) + 2 * a * a * b
    u12 = n * n * m12 - n * (2 * b * m11 + a * m02) + 2 * a * b * b
    c20 = (u20 - u02, 2 * u11)
    c12 = (u30 + u12, -(u21 + u03))
    c30 = (u30 - 3 * u12, 3 * u21 - u03)
    c12_sq = _gmul(c12, c12)
    norm = c12[0] ** 2 + c12[1] ** 2
    return n, u20 + u02, norm, _gmul(c20, c12_sq), _gmul(c30, _gmul(c12_sq, c12))


class MomentInvariants(NamedTuple):
    """Six rotation-invariant features (phi4 and phi6 flip sign on mirrors) and the moment key."""

    phi1: float
    phi2: float
    phi3: float
    phi4: float
    phi5: float
    phi6: float
    key: str

    def vector(self) -> tuple[float, float, float, float, float, float]:
        return (self.phi1, self.phi2, self.phi3, self.phi4, self.phi5, self.phi6)


def moment_invariants(gray: ImageBuffer) -> MomentInvariants:
    """Each feature is one correctly rounded division of exact integers."""
    n, c11, norm, (re3, im3), (re5, im5) = _invariant_numerators(gray)
    key = quantize_key((c11 * n**15 + norm * n**9 + re3 * n**6 + re5) / n**18)
    return MomentInvariants(c11 / n**3, norm / n**9, re3 / n**12, im3 / n**12, re5 / n**18, im5 / n**18, key)


def quantize_key(value: float) -> str:
    """Canonical 9-significant-digit rendering; plain "0" for zero."""
    if value == 0.0:
        return "0"
    return format(value, ".9g")


def moments_fingerprint(gray: ImageBuffer) -> Fingerprint:
    """Key from the mirror-safe phi1+phi2+phi3+phi5, summed exactly over m00**18, rounded once."""
    return Fingerprint("moments", moment_invariants(gray).key)


# Fingerprint methods by name: the engine, configs and the CLI offer exactly these.
FINGERPRINTS: dict[str, Callable[[ImageBuffer], Fingerprint]] = {
    "dhash": dhash_fingerprint,
    "moments": moments_fingerprint,
}


class MemoStore:
    """Unbounded map from fingerprints (method and key) to class labels.

    One store lives for one run and is never saved.
    """

    def __init__(self) -> None:
        self._entries: dict[Fingerprint, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, fp: Fingerprint) -> int | None:
        return self._entries.get(fp)

    def insert(self, fp: Fingerprint, label: int) -> None:
        self._entries[fp] = label
