"""Perceptual fingerprints and the label memo store.

Two fingerprint methods over grayscale images:

* difference hash: 64 brightness-gradient sign bits from a 9x8 downsampled
  grid, computed in exact integer arithmetic. Fast, but any rotation or
  mirror changes the bits.
* moment fingerprint: the sum of four rotation-and-mirror-invariant
  features built from centroid-centered complex moments, quantized to a
  9-significant-digit key. Survives rotations by multiples of 90 degrees
  and both mirror axes, which are exact pixel permutations.

The MemoStore maps fingerprints to class labels for one run, so a cascade
can skip both models when an image (or an invariant transform of it) has
been classified before.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError
from .images import ImageBuffer

DHASH_COLS = 9
DHASH_ROWS = 8


@dataclass(frozen=True)
class Fingerprint:
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


def _intensity(gray: ImageBuffer) -> np.ndarray:
    if gray.channels != 1:
        raise DataError("moments require a 1-channel image")
    arr = np.frombuffer(gray.pixels, dtype=np.uint8)
    return arr.astype(np.float64).reshape(gray.height, gray.width)


def _centered_plane(f: np.ndarray) -> tuple[np.ndarray, float]:
    """Complex coordinate grid centered on the intensity centroid."""
    m00 = float(f.sum())
    if m00 == 0.0:
        raise DataError("zero total intensity")
    ys, xs = np.indices(f.shape, dtype=np.float64)
    xbar = float((xs * f).sum()) / m00
    ybar = float((ys * f).sum()) / m00
    return (xs - xbar) + 1j * (ys - ybar), m00


def _moments(gray: ImageBuffer) -> Callable[[int, int], complex]:
    """The moment function c(p, q) of one image (see complex_moment)."""
    f = _intensity(gray)
    z, m00 = _centered_plane(f)
    zc = np.conj(z)

    def c(p: int, q: int) -> complex:
        return complex((z**p * zc**q * f).sum() / m00 ** ((p + q) / 2 + 1))

    return c


def complex_moment(gray: ImageBuffer, p: int, q: int) -> complex:
    """Centroid-centered, scale-normalized complex moment c_pq.

    c_pq = sum over pixels of z^p * conj(z)^q * f(x, y), divided by
    m00^((p+q)/2 + 1), with z the centroid-centered coordinate.
    """
    if p < 0 or q < 0 or p + q > 3:
        raise DataError(f"moment order ({p}, {q}) outside supported range")
    return _moments(gray)(p, q)


@dataclass(frozen=True)
class MomentInvariants:
    """Six rotation-invariant features; phi4 and phi6 flip sign on mirrors."""

    phi1: float
    phi2: float
    phi3: float
    phi4: float
    phi5: float
    phi6: float

    def vector(self) -> tuple[float, float, float, float, float, float]:
        return (self.phi1, self.phi2, self.phi3, self.phi4, self.phi5, self.phi6)


def moment_invariants(gray: ImageBuffer) -> MomentInvariants:
    c = _moments(gray)
    c11 = c(1, 1)
    c21 = c(2, 1)
    c12 = c(1, 2)
    c20 = c(2, 0)
    c30 = c(3, 0)
    pair3 = c20 * c12 * c12
    pair5 = c30 * c12 * c12 * c12
    return MomentInvariants(
        phi1=c11.real,
        phi2=(c21 * c12).real,
        phi3=pair3.real,
        phi4=pair3.imag,
        phi5=pair5.real,
        phi6=pair5.imag,
    )


def quantize_key(value: float) -> str:
    """Canonical 9-significant-digit rendering; plain "0" for zero."""
    if value == 0.0:
        return "0"
    return format(value, ".9g")


def moments_fingerprint(gray: ImageBuffer) -> Fingerprint:
    """Key from the sum of the four mirror-safe invariants (phi1+phi2+phi3+phi5)."""
    inv = moment_invariants(gray)
    scalar = inv.phi1 + inv.phi2 + inv.phi3 + inv.phi5
    return Fingerprint("moments", quantize_key(scalar))


# Fingerprint methods by name: the engine, configs and the CLI offer exactly these.
FINGERPRINTS: dict[str, Callable[[ImageBuffer], Fingerprint]] = {
    "dhash": dhash_fingerprint,
    "moments": moments_fingerprint,
}


class MemoStore:
    """Unbounded map from fingerprints (method and key) to class labels.

    One store lives for one run and is never saved. Lookups and inserts
    are serialized by a lock so concurrent readers never see a torn entry.
    """

    def __init__(self) -> None:
        self._entries: dict[Fingerprint, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, fp: Fingerprint) -> int | None:
        with self._lock:
            return self._entries.get(fp)

    def insert(self, fp: Fingerprint, label: int) -> None:
        with self._lock:
            self._entries[fp] = label
