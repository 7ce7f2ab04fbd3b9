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

Both kernels take an (n, height, width) stack of gray planes. The engine
hashes each batch's new images with ``fingerprint_images``, one stack per
image shape and pixel budget; the per-image functions are stacks of one.

The MemoStore maps fingerprints to class labels for one run, so a cascade
can skip both models when an image (or an invariant transform of it) has
been classified before.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .images import ImageBuffer, grayscale_stack

DHASH_COLS = 9
DHASH_ROWS = 8


class Fingerprint(NamedTuple):
    """A hashable image key: method name plus canonical key string."""

    method: str  # a FINGERPRINTS name
    key: str


def _planes(gray: ImageBuffer, refusal: str) -> np.ndarray:
    """A grayscale image as a stack of one (1, height, width) plane; ``refusal`` for a color one."""
    if gray.channels != 1:
        raise DataError(refusal)
    return grayscale_stack([gray])


def _dhash_words(planes: np.ndarray) -> list[int]:
    """The 64-bit difference hash of each (height, width) plane of an (n, height, width) stack.

    Each plane is split into a 9x8 grid (column boundaries floor(k*W/9),
    row boundaries floor(k*H/8)). Bit (r, c) is 1 iff the mean brightness
    of cell (r, c) strictly exceeds that of cell (r, c+1); means are
    compared by cross-multiplying integer sums so no floats are involved.
    Bits are packed most-significant-first in row-major order.
    """
    n, h, w = planes.shape
    if w < DHASH_COLS or h < DHASH_ROWS:
        raise DataError(f"image {w}x{h} smaller than {DHASH_COLS}x{DHASH_ROWS} grid")
    col_edges = np.arange(DHASH_COLS + 1) * w // DHASH_COLS
    row_edges = np.arange(DHASH_ROWS + 1) * h // DHASH_ROWS
    # reduceat needs strictly increasing edges (an empty cell would yield one
    # pixel, not 0), which w >= 9 and h >= 8 guarantee; the int64 cross
    # products stay exact for cells of up to 1.9e8 pixels
    f = planes.astype(np.int64)
    sums = np.add.reduceat(np.add.reduceat(f, row_edges[:-1], axis=1), col_edges[:-1], axis=2)
    counts = np.outer(np.diff(row_edges), np.diff(col_edges))
    bits = sums[..., :-1] * counts[:, 1:] > sums[..., 1:] * counts[:, :-1]
    return np.packbits(bits.reshape(n, 64), axis=1).view(">u8")[:, 0].tolist()


def dhash(gray: ImageBuffer) -> int:
    """64-bit difference hash of a grayscale image (see ``_dhash_words``)."""
    return _dhash_words(_planes(gray, "dhash requires a 1-channel image"))[0]


def dhash_fingerprint(gray: ImageBuffer) -> Fingerprint:
    return Fingerprint("dhash", format(dhash(gray), "016x"))


def _power_sums(n: int) -> list[int]:
    """Sums of k**p over k in range(n), for p = 0..3."""
    s1 = n * (n - 1) // 2
    return [n, s1, s1 * (2 * n - 1) // 3, s1 * s1]


def _raw_moments(planes: np.ndarray) -> list[list[list[int]]]:
    """Per plane of an (n, h, w) stack, m[q][p] = sum of y**q * x**p * f(x, y), exact for p + q <= 3."""
    h, w = planes.shape[1:]
    sx, sy = _power_sums(w), _power_sums(h)
    # int64 is exact while no used moment of an all-255 image reaches 2**63; past that
    # (thin or huge images) the same products run on Python ints. p + q > 3 may wrap.
    fits = all(255 * sx[p] * sy[q] < 2**63 for p in range(4) for q in range(4 - p))
    dtype = np.int64 if fits else object
    # The row moments f @ xs run on float64, where numpy's matmul calls BLAS (its int64 matmul
    # does not), while each of them and every partial sum of one is an integer below 2**53
    # (widths up to 3448): any order of adds is exact. They are then made int64, as object
    # columns made from float64 would hold floats.
    row_dtype = np.float64 if 255 * max(sx) < 2**53 else dtype
    rows = planes.astype(row_dtype) @ np.vander(np.arange(w).astype(row_dtype), 4, increasing=True)
    if row_dtype is np.float64:
        rows = rows.astype(np.int64)
    ys = np.vander(np.arange(h).astype(dtype), 4, increasing=True)
    return (ys.T @ rows.astype(dtype, copy=False)).tolist()


def _gmul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers given as (real, imaginary)."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _invariant_numerators(raw: list[list[int]]) -> tuple[int, int, int, tuple[int, int], tuple[int, int]]:
    """From one image's raw moments, m00 and the integer numerators of c11, c21*c12, c20*c12**2 and c30*c12**3.

    With n = m00 their denominators are n**3, n**9, n**12 and n**18: c_pq sums
    z**p * conj(z)**q * f over n**((p+q)/2 + 1), z centered on the centroid, and
    central moments u are kept scaled by n (order 2) or n**2 (order 3)."""
    (n, a, m20, m30), (b, m11, m21, _), (m02, m12, _, _), (m03, _, _, _) = raw
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
    """A grayscale image's invariants (see ``_invariants``)."""
    return _invariants(_raw_moments(_planes(gray, "moments require a 1-channel image"))[0])


def _invariants(raw: list[list[int]]) -> MomentInvariants:
    """Each feature is one correctly rounded division of exact integers."""
    n, c11, norm, (re3, im3), (re5, im5) = _invariant_numerators(raw)
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


def _dhash_stack(planes: np.ndarray) -> list[Fingerprint]:
    return [Fingerprint("dhash", format(word, "016x")) for word in _dhash_words(planes)]


def _moments_stack(planes: np.ndarray) -> list[Fingerprint | str]:
    keys: list[Fingerprint | str] = []
    for raw in _raw_moments(planes):
        try:
            keys.append(Fingerprint("moments", _invariants(raw).key))
        except DataError as exc:  # zero total intensity
            keys.append(str(exc))
    return keys


# Fingerprint methods by name: the engine, configs and the CLI offer exactly these. Each maps
# an (n, height, width) stack of gray planes to one fingerprint or hash error message per plane,
# and raises DataError for a shape it cannot hash.
FINGERPRINTS: dict[str, Callable[[np.ndarray], list[Fingerprint | str]]] = {
    "dhash": _dhash_stack,
    "moments": _moments_stack,
}

# The most pixels one stacked call takes, so its 8-byte planes (float64 for the moments, int64
# for dhash) stay within 512 KB (peak RSS stays flat at 224x224); a larger image goes alone.
CHUNK_PIXELS = 1 << 16


def fingerprint_images(method: str, images: Sequence[ImageBuffer]) -> list[Fingerprint | str]:
    """Each image's ``method`` fingerprint, or the message of the DataError hashing it raised.

    Images of one (height, width, channels) are grayscaled and hashed together,
    in chunks of at most CHUNK_PIXELS pixels (and at least one image)."""
    results: list[Fingerprint | str] = [""] * len(images)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, image in enumerate(images):
        groups.setdefault((image.height, image.width, image.channels), []).append(i)
    for (height, width, _), members in groups.items():
        step = max(1, CHUNK_PIXELS // (height * width))
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            try:
                found = FINGERPRINTS[method](grayscale_stack([images[i] for i in chunk]))
            except DataError as exc:  # the shape itself, say one smaller than the dhash grid
                found = [str(exc)] * len(chunk)
            for i, result in zip(chunk, found):
                results[i] = result
    return results


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
