"""Binary PNM (P5/P6) decoding, grayscale conversion, and pixel transforms."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError

_WHITESPACE = b" \t\n\r\x0b\x0c"
# whitespace and whole comments (the lookahead stops a comment from ending early), then digits
_HEADER_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n\r]*(?![^\n\r]))*([0-9]+)")


@dataclass(frozen=True)
class ImageBuffer:
    """Row-major 8-bit image; channels is 1 (grayscale) or 3 (RGB).

    Images compare and hash by value; any bytes-like ``pixels`` are stored as ``bytes``."""

    width: int
    height: int
    channels: int
    pixels: bytes

    def __post_init__(self) -> None:
        if type(self.pixels) is not bytes:  # a bytearray or memoryview is unhashable
            object.__setattr__(self, "pixels", bytes(memoryview(self.pixels)))
        if self.width < 1 or self.height < 1:
            raise DataError("image dimensions must be positive")
        if self.channels not in (1, 3):
            raise DataError("channels must be 1 or 3")
        if len(self.pixels) != self.width * self.height * self.channels:
            raise DataError("pixel count does not match dimensions")


def _read_header_token(data: bytes, pos: int) -> tuple[int, int]:
    """Next ASCII integer token at or after pos, skipping whitespace and
    '#'-to-end-of-line comments. Returns (value, position after token)."""
    match = _HEADER_TOKEN.match(data, pos)
    try:
        return int(match[1]), match.end()
    except (TypeError, ValueError):  # no token, or more digits than int() reads
        raise DataError("malformed PNM header") from None


def load_image_pnm(data: bytes) -> ImageBuffer:
    """Decode a binary PNM image (magic P5 or P6, maxval 255)."""
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise DataError(f"unsupported PNM magic {magic!r} (want P5 or P6)")
    width, pos = _read_header_token(data, 2)
    height, pos = _read_header_token(data, pos)
    maxval, pos = _read_header_token(data, pos)
    if maxval != 255:
        raise DataError(f"unsupported maxval {maxval} (must be 255)")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise DataError("malformed PNM header")
    pos += 1
    expected = width * height * channels
    payload = data[pos:]
    if len(payload) < expected:
        raise DataError("truncated payload")
    if len(payload) > expected:
        raise DataError("trailing data after payload")
    return ImageBuffer(width, height, channels, bytes(payload))


def write_image_pnm(img: ImageBuffer) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.pixels


def _array(img: ImageBuffer) -> np.ndarray:
    """Read-only (height, width, channels) uint8 view of the pixels."""
    return np.frombuffer(img.pixels, dtype=np.uint8).reshape(img.height, img.width, img.channels)


def _from_array(pixels: np.ndarray) -> ImageBuffer:
    height, width, channels = pixels.shape
    return ImageBuffer(width, height, channels, pixels.tobytes())


def to_grayscale(img: ImageBuffer) -> ImageBuffer:
    """BT.601 luma with half-up integer rounding; identity for 1-channel input."""
    if img.channels == 1:
        return img
    # int32 in place (numpy's int64 matmul skips BLAS); weights sum to 1000, so luma <= 255
    px = _array(img)
    luma = np.multiply(px[:, :, 0], 299, dtype=np.int32)
    luma += np.multiply(px[:, :, 1], 587, dtype=np.int32)
    luma += np.multiply(px[:, :, 2], 114, dtype=np.int32)
    luma += 500
    luma //= 1000
    return _from_array(luma.astype(np.uint8)[:, :, np.newaxis])


def rotate90(img: ImageBuffer) -> ImageBuffer:
    """Rotate 90 degrees clockwise (width and height swap)."""
    return _from_array(np.rot90(_array(img), k=-1))


def rotate180(img: ImageBuffer) -> ImageBuffer:
    return _from_array(np.rot90(_array(img), k=2))


def rotate270(img: ImageBuffer) -> ImageBuffer:
    return _from_array(np.rot90(_array(img), k=1))


def mirror_horizontal(img: ImageBuffer) -> ImageBuffer:
    """Flip left-right."""
    return _from_array(_array(img)[:, ::-1])


def mirror_vertical(img: ImageBuffer) -> ImageBuffer:
    """Flip top-bottom."""
    return _from_array(_array(img)[::-1])


# The duplication experiment's transforms. "random_of_these" draws from them
# in this order, so adding or reordering entries changes seeded streams.
TRANSFORMS = {
    "identity": lambda img: img,
    "rot90": rotate90,
    "rot180": rotate180,
    "mirror_h": mirror_horizontal,
    "mirror_v": mirror_vertical,
}
