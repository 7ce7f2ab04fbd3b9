"""Binary PNM (P5/P6) decoding, grayscale conversion, and pixel transforms."""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from .errors import DataError

_WHITESPACE = b" \t\n\r\x0b\x0c"
# whitespace and whole comments (the lookahead stops a comment from ending early), then digits
_HEADER_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n\r]*(?![^\n\r]))*([0-9]+)")


class ImageBuffer:
    """Row-major 8-bit image; channels is 1 (grayscale) or 3 (RGB).

    Images are frozen and compare and hash by value; any bytes-like ``pixels`` are
    stored as ``bytes``. The engine's fingerprint memo holds images by weak reference."""

    __slots__ = ("width", "height", "channels", "pixels", "__weakref__")

    def __init__(self, width: int, height: int, channels: int, pixels: bytes) -> None:
        if type(pixels) is not bytes:  # a bytearray or memoryview is unhashable
            pixels = bytes(memoryview(pixels))
        if width < 1 or height < 1:
            raise DataError("image dimensions must be positive")
        if channels not in (1, 3):
            raise DataError("channels must be 1 or 3")
        if len(pixels) != width * height * channels:
            raise DataError("pixel count does not match dimensions")
        for name, value in zip(ImageBuffer.__slots__, (width, height, channels, pixels)):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple[int, int, int, bytes]:
        return self.width, self.height, self.channels, self.pixels

    def __eq__(self, other: object) -> bool:
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__, as assignment is refused
        return ImageBuffer, self._astuple()

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen ImageBuffer")

    __delattr__ = __setattr__


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
    """Read-only (height, width) view of the pixels, one ``V{channels}`` item per pixel, so
    a transform moves whole pixels."""
    return np.frombuffer(img.pixels, dtype=f"V{img.channels}").reshape(img.height, img.width)


def _from_array(pixels: np.ndarray) -> ImageBuffer:
    """The image of a (height, width) array of one-item pixels (``V{channels}`` or uint8)."""
    height, width = pixels.shape
    return ImageBuffer(width, height, pixels.dtype.itemsize, pixels.tobytes())


def grayscale_stack(images: Sequence[ImageBuffer]) -> np.ndarray:
    """The (n, height, width) uint8 gray planes of n images of one shape, computed together.

    BT.601 luma with half-up integer rounding; 1-channel pixels are read as they are."""
    first = images[0]
    px = np.frombuffer(b"".join(img.pixels for img in images), dtype=np.uint8)
    px = px.reshape(len(images), first.height, first.width, first.channels)
    if first.channels == 1:
        return px[..., 0]
    # int32, scaled and added in place; weights sum to 1000, so luma <= 255. Each channel is
    # cast once, as numpy runs a mixed uint8-by-int32 multiply through buffered casts.
    luma = px[..., 0].astype(np.int32)
    luma *= 299
    for channel, weight in ((1, 587), (2, 114)):
        term = px[..., channel].astype(np.int32)
        term *= weight
        luma += term
        del term  # freed before the next channel's cast
    luma += 500
    luma //= 1000
    return luma.astype(np.uint8)


def to_grayscale(img: ImageBuffer) -> ImageBuffer:
    """``grayscale_stack`` of one image; identity for 1-channel input."""
    if img.channels == 1:
        return img
    return _from_array(grayscale_stack([img])[0])


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
