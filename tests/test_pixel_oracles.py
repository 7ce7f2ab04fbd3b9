"""Differential tests: the numpy pixel path against per-pixel reference loops.

The oracles below are the pure-Python implementations the numpy code
replaced, kept unchanged. Both sides use exact integer arithmetic, so every
output must match byte for byte.

The stacked kernels (``grayscale_stack``, ``_dhash_words`` and
``_raw_moments`` over (n, height, width) stacks, and ``fingerprint_images``,
which groups a batch by shape and chunks it by pixel budget) are checked
against the per-image numpy bodies they replaced, kept below unchanged apart
from their names.

The moment fingerprint has two oracles: the float64 complex-moment path the
exact integer path replaced (its keys agree except at a 9-digit rounding
boundary, its features to about 1e-11 relative), and an exact rational
evaluation of the same definition from per-pixel Python-int sums, which
every feature must match exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadekit.errors import DataError
from cascadekit.images import (
    ImageBuffer,
    _read_header_token,
    grayscale_stack,
    mirror_horizontal,
    mirror_vertical,
    rotate90,
    rotate180,
    to_grayscale,
)
from cascadekit import phash
from cascadekit.phash import (
    CHUNK_PIXELS,
    DHASH_COLS,
    DHASH_ROWS,
    FINGERPRINTS,
    Fingerprint,
    _invariants,
    dhash,
    fingerprint_images,
    MomentInvariants,
    moment_invariants,
    moments_fingerprint,
    quantize_key,
)


def oracle_read_header_token(data: bytes, pos: int) -> tuple[int, int]:
    """The byte-by-byte walk the compiled header regex replaced."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c in b" \t\n\r\x0b\x0c":
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1].isdigit():
        pos += 1
    if pos == start:
        raise DataError("malformed PNM header")
    return int(data[start:pos]), pos


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


def oracle_numpy_to_grayscale(img: ImageBuffer) -> ImageBuffer:
    """BT.601 luma with half-up integer rounding; identity for 1-channel input."""
    if img.channels == 1:
        return img
    # int32 in place (numpy's int64 matmul skips BLAS); weights sum to 1000, so luma <= 255
    px = np.frombuffer(img.pixels, dtype=np.uint8).reshape(img.height, img.width, img.channels)
    luma = np.multiply(px[:, :, 0], 299, dtype=np.int32)
    luma += np.multiply(px[:, :, 1], 587, dtype=np.int32)
    luma += np.multiply(px[:, :, 2], 114, dtype=np.int32)
    luma += 500
    luma //= 1000
    return ImageBuffer(img.width, img.height, 1, luma.astype(np.uint8).tobytes())


def rotate270(img: ImageBuffer) -> ImageBuffer:
    """Three clockwise quarter turns. The package has no rotate270: no transform makes one."""
    return rotate90(rotate180(img))


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


def oracle_numpy_dhash(gray: ImageBuffer) -> int:
    """64-bit difference hash of a grayscale image (the per-image numpy body)."""
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


def _power_sums(n: int) -> list[int]:
    """Sums of k**p over k in range(n), for p = 0..3."""
    s1 = n * (n - 1) // 2
    return [n, s1, s1 * (2 * n - 1) // 3, s1 * s1]


def oracle_raw_moments(gray: ImageBuffer) -> list[list[int]]:
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


def oracle_fingerprint(method: str, img: ImageBuffer) -> Fingerprint | str:
    """One image's fingerprint from the per-image bodies, or its hash error's message."""
    gray = oracle_numpy_to_grayscale(img)
    try:
        if method == "dhash":
            return Fingerprint("dhash", format(oracle_numpy_dhash(gray), "016x"))
        return Fingerprint("moments", _invariants(oracle_raw_moments(gray)).key)
    except DataError as exc:
        return str(exc)


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
    """The moment function c(p, q) of one image (see oracle_complex_moment)."""
    f = _intensity(gray)
    z, m00 = _centered_plane(f)
    zc = np.conj(z)

    def c(p: int, q: int) -> complex:
        return complex((z**p * zc**q * f).sum() / m00 ** ((p + q) / 2 + 1))

    return c


def oracle_complex_moment(gray: ImageBuffer, p: int, q: int) -> complex:
    """Centroid-centered, scale-normalized complex moment c_pq.

    c_pq = sum over pixels of z^p * conj(z)^q * f(x, y), divided by
    m00^((p+q)/2 + 1), with z the centroid-centered coordinate.
    """
    if p < 0 or q < 0 or p + q > 3:
        raise DataError(f"moment order ({p}, {q}) outside supported range")
    return _moments(gray)(p, q)


def oracle_float_invariants(gray: ImageBuffer) -> tuple[float, ...]:
    """phi1..phi6 from float64 complex moments."""
    c = _moments(gray)
    c11 = c(1, 1)
    c21 = c(2, 1)
    c12 = c(1, 2)
    c20 = c(2, 0)
    c30 = c(3, 0)
    pair3 = c20 * c12 * c12
    pair5 = c30 * c12 * c12 * c12
    return (c11.real, (c21 * c12).real, pair3.real, pair3.imag, pair5.real, pair5.imag)


def oracle_float_key(gray: ImageBuffer) -> str:
    phi1, phi2, phi3, _, phi5, _ = oracle_float_invariants(gray)
    return quantize_key(phi1 + phi2 + phi3 + phi5)


def _gaussian_moment(mu: dict[tuple[int, int], Fraction], p: int, q: int) -> tuple[Fraction, Fraction]:
    """sum of z^p conj(z)^q f as (real, imag), expanding z = X + iY term by term."""
    re = im = Fraction(0)
    for i in range(p + 1):  # X^(p-i) (iY)^i from z^p
        for j in range(q + 1):  # X^(q-j) (-iY)^j from conj(z)^q
            power = i + 3 * j  # i^i * (-i)^j = i^(i + 3j)
            coef = comb(p, i) * comb(q, j) * mu[(p - i + q - j, i + j)]
            if power % 4 == 0:
                re += coef
            elif power % 4 == 1:
                im += coef
            elif power % 4 == 2:
                re -= coef
            else:
                im -= coef
    return re, im


def oracle_exact_invariants(gray: ImageBuffer) -> tuple[Fraction, ...]:
    """phi1..phi6 as exact rationals from per-pixel Python-int sums."""
    if gray.channels != 1:
        raise DataError("moments require a 1-channel image")
    raw = {(p, q): 0 for p in range(4) for q in range(4 - p)}
    for i, v in enumerate(gray.pixels):
        y, x = divmod(i, gray.width)
        for p, q in raw:
            raw[(p, q)] += x**p * y**q * v
    n = raw[(0, 0)]
    if n == 0:
        raise DataError("zero total intensity")
    xbar, ybar = Fraction(raw[(1, 0)], n), Fraction(raw[(0, 1)], n)
    mu = {
        (p, q): sum(
            comb(p, i) * comb(q, j) * (-xbar) ** (p - i) * (-ybar) ** (q - j) * raw[(i, j)]
            for i in range(p + 1)
            for j in range(q + 1)
        )
        for p, q in raw
    }
    # c_pq is normalized by n^((p+q)/2 + 1); each product below has an integer total power
    orders = ((1, 1), (2, 1), (1, 2), (2, 0), (3, 0))
    c11, c21, c12, c20, c30 = (_gaussian_moment(mu, p, q) for p, q in orders)

    def mul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    pair2 = mul(c21, c12)
    pair3 = mul(c20, mul(c12, c12))
    pair5 = mul(c30, mul(c12, mul(c12, c12)))
    return (
        c11[0] / n**2,
        pair2[0] / n**5,
        pair3[0] / n**7,
        pair3[1] / n**7,
        pair5[0] / n**10,
        pair5[1] / n**10,
    )


def oracle_exact_key(gray: ImageBuffer) -> str:
    phi1, phi2, phi3, _, phi5, _ = oracle_exact_invariants(gray)
    return quantize_key(float(phi1 + phi2 + phi3 + phi5))


@st.composite
def images(draw, channels=(1, 3), side=40) -> ImageBuffer:
    """Random images of 1 to ``side`` pixels a side, a third of them flat 0 or 255."""
    width = draw(st.integers(1, side))
    height = draw(st.integers(1, side))
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


@examples
@given(images(side=64))
def test_moments_key_matches_float_oracle(img):
    gray = to_grayscale(img)
    try:
        expected = oracle_float_key(gray)
    except DataError as exc:
        with pytest.raises(DataError, match=str(exc)):
            moments_fingerprint(gray)
    else:
        assert moments_fingerprint(gray).key == expected


@settings(max_examples=60, deadline=None)
@given(images(side=64))
def test_moments_match_exact_rational_oracle(img):
    gray = to_grayscale(img)
    try:
        exact = oracle_exact_invariants(gray)
    except DataError as exc:
        with pytest.raises(DataError, match=str(exc)):
            moment_invariants(gray)
    else:
        assert moment_invariants(gray).vector() == tuple(float(v) for v in exact)
        assert moments_fingerprint(gray).key == oracle_exact_key(gray)


@st.composite
def batches(draw) -> list[ImageBuffer]:
    """Up to 12 images over a few shapes, grayscale and RGB, some below the dhash
    grid, a third of them flat 0 (a black frame) or 255, in any order."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 24), st.integers(1, 24), st.sampled_from((1, 3))),
                           min_size=1, max_size=3))
    batch = []
    for _ in range(draw(st.integers(1, 12))):
        width, height, c = draw(st.sampled_from(shapes))
        size = width * height * c
        fill = draw(st.sampled_from((None, None, 0, 255)))
        pixels = draw(st.binary(min_size=size, max_size=size)) if fill is None else bytes([fill]) * size
        batch.append(ImageBuffer(width, height, c, pixels))
    return batch


@examples
@given(batches(), st.sampled_from(sorted(FINGERPRINTS)))
def test_stacked_fingerprints_match_per_image_oracle(batch, method):
    assert fingerprint_images(method, batch) == [oracle_fingerprint(method, img) for img in batch]
    shape = (batch[0].height, batch[0].width, batch[0].channels)
    group = [img for img in batch if (img.height, img.width, img.channels) == shape]
    planes = grayscale_stack(group)
    assert planes.dtype == np.uint8 and planes.shape == (len(group), *shape[:2])
    assert planes.tobytes() == b"".join(oracle_numpy_to_grayscale(img).pixels for img in group)
    assert [to_grayscale(img) for img in group] == [oracle_numpy_to_grayscale(img) for img in group]
    if shape[2] == 1:
        assert [dhash_or_error(img) for img in group] == [dhash_or_error(img, oracle_numpy_dhash) for img in group]
        assert [moments_or_error(img) for img in group] == [moments_or_error(img, oracle_raw_moments) for img in group]


def dhash_or_error(gray: ImageBuffer, fn=dhash) -> int | str:
    try:
        return fn(gray)
    except DataError as exc:
        return str(exc)


def moments_or_error(gray: ImageBuffer, raw=None) -> MomentInvariants | str:
    try:
        return moment_invariants(gray) if raw is None else _invariants(raw(gray))
    except DataError as exc:
        return str(exc)


@settings(max_examples=12, deadline=None)
@given(st.integers(9, 40), st.integers(8, 40), st.sampled_from((1, 3)), st.sampled_from((-1, 0, 1)),
       st.sampled_from(sorted(FINGERPRINTS)), st.integers(0, 2**32 - 1))
def test_groups_at_the_pixel_budget(width, height, channels, extra, method, seed):
    """A group one image short of a full chunk, exactly one, and one image over,
    with black frames among random ones; the images repeat in every chunk."""
    count = CHUNK_PIXELS // (width * height) + extra
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(count, height, width, channels), dtype=np.uint8)
    pixels[rng.integers(0, count, size=2)] = 0
    batch = [ImageBuffer(width, height, channels, frame.tobytes()) for frame in pixels]
    assert fingerprint_images(method, batch) == [oracle_fingerprint(method, img) for img in batch]


def test_thin_images_stack_on_python_ints():
    """20000x1 images exceed the int64 moment bound, so their stacked moments run
    on Python ints; three fit in one chunk, so five take two."""
    assert CHUNK_PIXELS // 20000 == 3
    rng = np.random.default_rng(5)
    batch = [ImageBuffer(20000, 1, 1, rng.integers(0, 256, 20000, dtype=np.uint8).tobytes()) for _ in range(3)]
    batch += [ImageBuffer(20000, 1, 1, bytes(20000)), ImageBuffer(20000, 1, 1, b"\xff" * 20000)]
    found = fingerprint_images("moments", batch)
    assert found == [oracle_fingerprint("moments", img) for img in batch]
    assert found[3] == "zero total intensity"
    assert [f.key for f in found[:3] + found[4:]] == [oracle_exact_key(img) for img in batch[:3] + batch[4:]]


# 3448 is the widest plane whose row moments take the float64 product, 3449 the narrowest past it
@pytest.mark.parametrize(
    "width, height",
    [(1, 20000), (20000, 1), (3448, 3), (3449, 3), (6000, 3)],
    ids=["tall", "thin", "float-bound", "past-float-bound", "wide"],
)
def test_raw_moments_are_exact_python_ints(width, height):
    """Tall: float64 row moments, then a column product too tall for int64, on Python ints.
    Thin: both products on Python ints. At and past the float64 bound: float64 and int64 rows;
    6000 wide, float64 row sums of these pixels would round."""
    assert 255 * phash._power_sums(3448)[3] < 2**53 <= 255 * phash._power_sums(3449)[3]
    rng = np.random.default_rng(width)
    batch = [ImageBuffer(width, height, 1, rng.integers(0, 256, width * height, dtype=np.uint8).tobytes()),
             ImageBuffer(width, height, 1, b"\xff" * (width * height))]
    got = phash._raw_moments(grayscale_stack(batch))
    assert got == [oracle_raw_moments(img) for img in batch]
    assert {type(m) for plane in got for row in plane for m in row} == {int}


def test_one_call_per_chunk(monkeypatch):
    calls = []
    kernel = FINGERPRINTS["dhash"]
    monkeypatch.setitem(FINGERPRINTS, "dhash", lambda planes: calls.append(planes.shape) or kernel(planes))
    per_chunk = CHUNK_PIXELS // (16 * 16)
    batch = [ImageBuffer(16, 16, 3, bytes([i % 256]) * 768) for i in range(per_chunk + 1)]
    batch.insert(1, ImageBuffer(8, 8, 1, bytes(64)))  # below the grid: the kernel refuses the whole stack
    batch.insert(2, ImageBuffer(20, 10, 1, bytes(200)))
    found = fingerprint_images("dhash", batch)
    assert calls == [(per_chunk, 16, 16), (1, 16, 16), (1, 8, 8), (1, 10, 20)]  # groups in first-seen order
    assert found[1] == "image 8x8 smaller than 9x8 grid"
    assert found == [oracle_fingerprint("dhash", img) for img in batch]


HEADER_PIECES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"0", b"7", b"42", b"x", b"\xff", b"\x00"]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(st.binary(max_size=24), st.lists(st.sampled_from(HEADER_PIECES), max_size=16).map(b"".join)),
    st.integers(0, 26),
)
# digits inside a comment are no token, whatever follows the comment
@example(b" #1\nx", 0)
@example(b"#12", 0)
@example(b"# 3\r 4", 0)
def test_header_token_matches_oracle(data, pos):
    try:
        want = oracle_read_header_token(data, pos)
    except DataError:
        with pytest.raises(DataError, match="^malformed PNM header$"):
            _read_header_token(data, pos)
    else:
        assert _read_header_token(data, pos) == want
