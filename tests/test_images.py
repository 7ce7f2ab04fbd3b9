from __future__ import annotations

import copy
import pickle
import weakref

import pytest

from cascadekit.errors import DataError
from cascadekit.images import (
    TRANSFORMS,
    ImageBuffer,
    load_image_pnm,
    mirror_horizontal,
    mirror_vertical,
    rotate90,
    rotate180,
    rotate270,
    to_grayscale,
    write_image_pnm,
)
from cascadekit.synthetic import synthetic_image


class TestImageBuffer:
    def test_pixel_count_validated(self):
        with pytest.raises(DataError, match="pixel count"):
            ImageBuffer(2, 2, 1, b"\x00" * 3)

    def test_channels_validated(self):
        with pytest.raises(DataError, match="channels"):
            ImageBuffer(1, 1, 2, b"\x00\x00")

    def test_dimensions_validated(self):
        with pytest.raises(DataError, match="dimensions"):
            ImageBuffer(0, 1, 1, b"")

    def test_bytes_like_pixels_are_stored_as_bytes(self):
        img = synthetic_image(4, 3, seed=3, channels=3)
        for pixels in (bytearray(img.pixels), memoryview(img.pixels)):
            copy = ImageBuffer(4, 3, 3, pixels)
            assert type(copy.pixels) is bytes
            assert copy == img and hash(copy) == hash(img)
            assert to_grayscale(copy) == to_grayscale(img)
        assert ImageBuffer(4, 3, 3, img.pixels).pixels is img.pixels  # bytes are kept, not copied

    def test_non_buffer_pixels_still_rejected(self):
        with pytest.raises(TypeError):
            ImageBuffer(2, 2, 1, 4)

    def test_weakly_referenced_frozen_and_copied_by_value(self):
        img = ImageBuffer(4, 3, 1, bytes(range(12)))
        assert img != ImageBuffer(3, 4, 1, img.pixels) and img != (4, 3, 1, img.pixels)
        assert weakref.ref(img)() is img  # the engine's fingerprint memo holds images weakly
        for name in ("width", "pixels", "other"):
            with pytest.raises(AttributeError):
                setattr(img, name, 1)
            with pytest.raises(AttributeError):
                delattr(img, name)
        assert (img.width, img.height, img.channels, img.pixels) == (4, 3, 1, bytes(range(12)))
        for twin in (copy.copy(img), copy.deepcopy(img), pickle.loads(pickle.dumps(img))):
            assert twin == img and hash(twin) == hash(img) and twin is not img


class TestPnm:
    def test_p5_round_trip(self):
        img = synthetic_image(5, 4, seed=1)
        again = load_image_pnm(write_image_pnm(img))
        assert again == img

    def test_p6_round_trip(self):
        img = synthetic_image(3, 3, seed=2, channels=3)
        again = load_image_pnm(write_image_pnm(img))
        assert again == img
        assert again.channels == 3

    def test_header_comments_and_whitespace(self):
        data = b"P5 # comment\n# another\n 2\t2 \n255\n" + bytes(4)
        img = load_image_pnm(data)
        assert (img.width, img.height) == (2, 2)

    def test_bad_magic(self):
        with pytest.raises(DataError, match="unsupported PNM magic"):
            load_image_pnm(b"P4\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(DataError, match="unsupported maxval 65535"):
            load_image_pnm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(DataError, match="truncated payload"):
            load_image_pnm(b"P5\n2 2\n255\n\x00\x00\x00")

    def test_trailing_data(self):
        with pytest.raises(DataError, match="trailing data"):
            load_image_pnm(b"P5\n1 1\n255\n\x00\x00")

    @pytest.mark.parametrize("field", [0, 2], ids=["width", "maxval"])
    def test_header_number_beyond_int_parsing(self, field):
        # more digits than int() converts from a string by default: an error, not a ValueError
        numbers = [b"4", b"4", b"255"]
        numbers[field] = b"9" * 5000
        with pytest.raises(DataError, match="^malformed PNM header$"):
            load_image_pnm(b"P5 " + b" ".join(numbers) + b"\n" + bytes(16))

    def test_missing_header_token(self):
        with pytest.raises(DataError, match="malformed PNM header"):
            load_image_pnm(b"P5\n2\n255\n")


class TestGrayscale:
    def test_weights_with_half_up_rounding(self):
        img = ImageBuffer(3, 1, 3, bytes([255, 0, 0, 0, 255, 0, 0, 0, 255]))
        gray = to_grayscale(img)
        # (299*255+500)//1000, (587*255+500)//1000, (114*255+500)//1000
        assert list(gray.pixels) == [76, 150, 29]

    def test_white_stays_white(self):
        img = ImageBuffer(1, 1, 3, bytes([255, 255, 255]))
        assert to_grayscale(img).pixels == b"\xff"

    def test_identity_for_grayscale(self):
        img = synthetic_image(4, 4, seed=3)
        assert to_grayscale(img) is img


class TestTransforms:
    def test_rotate90_known_grid(self):
        # 2x3: rows (0 1), (2 3), (4 5) -> clockwise 3x2: (4 2 0), (5 3 1)
        img = ImageBuffer(2, 3, 1, bytes([0, 1, 2, 3, 4, 5]))
        out = rotate90(img)
        assert (out.width, out.height) == (3, 2)
        assert list(out.pixels) == [4, 2, 0, 5, 3, 1]

    def test_four_rotations_identity(self):
        img = synthetic_image(7, 5, seed=4, channels=3)
        assert rotate90(rotate90(rotate90(rotate90(img)))) == img

    def test_rotate180_and_270_consistent(self):
        img = synthetic_image(6, 4, seed=5)
        assert rotate180(img) == rotate90(rotate90(img))
        assert rotate270(img) == rotate90(rotate180(img))
        assert rotate90(rotate270(img)) == img

    def test_mirror_horizontal_reverses_rows(self):
        img = ImageBuffer(3, 1, 1, bytes([1, 2, 3]))
        assert list(mirror_horizontal(img).pixels) == [3, 2, 1]

    def test_mirror_vertical_reverses_columns(self):
        img = ImageBuffer(1, 3, 1, bytes([1, 2, 3]))
        assert list(mirror_vertical(img).pixels) == [3, 2, 1]

    def test_mirrors_are_involutions(self):
        img = synthetic_image(5, 6, seed=6, channels=3)
        assert mirror_horizontal(mirror_horizontal(img)) == img
        assert mirror_vertical(mirror_vertical(img)) == img

    def test_transform_table(self):
        assert set(TRANSFORMS) == {"identity", "rot90", "rot180", "mirror_h", "mirror_v"}
        img = synthetic_image(4, 4, seed=7)
        assert TRANSFORMS["identity"](img) is img
