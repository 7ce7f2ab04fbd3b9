from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings

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
from cascadekit.phash import (
    Fingerprint,
    MemoStore,
    dhash,
    dhash_fingerprint,
    moment_invariants,
    moments_fingerprint,
    quantize_key,
)
from cascadekit.synthetic import synthetic_image

from test_pixel_oracles import images, oracle_complex_moment, oracle_exact_key


def _gray(width: int, height: int, values) -> ImageBuffer:
    return ImageBuffer(width, height, 1, bytes(values))


def _dhash_oracle(img: ImageBuffer) -> int:
    """Mean comparison with exact rationals instead of cross-multiplication."""
    cols = [k * img.width // 9 for k in range(10)]
    rows = [k * img.height // 8 for k in range(9)]
    word = 0
    for r in range(8):
        means = []
        for c in range(9):
            total = 0
            count = 0
            for y in range(rows[r], rows[r + 1]):
                for x in range(cols[c], cols[c + 1]):
                    total += img.pixels[y * img.width + x]
                    count += 1
            means.append(Fraction(total, count))
        for c in range(8):
            word = (word << 1) | (1 if means[c] > means[c + 1] else 0)
    return word


class TestDhash:
    def test_constant_image_is_zero(self):
        assert dhash(_gray(9, 8, [200] * 72)) == 0
        assert dhash(_gray(40, 30, [7] * 1200)) == 0

    def test_rising_gradient_is_zero(self):
        values = [x * 14 for _ in range(8) for x in range(18)]
        assert dhash(_gray(18, 8, values)) == 0

    def test_falling_gradient_is_all_ones(self):
        values = [238 - x * 14 for _ in range(8) for x in range(18)]
        assert dhash(_gray(18, 8, values)) == (1 << 64) - 1

    def test_first_bit_is_most_significant(self):
        values = [0] * 72
        values[0] = 255
        assert dhash(_gray(9, 8, values)) == 1 << 63

    def test_matches_rational_mean_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            w = rng.randrange(9, 40)
            h = rng.randrange(8, 32)
            img = _gray(w, h, [rng.randrange(256) for _ in range(w * h)])
            assert dhash(img) == _dhash_oracle(img)

    def test_deterministic_through_pnm_round_trip(self):
        img = synthetic_image(33, 21, seed=11)
        word = dhash(img)
        assert dhash(img) == word
        assert dhash(load_image_pnm(write_image_pnm(img))) == word

    def test_fingerprint_key_format(self):
        fp = dhash_fingerprint(_gray(9, 8, [0] * 72))
        assert fp == Fingerprint("dhash", "0000000000000000")
        fp = dhash_fingerprint(synthetic_image(16, 16, seed=5))
        assert len(fp.key) == 16
        assert fp.key == format(dhash(synthetic_image(16, 16, seed=5)), "016x")

    def test_too_small(self):
        with pytest.raises(DataError, match="smaller than"):
            dhash(_gray(8, 8, [0] * 64))
        with pytest.raises(DataError, match="smaller than"):
            dhash(_gray(9, 7, [0] * 63))

    def test_requires_grayscale(self):
        rgb = ImageBuffer(9, 8, 3, bytes(9 * 8 * 3))
        with pytest.raises(DataError, match="1-channel"):
            dhash(rgb)


class TestComplexMoment:
    """The float complex-moment oracle the exact moment path is checked against."""

    def test_order_limits(self):
        img = synthetic_image(8, 8, seed=1)
        for p, q in ((-1, 0), (0, -1), (2, 2), (4, 0)):
            with pytest.raises(DataError, match="order"):
                oracle_complex_moment(img, p, q)

    def test_single_pixel(self):
        img = _gray(1, 1, [7])
        assert oracle_complex_moment(img, 0, 0) == 1.0
        assert oracle_complex_moment(img, 1, 0) == 0.0
        assert oracle_complex_moment(img, 1, 1) == 0.0
        assert oracle_complex_moment(img, 3, 0) == 0.0

    def test_first_moments_vanish_at_centroid(self):
        img = synthetic_image(24, 17, seed=9)
        assert abs(oracle_complex_moment(img, 1, 0)) < 1e-9
        assert abs(oracle_complex_moment(img, 0, 1)) < 1e-9

    def test_conjugate_symmetry(self):
        img = synthetic_image(19, 23, seed=4)
        for p, q in ((1, 0), (2, 0), (2, 1), (3, 0)):
            assert oracle_complex_moment(img, q, p) == oracle_complex_moment(img, p, q).conjugate()

    def test_zero_intensity(self):
        with pytest.raises(DataError, match="zero total intensity"):
            oracle_complex_moment(_gray(4, 4, [0] * 16), 1, 1)

    def test_requires_grayscale(self):
        rgb = ImageBuffer(4, 4, 3, bytes(48))
        with pytest.raises(DataError, match="1-channel"):
            oracle_complex_moment(rgb, 1, 1)


class TestMomentInvariants:
    def test_vector_matches_fields(self):
        inv = moment_invariants(synthetic_image(12, 12, seed=2))
        assert inv.vector() == (
            inv.phi1, inv.phi2, inv.phi3, inv.phi4, inv.phi5, inv.phi6
        )

    def test_rotations_preserve_all_features(self):
        for seed in range(6):
            img = synthetic_image(16 + seed, 20 - seed, seed=seed)
            base = moment_invariants(img).vector()
            for rotate in (rotate90, rotate180, rotate270):
                assert moment_invariants(rotate(img)).vector() == base

    def test_mirrors_flip_the_odd_features(self):
        img = synthetic_image(18, 14, seed=8)
        base = moment_invariants(img)
        for mirror in (mirror_horizontal, mirror_vertical):
            inv = moment_invariants(mirror(img))
            assert (inv.phi1, inv.phi2, inv.phi3, inv.phi5) == (
                base.phi1, base.phi2, base.phi3, base.phi5
            )
            assert (inv.phi4, inv.phi6) == (-base.phi4, -base.phi6)

    @settings(max_examples=100, deadline=None)
    @given(images(side=64))
    def test_exact_invariance_under_every_transform(self, img):
        gray = to_grayscale(img)
        if not any(gray.pixels):
            return
        base = moment_invariants(gray)
        key = moments_fingerprint(gray).key
        mirrors = (TRANSFORMS["mirror_h"], TRANSFORMS["mirror_v"])
        for transform in (*TRANSFORMS.values(), rotate270):
            turned = transform(gray)
            assert moments_fingerprint(turned).key == key
            inv = moment_invariants(turned)
            assert (inv.phi1, inv.phi2, inv.phi3, inv.phi5) == (
                base.phi1, base.phi2, base.phi3, base.phi5
            )
            sign = -1.0 if transform in mirrors else 1.0
            assert (inv.phi4, inv.phi6) == (sign * base.phi4, sign * base.phi6)

    def test_nonnegative_quadratics(self):
        for seed in range(10):
            inv = moment_invariants(synthetic_image(15, 15, seed=seed))
            assert inv.phi1 >= 0.0
            assert inv.phi2 >= 0.0

    def test_point_mass_has_zero_features(self):
        values = [0] * 9
        values[4] = 255
        inv = moment_invariants(_gray(3, 3, values))
        assert inv.vector() == (0.0,) * 6


class TestQuantizeKey:
    def test_zero_and_negative_zero(self):
        assert quantize_key(0.0) == "0"
        assert quantize_key(-0.0) == "0"

    def test_nine_significant_digits(self):
        assert quantize_key(1 / 3) == "0.333333333"
        assert quantize_key(-1 / 3) == "-0.333333333"
        assert quantize_key(123456789012.0) == "1.23456789e+11"
        assert quantize_key(2.5e-13) == "2.5e-13"

    def test_absorbs_trailing_noise(self):
        assert quantize_key(0.1234567891) == quantize_key(0.1234567892)


class TestMomentsFingerprint:
    def test_method_and_zero_key(self):
        values = [0] * 9
        values[4] = 10
        fp = moments_fingerprint(_gray(3, 3, values))
        assert fp == Fingerprint("moments", "0")

    def test_invariant_under_rotations_and_mirrors(self):
        for seed in range(25):
            img = synthetic_image(16, 16, seed=100 + seed)
            key = moments_fingerprint(img).key
            for transform in (
                rotate90, rotate180, rotate270, mirror_horizontal, mirror_vertical
            ):
                assert moments_fingerprint(transform(img)).key == key

    def test_distinct_images_get_distinct_keys(self):
        keys = {
            moments_fingerprint(synthetic_image(32, 32, seed=seed)).key
            for seed in range(60)
        }
        assert len(keys) == 60

    def test_zero_intensity(self):
        with pytest.raises(DataError, match="zero total intensity"):
            moments_fingerprint(_gray(5, 5, [0] * 25))

    @pytest.mark.parametrize("width, height", [(224, 224), (40000, 2)])
    def test_blank_frame(self, width, height):
        blank = to_grayscale(ImageBuffer(width, height, 3, bytes(width * height * 3)))
        for fn in (moments_fingerprint, moment_invariants):
            with pytest.raises(DataError, match="^zero total intensity$"):
                fn(blank)

    @pytest.mark.parametrize("width, height", [(40000, 2), (2, 40000)])
    def test_thin_image_past_the_int64_bound(self, width, height):
        # an all-white 40000x2 image has m30 = 3.26e20; int64 would wrap it
        rng = random.Random(width)
        img = _gray(width, height, [rng.choice((0, 255, rng.randrange(256))) for _ in range(width * height)])
        assert moments_fingerprint(img).key == oracle_exact_key(img)
        white = _gray(width, height, [255] * (width * height))
        assert moments_fingerprint(white).key == oracle_exact_key(white)


def _fp(i: int) -> Fingerprint:
    return Fingerprint("dhash", format(i, "016x"))


class TestMemoStore:
    def test_insert_and_lookup(self):
        store = MemoStore()
        assert store.lookup(_fp(1)) is None
        store.insert(_fp(1), 4)
        assert store.lookup(_fp(1)) == 4
        assert len(store) == 1

    def test_insert_overwrites(self):
        store = MemoStore()
        store.insert(_fp(1), 4)
        store.insert(_fp(1), 9)
        assert store.lookup(_fp(1)) == 9
        assert len(store) == 1

    def test_unbounded_by_default(self):
        store = MemoStore()
        for i in range(1000):
            store.insert(_fp(i), i % 10)
        assert len(store) == 1000

    def test_methods_do_not_share_keys(self):
        store = MemoStore()
        store.insert(Fingerprint("dhash", "0"), 3)
        assert store.lookup(Fingerprint("moments", "0")) is None
        store.insert(Fingerprint("moments", "0"), 5)
        assert store.lookup(Fingerprint("dhash", "0")) == 3
        assert len(store) == 2

    def test_concurrent_use_keeps_every_key(self):
        store = MemoStore()
        inserted = [set() for _ in range(4)]

        def hammer(offset: int) -> None:
            rng = random.Random(offset)
            for _ in range(500):
                i = rng.randrange(200)
                store.insert(_fp(i), i % 10)
                inserted[offset].add(i)
                store.lookup(_fp(rng.randrange(200)))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer, range(4)))
        keys = set().union(*inserted)
        assert len(store) == len(keys)
        assert all(store.lookup(_fp(i)) == i % 10 for i in keys)
