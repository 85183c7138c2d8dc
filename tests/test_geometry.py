import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guiflux.geometry import BBox, center, check_boxes, contains, iou
from guiflux.rewards import to_gaussian

from conftest import random_bbox


class TestBBox:
    def test_valid_box(self):
        b = BBox(0.1, 0.2, 0.3, 0.4)
        x1, y1, x2, y2 = b
        assert (x1, y1, x2, y2) == (0.1, 0.2, 0.3, 0.4)
        assert x2 - x1 == pytest.approx(0.2)
        assert y2 - y1 == pytest.approx(0.2)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            BBox(0.5, 0.0, 0.4, 1.0)
        with pytest.raises(ValueError):
            BBox(0.0, 0.5, 1.0, 0.4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BBox(-0.1, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            BBox(0.0, 0.0, 1.5, 0.5)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            for corner in range(4):
                coords = [0.1, 0.1, 0.9, 0.9]
                coords[corner] = bad
                with pytest.raises(ValueError):
                    BBox(*coords)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(),  # includes nan, +-inf and -0.0
            st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), -5e-324]),
            st.floats(0.0, 1.0),
        ),
        min_size=4, max_size=4,
    ))
    def test_accepts_exactly_what_check_boxes_accepts(self, row):
        try:
            check_boxes(np.array([row]))
            valid = True
        except ValueError:
            valid = False
        try:
            BBox(*row)
            built = True
        except ValueError:
            built = False
        assert built == valid

    def test_degenerate_allowed(self):
        b = BBox(0.2, 0.2, 0.2, 0.2)
        assert (b.x2 - b.x1) * (b.y2 - b.y1) == 0.0


class TestCenter:
    def test_full_screen(self):
        assert center(BBox(0, 0, 1, 1)) == (0.5, 0.5)

    def test_point_box(self):
        assert center(BBox(0.2, 0.2, 0.2, 0.2)) == (0.2, 0.2)

    def test_midpoint_formula(self):
        x, y = center(BBox(0.1, 0.3, 0.5, 0.7))
        assert x == pytest.approx(0.3, abs=1e-15)
        assert y == pytest.approx(0.5, abs=1e-15)

    def test_translation_equivariance(self, rng):
        for _ in range(100):
            b = BBox(0.1, 0.2, 0.4, 0.5)
            tx, ty = rng.uniform(-0.1, 0.5, 2)
            shifted = BBox(b.x1 + tx, b.y1 + ty, b.x2 + tx, b.y2 + ty)
            (x0, y0), (x1, y1) = center(b), center(shifted)
            assert x1 == pytest.approx(x0 + tx, abs=1e-12)
            assert y1 == pytest.approx(y0 + ty, abs=1e-12)


class TestToGaussian:
    # rewards.KAPPA is 1.0 and rewards.EPS_MIN 1e-8: var = side^2, floored
    def test_unit_box(self):
        mx, my, vx, vy = to_gaussian(BBox(0, 0, 1, 1))
        assert (mx, my) == (0.5, 0.5)
        assert (vx, vy) == (1.0, 1.0)

    def test_zero_area_floored(self):
        g = to_gaussian(BBox(0.4, 0.4, 0.4, 0.4))
        assert g[2:] == (1e-8, 1e-8)

    def test_rectangular(self):
        _, _, vx, vy = to_gaussian(BBox(0, 0, 0.8, 0.4))
        assert vx == pytest.approx(0.64, rel=1e-12)
        assert vy == pytest.approx(0.16, rel=1e-12)

    def test_mean_equals_center(self, rng):
        for _ in range(50):
            b = random_bbox(rng)
            assert to_gaussian(b)[:2] == center(b)


class TestIoU:
    def test_identical(self):
        b = BBox(0.1, 0.1, 0.6, 0.6)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 0.1, 0.1), BBox(0.5, 0.5, 0.6, 0.6)) == 0.0

    def test_half_overlap(self):
        assert iou(BBox(0, 0, 0.5, 0.5), BBox(0.25, 0, 0.75, 0.5)) == pytest.approx(1 / 3, abs=1e-12)

    def test_both_degenerate(self):
        assert iou(BBox(0.2, 0.2, 0.2, 0.2), BBox(0.2, 0.2, 0.2, 0.2)) == 0.0

    def test_symmetric_and_bounded(self, rng):
        for _ in range(200):
            a, b = random_bbox(rng), random_bbox(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_one_iff_identical_for_positive_area(self, rng):
        for _ in range(100):
            a = random_bbox(rng)
            if (a.x2 - a.x1) * (a.y2 - a.y1) == 0.0:
                continue
            b = random_bbox(rng)
            if iou(a, b) == 1.0:
                assert a == b


class TestContains:
    def test_interior(self):
        assert contains(BBox(0, 0, 1, 1), 0.5, 0.5)

    def test_boundary_inclusive(self):
        assert contains(BBox(0, 0, 0.5, 0.5), 0.5, 0.5)

    def test_outside(self):
        assert not contains(BBox(0, 0, 0.5, 0.5), 0.6, 0.2)

    def test_center_always_inside(self, rng):
        for _ in range(100):
            b = random_bbox(rng)
            assert contains(b, *center(b))
