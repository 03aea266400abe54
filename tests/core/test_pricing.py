"""Unit tests for the price model (Definition 3)."""

from __future__ import annotations

import pytest

from repro.core.pricing import LinearPriceModel, PriceModel, rider_price_ratio
from repro.errors import ConfigurationError


class TestRiderPriceRatio:
    def test_paper_values(self):
        assert rider_price_ratio(1) == pytest.approx(0.3)
        assert rider_price_ratio(2) == pytest.approx(0.4)
        assert rider_price_ratio(3) == pytest.approx(0.5)
        assert rider_price_ratio(4) == pytest.approx(0.6)

    def test_custom_coefficients(self):
        assert rider_price_ratio(3, base_ratio=0.5, rider_increment=0.2) == pytest.approx(0.9)

    def test_invalid_riders(self):
        with pytest.raises(ConfigurationError):
            rider_price_ratio(0)

    def test_invalid_ratios(self):
        with pytest.raises(ConfigurationError):
            rider_price_ratio(1, base_ratio=-0.1)


class TestLinearPriceModel:
    def test_paper_example_c1(self):
        """f_2 * (3 + 7) = 4 for inserting R2 into c1's schedule."""
        model = LinearPriceModel()
        assert model.price(riders=2, added_distance=3.0, direct_distance=7.0) == pytest.approx(4.0)

    def test_paper_example_c2(self):
        """f_2 * (8 + 7 + 7) = 8.8 for the empty vehicle c2."""
        model = LinearPriceModel()
        assert model.price(riders=2, added_distance=15.0, direct_distance=7.0) == pytest.approx(8.8)

    def test_price_monotone_in_added_distance(self):
        model = LinearPriceModel()
        assert model.price(1, 5.0, 10.0) > model.price(1, 2.0, 10.0)

    def test_price_monotone_in_riders(self):
        model = LinearPriceModel()
        assert model.price(3, 5.0, 10.0) > model.price(1, 5.0, 10.0)

    def test_booking_fee(self):
        model = LinearPriceModel(booking_fee=2.0)
        assert model.price(1, 0.0, 10.0) == pytest.approx(2.0 + 3.0)

    def test_negative_added_distance_tolerates_rounding(self):
        model = LinearPriceModel()
        assert model.price(1, -1e-12, 10.0) == pytest.approx(3.0)

    def test_negative_added_distance_rejected(self):
        model = LinearPriceModel()
        with pytest.raises(ConfigurationError):
            model.price(1, -1.0, 10.0)

    def test_negative_direct_distance_rejected(self):
        model = LinearPriceModel()
        with pytest.raises(ConfigurationError):
            model.price(1, 1.0, -10.0)

    def test_invalid_coefficients(self):
        with pytest.raises(ConfigurationError):
            LinearPriceModel(base_ratio=-0.1)
        with pytest.raises(ConfigurationError):
            LinearPriceModel(booking_fee=-1.0)

    def test_conforms_to_protocol(self):
        assert isinstance(LinearPriceModel(), PriceModel)

    def test_ratio_method(self):
        assert LinearPriceModel(base_ratio=0.2, rider_increment=0.05).ratio(3) == pytest.approx(0.3)
