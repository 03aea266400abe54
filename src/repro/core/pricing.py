"""The price model of Definition 3.

For a request ``R = <s, d, n, w, epsilon>`` inserted into a vehicle whose
current trip schedule is ``tr_i``, producing the new schedule ``tr_j``, the
price is

    price = f_n * (dist(tr_j) - dist(tr_i) + dist(s, d))

i.e. the rider pays for the extra distance the vehicle drives because of them
*plus* their own direct trip distance, scaled by a ratio ``f_n`` that grows
with the group size ``n``.  The paper uses ``f_n = 0.3 + (n - 1) * 0.1``.

The website interface of the demonstration lets an administrator change "the
price calculator function"; :class:`LinearPriceModel` therefore exposes the
base ratio, the per-rider increment and an optional flat booking fee, and the
matchers accept any object implementing the :class:`PriceModel` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError

__all__ = ["rider_price_ratio", "PriceModel", "LinearPriceModel"]

#: Base fare ratio for a single rider (the paper's 0.3).
DEFAULT_BASE_RATIO = 0.3
#: Ratio increment per additional rider in the group (the paper's 0.1).
DEFAULT_RIDER_INCREMENT = 0.1


def rider_price_ratio(
    riders: int,
    base_ratio: float = DEFAULT_BASE_RATIO,
    rider_increment: float = DEFAULT_RIDER_INCREMENT,
) -> float:
    """Return ``f_n = base_ratio + (n - 1) * rider_increment``.

    Raises:
        ConfigurationError: for a non-positive rider count or negative ratios.
    """
    if riders < 1:
        raise ConfigurationError(f"riders must be >= 1, got {riders}")
    if base_ratio < 0 or rider_increment < 0:
        raise ConfigurationError("price ratios must be non-negative")
    return base_ratio + (riders - 1) * rider_increment


@runtime_checkable
class PriceModel(Protocol):
    """Anything able to price a candidate insertion.

    Implementations must be pure functions of their arguments so matchers can
    call them while exploring candidate schedules.
    """

    def price(self, riders: int, added_distance: float, direct_distance: float) -> float:
        """Return the price of an option.

        Args:
            riders: the group size ``n``.
            added_distance: ``dist(tr_j) - dist(tr_i)``, the extra distance
                the vehicle drives because of the request.
            direct_distance: ``dist(s, d)``, the request's shortest-path
                distance.
        """
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class LinearPriceModel:
    """The paper's price model with configurable coefficients.

    Attributes:
        base_ratio: ratio applied to a single rider (paper: 0.3).
        rider_increment: ratio increment per extra rider (paper: 0.1).
        booking_fee: flat fee added to every option (paper: 0); exposed
            because the demo lets the administrator change the price
            calculator.
    """

    base_ratio: float = DEFAULT_BASE_RATIO
    rider_increment: float = DEFAULT_RIDER_INCREMENT
    booking_fee: float = 0.0

    def __post_init__(self) -> None:
        if self.base_ratio < 0 or self.rider_increment < 0 or self.booking_fee < 0:
            raise ConfigurationError("price model coefficients must be non-negative")

    def ratio(self, riders: int) -> float:
        """Return ``f_n`` for a group of ``riders``."""
        return rider_price_ratio(riders, self.base_ratio, self.rider_increment)

    def price(self, riders: int, added_distance: float, direct_distance: float) -> float:
        """Price an option per Definition 3 (plus the optional booking fee).

        Raises:
            ConfigurationError: for negative distances.
        """
        if added_distance < -1e-9:
            raise ConfigurationError(f"added_distance must be non-negative, got {added_distance}")
        if direct_distance < 0:
            raise ConfigurationError(f"direct_distance must be non-negative, got {direct_distance}")
        added = max(0.0, added_distance)
        return self.booking_fee + self.ratio(riders) * (added + direct_distance)
