"""Exception types shared across the package."""


class ShorSimError(Exception):
    """Base class for all package-specific errors."""


class NotCoprimeError(ShorSimError, ValueError):
    """gcd(x, n) != 1; carries the common factor, which already splits n."""

    def __init__(self, x: int, n: int, common_factor: int):
        self.x = x
        self.n = n
        self.common_factor = common_factor
        super().__init__(f"gcd({x}, {n}) = {common_factor} != 1")


class InvalidOrderError(ShorSimError, ValueError):
    """A claimed order r does not satisfy x^r = 1 (mod n)."""


class RangeError(ShorSimError, ValueError):
    """An index or register value outside its declared range."""


class CapacityError(ShorSimError):
    """A register layout or dense allocation exceeds the configured qubit cap."""


class StageOrderError(ShorSimError):
    """A pipeline stage was applied to a state violating its precondition."""


class ConsumedStateError(StageOrderError):
    """A state was read after measuring it consumed its storage."""


class NormalizationError(ShorSimError):
    """A state or distribution is not normalized within tolerance."""


class ConditioningError(ShorSimError, ValueError):
    """Conditioning on an event of zero probability."""


class UnsuitableInputError(ShorSimError, ValueError):
    """An integer rejected by the factoring driver; carries the reason."""

    def __init__(self, n: int, reason: str):
        self.n = n
        self.reason = reason
        super().__init__(f"unsuitable input n={n}: {reason}")
