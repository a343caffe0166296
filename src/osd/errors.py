"""Exception types shared across the package, and the checks that raise them.

The CLI maps ConfigError to exit code 2 and DataError to exit code 3.  Every entry
point checks a count or seed with _integer, a real with _real and a name with _choice.
"""

from numbers import Integral, Real


class ConfigError(ValueError):
    """Invalid parameter or conflicting run configuration."""


class DataError(ValueError):
    """Malformed or unusable input data."""


def _integer(name: str, value: object, low: int, high: int | None = None) -> int:
    """value as a plain int; ConfigError unless it is an integer, not a bool, in [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not low <= value <= (value if high is None else high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def _real(name: str, value: object) -> float:
    """value as a plain float; ConfigError for a bool, a non-real or one past the float range."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is beyond the float range") from None


def _choice(name: str, value: object, choices: tuple[str, ...] | dict[str, object]) -> object:
    """value if it is one of choices; ConfigError for any other value."""
    if value not in tuple(choices):  # a tuple, so an unhashable value is refused too
        raise ConfigError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value
