"""Shared exception types."""


class BudgetExceeded(ValueError):
    """An exhaustive scan or enumeration would exceed the configured budget.

    Raised instead of silently sampling: callers asked for an exact answer.
    """


class InstanceFormatError(ValueError):
    """An instance file is malformed, has an unknown version, or is inconsistent."""


class ConfigError(ValueError):
    """An experiment configuration is invalid (unknown keys, bad references)."""


def stated_size(base: int, exp: int, limit: int, factor: int = 1) -> str | None:
    """factor * base^exp as a budget refusal states it, None within `limit`.
    A size of more than twice the limit's bits is decided from the exponent,
    never built, and stated as a power: CPython prints no int of over 4300
    digits."""
    if (base.bit_length() - 1) * exp + factor.bit_length() - 1 > 2 * limit.bit_length():
        return f"{base}^{exp}" if factor == 1 else f"{factor} * {base}^{exp}"
    size = factor * base**exp
    return str(size) if size > limit else None
