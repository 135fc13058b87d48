"""Shared exception types."""

from math import log2


class BudgetExceeded(ValueError):
    """An exhaustive scan or enumeration would exceed the configured budget.

    Raised instead of silently sampling: callers asked for an exact answer.
    """


class InstanceFormatError(ValueError):
    """An instance file is malformed, has an unknown version, or is inconsistent."""


class ConfigError(ValueError):
    """An experiment configuration is invalid (unknown keys, bad references)."""


def spelled(n: int) -> str:
    """n > 0 in decimal or, past 14000 bits (4215 digits; CPython prints no
    int of over 4300), unconverted, as (about 2^e)."""
    return str(n) if n.bit_length() <= 14000 else f"(about 2^{round(log2(n))})"


def stated_size(base: int, exp: int, limit: int, factor: int = 1) -> str | None:
    """factor * base^exp as a budget refusal states it, None within `limit`.
    A size of more than twice the limit's bits is decided from the exponent,
    never built, and stated as a power of spelled numbers."""
    if (base.bit_length() - 1) * exp + factor.bit_length() - 1 > 2 * limit.bit_length():
        power = f"{spelled(base)}^{spelled(exp)}"
        return power if factor == 1 else f"{spelled(factor)} * {power}"
    size = factor * base**exp
    return str(size) if size > limit else None
