"""Float64 values that probe `'%.10g'` formatting, shared by the run-file
byte tests; Python's `%` is their reference."""

import math
from fractions import Fraction

import numpy as np

# signed zeros, infinities and a nan of each sign
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


def random_bits(n: int, seed: int) -> np.ndarray:
    """Seeded random float64 bit patterns: every exponent, both signs,
    subnormals, infinities and nan payloads."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(np.float64)


def ties(seed: int, per_exponent: int = 20) -> np.ndarray:
    """Values exactly halfway between two 10-digit decimals, 1 ulp either
    side of them, and their negatives.

    A value in [10**e, 10**(e+1)) with j = 10 - e binary places and an odd
    numerator has 11 significant digits, the last a 5; such values exist
    for e in [-5, 9]. Above that, integers (10k + 5) * 10**t with 11 + t
    digits are exact ties while they stay below 2**53.
    """
    rng = np.random.default_rng(seed)
    out = [1234567890.5, 123456789.25]
    for e in range(-5, 10):
        scale = 2 ** (10 - e)
        lo = math.ceil(Fraction(10) ** e * scale)
        hi = math.ceil(Fraction(10) ** (e + 1) * scale)  # numerators lie below
        odd = {int(m) | 1 for m in rng.integers(lo, hi, size=per_exponent)}
        out += [m / scale for m in sorted(odd) if m < hi]
    for t in range(5):
        k = rng.integers(10 ** 9, 10 ** 10, size=per_exponent)
        out += [float((10 * int(v) + 5) * 10 ** t) for v in k]
    values = np.array(out)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


def power_boundaries() -> np.ndarray:
    """Values that round across each power of ten (1e-4 and 1e10 among
    them): the power itself, 9.9999999995 and its neighbours below it,
    each 1 ulp either side, and their negatives."""
    out = []
    for k in range(-324, 309):
        for mantissa in ("1", "9.9999999995", "9.99999999949999", "9.99999999950001",
                         "9.999999999"):
            out.append(float(f"{mantissa}e{k}"))
    values = np.array(out)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])
