#!/usr/bin/env python3
"""Check that the planner's numpy hypot is correctly rounded.

Draws ``--n`` input pairs, spread evenly over the range classes below, runs
``uavhitch.planner._hypot`` on each class in one call, and checks every
result h against an exact oracle in ``Fraction`` arithmetic: sqrt(a^2 + b^2)
rounds to h exactly when a^2 + b^2 lies between the squares of the
midpoints from h to its neighbouring floats, with a tie going to the even
significand. An infinite input must give inf, and otherwise a NaN input NaN.

Prints one line per class and exits 1 if any result is misrounded, naming
the first few inputs at fault.

    PYTHONPATH=src python3 scripts/check_hypot.py --n 1000000 --seed 1
"""

import argparse
import math
import sys
from fractions import Fraction

import numpy as np

from uavhitch.planner import _hypot

# The midpoint between the largest float and 2**1024: a root at or above it
# rounds to inf.
OVERFLOW_MIDPOINT = Fraction(2**1024 - 2**970)


def signed(rng, magnitude):
    return np.where(rng.random(magnitude.size) < 0.5, -magnitude, magnitude)


def scaled(rng, n, low, high):
    """Significands in [1, 2) times 2**k, k drawn from [low, high]."""
    return np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(low, high + 1, n))


def ordinary(rng, n):
    """The planner's range: both coordinates in [-1000, 1000]."""
    return rng.uniform(-1000.0, 1000.0, n), rng.uniform(-1000.0, 1000.0, n)


def mixed_exponents(rng, n):
    """Exponents across the normal range, the second 0-80 binades below
    the first on half the pairs (where its square still counts, or just
    stops counting) and independent of it on the other half."""
    k = rng.integers(-1000, 1001, n)
    gap = np.where(rng.random(n) < 0.5, rng.integers(0, 81, n), k - rng.integers(-1022, 1024, n))
    a = np.ldexp(rng.uniform(1.0, 2.0, n), k)
    b = np.ldexp(rng.uniform(1.0, 2.0, n), k - gap)
    return signed(rng, a), signed(rng, b)


def subnormal(rng, n):
    """Both subnormal, or one subnormal and one near the smallest normal."""
    a = rng.integers(0, 2**52, n) * 2.0**-1074
    b = np.where(
        rng.random(n) < 0.5, rng.integers(0, 2**52, n) * 2.0**-1074, scaled(rng, n, -1022, -1020)
    )
    return signed(rng, a), signed(rng, b)


def near_overflow(rng, n):
    """Magnitudes in the top binades, where a^2 + b^2 overflows and the
    root may round past the largest float."""
    return signed(rng, scaled(rng, n, 1018, 1023)), signed(rng, scaled(rng, n, 990, 1023))


def zeros(rng, n):
    """+0 or -0 against another zero, an ordinary value or a mixed one."""
    other = np.where(rng.random(n) < 0.2, 0.0, scaled(rng, n, -1074, 1023))
    return signed(rng, np.zeros(n)), signed(rng, other)


def non_finite(rng, n):
    """inf, -inf or NaN against each other or any float."""
    special = np.array([math.inf, -math.inf, math.nan])
    a = special[rng.integers(0, 3, n)]
    b = np.where(rng.random(n) < 0.3, special[rng.integers(0, 3, n)], scaled(rng, n, -1074, 1023))
    return signed(rng, a), signed(rng, b)


# With p^2 in [0.85, 0.95] * 2**53 and q^2 in [0.1, 0.2] * 2**53, both legs
# of the triple (p^2 - q^2, 2pq, p^2 + q^2) stay below 2**53.
P_RANGE = (math.isqrt(int(0.85 * 2**53)), math.isqrt(int(0.95 * 2**53)))
Q_RANGE = (math.isqrt(int(0.10 * 2**53)), math.isqrt(int(0.20 * 2**53)))


def midpoints(rng, n):
    """Exact ties: a = p^2 - q^2 and b = 2pq are floats while their
    hypotenuse p^2 + q^2 is odd with 54 bits, so it lies halfway between
    two floats; scaled by 2**k."""
    a, b = np.empty(n), np.empty(n)
    for i in range(n):
        while True:
            p, q = int(rng.integers(*P_RANGE)), int(rng.integers(*Q_RANGE))
            legs, c = (p * p - q * q, 2 * p * q), p * p + q * q
            if (p - q) % 2 and math.gcd(p, q) == 1 and c.bit_length() == 54 and max(legs) < 2**53:
                break
        k = int(rng.integers(-900, 900))
        a[i], b[i] = math.ldexp(legs[0], k), math.ldexp(legs[1], k)
    return signed(rng, a), signed(rng, b)


CLASSES = {
    "ordinary": ordinary,
    "mixed_exponents": mixed_exponents,
    "subnormal": subnormal,
    "near_overflow": near_overflow,
    "zeros": zeros,
    "non_finite": non_finite,
    "midpoints": midpoints,
}


def is_even(h: float) -> bool:
    return not int(np.float64(h).view(np.int64)) & 1


def correctly_rounded(a: float, b: float, h: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return h == math.inf
    if math.isnan(a) or math.isnan(b):
        return math.isnan(h)
    if not h >= 0.0:
        return False
    s = Fraction(a) ** 2 + Fraction(b) ** 2
    if h == math.inf:
        return s >= OVERFLOW_MIDPOINT**2
    up = math.nextafter(h, math.inf)
    above = OVERFLOW_MIDPOINT if up == math.inf else (Fraction(h) + Fraction(up)) / 2
    below = (Fraction(math.nextafter(h, 0.0)) + Fraction(h)) / 2
    even = is_even(h)
    low, high = below**2, above**2
    return (low < s or (even and s == low)) and (s < high or (even and s == high))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=70_000, help="input pairs in all")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.n < len(CLASSES):
        ap.error(f"--n must be at least {len(CLASSES)}, one pair per class")

    rng = np.random.default_rng(args.seed)
    per_class = args.n // len(CLASSES)
    wrong = []
    for name, draw in CLASSES.items():
        a, b = draw(rng, per_class)
        h = _hypot(a, b)
        bad = [
            (x, y, z)
            for x, y, z in zip(a.tolist(), b.tolist(), h.tolist())
            if not correctly_rounded(x, y, z)
        ]
        wrong += bad
        print(f"{name}: {per_class} inputs, {len(bad)} misrounded")
    for x, y, z in wrong[:10]:
        print(f"misrounded: hypot({x!r}, {y!r}) gave {z!r}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
