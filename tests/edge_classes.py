"""The classes of knob values at the edges of [0, 1], where the paper's verdicts turn, named once.

`test_edge_tables.py` enumerates them as one fixed table; `test_verify.py` draws from the same classes
with seeded numpy generators.  A class is a builder of `size` values from a numpy generator.
"""

import math

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)  # 0.7071067811865475, 1/sqrt2 rounded down; the meter threshold is d = 0 just above it
EDGES = (0.0, 1.0)
DECADES = tuple(10.0**-k for k in range(1, 16))  # 10^-k for k = 1..15


def ulps_from(x: float, k: int) -> float:
    """The float k steps above x (below for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


BELOW_SQRT_HALF = tuple(ulps_from(SQRT_HALF, -k) for k in range(1, 9))  # 1/sqrt2 - k ulps, k = 1..8

EDGE_TABLE = sorted(
    set(EDGES)
    | set(DECADES)
    | {1.0 - x for x in DECADES}
    | {ulps_from(SQRT_HALF, k) for k in range(-8, 9)}
)


def mixed(rng, size, classes):
    """`size` values, each built by one of `classes` chosen uniformly."""
    pick = rng.integers(0, len(classes), size)
    values = np.empty(size)
    for k, build in enumerate(classes):
        values[pick == k] = build(rng, int(np.sum(pick == k)))
    return values


def near_zero(rng, size):
    """u * 10^-k, with u uniform on [0, 1) and k = 1..15."""
    return rng.random(size) * rng.choice(DECADES, size)


# Exactly 0 or 1, within 10^-k of either edge, or uniform on [0, 1].
EDGE_BIASED = (
    lambda rng, size: rng.choice(EDGES, size),
    near_zero,
    lambda rng, size: 1.0 - near_zero(rng, size),
    lambda rng, size: rng.random(size),
)

# Robustness in [0, 1/sqrt2): exactly 0, within 10^-k of 0, uniform, or 1 to 8 ulps below 1/sqrt2.
METER_ROBUSTNESS = (
    lambda rng, size: np.zeros(size),
    near_zero,
    lambda rng, size: rng.uniform(0.0, SQRT_HALF, size),
    lambda rng, size: rng.choice(BELOW_SQRT_HALF, size),
)
