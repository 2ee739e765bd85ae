"""Order statistics used by the benchmark: medians, quartiles and spreads.

Quartiles are the ones ``statistics.quantiles(values, n=4)`` gives (its
default "exclusive" method), so a spread computed here matches one computed
by hand from the printed values.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the values."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """(third quartile - first quartile) as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0.0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)
