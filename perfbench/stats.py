"""Statistics helpers for the repository benchmark (stdlib only).

Every figure run.py reports goes through these: the median and quartiles
of a sample, a percentile by linear interpolation between order
statistics, and the highest percentile a sample supports, i.e. the highest
one with at least ten samples beyond it.
"""

# Percentiles a report may quote, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0 <= p <= 100), interpolating linearly between
    the two nearest order statistics, as statistics.quantiles does with
    method='inclusive'."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % (p,))
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def quartiles(values):
    """(q1, median, q3) of the sample."""
    return (percentile(values, 25.0), percentile(values, 50.0),
            percentile(values, 75.0))


def supported_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median is unsupported."""
    best = None
    for p in PERCENTILE_LADDER:
        # The tolerance absorbs binary rounding of (100 - p), e.g. 99.9.
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def summary(values):
    """Median, quartiles, count and the highest supported percentile with
    its value: the record run.py keeps for every timing."""
    q1, med, q3 = quartiles(values)
    p = supported_percentile(len(values))
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "supported_percentile": p,
        "supported_value": percentile(values, p) if p is not None else None,
    }
