"""Output checks. Each returns a list of problems; empty means correct.

A run with any problem prints ``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

#: slack for a bound containing ground truth: the sink's timestamps are
#: rounded, so a sound bound may miss the true time by well under 1 us.
TRUTH_TOLERANCE_MS = 0.001


def estimate_count(estimates: dict, expected: int) -> list[str]:
    """batch-estimate: one estimate per unknown arrival time."""
    if len(estimates) != expected:
        return [f"estimate count {len(estimates)} != expected {expected}"]
    return []


def same_estimates(reference: dict, other: dict, what: str) -> list[str]:
    """Two runs of one input must give bit-identical estimates."""
    if reference == other:
        return []
    keys = set(reference) ^ set(other)
    differing = [k for k in set(reference) & set(other) if reference[k] != other[k]]
    return [
        f"{what}: {len(keys)} key(s) differ, "
        f"{len(differing)} estimate(s) differ"
    ]


def served_results(
    served_keys: set, batch_keys: set, async_errors: list[str]
) -> list[str]:
    """serve-live: no rejected record, and after the final FLUSH the
    served key set equals the batch key set of the same streams."""
    problems = []
    if async_errors:
        problems.append(
            f"{len(async_errors)} async error line(s), first: {async_errors[0]}"
        )
    missing = batch_keys - served_keys
    extra = served_keys - batch_keys
    if missing or extra:
        problems.append(
            f"served key set differs from batch: {len(missing)} missing, "
            f"{len(extra)} extra"
        )
    return problems


def bounds_contain_truth(bounds: dict, truth: dict) -> list[str]:
    """bounds-sample: every bound contains the true arrival time.

    ``bounds`` maps a key to ``(lower, upper)`` and ``truth`` maps the
    same key to the true time.
    """
    outside = []
    for key, (lower, upper) in bounds.items():
        actual = truth[key]
        excursion = max(lower - actual, actual - upper, 0.0)
        if excursion > TRUTH_TOLERANCE_MS:
            outside.append((excursion, key))
    if outside:
        worst, key = max(outside)
        return [
            f"{len(outside)} bound(s) exclude ground truth; worst "
            f"{worst:.6f} ms at {key}"
        ]
    return []


def nonnegative_latencies(latencies_ms: list[float]) -> list[str]:
    """serve-live: a window cannot appear before its trigger was due."""
    negative = [x for x in latencies_ms if x < 0.0]
    if negative:
        return [
            f"{len(negative)} window(s) seen before their trigger record "
            f"was due (min {min(negative):.3f} ms)"
        ]
    return []
