"""Order statistics and the serving SLO rule, free of any program import."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile of :data:`TAIL_LADDER` with >= 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9:
            return pct
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median plus the highest percentile that has >= 10 samples beyond it.

    Infinite samples (a request that was refused) are kept: they count as
    beyond any finite limit, so a percentile that reaches them reads ``inf``.
    """
    arr = np.asarray(list(samples), dtype=np.float64)
    n = int(arr.size)
    if n == 0:
        return {"n": 0, "p50": math.nan, "tail_pct": None, "tail": math.nan}
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(arr, 50.0),
        "tail_pct": pct,
        "tail": percentile(arr, pct) if pct is not None else math.nan,
    }


def percentile(samples: Sequence[float], pct: float) -> float:
    """``pct``-th percentile of ``samples`` (NaN when there are none).

    Interpolating between two infinite samples gives NaN in numpy; the
    percentile of samples that are infinite there is infinite.
    """
    arr = np.sort(np.asarray(list(samples), dtype=np.float64))
    if not arr.size:
        return math.nan
    rank = (arr.size - 1) * pct / 100.0
    if np.isinf(arr[int(math.ceil(rank))]):
        return math.inf
    return float(np.percentile(arr, pct))


def backlog_growing(latencies_ms: Sequence[float], slack_ms: float = 1.0) -> bool:
    """True when the later half of a window waits clearly longer than the first.

    ``latencies_ms`` is in due-time order.  A queue that keeps up has the
    same latency distribution throughout the window; one that falls behind
    makes every later request wait longer than the earlier ones, so the
    later half's median exceeds twice the earlier half's (plus ``slack_ms``,
    so sub-millisecond jitter never reads as growth).
    """
    arr = np.asarray(list(latencies_ms), dtype=np.float64)
    if arr.size < 2 * MIN_BEYOND:
        return False
    half = arr.size // 2
    early = float(np.median(arr[:half]))
    late = float(np.median(arr[half:]))
    return late > 2.0 * early + slack_ms


def max_rate_at_slo(points: Sequence[dict], slo_ms: float) -> float:
    """Highest offered rate that met the SLO, or 0.0 when none did.

    Each point carries ``rate``, ``p99_ms`` (from due time, refused requests
    counted as infinite), ``refused`` (rejected + shed + failed) and
    ``backlog_growing``.  A rate meets the SLO when its p99 is within
    ``slo_ms``, nothing was refused and its backlog did not grow.
    """
    passing = [
        p["rate"] for p in points
        if p["p99_ms"] <= slo_ms and p["refused"] == 0
        and not p["backlog_growing"]
    ]
    return float(max(passing)) if passing else 0.0
