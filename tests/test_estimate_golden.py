"""Golden estimate records: ``api.estimate`` output pinned bit for bit.

``tests/data/estimate_records.json`` holds every record of the request built
by :func:`golden_request` — the whole zoo plus one reduced-space searched
spec, on every registered target, at 4/8/16/32 bits, so clamped and
unsupported records are pinned too.  Any change to the analytic layer
(layer resolution, per-layer costs, their summation order) that moves a
single bit of any record fails here.

The file was written under Python 3.11.  From Python 3.12 on, ``sum()`` of
floats is compensated, so totals over many layers (GPU latency, allocated
DSPs) can differ from it in the last bits; there the floats are compared to
1e-12 relative instead of exactly.

Regenerate only for an intended model change, and say so in the change::

    PYTHONPATH=src python tests/test_estimate_golden.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from repro import api
from repro.baselines.model_zoo import MODEL_ZOO
from repro.hw import registry
from repro.nas.space import SearchSpaceConfig

GOLDEN = Path(__file__).parent / "data" / "estimate_records.json"
GOLDEN_BITS = (4, 8, 16, 32)
EXACT_SUMS = sys.version_info < (3, 12)


def golden_request() -> api.EstimateRequest:
    """Zoo + one reduced searched spec x every target x 4/8/16/32 bits."""
    space = SearchSpaceConfig.reduced()
    ops = space.candidate_ops()
    choices = [ops[i % len(ops)] for i in range(space.num_blocks)]
    searched = space.spec_for_choices(choices, name="reduced-searched")
    return api.EstimateRequest(
        models=(*sorted(MODEL_ZOO), searched),
        targets=tuple(registry.target_names()),
        bits=GOLDEN_BITS,
    )


def golden_records() -> list[dict]:
    return [record.to_dict() for record in api.estimate(golden_request())]


def _close(got, want) -> bool:
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in got)
    if isinstance(got, float) and isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-12)
    return got == want


def test_estimate_records_match_golden():
    expected = json.loads(GOLDEN.read_text())
    assert any(r["clamped"] for r in expected)
    assert any(not r["supported"] for r in expected)
    got = golden_records()
    assert len(got) == len(expected)
    for record, want in zip(got, expected):
        same = record == want if EXACT_SUMS else _close(record, want)
        assert same, (record, want)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
