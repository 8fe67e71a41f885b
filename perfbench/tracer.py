"""In-memory span recorder for the traced benchmark run.

Each span holds a name, start and end (perf_counter seconds), the id of
the span open around it, a request id shared by every span of one
request (a clip, a batch of utterances, a word), and the work counts
recorded at that boundary.  Spans stay in memory until `dump` writes
them as JSON Lines at the end of the run.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, request: str | None = None, **counts):
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent["request"]
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "request": request,
            "counts": counts,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fout:
            for record in self.spans:
                fout.write(json.dumps(record))
                fout.write("\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one parent run one after another in this benchmark, so
    their durations add up without overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def tail_level(n: int) -> float:
    """Highest quantile with at least ten samples beyond it (0.5 when n < 20)."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, self_s, p50_ms and tail_ms of the per-call
    durations, tail_q, and the sum of every count recorded on those spans."""
    own = self_times(spans)
    groups: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        g = groups.setdefault(s["name"], {"durations": [], "self_s": 0.0, "counts": {}})
        g["durations"].append(s["end"] - s["start"])
        g["self_s"] += self_s
        for key, value in s["counts"].items():
            g["counts"][key] = g["counts"].get(key, 0) + value
    out = {}
    for name, g in groups.items():
        durations = sorted(g["durations"])
        q = tail_level(len(durations))
        out[name] = {
            "calls": len(durations),
            "self_s": g["self_s"],
            "p50_ms": 1e3 * quantile(durations, 0.5),
            "tail_ms": 1e3 * quantile(durations, q),
            "tail_q": q,
            **g["counts"],
        }
    return out
