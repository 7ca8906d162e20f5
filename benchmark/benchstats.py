"""Statistics helpers of the wsnq benchmark (benchmark/README.md).

Pure functions, no I/O beyond reading a span file, so benchmark/selftest.py
can pin every rule the report depends on:

* the percentile rule: a tail percentile is reported only when at least
  ten samples lie beyond it;
* quartiles and spread, as Python's statistics.quantiles(values, n=4)
  gives them, and how far a median may move against a metric's bound;
* percentiles read back from the programs' log-linear histograms, and of
  answers delivered in batches (the simulator passes);
* due-time push latency (and the skew-from-first-push rule it replaces);
* span self time.
"""

import json
import math
import statistics

MIN_SAMPLES_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def tail_ok(samples, pct):
    """True when at least ten of `samples` lie beyond percentile `pct`."""
    # The epsilon absorbs 100 - 99.9 != 0.1 in binary floating point.
    return samples * (100.0 - pct) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9


def highest_tail(samples):
    """The highest of 99.9/99/90 that `samples` can support, else None."""
    for pct in TAIL_CANDIDATES:
        if tail_ok(samples, pct):
            return pct
    return None


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(before, after, better):
    """Share of `before` by which `after` is worse (negative when better);
    `better` is "lower" or "higher". A metric regresses when this exceeds
    its bound in BENCHMARK.json."""
    change = (after - before) / before
    return change if better == "lower" else -change


class Histogram:
    """Buckets as [lower, upper, count] triples (benchmark/histogram.h)."""

    def __init__(self, buckets=()):
        self.counts = {}
        self.merge(buckets)

    def merge(self, buckets):
        for lower, upper, count in buckets:
            key = (lower, upper)
            self.counts[key] = self.counts.get(key, 0) + count
        return self

    @property
    def total(self):
        return sum(self.counts.values())

    def percentile(self, pct):
        """Value at `pct`, interpolated linearly inside its bucket."""
        total = self.total
        if total == 0:
            raise ValueError("empty histogram")
        target = pct / 100.0 * total
        seen = 0
        for (lower, upper), count in sorted(self.counts.items()):
            if seen + count >= target:
                return lower + (upper - lower) * max(0.0, target - seen) / count
            seen += count
        return max(self.counts)[1]


def batch_percentile(latencies, pct):
    """Percentile `pct` of the answers of batches that each deliver the same
    number of answers at once, one batch per entry of `latencies`: the
    nearest-rank batch, since every answer of a batch shares its latency.
    Below 100 batches p99 is therefore the slowest one."""
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(1, rank) - 1]


def due_latencies(arrivals, t0, rate):
    """Latency of each (round, receipt_time) from its round's due time,
    t0 + (round + 1) / rate: the instant a daemon pacing `rate` rounds per
    second from t0 was supposed to produce the round. wsnq_bench_client
    applies this rule to every push it receives."""
    return [receipt - (t0 + (rnd + 1) / rate) for rnd, receipt in arrivals]


def skew_latencies(arrivals):
    """The old load generator's rule: each push against the first push of
    its round. Blind to a whole round arriving late."""
    first = {}
    for rnd, receipt in arrivals:
        first[rnd] = min(first.get(rnd, receipt), receipt)
    return [receipt - first[rnd] for rnd, receipt in arrivals]


def self_times(spans):
    """Seconds of self time per span name: each span's duration minus the
    part of it its direct children cover. `spans` yields dicts with id,
    name, parent, start_ns, end_ns in id order, every parent before its
    children (the order the programs write them), so one streaming pass
    suffices."""
    names = []
    by_name = {}
    for span in spans:
        if span["id"] != len(names):
            raise ValueError("span ids must be dense and in order")
        names.append(span["name"])
        seconds = (span["end_ns"] - span["start_ns"]) * 1e-9
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + seconds
        if span["parent"] >= 0:
            parent = names[span["parent"]]
            by_name[parent] -= seconds
    return by_name


def read_spans(path):
    """Yields the spans of a JSONL span file one at a time."""
    with open(path) as f:
        for line in f:
            yield json.loads(line)
