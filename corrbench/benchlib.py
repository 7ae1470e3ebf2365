"""Pure logic of the corrbench benchmark: seeds, percentiles, accounting
and span self times. run.py does the I/O; test_benchlib.py tests this.
"""

import math

MASK64 = (1 << 64) - 1

# A reported tail percentile needs at least this many samples beyond it.
SAMPLES_BEYOND_TAIL = 10
# The tail is never reported above this percentile: on a shared 4-core
# host the serve-rw p99 moved 33-54% between runs of the same code, p90
# about 15%.
TAIL_CAP = 0.90


def splitmix64(x):
    """One SplitMix64 step: a well-mixed 64-bit value from `x`."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed, stream, index=0):
    """Seed number `index` of the named `stream` under the run seed.

    Kept below 2**63 so `corrob generate --seed` takes it as a positive
    integer.
    """
    x = splitmix64(seed & MASK64)
    for ch in stream.encode():
        x = splitmix64(x ^ ch)
    return splitmix64(x ^ index) >> 1


def tail_index(n):
    """Index, in ascending order, of the highest percentile of `n` samples
    with at least SAMPLES_BEYOND_TAIL samples beyond it, capped at TAIL_CAP.
    None when `n` is too small to support any such percentile."""
    if n < SAMPLES_BEYOND_TAIL + 1:
        return None
    cap = math.ceil(TAIL_CAP * n) - 1
    return min(n - 1 - SAMPLES_BEYOND_TAIL, cap)


def tail_level(n):
    """The percentile (0-100) that tail_index(n) reports."""
    index = tail_index(n)
    return None if index is None else 100.0 * (index + 1) / n


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def latency_summary(latencies_ms, failed, failure_ms):
    """Median and tail of one operation class.

    `latencies_ms` are the operations that succeeded; each of the
    `failed` operations counts as +inf, so it misses every latency limit.
    A percentile that lands on a failure reports `failure_ms`, the
    longest a driver waits for an answer, so the value stays finite.
    Returns (p50, tail, tail_level, samples).
    """
    values = sorted(latencies_ms) + [math.inf] * failed
    n = len(values)
    if n == 0:
        raise ValueError("no operations to summarize")
    p50 = median(values)
    index = tail_index(n)
    tail = values[-1] if index is None else values[index]
    level = tail_level(n)

    def finite(x):
        return failure_ms if math.isinf(x) else x

    return finite(p50), finite(tail), level, n


def open_loop_accounting(ops, window_ns):
    """Lateness and issued-vs-offered of an open-loop schedule.

    `ops` are dicts with sched_ns, send_ns (-1 when never sent) and
    status, timed from the window's start; warm-up operations have
    sched_ns < 0. Offered = operations scheduled inside the window;
    issued = those actually sent. Lateness is send minus schedule of every issued
    operation. Returns (offered, issued, late_ms list, failed).
    """
    offered = [op for op in ops if 0 <= op["sched_ns"] < window_ns]
    issued = [op for op in offered if op["send_ns"] >= 0]
    late_ms = [(op["send_ns"] - op["sched_ns"]) / 1e6 for op in issued]
    failed = sum(1 for op in offered if op["status"] != "ok")
    return len(offered), len(issued), late_ms, failed


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. Returns {span id: ns}."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def layer_self_ms(spans, layers):
    """Mean self time per traced operation (root span) of each layer,
    where a span belongs to the layer its name starts with."""
    own = self_times(spans)
    roots = sum(1 for span in spans if span["parent"] == 0)
    totals = {layer: 0 for layer in layers}
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        if layer in totals:
            totals[layer] += own[span["id"]]
    return {layer: totals[layer] / 1e6 / max(1, roots) for layer in layers}
