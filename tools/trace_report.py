#!/usr/bin/env python3
"""Summarize a Chrome-trace phase-span file from the telemetry layer.

Reads the PREFIX.trace.json an `obs::Observer` writes (complete "X" spans:
driver phases on tid 0, per-chamber control phases on tid = chamber + 1) and
prints per-phase wall-clock totals — count, total/mean/max span duration,
exclusive (self) time, and the shares of the summed recorded and self time.
The timing plane is explicitly nondeterministic (docs/observability.md), so
these numbers are for profiling and regression eyeballing, never for
simulation assertions.

Self time is a span's duration minus the union of the spans nested inside it
on the same lane. The driver's `chambers` span (the per-tick fan-out) also
loses the union of that tick's chamber-lane spans, so what is left is the
fan-out's own cost: dispatch, barrier wait and idle lanes. Self times never
count the same instant of one lane twice, so their shares add up to 100% of
the summed lane-busy time.

Usage:
  tools/trace_report.py PREFIX.trace.json [--by-lane]
  tools/trace_report.py --self-test   # check against tools/trace_fixtures
"""

from __future__ import annotations

import argparse
import bisect
import json
import sys
from collections import defaultdict
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "trace_fixtures" / "nested.trace.json"
DRIVER_TID = 0
FANOUT_SPAN = "chambers"


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi)."""
    total = 0.0
    cur_b = cur_e = None
    for b, e in sorted(intervals):
        b, e = max(b, lo), min(e, hi)
        if e <= b:
            continue
        if cur_e is not None and b <= cur_e:
            cur_e = max(cur_e, e)
            continue
        if cur_e is not None:
            total += cur_e - cur_b
        cur_b, cur_e = b, e
    if cur_e is not None:
        total += cur_e - cur_b
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Exclusive time of every span, aligned with `spans`."""
    by_lane: dict[int, list[int]] = defaultdict(list)
    chamber_by_tick: dict[object, list[tuple[float, float]]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_lane[s["tid"]].append(i)
        if s["tid"] != DRIVER_TID:
            chamber_by_tick[s["tick"]].append((s["ts"], s["ts"] + s["dur"]))

    out = [0.0] * len(spans)
    for lane in by_lane.values():
        lane.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        starts = [spans[i]["ts"] for i in lane]
        for i in lane:
            s = spans[i]
            b, e = s["ts"], s["ts"] + s["dur"]
            nested = []
            # Nested spans start inside [b, e); scan only those.
            for pos in range(bisect.bisect_left(starts, b), len(lane)):
                j = lane[pos]
                t = spans[j]
                if t["ts"] >= e:
                    break
                if j != i and t["ts"] + t["dur"] <= e:
                    nested.append((t["ts"], t["ts"] + t["dur"]))
            if s["tid"] == DRIVER_TID and s["name"] == FANOUT_SPAN:
                nested += chamber_by_tick.get(s["tick"], [])
            out[i] = s["dur"] - union_length(nested, b, e)
    return out


def load_spans(path: Path) -> list[dict]:
    obj = json.loads(path.read_text(encoding="utf-8"))
    spans = []
    for e in obj.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        spans.append(
            {
                "name": e["name"],
                "tid": e.get("tid", 0),
                "ts": float(e.get("ts", 0.0)),
                "dur": float(e.get("dur", 0.0)),
                "tick": e.get("args", {}).get("tick"),
            }
        )
    return spans


def summarize(spans: list[dict], by_lane: bool) -> dict[str, list[float]]:
    """Per phase: [count, total, max, self] in microseconds."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        key = f"{s['name']} (lane {s['tid'] - 1})" if by_lane else s["name"]
        stat = totals[key]
        stat[0] += 1
        stat[1] += s["dur"]
        stat[2] = max(stat[2], s["dur"])
        stat[3] += own
    return totals


def self_test() -> int:
    """The fixture's expected self times, worked out by hand."""
    expected = {
        "faults": 10.0,
        "chambers": 5.0,  # 100 us minus the chamber lanes' union [15, 110)
        "harvest": 10.0,
        "outer": 60.0,  # 100 us minus the overlapping children's union [220, 260)
        "inner": 50.0,
        "physics": 110.0,
        "sense": 75.0,
    }
    got = {k: v[3] for k, v in summarize(load_spans(FIXTURE), False).items()}
    if got != expected:
        print(f"trace_report self-test FAILED: expected {expected}, got {got}")
        return 1
    print("trace_report self-test: ok")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", type=Path, nargs="?", help="Chrome-trace JSON file")
    ap.add_argument(
        "--by-lane",
        action="store_true",
        help="break phases out per lane (tid) instead of aggregating",
    )
    ap.add_argument(
        "--self-test", action="store_true", help="check the synthetic fixture"
    )
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.trace is None:
        ap.error("a trace file is required")

    spans = load_spans(args.trace)
    if not spans:
        print(f"{args.trace}: no spans recorded")
        return 1
    totals = summarize(spans, args.by_lane)
    ticks = {s["tick"] for s in spans if isinstance(s["tick"], int)}

    grand = sum(stat[1] for stat in totals.values()) or 1.0
    grand_self = sum(stat[3] for stat in totals.values()) or 1.0
    print(
        f"{args.trace.name}: {len(spans)} spans, "
        f"{len(totals)} phases, {len(ticks)} ticks, "
        f"{grand / 1000.0:.2f} ms recorded, {grand_self / 1000.0:.2f} ms busy"
    )
    print(f"{'phase':<28} {'count':>8} {'total ms':>10} {'self ms':>9} "
          f"{'mean us':>9} {'max us':>9} {'share':>7} {'self %':>7}")
    for name, (count, total, peak, own) in sorted(
        totals.items(), key=lambda kv: -kv[1][3]
    ):
        print(
            f"{name:<28} {int(count):>8} {total / 1000.0:>10.2f} "
            f"{own / 1000.0:>9.2f} {total / count:>9.1f} {peak:>9.1f} "
            f"{100.0 * total / grand:>6.1f}% {100.0 * own / grand_self:>6.1f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
