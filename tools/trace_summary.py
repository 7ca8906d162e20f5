#!/usr/bin/env python3
"""Rolls a wsnq trace into per-phase/per-event tables.

Reads either trace format written by --trace=PATH (JSONL when the path ends
in .jsonl, Chrome/Perfetto trace_event JSON otherwise) and prints:

  * one row per (phase, name): event count, distinct emitting nodes, and the
    sum of each integer arg ("bits", "packets", ...) carried by the events;
  * a per-protocol round span, so a multi-algorithm trace shows how many
    rounds each protocol contributed;
  * the counter totals (WSNQ_TRACE_COUNTER streams).

Usage:
  tools/trace_summary.py out.json [--phase=net] [--proto=IQ]

The summary is purely logical (event counts and logical-tick ranges); wall
clock never enters a trace file (docs/observability.md).
"""

import argparse
import collections
import json
import sys


def load_events(path):
    """Returns the trace as a list of JSONL-shaped event dicts."""
    with open(path, "r", encoding="utf-8") as f:
        body = f.read()
    if not body.strip():
        return []
    if body.lstrip().startswith("{") and '"traceEvents"' in body[:256]:
        return [chrome_to_jsonl(e) for e in json.loads(body)["traceEvents"]]
    return [json.loads(line) for line in body.splitlines() if line.strip()]


def chrome_to_jsonl(event):
    """Maps one Chrome trace_event back onto the JSONL field names."""
    kinds = {"B": "begin", "E": "end", "i": "instant", "C": "counter"}
    args = dict(event.get("args", {}))
    out = {
        "run": event.get("pid", 0),
        "tick": event.get("ts", 0),
        "round": args.pop("round", 0),
        "proto": args.pop("proto", ""),
        "phase": event.get("cat", ""),
        "name": event.get("name", ""),
        "node": event.get("tid", 0) - 1,
        "kind": kinds.get(event.get("ph"), "instant"),
    }
    if args:
        out["args"] = args
    return out


def summarize(events, phase_filter=None, proto_filter=None):
    per_event = collections.OrderedDict()
    per_proto = {}
    counters = collections.Counter()
    for e in events:
        if phase_filter and e.get("phase") != phase_filter:
            continue
        if proto_filter and e.get("proto") != proto_filter:
            continue
        if e.get("kind") == "counter":
            for key, value in e.get("args", {}).items():
                counters[key] += value
            continue
        key = (e.get("phase", ""), e.get("name", ""))
        stat = per_event.setdefault(
            key, {"count": 0, "nodes": set(), "args": collections.Counter()})
        stat["count"] += 1
        stat["nodes"].add(e.get("node", -1))
        for arg_key, value in e.get("args", {}).items():
            stat["args"][arg_key] += value
        proto = e.get("proto", "")
        if proto:
            rounds = per_proto.setdefault(proto, [None, None])
            r = e.get("round", 0)
            rounds[0] = r if rounds[0] is None else min(rounds[0], r)
            rounds[1] = r if rounds[1] is None else max(rounds[1], r)
    return per_event, per_proto, counters


def main():
    parser = argparse.ArgumentParser(
        description="Summarize a wsnq --trace file.")
    parser.add_argument("trace", help="trace file (.jsonl or Chrome JSON)")
    parser.add_argument("--phase", help="only this phase (e.g. net)")
    parser.add_argument("--proto", help="only this protocol (e.g. IQ)")
    args = parser.parse_args()

    try:
        events = load_events(args.trace)
    except (OSError, json.JSONDecodeError, KeyError) as error:
        print(f"trace_summary: cannot read {args.trace}: {error}",
              file=sys.stderr)
        return 2
    if not events:
        print(f"trace_summary: {args.trace} holds no events",
              file=sys.stderr)
        return 1

    per_event, per_proto, counters = summarize(events, args.phase, args.proto)

    print(f"{len(events)} events, "
          f"{len({e.get('run', 0) for e in events})} run(s)\n")
    print(f"{'phase':<12} {'name':<22} {'count':>8} {'nodes':>6}  arg sums")
    for (phase, name), stat in sorted(per_event.items()):
        sums = " ".join(f"{k}={v}" for k, v in sorted(stat["args"].items()))
        print(f"{phase:<12} {name:<22} {stat['count']:>8} "
              f"{len(stat['nodes']):>6}  {sums}")
    if per_proto:
        print(f"\n{'proto':<10} rounds")
        for proto, (lo, hi) in sorted(per_proto.items()):
            print(f"{proto:<10} {lo}..{hi}")
    if counters:
        print(f"\n{'counter':<22} total")
        for key, total in sorted(counters.items()):
            print(f"{key:<22} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
