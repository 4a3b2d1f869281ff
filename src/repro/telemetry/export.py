"""Standard-format exporters: Chrome/Perfetto traces and collapsed
flamegraph stacks.

Everything here converts repro-native JSONL trace event lists into
formats existing tooling understands:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format (``ph: "X"`` complete events, microsecond
  timestamps), loadable in ``chrome://tracing`` and https://ui.perfetto.dev;
* :func:`collapsed_stacks` / :func:`write_collapsed` — Brendan Gregg's
  collapsed-stack format (``frame;frame;frame count``) from ``profile``
  events, the input ``flamegraph.pl`` / speedscope / inferno expect.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple


# -- Chrome / Perfetto trace events --------------------------------------

def chrome_trace_events(events: Sequence[Dict[str, Any]],
                        ) -> List[Dict[str, Any]]:
    """Convert trace ``span`` events to Chrome trace-event dicts.

    Each span becomes one complete ("X") event: ``ts``/``dur`` in
    microseconds (timestamps rebased to the earliest span so the viewer
    opens at t≈0), ``pid``/``tid`` from the originating process, span
    ids and attrs under ``args``.  Non-span events are skipped — the
    Chrome format has no place for metrics snapshots.
    """
    spans = [e for e in events if e.get("type") == "span"]
    if not spans:
        return []
    t_base = min(float(e.get("t_start") or 0.0) for e in spans)
    out = []
    for event in spans:
        args: Dict[str, Any] = {"span_id": event.get("span_id"),
                                "parent_id": event.get("parent_id")}
        if event.get("trace_id") is not None:
            args["trace_id"] = event["trace_id"]
        args.update(event.get("attrs") or {})
        pid = event.get("pid", 0)
        out.append({
            "name": event.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "ts": round((float(event.get("t_start") or 0.0) - t_base)
                        * 1e6, 3),
            "dur": round(float(event.get("duration_s") or 0.0) * 1e6, 3),
            "pid": pid,
            "tid": pid,
            "args": args,
        })
    return out


def write_chrome_trace(events: Sequence[Dict[str, Any]],
                       path: str) -> int:
    """Write events as a Chrome trace JSON file; returns spans written."""
    trace_events = chrome_trace_events(events)
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
        handle.write("\n")
    return len(trace_events)


# -- collapsed stacks (flamegraphs) --------------------------------------

def collapsed_stacks(events: Sequence[Dict[str, Any]],
                     ) -> List[Tuple[str, int]]:
    """Fold ``profile`` events into collapsed-stack lines.

    Returns ``(stack, count)`` pairs where ``stack`` is the
    semicolon-joined root→leaf frame list, counts summed across events,
    sorted by descending count then stack.
    """
    folded: Dict[str, int] = {}
    for event in events:
        if event.get("type") != "profile":
            continue
        for entry in event.get("stacks", ()):
            frames = entry.get("frames") or []
            count = entry.get("count", 0)
            if not frames or not count:
                continue
            key = ";".join(frames)
            folded[key] = folded.get(key, 0) + count
    return sorted(folded.items(), key=lambda item: (-item[1], item[0]))


def write_collapsed(events: Sequence[Dict[str, Any]],
                    path: str) -> int:
    """Write profile events in collapsed-stack format; returns lines."""
    pairs = collapsed_stacks(events)
    with open(path, "w", encoding="utf-8") as handle:
        for stack, count in pairs:
            handle.write(f"{stack} {count}\n")
    return len(pairs)


def export_trace(events: Sequence[Dict[str, Any]], path: str,
                 fmt: str = "chrome") -> int:
    """Dispatch helper behind ``python -m repro trace export``."""
    if fmt == "chrome":
        return write_chrome_trace(events, path)
    if fmt == "collapsed":
        return write_collapsed(events, path)
    raise ValueError(f"unknown trace export format: {fmt!r}")
