"""Span reducer for the benchmark's Chrome traces.

reduce_spans() reads the wall-clock timeline (pid 1) of a Chrome trace
written by `--trace-out` or by perfbench_inproc. Wall spans are scoped
objects, so on one thread lane they must form a tree: a span that starts
inside another must also end inside it. The reducer checks this and fails
the run (SpanError) on any span that starts inside the open span on its lane
but ends after it, by more than the trace's JSON rounding (TOLERANCE_US):
a child running past its parent, or two overlapping siblings. Within the
tolerance, each child is credited to its parent only for the part that
overlaps the parent, and a sibling only for the part after the previous
sibling's end, so rounding cannot push self time below zero; a negative self
time left after that is a reducer bug and fails the run too.

Spans nested under one of the benchmark's own spans ("bench.*") are also
counted under "<bench span>/<name>", so a program span can be attributed to
the library call that caused it.
"""
import json

# `ts` and `dur` are written with 12 significant digits, i.e. to 0.01 µs
# for a process younger than ~3 hours; two roundings stay below this.
TOLERANCE_US = 0.05


class SpanError(Exception):
    pass


def reduce_spans(path):
    """Per span name: count, inclusive µs and clipped self µs (wall only)."""
    with open(path) as f:
        doc = json.load(f)
    lanes = {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") == "X" and e.get("pid") == 1:
            lanes.setdefault(e.get("tid", 0), []).append(e)
    spans = []
    for tid, events in lanes.items():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in events:
            span = {"name": e["name"], "start": e["ts"],
                    "end": e["ts"] + e["dur"], "dur": e["dur"], "child": 0.0,
                    "child_end": e["ts"], "owner": None}
            while stack and stack[-1]["end"] <= span["start"] + TOLERANCE_US:
                stack.pop()
            if stack:
                parent = stack[-1]
                if span["end"] > parent["end"] + TOLERANCE_US:
                    raise SpanError(
                        f"{path}: lane {tid}: {span['name']} "
                        f"[{span['start']}, {span['end']}] starts inside "
                        f"{parent['name']} [{parent['start']}, "
                        f"{parent['end']}] but ends after it: the spans do "
                        f"not form a tree")
                span["owner"] = (parent["name"]
                                 if parent["name"].startswith("bench.")
                                 else parent["owner"])
                lo = max(span["start"], parent["child_end"])
                hi = min(span["end"], parent["end"])
                parent["child"] += max(0.0, hi - lo)
                parent["child_end"] = max(parent["child_end"], hi)
            stack.append(span)
            spans.append(span)
    rows = {}
    for s in spans:
        self_us = s["dur"] - s["child"]
        if self_us < -1e-3:
            raise SpanError(f"{path}: span {s['name']} has negative self "
                            f"time {self_us:.3f} us")
        keys = [s["name"]]
        if s["owner"]:
            keys.append(f"{s['owner']}/{s['name']}")
        for key in keys:
            row = rows.setdefault(key, {"count": 0, "total_us": 0.0,
                                        "self_us": 0.0})
            row["count"] += 1
            row["total_us"] += s["dur"]
            row["self_us"] += self_us
    return rows


def span_ms(rows, name, field="total_us"):
    return rows.get(name, {}).get(field, 0.0) / 1000.0
