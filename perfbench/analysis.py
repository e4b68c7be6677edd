"""Per-layer numbers derived from traced spans.

A traced pass is cut into *windows*, one per unit of measured work (a
serving burst, a campaign round).  Counts and self times are averaged
per window, so they do not depend on how many windows a run fitted in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import spans as sp

LAYERS = ("inference", "generation", "serve", "fi", "metrics", "other")


@dataclass
class Windows:
    n: int = 0
    wall: float = 0.0
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    pairs: list = field(default_factory=list)
    """``(span, self seconds)`` over every window."""

    def per(self, value: float) -> float:
        return value / self.n

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3 / self.n

    def spans(self, name: str) -> list:
        return [s for s, _own in self.pairs if s.name == name]


def collect(span_list, windows: list[tuple[float, float]]) -> Windows:
    out = Windows()
    for t0, t1 in windows:
        pairs = sp.window_self(span_list, t0, t1)
        for name, (calls, own) in sp.by_name(pairs).items():
            out.calls[name] = out.calls.get(name, 0) + calls
            out.self_s[name] = out.self_s.get(name, 0.0) + own
        for layer, own in sp.tile(pairs, t1 - t0).items():
            out.layers[layer] = out.layers.get(layer, 0.0) + own
        out.pairs.extend(pairs)
        out.wall += t1 - t0
        out.n += 1
    return out


def forward_seconds(w: Windows, draft: bool | None = None) -> float:
    """Wall seconds inside engine forwards (outermost forward spans)."""
    total = 0.0
    for s, _own in w.pairs:
        if not s.name.startswith("inference.forward"):
            continue
        if s.parent is not None and s.parent.name.startswith("inference.forward"):
            continue
        if draft is None or bool(s.attrs.get("draft")) == draft:
            total += s.duration
    return total


def common(w: Windows) -> dict:
    """The inference and generation numbers every workload reports."""
    step = w.spans("inference.forward_step_batch")
    chunk = w.spans("inference.forward_chunk_batch")
    forwards = [s for s, _ in w.pairs if s.name.startswith("inference.forward")]
    row_tokens = sum(s.attrs["rows"] * s.attrs["tokens"] for s in forwards)
    out = {
        "inference.forward.calls": w.per(w.calls.get("inference.forward", 0)),
        "inference.forward.self_ms": w.self_ms("inference.forward"),
        "inference.forward_step_batch.calls": w.per(len(step)),
        "inference.forward_step_batch.self_ms": w.self_ms("inference.forward_step_batch"),
        "inference.forward_step_batch.rows_mean":
            sum(s.attrs["rows"] for s in step) / len(step) if step else 0.0,
        "inference.forward_chunk_batch.calls": w.per(len(chunk)),
        "inference.forward_chunk_batch.self_ms":
            w.self_ms("inference.forward_chunk_batch"),
        "inference.forward_chunk_batch.tokens_mean":
            sum(s.attrs["tokens"] for s in chunk) / len(chunk) if chunk else 0.0,
        "inference.us_per_row_token":
            forward_seconds(w) * 1e6 / row_tokens if row_tokens else 0.0,
        "inference.kv.truncate.calls": w.per(w.calls.get("inference.kv.truncate", 0)),
        "inference.kv.restore.calls": w.per(w.calls.get("inference.kv.restore", 0)),
        "generation.generate_ids.self_ms": w.self_ms("generation.generate_ids"),
        "generation.choose_option.self_ms": w.self_ms("generation.choose_option"),
        "trace.wall_ms": w.wall * 1e3 / w.n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = w.layers.get(layer, 0.0) * 1e3 / w.n
    return out


def slots_in_use_mean(span_list, t0: float, t1: float, pool: int | None = None) -> float:
    """Time-weighted mean of pooled KV slots held over ``[t0, t1]``
    (one pool by ``id``, or every pool)."""
    events = []
    for s in span_list:
        if not t0 <= s.start <= t1:
            continue
        if pool is not None and s.attrs.get("pool") != pool:
            continue
        if s.name == "inference.kv.acquire":
            events.append((s.end, 1))
        elif s.name == "inference.kv.release":
            events.append((s.start, -1))
    events.sort()
    area, level, last = 0.0, 0, t0
    for t, delta in events:
        area += level * (t - last)
        level, last = level + delta, t
    area += level * (t1 - last)
    return area / (t1 - t0)


def rejected_tokens(truncations, bursts: list[dict]) -> int:
    """Tokens rolled back by the truncations of target-pool views.

    A burst's pools are freed when it ends and CPython reuses their
    addresses, so each truncation is matched only against the target
    views (``id()`` of block-0 slot views) of the burst it ran in.
    """
    rolled_back = 0
    for b in bursts:
        for s in truncations:
            if b["t0"] <= s.start <= b["t1"] and s.attrs["view"] in b["target_views"]:
                rolled_back += s.attrs["before"] - s.attrs["after"]
    return rolled_back


def outermost_seconds(span_list, name: str) -> float:
    """Summed duration of ``name`` spans not nested in another ``name``."""
    total = 0.0
    for s in span_list:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            total += s.duration
    return total
