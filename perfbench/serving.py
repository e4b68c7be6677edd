"""The two serving workloads: ``serve_plain`` and ``serve_spec``.

One ``InferenceServer`` (``max_batch`` 8, greedy, fp32) takes the
paper's four generative prompt shapes.  Each run alternates

* open-loop Poisson segments at the nominal rate, which together are
  the ladder's lower rung, each followed by a slice of the middle rung
  where the workload has one,
* saturation bursts: every request queued before the pump starts, and
* set-ups: engines, a server and one served request, timed and thrown
  away,

and runs the ladder's upper rung, a fixed rate well past today's knee,
once in the middle.  The rates and latency limits are frozen below.

``serve_spec`` adds the speculative draft (depth 4).  Before any timing
every prompt is served concurrently through the repo's
``equivalence_gate`` and every timed stream is compared with the serial
greedy reference of its prompt.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

import analysis
import fixtures
import loadgen
import probes
import provenance
import spans as sp
import stats
from common import Context, Mismatch, Result

MAX_BATCH = 8
DEPTH = 4
SLO_TTFT_MS = 100.0
SLO_TPOT_MS = 20.0
MIN_OK = 0.99
MAX_BACKLOG = 2 * MAX_BATCH
SETUP_REPS = 2
"""Set-ups timed after each nominal segment."""
MIN_NOMINAL_REQUESTS = 1000
"""Enough for a p99 (queue wait, submit cost) with ten samples beyond it."""


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    speculative: bool
    nominal_rps: float
    mid_rps: float | None
    """A rung between the nominal one and the knee (``None``: no room)."""
    mid_s: float
    """Seconds of the middle rung after each nominal segment."""
    high_rps: float
    high_s: float
    segments: int
    """Nominal-rate segments, each followed by one burst."""
    burst_copies: int
    """A burst is every prompt this many times over."""
    burst_budget_s: float
    """Time kept free for the bursts, set-ups and the upper rung's drain."""


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            "serve_plain", False, nominal_rps=100.0, mid_rps=150.0, mid_s=0.4,
            high_rps=500.0, high_s=0.8, segments=8, burst_copies=5,
            burst_budget_s=7.0,
        ),
        ServeWorkload(
            "serve_spec", True, nominal_rps=65.0, mid_rps=None, mid_s=0.0,
            high_rps=300.0, high_s=0.6, segments=8, burst_copies=3,
            burst_budget_s=8.0,
        ),
    )
}


class _Plant:
    """Engines and the generation config one run serves with."""

    def __init__(self, ctx: Context, wl: ServeWorkload) -> None:
        t0 = time.perf_counter()
        world, tok = fixtures.world_and_tokenizer()
        self.prompts = fixtures.serve_prompts(world, tok)
        self.draft_store = None
        self.cached = False
        if wl.speculative:
            self.store, self.draft_store, self.cached = fixtures.trained_pair(
                ctx.cache, ctx.source_digest, world, tok
            )
        else:
            self.store = fixtures.untrained(fixtures.TARGET, len(tok))
        self.fixture_s = time.perf_counter() - t0
        from repro.generation.decode import GenerationConfig

        self.config = GenerationConfig(max_new_tokens=32, eos_id=fixtures.NO_EOS)
        self.engine = self.draft = None

    def build(self) -> tuple:
        """Fresh target and draft engines (``None`` without a draft)."""
        from repro.inference import InferenceEngine

        draft = None if self.draft_store is None else InferenceEngine(self.draft_store)
        return InferenceEngine(self.store), draft

    def server(self, engines: tuple | None = None):
        from repro.serve import InferenceServer, TenantConfig

        engine, draft = engines or (self.engine, self.draft)
        # A queue deep enough that the overload rung queues instead of
        # shedding: lateness shows as latency, not as failures.
        return InferenceServer(
            engine, self.config, max_batch=MAX_BATCH,
            tenants=[TenantConfig("default", max_queue=100_000)],
            draft=draft, speculation_depth=DEPTH,
        )


def _setup(plant: _Plant) -> float:
    """Seconds from weights in memory to a served first request: engine
    build, server start and one warm request.  The server is stopped
    and its engines dropped afterwards."""
    spec = plant.prompts[0]
    t0 = time.perf_counter()
    server = plant.server(plant.build()).start()
    server.submit(list(spec.ids), max_new_tokens=spec.max_new).result(timeout=60)
    wall = time.perf_counter() - t0
    server.stop()
    return wall


def _references(plant: _Plant) -> list[list[int]]:
    """Gate, then the serial greedy output of every prompt."""
    from repro.generation.decode import greedy_decode
    from repro.serve.loadgen import equivalence_gate

    try:
        equivalence_gate(
            plant.engine, plant.config, plant.prompts, max_batch=MAX_BATCH,
            draft=plant.draft, speculation_depth=DEPTH,
        )
    except AssertionError as exc:
        raise Mismatch(f"equivalence gate: {exc}") from exc
    return [
        greedy_decode(
            plant.engine, list(p.ids),
            replace(plant.config, max_new_tokens=p.max_new), strategy="serial",
        )
        for p in plant.prompts
    ]


def _check(sent: list[loadgen.Sent], refs: list[list[int]], phase: str) -> None:
    for s in sent:
        if s.handle is not None and s.handle.finish_reason == "length":
            if s.handle.tokens != refs[s.prompt]:
                raise Mismatch(
                    f"{phase}: request {s.handle.request_id} (prompt {s.prompt})"
                    " differs from serial greedy_decode"
                )


def _ok(s: loadgen.Sent) -> bool:
    if s.handle is None or s.handle.finish_reason != "length":
        return False
    tpot = s.tpot_s
    return s.ttft_s * 1e3 <= SLO_TTFT_MS and (tpot is None or tpot * 1e3 <= SLO_TPOT_MS)


def _rung(rate: float, segments: list[list[loadgen.Sent]]) -> stats.Rung:
    """One ladder rung from its open-loop segments (the queue drains
    between segments)."""
    sent = ok = backlog = 0
    span = 0.0
    for seg in segments:
        last_due = max(s.due for s in seg)
        backlog = max(backlog, sum(
            1 for s in seg if s.first_token is None or s.first_token > last_due
        ))
        sent += len(seg)
        ok += sum(_ok(s) for s in seg)
        span += max(s.finished or s.submitted for s in seg) - min(s.due for s in seg)
    return stats.Rung(rate, sent, ok, backlog, ok / span)


def _failures(sent: list[loadgen.Sent]) -> int:
    return stats.failures(
        [s.handle.finish_reason for s in sent if s.handle is not None],
        shed=sum(s.shed is not None for s in sent),
    )


def _burst(plant: _Plant, refs, order) -> dict:
    """All requests queued before the pump starts; runs to completion."""
    server = plant.server()
    sent = []
    for i in order:
        spec = plant.prompts[i]
        t = time.perf_counter()
        h = server.submit(list(spec.ids), max_new_tokens=spec.max_new)
        sent.append(loadgen.Sent(i, t, t, 0.0, h))
    t0 = time.perf_counter()
    server.start()
    for s in sent:
        s.handle.result(timeout=120)
    server.stop()
    wall = max(s.finished for s in sent) - t0
    _check(sent, refs, "burst")
    tokens = sum(len(s.handle.tokens) for s in sent)
    # Block-0 views of the target pool: truncations of these are the
    # target-side rollbacks of rejected draft tokens.
    target_views = {id(server.pool.caches(i)[0]) for i in range(server.pool.n_slots)}
    return {
        "t0": t0, "t1": t0 + wall, "wall": wall, "tokens": tokens,
        "requests": len(sent), "failed": _failures(sent),
        "target_views": target_views,
    }


def _open_loop(server, plant, refs, rng, rate, duration, phase):
    offsets, picks = loadgen.schedule(rng, rate, duration, len(plant.prompts))
    sent = loadgen.drive(server, plant.prompts, offsets, picks)
    _check(sent, refs, phase)
    return sent


@dataclass
class _Phases:
    nominal: list = field(default_factory=list)
    """Open-loop segments at the nominal rate: ``(t0, t1, log offset, sent)``."""
    mid: list = field(default_factory=list)
    high: list = field(default_factory=list)
    bursts: list = field(default_factory=list)
    plain_bursts: list = field(default_factory=list)
    """Untraced bursts of a traced run."""
    setups: list = field(default_factory=list)
    """Set-up walls (untraced runs only)."""

    @property
    def nominal_sent(self) -> list[loadgen.Sent]:
        return [s for seg in self.nominal for s in seg[3]]


def _measure(ctx, wl, plant, server, refs, patch=None) -> _Phases:
    """Nominal segments interleaved with bursts and set-ups, the upper
    rung in the middle: a slow spell of the host then touches every
    phase alike.

    With ``patch`` (a context-manager factory installing the tracer)
    every phase runs traced, and each segment adds one untraced burst
    to compare its wall with instead of the set-ups."""
    nominal_s = (
        ctx.seconds - wl.high_s - wl.burst_budget_s
    ) / wl.segments - wl.mid_s
    if nominal_s * wl.segments * wl.nominal_rps < MIN_NOMINAL_REQUESTS:
        raise stats.RunTooShort(
            f"{ctx.seconds:g}s leaves {nominal_s * wl.segments:.1f}s at"
            f" {wl.nominal_rps:g} req/s: fewer than"
            f" {MIN_NOMINAL_REQUESTS} requests for the p99"
        )
    rng = np.random.default_rng([ctx.seed, 1])
    order = _burst_order(ctx, plant, wl.burst_copies)
    out = _Phases()
    for i in range(wl.segments):
        with patch() if patch is not None else contextlib.nullcontext():
            offset = len(server.admission_log)
            t0 = time.perf_counter()
            sent = _open_loop(
                server, plant, refs, rng, wl.nominal_rps, nominal_s, "nominal"
            )
            out.nominal.append((t0, time.perf_counter(), offset, sent))
            if wl.mid_rps is not None:
                out.mid.append(_open_loop(
                    server, plant, refs, rng, wl.mid_rps, wl.mid_s, "middle rung"
                ))
            if i == wl.segments // 2:
                out.high.append(_open_loop(
                    server, plant, refs, rng, wl.high_rps, wl.high_s, "upper rung"
                ))
            out.bursts.append(_burst(plant, refs, order))
        if patch is not None:
            out.plain_bursts.append(_burst(plant, refs, order))
        else:
            out.setups += [_setup(plant) for _ in range(SETUP_REPS)]
    return out


def _burst_order(ctx, plant, copies: int) -> list[int]:
    order = np.tile(np.arange(len(plant.prompts)), copies)
    np.random.default_rng([ctx.seed, 2]).shuffle(order)
    return order.tolist()


def run(ctx: Context, wl: ServeWorkload) -> Result:
    plant = _Plant(ctx, wl)
    plant.engine, plant.draft = plant.build()
    server = plant.server().start()
    try:
        refs = _references(plant)
        if ctx.traced:
            result = _traced(ctx, wl, plant, server, refs)
        else:
            result = _untraced(ctx, wl, plant, server, refs)
        result.metrics["rss_peak_mb"] = provenance.tree_peak_mb()
    finally:
        server.stop()
    result.info.update(fixture_s=plant.fixture_s, fixture_cached=plant.cached)
    return result


def _counts(ph: _Phases) -> tuple[int, int]:
    sent = ph.nominal_sent + [s for seg in ph.mid + ph.high for s in seg]
    bursts = ph.bursts + ph.plain_bursts
    attempted = len(sent) + sum(b["requests"] for b in bursts)
    return attempted, _failures(sent) + sum(b["failed"] for b in bursts)


def _untraced(ctx, wl, plant, server, refs) -> Result:
    ph = _measure(ctx, wl, plant, server, refs)
    nominal = ph.nominal_sent
    rungs = [
        _rung(wl.nominal_rps, [seg[3] for seg in ph.nominal]),
        *([_rung(wl.mid_rps, ph.mid)] if ph.mid else []),
        _rung(wl.high_rps, ph.high),
    ]
    best = stats.goodput(rungs, MIN_OK, MAX_BACKLOG)
    # The p50 is timed from submission: the generator's lateness (a
    # GIL hand-off or a late wake-up of this process, 4 to 16 ms at
    # p99 depending on the host's state) would otherwise dominate a
    # 1.5 ms median.  Timed from the due time, it is the tail and the
    # ladder's latency limit.
    ttft = [s.handle.ttft_s * 1e3 for s in nominal if s.ttft_s is not None]
    ttft_due = [s.ttft_s * 1e3 for s in nominal if s.ttft_s is not None]
    tpot = [s.tpot_s * 1e3 for s in nominal if s.tpot_s is not None]
    metrics = {
        "setup_s": stats.median(ph.setups),
        "ttft_ms_p50": stats.percentile(ttft, 50),
        "tpot_ms_p50": stats.percentile(tpot, 50),
        "goodput_rps": best.ok_rps if best is not None else 0.0,
        "tokens_per_s": stats.rate(ph.bursts, "tokens"),
        "trials_per_s": stats.rate(ph.bursts, "requests"),
    }
    info = {
        "rungs": [r.__dict__ | {"passes": stats.rung_passes(r, MIN_OK, MAX_BACKLOG)}
                  for r in rungs],
        "nominal_requests": len(nominal),
        "ttft_due_ms_p50": stats.percentile(ttft_due, 50),
        "ttft_due_ms_tail": stats.tail(ttft_due),
        "tpot_ms_tail": stats.tail(tpot),
        "late_ms_p99": stats.percentile([s.late_s * 1e3 for s in nominal], 99),
        "burst_walls_s": [b["wall"] for b in ph.bursts],
    }
    return Result(metrics, *_counts(ph), info)


# -- traced run ----------------------------------------------------------------


def _spec_and_pump(w: analysis.Windows, bursts: list[dict]) -> tuple[dict, dict]:
    """Speculation and pump numbers from the traced bursts.

    Each target verify chunk of width ``t`` proposes ``t - 1`` draft
    tokens per row; the target-side truncation that follows rolls back
    the rejected ones.  Forward time includes the draft's.
    """
    proposed = verify_rows = 0
    for s in w.spans("inference.forward_chunk_batch"):
        if not s.attrs.get("draft"):
            proposed += s.attrs["rows"] * (s.attrs["tokens"] - 1)
            verify_rows += s.attrs["rows"]
    accepted = proposed - analysis.rejected_tokens(
        w.spans("inference.kv.truncate"), bursts
    )
    forward = analysis.forward_seconds(w)
    tokens = sum(b["tokens"] for b in bursts)
    metrics = {
        "generation.spec.accept_rate": accepted / proposed if proposed else 0.0,
        "generation.spec.tokens_per_round":
            (verify_rows + accepted) / verify_rows if verify_rows else 0.0,
        "generation.spec.draft_ms_frac":
            analysis.forward_seconds(w, draft=True) / forward,
        "serve.pump_overhead_us_per_token": (w.wall - forward) * 1e6 / tokens,
    }
    return metrics, {"proposed": w.per(proposed), "accepted": w.per(accepted)}


def _per_request(span_list, ph: _Phases, server) -> dict:
    """Queue waits, submit cost and occupancy from the traced nominal
    segments.  In each segment the k-th target-pool slot acquisition
    serves the k-th admission in ``admission_log``."""
    pool_id = id(server.pool)
    waits, submits, rows, occupancy = [], [], [], []
    for t0, t1, offset, sent in ph.nominal:
        window = [s for s in span_list if t0 <= s.start <= t1]
        acquires = [
            s for s in window
            if s.name == "inference.kv.acquire" and s.attrs["pool"] == pool_id
        ]
        admitted = [rid for _tenant, rid in server.admission_log[offset:][: len(sent)]]
        if len(admitted) != len(acquires):
            raise RuntimeError(
                f"{len(admitted)} admissions but {len(acquires)} slot acquisitions"
            )
        due = {s.handle.request_id: s.due for s in sent if s.handle is not None}
        waits += [(a.end - due[rid]) * 1e3 for a, rid in zip(acquires, admitted)]
        submits += [s.duration * 1e6 for s in window if s.name == "serve.submit"]
        rows += [
            s.attrs["rows"] for s in window
            if s.name in ("inference.forward_step_batch", "inference.forward_chunk_batch")
            and not s.attrs.get("draft")
        ]
        occupancy.append(analysis.slots_in_use_mean(span_list, t0, t1, pool_id))
    return {
        "serve.queue_wait_ms_p50": stats.percentile(waits, 50),
        "serve.queue_wait_ms_p99": stats.percentile(waits, 99),
        "serve.submit_us_p99": stats.percentile(submits, 99),
        "serve.batch_rows_mean": float(np.mean(rows)),
        "inference.kv.slots_in_use_mean": stats.median(occupancy),
        "loadgen.late_ms_p99":
            stats.percentile([s.late_s * 1e3 for s in ph.nominal_sent], 99),
    }


def _traced(ctx, wl, plant, server, refs) -> Result:
    tracer = sp.Tracer()
    draft_ids = frozenset() if plant.draft is None else frozenset({id(plant.draft)})
    ph = _measure(
        ctx, wl, plant, server, refs,
        patch=lambda: sp.patched(probes.targets(tracer, draft_ids)),
    )
    w = analysis.collect(tracer.spans, [(b["t0"], b["t1"]) for b in ph.bursts])
    metrics = analysis.common(w)
    spec, counts = _spec_and_pump(w, ph.bursts)
    metrics.update(spec)
    metrics.update(_per_request(tracer.spans, ph, server))
    metrics["trace.overhead_frac"] = (
        stats.rate(ph.plain_bursts, "requests") / stats.rate(ph.bursts, "requests")
        - 1.0
    )
    info = {"spec_counts_per_burst": counts, "span_count": len(tracer.spans)}
    return Result(metrics, *_counts(ph), info, tracer.spans)
