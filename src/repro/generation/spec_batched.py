"""Batched speculative decoding: draft-and-verify × continuous batching.

The repo's two biggest decode speedups were mutually exclusive:
:class:`~repro.generation.speculative.SpeculativeDecoder` cuts target
forwards per sequence but runs one sequence at a time (BENCH_spec.json:
1.69× vs serial, **0.68× vs batched**), while
:class:`~repro.generation.batched.BatchedDecoder` amortizes dispatch
across sequences but still pays one target forward per token.
:class:`BatchedSpeculativeDecoder` composes them so the speedups
multiply instead of competing:

* each round the **draft** engine proposes up to ``gamma`` tokens for
  all live rows at once — a grouped
  :meth:`~repro.inference.engine.InferenceEngine.forward_chunk_batch`
  catch-up plus ``gamma - 1``
  :meth:`~repro.inference.engine.InferenceEngine.forward_step_batch`
  steps over the draft's own :class:`~repro.inference.kvcache.PooledKVCache`;
* the **target** verifies every row's proposal chunk in one batched
  ``forward_chunk_batch`` per distinct chunk length (rows are ragged —
  budgets differ — so chunks are grouped by length rather than padded);
* per-row accepted prefixes commit and rejects roll back via per-slot
  :meth:`~repro.inference.kvcache.KVCache.truncate` on the pooled slot
  views — which fires the cache's truncation watchers, so a pinned
  KV-fault injector restores its flipped bits and re-arms exactly as it
  does under serial speculative rollback;
* ragged accept lengths retire rows at round granularity and back-fill
  freed slots from the pending queue (continuous batching at the round
  level).

**Equivalence contract**: every emitted token is an argmax of *target*
logits over the true emitted prefix, so the composed schedule can never
change which tokens are greedy-optimal — outputs are token-identical to
serial ``greedy_decode`` (bit-identical logits at batch width 1, argmax-
identical above, the same float-associativity contract as the batched
decoder).  At batch width 1 the round schedule reduces exactly to
:class:`~repro.generation.speculative.SpeculativeDecoder`.

**FI-safety gate matrix** (:meth:`BatchedSpeculativeDecoder.decode_many`):

================================  ==========================  ============
armed machinery                   speculation × batching      decode path
================================  ==========================  ============
nothing / observer-only hooks     safe × safe                 composed
row-scoped computational hooks    unsafe × safe               batched
sequence-scoped kv / acc faults   unsafe × safe               batched
capture / weight faults           unsafe × unsafe             serial
non-row-scoped hooks              unsafe × unsafe             serial
================================  ==========================  ============

Speculation is gated strictly (:func:`decode_speculation_safe` — a
verify chunk covers several generation iterations under one scalar tag,
so anything iteration-pinned would mis-fire), while batching admits
row-scoped hooks and sequence-scoped kv/acc faults
(:func:`decode_batching_safe`).  The ``spec_fault_side`` studies, which
*want* faults inside the speculative schedule, keep bypassing the gate
through the serial decoder's ``decode_one(force=True)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.generation.batched import BatchedDecoder, decode_batching_safe
from repro.generation.decode import (
    GenerationConfig,
    greedy_pick,
    greedy_pick_rows,
)
from repro.generation.speculative import decode_speculation_safe
from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import KVCache, PooledKVCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["BatchedSpeculativeDecoder"]


@dataclass
class _SpecRow:
    """One live sequence: target + draft slot state for the round loop."""

    index: int
    slot: int | None
    caches: list[KVCache]
    d_slot: int
    d_caches: list[KVCache]
    d_len: int
    prompt_len: int
    out: list[int] = field(default_factory=list)


class BatchedSpeculativeDecoder:
    """Greedy draft-and-verify decoding over a continuous batch.

    Same output contract as ``greedy_decode`` per prompt; rows share
    pooled KV arenas on both the target and draft side and advance in
    lockstep rounds whose per-row accept lengths are ragged.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        draft: InferenceEngine,
        config: GenerationConfig,
        speculation_depth: int = 4,
        max_batch: int = 8,
        pool: PooledKVCache | None = None,
        draft_pool: PooledKVCache | None = None,
    ) -> None:
        if speculation_depth < 1:
            raise ValueError("speculation_depth must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if draft.config.vocab_size != engine.config.vocab_size:
            raise ValueError(
                "draft/target vocabulary mismatch:"
                f" draft has {draft.config.vocab_size} tokens,"
                f" target has {engine.config.vocab_size};"
                " speculative decoding needs a same-tokenizer pair"
            )
        self.engine = engine
        self.draft = draft
        self.config = config
        self.depth = speculation_depth
        self.max_batch = max_batch
        self._pool = pool
        self._draft_pool = draft_pool

    # -- pools ------------------------------------------------------------------

    def _pools(self, width: int) -> tuple[PooledKVCache, PooledKVCache]:
        if self._pool is None or self._pool.n_slots < width:
            self._pool = self.engine.new_pool(width)
        if self._draft_pool is None or self._draft_pool.n_slots < width:
            self._draft_pool = self.draft.new_pool(width)
        return self._pool, self._draft_pool

    # -- public API -------------------------------------------------------------

    def decode_many(
        self,
        prompts: list[list[int]],
        sessions: "list[Session | None] | None" = None,
    ) -> list[list[int]]:
        """Greedy-decode every prompt; same contract as ``greedy_decode``
        applied prompt-by-prompt.

        ``sessions`` optionally supplies already-prefilled target
        sessions (consumed), aligned with ``prompts``; the draft side
        always prefills into its own pool.  The FI gate matrix picks the
        fastest decode path that preserves exact fault semantics:
        composed batched-speculative when both gates pass, plain
        continuous batching when only batching is safe (row-scoped hooks,
        sequence-scoped kv/acc faults), and the exact serial reference
        loop otherwise.
        """
        if not prompts:
            return []
        if sessions is not None and len(sessions) != len(prompts):
            raise ValueError(
                f"{len(prompts)} prompts but {len(sessions)} sessions"
            )
        if not decode_speculation_safe(self.engine, self.draft):
            if decode_batching_safe(self.engine):
                return BatchedDecoder(
                    self.engine, self.config, max_batch=self.max_batch,
                    pool=self._pool,
                ).decode_many(prompts, sessions=sessions)
            from repro.generation.decode import greedy_decode

            return [
                greedy_decode(
                    self.engine, prompt, self.config,
                    session=None if sessions is None else sessions[i],
                    strategy="serial",
                )
                for i, prompt in enumerate(prompts)
            ]
        tel = _telemetry()
        if not tel.active:
            return self._decode_many_impl(prompts, sessions, tel)
        t0 = time.perf_counter()
        with tel.span(
            "decode.spec_batch",
            depth=self.depth,
            prompts=len(prompts),
            max_batch=self.max_batch,
        ) as span:
            out = self._decode_many_impl(prompts, sessions, tel)
            span.set(new_tokens=sum(len(ids) for ids in out))
        tel.metrics.histogram("decode.spec_batch_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return out

    # -- composed round loop ----------------------------------------------------

    def _decode_many_impl(
        self,
        prompts: list[list[int]],
        sessions: "list[Session | None] | None",
        tel,
    ) -> list[list[int]]:
        engine, draft, config = self.engine, self.draft, self.config
        eos, max_new = config.eos_id, config.max_new_tokens
        results: list[list[int]] = [[] for _ in prompts]
        width = min(self.max_batch, len(prompts))
        pool, d_pool = self._pools(width)
        traced = tel.active
        pending = list(range(len(prompts)))
        pending.reverse()  # pop() admits in prompt order
        active: list[_SpecRow] = []

        def finish(row: _SpecRow) -> None:
            results[row.index] = row.out
            if row.slot is not None:
                pool.release(row.slot)
            d_pool.release(row.d_slot)
            if traced:
                # Real admissible capacity, *after* the eager release.
                tel.metrics.gauge("decode.free_slots").set(pool.n_free)

        def admit(refill: bool) -> None:
            """Prefill pending prompts into free slots (both sides).

            EOS-as-first-token and one-token budgets retire before the
            draft side is ever touched — such a row never joins a round.
            """
            while pending and len(active) < width and d_pool.n_free > 0:
                index = pending.pop()
                if traced and refill:
                    tel.metrics.counter("decode.slot_refills").add()
                prompt = prompts[index]
                session = None if sessions is None else sessions[index]
                if session is not None:
                    slot, caches = None, session.caches
                    logits = session.last_logits
                else:
                    slot = pool.acquire()
                    caches = pool.caches(slot)
                    logits = engine.forward(
                        prompt, caches, start_pos=0, iteration=0
                    )[-1]
                first = greedy_pick(logits)
                if first == eos:
                    results[index] = []
                    if slot is not None:
                        pool.release(slot)
                    continue
                if max_new == 1:
                    results[index] = [first]
                    if slot is not None:
                        pool.release(slot)
                    continue
                d_slot = d_pool.acquire()
                d_caches = d_pool.caches(d_slot)
                draft.forward(prompt, d_caches, start_pos=0, iteration=0)
                active.append(
                    _SpecRow(
                        index=index,
                        slot=slot,
                        caches=caches,
                        d_slot=d_slot,
                        d_caches=d_caches,
                        d_len=len(prompt),
                        prompt_len=len(prompt),
                        out=[first],
                    )
                )

        admit(refill=False)
        while active:
            if traced:
                tel.metrics.histogram("decode.batch_occupancy").observe(
                    len(active)
                )
            # Same per-row budget rule as the serial round: never
            # propose past the token budget (the chunk emits at most
            # gamma + 1 tokens).
            gammas = [
                min(self.depth, max_new - len(row.out) - 1) for row in active
            ]
            proposals: list[list[int]] = [[] for _ in active]
            prop = [i for i, g in enumerate(gammas) if g > 0]
            d_logits: dict[int, np.ndarray] = {}
            if prop:
                # Draft catch-up on tokens the target emitted since the
                # draft cache was last valid (1–2 per row); feeds are
                # ragged, so group rows by feed length.
                feeds = {
                    i: active[i].out[active[i].d_len - active[i].prompt_len:]
                    for i in prop
                }
                for group in _by_length(prop, lambda i: len(feeds[i])):
                    logits = draft.forward_chunk_batch(
                        [feeds[i] for i in group],
                        [active[i].d_caches for i in group],
                        [active[i].d_len for i in group],
                        [len(active[i].out) for i in group],
                    )
                    for j, i in enumerate(group):
                        d_logits[i] = logits[j][-1]
                        active[i].d_len += len(feeds[i])
                # Propose gamma tokens per row: one draft step batch per
                # depth level, rows dropping out as their gamma is met.
                for step in range(max(gammas)):
                    alive = [i for i in prop if gammas[i] > step]
                    for i in alive:
                        proposals[i].append(greedy_pick(d_logits[i]))
                    feed = [i for i in alive if gammas[i] > step + 1]
                    if feed:
                        logits = draft.forward_step_batch(
                            [proposals[i][-1] for i in feed],
                            [active[i].d_caches for i in feed],
                            [active[i].d_len for i in feed],
                            [len(active[i].out) + step + 1 for i in feed],
                        )
                        for j, i in enumerate(feed):
                            d_logits[i] = logits[j]
                            active[i].d_len += 1
            # Batched verification: one target chunk forward per
            # distinct chunk length (pending token + proposals).
            target_lens = [row.caches[0].length for row in active]
            chunks = [
                [active[i].out[-1], *proposals[i]] for i in range(len(active))
            ]
            v_logits: dict[int, np.ndarray] = {}
            for group in _by_length(
                list(range(len(active))), lambda i: len(chunks[i])
            ):
                logits = engine.forward_chunk_batch(
                    [chunks[i] for i in group],
                    [active[i].caches for i in group],
                    [target_lens[i] for i in group],
                    [len(active[i].out) for i in group],
                )
                for j, i in enumerate(group):
                    v_logits[i] = logits[j]
            # Per-row commit/rollback — the serial accept walk verbatim.
            still: list[_SpecRow] = []
            for i, row in enumerate(active):
                accepted = 0
                stop = False
                for j, token in enumerate(greedy_pick_rows(v_logits[i])):
                    if token == eos:
                        stop = True
                        break
                    row.out.append(token)
                    if j < len(proposals[i]) and token == proposals[i][j]:
                        accepted += 1
                        continue
                    break
                if traced:
                    tel.metrics.counter("decode.spec_rounds").add()
                    tel.metrics.counter("decode.spec_rejected").add(
                        gammas[i] - accepted
                    )
                    tel.metrics.histogram("decode.spec_accept_len").observe(
                        accepted
                    )
                # Roll back rejected K/V: per-slot truncation fires the
                # cache watchers, so a pinned KV-fault injector restores
                # and re-arms without touching sibling slots.
                for cache in row.caches:
                    cache.truncate(target_lens[i] + 1 + accepted)
                if stop or len(row.out) >= max_new:
                    finish(row)
                    continue
                keep = row.d_len - max(
                    0, (gammas[i] - 1) - min(accepted, gammas[i] - 1)
                )
                for cache in row.d_caches:
                    cache.truncate(keep)
                row.d_len = keep
                still.append(row)
            active = still
            admit(refill=True)
        return results


def _by_length(indices: list[int], length) -> list[list[int]]:
    """Group ``indices`` by ``length(i)``, preserving order within each
    group (ragged rows become one rectangular engine call per length)."""
    groups: dict[int, list[int]] = {}
    for i in indices:
        groups.setdefault(length(i), []).append(i)
    return list(groups.values())
