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

The round is :meth:`RowBatch.spec_round
<repro.generation.rows.RowBatch.spec_round>`, one core under this
decoder, :class:`~repro.generation.batched.BatchedDecoder` and the
serving pump of :class:`~repro.serve.server.InferenceServer`;
:meth:`BatchedSpeculativeDecoder.decode_many` is its offline
:func:`~repro.generation.rows.drive` loop.

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

from repro.generation.batched import BatchedDecoder, decode_batching_safe
from repro.generation.decode import GenerationConfig
from repro.generation.rows import RowBatch, drive
from repro.generation.speculative import decode_speculation_safe
from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import PooledKVCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["BatchedSpeculativeDecoder"]


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
        width = min(self.max_batch, len(prompts))
        pool, d_pool = self._pools(width)
        batch = RowBatch(
            self.engine, pool, self.config.eos_id, width,
            draft=self.draft, draft_pool=d_pool, depth=self.depth,
        )
        max_new = self.config.max_new_tokens
        if not tel.active:
            return drive(batch, prompts, max_new, sessions, tel)
        t0 = time.perf_counter()
        with tel.span(
            "decode.spec_batch",
            depth=self.depth,
            prompts=len(prompts),
            max_batch=self.max_batch,
        ) as span:
            out = drive(batch, prompts, max_new, sessions, tel)
            span.set(new_tokens=sum(len(ids) for ids in out))
        tel.metrics.histogram("decode.spec_batch_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return out
