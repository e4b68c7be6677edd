"""Continuous-batched generative decoding over a pooled KV cache.

The paper's generative campaigns (GSM8k, WMT16, XLSum, SQuAD v2,
§3.3.4) decode one sequence at a time; every trial and every baseline
pays the full per-token Python/dispatch overhead per sequence.
:class:`BatchedDecoder` amortizes it the way production inference
engines do:

* **Continuous batching** — up to ``max_batch`` prompts decode
  together, one :meth:`~repro.inference.engine.InferenceEngine.forward_step_batch`
  per token for the whole batch (flattened GEMMs plus one ragged-row
  attention kernel over every row's own KV prefix) and one row-wise
  greedy pick over its ``(B, vocab)`` logits; a sequence that hits EOS
  or its length limit retires immediately and its slot is back-filled
  from the pending queue, so the batch stays full instead of draining
  to the slowest sequence.  The round is
  :meth:`RowBatch.step <repro.generation.rows.RowBatch.step>`, the one
  core under this decoder, the speculative decoder and the serving
  pump; :meth:`BatchedDecoder.decode_many` is its offline
  :func:`~repro.generation.rows.drive` loop.
* **Pooled KV cache** — sequences decode out of
  :class:`~repro.inference.kvcache.PooledKVCache` slot rows, so
  admissions and refills allocate nothing, and beam forks are bounded
  prefix copies inside the arena instead of fresh full-size caches.
* **Batched beam search** — the ``k`` beams of one example run as batch
  rows sharing the prompt prefix via copy-on-fork
  (:meth:`PooledKVCache.copy_slot`), replacing per-beam
  ``Session.fork`` deep copies.

**FI-safety gate** (:func:`decode_batching_safe`): batching changes
tensor shapes only in ways hooks can observe per row, so it stays
enabled under armed *row-scoped* fault hooks (the one-shot
computational injectors) — each hook invocation receives one row's
``(1, features)`` slice and corrupts exactly one sequence.  Unscoped
hooks (detectors, probes), armed weight faults and activation capture
force the exact serial reference path, mirroring PR 2's option-scoring
gate.  ``B == 1`` batched decoding is bit-identical to the serial path
by construction (same-shaped operations throughout; a lone row's
attention reads its cache views with no padding); ``B > 1`` agrees
up to float associativity and is asserted identical at the
decoded-token level by the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.functional import log_softmax_np
from repro.generation.decode import GenerationConfig
from repro.generation.rows import RowBatch, drive
from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import PooledKVCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["BatchedDecoder", "decode_batching_safe"]


def decode_batching_safe(engine: InferenceEngine) -> bool:
    """Whether batched decoding preserves exact fault/capture semantics.

    True when nothing is armed, or when every armed fault scopes itself
    to a single sequence under batching:

    * *row-scoped hooks* (the one-shot computational injectors) — per-row
      hook application observes the exact serial tensor shapes and
      corrupts exactly one sequence;
    * *KV faults* — sequence-scoped by cache identity: the strike lands
      in one sequence's own cache row (the batched step appends per row
      to per-row caches, and the injector latches on the first append
      reaching its iteration — the same sequence the serial loop would
      strike), and corruption in one slot's K/V is never read by any
      other row's attention;
    * *accumulator faults* — applied per flattened GEMM row with per-row
      iteration matching, so the one-shot strike corrupts exactly one
      sequence's output element.

    Weight faults and activation capture always force the serial path —
    corrupted weights amplify float-associativity differences, and
    capture records per-sequence tensors.  For ``B == 1`` every batched
    operation is shape-identical to serial, so armed KV/accumulator
    faults produce bit-identical trial records either way.
    """
    if engine.capture is not None:
        return False
    if engine.weight_fault_depth > 0:
        return False
    if len(engine.hooks) == 0:
        return True
    return engine.hooks.all_row_scoped()


def _normalized(tokens: list[int], score: float, length_penalty: float) -> float:
    length = max(1, len(tokens))
    return score / length**length_penalty


@dataclass
class _BeamRow:
    """One beam hypothesis backed by a pool slot (``None`` once finished)."""

    slot: int | None
    tokens: list[int]
    score: float
    finished: bool
    logits: np.ndarray | None
    position: int
    iteration: int


class BatchedDecoder:
    """Continuous-batching decode scheduler over a pooled KV cache.

    One decoder owns one arena; reuse it across calls (campaigns keep
    one per run) so admissions never allocate.  All entry points fall
    back to the exact serial reference path whenever
    :func:`decode_batching_safe` says batching could change results.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: GenerationConfig,
        max_batch: int = 8,
        pool: PooledKVCache | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.config = config
        self.max_batch = max_batch
        self._pool = pool

    def _ensure_pool(self, n_slots: int) -> PooledKVCache:
        if self._pool is None or self._pool.n_slots < n_slots:
            self._pool = self.engine.new_pool(n_slots)
        return self._pool

    # -- entry points ----------------------------------------------------------

    def generate_many(
        self,
        prompts: list[list[int]],
        sessions: "list[Session | None] | None" = None,
    ) -> list[list[int]]:
        """Decode every prompt with the configured strategy.

        Greedy configs run the continuous-batching scheduler across
        prompts; beam configs run one batched beam search per prompt
        (the beams are the batch).  ``sessions`` optionally supplies
        already-prefilled sessions (consumed) aligned with ``prompts``.
        """
        if sessions is None:
            sessions = [None] * len(prompts)
        if len(sessions) != len(prompts):
            raise ValueError("sessions must align with prompts")
        if self.config.num_beams > 1:
            return [
                self.beam_decode(p, session=s) for p, s in zip(prompts, sessions)
            ]
        return self.decode_many(prompts, sessions=sessions)

    def decode_one(
        self, prompt_ids: list[int], session: Session | None = None
    ) -> list[int]:
        """Single-sequence greedy decode through the batched machinery."""
        return self.decode_many([prompt_ids], sessions=[session])[0]

    # -- greedy continuous batching --------------------------------------------

    def decode_many(
        self,
        prompts: list[list[int]],
        sessions: "list[Session | None] | None" = None,
    ) -> list[list[int]]:
        """Greedy-decode many prompts with continuous batching.

        Sequences are admitted up to ``max_batch``, stepped as one
        batched forward per token, retired on EOS/length, and retired
        slots are immediately back-filled from the pending queue.
        Per-sequence outputs are identical to serial ``greedy_decode``
        (bit-identical at ``B == 1``; argmax-identical above).
        """
        if sessions is None:
            sessions = [None] * len(prompts)
        if len(sessions) != len(prompts):
            raise ValueError("sessions must align with prompts")
        if not decode_batching_safe(self.engine):
            from repro.generation.decode import greedy_decode

            return [
                greedy_decode(self.engine, p, self.config, session=s,
                              strategy="serial")
                for p, s in zip(prompts, sessions)
            ]
        tel = _telemetry()
        pool = self._ensure_pool(min(self.max_batch, max(1, len(prompts))))
        batch = RowBatch(self.engine, pool, self.config.eos_id, self.max_batch)
        max_new = self.config.max_new_tokens
        if not tel.active:
            return drive(batch, prompts, max_new, sessions, tel)
        with tel.span(
            "decode.batch",
            prompts=len(prompts),
            max_batch=self.max_batch,
        ) as span:
            results = drive(batch, prompts, max_new, sessions, tel)
            span.set(new_tokens=sum(len(r) for r in results))
        return results

    # -- batched beam search ---------------------------------------------------

    def beam_decode(
        self, prompt_ids: list[int], session: Session | None = None
    ) -> list[int]:
        """Beam search with the ``k`` beams as batch rows.

        Mirrors the serial algorithm decision-for-decision (same
        candidate scores, same sort, same lazy-fork rule) but steps all
        unfinished beams in one batched forward and forks via bounded
        prefix copies inside the pool instead of full cache clones.
        """
        if not decode_batching_safe(self.engine):
            from repro.generation.decode import beam_search_decode

            return beam_search_decode(
                self.engine, prompt_ids, self.config, session=session,
                strategy="serial",
            )
        k = self.config.num_beams
        pool = self._ensure_pool(max(2 * k, 1))
        tel = _telemetry()
        owned: set[int] = set()

        def acquire() -> int:
            slot = pool.acquire()
            owned.add(slot)
            return slot

        def release(slot: int) -> None:
            owned.discard(slot)
            pool.release(slot)

        try:
            return self._beam_decode_impl(
                prompt_ids, session, k, pool, acquire, release, tel
            )
        finally:
            for slot in list(owned):
                pool.release(slot)

    def _beam_decode_impl(
        self, prompt_ids, session, k, pool, acquire, release, tel
    ) -> list[int]:
        engine = self.engine
        config = self.config
        root_slot = acquire()
        if session is not None:
            pool.load(root_slot, session.caches)
            root = _BeamRow(
                slot=root_slot,
                tokens=[],
                score=0.0,
                finished=False,
                logits=session.last_logits,
                position=session.position,
                iteration=session.iteration,
            )
        else:
            caches = pool.caches(root_slot)
            logits = engine.forward(
                prompt_ids, caches, start_pos=0, iteration=0
            )[-1]
            root = _BeamRow(
                slot=root_slot,
                tokens=[],
                score=0.0,
                finished=False,
                logits=logits,
                position=len(prompt_ids),
                iteration=0,
            )
        prompt_len = root.position
        beams = [root]
        for _ in range(config.max_new_tokens):
            if all(b.finished for b in beams):
                break
            candidates: list[tuple[float, _BeamRow, int, float]] = []
            for beam in beams:
                if beam.finished:
                    candidates.append(
                        (
                            _normalized(
                                beam.tokens, beam.score, config.length_penalty
                            ),
                            beam,
                            -1,
                            beam.score,
                        )
                    )
                    continue
                logp = log_softmax_np(
                    np.nan_to_num(
                        beam.logits, nan=-1e9, posinf=1e9, neginf=-1e9
                    )
                )
                top = np.argpartition(logp, -k)[-k:]
                for token in top:
                    score = beam.score + float(logp[token])
                    length = max(1, len(beam.tokens) + 1)
                    candidates.append(
                        (score / length**config.length_penalty, beam,
                         int(token), score)
                    )
            candidates.sort(key=lambda c: c[0], reverse=True)
            next_beams: list[_BeamRow] = []
            reused: set[int] = set()
            for _norm, beam, token, raw_score in candidates:
                if len(next_beams) == k:
                    break
                if token == -1:
                    next_beams.append(beam)
                    continue
                if token == config.eos_id:
                    # EOS terminates, not emitted — finished beams never
                    # step again, so they drop their cache row.
                    next_beams.append(
                        _BeamRow(
                            slot=None,
                            tokens=beam.tokens,
                            score=raw_score,
                            finished=True,
                            logits=None,
                            position=beam.position,
                            iteration=beam.iteration,
                        )
                    )
                    continue
                # Copy-on-fork: the first stepping extension of a beam
                # inherits its slot; later ones copy the filled prefix
                # into a fresh slot (bounded copy, no allocation).
                if id(beam) not in reused:
                    reused.add(id(beam))
                    slot = beam.slot
                else:
                    slot = acquire()
                    pool.copy_slot(beam.slot, slot)
                next_beams.append(
                    _BeamRow(
                        slot=slot,
                        tokens=[*beam.tokens, token],
                        score=raw_score,
                        finished=False,
                        logits=None,
                        position=beam.position,
                        iteration=beam.iteration,
                    )
                )
            # Release slots of beams that no surviving hypothesis kept.
            kept = {b.slot for b in next_beams if b.slot is not None}
            for beam in beams:
                if beam.slot is not None and beam.slot not in kept:
                    release(beam.slot)
            beams = next_beams
            # One batched forward advances every beam that gained a
            # token (the serial loop steps them one session at a time).
            step_rows = [
                b
                for b in beams
                if not b.finished
                and b.tokens
                and b.position == prompt_len + len(b.tokens) - 1
            ]
            if step_rows:
                if tel.active:
                    tel.metrics.histogram("decode.batch_occupancy").observe(
                        len(step_rows)
                    )
                logits = engine.forward_step_batch(
                    [b.tokens[-1] for b in step_rows],
                    [pool.caches(b.slot) for b in step_rows],
                    [b.position for b in step_rows],
                    [b.iteration + 1 for b in step_rows],
                )
                for i, b in enumerate(step_rows):
                    b.logits = logits[i]
                    b.position += 1
                    b.iteration += 1
        best = max(
            beams,
            key=lambda b: _normalized(b.tokens, b.score, config.length_penalty),
        )
        return best.tokens
