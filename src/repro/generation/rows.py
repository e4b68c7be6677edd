"""The batched greedy round: one core under every continuous batch.

:class:`RowBatch` owns the rows of one continuous batch over a pooled
KV cache and advances them a round at a time — one batched
:meth:`~repro.inference.engine.InferenceEngine.forward_step_batch` per
token, or, with a draft engine attached, one draft-and-verify round.
Three drivers sit on top: :func:`drive`, the offline loop behind
``BatchedDecoder.decode_many`` and ``BatchedSpeculativeDecoder.decode_many``
(:mod:`repro.generation.batched`, :mod:`repro.generation.spec_batched`),
and the streaming pump of :class:`~repro.serve.server.InferenceServer`.

Every round returns ``(row, n_new, finish_reason)`` per row: ``n_new``
tokens were appended to ``row.out`` and ``finish_reason`` is ``"eos"``,
``"length"`` or ``None``.  Finished rows stay in the batch until their
driver calls :meth:`RowBatch.close`, which releases their slots.  A
row's position is its target cache length and its iteration tag is
``len(row.out)``: both equal the serial loops' counters, so an armed KV
or accumulator fault strikes the step it would strike serially.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.generation.decode import greedy_pick, greedy_pick_rows
from repro.inference.engine import InferenceEngine, Session
from repro.inference.kvcache import KVCache, PooledKVCache
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["Row", "RowBatch", "drive"]


@dataclass(eq=False)
class Row:
    """One sequence of a batch: prompt, budget, caches and output."""

    prompt: list[int]
    max_new: int
    slot: int | None
    """Target pool slot, or ``None`` when the caches are a session's."""
    caches: list[KVCache]
    session: Session | None = None
    tag: object = None
    """The driver's handle for the row (the server's request)."""
    out: list[int] = field(default_factory=list)
    d_slot: int | None = None
    d_caches: list[KVCache] | None = None
    accepted: int = 0
    """Draft tokens the last speculative round accepted."""


class RowBatch:
    """Rows decoding together over one target (and draft) pool.

    At most ``width`` rows are open at once.  With a ``draft`` engine
    each round speculates ``depth`` tokens per row; a row joins the
    draft pool at the start of its first round that proposes, after its
    first token is already with the driver.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        pool: PooledKVCache,
        eos_id: int,
        width: int,
        draft: InferenceEngine | None = None,
        draft_pool: PooledKVCache | None = None,
        depth: int = 4,
    ) -> None:
        self.engine = engine
        self.pool = pool
        self.eos_id = eos_id
        self.draft = draft
        self.draft_pool = draft_pool
        self.depth = depth
        self.width = width if draft_pool is None else min(width, draft_pool.n_slots)
        self.rows: list[Row] = []

    def room(self) -> bool:
        """Whether another row can be opened now."""
        return len(self.rows) < self.width and self.pool.n_free > 0

    def open(
        self, prompt: list[int], max_new: int, session: Session | None = None,
        tag: object = None,
    ) -> Row:
        """Add a row; it holds a pool slot unless ``session`` (already
        prefilled, consumed) supplies its caches."""
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        if session is not None:
            row = Row(prompt, max_new, None, session.caches, session, tag)
        else:
            slot = self.pool.acquire()
            row = Row(prompt, max_new, slot, self.pool.caches(slot), tag=tag)
        self.rows.append(row)
        return row

    def prefill(self, row: Row) -> tuple[Row, int, str | None]:
        """Run the prompt forward (or adopt the session's logits) and
        take the first token."""
        if row.session is not None:
            logits = row.session.last_logits
        else:
            logits = self.engine.forward(
                row.prompt, row.caches, start_pos=0, iteration=0
            )[-1]
        return self._accept(row, [greedy_pick(logits)])

    def close(self, row: Row) -> None:
        """Drop a row from the batch and release its slots (idempotent)."""
        if row in self.rows:
            self.rows.remove(row)
        if row.slot is not None:
            self.pool.release(row.slot)
            row.slot = None
        if row.d_slot is not None:
            self.draft_pool.release(row.d_slot)
            row.d_slot = None

    def advance(self) -> list[tuple[Row, int, str | None]]:
        """One round over every open row: a speculative round when a
        draft is attached, else one token step."""
        return self.step() if self.draft is None else self.spec_round()

    def step(self) -> list[tuple[Row, int, str | None]]:
        """Every row decodes one token in one batched forward."""
        rows = self.rows
        logits = self.engine.forward_step_batch(
            [row.out[-1] for row in rows],
            [row.caches for row in rows],
            [row.caches[0].length for row in rows],
            [len(row.out) for row in rows],
        )
        return [
            self._accept(row, [token])
            for row, token in zip(rows, greedy_pick_rows(logits))
        ]

    def spec_round(self) -> list[tuple[Row, int, str | None]]:
        """One draft-and-verify round over every row.

        The draft proposes up to ``depth`` tokens per row (never past
        the row's budget: the verify chunk emits at most ``gamma + 1``);
        the target verifies each row's chunk in one
        ``forward_chunk_batch`` per distinct chunk length; each row keeps
        its target picks up to the first that differs from its proposal.
        Rejected K/V rolls back by per-slot truncation, which fires the
        cache watchers, so a pinned KV-fault injector restores its bits
        and re-arms without touching sibling slots.
        """
        rows, draft = self.rows, self.draft
        gammas = [min(self.depth, row.max_new - len(row.out) - 1) for row in rows]
        proposals: list[list[int]] = [[] for _ in rows]
        prop = [i for i, g in enumerate(gammas) if g > 0]
        d_logits: dict[int, np.ndarray] = {}
        # A row joins the draft side in its first proposing round, so
        # its first token never waits on a draft prompt forward.
        for i in prop:
            row = rows[i]
            if row.d_slot is None:
                row.d_slot = self.draft_pool.acquire()
                row.d_caches = self.draft_pool.caches(row.d_slot)
                draft.forward(row.prompt, row.d_caches, start_pos=0, iteration=0)
        # Draft catch-up on tokens the target emitted since the draft
        # cache was last valid (1-2 per row), grouped by feed length.
        feeds = {
            i: rows[i].out[rows[i].d_caches[0].length - len(rows[i].prompt):]
            for i in prop
        }
        for group in _by_length(prop, lambda i: len(feeds[i])):
            logits = draft.forward_chunk_batch(
                [feeds[i] for i in group],
                [rows[i].d_caches for i in group],
                [rows[i].d_caches[0].length for i in group],
                [len(rows[i].out) for i in group],
            )
            for j, i in enumerate(group):
                d_logits[i] = logits[j][-1]
        # One draft step batch per depth level; rows drop out as their
        # gamma is met (the last proposal is never fed).
        for step in range(max(gammas)):
            alive = [i for i in prop if gammas[i] > step]
            for i in alive:
                proposals[i].append(greedy_pick(d_logits[i]))
            feed = [i for i in alive if gammas[i] > step + 1]
            if feed:
                logits = draft.forward_step_batch(
                    [proposals[i][-1] for i in feed],
                    [rows[i].d_caches for i in feed],
                    [rows[i].d_caches[0].length for i in feed],
                    [len(rows[i].out) + step + 1 for i in feed],
                )
                for j, i in enumerate(feed):
                    d_logits[i] = logits[j]
        target_lens = [row.caches[0].length for row in rows]
        chunks = [[row.out[-1], *proposals[i]] for i, row in enumerate(rows)]
        v_logits: dict[int, np.ndarray] = {}
        for group in _by_length(range(len(rows)), lambda i: len(chunks[i])):
            logits = self.engine.forward_chunk_batch(
                [chunks[i] for i in group],
                [rows[i].caches for i in group],
                [target_lens[i] for i in group],
                [len(rows[i].out) for i in group],
            )
            for j, i in enumerate(group):
                v_logits[i] = logits[j]
        tel = _telemetry()
        results = []
        for i, row in enumerate(rows):
            result = self._accept(row, greedy_pick_rows(v_logits[i]), proposals[i])
            results.append(result)
            if tel.active:
                tel.metrics.counter("decode.spec_rounds").add()
                tel.metrics.counter("decode.spec_rejected").add(
                    gammas[i] - row.accepted
                )
                tel.metrics.histogram("decode.spec_accept_len").observe(
                    row.accepted
                )
            for cache in row.caches:
                cache.truncate(target_lens[i] + 1 + row.accepted)
            if result[2] is None:
                g = gammas[i]
                keep = row.d_caches[0].length - (g - 1 - min(row.accepted, g - 1))
                for cache in row.d_caches:
                    cache.truncate(keep)
        return results

    def _accept(
        self, row: Row, picks: list[int], proposal: "list[int] | tuple" = ()
    ) -> tuple[Row, int, str | None]:
        """Append ``picks`` up to EOS or the first pick that differs from
        ``proposal`` (that pick is still the target's and is kept)."""
        before = len(row.out)
        row.accepted = 0
        reason = None
        for j, token in enumerate(picks):
            if token == self.eos_id:
                reason = "eos"
                break
            row.out.append(token)
            if j < len(proposal) and token == proposal[j]:
                row.accepted += 1
                continue
            break
        if reason is None and len(row.out) >= row.max_new:
            reason = "length"
        return row, len(row.out) - before, reason


def drive(
    batch: RowBatch,
    prompts: list[list[int]],
    max_new: int,
    sessions: "list[Session | None] | None",
    tel,
) -> list[list[int]]:
    """Decode every prompt through ``batch``; outputs in prompt order.

    Rows are admitted in prompt order while the batch has room, and the
    slots that rows free each round are back-filled before the next.
    Every opened row is closed, also when a forward raises.
    """
    results: list[list[int]] = [[] for _ in prompts]
    pending = deque(range(len(prompts)))
    traced = tel.active

    def retire(row: Row) -> None:
        batch.close(row)
        if traced:
            # Real admissible capacity, after the eager release.
            tel.metrics.gauge("decode.free_slots").set(batch.pool.n_free)

    refill = False
    try:
        while True:
            while pending and batch.room():
                index = pending.popleft()
                row = batch.open(
                    prompts[index], max_new,
                    None if sessions is None else sessions[index],
                )
                results[index] = row.out
                if traced and refill:
                    tel.metrics.counter("decode.slot_refills").add()
                if batch.prefill(row)[2] is not None:
                    retire(row)
            if traced:
                tel.metrics.gauge("decode.free_slots").set(batch.pool.n_free)
            if not batch.rows:
                return results
            if traced:
                tel.metrics.histogram("decode.batch_occupancy").observe(
                    len(batch.rows)
                )
            for row, _n_new, reason in batch.advance():
                if reason is not None:
                    retire(row)
            refill = True
    finally:
        for row in list(batch.rows):
            batch.close(row)


def _by_length(indices, length) -> list[list[int]]:
    """Group ``indices`` by ``length(i)``, preserving order within each
    group (ragged rows become one rectangular engine call per length)."""
    groups: dict[int, list[int]] = {}
    for i in indices:
        groups.setdefault(length(i), []).append(i)
    return list(groups.values())
