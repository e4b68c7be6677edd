"""Draft-and-verify speculative decoding for greedy generation.

The paper's generative campaigns decode one token per target forward;
at small scale every forward is dominated by Python/BLAS dispatch, so
wall clock scales with the *number* of forwards, not their size.
:class:`SpeculativeDecoder` cuts the forward count the way production
engines do: a cheap same-tokenizer **draft model** proposes up to
``speculation_depth`` tokens per round, and the **target** model
verifies the whole proposal in a single multi-token ``forward`` chunk
over its existing KV cache (the chunked-prefill path
:meth:`~repro.inference.engine.InferenceEngine.forward` already
supports).  The longest prefix of the proposal that matches the
target's own greedy choices is accepted; everything after the first
mismatch is rolled back with :meth:`~repro.inference.kvcache.KVCache.truncate`,
and the mismatch position itself still yields one emitted token (the
target's correction) — so every round emits ``accepted + 1`` tokens
for one target forward.

Output equivalence: the emitted tokens are always argmaxes of *target*
logits, so a round with zero accepted proposals degenerates to exactly
one serial step and speculation can never change which tokens are
greedy-optimal under the target.  Chunked verification evaluates the
same positions as the serial loop but through multi-token GEMMs, which
agree with the single-token path up to float associativity — the same
contract as PR 3's batched decoder — and the differential suite plus
the benchmark's pre-timing equivalence gate hold the decoded tokens to
bit-identity with the serial reference.

**FI-safety gate** (:func:`decode_speculation_safe`): speculation
changes the *target's* iteration↔forward mapping (one verify forward
covers several generation iterations, with a scalar iteration tag), so
target-side fault machinery is never safe — an iteration-pinned
computational hook would see the wrong tensor, a weight/KV/accumulator
fault corrupts draft-shaped work the serial path never runs, and
capture records per-forward outputs.  Target-side hooks, faults or
capture force the exact serial reference path, so injected trial
records never depend on the decode strategy.

Draft corruption, by contrast, is masked *by construction*: every
emitted token is an argmax of **target** logits over the true emitted
prefix, so a corrupted proposal can only lower the accept rate — it
can never change the output.  The draft-vs-target masking study
measures exactly that, and both its sides must decode through the
speculative schedule regardless of what is armed, so the campaign's
speculation-side trials bypass the gate explicitly with
``decode_one(..., force=True)`` rather than the gate special-casing
the draft engine (a draft fault under the gate's serial fallback would
silently never fire).
"""

from __future__ import annotations

import time

from repro.generation.decode import (
    GenerationConfig,
    greedy_pick,
    greedy_pick_rows,
)
from repro.inference.engine import InferenceEngine, Session
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["SpeculativeDecoder", "decode_speculation_safe"]


def decode_speculation_safe(
    engine: InferenceEngine, draft: InferenceEngine
) -> bool:
    """Whether speculative decoding preserves exact fault/capture semantics.

    **Target side** — stricter than
    :func:`~repro.generation.batched.decode_batching_safe`: even
    row-scoped computational hooks disqualify, because a verify chunk
    runs several generation iterations inside one forward whose
    iteration tag is the round's first position — an iteration-pinned
    hook would fire on the wrong tensor (or not at all).  Armed KV and
    accumulator faults disqualify for the same reason: the chunked
    forward visits different (iteration, tensor) pairs than the serial
    loop, so strike timing — and therefore the trial record — would
    depend on the decode strategy.  The single exception is hooks
    registered ``observer=True`` (pure probes such as layer timing):
    they never alter tensors, so the reshuffled iteration → forward
    mapping cannot change results and traced runs keep speculating.

    **Draft side** — held to the same bar, even though draft corruption
    is masked by construction (emitted tokens are always argmaxes of
    *target* logits over the true emitted prefix, so a corrupted
    proposal can only lower the accept rate, never change the output).
    The serial fallback runs *without* the draft entirely, so a
    draft-armed fault would silently become a no-op there — whether the
    fault even fires would depend on the decode strategy.  Studies that
    want faults live inside the speculative schedule (draft-side
    masking, target-side interaction) therefore bypass this gate
    explicitly with ``decode_one(..., force=True)`` instead of the gate
    guessing which side is being studied.
    """
    for e in (engine, draft):
        if e.capture is not None or e.weight_fault_depth > 0:
            return False
        if e.kv_fault is not None or e.acc_fault is not None:
            return False
        if len(e.hooks) > 0 and not e.hooks.all_observers():
            return False
    return True


class SpeculativeDecoder:
    """Greedy draft-and-verify decoder over a target/draft engine pair.

    The draft runs its own KV caches alongside the target session; per
    round it first catches up on tokens the target emitted that it has
    not seen (one small chunked forward), proposes ``speculation_depth``
    tokens by argmax, and hands them to the target for chunked
    verification.  Rejected positions are rolled back on both sides by
    cache truncation — no copies, no reallocation.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        draft: InferenceEngine,
        config: GenerationConfig,
        speculation_depth: int = 4,
    ) -> None:
        if speculation_depth < 1:
            raise ValueError("speculation_depth must be >= 1")
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

    def decode_one(
        self,
        prompt_ids: list[int],
        session: Session | None = None,
        force: bool = False,
    ) -> list[int]:
        """Greedy-decode one prompt; same contract as ``greedy_decode``.

        ``session`` optionally supplies an already-prefilled target
        session for ``prompt_ids`` (consumed).  Falls back to the exact
        serial reference loop whenever :func:`decode_speculation_safe`
        says speculation could change results; ``force=True`` skips the
        gate (the target-side speculation study, which *wants* to
        measure how faults interact with the speculative schedule).
        """
        if not force and not decode_speculation_safe(self.engine, self.draft):
            from repro.generation.decode import greedy_decode

            return greedy_decode(
                self.engine, prompt_ids, self.config, session=session,
                strategy="serial",
            )
        tel = _telemetry()
        if not tel.active:
            return self._decode_impl(prompt_ids, session, tel)
        t0 = time.perf_counter()
        with tel.span(
            "decode.speculate",
            depth=self.depth,
            prompt_tokens=len(prompt_ids),
            prefilled=session is not None,
        ) as span:
            out = self._decode_impl(prompt_ids, session, tel)
            span.set(new_tokens=len(out))
        tel.metrics.histogram("decode.speculate_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return out

    def _decode_impl(
        self, prompt_ids: list[int], session: Session | None, tel
    ) -> list[int]:
        engine, draft, config = self.engine, self.draft, self.config
        eos, max_new = config.eos_id, config.max_new_tokens
        if session is None:
            session = engine.start_session(prompt_ids)
        caches = session.caches
        first = greedy_pick(session.last_logits)
        if first == eos:
            return []
        out = [first]
        if max_new == 1:
            return out
        # Invariant maintained by every round: the target caches hold
        # ``prompt + out[:-1]`` — the last emitted token is *pending*
        # (not yet fed) and becomes position 0 of the next verify
        # chunk, exactly like the serial loop's next ``step``.  The
        # draft caches hold ``(prompt + out)[:d_len]``.
        d_caches = draft.new_caches()
        draft.forward(prompt_ids, d_caches, start_pos=0, iteration=0)
        d_len = len(prompt_ids)
        traced = tel.active
        while len(out) < max_new:
            # Never propose past the token budget: the chunk emits at
            # most gamma + 1 tokens, and the serial loop never runs a
            # forward whose logits it would discard.
            gamma = min(self.depth, max_new - len(out) - 1)
            proposals: list[int] = []
            if gamma > 0:
                # Catch the draft up on tokens the target emitted since
                # its cache was last valid (1–2: the previous round's
                # correction/bonus plus possibly a rolled-back slot).
                feed = out[d_len - len(prompt_ids):]
                d_logits = draft.forward(
                    feed, d_caches, start_pos=d_len, iteration=len(out)
                )[-1]
                d_len += len(feed)
                for i in range(gamma):
                    token = greedy_pick(d_logits)
                    proposals.append(token)
                    if i < gamma - 1:
                        d_logits = draft.forward(
                            [token], d_caches, start_pos=d_len,
                            iteration=len(out) + i + 1,
                        )[-1]
                        d_len += 1
            target_len = caches[0].length
            chunk = [out[-1], *proposals]
            logits = engine.forward(
                chunk, caches, start_pos=target_len, iteration=len(out)
            )
            accepted = 0
            stop = False
            for j, token in enumerate(greedy_pick_rows(logits)):
                if token == eos:
                    stop = True
                    break
                out.append(token)
                if j < len(proposals) and token == proposals[j]:
                    accepted += 1
                    continue
                # Mismatch correction or the bonus token after a fully
                # accepted proposal: either way the round ends here.
                break
            if traced:
                tel.metrics.counter("decode.spec_rounds").add()
                tel.metrics.counter("decode.spec_rejected").add(
                    gamma - accepted
                )
                tel.metrics.histogram("decode.spec_accept_len").observe(
                    accepted
                )
            # Roll back rejected K/V on both sides.  The target keeps
            # the pending token plus the accepted proposals (everything
            # emitted except the new pending tail); the draft keeps the
            # accepted proposals it has already stepped through.
            for cache in caches:
                cache.truncate(target_len + 1 + accepted)
            if stop:
                break
            keep = d_len - max(0, (gamma - 1) - min(accepted, gamma - 1))
            for cache in d_caches:
                cache.truncate(keep)
            d_len = keep
        return out
