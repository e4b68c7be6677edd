"""Decoding strategies: greedy / beam search / option scoring /
continuous batching / speculative draft-and-verify."""

from repro.generation.batched import BatchedDecoder, decode_batching_safe
from repro.generation.decode import (
    GenerationConfig,
    beam_search_decode,
    choose_option,
    generate_ids,
    greedy_decode,
    greedy_pick,
    greedy_pick_rows,
    score_continuation,
    score_options,
)
from repro.generation.spec_batched import BatchedSpeculativeDecoder
from repro.generation.speculative import (
    SpeculativeDecoder,
    decode_speculation_safe,
)

__all__ = [
    "BatchedDecoder",
    "BatchedSpeculativeDecoder",
    "GenerationConfig",
    "SpeculativeDecoder",
    "beam_search_decode",
    "choose_option",
    "decode_batching_safe",
    "decode_speculation_safe",
    "generate_ids",
    "greedy_decode",
    "greedy_pick",
    "greedy_pick_rows",
    "score_continuation",
    "score_options",
]
