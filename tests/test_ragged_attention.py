"""The ragged-row attention kernel and the batched greedy pick.

``forward_step_batch`` and ``forward_chunk_batch`` share one attention
kernel that pads every row's filled K/V prefix out to the longest row.
The properties below pin down what that padding must never change:

* stale K/V past a row's length (a released slot's leftovers, possibly
  NaN or inf from a fault) never reaches any row's logits — not even
  as ``0 * NaN`` under the mask;
* ``B == 1`` takes no padding and stays bit-identical to the serial
  1-D :meth:`InferenceEngine.forward`;
* ``B > 1`` agrees with running each row alone up to float
  associativity, and at the argmax level.

The row-wise greedy pick must reproduce the scalar ``np.nanargmax``
rule row for row, NaN rows included.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generation import greedy_pick, greedy_pick_rows
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.obs import telemetry
from repro.obs.instrument import attach_layer_timing

VOCAB = 40
MAX_SEQ = 24
POISON = np.array([np.nan, np.inf, -np.inf, np.nan], dtype=np.float32)

_ENGINE: InferenceEngine | None = None


def _engine() -> InferenceEngine:
    """Module-cached engine (hypothesis forbids function-scoped fixtures)."""
    global _ENGINE
    if _ENGINE is None:
        config = ModelConfig(
            vocab_size=VOCAB, d_model=32, n_heads=4, n_blocks=2, d_ff=48,
            max_seq=MAX_SEQ,
        )
        _ENGINE = InferenceEngine(TransformerLM(config, seed=21).to_store())
    return _ENGINE


@st.composite
def ragged_calls(draw):
    """A ragged batch: per-row prefix lengths, chunk width, token ids.

    One row always ends exactly at ``max_seq`` after its append, so the
    longest row has no tail at all.
    """
    batch = draw(st.integers(min_value=1, max_value=8))
    t = draw(st.integers(min_value=1, max_value=5))
    positions = draw(
        st.lists(
            st.integers(min_value=1, max_value=MAX_SEQ - t),
            min_size=batch, max_size=batch,
        )
    )
    positions[draw(st.integers(min_value=0, max_value=batch - 1))] = MAX_SEQ - t
    tokens = draw(
        st.lists(
            st.lists(st.integers(0, VOCAB - 1), min_size=t, max_size=t),
            min_size=batch, max_size=batch,
        )
    )
    step = t == 1 and draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return positions, tokens, step, seed


def _call(engine, rows, tokens, positions, step):
    """One ragged forward; logits come back as ``(B, t, vocab)``."""
    iterations = [p + 1 for p in positions]
    if step:
        out = engine.forward_step_batch(
            [tok[0] for tok in tokens], rows, positions, iterations
        )
        return out[:, None]
    return engine.forward_chunk_batch(tokens, rows, positions, iterations)


def _poisoned_rows(engine, positions, seed):
    """Slots whose filled prefixes hold seeded K/V; every other arena
    entry — tails and one spare, never-acquired slot — is poison."""
    cfg = engine.config
    pool = engine.new_pool(len(positions) + 1)
    for slot in range(pool.n_slots):
        for cache in pool.caches(slot):
            cache.k[...] = np.resize(POISON, cache.k.shape)
            cache.v[...] = np.resize(POISON, cache.v.shape)
    rng = np.random.default_rng(seed)
    rows = []
    for length in positions:
        caches = pool.caches(pool.acquire())
        for cache in caches:
            shape = (cfg.n_heads, length, cfg.head_dim)
            cache.append(
                rng.standard_normal(shape, dtype=np.float32),
                rng.standard_normal(shape, dtype=np.float32),
            )
        rows.append(caches)
    return rows


def _rewind_and_zero_tails(rows, positions):
    for caches, length in zip(rows, positions):
        for cache in caches:
            cache.length = length
            cache.k[:, length:] = 0.0
            cache.v[:, length:] = 0.0


@settings(max_examples=60, deadline=None)
@given(ragged_calls())
def test_stale_tails_never_reach_logits(call):
    positions, tokens, step, seed = call
    engine = _engine()
    rows = _poisoned_rows(engine, positions, seed)
    poisoned = _call(engine, rows, tokens, positions, step)
    assert np.isfinite(poisoned).all()
    _rewind_and_zero_tails(rows, positions)
    clean = _call(engine, rows, tokens, positions, step)
    np.testing.assert_array_equal(poisoned, clean)


@settings(max_examples=60, deadline=None)
@given(ragged_calls())
def test_rows_match_serial_forward(call):
    positions, tokens, step, seed = call
    engine = _engine()
    rows = _poisoned_rows(engine, positions, seed)
    serial = []
    for caches, length, chunk in zip(rows, positions, tokens):
        own = engine.new_caches()
        for mine, cache in zip(own, caches):
            mine.append(cache.keys(), cache.values())
        serial.append(engine.forward(chunk, own, length, length + 1))
    batched = _call(engine, rows, tokens, positions, step)
    if len(rows) == 1:
        np.testing.assert_array_equal(batched[0], serial[0])
        return
    for got, ref in zip(batched, serial):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5)
        top2 = np.sort(ref, axis=-1)[:, -2:]
        decisive = top2[:, 1] - top2[:, 0] > 1e-5
        np.testing.assert_array_equal(
            got.argmax(-1)[decisive], ref.argmax(-1)[decisive]
        )


_logit = st.one_of(
    st.floats(min_value=-50, max_value=50, width=32),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


def _scalar_rule(row: np.ndarray) -> int:
    if np.isnan(row).all():
        return 0
    return int(np.nanargmax(row))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda vocab: st.lists(
            st.lists(_logit, min_size=vocab, max_size=vocab),
            min_size=0, max_size=6,
        ).map(lambda rows: np.array(rows, dtype=np.float32).reshape(-1, vocab))
    )
)
def test_greedy_pick_rows_matches_nanargmax_rule(logits):
    expected = [_scalar_rule(row) for row in logits]
    assert [greedy_pick(row) for row in logits] == expected
    picks = greedy_pick_rows(logits)
    assert picks == expected
    assert all(type(p) is int for p in picks)


@pytest.mark.parametrize(
    "row, expected",
    [
        ([np.nan, np.nan, np.nan], 0),
        # nanargmax reads NaN as -inf: a NaN ahead of an all -inf row wins.
        ([np.nan, -np.inf, -np.inf], 0),
        ([-np.inf, np.nan, 3.0], 2),
        ([-np.inf, np.inf, np.inf], 1),
        ([0.5, np.nan, 2.0, np.nan], 2),
        ([-np.inf, -np.inf], 0),
    ],
)
def test_greedy_pick_edge_rows(row, expected):
    logits = np.array([row, [0.0] * len(row)], dtype=np.float32)
    assert greedy_pick(logits[0]) == expected
    assert greedy_pick_rows(logits) == [expected, 0]


def test_idle_gap_not_billed_to_first_layer():
    """The ragged forward resets the layer-timing base, so the sleep
    between two batched steps is not billed to ``blocks.0.q_proj``
    (nor is the sleep before a chunk forward)."""
    engine = _engine()
    tel = telemetry()
    tel.reset()
    tel.enable()
    detach = attach_layer_timing(engine, tel)
    try:
        pool = engine.new_pool(2)
        rows = [pool.caches(pool.acquire()) for _ in range(2)]
        for caches in rows:
            engine.forward([3, 4, 5], caches, 0, 0)
        gap = 0.2
        engine.forward_step_batch([6, 7], rows, [3, 3], [1, 1])
        time.sleep(gap)
        engine.forward_step_batch([8, 9], rows, [4, 4], [2, 2])
        time.sleep(gap)
        engine.forward_chunk_batch([[1, 2], [3, 4]], rows, [5, 5], [3, 3])
        first = tel.metrics.histograms["engine.layer_ms.blocks.0.q_proj"]
        # Two prefills, then two rows in each of three ragged forwards.
        assert first.count == 2 + 3 * 2
        assert max(first.values) < gap * 1e3
    finally:
        detach()
        tel.reset()
        tel.disable()
