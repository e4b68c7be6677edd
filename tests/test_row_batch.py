"""The batched greedy round core (:class:`RowBatch`) and its drivers.

* a property test drives :class:`RowBatch` by hand in both modes — one
  token step and speculative rounds — over random prompts, ragged
  budgets, EOS ids inside the vocabulary and widths/depths, holding
  every row to serial ``greedy_decode`` and both pools to full after
  ``close``;
* the offline decoders release every slot when a decode raises, and
  refuse an empty prompt before touching either pool;
* the server refuses token ids outside the vocabulary, contains a
  raising prefill or round to the requests it ran, and stops accepting
  work once its pump thread is gone.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import FaultModel, FaultSite
from repro.generation import (
    BatchedDecoder,
    BatchedSpeculativeDecoder,
    GenerationConfig,
    greedy_decode,
)
from repro.generation.rows import RowBatch
from repro.inference import InferenceEngine
from repro.model import ModelConfig, TransformerLM
from repro.serve import InferenceServer, ServeRejected

_ENGINES: dict[tuple, InferenceEngine] = {}


def _engine(vocab: int, d_model: int = 16, n_blocks: int = 2, seed: int = 3):
    """Tiny cached engines (hypothesis rules out function-scoped
    fixtures); a small vocabulary makes EOS hits common."""
    key = (vocab, d_model, n_blocks, seed)
    if key not in _ENGINES:
        config = ModelConfig(
            vocab_size=vocab, d_model=d_model, n_heads=2, n_blocks=n_blocks,
            d_ff=2 * d_model, max_seq=64,
        )
        _ENGINES[key] = InferenceEngine(TransformerLM(config, seed=seed).to_store())
    return _ENGINES[key]


def _serial(engine, prompt, budget, eos):
    config = GenerationConfig(max_new_tokens=budget, eos_id=eos)
    return greedy_decode(engine, prompt, config, strategy="serial")


VOCAB = 12

_rows = st.lists(
    st.tuples(
        st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=6),
        st.integers(1, 8),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=30, deadline=None)
@given(
    rows=_rows,
    eos=st.integers(0, VOCAB - 1),
    width=st.integers(1, 6),
    depth=st.integers(1, 4),
    speculate=st.booleans(),
)
def test_property_row_batch_matches_serial(rows, eos, width, depth, speculate):
    engine = _engine(VOCAB)
    draft = _engine(VOCAB, d_model=8, n_blocks=1, seed=11) if speculate else None
    pool = engine.new_pool(width)
    draft_pool = draft.new_pool(width) if speculate else None
    batch = RowBatch(
        engine, pool, eos, width, draft=draft, draft_pool=draft_pool,
        depth=depth,
    )
    pending = list(enumerate(rows))
    outputs: dict[int, tuple[list[int], str]] = {}

    def settle(row, n_new, reason, before):
        assert len(row.out) - before == n_new
        if reason is not None:
            outputs[row.tag] = (row.out, reason)
            batch.close(row)

    while pending or batch.rows:
        while pending and batch.room():
            index, (prompt, budget) = pending.pop(0)
            row = batch.open(prompt, budget, tag=index)
            settle(*batch.prefill(row), before=0)
        if batch.rows:
            before = {id(row): len(row.out) for row in batch.rows}
            for row, n_new, reason in batch.advance():
                settle(row, n_new, reason, before[id(row)])
    for index, (prompt, budget) in enumerate(rows):
        out, reason = outputs[index]
        assert out == _serial(engine, prompt, budget, eos)
        assert reason == ("length" if len(out) == budget else "eos")
    assert pool.n_free == pool.n_slots
    if speculate:
        assert draft_pool.n_free == draft_pool.n_slots


class TestOfflineSlotRelease:
    def test_raising_decode_releases_slots(self):
        engine = _engine(64)
        config = GenerationConfig(max_new_tokens=4, eos_id=-1)
        decoder = BatchedDecoder(engine, config, max_batch=2)
        with pytest.raises(IndexError):
            decoder.decode_many([[5, 6, 7], [999]])
        assert decoder._pool.n_free == decoder._pool.n_slots
        prompts = [[5, 6, 7], [8, 9]]
        assert decoder.decode_many(prompts) == [
            _serial(engine, p, 4, -1) for p in prompts
        ]

    def test_empty_prompt_refused_before_any_slot(self):
        engine = _engine(64)
        draft = _engine(64, d_model=8, n_blocks=1, seed=11)
        config = GenerationConfig(max_new_tokens=4, eos_id=-1)
        decoder = BatchedSpeculativeDecoder(engine, draft, config, max_batch=2)
        with pytest.raises(ValueError, match="at least one token"):
            decoder.decode_many([[5, 6, 7], []])
        assert decoder._pool.n_free == decoder._pool.n_slots
        assert decoder._draft_pool.n_free == decoder._draft_pool.n_slots
        assert decoder.decode_many([[5, 6, 7]]) == [_serial(engine, [5, 6, 7], 4, -1)]


PROMPTS = [[3, 5, 7], [11, 13, 17, 19], [23, 29], [8, 15, 16, 42]]
MARKER = [40, 41, 42]


def _server(engine, speculate=False, **kw):
    draft = _engine(64, d_model=8, n_blocks=1, seed=11) if speculate else None
    config = GenerationConfig(max_new_tokens=8, eos_id=-1)
    return InferenceServer(engine, config, max_batch=3, draft=draft, **kw)


def _full(server):
    pools = [server.pool] + ([server.draft_pool] if server.draft else [])
    return all(pool.n_free == pool.n_slots for pool in pools)


def _fail_on_marker(monkeypatch, engine):
    """Make the target's prompt forward raise on ``MARKER`` only."""
    forward = engine.forward

    def failing(tokens, *args, **kw):
        if list(tokens) == MARKER:
            raise RuntimeError("injected prefill failure")
        return forward(tokens, *args, **kw)

    monkeypatch.setattr(engine, "forward", failing)


class TestServeTokenValidation:
    @pytest.mark.parametrize("prompt", [[5, -3], [5, 9999], [64]])
    def test_out_of_vocab_rejected(self, prompt):
        with _server(_engine(64)) as server:
            with pytest.raises(ServeRejected) as exc_info:
                server.submit(prompt)
            assert exc_info.value.reason == "bad_token"
            assert server.submit([5, 63]).result(timeout=60)


class TestServeFailureContainment:
    @pytest.mark.parametrize("speculate", [False, True])
    def test_raising_prefill_finishes_one_stream(self, monkeypatch, speculate):
        engine = _engine(64)
        references = [_serial(engine, p, 8, -1) for p in PROMPTS]
        _fail_on_marker(monkeypatch, engine)
        with _server(engine, speculate) as server:
            handles = [server.submit(p) for p in PROMPTS[:2]]
            marker = server.submit(MARKER)
            handles += [server.submit(p) for p in PROMPTS[2:]]
            assert marker.result(timeout=60) == []
            assert marker.finish_reason == "error"
            assert isinstance(marker.error, RuntimeError)
            assert [h.result(timeout=60) for h in handles] == references
            assert _full(server)
            assert server.submit(PROMPTS[0]).result(timeout=60) == references[0]

    def test_raising_prefill_disarms_kv_fault(self, monkeypatch):
        engine = _engine(64)
        _fail_on_marker(monkeypatch, engine)
        fault = FaultSite(
            fault_model=FaultModel.KV_1BIT, layer_name="blocks.0.kv", row=1,
            col=2, bits=(3,), iteration=0, row_frac=0.5, plane="v",
        )
        with _server(engine) as server:
            failed = server.submit(MARKER, kv_fault=fault)
            failed.result(timeout=60)
            assert failed.finish_reason == "error"
            assert engine.kv_fault is None
            # The one-fault budget came back with the failed request.
            server.submit(PROMPTS[0], kv_fault=fault).result(timeout=60)
            assert _full(server)

    @pytest.mark.parametrize("speculate", [False, True])
    def test_raising_round_finishes_its_rows(self, monkeypatch, speculate):
        engine = _engine(64)
        name = "forward_chunk_batch" if speculate else "forward_step_batch"
        original = getattr(engine, name)
        calls = iter(range(10**6))

        def failing(*args, **kw):
            if next(calls) == 1:
                raise RuntimeError("injected round failure")
            return original(*args, **kw)

        monkeypatch.setattr(engine, name, failing)
        server = _server(engine, speculate)
        handles = [server.submit(p) for p in PROMPTS[:2]]
        with server:
            for handle in handles:
                handle.result(timeout=60)
            reasons = [h.finish_reason for h in handles]
            assert "error" in reasons and set(reasons) <= {"error", "length"}
            assert _full(server)
            follow_up = server.submit(PROMPTS[2])
            assert follow_up.result(timeout=60) == _serial(engine, PROMPTS[2], 8, -1)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_pump_refuses_work(self, monkeypatch):
        server = _server(_engine(64))
        queued = server.submit(PROMPTS[0])
        dead = threading.Event()

        def broken_pick():
            dead.set()
            raise RuntimeError("injected scheduler failure")

        monkeypatch.setattr(server._sched, "pick", broken_pick)
        server.start()
        assert dead.wait(60)
        queued.result(timeout=60)
        assert queued.finish_reason == "shutdown"
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(PROMPTS[1])
        assert exc_info.value.reason == "shutdown"
        server.stop()
