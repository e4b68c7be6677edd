"""Fast NumPy inference engine with hooks, KV cache and storage policies.

This is the system under test for every fault-injection experiment:
a vectorised, allocation-light forward pass over a trained
:class:`~repro.model.params.ParamStore`, exposing

* **weight stores** — per-linear-layer storage policies whose stored
  bits can be flipped (memory faults, Figs 5/17/21);
* **forward hooks** — interception of each linear layer's output
  tensor (computational faults, Fig. 6);
* **activation capture** — per-layer output snapshots for the
  propagation-trace experiments (Figs 5/6) and MoE expert-selection
  records (Fig. 15);
* **sessions** — incremental decoding with a KV cache and a
  generation-iteration counter, so faults can be timed to a specific
  token-generation iteration exactly as the paper does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.autograd.functional import rms_norm_np, silu_np, softmax_np
from repro.inference.hooks import HookContext, HookManager
from repro.inference.kvcache import KVCache, PooledKVCache
from repro.inference.storage import (
    WeightStore,
    attach_weight_store,
    make_weight_store,
)
from repro.model.config import ModelConfig
from repro.model.params import ParamStore, open_arena, write_arena
from repro.model.transformer import rope_tables
from repro.obs.runtime import telemetry as _telemetry

__all__ = ["InferenceEngine", "Session", "CaptureState"]


@dataclass
class CaptureState:
    """Recorded layer outputs and expert selections for one forward."""

    layer_outputs: dict[str, np.ndarray] = field(default_factory=dict)
    expert_selections: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    """Maps ``(iteration, block)`` -> ``(tokens, top_k)`` expert indices."""


class InferenceEngine:
    """Decoder-only transformer forward pass over faultable weights."""

    def __init__(
        self,
        store: ParamStore,
        weight_policy: str = "fp32",
        activation_format: str | None = None,
    ) -> None:
        """
        Parameters
        ----------
        store:
            Trained parameters (shared naming scheme with the trainer).
        weight_policy:
            Storage policy for the FI-targetable linear layers:
            ``fp32``/``fp16``/``bf16``/``int8``/``int4``.
        activation_format:
            Float format that computational faults corrupt activations
            in.  Defaults to the weight policy when it is a float
            format, else ``fp32``.  (Injection helpers read this; the
            engine itself always computes in float32.)
        """
        self.config: ModelConfig = store.config
        self.weight_policy = weight_policy
        if activation_format is None:
            activation_format = (
                weight_policy if weight_policy in ("fp32", "fp16", "bf16") else "fp32"
            )
        self.activation_format = activation_format
        self.hooks = HookManager()
        self.capture: CaptureState | None = None
        self.weight_fault_depth = 0
        """Count of currently armed weight (memory) faults.  Maintained
        by :class:`~repro.fi.injector.MemoryFaultInjector` so fast-path
        optimizations can tell whether the stored weights are pristine."""
        self.kv_fault = None
        """Armed :class:`~repro.fi.injector.KVFaultInjector` (or None).
        The attention paths call ``kv_fault.on_append(block, cache,
        iteration)`` after each cache append so the fault can latch into
        live K/V state."""
        self.acc_fault = None
        """Armed :class:`~repro.fi.injector.AccumulatorFaultInjector`
        (or None).  :meth:`_linear` calls ``acc_fault.maybe_strike`` on
        every GEMM while armed."""

        # FI-targetable linear layers go behind storage policies; the
        # rest (norm gains, embeddings, lm_head) stay plain float32,
        # matching the paper's restriction of faults to block linears.
        self._stores: dict[str, WeightStore] = {}
        self._plain: dict[str, np.ndarray] = {}
        faultable = set(store.linear_layer_names())
        for name, array in store.items():
            base = name[: -len(".weight")] if name.endswith(".weight") else name
            if base in faultable:
                self._stores[base] = make_weight_store(array, weight_policy)
            else:
                self._plain[name] = np.ascontiguousarray(array, dtype=np.float32)

        self._cos, self._sin = rope_tables(
            self.config.head_dim, self.config.max_seq, self.config.rope_theta
        )

    # -- shared (memory-mapped) weight planes -----------------------------------

    def export_shared(self, directory: str | Path) -> Path:
        """Write every weight plane into a read-only mmap arena.

        Unlike exporting a :class:`ParamStore` (raw float32 parameters),
        this captures the engine's *policy-encoded* state — stored bit
        patterns for float policies, integer codes and group scales for
        quantized ones, plus the dequantized/rounded compute arrays —
        so :meth:`open_shared` attaches without re-encoding anything and
        is bit-identical to this engine by construction.
        """
        arrays: dict[str, np.ndarray] = {}
        store_meta: dict[str, dict] = {}
        for name, ws in self._stores.items():
            planes, meta = ws.export_state()
            store_meta[name] = meta
            for plane, array in planes.items():
                arrays[f"store:{name}:{plane}"] = array
        for name, array in self._plain.items():
            arrays[f"plain:{name}"] = array
        return write_arena(
            directory,
            arrays,
            meta={
                "kind": "engine",
                "config": self.config.to_json(),
                "weight_policy": self.weight_policy,
                "activation_format": self.activation_format,
                "stores": store_meta,
            },
        )

    @staticmethod
    def open_shared(directory: str | Path) -> "InferenceEngine":
        """Attach an engine to an arena written by :meth:`export_shared`.

        All weight planes are zero-copy read-only views into the shared
        mapping; only the (tiny, deterministic) RoPE tables are
        recomputed.  Weight-fault trials privatize the targeted tensor
        on first flip (storage-policy copy-on-write) — the arena and
        every sibling attachment stay pristine.
        """
        arrays, meta = open_arena(directory)
        if meta.get("kind") != "engine":
            raise ValueError(
                f"{directory} is not an engine arena"
                f" (kind={meta.get('kind')!r})"
            )
        engine = InferenceEngine.__new__(InferenceEngine)
        engine.config = ModelConfig.from_json(meta["config"])
        engine.weight_policy = meta["weight_policy"]
        engine.activation_format = meta["activation_format"]
        engine.hooks = HookManager()
        engine.capture = None
        engine.weight_fault_depth = 0
        engine.kv_fault = None
        engine.acc_fault = None
        engine._stores = {
            name: attach_weight_store(
                {
                    plane: arrays[f"store:{name}:{plane}"]
                    for plane in smeta["planes"]
                },
                smeta,
            )
            for name, smeta in meta["stores"].items()
        }
        engine._plain = {
            key[len("plain:"):]: array
            for key, array in arrays.items()
            if key.startswith("plain:")
        }
        engine._cos, engine._sin = rope_tables(
            engine.config.head_dim,
            engine.config.max_seq,
            engine.config.rope_theta,
        )
        return engine

    # -- weight access ---------------------------------------------------------

    def weight_store(self, layer_name: str) -> WeightStore:
        """The storage policy behind a faultable linear layer."""
        try:
            return self._stores[layer_name]
        except KeyError as exc:
            raise KeyError(
                f"{layer_name!r} is not a fault-targetable linear layer;"
                f" known: {sorted(self._stores)[:4]}..."
            ) from exc

    def linear_layer_names(self) -> list[str]:
        return list(self._stores)

    def _w(self, layer_name: str) -> np.ndarray:
        return self._stores[layer_name].array

    # -- fault-injection introspection ------------------------------------------

    def fi_active(self) -> bool:
        """Whether any fault machinery could perturb the next forward.

        True when forward hooks are registered (computational-fault
        injectors, Ranger-style detectors, timing probes) or a memory
        fault is armed (:attr:`weight_fault_depth` > 0,
        :attr:`kv_fault`, :attr:`acc_fault`).  Redundant-compute
        optimizations (shared-prefix option scoring, trial prefill
        caching) must check this and fall back to the exact unshared
        path so injected corruption propagates exactly as it would have
        without the optimization.
        """
        return (
            len(self.hooks) > 0
            or self.weight_fault_depth > 0
            or self.kv_fault is not None
            or self.acc_fault is not None
        )

    # -- forward ----------------------------------------------------------------

    def _linear(
        self,
        x: np.ndarray,
        layer_name: str,
        iteration=None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """``x @ W`` for ``(t, D)`` or batched ``(B, t, D)`` input.

        Batched input is flattened to one ``(B*t, D)`` GEMM so all batch
        elements amortize a single large matmul (and one dispatch)
        instead of ``B`` stacked ones.

        ``iteration``/``rows`` identify *when* this GEMM runs (scalar
        generation iteration, or the per-row iteration array plus
        batch-row ids under the batched decode step) so an armed
        accumulator fault can strike its sampled reduction mid-GEMM.
        """
        w = self._w(layer_name)
        flat = x if x.ndim == 2 else x.reshape(-1, x.shape[-1])
        out = flat @ w
        if self.acc_fault is not None:
            self.acc_fault.maybe_strike(out, flat, w, layer_name, iteration, rows)
        if x.ndim == 2:
            return out
        return out.reshape(*x.shape[:-1], w.shape[1])

    def _emit(
        self,
        output: np.ndarray,
        block: int,
        layer: str,
        iteration,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Capture + hook a layer output.

        ``rows`` is ``None`` for every single-sequence forward.  Under
        the batched decode step it carries the batch-row index of each
        leading-axis slice of ``output`` (and ``iteration`` is the
        aligned per-row iteration array): hooks then run once per row
        on that row's ``(1, features)`` view — the exact serial shape —
        with :attr:`HookContext.batch_row` identifying the sequence, so
        a row-scoped fault strikes exactly one sequence of the batch.
        """
        full = f"blocks.{block}.{layer}"
        if self.hooks.has(full):
            if rows is None:
                output = self.hooks.apply(
                    output, HookContext(block, layer, iteration, full)
                )
            else:
                for i, row in enumerate(rows):
                    view = output[i : i + 1]
                    result = self.hooks.apply(
                        view,
                        HookContext(
                            block,
                            layer,
                            int(iteration[i]),
                            full,
                            batch_row=int(row),
                        ),
                    )
                    if result is not view:
                        output[i : i + 1] = result
        if self.capture is not None:
            # Captured after hooks so propagation traces see injected
            # computational faults in the injected layer's own output.
            self.capture.layer_outputs[full] = output.copy()
        return output

    def _attention(
        self,
        x: np.ndarray,
        block: int,
        cache: KVCache,
        start_pos: int,
        iteration: int,
        allowed: np.ndarray | None,
    ) -> np.ndarray:
        """Causal attention for one block.

        ``x`` is ``(t, D)`` for the incremental/prefill path (new K/V
        are appended to ``cache``) or ``(B, t, D)`` for the batched
        path, where every batch element attends to the *shared*,
        read-only prefix in ``cache`` plus its own chunk — the cache is
        not advanced.  ``allowed`` is the causal mask precomputed once
        per forward (``None`` when ``t == 1``): over all positions for
        the 2D path, over the chunk only for the batched path (the
        prefix is fully visible).
        """
        cfg = self.config
        prefix = f"blocks.{block}."
        batched = x.ndim == 3
        t = x.shape[-2]
        heads, hd = cfg.n_heads, cfg.head_dim

        q = self._emit(
            self._linear(x, prefix + "q_proj", iteration), block, "q_proj", iteration
        )
        k = self._emit(
            self._linear(x, prefix + "k_proj", iteration), block, "k_proj", iteration
        )
        v = self._emit(
            self._linear(x, prefix + "v_proj", iteration), block, "v_proj", iteration
        )

        # (..., t, D) -> (..., heads, t, hd)
        split = (*x.shape[:-1], heads, hd)
        q = q.reshape(split).swapaxes(-3, -2)
        k = k.reshape(split).swapaxes(-3, -2)
        v = v.reshape(split).swapaxes(-3, -2)

        cos = self._cos[start_pos : start_pos + t]
        sin = self._sin[start_pos : start_pos + t]

        def rot(a: np.ndarray) -> np.ndarray:
            half = hd // 2
            rotated = np.concatenate([-a[..., half:], a[..., :half]], axis=-1)
            return a * cos + rotated * sin

        q, k = rot(q), rot(k)
        scale = np.float32(hd**-0.5)
        if not batched:
            cache.append(k, v)
            if self.kv_fault is not None:
                self.kv_fault.on_append(block, cache, iteration)
            keys, values = cache.keys(), cache.values()
            scores = (q @ keys.swapaxes(-1, -2)) * scale
            if allowed is not None:
                scores = np.where(allowed[None], scores, np.float32(-1e9))
            attn = softmax_np(scores, axis=-1)
            ctx = (attn @ values).transpose(1, 0, 2).reshape(t, cfg.d_model)
        else:
            pk, pv = cache.keys(), cache.values()  # (heads, P, hd), shared
            scores_prefix = (q @ pk.swapaxes(-1, -2)) * scale  # (B, heads, t, P)
            scores_self = (q @ k.swapaxes(-1, -2)) * scale  # (B, heads, t, t)
            if allowed is not None:
                scores_self = np.where(
                    allowed[None, None], scores_self, np.float32(-1e9)
                )
            scores = np.concatenate([scores_prefix, scores_self], axis=-1)
            attn = softmax_np(scores, axis=-1)
            p = cache.length
            ctx = attn[..., :p] @ pv + attn[..., p:] @ v
            ctx = ctx.swapaxes(-3, -2).reshape(x.shape[0], t, cfg.d_model)
        return self._emit(
            self._linear(ctx, prefix + "out_proj", iteration),
            block,
            "out_proj",
            iteration,
        )

    def _mlp(
        self,
        h: np.ndarray,
        block: int,
        iteration,
        expert: int | None = None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        prefix = f"blocks.{block}."
        tag = "" if expert is None else f"experts.{expert}."
        gate = self._emit(
            self._linear(h, prefix + tag + "gate_proj", iteration, rows),
            block,
            tag + "gate_proj",
            iteration,
            rows,
        )
        up = self._emit(
            self._linear(h, prefix + tag + "up_proj", iteration, rows),
            block,
            tag + "up_proj",
            iteration,
            rows,
        )
        out = silu_np(gate) * up
        return self._emit(
            self._linear(out, prefix + tag + "down_proj", iteration, rows),
            block,
            tag + "down_proj",
            iteration,
            rows,
        )

    def _moe(
        self,
        h: np.ndarray,
        block: int,
        iteration,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        cfg = self.config
        if h.ndim == 3:
            # Expert routing is token-wise, so the batched path flattens
            # the leading axes (expert-selection capture then records
            # (B*t, top_k) rows, batch-major).
            batch, t, d = h.shape
            return self._moe(h.reshape(batch * t, d), block, iteration).reshape(
                batch, t, d
            )
        prefix = f"blocks.{block}."
        router_logits = self._emit(
            self._linear(h, prefix + "router", iteration, rows),
            block,
            "router",
            iteration,
            rows,
        )
        t = h.shape[0]
        k = cfg.top_k
        top = np.argpartition(router_logits, -k, axis=-1)[:, -k:]
        # Order selected experts by descending logit for stable records.
        order = np.argsort(
            np.take_along_axis(router_logits, top, axis=-1), axis=-1
        )[:, ::-1]
        top = np.take_along_axis(top, order, axis=-1)
        if self.capture is not None:
            self.capture.expert_selections[(iteration, block)] = top.copy()
        gates = softmax_np(
            np.take_along_axis(router_logits, top, axis=-1), axis=-1
        )
        out = np.zeros_like(h)
        for e in range(cfg.n_experts):
            slot_mask = top == e  # (t, k)
            sel = np.nonzero(slot_mask.any(axis=-1))[0]
            if sel.size == 0:
                continue
            expert_out = self._mlp(
                h[sel],
                block,
                iteration if rows is None else iteration[sel],
                expert=e,
                rows=None if rows is None else rows[sel],
            )
            weight = (gates[sel] * slot_mask[sel]).sum(axis=-1, keepdims=True)
            out[sel] += expert_out * weight
        return out

    def forward(
        self,
        tokens: np.ndarray | list[int],
        caches: list[KVCache],
        start_pos: int,
        iteration: int,
    ) -> np.ndarray:
        """Run ``tokens`` (a chunk) through the model, filling ``caches``.

        Returns logits of shape ``(len(tokens), vocab)``.

        ``tokens`` may also be a rectangular batch of shape ``(B, t)``:
        every batch row is then scored against the *shared* prefix
        already in ``caches`` (one large matmul per linear layer instead
        of ``B`` small ones), the caches are left untouched, and logits
        come back as ``(B, t, vocab)``.  Hooks and capture observe the
        batched ``(B, t, ...)`` tensors in that mode — callers that need
        exact single-sequence fault semantics must check
        :meth:`fi_active` first and use the unbatched path.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim not in (1, 2):
            raise ValueError(f"tokens must be 1-D or rectangular 2-D, got {ids.shape}")
        # Corrupted weights legitimately overflow float32 (an MSB
        # exponent flip scales a value by ~2^128); inf/nan propagation
        # *is* the studied behaviour, so silence the warnings.
        tel = _telemetry()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if not tel.active:
                return self._forward_impl(ids, caches, start_pos, iteration)
            t0 = time.perf_counter()
            tel.marks["forward_start"] = t0
            out = self._forward_impl(ids, caches, start_pos, iteration)
            metrics = tel.metrics
            metrics.histogram("engine.forward_ms").observe(
                (time.perf_counter() - t0) * 1e3
            )
            metrics.counter("engine.forward_calls").add()
            metrics.counter("engine.tokens").add(ids.size)
            if caches:
                metrics.gauge("engine.kv_occupancy").set(
                    caches[0].length / caches[0].max_seq
                )
            return out

    def _forward_impl(
        self,
        ids: np.ndarray,
        caches: list[KVCache],
        start_pos: int,
        iteration: int,
    ) -> np.ndarray:
        cfg = self.config
        x = self._plain["embed.weight"][ids]
        t = ids.shape[-1]
        # The causal mask only depends on (start_pos, t), so build it
        # once per forward instead of once per block.  Batched chunks
        # mask within the chunk only — the shared prefix is fully
        # visible to every row.
        allowed: np.ndarray | None = None
        if t > 1:
            new = np.arange(t)
            if ids.ndim == 1:
                pos = np.arange(start_pos + t)
                allowed = pos[None, :] <= (start_pos + new)[:, None]
            else:
                allowed = new[None, :] <= new[:, None]
        for b in range(cfg.n_blocks):
            prefix = f"blocks.{b}."
            h = rms_norm_np(
                x, self._plain[prefix + "attn_norm.weight"], cfg.norm_eps
            )
            x = x + self._attention(h, b, caches[b], start_pos, iteration, allowed)
            h = rms_norm_np(x, self._plain[prefix + "mlp_norm.weight"], cfg.norm_eps)
            if cfg.is_moe:
                x = x + self._moe(h, b, iteration)
            else:
                x = x + self._mlp(h, b, iteration)
        x = rms_norm_np(x, self._plain["final_norm.weight"], cfg.norm_eps)
        if x.ndim == 2:
            return x @ self._plain["lm_head.weight"]
        head = self._plain["lm_head.weight"]
        return (x.reshape(-1, x.shape[-1]) @ head).reshape(*x.shape[:-1], -1)

    def forward_step_batch(
        self,
        tokens: np.ndarray | list[int],
        row_caches: list[list[KVCache]],
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
    ) -> np.ndarray:
        """One single-token decode step for ``B`` independent sequences.

        Unlike the shared-prefix batched :meth:`forward`, every batch
        row here owns its caches (``row_caches[i]`` is that row's
        per-block list — typically :class:`PooledKVCache` slot views)
        and its K/V **is appended**; per-row positions and iteration
        counts may be ragged, which is what continuous batching needs.
        Linear layers run as single flattened ``(B, D)`` GEMMs and the
        attention core is one ragged-row kernel over every row (see
        :meth:`_attention_rows`); for ``B == 1`` every operation
        matches the serial ``Session.step`` path shape-for-shape, so
        results are bit-identical and fault hooks observe identical
        tensors.

        Hooks are applied per row on ``(1, features)`` views (see
        :meth:`_emit`) and an armed accumulator fault strikes per row;
        activation capture is not supported on this path — use the
        serial forward.  Returns logits of shape ``(B, vocab)``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"tokens must be a 1-D batch of ids, got {ids.shape}")
        return self._forward_rows(
            "forward_step_batch", ids, row_caches, positions, iterations
        )

    def forward_chunk_batch(
        self,
        tokens: np.ndarray | list[list[int]],
        row_caches: list[list[KVCache]],
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
    ) -> np.ndarray:
        """Multi-token decode chunks for ``B`` independent sequences.

        The missing quadrant between :meth:`forward` and
        :meth:`forward_step_batch`: ``tokens`` is a rectangular
        ``(B, t)`` chunk batch and every row **appends to its own
        caches** (``row_caches[i]``, typically pooled slot views)
        starting at its own ``positions[i]``.  The shared-prefix 2-D
        :meth:`forward` mode scores against one read-only cache and
        :meth:`forward_step_batch` is single-token; batched speculative
        verification needs both raggedness *and* chunk width, which is
        exactly this.

        Linear layers run as single flattened ``(B*t, D)`` GEMMs; RoPE
        tables are gathered per row from the ragged positions; the
        attention core is the same ragged-row kernel as the step path,
        where each row sees its own cache (prefix + chunk, after the
        append) under the standard causal mask.  For ``B == 1`` every
        operation is shape-identical to the 1-D chunked
        :meth:`forward`, so logits are bit-identical to the serial
        speculative verify path.

        ``iterations[i]`` tags row ``i``'s chunk with its generation
        iteration (the round's first emitted-token index, matching the
        serial speculative decoder's scalar tag); an armed KV fault
        receives per-row ``on_append`` callbacks against per-row
        caches, so slot-pinned injectors latch exactly as they would on
        that row's serial decode.  Hooks observe per-row
        ``(1, t, features)`` views (only *observer* hooks are admitted
        here by the FI gates); activation capture is rejected and an
        armed accumulator fault never strikes on this path — the
        composed-decode gate matrix routes capture/acc/non-observer
        machinery to the batched or serial paths instead.

        Returns logits of shape ``(B, t, vocab)``.
        """
        ids = np.asarray(tokens, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(
                f"tokens must be a rectangular (B, t) batch, got {ids.shape}"
            )
        if self.acc_fault is not None:
            raise RuntimeError(
                "forward_chunk_batch cannot honor an armed accumulator"
                " fault (per-row strike mapping is single-token); the"
                " decode gate matrix must route acc faults to the"
                " batched or serial paths"
            )
        return self._forward_rows(
            "forward_chunk_batch", ids, row_caches, positions, iterations
        )

    def _forward_rows(
        self,
        entry: str,
        ids: np.ndarray,
        row_caches: list[list[KVCache]],
        positions: np.ndarray | list[int],
        iterations: np.ndarray | list[int],
    ) -> np.ndarray:
        """Shared body of the ragged-row entry points: ``ids`` is
        ``(B,)`` for a step or ``(B, t)`` for a chunk."""
        if self.capture is not None:
            raise RuntimeError(
                f"{entry} does not support activation capture;"
                " use the serial per-sequence path"
            )
        if len(row_caches) != ids.shape[0]:
            raise ValueError(
                f"{ids.shape[0]} token rows but {len(row_caches)} cache rows"
            )
        pos = np.asarray(positions, dtype=np.int64)
        its = np.asarray(iterations, dtype=np.int64)
        tel = _telemetry()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if not tel.active:
                return self._rows_impl(ids, row_caches, pos, its)
            t0 = time.perf_counter()
            tel.marks["forward_start"] = t0
            out = self._rows_impl(ids, row_caches, pos, its)
            metrics = tel.metrics
            metrics.histogram("engine.forward_ms").observe(
                (time.perf_counter() - t0) * 1e3
            )
            metrics.counter("engine.forward_calls").add()
            metrics.counter("engine.tokens").add(ids.size)
            return out

    def _rows_impl(
        self,
        ids: np.ndarray,
        row_caches: list[list[KVCache]],
        positions: np.ndarray,
        iterations: np.ndarray,
    ) -> np.ndarray:
        cfg = self.config
        batch = ids.shape[0]
        t = 1 if ids.ndim == 1 else ids.shape[1]
        rows = np.arange(batch)
        x = self._plain["embed.weight"][ids]  # (B, D) or (B, t, D)
        # Row i holds positions[i] .. positions[i]+t-1: per-row RoPE
        # gather, and one (B, t, L) mask per forward in which query j
        # of row i sees keys 0 .. positions[i]+j — the causal mask of
        # the 1-D chunked forward, which also hides the zero tail that
        # pads shorter rows out to the longest.  A single row reads its
        # cache directly, so a lone decode step needs no mask at all.
        span = positions[:, None] + np.arange(t)
        cos = self._cos.take(span[:, None], axis=0)  # (B, 1, t, hd)
        sin = self._sin.take(span[:, None], axis=0)
        # RoPE rotates a = [a1, a2] into a*cos + [-a2, a1]*sin.  Folding
        # the sign into sin once per forward, not once per rotation,
        # is exact: IEEE products are symmetric in sign.
        half = cfg.head_dim // 2
        sin = np.concatenate([-sin[..., :half], sin[..., half:]], axis=-1)
        allowed: np.ndarray | None = None
        if batch > 1 or t > 1:
            allowed = np.arange(int(span.max()) + 1) <= span[..., None]
        pad: tuple[np.ndarray, np.ndarray] | None = None
        if batch > 1:
            shape = (batch, cfg.n_heads, allowed.shape[-1], cfg.head_dim)
            pad = (
                np.zeros(shape, dtype=np.float32),
                np.zeros(shape, dtype=np.float32),
            )
        for b in range(cfg.n_blocks):
            prefix = f"blocks.{b}."
            h = rms_norm_np(
                x, self._plain[prefix + "attn_norm.weight"], cfg.norm_eps
            )
            x = x + self._attention_rows(
                h, b, row_caches, cos, sin, allowed, pad, iterations, rows
            )
            h = rms_norm_np(x, self._plain[prefix + "mlp_norm.weight"], cfg.norm_eps)
            if cfg.is_moe:
                x = x + self._moe(h, b, iterations, rows=rows)
            else:
                x = x + self._mlp(h, b, iterations, rows=rows)
        x = rms_norm_np(x, self._plain["final_norm.weight"], cfg.norm_eps)
        head = self._plain["lm_head.weight"]
        if x.ndim == 2:
            return x @ head
        return (x.reshape(-1, x.shape[-1]) @ head).reshape(batch, t, -1)

    def _attention_rows(
        self,
        x: np.ndarray,
        block: int,
        row_caches: list[list[KVCache]],
        cos: np.ndarray,
        sin: np.ndarray,
        allowed: np.ndarray | None,
        pad: tuple[np.ndarray, np.ndarray] | None,
        iterations: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Attention for one block over ragged rows: shared projections,
        per-row cache appends, then one masked score/softmax/context.

        With ``B > 1`` each row's filled prefix is copied into the
        zero-tailed ``pad`` buffers, ``(B, heads, L, hd)``, so the
        kernel never reads a pooled slot past its owner's length: a
        released slot's stale (possibly faulted NaN) K/V would leak
        into a sibling row as ``0 * NaN`` even under the mask.  A single
        row reads its cache views directly, with no padding to apply.
        """
        cfg = self.config
        prefix = f"blocks.{block}."
        heads, hd = cfg.n_heads, cfg.head_dim
        batch = x.shape[0]
        t = cos.shape[2]

        q = self._emit(
            self._linear(x, prefix + "q_proj", iterations, rows),
            block,
            "q_proj",
            iterations,
            rows,
        )
        k = self._emit(
            self._linear(x, prefix + "k_proj", iterations, rows),
            block,
            "k_proj",
            iterations,
            rows,
        )
        v = self._emit(
            self._linear(x, prefix + "v_proj", iterations, rows),
            block,
            "v_proj",
            iterations,
            rows,
        )
        split = (batch, t, heads, hd)
        q = q.reshape(split).swapaxes(1, 2)  # (B, heads, t, hd)
        k = k.reshape(split).swapaxes(1, 2)
        v = v.reshape(split).swapaxes(1, 2)
        half = hd // 2
        q = q * cos + np.concatenate([q[..., half:], q[..., :half]], -1) * sin
        k = k * cos + np.concatenate([k[..., half:], k[..., :half]], -1) * sin
        caches = [row[block] for row in row_caches]
        for i, cache in enumerate(caches):
            cache.append(k[i], v[i])
            if self.kv_fault is not None:
                self.kv_fault.on_append(block, cache, int(iterations[i]))
        if pad is None:
            q = q[0]
            keys, values = caches[0].keys(), caches[0].values()
            mask = None if allowed is None else allowed[0]
        else:
            keys, values = pad
            for i, cache in enumerate(caches):
                keys[i, :, : cache.length] = cache.keys()
                values[i, :, : cache.length] = cache.values()
            mask = allowed[:, None]
        scores = (q @ keys.swapaxes(-1, -2)) * np.float32(hd**-0.5)
        if mask is not None:
            scores = np.where(mask, scores, np.float32(-1e9))
        attn = softmax_np(scores, axis=-1)
        ctx = (attn @ values).swapaxes(-3, -2).reshape(x.shape)
        return self._emit(
            self._linear(ctx, prefix + "out_proj", iterations, rows),
            block,
            "out_proj",
            iterations,
            rows,
        )

    def new_caches(self) -> list[KVCache]:
        cfg = self.config
        return [
            KVCache(cfg.n_heads, cfg.max_seq, cfg.head_dim)
            for _ in range(cfg.n_blocks)
        ]

    def new_pool(self, n_slots: int) -> PooledKVCache:
        """A block-allocated KV arena sized for this model (one slot per
        concurrently decoding sequence)."""
        cfg = self.config
        return PooledKVCache(
            cfg.n_blocks, n_slots, cfg.n_heads, cfg.max_seq, cfg.head_dim
        )

    def forward_full(self, tokens: np.ndarray | list[int]) -> np.ndarray:
        """Single full-sequence forward (option scoring / prefill-only).

        This is generation iteration 0.
        """
        return self.forward(tokens, self.new_caches(), start_pos=0, iteration=0)

    def start_session(self, prompt: list[int]) -> "Session":
        """Prefill a prompt and return an incremental decoding session."""
        return Session(self, prompt)


class Session:
    """Incremental decoding state: KV caches + iteration counter."""

    def __init__(self, engine: InferenceEngine, prompt: list[int]) -> None:
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        self.engine = engine
        self.caches = engine.new_caches()
        self.iteration = 0
        logits = engine.forward(prompt, self.caches, start_pos=0, iteration=0)
        self.last_logits: np.ndarray = logits[-1]
        self.position = len(prompt)

    def step(self, token: int) -> np.ndarray:
        """Feed one generated token; returns logits for the next one."""
        self.iteration += 1
        logits = self.engine.forward(
            [token], self.caches, start_pos=self.position, iteration=self.iteration
        )
        self.position += 1
        self.last_logits = logits[-1]
        return self.last_logits

    def fork(self) -> "Session":
        """Clone the session (caches deep-copied) for beam search."""
        clone = Session.__new__(Session)
        clone.engine = self.engine
        clone.caches = [c.clone() for c in self.caches]
        clone.iteration = self.iteration
        clone.position = self.position
        clone.last_logits = self.last_logits.copy()
        return clone
