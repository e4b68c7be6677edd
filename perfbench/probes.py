"""The public entry points the traced run wraps, one span name each.

Span names are ``<layer>.<function>``, the layer being the repo module
the function belongs to.  Functions the campaign runner imports by name
are patched where :mod:`repro.fi.campaign` looks them up.
"""

from __future__ import annotations

import itertools

import numpy as np

from spans import Tracer


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def targets(tracer: Tracer, draft_ids: frozenset = frozenset()) -> list[tuple]:
    """``(owner, attribute, wrapper)`` triples for :func:`spans.patched`.

    ``draft_ids`` holds ``id()`` of draft engines, whose forwards are
    marked ``draft`` so speculation can be split from verification.
    """
    import repro.fi.campaign as campaign_mod
    from repro.fi.campaign import CampaignPool, FICampaign
    from repro.generation.batched import BatchedDecoder
    from repro.generation.spec_batched import BatchedSpeculativeDecoder
    from repro.inference.engine import InferenceEngine
    from repro.inference.kvcache import KVCache, PooledKVCache
    from repro.serve.server import InferenceServer

    def shape(span, args, kwargs, _result=None):
        ids = np.asarray(_arg(args, kwargs, 1, "tokens"))
        rows, tokens = (1, ids.shape[0]) if ids.ndim == 1 else ids.shape[:2]
        span.attrs.update(rows=int(rows), tokens=int(tokens))
        if id(args[0]) in draft_ids:
            span.attrs["draft"] = True

    def step_shape(span, args, kwargs, _result=None):
        span.attrs.update(rows=len(_arg(args, kwargs, 1, "tokens")), tokens=1)
        if id(args[0]) in draft_ids:
            span.attrs["draft"] = True

    def truncate_from(span, args, kwargs):
        span.attrs.update(view=id(args[0]), before=args[0].length)

    def truncate_to(span, args, kwargs, _result):
        span.attrs["after"] = args[0].length

    def pool_of(span, args, kwargs, result=None):
        span.attrs["pool"] = id(args[0])

    def reuse(span, args, kwargs, _result):
        span.attrs["reuse"] = _arg(args, kwargs, 3, "session") is not None

    trials = itertools.count()

    def next_trial(span, args, kwargs):
        tracer.key = span.key = next(trials)

    def request_id(span, args, kwargs, handle):
        span.key = handle.request_id

    w = tracer.wrap
    return [
        (InferenceEngine, "forward",
         w(InferenceEngine.forward, "inference.forward", note=shape)),
        (InferenceEngine, "forward_step_batch",
         w(InferenceEngine.forward_step_batch, "inference.forward_step_batch",
           note=step_shape)),
        (InferenceEngine, "forward_chunk_batch",
         w(InferenceEngine.forward_chunk_batch, "inference.forward_chunk_batch",
           note=shape)),
        (PooledKVCache, "acquire",
         w(PooledKVCache.acquire, "inference.kv.acquire", note=pool_of)),
        (PooledKVCache, "release",
         w(PooledKVCache.release, "inference.kv.release", note=pool_of)),
        (KVCache, "truncate",
         w(KVCache.truncate, "inference.kv.truncate",
           pre=truncate_from, note=truncate_to)),
        (KVCache, "restore", w(KVCache.restore, "inference.kv.restore")),
        (campaign_mod, "generate_ids",
         w(campaign_mod.generate_ids, "generation.generate_ids", note=reuse)),
        (campaign_mod, "choose_option",
         w(campaign_mod.choose_option, "generation.choose_option")),
        (BatchedDecoder, "decode_many",
         w(BatchedDecoder.decode_many, "generation.decode_many")),
        (BatchedSpeculativeDecoder, "decode_many",
         w(BatchedSpeculativeDecoder.decode_many, "generation.decode_many")),
        (campaign_mod, "inject", tracer.wrap_cm(campaign_mod.inject, "fi.inject")),
        (campaign_mod, "sample_site",
         w(campaign_mod.sample_site, "fi.sample_site", pre=next_trial)),
        (FICampaign, "compute_baseline",
         w(FICampaign.compute_baseline, "fi.compute_baseline")),
        (CampaignPool, "__init__",
         w(CampaignPool.__init__, "fi.pool.spawn")),
        (CampaignPool, "wait_ready",
         w(CampaignPool.wait_ready, "fi.pool.wait_ready")),
        (campaign_mod, "score_generative",
         w(campaign_mod.score_generative, "metrics.score_generative")),
        (InferenceServer, "submit",
         w(InferenceServer.submit, "serve.submit", note=request_id)),
    ]
