"""Models, prompts and examples the workloads run on.

Models are zoo geometries with untrained weights (``TransformerLM``
initialised from the zoo spec's seed), except the speculative pair,
which is trained briefly from fixed seeds so the draft's proposals are
accepted often enough to matter.  The trained pair is cached inside
the checkout, keyed by the source tree it was trained with.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from pathlib import Path

import numpy as np

NO_EOS = -1
"""An end-of-sequence id outside the vocabulary: every request and trial
decodes its whole budget, so the work per unit is set by the budget."""

TARGET = "qwenlike-base"
DRAFT = "qwenlike-tiny"
TRAIN_STEPS = 300
TRAIN_DOCS = 1500
CORPUS_SEED = 31337
PROMPTS_PER_TASK = 8


def source_digest(src: Path) -> str:
    """Digest of every ``.py`` file under ``src`` (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def world_and_tokenizer():
    from repro.zoo.build import default_tokenizer, default_world

    world = default_world()
    return world, default_tokenizer(world)


def untrained(name: str, vocab: int):
    from repro.model import TransformerLM
    from repro.zoo.registry import get_spec

    spec = get_spec(name)
    return TransformerLM(spec.model_config(vocab), seed=spec.init_seed).to_store()


def _train(name: str, world, tokenizer, stream: np.ndarray):
    from dataclasses import replace

    from repro.model import TransformerLM
    from repro.training import train_lm
    from repro.zoo.registry import get_spec

    spec = get_spec(name)
    model = TransformerLM(spec.model_config(len(tokenizer)), seed=spec.init_seed)
    config = replace(
        spec.train_config(),
        steps=TRAIN_STEPS,
        warmup_steps=max(20, TRAIN_STEPS // 20),
    )
    train_lm(model, stream, config)
    return model.to_store()


def _train_pair(paths: dict, world, tokenizer) -> None:
    from repro.tasks import all_tasks
    from repro.training import build_mixed_corpus, corpus_to_stream

    rng = np.random.default_rng([CORPUS_SEED, 11])
    docs = build_mixed_corpus(all_tasks(world), rng, TRAIN_DOCS)
    stream = corpus_to_stream(docs, tokenizer)
    for name, path in paths.items():
        store = _train(name, world, tokenizer, stream)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
        store.save(tmp)
        os.replace(tmp, path)


def trained_pair(cache: Path, digest: str, world, tokenizer):
    """``(target, draft, cached)``: the speculative pair, trained on a
    fixed corpus from fixed seeds, or loaded from ``cache`` when the
    source tree (``digest``) is the one it was trained with.

    Training runs in a child process (forked before any thread starts),
    so its memory stays out of the run's peak resident set."""
    from repro.model.params import ParamStore

    tag = f"{digest}-{TRAIN_STEPS}-{TRAIN_DOCS}"
    paths = {name: cache / f"{name}-{tag}.npz" for name in (TARGET, DRAFT)}
    cached = all(p.exists() for p in paths.values())
    if not cached:
        cache.mkdir(parents=True, exist_ok=True)
        child = multiprocessing.get_context("fork").Process(
            target=_train_pair, args=(paths, world, tokenizer)
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"training the draft pair exited with {child.exitcode}")
    return ParamStore.load(paths[TARGET]), ParamStore.load(paths[DRAFT]), cached


def serve_prompts(world, tokenizer):
    """The paper's four generative prompt shapes (9-35 tokens, budgets
    5/16/18/26), ``PROMPTS_PER_TASK`` of each."""
    from repro.serve.loadgen import mixed_task_prompts

    return mixed_task_prompts(world, tokenizer, per_task=PROMPTS_PER_TASK)
