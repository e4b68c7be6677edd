"""The two campaign workloads: ``campaign_gen`` and ``campaign_mc``.

Each runs one ``FICampaign`` per paper fault model (1bit-comp,
2bits-comp, 2bits-mem) on a bf16 engine, in rounds of equal trial
counts, until the measuring time is used up; before each round a
throwaway set of campaigns is built and timed for ``setup_s``.
``campaign_gen`` runs
wmt16 serially; ``campaign_mc`` runs MMLU through a 2-worker
``CampaignPool`` per campaign.  A round re-runs the same trials, so
every round's records must equal the first round's.

Before timing, a prefix of trials with the default fast paths is held
to the exact reference knobs (serial decode, no prefill cache, full
option scoring), and for the pooled workload pooled records to serial
ones, through ``repro.fi.assert_records_equal``.

A trial is the unit of work.  ``ttft_ms_p50`` is the wall time per trial
and ``tpot_ms_p50`` the wall time per output token, each over all
rounds of the run; output tokens are the generated tokens (wmt16) or the option
tokens scored (MMLU).  Single-trial latencies are not used: the trial
types of a campaign (prefill reused or not, weight or activation
faults) take 6 or 10 ms, and a median between the two modes jumps with
the host's speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import analysis
import fixtures
import probes
import provenance
import spans as sp
import stats
from common import Context, Mismatch, Result

N_EXAMPLES = 12
GATE_TRIALS = 24
N_WORKERS = 2
TRACED_ROUNDS = 4


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    task: str
    pooled: bool
    round_trials: int
    """Trials per fault model per round."""


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload("campaign_gen", "wmt16", pooled=False, round_trials=60),
        CampaignWorkload("campaign_mc", "mmlu", pooled=True, round_trials=200),
    )
}


def _faults():
    from repro.fi import FaultModel

    return (FaultModel.COMP_1BIT, FaultModel.COMP_2BIT, FaultModel.MEM_2BIT)


class _Plant:
    def __init__(self, ctx: Context, wl: CampaignWorkload) -> None:
        from repro.generation.decode import GenerationConfig
        from repro.tasks import all_tasks, standardized_subset
        from repro.tasks.base import MCExample

        t0 = time.perf_counter()
        world, self.tokenizer = fixtures.world_and_tokenizer()
        self.task = {t.name: t for t in all_tasks(world)}[wl.task]
        self.examples = standardized_subset(self.task, N_EXAMPLES)
        self.store = fixtures.untrained(fixtures.TARGET, len(self.tokenizer))
        self.generation = GenerationConfig(
            max_new_tokens=self.task.max_new_tokens, eos_id=fixtures.NO_EOS
        )
        if isinstance(self.examples[0], MCExample):
            self.tokens = [
                sum(len(self.tokenizer.encode(o)) for o in ex.options)
                for ex in self.examples
            ]
        else:
            self.tokens = [self.generation.max_new_tokens] * len(self.examples)
        self.fixture_s = time.perf_counter() - t0
        self.wl = wl
        self.seed = ctx.seed
        self.workers = N_WORKERS if wl.pooled else 0

    def campaigns(self, engine, **knobs) -> list:
        from repro.fi import FICampaign

        return [
            FICampaign(
                engine, self.tokenizer, self.task.name, self.task.metrics,
                self.examples, fault, seed=self.seed, generation=self.generation,
                **knobs,
            )
            for fault in _faults()
        ]

    def build(self) -> list:
        """Engine, campaigns, fault-free baselines and (pooled) the
        worker pools with their weight arenas: everything before the
        first timed trial."""
        from repro.inference import InferenceEngine

        engine = InferenceEngine(self.store, weight_policy="bf16")
        campaigns = self.campaigns(engine)
        for c in campaigns:
            c.compute_baseline()
            if self.workers:
                # The pool spins up (forks, attaches the arena) on the
                # first pooled run.
                c.run(self.workers, n_workers=self.workers)
        return campaigns


def _close(campaigns) -> None:
    for c in campaigns:
        c.close_pool()


def _setup(plant: _Plant) -> float:
    """Seconds to build a throwaway set of campaigns (pools closed after)."""
    t0 = time.perf_counter()
    campaigns = plant.build()
    wall = time.perf_counter() - t0
    _close(campaigns)
    return wall


def _gate(plant: _Plant, campaigns) -> None:
    from repro.fi import assert_records_equal

    engine = campaigns[0].engine
    exact = plant.campaigns(
        engine, decode_strategy="serial", prefill_cache=False, mc_scoring="full"
    )
    serial = plant.campaigns(engine) if plant.workers else []
    try:
        for i, c in enumerate(campaigns):
            fast = c.run(GATE_TRIALS, n_workers=plant.workers)
            assert_records_equal(
                fast, exact[i].run(GATE_TRIALS), "default fast paths", "reference knobs"
            )
            if serial:
                assert_records_equal(
                    fast, serial[i].run(GATE_TRIALS), "pooled", "serial"
                )
    except AssertionError as exc:
        raise Mismatch(f"{c.fault_model.value}: {exc}") from exc


def _round(plant, campaigns, workers, first) -> dict:
    """One round: ``round_trials`` trials per fault model."""
    from repro.fi import assert_records_equal

    n = plant.wl.round_trials
    records, failed = [], 0
    t0 = time.perf_counter()
    for c in campaigns:
        result = c.run(n, n_workers=workers)
        records.append(result.trials)
        failed += stats.failures(quarantined=result.quarantined)
    wall = time.perf_counter() - t0
    if first is not None:
        for c, a, b in zip(campaigns, first, records):
            try:
                assert_records_equal(a, b, "first round", "this round")
            except AssertionError as exc:
                raise Mismatch(f"{c.fault_model.value}: {exc}") from exc
    tokens = len(campaigns) * sum(
        plant.tokens[t % len(plant.examples)] for t in range(n)
    )
    return {
        "t0": t0, "t1": t0 + wall, "wall": wall, "trials": n * len(campaigns),
        "failed": failed, "tokens": tokens, "records": records,
    }


def _rounds(plant, campaigns, workers, seconds: float) -> tuple[list[dict], list]:
    """As many rounds, each after one timed set-up, as end closest to
    ``seconds``; returns the rounds and the set-up walls."""
    out, setups, first = [], [], None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not out or time.perf_counter() + last / 2 <= deadline:
        t0 = time.perf_counter()
        setups.append(_setup(plant))
        out.append(_round(plant, campaigns, workers, first))
        first = first or out[0]["records"]
        last = time.perf_counter() - t0
    return out, setups


def run(ctx: Context, wl: CampaignWorkload) -> Result:
    plant = _Plant(ctx, wl)
    campaigns = plant.build()
    try:
        _gate(plant, campaigns)
        if ctx.traced:
            result = _traced(ctx, plant, campaigns)
        else:
            result = _untraced(ctx, plant, campaigns)
        # Peak over the process tree while the pool workers are alive.
        result.metrics["rss_peak_mb"] = provenance.tree_peak_mb()
    finally:
        _close(campaigns)
    result.info.update(fixture_s=plant.fixture_s)
    return result


def _untraced(ctx, plant, campaigns) -> Result:
    rounds, setups = _rounds(plant, campaigns, plant.workers, ctx.seconds)
    metrics = {
        "setup_s": stats.median(setups),
        "ttft_ms_p50": 1e3 / stats.rate(rounds, "trials"),
        "tpot_ms_p50": 1e3 / stats.rate(rounds, "tokens"),
        "goodput_rps": stats.rate(rounds, "trials") - stats.rate(rounds, "failed"),
        "tokens_per_s": stats.rate(rounds, "tokens"),
        "trials_per_s": stats.rate(rounds, "trials"),
    }
    return Result(
        metrics, sum(r["trials"] for r in rounds), sum(r["failed"] for r in rounds),
        {"rounds": len(rounds), "round_walls_s": [r["wall"] for r in rounds]},
    )


def _traced(ctx, plant, campaigns) -> Result:
    """A traced set-up, then rounds in turn: untraced pooled (MMLU),
    untraced serial, and traced serial on the traced campaigns.  All
    run the same trials, so every round must repeat the first one."""
    tracer = sp.Tracer()

    def patch():
        return sp.patched(probes.targets(tracer))

    with patch():
        s0 = time.perf_counter()
        traced_campaigns = plant.build()
        s1 = time.perf_counter()
    pooled, serial, traced = [], [], []
    first = None
    try:
        for _ in range(TRACED_ROUNDS):
            if plant.workers:
                pooled.append(_round(plant, campaigns, plant.workers, first))
                first = first or pooled[0]["records"]
            serial.append(_round(plant, campaigns, 0, first))
            first = first or serial[0]["records"]
            with patch():
                traced.append(_round(plant, traced_campaigns, 0, first))
    finally:
        _close(traced_campaigns)
    setup_spans = [s for s in tracer.spans if s0 <= s.start and s.end <= s1]
    w = analysis.collect(tracer.spans, [(r["t0"], r["t1"]) for r in traced])
    metrics = analysis.common(w)
    n_trials = sum(r["trials"] for r in traced)
    records = [t for r in traced for recs in r["records"] for t in recs]
    generate = w.spans("generation.generate_ids")
    metrics.update({
        "inference.kv.slots_in_use_mean": stats.median(
            analysis.slots_in_use_mean(tracer.spans, r["t0"], r["t1"]) for r in traced
        ),
        "generation.decode_many.s":
            analysis.outermost_seconds(setup_spans, "generation.decode_many"),
        "fi.inject.ms_per_trial":
            sum(s.duration for s in w.spans("fi.inject")) * 1e3 / n_trials,
        "fi.sample_site.us":
            sum(s.duration for s in w.spans("fi.sample_site")) * 1e6 / n_trials,
        "fi.trial_overhead_ms": w.layers.get("other", 0.0) * 1e3 / n_trials,
        "fi.prefill_reuse_frac":
            sum(s.attrs["reuse"] for s in generate) / len(generate) if generate else 0.0,
        "fi.fired_frac": sum(t.fired for t in records) / len(records),
        "fi.compute_baseline.s":
            analysis.outermost_seconds(setup_spans, "fi.compute_baseline"),
        "metrics.score_generative.ms_per_trial":
            w.self_s.get("metrics.score_generative", 0.0) * 1e3 / n_trials,
    })
    serial_tps = stats.rate(serial, "trials")
    metrics["fi.pool.serial_trials_per_s"] = serial_tps
    if pooled:
        pooled_tps = stats.rate(pooled, "trials")
        metrics.update({
            "fi.pool.pooled_trials_per_s": pooled_tps,
            "fi.pool.speedup": pooled_tps / serial_tps,
            "fi.pool.spinup_s": sum(
                s.duration for s in setup_spans
                if s.name in ("fi.pool.spawn", "fi.pool.wait_ready")
            ),
        })
    metrics["trace.overhead_frac"] = (
        stats.rate(serial, "trials") / stats.rate(traced, "trials") - 1.0
    )
    runs = pooled + serial + traced
    info = {"span_count": len(tracer.spans), "traced_trials": n_trials}
    return Result(
        metrics, sum(r["trials"] for r in runs), sum(r["failed"] for r in runs),
        info, tracer.spans,
    )
