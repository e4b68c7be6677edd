"""Statistical fault-injection campaigns (paper §3.2, §3.3).

A campaign evaluates one (model, task, fault model) cell of the paper's
study: it computes the fault-free baseline over a standardized example
subset, then runs ``n_trials`` independent fault injections — each at a
uniformly sampled site — and aggregates normalized performance with
log-transform 95% confidence intervals, SDC breakdowns and
bit-position vulnerability profiles.

Every trial derives its RNG from a *stable trial key* — a hash of
``(example identity, trial index, fault model)`` — never from
enumeration order, so a campaign is bit-reproducible, embarrassingly
parallel, and restartable: the optional process pool partitions trials
without changing any sampled site, and a resumed run replays exactly
the sites an uninterrupted run would have drawn.

The runner itself is fault-tolerant (the execution layer must survive
the same paper-scale campaigns it measures):

* ``checkpoint=`` journals each completed trial to a crash-durable
  JSONL file (:mod:`repro.fi.checkpoint`); :meth:`FICampaign.resume`
  skips already-recorded trial keys and reproduces the same aggregate
  results as one uninterrupted run;
* trials that raise are retried with exponential backoff
  (``max_retries``) and quarantined as :attr:`Outcome.FAILED` records
  when they fail deterministically — the campaign completes instead of
  crashing;
* a dead worker is respawned (it re-attaches to the campaign's shared
  weight arena — weights are never re-shipped); ``trial_timeout``
  bounds each trial (a stuck worker is killed and replaced); after
  ``max_pool_rebuilds`` replacements the campaign degrades gracefully
  to serial execution.

Scale-out: parallel execution uses a *pre-forked persistent pool*
built once per campaign.  The target (and draft) engines export their
weight planes into a memory-mapped read-only arena; every worker
attaches zero-copy, so N workers share one physical copy of the model
through the page cache.  Weight-fault trials copy-on-write only the
targeted tensor (see ``WeightStore._ensure_writable``).  Work is
distributed dynamically — the parent hands the next pending trial to
whichever worker frees up first (work stealing without a shared lock),
which keeps all workers busy under skewed trial durations.  The pool
survives across ``run()``/``resume()`` calls on the same campaign.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path

import numpy as np

from repro.fi.checkpoint import CampaignCheckpoint, site_to_dict
from repro.fi.fault_models import FaultModel
from repro.fi.injector import inject
from repro.fi.outcomes import Outcome, classify_direct_answer, classify_generative
from repro.fi.sites import FaultSite, LayerFilter, sample_site
from repro.generation.batched import BatchedDecoder, decode_batching_safe
from repro.generation.decode import (
    GenerationConfig,
    choose_option,
    generate_ids,
    greedy_pick,
)
from repro.generation.spec_batched import BatchedSpeculativeDecoder
from repro.generation.speculative import SpeculativeDecoder, decode_speculation_safe
from repro.inference.engine import CaptureState, InferenceEngine
from repro.metrics.evaluate import score_generative
from repro.model.params import arena_nbytes
from repro.obs.flight import flight_recorder as _flight
from repro.obs.instrument import attach_layer_timing
from repro.obs.manifest import config_hash
from repro.obs.runtime import telemetry as _telemetry
from repro.obs.trace import SpanRecord
from repro.numerics.stats import (
    RatioCI,
    log_ratio_ci_means,
    log_ratio_ci_proportions,
)
from repro.tasks.base import GenExample, MCExample
from repro.tasks.math_task import extract_final_answer
from repro.text.tokenizer import Tokenizer

__all__ = [
    "TrialRecord",
    "CampaignResult",
    "CampaignChaos",
    "ChaosError",
    "TrialTimeoutError",
    "FICampaign",
]


@dataclass(frozen=True)
class TrialRecord:
    """One fault-injection run's outcome."""

    site: FaultSite
    example_index: int
    prediction: str
    outcome: Outcome
    metrics: dict = field(hash=False, compare=False)
    changed: bool = False
    selection_changed: bool | None = None
    """For MoE gate studies: did the expert routing change?"""
    fired: bool = True
    """Whether the armed fault actually struck during the trial's
    inference.  Memory faults always fire (the corruption exists the
    moment the weights flip); transient injectors can miss — the decode
    can end before the sampled iteration, and a draft-side fault's
    round schedule may skip it.  The masking studies condition on this:
    a trial whose fault never landed measures nothing."""
    error: str | None = field(default=None, hash=False, compare=False)
    """For quarantined (``FAILED``) trials: the final attempt's error."""


@dataclass
class CampaignResult:
    """Aggregated campaign statistics.

    Quarantined (``FAILED``) trials appear in :attr:`trials` — the
    campaign accounts for every requested trial — but are excluded
    from SDC rates and metric aggregates: they produced no model
    output to classify.
    """

    task_name: str
    fault_model: FaultModel
    n_trials: int
    baseline: dict
    faulty: dict
    normalized: dict
    trials: list[TrialRecord]

    @property
    def quarantined(self) -> int:
        """Trials that failed deterministically and were quarantined."""
        return sum(t.outcome is Outcome.FAILED for t in self.trials)

    def _classified(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.outcome is not Outcome.FAILED]

    @property
    def sdc_rate(self) -> float:
        """Fraction of classified trials whose outcome is an SDC."""
        classified = self._classified()
        if not classified:
            return 0.0
        return sum(t.outcome.is_sdc for t in classified) / len(classified)

    def sdc_breakdown(self) -> dict[str, float]:
        """Fractions of classified trials that are subtle vs distorted."""
        n = max(1, len(self._classified()))
        subtle = sum(t.outcome is Outcome.SDC_SUBTLE for t in self.trials)
        distorted = sum(t.outcome is Outcome.SDC_DISTORTED for t in self.trials)
        return {"subtle": subtle / n, "distorted": distorted / n}

    def outcomes_by_highest_bit(self) -> dict[int, dict[str, int]]:
        """Per-highest-flipped-bit outcome counts (paper Figs 9/10)."""
        table: dict[int, dict[str, int]] = {}
        for t in self.trials:
            row = table.setdefault(
                t.site.highest_bit,
                {"masked": 0, "subtle": 0, "distorted": 0, "failed": 0},
            )
            key = {
                Outcome.MASKED: "masked",
                Outcome.SDC_SUBTLE: "subtle",
                Outcome.SDC_DISTORTED: "distorted",
                Outcome.FAILED: "failed",
            }[t.outcome]
            row[key] += 1
        return table


# ----------------------------------------------------------------------------
# Runner-level fault injection (chaos testing the campaign driver).
# ----------------------------------------------------------------------------


class ChaosError(RuntimeError):
    """Raised by :class:`CampaignChaos` strikes (transient or sticky)."""


class TrialTimeoutError(RuntimeError):
    """A trial exceeded ``trial_timeout`` and was abandoned."""


@dataclass(frozen=True)
class CampaignChaos:
    """Deliberate faults in the campaign *runner* for resilience tests.

    The repo injects bit flips into models; this injects failures into
    the execution layer itself, so the supervisor's retry, quarantine,
    timeout and pool-rebuild paths can be exercised deterministically.
    All strikes key on the trial index; except for ``fail_always`` they
    fire only on a trial's first attempt, so a correct supervisor
    always recovers.
    """

    fail_transient: frozenset = frozenset()
    """Trials that raise on their first attempt only."""
    fail_always: frozenset = frozenset()
    """Trials that raise on every attempt (deterministic failures)."""
    die_in_worker: frozenset = frozenset()
    """Trials that kill their worker process (first attempt, pool only)."""
    hang: frozenset = frozenset()
    """Trials that sleep ``hang_seconds`` on their first attempt."""
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in ("fail_transient", "fail_always", "die_in_worker", "hang"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))

    def strike(self, trial: int, attempt: int, in_worker: bool) -> None:
        if trial in self.fail_always:
            raise ChaosError(f"chaos: deterministic failure in trial {trial}")
        if attempt > 0:
            return
        if trial in self.fail_transient:
            raise ChaosError(f"chaos: transient failure in trial {trial}")
        if trial in self.die_in_worker and in_worker:
            os._exit(13)
        if trial in self.hang:
            time.sleep(self.hang_seconds)


@dataclass(frozen=True)
class _Supervision:
    """Resolved fault-tolerance knobs for one ``run()`` invocation."""

    trial_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    max_pool_rebuilds: int = 2


@contextmanager
def _trial_alarm(seconds: float | None):
    """Best-effort serial trial timeout via ``SIGALRM``.

    Active only on platforms with ``SIGALRM`` and from the main thread;
    elsewhere serial trials run unbounded (pool execution enforces the
    timeout in the parent instead).
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _fire(signum, frame):
        raise TrialTimeoutError(f"trial exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------------
# Worker-side state for the persistent pool.
# ----------------------------------------------------------------------------

_WORKER: dict = {}


def _attach_worker_campaign(arena_root: Path, campaign_state: dict) -> "FICampaign":
    """Rebuild a worker-local campaign over the shared weight arena.

    Nothing heavyweight crosses the process boundary: the campaign
    state dict is inherited through ``fork`` and the engines attach
    zero-copy to the parent's exported mmap planes, so every worker
    (including ones respawned after a death) shares one physical copy
    of the weights through the page cache.
    """
    campaign = FICampaign.__new__(FICampaign)
    campaign.__dict__.update(campaign_state)
    campaign.engine = InferenceEngine.open_shared(arena_root / "target")
    draft_dir = arena_root / "draft"
    campaign.draft_model = (
        InferenceEngine.open_shared(draft_dir) if draft_dir.exists() else None
    )
    # Each worker builds its own prefill-session cache: sessions wrap
    # the worker-local engine and are deliberately never shared.  The
    # cache persists across every trial this worker serves.
    campaign._prefill_sessions = {}
    campaign._pool = None
    campaign._arena = None
    # Serving is a parent-process concern: a worker's engine is its own
    # arena attachment, so server handles never cross the fork.
    campaign._serve = None
    campaign._serve_faults = False
    return campaign


def _pool_worker_main(
    arena_root: str,
    campaign_state: dict,
    telemetry_active: bool,
    flight_active: bool,
    task_q,
    result_conn,
) -> None:
    """Persistent pool worker: attach to the arena, then serve trials.

    Messages on ``result_conn`` are ``(kind, pid, trial, body)``:

    * ``("ready", pid, None, None)`` — attached and idle;
    * ``("start", pid, trial, None)`` — began executing ``trial`` (the
      supervisor arms the trial deadline here, so queue latency and
      attach time never count against ``trial_timeout``);
    * ``("ok", pid, trial, (record, payload))`` — trial finished;
    * ``("err", pid, trial, "Type: msg")`` — trial raised (the worker
      already ran ``_post_failure_repair`` and is reusable).

    ``result_conn`` is this worker's *private* pipe to the supervisor.
    A shared results queue would serialize all workers through one
    write lock — and a worker SIGKILLed (deadline) or ``os._exit``ed
    (crash) while holding it would orphan the lock and wedge every
    surviving sibling mid-``put``, deadlocking the whole pool.  With
    one single-writer pipe per worker, a death can corrupt at most its
    own channel, which the supervisor detects as EOF and discards.

    The loop exits on a ``None`` sentinel or a closed task queue.
    """
    campaign = _attach_worker_campaign(Path(arena_root), campaign_state)
    _WORKER["campaign"] = campaign
    _WORKER["in_pool"] = True
    if telemetry_active:
        # Workers collect into their own process-local telemetry; the
        # parent merges the returned snapshots in trial order, so the
        # merged stream is deterministic w.r.t. worker scheduling.
        tel = _telemetry()
        tel.reset()
        tel.enable()
        attach_layer_timing(campaign.engine, tel)
    if flight_active:
        # The flight recorder is likewise per-process: each worker arms
        # its own and ships drained records back with the result.
        recorder = _flight()
        recorder.reset()
        recorder.arm()
    pid = os.getpid()
    try:
        result_conn.send(("ready", pid, None, None))
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            task = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        trial, attempt = task
        try:
            result_conn.send(("start", pid, trial, None))
            try:
                record, payload = _worker_run_one((trial, attempt))
            except Exception as exc:  # noqa: BLE001 — shipped to supervisor
                result_conn.send(
                    ("err", pid, trial, f"{type(exc).__name__}: {exc}")
                )
            else:
                result_conn.send(("ok", pid, trial, (record, payload)))
        except (BrokenPipeError, OSError, KeyboardInterrupt):
            return


def _worker_run_one(args: tuple[int, int]) -> tuple[TrialRecord, dict | None]:
    """Run one trial in a pool worker; returns (record, telemetry)."""
    trial, attempt = args
    campaign: FICampaign = _WORKER["campaign"]
    tel = _telemetry()
    recorder = _flight()
    if tel.active:
        # Drop residue from a previously failed attempt on this worker.
        tel.tracer.reset()
        tel.metrics.reset()
    if recorder.active:
        recorder.reset()
    try:
        record = campaign._run_trial(trial, attempt)
    except Exception:
        campaign._post_failure_repair()
        raise
    if not tel.active and not recorder.active:
        return record, None
    payload: dict = {
        # Clock anchor pairing this worker's perf_counter epoch with
        # wall time, so the parent can rebase span starts onto its own
        # monotonic timeline at adoption.
        "clock": {"perf": time.perf_counter(), "unix": time.time()},
        "pid": os.getpid(),
    }
    if tel.active:
        payload["spans"] = [span.to_dict() for span in tel.tracer.records]
        payload["metrics"] = tel.metrics.snapshot()
        tel.tracer.reset()
        tel.metrics.reset()
    if recorder.active:
        payload["flight"] = recorder.drain()
    return record, payload


# ----------------------------------------------------------------------------
# Shared weight arena + pre-forked persistent pool (parent side).
# ----------------------------------------------------------------------------


class _SharedArena:
    """One campaign's exported weight planes on disk (target + draft).

    Exported exactly once per campaign into a temp directory of
    ``.npy``-layout mmap arenas; every pool worker — initial or
    respawned — attaches to the same files, so weights are shipped
    zero times regardless of how often the pool rebuilds.  The
    directory is removed when the campaign is garbage collected
    (workers keep their mappings alive through the open inodes).
    """

    def __init__(self, engine: InferenceEngine, draft: InferenceEngine | None):
        self.root = Path(tempfile.mkdtemp(prefix="repro-arena-"))
        engine.export_shared(self.root / "target")
        self.nbytes = arena_nbytes(self.root / "target")
        if draft is not None:
            draft.export_shared(self.root / "draft")
            self.nbytes += arena_nbytes(self.root / "draft")
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self.root), True
        )

    def close(self) -> None:
        self._finalizer()


def _terminate_procs(workers: dict) -> None:
    """GC-time backstop: SIGTERM any pool worker still alive."""
    for proc, _task_q in list(workers.values()):
        if proc.is_alive():
            proc.terminate()


class CampaignPool:
    """Pre-forked persistent worker pool with parent-side dispatch.

    Workers are forked once (inheriting the campaign state; attaching
    to the shared arena for weights) and then serve trials until the
    campaign ends.  The parent assigns the next pending trial to
    whichever worker reports free first — dynamic dispatch is the
    work-stealing behaviour (an idle worker "steals" trials a static
    chunking would have given to a slower sibling) without any shared
    lock, and it gives the supervisor exact trial→worker attribution
    for deadlines and death accounting.

    This class owns only process/queue mechanics; retry, quarantine
    and degradation *policy* lives in ``FICampaign._run_pool``.
    """

    def __init__(
        self,
        spawn_args: tuple,
        n_workers: int,
    ) -> None:
        # fork (not spawn): workers must inherit spawn_args by memory
        # so the campaign state is never pickled, and must exist before
        # any trial runs so arena pages are shared, not duplicated.
        self._ctx = mp.get_context("fork")
        self._spawn_args = spawn_args
        self.n_workers = n_workers
        self.telemetry_active = bool(spawn_args[2])
        self.flight_active = bool(spawn_args[3])
        # One private result pipe per worker (single writer, no shared
        # lock): a worker killed mid-send can only corrupt its own
        # channel, never block a sibling's results.
        self._conns: dict[int, object] = {}  # pid -> parent-side reader
        self._buffered: deque = deque()  # messages drained off dead conns
        self._workers: dict[int, tuple] = {}  # pid -> (proc, task_q)
        self._idle: set[int] = set()
        self._ready: set[int] = set()
        self.in_flight: dict[int, list] = {}  # pid -> [trial, started or None]
        self.spawning = 0
        self.closed = False
        self._finalizer = weakref.finalize(
            self, _terminate_procs, self._workers
        )
        for _ in range(n_workers):
            self.spawn_worker()

    # -- lifecycle ---------------------------------------------------------

    def spawn_worker(self) -> int:
        """Fork one worker; it announces itself with a "ready" message."""
        task_q = self._ctx.SimpleQueue()
        r_conn, w_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(*self._spawn_args, task_q, w_conn),
            daemon=True,
        )
        proc.start()
        # Drop the parent's copy of the write end: the worker must be
        # the *only* writer so its death EOFs the reader.  (Forking the
        # next worker after this close also keeps siblings from
        # inheriting each other's write ends.)
        w_conn.close()
        self._workers[proc.pid] = (proc, task_q)
        self._conns[proc.pid] = r_conn
        self.spawning += 1
        return proc.pid

    def wait_ready(self, timeout: float = 120.0) -> int:
        """Block until every spawning worker attached (or died/timed out).

        Returns the number of "ready" announcements processed.  Used
        only at spinup, when no trials are in flight — later readies
        (respawns) flow through the supervisor's normal ``poll`` loop.
        """
        ready = 0
        deadline = time.monotonic() + timeout
        while self.spawning and time.monotonic() < deadline:
            msg = self.poll(0.2)
            if msg is not None and msg[0] == "ready":
                ready += 1
            elif msg is None and not any(
                proc.is_alive()
                for pid, (proc, _q) in self._workers.items()
                if pid not in self._ready
            ):
                self.reap_dead()
                break
        return ready

    def close(self) -> None:
        """Shut the pool down: sentinel, short grace, then kill."""
        if self.closed:
            return
        self.closed = True
        for _pid, (_proc, task_q) in list(self._workers.items()):
            try:
                task_q.put(None)
            except (OSError, ValueError):
                pass
        grace = time.monotonic() + 1.0
        for _pid, (proc, _q) in list(self._workers.items()):
            proc.join(max(0.0, grace - time.monotonic()))
        for _pid, (proc, _q) in list(self._workers.items()):
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        self._workers.clear()
        self._idle.clear()
        self._ready.clear()
        self.in_flight.clear()
        self.spawning = 0
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        self._buffered.clear()
        self._finalizer.detach()

    # -- scheduling --------------------------------------------------------

    @property
    def idle(self) -> set[int]:
        return self._idle

    def worker_pids(self) -> list[int]:
        return sorted(self._workers)

    def alive(self) -> bool:
        return any(proc.is_alive() for proc, _q in self._workers.values())

    def dispatch(self, trial: int, attempt: int) -> int:
        """Hand ``(trial, attempt)`` to an idle worker; returns its pid."""
        pid = self._idle.pop()
        self.in_flight[pid] = [trial, None]
        self._workers[pid][1].put((trial, attempt))
        return pid

    def _recv(self, timeout: float):
        """One message from any worker pipe (or ``None`` on timeout).

        A readable connection that raises on ``recv`` belongs to a
        worker that died mid-frame; its channel is discarded — the
        process itself is collected by ``reap_dead``.
        """
        if self._buffered:
            return self._buffered.popleft()
        if not self._conns:
            time.sleep(timeout)
            return None
        for conn in mp_connection.wait(list(self._conns.values()), timeout):
            try:
                return conn.recv()
            except (EOFError, OSError):
                self._discard_conn(conn)
        return None

    def _discard_conn(self, conn) -> None:
        for pid, c in list(self._conns.items()):
            if c is conn:
                del self._conns[pid]
        try:
            conn.close()
        except OSError:
            pass

    def _drain_conn(self, pid: int) -> None:
        """Salvage any fully-delivered messages a dead worker left in
        its pipe (e.g. a final "ok" racing the death) before closing."""
        conn = self._conns.pop(pid, None)
        if conn is None:
            return
        try:
            while conn.poll(0):
                self._buffered.append(conn.recv())
        except (EOFError, OSError):
            pass
        try:
            conn.close()
        except OSError:
            pass

    def poll(self, timeout: float):
        """Next worker message (or ``None`` on timeout), with pool
        bookkeeping (idle/ready/in-flight transitions) already applied."""
        msg = self._recv(timeout)
        if msg is None:
            return None
        kind, pid, trial, _body = msg
        if kind == "ready":
            self.spawning = max(0, self.spawning - 1)
            if pid in self._workers:
                self._ready.add(pid)
                self._idle.add(pid)
        elif kind == "start":
            entry = self.in_flight.get(pid)
            if entry is not None and entry[0] == trial:
                entry[1] = time.monotonic()
        elif kind in ("ok", "err"):
            entry = self.in_flight.get(pid)
            if entry is not None and entry[0] == trial:
                del self.in_flight[pid]
            if pid in self._workers:
                self._idle.add(pid)
        return msg

    def reap_dead(self) -> list[tuple[int, int | None]]:
        """Collect dead workers; returns ``[(pid, orphaned trial?)]``."""
        dead = []
        for pid, (proc, _task_q) in list(self._workers.items()):
            if proc.is_alive():
                continue
            proc.join()
            self._drain_conn(pid)
            entry = self.in_flight.pop(pid, None)
            if pid not in self._ready:
                self.spawning = max(0, self.spawning - 1)
            self._idle.discard(pid)
            self._ready.discard(pid)
            del self._workers[pid]
            dead.append((pid, entry[0] if entry else None))
        return dead

    def expired(self, now: float, timeout: float | None) -> list[tuple[int, int]]:
        """Workers whose armed trial deadline has passed."""
        if not timeout:
            return []
        return [
            (pid, entry[0])
            for pid, entry in self.in_flight.items()
            if entry[1] is not None and now - entry[1] > timeout
        ]

    def kill_worker(self, pid: int) -> None:
        """SIGKILL one worker (stuck mid-trial) and forget it."""
        entry = self._workers.pop(pid, None)
        if entry is None:
            return
        proc, _task_q = entry
        proc.kill()
        proc.join(5.0)
        # No salvage here: the worker was killed *because* its trial is
        # suspect; anything left on its pipe is stale.
        conn = self._conns.pop(pid, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self.in_flight.pop(pid, None)
        self._idle.discard(pid)
        self._ready.discard(pid)


class FICampaign:
    """Driver for one statistical fault-injection campaign."""

    def __init__(
        self,
        engine: InferenceEngine,
        tokenizer: Tokenizer,
        task_name: str,
        metrics: tuple[str, ...],
        examples: list,
        fault_model: FaultModel,
        seed: int = 0,
        generation: GenerationConfig | None = None,
        layer_filter: LayerFilter | None = None,
        track_expert_selection: bool = False,
        max_fault_iterations: int | None = None,
        prefill_cache: bool = True,
        mc_scoring: str = "auto",
        decode_strategy: str = "auto",
        decode_batch_size: int = 8,
        draft_model: InferenceEngine | None = None,
        speculation_depth: int = 4,
        spec_fault_side: str | None = None,
        chaos: CampaignChaos | None = None,
    ) -> None:
        self.engine = engine
        self.tokenizer = tokenizer
        self.task_name = task_name
        self.metrics = metrics
        self.examples = list(examples)
        if not self.examples:
            raise ValueError("campaign needs at least one example")
        self.fault_model = fault_model
        self.seed = seed
        self.is_mc = isinstance(self.examples[0], MCExample)
        self.generation = generation or GenerationConfig()
        self.layer_filter = layer_filter
        self.track_expert_selection = track_expert_selection
        self.max_fault_iterations = max_fault_iterations
        """Restrict computational-fault timing to iterations below this
        bound (the paper's CoT study injects only during reasoning-token
        generation)."""
        self.prefill_cache = prefill_cache
        """Reuse one fault-free prefilled session per example for
        generative trials whose fault strikes at iteration >= 1 (the
        iteration-0 forward is then bit-identical to the baseline's).
        Memory faults and iteration-0 computational faults always
        re-prefill — their prompt forward differs from the baseline."""
        self.mc_scoring = mc_scoring
        """Option-scoring strategy passed to :func:`choose_option`
        (``auto`` shares the prompt prefill across options whenever no
        fault machinery is armed; set ``full`` to force the unshared
        reference path, e.g. for equivalence benchmarking)."""
        self.decode_strategy = decode_strategy
        """Decode routing passed to :func:`generate_ids` (``auto``
        batches whenever :func:`decode_batching_safe` allows it —
        fault-free baselines batch across examples, faulty trials batch
        only under row-scoped hooks; set ``serial`` to force the exact
        per-sequence reference loop everywhere)."""
        self.decode_batch_size = decode_batch_size
        """Continuous-batching width for the fault-free generative
        baseline sweep (faulty trials decode one sequence at a time)."""
        if draft_model is not None and (
            draft_model.config.vocab_size != engine.config.vocab_size
        ):
            raise ValueError(
                "draft_model must share the target's vocabulary:"
                f" draft has {draft_model.config.vocab_size} tokens,"
                f" target has {engine.config.vocab_size}"
            )
        if decode_strategy == "speculative" and draft_model is None:
            raise ValueError("decode_strategy='speculative' needs a draft_model")
        self.draft_model = draft_model
        """Optional same-tokenizer draft engine for speculative greedy
        decoding.  Fault-free generative work — the baseline sweep and
        any trial whose fault machinery is not armed — drafts
        ``speculation_depth`` tokens per verify round; injected trials
        fail the :func:`~repro.generation.speculative.decode_speculation_safe`
        gate and run the exact serial reference path automatically."""
        self.speculation_depth = speculation_depth
        if spec_fault_side is not None:
            if spec_fault_side not in ("draft", "target"):
                raise ValueError(
                    f"spec_fault_side must be 'draft' or 'target',"
                    f" got {spec_fault_side!r}"
                )
            if draft_model is None:
                raise ValueError("spec_fault_side needs a draft_model")
            if self.is_mc:
                raise ValueError(
                    "the speculation-side study is generative-only"
                )
        self.spec_fault_side = spec_fault_side
        """Speculation-side masking study: inject every trial's fault
        into the named engine of the draft/verify pair *while decoding
        speculatively* (``decode_one(force=True)``).  ``"draft"`` sites
        are sampled against the draft engine's geometry; the
        verification step should mask them all (the masking theorem in
        :mod:`repro.generation.speculative`).  ``None`` (default) keeps
        the standard single-engine trial path."""
        self.chaos = chaos
        """Optional runner-level fault injection (resilience tests)."""
        self._example_ids = [self._stable_example_id(ex) for ex in self.examples]
        self._baseline_preds: list | None = None
        self._baseline_selections: list | None = None
        self._prefill_sessions: dict[int, tuple] = {}
        """Per-example ``(session, cache snapshots, last_logits,
        position)`` entries for fault-free prefill reuse (never pickled
        to workers — each worker rebuilds its own lazily)."""
        self._metric_baseline_memo: dict[tuple[str, int], float] = {}
        self._arena: _SharedArena | None = None
        """Lazily exported shared weight arena (one per campaign —
        pool rebuilds and resumed runs re-attach, never re-export)."""
        self._pool: CampaignPool | None = None
        """Persistent pre-forked worker pool; survives across
        ``run()``/``resume()`` boundaries until :meth:`close_pool`."""
        self._serve = None
        """Optional attached :class:`~repro.serve.server.InferenceServer`
        (:meth:`attach_server`): fault-free generative baselines submit
        as tenant traffic instead of monopolizing the engine."""
        self._serve_tenant = "campaign"
        self._serve_faults = False
        """When True (``attach_server(serve_faults=True)``), KV-fault
        trials also run *through the live server* — the fault is pinned
        to the campaign request's pool slot while other tenants' streams
        share the batch (the cross-request blast-radius mode)."""

    # -- stable trial identity ---------------------------------------------------

    @staticmethod
    def _stable_example_id(ex) -> str:
        """Content hash identifying an example across runs and reorders."""
        if isinstance(ex, MCExample):
            payload = ["mc", ex.prompt, list(ex.options), ex.answer_index]
        else:
            payload = ["gen", ex.prompt, ex.reference]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
        return digest[:16]

    def trial_key(self, trial: int) -> tuple[str, int, str]:
        """The stable ``(example id, trial index, fault model)`` key.

        This is the identity a checkpoint journal records and the sole
        source of a trial's RNG entropy (besides the campaign seed) —
        enumeration order, worker scheduling and resume boundaries can
        never shift which site a trial samples.
        """
        idx = trial % len(self.examples)
        return (self._example_ids[idx], trial, self.fault_model.value)

    def _trial_rng(self, trial: int) -> np.random.Generator:
        digest = hashlib.sha256(
            json.dumps(self.trial_key(trial)).encode()
        ).digest()
        words = [
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        ]
        return np.random.default_rng([self.seed, *words])

    def fingerprint(self) -> dict:
        """Result-determining configuration, hashed into checkpoints.

        Perf knobs (``prefill_cache``, ``mc_scoring``,
        ``decode_strategy``, ``decode_batch_size``, ``draft_model``,
        ``speculation_depth``) are excluded on purpose: they cannot
        change TrialRecords (the differential suite holds them to
        that), so a journal written under one execution strategy may be
        resumed under another.
        """
        fingerprint = {
            "task": self.task_name,
            "fault_model": self.fault_model.value,
            "seed": self.seed,
            "is_mc": self.is_mc,
            "metrics": list(self.metrics),
            "example_ids": list(self._example_ids),
            "generation": {
                "max_new_tokens": self.generation.max_new_tokens,
                "num_beams": self.generation.num_beams,
                "length_penalty": self.generation.length_penalty,
                "eos_id": self.generation.eos_id,
            },
            "max_fault_iterations": self.max_fault_iterations,
            "track_expert_selection": self.track_expert_selection,
            "layer_filter": (
                getattr(self.layer_filter, "__name__", repr(self.layer_filter))
                if self.layer_filter is not None
                else None
            ),
        }
        if self.spec_fault_side is not None:
            # The speculation-side study makes the speculative schedule
            # result-determining (strike timing depends on round
            # boundaries), so these join the fingerprint — but only
            # conditionally, preserving every existing journal's hash.
            fingerprint["spec_fault_side"] = self.spec_fault_side
            fingerprint["speculation_depth"] = self.speculation_depth
        return fingerprint

    # -- shared single-example evaluation --------------------------------------

    def _encode_mc(self, ex: MCExample) -> tuple[list[int], list[list[int]]]:
        prompt = self.tokenizer.encode(ex.prompt)
        options = [self.tokenizer.encode(o) for o in ex.options]
        return prompt, options

    def _eval_mc(self, ex: MCExample) -> int:
        prompt, options = self._encode_mc(ex)
        return choose_option(
            self.engine, prompt, options, strategy=self.mc_scoring
        )

    def _eval_gen(self, ex: GenExample, session=None) -> str:
        prompt = self.tokenizer.encode(ex.prompt)
        ids = generate_ids(
            self.engine,
            prompt,
            self.generation,
            session=session,
            strategy=self.decode_strategy,
            draft=self.draft_model,
            speculation_depth=self.speculation_depth,
        )
        return self.tokenizer.decode(ids)

    def _capture_selections(self) -> dict | None:
        if not self.track_expert_selection:
            return None
        assert self.engine.capture is not None
        return dict(self.engine.capture.expert_selections)

    # -- serving integration -----------------------------------------------------

    def attach_server(
        self, server, tenant: str = "campaign", serve_faults: bool = False
    ) -> None:
        """Route fault-free generative baselines through a live
        :class:`~repro.serve.server.InferenceServer` as tenant traffic.

        The campaign becomes *just another tenant*: its baseline sweep
        competes under the server's admission control and weighted
        scheduling instead of monopolizing the engine with a blocking
        library call.  Served tokens are greedy-identical to the local
        path (the serve equivalence gate), so TrialRecords are
        unchanged.  By default injected trials keep the exact local
        reference path — fault arming and serving never mix.

        ``serve_faults=True`` (KV-fault campaigns only) additionally
        routes *injected* trials through the server: each trial submits
        its prompt with the sampled KV fault attached, the server arms
        a :class:`~repro.fi.injector.KVFaultInjector` pinned to that
        request's pool slot, and the fault decodes mid-batch alongside
        whatever other tenants are streaming — the cross-request
        blast-radius mode.  Slot pinning scopes the corruption to the
        campaign's own stream (asserted by the stream-isolation tests),
        so concurrent tenant traffic is measured, not forbidden.
        """
        if self.is_mc:
            raise ValueError("serving integration is generative-only")
        if serve_faults and not self.fault_model.is_kv:
            raise ValueError(
                "serve_faults mode is KV-fault-only:"
                f" {self.fault_model.value} faults arm engine-global state"
            )
        if serve_faults and self.generation.num_beams != 1:
            raise ValueError("serve_faults mode requires greedy decoding")
        if serve_faults and self.spec_fault_side is not None:
            raise ValueError(
                "serve_faults and spec_fault_side are mutually exclusive"
            )
        if server.engine is not self.engine:
            raise ValueError("server must wrap this campaign's engine")
        if server.config.eos_id != self.generation.eos_id:
            raise ValueError(
                "server and campaign must agree on eos_id:"
                f" server {server.config.eos_id},"
                f" campaign {self.generation.eos_id}"
            )
        server.ensure_tenant(tenant)
        self._serve = server
        self._serve_tenant = tenant
        self._serve_faults = serve_faults

    def detach_server(self) -> None:
        self._serve = None
        self._serve_faults = False

    def _serve_fallback(self, reason: str) -> None:
        """An attached server declined the baseline sweep: count the
        degradation (``serve.campaign_fallback.<reason>``, rendered by
        ``repro obs report``) so silently falling back to the local
        decode path is observable instead of invisible."""
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter(f"serve.campaign_fallback.{reason}").add()

    def _serve_baseline(self, prompts: list[list[int]]) -> "list[str] | None":
        """Submit the baseline sweep as tenant traffic; ``None`` when
        the attached server cannot take it (not running, beams, draft
        mismatch, armed fault machinery) so the caller falls back to
        the local path — every decline increments a reason-labelled
        ``serve.campaign_fallback`` counter."""
        server = self._serve
        if server is None:
            return None
        if not server.running:
            self._serve_fallback("not_running")
            return None
        if self.generation.num_beams != 1:
            self._serve_fallback("beam_search")
            return None
        if self.draft_model is not None:
            # Speculative baselines route through the server only when
            # it speculates with the *same* draft — otherwise served
            # and local perf shapes would silently diverge.
            if server.draft is not self.draft_model:
                self._serve_fallback("speculation_unsupported")
                return None
            if not decode_speculation_safe(self.engine, self.draft_model):
                self._serve_fallback("fault_machinery")
                return None
        if not decode_batching_safe(self.engine):
            self._serve_fallback("fault_machinery")
            return None
        handles = [
            server.submit(
                prompt,
                tenant=self._serve_tenant,
                max_new_tokens=self.generation.max_new_tokens,
            )
            for prompt in prompts
        ]
        return [self.tokenizer.decode(h.result()) for h in handles]

    # -- baseline ----------------------------------------------------------------

    def compute_baseline(self) -> dict:
        """Fault-free predictions + metrics over all examples (cached)."""
        if self._baseline_preds is not None:
            return self._baseline_metrics
        if (
            not self.is_mc
            and not self.track_expert_selection
            and self.decode_strategy == "auto"
        ):
            prompts = [self.tokenizer.encode(ex.prompt) for ex in self.examples]
            served = self._serve_baseline(prompts)
            if served is not None:
                preds = served
            elif self.draft_model is not None and self.generation.num_beams == 1:
                # Fault-free greedy sweep with a draft available: this
                # is the dominant campaign cost, so speculate over a
                # continuous batch (the decoder's gate matrix drops to
                # plain batching or the serial reference if anything is
                # armed).
                decoder = BatchedSpeculativeDecoder(
                    self.engine,
                    self.draft_model,
                    self.generation,
                    speculation_depth=self.speculation_depth,
                    max_batch=self.decode_batch_size,
                )
                preds = [
                    self.tokenizer.decode(ids)
                    for ids in decoder.decode_many(prompts)
                ]
            else:
                # Fault-free sweep: nothing is armed, so the continuous
                # batcher decodes all examples together (it still falls
                # back to the serial reference path if anything is).
                decoder = BatchedDecoder(
                    self.engine, self.generation,
                    max_batch=self.decode_batch_size,
                )
                preds = [self.tokenizer.decode(ids) for ids in
                         decoder.generate_many(prompts)]
            selections: list = [None] * len(preds)
        else:
            preds = []
            selections = []
            for ex in self.examples:
                if self.track_expert_selection:
                    self.engine.capture = CaptureState()
                preds.append(
                    self._eval_mc(ex) if self.is_mc else self._eval_gen(ex)
                )
                selections.append(self._capture_selections())
                self.engine.capture = None
        self._baseline_preds = preds
        self._baseline_selections = selections
        if self.is_mc:
            hits = sum(
                int(p == ex.answer_index) for p, ex in zip(preds, self.examples)
            )
            self._baseline_metrics = {"accuracy": 100.0 * hits / len(preds)}
        else:
            self._baseline_metrics = score_generative(
                self.metrics, preds, self.examples
            )
        return self._baseline_metrics

    # -- one trial ---------------------------------------------------------------

    def _trial_site(self, trial: int, max_iterations: int) -> FaultSite:
        # Draft-side sites must be sampled against the *draft* engine's
        # geometry (its layers, widths and formats differ).
        side = self.spec_fault_side or "target"
        engine = self.draft_model if side == "draft" else self.engine
        return sample_site(
            engine,
            self.fault_model,
            self._trial_rng(trial),
            max_iterations=max_iterations,
            layer_filter=self.layer_filter,
            engine_side=side,
        )

    def _selection_changed(self, idx: int, faulty: dict | None) -> bool | None:
        if not self.track_expert_selection or faulty is None:
            return None
        assert self._baseline_selections is not None
        base = self._baseline_selections[idx]
        if base is None:
            return None
        for key, base_sel in base.items():
            other = faulty.get(key)
            if other is None or other.shape != base_sel.shape:
                return True
            if not np.array_equal(other, base_sel):
                return True
        return False

    def _run_trial(self, trial: int, attempt: int = 0) -> TrialRecord:
        tel = _telemetry()
        if not tel.active:
            return self._run_trial_impl(trial, attempt)
        t0 = time.perf_counter()
        with tel.span("campaign.trial", trial=trial, task=self.task_name) as span:
            record = self._run_trial_impl(trial, attempt)
            span.set(
                site=record.site.layer_name,
                fault=record.site.fault_model.value,
                outcome=record.outcome.name.lower(),
                example=record.example_index,
            )
        metrics = tel.metrics
        metrics.histogram("campaign.trial_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        metrics.counter("campaign.trials").add()
        metrics.counter("campaign.injections").add()
        metrics.counter(f"campaign.outcome.{record.outcome.name.lower()}").add()
        return record

    def _cached_prefill(self, site: FaultSite, idx: int, ex) -> "object | None":
        """The example's fault-free prefilled session, rewound, when safe.

        Safe exactly when the trial's iteration-0 forward is guaranteed
        bit-identical to the baseline's: a transient fault
        (computational, KV-cache or accumulator) timed at iteration
        >= 1 on a generative task — none of those can perturb the
        prompt forward before their sampled iteration.  Memory faults
        corrupt the weights the prefill reads, iteration-0 faults
        strike the prefill itself, speculation-side and served-fault
        trials decode through a different schedule entirely, and
        expert-selection tracking must capture the prefill's routing —
        all of those re-prefill.

        One session per example is kept and *rewound in place* between
        trials via :meth:`KVCache.restore` — a bounded prefix write
        into the session's existing K/V buffers — instead of the old
        ``fork()``, which allocated fresh full-``max_seq`` buffers for
        every trial.  The snapshot bytes are exactly the prefill's, so
        a rewound trial is bit-identical to a freshly prefilled one.
        """
        transient = (
            site.fault_model.is_computational
            or site.fault_model.is_kv
            or site.fault_model.is_accumulator
        )
        if (
            not self.prefill_cache
            or self.is_mc
            or self.track_expert_selection
            or self.spec_fault_side is not None
            or (self._serve is not None and self._serve_faults)
            or not transient
            or site.iteration == 0
        ):
            return None
        entry = self._prefill_sessions.get(idx)
        if entry is None:
            prompt = self.tokenizer.encode(ex.prompt)
            base = self.engine.start_session(prompt)
            self._prefill_sessions[idx] = (
                base,
                [cache.snapshot() for cache in base.caches],
                base.last_logits.copy(),
                base.position,
            )
            # Fresh prefill is already in the pristine state; the next
            # trial for this example rewinds from the snapshots.
            return base
        session, snaps, logits, position = entry
        for cache, snap in zip(session.caches, snaps):
            cache.restore(snap)
        session.iteration = 0
        session.position = position
        session.last_logits = logits.copy()
        return session

    def _run_trial_impl(self, trial: int, attempt: int = 0) -> TrialRecord:
        if self.chaos is not None:
            self.chaos.strike(
                trial, attempt, in_worker=bool(_WORKER.get("in_pool"))
            )
        idx = trial % len(self.examples)
        ex = self.examples[idx]
        max_iter = 1 if self.is_mc else self.generation.max_new_tokens
        if self.max_fault_iterations is not None:
            max_iter = min(max_iter, self.max_fault_iterations)
        site = self._trial_site(trial, max_iter)
        recorder = _flight()
        if recorder.active:
            recorder.begin_trial(
                trial, self.trial_key(trial), site_to_dict(site), idx
            )
        session = self._cached_prefill(site, idx, ex)
        tel = _telemetry()
        if tel.active and not self.is_mc:
            name = "hits" if session is not None else "misses"
            tel.metrics.counter(f"engine.prefill_cache_{name}").add()
        if self.track_expert_selection:
            self.engine.capture = CaptureState()
        detach_front = None
        fired = True
        try:
            if self.spec_fault_side is not None:
                # Speculation-side study: arm the sampled engine of the
                # draft/verify pair and decode speculatively regardless
                # of the safety gate (force=True) — measuring how the
                # speculative schedule interacts with the fault is the
                # point.  No corruption-front probes: the iteration ↔
                # forward mapping differs from the serial reference.
                side_engine = (
                    self.draft_model
                    if self.spec_fault_side == "draft"
                    else self.engine
                )
                spec = SpeculativeDecoder(
                    self.engine,
                    self.draft_model,
                    self.generation,
                    speculation_depth=self.speculation_depth,
                )
                prompt = self.tokenizer.encode(ex.prompt)
                with inject(side_engine, site) as injector:
                    text = self.tokenizer.decode(
                        spec.decode_one(prompt, force=True)
                    )
                fired = getattr(injector, "fired", True)
            elif (
                self._serve_faults
                and self._serve is not None
                and self._serve.running
            ):
                # Live-server blast-radius mode: the fault rides the
                # campaign's own request into the shared batch, pinned
                # to that request's pool slot by the server.
                prompt = self.tokenizer.encode(ex.prompt)
                handle = self._serve.submit(
                    prompt,
                    tenant=self._serve_tenant,
                    max_new_tokens=self.generation.max_new_tokens,
                    kv_fault=site,
                )
                text = self.tokenizer.decode(handle.result())
                fired = bool(handle.kv_fired)
            else:
                with inject(self.engine, site) as injector:
                    if recorder.active:
                        # Probes register after the injector's hook, so
                        # the struck layer's probe observes the
                        # post-injection output; observer + row-scoped
                        # registration keeps the batching/speculation
                        # gates exactly where a recorder-off run has
                        # them.
                        detach_front = recorder.attach_front(
                            self.engine, site.iteration
                        )
                    if self.is_mc:
                        pred_idx = self._eval_mc(ex)
                    else:
                        text = self._eval_gen(ex, session=session)
                fired = getattr(injector, "fired", True)
        finally:
            if detach_front is not None:
                detach_front()
            selections = self._capture_selections()
            self.engine.capture = None

        assert self._baseline_preds is not None
        base_pred = self._baseline_preds[idx]
        if self.is_mc:
            correct = pred_idx == ex.answer_index
            outcome = Outcome.MASKED if correct else Outcome.SDC_SUBTLE
            record = TrialRecord(
                site=site,
                example_index=idx,
                prediction=str(pred_idx),
                outcome=outcome,
                metrics={"accuracy": 100.0 * correct},
                changed=pred_idx != base_pred,
                selection_changed=self._selection_changed(idx, selections),
                fired=fired,
            )
        else:
            trial_metrics = score_generative(self.metrics, [text], [ex])
            if "accuracy" in self.metrics:
                outcome = classify_direct_answer(
                    extract_final_answer(text),
                    ex.meta.get("final_answer", ""),
                    text,
                )
            else:
                outcome = classify_generative(text, base_pred, ex.reference)
            record = TrialRecord(
                site=site,
                example_index=idx,
                prediction=text,
                outcome=outcome,
                metrics=trial_metrics,
                changed=text != base_pred,
                selection_changed=self._selection_changed(idx, selections),
                fired=fired,
            )
        if recorder.active:
            reference = (
                self._flight_reference(site, ex)
                if recorder.has_front
                else None
            )
            recorder.end_trial(
                outcome=record.outcome.value,
                prediction=record.prediction,
                baseline=str(base_pred),
                changed=record.changed,
                fired=fired,
                reference=reference,
            )
        return record

    def _flight_reference(self, site: FaultSite, ex) -> dict | None:
        """Fault-free layer outputs of the struck forward (flight replay).

        The corruption front needs a pristine reference for exactly the
        forward the fault struck.  Because greedy decoding is
        deterministic and the injector is one-shot, the faulty run's
        token prefix up to the strike iteration equals the baseline's —
        so replaying serially (after the injector restored the weights)
        reproduces the struck forward's inputs bit-exactly:

        * MC trials score options at iteration 0, option 0 first, so
          the struck forward is ``forward_full(prompt + options[0])``;
        * memory faults and iteration-0 computational faults strike the
          prompt forward — replay is ``forward_full(prompt)``;
        * iteration-``k`` computational faults strike the ``k``-th
          greedy decode step — replay prefills and re-greedy-decodes
          ``k`` steps, capturing the last.

        Beam-search trials return ``None`` (which hypothesis a replay
        follows is not well-defined); so do strikes the faulty decode
        never reached (baseline hit EOS first — the injector never
        fired either).  The replay runs strictly *outside* the
        injection context on restored weights: a pure post-hoc read
        that cannot perturb trial results.
        """
        capture_before = self.engine.capture
        self.engine.capture = None
        try:
            if self.is_mc:
                prompt, options = self._encode_mc(ex)
                return self._captured_forward([*prompt, *options[0]])
            if self.generation.num_beams != 1 or self.spec_fault_side is not None:
                return None
            # Memory faults strike the prompt forward; every transient
            # model (computational, KV, accumulator) strikes at its
            # sampled iteration.
            strike = 0 if site.fault_model.is_memory else site.iteration
            prompt = self.tokenizer.encode(ex.prompt)
            if strike == 0:
                return self._captured_forward(prompt)
            session = self.engine.start_session(prompt)
            logits = session.last_logits
            for step in range(strike):
                token = greedy_pick(logits)
                if token == self.generation.eos_id:
                    return None  # baseline ended before the strike
                if step == strike - 1:
                    self.engine.capture = CaptureState()
                logits = session.step(token)
            return dict(self.engine.capture.layer_outputs)
        finally:
            self.engine.capture = capture_before

    def _captured_forward(self, ids: list[int]) -> dict:
        """One fault-free full forward with per-layer output capture."""
        self.engine.capture = CaptureState()
        self.engine.forward_full(ids)
        outputs = dict(self.engine.capture.layer_outputs)
        self.engine.capture = None
        return outputs

    # -- supervision -------------------------------------------------------------

    def _post_failure_repair(self) -> None:
        """Clear fault machinery a crashed trial may have left armed.

        Injector context managers restore weights and remove hooks in
        their ``finally`` paths; this is a belt-and-braces sweep for
        exceptions raised between arm and guard (e.g. a timeout signal
        landing inside ``__enter__``).
        """
        if len(self.engine.hooks):
            self.engine.hooks.clear()
        self.engine.capture = None
        recorder = _flight()
        if recorder.active:
            # A crashed trial's partial forensic record would describe a
            # run that never produced an outcome; drop it (a retry
            # reopens the trial from scratch).
            recorder.abort_trial()

    def _quarantine_record(
        self, trial: int, exc: BaseException | str
    ) -> TrialRecord:
        """A ``FAILED`` placeholder for a deterministically crashing trial.

        ``exc`` is the exception itself (serial path) or its already
        formatted ``"Type: message"`` string (shipped across the pool's
        result queue — exceptions themselves stay worker-side)."""
        max_iter = 1 if self.is_mc else self.generation.max_new_tokens
        if self.max_fault_iterations is not None:
            max_iter = min(max_iter, self.max_fault_iterations)
        tel = _telemetry()
        if tel.active:
            tel.metrics.counter("campaign.trials").add()
            tel.metrics.counter("campaign.quarantined").add()
            tel.metrics.counter("campaign.outcome.failed").add()
        return TrialRecord(
            site=self._trial_site(trial, max_iter),
            example_index=trial % len(self.examples),
            prediction="",
            outcome=Outcome.FAILED,
            metrics={},
            changed=False,
            selection_changed=None,
            error=exc if isinstance(exc, str) else f"{type(exc).__name__}: {exc}",
        )

    def _supervise_serial_trial(
        self, trial: int, sup: _Supervision, attempt0: int = 0
    ) -> tuple[TrialRecord, int]:
        """Run one trial serially with retry/backoff/timeout/quarantine.

        Returns ``(record, attempts_used)`` where ``attempts_used``
        counts attempts made *by this call* plus ``attempt0`` prior
        ones (journalled for post-mortems).
        """
        tel = _telemetry()
        attempt = attempt0
        failures = 0
        while True:
            try:
                with _trial_alarm(sup.trial_timeout):
                    record = self._run_trial(trial, attempt)
                return record, attempt + 1
            except Exception as exc:  # noqa: BLE001 — quarantine, don't crash
                self._post_failure_repair()
                failures += 1
                attempt += 1
                if failures > sup.max_retries:
                    return self._quarantine_record(trial, exc), attempt
                if tel.active:
                    tel.metrics.counter("campaign.retries").add()
                if sup.retry_backoff:
                    time.sleep(sup.retry_backoff * (2 ** (failures - 1)))

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(self, trials: list[TrialRecord]) -> CampaignResult:
        baseline = self.compute_baseline()
        scored = [t for t in trials if t.outcome is not Outcome.FAILED]
        faulty: dict = {}
        normalized: dict = {}
        nan_ci = RatioCI(float("nan"), float("nan"), float("nan"))
        for metric in baseline:
            values = np.array(
                [t.metrics[metric] for t in scored], dtype=np.float64
            )
            faulty[metric] = float(values.mean()) if len(values) else float("nan")
            if not len(values):
                normalized[metric] = nan_ci
            elif metric in ("accuracy", "exact_match"):
                base_hits = round(baseline[metric] / 100.0 * len(self.examples))
                normalized[metric] = log_ratio_ci_proportions(
                    int((values > 0).sum()),
                    len(values),
                    max(1, int(base_hits)),
                    len(self.examples),
                )
            else:
                ratios = []
                for t in scored:
                    base = self._per_example_baseline(metric, t.example_index)
                    if base > 0:
                        ratios.append(t.metrics[metric] / base)
                normalized[metric] = (
                    log_ratio_ci_means(np.array(ratios), 1.0)
                    if ratios
                    else nan_ci
                )
        return CampaignResult(
            task_name=self.task_name,
            fault_model=self.fault_model,
            n_trials=len(trials),
            baseline=baseline,
            faulty=faulty,
            normalized=normalized,
            trials=trials,
        )

    def _per_example_baseline(self, metric: str, idx: int) -> float:
        assert self._baseline_preds is not None
        if self.is_mc:
            ex = self.examples[idx]
            return 100.0 * float(self._baseline_preds[idx] == ex.answer_index)
        # Memoized: _aggregate asks for the same (metric, example) once
        # per trial, and BLEU/ROUGE/chrF re-scoring is not cheap.
        key = (metric, idx)
        cached = self._metric_baseline_memo.get(key)
        if cached is None:
            cached = score_generative(
                (metric,), [self._baseline_preds[idx]], [self.examples[idx]]
            )[metric]
            self._metric_baseline_memo[key] = cached
        return cached

    # -- entry points ------------------------------------------------------------

    def run(
        self,
        n_trials: int,
        n_workers: int = 0,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        trial_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        max_pool_rebuilds: int = 2,
    ) -> CampaignResult:
        """Execute ``n_trials`` fault injections (optionally in parallel).

        ``n_workers=0`` runs serially; otherwise a pre-forked
        persistent pool executes trials individually.  Workers share
        one memory-mapped copy of the weights (per-worker incremental
        memory is KV caches + Python overhead, not the model), pull
        work dynamically from the parent's pending deque, and survive
        across ``run()``/``resume()`` calls on this campaign.  Results
        are identical either way because every trial derives its RNG
        from its stable :meth:`trial_key`.  Telemetry, when enabled, is
        likewise schedule-invariant: worker snapshots merge in trial
        order.

        ``checkpoint`` journals every completed trial to a JSONL file;
        with ``resume=True`` an existing journal's trials are loaded
        and skipped (see :meth:`resume`).  ``trial_timeout`` bounds one
        trial's wall clock; trials that raise are retried up to
        ``max_retries`` times with exponential ``retry_backoff`` before
        being quarantined as :attr:`Outcome.FAILED`; a dead or stuck
        worker is killed and respawned against the existing shared
        arena up to ``max_pool_rebuilds`` times, after which execution
        degrades to serial.
        """
        sup = _Supervision(
            trial_timeout=trial_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            max_pool_rebuilds=max_pool_rebuilds,
        )
        tel = _telemetry()
        detach = attach_layer_timing(self.engine, tel) if tel.active else None
        try:
            with tel.span(
                "campaign.run",
                task=self.task_name,
                fault=self.fault_model.value,
                trials=n_trials,
                workers=n_workers,
                campaign_hash=config_hash(self.fingerprint()),
            ):
                return self._run(n_trials, n_workers, tel, sup, checkpoint, resume)
        finally:
            if detach is not None:
                detach()

    def resume(
        self,
        checkpoint: str | Path,
        n_trials: int,
        n_workers: int = 0,
        **supervision,
    ) -> CampaignResult:
        """Resume a checkpointed campaign, re-running only missing trials.

        Already-journalled ``(example, trial, fault)`` keys are skipped;
        the aggregate over journalled + fresh trials is bit-identical
        to an uninterrupted ``run(n_trials)`` because trial RNGs derive
        from stable keys.  A journal written by a *different* campaign
        configuration is rejected (fingerprint hash mismatch).  If the
        checkpoint file does not exist yet, this is simply a
        checkpointed run from scratch.
        """
        return self.run(
            n_trials, n_workers, checkpoint=checkpoint, resume=True, **supervision
        )

    def _run(
        self,
        n_trials: int,
        n_workers: int,
        tel,
        sup: _Supervision,
        checkpoint: str | Path | None,
        resume: bool,
    ) -> CampaignResult:
        self.compute_baseline()
        if tel.active and not self.is_mc:
            # Materialize both counters up front so traced reports always
            # show the hit/miss pair, even when one side stays zero.
            tel.metrics.counter("engine.prefill_cache_hits")
            tel.metrics.counter("engine.prefill_cache_misses")
        results: dict[int, TrialRecord] = {}
        journal: CampaignCheckpoint | None = None
        if checkpoint is not None:
            with tel.span(
                "campaign.checkpoint", path=str(checkpoint), resume=resume
            ) as span:
                journal = CampaignCheckpoint(
                    checkpoint,
                    self.fingerprint(),
                    resume=resume,
                    n_trials=n_trials,
                )
                for trial, record in journal.completed.items():
                    if trial < n_trials:
                        results[trial] = record
                span.set(skipped=len(results))
            if tel.active and results:
                tel.metrics.counter("campaign.resume_skipped").add(len(results))
        todo = [t for t in range(n_trials) if t not in results]
        try:
            if n_workers <= 1 or len(todo) <= 1:
                for trial in todo:
                    record, attempts = self._supervise_serial_trial(trial, sup)
                    results[trial] = record
                    if journal is not None:
                        journal.write(
                            trial, self.trial_key(trial), record, attempts
                        )
            else:
                self._run_pool(todo, n_workers, tel, sup, journal, results)
        finally:
            if journal is not None:
                journal.close()
        trials = [results[t] for t in range(n_trials)]
        return self._aggregate(trials)

    # -- persistent pool (parent-side policy) -----------------------------------

    def _ensure_arena(self) -> _SharedArena:
        """Export the shared weight arena exactly once per campaign."""
        if self._arena is None:
            self._arena = _SharedArena(self.engine, self.draft_model)
        return self._arena

    def _worker_state(self) -> dict:
        """Campaign state inherited by forked workers.

        Engines are excluded — workers attach to the shared arena
        instead — as are prefill sessions (rebuilt worker-side) and
        the pool/arena handles themselves.
        """
        drop = {"engine", "draft_model", "_prefill_sessions", "_pool",
                "_arena", "_serve"}
        return {k: v for k, v in self.__dict__.items() if k not in drop}

    def _ensure_pool(self, n_workers: int, tel) -> CampaignPool:
        """The campaign's persistent pool, (re)built only when stale.

        A healthy pool is reused across ``run()``/``resume()`` calls —
        resuming into a live pool pays zero spinup.  It is rebuilt only
        when the requested worker count or the telemetry/flight
        activation changed (workers bake those in at fork time).
        """
        flight_active = _flight().active
        pool = self._pool
        if pool is not None and (
            pool.closed
            or pool.n_workers != n_workers
            or pool.telemetry_active != tel.active
            or pool.flight_active != flight_active
        ):
            pool.close()
            pool = self._pool = None
        if pool is None:
            arena = self._ensure_arena()
            with tel.span(
                "campaign.pool_spinup",
                workers=n_workers,
                arena_bytes=arena.nbytes,
            ) as span:
                pool = CampaignPool(
                    (
                        str(arena.root),
                        self._worker_state(),
                        tel.active,
                        flight_active,
                    ),
                    n_workers,
                )
                ready = pool.wait_ready()
                span.set(attached=ready)
            if tel.active:
                tel.metrics.counter("campaign.shared_attach").add(ready)
                tel.metrics.gauge("campaign.workers").set(float(n_workers))
                tel.metrics.gauge("campaign.arena_bytes").set(float(arena.nbytes))
                tel.manifest_extra["scaleout"] = {
                    "workers": n_workers,
                    "arena_bytes": arena.nbytes,
                }
            self._pool = pool
        return pool

    def close_pool(self) -> None:
        """Tear down the persistent pool and arena (idempotent).

        Called automatically at garbage collection; call explicitly to
        release the worker processes early (e.g. between campaigns in a
        long-lived driver).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def _run_pool(
        self,
        todo: list[int],
        n_workers: int,
        tel,
        sup: _Supervision,
        journal: CampaignCheckpoint | None,
        results: dict[int, TrialRecord],
    ) -> None:
        """Supervise the persistent pool over this run's pending trials.

        Dispatch is dynamic (next pending trial → first free worker).
        A worker that dies is respawned against the existing arena and
        its orphaned trial re-queued; a worker whose trial exceeds
        ``trial_timeout`` is SIGKILLed and replaced, the trial retried
        or quarantined.  Each replacement counts against
        ``max_pool_rebuilds``; past the budget the pool is shut down
        and the remaining trials degrade to serial execution in the
        parent — graceful degradation beats a dead campaign.
        """
        pool = self._ensure_pool(n_workers, tel)
        attempts = {t: 0 for t in todo}
        failures = {t: 0 for t in todo}
        payloads: dict[int, dict] = {}
        executed: dict[int, int] = {}  # pid -> trials completed there
        pending = deque(sorted(todo))
        done: set[int] = set()
        rebuilds = 0
        degraded = False

        def accept(
            trial: int,
            record: TrialRecord,
            payload: dict | None,
            pid: int | None = None,
        ):
            results[trial] = record
            done.add(trial)
            if payload is not None:
                payloads[trial] = payload
            if journal is not None:
                journal.write(
                    trial,
                    self.trial_key(trial),
                    record,
                    attempts[trial],
                    worker_pid=pid,
                )

        def note_retry(trial: int) -> None:
            if tel.active:
                tel.metrics.counter("campaign.retries").add()

        while len(done) < len(todo):
            if rebuilds > sup.max_pool_rebuilds:
                degraded = True
                break
            while pending and pool.idle:
                trial = pending.popleft()
                pool.dispatch(trial, attempts[trial])
                attempts[trial] += 1
            msg = pool.poll(0.05)
            now = time.monotonic()
            if msg is not None:
                kind, pid, trial, body = msg
                if kind == "ready":
                    if tel.active:
                        tel.metrics.counter("campaign.shared_attach").add()
                elif kind == "ok":
                    executed[pid] = executed.get(pid, 0) + 1
                    record, payload = body
                    # `done` guard: a worker killed at its deadline may
                    # have raced a completed result into the queue; the
                    # trial was already quarantined or re-queued.
                    if trial not in done:
                        accept(trial, record, payload, pid)
                elif kind == "err":
                    executed[pid] = executed.get(pid, 0) + 1
                    if trial not in done:
                        failures[trial] += 1
                        if failures[trial] > sup.max_retries:
                            accept(
                                trial,
                                self._quarantine_record(trial, body),
                                None,
                                pid,
                            )
                        else:
                            note_retry(trial)
                            if sup.retry_backoff:
                                time.sleep(
                                    sup.retry_backoff
                                    * (2 ** (failures[trial] - 1))
                                )
                            pending.append(trial)
            for _pid, orphan in pool.reap_dead():
                rebuilds += 1
                if orphan is not None and orphan not in done:
                    note_retry(orphan)
                    pending.appendleft(orphan)
                if rebuilds <= sup.max_pool_rebuilds:
                    pool.spawn_worker()
            for pid, trial in pool.expired(now, sup.trial_timeout):
                pool.kill_worker(pid)
                rebuilds += 1
                failures[trial] += 1
                if failures[trial] > sup.max_retries:
                    accept(
                        trial,
                        self._quarantine_record(
                            trial,
                            TrialTimeoutError(
                                f"trial exceeded {sup.trial_timeout:g}s"
                            ),
                        ),
                        None,
                        pid,
                    )
                else:
                    note_retry(trial)
                    pending.appendleft(trial)
                if rebuilds <= sup.max_pool_rebuilds:
                    pool.spawn_worker()

        if degraded:
            # Rebuild budget exhausted: abandon the pool (in-flight
            # trials included — their workers may be the problem) and
            # finish every unfinished trial serially in the parent.
            if tel.active:
                tel.metrics.counter("campaign.pool_degraded").add()
            pool.close()
            self._pool = None
            for trial in sorted(set(todo) - done):
                record, n_att = self._supervise_serial_trial(
                    trial, sup, attempt0=attempts[trial]
                )
                attempts[trial] = n_att
                accept(trial, record, None)

        if tel.active and executed:
            # Work actually stolen: completions beyond an even static
            # split.  Zero when every worker served exactly its share.
            fair = math.ceil(sum(executed.values()) / max(1, n_workers))
            steals = sum(max(0, n - fair) for n in executed.values())
            tel.metrics.counter("campaign.steals").add(steals)

        self._merge_worker_payloads(payloads, tel)

    def _merge_worker_payloads(self, payloads: dict[int, dict], tel) -> None:
        recorder = _flight()
        if tel.active or recorder.active:
            # Merge worker telemetry in trial order, so the merged
            # stream is deterministic regardless of which worker (or
            # pool generation) served which trial.
            anchor_perf = time.perf_counter()
            anchor_unix = time.time()
            campaign_hash = config_hash(self.fingerprint())
            for trial in sorted(payloads):
                payload = payloads[trial]
                if tel.active and "metrics" in payload:
                    tel.metrics.merge(payload["metrics"])
                if tel.active and "spans" in payload:
                    spans = [
                        SpanRecord.from_dict(d) for d in payload["spans"]
                    ]
                    clock = payload.get("clock")
                    if clock is not None:
                        # Rebase worker perf_counter starts onto the
                        # parent's monotonic clock via each side's
                        # (perf, wall) anchor pair, so stitched spans
                        # share one campaign timeline.
                        offset = (clock["unix"] - clock["perf"]) - (
                            anchor_unix - anchor_perf
                        )
                        for span in spans:
                            span.start += offset
                    tel.tracer.adopt(
                        spans,
                        extra_attrs={
                            "campaign_hash": campaign_hash,
                            "trial": trial,
                            "worker_pid": payload.get("pid"),
                        },
                    )
                if recorder.active:
                    recorder.adopt(payload.get("flight", []))
