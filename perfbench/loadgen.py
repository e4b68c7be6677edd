"""Open-loop load generator over ``InferenceServer.submit``.

Arrivals follow a Poisson process at an absolute rate, drawn from the
seed before the first request is sent; the generator submits each
request when it is due, never waiting on completions.  Every request
keeps its *due* time as well as its submission time, so a generator
that falls behind (or a server that stalls it) shows up in the
latencies timed from the due time, and the lateness itself is
recorded.  One process, the calling thread only; the
server's pump is the one other thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Sent:
    """One request as the generator saw it (absolute ``perf_counter`` s)."""

    prompt: int
    """Index into the prompt list."""
    due: float
    submitted: float
    submit_s: float
    """Time spent inside ``submit``."""
    handle: object | None
    shed: str | None = None
    """The ``ServeRejected`` reason when the server refused it."""

    @property
    def late_s(self) -> float:
        return self.submitted - self.due

    @property
    def first_token(self) -> float | None:
        h = self.handle
        if h is None or h.ttft_s is None:
            return None
        return self.submitted + h.ttft_s

    @property
    def finished(self) -> float | None:
        h = self.handle
        if h is None or h.latency_s is None:
            return None
        return self.submitted + h.latency_s

    @property
    def ttft_s(self) -> float | None:
        """From the due time to the first token."""
        first = self.first_token
        return None if first is None else first - self.due

    @property
    def tpot_s(self) -> float | None:
        h = self.handle
        if h is None or h.ttft_s is None or len(h.tokens) < 2:
            return None
        return (h.latency_s - h.ttft_s) / (len(h.tokens) - 1)


def schedule(
    rng: np.random.Generator, rate: float, duration: float, n_prompts: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, prompt picks)`` of a Poisson process at ``rate`` over
    ``duration`` seconds, conditioned on its expected count: the offered
    rate is exact and the gaps are exponential-like."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    n = max(1, round(rate * duration))
    offsets = np.sort(rng.uniform(0.0, duration, size=n))
    picks = rng.integers(0, n_prompts, size=n)
    return offsets, picks


def drive(server, prompts, offsets, picks, timeout_s: float = 120.0) -> list[Sent]:
    """Submit on the schedule, then wait for every stream to end."""
    from repro.serve.admission import ServeRejected

    sent: list[Sent] = []
    start = time.perf_counter()
    for offset, pick in zip(offsets.tolist(), picks.tolist()):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        spec = prompts[pick]
        t0 = time.perf_counter()
        try:
            handle = server.submit(list(spec.ids), max_new_tokens=spec.max_new)
            shed = None
        except ServeRejected as exc:
            handle, shed = None, exc.reason
        sent.append(Sent(pick, due, t0, time.perf_counter() - t0, handle, shed))
    deadline = time.perf_counter() + timeout_s
    for s in sent:
        if s.handle is not None:
            s.handle.result(timeout=max(0.0, deadline - time.perf_counter()))
    return sent
