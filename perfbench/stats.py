"""Summary statistics with the rules this benchmark reports by.

* Throughput is work over wall summed across a run (:func:`rate`).
* A high percentile is reported only when the sample supports it: at
  least ``MIN_BEYOND`` samples must lie beyond it, otherwise the run is
  too short and :class:`RunTooShort` is raised instead of a number.
* ``goodput_rps`` follows the monotone ladder rule: the highest rung
  that passes *and* whose every lower rung passes.
* Failures (sheds, streams not finished by their budget, exceptions,
  quarantined trials) are counted against everything sent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_BEYOND = 10
"""Samples that must lie beyond a reported high percentile."""


class RunTooShort(RuntimeError):
    """A percentile was asked of a sample too small to support it."""


def median(values) -> float:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise RunTooShort("median of an empty sample")
    return float(np.median(arr))


def rate(parts: list[dict], key: str) -> float:
    """``key`` per second over the whole of ``parts`` (bursts or
    rounds, each with its ``wall``).  A slow spell of the host counts
    for the time it took; a median over parts would jump between the
    fast and the slow spells of a run instead."""
    return sum(p[key] for p in parts) / sum(p["wall"] for p in parts)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ordered samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, refused when fewer than ``MIN_BEYOND``
    samples lie beyond it (``q <= 50`` needs only a non-empty sample)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise RunTooShort(f"p{q:g} of an empty sample")
    if q > 50 and samples_beyond(arr.size, q) < MIN_BEYOND:
        raise RunTooShort(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it;"
            f" {arr.size} samples leave {samples_beyond(arr.size, q)}"
        )
    return float(np.percentile(arr, q))


def tail(values, quantiles=(99.0, 98.0, 95.0, 90.0)) -> dict | None:
    """The highest of ``quantiles`` the sample supports, with its count."""
    values = list(values)
    for q in quantiles:
        if samples_beyond(len(values), q) >= MIN_BEYOND:
            return {"p": q, "value": percentile(values, q), "samples": len(values)}
    return None


@dataclass(frozen=True)
class Rung:
    """One fixed offered rate of the serving ladder, as measured."""

    rate: float
    """Offered requests per second."""
    sent: int
    ok: int
    """Requests that finished by their budget within both latency limits."""
    backlog: int
    """Requests not yet started when the last one was due."""
    ok_rps: float
    """``ok`` over the time from the first due request to the last finish."""


def rung_passes(rung: Rung, min_ok: float, max_backlog: int) -> bool:
    return (
        rung.sent > 0
        and rung.ok >= min_ok * rung.sent
        and rung.backlog <= max_backlog
    )


def goodput(rungs: list[Rung], min_ok: float, max_backlog: int) -> Rung | None:
    """Highest rung that passes with every lower rung passing too."""
    best = None
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung_passes(rung, min_ok, max_backlog):
            break
        best = rung
    return best


def failures(finish_reasons=(), shed: int = 0, quarantined: int = 0) -> int:
    """Failures among everything sent: streams (one ``finish_reason``
    per accepted request) that did not run to their budget, including
    those ended by an exception, plus requests the server shed and
    trials the campaign quarantined."""
    unfinished = sum(r != "length" for r in finish_reasons)
    return unfinished + shed + quarantined


def failed_frac(n_failed: int, n_sent: int) -> float:
    if n_sent <= 0:
        raise ValueError("nothing was sent")
    return n_failed / n_sent
