"""Types shared by the workloads and the entry point."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class Mismatch(AssertionError):
    """The program produced a wrong output; no numbers may be reported."""


@dataclass
class Context:
    cache: Path
    """Build-output directory inside the checkout (trained models, spans)."""
    seed: int
    seconds: float
    traced: bool
    source_digest: str


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    """Provenance and per-phase detail printed before the result line."""
    spans: list = field(default_factory=list)
