"""What a result was measured on: code, host, libraries, memory."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def commit(root: Path) -> str | None:
    """The checked-out commit, read from ``root/.git`` (``None`` when the
    checkout is not a git work tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def blas() -> dict:
    """BLAS library, version and the thread count it runs with (read,
    never set: the benchmark inherits the environment's setting)."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
    }


def host(root: Path, digest: str) -> dict:
    import numpy as np

    return {
        "commit": commit(root),
        "source_digest": digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
    }


def _hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB (0 if gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    out = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            out.extend(int(p) for p in Path(path).read_text().split())
        except OSError:
            continue
    return out


def tree_peak_mb(pid: int | None = None) -> float:
    """Sum of peak resident sets over ``pid`` and its live descendants.

    Pages a forked child shares with its parent count in both, so this
    is an upper bound on the tree's physical peak.
    """
    todo = [pid if pid is not None else os.getpid()]
    seen: set[int] = set()
    total = 0
    while todo:
        p = todo.pop()
        if p in seen:
            continue
        seen.add(p)
        total += _hwm_kb(p)
        todo.extend(_children(p))
    return total / 1024.0
