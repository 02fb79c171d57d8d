"""Resilient process-pool plumbing shared by prewarming and the parallel
experiment executor.

:func:`run_tasks` maps a picklable function over payloads in worker
*processes* with the robustness the callers need and should not each
re-implement:

- a fresh :class:`~concurrent.futures.ProcessPoolExecutor` per attempt, so
  a crashed worker (``BrokenProcessPool``) never poisons the retry;
- bounded retry with exponential backoff for tasks that crashed, raised,
  or missed the parent-side deadline;
- a final **inline** attempt in the calling process (the ground-truth
  path: no pool, no timeout), so a deterministic failure surfaces as the
  original exception rather than a pool artifact.

Workers that hang past ``timeout`` seconds per task are abandoned — the
pool is shut down without waiting — and their tasks retried; the worst
case is an orphan worker finishing into the void (store writes are atomic,
so a late write is harmless).
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any

__all__ = ["TaskOutcome", "backoff_delays", "run_tasks"]

#: Default jitter fraction: each retry sleep is stretched by up to 25%.
DEFAULT_JITTER = 0.25


def backoff_delays(
    retries: int,
    backoff: float,
    jitter: float = DEFAULT_JITTER,
    seed: int | None = None,
) -> list[float]:
    """The full retry sleep schedule: jittered exponential backoff.

    Attempt ``i`` (1-based) sleeps ``backoff * 2**(i-1) * (1 + jitter*u_i)``
    with ``u_i`` drawn from ``random.Random(seed)`` — *deterministic* given
    the seed, so tests can pin the exact schedule, yet different seeds
    (``seed=None`` derives one from the pid) desynchronize concurrent
    clients retrying against shared resources: without jitter every client
    of a wedged store/service sleeps in lockstep and stampedes back at the
    same instant (a thundering herd).
    """
    if retries <= 0 or backoff <= 0:
        return [0.0] * max(0, retries)
    rng = random.Random(os.getpid() if seed is None else seed)
    return [
        backoff * 2 ** attempt * (1.0 + max(0.0, jitter) * rng.random())
        for attempt in range(retries)
    ]


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """How one payload fared: its value plus retry/fallback bookkeeping."""

    index: int
    value: Any
    attempts: int
    inline: bool
    errors: tuple[str, ...] = ()


def _resolve_workers(workers: int | None, num_tasks: int) -> int:
    if workers is None:
        workers = min(num_tasks, os.cpu_count() or 1)
    return max(1, workers)


def _run_inline(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    indices: Sequence[int],
    outcomes: dict[int, TaskOutcome],
    attempts: dict[int, int],
    errors: dict[int, list[str]],
) -> None:
    """Ground-truth execution in the parent; exceptions propagate."""
    for index in indices:
        attempts[index] += 1
        value = fn(payloads[index])
        outcomes[index] = TaskOutcome(
            index=index,
            value=value,
            attempts=attempts[index],
            inline=True,
            errors=tuple(errors[index]),
        )


def _pool_attempt(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    indices: list[int],
    workers: int,
    timeout: float | None,
    outcomes: dict[int, TaskOutcome],
    attempts: dict[int, int],
    errors: dict[int, list[str]],
) -> list[int]:
    """One pool round over ``indices``; returns the indices still failed."""
    pool = ProcessPoolExecutor(max_workers=min(workers, len(indices)))
    futures: dict[Future, int] = {}
    for index in indices:
        attempts[index] += 1
        futures[pool.submit(fn, payloads[index])] = index
    # Parent-side backstop deadline: every worker gets ``timeout`` seconds
    # per task it could be serialized behind.  (Workers enforce their own
    # finer-grained timeouts; this only catches hard hangs.)
    rounds = -(-len(indices) // min(workers, len(indices)))
    deadline = (
        time.monotonic() + timeout * rounds + 5.0 if timeout is not None else None
    )
    failed: list[int] = []
    pending = set(futures)
    timed_out = False
    while pending:
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            break
        done, pending = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
        if not done:
            break
        for future in done:
            index = futures[future]
            try:
                value = future.result()
            except BrokenProcessPool:
                errors[index].append("worker process died")
                failed.append(index)
                continue
            except Exception as exc:  # noqa: BLE001 - retried, then re-raised inline
                errors[index].append(f"{type(exc).__name__}: {exc}")
                failed.append(index)
                continue
            outcomes[index] = TaskOutcome(
                index=index,
                value=value,
                attempts=attempts[index],
                inline=False,
                errors=tuple(errors[index]),
            )
    for future in pending:  # deadline expired: abandon the stragglers
        timed_out = True
        index = futures[future]
        future.cancel()
        errors[index].append(f"timed out after {timeout}s")
        failed.append(index)
    # A hung worker would make a waiting shutdown block forever.
    pool.shutdown(wait=not timed_out, cancel_futures=True)
    return sorted(failed)


def run_tasks(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.5,
    jitter_seed: int | None = None,
) -> list[TaskOutcome]:
    """Map ``fn`` over ``payloads`` in worker processes; outcomes in order.

    ``workers=None`` picks ``min(len(payloads), cpu_count)``; ``workers<=1``
    (or a single payload) runs everything inline.  Tasks whose worker
    crashed, raised, or exceeded ``timeout`` are retried in a fresh pool up
    to ``retries`` times with exponential ``backoff``, jittered by up to
    :data:`DEFAULT_JITTER` per sleep (see :func:`backoff_delays`;
    ``jitter_seed`` pins the schedule, ``None`` derives it from the pid so
    concurrent clients retry out of lockstep); whatever still fails then
    runs inline in the calling process, where exceptions propagate.
    """
    if not payloads:
        return []
    workers = _resolve_workers(workers, len(payloads))
    outcomes: dict[int, TaskOutcome] = {}
    attempts = {index: 0 for index in range(len(payloads))}
    errors: dict[int, list[str]] = {index: [] for index in range(len(payloads))}
    pending = list(range(len(payloads)))
    if workers > 1 and len(payloads) > 1:
        delays = backoff_delays(max(0, retries), backoff, seed=jitter_seed)
        for attempt in range(1 + max(0, retries)):
            if attempt and backoff:
                time.sleep(delays[attempt - 1])
            pending = _pool_attempt(
                fn, payloads, pending, workers, timeout,
                outcomes, attempts, errors,
            )
            if not pending:
                break
    _run_inline(fn, payloads, pending, outcomes, attempts, errors)
    return [outcomes[index] for index in range(len(payloads))]
