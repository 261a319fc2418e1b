"""Shard executors: how per-shard work is scheduled.

The broker expresses every publish as *one task per (dispatched)
shard* and hands the task list to a :class:`ShardExecutor`.  Executors
differ only in how the tasks run; all of them return the results in task
order, so downstream merging is deterministic regardless of scheduling.

* :class:`SerialExecutor` — runs tasks in a plain loop on the calling
  thread.  Fully deterministic, zero scheduling overhead; the default and
  the reference for equivalence tests.
* :class:`ThreadedExecutor` — a :class:`concurrent.futures.ThreadPoolExecutor`
  with one worker per shard.  Under CPython's GIL the pure-Python engines
  gain little wall-clock from threads, but the executor exercises the real
  concurrent dispatch path.
* :class:`ProcessExecutor` — dispatches to shards living in long-lived
  worker processes (:mod:`repro.runtime.process`): true CPU parallelism.
  It relies on the :meth:`ShardExecutor.invoke` call form — named methods
  plus picklable arguments instead of closures — and pipelines the calls:
  every worker's request is written before any response is read, with at
  most one request in flight per worker channel (so a pipe cannot fill in
  both directions and deadlock).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence, Tuple, TypeVar, Union

T = TypeVar("T")
R = TypeVar("R")

#: One shard-method call: (target shard, method name, positional arguments).
ShardCall = Tuple[Any, str, tuple]


def _apply_call(call: ShardCall):
    target, method, args = call
    return getattr(target, method)(*args)


class ShardExecutor:
    """Base class: run one task per shard, return results in task order."""

    #: Keyword under which the executor is selectable (``executor=...``).
    name = "base"

    def configure(self, num_shards: int) -> None:
        """Tell the executor the session's shard count (sizing hint).

        Called once by the broker before any dispatch, so pool-based
        executors can provision for the full topology instead of guessing
        from the first task list (which routing may have thinned out).
        """

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; results are ordered like ``items``."""
        raise NotImplementedError

    def invoke(self, calls: Sequence[ShardCall]) -> list:
        """Run ``(shard, method name, args)`` calls; results in call order.

        The closure-free twin of :meth:`map`: naming the method instead of
        capturing it lets process-backed executors ship the call over a
        pipe.  In-process executors simply apply each call.
        """
        return self.map(_apply_call, calls)

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """In-process, in-order execution (deterministic; used by the tests)."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadedExecutor(ShardExecutor):
    """Thread-pool execution with one worker per shard by default."""

    name = "threads"

    def __init__(self, max_workers: Optional[int] = None, num_shards: Optional[int] = None):
        self._max_workers = max_workers
        self._num_shards = num_shards
        self._pool: Optional[ThreadPoolExecutor] = None

    def configure(self, num_shards: int) -> None:
        self._num_shards = num_shards

    def _ensure_pool(self, num_tasks: int) -> ThreadPoolExecutor:
        if self._pool is None:
            # Size from the configured shard count, not from the first task
            # list: routing can thin the first publish down to a handful of
            # shards, and a pool frozen at that size would under-provision
            # every later full fan-out.
            workers = self._max_workers or self._num_shards or max(num_tasks, 1)
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        pool = self._ensure_pool(len(items))
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor(ShardExecutor):
    """Pipelined dispatch to process-resident shards.

    The executor itself is a thin scheduler: the worker processes are
    owned by the broker (one :class:`~repro.runtime.process.ShardWorkerGroup`
    per worker, created at construction so registrations can replay into
    them).  :meth:`invoke` targets
    :class:`~repro.runtime.process.ProcessShardHandle` objects, writing one
    request per worker channel before reading any response; while the
    parent collects channel A's response, every other worker is already
    computing.  Only one request is kept in flight per channel so the
    request and response directions of one pipe can never both fill up
    (the classic pipeline deadlock).
    """

    name = "processes"

    def __init__(self, max_workers: Optional[int] = None):
        self._max_workers = max_workers

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        # Control-plane fallback (closures cannot cross a pipe): the data
        # plane goes through invoke().
        return [fn(item) for item in items]

    def invoke(self, calls: Sequence[ShardCall]) -> list:
        """Pipelined :meth:`ShardExecutor.invoke`.

        A call that raises (say, a worker rejecting malformed input) stops
        further submits, but every response already in flight is still
        read, so no channel is left holding a stale reply; then the first
        error is raised.
        """
        results: list = [None] * len(calls)
        error: Optional[Exception] = None
        waiting: dict[Any, list[tuple[int, ShardCall]]] = {}
        order: list[Any] = []
        for index, call in enumerate(calls):
            channel = getattr(call[0], "channel", call[0])
            if channel not in waiting:
                waiting[channel] = []
                order.append(channel)
            waiting[channel].append((index, call))
        active: dict[Any, tuple[int, Any]] = {}
        for channel in order:
            index, (target, method, args) = waiting[channel].pop(0)
            target.submit(method, args)
            active[channel] = (index, target)
        while active:
            for channel in order:
                entry = active.pop(channel, None)
                if entry is None:
                    continue
                index, target = entry
                try:
                    results[index] = target.collect()
                except Exception as exc:
                    error = error or exc
                if waiting[channel] and error is None:
                    index, (target, method, args) = waiting[channel].pop(0)
                    target.submit(method, args)
                    active[channel] = (index, target)
        if error is not None:
            raise error
        return results


#: Keyword -> executor class.
EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ThreadedExecutor.name: ThreadedExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(
    spec: Union[str, ShardExecutor],
    max_workers: Optional[int] = None,
    num_shards: Optional[int] = None,
) -> ShardExecutor:
    """Resolve an executor keyword (or pass through an instance).

    ``num_shards`` is forwarded as the sizing hint (see
    :meth:`ShardExecutor.configure`); instances are configured in place.
    """
    if isinstance(spec, ShardExecutor):
        if num_shards is not None:
            spec.configure(num_shards)
        return spec
    if spec == ThreadedExecutor.name:
        return ThreadedExecutor(max_workers=max_workers, num_shards=num_shards)
    if spec == ProcessExecutor.name:
        return ProcessExecutor(max_workers=max_workers)
    cls = EXECUTORS.get(spec)
    if cls is None:
        raise ValueError(f"unknown executor {spec!r}; choose one of {sorted(EXECUTORS)}")
    return cls()
