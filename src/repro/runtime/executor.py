"""Dispatch to process-resident shards: every worker computes at once.

In-process shards need no scheduler: the broker calls them one after
another.  Process shards (:mod:`repro.runtime.process`) are driven through
:class:`ProcessExecutor`, which writes every worker's request before it
reads any reply, so while the parent waits on the first worker every other
worker is already computing.  Each worker hosts one shard and receives at
most one request per dispatch, so a pipe never holds two requests and
cannot fill in both directions.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

#: One shard-method call: (target shard handle, method name, positional arguments).
ShardCall = Tuple[Any, str, tuple]


class ProcessExecutor:
    """Submit to every worker, then read every reply; results in call order."""

    def invoke(self, calls: Sequence[ShardCall]) -> list:
        """Run ``(handle, method name, args)`` calls, one per worker.

        A call that raises, on submit or on collect, does not leave a reply
        behind: submitting stops, every reply already in flight is still
        read, and then the first error is raised.
        """
        error: Optional[Exception] = None
        submitted = []
        for target, method, args in calls:
            try:
                target.submit(method, args)
            except Exception as exc:
                error = exc
                break
            submitted.append(target)
        results = []
        for target in submitted:
            try:
                results.append(target.collect())
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error
        return results
