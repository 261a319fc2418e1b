"""Process-resident shards: each engine lives in a long-lived worker process.

The process runtime (``RuntimeConfig(executor="processes")``) keeps the
broker's sharded architecture — subscriptions partitioned, documents fanned
out, results merged in shard order — but moves every
:class:`~repro.core.engine._BaseEngine` out of the broker process:

* A :class:`ProcessShardHandle` starts one worker process hosting one shard
  engine.  The engine is constructed *in-worker* from the pickled
  :class:`~repro.config.RuntimeConfig`, and a storage-attached shard opens
  its own ``shard-N.sqlite3`` in-worker, so neither engine state nor SQLite
  connections ever cross the process boundary.
* On the broker side the handle stands in for
  :class:`~repro.runtime.shard.EngineShard`, its control plane implemented
  as commands over a duplex pipe.  Registrations and cancellations are
  forwarded as commands (the worker engine replays the exact
  ``register_query``/``deregister_query`` code path), documents cross only
  as the wire's framed ``(text, docid, timestamp, stream)`` records
  (:mod:`repro.runtime.wire`) that the worker engine scans through
  ``process_document`` / ``process_batch``.  Each match comes back as
  the plan's head row it was built from (see :func:`encode_match_batch`),
  with its query's :class:`~repro.core.results.MatchLayout` shipped once
  per worker, and is re-materialized broker-side as a row-backed match,
  so the worker builds no binding dicts, and delivery callbacks and
  :class:`~repro.pubsub.sinks.DeliverySink` objects fire in the parent
  and never need to be picklable.
* Requests and responses are strictly ordered on the pipe, and
  :class:`~repro.runtime.executor.ProcessExecutor` keeps at most one
  request in flight per worker, so responses are matched to requests
  positionally — no request ids, no shard ids, no response reordering.

A worker that dies mid-conversation (crash, ``kill -9``) surfaces as a
:class:`ShardWorkerError` on the next send or receive instead of a hang:
the parent closes its copy of the child's pipe end right after the fork, so
a dead worker turns reads into immediate ``EOFError``.
"""

from __future__ import annotations

import multiprocessing
import pickle
from time import perf_counter
from typing import Optional, Sequence

from repro.core.results import Match
from repro.runtime.wire import decode_document_batch

__all__ = [
    "ShardWorkerError",
    "ProcessShardHandle",
    "LayoutTable",
    "encode_match_batch",
    "decode_match_batch",
]


class ShardWorkerError(RuntimeError):
    """A shard worker process died or its command pipe broke."""


# --------------------------------------------------------------------- #
# wire format
# --------------------------------------------------------------------- #
class LayoutTable:
    """The ``(qid, MatchLayout)`` pairs one worker has shipped to its parent.

    Both ends of a pipe keep one.  The worker keys its entries by
    ``id(layout)``, each entry ``(slot, layout)``: a layout serves one
    query id, and holding it keeps its id from being reused while the
    entry lives.  The parent keys its entries by slot, each entry
    ``(qid, layout)``.  Slots count up from 0 and are never reused.
    :meth:`forget` drops a query's entries when it deregisters — its own
    layout and, for a symmetric JOIN, its mirror's.
    """

    __slots__ = ("entries", "added", "_keys_of")

    def __init__(self):
        self.entries: dict = {}
        self.added = 0  # entries ever added: the worker's next slot
        self._keys_of: dict[str, list] = {}

    def add(self, key, qid: str, entry: tuple) -> None:
        self.entries[key] = entry
        self.added += 1
        self._keys_of.setdefault(qid, []).append(key)

    def forget(self, qid: str) -> None:
        for key in self._keys_of.pop(qid, ()):
            del self.entries[key]


def encode_match_batch(
    match_lists: Sequence[Sequence[Match]],
    publish_stamps: Optional[Sequence[Optional[float]]] = None,
    shipped: Optional[LayoutTable] = None,
) -> tuple:
    """Wire form of one batch response (one inner list per document).

    A row-backed match (:meth:`Match.from_row`) crosses as its plan head
    row, ``(slot, lhs_docid, rhs_docid, lhs_timestamp, rhs_timestamp,
    window, row)``, so the worker never builds its binding dicts.  ``slot``
    names the match's ``(qid, MatchLayout)`` pair; a pair that ``shipped``
    (the worker's :class:`LayoutTable`) does not hold yet rides inline in
    this response, once, as ``(slot, qid, layout)``.  Without a table every
    pair rides inline.  A match built from dicts has no layout: it crosses
    with slot ``None`` and ``(qid, lhs_bindings, rhs_bindings)`` for a
    row.  Pickle writes a repeated string object (a qid, a docid) once
    per payload and keeps ``1``/``1.0``/``True`` exact.

    ``publish_stamps`` (metrics mode) carries one broker-side publish
    timestamp per document; :func:`decode_match_batch` re-attaches each
    document's stamp to its re-materialized matches, so delivery lag
    measured at the parent's sinks includes the full worker round-trip.
    A batch processed with metrics off ships ``None`` — zero extra bytes.
    """
    if shipped is None:
        shipped = LayoutTable()
    known = shipped.entries
    new = []
    counts = []
    rows = []
    append = rows.append
    for matches in match_lists:
        counts.append(len(matches))
        for m in matches:
            layout = m.layout
            if layout is None:
                append((
                    None, m.lhs_docid, m.rhs_docid, m.lhs_timestamp, m.rhs_timestamp,
                    m.window, (m.qid, m.lhs_bindings, m.rhs_bindings),
                ))
                continue
            entry = known.get(id(layout))
            if entry is None:
                entry = (shipped.added, layout)
                shipped.add(id(layout), m.qid, entry)
                new.append((entry[0], m.qid, layout))
            append((
                entry[0], m.lhs_docid, m.rhs_docid, m.lhs_timestamp, m.rhs_timestamp,
                m.window, m.row,
            ))
    if publish_stamps is not None:
        publish_stamps = tuple(publish_stamps)
    return (new, counts, rows, publish_stamps)


def decode_match_batch(
    payload: tuple, layouts: Optional[LayoutTable] = None
) -> list[list[Match]]:
    """Re-materialize one batch response from its wire form (broker side).

    ``layouts`` is the parent's :class:`LayoutTable` for the worker that
    sent ``payload``; the layouts riding inline are added to it first.
    A match that crossed as a row is row-backed (:meth:`Match.from_row`):
    its binding dicts are built from the row only when a sink reads them.
    """
    new, counts, rows, publish_stamps = payload
    if layouts is None:
        layouts = LayoutTable()
    for slot, qid, layout in new:
        layouts.add(slot, qid, (qid, layout))
    known = layouts.entries
    from_row = Match.from_row
    out: list[list[Match]] = []
    cursor = 0
    for doc_index, count in enumerate(counts):
        stamp = publish_stamps[doc_index] if publish_stamps is not None else None
        matches = []
        for wire in rows[cursor : cursor + count]:
            slot, lhs_docid, rhs_docid, lhs_timestamp, rhs_timestamp, window, row = wire
            if slot is None:  # built from dicts
                qid, lhs, rhs = row
                matches.append(
                    Match(qid, lhs_docid, rhs_docid, lhs_timestamp, rhs_timestamp,
                          lhs, rhs, window, stamp)
                )
            else:
                qid, layout = known[slot]
                matches.append(
                    from_row(qid, lhs_docid, rhs_docid, lhs_timestamp, rhs_timestamp,
                             window, row, layout, stamp)
                )
        out.append(matches)
        cursor += count
    return out


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _dispatch(engine, method: str, args: tuple, shipped: LayoutTable):
    """Apply one command to the worker's engine."""
    if method == "register":
        qid, query = args
        engine.register_query(query, qid=qid)
        return None
    if method == "deregister":
        (qid,) = args
        engine.deregister_query(qid)
        shipped.forget(qid)  # as the handle does once this call returns
        return None
    if method == "prune":
        (min_timestamp,) = args
        return engine.prune(min_timestamp)
    if method == "stats":
        return engine.stats()
    if method == "metrics":
        return engine.metrics_snapshot()
    if method == "output_document":
        (match,) = args
        return engine.output_document(match)
    if method == "recover_catalog":
        from repro.storage.recovery import recover_engine_catalog

        return recover_engine_catalog(engine)
    if method == "template_guard":
        from repro.storage.recovery import engine_template_guard

        return engine_template_guard(engine, *args)
    if method == "recover_state":
        from repro.storage.recovery import docid_floor, restore_engine_state

        restore_engine_state(engine)
        return docid_floor(engine)
    raise ValueError(f"unknown shard-worker command {method!r}")


def _process_wire(
    engine, method: str, indices, payload: bytes, transport: dict, shipped: LayoutTable
) -> tuple:
    """Decode one wire payload, run its documents, and encode the matches."""
    start = perf_counter()
    records, stamps = decode_document_batch(pickle.loads(payload))
    transport["decodes"] += 1
    transport["decode_ms"] += (perf_counter() - start) * 1000.0
    if indices is not None:
        records = [records[i] for i in indices]
        if stamps is not None:
            stamps = [stamps[i] for i in indices]
    if method == "wire_one":
        match_lists = [engine.process_document(records[0])]
    else:
        match_lists = engine.process_batch(records)
    return encode_match_batch(match_lists, stamps, shipped)


def _portable(exc: BaseException) -> BaseException:
    """An exception safe to send back over the pipe (degrade if unpicklable)."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _shard_worker_main(
    conn,
    config_bytes: bytes,
    shard_id: int,
    storage: str,
    storage_path: Optional[str],
) -> None:
    """Entry point of one worker process: build the engine, serve commands."""
    from repro.core.engine import make_engine
    from repro.storage import open_member_store

    try:
        config = pickle.loads(config_bytes)
        store = open_member_store(storage, storage_path, f"shard-{shard_id}")
        engine = make_engine(config=config, store=store)
    except BaseException as exc:
        conn.send((False, _portable(exc)))
        conn.close()
        return
    conn.send((True, "ready"))
    transport = {"decodes": 0, "decode_ms": 0.0}
    shipped = LayoutTable()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        method, args = message
        try:
            if method in ("wire_one", "wire_batch"):
                # Two-frame data plane: this control frame carries the
                # document selection; the payload bytes follow in their own
                # frame (see ProcessShardHandle.submit).
                try:
                    payload = conn.recv_bytes()
                except (EOFError, OSError):
                    break
                response = (
                    True, _process_wire(engine, method, args, payload, transport, shipped)
                )
            elif method == "transport":
                response = (True, dict(transport))
            else:
                response = (True, _dispatch(engine, method, args, shipped))
        except BaseException as exc:
            response = (False, _portable(exc))
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
    engine.close()
    conn.close()


# --------------------------------------------------------------------- #
# broker side
# --------------------------------------------------------------------- #
def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    # fork starts in milliseconds and inherits the loaded modules; spawn is
    # the portability fallback (the worker entry point is a module-level
    # function, so both work).
    return "fork" if "fork" in methods else methods[0]


class ProcessShardHandle:
    """The broker-side stand-in for an :class:`~repro.runtime.shard.EngineShard`.

    Construction starts the worker process that hosts this shard's engine.
    The control plane (``register``/``deregister``/``prune``/``stats``/
    ``output_document``) is one synchronous command round-trip each.
    Documents reach the engine only over the wire: ``submit``/``collect``
    are the split halves of one ``wire_one``/``wire_batch`` call, so
    :class:`~repro.runtime.executor.ProcessExecutor` can pipeline across
    workers; a response decodes by the method recorded at submit time.
    """

    def __init__(
        self,
        shard_id: int,
        config_bytes: bytes,
        storage: str,
        storage_path: Optional[str],
    ):
        self.shard_id = shard_id
        self.num_queries = 0
        self._pending: Optional[str] = None
        self._layouts = LayoutTable()  # what the worker has shipped, by slot
        ctx = multiprocessing.get_context(_start_method())
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, config_bytes, shard_id, storage, storage_path),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self.process.start()
        # With the child's copy closed here, a dead worker turns recv() into
        # an immediate EOFError instead of a hang.
        child_conn.close()
        self._conn = parent_conn
        self._closed = False
        self._recv()  # readiness handshake; construction errors re-raise here

    # -- pipe ------------------------------------------------------------ #
    def _gone(self, method: str) -> ShardWorkerError:
        return ShardWorkerError(
            f"shard worker {self.process.name!r} is gone "
            f"(exit code {self.process.exitcode}); {method!r} was not sent"
        )

    def _send(self, method: str, args: tuple) -> None:
        try:
            self._conn.send((method, args))
        except (BrokenPipeError, OSError) as exc:
            raise self._gone(method) from exc

    def _recv(self):
        try:
            ok, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                f"shard worker {self.process.name!r} died "
                f"(exit code {self.process.exitcode}) before responding"
            ) from exc
        if not ok:
            if isinstance(payload, BaseException):
                raise payload
            raise ShardWorkerError(str(payload))
        return payload

    def call(self, method: str, *args):
        """One synchronous command round-trip (the control plane)."""
        self._send(method, args)
        return self._recv()

    # -- control plane -------------------------------------------------- #
    def register(self, qid: str, query) -> None:
        self.call("register", qid, query)
        self.num_queries += 1

    def deregister(self, qid: str) -> None:
        self.call("deregister", qid)
        self._layouts.forget(qid)  # the worker forgot it too
        self.num_queries -= 1

    def prune(self, min_timestamp: float) -> int:
        return self.call("prune", min_timestamp)

    def stats(self):
        return self.call("stats")

    def metrics_snapshot(self):
        """The worker engine's metrics snapshot (``None`` when disabled)."""
        return self.call("metrics")

    def transport_stats(self) -> dict:
        """The worker's decode counters: ``decodes`` and ``decode_ms``."""
        return self.call("transport")

    def output_document(self, match: Match):
        return self.call("output_document", match)

    # -- recovery plane (see repro.storage.recovery) --------------------- #
    def recover_catalog(self):
        return self.call("recover_catalog")

    def template_guard(self, rewrite: bool = False):
        return self.call("template_guard", rewrite)

    def recover_state(self):
        return self.call("recover_state")

    # -- data plane ------------------------------------------------------ #
    def submit(self, method: str, args: tuple) -> None:
        """Send one ``wire_one``/``wire_batch`` request: ``args`` is ``(indices, payload)``.

        ``payload`` is a bytes-like view of the already-encoded document
        batch; ``send_bytes`` writes that buffer to the pipe without
        pickling it again, so a fan-out to N shards costs one encode and N
        buffer writes.
        """
        indices, payload = args
        try:
            self._conn.send((method, indices))
            self._conn.send_bytes(payload)
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise self._gone(method) from exc
        self._pending = method

    def collect(self):
        method, self._pending = self._pending, None
        match_lists = decode_match_batch(self._recv(), self._layouts)
        return match_lists[0] if method == "wire_one" else match_lists

    def close(self) -> None:
        """Shut the worker down (idempotent); terminate if it won't exit."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.process.is_alive():
                self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=10)

    def __repr__(self) -> str:
        return (
            f"<ProcessShardHandle {self.shard_id} queries={self.num_queries} "
            f"worker={self.process.name!r}>"
        )
