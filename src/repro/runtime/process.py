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
  ``process_document`` / ``process_batch``, and match rows come back in a
  columnar batch form — a shared value table plus per-match id tuples (see
  :func:`encode_match_batch`) — re-materialized broker-side, so delivery
  callbacks and :class:`~repro.pubsub.sinks.DeliverySink` objects fire in
  the parent and never need to be picklable.
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
    "encode_match",
    "decode_match",
    "encode_match_batch",
    "decode_match_batch",
]


class ShardWorkerError(RuntimeError):
    """A shard worker process died or its command pipe broke."""


# --------------------------------------------------------------------- #
# wire format
# --------------------------------------------------------------------- #
def encode_match(match: Match) -> tuple:
    """Compact wire form of a :class:`Match` (plain tuples, no dataclass)."""
    return (
        match.qid,
        match.lhs_docid,
        match.rhs_docid,
        match.lhs_timestamp,
        match.rhs_timestamp,
        tuple(match.lhs_bindings.items()),
        tuple(match.rhs_bindings.items()),
        match.window,
    )


def decode_match(wire: tuple) -> Match:
    """Re-materialize a :class:`Match` from its wire form (broker side)."""
    return Match(
        qid=wire[0],
        lhs_docid=wire[1],
        rhs_docid=wire[2],
        lhs_timestamp=wire[3],
        rhs_timestamp=wire[4],
        lhs_bindings=dict(wire[5]),
        rhs_bindings=dict(wire[6]),
        window=wire[7],
    )


def _intern(value, table: list, index: dict) -> int:
    """Index of ``value`` in the batch value table (appending if new).

    Keys include the concrete type so ``1``/``1.0``/``True`` round-trip
    exactly; an unhashable value is appended without deduplication.
    """
    try:
        key = (value.__class__, value)
        slot = index.get(key)
    except TypeError:
        table.append(value)
        return len(table) - 1
    if slot is None:
        slot = index[key] = len(table)
        table.append(value)
    return slot


def encode_match_batch(
    match_lists: Sequence[Sequence[Match]],
    publish_stamps: Optional[Sequence[Optional[float]]] = None,
) -> tuple:
    """Columnar wire form of one batch response (one inner list per document).

    Instead of pickling each match as a self-contained tuple of values
    (the per-match :func:`encode_match` form), the whole batch shares a
    single value table: every qid, docid, binding key/value, and window
    is interned once, and each match becomes a tuple of small integer
    ids (timestamps stay raw floats).  Because the same qids, docids,
    and binding keys recur across the matches of a batch, the pickled
    payload shrinks and the parent re-materializes shared strings once.

    ``publish_stamps`` (metrics mode) carries one broker-side publish
    timestamp per document; :func:`decode_match_batch` re-attaches each
    document's stamp to its re-materialized matches, so delivery lag
    measured at the parent's sinks includes the full worker round-trip.
    A batch processed with metrics off ships ``None`` — zero extra bytes.
    """
    table: list = []
    index: dict = {}
    counts = []
    rows = []
    for matches in match_lists:
        counts.append(len(matches))
        for m in matches:
            lhs = m.lhs_bindings
            rhs = m.rhs_bindings
            rows.append(
                (
                    _intern(m.qid, table, index),
                    _intern(m.lhs_docid, table, index),
                    _intern(m.rhs_docid, table, index),
                    m.lhs_timestamp,
                    m.rhs_timestamp,
                    tuple(
                        _intern(x, table, index)
                        for kv in lhs.items()
                        for x in kv
                    ),
                    tuple(
                        _intern(x, table, index)
                        for kv in rhs.items()
                        for x in kv
                    ),
                    _intern(m.window, table, index),
                )
            )
    if publish_stamps is not None:
        publish_stamps = tuple(publish_stamps)
    return (table, tuple(counts), rows, publish_stamps)


class _WireLayout:
    """Builds a decoded match's bindings from its wire row and the batch's value table."""

    __slots__ = ("table",)

    def __init__(self, table: list):
        self.table = table

    def lhs_bindings(self, wire: tuple) -> dict:
        return self._bindings(wire[5])

    def rhs_bindings(self, wire: tuple) -> dict:
        return self._bindings(wire[6])

    def _bindings(self, ids: tuple) -> dict:
        table = self.table
        return {table[ids[i]]: table[ids[i + 1]] for i in range(0, len(ids), 2)}


def decode_match_batch(payload: tuple) -> list[list[Match]]:
    """Re-materialize one batch response from its columnar wire form.

    Each match is row-backed (:meth:`Match.from_row`): its binding dicts
    are built from the wire row only when a sink reads them.
    """
    table, counts, rows, publish_stamps = payload
    layout = _WireLayout(table)
    from_row = Match.from_row
    out: list[list[Match]] = []
    cursor = 0
    for doc_index, count in enumerate(counts):
        stamp = publish_stamps[doc_index] if publish_stamps is not None else None
        out.append(
            [
                from_row(
                    table[wire[0]], table[wire[1]], table[wire[2]], wire[3], wire[4],
                    table[wire[7]], wire, layout, stamp,
                )
                for wire in rows[cursor : cursor + count]
            ]
        )
        cursor += count
    return out


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _dispatch(engine, method: str, args: tuple):
    """Apply one command to the worker's engine."""
    if method == "register":
        qid, query = args
        engine.register_query(query, qid=qid)
        return None
    if method == "deregister":
        (qid,) = args
        engine.deregister_query(qid)
        return None
    if method == "prune":
        (min_timestamp,) = args
        return engine.prune(min_timestamp)
    if method == "stats":
        return engine.stats()
    if method == "metrics":
        return engine.metrics_snapshot()
    if method == "output_document":
        (wire,) = args
        return engine.output_document(decode_match(wire))
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


def _process_wire(engine, method: str, indices, payload: bytes, transport: dict) -> tuple:
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
    return encode_match_batch(match_lists, stamps)


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
    durability: str,
) -> None:
    """Entry point of one worker process: build the engine, serve commands."""
    from repro.core.engine import make_engine
    from repro.storage import open_member_store

    try:
        config = pickle.loads(config_bytes)
        store = open_member_store(storage, storage_path, f"shard-{shard_id}", durability)
        engine = make_engine(config=config, store=store)
    except BaseException as exc:
        conn.send((False, _portable(exc)))
        conn.close()
        return
    conn.send((True, "ready"))
    transport = {"decodes": 0, "decode_ms": 0.0}
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
                response = (True, _process_wire(engine, method, args, payload, transport))
            elif method == "transport":
                response = (True, dict(transport))
            else:
                response = (True, _dispatch(engine, method, args))
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
        durability: str,
    ):
        self.shard_id = shard_id
        self.num_queries = 0
        self._pending: Optional[str] = None
        ctx = multiprocessing.get_context(_start_method())
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, config_bytes, shard_id, storage, storage_path, durability),
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
        return self.call("output_document", encode_match(match))

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
        match_lists = decode_match_batch(self._recv())
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
