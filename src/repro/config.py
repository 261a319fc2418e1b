"""The unified runtime configuration: one object for every knob.

:class:`RuntimeConfig` is a single frozen dataclass — one validation point,
one place for a knob — threaded through every layer of the stack
(:func:`~repro.core.engine.make_engine`, both engines and
:class:`~repro.pubsub.Broker`):

.. code-block:: python

    from repro import RuntimeConfig, open_broker

    config = RuntimeConfig(engine="mmqjp", shards=4, executor="processes")
    with open_broker(config) as broker:
        broker.subscribe(...)

Every constructor of the stack takes the config object (or an engine-name
string as shorthand for ``RuntimeConfig(engine=...)``, resolved by
:func:`as_config`); there is no per-knob keyword spelling.

One preset remains: :meth:`RuntimeConfig.ablation` (``route_dispatch`` off:
replicate-to-every-shard fan-out).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

__all__ = [
    "ENGINES",
    "EXECUTORS",
    "STORAGE_BACKENDS",
    "RuntimeConfig",
    "as_config",
]

#: Engine selection keywords (canonical definition; re-exported by
#: :mod:`repro.core.engine` for backward compatibility).
ENGINES = ("mmqjp", "mmqjp-vm", "sequential")

#: Where the shard engines run.  ``"serial"`` keeps them in the broker's
#: process, called one after another; ``"processes"`` runs each shard engine
#: in its own long-lived worker process (true CPU parallelism for the
#: pure-Python engines), constructed in-worker from the pickled config.
EXECUTORS = ("serial", "processes")

#: State-storage backends (canonical definition; re-exported by
#: :mod:`repro.storage`).  ``"memory"`` keeps all state in process —
#: byte-for-byte today's behavior; ``"sqlite"`` externalizes join state,
#: subscription registry and documents to per-member SQLite files so a
#: session can be resumed after a crash (``open_broker(resume_from=...)``).
STORAGE_BACKENDS = ("memory", "sqlite")

#: The fields that are plain switches (validated as ``bool`` in one loop).
_BOOL_FIELDS = ("auto_prune", "auto_timestamp", "construct_outputs", "route_dispatch", "metrics")

#: The integer fields (validated in one loop): (name, least value, ``None`` allowed).
_INT_FIELDS = (
    ("shards", 1, False),
    ("stream_history", 0, False),
    ("result_limit", 1, True),
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime knob of the system, validated in one place.

    Stage 2 has no switch for how it evaluates: every processor runs its
    conjunctive queries through compiled, cached plans over interned id
    columns, skips every unit whose right-hand variables the document does
    not all bind, and semi-join-reduces the state outward from the
    document's witnesses.  What turning each of those off used to cost —
    the row-at-a-time kernel included — is recorded under ``deleted`` in
    ``BENCH_ablation.json``.

    Attributes
    ----------
    engine:
        ``"mmqjp"`` (default), ``"mmqjp-vm"`` (Section 5 view
        materialization) or ``"sequential"`` (the baseline).
    auto_prune:
        Prune join state by window horizon on the publish path (effective
        while every registered window is finite).
    auto_timestamp:
        Assign monotonically increasing timestamps to documents arriving
        with timestamp 0.
    store_documents:
        Keep processed documents so output XML can be constructed.
        ``None`` (default) follows ``construct_outputs``.
    construct_outputs:
        Build the output XML document for every join match (slower; disable
        for throughput measurements).
    stream_history:
        How many recent documents each stream keeps for inspection.
    shards:
        Number of engine shards the broker drives; ``> 1`` brings in the
        partitioner (all queries of one template on one shard) and the
        fan-out router.
    executor:
        ``"serial"`` (default: the shard engines live in the broker's
        process and are called in a loop) or ``"processes"`` (one
        long-lived worker process per shard — true CPU parallelism).
    route_dispatch:
        Relevance-aware fan-out routing in the sharded runtime (default):
        the broker maintains a variable→shard-set inverted index and only
        dispatches a document to shards hosting templates it can bind.
        ``False`` replicates every document to every shard (the pre-routing
        behavior, kept for ablation and equivalence testing).
    result_limit:
        Bound on each subscription's legacy ``results`` collection
        (``None`` keeps it unbounded — the pre-sink behavior).
    storage:
        State-storage backend: ``"memory"`` (default, all state in
        process) or ``"sqlite"`` (durable join state, registry and
        documents, one commit per processed document; resumable via
        ``open_broker(resume_from=...)``).
    storage_path:
        Directory holding the ``"sqlite"`` backend's database files (one
        per broker member: ``broker.sqlite3``, ``shard-N.sqlite3``).
        ``None`` with ``storage="sqlite"`` creates a fresh temporary
        directory (exposed as the broker's ``storage_path``).
    metrics:
        Runtime observability (default off): the brokers and engines
        record publish-latency and per-stage histograms (p50/p95/p99/max)
        plus per-subscription delivery lag into
        :class:`repro.metrics.MetricsRegistry` objects, surfaced merged
        under ``broker.stats()["metrics"]``.  Disabled, the hot path pays
        one attribute check.  Match sets are identical either way.
    """

    engine: str = "mmqjp"
    auto_prune: bool = True
    auto_timestamp: bool = True
    store_documents: Optional[bool] = None
    construct_outputs: bool = True
    stream_history: int = 0
    shards: int = 1
    executor: str = "serial"
    route_dispatch: bool = True
    result_limit: Optional[int] = 1024
    storage: str = "memory"
    storage_path: Optional[str] = None
    metrics: bool = False

    # ------------------------------------------------------------------ #
    # validation (the single point for the whole stack)
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose one of {ENGINES}")
        for name, least, optional in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(
                    f"{name} must be an integer >= {least}{' or None' if optional else ''}, "
                    f"got {value!r}"
                )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose one of {EXECUTORS}"
            )
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be True or False, got {value!r}")
        if self.store_documents is not None and not isinstance(self.store_documents, bool):
            raise ValueError(
                f"store_documents must be True, False or None, got {self.store_documents!r}"
            )
        if self.storage not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.storage!r}; choose one of {STORAGE_BACKENDS}"
            )
        if self.storage_path is not None and self.storage != "sqlite":
            raise ValueError(
                f"storage_path requires storage='sqlite', got storage={self.storage!r}"
            )

    def validate_outputs(self) -> None:
        """Broker-level cross-check of output construction vs document storage.

        Called by the brokers (where ``construct_outputs`` matters): a
        session cannot build output XML without storing the source
        documents.  Engine-level consumers skip this check —
        ``store_documents=False`` with the default ``construct_outputs``
        is the normal throughput-engine configuration.
        """
        if self.construct_outputs and self.store_documents is False:
            raise ValueError("construct_outputs=True requires store_documents=True")

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def is_sharded(self) -> bool:
        """Whether this configuration runs more than one engine shard."""
        return self.shards > 1

    def resolve_store_documents(self) -> bool:
        """Resolve the ``store_documents=None`` default (one rule, every consumer).

        Documents are only kept to construct output XML, so an unset
        ``store_documents`` follows ``construct_outputs``.
        """
        if self.store_documents is not None:
            return self.store_documents
        return self.construct_outputs

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def ablation(cls, **overrides) -> "RuntimeConfig":
        """The switches-off baseline: replicated fan-out.

        ``route_dispatch=False``, the one switch with an off side.  Plans,
        the id-column join kernel, relevance-pruned dispatch and delta
        reduction have none.
        """
        base: dict = dict(route_dispatch=False)
        base.update(overrides)
        return cls(**base)


def as_config(spec: Union[RuntimeConfig, str, None], owner: str) -> RuntimeConfig:
    """Resolve a constructor's config argument.

    ``spec`` may be a :class:`RuntimeConfig`, an engine-name string
    (shorthand for ``RuntimeConfig(engine=...)``), or ``None`` for the
    defaults; anything else raises :class:`TypeError` naming ``owner``.
    """
    if spec is None:
        return RuntimeConfig()
    if isinstance(spec, str):
        return RuntimeConfig(engine=spec)
    if isinstance(spec, RuntimeConfig):
        return spec
    raise TypeError(
        f"{owner} expects a RuntimeConfig or an engine name, got {type(spec).__name__}"
    )
