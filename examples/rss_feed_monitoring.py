#!/usr/bin/env python3
"""RSS feed monitoring on the sharded runtime: Section 6.3 at example scale.

A simulated RSS/Atom feed stream (several channels, repeated titles) is
published into a **sharded** broker while a mix of hand-written and
generated subscriptions watch for correlated items:

* items cross-posted to the same channel within a window,
* different channels reusing the same title (possible syndication),
* plus a few hundred randomly generated inter-item join queries, as in the
  paper's throughput experiment.

The subscriptions are partitioned template-cohesively across four engine
shards — ``repro.open_broker`` with ``RuntimeConfig(shards=4)`` returns the
same :class:`repro.Broker` as ever, driving four shards — and the stream is ingested
in batches through ``publish_many``.  At the end, the generated
subscriptions are *cancelled*, showing that retraction actually shrinks the
per-shard query counts and join state.

Run with::

    python examples/rss_feed_monitoring.py
"""

import time

from repro import RuntimeConfig, open_broker
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream

SAME_CHANNEL = (
    "S//item->i[.//channel_url->c] "
    "FOLLOWED BY{c=c, 40} "
    "S//item->i[.//channel_url->c]"
)
SYNDICATED_TITLE = (
    "S//item->i[.//title->t] "
    "FOLLOWED BY{t=t, INF} "
    "S//item->i[.//title->t]"
)

BATCH_SIZE = 25


def main() -> None:
    config = RuntimeConfig(
        engine="mmqjp-vm",
        construct_outputs=False,
        shards=4,
        store_documents=False,
    )
    broker = open_broker(config)

    same_channel = broker.subscribe(SAME_CHANNEL, subscription_id="same-channel")
    syndicated = broker.subscribe(SYNDICATED_TITLE, subscription_id="syndicated-title")
    for i, query in enumerate(generate_rss_queries(200, seed=23)):
        broker.subscribe(query, subscription_id=f"generated-{i}")

    stream_config = RssStreamConfig(num_items=150, num_channels=12, title_pool_size=60)
    documents = list(generate_rss_stream(stream_config))
    print(
        f"publishing {stream_config.num_items} feed items from "
        f"{stream_config.num_channels} channels to {len(broker.subscriptions)} "
        f"subscriptions on {broker.num_shards} shards ..."
    )

    start = time.perf_counter()
    deliveries = []
    for offset in range(0, len(documents), BATCH_SIZE):
        deliveries.extend(broker.publish_many(documents[offset : offset + BATCH_SIZE]))
    elapsed = time.perf_counter() - start

    throughput = stream_config.num_items / elapsed
    print(f"\nprocessed {stream_config.num_items} items in {elapsed:.2f}s "
          f"({throughput:.1f} events/second, batches of {BATCH_SIZE})")
    print(f"total deliveries: {len(deliveries)}")
    print(f"  same-channel pairs     : {same_channel.num_results}")
    print(f"  syndicated-title pairs : {syndicated.num_results}")

    stats = broker.stats()
    merged = stats["engine_stats"]
    print(f"  query templates        : {merged['num_templates']}")
    print(f"  join-state documents   : {merged['state_documents']}")
    print("  per shard              :")
    for shard in stats["per_shard"]:
        print(
            f"    shard {shard['shard']}: {shard['num_queries']:3d} queries, "
            f"{shard['num_templates']} templates, {shard['num_matches']} matches"
        )

    # Retract the generated subscriptions: the engines shrink accordingly.
    for i in range(200):
        broker.cancel(f"generated-{i}")
    merged_after = broker.stats()["engine_stats"]
    print(
        "\nafter cancelling the generated subscriptions: "
        f"{merged['num_queries']} -> {merged_after['num_queries']} queries, "
        f"{merged['num_templates']} -> {merged_after['num_templates']} templates"
    )
    broker.close()


if __name__ == "__main__":
    main()
