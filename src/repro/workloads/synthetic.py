"""The technical benchmark of Section 6.1: documents and witness relations.

The paper's technical benchmark joins two fixed documents ``d1`` and ``d2``
that conform to the same schema and whose leaf nodes in corresponding
positions carry identical string values (while all leaves within one
document carry distinct values).  Because the benchmark measures the Join
Processor only, the witness relations are constructed directly instead of
running the XPath Evaluator; this module does the same, while also being
able to build the actual XML documents for end-to-end tests.

Variable naming convention (shared with the query generator so that witness
rows and query variables line up):

* the root variable is ``v_<root tag>``,
* intermediate (group) variables are ``v_<group tag>``,
* leaf variables are ``v_<leaf tag>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.state import JoinState
from repro.core.witnesses import WitnessRelations
from repro.xmlmodel.builder import element
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode
from repro.xmlmodel.schema import DocumentSchema


# --------------------------------------------------------------------------- #
# variable naming
# --------------------------------------------------------------------------- #
def root_variable(schema: DocumentSchema) -> str:
    """Canonical variable name bound to the schema's root element."""
    return f"v_{schema.root_tag}"


def group_variable(schema: DocumentSchema, group_index: int) -> str:
    """Canonical variable name bound to an intermediate (group) element."""
    return f"v_{schema.group_tags[group_index]}"


def leaf_variable(schema: DocumentSchema, leaf_index: int) -> str:
    """Canonical variable name bound to a leaf element."""
    return f"v_{schema.leaf_tags[leaf_index]}"


# --------------------------------------------------------------------------- #
# documents
# --------------------------------------------------------------------------- #
def leaf_value(leaf_index: int) -> str:
    """The shared string value of leaf ``leaf_index`` in both benchmark documents."""
    return f"value_{leaf_index}"


def build_document(
    schema: DocumentSchema,
    docid: str,
    timestamp: float,
    leaf_values: list[str] | None = None,
    internal_marker: str = "",
) -> XmlDocument:
    """Build a document conforming to ``schema``.

    ``leaf_values`` supplies the text of each leaf (defaults to the shared
    benchmark values); ``internal_marker`` is appended to internal nodes'
    text so that internal nodes of different documents never join.
    """
    values = leaf_values if leaf_values is not None else [
        leaf_value(i) for i in range(schema.num_leaves)
    ]
    if len(values) != schema.num_leaves:
        raise ValueError("leaf_values must have one entry per schema leaf")

    def leaf_node(i: int) -> XmlNode:
        return element(schema.leaf_tags[i], text=values[i])

    if schema.levels == 2:
        root = element(schema.root_tag, *[leaf_node(i) for i in range(schema.num_leaves)])
    else:
        groups = []
        for g, members in enumerate(schema.groups):
            groups.append(element(schema.group_tags[g], *[leaf_node(i) for i in members]))
        root = element(schema.root_tag, *groups)
    if internal_marker:
        root.text = internal_marker
    return XmlDocument(root, docid=docid, timestamp=timestamp)


def node_ids(schema: DocumentSchema) -> tuple[int, list[int], list[int]]:
    """Pre-order node ids of (root, group nodes, leaf nodes) for ``schema``."""
    if schema.levels == 2:
        return 0, [], [i + 1 for i in range(schema.num_leaves)]
    group_ids: list[int] = []
    leaf_ids: list[int] = [0] * schema.num_leaves
    next_id = 1
    for g, members in enumerate(schema.groups):
        group_ids.append(next_id)
        next_id += 1
        for leaf_index in members:
            leaf_ids[leaf_index] = next_id
            next_id += 1
    return 0, group_ids, leaf_ids


# --------------------------------------------------------------------------- #
# witness relations (the paper's direct construction)
# --------------------------------------------------------------------------- #
@dataclass
class TechnicalBenchmarkData:
    """Witness relations for the two fixed benchmark documents.

    ``d1`` (the *previous* document) is encoded as plain row lists ready to
    be loaded into a :class:`~repro.core.state.JoinState`; ``d2`` (the
    *current* document) is encoded as a
    :class:`~repro.core.witnesses.WitnessRelations` instance.
    """

    schema: DocumentSchema
    d1_docid: str = "d1"
    d2_docid: str = "d2"
    d1_timestamp: float = 1.0
    d2_timestamp: float = 2.0
    rbin_rows: list[tuple] = field(default_factory=list)
    rdoc_rows: list[tuple] = field(default_factory=list)
    rvar_rows: list[tuple] = field(default_factory=list)
    witness: WitnessRelations | None = None

    def load_state(self, state: JoinState) -> None:
        """Load ``d1``'s witnesses into a join state."""
        state.insert_document_rows(
            self.d1_docid,
            self.d1_timestamp,
            rbin_rows=self.rbin_rows,
            rdoc_rows=self.rdoc_rows,
            rvar_rows=self.rvar_rows,
        )

    def fresh_state(self) -> JoinState:
        """A new join state pre-loaded with ``d1``."""
        state = JoinState()
        self.load_state(state)
        return state


def _edge_rows(schema: DocumentSchema) -> list[tuple[str, str, int, int]]:
    """All (ancestor var, descendant var, ancestor node, descendant node) rows.

    Every ancestor/descendant variable pair of the schema is included, so the
    rows are a superset of what the XPath Evaluator would return for any set
    of registered query blocks (exactly the property the paper relies on).
    """
    root_id, group_ids, leaf_ids = node_ids(schema)
    rows: list[tuple[str, str, int, int]] = []
    root_var = root_variable(schema)
    for i in range(schema.num_leaves):
        rows.append((root_var, leaf_variable(schema, i), root_id, leaf_ids[i]))
    for g in range(len(schema.groups)):
        rows.append((root_var, group_variable(schema, g), root_id, group_ids[g]))
        for i in schema.groups[g]:
            rows.append((group_variable(schema, g), leaf_variable(schema, i), group_ids[g], leaf_ids[i]))
    return rows


def _value_rows(schema: DocumentSchema, internal_prefix: str) -> list[tuple[int, str]]:
    """(node, strVal) rows: shared values for leaves, unique values for internals."""
    root_id, group_ids, leaf_ids = node_ids(schema)
    rows = [(root_id, f"{internal_prefix}-root")]
    for g, gid in enumerate(group_ids):
        rows.append((gid, f"{internal_prefix}-group{g}"))
    for i in range(schema.num_leaves):
        rows.append((leaf_ids[i], leaf_value(i)))
    return rows


def _var_rows(schema: DocumentSchema) -> list[tuple[str, int]]:
    """(var, node) rows for every bound variable."""
    root_id, group_ids, leaf_ids = node_ids(schema)
    rows = [(root_variable(schema), root_id)]
    for g, gid in enumerate(group_ids):
        rows.append((group_variable(schema, g), gid))
    for i in range(schema.num_leaves):
        rows.append((leaf_variable(schema, i), leaf_ids[i]))
    return rows


@dataclass
class StateScalingData:
    """A retained join state plus probe documents (see :class:`DeltaScalingData`).

    ``state_docs`` holds one entry per previously processed document —
    ``(docid, timestamp, rbin_rows, rdoc_rows, rvar_rows)``, rows without the
    ``docid`` column — ready for
    :meth:`~repro.core.state.JoinState.insert_document_rows`.  ``probes`` are
    the current documents processed against that state.
    """

    schema: DocumentSchema
    state_docs: list[tuple[str, float, list[tuple], list[tuple], list[tuple]]]
    probes: list[WitnessRelations]

    def load_state(self, state: JoinState) -> None:
        """Load every retained document into a join state."""
        for docid, timestamp, rbin_rows, rdoc_rows, rvar_rows in self.state_docs:
            state.insert_document_rows(
                docid, timestamp, rbin_rows=rbin_rows, rdoc_rows=rdoc_rows, rvar_rows=rvar_rows
            )


def topic_schemas(num_topics: int) -> list[DocumentSchema]:
    """Two-level schemas with disjoint tag namespaces, one per topic.

    Topic ``t`` has ``t + 1`` leaves, so that queries with ``t + 1`` value
    joins (one per leaf) have a reduced join graph shape no other topic
    produces — each topic owns its templates outright.
    """
    if num_topics < 1:
        raise ValueError("need at least one topic")
    return [
        DocumentSchema(
            root_tag=f"topic{t}_root",
            leaf_tags=tuple(f"topic{t}_leaf{i}" for i in range(t + 1)),
        )
        for t in range(num_topics)
    ]


@dataclass
class DeltaScalingData(StateScalingData):
    """A growing retained state around a fixed delta-connected slice.

    Same layout as :class:`StateScalingData`, but the retained state mixes a
    *fixed* number of **alive** documents (canonical variable names, so they
    can satisfy every join of a registered query) with a growing tail of
    **dead** documents: their ``Rdoc`` rows carry leaf values from the same
    shared pool — so they match every value join of a probe — while their
    ``Rbin``/``Rvar`` rows use decoy variable names no registered query
    binds, so they can never survive the structural/template joins.  The
    dead tail is exactly the state a full-state join wades through and a
    delta-driven (semi-join reduced) join never touches.
    """

    num_alive_docs: int = 0
    value_pool: int = 0


def build_delta_scaling_data(
    schema: DocumentSchema,
    num_state_docs: int,
    num_alive_docs: int = 24,
    num_probe_docs: int = 5,
    value_pool: int = 10,
    seed: int = 13,
) -> DeltaScalingData:
    """Construct the growing-state / fixed-delta workload.

    ``num_alive_docs`` is held constant while ``num_state_docs`` grows, so
    the delta-connected state (and the probe documents themselves) stay the
    same size at every state scale.  All leaves of one document share a
    single value drawn from a pool of ``value_pool`` strings; dead
    documents share one low-cardinality decoy variable pair, so their rows
    are indistinguishable from alive ones on the value-join column and only
    the structural (variable-name) joins expose them.
    """
    if num_alive_docs > num_state_docs:
        raise ValueError("num_alive_docs cannot exceed num_state_docs")
    import random

    # Separate value streams: the alive documents and the probes draw from
    # their own generator, so the match sets (which only alive documents can
    # contribute to) are identical at every state scale — the dead tail is
    # pure extra state, not a different workload.
    alive_rng = random.Random(seed)
    dead_rng = random.Random(seed + 1)
    root_id, group_ids, leaf_ids = node_ids(schema)
    edges = _edge_rows(schema)
    var_rows = _var_rows(schema)

    # Decoy witnesses: same node layout, same row counts, variable names no
    # query uses — and deliberately few distinct decoy names, so a join
    # order that postpones the structural atoms cannot tell dead from alive
    # until it has already materialized their value-join rows.
    decoy_edges = [
        ("decoy_root", "decoy_leaf", root_edge[2], root_edge[3])
        for root_edge in edges
    ]
    decoy_vars = [("decoy_root", root_id)] + [
        ("decoy_leaf", leaf_ids[i]) for i in range(schema.num_leaves)
    ]

    def value_rows(tag: str, rng) -> list[tuple[int, str]]:
        rows = [(root_id, f"{tag}-root")]
        for g, gid in enumerate(group_ids):
            rows.append((gid, f"{tag}-group{g}"))
        shared = f"val{rng.randrange(value_pool)}"
        for i in range(schema.num_leaves):
            rows.append((leaf_ids[i], shared))
        return rows

    state_docs = []
    for i in range(num_state_docs):
        alive = i < num_alive_docs
        state_docs.append(
            (
                f"s{i}",
                float(i + 1),
                edges if alive else decoy_edges,
                value_rows(f"s{i}", alive_rng if alive else dead_rng),
                var_rows if alive else decoy_vars,
            )
        )

    probes = [
        WitnessRelations.from_rows(
            docid=f"p{j}",
            timestamp=float(num_state_docs + j + 1),
            rbinw_rows=edges,
            rdocw_rows=value_rows(f"p{j}", alive_rng),
            rvarw_rows=var_rows,
        )
        for j in range(num_probe_docs)
    ]
    return DeltaScalingData(
        schema=schema,
        state_docs=state_docs,
        probes=probes,
        num_alive_docs=num_alive_docs,
        value_pool=value_pool,
    )


def build_technical_benchmark_data(schema: DocumentSchema) -> TechnicalBenchmarkData:
    """Construct the Section 6.1 witness relations for documents ``d1`` and ``d2``."""
    data = TechnicalBenchmarkData(schema=schema)
    data.rbin_rows = list(_edge_rows(schema))
    data.rdoc_rows = list(_value_rows(schema, "d1"))
    data.rvar_rows = list(_var_rows(schema))

    witness = WitnessRelations.from_rows(
        docid=data.d2_docid,
        timestamp=data.d2_timestamp,
        rbinw_rows=_edge_rows(schema),
        rdocw_rows=_value_rows(schema, "d2"),
        rvarw_rows=_var_rows(schema),
    )
    data.witness = witness
    return data
