#!/usr/bin/env python3
"""Template explorer: how queries collapse into shared query templates.

This example peeks inside the Join Processor.  It registers the paper's
three example queries (Table 2) plus a batch of randomly generated ones,
then prints:

* how many distinct query templates the workload needs (vs. query count),
* the structure of each template (meta-variables, structural and value-join
  edges), and
* the relational conjunctive query ``CQT`` and its SQL rendering — the exact
  artifact the paper shipped to SQL Server.

Run with::

    python examples/template_explorer.py
"""

from repro.relational import render_sql
from repro.templates.cqt import RELATION_SCHEMAS
from repro.templates.enumerate import template_count_table
from repro.templates.registry import TemplateRegistry
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.xmlmodel.schema import two_level_schema
from repro.xscl import parse_query
from repro.xscl.normalize import VariableCatalog, canonicalize_query

PAPER_QUERIES = {
    "Q1": "S//book->x1[.//author->x2][.//title->x3] FOLLOWED BY{x2=x5 AND x3=x6, 10} "
          "S//blog->x4[.//author->x5][.//title->x6]",
    "Q2": "S//book->x1[.//author->x2][.//category->x7] FOLLOWED BY{x2=x5 AND x7=x8, 10} "
          "S//blog->x4[.//author->x5][.//category->x8]",
    "Q3": "S//blog->x4[.//author->x5][.//title->x6] FOLLOWED BY{x5=x5 AND x6=x6, 10} "
          "S//blog->x4[.//author->x5][.//title->x6]",
}


def show_paper_queries() -> None:
    print("=" * 72)
    print("The three Table 2 queries share a single template (Figure 5):")
    print("=" * 72)
    catalog = VariableCatalog()
    queries = {
        qid: canonicalize_query(parse_query(text), catalog)
        for qid, text in PAPER_QUERIES.items()
    }
    registry = TemplateRegistry()
    for qid, query in queries.items():
        registry.add_query(qid, query)
    for template in registry.templates:
        print(f"\ntemplate #{template.template_id}")
        print(f"  meta variables   : {template.meta_order}")
        print(f"  structural edges : {template.structural_edges}")
        print(f"  value joins      : {template.value_edges}")
        print(f"  member queries   : {registry.queries_of(template)}")
        print("\n  RT relation rows:")
        for row in registry.rt_relation(template).rows:
            print(f"    {row}")
        cq = registry.cqt(template)
        print(f"\n  conjunctive query:\n    {cq}")
        schemas = dict(RELATION_SCHEMAS)
        schemas[template.rt_relation_name()] = template.rt_schema()
        print("\n  SQL rendering (what the paper shipped to SQL Server):")
        for line in render_sql(cq, schemas).splitlines():
            print(f"    {line}")


def show_random_workload() -> None:
    print("\n" + "=" * 72)
    print("1000 random queries over a 6-leaf feed-item schema:")
    print("=" * 72)
    schema = two_level_schema(6)
    queries = generate_queries(QueryWorkloadConfig(schema=schema, num_queries=1000))
    registry = TemplateRegistry()
    for i, query in enumerate(queries):
        registry.add_query(f"q{i}", query)
    print(f"  queries registered : {registry.num_queries}")
    print(f"  distinct templates : {registry.num_templates}")
    for template_id, size in sorted(registry.template_sizes().items()):
        template = registry.templates[template_id]
        print(
            f"    template #{template_id}: {template.num_value_joins} value joins, "
            f"{size} member queries"
        )


def show_table3() -> None:
    print("\n" + "=" * 72)
    print("Table 3 — possible templates per number of value joins:")
    print("=" * 72)
    for row in template_count_table(3):
        print(
            f"  {row['value_joins']} value join(s): "
            f"{row['templates_flat']} flat-schema / {row['templates_complex']} complex-schema templates"
        )


def main() -> None:
    show_paper_queries()
    show_random_workload()
    show_table3()


if __name__ == "__main__":
    main()
