"""Property-graph substrate: the data model of Definitions 2.1 and 2.2."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "columnar": ("GraphFrame",),
    "company_graph": (
        "COMPANY", "CompanyGraph", "FAMILY", "figure1_graph", "figure2_graph", "PERSON",
        "SHAREHOLDING",
    ),
    "dot": ("save_dot", "to_dot"),
    "io": (
        "from_json", "load_json", "read_company_csv", "save_json", "to_json", "write_company_csv",
    ),
    "metrics": (
        "average_clustering", "clustering_coefficient", "count_self_loops", "degree_histogram",
        "GraphProfile", "power_law_alpha", "profile", "strongly_connected_components",
        "weakly_connected_components",
    ),
    "property_graph": ("Edge", "GraphError", "Node", "PropertyGraph"),
    "relational": (
        "company_graph_from_facts", "COMPANY_SCHEMA", "EdgeRelation", "NodeRelation",
        "RelationalSchema", "roundtrip", "to_facts",
    ),
    "temporal": ("ControlChange", "evolve", "OwnershipHistory"),
    "validation": ("Finding", "quality_report", "validate"),
})
