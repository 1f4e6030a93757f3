"""repro — reproduction of "Weaving Enterprise Knowledge Graphs: The Case of
Company Ownership Graphs" (EDBT 2020).

The package implements Vada-Link, a knowledge-graph augmentation framework
over company ownership graphs: Algorithm 1 and its family, control and
close-link steps are one Vadalog program, run by
:class:`repro.core.ReasoningPipeline`.  Around it sit the substrates it
depends on: a Datalog± (Vadalog-fragment) reasoning engine, a property-graph model,
node2vec embeddings, ownership analytics (company control, close links,
family control), record-linkage-style family detection, and synthetic data
generators calibrated to the paper's Italian company database statistics.

Typical entry points::

    from repro.graph import CompanyGraph
    from repro.ownership import control_closure, close_links
    from repro.core import KnowledgeGraph, ReasoningPipeline
    from repro.datagen import generate_company_graph
"""

__version__ = "1.0.0"
