"""Graph data substrate: containers, synthetic datasets, partitioning.

The paper evaluates on five public benchmarks (Table 2) cut into party
subgraphs with the Louvain algorithm.  Offline, we regenerate statistical
twins of those benchmarks (see DESIGN.md §2) with a degree-corrected
stochastic block model and class-conditional sparse features, then apply
the identical Louvain-cut / split pipeline.
"""

from repro.graphs.data import Graph
from repro.graphs.csr import CSRMatrix
from repro.graphs.union import GraphUnion
from repro.graphs.laplacian import normalized_adjacency, add_self_loops
from repro.graphs.sbm import dc_sbm
from repro.graphs.features import class_conditional_features
from repro.graphs.datasets import (
    DATASET_STATS,
    load_dataset,
    synthetic_citation_graph,
)
from repro.graphs.partition import louvain_partition, random_partition, subgraph, PartitionResult
from repro.graphs.splits import semi_supervised_split
from repro.graphs.metrics_noniid import (
    label_distribution,
    label_divergence,
    feature_mean_distance,
    party_label_matrix,
)

__all__ = [
    "Graph",
    "CSRMatrix",
    "GraphUnion",
    "normalized_adjacency",
    "add_self_loops",
    "dc_sbm",
    "class_conditional_features",
    "DATASET_STATS",
    "load_dataset",
    "synthetic_citation_graph",
    "louvain_partition",
    "random_partition",
    "subgraph",
    "PartitionResult",
    "semi_supervised_split",
    "label_distribution",
    "label_divergence",
    "feature_mean_distance",
    "party_label_matrix",
]
