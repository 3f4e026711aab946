"""Coarse geometry of finite graphs of groups.

Exact tools for the commensurability structure a finite graph of groups
induces on its Bass-Serre tree: irreducible reductions, the depth filtration
with its rafts and flotillas, crossing graphs at depth-zero vertices, the
structural hypothesis checklist, pattern invariants for abelian vertex
groups, and finite tree balls as an independent brute-force comparator.
"""

from .exactlin import (DimensionMismatch, RatMatrix, RationalSubspace,
                       canonicalize, contains, full_space, image, intersect,
                       preimage, subspace_sum, zero_space)
from .model import (GraphLoadError, GraphOfGroups, EdgeEnd, EdgeSpec, TableData,
                    UnknownId, ValidationReport, VertexSpec, dump_graph, graph_from_dict,
                    graph_to_dict, load_graph, validate)
from .oracle import AbelianOracle, TableOracle, UnsupportedOracle, explore
from .reduce import NotReducible, collapse, comm_classes, complete_reduce, reducible_edges
from .depth import (DepthAssignment, Flotilla, Level, MustReduceFirst, Raft, Verdict,
                    WitnessStep, depth_filtration, depth_zero_rafts, raft_kind)
from .crossing import (CrossingGraph, CrossingNode, HypothesisReport,
                       HypothesisStatus, WrongVertex, check_hypotheses, crossing_graph)
from .patterns import (LinearPattern, RigidityVerdict, SlopeInvariant,
                       UnderdeterminedSlopes, line_slope, patterns_equivalent,
                       rigidity_check, slope_invariant, vertex_edge_pattern)
from .treeball import (BallEdge, BallNode, LabelsNotMonotone, TreeBall, annotate_depth,
                       ball_chain_depths, ball_crossing_check, build_ball,
                       coarse_le, smith_normal_form, to_dot)

__version__ = "0.1.0"
