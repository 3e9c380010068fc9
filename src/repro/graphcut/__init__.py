"""Constraint-graph tooling for Domo's bound computation (paper §IV.C).

Domo models every unknown arrival time as a vertex and connects two
vertices when some constraint involves both. Computing the bounds of one
arrival time only needs the constraints "near" it, so Domo extracts a
sub-graph per target: a BFS seed of the configured *graph cut size* whose
boundary is then tuned with **Balanced Label Propagation** (Ugander &
Backstrom, WSDM'13) to minimize the number of cut edges.

* :mod:`repro.graphcut.graph` — the constraint graph structure;
* :mod:`repro.graphcut.blp` — balanced label propagation; the original
  algorithm's move-count LP has a prefix-count optimum in the two-way
  form, which BLP takes in closed form, so the package solves no LP;
* :mod:`repro.graphcut.extraction` — per-target sub-graph extraction.
"""

from repro.graphcut.blp import BlpResult, refine_two_way
from repro.graphcut.extraction import ExtractedSubgraph, SubgraphExtractor
from repro.graphcut.graph import ConstraintGraph

__all__ = [
    "BlpResult",
    "ConstraintGraph",
    "ExtractedSubgraph",
    "SubgraphExtractor",
    "refine_two_way",
]
