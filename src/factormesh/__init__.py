"""Discrete factor graphs, reference inference, and a message-passing
machine: compile a graph onto a grid of fixed-point cells and execute it
deterministically, or run the floating-point golden kernels for comparison.
"""

from .graph import (TABLE, ALL_DIFFERENT, PARITY, EQUALITY, PAIRWISE_ISING,
                    EPS_SOFT, GraphError, ParseError, VariableNode,
                    FactorNode, FactorGraph, checked, expand_builtin,
                    expand_all, with_evidence, parse_uai, serialize_uai,
                    parse_evidence, serialize_evidence)
from .golden import (InferenceError, EnumerationBoundError, LINEAR, LOG,
                     FLOODING, SEQUENTIAL, exact_marginals, map_bruteforce,
                     BeliefState, sum_product, sum_product_sweeps, min_sum,
                     GibbsResult, gibbs_sample)
from .fixedpoint import (U16_MAX, Q88_ONE, Q88_MIN, Q88_MAX, FixedPointError,
                         Domain, U16, Q88)
from .image import (SUMPROD, MINSUM, GIBBS, MODES, Capacities,
                    DEFAULT_CAPACITIES, ImageError, MachineImage, domain, dumps,
                    parse_image)
from .machine import Machine, MachineError, Stats
from .mapper import (MapperError, lower, cluster, place, cost, emit_image,
                     compile_graph)
from . import apps

__version__ = "0.1.0"

__all__ = [
    "TABLE", "ALL_DIFFERENT", "PARITY", "EQUALITY", "PAIRWISE_ISING",
    "EPS_SOFT", "GraphError", "ParseError", "VariableNode",
    "FactorNode", "FactorGraph", "checked", "expand_builtin", "expand_all",
    "with_evidence", "parse_uai", "serialize_uai", "parse_evidence",
    "serialize_evidence",
    "InferenceError", "EnumerationBoundError", "LINEAR", "LOG", "FLOODING",
    "SEQUENTIAL",
    "exact_marginals", "map_bruteforce", "BeliefState", "sum_product",
    "sum_product_sweeps", "min_sum", "GibbsResult", "gibbs_sample",
    "U16_MAX", "Q88_ONE", "Q88_MIN", "Q88_MAX", "FixedPointError", "Domain",
    "U16", "Q88",
    "SUMPROD", "MINSUM", "GIBBS", "MODES", "Capacities",
    "DEFAULT_CAPACITIES", "ImageError", "MachineImage", "domain", "dumps",
    "parse_image",
    "Machine", "MachineError", "Stats",
    "MapperError", "lower", "cluster", "place", "cost", "emit_image",
    "compile_graph",
    "apps",
]
