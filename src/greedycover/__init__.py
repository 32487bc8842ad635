"""Random greedy independent-set process on G(n,p).

Trajectory tracking with envelope diagnostics, typicality checking,
non-edge cover construction, and Monte Carlo estimators, all behind
reproducible counter-based random streams.

`import greedycover` loads no submodule: each exported name loads its home
module on first access (PEP 562), so a program pays only for the modules
it uses.
"""

import importlib

__version__ = "0.1.0"

# The exported names of each module; __all__, __dir__ and __getattr__ read it.
_EXPORTS = {
    "graph": (
        "EdgeListError",
        "Graph",
        "VertexSet",
        "codegree",
        "common_non_neighbourhood",
        "complete_bipartite",
        "from_edge_list",
        "gnp_sample",
        "is_independent",
        "non_edges",
        "to_edge_list",
    ),
    "params": (
        "EnvelopePoint",
        "ParamSet",
        "bound_formulas",
        "chernoff_bound",
        "envelope",
        "error_f",
        "expected_degree",
        "failure_prob_bound",
        "freedman_bound",
        "variation_cap",
    ),
    "process": (
        "EnsembleSummary",
        "IncrementStats",
        "ProcessRun",
        "ProcessState",
        "StepRecord",
        "ensemble_run",
        "increment_bound",
        "increment_diagnostics",
        "init",
        "run",
        "sample_independent_set",
        "step",
    ),
    "typicality": (
        "ETableRow",
        "P1Fragment",
        "P2Fragment",
        "P3Fragment",
        "TypicalityReport",
        "check_p1",
        "check_p2",
        "check_p3",
        "e_table",
        "is_typical",
    ),
    "cover": (
        "Cover",
        "CoverReport",
        "CoverStructureError",
        "PartitionCover",
        "build_pdim_adaptive",
        "build_pdim_cover",
        "build_theta1_adaptive",
        "build_theta1_cover",
        "verify_cover",
    ),
    "montecarlo": (
        "BipartiteComparison",
        "ConditionalEstimate",
        "EstimateReport",
        "bipartite_comparison",
        "estimate_conditional_chain",
        "estimate_membership",
        "sample_non_edges",
        "uniform_independent_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
