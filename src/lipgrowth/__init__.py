"""Exact counting of h-Lipschitz integer functions on graphs and the
computation of their growth constants.

The count of integer functions that are pinned to 0 at the smallest vertex
of each component and vary by at most h across edges is a polynomial in h
of degree n - k; its leading coefficient determines the per-vertex growth
constant c(G) in [1, 2].  This package computes such counts exactly (bucket
elimination on any graph, closed forms, column transfer for grid strips),
fits the polynomial in exact arithmetic, solves the limiting
integral-operator eigenproblems behind the strip constants, and evaluates
the random-graph bounds.
"""

from .errors import ConvergenceError, ResourceLimitError
from .graphs import (Graph, from_edgelist_str, graph_hash, make_family,
                     make_grid, read_edgelist, sample_er, to_edgelist_str)
from .counting import (EhrhartPoly, count, count_closed_form,
                       count_with_stats, ehrhart_fit, reciprocal_fit)
from .strips import (BandOperator, FreeStripOperator, PinnedStripOperator,
                     SpectralEstimate, TentOperator, extrapolate_limit,
                     make_operator, strip_count_exact, top_eigenvalue)
from .continuum import (KernelLimit, kernel_limit, nystrom_top, solve_alpha,
                        solve_beta)
from .randomlab import (BoundReport, LllConfig, MonteCarloResult,
                        PairSearchResult, bound_report, epsilon_upper_bound,
                        giant_fraction_prediction, independent_pair_margin,
                        independent_pair_search, lll_sampler,
                        poisson_tail_bound, triple_sum_success,
                        wilson_interval)

__version__ = "0.1.0"
