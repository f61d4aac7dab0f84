"""tessperc: Bernoulli face percolation on random tessellations of the plane.

Samplers for planar point processes, Voronoi/lattice tessellation builders
with face and star adjacency, Bernoulli coloring with monotone coupling,
crossing/cluster estimators, and void, Laplace, scale-mixing and tameness
diagnostics, all driven by counter-based reproducible random streams.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ConstructionError, EdgeEffectError,
                     EstimatorFailure, ParameterError)
from .geometry import Window
from .point_process import (PointConfiguration, ProcessSpec, sample_cluster_process,
                            sample_matern_hardcore, sample_perturbed_lattice,
                            sample_poisson, sample_poisson_lines, sample_process)
from .streams import stream
from .tessellation import (Tessellation, build_adjacency, build_lattice_tessellation,
                           build_voronoi, zero_cell)
from .percolation import (CellGraph, CrossingQuery, color, crossing, hop_balls, joining,
                          label_components, rect_graph)
from .experiment import ExperimentSpec, build_tessellation, uniforms_for
from .estimators import (count_spanning_clusters, estimate_crossing_prob, estimate_pc,
                         estimate_theta, estimate_trifurcation_density, find_trifurcations,
                         ggr_diagnostics, trifurcation_candidates, verify_crossing_recursion)
from .gridfield import (AnimalSearchResult, GridField, compute_U_field,
                        compute_Y_field, greedy_animal_max)
from .diagnostics import (SmpGapCurve, estimate_laplace_functional,
                          estimate_void_probability, gap_from_indicators,
                          line_process_smp_failure, mixture_nonergodic_demo,
                          peierls_probe, smp_gap, tameness_report)
from .render import render_svg
