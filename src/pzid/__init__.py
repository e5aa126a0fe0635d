"""pzid: pole-zero identification for linearized-circuit stability analysis.

Fit rational models to sampled frequency responses, read stability off the
fitted pole map, localize instabilities through residue analysis, and run
parametric stabilization studies — with a built-in linear-circuit engine
whose generalized-eigenvalue pencil serves as an analytic oracle.
"""

import os

# One BLAS thread unless the caller chose otherwise: pzid's dense problems
# are small, and the thread count changes the rounding of every fit, so
# reports would differ between machines.  Set before numpy is first
# imported; a process that imported numpy earlier keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import NumericError, PzidError, UsageError
from .freqresp import (FrequencyGrid, FrequencyResponseSet, PortLabel,
                       ProbeSpec, ResponseParseError, current_probe, emit_csv,
                       merge_sets, modal_probe, parse_csv, parse_probe,
                       parse_touchstone, slice_band, voltage_probe)
from .netsim import (Element, Netlist, PencilEigenvalues, TerminationPort,
                     analytic_poles, capacitor, frequency_response,
                     frequency_responses, ground_node, inductor, parse_netlist,
                     parse_value, pencil_eigenvalues, resistor,
                     set_element_value, vccs, with_termination)
from .polemap import PoleMapStyle, render_pole_map
from .ratfit import (FitConfig, FitReport, PartialFractionModel, PolePair,
                     PolynomialRatioModel, RankDeficiencyError, evaluate_model,
                     fit_common_denominator, fit_error, fit_polynomial_ratio,
                     load_model, poles_and_zeros, save_model)
from .staban import (ClassifiedPole, OrderScan, QuasiCancellation, RhoMatrix,
                     ScanStep, StabilityConfig, StabilityVerdict, auto_identify,
                     classify_poles, detect_quasi_cancellations, rank_ports,
                     rho_factor, rho_matrix, serialize_verdict,
                     subband_consistency_check)
from .sweeps import (PoleCloud, PoleTrajectory, ProvisoReport, SpiralPath,
                     SweepConfig, monte_carlo_cloud, proviso_scan, spiral_path,
                     stabilization_threshold, trace_pole_locus)

__version__ = "0.1.0"
