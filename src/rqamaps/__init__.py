"""Recurrence quantification analysis for interval maps.

Finite-time correlation sums, recurrence determinism, and recurrence plots
for piecewise linear interval maps, with exact-rational arithmetic and
symbolic (odometer / interval-configuration) backends that evaluate the
asymptotic quantities in closed form.
"""

from .intervals import (CompactInterval, Configuration, EpsilonPairSet,
                        epsilon_pairs, extremal_configuration, interval_dist,
                        union_diam, zero_configuration)
from .dynamics import (PeriodicStructure, PiecewiseLinearMap, Trajectory,
                       detect_periodic, evaluate, iterate)
from .rqa import (RQAParams, RecurrenceMatrix, ResourceGuardError, SeriesEstimate,
                  bowen_distance, correlation_sum, estimate_asymptotics,
                  recurrence_determinism, recurrence_matrix, rqa_det)
from .solenoidal import AdmissibleSystem, SolenoidalCounts, Word, asymptotic_corr_sum
from .finite_omega import (ExcludedEpsilonWarning, PeriodicOrbitData,
                           aligned_orbit, asymptotic_rdet_finite,
                           closed_form_corr_sum, excluded_epsilons)
from .constructions import (DelahayeInstance, Prop42Instance, build_delahaye,
                            build_prop42, delahaye_counts, delahaye_det,
                            delahaye_rdet, prop42_C1, prop42_c1_closed_form,
                            prop42_numeric_map, prop42_positions)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
