"""Random pseudo-orbits on compact spaces: certified finite-horizon
shadowing checks, Monte Carlo shadowing-probability experiments, and the
constructive quantities behind the transitive-map dichotomy."""

from .bounds import (CoverTime, DichotomyQuantities, ProofQuantities,
                     attractor_quantities, blocks_for_confidence, cover_time,
                     delta_for_inclusion, dichotomy_quantities, eta,
                     in_absorbing_band, nonshadow_lower_bound, tube_delta,
                     tube_probability_bound)
from .enclosure import EnclosureSet, ball_set, intersect
from .errors import (DomainError, EnclosureCapError, InvariantViolation,
                     SearchFailure, UsageError)
from .experiment import (ExperimentConfig, ExperimentResult, HorizonStat,
                         TrialOutcome, clopper_pearson, emit,
                         estimate_probability, run_attractor_experiment,
                         run_dichotomy_experiment)
from .pseudotraj import (Provenance, Pseudotrajectory, exact_orbit, generate,
                         load_trajectory, save_trajectory, splice,
                         trial_stream, validate, worst_case_pseudotrajectory)
from .shadowcheck import (ShadowVerdict, Verdict, decide_horizons,
                          decide_shadowable, first_empty_step, orbit_tracks,
                          rotation_oracle, rotation_first_failure,
                          shadow_set_forward)
from .spaces import Point, Space, annulus, circle, interval
from .systems import (AnnulusSpiral, PiecewiseLinearMap, annulus_spiral,
                      doubling, orbit, parse_system, pwl, rotation, tent)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
