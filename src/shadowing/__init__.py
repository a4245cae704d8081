"""Random pseudo-orbits on compact spaces: certified finite-horizon
shadowing checks, Monte Carlo shadowing-probability experiments, and the
constructive quantities behind the transitive-map dichotomy."""

from .bounds import (CoverTime, DichotomyQuantities, ProofQuantities,
                     attractor_quantities, cover_time, delta_for_inclusion,
                     dichotomy_quantities, eta, nonshadow_lower_bound,
                     tube_delta)
from .enclosure import EnclosureSet, ball_set
from .errors import (DomainError, EnclosureCapError, InvariantViolation,
                     SearchFailure, UsageError)
from .experiment import (ExperimentConfig, ExperimentResult, HorizonStat,
                         TrialOutcome, clopper_pearson, emit,
                         estimate_probability, run_attractor_experiment,
                         run_dichotomy_experiment)
from .pseudotraj import (Provenance, Pseudotrajectory, generate,
                         load_trajectory, save_trajectory, trial_stream,
                         worst_case_pseudotrajectory)
from .shadowcheck import (ShadowVerdict, Verdict, decide_horizons,
                          decide_shadowable, orbit_tracks,
                          rotation_first_failure, shadow_set_forward)
from .spaces import Point, Space, annulus, circle, interval
from .systems import (PiecewiseLinearMap, ProductMap, annulus_spiral,
                      doubling, parse_system, pwl, rotation, tent)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
