"""firesim: event-driven simulator and analytic oracles for one-dimensional
forest-fire processes with ignition at the origin."""

__version__ = "0.1.0"

from .model import CapExceeded, ModelConfig, NoiseField, RateProfile
from .green import (
    reach_discrete,
    simulate_N_green,
    simulate_N_green_cont,
    simulate_tau_green,
    simulate_tau_green_cont,
)
from .fire import (
    BurnEvent,
    FireTrace,
    RenewalRecord,
    detect_gap_event,
    run_blue_experiment,
    run_fire,
)
from .analytic import (
    ScheduleEntry,
    char_root,
    f_n,
    green_laplace_cont,
    green_moments_cont,
    p_n_closed_r2,
    p_n_dp,
    p_n_homog,
    sandwich_bounds,
    schedule,
    t_star,
)
from .experiments import (
    EstimatorResult,
    MinimaDecomposition,
    estimate_alpha_k,
    estimate_growth,
    extract_weak_minima,
    scaling_study,
    validate_permutation,
    validate_prop1,
    validate_thresholds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
