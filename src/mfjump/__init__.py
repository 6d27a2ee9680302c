"""mfjump: mean-field particle systems with simultaneous jumps.

Simulates the N-particle system, the intermediate system with collateral
jumps absorbed into a drift, and the nonlinear limit process under shared
random drivers, and measures coupling distances, convergence rates and
moment/jump-count diagnostics.
"""

from .drivers import DriverBundle, StreamKey, StreamState, make_driver_bundle
from .models import (
    AssumptionReport,
    EmpiricalMeasure,
    ModelSpec,
    ProbeConfig,
    make_empirical,
    validate_model,
)
from .metrics import fit_rate, jump_count_stats, moment_diagnostics, w1_1d, w1_assignment
from .zoo import build, default_params, model_ids
from .particle import InitSampler, PathRecordSet, StepPolicy, simulate, simulate_coupled
from .limit import FlowApproximation, picard_iterate, simulate_ensemble, solve_limit
from .harness import SimConfig, run_chaos_sweep, run_diagnostics, run_validate

__version__ = "0.1.0"
