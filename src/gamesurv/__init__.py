"""Discrete-time survival analysis where the censoring model is a player.

A failure-time model and a censoring-time model train against each other by
simultaneous gradient descent: each minimizes its own inverse-weighted
scoring loss with the other's weights frozen at the current step. The
population oracle in :mod:`gamesurv.oracle` certifies, in exact arithmetic,
that the true pair is the unique interior stationary point of that game,
while the *joint* objective is generally minimized elsewhere.
"""

from types import ModuleType as _ModuleType

from .core import (
    Dataset,
    RawSurvivalData,
    assign_bins,
    discretize,
    quantile_discretize,
)
from .games import (
    GameState,
    SelectionResult,
    TrainConfig,
    family_of,
    init_state,
    select_models,
    step_multiplayer,
    step_summed,
    train,
)
from .losses import (
    ClampStats,
    LossSpec,
    batch_loss,
    ipcw_bll_failure,
    ipcw_bs_failure,
    ipcw_mean,
    ipcw_per_sample,
    nll,
    per_horizon_loss,
    resolve_times,
)
from .metrics import (
    EvalReport,
    KaplanMeier,
    calibration_curve,
    concordance,
    concordance_index,
    eval_bll,
    eval_bs,
    evaluate,
    km_censoring,
    km_fit,
    nll_metric,
)
from .models import ArchSpec, Model, loss_and_grad
from .oracle import (
    GradientField,
    JointScan,
    StationaryScan,
    gradient_field,
    joint_objective_scan,
    nll_censoring_dependence,
    population_failure_nll,
    population_fbs,
    population_fbs_dx,
    population_gbs,
    population_gbs_dy,
    population_gradients,
    population_loss,
    spurious_gbs_root_qy,
    stationary_scan,
)
from .simgen import (
    GammaSimConfig,
    MarginalWorld,
    Standardizer,
    gen_gamma,
    gen_marginal,
    population_batch,
    random_interior_world,
)

__version__ = "0.1.0"

# every name imported above; the submodules stay reachable as attributes
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
