"""The package's public surface, committed here: adding, removing or
renaming a top-level name changes this list in the same diff."""

import gamesurv

PUBLIC = [
    "ArchSpec", "ClampStats", "Dataset", "EvalReport", "GameState", "GammaSimConfig",
    "GradientField", "JointScan", "KaplanMeier", "LossSpec", "MarginalWorld", "Model",
    "RawSurvivalData", "SelectionResult", "Standardizer", "StationaryScan", "TrainConfig",
    "assign_bins", "batch_loss", "calibration_curve", "concordance", "concordance_index",
    "discretize", "eval_bll", "eval_bs", "evaluate", "family_of", "gen_gamma", "gen_marginal",
    "gradient_field", "init_state", "ipcw_bll_failure", "ipcw_bs_failure", "ipcw_mean",
    "ipcw_per_sample", "joint_objective_scan", "km_censoring", "km_fit", "loss_and_grad", "nll",
    "nll_censoring_dependence", "nll_metric", "per_horizon_loss", "population_batch",
    "population_failure_nll", "population_fbs", "population_fbs_dx", "population_gbs",
    "population_gbs_dy", "population_gradients", "population_loss", "quantile_discretize",
    "random_interior_world", "resolve_times", "select_models", "spurious_gbs_root_qy",
    "stationary_scan", "step_multiplayer", "step_summed", "train",
]


def test_the_public_surface_is_the_committed_list():
    assert gamesurv.__all__ == PUBLIC
    assert all(hasattr(gamesurv, name) for name in PUBLIC)
