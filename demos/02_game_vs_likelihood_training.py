"""
Training the failure model as a game versus as a likelihood
===========================================================

The game trains two networks at once: the failure model is scored with
censoring weights taken from the censoring model, the censoring model
with weights taken from the failure model, and both take a simultaneous
gradient step. The likelihood baseline trains the same architectures on
the discrete negative log-likelihood, where the two models decouple.

With latent failure times available from the simulator, test scores can
be computed censoring-free, so the comparison does not depend on any
weighting model.
"""

import time

import gamesurv as gs

N_TRAIN, N_TEST, BINS = 400, 2000, 8

raw = gs.gen_gamma(gs.GammaSimConfig(n=N_TRAIN, seed=(0, 0)))
std = gs.Standardizer.fit(raw.features)
train = gs.discretize(std.apply(raw), n_bins=BINS)
test = gs.discretize(std.apply(gs.gen_gamma(gs.GammaSimConfig(n=N_TEST, seed=(0, 2)))),
                     edges=train.bin_edges)
print(f"train n={N_TRAIN} (censoring rate {1 - raw.event.mean():.2f}), "
      f"test n={N_TEST}, {BINS} bins\n")

print(f"{'objective':10s} {'test BS (sum)':>14s} {'test BLL (sum)':>15s} "
      f"{'test NLL':>9s} {'concordance':>12s} {'time':>6s}")
for objective in ("nll", "bs-game", "bll-game"):
    cfg = gs.TrainConfig(objective=objective, epochs=40, hidden=(16,),
                         batch_size=64, learning_rate=1e-3, seed=0)
    t0 = time.time()
    state = gs.train(train, cfg)
    pmf = state.model_f.predict_pmf(test.features)
    report = gs.evaluate(pmf, test, weighting="uncensored-latent")
    nll_val = gs.nll_metric(pmf, test)
    print(f"{objective:10s} {report.bs_sum:14.4f} {report.bll_sum:15.4f} "
          f"{nll_val:9.4f} {report.concordance:12.4f} {time.time() - t0:5.1f}s")

# the training history records both players' losses per epoch
print("\nlast three epochs of the bs-game history:")
cfg = gs.TrainConfig(objective="bs-game", epochs=40, hidden=(16,),
                     batch_size=64, learning_rate=1e-3, seed=0)
state = gs.train(train, cfg)
for rec in state.history[-3:]:
    print(f"  epoch {rec['epoch']:3d}: loss_F {rec['loss_F']:.4f}, "
          f"loss_G {rec['loss_G']:.4f}")

# model selection replays checkpoints against a validation split,
# alternating best responses until the selected pair stops moving
val = gs.discretize(std.apply(gs.gen_gamma(gs.GammaSimConfig(n=300, seed=(0, 1)))),
                    edges=train.bin_edges)
sel = gs.select_models(state, val)
print(f"\nselection: F from epoch {sel.f_epoch}, G from epoch {sel.g_epoch}, "
      f"converged={sel.converged} after {sel.rounds} round(s)")
