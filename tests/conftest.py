"""Shared test settings: property tests draw the same examples on every run;
`labelled` builds a labelled dataset on an integer grid."""

import numpy as np
from hypothesis import settings

from gamesurv.core import Dataset

settings.register_profile("gamesurv", derandomize=True, database=None, deadline=None)
settings.load_profile("gamesurv")


def labelled(time_bin, event, n_bins, features=None, weight=None) -> Dataset:
    """A dataset of the labels on ``n_bins`` bins whose bins are the integer
    times 1..K, with ``features`` (none when None) and row weights."""
    if features is None:
        features = np.zeros((np.size(time_bin), 0))
    return Dataset(features, time_bin, event, np.arange(n_bins + 1) + 0.5, weight=weight)
