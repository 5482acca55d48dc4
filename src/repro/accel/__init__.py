"""Vectorised (NumPy) helpers.

This subpackage hosts the vectorised implementations for users who
batch-process large static point sets (e.g. seeding a window from
history), plus the intra-batch dominance prefilter behind the engines'
``append_many`` fast path.

It also hosts the query fast path: the versioned stab cache
(:mod:`repro.accel.stab_cache`) that memoizes interval-tree stabbing
queries between structural changes.
"""

from repro.accel.batch_prefilter import BatchPrefilter, intra_batch_survivors
from repro.accel.numpy_skyline import numpy_skyline, pareto_mask
from repro.accel.stab_cache import DEFAULT_MAX_MEMO, StabCache

__all__ = [
    "BatchPrefilter",
    "intra_batch_survivors",
    "DEFAULT_MAX_MEMO",
    "StabCache",
    "numpy_skyline",
    "pareto_mask",
]
