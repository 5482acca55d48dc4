"""Optional vectorised (NumPy) helpers.

The core library is dependency-free; this subpackage hosts the
vectorised implementations for users who batch-process large static
point sets (e.g. seeding a window from history) and already have NumPy
around, plus the intra-batch dominance prefilter behind the engines'
``append_many`` fast path.

It also hosts the query fast path: the versioned stab cache
(:mod:`repro.accel.stab_cache`) that memoizes interval-tree stabbing
queries between structural changes, and the R-tree leaf kernels
(:mod:`repro.accel.rtree_kernels`) that vectorise the per-leaf
dominance tests inside the maintenance searches.

The static-skyline helpers are only exported when NumPy is importable,
and :mod:`repro.accel.batch_prefilter` and
:mod:`repro.accel.rtree_kernels` fall back to pure-Python
implementations (slower, identical results) without it.
:mod:`repro.accel.stab_cache` needs NumPy, a declared dependency of the
package.
"""

from repro.accel.batch_prefilter import BatchPrefilter, intra_batch_survivors
from repro.accel.rtree_kernels import (
    HAVE_NUMPY,
    KERNEL_POLICIES,
    LeafKernel,
    resolve_kernel_policy,
)
from repro.accel.stab_cache import DEFAULT_MAX_MEMO, StabCache

__all__ = [
    "BatchPrefilter",
    "intra_batch_survivors",
    "HAVE_NUMPY",
    "KERNEL_POLICIES",
    "LeafKernel",
    "resolve_kernel_policy",
    "DEFAULT_MAX_MEMO",
    "StabCache",
]

try:
    from repro.accel.numpy_skyline import numpy_skyline, pareto_mask
except ImportError:  # pragma: no cover - NumPy not installed
    pass
else:
    __all__ += ["numpy_skyline", "pareto_mask"]
