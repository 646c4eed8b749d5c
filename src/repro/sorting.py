"""Sort kernels shared by the itemsets and graph layers."""

from __future__ import annotations

import numpy as np


def stable_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, n_keys)``.

    The keys are cast to the narrowest unsigned dtype that holds them
    first: numpy sorts 8- and 16-bit keys stably with a radix sort
    (195k item ids: 11.4 ms as int64, 1.0 ms as uint8, on a 2-vCPU
    host), and the permutation is the same.
    """
    dtype = np.min_scalar_type(max(n_keys - 1, 0))
    return np.argsort(keys.astype(dtype, copy=False), kind="stable")
