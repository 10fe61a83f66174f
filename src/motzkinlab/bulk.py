"""Index arrays as the sweeps take them: :func:`checked_indices` makes values
an int64 array, or raises ValueError unless each is an integer (any integer
dtype) in [0, MAX_INDEX].  The sweeps run on the digit machines of
:mod:`motzkinlab.automaton`.
"""

import numpy as np

MAX_INDEX = int(np.iinfo(np.int64).max) - 2


def checked_indices(values) -> np.ndarray:
    """``values`` as an int64 array; a ValueError unless each is in [0, MAX_INDEX]."""
    arr = np.asarray(values)
    if arr.size:
        if arr.dtype.kind not in "iu":  # floats would truncate, huge ints arrive as objects
            raise ValueError(f"indices must have an integer dtype, got {arr.dtype}")
        if int(arr.min()) < 0:
            raise ValueError("indices must be non-negative")
        if int(arr.max()) > MAX_INDEX:
            raise ValueError(f"indices must be at most {MAX_INDEX}")
    return arr.astype(np.int64, copy=False)
