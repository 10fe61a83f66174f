"""Scattered index arrays as the digit walk takes them: :func:`checked_indices`
makes values an int64 array, or raises ValueError unless each is an integer
(any integer dtype) in [0, MAX_INDEX].  The walk runs on the digit machines of
:mod:`motzkinlab.automaton`; contiguous windows take the window walk, which
needs no index array.  numpy is imported by the check, not by the module.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MAX_INDEX = 2**63 - 3  # the int64 maximum less 2


def checked_indices(values) -> "np.ndarray":
    """``values`` as an int64 array; a ValueError unless each is in [0, MAX_INDEX]."""
    import numpy as np

    arr = np.asarray(values)
    if arr.size:
        if arr.dtype.kind not in "iu":  # floats would truncate, huge ints arrive as objects
            raise ValueError(f"indices must have an integer dtype, got {arr.dtype}")
        if int(arr.min()) < 0:
            raise ValueError("indices must be non-negative")
        if int(arr.max()) > MAX_INDEX:
            raise ValueError(f"indices must be at most {MAX_INDEX}")
    return arr.astype(np.int64, copy=False)
