"""Vectorized counterparts of the scalar set tests.

These kernels stream int64 index arrays so that density sweeps over tens of
millions of indices stay fast.  They test index families, not residue
classes: :func:`in_set_mask` mirrors :func:`motzkinlab.classify.is_in_set`
for one ``SetSpec`` family (an ``eps*_delta*`` or ``div5_form*`` label), and
:func:`t01_mask` mirrors :func:`motzkinlab.classify.is_t01`.  Every residue
class, M(n) = v mod m, is swept from
:func:`motzkinlab.automaton.motzkin_mod_indices` instead.  The test suite
holds the kernels to the scalar classifiers, and those to the residues.
Indices must be integers (any integer dtype), non-negative, and leave
headroom for n + 2 in int64; :func:`checked_indices` enforces that.
"""

import numpy as np

from .classify import SetSpec

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


def factor_out(values: np.ndarray, base: int) -> "tuple[np.ndarray, np.ndarray]":
    """Elementwise (unit, exponent) with unit * base**exponent == value.

    All entries must be >= 1.  Index compaction keeps later passes cheap:
    only a 1/base fraction of entries survives each round.
    """
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    units = values.copy()
    exponents = np.zeros(units.shape, dtype=np.int64)
    live = np.flatnonzero(units % base == 0)
    while live.size:
        units[live] //= base
        exponents[live] += 1
        live = live[units[live] % base == 0]
    return units, exponents


def in_set_mask(values, spec: SetSpec) -> np.ndarray:
    """Boolean mask of membership in ``spec``, matching classify.is_in_set."""
    arr = checked_indices(values)
    if arr.size and spec.shift < 0 and int(arr.max()) - spec.shift > MAX_INDEX + 2:
        raise ValueError("shifted indices would overflow int64")
    shifted = arr - spec.shift
    ok = shifted > 0
    units, exponents = factor_out(np.where(ok, shifted, 1), spec.base)
    ok &= units % spec.base == spec.residue
    ok &= exponents >= spec.first_exponent
    ok &= (exponents - spec.exp_offset) % spec.exp_step == 0
    return ok


def t01_mask(values) -> np.ndarray:
    """True where every base-3 digit is 0 or 1."""
    rest = checked_indices(values).copy()
    ok = np.ones(rest.shape, dtype=bool)
    while rest.any():
        ok &= rest % 3 != 2
        rest //= 3
    return ok
