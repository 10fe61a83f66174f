"""Vectorized counterparts of the scalar set tests.

These kernels stream int64 index arrays so that density sweeps over tens of
millions of indices stay fast.  :func:`in_set_masks` mirrors
:func:`motzkinlab.classify.is_in_set`, so ``classify_div5``'s vector form is
its masks over ``DIV5_FORM_SPECS``, and :func:`t01_mask` mirrors
:func:`motzkinlab.classify.is_t01`.  The residues M(n) mod m of an index
array come from :func:`motzkinlab.automaton.motzkin_mod_indices`.  The test
suite holds the kernels to the scalar classifiers, and those to the residues.
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


def in_set_masks(values, specs) -> "list[np.ndarray]":
    """One boolean mask per spec, matching classify.is_in_set.

    Specs that share a (base, shift) pair share one :func:`factor_out` pass.
    """
    arr = checked_indices(values)
    top = int(arr.max()) if arr.size else 0
    factored = {}
    masks = []
    for spec in specs:
        key = spec.base, spec.shift
        if key not in factored:
            if arr.size and spec.shift < 0 and top - spec.shift > MAX_INDEX + 2:
                raise ValueError("shifted indices would overflow int64")
            shifted = arr - spec.shift
            positive = shifted > 0
            factored[key] = (positive, *factor_out(np.where(positive, shifted, 1), spec.base))
        positive, units, exponents = factored[key]
        ok = positive.copy()
        ok &= units % spec.base == spec.residue
        ok &= exponents >= spec.exp_step * spec.min_j + spec.exp_offset
        ok &= (exponents - spec.exp_offset) % spec.exp_step == 0
        masks.append(ok)
    return masks


def in_set_mask(values, spec: SetSpec) -> np.ndarray:
    """Boolean mask of membership in ``spec``, matching classify.is_in_set."""
    return in_set_masks(values, [spec])[0]


def t01_mask(values) -> np.ndarray:
    """True where every base-3 digit is 0 or 1."""
    rest = checked_indices(values).copy()
    ok = np.ones(rest.shape, dtype=bool)
    while rest.any():
        ok &= rest % 3 != 2
        rest //= 3
    return ok
