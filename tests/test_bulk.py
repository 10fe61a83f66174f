import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import bulk
from motzkinlab.automaton import motzkin_mod_indices
from motzkinlab.checks import SUPPORTED_MODULI, predicted_residue, prediction_matches
from motzkinlab.classify import (
    DIV5_FORM_SPECS,
    MOD8_CLASS_SPECS,
    classify_div5,
    factor_out_base,
    is_in_set,
    is_t01,
)

# The kernels the validation cases run, and the spec of the mask kernel.
SPEC = MOD8_CLASS_SPECS[(1, 2)]
KERNELS = (bulk.t01_mask, lambda values: bulk.in_set_mask(values, SPEC))


def window(start: int, length: int) -> np.ndarray:
    return np.arange(start, start + length, dtype=np.int64)


def assert_masks_name_div5_form(masks, offset: int, n: int) -> None:
    """The DIV5_FORM_SPECS masks at ``offset`` name classify_div5(n).form, or none."""
    named = [form for form, mask in enumerate(masks, start=1) if mask[offset]]
    form = classify_div5(n).form
    assert named == ([form] if form else [])


def assert_kernels_match_scalars(indices) -> None:
    """Every kernel against the scalar classifiers, and those against the automaton."""
    arr = np.array(indices, dtype=np.int64)
    residues = {m: motzkin_mod_indices(m, arr).tolist() for m in SUPPORTED_MODULI}
    t01 = bulk.t01_mask(arr)
    specs = list(MOD8_CLASS_SPECS.values()) + list(DIV5_FORM_SPECS)
    masks = [bulk.in_set_mask(arr, spec) for spec in specs]
    for offset, n in enumerate(indices):
        for m in SUPPORTED_MODULI:
            assert prediction_matches(m, predicted_residue(m, n), residues[m][offset]), (m, n)
        assert_masks_name_div5_form(masks[len(MOD8_CLASS_SPECS):], offset, n)
        assert t01[offset] == is_t01(n)
        for spec, mask in zip(specs, masks):
            assert mask[offset] == (is_in_set(n, spec) is not None)


class TestFactorOut:
    def test_matches_scalar(self):
        arr = window(1, 4000)
        for base in (2, 3, 4, 5):
            units, exponents = bulk.factor_out(arr.copy(), base)
            for offset, n in enumerate(range(1, 4001)):
                expected = factor_out_base(n, base)
                assert (units[offset], exponents[offset]) == expected

    def test_bad_base(self):
        with pytest.raises(ValueError):
            bulk.factor_out(window(1, 4), 1)


class TestKernelsMatchScalars:
    def test_div5_prefix(self):
        arr = window(0, 4000)
        masks = [bulk.in_set_mask(arr, spec) for spec in DIV5_FORM_SPECS]
        for n in range(4000):
            assert_masks_name_div5_form(masks, n, n)

    def test_t01_prefix(self):
        mask = bulk.t01_mask(window(0, 4000))
        for n in range(4000):
            assert mask[n] == is_t01(n)

    def test_in_set_prefix(self):
        arr = window(0, 4000)
        for spec in list(MOD8_CLASS_SPECS.values()) + list(DIV5_FORM_SPECS):
            mask = bulk.in_set_mask(arr, spec)
            for n in range(4000):
                assert mask[n] == (is_in_set(n, spec) is not None)

    @settings(deadline=None, max_examples=40)
    @given(
        start=st.integers(min_value=0, max_value=10**12),
        length=st.integers(min_value=1, max_value=200),
    )
    def test_random_windows(self, start, length):
        assert_kernels_match_scalars(list(range(start, start + length)))

    # Scattered indices: 0, small values, values near MAX_INDEX, and the
    # boundaries of witness families, so both classes appear at every scale
    # (2·3^k is the one base-3 digit 2, in the top place).
    _FAMILY_MEMBERS = sorted({v for k in range(40) for v in (
        4**k - 1, 4**k - 2, 2 * 5**k - 1, 3 * 5**k - 2, 3**k, (3**k - 1) // 2, 2 * 3**k)
        if 0 <= v <= bulk.MAX_INDEX})

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=bulk.MAX_INDEX - 10**6, max_value=bulk.MAX_INDEX),
        st.sampled_from(_FAMILY_MEMBERS),
    ), min_size=1, max_size=60))
    def test_scattered_indices(self, indices):
        assert_kernels_match_scalars(indices)


class TestValidation:
    def test_negative_indices_rejected(self):
        for kernel in KERNELS:
            with pytest.raises(ValueError):
                kernel(np.array([-1, 0, 1], dtype=np.int64))

    def test_huge_indices_rejected(self):
        for kernel in KERNELS:
            with pytest.raises(ValueError):
                kernel(np.array([bulk.MAX_INDEX + 1], dtype=np.int64))

    def test_empty_input_ok(self):
        for kernel in KERNELS:
            assert kernel(np.array([], dtype=np.int64)).size == 0
            assert kernel([]).size == 0
        assert bulk.checked_indices([]).dtype == np.int64

    @pytest.mark.parametrize("values", [
        [1.9], [2.7], np.array([2.0]), [True], np.array([1, 2], dtype=object),
    ])
    def test_non_integer_dtypes_rejected(self, values):
        # Truncating a float would classify [1.9] as index 1, a zero-one number.
        for kernel in KERNELS:
            with pytest.raises(ValueError, match="integer dtype"):
                kernel(values)

    @pytest.mark.parametrize("values", [
        [2**63], np.array([2**64 - 1], dtype=np.uint64), [2**64], [-1, 2**63],
        np.array([bulk.MAX_INDEX + 1], dtype=np.uint64), np.array([-1], dtype=object),
        np.array([bulk.MAX_INDEX + 1], dtype=object),
    ])
    def test_out_of_range_values_rejected_whatever_the_dtype(self, values):
        for kernel in KERNELS:
            with pytest.raises(ValueError):
                kernel(values)

    def test_other_integer_dtypes_accepted(self):
        for kernel in KERNELS:
            expected = kernel(np.arange(64, dtype=np.int64))
            for dtype in (np.uint64, np.int32, np.uint8):
                assert np.array_equal(kernel(np.arange(64, dtype=dtype)), expected)
            assert np.array_equal(kernel(list(range(64))), expected)

    def test_int64_input_is_not_copied(self):
        arr = np.arange(10, dtype=np.int64)
        assert bulk.checked_indices(arr) is arr
