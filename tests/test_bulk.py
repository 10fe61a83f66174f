import numpy as np
import pytest

from motzkinlab import bulk
from motzkinlab.automaton import motzkin_mod_indices

# Every array sweep checks its indices through bulk.checked_indices; these
# cases run it directly and behind motzkin_mod_indices.
CHECKERS = (bulk.checked_indices, lambda values: motzkin_mod_indices(8, values))


class TestValidation:
    def test_negative_indices_rejected(self):
        for check in CHECKERS:
            with pytest.raises(ValueError):
                check(np.array([-1, 0, 1], dtype=np.int64))

    def test_huge_indices_rejected(self):
        for check in CHECKERS:
            with pytest.raises(ValueError):
                check(np.array([bulk.MAX_INDEX + 1], dtype=np.int64))

    def test_empty_input_ok(self):
        for check in CHECKERS:
            assert check(np.array([], dtype=np.int64)).size == 0
            assert check([]).size == 0
        assert bulk.checked_indices([]).dtype == np.int64

    @pytest.mark.parametrize("values", [
        [1.9], [2.7], np.array([2.0]), [True], np.array([1, 2], dtype=object),
    ])
    def test_non_integer_dtypes_rejected(self, values):
        # Truncating a float would classify [1.9] as index 1, a zero-one number.
        for check in CHECKERS:
            with pytest.raises(ValueError, match="integer dtype"):
                check(values)

    @pytest.mark.parametrize("values", [
        [2**63], np.array([2**64 - 1], dtype=np.uint64), [2**64], [-1, 2**63],
        np.array([bulk.MAX_INDEX + 1], dtype=np.uint64), np.array([-1], dtype=object),
        np.array([bulk.MAX_INDEX + 1], dtype=object),
    ])
    def test_out_of_range_values_rejected_whatever_the_dtype(self, values):
        for check in CHECKERS:
            with pytest.raises(ValueError):
                check(values)

    def test_other_integer_dtypes_accepted(self):
        for check in CHECKERS:
            expected = check(np.arange(64, dtype=np.int64))
            for dtype in (np.uint64, np.int32, np.uint8):
                assert np.array_equal(check(np.arange(64, dtype=dtype)), expected)
            assert np.array_equal(check(list(range(64))), expected)

    def test_int64_input_is_not_copied(self):
        arr = np.arange(10, dtype=np.int64)
        assert bulk.checked_indices(arr) is arr
