import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import engines
from motzkinlab.automaton import motzkin_mod_array
from motzkinlab.engines import (
    CEILING_ENV_VAR,
    CrossValidationReport,
    ResidueStream,
    ResourceLimitError,
    cross_validate_engines,
    iter_motzkin_exact,
    motzkin_exact,
    motzkin_exact_stream,
    motzkin_mod_stream,
    resolve_ceiling,
)

from conftest import motzkin_convolution_oracle, motzkin_defining_sum, motzkin_path_count

FIRST_TEN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
ORACLE_COUNT = 600


def one_limb_bits(count: int) -> int:
    """Widest one-limb width the stream's stated bound admits at this length.

    count * 4**b * delta_n <= 1/8, delta_n being Percival's relative error
    bound for FFT products of length 2**n, n = bit length of 2 * count.
    """
    n = (2 * count).bit_length()
    delta = (6 * n + math.sqrt(5) * (3 * n + 1)) * 2.0**-53
    return max(b for b in range(1, 21) if count * 4**b * delta <= 1 / 8)


ORACLE_LIMB_BITS = one_limb_bits(ORACLE_COUNT)
# The largest modulus whose Horner reduction runs in int64 at ORACLE_COUNT:
# m * 2**bits + 2**52 < 2**63, with the 16-bit limbs of moduli near 2**47.
INT64_EDGE = (2**63 - 2**52 - 1) >> 16


class TestMotzkinExact:
    def test_known_values(self):
        assert motzkin_exact(0) == 1
        assert motzkin_exact(3) == 4
        assert motzkin_exact(9) == 835
        assert motzkin_exact(13) == 41835
        assert [motzkin_exact(n) for n in range(10)] == FIRST_TEN

    def test_matches_path_enumeration(self):
        for n in range(13):
            assert motzkin_exact(n) == motzkin_path_count(n)

    def test_matches_literal_sum(self, oracle_prefix):
        for n in range(300):
            assert motzkin_exact(n) == oracle_prefix[n]

    @given(st.integers(min_value=0, max_value=250))
    def test_matches_literal_sum_random(self, n):
        assert motzkin_exact(n) == motzkin_defining_sum(n)

    def test_matches_recurrence_at_large_indices(self):
        # The recurrence behind motzkin_exact_stream, walked without keeping
        # its 30000-value prefix.
        wanted = (9029, 12000, 30000)
        recurrence = itertools.islice(iter_motzkin_exact(), wanted[-1] + 1)
        by_recurrence = {n: value for n, value in enumerate(recurrence) if n in wanted}
        assert {n: motzkin_exact(n) for n in wanted} == by_recurrence

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            motzkin_exact(-1)

    def test_ceiling_enforced(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "10")
        with pytest.raises(ResourceLimitError):
            motzkin_exact(11)
        assert motzkin_exact(10) == 2188

    def test_env_ceiling(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV_VAR, "12")
        assert resolve_ceiling() == 12
        with pytest.raises(ResourceLimitError):
            motzkin_exact(13)
        monkeypatch.setenv(CEILING_ENV_VAR, "not-a-number")
        with pytest.raises(ValueError):
            resolve_ceiling()
        monkeypatch.setenv(CEILING_ENV_VAR, "-3")
        with pytest.raises(ValueError):
            resolve_ceiling()
        monkeypatch.delenv(CEILING_ENV_VAR)
        assert resolve_ceiling() == engines.DEFAULT_CEILING


class TestExactStream:
    def test_examples(self):
        assert motzkin_exact_stream(5) == [1, 1, 2, 4, 9]
        assert motzkin_exact_stream(2) == [1, 1]
        assert motzkin_exact_stream(14)[-1] == 41835

    def test_matches_single_point_engine(self):
        stream = motzkin_exact_stream(401)
        for n in range(401):
            assert stream[n] == motzkin_exact(n)

    def test_recurrence_divisions_are_exact(self):
        # the identity behind the stream, checked directly on its output
        stream = motzkin_exact_stream(300)
        for n in range(2, 300):
            assert (n + 2) * stream[n] == (2 * n + 1) * stream[n - 1] + 3 * (n - 1) * stream[n - 2]

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            motzkin_exact_stream(0)
        monkeypatch.setenv(CEILING_ENV_VAR, "1000")
        with pytest.raises(ResourceLimitError):
            motzkin_exact_stream(1001)


class TestModStream:
    def test_example_mod8(self):
        stream = motzkin_mod_stream(8, 12)
        assert list(stream.values) == [1, 1, 2, 4, 1, 5, 3, 7, 3, 3, 4, 6]

    def test_example_mod2(self):
        stream = motzkin_mod_stream(2, 12)
        assert list(stream.values) == [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0]

    @pytest.mark.parametrize("modulus", [2, 3, 7, 10**9 + 7])
    def test_single_value(self, modulus):
        stream = motzkin_mod_stream(modulus, 1)
        assert list(stream.values) == [1]

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 8])
    def test_matches_exact_reduced(self, modulus):
        stream = motzkin_mod_stream(modulus, 2000)
        gen = iter_motzkin_exact()
        for n in range(2000):
            assert stream[n] == next(gen) % modulus

    @pytest.mark.parametrize("modulus", [
        pytest.param((1 << ORACLE_LIMB_BITS) - 1, id="2^b-1"),  # one limb
        pytest.param(1 << ORACLE_LIMB_BITS, id="2^b"),  # one limb: residues < 2**b
        pytest.param((1 << ORACLE_LIMB_BITS) + 1, id="2^b+1"),  # two limbs
        pytest.param((1 << 40) + 7, id="2^40+7"),
        pytest.param(INT64_EDGE, id="int64-edge"),  # the reduction's two element types
        pytest.param(INT64_EDGE + 1, id="object-edge"),
        pytest.param((1 << 53) + 5, id="2^53+5"),
        pytest.param((1 << 200) + 1, id="2^200+1"),
    ])
    def test_matches_convolution_oracle(self, modulus):
        stream = motzkin_mod_stream(modulus, ORACLE_COUNT)
        assert list(stream.values) == motzkin_convolution_oracle(modulus, ORACLE_COUNT)
        assert all(type(v) is int for v in stream.values)

    def test_limb_boundary_moduli(self):
        # The oracle moduli straddle the one-limb boundary of the stated bound.
        assert engines._limb_bits(1 << ORACLE_LIMB_BITS, ORACLE_COUNT) == (ORACLE_LIMB_BITS, 1)
        assert engines._limb_bits((1 << ORACLE_LIMB_BITS) + 1, ORACLE_COUNT)[1] == 2

    def test_blocked_multi_limb_stream_matches_exact_reduced(self):
        # Lengths 2**k - 1, 2**k and 2**k + 1 change the doubling chain and
        # the transform lengths; the moduli take one limb, two limbs and, for
        # 2**40 + 7, three or four.
        gen = iter_motzkin_exact()
        exact = [next(gen) for _ in range(2**13 + 1)]
        for count in (2**12 - 1, 2**12, 2**12 + 1, 2**13 - 1, 2**13, 2**13 + 1):
            bits = one_limb_bits(count)
            one, two = (1 << bits) - 1, (1 << bits) + 1
            assert [engines._limb_bits(m, count)[1] for m in (one, two)] == [1, 2]
            for modulus in (one, two, (1 << 40) + 7):
                expected = [value % modulus for value in exact[:count]]
                assert list(motzkin_mod_stream(modulus, count).values) == expected

    @settings(deadline=None, max_examples=40)
    @given(st.one_of(st.integers(min_value=2, max_value=2**70), st.just(2**200 + 1)),
           st.integers(min_value=1, max_value=700))
    def test_matches_convolution_oracle_random(self, modulus, count):
        stream = motzkin_mod_stream(modulus, count)
        assert list(stream.values) == motzkin_convolution_oracle(modulus, count)

    # The automaton reads several digits per gather.  Below 10**5 the tables
    # mod 16 (base 2**6), 25 (5**3), 27 (3**4) and 61 (one digit, as 64
    # states times 61**2 is over the cap) take three steps; the rest take two.
    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 8, 9, 16, 25, 27, 61, 72])
    def test_at_the_default_ceiling(self, modulus):
        count = engines.DEFAULT_CEILING
        assert list(motzkin_mod_stream(modulus, count).values) == \
            motzkin_mod_array(modulus, count).tolist()

    def test_no_multiple_of_8_in_prefix(self):
        assert 0 not in motzkin_mod_stream(8, 2000).values

    def test_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            motzkin_mod_stream(1, 10)
        with pytest.raises(ValueError):
            motzkin_mod_stream(8, 0)
        monkeypatch.setenv(CEILING_ENV_VAR, "100")
        with pytest.raises(ResourceLimitError):
            motzkin_mod_stream(8, 101)


def limb_rows(ring, values, count):
    """``values`` as ``count`` rows of the ring's limbs, row j holding limb j."""
    return np.array([[(v >> (ring.bits * j)) & ring.mask for v in values]
                     for j in range(count)], dtype=np.int64)


class TestLimbReduction:
    @pytest.mark.parametrize("modulus", [2, 8, 10**9 + 7, 2**61 - 1, 2**200 + 1],
                             ids=["2", "8", "1e9+7", "2^61-1", "2^200+1"])
    def test_reduce_at_quotient_boundaries(self, modulus):
        # k*m - 1, k*m and k*m + 1 sit on both sides of a multiple of m; the
        # reduction must land each in [0, m), in int64 and in Python ints.
        ring = engines._LimbRing(modulus, ORACLE_COUNT)
        top = 1 << (ring.bits * (2 * ring.limbs - 1))
        values = [v for k in range(1, 9) for v in (k * modulus - 1, k * modulus, k * modulus + 1)]
        values += [top - 1, top // 3, 12345]
        values = [v for v in values if 0 <= v < top]
        raw = limb_rows(ring, values, 2 * ring.limbs - 1)
        assert ring.to_ints(ring.reduce(raw)) == [v % modulus for v in values]

    def test_element_type_boundary(self):
        rings = [engines._LimbRing(m, ORACLE_COUNT) for m in (INT64_EDGE, INT64_EDGE + 1)]
        assert [(ring.bits, ring.dtype) for ring in rings] == [(16, np.int64), (16, object)]

    @pytest.mark.parametrize("modulus", [8, INT64_EDGE, INT64_EDGE + 1, 2**200 + 1],
                             ids=["8", "int64-edge", "object-edge", "2^200+1"])
    def test_reduce_worst_case_rows(self, modulus):
        # Every row at the largest value a product can hand to reduce.
        ring = engines._LimbRing(modulus, ORACLE_COUNT)
        rows = 2 * ring.limbs - 1
        raw = np.full((rows, 3), 2**52 - 1, dtype=np.int64)
        expected = sum((2**52 - 1) << (ring.bits * s) for s in range(rows)) % modulus
        assert ring.to_ints(ring.reduce(raw)) == [expected] * 3


class TestRoundingGuardUnderOptimize:
    """The rounding guard must survive ``python -O``, which strips asserts."""

    def test_perturbed_product_raises(self):
        script = "\n".join([
            "import numpy as np",
            "from motzkinlab import engines",
            "irfft = np.fft.irfft",
            "def perturbed(*args, **kwargs):",
            "    out = irfft(*args, **kwargs)",
            "    out.flat[0] += 0.4",
            "    return out",
            "np.fft.irfft = perturbed",
            "residues = None",
            "try:",
            "    residues = engines.motzkin_mod_stream(8, 100)",
            "except engines.FFTRoundingError as exc:",
            "    print(type(exc).__name__)",
            "print(residues)",
        ])
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["FFTRoundingError", "None"]


class TestResidueStream:
    def test_limit_matches_length(self):
        stream = motzkin_mod_stream(5, 17)
        assert stream.limit == len(stream) == 17
        assert all(0 <= v < 5 for v in stream.values)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ResidueStream(modulus=1, values=(0,))
        with pytest.raises(ValueError):
            ResidueStream(modulus=3, values=(0, 3))


class TestCrossValidation:
    def test_examples_consistent(self):
        assert cross_validate_engines(8, 1000).consistent
        assert cross_validate_engines(3, 1).consistent
        assert cross_validate_engines(5, 2000).consistent
        assert cross_validate_engines(72, 2000).consistent

    def test_report_fields(self):
        report = cross_validate_engines(8, 50)
        assert report == CrossValidationReport(modulus=8, checked=50, first_mismatch=None)

    def test_mismatch_is_reported_not_raised(self, monkeypatch):
        def corrupted():
            for n, value in enumerate(iter_motzkin_exact()):
                yield value + 1 if n == 7 else value

        monkeypatch.setattr(engines, "iter_motzkin_exact", corrupted)
        report = engines.cross_validate_engines(1000, 20)
        assert not report.consistent
        assert report.first_mismatch == 7
        assert report.first_mismatches == ((7, 128, 127),)  # M(7) = 127, one engine

        # The automaton is compared too, wherever the modulus is within its cap.
        def corrupted_automaton(modulus, count):
            residues = motzkin_mod_array(modulus, count).copy()
            residues[4] = (residues[4] + 1) % modulus
            return residues

        monkeypatch.setattr(engines, "motzkin_mod_array", corrupted_automaton)
        report = engines.cross_validate_engines(72, 20)
        assert report.first_mismatch == 4
        # M(4) = 9 and M(7) = 127 = 55 mod 72: the automaton, then both engines.
        assert report.first_mismatches == ((4, 9, 10), (7, 56, 55), (7, 56, 55))
        assert engines.cross_validate_engines(1000, 20).first_mismatch == 7  # over the cap
        monkeypatch.setattr(engines, "iter_motzkin_exact", iter_motzkin_exact)
        report = engines.cross_validate_engines(8, 20)
        assert report.first_mismatch == 4
        assert report.first_mismatches == ((4, 1, 2),)
        assert engines.cross_validate_engines(97, 20).consistent  # over the cap

    def test_keeps_the_first_five(self, monkeypatch):
        def corrupted():
            for value in iter_motzkin_exact():
                yield value + 1

        monkeypatch.setattr(engines, "iter_motzkin_exact", corrupted)
        report = engines.cross_validate_engines(97, 50)  # the stream alone
        assert report.first_mismatch == 0
        assert [n for n, _, _ in report.first_mismatches] == [0, 1, 2, 3, 4]
