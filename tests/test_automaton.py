import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import automaton
from motzkinlab.automaton import (
    StateCapError,
    motzkin_mod_array,
    motzkin_mod_at,
    motzkin_mod_indices,
)
from motzkinlab.bulk import MAX_INDEX
from motzkinlab.checks import SUPPORTED_MODULI, predicted_residue, prediction_matches
from motzkinlab.classify import (
    DIV5_FORM_SPECS,
    MOD8_CLASS_SPECS,
    SetSpec,
    classify_div5,
    classify_mod3,
    classify_mod8,
    is_in_set,
    is_t01,
)
from motzkinlab.engines import iter_motzkin_exact

from conftest import family_boundaries, motzkin_convolution_oracle

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
SWEEP = 30_000
HUGE = 10**30
PRIMES_TO_125 = [p for p in range(2, 126) if all(p % d for d in range(2, p))]
# (q, p, a) for every prime power q = p**a up to 125.
PRIME_POWERS_TO_125 = [(p**a, p, a) for p in PRIMES_TO_125
                       for a in range(1, 8) if p**a <= 125]
# The 24 served prime powers and their states.
SERVED_STATES = {2: 5, 4: 26, 8: 128, 16: 801, 3: 6, 9: 47, 27: 481, 5: 10, 25: 415,
                 7: 10, 11: 16, 13: 16, 17: 22, 19: 22, 23: 28, 29: 34, 31: 34,
                 37: 40, 41: 46, 43: 46, 47: 52, 53: 58, 59: 64, 61: 64}
SERVED = [(q, p, a) for q, p, a in PRIME_POWERS_TO_125 if q in SERVED_STATES]
SPECS = list(MOD8_CLASS_SPECS.values()) + list(DIV5_FORM_SPECS)


@pytest.fixture(scope="module")
def exact_30k():
    gen = iter_motzkin_exact()
    return [next(gen) for _ in range(SWEEP)]


class TestStream:
    @pytest.mark.parametrize("modulus", PRIME_POWERS)
    def test_matches_exact_recurrence(self, exact_30k, modulus):
        residues = motzkin_mod_array(modulus, SWEEP)
        assert residues.dtype == np.int64
        assert residues.tolist() == [value % modulus for value in exact_30k]

    @pytest.mark.parametrize("modulus", [40, 72, 61 * 8 * 27])
    def test_composite_moduli_by_crt(self, exact_30k, modulus):
        count = 5_000
        expected = [value % modulus for value in exact_30k[:count]]
        assert motzkin_mod_array(modulus, count).tolist() == expected
        assert [motzkin_mod_at(n, modulus) for n in range(0, count, 7)] == expected[::7]

    def test_short_streams(self):
        assert motzkin_mod_array(8, 0).tolist() == []
        for empty in (np.array([], dtype=np.int64), []):
            residues = motzkin_mod_indices(8, empty)
            assert residues.dtype == np.int64 and residues.tolist() == []
        assert motzkin_mod_array(8, 1).tolist() == [1]
        assert motzkin_mod_array(9, 12).tolist() == [1, 1, 2, 4, 0, 3, 6, 1, 8, 7, 1, 2]


class TestPointQueries:
    @pytest.mark.parametrize("modulus", PRIME_POWERS)
    def test_matches_stream(self, modulus):
        residues = motzkin_mod_array(modulus, SWEEP).tolist()
        for n in list(range(0, SWEEP, 13)) + list(range(SWEEP - 40, SWEEP)):
            value = motzkin_mod_at(n, modulus)
            assert type(value) is int
            assert value == residues[n], n

    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=0, max_value=HUGE))
    def test_mod8_matches_classifier(self, n):
        residue = motzkin_mod_at(n, 8)
        predicted = classify_mod8(n).kind.residue_mod(8)
        if predicted is None:
            assert residue % 2 == 1
        else:
            assert residue == predicted

    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=0, max_value=HUGE))
    def test_mod3_matches_classifier(self, n):
        assert motzkin_mod_at(n, 3) == classify_mod3(n)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=0, max_value=HUGE))
    def test_mod5_divisibility_matches_classifier(self, n):
        assert (motzkin_mod_at(n, 5) == 0) == classify_div5(n).divisible

    def test_classifiers_at_family_boundaries(self):
        edges = family_boundaries()
        assert len(edges) > 500 and max(edges) > 10**30
        for n in edges:
            residue = motzkin_mod_at(n, 8)
            predicted = classify_mod8(n).kind.residue_mod(8)
            assert residue % 2 == 1 if predicted is None else residue == predicted, n
            assert (motzkin_mod_at(n, 5) == 0) == classify_div5(n).divisible, n
            assert motzkin_mod_at(n, 3) == classify_mod3(n), n

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=0, max_value=HUGE))
    def test_composite_is_the_crt_of_its_factors(self, n):
        assert motzkin_mod_at(n, 72) % 8 == motzkin_mod_at(n, 8)
        assert motzkin_mod_at(n, 72) % 9 == motzkin_mod_at(n, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            motzkin_mod_at(-1, 8)
        with pytest.raises(ValueError):
            motzkin_mod_at(5, 1)
        with pytest.raises(ValueError):
            motzkin_mod_array(8, -1)

    @pytest.mark.parametrize("call, name", [
        (lambda: motzkin_mod_at(10.0, 8), "index"),
        (lambda: motzkin_mod_at(10, 8.5), "modulus"),
        (lambda: motzkin_mod_array(8, 5.5), "count"),
    ], ids=["float index", "float modulus", "float count"])
    def test_non_integers_are_named(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_are_accepted(self):
        assert motzkin_mod_at(np.int64(10), np.int32(8)) == motzkin_mod_at(10, 8)
        assert motzkin_mod_array(np.uint8(9), np.int16(12)).tolist() == \
            motzkin_mod_array(9, 12).tolist()


COMPOSITES = (10, 12, 24, 40)


def window_walk(modulus: int, lo: int, hi: int) -> "list[int]":
    """M(n) mod ``modulus`` for lo <= n < hi, from each prime-power factor's window walk."""
    def walked(machine):
        return np.concatenate([np.empty(0, dtype=np.int64), *machine.window(lo, hi)])
    return np.asarray(automaton._by_crt(modulus, walked)).tolist()


def factor_bases(modulus: int) -> "set[int]":
    return {automaton._automaton(p, a).base for p, a in automaton._prime_powers(modulus)}


class TestWindow:
    """_Automaton.window folds each high part once; residues divides every index per digit."""

    @pytest.mark.parametrize("modulus", [q for q, _, _ in SERVED] + list(COMPOSITES))
    def test_matches_the_digit_walk(self, modulus):
        windows = [(0, 0), (5, 5), (0, 1), (7, 8), (0, 3000), (MAX_INDEX - 3000, MAX_INDEX + 1)]
        for base in factor_bases(modulus):
            square = base * base
            windows += [(base, base), (square + 3, square + 4), (base - 700, base + 900),
                        (square - 2 * base - 3, square + base + 5),
                        (2 * base * square - 2 * base - 3, 2 * base * square + base + 5)]
        for lo, hi in windows:
            lo = max(lo, 0)
            expected = motzkin_mod_indices(modulus, np.arange(lo, hi, dtype=np.int64)).tolist()
            assert window_walk(modulus, lo, hi) == expected, (lo, hi)
            if lo == 0:
                assert motzkin_mod_array(modulus, hi).tolist() == expected, hi
        assert motzkin_mod_array(modulus, 0).dtype == np.int64

    @pytest.mark.parametrize("modulus", [q for q, _, _ in SERVED] + list(COMPOSITES))
    def test_matches_point_queries_far_out(self, modulus):
        for lo, length in ((10**30, 400), (2**63 - 1500, 3000), (10**4000 + 7, 24)):
            assert window_walk(modulus, lo, lo + length) == \
                [motzkin_mod_at(n, modulus) for n in range(lo, lo + length)]

    @pytest.mark.parametrize("p, a", [(2, 1), (2, 3), (3, 2), (7, 1)])
    def test_blocks(self, p, a):
        """At most MAX_WINDOW_GATHER indices each, in index order, over several high parts."""
        machine = automaton._automaton(p, a)
        base = machine.base
        lo, hi = base * base - 3 * base - 1, base * base + 2 * automaton.MAX_WINDOW_GATHER + 5
        blocks = list(machine.window(lo, hi))
        assert len(blocks) >= 3
        assert all(0 < block.size <= automaton.MAX_WINDOW_GATHER for block in blocks)
        walked = np.concatenate(blocks)
        assert np.array_equal(walked, machine.residues(np.arange(lo, hi, dtype=np.int64)))
        # values is read per state: the state indices themselves name each n's state.
        states = np.concatenate(list(machine.window(lo, hi, np.arange(len(machine.output)))))
        assert np.array_equal(machine.output[states], walked)
        accepted = machine.output[states[len(states) // 2]]
        hits = machine.window(lo, hi, machine.output == accepted)
        assert np.array_equal(np.concatenate(list(hits)), walked == accepted)
        assert machine.count_window(lo, hi, accepted) == int(np.count_nonzero(walked == accepted))

    def test_array_across_blocks(self):
        count = 2 * automaton.MAX_WINDOW_GATHER + 12345
        assert np.array_equal(motzkin_mod_array(72, count),
                              motzkin_mod_indices(72, np.arange(count, dtype=np.int64)))

    def test_counts_past_memory_are_refused_before_the_walk(self):
        """Run with an address-space cap, so a walk that fills memory fails instead."""
        pytest.importorskip("resource")
        cap = 1 << 30
        code = ("import resource\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                "from motzkinlab.automaton import motzkin_mod_array\n"
                "for count in (2**62, 2**64):\n"
                "    try:\n"
                "        motzkin_mod_array(8, count)\n"
                "    except ValueError as exc:\n"
                "        print(type(exc).__name__)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "ValueError\nValueError\n"), done.stderr


class TestDigitMatrices:
    @pytest.mark.parametrize("modulus, p, a", PRIME_POWERS_TO_125,
                             ids=[f"q={q}" for q, _, _ in PRIME_POWERS_TO_125])
    def test_products_match_the_oracle(self, modulus, p, a):
        """e_s · A_(d_k) ⋯ A_(d_0) · v_r mod q is M(n), with no table: 32, 49, 64,
        81, 125 and the primes above 61 are all over the table cap."""
        count, shift = 600, p ** (a - 1)
        starts, matrices = automaton._digit_matrices(p, a)
        assert starts.shape == (shift, 2 * shift + 2)
        assert matrices.shape == (p, 2 * shift + 2, 2 * shift + 2)
        q, r = np.divmod(np.arange(count), shift)
        vectors = starts[r]
        while q.any():  # a zero digit keeps the constant term
            q, digits = np.divmod(q, p)
            vectors = np.einsum("nij,nj->ni", matrices[digits], vectors) % modulus
        assert vectors[:, shift].tolist() == motzkin_convolution_oracle(modulus, count)


class TestIndexArrays:
    @pytest.mark.parametrize("modulus", (2, 3, 4, 5, 8, 9, 25, 27, 72))
    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.one_of(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=MAX_INDEX),
        st.integers(min_value=MAX_INDEX - 10**6, max_value=MAX_INDEX),
    ), max_size=40))
    def test_matches_point_queries(self, modulus, indices):
        residues = motzkin_mod_indices(modulus, np.array(indices, dtype=np.int64))
        assert residues.dtype == np.int64
        assert residues.tolist() == [motzkin_mod_at(n, modulus) for n in indices]

    @pytest.mark.parametrize("indices", [
        [-1], np.array([5, -3], dtype=np.int64), [1.0], [True], np.array([2], dtype=object),
    ])
    def test_bad_indices_rejected(self, indices):
        with pytest.raises(ValueError):
            motzkin_mod_indices(8, indices)


class TestStateCap:
    @pytest.mark.parametrize("modulus", [
        pytest.param(10**9 + 7, id="1e9+7"),  # a prime: a table with p columns
        pytest.param(2**20, id="2^20"),       # 2^19 start states
        pytest.param(97, id="97"),            # refused during its build
        pytest.param(1000, id="1000"),        # the factor 125 is refused during its build
        pytest.param(2**11, id="2^11"),       # refused before their builds
        pytest.param(3**7, id="3^7"),
        pytest.param(5**5, id="5^5"),
        pytest.param(7**4, id="7^4"),
        pytest.param(2**6, id="2^6"),         # the slowest build that outgrows the cap
        pytest.param(2**200 + 1, id="2^200+1"),
    ])
    def test_over_the_cap_raises_at_once(self, modulus):
        started = time.perf_counter()
        with pytest.raises(StateCapError):
            motzkin_mod_at(HUGE, modulus)
        with pytest.raises(StateCapError):
            motzkin_mod_array(modulus, 10)
        with pytest.raises(StateCapError):
            motzkin_mod_indices(modulus, np.arange(10, dtype=np.int64))
        assert time.perf_counter() - started < 1.0
        assert issubclass(StateCapError, ValueError)

    @pytest.mark.parametrize("modulus", [64, 81, 97])
    def test_a_refused_build_is_not_repeated(self, monkeypatch, modulus):
        with pytest.raises(StateCapError) as first:
            motzkin_mod_at(HUGE, modulus)
        built = []
        real_matrices = automaton._digit_matrices
        monkeypatch.setattr(automaton, "_digit_matrices",
                            lambda *args: built.append(args) or real_matrices(*args))
        for again in (lambda: motzkin_mod_at(HUGE, modulus),
                      lambda: motzkin_mod_array(modulus, 10)):
            with pytest.raises(StateCapError) as second:
                again()
            assert str(second.value) == str(first.value)
        assert built == []

    def test_within_the_cap(self):
        assert automaton.MAX_TABLE_ENTRIES == 4096
        for modulus in (27, 61, 63):
            assert motzkin_mod_at(0, modulus) == 1
        assert len(SERVED) == len(SERVED_STATES) == 24
        entries = {q: len(automaton._automaton(p, a).output) * p for q, p, a in SERVED}
        assert entries == {q: SERVED_STATES[q] * p for q, p, a in SERVED}

    def test_primes_over_the_cap_build_no_matrix(self, monkeypatch):
        """From 83 up, the distinct M(d) mod p alone pass the cap: no matrix is built."""
        monkeypatch.setattr(automaton, "_REFUSED", {})
        built = []
        real_matrices = automaton._digit_matrices
        monkeypatch.setattr(automaton, "_digit_matrices",
                            lambda *args: built.append(args) or real_matrices(*args))
        for p in (67, 83, 97, 997, 4093):
            with pytest.raises(StateCapError, match=(
                    f"^the automaton mod {p}\\^1 has more than {4096 // p} states, "
                    "over the cap of 4096 table entries$")):
                motzkin_mod_at(0, p)
        assert built == [(67, 1)]

    def test_the_one_digit_bound_is_sound(self):
        for q, p, a in SERVED:
            if a == 1:
                assert automaton._one_digit_outputs(p) <= SERVED_STATES[p]

    def test_refused_below_64(self):
        refused = set()
        for q, p, a in PRIME_POWERS_TO_125:
            if q < 64:
                try:
                    automaton._automaton(p, a)
                except StateCapError:
                    refused.add(q)
        assert refused == {32, 49}

    def test_tables_are_read_only(self):
        table = automaton._automaton(2, 3).table
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_import_builds_nothing(self):
        code = ("import motzkinlab, motzkinlab.cli, motzkinlab.automaton as a; "
                "print([f.cache_info().currsize for f in "
                "(a._automaton, a._spec_machine, a._t01_machine)])")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[0, 0, 0]\n"


def test_zero_digits_keep_the_output():
    """residue and residues stop at the top digit: reading a zero must change no output."""
    machines = ([automaton._automaton(p, a) for _, p, a in SERVED]
                + [automaton._spec_machine(spec) for spec in SPECS]
                + [automaton._t01_machine()])
    for machine in machines:
        assert np.array_equal(machine.output[machine.table[:, 0]], machine.output)


def window(start: int, length: int) -> np.ndarray:
    return np.arange(start, start + length, dtype=np.int64)


def members(machine, arr: np.ndarray) -> "list[bool]":
    return (machine.residues(arr) == 1).tolist()


def assert_machines_match_scalars(indices) -> None:
    """Every family machine against the scalar classifiers, and those against M(n) mod m."""
    arr = np.array(indices, dtype=np.int64)
    residues = {m: motzkin_mod_indices(m, arr).tolist() for m in SUPPORTED_MODULI}
    t01 = members(automaton._t01_machine(), arr)
    masks = [members(automaton._spec_machine(spec), arr) for spec in SPECS]
    for offset, n in enumerate(indices):
        for m in SUPPORTED_MODULI:
            assert prediction_matches(m, predicted_residue(m, n), residues[m][offset]), (m, n)
        assert_masks_name_div5_form(masks[len(MOD8_CLASS_SPECS):], offset, n)
        assert t01[offset] == is_t01(n)
        for spec, mask in zip(SPECS, masks):
            assert mask[offset] == (is_in_set(n, spec) is not None)


def assert_masks_name_div5_form(masks, offset: int, n: int) -> None:
    """The DIV5_FORM_SPECS masks at ``offset`` name classify_div5(n).form, or none."""
    named = [form for form, mask in enumerate(masks, start=1) if mask[offset]]
    form = classify_div5(n).form
    assert named == ([form] if form else [])


class TestFamilyMachines:
    """The digit machines that sweep the index families and the zero-one numbers."""

    def test_div5_prefix(self):
        arr = window(0, 4000)
        masks = [members(automaton._spec_machine(spec), arr) for spec in DIV5_FORM_SPECS]
        for n in range(4000):
            assert_masks_name_div5_form(masks, n, n)

    def test_t01_prefix(self):
        assert members(automaton._t01_machine(), window(0, 4000)) == \
            [is_t01(n) for n in range(4000)]

    def test_in_set_prefix(self):
        for spec in SPECS:
            assert members(automaton._spec_machine(spec), window(0, 4000)) == \
                [is_in_set(n, spec) is not None for n in range(4000)], spec

    def test_states(self):
        """4 to 6 states each: the carry and the zero count until the first nonzero digit."""
        states = [len(automaton._spec_machine(spec).output) for spec in SPECS]
        assert states == [4, 4, 4, 4, 6, 5, 5, 6]
        t01 = automaton._t01_machine()
        assert (len(t01.output), t01.base) == (2, 3**9)

    def test_shift_zero_and_positive_shift(self):
        spec = SetSpec(base=3, residue=2, exp_step=2, exp_offset=1)
        assert members(automaton._spec_machine(spec), window(0, 2000)) == \
            [is_in_set(n, spec) is not None for n in range(2000)]
        with pytest.raises(ValueError, match="shifts in"):
            automaton._spec_machine(SetSpec(base=4, residue=1, exp_step=1, exp_offset=0, shift=1))

    @settings(deadline=None, max_examples=40)
    @given(
        start=st.integers(min_value=0, max_value=10**12),
        length=st.integers(min_value=1, max_value=200),
    )
    def test_random_windows(self, start, length):
        assert_machines_match_scalars(list(range(start, start + length)))

    # Scattered indices: 0, small values, values near MAX_INDEX, and the
    # boundaries of witness families, where n + delta gains a digit, so both
    # classes appear at every scale (2·3^k is the one base-3 digit 2, in the
    # top place).
    _FAMILY_MEMBERS = sorted({v for k in range(40) for v in (
        4**k - 1, 4**k - 2, 2 * 5**k - 1, 3 * 5**k - 2, 3**k, (3**k - 1) // 2, 2 * 3**k)
        if 0 <= v <= MAX_INDEX})

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=MAX_INDEX - 10**6, max_value=MAX_INDEX),
        st.sampled_from(_FAMILY_MEMBERS),
    ), min_size=1, max_size=60))
    def test_scattered_indices(self, indices):
        assert_machines_match_scalars(indices)
