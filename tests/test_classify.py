import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import classify
from motzkinlab.classify import (
    DIV5_FORM_SPECS,
    MOD8_CLASS_SPECS,
    Div5Classification,
    Div5Witness,
    Mod8Classification,
    Mod8Kind,
    Mod8Witness,
    SetSpec,
    classify_div5,
    classify_mod3,
    classify_mod8,
    factor_out_base,
    is_in_set,
    is_t01,
)


class TestFactorOutBase:
    def test_examples(self):
        assert factor_out_base(48, 4) == (3, 2)
        assert factor_out_base(7, 3) == (7, 0)
        assert factor_out_base(250, 5) == (2, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_out_base(0, 4)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            factor_out_base(10, 1)

    @given(st.integers(min_value=1, max_value=10**24), st.integers(min_value=2, max_value=16))
    def test_round_trip(self, n, base):
        unit, exponent = factor_out_base(n, base)
        assert unit % base != 0
        assert unit * base**exponent == n


class TestSetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SetSpec(base=1, residue=0, exp_step=1, exp_offset=0)
        with pytest.raises(ValueError):
            SetSpec(base=5, residue=0, exp_step=2, exp_offset=1)
        with pytest.raises(ValueError):
            SetSpec(base=5, residue=5, exp_step=2, exp_offset=1)
        with pytest.raises(ValueError):
            SetSpec(base=5, residue=2, exp_step=0, exp_offset=1)
        with pytest.raises(ValueError):
            SetSpec(base=5, residue=2, exp_step=2, exp_offset=-1)
        with pytest.raises(ValueError):
            SetSpec(base=5, residue=2, exp_step=2, exp_offset=1, min_j=2)

    def test_member_bounds(self):
        spec = SetSpec(base=5, residue=1, exp_step=2, exp_offset=0, shift=-2, min_j=1)
        assert spec.member(0, 1) == 23
        with pytest.raises(ValueError):
            spec.member(-1, 1)
        with pytest.raises(ValueError):
            spec.member(0, 0)


class TestIsInSet:
    FORM2 = SetSpec(base=5, residue=2, exp_step=2, exp_offset=1, shift=-1, min_j=0)
    FORM1 = SetSpec(base=5, residue=1, exp_step=2, exp_offset=0, shift=-2, min_j=1)

    def test_examples(self):
        assert is_in_set(9, self.FORM2) == (0, 0)   # 9 = 2 * 5 - 1
        assert is_in_set(23, self.FORM1) == (0, 1)  # 23 = 1 * 25 - 2
        assert is_in_set(7, self.FORM2) is None

    def test_matches_enumeration(self, classifier_specs):
        limit = 4000
        for spec in classifier_specs:
            members = {}
            i = 0
            while spec.member(i, spec.min_j) <= limit:
                j = spec.min_j
                while spec.member(i, j) <= limit:
                    members[spec.member(i, j)] = (i, j)
                    j += 1
                i += 1
            for n in range(limit + 1):
                assert is_in_set(n, spec) == members.get(n)

    @given(
        base=st.integers(min_value=2, max_value=7),
        residue_offset=st.integers(min_value=0, max_value=5),
        exp_step=st.integers(min_value=1, max_value=3),
        exp_offset=st.integers(min_value=0, max_value=3),
        shift=st.integers(min_value=-3, max_value=3),
        min_j=st.integers(min_value=0, max_value=1),
        i=st.integers(min_value=0, max_value=10**9),
        j_extra=st.integers(min_value=0, max_value=12),
    )
    def test_witness_round_trip(self, base, residue_offset, exp_step, exp_offset,
                                shift, min_j, i, j_extra):
        residue = 1 + residue_offset % (base - 1)
        spec = SetSpec(base=base, residue=residue, exp_step=exp_step,
                       exp_offset=exp_offset, shift=shift, min_j=min_j)
        j = min_j + j_extra
        n = spec.member(i, j)
        assert is_in_set(n, spec) == (i, j)

    def test_huge_member_round_trip(self):
        spec = self.FORM2
        n = spec.member(7, 21)  # about 4e31
        assert n > 10**30
        assert is_in_set(n, spec) == (7, 21)


class TestClassifyMod8:
    def test_example_residue4(self):
        outcome = classify_mod8(3)
        assert outcome.kind is Mod8Kind.RESIDUE_4
        assert outcome.witness == Mod8Witness(eps=1, delta=1, i=0, j=0)
        assert outcome.ones_count is None

    def test_example_residue2(self):
        outcome = classify_mod8(2)
        assert outcome.kind is Mod8Kind.RESIDUE_2
        assert (outcome.witness.eps, outcome.witness.delta) == (1, 2)
        assert outcome.ones_count == 0

    def test_example_residue6(self):
        outcome = classify_mod8(11)
        assert outcome.kind is Mod8Kind.RESIDUE_6
        assert (outcome.witness.eps, outcome.witness.delta) == (3, 1)
        assert outcome.ones_count == 1

    def test_example_odd(self):
        outcome = classify_mod8(4)
        assert outcome.kind is Mod8Kind.ODD
        assert outcome.witness is None
        assert not outcome.is_even

    def test_against_oracle(self, oracle_prefix):
        for n, value in enumerate(oracle_prefix):
            outcome = classify_mod8(n)
            if outcome.kind is Mod8Kind.ODD:
                assert value % 2 == 1, n
            else:
                assert value % 8 == outcome.kind.even_residue, n
            assert outcome.kind.residue_mod(2) == value % 2, n
            for modulus in (4, 8):
                expected = None if value % 2 else value % modulus
                assert outcome.kind.residue_mod(modulus) == expected, n

    @pytest.mark.parametrize("modulus", [0, 3, 16])
    def test_residue_mod_rejects_other_moduli(self, modulus):
        with pytest.raises(ValueError):
            Mod8Kind.RESIDUE_4.residue_mod(modulus)

    def test_witness_reconstructs_index(self):
        for n in range(3000):
            outcome = classify_mod8(n)
            if outcome.witness is not None:
                eps, delta, i, j = outcome.witness
                assert (4 * i + eps) * 4 ** (j + 1) - delta == n

    def test_matches_class_spec_membership(self):
        for n in range(3000):
            hits = {
                key: witness
                for key, spec in MOD8_CLASS_SPECS.items()
                if (witness := is_in_set(n, spec)) is not None
            }
            outcome = classify_mod8(n)
            assert len(hits) <= 1
            if outcome.kind is Mod8Kind.ODD:
                assert not hits
            else:
                eps, delta, i, j = outcome.witness
                assert hits == {(eps, delta): (i, j)}

    def test_arbitrary_precision_index(self):
        i = 10**28
        n = (4 * i + 1) * 4**5 - 1
        outcome = classify_mod8(n)
        assert outcome.kind is Mod8Kind.RESIDUE_4
        assert outcome.witness == Mod8Witness(eps=1, delta=1, i=i, j=4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_mod8(-1)

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(ValueError):
            Mod8Classification(Mod8Kind.ODD, Mod8Witness(1, 1, 0, 0))
        with pytest.raises(ValueError):
            Mod8Classification(Mod8Kind.RESIDUE_4, Mod8Witness(1, 1, 0, 0), ones_count=2)
        with pytest.raises(ValueError):
            Mod8Classification(Mod8Kind.RESIDUE_2, Mod8Witness(1, 2, 0, 0), ones_count=1)


class TestT01:
    def test_examples(self):
        assert is_t01(0)
        assert is_t01(4)  # 11 base 3
        assert not is_t01(5)  # 12 base 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_t01(-1)

    @given(st.sets(st.integers(min_value=0, max_value=40)))
    def test_sums_of_distinct_powers_of_3_qualify(self, exponents):
        assert is_t01(sum(3**e for e in exponents))

    @given(
        st.sets(st.integers(min_value=0, max_value=20)),
        st.integers(min_value=0, max_value=20),
    )
    def test_any_digit_two_disqualifies(self, exponents, two_position):
        n = sum(3**e for e in exponents if e != two_position) + 2 * 3**two_position
        assert not is_t01(n)


class TestClassifyMod3:
    def test_examples(self):
        assert classify_mod3(2) == 2
        assert classify_mod3(4) == 0
        assert classify_mod3(7) == 1

    def test_against_oracle(self, oracle_prefix):
        for n, value in enumerate(oracle_prefix):
            assert classify_mod3(n) == value % 3, n

    def test_membership_cases_pin_the_residue_of_n(self):
        # each nonzero outcome comes from a shifted zero-one set that forces
        # a distinct n mod 3, so at most one case can ever fire
        for n in range(2000):
            cases = []
            if n % 3 == 0 and is_t01(n // 3):
                cases.append(1)
            if n % 3 == 2 and is_t01((n + 1) // 3):
                cases.append(2)
            if n % 3 == 1 and is_t01((n + 2) // 3):
                cases.append(1)
            assert len(cases) <= 1
            assert classify_mod3(n) == (cases[0] if cases else 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_mod3(-3)


class TestClassifyDiv5:
    def test_examples(self):
        assert classify_div5(9) == Div5Classification(2, Div5Witness(i=0, j=1))
        assert classify_div5(13) == Div5Classification(3, Div5Witness(i=0, j=1))
        assert classify_div5(99) == Div5Classification(4, Div5Witness(i=0, j=1))
        assert classify_div5(0) == Div5Classification()
        assert not classify_div5(0).divisible

    def test_against_oracle(self, oracle_prefix):
        for n, value in enumerate(oracle_prefix):
            assert classify_div5(n).divisible == (value % 5 == 0), n

    def test_witness_reconstructs_index(self):
        seen_forms = set()
        for n in range(5000):
            outcome = classify_div5(n)
            if outcome.divisible:
                assert outcome.member() == n
                assert outcome.witness.j >= 1
                seen_forms.add(outcome.form)
        assert seen_forms == {1, 2, 3, 4}

    def test_forms_disjoint(self):
        for n in range(5000):
            hits = [spec for spec in DIV5_FORM_SPECS if is_in_set(n, spec) is not None]
            assert len(hits) <= 1

    def test_arbitrary_precision_index(self):
        n = (5 * 3 + 2) * 5**43 - 1  # form 2 with i=3, j=22; about 2e31
        assert n > 10**30
        outcome = classify_div5(n)
        assert outcome.form == 2
        assert outcome.witness == Div5Witness(i=3, j=22)
        assert outcome.member() == n

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(ValueError):
            Div5Classification(form=2)
        with pytest.raises(ValueError):
            Div5Classification(form=5, witness=Div5Witness(0, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_div5(-1)


class TestInvariantsUnderOptimize:
    """The disjointness checks must survive ``python -O``, which strips asserts."""

    @pytest.mark.parametrize("patch, call, message", [
        ("classify._split = lambda x, base: (1, 1)",
         "classify.classify_mod8(5)", "two (eps, delta) witnesses for n=5"),
        ("classify._witness = lambda spec, unit, exponent: (0, 1)",
         "classify.classify_div5(5)", "two divisibility forms for n=5"),
    ], ids=["classify_mod8", "classify_div5"])
    def test_two_witnesses_raise(self, patch, call, message):
        script = "\n".join([
            "from motzkinlab import classify",
            patch,
            "try:",
            f"    {call}",
            "except AssertionError as exc:",
            "    print(exc)",
        ])
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == message


def mod8_reference(n):
    """classify_mod8 rebuilt from MOD8_CLASS_SPECS membership and the one-bit rule."""
    hits = [(key, witness) for key, spec in MOD8_CLASS_SPECS.items()
            if (witness := is_in_set(n, spec)) is not None]
    if not hits:
        return Mod8Classification(Mod8Kind.ODD)
    [((eps, delta), (i, j))] = hits
    witness = Mod8Witness(eps, delta, i, j)
    if (eps, delta) in ((1, 1), (3, 2)):
        return Mod8Classification(Mod8Kind.RESIDUE_4, witness)
    ones = (4 * i + eps - 1).bit_count()
    return Mod8Classification(Mod8Kind.RESIDUE_6 if ones % 2 else Mod8Kind.RESIDUE_2,
                              witness, ones)


def div5_reference(n):
    """classify_div5 rebuilt from DIV5_FORM_SPECS membership."""
    hits = [(form, spec, witness) for form, spec in enumerate(DIV5_FORM_SPECS, start=1)
            if (witness := is_in_set(n, spec)) is not None]
    if not hits:
        return Div5Classification()
    [(form, spec, (i, j))] = hits
    return Div5Classification(form, Div5Witness(i, j + spec.exp_offset))


def family_boundaries(limit=10**31):
    """Indices at and around the edges of every witness family, below ``limit``."""
    edges = set()
    for base, scale, shifts in ((4, 1, (1, 2, 3)), (5, 2, (1,)), (5, 3, (2,)),
                                (25, 1, (2,)), (25, 4, (1,)), (3, 1, (-2, -1, 1, 2))):
        power = 1
        while scale * power < limit:
            for shift in shifts:
                edges.update(scale * power - shift + d for d in (-1, 0, 1))
            power *= base
    return sorted(n for n in edges if n >= 0)


class TestAgainstSpecReference:
    """The fast classifiers equal their definitions over the spec tables."""

    def test_contiguous(self):
        for n in range(20000):
            assert classify_mod8(n) == mod8_reference(n), n
            assert classify_div5(n) == div5_reference(n), n

    def test_family_boundaries(self):
        edges = family_boundaries()
        assert len(edges) > 500
        for n in edges:
            assert classify_mod8(n) == mod8_reference(n), n
            assert classify_div5(n) == div5_reference(n), n

    @given(st.integers(min_value=0, max_value=10**30))
    @settings(max_examples=500)
    def test_random(self, n):
        assert classify_mod8(n) == mod8_reference(n)
        assert classify_div5(n) == div5_reference(n)


class TestSharedNegativeResults:
    """Odd and not-divisible outcomes are shared frozen instances."""

    def test_equal_fresh_instances(self):
        for n in (0, 1, 4, 5, 10**30):
            assert classify_mod8(n) == Mod8Classification(Mod8Kind.ODD), n
        for n in (0, 1, 2, 3, 10**30):
            assert classify_div5(n) == Div5Classification(), n

    @pytest.mark.parametrize("outcome, field, value", [
        (classify_mod8(4), "kind", Mod8Kind.RESIDUE_4),
        (classify_mod8(4), "witness", Mod8Witness(1, 1, 0, 0)),
        (classify_div5(0), "form", 2),
        (classify_div5(0), "witness", Div5Witness(0, 1)),
    ], ids=["mod8_kind", "mod8_witness", "div5_form", "div5_witness"])
    def test_assignment_rejected(self, outcome, field, value):
        with pytest.raises(FrozenInstanceError):
            setattr(outcome, field, value)
        assert classify_mod8(4) == Mod8Classification(Mod8Kind.ODD)
        assert classify_div5(0) == Div5Classification()


class TestIntegerArguments:
    """Every scalar entry point reads n as an integer: a float is refused, a numpy int is an int."""

    @pytest.mark.parametrize("call, name", [
        (lambda: classify_mod8(10.0), "index"),
        (lambda: classify_mod3(10.0), "index"),
        (lambda: classify_div5(9.0), "index"),
        (lambda: is_t01(10.0), "index"),
        (lambda: is_in_set(9.0, DIV5_FORM_SPECS[1]), "n"),
        (lambda: factor_out_base(12.0, 2), "n"),
    ], ids=["mod8", "mod3", "div5", "t01", "is_in_set", "factor_out_base"])
    def test_floats_are_refused(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

    @pytest.mark.parametrize("integer", [np.int64, np.uint32], ids=lambda t: t.__name__)
    def test_numpy_integers_give_python_ints(self, integer):
        mod8 = classify_mod8(integer(10))
        assert mod8 == classify_mod8(10) == Mod8Classification(Mod8Kind.RESIDUE_4,
                                                                Mod8Witness(3, 2, 0, 0))
        assert all(type(value) is int for value in mod8.witness)
        div5 = classify_div5(integer(9))
        assert div5 == classify_div5(9) and all(type(value) is int for value in div5.witness)
        assert type(classify_mod3(integer(10))) is int and classify_mod3(integer(10)) == 1
        assert is_t01(integer(10)) is True
        assert is_in_set(integer(9), DIV5_FORM_SPECS[1]) == (0, 0)
        assert all(type(value) is int for value in is_in_set(integer(9), DIV5_FORM_SPECS[1]))
        assert all(type(value) is int for value in factor_out_base(integer(12), 2))
