import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkinlab import checks, density, engines
from motzkinlab.cli import _CLASSIFY_COLUMNS, _CLASSIFY_ROWS, _emit, _unlimited_int_digits, main
from motzkinlab.engines import CEILING_ENV_VAR, iter_motzkin_exact, motzkin_mod_stream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_decimal(text: str) -> int:
    """int() of decimal text of any length, in chunks below the int->str limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def csv_rows(out: str):
    lines = out.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# sha256 of `classify LO..LO+4000 --mod M --format F`, recorded before the
# classifiers' early rejects and the per-modulus row builders went in: the
# output bytes must not change with them.
CLASSIFY_DIGESTS = {
    (0, 2, "csv"): "6b63203fdfacfa534e2d99b1eee81d267583acb93bab3d6829594a77d94c12b0",
    (0, 2, "jsonl"): "3d7d0dd24bae064d81cdd46b69dc8efe44d82bfce3a8193464ea331686066612",
    (0, 3, "csv"): "62c5f1d8b6bb9b737470defbda4d99a70aa8b12feb33e8ea2fbd2f441dfbe3ca",
    (0, 3, "jsonl"): "c9922bfbe02ecc51b07995d3cd75d8b6558a3ebf3381c174f8597645f9d75139",
    (0, 4, "csv"): "9a6b87870d429a23513cc481ea090e46e8b731908a2046adef294549b4dae808",
    (0, 4, "jsonl"): "4b8f4530992fe3369fa4f3a88739107d770effb877fa3b6d3e65e115f08d4911",
    (0, 5, "csv"): "c191d7322a8aaa6d7c237a8ceaf7cdac8f5d1f3726bb8ce65b2c5fd482d66974",
    (0, 5, "jsonl"): "f413051902c1965fc8869197d2eb25c9fc46cc85120337f7d3fada02a30038fc",
    (0, 8, "csv"): "8766707cea9372c9b2b027fb94730360cf525c29676361a9c9505a469cb90718",
    (0, 8, "jsonl"): "08da2735273f90dc9f94e67d3cce988aeb0f94d9a880511fc4e576eb3c473c36",
    (10**12 - 2000, 2, "csv"): "449969a82b007759f441686c864e65a1e3b181e88d5214c21dffaf7b67df716e",
    (10**12 - 2000, 2, "jsonl"): "c209d04f476f9a0bb81123494957d62cb8d4ba33bae684a65c141aff761dc3f6",
    (10**12 - 2000, 3, "csv"): "391727f73ce66e0cfa464967321274ad66a9d155eac308f7295fd38cae4c7d65",
    (10**12 - 2000, 3, "jsonl"): "307bb9e40605b6c382564ab4b319cb777c5269ae121d0c5f6c2abd1506ada903",
    (10**12 - 2000, 4, "csv"): "7fcf5989b1c617d25b245ba52e26498790890ebd385de5a69038278abe203c2a",
    (10**12 - 2000, 4, "jsonl"): "ead8f55cacd8f36b58477436023b3afaf1c8bd433caac44bb353f6936ea50ccd",
    (10**12 - 2000, 5, "csv"): "520cbf25880201c837edf7c6ddaea4cac3d0cd32a4c5be9c6c6bfaf0853ce062",
    (10**12 - 2000, 5, "jsonl"): "df00344f4cbe031a4f800b0d95a0042095636280e7ed7a82f032df55c8ed4645",
    (10**12 - 2000, 8, "csv"): "d4277ab0c8f6d052640982710eaf7852e200ddf627332c99aa976e1764992caf",
    (10**12 - 2000, 8, "jsonl"): "997ff619677838780f2bbdc5f3d53416bab051a8d4fe0f6bb536f0e26238698b",
}

# sha256 of `classify 999999990000..1000000010000 --mod M --format F`, 20,000
# rows across 10**12, recorded before the result classes got hand-written
# constructors: the output bytes must not change with them.
WIDE_CLASSIFY_DIGESTS = {
    (2, "csv"): "81a99677961e2e4c80b303af426dc89e6ca4cbb65683e2e5f5c8c7a5ea4abf42",
    (2, "jsonl"): "3cd9f2844b3b2834789d44c399414e6450e13653248d9081a899f0262878943a",
    (3, "csv"): "b56a6f7bba6365567d571ec5edd6ff1c4b9433f8098691d9621f232edf3fabd2",
    (3, "jsonl"): "f637e5c6db71601a1c7eb171778ab3871f5f57ad8218aa2e18ef50587c5ecfdc",
    (4, "csv"): "c0a845b1888976ba2f13431a0a1f9d6c5573a0dd5ffd8ff0d0629b6412c13110",
    (4, "jsonl"): "a33f8685f997ef415ea6f80b4874077a9d7cd5f1d50a1d16999bdcbaa6758de5",
    (5, "csv"): "9c2f73b9ceb887e617874fb7e777c61a1349acb9a9a773b463b100a38a411572",
    (5, "jsonl"): "46a7f73dfad38a2d5d5f8ca171d3bf0057adc982bd365373a69683a4819654f7",
    (8, "csv"): "d1225d1541d761ac5d9fdedff81a88fee02754a8cbad2e19b03e0eaac66d8504",
    (8, "jsonl"): "08b0fc0587c252edde4e6dc234d27ea44ed2725b0e024c2536089a18f336e689",
}


class TestCompute:
    def test_first_ten_values(self, capsys):
        code, out, _ = run(capsys, "compute", "0..10")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["n", "value"]
        assert [r[1] for r in rows] == ["1", "1", "2", "4", "9", "21", "51", "127", "323", "835"]

    def test_residues_mod8(self, capsys):
        code, out, _ = run(capsys, "compute", "0..12", "--mod", "8")
        _, rows = csv_rows(out)
        assert code == 0
        assert [r[1] for r in rows] == ["1", "1", "2", "4", "1", "5", "3", "7", "3", "3", "4", "6"]

    def test_single_index_and_mod(self, capsys):
        code, out, _ = run(capsys, "compute", "0..1", "--mod", "7")
        _, rows = csv_rows(out)
        assert code == 0
        assert rows == [["0", "1"]]

    def test_engines_agree(self, capsys):
        outputs = set()
        for engine in ("sum", "holonomic", "convolution"):
            code, out, _ = run(capsys, "compute", "0..40", "--mod", "5",
                               "--engine", engine)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_sum_engine_exact(self, capsys):
        code, out, _ = run(capsys, "compute", "13", "--engine", "sum")
        _, rows = csv_rows(out)
        assert code == 0
        assert rows == [["13", "41835"]]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_sum_engine_matches_recurrence_at_30000(self, capsys, fmt):
        by_sum = run(capsys, "compute", "30000", "--engine", "sum", "--format", fmt)
        assert by_sum[0] == 0
        assert by_sum == run(capsys, "compute", "30000", "--format", fmt)

    def test_jsonl_format(self, capsys):
        code, out, _ = run(capsys, "compute", "0..3", "--format", "jsonl")
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert code == 0
        assert records == [{"n": 0, "value": 1}, {"n": 1, "value": 1}, {"n": 2, "value": 2}]

    def test_jsonl_rows_match_json_dumps(self):
        columns = ("n", "form", "value")
        rows = [(0, None, 1), (7, "4^i", -3), (2**64 + 1, "2*5^i - 1", 3**100)]
        handle = io.StringIO()
        _emit(handle, "jsonl", columns, rows)
        expected = "".join(json.dumps(dict(zip(columns, row)), separators=(",", ":")) + "\n"
                           for row in rows)
        assert handle.getvalue() == expected

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "values.csv"
        code, out, _ = run(capsys, "compute", "0..5", "--out", str(target))
        assert code == 0
        assert out == ""
        content = target.read_bytes()
        assert content == b"n,value\n0,1\n1,1\n2,2\n3,4\n4,9\n"

    def test_empty_range(self, capsys):
        code, out, _ = run(capsys, "compute", "5..5")
        assert code == 0
        assert out == "n,value\n"

    def test_convolution_needs_mod(self, capsys):
        code, out, err = run(capsys, "compute", "0..5", "--engine", "convolution")
        assert code == 2
        assert out == ""
        assert err == "error: engine 'convolution' requires --mod\n"

    def test_bad_range(self, capsys):
        assert run(capsys, "compute", "9..2")[0] == 2
        assert run(capsys, "compute", "-3")[0] == 2
        assert run(capsys, "compute", "x..y")[0] == 2

    def test_bad_modulus(self, capsys):
        code, out, err = run(capsys, "compute", "0..5", "--mod", "1")
        assert code == 2
        assert out == ""
        assert err == "error: --mod must be at least 2\n"

    def test_values_past_the_int_digit_limit(self, capsys):
        digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = digit_limit()
        code, out, _ = run(capsys, "compute", "9029..9031")
        assert code == 0
        assert digit_limit() == before
        _, rows = csv_rows(out)
        expected = itertools.islice(iter_motzkin_exact(), 9029, 9031)
        assert [int(r[0]) for r in rows] == [9029, 9030]
        assert [parse_decimal(r[1]) for r in rows] == list(expected)

    def test_ceiling_exit_code(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(CEILING_ENV_VAR, "10")
        # Every engine refuses the whole request before writing anything.
        for extra in (["--engine", "holonomic"], ["--engine", "convolution", "--mod", "8"],
                      ["--engine", "sum"]):
            code, out, err = run(capsys, "compute", "0..50", *extra)
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and "ceiling 10" in err
            target = tmp_path / "refused.csv"
            assert run(capsys, "compute", "0..50", *extra, "--out", str(target))[0] == 3
            assert not target.exists()
        # The sum engine checks its largest index, the streams their length.
        assert run(capsys, "compute", "5..11", "--engine", "sum")[0] == 0
        assert run(capsys, "compute", "5..11")[0] == 3
        assert run(capsys, "compute", "5..10", "--mod", "8")[0] == 0
        assert run(capsys, "compute", "50..50") == (0, "n,value\n", "")

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_malformed_ceiling_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv(CEILING_ENV_VAR, value)
        for argv in (["compute", "0..10"], ["compute", "0..10", "--mod", "8"],
                     ["verify", "10", "--mod", "8"]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and CEILING_ENV_VAR in err
        # Commands that never compute a Motzkin number do not read the variable.
        assert run(capsys, "classify", "0..3", "--mod", "8")[0] == 0
        assert run(capsys, "density", "even", "-N", "10")[0] == 0

    @pytest.mark.parametrize("argv", [["compute", "0..10"], ["compute", "0..10", "--mod", "8"],
                                      ["density", "table"], ["density", "even", "-N", "1000"],
                                      ["verify", "50000", "--mod", "8"]])
    def test_unopenable_out_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        def not_before_the_output_opens(*args):
            raise AssertionError("work done before --out was opened")

        monkeypatch.setattr(engines, "motzkin_mod_stream", not_before_the_output_opens)
        monkeypatch.setattr(density, "empirical_density", not_before_the_output_opens)
        monkeypatch.setattr(checks, "verify_classifiers", not_before_the_output_opens)
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--out" in err


# Characters that JSON escapes or a %-template could misread, drawn often.
_AWKWARD_TEXT = st.text(st.one_of(st.sampled_from('%"\\/\x00\x1f\x7f\n\u00e9\u2028\U0001f600'),
                                  st.characters()), max_size=12)
_ROW_VALUES = st.one_of(
    st.integers(),
    # Past the interpreter's 4300-digit int->str limit, which _emit runs without.
    st.builds(lambda digits, sign: sign * (10**digits - 7),
              st.integers(min_value=4301, max_value=4400), st.sampled_from([1, -1])),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    _AWKWARD_TEXT,
)


class TestJsonLines:
    @settings(deadline=None)
    @given(st.lists(_AWKWARD_TEXT, min_size=1, max_size=6, unique=True).flatmap(
        lambda columns: st.tuples(st.just(columns),
                                  st.lists(st.tuples(*[_ROW_VALUES] * len(columns)), max_size=4))))
    def test_each_line_is_json_dumps_of_its_row(self, table):
        columns, rows = table
        handle = io.StringIO()
        with _unlimited_int_digits():
            _emit(handle, "jsonl", columns, rows)
            expected = "".join(json.dumps(dict(zip(columns, row)), separators=(",", ":")) + "\n"
                               for row in rows)
        assert handle.getvalue() == expected


class TestClassify:
    def test_mod8_example(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "--mod", "8")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["n", "class", "eps", "delta", "i", "j", "y"]
        assert rows == [["3", "4", "1", "1", "0", "0", ""]]

    def test_mod8_odd_row(self, capsys):
        _, out, _ = run(capsys, "classify", "4", "--mod", "8")
        _, rows = csv_rows(out)
        assert rows == [["4", "odd", "", "", "", "", ""]]

    def test_mod5_example(self, capsys):
        code, out, _ = run(capsys, "classify", "9", "--mod", "5")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["n", "divisible", "form", "i", "j"]
        assert rows == [["9", "1", "2", "0", "1"]]

    def test_mod3_example(self, capsys):
        code, out, _ = run(capsys, "classify", "4", "--mod", "3")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["n", "residue"]
        assert rows == [["4", "0"]]

    def test_mod2_range(self, capsys):
        _, out, _ = run(capsys, "classify", "0..12", "--mod", "2")
        _, rows = csv_rows(out)
        assert [r[1] for r in rows] == ["1", "1", "0", "0", "1", "1", "1", "1", "1", "1", "0", "0"]

    def test_mod4_classes(self, capsys):
        _, out, _ = run(capsys, "classify", "0..4", "--mod", "4")
        _, rows = csv_rows(out)
        assert [r[1] for r in rows] == ["odd", "odd", "2", "0"]

    @pytest.mark.parametrize("modulus", [2, 4, 8])
    def test_jsonl_classes_match_residues(self, capsys, modulus):
        code, out, _ = run(capsys, "classify", "0..2000", "--mod", str(modulus),
                           "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        residues = motzkin_mod_stream(8, 2000).values
        assert [record["n"] for record in records] == list(range(2000))
        for record, residue in zip(records, residues):
            if modulus == 2:
                assert record["residue"] == residue % 2
                assert type(record["residue"]) is int
            elif residue % 2:
                assert record["class"] == "odd"
            else:
                assert record["class"] == str(residue % modulus)

    @pytest.mark.parametrize("modulus", checks.SUPPORTED_MODULI)
    def test_jsonl_rows_at_a_huge_index(self, capsys, modulus):
        lo, hi = 10**12 - 1000, 10**12 + 1000
        code, out, _ = run(capsys, "classify", f"{lo}..{hi}", "--mod", str(modulus),
                           "--format", "jsonl")
        columns = _CLASSIFY_COLUMNS[modulus]
        assert code == 0
        row = _CLASSIFY_ROWS[modulus]
        assert out == "".join(
            json.dumps(dict(zip(columns, row(n))), separators=(",", ":")) + "\n"
            for n in range(lo, hi))

    @pytest.mark.parametrize("lo, modulus, fmt", sorted(CLASSIFY_DIGESTS))
    def test_output_bytes_are_pinned(self, capsys, lo, modulus, fmt):
        code, out, _ = run(capsys, "classify", f"{lo}..{lo + 4000}", "--mod", str(modulus),
                           "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == CLASSIFY_DIGESTS[lo, modulus, fmt]

    @pytest.mark.parametrize("modulus, fmt", sorted(WIDE_CLASSIFY_DIGESTS))
    def test_wide_output_bytes_are_pinned(self, capsys, modulus, fmt):
        code, out, _ = run(capsys, "classify", "999999990000..1000000010000",
                           "--mod", str(modulus), "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode("ascii")).hexdigest()
        assert digest == WIDE_CLASSIFY_DIGESTS[modulus, fmt]

    def test_unsupported_modulus(self, capsys):
        code, _, err = run(capsys, "classify", "3", "--mod", "7")
        assert code == 2
        assert "invalid choice" in err


class TestVerify:
    @pytest.mark.parametrize("modulus", ["2", "3", "4", "5", "8"])
    def test_small_sweeps_pass(self, capsys, modulus):
        code, out, _ = run(capsys, "verify", "500", "--mod", modulus)
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["modulus", "checked", "mismatches", "first_mismatch"]
        assert rows == [[modulus, "500", "0", ""]]

    def test_trivial_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "1", "--mod", "5")
        _, rows = csv_rows(out)
        assert code == 0
        assert rows == [["5", "1", "0", ""]]

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "classify_mod3", lambda n: 1)
        code, out, _ = run(capsys, "verify", "100", "--mod", "3")
        _, rows = csv_rows(out)
        assert code == 1
        assert int(rows[0][2]) > 0
        assert rows[0][3] != ""
        # The report keeps the first mismatches as (n, predicted, actual).
        residues = [value % 3 for value in itertools.islice(iter_motzkin_exact(), 100)]
        wrong = [(n, 1, r) for n, r in enumerate(residues) if r != 1]
        report = checks.verify_classifiers(3, 100)
        assert report.first_mismatches == tuple(wrong[:checks.KEPT_MISMATCHES])
        assert report.mismatches == len(wrong) == int(rows[0][2])
        assert report.first_mismatch == wrong[0][0] == int(rows[0][3])

    def test_odd_and_nonzero_predictions_are_kept_as_none(self, monkeypatch):
        monkeypatch.setattr(checks, "iter_motzkin_mod", lambda modulus, count: [0] * count)
        report = checks.verify_classifiers(8, 6)  # M(0), M(1), M(4), M(5) are odd
        assert report.first_mismatches == ((0, None, 0), (1, None, 0), (2, 2, 0), (3, 4, 0),
                                           (4, None, 0), (5, None, 0))
        report = checks.verify_classifiers(5, 6)  # 5 divides none of M(0..5)
        assert report.first_mismatches == tuple((n, None, 0) for n in range(6))

    def test_ceiling_exit_code(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(CEILING_ENV_VAR, "10")
        assert run(capsys, "verify", "100", "--mod", "3")[0] == 3
        # An exit-3 run neither creates nor truncates --out.
        target, kept = tmp_path / "refused.csv", tmp_path / "kept.csv"
        kept.write_text("old\n")
        assert run(capsys, "verify", "100", "--mod", "3", "--out", str(target))[0] == 3
        assert run(capsys, "verify", "100", "--mod", "3", "--out", str(kept))[0] == 3
        assert not target.exists()
        assert kept.read_text() == "old\n"

    def test_directory_out_is_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(checks, "verify_classifiers",
                            lambda *args: pytest.fail("swept before --out was checked"))
        (tmp_path / "file").write_text("")
        for target, reason in ((tmp_path, "Is a directory"),
                               (tmp_path / "file" / "x.csv", "Not a directory")):
            code, out, err = run(capsys, "verify", "50000", "--mod", "8", "--out", str(target))
            assert code == 2
            assert out == ""
            assert err == f"error: cannot open --out {str(target)!r}: {reason}\n"

    @pytest.mark.parametrize("count", ["-5", "-1"])
    def test_negative_count_is_usage_error(self, capsys, count):
        code, out, err = run(capsys, "verify", count, "--mod", "8")
        assert code == 2
        assert out == ""
        assert err == "error: count must be non-negative\n"


class TestDensity:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "density", "div5", "--closed")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["label", "limit", "limit_decimal"]
        assert rows == [["div5", "1/10", "0.1"]]

    def test_t01_horizon_example(self, capsys):
        code, out, _ = run(capsys, "density", "t01", "-N", "531440")
        header, rows = csv_rows(out)
        assert code == 0
        row = dict(zip(header, rows[0]))
        assert row["count"] == "4096"
        assert row["limit"] == "0/1"
        assert float(row["ratio"]) == pytest.approx(4096 / 531440)

    def test_even_report(self, capsys):
        code, out, _ = run(capsys, "density", "even", "-N", "100000")
        header, rows = csv_rows(out)
        assert code == 0
        row = dict(zip(header, rows[0]))
        assert row["limit"] == "1/3"
        assert float(row["abs_discrepancy"]) <= 1e-4
        assert float(row["error_bound"]) >= float(row["abs_discrepancy"])

    def test_table(self, capsys):
        code, out, _ = run(capsys, "density", "table")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["label", "limit", "limit_decimal"]
        table = {row[0]: row[1] for row in rows}
        assert len(rows) == 18
        assert table["mod8=4"] == "1/6"
        assert table["div5_form1"] == "1/120"
        assert table["mod3=0"] == "1/1"

    def test_jsonl_report(self, capsys):
        code, out, _ = run(capsys, "density", "div5", "-N", "10000", "--format", "jsonl")
        record = json.loads(out)
        assert code == 0
        assert record["label"] == "div5"
        assert record["limit"] == "1/10"
        assert record["N"] == 10000
        assert isinstance(record["count"], int)

    def test_unknown_selector(self, capsys):
        code, out, err = run(capsys, "density", "mod7=1", "-N", "10")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: unknown class selector")

    def test_missing_horizon(self, capsys):
        code, out, err = run(capsys, "density", "even")
        assert code == 2
        assert out == ""
        assert err == "error: -N/--horizon is required unless --closed\n"

    @pytest.mark.parametrize("argv, context", [
        (("density", "table", "-N", "5"), "table"),
        (("density", "even", "--closed", "-N", "0"), "--closed"),
        (("density", "div5", "-N", "1000", "--closed"), "--closed"),
    ], ids=["table", "closed_invalid_horizon", "closed"])
    def test_horizon_refused_without_a_count(self, capsys, argv, context):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: -N/--horizon cannot be used with {context}\n"

    def test_bad_horizon_and_parts(self, capsys):
        code, out, err = run(capsys, "density", "even", "-N", "0")
        assert code == 2
        assert out == ""
        assert err == "error: -N/--horizon must be at least 1\n"
        for removed in (["--parts", "2"], ["--empirical"], ["--both"]):
            code, _, err = run(capsys, "density", "even", "-N", "10", *removed)
            assert code == 2
            assert "unrecognized arguments" in err

    @pytest.mark.parametrize("label", density.SELECTORS)
    def test_horizon_past_the_sweep_cap(self, capsys, label):
        horizon = 10**30
        start = time.perf_counter()
        code, out, err = run(capsys, "density", label, "-N", str(horizon))
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        assert int(row["N"]) == horizon
        assert int(row["count"]) == density.empirical_density(label, horizon).observed_count

    def test_horizon_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if not limit:
            pytest.skip("this interpreter parses ints of any length")
        horizon = "7" * limit
        code, out, err = run(capsys, "density", "even", "-N", horizon)
        assert (code, err) == (0, "")
        header, rows = csv_rows(out)
        row = dict(zip(header, rows[0]))
        count = density.empirical_density("even", parse_decimal(horizon)).observed_count
        assert parse_decimal(row["count"]) == count
        # One digit more: a short usage error, not an echo of every digit.
        code, out, err = run(capsys, "density", "even", "-N", horizon + "7")
        assert (code, out) == (2, "")
        assert len(err) < 300
        assert err.splitlines()[-1] == ("motzkinlab density: error: argument -N/--horizon: "
                                        f"must have at most {limit} digits, got {limit + 1}")
        code, out, err = run(capsys, "density", "even", "-N", "12x")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == ("motzkinlab density: error: argument -N/--horizon: "
                                        "invalid int value: '12x'")


class TestIntegerArguments:
    """Every integer argument parses the same way, whatever its command."""

    @pytest.mark.parametrize("argv, name", [
        (("classify", "{n}", "--mod", "8"), "range"),
        (("classify", "0..{n}", "--mod", "8"), "range"),
        (("compute", "0..10", "--mod", "{n}"), "--mod"),
        (("verify", "{n}", "--mod", "8"), "count"),
    ])
    def test_past_the_digit_limit(self, capsys, argv, name):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if not limit:
            pytest.skip("this interpreter parses ints of any length")
        digits = limit + 100
        code, out, err = run(capsys, *(arg.format(n="7" * digits) for arg in argv))
        assert (code, out) == (2, "")
        assert len(err) < 300
        assert err.splitlines()[-1] == (f"motzkinlab {argv[0]}: error: argument {name}: "
                                        f"must have at most {limit} digits, got {digits}")

    @pytest.mark.parametrize("argv, name", [
        (("density", "even", "-N", "{n}x"), "-N/--horizon"),
        (("classify", "1..{n}x", "--mod", "8"), "range"),
        (("verify", "x{n}", "--mod", "8"), "count"),
    ])
    def test_past_the_limit_with_a_stray_character(self, capsys, argv, name):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if not limit:
            pytest.skip("this interpreter parses ints of any length")
        code, out, err = run(capsys, *(arg.format(n="7" * (limit + 1)) for arg in argv))
        assert (code, out) == (2, "")
        assert len(err) < 300
        assert err.splitlines()[-1] == (f"motzkinlab {argv[0]}: error: argument {name}: "
                                        f"must have at most {limit} digits, got {limit + 2}")

    @pytest.mark.parametrize("argv, message", [
        (("classify", "x", "--mod", "8"), "argument range: invalid range value: 'x'"),
        (("classify", "1..x", "--mod", "8"), "argument range: invalid range value: '1..x'"),
        (("classify", "5..3", "--mod", "8"), "argument range: invalid range value: '5..3'"),
        (("compute", "0..10", "--mod", "x"), "argument --mod: invalid int value: 'x'"),
        (("verify", "1e3", "--mod", "8"), "argument count: invalid int value: '1e3'"),
        (("density", "even", "-N", "0x10"), "argument -N/--horizon: invalid int value: '0x10'"),
    ])
    def test_bad_values_within_the_limit(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"motzkinlab {argv[0]}: error: {message}"

    # Values that parse, at the default limit of 4300 digits, and that a later
    # check refuses: the message names how long they are instead of echoing them.
    @pytest.mark.parametrize("argv, code, message", [
        (("compute", "{n}"), 3, "stream length of {d} digits"),
        (("compute", "{n}", "--engine", "sum"), 3, "index of {d} digits"),
        (("compute", "0..{n}", "--mod", "8"), 3, "stream length of {d} digits"),
        (("verify", "{n}", "--mod", "8"), 3, "sweep length of {d} digits"),
        (("classify", "{n}..0", "--mod", "8"), 2, "range: invalid range value of {r} characters"),
        (("compute", "{n}..5"), 2, "range: invalid range value of {r} characters"),
        (("compute", "{t}"), 3, "stream length of {e} digits"),
        (("classify", "1..x{m}", "--mod", "8"), 2, "range: invalid range value of {r} characters"),
        (("verify", "x{m}", "--mod", "8"), 2, "count: invalid int value of {d} characters"),
    ], ids=["compute", "compute_sum", "compute_mod", "verify", "classify_reversed",
            "compute_reversed", "compute_10^d", "classify_non_integer", "verify_non_integer"])
    def test_long_refused_values_are_not_echoed(self, capsys, monkeypatch, argv, code, message):
        monkeypatch.delenv(CEILING_ENV_VAR, raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        digits = limit or 4300
        values = {"n": "7" * digits, "t": "9" * digits, "m": "7" * (digits - 1)}
        got, out, err = run(capsys, *(arg.format(**values) for arg in argv))
        assert (got, out) == (code, "")
        assert len(err) < 300
        message = message.format(d=digits, e=digits + 1, r=digits + 3)
        assert err.splitlines()[-1] == (
            f"error: {message} exceeds the ceiling {engines.DEFAULT_CEILING} "
            f"(raise it via {CEILING_ENV_VAR})" if code == 3
            else f"motzkinlab {argv[0]}: error: argument {message}")

    @pytest.mark.parametrize("text, echoed", [
        ("1234567890123456789..5", True), ("12345678901234567890..5", False),
    ])
    def test_short_values_are_echoed_within_300_bytes(self, capsys, monkeypatch, text, echoed):
        """compute has the longest usage text; the longest echoed range still fits."""
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, "compute", text)
        assert (code, out) == (2, "")
        assert len(err) < 300
        assert err.splitlines()[-1] == "motzkinlab compute: error: argument range: " + (
            f"invalid range value: {text!r}" if echoed
            else f"invalid range value of {len(text)} characters")


class TestInternalError:
    """An exception inside a command is one ``error:`` line, never exit 1."""

    @pytest.mark.parametrize("error, code, message", [
        (engines.FFTRoundingError("lay 0.3 from an integer"), 4,
         "error: internal error: FFTRoundingError: lay 0.3 from an integer"),
        (engines.ExactDivisionError("remainder 1 at index 7"), 4,
         "error: internal error: ExactDivisionError: remainder 1 at index 7"),
        (AssertionError("overlap"), 4, "error: internal error: AssertionError: overlap"),
        (MemoryError(), 3, "error: out of memory"),
    ], ids=["rounding", "division", "assertion", "memory"])
    def test_engine_failure(self, capsys, monkeypatch, tmp_path, error, code, message):
        def broken(modulus, count):
            raise error
        monkeypatch.setattr(engines, "motzkin_mod_stream", broken)
        got, out, err = run(capsys, "compute", "0..10", "--mod", "8")
        assert got == code
        assert err == message + "\n"
        assert out == ""  # no header-only table
        target = tmp_path / "failed.csv"
        assert run(capsys, "compute", "0..10", "--mod", "8", "--out", str(target)) \
            == (code, "", message + "\n")
        assert target.read_bytes() == b""


class TestHarness:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = run(capsys, "density", "even", "-N", "30000")
        second = run(capsys, "density", "even", "-N", "30000")
        assert first == second

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("unbuffered", [False, True])
class TestClosedPipe:
    """A reader that goes away early (``| head``) ends the output quietly."""

    @staticmethod
    def start(script, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:  # every write reaches the pipe, the header included
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def test_reader_closes_after_two_lines(self, unbuffered):
        proc = self.start("import sys; from motzkinlab.cli import main; "
                          "sys.exit(main(['classify', '0..200000', '--mod', '8']))",
                          unbuffered)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert lines == [b"n,class,eps,delta,i,j,y\n", b"0,odd,,,,,\n"]
        assert proc.returncode == 0
        assert err == b""

    def test_out_naming_the_closed_pipe_ends_quietly(self, unbuffered):
        proc = self.start("import sys; from motzkinlab.cli import main; "
                          "sys.exit(main(['classify', '0..200000', '--mod', '8', "
                          "'--out', '/dev/stdout']))",
                          unbuffered)
        line = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert line == b"n,class,eps,delta,i,j,y\n"
        assert proc.returncode == 0
        assert err == b""

    def test_verdict_survives_a_closed_reader(self, unbuffered):
        proc = self.start("import sys; from motzkinlab import checks; "
                          "from motzkinlab.cli import main; "
                          "checks.classify_mod3 = lambda n: 1; "
                          "sys.exit(main(['verify', '100', '--mod', '3']))",
                          unbuffered)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
class TestClosedStdout:
    """With stdout closed (``>&-``) a command fails before any work: exit 3."""

    @pytest.mark.parametrize("argv", [["compute", "0..10"],
                                      ["classify", "0..10", "--mod", "8"],
                                      ["verify", "100", "--mod", "8"],
                                      ["density", "even", "-N", "100"]],
                             ids=["compute", "classify", "verify", "density"])
    def test_closed_stdout(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        result = subprocess.run(["sh", "-c", 'exec "$0" -m motzkinlab.cli "$@" >&-',
                                 sys.executable, *argv],
                                env=env, stderr=subprocess.PIPE, timeout=60)
        assert result.returncode == 3
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write output: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    """A failed write other than a closed pipe is one ``error:`` line and exit 3."""

    @pytest.mark.parametrize("command", [["compute", "0..10", "--mod", "8"],
                                         ["verify", "100", "--mod", "8"]],
                             ids=["compute", "verify"])
    @pytest.mark.parametrize("via_out", [True, False], ids=["out", "stdout"])
    def test_full_device(self, command, via_out):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        argv = command + (["--out", "/dev/full"] if via_out else [])
        with open("/dev/full", "wb") as full:
            result = subprocess.run([sys.executable, "-m", "motzkinlab.cli", *argv], env=env,
                                    stdout=subprocess.PIPE if via_out else full,
                                    stderr=subprocess.PIPE, timeout=60)
        assert result.returncode == 3
        assert not result.stdout  # None where stdout is /dev/full itself
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write output: ")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_writes_keep_no_descriptor(self, capsys):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(20):
            assert main(["compute", "0..10", "--mod", "8", "--out", "/dev/full"]) == 3
        capsys.readouterr()
        assert len(os.listdir("/proc/self/fd")) == before


class TestStartsWithoutNumpy:
    """The digit classifiers and the exact counters need only integer arithmetic on n."""

    @staticmethod
    def run_script(script, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        return subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import(self):
        result = self.run_script("import sys, motzkinlab, motzkinlab.cli; "
                                 "print([name for name in sys.modules if name.startswith('numpy')])")
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    def test_commands(self):
        # Prints each command that exits nonzero or leaves numpy loaded.
        script = """
import contextlib, io, sys
from motzkinlab import cli, density
commands = [["classify", "0..100", "--mod", str(m)] for m in (2, 3, 4, 5, 8)]
commands += [["compute", "0..50"], ["density", "table"]]
commands += [["density", label, "-N", str(10**30)] for label in density.SELECTORS]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code or "numpy" in sys.modules:
        print(code, *argv)
        break
print(len(commands), "commands")
"""
        result = self.run_script(script)
        assert (result.returncode, result.stdout) == (0, "25 commands\n"), result.stderr

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "100", "--mod", "8"], "modulus,checked,mismatches,first_mismatch\n8,100,0,\n"),
        (["compute", "0..50", "--mod", "8"],
         "n,residue\n" + "".join(f"{n},{value}\n"
                                  for n, value in enumerate(motzkin_mod_stream(8, 50).values))),
    ], ids=["verify", "compute --mod"])
    def test_commands_that_load_numpy(self, argv, expected):
        result = self.run_script("import sys; from motzkinlab.cli import main; "
                                 "sys.exit(main(sys.argv[1:]))", *argv)
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")
