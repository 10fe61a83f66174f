"""The three benchmark workloads and the checks on every job's output.

Each workload answers one of the package's three questions and loads a
different module:

* ``sweep``   -- what M(n) is: the engines (both convolution paths, the exact
  recurrence, the defining sum) and the ``compute`` command.
* ``verify``  -- which residue class M(n) falls in: ``checks`` and the scalar
  classifiers, on small contiguous n and on huge scattered n, and most of
  the CLI row output.
* ``density`` -- how dense each class is: the numpy digit kernels in ``bulk``
  and the sweeps and logarithmic exact counts in ``density``.

The seed picks indices and offsets only; every job has the same size under
every seed.  Checks run outside the timed region and use sources that do not
depend on the function being timed: a second engine, a ``math.comb`` oracle,
witness round trips, exact counts, or the benchmark's own digit predicates.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

STREAM_LENGTH = 30_000
LARGE_MODULUS = 10**9 + 7       # (m - 1)**2 * (N + 1) > 2**63: the bigint path
LARGE_MODULUS_LENGTH = 4_000
SMALL_MODULI = (2, 3, 5, 8, 1000)
EXACT_SUM_RANGE = (5_000, 12_000)
DIGIT_LIMIT_START = 9_029       # first n whose M(n) has more than 4300 digits
POINT_INDEX_LIMIT = 256         # sweep point queries: M(n) for n < 256
SWEEP_POINT_BLOCKS = 40
VERIFY_LENGTH = 30_000
VERIFY_MODULI = (2, 3, 4, 5, 8)
HUGE_INDEX_LIMIT = 10**30
BLOCK_QUERIES = 1_000
VERIFY_POINT_BLOCKS = 50
CLASSIFY_ROWS = 100_000
DENSITY_HORIZON = 1_000_000
RANGE_LENGTH = 2**18
DENSITY_POINT_BLOCKS = 20

FIRST_TERMS = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798)


class CheckFailed(Exception):
    """A job returned output that disagrees with an independent source."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One timed call.  ``run`` gets the API namespace; ``check`` its result."""

    name: str
    size: int
    kind: str                             # "lib", "point" or "cli"
    run: Callable[[Any], Any]
    check: Callable[[Any], None]
    queries: int = 0                      # point jobs: queries in the block
    keep: bool = False                    # later checks in the pass read it
    out_path: "Path | None" = None        # cli jobs: where --out writes
    header_lines: int = 0                 # cli jobs: 1 for csv, 0 for jsonl


def parse_int(text: str) -> int:
    """Exact int from decimal text of any length, in chunks below the
    interpreter's int/str conversion limit."""
    value = 0
    for start in range(0, len(text), 4000):
        chunk = text[start:start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def naive_motzkin(n: int) -> int:
    """M(n) from the defining sum with math.comb, the slow reference."""
    return sum(math.comb(n, 2 * k) * math.comb(2 * k, k) // (k + 1)
               for k in range(n // 2 + 1))


def own_mod8(n: int) -> tuple:
    """(class, eps, delta, i, j, y) for M(n) mod 8, by bit arithmetic.

    M(n) is even iff n + delta = (4i + eps) * 4**(j + 1) for delta in
    {1, 2}: the lowest set bit of n + delta sits at an even position >= 2.
    """
    for delta in (1, 2):
        x = n + delta
        low = (x & -x).bit_length() - 1
        if low >= 2 and low % 2 == 0:
            unit = x >> low
            eps = unit & 3
            j = low // 2 - 1
            if (eps, delta) in ((1, 1), (3, 2)):
                return "4", eps, delta, unit >> 2, j, None
            ones = (unit - 1).bit_count()
            return ("2" if ones % 2 == 0 else "6"), eps, delta, unit >> 2, j, ones
    return "odd", None, None, None, None, None


def _strip5(x: int) -> "tuple[int, int]":
    exponent = 0
    while x % 5 == 0:
        x //= 5
        exponent += 1
    return x, exponent


def own_div5_form(n: int) -> int:
    """0, or the form 1..4 of the index families with 5 | M(n)."""
    unit, exponent = _strip5(n + 2)
    if exponent >= 2 and exponent % 2 == 0 and unit % 5 == 1:
        return 1
    if exponent % 2 == 1 and unit % 5 == 3:
        return 3
    unit, exponent = _strip5(n + 1)
    if exponent % 2 == 1 and unit % 5 == 2:
        return 2
    if exponent >= 2 and exponent % 2 == 0 and unit % 5 == 4:
        return 4
    return 0


def _zero_one(x: int) -> bool:
    while x:
        x, digit = divmod(x, 3)
        if digit == 2:
            return False
    return True


def own_mod3(n: int) -> int:
    """M(n) mod 3 by the zero-one base-3 rule."""
    rem = n % 3
    if rem == 0:
        return 1 if _zero_one(n // 3) else 0
    if rem == 1:
        return 1 if _zero_one((n + 2) // 3) else 0
    return 2 if _zero_one((n + 1) // 3) else 0


def own_count(n_max: int, spec) -> int:
    """Members of ``spec`` in [0, n_max], counted per exponent layer as the
    units u = residue (mod base) with u * base**e in [-shift, n_max - shift]."""
    if n_max < 0:
        return 0
    low, high = max(-spec.shift, 1), n_max - spec.shift
    total = 0
    power = spec.base ** (spec.exp_step * spec.min_j + spec.exp_offset)
    while power <= high:
        first = -(-low // power)
        last = high // power
        total += max(0, (last - spec.residue) // spec.base
                     - (first - 1 - spec.residue) // spec.base)
        power *= spec.base ** spec.exp_step
    return total


def own_t01_count(n_max: int) -> int:
    """Zero-one base-3 numbers in [0, n_max]: the largest one, read in binary,
    plus one."""
    if n_max < 0:
        return 0
    digits = []
    while n_max:
        n_max, digit = divmod(n_max, 3)
        digits.append(digit)
    bits = 0
    for position, digit in enumerate(reversed(digits)):
        if digit == 2:
            return ((bits << (len(digits) - position)) | ((1 << (len(digits) - position)) - 1)) + 1
        bits = bits << 1 | digit
    return bits + 1


def read_csv(path: Path) -> "list[list[str]]":
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class Workload:
    """Jobs of one workload, built from a seed, with their reference data."""

    name = ""

    def __init__(self, seed: int, api, tmpdir: Path) -> None:
        self.seed = seed
        self.api = api          # the real modules, for reference data
        self.tmpdir = tmpdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pass_outputs: "dict[str, Any]" = {}

    def jobs(self) -> "list[Job]":
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute reference data once per run, before any pass."""

    def start_pass(self) -> None:
        """Forget the outputs and derived data of the previous pass."""
        self.pass_outputs.clear()

    def cli_job(self, name: str, argv: "list[str]", check, size: int) -> Job:
        path = self.tmpdir / f"{name}.out"
        csv_out = "jsonl" not in argv
        return Job(name=name, size=size, kind="cli",
                   run=lambda api: api.cli.main(argv + ["--out", str(path)]),
                   check=lambda code: self._check_cli(code, path, check),
                   out_path=path, header_lines=1 if csv_out else 0)

    @staticmethod
    def _check_cli(code, path: Path, check) -> None:
        expect(code == 0, f"exit code {code}")
        check(path)


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed, api, tmpdir) -> None:
        super().__init__(seed, api, tmpdir)
        lo, hi = EXACT_SUM_RANGE
        width = (hi - lo) // 3
        # One index per third of the range keeps the summed cost of the three
        # calls (quadratic in n) nearly the same under every seed.
        self.exact_indices = [self.rng.randrange(lo + k * width, lo + (k + 1) * width)
                              for k in range(3)]
        self.digit_limit_start = self.rng.randrange(DIGIT_LIMIT_START, hi)
        self.point_blocks = []
        for _ in range(SWEEP_POINT_BLOCKS):
            block = list(range(POINT_INDEX_LIMIT))
            self.rng.shuffle(block)
            self.point_blocks.append(block)
        self.oracle_indices = sorted(self.rng.sample(range(12, 1500), 4))
        self._residues: "dict[int, list[int]]" = {}

    def prepare(self) -> None:
        self.oracle = {n: naive_motzkin(n) for n in self.oracle_indices}

    def start_pass(self) -> None:
        super().start_pass()
        self._residues.clear()

    def exact(self) -> "list[int]":
        exact = self.pass_outputs.get("exact_stream")
        if exact is None:
            raise CheckFailed("no exact stream in this pass to compare with")
        return exact

    def exact_mod(self, modulus: int) -> "list[int]":
        # Every small modulus divides 3000, so one bigint reduction serves all.
        key = 3000 if 3000 % modulus == 0 else modulus
        if key not in self._residues:
            self._residues[key] = [value % key for value in self.exact()]
        return [value % modulus for value in self._residues[key]]

    def jobs(self) -> "list[Job]":
        jobs = [Job("exact_stream", STREAM_LENGTH, "lib",
                    lambda api: api.engines.motzkin_exact_stream(STREAM_LENGTH),
                    self.check_exact_stream, keep=True)]
        for m in SMALL_MODULI:
            jobs.append(Job(f"mod_stream[m={m}]", STREAM_LENGTH, "lib",
                            lambda api, m=m: api.engines.motzkin_mod_stream(m, STREAM_LENGTH),
                            lambda out, m=m: self.check_residues(out, m, STREAM_LENGTH)))
        jobs.append(Job(f"mod_stream[m={LARGE_MODULUS}]", LARGE_MODULUS_LENGTH, "lib",
                        lambda api: api.engines.motzkin_mod_stream(LARGE_MODULUS,
                                                                   LARGE_MODULUS_LENGTH),
                        lambda out: self.check_residues(out, LARGE_MODULUS,
                                                        LARGE_MODULUS_LENGTH)))
        for k, n in enumerate(self.exact_indices):
            jobs.append(Job(f"exact_sum[{k}]", 1, "lib",
                            lambda api, n=n: api.engines.motzkin_exact(n),
                            lambda out, n=n: expect(out == self.exact()[n],
                                                    f"M({n}) disagrees with the recurrence")))
        jobs.append(Job("cross_validate[m=8]", 10_000, "lib",
                        lambda api: api.engines.cross_validate_engines(8, 10_000),
                        self.check_cross_validation))
        for k, block in enumerate(self.point_blocks):
            jobs.append(Job(f"point[{k}]", len(block), "point",
                            lambda api, block=block: [api.engines.motzkin_exact(n) for n in block],
                            lambda out, block=block: self.check_points(out, block),
                            queries=len(block)))
        a = self.digit_limit_start
        jobs += [
            self.cli_job("compute_mod8", ["compute", "0..20000", "--mod", "8"],
                         lambda path: self.check_compute(path, 0, 20_000, 8), 20_000),
            self.cli_job("compute_exact", ["compute", "0..3000"],
                         lambda path: self.check_compute(path, 0, 3_000, None), 3_000),
            # Known defect: values past 4300 digits exceed the int->str limit.
            self.cli_job("compute_large", ["compute", f"{a}..{a + 3}"],
                         lambda path: self.check_compute(path, a, a + 3, None), 3),
        ]
        return jobs

    def check_exact_stream(self, out) -> None:
        expect(len(out) == STREAM_LENGTH, f"length {len(out)}")
        expect(tuple(out[:len(FIRST_TERMS)]) == FIRST_TERMS, "wrong leading terms")
        for n, value in self.oracle.items():
            expect(out[n] == value, f"M({n}) disagrees with the math.comb oracle")

    def check_residues(self, out, modulus: int, count: int) -> None:
        expect(out.modulus == modulus and len(out) == count,
               f"stream shape ({out.modulus}, {len(out)})")
        if modulus == LARGE_MODULUS:
            reference = [value % modulus for value in self.exact()[:count]]
        else:
            reference = self.exact_mod(modulus)
        expect(list(out.values) == reference[:count],
               f"residues mod {modulus} disagree with the exact recurrence")

    def check_cross_validation(self, out) -> None:
        expect((out.modulus, out.checked, out.first_mismatch) == (8, 10_000, None),
               f"cross-validation report {out}")

    def check_points(self, out, block) -> None:
        exact = self.exact()
        expect(out == [exact[n] for n in block], "point value disagrees with the recurrence")

    def check_compute(self, path: Path, lo: int, hi: int, modulus) -> None:
        rows = read_csv(path)
        expect(rows[0] == ["n", "value" if modulus is None else "residue"],
               f"header {rows[0]}")
        expect(len(rows) == hi - lo + 1, f"{len(rows) - 1} rows, expected {hi - lo}")
        reference = self.exact() if modulus is None else self.exact_mod(modulus)
        for n, (index, value) in zip(range(lo, hi), rows[1:]):
            expect(int(index) == n and parse_int(value) == reference[n],
                   f"compute row for n={n} disagrees with the library")


class Verify(Workload):
    name = "verify"

    def __init__(self, seed, api, tmpdir) -> None:
        super().__init__(seed, api, tmpdir)
        self.point_blocks = [[self.rng.randrange(HUGE_INDEX_LIMIT) for _ in range(BLOCK_QUERIES)]
                             for _ in range(VERIFY_POINT_BLOCKS)]
        self.classify_start = self.rng.randrange(10**12)

    def prepare(self) -> None:
        self.expected_points = [[(own_mod8(n)[0], own_div5_form(n), own_mod3(n)) for n in block]
                                for block in self.point_blocks]

    def jobs(self) -> "list[Job]":
        jobs = [Job(f"verify_classifiers[m={m}]", VERIFY_LENGTH, "lib",
                    lambda api, m=m: api.checks.verify_classifiers(m, VERIFY_LENGTH),
                    lambda out, m=m: expect(
                        (out.modulus, out.checked, out.mismatches, out.first_mismatch)
                        == (m, VERIFY_LENGTH, 0, None), f"verification report {out}"))
                for m in VERIFY_MODULI]
        for k, block in enumerate(self.point_blocks):
            jobs.append(Job(f"point[{k}]", len(block), "point",
                            lambda api, block=block: self.classify_block(api, block),
                            lambda out, k=k: self.check_points(out, k),
                            queries=len(block)))
        a = self.classify_start
        jobs += [
            self.cli_job("classify_mod8", ["classify", f"{a}..{a + CLASSIFY_ROWS}", "--mod", "8",
                                           "--format", "jsonl"],
                         lambda path: self.check_classify(path, a), CLASSIFY_ROWS),
            self.cli_job("verify_mod3", ["verify", "20000", "--mod", "3"],
                         self.check_verify_row, 20_000),
        ]
        return jobs

    @staticmethod
    def classify_block(api, block):
        classify = api.classify
        return [(classify.classify_mod8(n), classify.classify_div5(n), classify.classify_mod3(n))
                for n in block]

    def check_points(self, out, k: int) -> None:
        mod8_specs = self.api.classify.MOD8_CLASS_SPECS
        block = self.point_blocks[k]
        expect(len(out) == len(block), "missing point results")
        for n, (mod8, div5, mod3), (kind, form, residue) in zip(block, out, self.expected_points[k]):
            expect(mod8.kind.value == kind, f"classify_mod8({n}) kind {mod8.kind.value}")
            if mod8.witness is not None:
                w = mod8.witness
                expect(mod8_specs[(w.eps, w.delta)].member(w.i, w.j) == n,
                       f"classify_mod8({n}) witness does not reproduce n")
                if mod8.ones_count is not None:
                    expect(mod8.ones_count == (4 * w.i + w.eps - 1).bit_count(),
                           f"classify_mod8({n}) one-bit count")
            expect((div5.form or 0) == form, f"classify_div5({n}) form {div5.form}")
            if div5.divisible:
                expect(div5.member() == n, f"classify_div5({n}) witness does not reproduce n")
            expect(mod3 == residue, f"classify_mod3({n}) = {mod3}")

    def check_classify(self, path: Path, a: int) -> None:
        columns = ("class", "eps", "delta", "i", "j", "y")
        rows = 0
        with open(path, encoding="utf-8") as handle:
            for n, line in enumerate(handle, start=a):
                record = json.loads(line)
                expect(record["n"] == n, f"classify row {rows} has n={record['n']}")
                expect(tuple(record[c] for c in columns) == own_mod8(n),
                       f"classify row for n={n} disagrees with the digit rule")
                rows += 1
        expect(rows == CLASSIFY_ROWS, f"{rows} classify rows")

    @staticmethod
    def check_verify_row(path: Path) -> None:
        rows = read_csv(path)
        expect(rows == [["modulus", "checked", "mismatches", "first_mismatch"],
                        ["3", "20000", "0", ""]], f"verify output {rows}")


# Labels whose members are a union of classifier families: (module, indices).
_UNIONS = {
    "even": ("mod8", ((1, 1), (1, 2), (3, 1), (3, 2))),
    "eps1_delta1": ("mod8", ((1, 1),)),
    "eps1_delta2": ("mod8", ((1, 2),)),
    "eps3_delta1": ("mod8", ((3, 1),)),
    "eps3_delta2": ("mod8", ((3, 2),)),
    "mod8=4": ("mod8", ((1, 1), (3, 2))),
    "mod4=2": ("mod8", ((1, 2), (3, 1))),
    "div5": ("div5", (0, 1, 2, 3)),
    "div5_form1": ("div5", (0,)),
    "div5_form2": ("div5", (1,)),
    "div5_form3": ("div5", (2,)),
    "div5_form4": ("div5", (3,)),
}

RANGE_SELECTORS = ("even", "div5", "t01")


class Density(Workload):
    name = "density"

    def __init__(self, seed, api, tmpdir) -> None:
        super().__init__(seed, api, tmpdir)
        self.range_starts = {s: self.rng.randrange(2**61, 2**62) for s in RANGE_SELECTORS}
        self.point_blocks = [[self.rng.randrange(HUGE_INDEX_LIMIT) for _ in range(BLOCK_QUERIES)]
                             for _ in range(DENSITY_POINT_BLOCKS)]
        classify = api.classify
        self.specs = list(classify.MOD8_CLASS_SPECS.values()) + list(classify.DIV5_FORM_SPECS)

    def union_specs(self, label: str) -> list:
        family, keys = _UNIONS[label]
        classify = self.api.classify
        table = classify.MOD8_CLASS_SPECS if family == "mod8" else classify.DIV5_FORM_SPECS
        return [table[key] for key in keys]

    def exact_count(self, label: str, n_max: int) -> int:
        """Members of a class in [0, n_max] from the library's exact counters."""
        density = self.api.density
        if label in _UNIONS:
            return sum(density.count_set_exact(n_max, spec) for spec in self.union_specs(label))
        if label == "t01":
            return density.count_t01_upto(n_max)
        raise ValueError(label)

    def prepare(self) -> None:
        t01 = self.api.density.count_t01_upto
        n_max = DENSITY_HORIZON - 1
        counts = {label: self.exact_count(label, n_max) for label in (*_UNIONS, "t01")}
        # M(n) = 1 mod 3 for n = 3k with k zero-one, or n = 3k+1 with k+1
        # zero-one; M(n) = 2 mod 3 for n = 3k+2 with k+1 zero-one.
        counts["mod3=1"] = t01(n_max // 3) + t01((n_max - 1) // 3 + 1) - 1
        counts["mod3=2"] = t01((n_max - 2) // 3 + 1) - 1
        counts["mod3=0"] = DENSITY_HORIZON - counts["mod3=1"] - counts["mod3=2"]
        counts["mod8=2"], counts["mod8=6"] = self._two_six_counts(n_max)
        self.expected_counts = counts
        self.expected_blocks = [
            hash(tuple(self.own_counts(h) for h in block)) for block in self.point_blocks]

    def _two_six_counts(self, n_max: int) -> "tuple[int, int]":
        """Walk the witnesses (i, j) of the two families where M(n) = 2 or
        6 mod 8; the parity of the one bits of 4i + eps - 1 separates them."""
        even = odd = 0
        for spec in self.union_specs("mod4=2"):
            j = 0
            while spec.member(0, j) <= n_max:
                i = 0
                while spec.member(i, j) <= n_max:
                    if (4 * i + spec.residue - 1).bit_count() % 2 == 0:
                        even += 1
                    else:
                        odd += 1
                    i += 1
                j += 1
        return even, odd

    def own_counts(self, horizon: int) -> tuple:
        return tuple(own_count(horizon, spec) for spec in self.specs) + (own_t01_count(horizon),)

    def jobs(self) -> "list[Job]":
        labels = self.api.density.SELECTORS
        jobs = [Job(f"empirical_density[{label}]", DENSITY_HORIZON, "lib",
                    lambda api, label=label: api.density.empirical_density(label, DENSITY_HORIZON),
                    lambda out, label=label: self.check_report(out, label))
                for label in labels]
        for s, lo in self.range_starts.items():
            jobs.append(Job(f"count_class_in_range[{s}]", RANGE_LENGTH, "lib",
                            lambda api, s=s, lo=lo: api.density.count_class_in_range(
                                s, lo, lo + RANGE_LENGTH),
                            lambda out, s=s, lo=lo: expect(
                                out == self.exact_count(s, lo + RANGE_LENGTH - 1)
                                - self.exact_count(s, lo - 1),
                                f"range count for {s} disagrees with the exact count")))
        for k, block in enumerate(self.point_blocks):
            jobs.append(Job(f"point[{k}]", len(block), "point",
                            lambda api, block=block: self.count_block(api, block),
                            lambda out, k=k: expect(hash(tuple(out)) == self.expected_blocks[k],
                                                    "exact counts disagree with the layer sums"),
                            queries=len(block)))
        jobs += [
            self.cli_job("density_table", ["density", "table"], self.check_table,
                         len(labels)),
            self.cli_job("density_div5", ["density", "div5", "-N", str(DENSITY_HORIZON)],
                         self.check_div5_row, DENSITY_HORIZON),
        ]
        return jobs

    def count_block(self, api, block):
        count_set_exact = api.density.count_set_exact
        count_t01_upto = api.density.count_t01_upto
        specs = self.specs
        return [tuple(count_set_exact(h, spec) for spec in specs) + (count_t01_upto(h),)
                for h in block]

    def check_report(self, out, label: str) -> None:
        expected = self.expected_counts[label]
        expect((out.label, out.horizon) == (label, DENSITY_HORIZON),
               f"report for {out.label} at {out.horizon}")
        expect(out.observed_count == expected,
               f"{label}: swept count {out.observed_count}, exact count {expected}")
        if out.error_bound is not None:
            expect(out.abs_discrepancy <= out.error_bound,
                   f"{label}: discrepancy {out.abs_discrepancy} above bound {out.error_bound}")

    def check_table(self, path: Path) -> None:
        rows = read_csv(path)
        expect(rows[0] == ["label", "limit", "limit_decimal"], f"header {rows[0]}")
        table = self.api.density.density_table()
        expect(len(rows) == len(table) + 1, f"{len(rows) - 1} table rows")
        for (label, limit, decimal), (ref_label, ref_value) in zip(rows[1:], table):
            expect(label == ref_label and Fraction(limit) == ref_value
                   and math.isclose(float(decimal), ref_value, rel_tol=1e-11, abs_tol=1e-15),
                   f"table row {label} disagrees with the library")

    def check_div5_row(self, path: Path) -> None:
        rows = read_csv(path)
        expect(len(rows) == 2, f"{len(rows)} rows")
        record = dict(zip(rows[0], rows[1]))
        expected = self.expected_counts["div5"]
        expect(record["label"] == "div5" and Fraction(record["limit"]) == Fraction(1, 10)
               and int(record["N"]) == DENSITY_HORIZON and int(record["count"]) == expected,
               f"div5 row {record}, exact count {expected}")
        expect(float(record["abs_discrepancy"]) <= float(record["error_bound"]),
               "div5 discrepancy above its error bound")


WORKLOADS = {cls.name: cls for cls in (Sweep, Verify, Density)}
