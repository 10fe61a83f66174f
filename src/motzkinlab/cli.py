"""Command-line front end: compute, classify, verify, density.

Every command follows one order: it checks its whole request and returns a
runner, :func:`main` opens stdout or ``--out``, then the runner computes,
writes its table and returns the exit code.  Exit codes: 0 success /
verified, 1 verification found mismatches, 2 usage error (also an
unopenable ``--out`` or a malformed ``MOTZKINLAB_CEILING``), 3 resource
limit exceeded (also a closed stdout, a failed write other than a closed
pipe, or running out of memory), 4 internal error (any other exception: a
bug, never a verdict on the classifiers).  A usage, resource or internal
error is one ``error:`` line on stderr.
"""

import argparse
import csv
import errno
import functools
import itertools
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from json.encoder import encode_basestring_ascii

from . import checks, density, engines
from .classify import Mod8Kind, classify_div5, classify_mod3, classify_mod8

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4


class _UsageError(Exception):
    """A request that cannot run as given: exit 2 with a one-line message."""


_EPILOG = (
    "Ranges are half-open: '0..10' means indices 0 through 9, a bare '7' "
    "means just 7.  The environment variable "
    f"{engines.CEILING_ENV_VAR} overrides the default engine ceiling "
    f"({engines.DEFAULT_CEILING})."
)


# The longest refused argument an error message repeats, as its repr: argparse
# echoes a value whole, and one within the int-parsing limit can have 4300
# digits.  With compute's usage text at 80 columns, it stays under 300 bytes.
_ECHOED = 24


def _parsed(text: str) -> int:
    """An integer argument; past the interpreter's int-parsing digit limit, a short error.

    A rejected value longer than the limit, once its sign, underscores and
    surrounding whitespace are dropped, gets the short error whether or not
    it is all digits.  Any other bad value stays a ValueError.
    """
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        digits = text.strip().lstrip("+-").replace("_", "")
        if limit and len(digits) > limit:
            raise argparse.ArgumentTypeError(
                f"must have at most {limit} digits, got {len(digits)}") from None
        raise


def _refusal(kind: str, text: str) -> Exception:
    """A type function's error for ``text``: argparse's own, or a short one if it is long."""
    if len(repr(text)) > _ECHOED:
        return argparse.ArgumentTypeError(f"invalid {kind} value of {len(text)} characters")
    return ValueError(text)  # argparse reports "invalid <kind> value: '<text>'"


def _range_type(text: str) -> "tuple[int, int]":
    try:
        if ".." in text:
            left, right = text.split("..", 1)
            lo, hi = _parsed(left), _parsed(right)
        else:
            lo = _parsed(text)
            hi = lo + 1
    except ValueError:
        raise _refusal("range", text) from None
    if lo < 0 or hi < lo:
        raise _refusal("range", text)
    return lo, hi


def _int_type(text: str) -> int:
    try:
        return _parsed(text)
    except ValueError:
        raise _refusal("int", text) from None


_int_type.__name__ = "int"
_range_type.__name__ = "range"


def _fraction_str(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _decimal(value) -> str:
    return f"{float(value):.12g}"


# Values other than exact ints, strings and None (bools, floats, anything
# json may reject) are encoded by json itself, with the separators of a row.
_JSON = json.JSONEncoder(separators=(",", ":"))


def _json_value(value) -> str:
    """A row value other than an exact int or None, as ``_JSON.encode(row_dict)`` encodes it."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    return _JSON.encode(value)


def _emit(handle, fmt: str, columns, rows) -> None:
    """One table with a fixed column schema, as CSV (None left empty) or JSON lines.

    Each JSON line is byte-identical to ``json.dumps(dict(zip(columns, row)),
    separators=(",", ":"))``, ASCII-escaped.  It is filled into one template
    built from the column names, one write per row: exact ints and None are
    written inline, other values through :func:`_json_value`.  A reader that
    goes away early (``| head``) ends the output quietly; any other failed
    write (a full disk) is a resource error, exit 3.
    """
    try:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            line = "{" + ",".join(encode_basestring_ascii(name).replace("%", "%%") + ":%s"
                                  for name in columns) + "}\n"
            for values in rows:
                handle.write(line % tuple([value if type(value) is int
                                           else "null" if value is None else _json_value(value)
                                           for value in values]))
        handle.flush()
    except OSError as exc:
        # Keep the flushes still to come quiet: the handle's close, the
        # interpreter's final one (Python's signal docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, handle.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise engines.ResourceLimitError(f"cannot write output: {exc.strerror}") from None


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int->str digit limit, then restore it.

    Exact Motzkin values pass 4300 digits from n = 9029 on.  Builds without
    ``sys.set_int_max_str_digits`` have no limit to lift.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _open_out(path):
    """``--out`` opened for writing, or stdout.

    An unopenable path is a usage error; a closed stdout (``>&-``, where
    ``sys.stdout`` is None) is a failed write, exit 3, before any work runs.
    """
    if not path:
        if sys.stdout is None:
            raise engines.ResourceLimitError(f"cannot write output: {os.strerror(errno.EBADF)}")
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _UsageError(f"cannot open --out {path!r}: {exc.strerror}") from None


def _table(columns, rows):
    """A runner that writes one table and succeeds; lazy rows are computed as written."""
    def run(emit) -> int:
        emit(columns, rows)
        return EXIT_OK
    return run


def _ceiling_guard(requested: int, what: str) -> None:
    try:
        engines.ensure_within_ceiling(requested, what)
    except ValueError as exc:  # a malformed MOTZKINLAB_CEILING
        raise _UsageError(str(exc)) from None


def _add_output_options(sub) -> None:
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                     help="output format (default: csv)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write output to PATH instead of stdout")


def _compute_values(engine: str, lo: int, hi: int, modulus):
    """M(lo..hi-1), or its residues mod ``modulus``.

    The modular stream is computed whole, before the caller writes a row;
    the exact engines give one value at a time, as the rows are written.
    """
    if engine == "convolution":
        return engines.motzkin_mod_stream(modulus, hi).values[lo:] if lo < hi else ()
    if engine == "sum":
        values = (engines.motzkin_exact(n) for n in range(lo, hi))
    else:
        values = itertools.islice(engines.iter_motzkin_exact(), lo, hi)
    return values if modulus is None else (value % modulus for value in values)


def _cmd_compute(args):
    lo, hi = args.range
    if args.mod is not None and args.mod < 2:
        raise _UsageError("--mod must be at least 2")
    engine = args.engine or ("convolution" if args.mod is not None else "holonomic")
    if engine == "convolution" and args.mod is None:
        raise _UsageError("engine 'convolution' requires --mod")
    if lo < hi:  # the whole request passes the ceiling before any output is opened
        if engine == "sum":
            _ceiling_guard(hi - 1, "index")
        else:
            _ceiling_guard(hi, "stream length")
    columns = ("n", "value") if args.mod is None else ("n", "residue")

    def run(emit) -> int:
        emit(columns, zip(range(lo, hi), _compute_values(engine, lo, hi, args.mod)))
        return EXIT_OK
    return run


_CLASSIFY_COLUMNS = {
    2: ("n", "residue", "eps", "delta", "i", "j"),
    3: ("n", "residue"),
    4: ("n", "class", "eps", "delta", "i", "j"),
    5: ("n", "divisible", "form", "i", "j"),
    8: ("n", "class", "eps", "delta", "i", "j", "y"),
}


def _mod8_row_builder(modulus: int):
    """The row builder of modulus 2, 4 or 8; each kind's class column is computed here, once."""
    classes = {}
    for kind in Mod8Kind:
        residue = kind.residue_mod(modulus)
        classes[kind] = residue if modulus == 2 else "odd" if residue is None else str(residue)
    odd = (classes[Mod8Kind.ODD],) + (None,) * (len(_CLASSIFY_COLUMNS[modulus]) - 2)
    with_y = modulus == 8

    def row(n):
        outcome = classify_mod8(n)
        witness = outcome.witness
        if witness is None:
            return (n,) + odd
        if with_y:
            return (n, classes[outcome.kind], *witness, outcome.ones_count)
        return (n, classes[outcome.kind], *witness)
    return row


def _div5_row(n: int):
    outcome = classify_div5(n)
    if outcome.form is None:
        return n, 0, None, None, None
    return (n, 1, outcome.form, *outcome.witness)


# The row builder of each modulus, chosen once per command.
_CLASSIFY_ROWS = {
    2: _mod8_row_builder(2),
    3: lambda n: (n, classify_mod3(n)),
    4: _mod8_row_builder(4),
    5: _div5_row,
    8: _mod8_row_builder(8),
}


def _cmd_classify(args):
    lo, hi = args.range
    return _table(_CLASSIFY_COLUMNS[args.mod], map(_CLASSIFY_ROWS[args.mod], range(lo, hi)))


def _cmd_verify(args):
    if args.count < 0:
        raise _UsageError("count must be non-negative")
    _ceiling_guard(args.count, "sweep length")

    def run(emit) -> int:
        report = checks.verify_classifiers(args.mod, args.count)
        emit(("modulus", "checked", "mismatches", "first_mismatch"),
             [(report.modulus, report.checked, report.mismatches, report.first_mismatch)])
        return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED
    return run


def _cmd_density(args):
    if args.horizon is not None and (args.selector == "table" or args.closed):
        raise _UsageError("-N/--horizon cannot be used with "
                          + ("table" if args.selector == "table" else "--closed"))
    if args.selector == "table":
        limits = density.density_table()
    else:
        try:
            limits = [(args.selector, density.density_limit(args.selector))]
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if args.selector == "table" or args.closed:
        return _table(("label", "limit", "limit_decimal"),
                      [(label, _fraction_str(value), _decimal(value)) for label, value in limits])
    if args.horizon is None:
        raise _UsageError("-N/--horizon is required unless --closed")
    if args.horizon < 1:
        raise _UsageError("-N/--horizon must be at least 1")

    def run(emit) -> int:
        report = density.empirical_density(args.selector, args.horizon)
        emit(("label", "limit", "limit_decimal", "N", "count",
              "ratio", "abs_discrepancy", "error_bound"),
             [(
                 report.label,
                 _fraction_str(report.limit_value),
                 _decimal(report.limit_value),
                 report.horizon,
                 report.observed_count,
                 _decimal(report.observed_ratio),
                 _decimal(report.abs_discrepancy),
                 _decimal(report.error_bound),
             )])
        return EXIT_OK
    return run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkinlab",
        description="Motzkin numbers modulo small moduli: values, digit "
                    "classifications, verification sweeps, densities.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="emit Motzkin values or residues",
                             epilog=_EPILOG)
    compute.add_argument("range", type=_range_type,
                         help="index range a..b (half-open) or single index")
    compute.add_argument("--mod", type=_int_type, default=None,
                         help="reduce values modulo this integer (>= 2)")
    compute.add_argument("--engine", choices=("sum", "holonomic", "convolution"),
                         default=None,
                         help="default: holonomic, or convolution with --mod")
    _add_output_options(compute)
    compute.set_defaults(func=_cmd_compute)

    classify = sub.add_parser("classify",
                              help="digit-classify indices without computing M(n)",
                              epilog=_EPILOG)
    classify.add_argument("range", type=_range_type,
                          help="index range a..b (half-open) or single index")
    classify.add_argument("--mod", type=_int_type, choices=checks.SUPPORTED_MODULI,
                          required=True, help="modulus to classify against")
    _add_output_options(classify)
    classify.set_defaults(func=_cmd_classify)

    verify = sub.add_parser("verify",
                            help="compare classifiers with engine residues",
                            epilog=_EPILOG)
    verify.add_argument("count", type=_int_type,
                        help="check all indices n < count")
    verify.add_argument("--mod", type=_int_type, choices=checks.SUPPORTED_MODULI,
                        required=True, help="modulus to verify")
    _add_output_options(verify)
    verify.set_defaults(func=_cmd_verify)

    dens = sub.add_parser("density",
                          help="closed-form and empirical class densities",
                          epilog=_EPILOG)
    dens.add_argument("selector",
                      help="class label (see 'density table'), or 'table'")
    dens.add_argument("-N", "--horizon", type=_int_type, default=None,
                      help="count class members among n < N")
    dens.add_argument("--closed", action="store_true",
                      help="emit only the exact limit")
    _add_output_options(dens)
    dens.set_defaults(func=_cmd_density)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        run = args.func(args)
        with _open_out(args.out) as handle, _unlimited_int_digits():
            return run(functools.partial(_emit, handle, args.format))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except engines.ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
