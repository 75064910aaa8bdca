"""Command-line interface.

Subcommands:

* check: exact verdicts and the central-ratio audit for one (m, k)
* scan-theorem1: measured thresholds vs the k^2 - 3 law over a k range
* probe-inequality: exact rational audit of the neighbor-ratio inequality
* eclass: threshold-curve maximum, min_m, and membership certificates
* scan-eclass: max-threshold scaling scan over a k range
* certmax: certified enclosure of the limit-shape constant
* general: minimal smoothing exponent for a coefficient file

Exit codes: 0 success, 1 usage or input error, 2 verdict mismatch,
3 numeric certification failure, 4 nothing found below the cap. A
layer's refusal is a unimodal_lab.Refusal, which carries its exit code
and its stderr label; there are two: unimodal_lab.OutOfRange (3, an
input beyond the range a verdict is given for, such as eclass or
scan-eclass at k > 1000, or check at m + k >= 2^49) and
thresholds.NotFoundError (4). eclass and scan-eclass also exit 3,
with their output written, when a maximum lies outside the max-level
alpha sandwich.

Each subcommand returns one Result, and render() writes it in one of
three formats: json (the record, schema "unimodal-lab/1", stable key
order), csv (the header and rows, floats at 17 significant digits) and
text (key=value lines, one line per row for the scans). Output goes to
stdout or --out. Rows are sorted by (k, u). Every subcommand runs on
one thread.

A process enters through entry(), which the package's __main__ and the
installed unimodal-lab script both call; main() itself has no
process-level effect, so it can run in-process. entry() freezes the heap
at exit, so the interpreter's final collections do not walk the module
graph (NumPy's too, after a grid command) just before the OS reclaims
it. json is imported only for json output; json.dumps walks the record
itself, and its default hook writes each Fraction as "p/q".
ThreadPoolExecutor is a bare class, not concurrent.futures' pool: no
subcommand runs a pool, and importing one (with logging, traceback and
queue) slowed the start of every process, but the benchmark's tracer
still subclasses this name.

The layer modules are bound here unexecuted (the package registers them
lazily) and are read only as module attributes inside the commands, so
each process compiles and runs only the layers its command calls:
--version none, check, scan-theorem1, probe-inequality and general
exactpoly and thresholds, certmax certmax and kernels, eclass and
scan-eclass envelope, kernels and certmax. A from-import of a layer
name would execute the layer with this module. fractions is not
imported here either: a Fraction is rendered only once a layer has
imported it, and only the exact lane computes one, so --version,
certmax, eclass and scan-eclass never load fractions or decimal.
main catches the package's Refusal, which every layer's refusal
derives from, so a failing command executes no layer it did not reach.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from typing import TYPE_CHECKING, NamedTuple, NoReturn, Optional

from . import Refusal, __version__, certmax, envelope, exactpoly, kernels, thresholds

if TYPE_CHECKING:
    from fractions import Fraction

SCHEMA = "unimodal-lab/1"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_MISMATCH = 2
_EXIT_CERTIFICATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the mismatch code
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


class ThreadPoolExecutor:
    """Never instantiated: perfbench/tracer.py subclasses it under this name.

    ROADMAP item 7 deletes it together with the tracer's pool wrapper.
    """


def _threads() -> int:
    # the thread count perfbench/run.py records; every subcommand runs on one
    return 1


class Result(NamedTuple):
    """One subcommand's outcome, ready for render().

    `record` is the JSON body, `header`/`rows` the CSV table, and `pairs`
    the key=value lines of a single-record command (text falls back to
    one line per row when it is None).
    """

    code: int
    record: dict
    header: list[str]
    rows: list[list]
    pairs: Optional[list[tuple[str, object]]] = None


def _fraction_text(v) -> Optional[str]:
    # "p/q" for a Fraction, else None; a Fraction exists only once some
    # layer imported fractions, so a command that computes none (--version,
    # certmax and the grid commands) never loads fractions or the decimal
    # module it imports
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(v, fractions.Fraction):
        return f"{v.numerator}/{v.denominator}"
    return None


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    text = _fraction_text(v)
    return str(v) if text is None else text


def _json_default(v) -> str:
    # json.dumps calls this only for what it cannot encode: a Fraction
    text = _fraction_text(v)
    if text is None:
        raise TypeError(f"{type(v).__name__} is not JSON serializable")
    return text


def render(result: Result, fmt: str) -> str:
    """The only place that knows the three output formats."""
    if fmt == "json":
        import json

        body = {"schema": SCHEMA, **result.record}
        return json.dumps(body, indent=2, sort_keys=True, default=_json_default) + "\n"
    if fmt == "csv":
        lines = [result.header, *result.rows]
        return "".join(",".join(_fmt_scalar(v) for v in line) + "\n" for line in lines)
    if result.pairs is not None:
        return "".join(f"{k}={_fmt_scalar(v)}\n" for k, v in result.pairs)
    lines = [" ".join(f"{h}={_fmt_scalar(v)}" for h, v in zip(result.header, row))
             for row in result.rows]
    return "\n".join(lines) + "\n"


def _k_range(args: argparse.Namespace) -> list[int]:
    if args.k_min < 2 or args.k_max < args.k_min:
        raise ValueError(f"need 2 <= k-min <= k-max, got {args.k_min}, {args.k_max}")
    return list(range(args.k_min, args.k_max + 1))


def cmd_check(args: argparse.Namespace) -> Result:
    m, k = args.m, args.k
    report = exactpoly.family_report(m, k)
    predicted = m >= thresholds.predicted_threshold(k)
    try:
        closed, raw = thresholds.ratio_vs_coefficients(m, k)
        ratio: Optional[Fraction] = closed
        ratio_ok: Optional[bool] = closed == raw
    except ValueError:
        ratio = None
        ratio_ok = None
    agree = report.unimodal == report.strongly_unimodal == predicted and ratio_ok is not False
    record = {
        "command": "check",
        "m": m,
        "k": k,
        "unimodal": report.unimodal,
        "unimodal_witness": report.unimodal_witness,
        "strongly_unimodal": report.strongly_unimodal,
        "strong_witness": report.strong_witness,
        "strong_reason": report.strong_reason,
        "central_ratio": ratio,
        "central_ratio_matches": ratio_ok,
        "predicted_member": predicted,
        "agree": agree,
    }
    header = ["m", "k", "unimodal", "strongly_unimodal", "predicted_member", "agree", "central_ratio"]
    row = [record[key] for key in header[:-1]] + [ratio if ratio is not None else ""]
    pairs = [
        ("m", m), ("k", k),
        ("unimodal", report.unimodal),
        ("strongly_unimodal", report.strongly_unimodal),
        ("predicted_member", predicted),
        ("central_ratio", ratio if ratio is not None else "undefined"),
        ("central_ratio_matches", ratio_ok if ratio_ok is not None else "undefined"),
        ("agree", agree),
    ]
    if report.unimodal_witness is not None:
        pairs.insert(3, ("unimodal_witness", f"{report.unimodal_witness[0]},{report.unimodal_witness[1]}"))
    if report.strong_witness is not None:
        pairs.insert(4, ("strong_witness", f"{report.strong_witness} ({report.strong_reason})"))
    return Result(_EXIT_OK if agree else _EXIT_MISMATCH, record, header, [row], pairs)


def cmd_scan_theorem1(args: argparse.Namespace) -> Result:
    ks = _k_range(args)
    results = [thresholds.scan_thresholds(k, args.cap) for k in ks]
    header = ["k", "min_m_strong", "min_m_unimodal", "predicted", "match"]
    rows = [[r.k, r.min_m_strong, r.min_m_unimodal, r.predicted, r.match] for r in results]
    all_match = all(r.match for r in results)
    record = {
        "command": "scan-theorem1",
        "rows": [dict(zip(header, row)) for row in rows],
        "all_match": all_match,
    }
    return Result(_EXIT_OK if all_match else _EXIT_MISMATCH, record, header, rows)


def cmd_probe_inequality(args: argparse.Namespace) -> Result:
    probes = thresholds.inequality_probes(args.k)
    all_hold = all(p.holds for p in probes)
    record = {
        "command": "probe-inequality",
        "k": args.k,
        "rows": [
            {
                "u": p.u,
                "lhs": float(p.lhs),
                "rhs": float(p.rhs),
                "lhs_exact": p.lhs,
                "rhs_exact": p.rhs,
                "holds": p.holds,
                "case_bound_first": p.case_bound_first,
                "case_bound_second": p.case_bound_second,
                "case_bound_holds": p.case_bound_holds,
            }
            for p in probes
        ],
        "all_hold": all_hold,
    }
    header = ["u", "lhs", "rhs", "holds", "case_bound_holds"]
    rows = [[r[key] for key in header] for r in record["rows"]]
    return Result(_EXIT_OK if all_hold else _EXIT_MISMATCH, record, header, rows)


def cmd_eclass(args: argparse.Namespace) -> Result:
    k, grid = args.k, args.grid
    peak = envelope.max_threshold(envelope.ThetaScan(k, grid_points=grid))
    cert_at = envelope.membership_certificate(peak.min_m, peak)
    cert_below = envelope.membership_certificate(peak.min_m - 1, peak)
    enc = certmax.certified_alpha().value_enclosure
    sandwich = envelope.sandwich_check(k, grid_points=grid // 10)
    lo_b, hi_b = envelope.sandwich_bounds(k, enc.lo, enc.hi)
    in_sandwich = lo_b <= peak.ratio_k4 <= hi_b
    record = {
        "command": "eclass",
        "k": k,
        "backend": kernels.backend(),
        "max_threshold": peak.max_value,
        "argmax_theta": peak.argmax_theta,
        "m_of_k": peak.min_m,
        "ratio_k4": peak.ratio_k4,
        "near_integer": peak.near_integer,
        "certificate_at_m_of_k": cert_at._asdict(),
        "certificate_below": cert_below._asdict(),
        "sandwich": {
            "upper_ok": sandwich.upper_ok,
            "lower_ok": sandwich.lower_ok,
            "n_upper_violations": sandwich.n_upper_violations,
            "n_lower_violations": sandwich.n_lower_violations,
            "max_ratio": peak.ratio_k4,
            "enclosure_lo": lo_b,
            "enclosure_hi": hi_b,
            "max_in_enclosure": in_sandwich,
        },
    }
    header = ["k", "max_threshold", "argmax_theta", "m_of_k", "ratio_k4", "near_integer"]
    pairs = [(key, record[key]) for key in ["k", "backend", *header[1:]]]
    pairs += [("member_at_m_of_k", cert_at.member), ("margin_at_m_of_k", cert_at.min_margin)]
    pairs += [("member_below", cert_below.member), ("margin_below", cert_below.min_margin)]
    pairs += [("max_in_enclosure", in_sandwich)]
    # min_m = ceil(top), and the certificates decide the exact sign of
    # m - top, so the one at min_m is a member and the one below is not.
    # Only the max-level sandwich can fail.
    code = _EXIT_OK if in_sandwich else _EXIT_CERTIFICATION
    return Result(code, record, header, [[record[key] for key in header]], pairs)


def cmd_scan_eclass(args: argparse.Namespace) -> Result:
    ks = _k_range(args)
    enc = certmax.certified_alpha().value_enclosure
    rows = []
    for k in ks:
        p = envelope.max_threshold(envelope.ThetaScan(k, grid_points=args.grid))
        lo_b, hi_b = envelope.sandwich_bounds(k, enc.lo, enc.hi)
        rows.append([p.k, p.max_value, p.argmax_theta, p.min_m, p.ratio_k4,
                     lo_b, hi_b, lo_b <= p.ratio_k4 <= hi_b])
    header = ["k", "max_threshold", "argmax_theta", "m_of_k", "ratio_k4",
              "sandwich_lo", "sandwich_hi", "in_sandwich"]
    all_in = all(row[-1] for row in rows)
    record = {
        "command": "scan-eclass",
        "rows": [dict(zip(header, row)) for row in rows],
        "all_in_sandwich": all_in,
    }
    return Result(_EXIT_OK if all_in else _EXIT_CERTIFICATION, record, header, rows)


def cmd_certmax(args: argparse.Namespace) -> Result:
    result = certmax.certified_alpha()
    cb, ve = result.crit_bracket, result.value_enclosure
    record = {
        "command": "certmax",
        "crit_bracket": {"lo": cb.lo, "hi": cb.hi, "width": cb.width},
        "value_enclosure": {"lo": ve.lo, "hi": ve.hi, "width": ve.width},
        "evaluations": result.evaluations,
    }
    header = ["crit_lo", "crit_hi", "value_lo", "value_hi", "width", "evaluations"]
    row = [cb.lo, cb.hi, ve.lo, ve.hi, ve.width, result.evaluations]
    return Result(_EXIT_OK, record, header, [row], list(zip(header, row)))


def cmd_general(args: argparse.Namespace) -> Result:
    path = args.infile
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}")
    tokens = raw.replace(",", " ").split()
    try:
        coeffs = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"{path} must contain whitespace- or comma-separated integers")
    n = thresholds.generic_min_N(coeffs, args.cap)
    record = {"command": "general", "coeffs": coeffs, "min_n": n}
    return Result(_EXIT_OK, record, ["min_n"], [[n]], [("min_n", n)])


_DISPATCH = {
    "check": cmd_check,
    "scan-theorem1": cmd_scan_theorem1,
    "probe-inequality": cmd_probe_inequality,
    "eclass": cmd_eclass,
    "scan-eclass": cmd_scan_eclass,
    "certmax": cmd_certmax,
    "general": cmd_general,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unimodal-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, default_fmt: str) -> None:
        p.add_argument("--format", choices=["text", "csv", "json"], default=default_fmt)
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("check", help="exact verdicts for one (m, k)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p, "text")

    p = sub.add_parser("scan-theorem1", help="threshold scan vs the k^2 - 3 law")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    add_common(p, "csv")

    p = sub.add_parser("probe-inequality", help="exact audit of the neighbor-ratio inequality")
    p.add_argument("--k", type=int, required=True)
    add_common(p, "csv")

    p = sub.add_parser("eclass", help="threshold maximum and membership certificates")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=int, default=100_000)
    add_common(p, "json")

    p = sub.add_parser("scan-eclass", help="max-threshold scaling scan over a k range")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--grid", type=int, default=100_000)
    add_common(p, "csv")

    p = sub.add_parser("certmax", help="certified enclosure of the limit-shape constant")
    add_common(p, "json")

    p = sub.add_parser("general", help="minimal smoothing exponent for a coefficient file")
    p.add_argument("infile", metavar="FILE")
    p.add_argument("--cap", type=int, default=64)
    add_common(p, "text")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _DISPATCH[args.subcommand](args)
    except Refusal as e:
        print(f"unimodal-lab: {e.label}: {e}", file=sys.stderr)
        return e.exit_code
    except ValueError as e:
        print(f"unimodal-lab: error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    text = render(result, args.format)
    if not args.out:
        sys.stdout.write(text)
        return result.code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"unimodal-lab: error: cannot write {args.out}: {e}", file=sys.stderr)
        return _EXIT_USAGE
    return result.code


def entry() -> int:
    """Process entry of `python -m unimodal_lab` and the unimodal-lab script.

    gc.freeze runs first at interpreter exit (atexit handlers precede the
    final flush of stdout and stderr, the last collections and module
    teardown), so those collections skip the whole heap on every exit
    path, argparse's SystemExit included. os._exit would skip atexit
    handlers, and with them profilers and coverage.
    """
    atexit.register(gc.freeze)
    return main()


if __name__ == "__main__":
    sys.exit(entry())
