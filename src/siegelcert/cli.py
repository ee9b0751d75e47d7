"""Command-line front end.

Subcommands:

  cuspidal     certification run for the quadratic family on the cuspidal cubic
  three-lines  certification run for given orbit data of the line-triple family
  theorem1     end-to-end run producing exactly k Siegel-certified centers
  matrix       plain-text dump of an action matrix

Reports are JSON on stdout (optionally also written to --out).  Exit codes:
0 full certification, 1 hard error (JSON error object on stdout, also when
--out cannot be written), 2 when any verdict is Inconclusive.  Exit code 2 is
also argparse's usage error: then stdout is empty and the usage goes to
stderr.  --strict adds conjugacy evidence to every run command; when the
evidence fails, the verdicts it would back become Inconclusive and the report
still prints.  Identical configurations produce byte-identical reports.
There are no precision flags: each Salem polynomial is certified once at the
fixed tolerance of roots.poly_roots, and a pattern that double precision
cannot decide is a BoundaryUndecidable error (exit 1).  Nor are there search
flags: theorem1's search budget is fixed (threelines.approx_parameters).
"""

from __future__ import annotations

import argparse
import sys

from .certifier import CertificationReport
from .cohomology import quad_action_matrix, tl_action_matrix
from .cuspidal import certify_cuspidal
from .errors import SiegelcertError
from .pipeline import certify_three_lines, theorem1_pipeline
from .report import RunConfig, exit_code_for, render, report_to_dict
from .threelines import OrbitData


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="siegelcert",
        description="Certified Siegel-disk constructions for plane birational maps")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--strict", action="store_true",
                       help="add resultant/mod-p conjugacy evidence; its failure "
                            "downgrades verdicts to Inconclusive")
        p.add_argument("--out", type=str, default=None,
                       help="also write the JSON report to this path")

    p = sub.add_parser("cuspidal", help="quadratic family on the cuspidal cubic")
    p.add_argument("--n", type=int, required=True,
                   help="orbit closure length (the positive-entropy instance is 8)")
    common(p)

    p = sub.add_parser("three-lines", help="line-triple family at fixed orbit data")
    p.add_argument("--m", type=_int_list, required=True,
                   help="comma list of a-orbit parameters m_1,..,m_N")
    p.add_argument("--n", type=_int_list, required=True,
                   help="comma list of b-orbit parameters n_1,..,n_N")
    common(p)

    p = sub.add_parser(
        "theorem1",
        help="construct an automorphism with exactly k Siegel-certified centers")
    p.add_argument("--k", type=int, required=True,
                   help="number of Siegel centers; k >= 2 (k = 0, 1 are covered "
                        "by earlier degree-2 constructions on other cubics and "
                        "are out of scope here)")
    common(p)

    p = sub.add_parser("matrix", help="plain-text action-matrix dump")
    p.add_argument("--family", choices=("quad", "three-lines"), required=True)
    p.add_argument("--n", type=_int_list, required=True,
                   help="quad: n1,n2,n3; three-lines: n_1,..,n_N")
    p.add_argument("--m", type=_int_list, default=None,
                   help="three-lines only: m_1,..,m_N")
    p.add_argument("--sigma", type=_int_list, default=None,
                   help="quad only: permutation matching orbits to forward "
                        "points (default 0,1,2)")
    p.add_argument("--out", type=str, default=None)
    return top


def _emit(text: str, out_path: str | None):
    # the file first: an unwritable --out leaves stdout to the error object
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _finish(report: CertificationReport, config: RunConfig) -> int:
    _emit(render(report_to_dict(report, config)), config.out)
    return exit_code_for(report)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "cuspidal":
            if args.n < 1:
                raise SiegelcertError("orbit length n must be >= 1")
            config = RunConfig("cuspidal", "cuspidal", {"n": args.n},
                               args.strict, args.out)
            report = certify_cuspidal(args.n, strict=args.strict)
            return _finish(report, config)

        if args.command == "three-lines":
            orbit = OrbitData(args.m, args.n)
            config = RunConfig("three-lines", "three_lines",
                               {"m": list(args.m), "n": list(args.n)},
                               args.strict, args.out)
            report = certify_three_lines(orbit, strict=args.strict)
            return _finish(report, config)

        if args.command == "theorem1":
            config = RunConfig("theorem1", "theorem1", {"k": args.k},
                               args.strict, args.out)
            report = theorem1_pipeline(args.k, strict=args.strict)
            return _finish(report, config)

        if args.command == "matrix":
            if args.family == "quad":
                if len(args.n) != 3:
                    raise SiegelcertError("quad needs --n n1,n2,n3")
                if args.m is not None:
                    raise SiegelcertError("--m is for the three-lines family")
                m = quad_action_matrix(*args.n, sigma=args.sigma or (0, 1, 2))
            else:
                if args.sigma is not None:
                    raise SiegelcertError("--sigma is for the quad family")
                if args.m is None or len(args.m) != len(args.n):
                    raise SiegelcertError("three-lines needs --m and --n of equal length")
                m = tl_action_matrix(OrbitData(args.m, args.n))
            _emit(m.to_text(), args.out)
            return 0
    except (SiegelcertError, ValueError, OSError) as exc:
        sys.stdout.write(render(
            {"error": {"stage": type(exc).__name__, "message": str(exc)}}))
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
