"""Command line front end.

Subcommands: branches, hypersurface, fnilpotent, fte, tight-member.
Reports come out as readable text or canonical JSON (sorted keys, schema
version "1"); identical requests produce byte-identical reports.

`--config FILE` reads the request as CLI tokens from a file; it must be
the only argument, and the file may not name another `--config`.
Numeric options must satisfy --ext-s >= 1, --s-max >= 1 and --e-max >= 0,
and the --vars names must be distinct identifiers.

Exit codes: 0 success, 1 input error, 2 mathematical inconsistency (the
closure formula disagreeing with an oracle, or a certificate failing its
own check) or a ring proven not reduced, whose counts are multiplicities;
a report that exits 2 names its reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import asdict, dataclass, field as dc_field
from functools import cache
from typing import Optional, Sequence

from .errors import CertificateFailed, FrobranchError
from .ffield import PrimeField, check_characteristic, extend_field
from .graded import DEFAULT_S_MAX, GradedQuotient, reducedness_status
from .oracle import HypersurfaceCurve, crosscheck, hypersurface_branches
from .parse import parse_homog, parse_semigroup, parse_vector_list
from .semigroup import (
    DEFAULT_E_MAX,
    fte_bruteforce,
    is_f_nilpotent,
    tight_closure_membership_monomial,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2


class _CliInputError(FrobranchError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliInputError(message)


@dataclass(frozen=True)
class AnalysisRequest:
    mode: str
    p: int
    ext_s: int = 1
    var_names: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()
    gens: Optional[str] = None
    ideal: Optional[str] = None
    element: Optional[str] = None
    e_max: int = DEFAULT_E_MAX
    s_max: int = DEFAULT_S_MAX
    output_format: str = "text"
    seed: Optional[int] = None

    def echo(self) -> dict:
        out = {"mode": self.mode, "p": self.p, "ext_s": self.ext_s}
        if self.var_names:
            out["vars"] = list(self.var_names)
        if self.relations:
            out["relations"] = list(self.relations)
        for key in ("gens", "ideal", "element", "seed"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        out["e_max"] = self.e_max
        out["s_max"] = self.s_max
        # schema-1 keys of two retired options, echoed at their old defaults
        # so reports stay byte-identical; drop them at the next schema_version
        out["degree_cap"] = 64
        out["box_factor"] = 3
        return out


@dataclass
class AnalysisReport:
    request: dict
    results: dict
    diagnostics: dict = dc_field(default_factory=dict)
    reason: Optional[str] = None  # why the report exits 2, printed to stderr

    @property
    def exit_code(self) -> int:
        return EXIT_INCONSISTENT if self.reason else EXIT_OK

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "request": self.request,
            "results": self.results,
            "diagnostics": self.diagnostics,
        }


@cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused by every request."""
    parser = _Parser(prog="frobranch", description=__doc__)
    parser.add_argument("--config", help="read the request as CLI tokens from a file")
    sub = parser.add_subparsers(dest="mode")

    def common(sp, semigroup=False):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        sp.add_argument("--ext-s", type=int, default=1, help="scalar extension degree of the base field")
        sp.add_argument("--e-max", type=int, default=DEFAULT_E_MAX)
        sp.add_argument("--s-max", type=int, default=DEFAULT_S_MAX)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--seed", type=int, default=None, help="echoed into the report for sampling harnesses")
        if semigroup:
            sp.add_argument("--gens", required=True, help="semigroup generators, e.g. '3: 2,0,0; 1,1,0' or '2,3'")

    sp = sub.add_parser("branches", help="branch count of a graded quotient ring")
    common(sp)
    sp.add_argument("--vars", required=True, help="comma-separated variable names")
    sp.add_argument("--rel", action="append", default=[], help="homogeneous relation (repeatable)")

    sp = sub.add_parser("hypersurface", help="oracle branch count of a plane curve")
    common(sp)
    sp.add_argument("--vars", default="x,y", help="the two variable names")
    sp.add_argument("--rel", action="append", default=[], help="the squarefree form")

    sp = sub.add_parser("fnilpotent", help="F-nilpotence of an affine semigroup ring")
    common(sp, semigroup=True)

    sp = sub.add_parser("fte", help="Frobenius test exponent of a monomial ideal (numerical semigroup)")
    common(sp, semigroup=True)
    sp.add_argument("--ideal", required=True, help="ideal generators, comma-separated integers")

    sp = sub.add_parser("tight-member", help="tight closure membership of a monomial")
    common(sp, semigroup=True)
    sp.add_argument("--ideal", required=True, help="ideal generator vectors, ';' separated")
    sp.add_argument("--element", required=True, help="the candidate exponent vector")
    return parser


def _read_config(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return shlex.split(fh.read(), comments=True)
    except (OSError, ValueError) as exc:
        raise _CliInputError(f"cannot read --config file: {exc}") from None


# (flag, namespace attribute, least valid value)
_LEAST = (("--ext-s", "ext_s", 1), ("--e-max", "e_max", 0), ("--s-max", "s_max", 1))


def parse_request(argv: Sequence[str]) -> AnalysisRequest:
    ns = _parser().parse_args(list(argv))
    if ns.config is not None:
        if ns.mode is not None:
            raise _CliInputError("--config must be the only argument")
        ns = _parser().parse_args(_read_config(ns.config))
        if ns.config is not None:
            raise _CliInputError("a --config file cannot name another --config")
    if ns.mode is None:
        raise _CliInputError("a subcommand is required (branches, hypersurface, fnilpotent, fte, tight-member)")
    check_characteristic(ns.p)
    for flag, attr, least in _LEAST:
        if getattr(ns, attr) < least:
            raise _CliInputError(f"{flag} must be >= {least}, got {getattr(ns, attr)}")
    var_names: tuple[str, ...] = ()
    if getattr(ns, "vars", None):
        var_names = tuple(v.strip() for v in ns.vars.split(","))
        if any(not v.isidentifier() for v in var_names):
            raise _CliInputError(f"invalid variable list {ns.vars!r}")
        repeated = next((v for i, v in enumerate(var_names) if v in var_names[:i]), None)
        if repeated is not None:
            raise _CliInputError(f"variable {repeated!r} is repeated in --vars {ns.vars!r}")
    return AnalysisRequest(
        mode=ns.mode,
        p=ns.p,
        ext_s=ns.ext_s,
        var_names=var_names,
        relations=tuple(getattr(ns, "rel", ()) or ()),
        gens=getattr(ns, "gens", None),
        ideal=getattr(ns, "ideal", None),
        element=getattr(ns, "element", None),
        e_max=ns.e_max,
        s_max=ns.s_max,
        output_format=ns.format,
        seed=ns.seed,
    )


def _make_field(req: AnalysisRequest):
    base = PrimeField(req.p)
    return base if req.ext_s == 1 else extend_field(base, req.ext_s)


def _run_branches(req: AnalysisRequest) -> AnalysisReport:
    field = _make_field(req)
    rels = [parse_homog(text, field, req.var_names) for text in req.relations]
    ring = GradedQuotient(field, len(req.var_names), rels, req.var_names)
    rep = crosscheck(ring, s_max=req.s_max)
    results = asdict(rep)
    reducedness = reducedness_status(ring)
    reason = None
    if reducedness == "not-reduced":
        reason = "the ring is not reduced, so the counts are its multiplicity, not its branches"
    elif not rep.consistent:  # an oracle mismatch is inconsistent too
        reason = "the branch counts disagree"
    return AnalysisReport(req.echo(), results, {"reducedness": reducedness}, reason)


def _run_hypersurface(req: AnalysisRequest) -> AnalysisReport:
    if len(req.relations) != 1:
        raise _CliInputError("hypersurface needs exactly one --rel")
    field = _make_field(req)
    f = parse_homog(req.relations[0], field, req.var_names)
    curve = HypersurfaceCurve(field, f, req.var_names)
    return AnalysisReport(req.echo(), {"branches": hypersurface_branches(curve)})


def _fnilpotency_results(report) -> dict:
    out = {
        "verdict": report.verdict,
        "e0": report.e0,
        "witness": list(report.witness) if report.witness else None,
        "certificate": report.certificate,
        "hilbert_basis": [list(v) for v in report.hilbert_basis],
        "per_element": {
            ",".join(map(str, v)): {"status": res.status, "e": res.e}
            for v, res in report.per_element.items()
        },
    }
    return out


def _run_fnilpotent(req: AnalysisRequest) -> AnalysisReport:
    A = parse_semigroup(req.gens)
    report = is_f_nilpotent(A, req.p, req.e_max)
    return AnalysisReport(req.echo(), _fnilpotency_results(report))


def _run_fte(req: AnalysisRequest) -> AnalysisReport:
    A = parse_semigroup(req.gens)
    if A.n != 1:
        raise _CliInputError("fte requires a numerical semigroup (dimension 1)")
    ideal = [v[0] for v in parse_vector_list(req.ideal, 1)]
    report = is_f_nilpotent(A, req.p, req.e_max)
    fte = fte_bruteforce(A, req.p, ideal, report)
    return AnalysisReport(
        req.echo(),
        {"fte": fte, "e0": report.e0, "verdict": report.verdict, "ideal": ideal},
    )


def _run_tight_member(req: AnalysisRequest) -> AnalysisReport:
    A = parse_semigroup(req.gens)
    ideal = parse_vector_list(req.ideal, A.n)
    element = parse_vector_list(req.element, A.n)
    if len(element) != 1:
        raise _CliInputError("--element must be a single vector")
    report = is_f_nilpotent(A, req.p, req.e_max)
    member = tight_closure_membership_monomial(A, req.p, ideal, element[0], report)
    return AnalysisReport(
        req.echo(),
        {
            "member": member,
            "e0": report.e0,
            "verdict": report.verdict,
            "ideal": [list(v) for v in ideal],
            "element": list(element[0]),
        },
    )


_DISPATCH = {
    "branches": _run_branches,
    "hypersurface": _run_hypersurface,
    "fnilpotent": _run_fnilpotent,
    "fte": _run_fte,
    "tight-member": _run_tight_member,
}


def run(req: AnalysisRequest) -> AnalysisReport:
    return _DISPATCH[req.mode](req)


def render(report: AnalysisReport, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(report.payload(), sort_keys=True, indent=2) + "\n"
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                if isinstance(value[k], dict):
                    emit(f"{prefix}{k}.", value[k])
                else:
                    lines.append(f"{prefix}{k}: {_fmt(value[k])}")
        else:
            lines.append(f"{prefix}: {_fmt(value)}")

    def _fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "-"
        if isinstance(v, list):
            return "[" + ", ".join(_fmt(x) for x in v) + "]"
        return str(v)

    lines.append(f"mode: {report.request['mode']}")
    emit("request.", {k: v for k, v in report.request.items() if k != "mode"})
    emit("result.", report.results)
    emit("diag.", report.diagnostics)
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        req = parse_request(sys.argv[1:] if argv is None else argv)
        report = run(req)
    except (FrobranchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT if isinstance(exc, CertificateFailed) else EXIT_INPUT_ERROR
    sys.stdout.write(render(report, req.output_format))
    if report.reason:
        print(f"error: {report.reason}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
