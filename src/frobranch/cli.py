"""Command line front end.

    frobranch MODE (--flag VALUE | --flag=VALUE)...
    frobranch --config FILE

MODE is one of branches, hypersurface, fnilpotent, fte, tight-member;
`frobranch --help` lists them and `frobranch MODE --help` the flags of
one.  One table (_MODES) gives each mode the flags its answer reads, and
no others, with their types, defaults, least values and help, and drives
parsing, validation and --help alike: --ext-s >= 1 and --s-max >= 1,
both only for branches.  No flag caps a semigroup answer: every verdict
is exact, or refused with exit 1 at a stated cap such as the walk budget
semigroup.WALK_BYTES.  Flags are spelled in full; each is given at most
once, except --rel, which repeats.  A separate VALUE that begins with "-"
must be "-", a negative number or hold a space; write any other as
--flag=VALUE.  The --vars names must be distinct identifiers.

`--config FILE` reads the request as CLI tokens from a file of at most
CONFIG_CAP characters; it must be the only argument, and the file may not
name another `--config`.

Reports come out as readable text or canonical JSON (sorted keys, schema
version "1", the bytes of json.dumps(payload, sort_keys=True, indent=2));
identical requests produce byte-identical reports.

One process shares one table across its requests (_TABLE, a
SharedTable).  A --gens with the canonical generators of a semigroup
answered before, at any prime, in any mode or spelling, reuses its
prime-independent geometry (SNFs, facets, Hilbert basis, Apery list,
membership memo), and a hit builds no AffineSemigroup.  A branches ring
with the slice_key of one answered before (the slices' field, the number
of variables and the relations' degrees and terms, whatever the request's
field, variable names or --s-max) reuses its degree slices and the
rank-test verdicts stored on them.  Each report is byte-identical to a
fresh process's, as the semigroup and graded module docstrings prove.
Semigroups and slice stores share one budget, TABLE_BYTES (8 MiB), as
charged by semigroup.table_bytes and graded.store_bytes, evicting least
recently used first.  A request holds its entry alone while it runs, so
threads calling run at once never share one.

Exit codes: 0 success (and --help), 1 input error, 2 mathematical
inconsistency (the closure formula disagreeing with an oracle, or a
certificate failing its own check) or a ring proven not reduced, whose
counts are multiplicities; a report that exits 2 names its reason on
stderr.
"""

from __future__ import annotations

import re
import shlex
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterator, NamedTuple, Optional, Sequence, TypeVar

from .errors import CertificateFailed, FrobranchError
from .ffield import PrimeField, check_characteristic, extend_field
from .graded import DEFAULT_S_MAX, GradedQuotient, reducedness_status, slice_key, store_bytes
from .oracle import HypersurfaceCurve, crosscheck, hypersurface_branches
from .parse import parse_homog, parse_semigroup, parse_vector_list
from .semigroup import (
    AffineSemigroup,
    fte_bruteforce,
    is_f_nilpotent,
    table_bytes,
    tight_closure_membership_monomial,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INCONSISTENT = 2


class _CliInputError(FrobranchError):
    pass


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
    s_max: int = DEFAULT_S_MAX
    output_format: str = "text"

    def echo(self) -> dict:
        out = {"mode": self.mode, "p": self.p}
        if self.var_names:
            out["vars"] = list(self.var_names)
        if self.relations:
            out["relations"] = list(self.relations)
        for key in ("gens", "ideal", "element"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        # schema-1 keys echoed in every mode, so reports stay byte-identical,
        # and dropped at schema 2 (ROADMAP.md, item 5): ext_s and s_max, at
        # their defaults in the modes that do not take them, and e_max,
        # degree_cap and box_factor, at the defaults of three retired options
        out.update(ext_s=self.ext_s, e_max=12, s_max=self.s_max, degree_cap=64, box_factor=3)
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


class _Option(NamedTuple):
    field: str  # the AnalysisRequest field the flag sets
    kind: object  # int, str, a tuple of the allowed values, or list: a repeatable str
    help: str
    required: bool = False
    least: Optional[int] = None  # the least valid value of an int flag
    default: Optional[str] = None  # None keeps AnalysisRequest's default


# the flags that read the same in every mode that takes them
_FLAGS = {
    "--p": _Option("p", int, "prime characteristic", required=True),
    "--ext-s": _Option("ext_s", int, "scalar extension degree of the base field (default 1)", least=1),
    "--s-max": _Option("s_max", int, f"scalar extension cap of the reduction search (default {DEFAULT_S_MAX})", least=1),
    "--format": _Option("output_format", ("text", "json"), "report format (default text)"),
    "--gens": _Option("gens", str, "semigroup generators, e.g. '3: 2,0,0; 1,1,0' or '2,3'", required=True),
}


def _take(*flags: str) -> dict:
    return {flag: _FLAGS[flag] for flag in flags}


# mode -> (what it answers, the flags it takes: exactly those its answer
# reads); parsing, validation and --help all read this table
_MODES = {
    "branches": ("branch count of a graded quotient ring", {
        **_take("--p", "--ext-s", "--s-max", "--format"),
        "--vars": _Option("var_names", str, "comma-separated variable names", required=True),
        "--rel": _Option("relations", list, "homogeneous relation"),
    }),
    "hypersurface": ("oracle branch count of a plane curve", {
        **_take("--p", "--format"),
        "--vars": _Option("var_names", str, "the two variable names (default x,y)", default="x,y"),
        "--rel": _Option("relations", list, "the squarefree form"),
    }),
    "fnilpotent": ("F-nilpotence of an affine semigroup ring", _take("--p", "--format", "--gens")),
    "fte": ("Frobenius test exponent of a monomial ideal (numerical semigroup)", {
        **_take("--p", "--format", "--gens"),
        "--ideal": _Option("ideal", str, "ideal generators, comma-separated integers", required=True),
    }),
    "tight-member": ("tight closure membership of a monomial", {
        **_take("--p", "--format", "--gens"),
        "--ideal": _Option("ideal", str, "ideal generator vectors, ';' separated", required=True),
        "--element": _Option("element", str, "the candidate exponent vector", required=True),
    }),
}

_HELP_FLAGS = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")
CONFIG_CAP = 1 << 16  # characters of a --config file


def _help(mode: Optional[str] = None) -> str:
    if mode is None:
        lines = [
            "usage: frobranch MODE (--flag VALUE | --flag=VALUE)...",
            "       frobranch --config FILE",
            "",
            "modes:",
            *(f"  {name:<14}{about}" for name, (about, _) in _MODES.items()),
            "",
            "`frobranch MODE --help` lists the flags of a mode.",
        ]
    else:
        about, options = _MODES[mode]
        lines = [f"usage: frobranch {mode} (--flag VALUE | --flag=VALUE)...", "", about, "", "flags:"]
        for flag, option in options.items():
            value = "|".join(option.kind) if isinstance(option.kind, tuple) else "INT" if option.kind is int else "TEXT"
            notes = (("required", option.required), (f">= {option.least}", option.least is not None),
                     ("repeatable", option.kind is list))
            notes = ", ".join(note for note, applies in notes if applies)
            usage = f"{flag} {value}"
            lines.append(f"  {usage:<20}{option.help}" + (f" [{notes}]" if notes else ""))
    return "\n".join(lines) + "\n"


class _HelpRequested(Exception):
    """-h or --help: main prints the help text and exits 0."""


def _value_at(tokens: list[str], i: int, flag: str) -> str:
    """The value of `flag` given as the separate token tokens[i].

    A token that looks like a flag is not a value, so a missing value is
    refused rather than the next flag taken for it; "-", a negative number
    and a token with a space are values.  Any other value that begins with
    "-" is written --flag=VALUE.
    """
    if i < len(tokens):
        token = tokens[i]
        if token[:1] != "-" or len(token) == 1 or " " in token or _NEGATIVE_NUMBER.fullmatch(token):
            return token
    raise _CliInputError(f"{flag} needs a value")


def _read_config(path: str) -> list[str]:
    try:
        with open(path) as fh:
            text = fh.read(CONFIG_CAP + 1)  # a longer file is refused unread
        if len(text) <= CONFIG_CAP:
            return shlex.split(text, comments=True)
    except (OSError, ValueError) as exc:
        raise _CliInputError(f"cannot read --config file: {exc}") from None
    raise _CliInputError(f"--config file is longer than the cap of {CONFIG_CAP} characters")


def _parse_mode(mode: str, tokens: list[str]) -> AnalysisRequest:
    options = _MODES[mode][1]
    values: dict = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token in _HELP_FLAGS:
            raise _HelpRequested(_help(mode))
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None:
            raise _CliInputError(f"{mode} does not take {token!r}")
        if not eq:
            i += 1
            value = _value_at(tokens, i, flag)
        i += 1
        if option.kind is list:
            values.setdefault(option.field, []).append(value)
            continue
        if option.field in values:
            raise _CliInputError(f"{flag} is given twice")
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _CliInputError(f"{flag} needs an integer, got {value!r}") from None
            if option.least is not None and value < option.least:
                raise _CliInputError(f"{flag} must be >= {option.least}, got {value}")
        elif option.kind is not str and value not in option.kind:
            raise _CliInputError(f"{flag} must be one of {', '.join(option.kind)}, got {value!r}")
        values[option.field] = value
    missing = [flag for flag, option in options.items() if option.required and option.field not in values]
    if missing:
        raise _CliInputError(f"{mode} needs {', '.join(missing)}")
    check_characteristic(values["p"])
    for option in options.values():
        if option.default is not None:
            values.setdefault(option.field, option.default)
    if "relations" in values:
        values["relations"] = tuple(values["relations"])
    vars_text = values.pop("var_names", None)
    if vars_text:
        var_names = tuple(v.strip() for v in vars_text.split(","))
        if any(not v.isidentifier() for v in var_names):
            raise _CliInputError(f"invalid variable list {vars_text!r}")
        repeated = next((v for i, v in enumerate(var_names) if v in var_names[:i]), None)
        if repeated is not None:
            raise _CliInputError(f"variable {repeated!r} is repeated in --vars {vars_text!r}")
        values["var_names"] = var_names
    return AnalysisRequest(mode=mode, **values)


def parse_request(argv: Sequence[str]) -> AnalysisRequest:
    tokens = list(argv)
    flag, eq, path = tokens[0].partition("=") if tokens else ("", "", "")
    if flag == "--config":
        if not eq:
            path = _value_at(tokens, 1, flag)
        if len(tokens) > (1 if eq else 2):
            raise _CliInputError("--config must be the only argument")
        tokens = _read_config(path)
        if tokens and tokens[0].partition("=")[0] == "--config":
            raise _CliInputError("a --config file cannot name another --config")
    modes = ", ".join(_MODES)
    if not tokens:
        raise _CliInputError(f"a subcommand is required ({modes})")
    if tokens[0] in _HELP_FLAGS:
        raise _HelpRequested(_help())
    if tokens[0] not in _MODES:
        raise _CliInputError(f"a subcommand must come first ({modes}), got {tokens[0]!r}")
    return _parse_mode(tokens[0], tokens[1:])


TABLE_BYTES = 8 << 20  # what one process keeps between requests, as charged by each entry's charge

V = TypeVar("V")


class SharedTable:
    """Values shared by the requests of one process (module docstring),
    each kept under its key and charged by its charge function, least
    recently used first within TABLE_BYTES; an entry that alone exceeds
    TABLE_BYTES is not kept."""

    def __init__(self):
        self._entries: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self.charged = 0
        self._lock = threading.Lock()

    @contextmanager
    def shared(self, key: Hashable, build: Callable[[], V], charge: Callable[[V], int]) -> Iterator[V]:
        """The value kept under key, or build()'s, for the block; charged
        again and kept after it, whether it returns or raises, since the
        block only ever fills the value's parts completely.  The entry
        leaves the table for the block, so no two blocks share one value;
        of two concurrent blocks on one key the later to end is kept, its
        rival's charge released."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.charged -= entry[1]
        value = build() if entry is None else entry[0]
        try:
            yield value
        finally:
            size = charge(value)
            with self._lock:
                _, charged = self._entries.pop(key, (None, 0))
                self.charged -= charged
                if size <= TABLE_BYTES:
                    self._entries[key] = (value, size)
                    self.charged += size
                while self.charged > TABLE_BYTES:  # never the entry just kept
                    _, (_, size) = self._entries.popitem(last=False)
                    self.charged -= size


_TABLE = SharedTable()


def _run_branches(req: AnalysisRequest) -> AnalysisReport:
    field = PrimeField(req.p) if req.ext_s == 1 else extend_field(PrimeField(req.p), req.ext_s)
    rels = [parse_homog(text, field, req.var_names) for text in req.relations]
    ring = GradedQuotient(field, len(req.var_names), rels, req.var_names)
    with _TABLE.shared(slice_key(ring), lambda: ring.store, store_bytes) as store:
        ring.store = store
        rep = crosscheck(ring, s_max=req.s_max)
    results = dict(vars(rep))
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
    field = PrimeField(req.p)
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


def _semigroup(text: str):
    """The kept semigroup of a --gens, or a new one built on a miss, for
    the request's block."""
    gens = parse_semigroup(text)  # int tuples: never a slice_key, which starts with a field
    return _TABLE.shared(gens, lambda: AffineSemigroup(gens), table_bytes)


def _run_fnilpotent(req: AnalysisRequest) -> AnalysisReport:
    with _semigroup(req.gens) as A:
        report = is_f_nilpotent(A, req.p)
    return AnalysisReport(req.echo(), _fnilpotency_results(report))


def _run_fte(req: AnalysisRequest) -> AnalysisReport:
    with _semigroup(req.gens) as A:
        if A.n != 1:
            raise _CliInputError("fte requires a numerical semigroup (dimension 1)")
        ideal = [v[0] for v in parse_vector_list(req.ideal, 1)]
        report = is_f_nilpotent(A, req.p)
        fte = fte_bruteforce(A, req.p, ideal)
    return AnalysisReport(
        req.echo(),
        {"fte": fte, "e0": report.e0, "verdict": report.verdict, "ideal": ideal},
    )


def _run_tight_member(req: AnalysisRequest) -> AnalysisReport:
    with _semigroup(req.gens) as A:
        ideal = parse_vector_list(req.ideal, A.n)
        element = parse_vector_list(req.element, A.n)
        if len(element) != 1:
            raise _CliInputError("--element must be a single vector")
        report = is_f_nilpotent(A, req.p)
        member = tight_closure_membership_monomial(A, ideal, element[0])
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


_int_repr = int.__repr__  # what json.dumps prints for an int, even a subclass


def _json(value, pad: str) -> str:
    """The bytes of json.dumps(value, sort_keys=True, indent=2), nested
    after `pad`.

    json.dumps takes its pure-Python encoder whenever indent is set; this
    emitter knows the only types a report holds (str keys, no floats) and
    raises TypeError on any other rather than print different bytes.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            v = value[key]
            items.append(
                encode_basestring_ascii(key) + ": "
                + (encode_basestring_ascii(v) if type(v) is str else _int_repr(v) if type(v) is int else _json(v, inner))
            )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            encode_basestring_ascii(v) if type(v) is str else _int_repr(v) if type(v) is int else _json(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    raise TypeError(f"a report cannot hold {type(value).__name__} {value!r}")


def render(report: AnalysisReport, output_format: str) -> str:
    if output_format == "json":
        return _json(report.payload(), "\n") + "\n"
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
    except _HelpRequested as exc:
        sys.stdout.write(str(exc))
        return EXIT_OK
    except (FrobranchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT if isinstance(exc, CertificateFailed) else EXIT_INPUT_ERROR
    sys.stdout.write(render(report, req.output_format))
    if report.reason:
        print(f"error: {report.reason}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
