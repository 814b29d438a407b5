import argparse
import dataclasses
import importlib.util
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from functools import cache, cached_property
from pathlib import Path

import pytest

from frobranch import cli, ffield, graded, oracle, semigroup
from frobranch.errors import CertificateFailed, FrobranchError
from frobranch.ffield import check_characteristic
from frobranch.graded import DEFAULT_S_MAX

PINCHED = "3: 2,0,0; 1,1,0; 1,0,1; 0,2,0; 0,0,2"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_branches_text(capsys):
    code, out, _ = run_cli(["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2"], capsys)
    assert code == 0
    assert "result.branches_formula: 2" in out
    assert "result.oracle_status: match" in out


def test_branches_json_roundtrip(capsys):
    args = ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["results"]["branches_formula"] == 2
    assert payload["results"]["consistent"] is True
    # canonical: re-serializing the parsed structure reproduces the bytes
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_reports_are_byte_identical(capsys):
    args = ["fnilpotent", "--p", "2", "--gens", PINCHED, "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_fnilpotent_positive(capsys):
    code, out, _ = run_cli(["fnilpotent", "--p", "2", "--gens", PINCHED, "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "f-nilpotent"
    assert results["e0"] == 1


def test_fnilpotent_negative(capsys):
    code, out, _ = run_cli(["fnilpotent", "--p", "5", "--gens", PINCHED, "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "not-f-nilpotent"
    assert results["witness"] == [0, 1, 1]
    assert results["certificate"]["torsion_order"] == 2


def test_fnilpotent_takes_no_exponent_cap(capsys):
    # --e-max 0 made the pinched Veronese undetermined at p = 2; its e0 = 1
    # is exact, and the cap is refused as a flag fnilpotent does not take
    code, out, _ = run_cli(["fnilpotent", "--p", "2", "--gens", PINCHED], capsys)
    assert code == 0
    assert "result.verdict: f-nilpotent" in out and "result.e0: 1" in out
    code, out, err = run_cli(["fnilpotent", "--p", "2", "--e-max", "0", "--gens", PINCHED], capsys)
    assert code == 1 and out == ""
    assert err == "error: fnilpotent does not take '--e-max'\n"


def test_fte_command(capsys):
    code, out, _ = run_cli(["fte", "--p", "2", "--gens", "2,3", "--ideal", "3", "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["fte"] == 1 and results["e0"] == 1


def test_tight_member_command(capsys):
    base = ["tight-member", "--p", "2", "--gens", "2,3", "--ideal", "3", "--format", "json"]
    code, out, _ = run_cli(base + ["--element", "4"], capsys)
    assert code == 0 and json.loads(out)["results"]["member"] is True
    code, out, _ = run_cli(base + ["--element", "2"], capsys)
    assert code == 0 and json.loads(out)["results"]["member"] is False


def test_tight_member_needs_no_walk_at_e0(capsys):
    # e0 = 24, and (2,2) - (0,1) = (2,1) lies in the saturation, not in A:
    # the bracket test at e0 walked at 2^24 * (2,1)
    base = ["tight-member", "--p", "2", "--gens", "2: 5000,0; 5001,0; 0,1; 1,1", "--format", "json"]
    start = time.perf_counter()
    for ideal, element, member in (("0,1", "2,2", True), ("1,1", "0,1", False), ("1,1", "5001,1", True)):
        code, out, _ = run_cli(base + ["--ideal", ideal, "--element", element], capsys)
        results = json.loads(out)["results"]
        assert code == 0 and results["member"] is member and results["e0"] == 24, (ideal, element)
    assert time.perf_counter() - start < 1


def test_tight_member_answers_on_a_ring_that_is_not_f_nilpotent(capsys):
    # (1,1,2) - (0,0,2) = (1,1,0) lies in the cone of A but outside A, with
    # order 2 modulo the lattice of its face: in I*, not in I^F at p = 3
    args = ["tight-member", "--p", "3", "--gens", "3: 2,0,0; 0,2,0; 0,0,2; 1,0,1; 0,1,1",
            "--ideal", "0,0,2", "--element", "1,1,2"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    assert {"result.member: true", "result.e0: -", "result.verdict: not-f-nilpotent"} <= set(out.splitlines())
    code, out, _ = run_cli(args + ["--format", "json"], capsys)
    results = json.loads(out)["results"]
    assert code == 0 and results["member"] is True and results["e0"] is None


def test_large_numerical_semigroup_is_exact(capsys):
    # e0 = 30; a gap table of max(gens)^2 entries would not fit in memory
    start = time.perf_counter()
    code, out, _ = run_cli(["fnilpotent", "--p", "2", "--gens", "30000,30001", "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "f-nilpotent" and results["e0"] == 30
    assert time.perf_counter() - start < 2


def test_oversized_numerical_semigroup_is_refused(capsys):
    least = semigroup.APERY_CAP + 1
    start = time.perf_counter()
    code, out, err = run_cli(["fnilpotent", "--p", "2", "--gens", f"{least},{least + 1}"], capsys)
    assert code == 1 and out == ""
    assert str(semigroup.APERY_CAP) in err
    assert time.perf_counter() - start < 2


def test_oversized_saturation_box_is_refused(capsys):
    # box sides 101: 102^3 = 1061208 points, refused before enumeration
    start = time.perf_counter()
    code, out, err = run_cli(["fnilpotent", "--p", "2", "--gens", "3: 100,0,0; 0,100,0; 0,0,100; 1,1,1"], capsys)
    assert code == 1 and out == ""
    assert str(semigroup.BOX_VOLUME_CAP) in err
    assert time.perf_counter() - start < 2


# walks up to 94 memo entries at p = 2, e0 = 6
_WALKED = "2: 10,0; 11,0; 10,20; 11,22; 21,21"


def test_walk_past_its_budget_is_refused(monkeypatch, capsys):
    budget, entry = semigroup.WALK_BYTES, 5 * semigroup.SLOT_BYTES
    monkeypatch.setattr(semigroup, "WALK_BYTES", 50 * entry)
    argv = ["fnilpotent", "--p", "2", "--gens", _WALKED, "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: the membership walk at ") and f"walk budget of {50 * entry} bytes" in err
    # the refused walk left only decided memo entries in the kept semigroup
    assert ((10, 0), (10, 20), (11, 0), (11, 22), (21, 21)) in cli._TABLE._entries
    monkeypatch.setattr(semigroup, "WALK_BYTES", budget)
    code, warm, _ = run_cli(argv, capsys)
    cli._TABLE = cli.SharedTable()  # restored by the autouse fixture
    assert (code, warm) == run_cli(argv, capsys)[:2]
    assert json.loads(warm)["results"]["e0"] == 6


def _under_ceiling(argv, budget, setup=""):
    """Run the statements setup, then argv through cli.main, in a child
    process whose address space is capped at its size after import plus
    budget bytes (RLIMIT_AS, which acts on the child alone)."""
    probe = (
        "import resource, sys\n"
        "from frobranch import cli, semigroup\n"
        f"{setup}"
        "size = next(int(line.split()[1]) * 1024 for line in open('/proc/self/status') if line.startswith('VmSize:'))\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-c", probe, str(budget), *argv], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the address space size from /proc")
def test_walk_budget_holds_under_an_address_space_ceiling():
    # the walk at 2^13 * (1,1) would add 2.64 M memo entries; a 16 MiB walk
    # budget refuses it within about 1 s, and the child's ceiling is its
    # size after import plus that budget
    argv = ["fnilpotent", "--p", "2", "--gens", "2: 100,0; 101,0; 100,200; 101,202; 201,201"]
    done = _under_ceiling(argv, 16 << 20, "semigroup.WALK_BYTES = 16 << 20\n")
    assert done.returncode == 1 and done.stdout == "", done.stderr
    assert done.stderr.startswith("error: the membership walk at ") and "Traceback" not in done.stderr
    assert f"walk budget of {16 << 20} bytes" in done.stderr


# (input just above a cap, the cap, and the bytes the cap states it bounds,
# which the child gets above its size after import)
_CAPPED = {
    # one echelon of CAP x CAP float64 digits, beside one block of at most
    # CAP Macaulay rows as int64 codes and float64 digits
    "SLICE_COLUMN_CAP": (
        ["branches", "--p", "2", "--vars", ",".join(f"x{i}" for i in range(1, 1502)), "--rel", "x1*x2"],
        graded.SLICE_COLUMN_CAP, 3 * 8 * graded.SLICE_COLUMN_CAP ** 2,
    ),
    # the q x D x D int64 scalar matrices, D at most MAX_EXTENSION_DEGREE;
    # 67^2 = 4489 is the least prime power above 4096 of degree 2 to 8
    "MAX_TABLE_ORDER": (
        ["branches", "--p", "67", "--ext-s", "2", "--vars", "x,y", "--rel", "x*y"],
        ffield.MAX_TABLE_ORDER, 8 * ffield.MAX_TABLE_ORDER * ffield.MAX_EXTENSION_DEGREE ** 2,
    ),
    # the int64 Apery list, one entry per residue of the least generator
    "APERY_CAP": (
        ["fnilpotent", "--p", "2", "--gens", f"{semigroup.APERY_CAP + 1},{semigroup.APERY_CAP + 2}"],
        semigroup.APERY_CAP, 8 * semigroup.APERY_CAP,
    ),
    # the box's int64 coordinates, at most DIMENSION_CAP per point; sides
    # 58 give 59^3 = 205379 points, sides 57 give 58^3 = 195112
    "BOX_VOLUME_CAP": (
        ["fnilpotent", "--p", "2", "--gens", "3: 58,0,0; 0,58,0; 0,0,58; 1,1,1"],
        semigroup.BOX_VOLUME_CAP, 8 * semigroup.DIMENSION_CAP * semigroup.BOX_VOLUME_CAP,
    ),
    # the window's integers as int64; Frobenius number 1, so the window
    # [2, cap + 2] holds cap + 1 of them
    "FTE_WINDOW_CAP": (
        ["fte", "--p", "2", "--gens", "2,3", "--ideal", f"2;{semigroup.FTE_WINDOW_CAP}"],
        semigroup.FTE_WINDOW_CAP, 8 * semigroup.FTE_WINDOW_CAP,
    ),
    # the file's characters, at most 4 bytes each in a str; the argv names
    # a file of cap + 1 characters written by the test
    "CONFIG_CAP": (["--config"], cli.CONFIG_CAP, 4 * (cli.CONFIG_CAP + 1)),
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the address space size from /proc")
@pytest.mark.parametrize("name", list(_CAPPED))
def test_every_cap_holds_under_an_address_space_ceiling(name, tmp_path):
    argv, cap, budget = _CAPPED[name]
    if name == "CONFIG_CAP":
        cfg = tmp_path / "request.cfg"
        request = "fnilpotent --p 2 --gens 2,3\n"
        cfg.write_text(request + "#" * (cli.CONFIG_CAP + 1 - len(request)))
        argv = argv + [str(cfg)]
    done = _under_ceiling(argv, budget)
    assert done.returncode == 1 and done.stdout == "", done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert str(cap) in done.stderr


def test_saturation_box_below_the_cap_is_answered(capsys):
    # box sides 41: 42^3 = 74088 points; a box of 3 * 40 per side was not
    # enumerated within 20 s
    start = time.perf_counter()
    args = ["fnilpotent", "--p", "2", "--gens", "3: 40,0,0; 0,40,0; 0,0,40; 1,1,1", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "f-nilpotent" and results["e0"] == 0
    assert results["hilbert_basis"] == [[0, 0, 40], [0, 40, 0], [1, 1, 1], [40, 0, 0]]
    assert time.perf_counter() - start < 2


def test_oversized_fte_window_is_refused(capsys):
    # Frobenius number 1: the window [2, cap + 2] holds cap + 1 integers
    start = time.perf_counter()
    ideal = f"2;{semigroup.FTE_WINDOW_CAP}"
    code, out, err = run_cli(["fte", "--p", "2", "--gens", "2,3", "--ideal", ideal], capsys)
    assert code == 1 and out == ""
    assert f"holds {semigroup.FTE_WINDOW_CAP + 1} integers" in err
    assert str(semigroup.FTE_WINDOW_CAP) in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "args",
    [
        ["fnilpotent", "--p", "2", "--gens", "4,6,9"],
        ["fnilpotent", "--p", "3", "--gens", "4,6"],
        ["fte", "--p", "3", "--gens", "5,7", "--ideal", "10;12"],
        ["tight-member", "--p", "2", "--gens", "2,3", "--ideal", "3", "--element", "4"],
    ],
)
def test_numerical_requests_take_no_snf(args, monkeypatch, capsys):
    # the gcd of a numerical semigroup stands in for its lattice
    calls = []
    snf = semigroup.smith_normal_form
    monkeypatch.setattr(semigroup, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    code, _, _ = run_cli(args, capsys)
    assert code == 0 and calls == []


def test_wrong_fte_maximum_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(semigroup, "frobenius_closure_exponent", lambda *args: None)
    code, out, err = run_cli(["fte", "--p", "2", "--gens", "2,3", "--ideal", "3"], capsys)
    assert code == 2 and out == ""
    assert "is not the computed Fte 1" in err


def test_two_dimensional_ring_is_refused(capsys):
    # k[x,y,z]/(xy) has HF(d) = 2d+1: no regularity certificate exists, and
    # the degree bound 4*max(D,1)*n = 24 ends the search
    start = time.perf_counter()
    code, out, err = run_cli(["branches", "--p", "3", "--vars", "x,y,z", "--rel", "x*y"], capsys)
    assert code == 1 and out == ""
    assert "no regularity certificate below degree 24" in err
    assert time.perf_counter() - start < 2


def test_oversized_slice_is_refused(capsys):
    # a plane and six lines: x1..x8 with every xi*xj except x1*x2, so
    # HF(d) = d + 7 grows until the degree-6 slice (1716 columns) is refused
    names = [f"x{i}" for i in range(1, 9)]
    args = ["branches", "--p", "2", "--vars", ",".join(names)]
    for i in range(8):
        for j in range(i + 1, 8):
            if (i, j) != (0, 1):
                args += ["--rel", f"{names[i]}*{names[j]}"]
    start = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert "1716 columns" in err and str(graded.SLICE_COLUMN_CAP) in err
    assert time.perf_counter() - start < 2


def test_oversized_rank_test_is_refused(capsys):
    # over GF(2^8) the search reaches x + u*y, whose rank test at degree 200
    # has 200 standard columns of 8 GF(2) digits each, though the slices
    # lie over GF(2); at degree 100 the 800 digit columns are answered
    args = ["branches", "--p", "2", "--ext-s", "8", "--vars", "x,y", "--rel"]
    start = time.perf_counter()
    code, out, err = run_cli(args + ["x^200+y^200"], capsys)
    assert code == 1 and out == ""
    assert "200 standard columns of 8 GF(2) digits" in err and str(graded.SLICE_COLUMN_CAP) in err
    assert time.perf_counter() - start < 2
    code, out, err = run_cli(args + ["x^100+y^100"], capsys)
    assert code == 2 and "not reduced" in err
    assert out == (
        "mode: branches\nrequest.box_factor: 3\nrequest.degree_cap: 64\nrequest.e_max: 12\n"
        "request.ext_s: 8\nrequest.p: 2\nrequest.relations: [x^100+y^100]\nrequest.s_max: 3\n"
        "request.vars: [x, y]\nresult.branches_formula: 100\nresult.branches_multiplicity: 100\n"
        "result.consistent: true\nresult.dim_quotient: 99\nresult.n_used: 99\n"
        "result.oracle_branches: -\nresult.oracle_status: no-oracle\n"
        "result.reduction_form: (1, 0, 0, 0, 0, 0, 0, 0)*x + (0, 1, 0, 0, 0, 0, 0, 0)*y\n"
        "result.reduction_scalar_extension: 1\ndiag.reducedness: not-reduced\n"
    )


@pytest.mark.parametrize("p, rel", [(2, "x^2*y + x*y^2"), (7, "x^7*y - x*y^7")])
def test_no_reduction_below_s_max_is_refused(p, rel, capsys):
    # every GF(p)-line divides x^p*y - x*y^p, so no form over GF(p)
    # certifies; Gotzmann persistence proves HF stable at degree p+1
    start = time.perf_counter()
    code, out, err = run_cli(
        ["branches", "--p", str(p), "--s-max", "1", "--vars", "x,y", "--rel", rel], capsys
    )
    assert code == 1 and out == ""
    assert "no linear reduction found with scalar extension degree <= 1" in err
    assert time.perf_counter() - start < 2


def test_vanishing_power_is_refused(capsys):
    # k[x,y]/(x^2, y^2) is Artinian: (x+y)^3 = 0 because HF(3) = 0, which
    # is refused as zero-dimensional, not blamed on reducedness
    start = time.perf_counter()
    code, out, err = run_cli(
        ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2", "--rel", "y^2"], capsys
    )
    assert code == 1 and out == ""
    assert err == "error: the ring is zero-dimensional: HF(d) = 0 for d >= 3\n"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("args, degree", [
    (["--vars", "x,y", "--rel", "x", "--rel", "y"], 1),
    (["--vars", "x", "--rel", "x"], 1),
    (["--vars", "x,y", "--rel", "x^2", "--rel", "y^2"], 3),
])
def test_zero_dimensional_ring_is_refused(args, degree, capsys):
    code, out, err = run_cli(["branches", "--p", "5"] + args, capsys)
    assert code == 1 and out == ""
    assert err == f"error: the ring is zero-dimensional: HF(d) = 0 for d >= {degree}\n"


@pytest.mark.parametrize("option", ["--box-factor=3", "--degree-cap=64"])
def test_retired_options_are_input_errors(option, capsys):
    code, out, _ = run_cli(["fnilpotent", "--p", "2", "--gens", "2,3", option], capsys)
    assert code == 1 and out == ""


def test_composite_characteristic_is_input_error(capsys):
    code, _, err = run_cli(["branches", "--p", "4", "--vars", "x,y", "--rel", "x^2+y^2"], capsys)
    assert code == 1
    assert "prime" in err


def test_parse_error_is_input_error(capsys):
    code, _, err = run_cli(["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y"], capsys)
    assert code == 1
    assert "degree" in err


def test_missing_subcommand(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "subcommand" in err


def test_unknown_mode_is_input_error(capsys):
    code, _, err = run_cli(["frobenius-split", "--p", "2"], capsys)
    assert code == 1


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "request.cfg"
    cfg.write_text("branches --p 3 --vars x,y --rel x^2+y^2 --format json\n")
    code, out, _ = run_cli(["--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["branches_formula"] == 2


def test_mismatch_exit_code(monkeypatch, capsys):
    # force the oracle to disagree: the formula-vs-oracle conflict must be
    # reported with the dedicated exit code, not a crash
    monkeypatch.setattr(oracle, "oracle_branch_count", lambda R: 17)
    code, out, err = run_cli(
        ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2", "--format", "json"], capsys
    )
    assert code == 2
    results = json.loads(out)["results"]
    assert results["oracle_status"] == "mismatch"
    assert results["consistent"] is False
    assert err.strip() == "error: the branch counts disagree"


@pytest.mark.parametrize("spec", [
    ["--vars", "x,y", "--rel", "x^2*y"],                      # 3 by multiplicity, 2 branches
    ["--vars", "x,y,z", "--rel", "x*y", "--rel", "z^2"],      # 4 by multiplicity, 2 branches
    ["--vars", "x,y", "--rel", "x^3+x^2*y"],                  # 3 by multiplicity, 2 branches
])
def test_non_reduced_ring_exits_2_with_reason(spec, capsys):
    code, out, err = run_cli(["branches", "--p", "5", *spec], capsys)
    assert code == 2
    assert "diag.reducedness: not-reduced" in out
    assert "result.oracle_status: no-oracle" in out
    assert err.count("\n") == 1 and "multiplicity, not its branches" in err


def test_ext_s_field(capsys):
    code, out, _ = run_cli(
        ["branches", "--p", "3", "--ext-s", "2", "--vars", "x,y", "--rel", "x^2+y^2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["branches_formula"] == 2


def test_gf_p_coded_extension_request_builds_no_field_tables(monkeypatch):
    # a GF(p)-coded request over GF(5^3) stays in GF(5): slices, reduction
    # form, plane-curve count and power vector; sums need no table, and the
    # field's one table, mats, comes with its first product, built once
    opened, builds = [], []
    build = ffield.ExtensionField.mats.func
    counted = cached_property(lambda self: builds.append(self) or build(self))
    counted.__set_name__(ffield.ExtensionField, "mats")
    monkeypatch.setattr(ffield.ExtensionField, "mats", counted)

    def extend_fresh(field, s):  # past extend_field's cache, so the field is new
        opened.append(ffield.extend_field.__wrapped__(field, s))
        return opened[-1]

    monkeypatch.setattr(cli, "extend_field", extend_fresh)
    argv = ["branches", "--p", "5", "--ext-s", "3", "--vars", "x,y", "--rel", "x^2*y+x*y^2"]
    report = cli.run(cli.parse_request(argv))
    assert report.exit_code == 0 and report.results["branches_formula"] == 3
    (field,) = opened
    # equality and hashing read the modulus only
    assert field == ffield.extend_field(field.base, 3) and hash(field) == hash(ffield.extend_field(field.base, 3))
    assert field.order == 125 and builds == [] and "mats" not in field.__dict__
    # u + 4u, -u = 4u, 4u - u = 3u
    assert field.add(5, 20) == 0 and field.neg(5) == 20 and field.sub(20, 5) == 15
    assert builds == [] and "mats" not in field.__dict__
    assert field.mul(5, 5) == 25  # u * u
    assert builds == [field] and "mats" in field.__dict__
    assert field.mul(5, field.inv(5)) == 1 and field.pow(5, 124) == 1
    assert builds == [field]


# reduction forms off the prime field, recorded before codes replaced
# FieldElement; the last one is over the tower GF(2^2) -> GF((2^2)^2)
GOLDEN_EXTENSION_REPORTS = [
    (
        ["--p", "5", "--ext-s", "2", "--vars", "x,y,z", "--rel", "x*y", "--rel", "x*z", "--rel", "y*z"],
        {"reduction_form": "(1, 0)*x + (1, 0)*y + (1, 0)*z", "reduction_scalar_extension": 1,
         "branches_formula": 3, "n_used": 1},
    ),
    (
        ["--p", "3", "--vars", "x,y", "--rel", "x^3*y+2*x*y^3"],
        {"reduction_form": "(1, 0)*x + (0, 1)*y", "reduction_scalar_extension": 2,
         "branches_formula": 4, "n_used": 3},
    ),
    (
        ["--p", "2", "--ext-s", "2", "--vars", "x,y", "--rel", "x^4*y+x*y^4"],
        {"reduction_form": "((1, 0), (0, 0))*x + ((0, 0), (1, 0))*y", "reduction_scalar_extension": 2,
         "branches_formula": 5, "n_used": 4},
    ),
]


@pytest.mark.parametrize("args,expected", GOLDEN_EXTENSION_REPORTS)
def test_extension_reduction_form_golden(args, expected, capsys):
    code, out, _ = run_cli(["branches"] + args + ["--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert {k: results[k] for k in expected} == expected
    assert results["consistent"] is True


# a cone of rank 2 in three variables, whose span equation enters every
# cone test
RANK_TWO = "3: 3,0,3; 0,3,3; 1,2,3"

# --format json reports kept as compact canonical JSON: the pinched Veronese
# at p = 2 and p = 3, a (2,2)-vertex-pinched cubic Veronese in 3 variables
# at p = 2 and a 2-vertex-pinched quadric Veronese in 4 variables at p = 3,
# recorded before the saturation box was derived from the generators; and
# RANK_TWO at p = 2 and p = 3, recorded before the span equations were read
# off the lattice's Smith normal form
GOLDEN_SEMIGROUP_REPORTS = [
    (
        ["--p", "2", "--gens", PINCHED],
        '{"diagnostics":{},"request":{"box_factor":3,"degree_cap":64,"e_max":12,"ext_s":1,'
        '"gens":"3: 2,0,0; 1,1,0; 1,0,1; 0,2,0; 0,0,2","mode":"fnilpotent","p":2,"s_max":3},'
        '"results":{"certificate":null,"e0":1,"hilbert_basis":[[0,0,2],[0,1,1],[0,2,0],[1,0,1],'
        '[1,1,0],[2,0,0]],"per_element":{"0,0,2":{"e":0,"status":"yes"},"0,1,1":{"e":1,"status":"yes"},'
        '"0,2,0":{"e":0,"status":"yes"},"1,0,1":{"e":0,"status":"yes"},"1,1,0":{"e":0,"status":"yes"},'
        '"2,0,0":{"e":0,"status":"yes"}},"verdict":"f-nilpotent","witness":null},"schema_version":"1"}',
    ),
    (
        ["--p", "3", "--gens", PINCHED],
        '{"diagnostics":{},"request":{"box_factor":3,"degree_cap":64,"e_max":12,"ext_s":1,'
        '"gens":"3: 2,0,0; 1,1,0; 1,0,1; 0,2,0; 0,0,2","mode":"fnilpotent","p":3,"s_max":3},'
        '"results":{"certificate":{"face_generators":[[0,0,2],[0,2,0]],"torsion_order":2,'
        '"vanishing_facets":[[1,0,0]]},"e0":null,"hilbert_basis":[[0,0,2],[0,1,1],[0,2,0],[1,0,1],'
        '[1,1,0],[2,0,0]],"per_element":{"0,0,2":{"e":0,"status":"yes"},"0,1,1":{"e":null,"status":"no"},'
        '"0,2,0":{"e":0,"status":"yes"},"1,0,1":{"e":0,"status":"yes"},"1,1,0":{"e":0,"status":"yes"},'
        '"2,0,0":{"e":0,"status":"yes"}},"verdict":"not-f-nilpotent","witness":[0,1,1]},'
        '"schema_version":"1"}',
    ),
    (
        ["--p", "2", "--gens", "3: 1,0,2; 1,1,1; 0,0,6; 9,0,0; 6,0,0; 0,3,0; 0,2,1; 2,0,1; 0,1,2; 0,0,9; 2,1,0; 1,2,0"],
        '{"diagnostics":{},"request":{"box_factor":3,"degree_cap":64,"e_max":12,"ext_s":1,'
        '"gens":"3: 1,0,2; 1,1,1; 0,0,6; 9,0,0; 6,0,0; 0,3,0; 0,2,1; 2,0,1; 0,1,2; 0,0,9; 2,1,0; 1,2,0",'
        '"mode":"fnilpotent","p":2,"s_max":3},"results":{"certificate":null,"e0":1,"hilbert_basis":'
        '[[0,0,3],[0,1,2],[0,2,1],[0,3,0],[1,0,2],[1,1,1],[1,2,0],[2,0,1],[2,1,0],[3,0,0]],'
        '"per_element":{"0,0,3":{"e":1,"status":"yes"},"0,1,2":{"e":0,"status":"yes"},'
        '"0,2,1":{"e":0,"status":"yes"},"0,3,0":{"e":0,"status":"yes"},"1,0,2":{"e":0,"status":"yes"},'
        '"1,1,1":{"e":0,"status":"yes"},"1,2,0":{"e":0,"status":"yes"},"2,0,1":{"e":0,"status":"yes"},'
        '"2,1,0":{"e":0,"status":"yes"},"3,0,0":{"e":1,"status":"yes"}},"verdict":"f-nilpotent",'
        '"witness":null},"schema_version":"1"}',
    ),
    (
        ["--p", "3", "--gens",
         "4: 1,0,0,1; 0,0,1,1; 1,0,1,0; 1,1,0,0; 0,4,0,0; 0,0,0,2; 0,6,0,0; 2,0,0,0; 0,1,1,0; 0,1,0,1; 0,0,2,0"],
        '{"diagnostics":{},"request":{"box_factor":3,"degree_cap":64,"e_max":12,"ext_s":1,'
        '"gens":"4: 1,0,0,1; 0,0,1,1; 1,0,1,0; 1,1,0,0; 0,4,0,0; 0,0,0,2; 0,6,0,0; 2,0,0,0; 0,1,1,0; '
        '0,1,0,1; 0,0,2,0","mode":"fnilpotent","p":3,"s_max":3},"results":{"certificate":null,"e0":1,'
        '"hilbert_basis":[[0,0,0,2],[0,0,1,1],[0,0,2,0],[0,1,0,1],[0,1,1,0],[0,2,0,0],[1,0,0,1],'
        '[1,0,1,0],[1,1,0,0],[2,0,0,0]],"per_element":{"0,0,0,2":{"e":0,"status":"yes"},'
        '"0,0,1,1":{"e":0,"status":"yes"},"0,0,2,0":{"e":0,"status":"yes"},"0,1,0,1":{"e":0,"status":"yes"},'
        '"0,1,1,0":{"e":0,"status":"yes"},"0,2,0,0":{"e":1,"status":"yes"},"1,0,0,1":{"e":0,"status":"yes"},'
        '"1,0,1,0":{"e":0,"status":"yes"},"1,1,0,0":{"e":0,"status":"yes"},"2,0,0,0":{"e":0,"status":"yes"}},'
        '"verdict":"f-nilpotent","witness":null},"schema_version":"1"}',
    ),
    (
        ["--p", "2", "--gens", RANK_TWO],
        '{"diagnostics":{},"request":{"box_factor":3,"degree_cap":64,"e_max":12,"ext_s":1,'
        '"gens":"3: 3,0,3; 0,3,3; 1,2,3","mode":"fnilpotent","p":2,"s_max":3},'
        '"results":{"certificate":null,"e0":1,"hilbert_basis":[[0,3,3],[1,2,3],[2,1,3],[3,0,3]],'
        '"per_element":{"0,3,3":{"e":0,"status":"yes"},"1,2,3":{"e":0,"status":"yes"},'
        '"2,1,3":{"e":1,"status":"yes"},"3,0,3":{"e":0,"status":"yes"}},"verdict":"f-nilpotent",'
        '"witness":null},"schema_version":"1"}',
    ),
    (
        ["--p", "3", "--gens", RANK_TWO],
        '{"diagnostics":{},"request":{"box_factor":3,"degree_cap":64,"e_max":12,"ext_s":1,'
        '"gens":"3: 3,0,3; 0,3,3; 1,2,3","mode":"fnilpotent","p":3,"s_max":3},'
        '"results":{"certificate":null,"e0":1,"hilbert_basis":[[0,3,3],[1,2,3],[2,1,3],[3,0,3]],'
        '"per_element":{"0,3,3":{"e":0,"status":"yes"},"1,2,3":{"e":0,"status":"yes"},'
        '"2,1,3":{"e":1,"status":"yes"},"3,0,3":{"e":0,"status":"yes"}},"verdict":"f-nilpotent",'
        '"witness":null},"schema_version":"1"}',
    ),
]


@pytest.mark.parametrize("args,golden", GOLDEN_SEMIGROUP_REPORTS)
def test_semigroup_report_golden(args, golden, capsys):
    code, out, _ = run_cli(["fnilpotent"] + args + ["--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(golden), sort_keys=True, indent=2) + "\n"


_MODE_ARGS = {
    "branches": ["--vars", "x,y", "--rel", "x*y"],
    "hypersurface": ["--rel", "x*y"],
    "fnilpotent": ["--gens", "2,3"],
    "fte": ["--gens", "2,3", "--ideal", "3"],
    "tight-member": ["--gens", "2,3", "--ideal", "3", "--element", "4"],
}


@pytest.mark.parametrize("p", [0, 1, 4, -3, 2**61 - 1])
@pytest.mark.parametrize("mode", sorted(_MODE_ARGS))
def test_invalid_characteristic_rejected_in_every_mode(mode, p, capsys):
    start = time.perf_counter()
    code, out, err = run_cli([mode, f"--p={p}"] + _MODE_ARGS[mode], capsys)
    assert code == 1 and out == ""
    assert "prime" in err or "cap" in err
    assert time.perf_counter() - start < 2


def test_failed_certificate_exit_code(monkeypatch, capsys):
    # a Smith normal form whose transforms fail the unimodularity check is
    # an inconsistency, not an input error
    monkeypatch.setattr(semigroup, "_det", lambda m: 2)
    code, out, err = run_cli(["fnilpotent", "--p", "2", "--gens", PINCHED], capsys)
    assert code == 2 and out == ""
    assert "unimodular" in err


@pytest.mark.parametrize("forged", [3, 6])
def test_forged_torsion_order_exit_code(forged, monkeypatch, capsys):
    # every torsion order behind a "no" is rechecked by lattice solves, so
    # a wrong one is an inconsistency, not a verdict; 6 is a multiple of
    # every true order here, so only the minimality check can refuse it
    monkeypatch.setattr(semigroup, "_torsion_order", lambda *args: forged)
    code, out, err = run_cli(["fnilpotent", "--p", "2", "--gens", PINCHED], capsys)
    assert code == 2 and out == ""
    assert "face lattice" in err


_BAD_CONFIGS = {
    # case: (file text or None for no file, tokens after the file, error text)
    "missing file": (None, [], "cannot read --config file"),
    "unbalanced quote": ("branches --p 3 --vars x,y --rel 'x^2+y^2\n", [], "cannot read --config file"),
    "nested --config": ("--config {cfg}\n", [], "cannot name another --config"),
    "tokens after the file": (
        "branches --p 3 --vars x,y --rel x^2+y^2\n",
        ["branches", "--p", "5", "--vars", "x,y", "--rel", "x*y"],
        "--config must be the only argument",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_bad_config_is_input_error(case, tmp_path, capsys):
    text, after, message = _BAD_CONFIGS[case]
    cfg = tmp_path / "request.cfg"
    if text is not None:
        cfg.write_text(text.format(cfg=cfg))
    start = time.perf_counter()
    code, out, err = run_cli(["--config", str(cfg)] + after, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert time.perf_counter() - start < 2


def test_repeated_variable_is_input_error(capsys):
    # every x was read as the second variable, so the non-reduced ring
    # k[x1,x2]/(x2^2) got a confident branches_formula: 2
    code, out, err = run_cli(["branches", "--p", "3", "--vars", "x,x", "--rel", "x^2+x*x"], capsys)
    assert code == 1 and out == ""
    assert "variable 'x' is repeated" in err


@pytest.mark.parametrize(
    "mode, flag, value, least",
    [("branches", "--ext-s", -3, 1), ("branches", "--s-max", 0, 1), ("branches", "--ext-s", 0, 1)],
)
def test_out_of_range_numeric_option_is_input_error(mode, flag, value, least, capsys):
    # --s-max 0 and --ext-s 0 failed later with messages about the search
    # or the field
    code, out, err = run_cli([mode, "--p", "2", flag, str(value)] + _MODE_ARGS[mode], capsys)
    assert code == 1 and out == ""
    assert f"{flag} must be >= {least}, got {value}" in err


def test_cli_does_not_import_argparse():
    # requests are parsed from the _MODES table, so no CLI process pays
    # for importing argparse or building its parser
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = "import sys, frobranch.cli; sys.exit('argparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0


def test_reused_parser_keeps_no_state_between_requests():
    first = cli.parse_request(["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2"])
    second = cli.parse_request(["branches", "--p", "3", "--vars", "x,y", "--rel", "x*y"])
    assert first.relations == ("x^2+y^2",)
    assert second.relations == ("x*y",)


@pytest.mark.parametrize(
    "command, line",
    [("branches", "result.oracle_branches: 3"), ("hypersurface", "result.branches: 3")],
    ids=["branches", "hypersurface"],
)
def test_plane_curve_request_decomposes_once(command, line, monkeypatch, capsys):
    # the squarefree verdict, the oracle's root count and the reducedness
    # diagnostic share one decomposition of f(1, t); every other module
    # reaches it through ffield.distinct_root_count
    calls = []
    original = ffield.squarefree_decomposition

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(ffield, "squarefree_decomposition", counting)
    # x*(x^2 + y^2) = x*(x + 2y)*(x - 2y) over GF(5), with the point at infinity
    code, out, _ = run_cli([command, "--p", "5", "--vars", "x,y", "--rel", "x^3+x*y^2"], capsys)
    assert code == 0 and line in out
    if command == "branches":
        assert "diag.reducedness: verified-squarefree" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "rels, branches",
    [(["x*y"], 2), (["x^2-5*y*z", "y^2-7*x*z"], 4)],
)
def test_largest_prime_is_answered(rels, branches, capsys):
    # the reduction search materialised range(1, p) and raised MemoryError
    names = "x,y" if len(rels) == 1 else "x,y,z"
    args = ["branches", "--p", "2147483647", "--vars", names, "--format", "json"]
    for rel in rels:
        args += ["--rel", rel]
    start = time.perf_counter()
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["results"]["branches_formula"] == branches
    assert time.perf_counter() - start < 2


def test_fte_refuses_ideal_outside_the_semigroup(capsys):
    # 1 is a gap of <2,3>; fte answered "fte: 1" where tight-member refuses
    for mode, extra in (("fte", []), ("tight-member", ["--element", "4"])):
        code, out, err = run_cli([mode, "--p", "2", "--gens", "2,3", "--ideal", "1"] + extra, capsys)
        assert code == 1 and out == ""
        assert "ideal generator (1,) is not in the semigroup" in err


def test_hypersurface_refuses_forms_that_define_no_curve(capsys):
    code, out, err = run_cli(["hypersurface", "--p", "3", "--rel", "1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: the constant 1 defines no curve\n"
    for rel in ("0", "3*x*y"):  # 3*x*y vanishes at p = 3
        code, out, err = run_cli(["hypersurface", "--p", "3", "--rel", rel], capsys)
        assert code == 1 and out == ""
        assert err == "error: the zero form defines no curve\n"


def test_repeated_factor_is_named_in_the_request_variables(capsys):
    code, out, err = run_cli(["hypersurface", "--p", "3", "--rel", "x^2*y"], capsys)
    assert code == 1 and out == ""
    assert err == "error: x^2*y has a repeated factor\n"
    code, out, err = run_cli(["hypersurface", "--p", "3", "--vars", "u,v", "--rel", "u*v^2"], capsys)
    assert code == 1 and err == "error: u*v^2 has a repeated factor\n"


@pytest.mark.parametrize("args, message", [
    (["fnilpotent", "--gens", "0"],
     "parse error at position 0: expected valid generators (need at least one nonzero generator)"),
    (["fnilpotent", "--gens", "2:1,0;1"], "parse error at position 7: expected a vector of 2 coordinates, got 1"),
    (["fnilpotent", "--gens", "0:1"], "parse error at position 0: expected an ambient dimension >= 1"),
    (["fnilpotent", "--gens", "3,4x"], "parse error at position 3: expected ',' or end of input"),
    (["fte", "--gens", "2: 1,0; 0,1", "--ideal", "1"], "fte requires a numerical semigroup (dimension 1)"),
    (["tight-member", "--gens", "3,5", "--ideal", "3", "--element", "3;5"], "--element must be a single vector"),
    (["tight-member", "--gens", "3,5", "--ideal", "3", "--element", "4"], "element (4,) is not in the semigroup"),
    (["hypersurface", "--rel", "x", "--rel", "y"], "hypersurface needs exactly one --rel"),
    (["branches", "--vars", "x,1y", "--rel", "x"], "invalid variable list 'x,1y'"),
    (["branches", "--vars", "x,y", "--rel", "+x"], "parse error at position 0: expected a term, not a leading '+'"),
    (["branches", "--vars", "x,y", "--rel", "x^0*y"], "parse error at position 3: expected an exponent >= 1"),
    (["branches", "--vars", "x,y", "--rel", "x-y+x^2"],
     "parse error at position 4: expected a term of degree 1; term 'x^2' has degree 2"),
])
def test_malformed_requests_are_refused(args, message, capsys):
    code, out, err = run_cli([args[0], "--p", "3"] + args[1:], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# The argparse parser the CLI used before the _MODES table, kept as the
# reference the table parser is compared against; each mode takes the same
# flags as in the table, those its answer reads.
class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli._CliInputError(message)


@cache
def _parser() -> _Parser:
    """The argument parser, built on first use and reused by every request."""
    parser = _Parser(prog="frobranch", description=cli.__doc__)
    parser.add_argument("--config", help="read the request as CLI tokens from a file")
    sub = parser.add_subparsers(dest="mode")

    shared = {
        "--ext-s": dict(type=int, default=1, help="scalar extension degree of the base field"),
        "--s-max": dict(type=int, default=DEFAULT_S_MAX),
        "--format": dict(choices=("text", "json"), default="text"),
        "--gens": dict(required=True, help="semigroup generators, e.g. '3: 2,0,0; 1,1,0' or '2,3'"),
    }

    def common(sp, *flags):
        sp.add_argument("--p", type=int, required=True, help="prime characteristic")
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("branches", help="branch count of a graded quotient ring")
    common(sp, "--ext-s", "--s-max", "--format")
    sp.add_argument("--vars", required=True, help="comma-separated variable names")
    sp.add_argument("--rel", action="append", default=[], help="homogeneous relation (repeatable)")

    sp = sub.add_parser("hypersurface", help="oracle branch count of a plane curve")
    common(sp, "--format")
    sp.add_argument("--vars", default="x,y", help="the two variable names")
    sp.add_argument("--rel", action="append", default=[], help="the squarefree form")

    sp = sub.add_parser("fnilpotent", help="F-nilpotence of an affine semigroup ring")
    common(sp, "--format", "--gens")

    sp = sub.add_parser("fte", help="Frobenius test exponent of a monomial ideal (numerical semigroup)")
    common(sp, "--format", "--gens")
    sp.add_argument("--ideal", required=True, help="ideal generators, comma-separated integers")

    sp = sub.add_parser("tight-member", help="tight closure membership of a monomial")
    common(sp, "--format", "--gens")
    sp.add_argument("--ideal", required=True, help="ideal generator vectors, ';' separated")
    sp.add_argument("--element", required=True, help="the candidate exponent vector")
    return parser


# (flag, namespace attribute, least valid value, default where a mode
# does not take the flag)
_LEAST = (("--ext-s", "ext_s", 1, 1), ("--s-max", "s_max", 1, DEFAULT_S_MAX))


def reference_parse_request(argv):
    ns = _parser().parse_args(list(argv))
    if ns.config is not None:
        if ns.mode is not None:
            raise cli._CliInputError("--config must be the only argument")
        ns = _parser().parse_args(cli._read_config(ns.config))
        if ns.config is not None:
            raise cli._CliInputError("a --config file cannot name another --config")
    if ns.mode is None:
        raise cli._CliInputError("a subcommand is required (branches, hypersurface, fnilpotent, fte, tight-member)")
    check_characteristic(ns.p)
    numbers = {attr: getattr(ns, attr, default) for _, attr, _, default in _LEAST}
    for flag, attr, least, _ in _LEAST:
        if numbers[attr] < least:
            raise cli._CliInputError(f"{flag} must be >= {least}, got {numbers[attr]}")
    var_names = ()
    if getattr(ns, "vars", None):
        var_names = tuple(v.strip() for v in ns.vars.split(","))
        if any(not v.isidentifier() for v in var_names):
            raise cli._CliInputError(f"invalid variable list {ns.vars!r}")
        repeated = next((v for i, v in enumerate(var_names) if v in var_names[:i]), None)
        if repeated is not None:
            raise cli._CliInputError(f"variable {repeated!r} is repeated in --vars {ns.vars!r}")
    return cli.AnalysisRequest(
        mode=ns.mode,
        p=ns.p,
        var_names=var_names,
        relations=tuple(getattr(ns, "rel", ()) or ()),
        gens=getattr(ns, "gens", None),
        ideal=getattr(ns, "ideal", None),
        element=getattr(ns, "element", None),
        output_format=ns.format,
        **numbers,
    )


def _reference_refuses(argv):
    # exit 1 from main: an input error, never a failed certificate
    with pytest.raises((FrobranchError, ValueError)) as refused:
        reference_parse_request(argv)
    assert not isinstance(refused.value, CertificateFailed)


README_EXAMPLES = [
    shlex.split(line)[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("frobranch ")
]

# every flag of every mode, each pair written "--flag value"
_FULL_REQUESTS = {
    "branches": ["--p", "3", "--ext-s", "2", "--s-max", "2", "--format", "json",
                 "--vars", "x, y,z", "--rel", "x*y", "--rel", "y*z", "--rel", "x*z"],
    "hypersurface": ["--p", "7", "--format", "text", "--vars", "u,v", "--rel", "u^4+v^4"],
    "fnilpotent": ["--p", "2", "--format", "json", "--gens", PINCHED],
    "fte": ["--p", "5", "--format", "text", "--gens", "2,3", "--ideal", "3,4"],
    "tight-member": ["--p", "2", "--format", "json", "--gens", "2,3", "--ideal", "3", "--element", "4"],
}


def _joined(args):
    """The same request with every pair written "--flag=value"."""
    return [f"{flag}={value}" for flag, value in zip(args[::2], args[1::2])]


ACCEPTED = (
    README_EXAMPLES
    + [[mode] + args for mode, args in _FULL_REQUESTS.items()]
    + [[mode] + _joined(args) for mode, args in _FULL_REQUESTS.items()]
    + [[mode, "--p", "3"] + args for mode, args in _MODE_ARGS.items()]
    + [
        ["fnilpotent", "--gens", "2,3", "--format", "text", "--p", "2"],
        ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2", "--rel", "x*y", "--rel=y^2"],
        ["branches", "--p", "3", "--vars", "x,y"],
        ["branches", "--p", "3", "--vars", ""],
        ["hypersurface", "--p", "3", "--rel", "-x^2 + y^2"],
        ["hypersurface", "--p", "3", "--rel=-x^2+y^2"],
        ["fte", "--ideal", "3", "--p=2", "--gens=2,3", "--format", "json"],
    ]
)


@pytest.mark.parametrize("argv", ACCEPTED)
def test_table_parser_matches_argparse(argv):
    assert cli.parse_request(argv) == reference_parse_request(argv)


def test_readme_has_the_ten_examples():
    assert len(README_EXAMPLES) == 10


def test_config_file_requests_match_argparse(tmp_path):
    cfg = tmp_path / "request.cfg"
    cfg.write_text("# a request\nbranches --p 3 --vars x,y\n  --rel 'x^2 + y^2' --rel=x*y --format json  # two relations\n")
    for argv in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert cli.parse_request(argv) == reference_parse_request(argv)


def test_negative_value_is_read_as_a_number():
    argv = ["branches", "--p", "3", "--vars", "x,y", "--s-max", "-3"]
    with pytest.raises(FrobranchError) as table:
        cli.parse_request(argv)
    with pytest.raises(FrobranchError) as reference:
        reference_parse_request(argv)
    assert str(table.value) == str(reference.value) == "--s-max must be >= 1, got -3"


MALFORMED = [
    [],
    ["frobenius-split", "--p", "2"],
    ["--p", "2", "fnilpotent", "--gens", "2,3"],
    ["fte", "--p", "2", "--gens", "2,3", "--ideal", "3", "--bogus", "1"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "--box-factor=3"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "--degree-cap=64"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "--ideal", "3"],
    ["branches", "--p", "3", "--vars", "x,y", "--gens", "2,3"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "--config", "request.cfg"],
    ["fnilpotent", "--p", "2", "extra", "--gens", "2,3"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "-p", "2"],
    ["fnilpotent", "--gens", "2,3", "--p"],
    ["fnilpotent", "--p", "--gens", "2,3"],
    ["branches", "--p", "3", "--vars", "x,y", "--rel", "-x"],
    ["branches", "--p", "3", "--vars", "--rel", "x"],
    ["fnilpotent", "--p", "two", "--gens", "2,3"],
    ["branches", "--p", "3", "--vars", "x,y", "--s-max", "1.5"],
    ["fnilpotent", "--p=", "--gens", "2,3"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "--format", "yaml"],
    ["fnilpotent", "--p", "2", "--gens", "2,3", "--format=JSON"],
    ["fnilpotent", "--p", "2"],
    ["fnilpotent", "--gens", "2,3"],
    ["branches", "--p", "3", "--rel", "x"],
    ["fte", "--p", "2", "--gens", "2,3"],
    ["tight-member", "--p", "2", "--gens", "2,3", "--ideal", "3"],
    ["--config"],
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_argv_is_refused_by_both_parsers(argv, capsys):
    _reference_refuses(argv)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("after", [["fnilpotent", "--p", "2", "--gens", "2,3"], ["--config", "other.cfg"]])
def test_tokens_after_config_are_refused_by_both_parsers(after, tmp_path, capsys):
    cfg = tmp_path / "request.cfg"
    cfg.write_text("fnilpotent --p 2 --gens 2,3\n")
    for argv in (["--config", str(cfg)] + after, [f"--config={cfg}"] + after):
        _reference_refuses(argv)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == "" and "--config must be the only argument" in err


@pytest.mark.parametrize("text", ["--config other.cfg\n", "--config=other.cfg\n"])
def test_nested_config_is_refused_by_both_parsers(text, tmp_path, capsys):
    cfg = tmp_path / "request.cfg"
    cfg.write_text(text)
    _reference_refuses(["--config", str(cfg)])
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 1 and out == "" and "cannot name another --config" in err


@pytest.mark.parametrize("argv, message", [
    # argparse took --form for --format
    (["fnilpotent", "--p", "2", "--gens", "2,3", "--form", "json"], "fnilpotent does not take '--form'"),
    # argparse kept the last --p silently
    (["fnilpotent", "--p", "3", "--gens", "2,3", "--p", "5"], "--p is given twice"),
])
def test_abbreviated_and_repeated_flags_are_refused(argv, message, capsys):
    assert reference_parse_request(argv).mode == "fnilpotent"
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# each mode's flags, in --help order: those its answer reads
_MODE_FLAGS = {
    "branches": ["--p", "--ext-s", "--s-max", "--format", "--vars", "--rel"],
    "hypersurface": ["--p", "--format", "--vars", "--rel"],
    "fnilpotent": ["--p", "--format", "--gens"],
    "fte": ["--p", "--format", "--gens", "--ideal"],
    "tight-member": ["--p", "--format", "--gens", "--ideal", "--element"],
}
# (mode, flag) for each flag the mode took before though its answer does
# not read it
_UNREAD = [
    (mode, flag)
    for mode in _MODE_FLAGS
    for flag in ("--ext-s", "--e-max", "--s-max", "--seed")
    if flag not in _MODE_FLAGS[mode]
]


def test_each_mode_takes_the_flags_its_answer_reads():
    assert {mode: list(options) for mode, (_, options) in cli._MODES.items()} == _MODE_FLAGS
    assert sum(map(len, _MODE_FLAGS.values())) == 22 and len(_UNREAD) == 18
    assert "seed" not in {f.name for f in dataclasses.fields(cli.AnalysisRequest)}


@pytest.mark.parametrize("mode, flag", _UNREAD)
def test_flags_a_mode_does_not_read_are_refused(mode, flag, capsys):
    # hypersurface --ext-s 2, fte --e-max 2, the semigroup modes' --ext-s
    # and --s-max, and every --seed changed no answer, yet were echoed;
    # --e-max is gone from every mode, as no semigroup answer needs a cap
    argv = [mode, "--p", "2", flag, "2"] + _MODE_ARGS[mode]
    _reference_refuses(argv)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {mode} does not take '{flag}'\n"


def test_help_names_every_mode_and_flag(capsys):
    code, out, err = run_cli(["--help"], capsys)
    assert code == 0 and err == ""
    for mode in ("branches", "hypersurface", "fnilpotent", "fte", "tight-member"):
        assert f"\n  {mode} " in out
        code, mode_help, _ = run_cli([mode, "-h"], capsys)
        assert code == 0
        subparser = _parser()._subparsers._group_actions[0].choices[mode]
        flags = [a.option_strings[0] for a in subparser._actions if a.option_strings[0] != "-h"]
        assert [line.split()[0] for line in mode_help.splitlines() if line.startswith("  --")] == flags


@pytest.mark.parametrize("extra, refused", [(0, False), (1, True)])
def test_config_file_is_read_up_to_the_cap(extra, refused, tmp_path, capsys):
    request = "fnilpotent --p 2 --gens 2,3\n"
    cfg = tmp_path / "request.cfg"
    cfg.write_text(request + "#" * (cli.CONFIG_CAP - len(request) + extra))
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    if refused:
        assert code == 1 and out == "" and str(cli.CONFIG_CAP) in err
    else:
        assert code == 0 and "result.verdict: f-nilpotent" in out


def test_huge_config_file_is_refused_unread(tmp_path, capsys):
    # fh.read() without a limit let --config /dev/zero grow until MemoryError
    cfg = tmp_path / "huge.cfg"
    with open(cfg, "wb") as fh:
        fh.truncate(10 * 2**20)
    start = time.perf_counter()
    code, out, err = run_cli(["--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: --config file is longer than the cap of {cli.CONFIG_CAP} characters\n"
    assert time.perf_counter() - start < 2


EMITTER_PAYLOADS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    {"name": "café ∂ \U0001d11e \"quoted\" \\ back\nslash\t", "ascii": "x^2+y^2"},
    {"small": -7, "zero": 0, "large": 2**200, "negative large": -(2**100)},
    {"yes": True, "no": False, "none": None, "list": [True, False, None, 1, "s"]},
    {"hilbert_basis": [[0, 0, 2], [0, 1, 1], [2, 0, 0]], "empty rows": [[], [[]]]},
    {"z": 1, "a": 2, "M": 3, "_": 4, "é": 5, "10": 6, "9": 7},
    {"tuple": (1, (2, 3), ())},
    "top-level string",
    -1,
    None,
]


@pytest.mark.parametrize("payload", EMITTER_PAYLOADS)
def test_emitter_writes_the_bytes_of_json_dumps(payload):
    assert cli._json(payload, "\n") == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, {"x": 1.5}, [1, [2.0]], {"s": {1, 2}}, 0.0])
def test_emitter_refuses_what_a_report_never_holds(payload):
    with pytest.raises(TypeError):
        cli._json(payload, "\n")


# -- the semigroup table -----------------------------------------------------------


def _spellings(rng, gens):
    """`--gens` texts of one semigroup: shuffled, with a repeated generator
    or a zero one, and numerical ones also in the `1:` form."""
    n = len(gens[0])
    out = []
    for _ in range(3):
        vectors = list(gens)
        rng.shuffle(vectors)
        extra = rng.random()
        if extra < 0.3:
            vectors.insert(rng.randrange(len(vectors) + 1), rng.choice(gens))
        elif extra < 0.5:
            vectors.insert(rng.randrange(len(vectors) + 1), (0,) * n)
        if n == 1 and rng.random() < 0.5:
            out.append(",".join(str(v[0]) for v in vectors))
        else:
            out.append(f"{n}: " + "; ".join(",".join(map(str, v)) for v in vectors))
    return out


def _table_requests(seed, count):
    """Seeded fnilpotent, fte and tight-member requests on a pool of small
    semigroups of dimension 1 to 4, each asked several times."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < 8:
        gens = sorted(rng.sample(range(3, 30), rng.randint(2, 4)))
        if math.gcd(*gens) == 1:
            pool.append([(g,) for g in gens])
    for n, top in ((2, 5), (2, 7), (3, 2), (3, 3), (4, 2)):
        for _ in range(3):
            gens = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(n, n + 3))}
            gens = sorted(g for g in gens if any(g))
            if len(gens) >= n:
                pool.append(gens)
    pool += [[(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)], [(3, 0, 3), (0, 3, 3), (1, 2, 3)]]
    requests = []
    while len(requests) < count:
        gens = rng.choice(pool)
        text = rng.choice(_spellings(rng, gens))
        p = str(rng.choice((2, 3, 5, 7)))
        mode = rng.choice(("fnilpotent", "fte", "tight-member") if len(gens[0]) == 1 else ("fnilpotent", "tight-member"))
        args = [mode, "--p", p, "--gens", text, "--format", "json"]
        if len(gens[0]) == 1:
            ideal = sorted({rng.choice(gens)[0] * rng.randint(1, 2) for _ in range(2)})
            ideal_text = ";".join(map(str, ideal))
            element = str(ideal[0] + rng.choice((0, 1, gens[0][0])))
        else:
            ideal_text = "; ".join(",".join(map(str, g)) for g in rng.sample(gens, 2))
            element = ",".join(str(a + b) for a, b in zip(rng.choice(gens), rng.choice(gens)))
        if mode == "fte":
            args += ["--ideal", ideal_text]
        elif mode == "tight-member":
            args += ["--ideal", ideal_text, "--element", element]
        requests.append(args)
    return requests


def _answers(requests, capsys, fresh):
    """(exit code, stdout, stderr) of each request, all through one table,
    or each through a new one when fresh."""
    out = []
    for args in requests:
        if fresh:
            cli._TABLE = cli.SharedTable()  # restored by the autouse fixture
        out.append(run_cli(args, capsys))
    return out


def test_shared_table_reports_equal_fresh_table_reports(capsys):
    requests = _table_requests(2510, 200)
    shared = _answers(requests, capsys, fresh=False)
    keys = len(cli._TABLE._entries)
    assert shared == _answers(requests, capsys, fresh=True)
    # most requests found their semigroup kept, under another spelling too
    assert keys <= 30 and len({args[4] for args in requests}) > keys
    assert {code for code, _, _ in shared} == {0, 1}


def test_refused_request_leaves_the_table_sound(capsys):
    # a refused Fte window, then answers on the same semigroup
    window = ["fte", "--p", "2", "--gens", "5,7,9", "--ideal", f"5;{semigroup.FTE_WINDOW_CAP}"]
    valid = [["fte", "--p", "3", "--gens", "9,7,5", "--ideal", "7;10", "--format", "json"],
             ["fnilpotent", "--p", "2", "--gens", "5,7,9", "--format", "json"]]
    fresh = _answers(valid, capsys, fresh=True)
    cli._TABLE = cli.SharedTable()
    code, _, err = run_cli(window, capsys)
    assert code == 1 and "window cap" in err
    assert _answers(valid, capsys, fresh=False) == fresh


@pytest.mark.parametrize("forge", [
    ("_det", lambda m: 2),  # the lattice SNF fails its check
    ("_torsion_order", lambda *args: 3),  # after the face SNFs were kept
    ("frobenius_closure_exponent", lambda *args: None),  # the Fte recheck
])
def test_failed_certificate_leaves_the_table_sound(forge, monkeypatch, capsys):
    valid = [["fnilpotent", "--p", "2", "--gens", PINCHED, "--format", "json"],
             ["fnilpotent", "--p", "5", "--gens", PINCHED, "--format", "json"],
             ["fte", "--p", "2", "--gens", "3,5", "--ideal", "5;6", "--format", "json"]]
    fresh = _answers(valid, capsys, fresh=True)
    cli._TABLE = cli.SharedTable()
    with monkeypatch.context() as patch:
        patch.setattr(semigroup, *forge)
        failed = _answers(valid, capsys, fresh=False)
    assert 2 in {code for code, _, _ in failed}
    assert _answers(valid, capsys, fresh=False) == fresh


def test_table_evicts_to_its_byte_budget(monkeypatch, capsys):
    gens = ["2,3", "3,5", "4,5", "2998,2999"]
    sizes = {}
    for text in gens:
        run_cli(["fnilpotent", "--p", "2", "--gens", text], capsys)
        key = tuple((int(g),) for g in text.split(","))
        sizes[text] = cli._TABLE._entries[key][1]
    small = sorted(sizes[text] for text in gens[:3])
    assert sizes["2998,2999"] > 8 * 2998 > small[-1]  # the Apery list alone takes 8 bytes per entry
    cli._TABLE = table = cli.SharedTable()
    monkeypatch.setattr(cli, "TABLE_BYTES", small[-1] + small[-2])
    for text in gens[:3] + ["2,3", "3,5", "2998,2999"]:
        run_cli(["fnilpotent", "--p", "3", "--gens", text], capsys)
        assert table.charged == sum(size for _, size in table._entries.values()) <= cli.TABLE_BYTES
    # 4,5 was least recently used; 2998,2999 alone exceeds the budget
    assert list(table._entries) == [((2,), (3,)), ((3,), (5,))]


def test_concurrent_blocks_on_one_key_keep_one_charge(monkeypatch):
    # two blocks on one semigroup at once, as two threads of a library caller
    # may run: each owns its own object, and the later to end is kept alone
    table = cli.SharedTable()
    key = ((2,), (3,))
    for _ in range(3):
        with table.shared(key, lambda: semigroup.AffineSemigroup([(2,), (3,)]), semigroup.table_bytes) as first:
            with table.shared(key, lambda: semigroup.AffineSemigroup([(3,), (2,), (0,)]),
                              semigroup.table_bytes) as second:
                assert first is not second
                semigroup.frobenius_number(second)
            semigroup.frobenius_number(first)
        assert list(table._entries) == [key] and table._entries[key][0] is first
        assert table.charged == table._entries[key][1] == semigroup.table_bytes(first)
        # a budget that one entry fits but two charges would not
        monkeypatch.setattr(cli, "TABLE_BYTES", 3 * table.charged // 2)


def test_a_semigroup_hit_builds_no_semigroup(monkeypatch, capsys):
    cold = {mode: run_cli(args, capsys) for mode, args in (
        ("fnilpotent", ["fnilpotent", "--p", "2", "--gens", PINCHED, "--format", "json"]),
        ("fte", ["fte", "--p", "3", "--gens", "2: 1,0; 0,1", "--ideal", "1"]),
    )}
    built = []
    init = semigroup.AffineSemigroup.__init__
    monkeypatch.setattr(semigroup.AffineSemigroup, "__init__", lambda self, gens: built.append(gens) or init(self, gens))
    # the same semigroups spelled otherwise, with repeats and a zero vector
    spelled = "3: 0,0,2; 0,2,0; 1,0,1; 1,1,0; 2,0,0; 0,0,0; 1,1,0"
    code, out, err = run_cli(["fnilpotent", "--p", "2", "--gens", spelled, "--format", "json"], capsys)
    assert (code, json.loads(out)["results"], err) == (cold["fnilpotent"][0], json.loads(cold["fnilpotent"][1])["results"], "")
    assert run_cli(["fte", "--p", "3", "--gens", "2: 0,1; 1,0; 0,0", "--ideal", "1"], capsys) == cold["fte"]
    assert cold["fte"][0] == 1 and not built
    assert len(cli._TABLE._entries) == 2


def _bench_requests(workload, seed):
    """The argv of every request of a benchmark workload, as bench/run.py
    sends them."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [r.argv for r in workloads.build(workload, seed)]


def test_every_traced_name_is_in_the_program():
    # the tracer reports a missing name as absent and carries on, so a name
    # renamed or deleted here would drop out of the benchmark's metrics
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines its tables and installs nothing
    wrapped = set()
    for module, qualname, _ in tracer.WRAPPED:
        target = importlib.import_module(module)
        for attr in qualname.split("."):
            target = getattr(target, attr, None)
        assert callable(target), (module, qualname)
        wrapped.add(qualname)
    expected = {name for names in tracer.EXPECTED.values() for name in names}
    counted = {name for names in tracer.CALL_COUNTS.values() for name in names}
    assert expected | counted <= wrapped, (expected | counted) - wrapped


def test_shared_slices_give_the_reports_of_fresh_tables(capsys):
    # rings of one degree whose verdicts differ, over GF(5) and GF(25): x + y
    # divides the second and third relations, so it reduces only the first
    # and the last; no benchmark curve pairs rings like these
    crafted = [["branches", "--p", "5", *ext, "--vars", "x,y", "--rel", rel, "--format", "json"]
               for ext in ([], ["--ext-s", "2"]) for rel in ("x^2+y^2", "x*y+y^2", "x^2+x*y", "x^2+y^2")]
    requests = crafted + [args for workload in ("curves", "extension") for seed in (1, 2)
                          for args in _bench_requests(workload, seed) if args[0] in ("branches", "hypersurface")]
    shared = _answers(requests, capsys, fresh=False)
    stores = len(cli._TABLE._entries)
    assert shared == _answers(requests, capsys, fresh=True)
    # the extension requests repeat their relations over several fields
    assert 0 < stores < sum(args[0] == "branches" for args in requests)
    assert {code for code, _, _ in shared} == {0}


def _entry_of(argv, capsys):
    """Run argv and return the key and charge of the entry it kept: the
    table's most recent."""
    run_cli(argv, capsys)
    key = next(reversed(cli._TABLE._entries))
    return key, cli._TABLE._entries[key][1]


def test_semigroups_and_slice_stores_evict_each_other(monkeypatch, capsys):
    requests = [
        ["fnilpotent", "--p", "2", "--gens", "2,3"],
        ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2"],
        ["fnilpotent", "--p", "2", "--gens", PINCHED],
        ["branches", "--p", "5", "--vars", "x,y,z", "--rel", "x*y", "--rel", "x*z", "--rel", "y*z"],
    ]
    entries = [_entry_of(args, capsys) for args in requests]
    sizes = sorted(size for _, size in entries)
    kind = {key: args[0] for (key, _), args in zip(entries, requests)}
    cli._TABLE = table = cli.SharedTable()
    monkeypatch.setattr(cli, "TABLE_BYTES", sizes[-1] + sizes[-2])  # two entries fit, never three
    model, evicted = {}, set()
    for i in (0, 1, 2, 3, 0, 1, 3, 2, 1, 0):
        run_cli(requests[i], capsys)
        key, size = entries[i]
        model.pop(key, None)
        model[key] = size
        while sum(model.values()) > cli.TABLE_BYTES:
            evicted.add(kind[next(iter(model))])
            del model[next(iter(model))]
        assert list(table._entries) == list(model)
        assert table.charged == sum(size for _, size in table._entries.values()) <= cli.TABLE_BYTES
    assert evicted == {"fnilpotent", "branches"}


def test_a_ring_whose_slices_exceed_the_budget_is_not_kept(capsys):
    # its degree-44 slice alone has 1035 columns, an 8.6 MB echelon
    run_cli(["fnilpotent", "--p", "2", "--gens", "2,3"], capsys)
    code, out, _ = run_cli(["branches", "--p", "2", "--vars", "x,y,z", "--rel", "z", "--rel", "x^43+y^43"], capsys)
    assert code == 0 and "result.branches_formula: 43" in out
    assert list(cli._TABLE._entries) == [((2,), (3,))]
    assert cli._TABLE.charged == cli._TABLE._entries[((2,), (3,))][1]


def test_a_table_hit_runs_no_rank_test_for_a_stored_verdict(add_row_calls, capsys):
    # x + y divides x^3 + y^3 over GF(5), and x + 2*y is the first reduction
    # over GF(5) and over GF(25), under other variable names
    argv = ["branches", "--p", "5", "--vars", "x,y", "--rel", "x^3+y^3", "--format", "json"]
    wider = argv[:3] + ["--ext-s", "2", "--vars", "u,v", "--rel", "u^3+v^3", "--format", "json"]
    fresh = run_cli(wider, capsys)
    cli._TABLE = cli.SharedTable()
    run_cli(argv, capsys)
    add_row_calls.clear()
    assert run_cli(wider, capsys) == fresh
    assert fresh[0] == 0 and json.loads(fresh[1])["results"]["reduction_form"] == "(1, 0)*u + (2, 0)*v"
    assert not add_row_calls


def test_an_all_points_curve_tests_its_larger_field_forms_afresh(add_row_calls, monkeypatch, capsys):
    argv = ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^3*y-x*y^3", "--format", "json"]
    first = run_cli(argv, capsys)
    assert json.loads(first[1])["results"]["reduction_scalar_extension"] == 2
    (store, _), = cli._TABLE._entries.values()
    keys = [key for data in store[0] for key in data.verdicts]
    assert keys and all(code < 3 for key in keys for _, code in key)
    tested = []
    test = graded.is_linear_reduction
    monkeypatch.setattr(graded, "is_linear_reduction", lambda R, x, d: tested.append(x) or test(R, x, d))
    add_row_calls.clear()
    assert run_cli(argv, capsys) == first
    # every GF(9) form runs its rank test again, and no GF(3) form does
    larger = [x for x in tested if max(x.terms.values()) >= 3]
    assert larger and len(add_row_calls) == len(larger) < len(tested)


def test_threads_on_one_ring_get_identical_reports():
    # more threads than the two cores of the test host, switching as often as
    # possible: each request holds the ring's entry alone or builds its own
    import threading

    argv = ["branches", "--p", "7", "--ext-s", "2", "--vars", "x,y,z,w",
            "--rel", "x*y", "--rel", "x*z", "--rel", "x*w", "--rel", "y*z", "--rel", "y*w", "--rel", "z*w",
            "--format", "json"]
    want = cli.render(cli.run(cli.parse_request(argv)), "json")
    cli._TABLE = table = cli.SharedTable()
    for _ in range(3):
        barrier = threading.Barrier(4, timeout=30)
        got = []

        def request():
            barrier.wait()
            got.append(cli.render(cli.run(cli.parse_request(argv)), "json"))

        threads = [threading.Thread(target=request) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4
        (_, size), = table._entries.values()
        assert table.charged == size


@pytest.mark.parametrize("nvars, slice_", [(990, "degree-2 slice has 490545"), (1000, "degree-2 slice has 500500"),
                                            (5000, "degree-1 slice has 5000")])
def test_thousands_of_variables_are_refused_at_the_slice_cap(nvars, slice_, capsys):
    names = ",".join(f"x{i}" for i in range(1, nvars + 1))
    code, out, err = run_cli(["branches", "--p", "2", "--vars", names, "--rel", "x1*x2"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: the {slice_} columns, above the cap of {graded.SLICE_COLUMN_CAP} columns\n"


def test_a_refused_wide_ring_keeps_no_unused_row_capacity(capsys):
    # its degree-1 slice of 1000 columns has rank 0, and an echelon gets its
    # 1000 x 1000 row square only at its first rank gain
    names = ",".join(f"x{i}" for i in range(1, 1001))
    code, _, err = run_cli(["branches", "--p", "2", "--vars", names, "--rel", "x1*x2"], capsys)
    assert code == 1 and "degree-2 slice" in err
    (store, size), = cli._TABLE._entries.values()
    assert len(store[0]) == 2 and store[0][1].echelon.rank == 0
    assert cli._TABLE.charged == size < 64 << 10
