import json
import time

import pytest

from frobranch import cli, oracle, semigroup

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


def test_large_numerical_semigroup_is_exact(capsys):
    # e0 = 30 lies far past the default --e-max of 12; a gap table of
    # max(gens)^2 entries would not fit in memory
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
    code, out, _ = run_cli(
        ["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2", "--format", "json"], capsys
    )
    assert code == 2
    results = json.loads(out)["results"]
    assert results["oracle_status"] == "mismatch"
    assert results["consistent"] is False


def test_ext_s_field(capsys):
    code, out, _ = run_cli(
        ["branches", "--p", "3", "--ext-s", "2", "--vars", "x,y", "--rel", "x^2+y^2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["branches_formula"] == 2


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
