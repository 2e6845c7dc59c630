"""The command-line surface: outputs, determinism, exit codes, schemas."""

import json
from pathlib import Path

import pytest

from ncbv.cli import main
from ncbv.nupoly import NuPolynomial
from test_serialization import make_validator


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_moments_p4(capsys):
    code, out = run(capsys, "moments", "--idx", "4", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"]["coeffs"] == {"3": "2", "1": "1"}
    make_validator("moments").validate(payload)


def test_moments_with_value(capsys):
    code, out = run(capsys, "moments", "--idx", "1,3", "--N", "2", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"]["coeffs"] == {"2": "3"}
    assert payload["value_at_N"] == "12"


def test_moments_odd_sum_is_zero(capsys):
    code, out = run(capsys, "moments", "--idx", "3", "--output", "json")
    assert code == 0
    assert json.loads(out)["polynomial"]["coeffs"] == {}


def test_moments_csv_roundtrips(capsys):
    code, out = run(capsys, "moments", "--idx", "2,2", "--output", "csv")
    assert code == 0
    poly = NuPolynomial.from_csv(out)
    assert poly == NuPolynomial.from_json({"coeffs": {"4": "1", "2": "2"}})


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "--idx", "4", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"]["coeffs"] == {"3": "2", "1": "1"}
    make_validator("moments").validate(payload)


def test_mc_command_deterministic(capsys):
    args = ("mc", "--idx", "2", "--N", "3", "--samples", "20000", "--seed", "7",
            "--output", "json")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    payload = json.loads(out1)
    assert abs(payload["z_score"]) <= 5
    make_validator("mc").validate(payload)


def test_mc_all_ones(capsys):
    code, out = run(capsys, "mc", "--idx", "1,1,1,1", "--N", "2", "--samples", "200000",
                    "--seed", "1", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "12"  # N^n (2n-1)!! with n = 2
    assert payload["within_5_sigma"]


def test_verify_quick(capsys):
    code, out = run(capsys, "verify", "--degree-cap", "6", "--cases", "25",
                    "--hz-k", "6", "--skip-confluence", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    make_validator("verify").validate(payload)


def test_hz_single_value(capsys):
    code, out = run(capsys, "hz", "--k", "2", "--N", "4", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["moment"] == "132"
    make_validator("hz").validate(payload)


def test_hz_report(capsys):
    code, out = run(capsys, "hz", "--kmax", "6", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    make_validator("hz").validate(payload)


def test_otft_command(capsys):
    code, out = run(capsys, "otft", "--N", "2", "--genus", "1", "--free", "1",
                    "--boundaries", "2,1", "--seed", "3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"]
    make_validator("otft").validate(payload)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("moments", ("moments", "--idx", "30", "--N", "5")),
    ("oracle", ("oracle", "--idx", "6,6")),
    ("otft", ("otft", "--N", "3", "--genus", "2", "--free", "2", "--boundaries", "3,3,3")),
    ("hz", ("hz", "--kmax", "10")),
    ("verify", ("verify", "--degree-cap", "6", "--cases", "25", "--hz-k", "6",
                "--skip-confluence")),
])
def test_output_matches_golden(capsys, name, argv):
    """Exact CLI JSON is pinned byte for byte (mc is left out: its floats
    depend on the LAPACK build)."""
    code, out = run(capsys, *argv, "--output", "json")
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_otft_rejects_size_zero(capsys):
    assert run(capsys, "otft", "--N", "0", "--boundaries", "2")[0] == 2


@pytest.mark.parametrize("chunk", ["0", "-1"])
def test_mc_rejects_nonpositive_chunk(capsys, chunk):
    args = ("mc", "--idx", "2", "--N", "2", "--samples", "100", "--seed", "0")
    assert run(capsys, *args, "--chunk", chunk)[0] == 2


@pytest.mark.parametrize("value", ["abc", "-3", "0"])
def test_mc_rejects_bad_thread_count(capsys, monkeypatch, value):
    monkeypatch.setenv("NCBV_THREADS", value)
    code = main(["mc", "--idx", "2", "--N", "2", "--samples", "100", "--seed", "0"])
    assert code == 2
    assert "NCBV_THREADS" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run(capsys, "moments")[0] == 2  # missing --idx
    assert run(capsys, "moments", "--idx", "x")[0] == 2
    assert run(capsys, "mc", "--idx", "2", "--N", "2", "--samples", "1", "--seed", "0")[0] == 2
    assert run(capsys, "hz", "--k", "3")[0] == 2  # --k without --N


def test_out_file(tmp_path, capsys):
    target = tmp_path / "poly.json"
    code, _ = run(capsys, "moments", "--idx", "4", "--output", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["polynomial"]["coeffs"] == {"3": "2", "1": "1"}


def test_golden_table_negative_control():
    """A sign-flipped engine is reported with the differing coefficient."""
    from ncbv.reduction import GueReducer
    from ncbv.verify import golden_table_check

    class FlippedReducer:
        def __init__(self):
            self.inner = GueReducer()

        def reduce(self, idx):
            poly = self.inner.reduce(idx)
            if tuple(sorted(idx)) == (4,):
                return poly.scale(-1)
            return poly

    report = golden_table_check(FlippedReducer())
    assert not report.passed
    assert "nu^" in report.counterexample
