"""The command-line surface: outputs, determinism, exit codes, schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncbv import cli, sampling
from ncbv.cli import _check_printable, main
from ncbv.harer_zagier import double_factorial
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


def test_moments_refuses_an_unprintable_result_up_front(capsys, monkeypatch):
    """(2847)!! is the first (T-1)!! past CPython's default 4,300 digits:
    2,848 ones exit 2 naming --idx, before the reducer is touched."""

    def no_reduction():
        raise AssertionError("the reducer ran before the refusal")

    monkeypatch.setattr(cli, "default_reducer", no_reduction)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code = main(["moments", "--idx", ",".join(["1"] * 2848), "--output", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--idx sums to 2848" in captured.err and "4300-digit limit" in captured.err


@pytest.mark.parametrize("limit, ones, refused", [
    (4300, 2846, False),  # 2845!! has 4,298 digits
    (4300, 2848, True),
    (4300, 2849, False),  # an odd sum: the moment is 0
    (0, 2848, False),  # no limit
])
def test_printable_bound_is_the_double_factorial(monkeypatch, limit, ones, refused):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    if limit and ones % 2 == 0:  # more than 4,300 digits, counted without printing
        assert (double_factorial(ones - 1) >= 10**4300) == refused
    if refused:
        with pytest.raises(ValueError, match="--idx"):
            _check_printable((1,) * ones)
    else:
        _check_printable((1,) * ones)


@pytest.mark.parametrize("idx, size, refused", [
    ("60", 10**150, True),  # 59!! * N^31 has about 4,690 digits
    ("2", 10**2150, True),  # p_(2) = N^2: the bound is attained
    ("2", 10**2150 - 1, False),  # N^2 has exactly 4,300 digits
])
def test_moments_refuses_an_unprintable_value_up_front(capsys, monkeypatch, idx, size, refused):
    """p(N) <= (T-1)!! * N^(T/2 + k) for N >= 1: past the limit, --N is
    refused with exit 2 before the reducer is touched."""
    if refused:
        def no_reduction():
            raise AssertionError("the reducer ran before the refusal")

        monkeypatch.setattr(cli, "default_reducer", no_reduction)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code = main(["moments", "--idx", idx, "--N", str(size), "--output", "json"])
    captured = capsys.readouterr()
    if refused:
        assert code == 2 and captured.out == ""
        assert f"--N {size}" in captured.err and "4300-digit limit" in captured.err
    else:
        assert code == 0
        assert json.loads(captured.out)["value_at_N"] == str(size * size)


@pytest.mark.parametrize("k, size, refused", [
    (2000, 10**6, True),
    (1, 10**2150, True),  # I^N_2 = N^2: the bound is attained
    (1, 10**2150 - 1, False),  # N^2 has exactly 4,300 digits
])
def test_hz_refuses_an_unprintable_moment_up_front(capsys, monkeypatch, k, size, refused):
    """I^N_2k <= (2k-1)!! * N^(k+1) for N >= 1: past the limit, --k is
    refused with exit 2 before the closed form is computed."""
    real = cli.harer_zagier_closed

    def closed_form(k, size):
        if refused:
            raise AssertionError("the closed form ran before the refusal")
        return real(k, size)

    monkeypatch.setattr(cli, "harer_zagier_closed", closed_form)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code = main(["hz", "--k", str(k), "--N", str(size), "--output", "json"])
    captured = capsys.readouterr()
    if refused:
        assert code == 2 and captured.out == ""
        assert f"--k {k}" in captured.err and "4300-digit limit" in captured.err
    else:
        assert code == 0
        assert json.loads(captured.out)["moment"] == str(size * size)


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
                    "--hz-k", "6", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    make_validator("verify").validate(payload)


DEFAULT_CHECKS = [
    "golden-table", "oracle-equivalence", "harer-zagier-recurrence",
    "harer-zagier-closed-form", "catalan-leading-coefficient", "multitrace-sum-relation",
    "all-ones-double-factorial", "odd-sum-vanishing", "odd-antisymmetry", "odd-jacobi-cyclic",
    "odd-jacobi-commutative", "bracket-leibniz", "differentials-square-to-zero", "bv-identity",
    "lie-bialgebra-compatibility", "sigma-bracket-homomorphism", "morita-maps",
    "encoded-structures", "quantized-trace-chain-map", "sigma-K-graded-chain-map",
    "otft-matrix-simplification", "otft-placement-independence", "reduction-confluence",
]


def test_verify_default_battery(capsys):
    """``ncbv verify`` at its defaults passes all 23 checks, in ``run_all`` order."""
    code, out = run(capsys, "verify", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    assert [check["name"] for check in payload["checks"]] == DEFAULT_CHECKS


def test_verify_has_no_skip_flag(capsys):
    """Every battery checks confluence: the flag that skipped it is gone."""
    code = main(["verify", "--skip-confluence"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unrecognized arguments: --skip-confluence" in captured.err
    assert captured.out == ""


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


def test_otft_takes_a_huge_genus_by_squaring(capsys):
    """At N = 1, G is the unit, so genus 10^12 gives the genus-0 value;
    G is squared about 40 times, not applied 10^12 times."""
    argv = ("otft", "--N", "1", "--boundaries", "2,1", "--seed", "2", "--output", "json")
    huge = json.loads(run(capsys, *argv, "--genus", str(10**12))[1])
    flat = json.loads(run(capsys, *argv)[1])
    assert huge["genus"] == 10**12 and huge["match"]
    assert huge["value"] == flat["value"] == flat["trace_product"] != "0"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("moments", ("moments", "--idx", "30", "--N", "5")),
    ("oracle", ("oracle", "--idx", "6,6")),
    ("otft", ("otft", "--N", "3", "--genus", "2", "--free", "2", "--boundaries", "3,3,3")),
    ("hz", ("hz", "--kmax", "10")),
    ("verify", ("verify", "--degree-cap", "6", "--cases", "25", "--hz-k", "6")),
    ("otft-four", ("otft", "--N", "6", "--genus", "2", "--free", "2",
                   "--boundaries", "3,3,3,3")),
])
def test_output_matches_golden(capsys, name, argv):
    """Exact CLI JSON is pinned byte for byte (mc is left out: its floats
    depend on the LAPACK build)."""
    code, out = run(capsys, *argv, "--output", "json")
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_otft_rejects_size_zero(capsys):
    assert run(capsys, "otft", "--N", "0", "--boundaries", "2")[0] == 2


@pytest.mark.parametrize("sizes", ["-1,2", "0", "", "2,x"])
def test_otft_rejects_bad_boundary_sizes(capsys, sizes):
    """Boundary sizes are argument counts, not a multi-index: at least one,
    each positive, and the error names the flag and what it holds."""
    code = main(["otft", "--N", "2", f"--boundaries={sizes}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "argument --boundaries: boundary sizes are positive integers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [("--genus", "-1"), ("--free", "-2"),
                                         ("--genus", "x")])
def test_otft_rejects_bad_counts_before_building_the_algebra(capsys, monkeypatch, flag, value):
    """A negative or non-integral genus or free-boundary count exits 2,
    naming the flag, before any Frobenius algebra is built."""
    from ncbv import verify

    def no_algebra(size):
        raise AssertionError("matrix_frobenius ran before the flags were validated")

    monkeypatch.setattr(verify, "matrix_frobenius", no_algebra)
    code = main(["otft", "--N", "32", flag, value, "--boundaries", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"argument {flag}: expected a nonnegative integer, got {value!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--N", "41", "--boundaries", "1"], "--N 41 exceeds the largest otft matrix size 40"),
    (["--N", "2", "--free", "14282", "--boundaries", "1"],
     "--free 14282 with --boundaries 1 at --N 2: the value may reach"),
    (["--N", "2", "--boundaries", "3,8000"],
     "--free 0 with --boundaries 3,8000 at --N 2: the value may reach"),
], ids=["size", "free", "boundaries"])
def test_otft_refuses_past_its_bounds_before_building_the_algebra(capsys, monkeypatch, argv,
                                                                  message):
    """A matrix size past the cap, or a value N^b prod Tr that may pass the
    limit on printing an integer, exits 2 naming the flags, before any
    Frobenius algebra is built."""
    from ncbv import verify

    def no_algebra(size):
        raise AssertionError("matrix_frobenius ran before the flags were bounded")

    monkeypatch.setattr(verify, "matrix_frobenius", no_algebra)
    code = main(["otft", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_otft_prints_a_value_just_under_the_digit_bound(capsys):
    """|N^b prod Tr| <= N^b prod N (2N)^k_i: at N = 2 with one argument the
    bound 2^(b+3) first reaches 10^4300 at b = 14282, so b = 14281 prints."""
    code, out = run(capsys, "otft", "--N", "2", "--free", "14281", "--boundaries", "1",
                    "--output", "json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_index_entries_are_read_once(capsys):
    """``--idx`` reads its entries through ``multitrace.index_entries``."""
    for text, message in (("-1,2", "multi-index entries are nonnegative"),
                          ("2,x", "multi-index entry must be an integer, got 'x'")):
        code = main(["moments", f"--idx={text}"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"argument --idx: {message}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("chunk", ["0", "-1"])
def test_mc_rejects_nonpositive_chunk(capsys, chunk):
    args = ("mc", "--idx", "2", "--N", "2", "--samples", "100", "--seed", "0")
    assert run(capsys, *args, "--chunk", chunk)[0] == 2


def test_mc_rejects_a_chunk_over_the_budget(capsys):
    code = main(["mc", "--idx", "2", "--N", "2", "--samples", "100", "--seed", "0",
                 "--chunk", "1000000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--chunk 1000000000 exceeds the largest chunk" in captured.err
    assert captured.out == ""


def test_mc_refuses_a_matrix_size_past_the_bound(tmp_path):
    """``mc --N`` above ``sampling.MAX_SIZE`` exits 2 naming the flag before
    any sampling, whose smallest block would need gigabytes; the run has
    1 GiB of address space, so a missing refusal fails fast instead."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["mc", "--idx", "2", "--N", "10000", "--samples", "2", "--seed", "0"]
    done = subprocess.run([sys.executable, "-m", "ncbv.cli", *argv], preexec_fn=limit,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "ncbv: --N 10000 exceeds the largest matrix size, 2048\n"


def test_mc_refuses_samples_past_the_normals_bound(capsys, monkeypatch):
    """``mc --samples`` times N^2 above ``sampling.MAX_NORMALS`` exits 2
    naming the flag, before any sampling."""
    def no_sampling(*args):
        raise AssertionError("a block ran before the refusal")

    monkeypatch.setattr(sampling, "_block_values", no_sampling)
    code = main(["mc", "--idx", "2", "--N", "2048", "--samples", "65", "--seed", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("ncbv: --samples 65 at --N 2048 draws 272629760 normals, "
                            "past the largest draw, 268435456\n")


def test_mc_rejects_negative_seed(capsys):
    code = main(["mc", "--idx", "2", "--N", "2", "--samples", "10", "--seed", "-1"])
    assert code == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err


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
    for argv, message in ((["hz", "--k", "3"], "--k requires --N"),
                          (["hz", "--N", "4", "--kmax", "3"], "--N requires --k")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"ncbv: {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("moments", "--idx", "2", "--N", "0"),
    ("moments", "--idx", "2", "--N", "-3"),
    ("hz", "--k", "2", "--N", "-1"),
    ("hz", "--k", "2", "--N", "0"),
    ("oracle", "--idx", "1", "--cap", "-1"),
])
def test_flags_outside_the_shipped_schemas_exit_2_at_parse_time(capsys, argv):
    """Each value here would give JSON that its schema rejects (N >= 1,
    cap >= 0), so it is refused while the flags are parsed, naming its flag."""
    code = main([*argv, "--output", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"argument {argv[-2]}: expected a " in captured.err


def test_oracle_cap_bound(capsys):
    """A cap past the bound exits 2 at once, before any enumeration."""
    code = main(["oracle", "--idx", "30", "--cap", "30"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--cap 30" in captured.err and "18" in captured.err
    assert run(capsys, "oracle", "--idx", "4", "--cap", "18")[0] == 0


def test_verify_degree_cap_bound(capsys):
    """verify bounds --degree-cap itself and names it, not the oracle's --cap."""
    code = main(["verify", "--degree-cap", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--degree-cap 20" in captured.err and "18" in captured.err
    assert "--cap" not in captured.err.replace("--degree-cap", "")


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


@pytest.mark.parametrize("flag, value", [("--cases", "0"), ("--cases", "-5"),
                                         ("--degree-cap", "0")])
def test_verify_rejects_vacuous_scales(capsys, flag, value):
    """A battery that would run no case exits 2 before any work, naming the flag."""
    code = main(["verify", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{flag} {value}" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--hz-k", "1"], ["hz", "--kmax", "1"]],
                         ids=["verify", "hz"])
def test_recurrence_flags_below_two_are_rejected(capsys, monkeypatch, argv):
    """k < 2 exits 2 naming the flag, before any moment is reduced."""
    from ncbv import harer_zagier, verify

    def no_work():
        raise AssertionError("a check ran before the flag was validated")

    monkeypatch.setattr(verify, "default_reducer", no_work)
    monkeypatch.setattr(harer_zagier, "default_reducer", no_work)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{argv[1]} 1 must be at least 2" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--hz-k", "51"], ["hz", "--kmax", "51"]],
                         ids=["verify", "hz"])
def test_recurrence_flags_above_the_bound_are_rejected(capsys, monkeypatch, argv):
    """k above ``harer_zagier.MAX_K`` exits 2 naming the flag, before any
    moment is reduced."""
    from ncbv import harer_zagier, verify

    def no_work():
        raise AssertionError("a check ran before the flag was validated")

    monkeypatch.setattr(verify, "default_reducer", no_work)
    monkeypatch.setattr(harer_zagier, "default_reducer", no_work)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"{argv[1]} 51 exceeds the largest recurrence bound {harer_zagier.MAX_K}" in captured.err
    assert harer_zagier.MAX_K == 50


def test_hz_plain_failure_shows_counterexample(capsys, monkeypatch):
    from ncbv import harer_zagier

    monkeypatch.setattr(harer_zagier, "harer_zagier_closed", lambda k, size: 0)
    code, out = run(capsys, "hz", "--kmax", "4", "--output", "plain")
    assert code == 1
    assert out == (
        "PASS  harer-zagier-recurrence [k <= 4]\n"
        "FAIL  harer-zagier-closed-form [k <= 4, N <= 6]"
        "  counterexample: k=0, N=1: p=1 formula=0\n"
        "PASS  catalan-leading-coefficient [k <= 4]\n"
        "SOME CHECKS FAILED\n"
    )
