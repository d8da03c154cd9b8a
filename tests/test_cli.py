"""Batch front end: problem files, reports, exit codes, selftest."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import conicbundles
import conicbundles.cli as cli
from conicbundles import exactnum, quadform
from conicbundles.cli import CLIInputError, main, parse_problem
from conicbundles.brauermanin import obstruction_scan
from conicbundles.counting import CountJob, enumerate_N, region_measure
from conicbundles.delpezzo import DP1Data
from conicbundles.exactnum import Place, REAL_PLACE, factorize
from conicbundles.pencil import ConicBundleData, NormFormSystem
from oracle import check_local_witness


ROOT = Path(__file__).resolve().parent.parent


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


FLAG_PENCIL = "kind = pencil\ne = 0, 1, 2, 3\na = 5, 5, 5, 5\nsupport = oo, 5\n"
REF_JOB = ("kind = count-job\na = -1\nforms = 1 0\nuInf = 1, 1\n"
           "B_schedule = 4, 9\n")
REF_DP2 = "kind = dp2\nf = 1 : 0, 1\ng = 1 : 2, 3\nh = 1 : 4, 5\n"
REF_DP1 = "kind = dp1\ne = 0, 1, 2, 3, 4, 5, 6, 7\nc1 = 1\nc2 = 1\n"


# ----------------------------------------------------------------- parser

def test_parse_problem_shape():
    problem = parse_problem("# comment\n\nkind = pencil\ne = 0,1\na= -1 -1\n")
    assert problem.kind == "pencil"
    assert problem.raw("e") == "0,1"
    assert problem.raw("a") == "-1 -1"
    assert problem.where("a") == "line 5"


@pytest.mark.parametrize("text,needle", [
    ("e = 0, 1\na = 5, 5\n", "never sets `kind`"),
    ("kind = widget\n", "unknown kind"),
    ("kind = pencil\ne = 0\ne = 1\na = 5\n", "already set on line 2"),
    ("kind = pencil\njust words\n", "line 2: expected `key = value`"),
    ("kind = pencil\ne =\na = 5\n", "no value"),
    ("kind = pencil\ne = 0\na = 5\nforms = 1 0\n", "not used by kind"),
    ("kind = pencil\na = 5\n", "requires the key 'e'"),
])
def test_parse_problem_errors(text, needle):
    with pytest.raises(CLIInputError) as err:
        parse_problem(text)
    assert needle in str(err.value)


SYSTEM_HEAD = "kind = system\na = -1, 2\n"
LONG = "3" * 5000  # past the interpreter's default limit of 4300 digits


NEEDS_DIGIT_LIMIT = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter reads an int of any length")


def _long(text):
    # an integer token too long for int() to read, where the interpreter
    # has that limit: the refusal gives its digit count, not the token
    return pytest.param(
        "validate", text, "an integer of 5000 digits, past the limit of",
        marks=NEEDS_DIGIT_LIMIT)


@pytest.mark.parametrize("command, text, needle", [
    ("validate", "kind = pencil\ne = 0, x\na = 5, 5\n", "not a rational"),
    ("validate", "kind = system\na = 5, x\nforms = 1 0; 0 1\n",
     "is not an integer"),
    ("validate", SYSTEM_HEAD + "forms = 1 0; ; 0 1\n", "empty row"),
    ("validate", SYSTEM_HEAD + "forms = 1 0; 1\n",
     "rows must share a length"),
    ("validate", REF_DP2.replace("f = 1 : 0, 1", "f = 1 0 1"),
     "expected `leading : roots`"),
    ("validate", REF_DP2.replace("f = 1 : 0, 1", "f = 0 : 0, 1"),
     "leading coefficient must be nonzero"),
    ("local", SYSTEM_HEAD + "forms = 1 0; 0 1\nL = 1\n",
     "option L must be >= 2"),
    _long("kind = system\na = -1, %s\nforms = 1 0; 0 1\n" % LONG),
    _long(SYSTEM_HEAD + "forms = 1 0; 0 1\nL = %s\n" % LONG),
    _long("kind = pencil\ne = 0, 1, 2, 1/%s\na = 5, 5, 5, 5\n" % LONG),
], ids=["rational token", "int token", "empty row", "ragged rows",
        "no colon", "zero leading", "option L", "long int token",
        "long option", "long rational token"])
def test_bad_tokens_exit_2(tmp_path, capsys, command, text, needle):
    code, report = run_cli([command, write_problem(tmp_path, text)], tmp_path)
    assert code == 2 and report is None
    assert needle in capsys.readouterr().err


SYSTEM_FILE = SYSTEM_HEAD + "forms = 1 0; 0 1\n"


@pytest.mark.parametrize("command, text, flags, needle", [
    pytest.param(
        "predict", REF_JOB, ["--prime-cutoff", LONG],
        "option --prime-cutoff: an integer of 5000 digits, past the limit of",
        marks=NEEDS_DIGIT_LIMIT),
    ("local", SYSTEM_FILE, ["--L", "x"], "option --L: 'x' is not an integer"),
    ("local", SYSTEM_FILE, ["--L", "20000000"],
     "option L: cannot sieve the primes up to 20000000, beyond the cap"),
    ("local", SYSTEM_FILE, ["--depth", "0"], "option depth must be >= 1"),
    ("selftest", None, ["--seed", "-1"], "option seed must be >= 0"),
], ids=["long flag", "flag token", "flag past the cap", "flag minimum",
        "selftest flag minimum"])
def test_bad_flags_exit_2(tmp_path, capsys, command, text, flags, needle):
    # a flag is read as the same value in the file is: a token too long
    # for int() is named by its size, and every refusal names the option
    head = [command] if text is None else [command,
                                           write_problem(tmp_path, text)]
    code, report = run_cli(head + flags, tmp_path)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert needle in err and len(err.encode()) < 300


def test_payload_error_exit_2(tmp_path, capsys):
    path = write_problem(tmp_path, "kind = pencil\ne = 0, 0\na = 5, 5\n")
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 2 and report is None
    assert "pairwise distinct" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    code, report = run_cli(["validate", str(tmp_path / "absent")], tmp_path)
    assert code == 2 and report is None
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["brauer", "selftest"])
def test_unwritable_out_exit_2(tmp_path, capsys, command):
    if command == "brauer":
        args = ["brauer", write_problem(tmp_path, FLAG_PENCIL)]
    else:
        args = ["selftest", "--quick"]
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "input error: cannot write" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_unknown_command_exit_2(tmp_path, capsys):
    assert main(["frobnicate", "x"]) == 2
    capsys.readouterr()


def test_wrong_kind_for_command_exit_2(tmp_path, capsys):
    path = write_problem(tmp_path, REF_DP2)
    code, _ = run_cli(["brauer", path], tmp_path)
    assert code == 2
    assert "needs kind 'pencil'" in capsys.readouterr().err


BAD_SUPPORT = ("kind = pencil\ne = 0, 1, 2, 3\na = 5, 5, 5, 5\n"
               "support = oo, 4, x\n")


@pytest.mark.parametrize("command", ["validate", "brauer", "local", "bm"])
def test_malformed_support_exit_2_whatever_the_command(tmp_path, capsys,
                                                       command):
    # every key of the kind is read, also by the commands that ignore it
    path = write_problem(tmp_path, BAD_SUPPORT)
    code, report = run_cli([command, path], tmp_path)
    assert code == 2 and report is None
    assert "'4' is not a prime or `oo`" in capsys.readouterr().err


OPTION_FLAGS = ("--L", "--depth", "--threads", "--prime-cutoff",
                "--resolution", "--quick", "--seed")
COMMAND_FLAGS = {
    "validate": (), "brauer": (), "local": ("--L", "--depth"),
    "count": ("--threads",), "predict": ("--threads", "--prime-cutoff"),
    "bm": ("--resolution",), "dp2": (), "dp1": (),
    "selftest": ("--quick", "--seed"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_exactly_its_flags(tmp_path, capsys, command):
    head = [command] if command == "selftest" else [
        command, str(tmp_path / "never-read.txt")]
    for flag in OPTION_FLAGS:
        args = head + ([flag] if flag == "--quick" else [flag, "3"])
        if flag in COMMAND_FLAGS[command]:
            parsed = cli._build_parser().parse_args(args)
            if flag == "--quick":
                assert parsed.quick is True
            else:
                key = flag[2:].replace("-", "_")
                assert cli.effective_options(None, parsed)[key] == 3
        else:
            assert main(args) == 2, flag
            assert "unrecognized arguments" in capsys.readouterr().err


def test_local_depth_flag_echoed(tmp_path):
    path = write_problem(tmp_path,
                         "kind = pencil\ne = 0, 1\na = -1, -1\nL = 30\n")
    code, report = run_cli(["local", path, "--depth", "6"], tmp_path)
    assert code == 0
    assert report["inputs"]["options"]["depth"] == 6
    assert report["results"]["report"]["soluble"] is True


def test_local_depth_at_the_technical_bound_exit_2(tmp_path, capsys):
    # v_2(4 * 8) = 5, so a depth the caller sets must exceed 5 at p = 2
    path = write_problem(tmp_path, "kind = system\na = -1, 8\n"
                                   "forms = 1 0; 0 1\n")
    code, report = run_cli(["local", path, "--depth", "2"], tmp_path)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert "depth 2 at p = 2 does not exceed the technical bound 5" in err
    code, report = run_cli(["local", path, "--depth", "6"], tmp_path)
    assert code == 0 and report["results"]["report"]["soluble"] is True


def test_count_threads_flag(tmp_path, monkeypatch):
    # `threads` is inert: an s = 3 job at B = 31^2, 923,521 entry points,
    # counts on the calling thread whatever the flag, which is echoed
    path = write_problem(tmp_path, "kind = count-job\na = -1, 2\n"
                                   "forms = 1 1 0; 1 -1 1\nuInf = 1, 1/3, 1\n"
                                   "B_schedule = 961\n")
    _, one = run_cli(["count", path, "--threads", "1"], tmp_path, "one.json")

    def refuse(thread):
        raise AssertionError("count started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, two = run_cli(["count", path, "--threads", "2"], tmp_path,
                        "two.json")
    assert code == 0
    assert one["inputs"]["options"]["threads"] == 1
    assert two["inputs"]["options"]["threads"] == 2
    assert two["results"] == one["results"]
    assert one["results"]["per_B"][0]["N"] > 0


def test_local_witness_past_the_digit_limit(tmp_path):
    # at depth 15000 the 2-adic witness is near 2^14997, more digits than
    # the interpreter turns into a string by default: the report is still
    # written, and the limit is as it was afterwards
    a, forms = (-1, 3), ((1, 0), (0, 1))
    path = write_problem(tmp_path, "kind = system\na = -1, 3\n"
                                   "forms = 1 0; 0 1\n")
    out = tmp_path / "report.json"
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    assert main(["local", path, "--depth", "15000", "--out", str(out)]) == 0
    assert get_limit() == limit
    report = json.loads(out.read_text(), parse_int=str)["results"]["report"]
    assert report["soluble"] is True and report["checked"][:2] == ["oo", "2"]
    finite = [w for w in report["witnesses"] if w["place"] != "oo"]
    assert [w["precision"] for w in finite] == ["15000"] * 25
    assert max(len(x) for w in finite for x in w["u"]) > 4300
    # every witness certifies its place, read back past the limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for w in finite:
            u = [int(x) for x in w["u"]]
            assert check_local_witness(a, forms, int(w["place"]), u,
                                       15000) is None, w["place"]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_local_L_past_the_sieve_cap_exit_2(tmp_path, capsys, monkeypatch):
    # the primes up to L are sieved a byte per integer, so an L past the
    # cap is refused before the sieve; the cap is made small here so the
    # refusal is quick to reach
    monkeypatch.setattr(exactnum, "DEFAULT_ENUMERATION_CAP", 1000)
    path = write_problem(tmp_path, "kind = system\na = -1, 3\n"
                                   "forms = 1 0; 0 1\nL = 2000\n")
    code, report = run_cli(["local", path], tmp_path)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert "option L: cannot sieve the primes up to 2000, beyond the cap " \
        "1000" in err
    code, report = run_cli(["local", path, "--L", "1000"], tmp_path)
    assert code == 0 and report["results"]["report"]["soluble"] is True


def test_predict_cutoff_past_the_sieve_cap_exit_2(tmp_path, capsys,
                                                  monkeypatch):
    # the primes up to the cutoff are sieved too: a cutoff past the cap is
    # an input error, in the file or as a flag, and `validate` refuses it
    # as it refuses a cutoff below 2
    monkeypatch.setattr(exactnum, "DEFAULT_ENUMERATION_CAP", 1000)
    keyed = write_problem(tmp_path, REF_JOB + "prime_cutoff = 2000\n",
                          "keyed.txt")
    plain = write_problem(tmp_path, REF_JOB, "plain.txt")
    for args in (["predict", keyed], ["predict", plain, "--prime-cutoff",
                                      "2000"], ["validate", keyed]):
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None, args
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err
        assert "option prime_cutoff: cannot sieve the primes up to 2000, " \
            "beyond the cap 1000" in err
    code, report = run_cli(["predict", plain, "--prime-cutoff", "1000"],
                           tmp_path)
    assert code == 0 and report["results"]["prime_cutoff"] == 1000


# ---------------------------------------------------------------- reports

def test_report_skeleton_and_echo(tmp_path):
    path = write_problem(tmp_path, FLAG_PENCIL)
    code, report = run_cli(["brauer", path], tmp_path)
    assert code == 0
    assert report["schema"] == 1
    assert report["version"] == cli.__version__
    assert report["command"] == "brauer"
    assert set(report["timings"]) == {"total_seconds"}
    assert report["inputs"]["kind"] == "pencil"
    assert report["inputs"]["file"] == {
        "e": "0, 1, 2, 3", "a": "5, 5, 5, 5", "support": "oo, 5"}


def test_round_trip_echo_property(tmp_path):
    path = write_problem(tmp_path, FLAG_PENCIL)
    code, first = run_cli(["bm", path], tmp_path, "first.json")
    assert code == 0
    rebuilt = "kind = %s\n" % first["inputs"]["kind"]
    rebuilt += "".join("%s = %s\n" % (k, v)
                       for k, v in first["inputs"]["file"].items())
    again = write_problem(tmp_path, rebuilt, "rebuilt.txt")
    code, second = run_cli(["bm", again], tmp_path, "second.json")
    assert code == 0
    assert second["results"] == first["results"]


def test_reports_identical_modulo_timings(tmp_path):
    path = write_problem(tmp_path, FLAG_PENCIL)
    _, one = run_cli(["bm", path], tmp_path, "one.json")
    _, two = run_cli(["bm", path], tmp_path, "two.json")
    one.pop("timings")
    two.pop("timings")
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_stdout_when_no_out_flag(tmp_path, capsys):
    path = write_problem(tmp_path, FLAG_PENCIL)
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["valid"] is True


def test_out_flag_leaves_stdout_empty(tmp_path, capsys):
    path = write_problem(tmp_path, FLAG_PENCIL)
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 0 and report is not None
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------- commands

def test_brauer_flagship_quotient_rank(tmp_path):
    path = write_problem(tmp_path, FLAG_PENCIL)
    code, report = run_cli(["brauer", path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["quotient_rank"] == 2
    assert res["weak_approximation"] is False
    assert res["kernel_dim"] == 3
    assert res["generators"] == [[0, 0, 1, 1], [0, 1, 0, 1]]
    assert res["faddeev_class"] == "1"


def test_brauer_split_rank_zero(tmp_path):
    path = write_problem(tmp_path, "kind = pencil\ne = 0, 1, 2\na = 2, 3, 6\n")
    code, report = run_cli(["brauer", path], tmp_path)
    assert code == 0
    assert report["results"]["quotient_rank"] == 0
    assert report["results"]["weak_approximation"] is True


def test_validate_pencil_warns_without_reciprocity(tmp_path):
    path = write_problem(tmp_path, "kind = pencil\ne = 0, 1\na = 5, 3\n")
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["valid"] is True
    assert res["faddeev_holds"] is False
    assert res["faddeev_class"] == "15"
    assert len(res["warnings"]) == 1


def test_predict_reference_job(tmp_path):
    path = write_problem(tmp_path, REF_JOB)
    code, report = run_cli(["predict", path, "--prime-cutoff", "20"],
                           tmp_path)
    assert code == 0
    rows = report["results"]["per_B"]
    assert [row["B"] for row in rows] == [4, 9]
    for row in rows:
        beta_inf = row["beta_inf_per_Bs"]
        assert beta_inf["precision_bits"] == 53
        assert abs(beta_inf["value"] - math.pi / 4) < 1e-12
        assert set(row["beta_p"].values()) == {"1/1"}
        assert row["ratio"]["precision_bits"] == 53
        assert row["empirical"] > 0
        assert abs(row["ratio"]["value"]
                   - row["empirical"] / row["predicted"]["value"]) < 1e-9


def test_predict_writes_a_nan_ratio_as_null(tmp_path, capsys):
    # f(uM) = 3 mod 4 is a norm of Z[i] at no lift, so beta_2 = 0, the
    # prediction is 0 and the ratio 0/0; JSON has no NaN
    path = write_problem(tmp_path, "kind = count-job\na = -1\nforms = 1 0\n"
                                   "M = 4\nuM = 3, 0\nB_schedule = 25\n")
    assert main(["predict", path]) == 0

    def refuse(name):
        raise ValueError("%s is not JSON" % name)

    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    row, = report["results"]["per_B"]
    assert row["beta_p"]["2"] == "0/1" and row["ratio"] is None


def _fractions_past_the_limit(texts):
    # "num/den" strings read back as Fractions, the interpreter's limit on
    # the digits of an int read from a string lifted meanwhile
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return [Fraction(x) for x in texts]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


TINY_EPSILON_JOB = ("kind = count-job\na = -1\nforms = 1 0 0\n"
                    "uInf = 1, 1, 1\nepsilon = 1/1%s\nB_schedule = 4\n"
                    % ("0" * 1500))


def test_count_writes_a_ratio_past_the_float_range_as_null(tmp_path):
    # with epsilon = 10^-1500 the box holds only u = (4, 4, 4), so N = 1
    # and N / measure is far past the float range: written null, as any
    # non-finite float is, beside the measure's 4,500-digit denominator
    path = write_problem(tmp_path, TINY_EPSILON_JOB)
    code, report = run_cli(["count", path], tmp_path)
    assert code == 0
    row, = report["results"]["per_B"]
    assert row["N"] == 1 and row["N_per_measure"] is None
    assert len(row["box_measure"].split("/")[1]) > 4300
    job = CountJob(system=NormFormSystem(r=1, s=3, a=(-1,),
                                         forms=((1, 0, 0),)),
                   uInf=(1, 1, 1), epsilon=Fraction(1, 10**1500),
                   B_schedule=(4,))
    assert _fractions_past_the_limit([row["box_measure"]]) == [
        region_measure(job, 4)]


def test_predict_with_a_zero_minors_gcd_exit_1(tmp_path, capsys):
    # r = 3 > s = 2: beta_2 has no level to read, and is refused naming
    # ROADMAP item 4 rather than written as 1
    path = write_problem(tmp_path, "kind = count-job\na = 2, 6, 7\n"
                                   "forms = 3 2; -2 2; 1 3\nuInf = 1, 1\n"
                                   "B_schedule = 4\n")
    code, report = run_cli(["predict", path, "--prime-cutoff", "2"],
                           tmp_path)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert "computational failure" in err and "ROADMAP item 4" in err


def test_count_matches_module(tmp_path):
    path = write_problem(tmp_path, REF_JOB)
    code, report = run_cli(["count", path], tmp_path)
    assert code == 0
    job = CountJob(system=NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 0),)),
                   uInf=(1, 1), B_schedule=(4, 9))
    for row, B in zip(report["results"]["per_B"], (4, 9)):
        assert row["N"] == enumerate_N(job, B)
        measure = region_measure(job, B)
        assert row["box_measure"] == "%d/%d" % (measure.numerator,
                                                measure.denominator)
        assert abs(row["N_per_measure"]["value"]
                   - row["N"] / float(measure)) < 1e-12


def test_local_pencil_via_torsor(tmp_path):
    path = write_problem(tmp_path,
                         "kind = pencil\ne = 0, 1\na = -1, -1\nL = 30\n")
    code, report = run_cli(["local", path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["system"]["r"] == 2
    inner = res["report"]
    assert inner["soluble"] is True
    assert inner["bad_places"] == []
    assert inner["checked"][:2] == ["oo", "2"]
    assert inner["witnesses"][0]["place"] == "oo"
    finite = [w for w in inner["witnesses"] if w["place"] != "oo"]
    assert finite and all("precision" in w for w in finite)


def test_local_flag_overrides_file_option(tmp_path):
    path = write_problem(tmp_path,
                         "kind = pencil\ne = 0, 1\na = -1, -1\nL = 50\n")
    code, report = run_cli(["local", path, "--L", "10"], tmp_path)
    assert code == 0
    assert report["inputs"]["options"]["L"] == 10
    checked = {c for c in report["results"]["report"]["checked"]}
    assert "11" not in checked


def test_local_quadric_intersection_per_factor(tmp_path):
    path = write_problem(
        tmp_path,
        "kind = quadric-intersection\ne = 0, 1, 2, 3\na = 5, 5\nc = 1, 1\n")
    code, report = run_cli(["local", path, "--L", "20"], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["n"] == 2
    assert len(res["factors"]) == 2
    assert res["soluble_factors"] is True
    for factor in res["factors"]:
        assert factor["report"]["soluble"] is True


def test_bm_scan_matches_module(tmp_path):
    path = write_problem(tmp_path, FLAG_PENCIL)
    code, report = run_cli(["bm", path], tmp_path)
    assert code == 0
    data = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
    table = obstruction_scan(data, (REAL_PLACE, Place(5)))
    assert report["results"]["scan"] == table.as_json_dict()
    assert report["results"]["scan"]["allowed_count"] == 60


def test_bm_resolution_flag(tmp_path):
    path = write_problem(tmp_path, FLAG_PENCIL + "resolution = 2\n")
    code, report = run_cli(["bm", path, "--resolution", "1"], tmp_path)
    assert code == 0
    assert report["results"]["scan"]["resolution"] == {"5": 1}
    data = ConicBundleData(e=(0, 1, 2, 3), a=(5, 5, 5, 5))
    table = obstruction_scan(data, (REAL_PLACE, Place(5)), resolution=1)
    assert report["results"]["scan"]["allowed_count"] == table.allowed_count()


def test_bm_resolution_past_the_cap_exit_2(tmp_path, capsys):
    # 5^11 residues at 5 pass the cap: a resolution set as a flag or a
    # file key is the caller's to lower, so exit 2; at the default
    # resolution a place past the cap stays exit 1 (the test below)
    keyed = write_problem(tmp_path, FLAG_PENCIL + "resolution = 11\n",
                          "keyed.txt")
    plain = write_problem(tmp_path, FLAG_PENCIL, "plain.txt")
    for args in (["bm", plain, "--resolution", "11"], ["bm", keyed]):
        code, report = run_cli(args, tmp_path)
        assert code == 2 and report is None, args
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err
        assert "5^11 residues, beyond the cap" in err


def test_bm_needs_support(tmp_path, capsys):
    path = write_problem(tmp_path, "kind = pencil\ne = 0, 1\na = -1, -1\n")
    code, _ = run_cli(["bm", path], tmp_path)
    assert code == 2
    assert "support" in capsys.readouterr().err


def test_bm_psi_13_place_exit_2(tmp_path, capsys):
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to the
    # bases 2..41; a support place must still be a prime
    path = write_problem(tmp_path, FLAG_PENCIL.replace(
        "support = oo, 5", "support = oo, 2, 3317044064679887385961981"))
    code, report = run_cli(["bm", path], tmp_path)
    assert code == 2 and report is None
    assert "is not a prime" in capsys.readouterr().err


def test_bm_scan_past_the_cap_exit_1(tmp_path, capsys):
    path = write_problem(tmp_path, FLAG_PENCIL.replace(
        "support = oo, 5", "support = oo, 2, 1000003"))
    code, report = run_cli(["bm", path], tmp_path)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert "computational failure" in err and "beyond the cap" in err


def test_count_past_the_row_cap_exit_1(tmp_path, capsys):
    # the Pell solution of 30781 has 361 digits, so the table's rows are
    # past the cap: refused before the first row, without a traceback
    path = write_problem(tmp_path, REF_JOB.replace("a = -1", "a = 30781")
                         .replace("4, 9", "4"))
    code, report = run_cli(["count", path], tmp_path)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert "computational failure" in err and "beyond the cap" in err


def test_count_past_memory_exit_1(tmp_path):
    # a table of 10^10 int64 entries (74.5 GiB) cannot be allocated under
    # a 3 GB address-space limit, set in the child alone
    resource = pytest.importorskip("resource")
    path = write_problem(tmp_path, REF_JOB.replace("4, 9", "10000000000"))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "conicbundles", "count", path], env=env,
        capture_output=True, text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 1, proc.stderr
    assert "computational failure" in proc.stderr
    assert "does not fit in memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dp2_report(tmp_path):
    path = write_problem(tmp_path, REF_DP2)
    code, report = run_cli(["dp2", path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["bundle"]["data"]["a"] == ["-30", "-6", "-3", "-3", "-6",
                                          "-30"]
    assert res["bundle"]["degrees"] == [2, 2, 2]
    quartic = res["ramification_quartic"]
    assert quartic["smooth"] is True
    assert [quartic[k] for k in ("x4", "y4", "z4", "x2y2", "x2z2", "y2z2")] \
        == ["1/1", "1/1", "1/1", "-14/1", "-62/1", "-14/1"]
    assert res["minimality"]["independent"] is False
    assert res["minimality"]["certificate"] == ["a"]


def test_dp2_split_fibre_exit_1(tmp_path, capsys):
    path = write_problem(
        tmp_path, "kind = dp2\nf = 1 : 0, 1\ng = 1 : 2, 3\nh = -120 : 4, 5\n")
    code, report = run_cli(["dp2", path], tmp_path)
    assert code == 1 and report is None
    assert "split" in capsys.readouterr().err


def test_dp1_report(tmp_path):
    path = write_problem(tmp_path, REF_DP1)
    code, report = run_cli(["dp1", path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["condition"]["holds"] is True
    assert res["condition"]["failed"] == []
    assert len(res["condition"]["discriminant"]) == 7
    assert res["condition"]["discriminant"][0] == "-144/1"
    assert res["minimality"]["independent"] is False
    assert res["minimality"]["certificate"] == ["e1-e5", "e2-e6"]
    contracted = res["minimality"]["contracted_bundle"]
    assert contracted["a"] == ["210", "10", "30", "6", "35", "7", "21"]
    assert len(res["minimality"]["classes"]) == 16


def test_validate_dp1_writes_rationals_past_the_digit_limit(tmp_path):
    # every point is inside the digit limit, but the pencil's coefficients
    # have parts of 4,801 digits: the report writes them exactly
    big = 10**1200
    e = (big + 1, big + 3, big + 7, big + 13, 1, 2, 3, 5)
    path = write_problem(tmp_path, "kind = dp1\ne = %s\nc1 = 1\nc2 = 1\n"
                         % ", ".join(map(str, e)))
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 0
    p = report["results"]["p"]
    assert max(len(part) for x in p for part in x.split("/")) == 4801
    assert _fractions_past_the_limit(p) == list(
        DP1Data(e, 1, 1).p_coefficients())


def test_validate_quadric_intersection(tmp_path):
    path = write_problem(
        tmp_path,
        "kind = quadric-intersection\ne = 0, 1, 2, 3\na = 5, 5\nc = 1, 1\n")
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["valid"] is True and res["n"] == 2
    assert res["combined"]["a"] == ["5", "5", "5", "5"]
    assert res["faddeev_holds"] is True


def test_validate_count_job_echoes_job(tmp_path):
    path = write_problem(tmp_path, REF_JOB)
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 0
    job = report["results"]["job"]
    assert job["system"]["a"] == [-1]
    assert job["epsilon"] == "1/2"
    assert job["B_schedule"] == [4, 9]
    assert job["uInf"] == ["1/1", "1/1"]


def test_entry_points_serve_the_front_end(tmp_path):
    # `python -m conicbundles` writes the report that cli.main writes, and
    # the package serves main and run_selftest from cli on first use
    path = write_problem(tmp_path, FLAG_PENCIL)
    code, expected = run_cli(["validate", path], tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "conicbundles", "validate", path], env=env,
        capture_output=True, text=True, timeout=120)
    assert code == 0 and proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    got.pop("timings")
    expected.pop("timings")
    assert got == expected
    assert conicbundles.main is cli.main
    assert conicbundles.run_selftest is cli.run_selftest
    with pytest.raises(AttributeError):
        conicbundles.no_such_name


@pytest.mark.parametrize("command", ["count", "predict"])
def test_count_job_without_uinf_reads_ones(tmp_path, command):
    without = REF_JOB.replace("uInf = 1, 1\n", "")
    assert "uInf" not in without
    results = []
    for name, text in (("without", without), ("with", REF_JOB)):
        code, report = run_cli([command, write_problem(tmp_path, text, name)],
                               tmp_path, name + ".json")
        assert code == 0
        results.append(report["results"])
    assert results[0]["job"]["uInf"] == ["1/1", "1/1"]
    assert results[0] == results[1]


PINNED_QI = "kind = quadric-intersection\ne = 0, 1/2, 1/2, 3\na = 5, 5\nc = 1, 2\n"
PINNED_JOB = ("kind = count-job\na = -1, 2\nforms = 1 1; 1 -1\nuInf = 1, 1/3\n"
              "epsilon = 1/3\nB_schedule = 4, 9, 100\n")
# report -> (command, file, sha256 of the report's JSON without `timings`);
# the benchmark's CLI references never draw these pairs
PINNED_REPORTS = {
    "validate system": ("validate", "kind = system\na = -1, 2\n"
                        "forms = 1 0; 1 1\nclearing = 1, 2\n",
                        "86e16144af38c4deaeece2b5e4cfbd86"
                        "7f4651010e2df5bcd2b4ad4741abba2c"),
    "validate dp2": ("validate", "kind = dp2\nf = 1/2 : 0, 1\n"
                     "g = -1 : 2, 3/2\nh = 3 : 4, 5\n",
                     "3e0ea6f82edac9fe905bc370931d5595"
                     "bffaa55333e7eb571b529825fcac4ee4"),
    "validate quadric-intersection": ("validate", PINNED_QI,
                                      "cb6718cbdd1818cf3cb863727dec5033"
                                      "ef77e3dde8b6093b2bc7d82d68444af6"),
    "validate dp1": ("validate", REF_DP1,
                     "82624e323887a4cf8a757e89178573dd"
                     "c43dd11e87abcc3e55b4a3e05ae6f8ee"),
    "validate pencil with lam": ("validate", "kind = pencil\n"
                                 "e = 0, 1/2, 2, 3\na = 5, 5, 5, 5\n"
                                 "lam = 1, 2, 1/3, 1\n",
                                 "f59166be5c39196b214b95014ea9f560"
                                 "24d2e225a39fdde657d65faa31b85f6e"),
    "local system": ("local", "kind = system\na = -1, 2\n"
                     "forms = 1 0; 1 1\nL = 20\n",
                     "07ed8dcc89552acad17728ed6d022c26"
                     "a72250e755ccaf618f44ffdf12db99de"),
    "local count-job": ("local", PINNED_JOB + "L = 20\n",
                        "7f5b6ca4bf2785f333515840f65f6af5"
                        "f040eba4082fb828b2a7a1912d87b2a4"),
    "local quadric-intersection": ("local", PINNED_QI + "L = 20\n",
                                   "e1d4037d85f21ce7a1ca9369e9fc5bfd"
                                   "d8619ad2c71dc50b36d79e0e51423ac3"),
    "dp1 without contracted bundle": ("dp1", "kind = dp1\n"
                                      "e = -3, 7/2, -5, 4, 7, -2, 6, 0\n"
                                      "c1 = 1\nc2 = 5\n",
                                      "f2f348753715a3561fcac4c689394781"
                                      "049fecd9dc9adffcbce08bd368d8e27a"),
    "dp1 with contracted bundle": ("dp1", "kind = dp1\n"
                                   "e = 0, 1, 2, 3, 4, 5, 6, 7\n"
                                   "c1 = 1/3\nc2 = 1\n",
                                   "a7db8be322c76c06905e9a8475534618"
                                   "9cbcfd0a74559f4006bcbecc0b0765cc"),
    "count fractional uInf": ("count", PINNED_JOB,
                              "a1464e5e24bf895a5d1959ea1d0911f1"
                              "83599556e92a9c5e44b68f1bc0c49d24"),
}


def test_reports_match_their_pinned_digests(tmp_path):
    got = {}
    for name, (command, text, _) in PINNED_REPORTS.items():
        code, report = run_cli([command, write_problem(tmp_path, text)],
                               tmp_path)
        assert code == 0, name
        report.pop("timings")
        body = json.dumps(report, indent=2, sort_keys=True)
        got[name] = hashlib.sha256(body.encode()).hexdigest()
    assert got == {name: pin for name, (_, _, pin) in PINNED_REPORTS.items()}


# --------------------------------------------------------------- selftest

def test_selftest_passes(tmp_path):
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 0
    res = report["results"]
    assert res["passed"] is True
    assert res["total_failures"] == 0
    assert [s["name"] for s in res["suites"]] == [
        "reciprocity", "crt", "stabilization", "discriminant"]
    assert all(s["failures"] == 0 for s in res["suites"])
    assert res["total_cases"] == sum(s["cases"] for s in res["suites"])


def test_selftest_quick_is_deterministic_and_smaller(tmp_path):
    _, quick1 = run_cli(["selftest", "--quick"], tmp_path, "q1.json")
    _, quick2 = run_cli(["selftest", "--quick"], tmp_path, "q2.json")
    quick1.pop("timings")
    quick2.pop("timings")
    assert quick1 == quick2
    _, full = run_cli(["selftest"], tmp_path, "full.json")
    assert (quick1["results"]["total_cases"]
            < full["results"]["total_cases"])


def test_selftest_seed_changes_samples_not_verdict(tmp_path):
    _, one = run_cli(["selftest", "--quick", "--seed", "7"], tmp_path,
                     "s7.json")
    assert one["results"]["seed"] == 7
    assert one["results"]["passed"] is True


def test_selftest_corrupted_pin_fails(tmp_path, monkeypatch, capsys):
    corrupted = tuple(
        (kind, args, -expect if kind == "hilbert" and args == (2, 5, "5")
         else expect)
        for kind, args, expect in cli._SELFTEST_PINS)
    monkeypatch.setattr(cli, "_SELFTEST_PINS", corrupted)
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    res = report["results"]
    assert res["passed"] is False
    suite = next(s for s in res["suites"] if s["name"] == "reciprocity")
    assert suite["failures"] == 1
    assert "hilbert(2, 5, 5)" in suite["detail"][0]


def test_selftest_corrupted_oracle_fails(tmp_path, monkeypatch):
    honest = cli.hilbert

    def lying(a, b, place):
        value = honest(a, b, place)
        if place.p == 2:
            return -value
        return value

    monkeypatch.setattr(cli, "hilbert", lying)
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    suite = next(s for s in report["results"]["suites"]
                 if s["name"] == "reciprocity")
    assert suite["failures"] > 0


def test_selftest_pins_match_fresh_build():
    report = cli.run_selftest(quick=True, seed=0)
    assert report["passed"] is True
    full = cli.run_selftest(quick=False, seed=3)
    assert full["passed"] is True


def test_selftest_corrupted_discriminant_fails(tmp_path, monkeypatch):
    # the fault leaves the pins t^4 + a (p1 = 0) right, so only the
    # random split quartics can catch it
    honest = cli.quartic_discriminant

    def lying(q):
        value = honest(q)
        return value + 1 if q.coefficients[1] != 0 else value

    monkeypatch.setattr(cli, "quartic_discriminant", lying)
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    suite = next(s for s in report["results"]["suites"]
                 if s["name"] == "discriminant")
    assert suite["cases"] == 43
    assert 0 < suite["failures"] < suite["cases"]
    assert "closed form" in suite["detail"][0]


def _selftest_suite(report, name):
    return next(s for s in report["results"]["suites"] if s["name"] == name)


def _corrupt_pin(kind, args):
    return tuple((k, a, expect + 1 if (k, a) == (kind, args) else expect)
                 for k, a, expect in cli._SELFTEST_PINS)


@pytest.mark.parametrize("kind, args, name, cases, needle", [
    ("rho_sum", (-1, 9), "crt", 16,
     "sum of rho(x^2 - -1 y^2; A mod 9) = 81, pinned 82"),
    ("disc", (2,), "discriminant", 43, "disc(t^4 + 2) = -2048, pinned -2047"),
], ids=["rho_sum", "disc"])
def test_selftest_corrupted_pin_fails_its_suite(tmp_path, monkeypatch, kind,
                                               args, name, cases, needle):
    monkeypatch.setattr(cli, "_SELFTEST_PINS", _corrupt_pin(kind, args))
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    assert report["results"]["total_failures"] == 1
    suite = _selftest_suite(report, name)
    assert (suite["cases"], suite["failures"]) == (cases, 1)
    assert suite["detail"] == [needle]


def test_selftest_lying_rho_fails_the_coprime_check(tmp_path, monkeypatch):
    # the lie touches only moduli with two prime factors, so the rho_sum
    # pin at 9 still holds and every random coprime pair fails
    honest = cli.rho

    def lying(form, q, A):
        return honest(form, q, A) + (len(factorize(q)) > 1)

    monkeypatch.setattr(cli, "rho", lying)
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    suite = _selftest_suite(report, "crt")
    assert (suite["cases"], suite["failures"]) == (16, 15)
    assert len(suite["detail"]) == 5
    assert all("but the coprime parts give" in d for d in suite["detail"])


def test_selftest_wrong_local_count_fails_the_direct_count(tmp_path,
                                                           monkeypatch):
    # a prime-power count that is off by one at p = 5, A = 1 mod 5 enters
    # rho(q1 q2) and its coprime parts alike, so only the direct count of
    # (x, y) mod q1 q2 sees it; seed 5 draws three such cases
    honest = quadform._local_count
    monkeypatch.setattr(
        quadform, "_local_count",
        lambda a, p, k, A: honest(a, p, k, A) + (p == 5 and A % 5 == 1))
    code, report = run_cli(["selftest", "--quick", "--seed", "5"], tmp_path)
    assert code == 1
    suite = _selftest_suite(report, "crt")
    assert (suite["cases"], suite["failures"]) == (16, 3)
    assert all("but a direct count gives" in d for d in suite["detail"])


def test_selftest_lying_G_skips_the_scaled_check(tmp_path, monkeypatch):
    # G(p^(k+1)) = p^(s+r) G(p^k) fails at every (job, p); each such case
    # is one failure, with no beta_p comparison after it
    honest = cli.G
    monkeypatch.setattr(cli, "G", lambda job, p, k: honest(job, p, k) + 1)
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    suite = _selftest_suite(report, "stabilization")
    assert (suite["cases"], suite["failures"]) == (6, 4)
    assert suite["detail"][0].startswith("one norm form at p = 2: G(2^")
    assert all("times G(" in d for d in suite["detail"])


@pytest.mark.parametrize("liar, failures, needle", [
    (2, 2, "two norm forms at p = 2: beta_p = 2 but the scaled count is 1"),
    (5, 1, "good odd p = 5 should give beta_p = 1, got 2"),
], ids=["scaled", "good odd p"])
def test_selftest_lying_beta_p_fails(tmp_path, monkeypatch, liar, failures,
                                     needle):
    # quick mode scales at p in {2, 3} and checks good odd p in {3, 5}, so
    # a lie at 2 reaches only the scaled check and a lie at 5 only the other
    honest = cli.beta_p
    monkeypatch.setattr(cli, "beta_p",
                        lambda job, p: honest(job, p) + (p == liar))
    code, report = run_cli(["selftest", "--quick"], tmp_path)
    assert code == 1
    suite = _selftest_suite(report, "stabilization")
    assert (suite["cases"], suite["failures"]) == (6, failures)
    assert suite["detail"][-1] == needle


# selftest arguments -> sha256 of the report's JSON without `timings`
PINNED_SELFTESTS = {
    ("--seed", "0"): "e14bc97d02311a7fc0f00dcaa607b216"
                     "09c094a04622a4d8ae538c0c540d266a",
    ("--seed", "1"): "43cec30d11723d7a8ed3c09b99dfc32d"
                     "81f56218869a2af89fe444d7f83204cc",
    ("--quick", "--seed", "7"): "136e8d7c1c52ee58cc5889445e64ab8e"
                                "b4ccf46d5854fb0b9b4e35bd11ebdb98",
}


def test_selftest_reports_match_their_pinned_digests(tmp_path):
    got = {}
    for args in PINNED_SELFTESTS:
        code, report = run_cli(["selftest", *args], tmp_path)
        assert code == 0, args
        report.pop("timings")
        body = json.dumps(report, indent=2, sort_keys=True)
        got[args] = hashlib.sha256(body.encode()).hexdigest()
    assert got == PINNED_SELFTESTS
