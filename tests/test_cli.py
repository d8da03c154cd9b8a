"""Batch front end: problem files, reports, exit codes, selftest."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

import conicbundles.cli as cli
from conicbundles.cli import CLIInputError, main, parse_problem
from conicbundles.brauermanin import obstruction_scan
from conicbundles.counting import CountJob, enumerate_N, region_measure
from conicbundles.exactnum import Place, REAL_PLACE
from conicbundles.pencil import ConicBundleData, NormFormSystem


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


def test_bad_tokens_exit_2(tmp_path, capsys):
    path = write_problem(tmp_path, "kind = pencil\ne = 0, x\na = 5, 5\n")
    code, report = run_cli(["validate", path], tmp_path)
    assert code == 2 and report is None
    assert "not a rational" in capsys.readouterr().err


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
            value = getattr(parsed, flag[2:].replace("-", "_"))
            assert value == (True if flag == "--quick" else 3)
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


def test_count_threads_flag(tmp_path):
    path = write_problem(tmp_path, REF_JOB)
    _, one = run_cli(["count", path], tmp_path, "one.json")
    code, two = run_cli(["count", path, "--threads", "2"], tmp_path,
                        "two.json")
    assert code == 0
    assert one["inputs"]["options"]["threads"] == 1
    assert two["inputs"]["options"]["threads"] == 2
    assert two["results"] == one["results"]


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


def test_bm_needs_support(tmp_path, capsys):
    path = write_problem(tmp_path, "kind = pencil\ne = 0, 1\na = -1, -1\n")
    code, _ = run_cli(["bm", path], tmp_path)
    assert code == 2
    assert "support" in capsys.readouterr().err


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
        if place.is_finite and place.p == 2:
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
