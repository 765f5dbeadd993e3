"""CLI surface: invocations, formats, exit codes, report determinism."""

import hashlib
import json
import re
import time

import pytest

import sturmgas.characterization
import sturmgas.cli
import sturmgas.verify
from sturmgas.characterization import ENCLOSING_CAP
from sturmgas.cli import build_parser, main
from sturmgas.errors import InconclusiveError
from sturmgas.exact_angle import GOLDEN, QI_ZERO, RotationParams, parse_qi
from sturmgas.lattice_gas import SEARCH_CAP
from sturmgas.order_analysis import DistanceProfile, distance_profile
from sturmgas.sturmian_gen import Word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_golden_window(capsys):
    code, out, _ = run(capsys, "generate", "--gamma", "fib", "--psi", "fib",
                       "--from", "1", "--to", "13")
    assert code == 0
    assert out.strip() == "0100101001001"


def test_generate_phase_zero_prefix(capsys):
    code, out, _ = run(capsys, "generate", "--gamma", "fib", "--psi", "0,0,1,0",
                       "--from", "0", "--to", "1")
    assert code == 0
    assert out.strip() == "01"


def test_generate_empty_window_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--from", "5", "--to", "4")
    assert code == 1
    assert "empty window" in err


def test_unknown_flag_usage_error(capsys):
    assert run(capsys, "generate", "--nope", "1")[0] == 1


def test_generate_ratio_mode(capsys):
    code, out, _ = run(capsys, "generate", "--gamma", "ratio:13/21",
                       "--from", "2", "--to", "18")
    assert code == 0
    assert set(out.strip()) <= {"0", "1"}


def test_generate_ratio_mode_margin_failure_exit_two(capsys, tmp_path):
    argv = ["generate", "--gamma", "ratio:13/21", "--from", "2", "--to", "400"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "computation limit" in err
    assert out == ""
    # with --format json the failure is also reported on stdout or --out
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert "computation limit: HorizonExceededError" in err
    error = json.loads(out)["error"]
    assert error["type"] == "HorizonExceededError"
    assert "boundary margin" in error["message"]
    assert error["info"] == {"first_bad_index": 21}
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--format", "json", "--out", str(path))
    assert code == 2 and out == ""
    assert json.loads(path.read_text(encoding="utf-8")) == {"error": error}
    # an unwritable --out is reported on stderr, not as a traceback
    code, _, err = run(capsys, *argv, "--format", "json", "--out", str(tmp_path))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "energy", "--word", "11", "--out", str(tmp_path))
    assert code == 1 and "error:" in err


def test_inconclusive_json_report_carries_info(capsys):
    # the first enclosing length, n itself, already exceeds the cap 4096
    code, out, err = run(capsys, "characterize", "--n", "4097", "--format", "json")
    assert code == 2
    assert "computation limit: InconclusiveError" in err
    assert json.loads(out) == {
        "error": {
            "type": "InconclusiveError",
            "message": "legal words of length 4097 not certified below enclosing-length cap 4096",
            "info": {"length_reached": 4097},
        }
    }


def test_characterize_certifies_past_the_doubling_cap(capsys):
    # four times the doubling search's first length 1026 exceeded the cap;
    # the certificate needs only M = n + 2
    code, out, _ = run(capsys, "characterize", "--n", "513", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["M_used"] == 515 and results["count"] == 514
    assert results["matches_factor_set"] is True


def test_characterize_above_the_cap_builds_no_large_profile(capsys, monkeypatch):
    real = sturmgas.order_analysis.distance_profile

    def capped(params, horizon):
        assert horizon <= ENCLOSING_CAP, f"built a profile of horizon {horizon}"
        return real(params, horizon)

    monkeypatch.setattr(sturmgas.order_analysis, "distance_profile", capped)
    code, out, _ = run(capsys, "characterize", "--n", "65536", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["info"] == {"length_reached": 65536}


@pytest.mark.parametrize("argv", [
    ("generate", "--from", "0", "--to", "1000000000000"),
    ("homogeneous", "--from", "0", "--to", "1000000000000"),
    ("discrepancy", "--word", "1", "--max-len", "1000000000000"),
])
def test_huge_window_is_a_computation_limit(capsys, argv):
    # numpy refuses a window of terabytes at once, before allocating it
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("computation limit: ") and "MemoryError" in err
    assert err.count("\n") == 1
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"].endswith("MemoryError") and "allocate" in error["message"]


def test_inconclusive_report_lists_partial_words(monkeypatch, capsys):
    def give_up(n, profile):
        raise InconclusiveError("budget", partial={Word("10"), Word("01")})

    monkeypatch.setattr(sturmgas.cli, "enumerate_legal_stable", give_up)
    code, out, _ = run(capsys, "characterize", "--n", "2", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["info"] == {"partial": ["01", "10"]}


def test_ratio_mode_rejected_outside_generate(capsys):
    code, _, err = run(capsys, "distances", "--gamma", "ratio:13/21")
    assert code == 1
    assert "exact angle" in err


def test_distances_text(capsys):
    code, out, _ = run(capsys, "distances", "--horizon", "25")
    assert code == 0
    assert "2 5 7 10 13 15 18 20 23" in out
    assert "1 4 9 12 17 22 25" in out


def test_distances_readme_horizon_21(capsys):
    code, out, _ = run(capsys, "distances", "--horizon", "21")
    assert code == 0
    assert "2 5 7 10 13 15 18 20" in out


@pytest.mark.parametrize(
    "gamma, horizon, block",
    [("87,-3,108,59", "40", [22, 24, 26]), ("78,-5,108,7", "800", [747, 749, 751])],
)
def test_distances_adjacent_steps_of_two(capsys, gamma, horizon, block):
    # around the middle of a three-value block both d - 1 and d + 2 are allowed
    code, out, _ = run(capsys, "distances", "--gamma", gamma, "--horizon", horizon,
                       "--format", "json")
    assert code == 0
    assert block in json.loads(out)["results"]["blocks"]


def test_leading_minus_angle_both_forms(capsys):
    spaced = run(capsys, "distances", "--gamma", "-1,1,1,3", "--psi", "-1,1,1,3",
                 "--horizon", "40", "--format", "json")
    joined = run(capsys, "distances", "--gamma=-1,1,1,3", "--psi=-1,1,1,3",
                 "--horizon", "40", "--format", "json")
    assert spaced[0] == 0
    assert spaced == joined


def test_distances_json_deterministic(capsys):
    first = run(capsys, "distances", "--horizon", "30", "--format", "json")
    second = run(capsys, "distances", "--horizon", "30", "--format", "json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["tool_version"]
    assert payload["results"]["d"][:4] == [2, 5, 7, 10]


def test_complexity_csv(capsys):
    code, out, _ = run(capsys, "complexity", "--n-max", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p_n"
    assert lines[1] == "1,2" and lines[-1] == "6,7"


def test_frequency_json(capsys):
    code, out, _ = run(capsys, "frequency", "--word", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["frequency"] == "3,-1,2,5"


def test_balance_and_homogeneous(capsys):
    code, out, _ = run(capsys, "balance", "--word", "0011", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["balanced"] is False
    code, out, _ = run(capsys, "homogeneous", "--word", "10011", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["homogeneous"] is False


def test_homogeneous_on_fewer_than_two_particles(capsys):
    assert run(capsys, "homogeneous", "--word", "0001000") == (0, "homogeneous\n", "")


def test_intervals_counts(capsys):
    code, out, _ = run(capsys, "intervals", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 5


def test_discrepancy_csv_row(capsys):
    code, out, _ = run(capsys, "discrepancy", "--word", "1", "--max-len", "500",
                       "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "word,frequency_decimal,max_dev,horizon"
    assert row.startswith("1,0.38196601125")


@pytest.mark.parametrize("word, trials", [("1", "0"), ("01", "0"), ("1", "-1")])
def test_discrepancy_trials_below_one_usage_error(capsys, word, trials):
    code, out, err = run(capsys, "discrepancy", "--word", word, "--max-len", "10",
                         "--trials", trials)
    assert code == 1 and out == ""
    assert err == f"error: trials must be >= 1, got {trials}\n"


def test_characterize_matches_factors(capsys):
    code, out, _ = run(capsys, "characterize", "--n", "5", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 6 and results["matches_factor_set"] is True


def test_characterize_sparse_angle_matches_arc_labels(capsys):
    # one 1 in about 300 sites: a window of a few hundred sites misses
    # most length-8 factors, the n + 1 arc labels do not
    code, out, _ = run(capsys, "characterize", "--n", "8", "--gamma", "89698,1,89998,2",
                       "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 9 and results["matches_factor_set"] is True


def test_characterize_sparse_angle_past_the_horizon(capsys):
    # d1 = 1707 lies past the default horizon 200; the profile grows to it
    code, out, _ = run(capsys, "characterize", "--n", "2", "--gamma", "998,1,1000,2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["legal_words"] == ["00", "01", "10"]


NEAR_ONE = "-1311738121,3166815962,3166815962,2"  # within 2**-64 of 1, d1 about 2.8e19


def _no_call(*args):
    raise AssertionError("called with a size past the cap")


def test_complexity_refuses_a_window_past_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(sturmgas.order_analysis, "generate", _no_call)
    code, out, err = run(capsys, "complexity", "--n-max", "5", "--gamma", NEAR_ONE,
                         "--format", "json")
    assert code == 2
    needed = json.loads(out)["error"]["info"]["needed"]
    assert needed > 10**19 and f"factor window for n <= 5 {needed}" in err


def test_distances_refuses_a_horizon_past_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(sturmgas.order_analysis, "generate", _no_call)
    code, out, _ = run(capsys, "distances", "--horizon", "100000000000", "--format", "json")
    assert code == 2 and json.loads(out)["error"]["info"] == {"needed": 10**11}
    # a horizon below 2 is a usage error, not clamped
    assert run(capsys, "distances", "--horizon", "1")[0] == 1


@pytest.mark.parametrize("argv", [("energy", "--word", "0011"), ("ground-state", "--length", "10")])
def test_energy_and_ground_state_refuse_a_d1_past_the_cap(capsys, monkeypatch, argv):
    # the vacancy-run term needs d1, about 2.8e19 here
    monkeypatch.setattr(sturmgas.order_analysis, "generate", _no_call)
    code, out, _ = run(capsys, *argv, "--gamma", NEAR_ONE, "--format", "json")
    assert code == 2 and json.loads(out)["error"]["info"]["needed"] > 10**19


@pytest.mark.parametrize("argv", [("characterize", "--n", "5"), ("exclusion", "--period", "7")])
def test_questions_without_d1_answer_near_one(capsys, argv):
    assert run(capsys, *argv, "--gamma", NEAR_ONE)[0] == 0


@pytest.mark.parametrize("gamma", ["998,1,1000,2", "89698,1,89998,2"])
def test_energy_and_ground_state_read_d1_past_200(capsys, gamma):
    # d1 = 1707 and 301: the profile reaches d1 without a horizon option
    assert run(capsys, "energy", "--word", "0011", "--gamma", gamma)[:2] == (
        0, "energy(0011) = 1/2\n")
    code, out, _ = run(capsys, "ground-state", "--length", "10", "--gamma", gamma)
    assert code == 0 and out == "minimum energy 0/1 over 1024 states; 11 ground words\n"


def test_verify_refuses_a_horizon_past_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(sturmgas.verify, "generate", _no_call)
    monkeypatch.setattr(sturmgas.verify, "distance_profile", _no_call)
    code, _, err = run(capsys, "verify", "--suite", "order", "--gamma", NEAR_ONE)
    assert code == 2
    assert "InconclusiveError: profile horizon" in err


@pytest.mark.parametrize("suite", ["order", "characterize", "energy"])
def test_verify_builds_the_profile_past_d1(capsys, suite):
    # d1 = 301 lies past DEFAULT_HORIZON = 200; the suites read 4 * (d1 + 1)
    code, out, _ = run(capsys, "verify", "--suite", suite, "--gamma", "89698,1,89998,2")
    assert code == 0, out


def test_verify_sparse_angle_fails_only_the_doubling_gate(capsys):
    # d1 = 1707: the characterize suite passes on its derived horizon, and the
    # discrepancy suite fails only the deviation doubling gate (ROADMAP item 1)
    failing = {}
    for suite in ("characterize", "discrepancy"):
        _, out, _ = run(capsys, "verify", "--suite", suite, "--gamma", "998,1,1000,2",
                        "--format", "json")
        for name, checks in json.loads(out)["results"]["suites"].items():
            failing[name] = [c["name"] for c in checks if not c["passed"]]
    assert failing == {"characterize": [], "discrepancy": ["deviation_maxima_stable"]}


@pytest.mark.parametrize("argv", [
    ("generate", "--from", "0", "--to", "5"), ("complexity",), ("balance",), ("homogeneous",),
    ("intervals", "--n", "2"), ("frequency", "--word", "1"), ("discrepancy", "--word", "1"),
    ("verify",), ("characterize", "--n", "2"), ("exclusion", "--period", "2"),
    ("energy", "--word", "1"), ("ground-state", "--length", "2"),
])
def test_horizon_only_where_a_profile_is_built(capsys, argv):
    code, _, err = run(capsys, *argv, "--horizon", "50")
    assert code == 1 and "unrecognized arguments: --horizon 50" in err


def test_characterize_angle_with_d1_past_the_enumeration_cap(capsys):
    # d1 = 17071 lies past ENCLOSING_CAP = 4096, so the grown profile still lists no
    # distance; at enclosing length 2 no zero run can bind either
    code, out, _ = run(capsys, "characterize", "--n", "2", "--gamma", "9998,1,10000,2",
                       "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["legal_words"] == ["00", "01", "10"] and results["count"] == 3


def test_exclusion(capsys):
    code, out, _ = run(capsys, "exclusion", "--period", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["multiple"] == 2


@pytest.mark.parametrize("period, multiple", [(329, 323), (1597, 1365)])
def test_exclusion_far_past_the_horizon(capsys, period, multiple):
    # at fib, 323 * 329 = 106267: the walk reads the multiples, not the sites
    code, out, _ = run(capsys, "exclusion", "--period", str(period), "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"period": period, "multiple": multiple, "distance": period * multiple}


def test_exclusion_cap_reports_progress_quickly(capsys):
    # gamma = 1/2 + 7e-7: the first forbidden even distance lies near 7*10^5,
    # past the SIZE_CAP multiples 4, 6, ..., 131074 that the walk reads, so it
    # stops there and reports the last distance read
    start = time.perf_counter()
    code, out, _ = run(capsys, "exclusion", "--period", "2",
                       "--gamma", "1000000,1,2000000,2", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"]["info"] == {"period": 2, "horizon_reached": 131074}
    assert time.perf_counter() - start < 5


def test_energy(capsys):
    code, out, _ = run(capsys, "energy", "--word", "11", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["total"] == "1/2"


def test_ground_state(capsys):
    code, out, _ = run(capsys, "ground-state", "--length", "6", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["min_energy"] == "0/1"
    assert results["states_scanned"] == 64


def test_ground_state_workers_option_removed(capsys):
    assert run(capsys, "ground-state", "--length", "12", "--workers", "2")[0] == 1


def test_ground_state_oversized_usage_error(capsys):
    code, _, err = run(capsys, "ground-state", "--length", str(SEARCH_CAP + 1))
    assert code == 1
    assert "refusing" in err


def test_ground_state_huge_length_builds_no_huge_profile(capsys, monkeypatch):
    horizons = []
    real = sturmgas.order_analysis.distance_profile

    def recording(params, horizon):
        horizons.append(horizon)
        return real(params, horizon)

    monkeypatch.setattr(sturmgas.order_analysis, "distance_profile", recording)
    code, _, err = run(capsys, "ground-state", "--length", str(10**9))
    assert code == 1 and "refusing" in err
    assert horizons == [SEARCH_CAP]


#: sha1 of `verify --suite energy --format json`, pinned so that the exact
#: coupling sum and energies behind its details cannot drift unnoticed
ENERGY_REPORT_SHA1 = {
    "fib": "ab20ca41c6cdf6c7ed3690d95fee87fad119d69b",
    "998,1,1000,2": "e2995473d9f0505d5d6b599c8e218ec5f34d6831",
    "89698,1,89998,2": "d1958019a2f58d3e842d53426454e899de63065d",
}


@pytest.mark.parametrize("gamma", ENERGY_REPORT_SHA1)
def test_verify_energy_report_is_pinned(capsys, gamma):
    code, out, _ = run(capsys, "verify", "--suite", "energy", "--format", "json", "--gamma", gamma)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == ENERGY_REPORT_SHA1[gamma], out


#: gamma = (6 - sqrt(3))/8 ~ 0.5335: the legal-word certificate outgrows a
#: 10**5-node budget at n = 5 and enclosing length 261, after about 0.05 s
BUDGET_ANGLE = "6,-1,8,3"


def test_verify_reports_a_limit_as_inconclusive(capsys, monkeypatch):
    monkeypatch.setattr(sturmgas.characterization, "ENUMERATION_BUDGET", 10**5)
    argv = ("verify", "--suite", "characterize", f"--gamma={BUDGET_ANGLE}")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    checks = {c["name"]: c for c in json.loads(out)["results"]["suites"]["characterize"]}
    enumeration = checks.pop("legal_enumeration_matches_factors")
    assert enumeration["passed"] is False and enumeration["inconclusive"] is True
    assert enumeration["details"] == "InconclusiveError: search budget 100000 exceeded at length 261"
    assert enumeration["info"]["length_reached"] == 261
    assert all(set(c) == {"name", "passed", "details"} and c["passed"] for c in checks.values())
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.startswith("LIMIT  characterize/legal_enumeration_matches_factors: InconclusiveError")
    assert out.endswith("\nno check failed, but computation limits were hit\n")


def test_verify_failure_outranks_a_limit(capsys, monkeypatch):
    # deviation_maxima_stable fails at this angle (ROADMAP item 1)
    monkeypatch.setattr(sturmgas.characterization, "ENUMERATION_BUDGET", 10**5)
    code, out, _ = run(capsys, "verify", "--suite", "all", f"--gamma={BUDGET_ANGLE}", "--format", "json")
    assert code == 3
    suites = json.loads(out)["results"]["suites"]
    missed = {c["name"]: c.get("inconclusive", False) for checks in suites.values()
              for c in checks if not c["passed"]}
    assert missed == {"legal_enumeration_matches_factors": True, "deviation_maxima_stable": False}


def test_verify_characterize_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "characterize")
    assert code == 0
    assert "all checks passed" in out


def test_verify_corrupted_profile_fails(tmp_path, capsys):
    profile = distance_profile(RotationParams(GOLDEN, GOLDEN), 60)
    # forbid 10 and allow 9 instead: a well-formed profile, but inconsistent
    # with the rotation's factors
    corrupt = DistanceProfile(profile.d, profile.horizon, (profile.forbidden - {9}) | {10})
    path = tmp_path / "corrupt.json"
    path.write_text(corrupt.to_json(), encoding="utf-8")
    code, out, _ = run(capsys, "verify", "--suite", "characterize",
                       "--profile", str(path), "--format", "json")
    assert code == 3
    checks = {c["name"]: c for c in json.loads(out)["results"]["suites"]["characterize"]}
    enumeration = checks["legal_enumeration_matches_factors"]
    assert not enumeration["passed"]
    assert re.fullmatch(
        r"InternalConsistencyError: arc label [01]+ is not legal at enclosing length \d+",
        enumeration["details"],
    )
    # the closed form frac(n*gamma) in (1 - gamma, gamma) forbids 9, not 12
    exclusion = checks["periodic_exclusion"]
    assert exclusion == {
        "name": "periodic_exclusion",
        "passed": False,
        "details": "period 3 excluded at multiple 4, closed form gives 3",
    }


def test_verify_detached_profile_passes(tmp_path, capsys):
    # a correct profile read from JSON carries no rotation; the certificate
    # labels the arcs with --gamma and needs no horizon beyond 60
    path = tmp_path / "profile.json"
    path.write_text(distance_profile(RotationParams(GOLDEN, GOLDEN), 60).to_json())
    code, out, _ = run(capsys, "verify", "--suite", "characterize", "--profile", str(path))
    assert code == 0
    assert "all checks passed" in out


def test_verify_empty_profile_ends_in_a_report(tmp_path, capsys):
    # a computed profile below d1 lists no distance: it cannot carry d1 or the
    # couplings, which is a limit of each check that needs them, not exit 1
    empty = '{"d": [], "allowed": [], "forbidden": [1, 2, 3, 4, 5], "horizon": 5}'
    assert distance_profile(RotationParams(parse_qi("998,1,1000,2"), QI_ZERO), 5).to_json() == empty
    path = tmp_path / "profile.json"
    path.write_text(empty, encoding="utf-8")
    codes = {}
    for suite in ("characterize", "energy", "all"):
        codes[suite], out, _ = run(capsys, "verify", "--suite", suite, "--profile", str(path),
                                   "--format", "json")
        suites = json.loads(out)["results"]["suites"]
    assert codes == {"characterize": 3, "energy": 2, "all": 3}
    illegal = next(c for c in suites["characterize"] if c["name"] == "periodic_words_illegal")
    assert illegal["details"] == "InsufficientProfileError: empty profile has no first distance"
    assert all(c["inconclusive"] for c in suites["energy"])


def test_verify_periodic_words_sized_through_the_cap(tmp_path, capsys, monkeypatch):
    # the period-7 cells span 2 * 56 = 112 sites: past the cap, that profile
    # is a limit carrying its size, not an uncapped build
    monkeypatch.setattr(sturmgas.order_analysis, "SIZE_CAP", 100)
    path = tmp_path / "profile.json"
    path.write_text(distance_profile(RotationParams(GOLDEN, GOLDEN), 60).to_json())
    code, out, _ = run(capsys, "verify", "--suite", "characterize", "--profile", str(path),
                       "--format", "json")
    assert code == 2
    checks = {c["name"]: c for c in json.loads(out)["results"]["suites"]["characterize"]}
    illegal = checks.pop("periodic_words_illegal")
    assert illegal["inconclusive"] is True and illegal["info"] == {"needed": 112}
    assert all(c["passed"] for c in checks.values())


def test_verify_profile_reaches_only_profile_suites(tmp_path, capsys, monkeypatch):
    calls = []
    for name in sturmgas.verify.SUITES:
        def fake(params, name=name, **kwargs):
            calls.append((name, sorted(kwargs)))
            return []
        monkeypatch.setattr(sturmgas.verify, f"suite_{name}", fake)
    path = tmp_path / "profile.json"
    path.write_text(distance_profile(RotationParams(GOLDEN, GOLDEN), 60).to_json())
    code, _, _ = run(capsys, "verify", "--profile", str(path))
    assert code == 0
    assert calls == [
        ("order", []),
        ("discrepancy", []),
        ("characterize", ["profile"]),
        ("energy", ["profile"]),
    ]
    assert run(capsys, "verify", "--suite", "nope")[0] == 1


def test_verify_malformed_profile_usage_error(tmp_path, capsys):
    for i, text in enumerate((
        '{"d": [2]}',
        "[1,2]",
        '{"d": 5, "horizon": 3, "allowed": [], "forbidden": []}',
    )):
        path = tmp_path / f"profile{i}.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", "--profile", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_built_once_and_reused_cleanly(capsys):
    calls = (
        ("distances", "--horizon", "abc"),
        ("distances", "--horizon", "25", "--format", "json"),
        ("distances", "--horizon", "25"),
    )
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [1, 0, 0]
    assert [run(capsys, *argv) for argv in calls] == alone
    assert build_parser() is build_parser()


def test_large_radicand_angle_finishes(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "frequency", "--word", "010",
                       "--gamma", "0,1,1500000,999999999989")
    assert code == 0
    assert out.startswith("freq(010) = 0.3333")
    assert time.perf_counter() - start < 15


def test_radicand_above_limit_usage_error(capsys):
    code, _, err = run(capsys, "frequency", "--word", "1",
                       "--gamma", "0,1,2,1000000000000000003")
    assert code == 1
    assert "radicand" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "word.json"
    code, out, _ = run(capsys, "generate", "--from", "1", "--to", "13",
                       "--psi", "fib", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["results"]["symbols"] == "0100101001001"
