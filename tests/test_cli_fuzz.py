"""Seeded CLI fuzz: every argument vector ends in exit 0-3, never a traceback."""

import random
import time

from sturmgas.cli import main

SEED = 20190628
CALLS = 200
TIME_BOUND_S = 30  # the whole run; about 0.3 s on a 2-core host

BAD_INTS = ("0", "-1", "abc", "1/0")
BAD_FRACTIONS = ("0", "-1", "1/0", "abc", "ratio:x")
WORDS = ("0", "1", "01", "010", "0011", "10011")
BAD_WORDS = ("", "abc", "1,1,1,4")

# option -> (small valid values, boundary or malformed values); the sizes
# are capped so that every valid call is cheap.  The valid angles include a
# sparse one (d1 = 1707) and one within 2**-64 of 1, whose sizes read from
# gamma pass every cap
COMMON = {
    "--gamma": (
        ("fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3", "998,1,1000,2", "-1311738121,3166815962,3166815962,2"),
        ("ratio:13/21", "ratio:x", "ratio:1/0", "1,1,1,4", "-2,1,5,1", "abc", "1/0", "-1"),
    ),
    "--psi": (("fib", "0,0,1,0", "-1,1,1,3", "1,1,4,3"), ("1,1,1,4", "abc", "-1")),
    "--format": (("json", "csv", "text"), ("xml",)),
}
WINDOW = {"--word": (WORDS, BAD_WORDS), "--from": (("5",), ("-1",)), "--to": (("60",), BAD_INTS)}
OPTIONS = {
    "generate": {
        "--from": (("5",), ("-1", "abc")),
        "--to": (("40",), BAD_INTS),
        "--err-bound": (("1/400",), BAD_FRACTIONS),
    },
    # above the cap, the horizon is refused before anything is built
    "distances": {"--horizon": (("25", "60"), BAD_INTS + ("100000000000",))},
    "complexity": {"--n-max": (("4",), BAD_INTS)},
    "balance": WINDOW,
    "homogeneous": WINDOW,
    "intervals": {"--n": (("4",), BAD_INTS)},
    "frequency": {"--word": (WORDS, BAD_WORDS)},
    "discrepancy": {
        "--word": (WORDS, BAD_WORDS),
        "--max-len": (("10", "50"), BAD_INTS),
        "--trials": (("3",), BAD_INTS),
    },
    "characterize": {"--n": (("5",), BAD_INTS)},
    "exclusion": {"--period": (("7",), BAD_INTS)},
    "energy": {
        "--word": (WORDS, BAD_WORDS),
        "--decay": (("1/2", "1/3"), BAD_FRACTIONS),
        "--penalty": (("1", "2"), BAD_FRACTIONS),
    },
    "ground-state": {"--length": (("6", "10"), BAD_INTS + ("1001",))},
    "verify": {},
}
REQUIRED = {
    "generate": ("--from", "--to"),
    "intervals": ("--n",),
    "frequency": ("--word",),
    "discrepancy": ("--word",),
    "characterize": ("--n",),
    "exclusion": ("--period",),
    "energy": ("--word",),
    "ground-state": ("--length",),
}

# verify runs only where it fails fast: a bad profile or an unknown suite
BAD_PROFILES = {
    "missing_key.json": '{"d": [2]}',
    "not_object.json": "[1, 2]",
    "scalar_d.json": '{"d": 5, "horizon": 3, "allowed": [], "forbidden": []}',
    "string_horizon.json": '{"d": [2], "horizon": "3", "allowed": [2, 3], "forbidden": [1]}',
    "no_partition.json": '{"d": [2], "horizon": 3, "allowed": [2], "forbidden": [1]}',
    "not_json.json": "{",
}


# inputs that once escaped main or ended in the wrong state; always drawn
PINNED = [
    ["discrepancy", "--word", "1", "--max-len", "10", "--trials", "0"],
    ["discrepancy", "--word", "01", "--max-len", "10", "--trials", "0"],
    ["discrepancy", "--word", "1", "--max-len", "10", "--trials", "-1"],
    ["generate", "--gamma", "ratio:1/0", "--from", "0", "--to", "5"],
    # numpy refuses these windows before allocating anything
    ["generate", "--from", "0", "--to", "1000000000000"],
    ["homogeneous", "--from", "0", "--to", "1000000000000"],
    ["discrepancy", "--word", "1", "--max-len", "1000000000000"],
]


def _pick(rng, values):
    valid, bad = values
    return rng.choice(bad if rng.random() < 0.25 else valid)


def _argv(rng, profile_dir):
    command = rng.choice(sorted(OPTIONS))
    argv = [command]
    for option, values in OPTIONS[command].items():
        # a required option is left out only now and then
        if rng.random() < (0.95 if option in REQUIRED.get(command, ()) else 0.5):
            argv += [option, _pick(rng, values)]
    if command == "verify":
        if rng.random() < 0.2:
            argv += ["--suite", "nope"]
        else:
            name = rng.choice(sorted(BAD_PROFILES) + ["absent.json"])
            argv += ["--profile", str(profile_dir / name)]
    for option, values in COMMON.items():
        if rng.random() < 0.4:
            argv += [option, _pick(rng, values)]
    return argv


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    for name, text in BAD_PROFILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    rng = random.Random(SEED)
    vectors = PINNED + [["verify", "--profile", str(tmp_path / name)] for name in BAD_PROFILES]
    vectors += [_argv(rng, tmp_path) for _ in range(CALLS - len(vectors))]

    start = time.perf_counter()
    failures = []
    codes = set()
    for argv in vectors:
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback, or an exit escaping main
            failures.append((argv, repr(exc)))
        else:
            codes.add(code)
            if code not in (0, 1, 2, 3):
                failures.append((argv, code))
        capsys.readouterr()
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert {0, 1, 2} <= codes
    assert elapsed < TIME_BOUND_S
