import dataclasses
import hashlib
import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pptlab
from pptlab.cache import ResultCache, content_hash
from pptlab.cli import main, make_parser

SCHEMA_PATH = Path(pptlab.__file__).parent / "result_schema.json"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    return code, json.loads(out) if out.strip() else None, err


def test_sequence_command(capsys):
    code, out, _ = run_cli(
        capsys, ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "6"]
    )
    assert code == 0
    assert "(0, 1, 1, 1, 1, 1, 1)" in out
    assert "perfectoid_pure" in out


def test_ppt_command_json(capsys):
    code, record, _ = run_json(
        capsys,
        ["ppt", "--p", "2", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "7"],
    )
    assert code == 0
    assert record["sequence"]["values"] == [0, 1, 0, 1, 0, 1, 0, 1]
    assert record["ppt"]["exact"] == {"num": "1", "den": "3", "approx": 1 / 3}
    assert record["ppt"]["preperiod"] == 0 and record["ppt"]["period"] == 2
    assert record["ppt"]["conjectural"] is False
    assert record["verdict"]["basis"] == "C1"


def test_classify_command(capsys):
    code, record, _ = run_json(
        capsys,
        [
            "classify",
            "--p", "2",
            "--vars", "x1..x5",
            "--f", "x1^5+x2^5+x3^5+x4^5+x5^5",
            "--depth", "3",
        ],
    )
    assert code == 0
    assert record["verdict"]["kind"] == "not_perfectoid_pure"
    assert record["verdict"]["flagged_r1"] is True


def test_strict_r1_flag(capsys):
    argv = [
        "classify",
        "--p", "2",
        "--vars", "x1..x5",
        "--f", "x1^5+x2^5+x3^5+x4^5+x5^5",
        "--depth", "3",
        "--strict-r1",
    ]
    code, record, _ = run_json(capsys, argv)
    assert code == 0
    assert record["verdict"]["kind"] == "inconclusive"
    assert record["verdict"]["reason"] == "unclassified_pattern"
    # the human output states the reason on the verdict line
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert "verdict: inconclusive (reason: unclassified_pattern)\n" in out


def test_qfs_height_command(capsys):
    code, record, _ = run_json(
        capsys,
        ["qfs-height", "--p", "2", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "5"],
    )
    assert code == 0
    assert record["qfs_height"] == {"kind": "height", "height": 2, "depth": None}


def test_fpt_command(capsys):
    code, record, _ = run_json(
        capsys,
        ["fpt", "--p", "3", "--vars", "x", "--f", "3 - x^2", "--emax", "4"],
    )
    assert code == 0
    assert record["nu_table"] == {"1": 1, "2": 4, "3": 13, "4": 40}
    assert record["fpt"]["approx"]["num"] == "40"
    assert record["fpt"]["regular"] is True


def test_fpt_exponent_range_edge(capsys):
    # the supported range of nu(p^e) is p^e < 2**31; the root chains form no
    # exponent near p^e, so this is a limit on the request, not on a monomial
    argv = ["fpt", "--p", "2", "--vars", "x", "--f", "x", "--emax"]
    code, record, _ = run_json(capsys, argv + ["30"])
    assert code == 0
    assert record["nu_table"]["30"] == 1073741823
    code, record, _ = run_json(capsys, argv + ["31"])
    assert code == 2
    assert record["error"]["type"] == "ExponentOverflowError"
    # rejected without forming 13^e, which alone takes seconds at e = 3 * 10^6
    argv = ["fpt", "--p", "13", "--vars", "x", "--f", "x^2", "--emax", "100000000"]
    code, record, _ = run_json(capsys, argv)
    assert code == 2
    assert record["error"]["type"] == "ExponentOverflowError"
    # and below the range: emax counts from 1
    for emax in ("0", "-2"):
        code, record, _ = run_json(capsys, argv[:-1] + [emax])
        assert code == 2
        assert record["error"] == {"type": "InputError", "message": f"emax must be >= 1, got {emax}"}


def test_fpt_monomial_cap_exits_3(capsys):
    # the widest root-chain step for this p = 5 cubic, the ideal of its
    # p-th roots, touches 5 distinct monomials
    argv = ["fpt", "--p", "5", "--vars", "x,y", "--f", "x^3+2*x*y^2+y^3", "--emax", "4"]
    code, record, _ = run_json(capsys, argv + ["--max-monomials", "5"])
    assert code == 0
    assert record["nu_table"] == {"1": 2, "2": 14, "3": 74, "4": 374}
    code, record, _ = run_json(capsys, argv + ["--max-monomials", "4"])
    assert code == 3
    assert record["error"]["type"] == "ResourceLimitError"
    # a step whose products leave m^[p] takes no root and touches no
    # workspace; here the steps that take a root stay within 3 monomials
    argv = ["fpt", "--p", "7", "--vars", "x,y,z", "--f", "y*z + 6*x*y^3*z + 3*x^2*y^3*z^3"]
    code, record, _ = run_json(capsys, argv + ["--emax", "4", "--max-monomials", "3"])
    assert code == 0
    assert record["nu_table"] == {"1": 6, "2": 48, "3": 342, "4": 2400}


def test_trace_prints_ladder_ideals(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "2", "--trace"],
    )
    assert code == 0
    assert "ladder ideal at step 1: (x^2 + y^2)" in out
    assert "ladder ideal at step 2" in out


TRACE_CASES = [
    (7, 2, "1476e243e7f0d72b7624ec8192d8a41d660da887db5d065019d997ca682809ed"),
    (3, 3, "18187710bea2708daaec17575e446791ca618194936a82b832cbad1baece2d6e"),
    (2, 3, "4ba75792fd8cb97c9aa1907ee00da29385e6406d3cc1e1e05d625a0246470af9"),
    # the corpus row fermat-quartic-p7: its steps hold 1, 213, 683 and
    # 727 generators
    (7, 4, "707e3a08417e3ea6e1f2463ad7a845d5a0a2e3ebed87d988eae73ff568f7a2a1"),
]


@pytest.mark.parametrize(
    "p, depth, digest",
    TRACE_CASES,
    ids=[f"{p}-{depth}-{digest}" for p, depth, digest in TRACE_CASES],
)
def test_trace_ideals_are_frozen(capsys, p, depth, digest):
    # every case finishes at the default generator cap
    code, rec, _ = run_json(
        capsys,
        [
            "sequence", "--p", str(p), "--vars", "x1..x4",
            "--f", "x1^4+x2^4+x3^4+x4^4", "--depth", str(depth), "--trace",
        ],
    )
    assert code == 0
    blob = json.dumps(rec["trace"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_invalid_input_exits_2(capsys):
    code, _, err = run_cli(capsys, ["sequence", "--p", "4", "--vars", "x", "--f", "x^2"])
    assert code == 2
    assert "not prime" in err
    code, _, err = run_cli(capsys, ["sequence", "--p", "2", "--vars", "x", "--f", "1 + x"])
    assert code == 2
    code, _, err = run_cli(capsys, ["sequence", "--p", "2", "--vars", "x", "--f", "x +"])
    assert code == 2


@pytest.mark.parametrize("f", ["(" * 300 + "x" + ")" * 300, "-" * 1500 + "x"])
def test_deep_nesting_is_a_parse_error(capsys, f):
    code, record, _ = run_json(capsys, ["sequence", "--p", "2", "--vars", "x", f"--f={f}"])
    assert code == 2
    assert record["error"]["type"] == "ParseError"


NINES = "9" * 5000  # past the 4,300 digits Python's int() converts by default


@pytest.mark.parametrize(
    "vars_spec, f, error",
    [
        (f"x1..x{NINES}", "x1", "InputError"),
        ("x,y", f"{NINES}*x", "ParseError"),
        ("x,y", f"x^{NINES}", "ParseError"),
    ],
    ids=["range-bound", "coefficient", "exponent"],
)
def test_overlong_digit_strings_are_input_errors(capsys, vars_spec, f, error):
    argv = ["sequence", "--p", "2", "--vars", vars_spec, "--f", f]
    code, record, _ = run_json(capsys, argv)
    assert code == 2
    assert record["error"]["type"] == error


def test_fifty_nested_parentheses_parse(capsys):
    f = "(" * 50 + "x^2" + ")" * 50
    code, record, _ = run_json(capsys, ["sequence", "--p", "2", "--vars", "x", "--f", f])
    assert code == 0
    assert record["input"]["f"] == "x^2"


def test_json_error_object(capsys):
    code, record, _ = run_json(
        capsys, ["sequence", "--p", "2", "--vars", "x", "--f", "2*x"]
    )
    assert code == 2
    assert record["error"]["type"] == "FDivisibleByPError"


def test_resource_limit_exits_3(capsys):
    # the scan's live-box caps keep small inputs far below any cap, yet at
    # depth 4 a stage of this quartic still needs more than 10 monomials
    code, _, err = run_cli(
        capsys,
        [
            "sequence",
            "--p", "7",
            "--vars", "x1,x2,x3,x4",
            "--f", "x1^4 + x2^4 + x3^4 + x4^4",
            "--depth", "4",
            "--max-monomials", "10",
        ],
    )
    assert code == 3
    assert "--max-monomials" in err


def test_validate_exits_3_before_forming_a_large_f_to_the_p(capsys):
    # (x+y)^500 at p = 13: f^p may have 6501^2 terms, the product of its
    # exponent ranges, far over the default cap, and forming it for delta
    # takes seconds, so validate refuses it first
    argv = ["criteria", "--p", "13", "--vars", "x,y", "--f", "(x+y)^500", "--depth", "1"]
    start = time.perf_counter()
    code, _, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "may have 42263001 terms" in err and "--max-monomials" in err


def test_trace_generator_cap_exits_3(capsys):
    # the scan counts no generators; the exact ladder that --trace prints
    # bounds each u step's distinct buckets by --max-generators
    argv = ["sequence", "--p", "5", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "2"]
    code, _, _ = run_cli(capsys, argv + ["--max-generators", "4"])
    assert code == 0
    code, _, err = run_cli(capsys, argv + ["--max-generators", "4", "--trace"])
    assert code == 3
    assert "--max-generators" in err
    # the corpus row fermat-quartic-p7 finishes at the default 10,000, as
    # the cap counts a u step's distinct buckets, not all of them
    quartic = ["--p", "7", "--vars", "x1..x4", "--f", "x1^4+x2^4+x3^4+x4^4", "--depth", "4"]
    code, _, _ = run_cli(capsys, ["sequence", *quartic, "--trace"])
    assert code == 0


def test_depth_out_of_range_rejected(capsys):
    code, _, err = run_cli(
        capsys, ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "30"]
    )
    assert code == 2


def test_determinism_modulo_timings(capsys):
    argv = ["ppt", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "5"]
    _, first, _ = run_json(capsys, argv)
    _, second, _ = run_json(capsys, argv)
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_record_validates_against_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    for argv in [
        ["ppt", "--p", "2", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "6"],
        ["classify", "--p", "2", "--vars", "x1..x5", "--f", "x1^5+x2^5+x3^5+x4^5+x5^5", "--depth", "3"],
        ["fpt", "--p", "2", "--vars", "x,y", "--f", "x + y^3", "--emax", "4"],
        ["criteria", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2"],
        ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "4", "--trace"],
    ]:
        _, record, _ = run_json(capsys, argv)
        jsonschema.validate(record, schema)


def test_big_rationals_emitted_as_strings(capsys):
    # denominator 5^12 > 2^63 territory guard: spot check the string encoding
    _, record, _ = run_json(
        capsys,
        ["ppt", "--p", "5", "--vars", "x,y", "--f", "x^2 + y^2", "--depth", "12"],
    )
    partial = record["ppt"]["partial"]
    assert isinstance(partial["num"], str) and isinstance(partial["den"], str)
    assert re.fullmatch(r"-?\d+", partial["num"])
    assert int(partial["den"]) == 5**12


def test_input_hash_present_and_stable(capsys):
    argv = ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "4"]
    _, one, _ = run_json(capsys, argv)
    _, two, _ = run_json(capsys, argv)
    assert one["input_hash"] == two["input_hash"]
    assert re.fullmatch(r"[0-9a-f]{64}", one["input_hash"])


@pytest.mark.parametrize(
    "command", ["sequence", "ppt", "classify", "qfs-height", "fpt", "criteria"]
)
def test_input_hash_is_the_input_block_with_the_command(capsys, command):
    argv = [command, "--p", "2", "--vars", "x,y", "--f", "x^2+y^3", "--depth", "3", "--emax", "2"]
    code, record, _ = run_json(capsys, argv)
    assert code == 0
    assert record["input_hash"] == content_hash({**record["input"], "command": command})


def test_cancelled_large_term_does_not_count_against_the_exponent_range(capsys):
    # f = y once the x^1500000000 terms cancel; the squares of f never leave range
    argv = [
        "sequence", "--p", "2", "--vars", "x,y",
        "--f", "x^1500000000 - x^1500000000 + y", "--depth", "2",
    ]
    code, record, _ = run_json(capsys, argv)
    assert code == 0
    assert record["input"]["f"] == "y"
    assert tuple(record["sequence"]["values"]) == (0, 0, 0)
    code, record, _ = run_json(capsys, argv[:5] + ["--f", "x^1500000000 + y"] + argv[7:])
    assert code == 2
    assert record["error"]["type"] == "ExponentOverflowError"


# -- cache --------------------------------------------------------------------


def test_cache_round_trip(tmp_path, capsys):
    argv = [
        "ppt", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "5",
        "--cache-dir", str(tmp_path),
    ]
    code, first, _ = run_json(capsys, argv)
    assert code == 0
    assert (tmp_path / "cache.jsonl").exists()
    code, second, _ = run_json(capsys, argv)
    assert code == 0
    assert first == second  # served verbatim, timings included
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize(
    "vars_spec, f, qfs",
    [
        ("x,y,z", "x^3+y^3+z^3", "2"),
        ("x,y", "x^2+y^2", "> 3"),
        ("x1..x5", "x1^5+x2^5+x3^5+x4^5+x5^5", "not quasi-F-split"),
    ],
)
def test_cache_hit_prints_what_a_miss_prints(tmp_path, capsys, vars_spec, f, qfs):
    # a hit prints from the stored record dict, not from the result types
    argv = [
        "qfs-height", "--p", "2", "--vars", vars_spec, "--f", f, "--depth", "3",
        "--cache-dir", str(tmp_path),
    ]
    miss = run_cli(capsys, argv)
    assert run_cli(capsys, argv) == miss
    assert f"quasi-F-split height: {qfs}\n" in miss[1]


def test_cache_version_bump_misses(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", "0.0.1", {"value": 1})
    assert cache.get("k", "0.0.1") == {"value": 1}
    assert cache.get("k", "0.0.2") is None


def test_cli_cache_misses_after_a_version_change(tmp_path, capsys, monkeypatch):
    # the key is the record's input_hash; the version is checked by the
    # cache alone, on the line it stores
    argv = [
        "sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "3",
        "--cache-dir", str(tmp_path),
    ]
    lines = []
    for version in ("0.1.0", "0.1.0", "9.9.9", "9.9.9"):
        monkeypatch.setattr("pptlab.cli.__version__", version)
        assert run_cli(capsys, argv)[0] == 0
        lines.append(len((tmp_path / "cache.jsonl").read_text().splitlines()))
    assert lines == [1, 1, 2, 2]


def test_cli_cache_misses_a_record_written_before_the_record_revision(tmp_path, capsys):
    # a line keyed by the bare __version__, as every line was before
    # RECORD_REVISION, is never served: this one says "up to depth 4"
    # where the run now certifies a repeat
    argv = [
        "classify", "--p", "3", "--vars", "x", "--f", "3 - x^2", "--depth", "4",
        "--cache-dir", str(tmp_path),
    ]
    code, record, _ = run_json(capsys, argv)
    assert code == 0 and record["verdict"]["basis"] == "repeat"
    stale = json.loads(json.dumps(record))
    stale["verdict"].update(basis="all_bounded", up_to_depth=4)
    (tmp_path / "cache.jsonl").write_text("")
    ResultCache(tmp_path).put(record["input_hash"], pptlab.__version__, stale)
    code, fresh, _ = run_json(capsys, argv)
    assert code == 0
    assert {**fresh, "timings": None} == {**record, "timings": None}
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 2


def test_cache_corrupted_line_skipped(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put("good", "1", {"value": 1})
    with open(tmp_path / "cache.jsonl", "a") as fh:
        fh.write("this is not json\n")
    cache.put("later", "1", {"value": 2})
    assert cache.get("later", "1") == {"value": 2}
    err = capsys.readouterr().err
    assert "corrupted" in err


def test_cache_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PPTLAB_CACHE", str(tmp_path))
    argv = ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "4"]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert (tmp_path / "cache.jsonl").exists()


def test_cache_is_pure_accelerator(tmp_path, capsys):
    argv = ["ppt", "--p", "2", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "5"]
    _, plain, _ = run_json(capsys, argv)
    _, cached_cold, _ = run_json(capsys, argv + ["--cache-dir", str(tmp_path)])
    _, cached_warm, _ = run_json(capsys, argv + ["--cache-dir", str(tmp_path)])
    for record in (cached_cold, cached_warm):
        a, b = dict(plain), dict(record)
        a.pop("timings")
        b.pop("timings")
        assert a == b


def test_content_hash_is_canonical():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})


# -- corpus -------------------------------------------------------------------


# one wrong expectation per key run_row compares, on sum-of-squares-p2, and
# the mismatch line it must print
EXPECT_MISMATCHES = [
    ("values", (0, 0), "sequence: expected (0, 0), got (0, 1, 1, 1, 1, 1, 1, 1)"),
    ("verdict", "inconclusive", "verdict: expected inconclusive, got perfectoid_pure"),
    ("basis", "C1", "basis: expected C1, got C3"),
    ("flagged_r1", True, "flagged_r1: expected True, got False"),
    ("fired", ("C1",), "criteria: expected ('C1',), got ('C3',)"),
    ("partial", Fraction(1, 2), "partial threshold: expected 1/2, got 0"),
    ("exact", Fraction(1, 3), "exact threshold: expected 1/3, got 0"),
    ("period", (0, 2), "period: expected (0, 2), got (0, 1)"),
]


@pytest.mark.parametrize("key, wrong, line", EXPECT_MISMATCHES, ids=[c[0] for c in EXPECT_MISMATCHES])
def test_corpus_mismatch_exits_4(capsys, monkeypatch, key, wrong, line):
    import pptlab.corpus as corpus_module

    row = next(r for r in corpus_module.CORPUS if r.name == "sum-of-squares-p2")
    tampered = dataclasses.replace(row, expect={**row.expect, key: wrong})
    monkeypatch.setattr(corpus_module, "CORPUS", (tampered,))
    code, out, _ = run_cli(capsys, ["corpus"])
    assert code == 4
    assert out.startswith("FAIL  sum-of-squares-p2 ")
    assert [l for l in out.splitlines() if l.startswith("MISMATCH")] == [
        f"MISMATCH  sum-of-squares-p2: {line}"
    ]


def test_corpus_regular_row_mismatches_exit_4(capsys, monkeypatch):
    # a wrong nu(p^1) breaks the nu identity at n=1 only; a wrong expected
    # fpt approximant is the second line
    import pptlab.corpus as corpus_module

    row = next(r for r in corpus_module.CORPUS if r.name == "regular-line-cube-p2")
    tampered = dataclasses.replace(row, expect={**row.expect, "fpt": Fraction(1)})
    monkeypatch.setattr(corpus_module, "CORPUS", (tampered,))
    real_nu_table = corpus_module.nu_table

    def off_by_one_at_1(f_res, emax):
        table = real_nu_table(f_res, emax)
        return {**table, 1: table[1] + 1}

    monkeypatch.setattr(corpus_module, "nu_table", off_by_one_at_1)
    code, out, _ = run_cli(capsys, ["corpus"])
    assert code == 4
    assert [l for l in out.splitlines() if l.startswith("MISMATCH")] == [
        "MISMATCH  regular-line-cube-p2: nu identity at n=1: expected 1, got 1/2",
        "MISMATCH  regular-line-cube-p2: fpt approximant: expected 1, got 31/32",
    ]


# One SHA-256 per corpus row over the human and ``--json`` output (timings
# removed) of every analysis command, and one over ``corpus`` itself.  The
# digests pin the CLI's bytes: a changed line, or a new result field that
# leaks into a record, changes them.
FROZEN_OUTPUT_DIGESTS = {
    "sum-of-squares-p2": "36cbced370c7ad4909d546afe049dd966b5e8facfc75e5a52ee01805e2e5f1bc",
    "fermat-cubic-p2": "9bca7da63ec22e535507780373688e0e8fa80b034e6f5cef93dfe9af8140df8b",
    "fermat-quartic-p3": "83fd3e1f89dd6e9e8373bc174b5d1e5183e87b9217aedc00c61e61f2406139a2",
    "fermat-quintic-p2": "7e26b4cdbe29e687c33953b86b3585fccbbb8074ac7d05927326f24c9bc7fecf",
    "fermat-quintic-p2-deformed": "e3242905cdcdc368a68077d437fdd329907456103159c4b67065a61f4d836912",
    "k3-cross-quartic-p2": "88134214daaeb7384094403e532d648af843a8cc63b08f72b64599ce1f2fb573",
    "k3-cross-quartic-p2-deformed": "4edac3fcb6bc9e0fa98c073e264b30f1b03d905f8f8a157200092e4bf5952360",
    "fermat-quartic-p2": "861fbe97b4d0fc9624fef03626a953805f22a7f2326d3bd05327df9b0e5fdaeb",
    "fermat-quartic-p2-deformed": "09b2f19dad53fd7b8a5f30b4634aa80e859e516a0c27cf8c810d176728a78abb",
    "fermat-cubic-p5": "c40f291753c646a09a49a863f0a75155861cf342cd4ff62f9c4cc5e7f419f584",
    "fermat-quartic-p5": "9cd623ccce0a7d508ea24c5a860bfa1cf02534c58819eed77b4cdedfaeaa59d7",
    "fermat-cubic-p7": "b766d2335fdca786d55975d4e2d9cc77617b99b143c4370d501f22c29e19f674",
    "fermat-quartic-p7": "5b23515d220507238aee4453a0e1671a5534b3bab3d72632b3830a638ac32a06",
    "regular-parabola-p3": "a5b426e6f2a41d10570bf5487bd0db0620b4f4ef4a4d8d5c25e28a19d0672a9c",
    "regular-line-cube-p2": "a648ad915eea46678d89c6aaf9be85dd4c055e0e0559e54987a5db1d1a088bb2",
    "regular-line-cube-p3": "e772a2c3a590977cd9956e33213fbb5754b56ff1ee8c87828ec27aeccf5656c4",
    "corpus": "f8053228eae4a0890c0d2e4f394800704e0102de9c29e33d9c0a553ded8a7741",
}
FROZEN_COMMANDS = (["sequence"], ["ppt"], ["classify"], ["qfs-height"], ["fpt", "--emax", "3"], ["criteria"])


def _frozen_output_digest(capsys, requests) -> str:
    outputs = []
    for argv in requests:
        for extra in ([], ["--json"]):
            code, out, err = run_cli(capsys, argv + extra)
            if extra and out:
                record = json.loads(out)
                record.pop("timings", None)
                out = json.dumps(record, sort_keys=True)
            outputs.append([argv + extra, code, out, err])
    return hashlib.sha256(json.dumps(outputs).encode()).hexdigest()


@pytest.mark.parametrize("name, digest", FROZEN_OUTPUT_DIGESTS.items(), ids=FROZEN_OUTPUT_DIGESTS)
def test_cli_output_is_frozen(capsys, monkeypatch, name, digest):
    from pptlab.corpus import CORPUS

    monkeypatch.delenv("PPTLAB_CACHE", raising=False)
    if name == "corpus":
        requests = [["corpus"]]
    else:
        row = next(r for r in CORPUS if r.name == name)
        request = ["--p", str(row.p), "--vars", row.vars, "--f", row.f, "--depth", str(row.depth)]
        requests = [[command, *request, *options] for command, *options in FROZEN_COMMANDS]
    assert _frozen_output_digest(capsys, requests) == digest


def test_internal_error_exit_code_mapping():
    from pptlab.cli import _exit_code_for
    from pptlab.errors import (
        InputError,
        MonotonicityViolationError,
        NotDivisibleError,
        ResourceLimitError,
    )

    assert _exit_code_for(InputError("x")) == 2
    assert _exit_code_for(ResourceLimitError("x")) == 3
    assert _exit_code_for(MonotonicityViolationError("x")) == 4
    assert _exit_code_for(NotDivisibleError("x")) == 4


def test_corpus_filter_no_match_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["corpus", "--filter", "no-such-row"])
    assert code == 0
    assert "no corpus rows match" in out


def test_corpus_regular_rows(capsys):
    code, out, _ = run_cli(capsys, ["corpus", "--filter", "regular"])
    assert code == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_corpus_fermat_filter_json(capsys):
    code, payload, _ = run_json(capsys, ["corpus", "--filter", "fermat-cubic-p2"])
    assert code == 0
    rows = payload["rows"]
    assert len(rows) == 1
    assert rows[0]["status"] == "PASS"
    assert rows[0]["values"] == [0, 1, 0, 1, 0, 1, 0, 1]


def test_usage_error_is_an_error_object_under_json(capsys):
    argv = ["sequence", "--p", "x", "--vars", "x", "--f", "x"]
    code, record, err = run_json(capsys, argv)
    assert code == 2
    assert record == {
        "error": {"type": "UsageError", "message": "argument --p: invalid int value: 'x'"}
    }
    assert err == ""
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: pptlab sequence [-h] --p P")
    assert err.endswith("pptlab sequence: error: argument --p: invalid int value: 'x'\n")


def test_parser_help_lists_commands():
    parser = make_parser()
    help_text = parser.format_help()
    for command in ["sequence", "ppt", "classify", "qfs-height", "fpt", "criteria", "corpus"]:
        assert command in help_text


def test_calls_in_one_process_print_what_each_prints_alone(capsys, monkeypatch):
    # cli.main keeps no state between calls: each call in a run of calls
    # that vary the command and flags (fpt then sequence, --strict-r1 then
    # without, --json then human output) prints what it prints when it is
    # the only call of a fresh interpreter
    import os
    import subprocess
    import sys

    monkeypatch.delenv("PPTLAB_CACHE", raising=False)
    cubic = ["--p", "2", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "5"]
    quintic = ["--p", "2", "--vars", "x1..x5", "--f", "x1^5+x2^5+x3^5+x4^5+x5^5", "--depth", "3"]
    calls = [
        ["fpt", "--p", "3", "--vars", "x", "--f", "3 - x^2", "--emax", "2"],
        ["sequence", *cubic],
        ["classify", *quintic, "--strict-r1", "--json"],
        ["classify", *quintic, "--json"],
        ["classify", *quintic],
    ]

    def untimed(out, argv):
        if "--json" not in argv:
            return out
        record = json.loads(out)
        record.pop("timings", None)
        return record

    src = str(Path(pptlab.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PPTLAB_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    for argv in calls:
        code, out, err = run_cli(capsys, argv)
        alone = subprocess.run(
            [sys.executable, "-m", "pptlab.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (code, untimed(out, argv), err) == (
            alone.returncode, untimed(alone.stdout, argv), alone.stderr
        ), argv


def test_readme_examples_hold(capsys, monkeypatch):
    # every "$ pptlab ..." line of README's command-line block exits 0, the
    # first printing the lines shown under it, and each commented value of
    # the "Library use" snippet is the repr of its expression
    monkeypatch.delenv("PPTLAB_CACHE", raising=False)
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1].splitlines()
    commands = [i for i, line in enumerate(block) if line.startswith("$ pptlab ")]
    shown = block[commands[0] + 1 : block.index("...")]
    assert len(commands) == 6 and len(shown) == 4, block
    for i in commands:
        code, out, err = run_cli(capsys, shlex.split(block[i])[2:])
        assert code == 0, (block[i], err)
        if i == commands[0]:
            assert out.splitlines()[: len(shown)] == shown, out
    snippet = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    values = 0
    for line in snippet.splitlines():
        expr, _, want = line.partition("#")
        if want:
            assert repr(eval(expr, namespace)) == want.strip(), line
            values += 1
        elif line:
            exec(line, namespace)
    assert values == 3
