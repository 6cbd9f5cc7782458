import hashlib
import json
import re
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
    code, record, _ = run_json(
        capsys,
        [
            "classify",
            "--p", "2",
            "--vars", "x1..x5",
            "--f", "x1^5+x2^5+x3^5+x4^5+x5^5",
            "--depth", "3",
            "--strict-r1",
        ],
    )
    assert code == 0
    assert record["verdict"]["kind"] == "inconclusive"


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
    # nu(p^e) needs p^e < 2**31, the exponent range of a packed monomial
    argv = ["fpt", "--p", "2", "--vars", "x", "--f", "x", "--emax"]
    code, record, _ = run_json(capsys, argv + ["30"])
    assert code == 0
    assert record["nu_table"]["30"] == 1073741823
    code, record, _ = run_json(capsys, argv + ["31"])
    assert code == 2
    assert record["error"]["type"] == "ExponentOverflowError"


def test_fpt_monomial_cap_exits_3(capsys):
    # the widest root-chain step for the p = 7 Fermat cubic, an echelon of
    # p-th roots, touches 10 distinct monomials
    argv = ["fpt", "--p", "7", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--emax", "6"]
    code, record, _ = run_json(capsys, argv + ["--max-monomials", "10"])
    assert code == 0
    assert record["nu_table"]["6"] == 7**6 - 1
    code, record, _ = run_json(capsys, argv + ["--max-monomials", "9"])
    assert code == 3
    assert record["error"]["type"] == "ResourceLimitError"


def test_trace_prints_ladder_ideals(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "2", "--trace"],
    )
    assert code == 0
    assert "ladder ideal at step 1: (x^2 + y^2)" in out
    assert "ladder ideal at step 2" in out


@pytest.mark.parametrize(
    "p, depth, digest",
    [
        (7, 2, "1476e243e7f0d72b7624ec8192d8a41d660da887db5d065019d997ca682809ed"),
        (3, 3, "18187710bea2708daaec17575e446791ca618194936a82b832cbad1baece2d6e"),
        (2, 3, "4ba75792fd8cb97c9aa1907ee00da29385e6406d3cc1e1e05d625a0246470af9"),
    ],
)
def test_trace_ideals_are_frozen(capsys, p, depth, digest):
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
    # the scan's live-box caps keep small inputs far below any cap: at depth
    # 3 this quartic touches at most 4 monomials per workspace, so the
    # workspace cap is tripped one depth further, where a stage still needs
    # more than 10
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


def test_trace_generator_cap_exits_3(capsys):
    # the scan counts no generators; the exact ladder that --trace prints
    # bounds each u step's fan-out by --max-generators
    argv = ["sequence", "--p", "5", "--vars", "x,y,z", "--f", "x^3+y^3+z^3", "--depth", "2"]
    code, _, _ = run_cli(capsys, argv + ["--max-generators", "4"])
    assert code == 0
    code, _, err = run_cli(capsys, argv + ["--max-generators", "4", "--trace"])
    assert code == 3
    assert "--max-generators" in err


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


def test_cache_version_bump_misses(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", "0.0.1", {"value": 1})
    assert cache.get("k", "0.0.1") == {"value": 1}
    assert cache.get("k", "0.0.2") is None


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


def test_corpus_mismatch_exits_4(capsys, monkeypatch):
    import dataclasses

    import pptlab.corpus as corpus_module

    row = next(r for r in corpus_module.CORPUS if r.name == "sum-of-squares-p2")
    tampered = dataclasses.replace(row, expect={**row.expect, "values": (0, 0)})
    monkeypatch.setattr(corpus_module, "CORPUS", (tampered,))
    code, out, err = run_cli(capsys, ["corpus"])
    assert code == 4
    assert "MISMATCH" in out
    assert "sum-of-squares-p2" in out


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


def test_parser_help_lists_commands():
    parser = make_parser()
    help_text = parser.format_help()
    for command in ["sequence", "ppt", "classify", "qfs-height", "fpt", "criteria", "corpus"]:
        assert command in help_text
