"""The result cache's per-process index: incremental scans, rescans on
replacement or rewrite, warnings, and concurrent appends."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pptlab
from pptlab.cache import CACHE_FILE, ResultCache
from pptlab.cli import main

SRC = Path(pptlab.__file__).resolve().parent.parent


def line(key, version="1", **record):
    return json.dumps({"key": key, "version": version, "record": record}, sort_keys=True) + "\n"


def warnings(capsys):
    return [l for l in capsys.readouterr().err.splitlines() if "cache warning" in l]


def test_entry_appended_after_the_index_was_built_is_found(tmp_path):
    reader = ResultCache(tmp_path)
    reader.put("a", "1", {"value": 1})
    assert reader.get("a", "1") == {"value": 1}
    assert reader.get("b", "1") is None
    ResultCache(tmp_path).put("b", "1", {"value": 2})
    assert reader.get("b", "1") == {"value": 2}
    with open(tmp_path / CACHE_FILE, "a") as fh:
        fh.write(line("c", value=3))
    assert ResultCache(tmp_path).get("c", "1") == {"value": 3}
    assert reader.get("a", "1") == {"value": 1}


def test_torn_final_line_waits_for_its_newline(tmp_path, capsys):
    path = tmp_path / CACHE_FILE
    full = line("b", value=2)
    path.write_text(line("a", value=1) + full[:20])
    reader = ResultCache(tmp_path)
    assert reader.get("a", "1") == {"value": 1}
    assert reader.get("b", "1") is None
    with open(path, "a") as fh:
        fh.write(full[20:])
    assert reader.get("b", "1") == {"value": 2}
    assert warnings(capsys) == []


def test_truncated_file_is_rescanned(tmp_path):
    path = tmp_path / CACHE_FILE
    path.write_text(line("a", value=1) + line("b", value=2) + line("c", value=3))
    reader = ResultCache(tmp_path)
    assert reader.get("c", "1") == {"value": 3}
    path.write_text(line("d", value=4))
    assert reader.get("d", "1") == {"value": 4}
    assert reader.get("c", "1") is None


def test_file_replaced_by_a_new_inode_is_rescanned(tmp_path):
    path = tmp_path / CACHE_FILE
    path.write_text(line("a", value=1))
    reader = ResultCache(tmp_path)
    assert reader.get("a", "1") == {"value": 1}
    fresh = tmp_path / "fresh.jsonl"
    # longer than the old file, new keys first: an append-only scan would miss "x"
    fresh.write_text(line("x", value=9) + line("a", value=10) + line("y", value=11))
    assert fresh.stat().st_ino != path.stat().st_ino
    os.replace(fresh, path)
    assert reader.get("x", "1") == {"value": 9}
    assert reader.get("a", "1") == {"value": 10}


def test_file_rewritten_in_place_never_returns_another_keys_record(tmp_path):
    path = tmp_path / CACHE_FILE
    a, b, c = "a" * 64, "b" * 64, "c" * 64
    path.write_text(line(a, value=1) + line(b, value=2))
    reader = ResultCache(tmp_path)
    assert reader.get(a, "1") == {"value": 1}
    # same size, same line spans, other keys
    with open(path, "r+") as fh:
        fh.write(line(c, value=3) + line(a, value=4))
    assert reader.get(b, "1") is None
    assert reader.get(a, "1") == {"value": 4}
    assert reader.get(c, "1") == {"value": 3}
    with open(path, "r+") as fh:
        fh.write(line(b, value=5) + line(c, value=6))
    assert reader.get(a, "1") is None
    assert reader.get(b, "1") == {"value": 5}
    d = "d" * 64
    with open(path, "r+") as fh:  # grown: the scanned end now falls inside a line
        fh.write(line(d, value=7, pad="x" * 100) + line(a, value=8))
    assert reader.get(d, "1") == {"value": 7, "pad": "x" * 100}
    assert reader.get(a, "1") == {"value": 8}


def test_last_entry_for_a_key_wins(tmp_path):
    path = tmp_path / CACHE_FILE
    path.write_text(line("k", value=1) + line("k", value=2))
    reader = ResultCache(tmp_path)
    assert reader.get("k", "1") == {"value": 2}
    reader.put("k", "1", {"value": 3})
    assert reader.get("k", "1") == {"value": 3}


def test_entries_of_other_versions_are_ignored(tmp_path):
    reader = ResultCache(tmp_path)
    reader.put("k", "1", {"value": 1})
    reader.put("k", "2", {"value": 2})
    assert reader.get("k", "1") == {"value": 1}
    assert reader.get("k", "2") == {"value": 2}
    assert reader.get("k", "3") is None


def test_corrupted_line_is_warned_about_once(tmp_path, capsys):
    path = tmp_path / CACHE_FILE
    bad = ["this is not json", '{"key": "no record"}', "[" * 100_000]
    path.write_text(line("a", value=1) + "\n".join(bad) + "\n")
    reader = ResultCache(tmp_path)
    for _ in range(3):
        assert reader.get("a", "1") == {"value": 1}
    found = warnings(capsys)
    assert len(found) == 3
    assert all(f"line {n}" in w for n, w in zip((2, 3, 4), found))


def test_unreadable_cache_degrades_to_cache_off(tmp_path, capsys):
    (tmp_path / CACHE_FILE).mkdir()
    reader = ResultCache(tmp_path)
    assert reader.get("a", "1") is None
    reader.put("a", "1", {"value": 1})
    found = warnings(capsys)
    assert "read failed" in found[0] and "write failed" in found[1]


def test_invalid_utf8_line_is_skipped_by_cli_main(tmp_path, capsys):
    argv = ["sequence", "--p", "2", "--vars", "x,y", "--f", "x^2+y^2", "--depth", "4", "--json"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    (tmp_path / CACHE_FILE).write_bytes(b"\xff\n")
    errs = []
    for _ in range(2):  # a miss that appends, then a hit past the bad line
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        record.pop("timings")
        assert record == {k: v for k, v in plain.items() if k != "timings"}
        errs.append(captured.err)
    assert "skipping corrupted line 1" in errs[0]
    assert errs[1] == ""


WRITER = """
import sys
from pptlab.cache import ResultCache
cache = ResultCache(sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()
for i in range(200):
    cache.put(f"{sys.argv[2]}-{i}", "1", {"value": i, "pad": "x" * 6000})
"""


def test_two_processes_appending_at_once_write_whole_lines(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, str(tmp_path), name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        for name in ("p", "q")
    ]
    try:
        for w in writers:  # both imported and waiting: release them together
            assert w.stdout.readline().strip() == "ready"
        for w in writers:
            w.stdin.write("go\n")
            w.stdin.close()
        for w in writers:
            assert w.wait(timeout=60) == 0
    finally:
        for w in writers:
            if w.poll() is None:
                w.kill()
            w.stdout.close()
    raw = (tmp_path / CACHE_FILE).read_bytes().split(b"\n")
    assert raw[-1] == b""
    entries = [json.loads(r) for r in raw[:-1]]
    assert len(entries) == 400
    reader = ResultCache(tmp_path)
    for name in ("p", "q"):
        for i in range(200):
            assert reader.get(f"{name}-{i}", "1") == {"value": i, "pad": "x" * 6000}
