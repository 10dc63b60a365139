import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import firstreturn
from firstreturn.cli import (
    COUNT,
    FLAG,
    INT,
    MAX_HORIZON,
    MAX_PAIRS,
    ConfigError,
    _KEYS,
    _dense_from_config,
    _fn_from_config,
    builder_families,
    load_config_file,
    main,
    replay,
    run_config,
    validate_config,
)
from firstreturn.gallery import ebc1_cover
from firstreturn.path import PATH, ROUTE


def run_main(args):
    return main(args)


def test_rank_subcommand_example(tmp_path, capsys):
    out = tmp_path / "r"
    code = run_main(["rank", "--n", "1", "--A", "10", "--B", "01",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["beta_min"] == 2
    assert len(summary["witness_chain"]) == 3
    assert (out / "rank.txt").exists()


def test_recover_subcommand_example(tmp_path):
    out = tmp_path / "rec"
    code = run_main(["recover", "--fn", "I25", "--alpha", "cantor:|110",
                     "--horizon", "64", "--max-points", "6",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["report"]["converged_rate"] == 1.0
    traces = list((out / "traces").glob("*.csv"))
    assert len(traces) == 6


def test_empty_function_list_is_config_error(tmp_path):
    code = run_main(["recover", "--out", str(tmp_path / "x")])
    assert code == 2


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        validate_config({"command": "rank", "n": 1, "A": "10", "B": "01",
                         "bogus": True})
    with pytest.raises(ConfigError):
        validate_config({"command": "frobnicate"})


def test_config_file_key_value(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\ncommand=rank\nn=2\nA=1000\nB=0011\n")
    loaded = load_config_file(cfg)
    assert loaded["n"] == "2"
    out = tmp_path / "out"
    assert run_config(loaded, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["beta_min"] == 2


def test_config_file_json(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "gallery", "action": "eval",
                               "fn": "I25", "alpha": "cantor:110|0",
                               "beta": "cantor:1|0"}))
    out = tmp_path / "out"
    assert run_config(load_config_file(cfg), out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["value"] == 0


def test_replay_clean_and_corrupted(tmp_path):
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "2", "--A", "1000", "--B", "0011",
                     "--out", str(out)]) == 0
    rep = replay(out, tmp_path / "fresh")
    assert rep["ok"] and rep["divergence"] is None

    target = out / "rank.txt"
    lines = target.read_text().splitlines()
    lines[1] = lines[1] + "corrupted"
    target.write_text("\n".join(lines) + "\n")
    rep2 = replay(out, tmp_path / "fresh2")
    assert not rep2["ok"]
    assert rep2["divergence"]["file"] == "rank.txt"
    assert rep2["divergence"]["line"] == 2


def test_replay_version_mismatch(tmp_path):
    out = tmp_path / "a"
    run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)])
    cfg = json.loads((out / "config.json").read_text())
    cfg["artifact_version"] = "0"
    (out / "config.json").write_text(json.dumps(cfg))
    rep = replay(out, tmp_path / "fresh")
    assert not rep["ok"] and "version mismatch" in rep["error"]


def test_same_config_twice_identical_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["ebc1", "--cover", "cantor-bits", "--pairs", "60", "--seed", "3"]
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b)]) == 0
    for pa in sorted(a.rglob("*")):
        if not pa.is_file() or pa.name == "run.meta":
            continue
        pb = b / pa.relative_to(a)
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_build_dense_artifacts(tmp_path):
    out = tmp_path / "bd"
    assert run_main(["build-dense", "--family", "two-bits",
                     "--out", str(out)]) == 0
    dense_lines = (out / "dense.txt").read_text().splitlines()
    assert dense_lines and all(ln.startswith("cantor:") for ln in dense_lines)
    log = (out / "build_log.txt").read_text()
    assert "stage=0 seed=" in log


def test_recover_from_dense_file(tmp_path):
    out = tmp_path / "bd"
    run_main(["build-dense", "--family", "one-bit", "--out", str(out)])
    rec = tmp_path / "rec"
    code = run_main(["recover", "--fn", "indicator:1",
                     "--dense", f"file:{out / 'dense.txt'}",
                     "--horizon", "24", "--window", "4", "--max-points", "4",
                     "--out", str(rec)])
    assert code == 0


def test_recover_runs_each_of_several_z_points(tmp_path):
    # a Z point's text holds ";" itself; the list splits only before a prefix
    out = tmp_path / "z"
    code = run_main(["recover", "--fn", "zF", "--dense", "thm13", "--mode", "route",
                     "--points", "z:[];a=1;b=1; z:[];a=1;b=2;", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [p["x"] for p in summary["report"]["per_point"]] == ["z:[];a=1;b=1", "z:[];a=1;b=2"]
    assert sorted(p.name for p in (out / "traces").iterdir()) == ["point000.csv", "point001.csv"]
    rep = replay(out, tmp_path / "fresh")
    assert rep["ok"] and rep["divergence"] is None


def test_dense_file_skips_indented_comments_and_blank_lines(tmp_path):
    plain = "cantor:|0\ncantor:|1\ncantor:1|0\ncantor:0|1\n"
    noted = ("# four points\ncantor:|0\n  # an indented note\n\ncantor:|1\n"
             "\t# a tabbed note\ncantor:1|0\n   \ncantor:0|1\n")
    written = []
    for name, text in (("plain", plain), ("noted", noted)):
        (tmp_path / f"{name}.txt").write_text(text)
        out = tmp_path / name
        code = run_main(["recover", "--fn", "indicator:1", "--dense",
                         f"file:{tmp_path / name}.txt", "--horizon", "8", "--out", str(out)])
        written.append((code, {p.relative_to(out).as_posix(): p.read_text()
                               for p in out.rglob("*")
                               if p.name == "summary.json" or p.suffix == ".csv"}))
    assert written[0] == written[1] and len(written[0][1]) > 1


def test_gallery_demo_z_artifact(tmp_path):
    out = tmp_path / "g"
    code = run_main(["gallery", "demo-z", "--horizon", "150", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["found"] is True
    assert "note" in summary


@pytest.mark.parametrize("args", [
    ["rank", "--n", "11", "--A", "1", "--B", "0"],
    ["rank", "--n", "2", "--A", "10", "--B", "01"],
])
def test_rank_bad_input_exits_2_with_one_line(tmp_path, capsys, args):
    assert run_main(args + ["--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_recover_space_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        validate_config({"command": "recover", "space": "cantor", "fn": "I25",
                         "alpha": "cantor:|110"})
    with pytest.raises(SystemExit) as exc:
        run_main(["recover", "--space", "cantor", "--fn", "I25",
                  "--alpha", "cantor:|110", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_replay_version_one_artifacts_mismatch(tmp_path):
    out = tmp_path / "a"
    run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)])
    cfg = json.loads((out / "config.json").read_text())
    cfg["artifact_version"] = "1"
    (out / "config.json").write_text(json.dumps(cfg))
    rep = replay(out, tmp_path / "fresh")
    assert not rep["ok"] and "version mismatch" in rep["error"]


def test_zero_valued_options_are_kept(tmp_path, capsys):
    out = tmp_path / "e"
    assert run_main(["ebc1", "--cover", "cantor-bits", "--pairs", "20", "--seed", "0",
                     "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 0
    capsys.readouterr()
    assert run_main(["recover", "--fn", "I25", "--alpha", "cantor:|110",
                     "--horizon", "0", "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith("config error: horizon must be >= 1")


@pytest.mark.parametrize("command,key", [
    ("recover", "horizon"), ("recover", "window"), ("recover", "max_points"),
    ("ebc1", "pairs"), ("build-dense", "m_budget"), ("build-dense", "stages"),
])
def test_counts_below_one_rejected(command, key):
    assert validate_config({"command": command, key: "1"})[key] == 1
    with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
        validate_config({"command": command, key: 0})


@pytest.mark.parametrize("command,key,bound", [
    pytest.param("recover", "horizon", MAX_HORIZON, id="recover"),
    pytest.param("gallery", "horizon", MAX_HORIZON, id="gallery"),
    pytest.param("ebc1", "pairs", MAX_PAIRS, id="ebc1"),
])
def test_horizon_above_bound_rejected(command, key, bound):
    assert validate_config({"command": command, key: bound})[key] == bound
    with pytest.raises(ConfigError, match=f"^{key} must be <= {bound}, got {bound + 1}$"):
        validate_config({"command": command, key: str(bound + 1)})


def test_horizon_above_bound_exits_2_with_one_line(tmp_path, capsys):
    assert run_main(["recover", "--fn", "I25", "--alpha", "cantor:|110", "--horizon",
                     str(MAX_HORIZON + 1), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon must be <=") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()
    assert run_main(["ebc1", "--pairs", str(MAX_PAIRS + 1), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: pairs must be <=") and err.count("\n") == 1
    assert not (tmp_path / "e").exists()


I25_ARGS = ["recover", "--fn", "I25", "--alpha", "cantor:|110"]


@pytest.mark.parametrize("args", [
    I25_ARGS + ["--points", "cantor:1x|0"],
    I25_ARGS + ["--points", "unit:1/2"],
    I25_ARGS + ["--dense", "file:/nonexistent"],
    I25_ARGS + ["--dense", "file:{tmp}/empty.txt"],
    I25_ARGS + ["--dense", "file:{tmp}/mixed.txt"],
    ["recover", "--fn", "I25", "--alpha", "bogus"],
    ["recover", "--fn", "indicator:1x"],
    ["recover", "--fn", "zF", "--mode", "path", "--dense", "thm13"],
    ["gallery", "eval", "--fn", "I25", "--alpha", "cantor:|110"],
    ["rank", "--config", "{tmp}/bad_n.cfg"],
    ["rank", "--config", "/nonexistent.cfg"],
    I25_ARGS + ["--config", "{tmp}/bad_mode.cfg"],
    I25_ARGS + ["--mode", "paht"],
    I25_ARGS + ["--horizon", "abc"],
    ["build-dense", "--family", "nope"],
    ["rank", "--n", "abc", "--A", "10", "--B", "01"],
    ["gallery", "bogus"],
    # a function, its dense sequence, alpha and beta must share one space
    ["recover", "--fn", "zF", "--dense", "prop25"],
    ["recover", "--fn", "indicator:1", "--dense", "thm13", "--mode", "route"],
    ["recover", "--fn", "first-one-scale", "--dense", "dyadic"],
    ["recover", "--fn", "singleton:unit:1/3", "--dense", "dyadic"],
    ["recover", "--fn", "singleton:z:[];a=1;b=1", "--dense", "thm13", "--mode", "route"],
    ["recover", "--fn", "I25", "--alpha", "z:[];a=1;b=1"],
    ["gallery", "eval", "--fn", "I25", "--alpha", "unit:1/2", "--beta", "cantor:|1"],
    ["gallery", "eval", "--fn", "zF", "--beta", "cantor:|1"],
    ["recover", "--fn", "singleton:baire:1|0", "--dense", "prop25"],
    # text keys take strings; flags take true, false, 1 or 0
    ["recover", "--config", "{tmp}/fn_5.json"],
    I25_ARGS + ["--config", "{tmp}/dense_7.json"],
    ["rank", "--config", "{tmp}/diff_yes.cfg"],
    ["rank", "--config", "{tmp}/diff_int.json"],
    # counts and ints take an int or its text, never a float or a bool
    ["rank", "--config", "{tmp}/n_float.json"],
    ["ebc1", "--config", "{tmp}/pairs_true.json"],
    # points that name no point
    I25_ARGS + ["--points", ";"],
    I25_ARGS + ["--points", ""],
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, args):
    (tmp_path / "empty.txt").write_text("# no points\n")
    (tmp_path / "mixed.txt").write_text("cantor:1|01\nbaire:|3\n")
    (tmp_path / "bad_n.cfg").write_text("n=abc\nA=10\nB=01\n")
    (tmp_path / "bad_mode.cfg").write_text("mode=paht\n")
    (tmp_path / "fn_5.json").write_text('{"fn": 5}')
    (tmp_path / "dense_7.json").write_text('{"dense": 7}')
    (tmp_path / "diff_yes.cfg").write_text("n=1\nA=10\nB=01\ndiff=yes\n")
    (tmp_path / "diff_int.json").write_text('{"n": 1, "A": "10", "B": "01", "diff": 1}')
    (tmp_path / "n_float.json").write_text('{"n": 2.9, "A": "1100", "B": "0010"}')
    (tmp_path / "pairs_true.json").write_text('{"pairs": true}')
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    assert run_main(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_space_mismatch_message_names_the_functions_space(tmp_path, capsys):
    args = ["gallery", "eval", "--fn", "singleton:baire:1|0", "--beta", "cantor:|1"]
    assert run_main(args + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("config error: 1_{baire:1|0} is defined on baire, "
                                       "but beta lies in cantor\n")


@pytest.mark.parametrize("value,on", [("true", True), ("1", True), (True, True),
                                      ("false", False), ("0", False), (False, False)])
def test_flag_values_recorded_as_given(tmp_path, value, on):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"n": 1, "A": "10", "B": "01", "diff": value}))
    assert run_main(["rank", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
    assert json.loads((tmp_path / "r" / "config.json").read_text())["diff"] == value
    assert ("diff_form" in json.loads((tmp_path / "r" / "summary.json").read_text())) == on


def test_replay_flags_extra_files(tmp_path):
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    (out / "rank.txt").unlink()
    rep = replay(out, tmp_path / "fresh")
    assert not rep["ok"]
    assert rep["divergence"] == {"file": "rank.txt", "line": 0, "reason": "extra on replay"}
    assert rep["files_compared"] == 2


def test_replay_flags_missing_files(tmp_path):
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    (out / "notes.txt").write_text("not written by the run\n")
    rep = replay(out, tmp_path / "fresh")
    assert not rep["ok"]
    assert rep["divergence"] == {"file": "notes.txt", "line": 0, "reason": "missing on replay"}


def test_replay_flags_a_trailing_line(tmp_path):
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    target = out / "rank.txt"
    n = len(target.read_text().splitlines())
    target.write_text(target.read_text() + "one more line\n")
    rep = replay(out, tmp_path / "fresh")
    assert not rep["ok"]
    assert rep["divergence"] == {"file": "rank.txt", "line": n + 1, "reason": "length differs"}


def test_every_listed_name_is_parsed(tmp_path):
    # a name `gallery list` shows is one the configuration accepts; a
    # pattern name runs through one example of the pattern
    out = tmp_path / "list"
    assert run_main(["gallery", "list", "--out", str(out)]) == 0
    listed = json.loads((out / "summary.json").read_text())
    dense_file = tmp_path / "two.txt"
    dense_file.write_text("cantor:|0\ncantor:1|0\n")
    examples = {
        "I16(alpha)": {"fn": "I16", "alpha": "cantor:|110"},
        "I25(alpha)": {"fn": "I25", "alpha": "cantor:|110"},
        "indicator:<bits>": {"fn": "indicator:01"},
        "singleton:<point>": {"fn": "singleton:cantor:|01"},
        "file:<path>": {"dense": f"file:{dense_file}"},
    }
    spaces = {"cantor", "baire", "unit", "z"}
    assert listed["functions"] and listed["dense_sources"]
    for name in listed["functions"]:
        assert _fn_from_config(examples.get(name, {"fn": name})).space in spaces, name
    for name in listed["dense_sources"]:
        assert _dense_from_config(examples.get(name, {"dense": name})).space in spaces, name
    assert _dense_from_config(examples["file:<path>"]).budget == 2


def _damage_unknown_key(text, tmp_path):
    return text.replace('"n": 1', '"n": 1, "bogus": 1')


def _damage_truncate(text, tmp_path):
    return text[:len(text) // 2]


def _damage_array(text, tmp_path):
    return json.dumps([json.loads(text)])


def _damage_command(text, tmp_path):
    return text.replace('"command": "rank"', '"command": []')


def _damage_dense_file(text, tmp_path):
    (tmp_path / "gone.txt").write_text("cantor:1|01\ncantor:|0\n")
    out = tmp_path / "rec"
    assert run_main(["recover", "--fn", "indicator:10", "--dense", f"file:{tmp_path}/gone.txt",
                     "--horizon", "8", "--out", str(out)]) in (0, 1)
    (tmp_path / "gone.txt").unlink()
    return (out / "config.json").read_text()


@pytest.mark.parametrize("damage", [_damage_unknown_key, _damage_truncate, _damage_array,
                                    _damage_command, _damage_dense_file])
def test_replay_of_bad_recorded_config_exits_2(tmp_path, monkeypatch, capsys, damage):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # replay's scratch directory
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    cfg = out / "config.json"
    cfg.write_text(damage(cfg.read_text(), tmp_path))
    capsys.readouterr()
    assert run_main(["replay", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_replay_removes_its_scratch_directory(tmp_path, monkeypatch, capsys):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    assert run_main(["replay", str(out)]) == 0
    assert list(temp.iterdir()) == []
    (out / "config.json").write_text("{")  # a replay that fails cleans up too
    assert run_main(["replay", str(out)]) == 2
    assert list(temp.iterdir()) == []


def test_replay_reports_stay_exit_1(tmp_path, monkeypatch, capsys):
    # no config.json, a version mismatch and a divergence are reports
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_main(["replay", str(tmp_path / "none")]) == 1
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    (out / "rank.txt").write_text("changed\n")
    assert run_main(["replay", str(out)]) == 1
    cfg = json.loads((out / "config.json").read_text())
    (out / "config.json").write_text(json.dumps({**cfg, "artifact_version": "0"}))
    assert run_main(["replay", str(out)]) == 1
    assert capsys.readouterr().err == ""


def test_config_file_beats_defaults(tmp_path):
    rec = tmp_path / "rec.cfg"
    rec.write_text("fn=I25\nalpha=cantor:|110\nhorizon=40\nmax_points=2\n")
    assert run_main(["recover", "--config", str(rec), "--out", str(tmp_path / "r")]) == 0
    cfg = json.loads((tmp_path / "r" / "config.json").read_text())
    assert (cfg["fn"], cfg["horizon"], cfg["window"]) == ("I25", 40, 8)
    ebc = tmp_path / "ebc.cfg"
    ebc.write_text("cover=cantor-bits\npairs=20\nseed=3\n")
    assert run_main(["ebc1", "--config", str(ebc), "--out", str(tmp_path / "e")]) == 0
    cfg = json.loads((tmp_path / "e" / "config.json").read_text())
    assert (cfg["cover"], cfg["pairs"], cfg["seed"]) == ("cantor-bits", 20, 3)


def test_explicit_option_beats_config_file(tmp_path):
    ebc = tmp_path / "ebc.cfg"
    ebc.write_text("cover=cantor-bits\npairs=20\nseed=3\n")
    assert run_main(["ebc1", "--config", str(ebc), "--pairs", "30", "--seed", "0",
                     "--out", str(tmp_path / "e")]) == 0
    cfg = json.loads((tmp_path / "e" / "config.json").read_text())
    assert (cfg["cover"], cfg["pairs"], cfg["seed"]) == ("cantor-bits", 30, 0)


@pytest.mark.parametrize("args,recorded", [
    (["ebc1"], {"cover": "unit-halves", "pairs": 200, "seed": 7}),
    (["gallery"], {"action": "list", "horizon": 400}),
])
def test_defaults_recorded_without_config(tmp_path, args, recorded):
    assert run_main(args + ["--out", str(tmp_path / "d")]) == 0
    cfg = json.loads((tmp_path / "d" / "config.json").read_text())
    assert cfg == {"artifact_version": "2", "command": args[0], **recorded}


@pytest.mark.parametrize("key", ["check_points", "horizon"])
def test_build_dense_unread_keys_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"{key}=4\n")
    assert run_main(["build-dense", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown keys for build-dense")


def test_baire_path_past_symbol_8_converges(tmp_path):
    # the path runs through the 9 to the point itself, a term of the list
    dense = tmp_path / "dense.txt"
    dense.write_text("baire:|0\nbaire:9|0\nbaire:9,1|2\n")
    out = tmp_path / "b"
    code = run_main(["recover", "--dense", f"file:{dense}", "--fn", "singleton:baire:9|0",
                     "--points", "baire:9,1|2", "--out", str(out)])
    point = json.loads((out / "summary.json").read_text())["report"]["per_point"][0]
    assert code == 0 and point["terminated"] == "horizon" and point["steps"] == 64
    assert point["verdict"] == "converged(0, since=2)" and point["correct"] is True


# every key of every command, each set to a value other than its default
_EVERY_KEY = {
    "recover": {"dense": "file:{tmp}/d.txt", "fn": "I25", "alpha": "cantor:|110",
                "mode": "route", "horizon": "6", "window": "2", "points": "cantor:1|0",
                "max_points": "3"},
    "build-dense": {"family": "two-bits", "m_budget": "6", "stages": "3"},
    "rank": {"n": "1", "A": "10", "B": "01", "diff": True},
    "ebc1": {"cover": "unit-step", "pairs": "7", "seed": "-4"},
    "gallery": {"action": "eval", "fn": "I16", "alpha": "cantor:|1", "beta": "cantor:1|0",
                "horizon": "5"},
}


@pytest.mark.parametrize("command", sorted(_KEYS))
def test_every_table_key_is_an_option_recorded_in_config(tmp_path, command):
    (tmp_path / "d.txt").write_text("cantor:|0\ncantor:|1\ncantor:1|0\ncantor:0|1\n")
    given = {k: v.replace("{tmp}", str(tmp_path)) if isinstance(v, str) else v
             for k, v in _EVERY_KEY[command].items()}
    assert set(given) == set(_KEYS[command])
    args = [command]
    for key, value in given.items():
        if key == "action":
            args.append(value)
        elif _KEYS[command][key][0] == FLAG:
            args.append(f"--{key}")
        else:
            args += ["--" + key.replace("_", "-"), value]
    assert run_main(args + ["--out", str(tmp_path / "o")]) in (0, 1)
    recorded = json.loads((tmp_path / "o" / "config.json").read_text())
    kinds = {k: kind for k, (kind, _) in _KEYS[command].items()}
    expected = {k: int(v) if kinds[k] in (COUNT, INT) else v for k, v in given.items()}
    assert recorded == {"artifact_version": "2", "command": command, **expected}


# ---------------------------------------------------------------------------
# the modules each command imports
# ---------------------------------------------------------------------------

_CLI_ONLY = {"firstreturn", "firstreturn.cli"}
_BUILDER = _CLI_ONLY | {"firstreturn.space", "firstreturn.path", "firstreturn.dense_builder"}
# recover and gallery eval run no builder and no EBC1 check
_RECOVER = _CLI_ONLY | {"firstreturn.space", "firstreturn.path", "firstreturn.recover",
                        "firstreturn.gallery"}


@pytest.mark.parametrize("args,loaded", [
    (["gallery", "list"], _CLI_ONLY),
    (["rank", "--n", "1", "--A", "10", "--B", "01"], _CLI_ONLY | {"firstreturn.rank"}),
    (["build-dense", "--stages", "2"], _BUILDER),
    (["recover", "--dense", "file:{dense}", "--fn", "indicator:1", "--horizon", "4"], _RECOVER),
    (["ebc1", "--cover", "cantor-bits", "--pairs", "4"], _RECOVER | {"firstreturn.ebc1"}),
    (["gallery", "eval", "--fn", "I16", "--alpha", "cantor:|1", "--beta", "cantor:1|0",
      "--horizon", "4"], _RECOVER),
], ids=["gallery-list", "rank", "build-dense", "recover", "ebc1", "gallery-eval"])
def test_each_command_imports_only_the_modules_it_runs(tmp_path, args, loaded):
    # a fresh interpreter: this one has imported the whole package
    (tmp_path / "d.txt").write_text("cantor:|0\ncantor:|1\ncantor:1|0\ncantor:0|1\n")
    args = [a.replace("{dense}", str(tmp_path / "d.txt")) for a in args]
    script = ("import json, sys\n"
              "from firstreturn import cli\n"
              "cli.main(sys.argv[1:])\n"
              "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'firstreturn']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(firstreturn.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *args, "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "summary.json").exists()
    assert set(json.loads(proc.stdout.splitlines()[-1])) == loaded


def test_literal_choices_match_their_sources():
    assert _KEYS["recover"]["mode"] == ((PATH, ROUTE), PATH)
    assert _KEYS["build-dense"]["family"][0] == tuple(builder_families())
    covers = _KEYS["ebc1"]["cover"][0]
    assert len({repr(ebc1_cover(name)[0]) for name in covers}) == len(covers)
    with pytest.raises(ValueError, match="unit-halves, unit-step or cantor-bits"):
        ebc1_cover("no-such-cover")


# ---------------------------------------------------------------------------
# fuzzed configurations
# ---------------------------------------------------------------------------

_POINT_TEXTS = ["cantor:10|0", "cantor:|110", "cantor:1|01", "cantor:|1", "baire:0,2|1",
                "baire:|3", "baire:9,9|0", "unit:1/3", "unit:0", "unit:1",
                "z:[1/2,7/4];a=1;b=1/2", "z:[];a=1;b=10", "cantor:1x|0", "cantor:10",
                "unit:5/3", "unit:1/0", "unit:x", "z:[2,1];a=1;b=0", "z:[];a=0;b=1",
                "baire:|", "bogus", ""]
_POINT = st.sampled_from(_POINT_TEXTS)
_JUNK = st.sampled_from([None, 2.5, -1, 0, True, [], {}, "", "x", "1e9"])
_TEXT = {
    "fn": st.one_of(st.sampled_from(["I16", "I25", "first-one-scale", "zF", "indicator:10",
                                     "indicator:", "indicator:1x", "singleton:", "nope"]),
                    _POINT.map("singleton:".__add__)),
    "dense": st.sampled_from(["prop25", "dyadic", "thm13", "file:{dense}", "file:",
                              "file:/nonexistent", "nope"]),
    "points": st.lists(_POINT, max_size=3).map(";".join),
    "A": st.text("01x", max_size=9),
    "B": st.text("01x", max_size=9),
}


def _value(key, kind):
    if kind in (COUNT, INT):
        return st.one_of(st.integers(-2, 24), st.integers(-2, 24).map(str), _JUNK)
    if kind == FLAG:
        return st.sampled_from([True, False, "true", "false", "1", "0", "yes", 2, None])
    if isinstance(kind, tuple):
        return st.one_of(st.sampled_from(kind), _JUNK)
    return st.one_of(_TEXT.get(key, _POINT), _JUNK)


# valid configurations that the fuzzer mutates, so that runs get past
# validation as well as fail it
_BASES = {
    "recover": [{"fn": "I25", "alpha": "cantor:|110", "horizon": 12},
                {"fn": "zF", "dense": "thm13", "mode": "route", "horizon": 12},
                {"fn": "indicator:10", "dense": "file:{dense}", "horizon": 8},
                {"fn": "singleton:cantor:1|0", "mode": "route", "points": "cantor:1|0"},
                {"fn": "first-one-scale", "max_points": 3}],
    "build-dense": [{"family": "mixed", "stages": 6}, {"m_budget": 8}],
    "rank": [{"n": 1, "A": "10", "B": "01"}, {"n": 2, "A": "1100", "B": "0010"}],
    "ebc1": [{"cover": "unit-step", "pairs": 20}, {"cover": "cantor-bits", "seed": 3}],
    "gallery": [{"action": "eval", "fn": "I16", "alpha": "cantor:1|01", "beta": "cantor:10|0"},
                {"action": "demo-z", "horizon": 30}, {"action": "list"}],
}


@st.composite
def _configs(draw):
    """(command, base, cfg, damage).  damage is None for a run of cfg; else
    the base config is run and its recorded config.json replayed after cfg
    is merged in: "keys" as is, "array" wrapped in a list, and an int cuts
    the text to that many characters."""
    command = draw(st.sampled_from(sorted(_KEYS) + ["replay"]))
    replayed = command == "replay"
    if replayed:
        command = draw(st.sampled_from(sorted(_KEYS)))
    keys = _KEYS[command]
    base = draw(st.sampled_from(_BASES[command]))
    cfg = dict(base)
    extra = ["command", "artifact_version"] if replayed else []
    changed = draw(st.lists(st.sampled_from(sorted(keys) + ["space", "bogus"] + extra),
                            unique=True, max_size=4))
    for k in changed:
        cfg[k] = draw(_value(k, keys[k][0]) if k in keys else _JUNK)
    damage = (draw(st.sampled_from(["keys", "array"]) | st.integers(0, 300))
              if replayed else None)
    return command, base, cfg, damage


@given(case=_configs(), dense_lines=st.lists(_POINT, max_size=4))
@settings(max_examples=120, deadline=None)
def test_fuzzed_configs_exit_cleanly(case, dense_lines):
    # any configuration, run or replayed from a run's damaged config.json,
    # exits 0, 1 or 2 without a traceback: a bad one is a one-line config error
    import contextlib
    import io
    from unittest import mock

    command, base, cfg, damage = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(tempfile, "tempdir", tmp):
        dense_file = Path(tmp) / "dense.txt"
        dense_file.write_text("\n".join(dense_lines) + "\n")

        def fill(c):
            return {k: f"file:{dense_file}" if v == "file:{dense}" else v for k, v in c.items()}

        cfg_file = Path(tmp) / "cfg.json"
        out = Path(tmp) / "out"
        argv = [command, "--config", str(cfg_file), "--out", str(out)]
        cfg_file.write_text(json.dumps(fill(cfg if damage is None else base)))
        if damage is not None:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            recorded = out / "config.json"
            if recorded.exists():
                text = json.dumps({**json.loads(recorded.read_text()), **fill(cfg)})
                if damage == "array":
                    text = f"[{text}]"
                elif isinstance(damage, int):
                    text = text[:damage]
                recorded.write_text(text)
            argv = ["replay", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, cfg, damage)
    if code == 2:
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
