import json
from pathlib import Path

import pytest

from firstreturn.cli import (
    ConfigError,
    load_config_file,
    main,
    replay,
    run_config,
    validate_config,
)


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


I25_ARGS = ["recover", "--fn", "I25", "--alpha", "cantor:|110"]


@pytest.mark.parametrize("args", [
    I25_ARGS + ["--points", "cantor:1x|0"],
    I25_ARGS + ["--points", "unit:1/2"],
    I25_ARGS + ["--dense", "file:/nonexistent"],
    I25_ARGS + ["--dense", "file:{tmp}/empty.txt"],
    ["recover", "--fn", "I25", "--alpha", "bogus"],
    ["recover", "--fn", "indicator:1x"],
    ["recover", "--fn", "zF", "--mode", "path", "--dense", "thm13"],
    ["gallery", "eval", "--fn", "I25", "--alpha", "cantor:|110"],
    ["rank", "--config", "{tmp}/bad_n.cfg"],
    ["rank", "--config", "/nonexistent.cfg"],
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, args):
    (tmp_path / "empty.txt").write_text("# no points\n")
    (tmp_path / "bad_n.cfg").write_text("n=abc\nA=10\nB=01\n")
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    assert run_main(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_replay_flags_extra_files(tmp_path):
    out = tmp_path / "a"
    assert run_main(["rank", "--n", "1", "--A", "10", "--B", "01", "--out", str(out)]) == 0
    (out / "rank.txt").unlink()
    rep = replay(out, tmp_path / "fresh")
    assert not rep["ok"]
    assert rep["divergence"] == {"file": "rank.txt", "line": 0, "reason": "extra on replay"}
    assert rep["files_compared"] == 2
