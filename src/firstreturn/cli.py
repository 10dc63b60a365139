"""Experiment runner and reporting front end.

Subcommands: recover, build-dense, rank, ebc1, gallery, replay.  Each run
resolves to a validated configuration dict, executes deterministically and
writes artifacts into --out: config.json (the resolved configuration),
summary.json (sorted keys), plus command-specific files (CSV traces, the
builder log, a dense-sequence file).  Wall-clock metadata goes to a
run.meta sidecar excluded from determinism comparisons.  Exit codes:
0 all asserted checks passed, 1 check failures, 2 invalid configuration.

Configurations can also be given as files (--config): either JSON or
line-based key=value (# comments allowed); unknown keys are rejected.
One table in this module, _KEYS, declares each command's keys once, with
a kind and a default; it generates the options (`--max-points` for
max_points; `firstreturn <command> --help` lists them), drives
validate_config and supplies the defaults recorded in config.json.  A
value given as an option beats the file's, which beats the table's.
Each command imports only the modules it runs, inside its runner: `gallery
list` loads no library module, and `rank` loads only rank.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from itertools import product
from pathlib import Path
from typing import List, Optional

ARTIFACT_VERSION = "2"


class ConfigError(ValueError):
    pass


def _point(text):
    from .space import parse_point

    try:
        return parse_point(str(text))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad point {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Registries (functions, dense sources, builder families, covers)
# ---------------------------------------------------------------------------


def _fn_from_config(cfg: dict):
    """The configured function; it carries the space it is defined on."""
    from . import gallery
    from .space import CANTOR, ClosedSet, WordPoint

    name = cfg.get("fn")
    if not name:
        raise ConfigError("nothing to run: empty function list")
    if name in ("I16", "I25"):
        if "alpha" not in cfg:
            raise ConfigError(f"{name} needs alpha=<cantor point>")
        alpha = _point(cfg["alpha"])
        if alpha.space != CANTOR:
            raise ConfigError(f"alpha must be a cantor point, got {alpha}")
        return gallery.I16(alpha) if name == "I16" else gallery.I25(alpha)
    if name == "first-one-scale":
        return gallery.first_one_scale()
    if name.startswith("indicator:"):
        bits = name.split(":", 1)[1]
        if set(bits) - {"0", "1"}:
            raise ConfigError(f"bad indicator word {bits!r}")
        word = tuple(int(c) for c in bits)
        return gallery.indicator_of(ClosedSet(CANTOR, cylinders=(word,), name=f"N({bits})"))
    if name.startswith("singleton:"):
        pt = _point(name.split(":", 1)[1])
        if not isinstance(pt, WordPoint):
            raise ConfigError(f"singleton needs a cantor or baire point: {pt.space} "
                              f"has no complement pieces yet")
        return gallery.indicator_of(ClosedSet(pt.space, singletons=(pt,), name=f"{{{pt}}}"))
    if name == "zF":
        return gallery.z_F_indicator()
    raise ConfigError(f"unknown function {name!r}")


def _check_space(f, where: str, space: str):
    if f.space != space:
        raise ConfigError(f"{f.fid} is defined on {f.space}, but {where} lies in {space}")


def dyadic_dense(depth: int = 10):
    """0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, ... (unit interval), as a DenseSequence."""
    from fractions import Fraction

    from .path import DenseSequence
    from .space import UnitPoint

    pts = [UnitPoint(Fraction(0)), UnitPoint(Fraction(1))]
    for j in range(1, depth + 1):
        for k in range(1, 2 ** j, 2):
            pts.append(UnitPoint(Fraction(k, 2 ** j)))
    return DenseSequence(pts)


def _dense_from_config(cfg: dict):
    from . import gallery
    from .path import DenseSequence
    from .space import SpaceMismatch

    src = cfg["dense"]
    if src == "prop25":
        return gallery.prop25_dense()
    if src == "dyadic":
        return dyadic_dense()
    if src == "thm13":
        return gallery.thm13_dense()
    if src.startswith("file:"):
        path = Path(src.split(":", 1)[1])
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read dense file: {exc}") from None
        lines = [ln.strip() for ln in text.splitlines()]
        pts = [_point(ln) for ln in lines if ln and not ln.startswith("#")]
        if not pts:
            raise ConfigError(f"no points in dense file {path}")
        try:
            return DenseSequence(pts)
        except SpaceMismatch:
            raise ConfigError(f"dense file {path} mixes spaces") from None
    raise ConfigError(f"unknown dense source {src!r}")


def builder_families() -> dict:
    """The builder's closed families by name: the choices of `family`."""
    from .space import CANTOR, ClosedSet, WordPoint

    return {
        "one-bit": [ClosedSet(CANTOR, cylinders=((1,),), name="F0=N(1)")],
        "two-bits": [ClosedSet(CANTOR, cylinders=((1,),), name="F0=N(1)"),
                     ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="F1={b1=1}")],
        "mixed": [ClosedSet(CANTOR, cylinders=((1, 1),),
                            singletons=(WordPoint(CANTOR, (), (0,)),),
                            name="F0={0^inf}+N(11)"),
                  ClosedSet(CANTOR, cylinders=((1,),), name="F1=N(1)")],
    }


def _builder_q() -> list:
    from .space import CANTOR, WordPoint

    # words of length < 6 in length-lex order, each followed by 0^inf and
    # 1^inf; a point met twice keeps its first place
    return list(dict.fromkeys(WordPoint(CANTOR, word, cyc)
                              for depth in range(6)
                              for word in product((0, 1), repeat=depth)
                              for cyc in ((0,), (1,))))


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

# The kind of a value: a count (an integer >= 1), any integer, text, a
# flag, or a tuple of the allowed values.
COUNT, INT, TEXT, FLAG = "count", "int", "text", "flag"

# Every key of every command: key -> (kind, default).  A key without a
# default (None) is recorded in config.json only when given.  The choices
# are literals, so the table imports no library module: mode's are path.PATH
# and path.ROUTE, family's the keys of builder_families() (a test holds
# them equal).
_KEYS = {
    "recover": {"dense": (TEXT, "prop25"), "fn": (TEXT, None), "alpha": (TEXT, None),
                "mode": (("path", "route"), "path"), "horizon": (COUNT, 64),
                "window": (COUNT, 8), "points": (TEXT, None), "max_points": (COUNT, None)},
    "build-dense": {"family": (("one-bit", "two-bits", "mixed"), "one-bit"),
                    "m_budget": (COUNT, 30), "stages": (COUNT, None)},
    "rank": {"n": (INT, None), "A": (TEXT, None), "B": (TEXT, None), "diff": (FLAG, None)},
    "ebc1": {"cover": (("unit-halves", "unit-step", "cantor-bits"), "unit-halves"),
             "pairs": (COUNT, 200), "seed": (INT, 7)},
    "gallery": {"action": (("list", "eval", "demo-z"), "list"), "fn": (TEXT, None),
                "alpha": (TEXT, None), "beta": (TEXT, None), "horizon": (COUNT, 400)},
}

# A trace that settles on its point still builds, and writes, one step per
# horizon step, and an ebc1 run builds and holds every pair, so both are
# bounded: key -> largest value.
MAX_HORIZON = 100_000
MAX_PAIRS = 100_000
_BOUNDS = {"horizon": MAX_HORIZON, "pairs": MAX_PAIRS}

_HELP = {
    "recover": "recover a function along a dense sequence",
    "build-dense": "run the staged dense-set builder",
    "rank": "separation rank on a finite algebra",
    "ebc1": "equi-Baire-class-one oscillation check",
    "gallery": "explicit examples",
}


def validate_config(cfg: dict) -> dict:
    cmd = cfg.get("command")
    if not isinstance(cmd, str) or cmd not in _KEYS:
        raise ConfigError(f"unknown command {cmd!r}")
    keys = _KEYS[cmd]
    unknown = set(cfg) - set(keys) - {"command"}
    if unknown:
        raise ConfigError(f"unknown keys for {cmd}: {sorted(unknown)}")
    out = dict(cfg)
    for key, (kind, _) in keys.items():
        if key not in out:
            continue
        if kind in (COUNT, INT):
            # an int or its text: int() would truncate a float and take a bool
            try:
                if isinstance(out[key], bool) or not isinstance(out[key], (int, str)):
                    raise TypeError
                out[key] = int(out[key])
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be an integer, got {out[key]!r}") from None
            if kind == COUNT and out[key] < 1:
                raise ConfigError(f"{key} must be >= 1, got {out[key]}")
            if key in _BOUNDS and out[key] > _BOUNDS[key]:
                raise ConfigError(f"{key} must be <= {_BOUNDS[key]}, got {out[key]}")
        elif kind == TEXT and not isinstance(out[key], str):
            raise ConfigError(f"{key} must be text, got {out[key]!r}")
        elif kind == FLAG and not (isinstance(out[key], bool)
                                   or out[key] in ("true", "false", "1", "0")):
            raise ConfigError(f"{key} must be true, false, 1 or 0; got {out[key]!r}")
        elif isinstance(kind, tuple) and out[key] not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}; got {out[key]!r}")
    return out


def load_config_file(path: Path) -> dict:
    try:
        text = path.read_text()
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            cfg = json.loads(text)
            if not isinstance(cfg, dict):
                raise ValueError(f"{path.name} holds no JSON object")
            return cfg
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    cfg = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ConfigError(f"bad config line {line!r}")
        cfg[key.strip()] = value.strip()
    return cfg


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _write(out_dir: Path, name: str, text: str) -> None:
    path = out_dir / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(out_dir: Path, cfg: dict, summary: dict, ok: bool) -> int:
    summary = {"artifact_version": ARTIFACT_VERSION, "ok": ok, **summary}
    _write(out_dir, "config.json",
           json.dumps({"artifact_version": ARTIFACT_VERSION, **cfg},
                      sort_keys=True, indent=2) + "\n")
    _write(out_dir, "summary.json",
           json.dumps(summary, sort_keys=True, indent=2, default=str) + "\n")
    _write(out_dir, "run.meta", f"written_at={time.time()}\n")
    return 0 if ok else 1


def _run_recover(cfg: dict, out_dir: Path) -> int:
    from . import recover
    from .path import PATH, path_trace, route_trace, trace_to_csv
    from .space import NoGoodBasis, good_basis

    f = _fn_from_config(cfg)
    dense = _dense_from_config(cfg)
    _check_space(f, "the dense sequence", dense.space)
    mode, horizon, window = cfg["mode"], cfg["horizon"], cfg["window"]
    try:
        basis = good_basis(dense.space) if mode == PATH else None
    except NoGoodBasis as exc:
        raise ConfigError(f"{exc}; use mode=route") from None
    if "points" in cfg:
        # a Z point's own text holds ";": split only where a point, another
        # ";" or the end follows
        items = re.split(r";(?=\s*(?:[a-z]+:|;|$))", str(cfg["points"]))
        points = [_point(t) for t in items if t]
        if not points:
            raise ConfigError("nothing to run: no points")
        if any(x.space != dense.space for x in points):
            raise ConfigError(f"points must lie in the dense sequence's space {dense.space}")
    else:
        seen, points = set(), []
        limit = cfg.get("max_points", 12)
        for pt in dense:
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
            if len(points) >= limit:
                break
    report = recover.recovery_report(f, dense, mode, points, horizon, basis, window)
    for i, x in enumerate(points):
        tr = (path_trace(x, dense, basis, horizon) if mode == PATH
              else route_trace(x, dense, horizon))
        _write(out_dir, f"traces/point{i:03d}.csv", trace_to_csv(tr))
    ok = report["correct_rate"] == 1.0
    return _emit(out_dir, cfg, {"report": report}, ok)


def _run_build_dense(cfg: dict, out_dir: Path) -> int:
    from .dense_builder import build_dense
    from .space import CANTOR, format_point, good_basis

    family_name = cfg["family"]
    families = builder_families()[family_name]
    basis = good_basis(CANTOR)
    q = _builder_q()
    staged = build_dense(families, q, basis,
                         stages=cfg.get("stages"),
                         m_budget=cfg["m_budget"])
    _write(out_dir, "build_log.txt", "\n".join(staged.log) + "\n")
    _write(out_dir, "dense.txt",
           "\n".join(format_point(p) for p in staged.dense) + "\n")
    summary = {
        "family": family_name,
        "sets": [str(F) for F in families],
        "points": len(staged.dense),
        "stages": len(staged.blocks),
        "truncations": staged.truncations,
    }
    return _emit(out_dir, cfg, summary, ok=True)


def _run_rank(cfg: dict, out_dir: Path) -> int:
    from . import rank

    try:
        n = cfg["n"]
        algebra = rank.FiniteAlgebra(n)
        A = algebra.parse_atoms(str(cfg["A"]))
        B = algebra.parse_atoms(str(cfg["B"]))
    except KeyError as missing:
        raise ConfigError(f"rank needs {missing}") from None
    except ValueError as exc:
        raise ConfigError(f"rank: {exc}") from None
    try:
        chain = rank.rank_LAB(algebra, A, B)
    except rank.NotDisjoint:
        raise ConfigError("A and B must be disjoint") from None
    summary = {
        "n": n,
        "A": algebra.format_atoms(A),
        "B": algebra.format_atoms(B),
        "beta_min": chain.beta,
        "witness_chain": [algebra.format_atoms(g) for g in chain.sets],
    }
    if cfg.get("diff") in (True, "true", "1"):
        if (A | B) != algebra.full:
            summary["diff_form"] = "unavailable: pair is not complementary"
        else:
            form = rank.diff_from_chain(chain)
            summary["diff_form"] = [algebra.format_atoms(u) for u in form.opens]
            summary["diff_evaluates_to"] = algebra.format_atoms(rank.d_xi_eval(form))
    lines = [f"L(A,B) = {chain.beta}",
             "chain: " + " < ".join(algebra.format_atoms(g) for g in chain.sets)]
    _write(out_dir, "rank.txt", "\n".join(lines) + "\n")
    return _emit(out_dir, cfg, summary, ok=True)


def _run_ebc1(cfg: dict, out_dir: Path) -> int:
    import random
    from fractions import Fraction

    from . import ebc1, gallery
    from .space import CANTOR, UNIT, UnitPoint, WordPoint

    cover, family = gallery.ebc1_cover(cfg["cover"])
    n_pairs = cfg["pairs"]
    rng = random.Random(cfg["seed"])
    pairs = []
    if cover.space == UNIT:
        def rand_point():
            return UnitPoint(Fraction(rng.randrange(0, 257), 256))
    else:
        def rand_point():
            head = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
            cycle = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
            return WordPoint(CANTOR, head, cycle)
    probes = [rand_point() for _ in range(64)]
    uncovered = cover.uncovered(probes)
    while len(pairs) < n_pairs:
        x, xp = rand_point(), rand_point()
        if not cover.uncovered((x, xp)):
            pairs.append((x, xp))
    report = ebc1.ebc1_check(family, cover, pairs)
    report["uncovered_probes"] = [str(p) for p in uncovered]
    ok = report["ok"] and not uncovered
    return _emit(out_dir, cfg, {"report": report}, ok)


def _run_gallery(cfg: dict, out_dir: Path) -> int:
    action = cfg["action"]
    if action == "list":
        summary = {
            "functions": ["I16(alpha)", "I25(alpha)", "first-one-scale",
                          "indicator:<bits>", "singleton:<point>", "zF"],
            "dense_sources": ["prop25", "dyadic", "thm13", "file:<path>"],
            "predicates": ["S", "P_inf", "P_f", "G", "z_F"],
        }
        return _emit(out_dir, cfg, summary, ok=True)
    if action == "eval":
        f = _fn_from_config(cfg)
        if "beta" not in cfg:
            raise ConfigError("gallery eval needs beta=<point>")
        beta = _point(cfg["beta"])
        _check_space(f, "beta", beta.space)
        value = f(beta)
        return _emit(out_dir, cfg, {"fn": f.fid, "beta": str(beta),
                                    "value": value}, ok=True)
    # demo-z
    from . import gallery

    rep = gallery.thm13_demo(horizon=cfg["horizon"])
    return _emit(out_dir, cfg, rep, ok=rep["found"])


_RUNNERS = {
    "recover": _run_recover,
    "build-dense": _run_build_dense,
    "rank": _run_rank,
    "ebc1": _run_ebc1,
    "gallery": _run_gallery,
}


def run_config(cfg: dict, out_dir: Path) -> int:
    """Validate and execute one experiment, filling in the defaults of keys
    it is not given; returns the exit code."""
    cfg = validate_config(cfg)
    defaults = {k: d for k, (_, d) in _KEYS[cfg["command"]].items() if d is not None}
    cfg = {**defaults, **cfg}
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg["command"]](cfg, out_dir)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _artifact_files(directory: Path) -> List[Path]:
    """Relative paths of the artifacts in a directory, run.meta excluded."""
    return sorted(p.relative_to(directory) for p in directory.rglob("*")
                  if p.is_file() and p.name != "run.meta")


def replay(artifact_dir: Path, scratch: Optional[Path] = None) -> dict:
    """Re-run the recorded configuration and byte-compare the artifacts.

    Returns a report with the first divergence (file and line), if any: a
    file that differs, is missing on replay, or appears only on replay.
    The run.meta sidecar is excluded from the comparison.  A recorded
    config that cannot be read or run raises ConfigError.  Without a
    scratch directory, the re-run goes to a temporary one that is removed
    afterwards.
    """
    import tempfile

    if scratch is None:
        with tempfile.TemporaryDirectory(prefix="fr-replay-") as tmp:
            return replay(artifact_dir, Path(tmp))
    cfg_path = artifact_dir / "config.json"
    if not cfg_path.exists():
        return {"ok": False, "error": "no config.json in artifact dir"}
    stored = load_config_file(cfg_path)
    version = stored.pop("artifact_version", None)
    if version != ARTIFACT_VERSION:
        return {"ok": False, "error": f"version mismatch: {version} != {ARTIFACT_VERSION}"}
    run_config(stored, scratch)
    divergence = None
    originals = _artifact_files(artifact_dir)
    for rel in originals:
        orig, fresh = artifact_dir / rel, scratch / rel
        if not fresh.exists():
            divergence = {"file": str(rel), "line": 0, "reason": "missing on replay"}
            break
        a, b = orig.read_text().splitlines(), fresh.read_text().splitlines()
        for i, (la, lb) in enumerate(zip(a, b)):
            if la != lb:
                divergence = {"file": str(rel), "line": i + 1,
                              "reason": "content differs"}
                break
        if divergence is None and len(a) != len(b):
            divergence = {"file": str(rel), "line": min(len(a), len(b)) + 1,
                          "reason": "length differs"}
        if divergence:
            break
    extra = sorted(set(_artifact_files(scratch)) - set(originals))
    if divergence is None and extra:
        divergence = {"file": str(extra[0]), "line": 0, "reason": "extra on replay"}
    return {"ok": divergence is None, "divergence": divergence,
            "files_compared": len(originals)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="firstreturn")
    sub = parser.add_subparsers(dest="command")
    for command, keys in _KEYS.items():
        # options left out stay out of the namespace, so a --config file's
        # value is kept; run_config fills in the defaults of keys still missing
        sp = sub.add_parser(command, help=_HELP[command],
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--out", default=None, help="artifact directory")
        sp.add_argument("--config", default=None, help="config file (json or key=value)")
        for key, (kind, _) in keys.items():
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None
            if key == "action":
                sp.add_argument("action", nargs="?", metavar=metavar)
            elif kind == FLAG:
                sp.add_argument(f"--{key}", action="store_true")
            else:
                sp.add_argument("--" + key.replace("_", "-"), dest=key, metavar=metavar)

    sp = sub.add_parser("replay", help="re-run recorded artifacts and compare")
    sp.add_argument("dir")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    try:
        if args.command == "replay":
            report = replay(Path(args.dir))
            print(json.dumps(report, sort_keys=True, indent=2))
            return 0 if report["ok"] else 1
        cfg = {"command": args.command}
        for key, value in vars(args).items():
            if key not in ("command", "out", "config") and value is not None:
                cfg[key] = value
        out_dir = Path(args.out) if args.out else Path(f"artifacts-{args.command}")
        if args.config:
            cfg = {**load_config_file(Path(args.config)), **cfg}
        code = run_config(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    summary = json.loads((out_dir / "summary.json").read_text())
    print(json.dumps(summary, sort_keys=True, indent=2, default=str))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
