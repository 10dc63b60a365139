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
The accepted keys per command are those of _ALLOWED_KEYS in this module;
`firstreturn <command> --help` lists the matching options.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import dense_builder, ebc1, gallery, rank, recover
from .dense_builder import ClosedSet, build_dense, whole_space
from .path import DenseSequence, path_trace, route_trace, trace_to_csv
from .space import (
    CANTOR,
    UNIT,
    NoGoodBasis,
    PointCode,
    UnitPoint,
    WordPoint,
    format_point,
    good_basis,
    parse_point,
)

ARTIFACT_VERSION = "2"


class ConfigError(ValueError):
    pass


def _point(text) -> PointCode:
    try:
        return parse_point(str(text))
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad point {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Registries (functions, dense sources, builder families, covers)
# ---------------------------------------------------------------------------


def _fn_from_config(cfg: dict) -> recover.FunctionOracle:
    name = cfg.get("fn", "")
    if not name:
        raise ConfigError("nothing to run: empty function list")
    if name in ("I16", "I25"):
        if "alpha" not in cfg:
            raise ConfigError(f"{name} needs alpha=<cantor point>")
        alpha = _point(cfg["alpha"])
        return gallery.I16(alpha) if name == "I16" else gallery.I25(alpha)
    if name == "first-one-scale":
        return gallery.first_one_scale()
    if name.startswith("indicator:"):
        bits = name.split(":", 1)[1]
        if set(bits) - {"0", "1"}:
            raise ConfigError(f"bad indicator word {bits!r}")
        word = tuple(int(c) for c in bits)
        return gallery.indicator_of(
            ClosedSet(CANTOR, cylinders=(word,), name=f"N({bits})"))
    if name.startswith("singleton:"):
        pt = _point(name.split(":", 1)[1])
        return gallery.indicator_of(
            ClosedSet(pt.space, singletons=(pt,), name=f"{{{pt}}}"))
    if name == "zF":
        return gallery.z_F_indicator()
    raise ConfigError(f"unknown function {name!r}")


def dyadic_dense(depth: int = 10) -> DenseSequence:
    """0, 1, 1/2, 1/4, 3/4, 1/8, 3/8, ... (unit interval)."""
    pts = [UnitPoint(Fraction(0)), UnitPoint(Fraction(1))]
    for j in range(1, depth + 1):
        for k in range(1, 2 ** j, 2):
            pts.append(UnitPoint(Fraction(k, 2 ** j)))
    return DenseSequence(UNIT, pts, tag="handwritten")


def _dense_from_config(cfg: dict) -> DenseSequence:
    src = cfg.get("dense", "prop25")
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
        pts = [_point(ln.strip()) for ln in text.splitlines()
               if ln.strip() and not ln.startswith("#")]
        if not pts:
            raise ConfigError(f"no points in dense file {path}")
        return DenseSequence(pts[0].space, pts, tag="handwritten")
    raise ConfigError(f"unknown dense source {src!r}")


BUILDER_FAMILIES: Dict[str, List[ClosedSet]] = {
    "one-bit": [ClosedSet(CANTOR, cylinders=((1,),), name="F0=N(1)")],
    "two-bits": [ClosedSet(CANTOR, cylinders=((1,),), name="F0=N(1)"),
                 ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="F1={b1=1}")],
    "mixed": [ClosedSet(CANTOR, cylinders=((1, 1),),
                        singletons=(WordPoint(CANTOR, (), (0,)),),
                        name="F0={0^inf}+N(11)"),
              ClosedSet(CANTOR, cylinders=((1,),), name="F1=N(1)")],
}


def _builder_q(count: int = 126) -> List[WordPoint]:
    pts: List[WordPoint] = []
    for depth in range(6):
        for v in range(2 ** depth):
            word = tuple((v >> (depth - 1 - j)) & 1 for j in range(depth))
            for cyc in ((0,), (1,)):
                pts.append(WordPoint(CANTOR, word, cyc))
    seen, out = set(), []
    for p in pts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out[:count]


def _ebc1_cover(name: str) -> Tuple[ebc1.ClosedCover, List[recover.FunctionOracle], str]:
    F = Fraction
    if name == "unit-halves":
        pieces = [ClosedSet(UNIT, intervals=((F(0), F(1, 2)),), name="[0,1/2]"),
                  ClosedSet(UNIT, intervals=((F(1, 2), F(1)),), name="[1/2,1]")]
        fam = [recover.FunctionOracle("x/2", lambda p: p.value / 2, recover.RATIONAL,
                                      "continuous"),
               recover.FunctionOracle("1-x/2", lambda p: 1 - p.value / 2,
                                      recover.RATIONAL, "continuous")]
        return ebc1.ClosedCover(F(1, 3), pieces, UNIT), fam, UNIT
    if name == "unit-step":
        pieces = [ClosedSet(UNIT, intervals=((F(1, 2), F(1)),), name="[1/2,1]")]
        for k in range(2, 10):
            pieces.append(ClosedSet(UNIT, intervals=((F(0), F(1, 2) - F(1, 2 ** k)),),
                                    name=f"[0,1/2-2^-{k}]"))
        step = recover.FunctionOracle(
            "step", lambda p: 1 if p.value >= F(1, 2) else 0, recover.DISCRETE,
            "baire-one")
        co_step = recover.FunctionOracle(
            "co-step", lambda p: 0 if p.value >= F(1, 2) else 1, recover.DISCRETE,
            "baire-one")
        return ebc1.ClosedCover(F(1, 2), pieces, UNIT), [step, co_step], UNIT
    if name == "cantor-bits":
        pieces = [ClosedSet(CANTOR, cylinders=((0,),), name="N(0)"),
                  ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")]
        fam = [gallery.indicator_of(pieces[1], "1_N(1)"),
               gallery.indicator_of(pieces[0], "1_N(0)")]
        return ebc1.ClosedCover(F(1, 2), pieces, CANTOR), fam, CANTOR
    raise ConfigError(f"unknown cover {name!r}")


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {
    "recover": {"command", "dense", "fn", "alpha", "mode", "horizon", "window",
                "points", "max_points"},
    "build-dense": {"command", "family", "m_budget", "stages", "check_points",
                    "horizon"},
    "rank": {"command", "n", "A", "B", "diff"},
    "ebc1": {"command", "cover", "pairs", "seed"},
    "gallery": {"command", "action", "fn", "alpha", "beta", "horizon"},
}

_INT_KEYS = {"horizon", "window", "m_budget", "stages", "n", "pairs", "seed",
             "max_points", "check_points"}
_POSITIVE_KEYS = {"horizon", "window", "m_budget", "pairs", "stages", "max_points"}


def validate_config(cfg: dict) -> dict:
    cmd = cfg.get("command")
    if cmd not in _ALLOWED_KEYS:
        raise ConfigError(f"unknown command {cmd!r}")
    unknown = set(cfg) - _ALLOWED_KEYS[cmd]
    if unknown:
        raise ConfigError(f"unknown keys for {cmd}: {sorted(unknown)}")
    out = dict(cfg)
    for key in _INT_KEYS & set(out):
        try:
            out[key] = int(out[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {out[key]!r}") from None
    for key in _POSITIVE_KEYS & set(out):
        if out[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {out[key]}")
    return out


def load_config_file(path: Path) -> dict:
    try:
        text = path.read_text()
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            return json.loads(text)
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
    f = _fn_from_config(cfg)
    dense = _dense_from_config(cfg)
    mode = cfg.get("mode", "path")
    horizon = int(cfg.get("horizon", 64))
    window = int(cfg.get("window", 8))
    try:
        basis = good_basis(dense.space) if mode == "path" else None
    except NoGoodBasis as exc:
        raise ConfigError(f"{exc}; use mode=route") from None
    if "points" in cfg:
        points = [_point(t) for t in str(cfg["points"]).split(";") if t]
        if any(x.space != dense.space for x in points):
            raise ConfigError(f"points must lie in the dense sequence's space {dense.space}")
    else:
        seen, points = set(), []
        limit = int(cfg.get("max_points", 12))
        for pt in dense:
            if pt not in seen:
                seen.add(pt)
                points.append(pt)
            if len(points) >= limit:
                break
    report = recover.recovery_report(f, dense, mode, points, horizon, basis, window)
    for i, x in enumerate(points):
        tr = (path_trace(x, dense, basis, horizon) if mode == "path"
              else route_trace(x, dense, horizon))
        _write(out_dir, f"traces/point{i:03d}.csv", trace_to_csv(tr))
    ok = report["correct_rate"] == 1.0
    return _emit(out_dir, cfg, {"report": report}, ok)


def _run_build_dense(cfg: dict, out_dir: Path) -> int:
    family_name = cfg.get("family", "one-bit")
    if family_name not in BUILDER_FAMILIES:
        raise ConfigError(f"unknown family {family_name!r}")
    families = BUILDER_FAMILIES[family_name]
    basis = good_basis(CANTOR)
    q = _builder_q()
    staged = build_dense(families, q, basis,
                         stages=cfg.get("stages"),
                         m_budget=int(cfg.get("m_budget", 30)))
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
    try:
        n = int(cfg["n"])
        algebra = rank.FiniteAlgebra(n)
        A = algebra.parse_atoms(str(cfg["A"]))
        B = algebra.parse_atoms(str(cfg["B"]))
    except KeyError as missing:
        raise ConfigError(f"rank needs {missing}") from None
    except ValueError as exc:
        raise ConfigError(f"rank: {exc}") from None
    try:
        res = rank.rank_LAB(algebra, A, B)
    except rank.NotDisjoint:
        raise ConfigError("A and B must be disjoint") from None
    summary = {
        "n": n,
        "A": algebra.format_atoms(A),
        "B": algebra.format_atoms(B),
        "beta_min": res.beta,
        "witness_chain": [algebra.format_atoms(g) for g in res.chain.sets],
    }
    if cfg.get("diff") in (True, "true", "1"):
        if (A | B) != algebra.full:
            summary["diff_form"] = "unavailable: pair is not complementary"
        else:
            form = rank.diff_from_chain(res.chain)
            summary["diff_form"] = [algebra.format_atoms(u) for u in form.opens]
            summary["diff_evaluates_to"] = algebra.format_atoms(rank.d_xi_eval(form))
    lines = [f"L(A,B) = {res.beta}",
             "chain: " + " < ".join(algebra.format_atoms(g) for g in res.chain.sets)]
    _write(out_dir, "rank.txt", "\n".join(lines) + "\n")
    return _emit(out_dir, cfg, summary, ok=True)


def _run_ebc1(cfg: dict, out_dir: Path) -> int:
    import random

    cover, family, space = _ebc1_cover(cfg.get("cover", "unit-halves"))
    n_pairs = int(cfg.get("pairs", 200))
    rng = random.Random(int(cfg.get("seed", 7)))
    pairs = []
    if space == UNIT:
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
        if any(g.member(x) for g in cover.pieces) and \
           any(g.member(xp) for g in cover.pieces):
            pairs.append((x, xp))
    report = ebc1.ebc1_check(family, cover, pairs)
    report["uncovered_probes"] = [str(p) for p in uncovered]
    ok = report["ok"] and not uncovered
    return _emit(out_dir, cfg, {"report": report}, ok)


def _run_gallery(cfg: dict, out_dir: Path) -> int:
    action = cfg.get("action", "list")
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
        value = f(beta)
        return _emit(out_dir, cfg, {"fn": f.fid, "beta": str(beta),
                                    "value": value}, ok=True)
    if action == "demo-z":
        horizon = int(cfg.get("horizon", 400))
        rep = gallery.thm13_demo(horizon=horizon)
        summary = {
            "found": rep.found, "witness": rep.witness,
            "flips_after": rep.flips_after, "total_flips": rep.total_flips,
            "after_step": rep.after_step, "horizon": rep.horizon,
            "candidates": rep.candidates, "density": rep.density,
            "positive_control": rep.positive_control, "note": rep.note,
        }
        return _emit(out_dir, cfg, summary, ok=rep.found)
    raise ConfigError(f"unknown gallery action {action!r}")


_RUNNERS = {
    "recover": _run_recover,
    "build-dense": _run_build_dense,
    "rank": _run_rank,
    "ebc1": _run_ebc1,
    "gallery": _run_gallery,
}


def run_config(cfg: dict, out_dir: Path) -> int:
    """Validate and execute one experiment; returns the exit code."""
    cfg = validate_config(cfg)
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
    The run.meta sidecar is excluded from the comparison.
    """
    import tempfile

    cfg_path = artifact_dir / "config.json"
    if not cfg_path.exists():
        return {"ok": False, "error": "no config.json in artifact dir"}
    stored = json.loads(cfg_path.read_text())
    version = stored.pop("artifact_version", None)
    if version != ARTIFACT_VERSION:
        return {"ok": False, "error": f"version mismatch: {version} != {ARTIFACT_VERSION}"}
    scratch = scratch or Path(tempfile.mkdtemp(prefix="fr-replay-"))
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


def _add_common(sp):
    sp.add_argument("--out", default=None, help="artifact directory")
    sp.add_argument("--config", default=None, help="config file (json or key=value)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="firstreturn")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("recover", help="recover a function along a dense sequence")
    _add_common(sp)
    sp.add_argument("--dense", default="prop25")
    sp.add_argument("--fn", default="")
    sp.add_argument("--alpha")
    sp.add_argument("--mode", default="path", choices=["path", "route"])
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--window", type=int, default=8)
    sp.add_argument("--points", help="semicolon-separated point syntax")
    sp.add_argument("--max-points", dest="max_points", type=int)

    sp = sub.add_parser("build-dense", help="run the staged dense-set builder")
    _add_common(sp)
    sp.add_argument("--family", default="one-bit",
                    choices=sorted(BUILDER_FAMILIES))
    sp.add_argument("--m-budget", dest="m_budget", type=int, default=30)
    sp.add_argument("--stages", type=int)

    sp = sub.add_parser("rank", help="separation rank on a finite algebra")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=False)
    sp.add_argument("--A")
    sp.add_argument("--B")
    sp.add_argument("--diff", action="store_true")

    sp = sub.add_parser("ebc1", help="equi-Baire-class-one oscillation check")
    _add_common(sp)
    sp.add_argument("--cover", default="unit-halves")
    sp.add_argument("--pairs", type=int, default=200)
    sp.add_argument("--seed", type=int, default=7)

    sp = sub.add_parser("gallery", help="explicit examples")
    _add_common(sp)
    sp.add_argument("action", nargs="?", default="list",
                    choices=["list", "eval", "demo-z"])
    sp.add_argument("--fn")
    sp.add_argument("--alpha")
    sp.add_argument("--beta")
    sp.add_argument("--horizon", type=int, default=400)

    sp = sub.add_parser("replay", help="re-run recorded artifacts and compare")
    sp.add_argument("dir")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    if args.command == "replay":
        report = replay(Path(args.dir))
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0 if report["ok"] else 1

    cfg = {"command": args.command}
    skip = {"command", "out", "config"}
    for key, value in vars(args).items():
        # 0 is a value, so compare by identity (0 == False)
        if key in skip or value is None or value is False:
            continue
        cfg[key] = value
    out_dir = Path(args.out) if args.out else Path(f"artifacts-{args.command}")
    try:
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
