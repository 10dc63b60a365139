"""Workload definitions: inputs made from a seed, the ops, and their checks.

An in-process workload is `setup(seed, quiet) -> ops`, where each op is an
`Op` whose `run()` is the timed call into firstreturn and whose
`check(result, verify)` summarizes the result outside the timed region.
The summary always holds the verdict checks and the digest text; with
`verify` it also holds the exact trace checks (witness soundness, strict
descent), which cost about as much as the op itself.  `quiet` is a context
manager around the benchmark's own work (input generation, checks): its
CPU time is kept out of set-up and op times, and the tracer does not see
its calls into the package.

`cli_jobs(seed)` lists the CLI invocations of the cli-suite workload.

Calls into the package go through module attributes (`path.path_trace`,
not a name imported into this module), so that they reach the tracer's
wrappers when it is installed after this module is imported.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

from firstreturn import cli, dense_builder, gallery, path, recover
from firstreturn.dense_builder import ClosedSet
from firstreturn.path import route_descent_violations, trace_to_csv, witness_violations
from firstreturn.space import CANTOR, UNIT, UnitPoint, WordPoint, ZPoint, good_basis


@dataclass
class Outcome:
    traces: list                  # PathTrace objects the op produced
    text: str                     # canonical text, hashed into the results digest
    failure: Optional[str] = None  # set when the op's output is wrong
    missed: bool = False          # no decided verdict where ground truth is declared


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, bool], Outcome]


def _trace_failure(tr, verify) -> Optional[str]:
    if not verify:
        return None
    problems = (witness_violations(tr) if tr.mode == "path"
                else route_descent_violations(tr))
    return f"{tr.x}: {problems[0]}" if problems else None


def _trace_op(label, call) -> Op:
    def check(tr, verify):
        return Outcome([tr], f"{label}\n{trace_to_csv(tr)}", _trace_failure(tr, verify))
    return Op(label, call, check)


def _mixed_cycle(rng, lo=2, hi=5):
    while True:
        cyc = tuple(rng.randrange(2) for _ in range(rng.randrange(lo, hi + 1)))
        if 0 in cyc and 1 in cyc:  # never eventually constant, so never in D
            return cyc


# ---------------------------------------------------------------------------
# prop25-recover
# ---------------------------------------------------------------------------

P25_HORIZON, P25_WINDOW = 40, 6


def _criterion5_alphas(dense):
    """The 20 G-alphas of acceptance criterion 5, in the same order."""
    alphas = []
    for head in [(), (0,), (1,), (0, 0), (1, 0), (0, 1), (1, 1), (0, 1, 0)]:
        for cyc in [(1, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0),
                    (1, 1, 0, 1, 0)]:
            pt = WordPoint(CANTOR, head, cyc)
            if gallery.in_G(pt) and pt not in alphas and not dense.contains(pt):
                alphas.append(pt)
            if len(alphas) == 20:
                return alphas
    return alphas


def _recover_op(label, f, x, dense, basis) -> Op:
    def run():
        return recover.recover_at(f, x, dense, "path", P25_HORIZON, basis, window=P25_WINDOW)

    def check(res, verify):
        tr = res.trace
        truth = f.evaluator(x)
        failure = _trace_failure(tr, verify)
        missed = False
        if res.verdict.kind == "converged":
            if res.verdict.value != truth:
                failure = failure or f"{f.fid} at {x}: {res.verdict} != {truth}"
        else:
            missed = True
        text = f"{label} {res.verdict} {truth}\n{trace_to_csv(tr)}"
        return Outcome([tr], text, failure, missed)

    return Op(label, run, check)


def setup_prop25(seed, quiet) -> List[Op]:
    dense = gallery.prop25_dense()
    dense.first_index_extending(())
    basis = good_basis(CANTOR)
    rng = random.Random(seed)
    with quiet():
        distinct = []
        for pt in dense:
            if pt not in distinct:
                distinct.append(pt)
            if len(distinct) >= 300:
                break
        fixed_alphas = _criterion5_alphas(dense)
        extra = [WordPoint(CANTOR, h, c) for h, c in
                 [((), (0, 1)), ((0,), (0, 1)), ((), (0, 0, 1)), ((0, 0), (0, 1)),
                  ((1,), (0, 0, 1))]]

        def off_dense(need_g=False):
            while True:
                head = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 4)))
                pt = WordPoint(CANTOR, head, _mixed_cycle(rng))
                if not dense.contains(pt) and (gallery.in_G(pt) or not need_g):
                    return pt

        def seeded_points(first):
            pts = [first]
            for pt in rng.sample(distinct, 60):
                if pt not in pts and len(pts) < 45:
                    pts.append(pt)
            while len(pts) < 50:
                pt = off_dense()
                if pt not in pts:
                    pts.append(pt)
            return pts

        specs = []  # (kind, builder argument, points)
        for alpha in fixed_alphas:  # criterion 5, unchanged
            points = [alpha]
            for pt in dense:
                if pt not in points:
                    points.append(pt)
                if len(points) >= 45:
                    break
            points += [b for b in extra if b != alpha][:5]
            specs.append(("I25", alpha, points[:50]))
        for _ in range(20):
            alpha = off_dense(need_g=True)
            specs.append(("I25", alpha, seeded_points(alpha)))
        for _ in range(20):
            alpha = off_dense()
            specs.append(("I16", alpha, seeded_points(alpha)))
        for _ in range(20):
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
            member = rng.choice(distinct)
            closed = ClosedSet(CANTOR, cylinders=(word,), singletons=(member,))
            specs.append(("indicator", closed, seeded_points(member)))
    builders = {"I25": gallery.I25, "I16": gallery.I16,
                "indicator": gallery.indicator_of}
    ops = []
    for kind, arg, points in specs:
        f = builders[kind](arg)
        ops.extend(_recover_op(f"{f.fid}@{x}", f, x, dense, basis) for x in points)
    return ops


# ---------------------------------------------------------------------------
# ladder-path (criterion 3's families and ladder enumeration)
# ---------------------------------------------------------------------------

LADDER_DEPTH, LADDER_M_BUDGET, LADDER_HORIZON, LADDER_TARGETS = 140, 14, 96, 12

_N1 = ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")
_B1 = ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="{b1=1}")
_B1Z = ClosedSet(CANTOR, cylinders=((0, 0), (1, 0)), name="{b1=0}")
_DIAG = ClosedSet(CANTOR, cylinders=((0, 0), (1, 1)), name="N(00)+N(11)")
_SING = ClosedSet(CANTOR, cylinders=((1, 1),),
                  singletons=(WordPoint(CANTOR, (), (0,)),), name="{0^inf}+N(11)")
LADDER_FAMILIES = [[_N1], [_N1, _B1], [_N1, _B1Z, _DIAG], [_SING, _N1]]


def _base_enum():
    pts = []
    for length in range(6):
        for head in itertools.product((0, 1), repeat=length):
            for cyc in ((0,), (1,)):
                pt = WordPoint(CANTOR, head, cyc)
                if pt not in pts:
                    pts.append(pt)
    return pts


def _ladder_inputs(family, rng, count):
    """Seeded targets inside the family's sets, and criterion 3's ladder
    enumeration for them: the base words, then x|k with bit k flipped."""
    targets = []
    while len(targets) < count:
        fi = rng.randrange(len(family))
        head = tuple(rng.randrange(2) for _ in range(rng.randrange(3, 7)))
        x = WordPoint(CANTOR, head, _mixed_cycle(rng, 2, 4))
        if family[fi].member(x) and all(x != t for t, _ in targets):
            targets.append((x, fi))
    q = _base_enum()
    for k in range(3, LADDER_DEPTH + 1):
        for x, _ in targets:
            q.append(WordPoint(CANTOR, x.prefix(k) + (1 - x.at(k),), (0,)))
    return targets, q


def _ladder_op(x, F, dense, basis) -> Op:
    label = f"ladder {x} in {F}"

    def run():
        return path.path_trace(x, dense, basis, LADDER_HORIZON)

    def check(tr, verify):
        failure = _trace_failure(tr, verify)
        if tr.terminated != "horizon":
            failure = failure or f"{x}: budget stop at {len(tr.steps)} steps"
        tail = [s for s in tr.steps if s.step >= LADDER_HORIZON * 3 // 4]
        if not failure and not all(F.member(s.point) for s in tail):
            failure = f"{x}: tail window leaves {F}"
        return Outcome([tr], f"{label}\n{trace_to_csv(tr)}", failure)

    return Op(label, run, check)


def setup_ladder(seed, quiet) -> List[Op]:
    basis = good_basis(CANTOR)
    rng = random.Random(seed)
    ops = []
    for family in LADDER_FAMILIES:
        with quiet():
            targets, q = _ladder_inputs(family, rng, LADDER_TARGETS)
        staged = dense_builder.build_dense(family, q, basis, m_budget=LADDER_M_BUDGET)
        staged.dense.first_index_extending(())
        ops.extend(_ladder_op(x, family[fi], staged.dense, basis) for x, fi in targets)
    return ops


# ---------------------------------------------------------------------------
# exact-scan (linear-scan kernels: Z, unit interval, Cantor route)
# ---------------------------------------------------------------------------

Z_HORIZON, UNIT_HORIZON, CANTOR_ROUTE_HORIZON = 100, 40, 64
Z_SEEDED, UNIT_POINTS, CANTOR_ROUTES = 20, 4, 8


def setup_exact(seed, quiet) -> List[Op]:
    rng = random.Random(seed)
    zdense = gallery.thm13_dense()
    udense = cli.dyadic_dense(10)
    basis_u = good_basis(UNIT)
    with quiet():
        targets, q = _ladder_inputs(LADDER_FAMILIES[0], rng, CANTOR_ROUTES)
    cdense = dense_builder.build_dense(LADDER_FAMILIES[0], q, good_basis(CANTOR),
                         m_budget=LADDER_M_BUDGET).dense
    with quiet():
        half = Fraction(1, 2)
        zpoints = [gallery.thm13_target(), gallery.thm13_target(Fraction(1, 89)),
                   ZPoint((half, 3 * half, Fraction(9, 4)), 1, 4), ZPoint((), 1, 10)]
        while len(zpoints) < 4 + Z_SEEDED:  # plateau points with seeded offsets
            offset = Fraction(rng.randrange(1, 200), rng.choice((211, 223, 227, 229))) / 4
            pt = gallery.thm13_target(offset)
            if pt not in zpoints:
                zpoints.append(pt)
        upoints = []
        while len(upoints) < UNIT_POINTS:  # non-dyadic, so never in D
            q_den = rng.choice((3, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31))
            pt = UnitPoint(Fraction(rng.randrange(1, q_den), q_den))
            if pt not in upoints:
                upoints.append(pt)
    ops = []
    for x in zpoints:
        ops.append(_trace_op(f"z-route {x}",
                             lambda x=x: path.route_trace(x, zdense, Z_HORIZON)))
    for x in upoints:
        ops.append(_trace_op(f"unit-path {x}", lambda x=x: path.path_trace(
            x, udense, basis_u, UNIT_HORIZON)))
        ops.append(_trace_op(f"unit-route {x}",
                             lambda x=x: path.route_trace(x, udense, UNIT_HORIZON)))
    for x, _ in targets:
        ops.append(_trace_op(f"cantor-route {x}", lambda x=x: path.route_trace(
            x, cdense, CANTOR_ROUTE_HORIZON)))
    return ops


IN_PROCESS = {
    "prop25-recover": setup_prop25,
    "ladder-path": setup_ladder,
    "exact-scan": setup_exact,
}


# ---------------------------------------------------------------------------
# cli-suite: CLI invocations, each followed by a replay of its artifacts
# ---------------------------------------------------------------------------


def _bits(rng, n_atoms):
    """A seeded disjoint pair of atom sets, both nonempty."""
    tags = [rng.randrange(3) for _ in range(n_atoms)]
    tags[0], tags[-1] = 1, 2
    return ("".join("1" if t == 1 else "0" for t in tags),
            "".join("1" if t == 2 else "0" for t in tags))


def cli_jobs(seed) -> List[List[str]]:
    """Argument lists (without --out) of one pass, in order."""
    rng = random.Random(seed)
    g_alphas = ["cantor:|110", "cantor:0|1110", "cantor:1|0110", "cantor:|11010",
                "cantor:01|1100", "cantor:|0110"]
    alpha = rng.choice(g_alphas)
    jobs = [
        ["recover", "--fn", "I25", "--alpha", alpha, "--horizon", "40",
         "--window", "6", "--max-points", "8"],
        ["recover", "--fn", "I25", "--alpha", alpha, "--mode", "route",
         "--horizon", "40", "--window", "6", "--max-points", "8"],
        ["recover", "--fn", "I16", "--alpha", rng.choice(g_alphas),
         "--horizon", "40", "--window", "6", "--max-points", "8"],
        ["recover", "--fn", "zF", "--dense", "thm13", "--mode", "route",
         "--horizon", "100", "--max-points", "8"],
    ]
    for family in ("one-bit", "two-bits", "mixed"):
        jobs.append(["build-dense", "--family", family])
    for n in range(2, 11):
        a, b = _bits(rng, 2 ** n)
        jobs.append(["rank", "--n", str(n), "--A", a, "--B", b])
    for cover in ("unit-halves", "unit-step", "cantor-bits"):
        jobs.append(["ebc1", "--cover", cover, "--pairs", "200",
                     "--seed", str(rng.randrange(1000))])
    jobs.append(["gallery", "list"])
    jobs.append(["gallery", "eval", "--fn", "I16", "--alpha", rng.choice(g_alphas),
                 "--beta", f"cantor:{rng.randrange(2)}{rng.randrange(2)}|0"])
    return jobs
