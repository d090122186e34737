"""The benchmark workloads: seeded inputs, expected answers, timed ops.

`setup(name, seed, workdir)` builds every input of a workload from the seed,
asks symfa.oracle for each expected answer, writes the files the CLI runs
read, and returns a list of rounds, each a list of timed ops: every
workload has the same five op families (decide, construct, member, io, cli),
so every end-to-end metric has samples on every workload, but the sizes and
the algebra differ, which moves the work to different modules:

- interval-minimize: interval DFAs on a ladder of sizes n = 25..80;
  minimize, canonical forms and decisions spend their time in the Moore
  loop, is_deterministic and intervals.to_dnf.  A 2000-state file adds
  parse/emit/DOT and long-word membership at scale.
- prop-decide: propositional automata at k = 4..6 (decisions), k = 6
  (determinize, minimize) and k = 10 (determinize); prop_sat enumeration,
  mask_of and disjoint_monomials dominate.  A 300-state k = 8 file adds
  parse/emit/DOT and membership by evaluation of general predicates.

The rounds hold disjoint inputs (POOL rounds per workload; the big file of
a workload sits in two of them); a run sweeps over all of them.
"""

import functools
import json
import operator
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import gen
from symfa import (
    TRUE,
    And,
    Atom,
    Not,
    Or,
    canonical_minimal_neat,
    determinize,
    emit_sfa,
    equivalent,
    export_dot,
    includes,
    membership,
    minimize,
    parse_sfa,
)
from symfa import oracle

# Seed for confirming a claimed gain on inputs the change was not tuned on.
HELD_OUT_SEED = 7919

CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One timed call.  `call(counters)` is timed; `check(result)` is not and
    returns an error message or None.  `work` is letters (member) or bytes
    (io); `key` names a construction output for out_edges."""

    family: str
    label: str
    input_seed: int
    call: object
    check: object
    work: int = 0
    key: str | None = None


@dataclass
class CliResult:
    status: int
    report: dict | None
    stderr: str


def _input_seed(seed, family, i):
    """Per-input seed, printed with every mismatch so it can be replayed."""
    return random.Random(f"{seed}/{family}/{i}").randrange(1 << 30)


# ---------------------------------------------------------------------------
# expected answers and checks


def _expect(want):
    def check(got):
        return None if got == want else f"got {got!r}, oracle says {want!r}"

    return check


def _expect_sfa(want):
    def check(out):
        return None if out == want else "output differs from the one made in set-up"

    return check


def _expected_min_states(dfa):
    """State count of symfa's minimize output for a deterministic input whose
    oracle DFA is `dfa`: the distinguishable-class count, less the dead class
    when the input was incomplete (minimize drops the sink block it adds)."""
    classes = oracle.mn_class_count(dfa)
    if frozenset() not in dfa.states or classes == 1:
        return classes
    return classes - 1


@functools.cache
def _variable_mask(var, k):
    bit = k - 1 - var
    return sum(1 << i for i in range(1 << k) if i >> bit & 1)


def _truth_table(p, k):
    """Bit i is p's value on valuation i of oracle.default_alphabet's order."""
    if isinstance(p, Atom):
        mask = _variable_mask(p.payload.var, k)
        return mask ^ ((1 << (1 << k)) - 1) if p.payload.negated else mask
    if isinstance(p, Not):
        return _truth_table(p.child, k) ^ ((1 << (1 << k)) - 1)
    if isinstance(p, And):
        return functools.reduce(operator.and_, (_truth_table(c, k) for c in p.children))
    if isinstance(p, Or):
        return functools.reduce(operator.or_, (_truth_table(c, k) for c in p.children))
    return (1 << (1 << k)) - 1 if p is TRUE else 0


def _letter_classes(*sfas):
    """One letter per class of letters that every predicate of the automata
    treats alike, so agreement over these letters is agreement over the whole
    alphabet: the oracle's segment representatives for intervals, and for
    propositions the first valuation of each cell of the partition that the
    predicates' truth tables cut."""
    if sfas[0].binding.is_monotonic:
        return oracle.representatives(*sfas)
    k = sfas[0].binding.k
    cells = [(1 << (1 << k)) - 1]
    for mask in {_truth_table(t.pred, k) for a in sfas for t in a.transitions}:
        cells = [c for cell in cells for c in (cell & mask, cell & ~mask) if c]
    vals = oracle.default_alphabet(*sfas)
    return tuple(sorted(vals[(c & -c).bit_length() - 1] for c in cells))


def _same_language(a):
    """Check that an output automaton accepts exactly L(a): the letters refine
    the predicates of both, so the check is exact over the whole alphabet."""

    def check(out):
        word = oracle.separating_word(a, out, _letter_classes(a, out))
        return None if word is None else f"output differs from input on word {word!r}"

    return check


def _cached(check):
    """Run the full check on the first output; later outputs must equal it."""
    first = []

    def cached(out):
        if first:
            return None if out == first[0] else "output differs from the first run's"
        err = check(out)
        if err is None:
            first.append(out)
        return err

    return cached


def _all(*checks):
    def check(out):
        for c in checks:
            err = c(out)
            if err is not None:
                return err
        return None

    return check


def _states_equal(want):
    def check(out):
        n = len(out.states)
        return None if n == want else f"{n} states, oracle minimal count is {want}"

    return check


# ---------------------------------------------------------------------------
# op builders shared by the workloads


def _decide_ops(tag, seed, a, r, v, alphabet):
    """equivalent(a, rewrite) plus includes both ways against a variant."""
    if not oracle.oracle_equal(a, r, alphabet):
        raise RuntimeError(f"{tag} (input seed {seed}): the rewrite changed the language")
    want_av = oracle.oracle_subset(a, v, alphabet)
    want_va = oracle.oracle_subset(v, a, alphabet)
    return [
        Op("decide", f"equivalent {tag}", seed, lambda c: equivalent(a, r, c), _expect(True)),
        Op("decide", f"includes a,v {tag}", seed, lambda c: includes(a, v, c), _expect(want_av)),
        Op("decide", f"includes v,a {tag}", seed, lambda c: includes(v, a, c), _expect(want_va)),
    ]


def _member_op(tag, seed, a, ws):
    dfa = oracle.concretize(a, sorted({x for w in ws for x in w}))
    want = [dfa.accepts(w) for w in ws]
    return Op(
        "member",
        f"membership {tag}",
        seed,
        lambda c: [membership(a, w, c) for w in ws],
        _expect(want),
        work=sum(len(w) for w in ws),
    )


def _io_op(tag, seed, a, text):
    """parse + emit + DOT of one file; the round trip must be byte-identical."""
    arrows = len(a.transitions) + 1  # one per transition, one from the start marker

    def call(_counters):
        b = parse_sfa(text)
        return emit_sfa(b), export_dot(b)

    def check(out):
        back, dot = out
        if back != text:
            return "emit(parse(text)) is not byte-identical to text"
        if dot.count(" -> ") != arrows:
            return f"DOT has {dot.count(' -> ')} arrows, expected {arrows}"
        op.work = len(text.encode()) + len(back.encode()) + len(dot.encode())
        return None

    op = Op("io", f"parse+emit+dot {tag}", seed, call, _cached(check))
    return op


def _write(workdir, name, text):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as f:
        f.write(text)
    return name


def _cli_op(tag, seed, workdir, argv, want_status, check_report=None):
    """One `python -m symfa` child, from spawn to exit, with --json."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    cmd = [sys.executable, "-m", "symfa", *argv, "--json"]

    def call(_counters):
        p = subprocess.run(
            cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
        try:
            report = json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = None
        return CliResult(p.returncode, report, p.stderr)

    def check(res):
        if res.status != want_status:
            return f"exit status {res.status}, expected {want_status}: {res.stderr.strip()[-200:]}"
        if res.report is None:
            return "no JSON report on standard output"
        return check_report(res.report) if check_report else None

    return Op("cli", f"symfa {' '.join(argv)} ({tag})", seed, call, check)


def _cli_result(want):
    def check(report):
        got = report.get("result")
        return None if got == want else f"report result {got!r}, expected {want!r}"

    return check


def _cli_output_states(want):
    def check(report):
        out = report.get("output") or {}
        return None if out.get("n") == want else f"output n={out.get('n')}, expected {want}"

    return check


def _word_arg(word):
    return ",".join(
        "".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in word
    )


# ---------------------------------------------------------------------------
# big files: parse/emit/DOT and long-word membership at scale

BIG_ROUNDS = (0, 4)  # the same big file in two rounds of each workload


def _big_file_ops(seed, tag, a, ws, rounds):
    """io and membership ops of one big automaton, added to some rounds."""
    s = _input_seed(seed, f"big/{tag}", 0)
    ops = [_io_op(tag, s, a, emit_sfa(a)), _member_op(tag, s, a, ws)]
    for i in BIG_ROUNDS:
        rounds[i] += ops


# ---------------------------------------------------------------------------
# interval-minimize

IM_POOL = 7
IM_PER_ROUND = 3
# one fixed geometric ladder of sizes from 25 to 80: each round gets a
# small, a middle and a large one, and the time distributions have no gaps
IM_SIZES = tuple(
    round(25 * (80 / 25) ** (j / (IM_POOL * IM_PER_ROUND - 1)))
    for j in range(IM_POOL * IM_PER_ROUND)
)
IM_BIG_N = 2000


def _canonical_ops(tag, seed, a, r, classes, key):
    """canonical_minimal_neat of both sides: each has the oracle's class
    count, and the two outputs must be structurally equal."""
    outs = {}

    def check(side, src):
        def check_side(out):
            err = _all(_states_equal(classes), _same_language(src))(out)
            if err is not None:
                return err
            outs[side] = out
            other = outs.get(1 - side)
            return None if other is None or other == out else "canonical forms differ"

        return _cached(check_side)

    return [
        Op("construct", f"canonical_minimal_neat a {tag}", seed,
           lambda c: canonical_minimal_neat(a, c), check(0, a), key=f"canon-a/{key}"),
        Op("construct", f"canonical_minimal_neat rewrite {tag}", seed,
           lambda c: canonical_minimal_neat(r, c), check(1, r), key=f"canon-r/{key}"),
    ]


def _interval_cli_ops(tag, seed, workdir, stem, a, r, v, alphabet, classes, word, full):
    fa, fr, fv = (_write(workdir, f"{stem}{x}.sfa", emit_sfa(y)) for x, y in zip("arv", (a, r, v)))
    want_inc = oracle.oracle_subset(a, v, alphabet)
    ops = [
        _cli_op(tag, seed, workdir, ["equiv", fa, fr], 0, _cli_result(True)),
        _cli_op(tag, seed, workdir, ["include", fa, fv], 0 if want_inc else 1,
                _cli_result(want_inc)),
    ]
    if full:
        want_member = oracle.concretize(a, sorted(set(word))).accepts(word)
        ops += [
            _cli_op(tag, seed, workdir, ["minimize", fa, "--out", f"{stem}m.sfa"], 0,
                    _cli_output_states(classes)),
            _cli_op(tag, seed, workdir, ["member", fa, f"--word={_word_arg(word)}"],
                    0 if want_member else 1, _cli_result(want_member)),
        ]
    return ops


def _interval_minimize(seed, workdir):
    letters = range(gen.CUT_LO - 2, gen.CUT_HI + 2)
    rounds = []
    for i in range(IM_POOL):
        ops = []
        for j in range(IM_PER_ROUND):
            n = IM_SIZES[i + IM_POOL * j]
            s = _input_seed(seed, "interval", i + IM_POOL * j)
            rng = random.Random(s)
            a = gen.det_interval_sfa(rng, n)
            r = gen.interval_rewrite(rng, a)
            v = gen.flip_accepting(rng, a)
            alphabet = oracle.representatives(a, r, v)
            classes = _expected_min_states(oracle.concretize(a, alphabet))
            tag = f"n={n}"
            ops.append(
                Op("construct", f"minimize {tag}", s, lambda c, a=a: minimize(a, c),
                   _cached(_all(_states_equal(classes), _same_language(a))),
                   key=f"minimize/{n}")
            )
            ops += _canonical_ops(tag, s, a, r, classes, str(n))
            ops += _decide_ops(tag, s, a, r, v, alphabet)
            ops.append(_member_op(tag, s, a, gen.words(rng, letters, 2, 500)))
            if j == IM_PER_ROUND - 1:
                ops.append(_io_op(tag, s, a, emit_sfa(a)))
            else:
                word = gen.words(rng, letters, 1, 30)[0]
                ops += _interval_cli_ops(
                    tag, s, workdir, f"im{n}", a, r, v, alphabet, classes, word, full=j == 0
                )
        rounds.append(ops)
    rng = random.Random(_input_seed(seed, "big/interval", 0))
    big = gen.det_interval_sfa(rng, IM_BIG_N)
    _big_file_ops(seed, f"interval n={IM_BIG_N}", big, gen.words(rng, letters, 4, 2000), rounds)
    return rounds


# ---------------------------------------------------------------------------
# prop-decide

PD_KS = (4, 5, 6)
PD_POOL = 6
PD_PRED_SIZES = (4, 5, 6, 7, 8)  # label sizes around 6, so decision times have no gaps
PD_DECIDE_SETS = 2  # decision input sets per k per round
PD_CONSTRUCT_SETS = 4  # minimize k=6 and determinize k=10 input sets per round
PD_DET6_SETS = 2  # of which also timed: determinize k=6 (a few ms, far below the median)
PD_BIG_K, PD_BIG_N = 8, 300


def _prop_decide(seed, workdir):
    rounds = []
    for i in range(PD_POOL):
        ops = []
        for k in PD_KS:
            for j in range(PD_DECIDE_SETS):
                s = _input_seed(seed, f"prop-decide/{k}/{j}", i)
                rng = random.Random(s)
                size = PD_PRED_SIZES[(i * PD_DECIDE_SETS + j) % len(PD_PRED_SIZES)]
                a = gen.det_prop_sfa(rng, k, 4, size)
                r = gen.prop_rewrite(rng, a)
                v = gen.flip_accepting(rng, a)
                tag = f"k={k} size={size}"
                ops += _decide_ops(tag, s, a, r, v, None)
                if j > 0:
                    continue
                vals = list(oracle.default_alphabet(a))
                fa, fr, fv = (
                    _write(workdir, f"pd{i}k{k}{x}.sfa", emit_sfa(y)) for x, y in zip("arv", (a, r, v))
                )
                if k == PD_KS[0]:
                    ops.append(_cli_op(tag, s, workdir, ["equiv", fa, fr], 0, _cli_result(True)))
                elif k == PD_KS[1]:
                    want_inc = oracle.oracle_subset(v, a)
                    ops.append(_cli_op(tag, s, workdir, ["include", fv, fa], 0 if want_inc else 1,
                                       _cli_result(want_inc)))
                if k == PD_KS[-1]:
                    ws = gen.words(rng, vals, 2, 300)
                    ops.append(_member_op(tag, s, a, ws))
                    want = oracle.concretize(a, sorted(set(ws[0][:20]))).accepts(ws[0][:20])
                    empty = oracle.oracle_empty(a)
                    ops += [
                        _cli_op(tag, s, workdir, ["member", fa, f"--word={_word_arg(ws[0][:20])}"],
                                0 if want else 1, _cli_result(want)),
                        _cli_op(tag, s, workdir, ["empty", fa], 0 if empty else 1,
                                _cli_result(empty)),
                    ]

        for j in range(PD_CONSTRUCT_SETS):
            s = _input_seed(seed, f"prop-construct/6/{j}", i)
            rng = random.Random(s)
            nfa6 = gen.monomial_nfa(rng, 6, 3, 3, 3)
            vals6 = list(oracle.default_alphabet(nfa6))
            # det6, the input of minimize, is made by the function under test;
            # the minimize output is therefore checked against L(nfa6)
            det6 = determinize(nfa6)
            classes = _expected_min_states(oracle.concretize(det6))
            if j < PD_DET6_SETS:
                ops.append(
                    Op("construct", "determinize k=6", s, lambda c, a=nfa6: determinize(a, c),
                       _cached(_all(_expect_sfa(det6), _same_language(nfa6))),
                       key=f"determinize/6/{i}/{j}")
                )
            ops.append(
                Op("construct", "minimize k=6", s, lambda c, a=det6: minimize(a, c),
                   _cached(_all(_states_equal(classes), _same_language(nfa6))),
                   key=f"minimize/6/{i}/{j}")
            )
            ops.append(_io_op("k=6 determinized", s, det6, emit_sfa(det6)))
            if j == 0:
                ops.append(_member_op("k=6 nfa", s, nfa6, gen.words(rng, vals6, 2, 300)))

            s = _input_seed(seed, f"prop-construct/10/{j}", i)
            rng = random.Random(s)
            nfa10 = gen.monomial_nfa(rng, 10, 2, 4, 4)
            ops.append(
                Op("construct", "determinize k=10", s, lambda c, a=nfa10: determinize(a, c),
                   _cached(_same_language(nfa10)), key=f"determinize/10/{i}/{j}")
            )
        rounds.append(ops)
    rng = random.Random(_input_seed(seed, "big/prop", 0))
    big = gen.det4_prop_sfa(rng, PD_BIG_K, PD_BIG_N, 5)
    some = rng.sample(list(oracle.default_alphabet(big)), 16)
    tag = f"k={PD_BIG_K} n={PD_BIG_N}"
    _big_file_ops(seed, tag, big, gen.words(rng, some, 2, 250), rounds)
    return rounds


_BUILDERS = {
    "interval-minimize": _interval_minimize,
    "prop-decide": _prop_decide,
}


def setup(name, seed, workdir):
    return _BUILDERS[name](seed, workdir)
