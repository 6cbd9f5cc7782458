"""The four pptlab benchmark workloads: inputs, one timed pass, output checks.

Every workload is a fixed list of requests issued closed-loop from one
process, one at a time.  ``run_pass`` issues the whole list once and times
each request; everything else (making fresh inputs for the next pass,
checking outputs) happens outside the timed calls.  ``check`` compares
each output with an independent source where one exists: the Fermat
predictor, the pattern a fired quick criterion predicts, a known F-pure
threshold through nu(p^e) = ceil(fpt * p^e) - 1, or the regular-case
identity  sum_(i<=n) (p-1-s_i)/p^i = nu(p^n)/p^n.  Values frozen at the
commit that introduced the benchmark are used only where none exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from pathlib import Path


@dataclass
class Outcome:
    """One issued request: when it started, its time, its output with
    timings removed, the error text if it failed to produce one, and its
    cache role."""

    start: float
    seconds: float
    output: object
    error: str | None = None
    tag: str = ""


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _timed(call) -> Outcome:
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # a failed request is counted, never fatal to the run
        return Outcome(t0, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    return Outcome(t0, time.perf_counter() - t0, out)


def checked(problems, *args) -> list[str]:
    """Run one output check; a check that cannot read the output fails it."""
    try:
        return problems(*args)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


# -- independent expectations -------------------------------------------------


def periodic_series(p: int, block: tuple[int, ...]) -> Fraction:
    """sum over n >= 1 of (p-1-s_n)/p^n for the purely periodic s = block, block, ..."""
    head = sum(Fraction(p - 1 - s, p**j) for j, s in enumerate(block, start=1))
    return head * Fraction(p ** len(block), p ** len(block) - 1)


def nu_from_fpt(fpt: Fraction, p: int, emax: int) -> dict[int, int]:
    """nu(p^e) = ceil(fpt * p^e) - 1 (Mustata-Takagi-Watanabe)."""
    return {e: ceil(fpt * p**e) - 1 for e in range(1, emax + 1)}


def criterion_pattern(criterion: str, p: int, depth: int) -> tuple[int, ...]:
    """The sequence a fired quick criterion predicts (C2: its first entries)."""
    if criterion == "C1":
        return tuple(0 if i % 2 == 0 else p - 1 for i in range(depth + 1))
    if criterion == "C3":
        return (0,) + (p - 1,) * depth
    return (0, p - 1, p)[: depth + 1]


@dataclass(frozen=True)
class Answer:
    """The parts of an analysis record that the checks read."""

    values: tuple[int, ...]
    terminated_at_p: int | None
    verdict: str
    r: int | None
    flagged_r1: bool
    partial: Fraction | None
    exact: Fraction | None
    qfs: tuple[str, int | None]
    fired: frozenset[str]
    hypothesis_met: bool


def _rat(block) -> Fraction | None:
    if block is None:
        return None
    if isinstance(block, str):
        return Fraction(block)
    return Fraction(int(block["num"]), int(block["den"]))


def answer_of_record(rec: dict) -> Answer:
    return Answer(
        values=tuple(rec["sequence"]["values"]),
        terminated_at_p=rec["sequence"]["terminated_at_p"],
        verdict=rec["verdict"]["kind"],
        r=rec["verdict"]["r"],
        flagged_r1=rec["verdict"]["flagged_r1"],
        partial=_rat(rec["ppt"]["partial"]),
        exact=_rat(rec["ppt"]["exact"]),
        qfs=(rec["qfs_height"]["kind"], rec["qfs_height"]["height"]),
        fired=frozenset(rec["criteria"]["fired"]),
        hypothesis_met=rec["criteria"]["hypothesis_met"],
    )


def analysis_output(a) -> dict:
    """A pipeline.Analysis as a JSON-able record, in the CLI's block layout."""

    def rat(x):
        return None if x is None else f"{x.numerator}/{x.denominator}"

    return {
        "sequence": {"values": list(a.seq.values), "terminated_at_p": a.seq.terminated_at_p},
        "verdict": {
            "kind": a.verdict.kind, "basis": a.verdict.basis, "r": a.verdict.r,
            "flagged_r1": a.verdict.flagged_r1, "up_to_depth": a.verdict.up_to_depth,
        },
        "ppt": {
            "partial": rat(a.partial), "exact": rat(a.exact),
            "preperiod": a.preperiod, "period": a.period,
        },
        "qfs_height": {"kind": a.qfs.kind, "height": a.qfs.height},
        "criteria": {
            "fired": sorted(a.criteria.fired), "hypothesis_met": a.criteria.hypothesis_met,
        },
        "certificate": a.certificate,
    }


def answer_problems(p: int, depth: int, ans: Answer, known: dict) -> list[str]:
    """Consistency of one analysis answer, then agreement with ``known``
    (keys: values, exact, verdict, hypothesis_met)."""
    out = []
    v = ans.values
    if len(v) != depth + 1 or v[0] != 0 or any(not 0 <= s <= p for s in v):
        return [f"malformed sequence {v}"]
    first_p = next((i for i, s in enumerate(v) if s == p), None)
    if first_p != ans.terminated_at_p or (first_p and any(s != p for s in v[first_p:])):
        out.append(f"terminated_at_p {ans.terminated_at_p} disagrees with {v}")
    if first_p is None:
        partial = sum(Fraction(p - 1 - s, p**i) for i, s in enumerate(v[1:], start=1))
        if ans.partial != partial:
            out.append(f"partial {ans.partial} != series of the sequence {partial}")
        if ans.verdict != "perfectoid_pure":
            out.append(f"bounded sequence classified {ans.verdict}")
    else:
        run = v[1:first_p]
        if run and all(s == p - 1 for s in run):
            want = ("not_perfectoid_pure", len(run), len(run) == 1)
        else:
            want = ("inconclusive", None, False)
        if (ans.verdict, ans.r, ans.flagged_r1) != want:
            out.append(f"verdict {(ans.verdict, ans.r, ans.flagged_r1)} != {want} for {v}")
    qfs = ("exceeds_depth", None)
    for i, s in enumerate(v[1:], start=1):
        if s != 1:
            qfs = ("height", i) if s == 0 else ("not_quasi_f_split", None)
            break
    if ans.qfs != qfs:
        out.append(f"qfs height {ans.qfs} != {qfs}")
    for criterion in sorted(ans.fired):
        want = criterion_pattern(criterion, p, depth)
        if v[: len(want)] != want:
            out.append(f"criterion {criterion} predicts {want}, sequence is {v}")
    for key, got in (
        ("values", v), ("exact", ans.exact), ("verdict", ans.verdict),
        ("hypothesis_met", ans.hypothesis_met),
    ):
        if key in known and known[key] != got:
            out.append(f"{key}: expected {known[key]}, got {got}")
    return out


def nu_problems(p: int, table: dict[int, int], known: dict[int, int] | None) -> list[str]:
    out = []
    if sorted(table) != list(range(1, len(table) + 1)):
        return [f"nu table has keys {sorted(table)}"]
    for e, value in table.items():
        if not 0 <= value <= p**e - 1:
            out.append(f"nu(p^{e}) = {value} outside 0..{p**e - 1}")
        if e > 1 and value < p * table[e - 1]:
            out.append(f"nu(p^{e}) = {value} below p * nu(p^{e - 1})")
    if known is not None and table != known:
        out.append(f"nu table {table} != expected {known}")
    return out


# -- library workloads --------------------------------------------------------


@dataclass(frozen=True)
class LibCase:
    name: str
    p: int
    vars: str
    f: str
    depth: int  # sequence depth, or emax for nu cases
    call: str  # "analyze", "nu_table", "fpt_approx" or "analyze+nu"
    fermat: int | None = None  # N for x_1^N + ... + x_N^N
    fpt: Fraction | None = None  # known F-pure threshold
    frozen: dict | None = None  # values frozen at the commit that added the case
    repeat: int = 1  # issues per pass


# Only two passes of the p=7 quartic fit in a run, and a single call of
# under 0.3 s reads up to 20% off on a shared VM however the speed is
# probed; the short calls are issued several times per pass so that the
# median request rests on many of them.
SCAN_CASES = (
    LibCase("fermat-quartic-p7-d5", 7, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4", 5, "analyze", fermat=4),
    LibCase("fermat-cubic-p5-d4", 5, "x1..x3", "x1^3 + x2^3 + x3^3", 4, "analyze", fermat=3, repeat=8),
    LibCase(
        "fermat-quartic-p5-d4", 5, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4", 4, "analyze",
        fermat=4, repeat=6,
    ),
    LibCase("fermat-cubic-p7-d4", 7, "x1..x3", "x1^3 + x2^3 + x3^3", 4, "analyze", fermat=3, repeat=8),
    LibCase(
        "fermat-quartic-p3-d6", 3, "x1..x4", "x1^4 + x2^4 + x3^4 + x4^4", 6, "analyze",
        frozen={"values": (0, 2, 0, 2, 0, 2, 0), "fired": ("C1",), "exact": Fraction(1, 4)},
        repeat=3,
    ),
    LibCase(
        "large-p13-d12", 13, "x1,x2", "11*x1^4*x2 + 2*x2^4 + 2*x1^3*x2^2 + p*x1*x2", 12, "analyze",
        frozen={"values": (0, 7) + (13,) * 11, "verdict": "inconclusive"},
    ),
    LibCase("regular-p13-d12", 13, "x,y", "x + y^3", 12, "analyze", fpt=Fraction(1), repeat=8),
)

NU_CASES = (
    LibCase("fermat-cubic-p2-e12", 2, "x,y,z", "x^3 + y^3 + z^3", 12, "nu_table", fpt=Fraction(1, 2)),
    LibCase("fermat-cubic-p7-e3", 7, "x,y,z", "x^3 + y^3 + z^3", 3, "fpt_approx", fpt=Fraction(1)),
    LibCase("fermat-cubic-p5-e3", 5, "x,y,z", "x^3 + y^3 + z^3", 3, "fpt_approx", fpt=Fraction(4, 5)),
    LibCase("fermat-cubic-p5-e4", 5, "x,y,z", "x^3 + y^3 + z^3", 4, "nu_table", fpt=Fraction(4, 5)),
    LibCase(
        "e8-p5-e4", 5, "x,y,z", "x^2 + y^3 + z^5", 4, "nu_table",
        frozen={"nu": {1: 3, 2: 19, 3: 99, 4: 499}},
    ),
    LibCase("cusp-p5-e6", 5, "x,y", "x^2 + y^3", 6, "nu_table", fpt=Fraction(4, 5)),
)


class LibraryWorkload:
    """Library calls on a fixed list of hypersurfaces.  Parsing and
    validation are set-up; every pass gets freshly validated inputs so no
    pass reuses another's memoized powers."""

    cases: tuple[LibCase, ...] = ()

    def __init__(self, pt, seed: int, scratch: Path):
        self.pt = pt
        # repeated cases take turns, so their issues spread over the pass
        rounds = max(case.repeat for case in self.cases)
        self.requests = [case for k in range(rounds) for case in self.cases if k < case.repeat]
        self.inputs = self._validate_all()

    def _validate_all(self):
        out = []
        for case in self.requests:
            ctx = self.pt.ring.Context(case.p, self.pt.parser.expand_var_spec(case.vars))
            out.append(self.pt.delta.validate(ctx, self.pt.parser.parse_poly(case.f, ctx)))
        return out

    def labels(self) -> list[str]:
        return [case.name for case in self.requests]

    def run_pass(self) -> list[Outcome]:
        outcomes = [
            _timed(lambda: self._call(case, h))
            for case, h in zip(self.requests, self.inputs)
        ]
        self.inputs = self._validate_all()
        for o in outcomes:
            if o.error is None:
                o.output = self._output(o.output)
        return outcomes

    def _call(self, case: LibCase, h):
        pt = self.pt
        if case.call == "analyze":
            return pt.pipeline.analyze(h, case.depth)
        if case.call == "nu_table":
            return pt.verdict.nu_table(h.f_res, case.depth)
        if case.call == "fpt_approx":
            return pt.verdict.fpt_approx(h.f_res, case.depth)
        return pt.pipeline.analyze(h, case.depth), pt.verdict.nu_table(h.f_res, case.depth)

    def _output(self, raw):
        if isinstance(raw, Fraction):
            return f"{raw.numerator}/{raw.denominator}"
        if isinstance(raw, dict):
            return {str(e): v for e, v in raw.items()}
        if isinstance(raw, tuple):
            return {"analysis": analysis_output(raw[0]), "nu": self._output(raw[1])}
        return analysis_output(raw)

    def check(self, outcomes: list[Outcome]) -> list[list[str]]:
        return [
            [o.error] if o.error else checked(self._problems, case, o.output)
            for case, o in zip(self.requests, outcomes)
        ]

    def _known_values(self, case: LibCase) -> dict:
        known = {}
        p, depth = case.p, case.depth
        if case.fermat:
            values = self.pt.verdict.fermat_predict(case.fermat, p, depth)
            order = next(k for k in range(1, case.fermat + 1) if p**k % case.fermat == 1)
            known = {"values": values, "exact": periodic_series(p, values[1 : order + 1])}
        if case.fpt is not None:
            # regular case: sum_(i<=n) (p-1-s_i)/p^i = nu(p^n)/p^n fixes every s_n
            nu = nu_from_fpt(case.fpt, p, depth)
            values, prev = [0], 0
            for n in range(1, depth + 1):
                values.append(p - 1 - (nu[n] - p * prev))
                prev = nu[n]
            known = {"values": tuple(values)}
        if case.frozen:
            known.update({k: v for k, v in case.frozen.items() if k != "fired"})
        return known

    def _problems(self, case: LibCase, out) -> list[str]:
        p, depth = case.p, case.depth
        if case.call in ("nu_table", "fpt_approx"):
            known = nu_from_fpt(case.fpt, p, depth) if case.fpt is not None else None
            if case.frozen and "nu" in case.frozen:
                known = case.frozen["nu"]
            if case.call == "fpt_approx":
                want = Fraction(known[depth], p**depth)
                return [] if Fraction(out) == want else [f"fpt approximant {out} != {want}"]
            return nu_problems(p, {int(e): v for e, v in out.items()}, known)
        if case.call == "analyze+nu":
            table = {int(e): v for e, v in out["nu"].items()}
            ans = answer_of_record(out["analysis"])
            problems = nu_problems(p, table, None)
            problems += answer_problems(p, depth, ans, case.frozen or {})
            for n in range(1, depth + 1):
                lhs = sum(Fraction(p - 1 - s, p**i) for i, s in enumerate(ans.values[1 : n + 1], start=1))
                if lhs != Fraction(table[n], p**n):
                    problems.append(f"regular identity fails at n={n}: {lhs} != {table[n]}/{p}^{n}")
            return problems
        ans = answer_of_record(out)
        problems = answer_problems(p, depth, ans, self._known_values(case))
        if case.frozen and "fired" in case.frozen and tuple(sorted(ans.fired)) != case.frozen["fired"]:
            problems.append(f"fired {sorted(ans.fired)} != {case.frozen['fired']}")
        return problems


class ScanHeavy(LibraryWorkload):
    cases = SCAN_CASES


class NuCrosscheck(LibraryWorkload):
    def __init__(self, pt, seed: int, scratch: Path):
        # the regular corpus rows, with the partial-sum = nu(p^n)/p^n identity
        regular = tuple(
            LibCase(
                row.name, row.p, row.vars, row.f, row.depth, "analyze+nu",
                frozen={"values": row.expect["values"], "verdict": row.expect["verdict"]},
            )
            for row in pt.corpus.CORPUS
            if "regular" in row.tags
        )
        self.cases = NU_CASES + regular
        super().__init__(pt, seed, scratch)


# -- CLI workloads ------------------------------------------------------------

CLI_COMMANDS = ("sequence", "ppt", "classify", "qfs-height", "fpt", "criteria")
ANALYSIS_COMMANDS = CLI_COMMANDS[:4]
# (p, number of variables); p = 11, 13 with N = 2 costs 1-2 s at depth 4,
# so that shape belongs to scan-heavy
CLI_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1))
CLI_DEPTH = 3
MAX_EXPONENT = 3
MAX_TERMS = 3
DEFORM_SHARE = 0.3
FERMAT_SHARE = 0.1
# nu(p^e) needs up to p^e products: the p=7 Fermat cubic takes 0.17 s at
# e=3 and did not finish in 9 min at e=4, so e is capped per prime
FPT_EMAX = {2: 6, 3: 4, 5: 3, 7: 2, 11: 2, 13: 2}


@dataclass(frozen=True)
class CliRequest:
    argv: tuple[str, ...]
    p: int
    n: int
    terms: tuple[tuple[tuple[int, ...], int], ...]  # exponents -> coefficient mod p^2
    fermat: bool

    @property
    def command(self) -> str:
        return self.argv[0]


def _render(terms: dict, names: list[str], deform: tuple[int, ...] | None) -> str:
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [f"{x}^{e}" if e > 1 else x for x, e in zip(names, exps) if e]
        if exps == deform:
            parts.append("*".join(["p"] + factors))
        else:
            parts.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(parts)


def _make_request(rng: random.Random, p: int, n: int, command: str) -> CliRequest:
    names = [f"x{i}" for i in range(1, n + 1)]
    q = p * p
    while True:
        if n == 2 and p > 2 and rng.random() < FERMAT_SHARE:
            terms = {(2, 0): 1, (0, 2): 1}
            deform = None
        else:
            terms = {}
            for _ in range(rng.randint(1, MAX_TERMS)):
                exps = tuple(rng.randint(0, MAX_EXPONENT) for _ in range(n))
                if any(exps):
                    terms[exps] = (terms.get(exps, 0) + rng.randrange(1, q)) % q
            deform = (1,) * n if rng.random() < DEFORM_SHARE else None
            if deform is not None:
                # shown as a literal p*x1*...*xN term unless it merges into one
                if deform in terms:
                    terms[deform] = (terms[deform] + p) % q
                    deform = None
                else:
                    terms[deform] = p
            terms = {e: c for e, c in terms.items() if c}
        # validate() refuses f divisible by p; there is never a constant term
        if any(c % p for c in terms.values()):
            break
    argv = [command, "--p", str(p), "--vars", ",".join(names), "--f",
            _render(terms, names, deform), "--depth", str(CLI_DEPTH), "--json"]
    if command == "fpt":
        argv += ["--emax", str(FPT_EMAX[p])]
    fermat = p > n and terms == {(2, 0): 1, (0, 2): 1}
    return CliRequest(tuple(argv), p, n, tuple(sorted(terms.items())), fermat)


def generate_requests(seed: int, per_cell: int) -> list[CliRequest]:
    """``per_cell`` distinct requests for every (p, N, command), shuffled."""
    rng = random.Random(seed)
    out = []
    seen = set()
    for p, n in CLI_SHAPES:
        for command in CLI_COMMANDS:
            made = 0
            while made < per_cell:
                req = _make_request(rng, p, n, command)
                # distinct as the program sees it: "p*x1" and "2*x1" are one f at p=2
                key = (command, p, n, req.terms)
                if key not in seen:
                    seen.add(key)
                    out.append(req)
                    made += 1
    rng.shuffle(out)
    return out


def cli_record_problems(req: CliRequest, rec: dict, fermat_predict) -> list[str]:
    p = req.p
    fbar = [exps for exps, c in req.terms if c % p]
    hypothesis = all(any(e >= p for e in exps) for exps in fbar)
    unit_linear = any(sum(exps) == 1 for exps in fbar)
    if rec.get("command") != req.command or rec["input"]["p"] != p:
        return [f"record answers another request: {rec.get('command')} p={rec['input']['p']}"]
    if req.command in ANALYSIS_COMMANDS:
        known = {"hypothesis_met": hypothesis}
        if req.fermat:
            known["values"] = fermat_predict(req.n, p, CLI_DEPTH)
        if unit_linear:
            known["values"] = (0,) * (CLI_DEPTH + 1)  # nu(p^n) = p^n - 1
        return answer_problems(p, CLI_DEPTH, answer_of_record(rec), known)
    if req.command == "fpt":
        emax = FPT_EMAX[p]
        table = {int(e): v for e, v in rec["nu_table"].items()}
        if sorted(table) != list(range(1, emax + 1)):
            return [f"nu table has keys {sorted(table)}, expected 1..{emax}"]
        problems = nu_problems(p, table, nu_from_fpt(Fraction(1), p, emax) if unit_linear else None)
        if _rat(rec["fpt"]["approx"]) != Fraction(table[emax], p**emax):
            problems.append(f"fpt approximant {rec['fpt']['approx']} != nu(p^{emax})/p^{emax}")
        if rec["fpt"]["regular"] != unit_linear:
            problems.append(f"regular flag {rec['fpt']['regular']} != {unit_linear}")
        return problems
    crit = rec["criteria"]
    problems = []
    if crit["hypothesis_met"] != hypothesis:
        problems.append(f"hypothesis_met {crit['hypothesis_met']} != {hypothesis}")
    if not set(crit["fired"]) <= ({"C1", "C2", "C3"} if hypothesis else set()):
        problems.append(f"fired {crit['fired']} with hypothesis {hypothesis}")
    return problems


def _call_cli(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {buf.getvalue().strip()[:200]}")
    return buf.getvalue()


def _strip_timings(text: str) -> dict:
    rec = json.loads(text)
    rec.pop("timings", None)
    return rec


class CliLight:
    """Small requests through ``cli.main(argv)`` with ``--json``, cache off."""

    per_cell = 20

    def __init__(self, pt, seed: int, scratch: Path):
        self.pt = pt
        self.predict = pt.verdict.fermat_predict
        self.requests = generate_requests(seed, self.per_cell)

    def labels(self) -> list[str]:
        return [" ".join(r.argv) for r in self.requests]

    def run_pass(self) -> list[Outcome]:
        outcomes = [
            _timed(lambda: _call_cli(self.pt.cli.main, list(r.argv)))
            for r in self.requests
        ]
        for o in outcomes:
            if o.error is None:
                o.output = _strip_timings(o.output)
        return outcomes

    def check(self, outcomes: list[Outcome]) -> list[list[str]]:
        return [
            [o.error] if o.error else checked(cli_record_problems, r, o.output, self.predict)
            for r, o in zip(self.requests, outcomes)
        ]


class CliCached(CliLight):
    """The cli-light generator through a fresh result cache per pass: each
    distinct request is issued twice in seeded interleaved order, so its
    first issue is a miss plus a put and its second a hit."""

    per_cell = 5

    def __init__(self, pt, seed: int, scratch: Path):
        super().__init__(pt, seed, scratch)
        self.scratch = scratch
        order = [i for i in range(len(self.requests)) for _ in range(2)]
        random.Random(seed + 1).shuffle(order)
        self.order = order

    def labels(self) -> list[str]:
        return [" ".join(self.requests[i].argv) for i in self.order]

    def run_pass(self) -> list[Outcome]:
        self.scratch.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        cache_file = cache_dir / self.pt.cache.CACHE_FILE
        seen = set()
        outcomes = []
        try:
            for i in self.order:
                argv = list(self.requests[i].argv) + ["--cache-dir", str(cache_dir)]
                before = cache_file.stat().st_size if cache_file.exists() else 0
                o = _timed(lambda: _call_cli(self.pt.cli.main, argv))
                after = cache_file.stat().st_size if cache_file.exists() else 0
                o.tag = "hit" if i in seen else "miss"
                seen.add(i)
                if o.error is None and (after > before) != (o.tag == "miss"):
                    o.error = f"cache {o.tag} expected, file grew {before} -> {after}"
                outcomes.append(o)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for o in outcomes:
            if o.error is None:
                o.output = _strip_timings(o.output)
        return outcomes

    def check(self, outcomes: list[Outcome]) -> list[list[str]]:
        miss = {}
        problems = []
        for i, o in zip(self.order, outcomes):
            if o.error:
                problems.append([o.error])
            elif o.tag == "miss":
                miss[i] = canonical(o.output)
                problems.append(
                    checked(cli_record_problems, self.requests[i], o.output, self.predict)
                )
            elif miss.get(i) != canonical(o.output):
                problems.append(["cache hit record differs from its miss record"])
            else:
                problems.append([])
        return problems


WORKLOADS = {
    "scan-heavy": ScanHeavy,
    "nu-crosscheck": NuCrosscheck,
    "cli-light": CliLight,
    "cli-cached": CliCached,
}
