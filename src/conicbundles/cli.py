"""Batch front end: declarative problem files in, JSON reports out.

PROBLEM FILES (the compatibility contract)
    Line-oriented text.  Blank lines and lines starting with `#` are
    ignored; every other line is `key = value` and keys may not repeat.
    Rationals are written `num/den` (a bare integer is allowed), list
    entries are separated by commas or whitespace, and rows of a table
    by `;`.  Every file names its `kind`:

    kind = pencil                 degenerate-fibre data of a conic bundle
        e = 0, 1, 2, 3            pairwise distinct rationals
        a = 5, 5, 5, 5            fibre square classes (integers)
        lam = 1, 1, 1, 1          optional torsor scalings (nonzero)
        support = oo, 2, 5        places for the `bm` command (`oo` real)
    kind = system                 simultaneous norm equations
                                  x_i^2 - a_i y_i^2 = f_i(u)
        a = -1, 2                 nonzero nonsquare integers, one per row
        forms = 1 0; 0 1          integer linear forms, one row per a_i
        clearing = 1, 1           optional denominator-clearing constants
    kind = count-job              the `system` keys, plus (a key left out
                                  takes CountJob's default, but uInf's is
                                  1, ..., 1)
        M = 1                     congruence modulus for u = uM mod M
        uM = 0, 0                 residue vector mod M
        uInf = 1, 1               real direction spanning the search cone
        epsilon = 1/2             cone half-width
        B_schedule = 4, 9, 100    heights to count at (each C^2, C=1 mod M)
    kind = dp2                    three split conics, each written as
        f = 1 : 0, 1              leading coefficient : roots
        g = 1 : 2, 3
        h = 1 : 4, 5
    kind = dp1                    a pencil of quartics fixed by
        e = 0, 1, 2, 3, 4, 5, 6, 7   eight pairwise distinct rationals
        c1 = 1                    nonzero scaling constants
        c2 = 1
    kind = quadric-intersection   fibre product of two-fibre bundles
        e = 0, 1, 2, 3            2n pairwise distinct rationals
        a = 5, 5                  n square classes
        c = 1, 1                  n nonzero constants

    Every key a kind takes is read and checked whatever the command, so
    every pencil command rejects a malformed `support` as `bm` does.  Option keys,
    all optional and overridden by the same-named flags: `prime_cutoff`,
    `L`, `depth`, `resolution`, `threads`, `seed`.

COMMANDS
    validate   build the kind's objects, report the structural checks
    brauer     pencil: vertical classes, kernel basis, quotient rank
    local      system, count-job, pencil (via its torsor system) or
               quadric-intersection (per factor): solubility over the
               reals and all relevant p-adic fields, with witnesses
    count      count-job: exact N(B) and the box measure per scheduled B
    predict    count-job: N(B) against the product of local densities
    bm         pencil: adelic obstruction scan over the named support
    dp2        dp2: induced fibre data, ramification quartic, minimality
    dp1        dp1: pencil condition report and minimality
    selftest   no file: the built-in oracle suite

REPORTS
    JSON with sorted keys on stdout, or at --out PATH.  Results are
    written by `exactnum.json_value` alone: integers, booleans and
    strings as they are, rationals as `num/den` strings (denominator 1
    included), places and square classes as their strings.  A float
    appears only as an object holding its `value` and `precision_bits`
    (53), or in the segregated `timings` field.  Reports are
    byte-identical across runs with the same inputs, options, and
    version, except for `timings`.

        {"schema": 1, "version": ..., "command": ...,
         "inputs": {"file": {...}, "options": {...}},
         "results": {...}, "timings": {"total_seconds": ...}}

EXIT CODES
    0 success, 1 computational failure (including a failed selftest),
    2 input error (bad flags, unparsable file, invalid payload,
    unwritable --out path).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import __version__
from .exactnum import (ExactNumError, Place, REAL_PLACE,
                       as_integer_at_least, hilbert, hilbert_support,
                       json_value)
from .pencil import (ConicBundleData, NormFormSystem, brauer_group,
                     quadric_intersection_system, technical_bound,
                     torsor_system, validate)
from .localsolve import everywhere_locally_soluble
from .quadform import BinaryForm, rho
from .counting import (CountJob, DEFAULT_PRIME_CUTOFF, G, beta_p,
                       enumerate_N, predict_and_compare, region_measure)
from .brauermanin import obstruction_scan, quotient_generators
from .delpezzo import (DP1Data, DP2Data, Quartic, SplitPolynomial,
                       bundle_from_fgh, dp1_condition, dp1_minimality,
                       dp2_minimality, dp2_ramification_quartic,
                       quartic_discriminant)

SCHEMA = 1


class CLIInputError(ExactNumError):
    """A problem the caller can fix: flags, file syntax, payload."""


# ---------------------------------------------------------------- parsing

def _tokens(value: str):
    return [t for t in value.replace(",", " ").split() if t]


# A reader turns one raw value into what the kind's constructor takes; its
# errors name the value's location, `line N (key)`.

def _fraction_token(tok: str, where: str) -> Fraction:
    num, slash, den = tok.partition("/")
    try:
        if slash:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        raise CLIInputError("%s: %r is not a rational num/den" % (where, tok))


def _int_token(tok: str, where: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CLIInputError("%s: %r is not an integer" % (where, tok))


def _place_token(tok: str, where: str) -> Place:
    if tok == "oo":
        return REAL_PLACE
    p = _int_token(tok, where)
    try:
        return Place(p)
    except ExactNumError:
        raise CLIInputError("%s: %r is not a prime or `oo`" % (where, tok))


def _each(read_token):
    """The reader of a list whose entries `read_token` reads."""
    return lambda value, where: tuple(read_token(t, where)
                                      for t in _tokens(value))


_fractions = _each(_fraction_token)
_ints = _each(_int_token)


def _int_rows(value: str, where: str) -> Tuple[Tuple[int, ...], ...]:
    rows = []
    for chunk in value.split(";"):
        row = _ints(chunk, where)
        if not row:
            raise CLIInputError("%s: empty row" % where)
        rows.append(row)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CLIInputError("%s: rows must share a length" % where)
    return tuple(rows)


def _split_poly(value: str, where: str) -> SplitPolynomial:
    head, colon, tail = value.partition(":")
    if not colon:
        raise CLIInputError(
            "%s: expected `leading : roots`, got %r" % (where, value))
    lead = _fraction_token(head.strip(), where)
    roots = _fractions(tail, where)
    try:
        return SplitPolynomial(lead, roots)
    except ExactNumError as exc:
        raise CLIInputError("%s: %s" % (where, exc))


def _system(forms, **keys) -> NormFormSystem:
    return NormFormSystem(r=len(forms), s=len(forms[0]), forms=forms, **keys)


def _job(a, forms, clearing=(), uInf=None, **keys) -> CountJob:
    system = _system(forms, a=a, clearing=clearing)
    if uInf is None:
        uInf = (1,) * system.s
    return CountJob(system=system, uInf=uInf, **keys)


# kind: (constructor, {key: (reader, use)}).  The "required" and "optional"
# keys are the constructor's keyword arguments; the pencil's `support`
# ("bm") is read and checked all the same, and kept for the `bm` command.
_SYSTEM_KEYS = {"a": (_ints, "required"), "forms": (_int_rows, "required"),
                "clearing": (_ints, "optional")}
_KINDS = {
    "pencil": (ConicBundleData, {
        "e": (_fractions, "required"), "a": (_ints, "required"),
        "lam": (_fractions, "optional"),
        "support": (_each(_place_token), "bm")}),
    "system": (_system, _SYSTEM_KEYS),
    "count-job": (_job, dict(
        _SYSTEM_KEYS, M=(_int_token, "optional"), uM=(_ints, "optional"),
        uInf=(_fractions, "optional"), epsilon=(_fraction_token, "optional"),
        B_schedule=(_ints, "required"))),
    "dp2": (DP2Data, {key: (_split_poly, "required") for key in "fgh"}),
    "dp1": (DP1Data, {"e": (_fractions, "required"),
                      "c1": (_fraction_token, "required"),
                      "c2": (_fraction_token, "required")}),
    "quadric-intersection": (quadric_intersection_system, {
        "e": (_fractions, "required"), "a": (_ints, "required"),
        "c": (_fractions, "required")}),
}


class ProblemFile:
    """Parsed `key = value` lines: the kind, the raw values, the lines.

    `build` reads every value once, through its key's reader, keeps the
    results in `values` and constructs the kind's object."""

    def __init__(self, kind: str, fields: Dict[str, str],
                 lines: Dict[str, int]):
        self.kind = kind
        self.fields = fields
        self.lines = lines
        self.values: Dict[str, object] = {}

    def raw(self, key: str) -> Optional[str]:
        return self.fields.get(key)

    def where(self, key: str) -> str:
        return "line %d" % self.lines[key]

    def build(self):
        """The kind's object; payload errors are the caller's to fix."""
        constructor, keys = _KINDS[self.kind]
        self.values = {
            key: reader(self.fields[key], "%s (%s)" % (self.where(key), key))
            for key, (reader, _) in keys.items() if key in self.fields}
        try:
            return constructor(**{key: value
                                  for key, value in self.values.items()
                                  if keys[key][1] != "bm"})
        except ExactNumError as exc:
            raise CLIInputError(str(exc))


def parse_problem(text: str) -> ProblemFile:
    fields: Dict[str, str] = {}
    lines: Dict[str, int] = {}
    for no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key:
            raise CLIInputError(
                "line %d: expected `key = value`, got %r" % (no, raw_line))
        if not value:
            raise CLIInputError("line %d: key %r has no value" % (no, key))
        if key in fields:
            raise CLIInputError(
                "line %d: key %r already set on line %d"
                % (no, key, lines[key]))
        fields[key] = value
        lines[key] = no
    if "kind" not in fields:
        raise CLIInputError("the file never sets `kind`")
    kind = fields.pop("kind")
    if kind not in _KINDS:
        raise CLIInputError(
            "line %d: unknown kind %r; expected one of %s"
            % (lines["kind"], kind, ", ".join(_KINDS)))
    keys = _KINDS[kind][1]
    for key in fields:
        if key not in keys and key not in _OPTION_SPECS:
            raise CLIInputError(
                "line %d: key %r is not used by kind %r"
                % (lines[key], key, kind))
    for key, (_, use) in keys.items():
        if use == "required" and key not in fields:
            raise CLIInputError("kind %r requires the key %r" % (kind, key))
    return ProblemFile(kind, fields, lines)


def load_problem(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CLIInputError("cannot read %s: %s" % (path, exc))
    return parse_problem(text)


# ---------------------------------------------------------------- options

_OPTION_SPECS = {
    # key: (minimum, default)
    "prime_cutoff": (2, DEFAULT_PRIME_CUTOFF),
    "L": (2, 100),
    "depth": (1, None),
    "resolution": (1, None),
    "threads": (1, 1),
    "seed": (0, 0),
}


def effective_options(problem: Optional[ProblemFile],
                      args: argparse.Namespace) -> Dict[str, object]:
    """File options overridden by flags, with defaults filled in."""
    out: Dict[str, object] = {}
    for key, (minimum, default) in _OPTION_SPECS.items():
        value = default
        if problem is not None and problem.raw(key) is not None:
            where = "%s (%s)" % (problem.where(key), key)
            value = _int_token(problem.raw(key), where)
        flag = getattr(args, key, None)
        if flag is not None:
            value = flag
        out[key] = value if value is None else as_integer_at_least(
            value, minimum, "option " + key, CLIInputError)
    return out


# -------------------------------------------------------------- commands

# A command writes its results through `json_value` once; the `bm` scan
# comes written by `ScanTable.as_json_dict`.  The dicts below name what
# that rule does not: labelled classes are a dict, a null certificate is
# kept, a local report lists its witnesses, and a quadric intersection
# writes only some of its fields.

def _independence_dict(report) -> dict:
    return dict(vars(report), classes=dict(report.classes))


def _cmd_validate(problem: ProblemFile, data, options: dict) -> dict:
    kind = problem.kind
    out: dict = {"kind": kind, "valid": True}
    if kind == "pencil":
        out.update(vars(validate(data)), pencil=data)
    elif kind == "system":
        out["system"] = data
    elif kind == "count-job":
        out["job"] = data
    elif kind == "dp2":
        out["coefficient_determinant"] = data.coefficient_determinant()
    elif kind == "dp1":
        out.update(p=data.p_coefficients(), q=data.q_coefficients())
    else:
        report = validate(data.combined)
        out.update(n=data.n, combined=data.combined, factors=data.factors,
                   shared_points=data.shared_points,
                   faddeev_holds=report.faddeev_holds,
                   warnings=report.warnings)
    return json_value(out)


def _cmd_brauer(problem: ProblemFile, data: ConicBundleData,
                options: dict) -> dict:
    description = brauer_group(data)
    return json_value(dict(
        vars(description), pencil=data, faddeev_class=data.faddeev_class(),
        kernel_dim=description.kernel_dim(),
        weak_approximation=description.weak_approximation,
        generators=[g.n for g in quotient_generators(data)]))


def _cmd_local(problem: ProblemFile, data, options: dict) -> dict:

    def local(system, pencil=None) -> dict:
        report = everywhere_locally_soluble(system, L=options["L"],
                                            depth=options["depth"])
        out = {"system": system, "report": dict(
            vars(report), witnesses=[wit for _, wit in report.witnesses])}
        if pencil is not None:
            out["pencil"] = pencil
        return json_value(out)

    if problem.kind == "system":
        return local(data)
    if problem.kind == "count-job":
        return local(data.system)
    if problem.kind == "pencil":
        return local(torsor_system(data), data)
    factors = [local(torsor_system(bundle), bundle) for bundle in data.factors]
    return {"n": data.n, "factors": factors,
            "soluble_factors": all(f["report"]["soluble"] for f in factors)}


def _cmd_count(problem: ProblemFile, job: CountJob, options: dict) -> dict:
    rows = []
    for B in job.B_schedule:
        N = enumerate_N(job, B, threads=options["threads"])
        measure = region_measure(job, B)
        row = {"B": B, "N": N, "box_measure": measure}
        if measure:
            row["N_per_measure"] = float(N / measure)
        rows.append(row)
    return json_value({"job": job, "per_B": rows})


def _cmd_predict(problem: ProblemFile, job: CountJob, options: dict) -> dict:
    return json_value({"job": job, "prime_cutoff": options["prime_cutoff"],
                       "per_B": predict_and_compare(
                           job, prime_cutoff=options["prime_cutoff"],
                           threads=options["threads"])})


def _cmd_bm(problem: ProblemFile, data: ConicBundleData,
            options: dict) -> dict:
    if "support" not in problem.values:
        raise CLIInputError(
            "the `bm` command needs a `support` key listing places, "
            "e.g. `support = oo, 2, 5`")
    table = obstruction_scan(data, problem.values["support"],
                             resolution=options["resolution"])
    return {"pencil": json_value(data), "scan": table.as_json_dict()}


def _cmd_dp2(problem: ProblemFile, data: DP2Data, options: dict) -> dict:
    return json_value({
        "bundle": bundle_from_fgh(data.f, data.g, data.h),
        "ramification_quartic": dp2_ramification_quartic(data),
        "minimality": _independence_dict(dp2_minimality(data))})


def _cmd_dp1(problem: ProblemFile, data: DP1Data, options: dict) -> dict:
    return json_value({
        "pencil_members": {"p": data.p_coefficients(),
                           "q": data.q_coefficients()},
        "condition": dp1_condition(data),
        "minimality": _independence_dict(dp1_minimality(data))})


# -------------------------------------------------------------- selftest

# Frozen expected values the oracle suite checks against recomputation.
# Tests inject faults by replacing entries here; the suite must notice.
_SELFTEST_PINS = (
    ("hilbert", (-1, -1, "oo"), -1),
    ("hilbert", (-1, -1, "2"), -1),
    ("hilbert", (2, 5, "5"), -1),
    ("rho_sum", (-1, 9), 81),
    ("disc", (1,), -256),
    ("disc", (2,), -2048),
    ("disc", (-3,), 6912),
)


def _pins(kind: str):
    return [(args, expect) for k, args, expect in _SELFTEST_PINS
            if k == kind]


def _suite_reciprocity(rng: random.Random, quick: bool):
    for (a, b, v), expect in _pins("hilbert"):
        place = REAL_PLACE if v == "oo" else Place(int(v))
        got = hilbert(a, b, place)
        yield None if got == expect else (
            "hilbert(%d, %d, %s) = %d, pinned %d" % (a, b, v, got, expect))
    for _ in range(60 if quick else 300):
        a = b = 0
        while a == 0:
            a = rng.randint(-1000, 1000)
        while b == 0:
            b = rng.randint(-1000, 1000)
        product = math.prod(hilbert(a, b, place)
                            for place in hilbert_support(a, b))
        yield None if product == 1 else (
            "reciprocity product %d for (%d, %d)" % (product, a, b))


def _suite_crt(rng: random.Random, quick: bool):
    for (a, q), expect in _pins("rho_sum"):
        form = BinaryForm(a)
        total = sum(rho(form, q, A) for A in range(q))
        yield None if total == expect else (
            "sum of rho(x^2 - %d y^2; A mod %d) = %d, pinned %d"
            % (a, q, total, expect))
    nonsquares = (-1, -2, -5, 2, 3, 5)
    prime_powers = (2, 4, 8, 3, 9, 5, 25, 7, 11, 13)
    for _ in range(15 if quick else 60):
        form = BinaryForm(rng.choice(nonsquares))
        q1 = rng.choice(prime_powers)
        q2 = rng.choice(prime_powers)
        while math.gcd(q1, q2) != 1:
            q2 = rng.choice(prime_powers)
        q = q1 * q2
        A = rng.randrange(q)
        left = rho(form, q, A)
        right = rho(form, q1, A % q1) * rho(form, q2, A % q2)
        if left != right:
            yield ("rho(a=%d; %d, %d) = %d but the coprime parts give %d"
                   % (form.a, q, A, left, right))
            continue
        # both sides above are products of the same prime-power counts,
        # so only a count that never factors q can catch a wrong one
        squares = [0] * q
        for x in range(q):
            squares[x * x % q] += 1
        direct = sum(squares[(A + form.a * y * y) % q] for y in range(q))
        yield None if left == direct else (
            "rho(a=%d; %d, %d) = %d but a direct count gives %d"
            % (form.a, q, A, left, direct))


_SELFTEST_JOBS = (
    ("one norm form", CountJob(
        system=NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 0),)),
        uInf=(1, 1), B_schedule=())),
    ("two norm forms", CountJob(
        system=NormFormSystem(r=2, s=2, a=(-1, 2), forms=((1, 0), (0, 1))),
        uInf=(1, 1), B_schedule=())),
)


def _suite_stabilization(rng: random.Random, quick: bool):
    for name, job in _SELFTEST_JOBS:
        s, r = job.system.s, job.system.r
        for p in (2, 3) if quick else (2, 3, 5):
            k0 = max(1, technical_bound(job.system, p) + 1)
            lower = G(job, p, k0)
            upper = G(job, p, k0 + 1)
            if upper != p ** (s + r) * lower:
                yield ("%s at p = %d: G(%d^%d) = %d is not %d^%d times "
                       "G(%d^%d) = %d" % (name, p, p, k0 + 1, upper, p,
                                          s + r, p, k0, lower))
                continue
            expected = Fraction(lower, p ** ((s + r) * k0))
            got = beta_p(job, p)
            yield None if got == expected else (
                "%s at p = %d: beta_p = %s but the scaled count is %s"
                % (name, p, got, expected))
    for p in (3, 5) if quick else (3, 5, 7, 11):
        got = beta_p(_SELFTEST_JOBS[0][1], p)
        yield None if got == 1 else (
            "good odd p = %d should give beta_p = 1, got %s" % (p, got))


def _suite_discriminant(rng: random.Random, quick: bool):
    for (a,), expect in _pins("disc"):
        got = quartic_discriminant(Quartic((a, 0, 0, 0, 1)))
        yield None if got == expect else (
            "disc(t^4 + %d) = %s, pinned %d" % (a, got, expect))
    # split quartics against the closed form -c^6 prod_{i<j} (r_i - r_j)^2,
    # the sign fixed by t^4 + a -> -256 a^3; roots may repeat
    for _ in range(40 if quick else 200):
        lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(4)]
        expect = -lead ** 6 * math.prod((roots[i] - roots[j]) ** 2
                                        for i in range(4) for j in range(i))
        got = quartic_discriminant(
            Quartic(SplitPolynomial(lead, roots).coefficients()))
        yield None if got == expect else (
            "disc(%s prod (t - r), r in %s) = %s, closed form %s"
            % (lead, ", ".join(map(str, roots)), got, expect))


# Each suite is a generator over its cases, called with its own seeded
# rng and the quick flag: it yields None for a case that passes and the
# failure text for one that fails; run_selftest alone counts them.
_SELFTEST_SUITES = (
    ("reciprocity", _suite_reciprocity),
    ("crt", _suite_crt),
    ("stabilization", _suite_stabilization),
    ("discriminant", _suite_discriminant),
)


def run_selftest(quick: bool = False, seed: int = 0) -> dict:
    seed = as_integer_at_least(seed, 0, "seed", CLIInputError)
    suites = []
    for name, suite in _SELFTEST_SUITES:
        outcomes = list(suite(random.Random("%d:%s" % (seed, name)), quick))
        detail = [text for text in outcomes if text is not None]
        entry = {"name": name, "cases": len(outcomes),
                 "failures": len(detail)}
        if detail:
            entry["detail"] = detail[:5]
        suites.append(entry)
    total_failures = sum(entry["failures"] for entry in suites)
    return {"quick": quick, "seed": seed, "suites": suites,
            "total_cases": sum(entry["cases"] for entry in suites),
            "total_failures": total_failures,
            "passed": total_failures == 0}


# ------------------------------------------------------------------ main

_COMMANDS = {
    # name: (function, kinds it accepts, flags, help); no kinds, no file
    "validate": (_cmd_validate, tuple(_KINDS), (),
                 "build the objects and report the structural checks"),
    "brauer": (_cmd_brauer, ("pencil",), (),
               "vertical Brauer classes of a pencil"),
    "local": (_cmd_local,
              ("system", "count-job", "pencil", "quadric-intersection"),
              ("L", "depth"), "real and p-adic solubility with witnesses"),
    "count": (_cmd_count, ("count-job",), ("threads",),
              "exact point counts over the B schedule"),
    "predict": (_cmd_predict, ("count-job",), ("threads", "prime_cutoff"),
                "compare counts with the product of local densities"),
    "bm": (_cmd_bm, ("pencil",), ("resolution",),
           "adelic obstruction scan over the declared support"),
    "dp2": (_cmd_dp2, ("dp2",), (),
            "ramification quartic and minimality of a dp2 instance"),
    "dp1": (_cmd_dp1, ("dp1",), (),
            "pencil condition and minimality of a dp1 instance"),
    "selftest": (run_selftest, (), ("quick", "seed"),
                 "run the built-in oracle suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicbundles",
        description="Exact arithmetic of conic bundles, batch interface.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, kinds, flags, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if kinds:
            p.add_argument("file", help="problem file (key = value lines)")
        p.add_argument("--out", help="write the JSON report to this path")
        for flag in flags:
            if flag == "quick":
                p.add_argument("--quick", action="store_true",
                               help="reduced case counts")
            else:
                p.add_argument("--" + flag.replace("_", "-"), type=int,
                               dest=flag)
    return parser


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CLIInputError("cannot write %s: %s" % (out, exc))
    else:
        sys.stdout.write(text)


def _report(command: str, inputs: dict, results: dict, started: float) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "timings": {"total_seconds": round(time.perf_counter() - started, 6)},
    }


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    started = time.perf_counter()
    command, kinds, _, _ = _COMMANDS[args.command]
    try:
        if not kinds:
            options = effective_options(None, args)
            inputs = {"options": {"quick": args.quick,
                                  "seed": options["seed"]}}
            results = command(**inputs["options"])
            _emit(_report(args.command, inputs, results, started), args.out)
            return 0 if results["passed"] else 1
        problem = load_problem(args.file)
        options = effective_options(problem, args)
        if problem.kind not in kinds:
            raise CLIInputError(
                "command %r needs kind %s, got %r"
                % (args.command, " or ".join(repr(k) for k in kinds),
                   problem.kind))
        inputs = {"file": dict(sorted(problem.fields.items())),
                  "kind": problem.kind,
                  "options": {k: v for k, v in sorted(options.items())
                              if v is not None}}
        results = command(problem, problem.build(), options)
        _emit(_report(args.command, inputs, results, started), args.out)
        return 0
    except CLIInputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except ExactNumError as exc:
        print("computational failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
