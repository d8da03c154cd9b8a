"""Seeded problem generators, problem runners and output checks.

Generation uses only the standard library, so the inputs of a seed do
not depend on the code under test.  Each workload draws its problems
from a fixed family; where one input property decides most of a
problem's cost, the draws are stratified on that property with quotas
equal to the family's own frequencies (`stratified`), so a run holds the
same mix of cheap and expensive problems whatever the seed.

A runner takes the imported `conicbundles` module and one problem, and
returns `(parts, soluble, errors)`: `parts` maps a name to the exact
outputs that are pinned against the seed commit, `soluble` lists the
local verdicts that were soluble (pinned only that way round), and
`errors` lists failed implementation-independent checks.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import oracle


def rng_for(workload, seed, index):
    return random.Random("%s:%d:%d" % (workload, seed, index))


def digest(obj):
    text = obj if isinstance(obj, str) else repr(obj)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def stratified(draw, key, n, rng, pilot=3000):
    """n draws from `draw(rng)` whose counts per `key` follow the
    family's frequencies, estimated from a fixed pilot sample and
    allocated by largest remainder."""
    prng = random.Random("pilot")
    freq = Counter(key(draw(prng)) for _ in range(pilot))
    shares = sorted(((n * c / pilot, k) for k, c in freq.items()),
                    key=lambda x: (-(x[0] % 1), repr(x[1])))
    quota = {k: int(s) for s, k in shares}
    for s, k in shares[:n - sum(quota.values())]:
        quota[k] += 1
    out = []
    while len(out) < n:
        x = draw(rng)
        k = key(x)
        if quota.get(k, 0) > 0:
            quota[k] -= 1
            out.append(x)
    return out


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def _independent(f, g):
    return any(f[i] * g[j] != f[j] * g[i]
               for i in range(len(f)) for j in range(i + 1, len(f)))


def _forms_ok(forms):
    return all(any(f) for f in forms) and all(
        _independent(forms[i], forms[j])
        for i in range(len(forms)) for j in range(i + 1, len(forms)))


def _sqfree(n):
    """Squarefree part of a nonzero integer, by trial division."""
    sign = -1 if n < 0 else 1
    n, out, q = abs(n), 1, 2
    while q * q <= n:
        while n % (q * q) == 0:
            n //= q * q
        if n % q == 0:
            n //= q
            out *= q
        q += 1
    return sign * out * n


# ----------------------------------------------------------------- predict

# Pools keep every G(p^k) the densities need below the enumeration cap:
# s = 3 only ever needs p = 2, so its a_i are +-1, +-2 times squares
# and its form matrix must have full rank mod every odd prime.
A_PLAIN = (-1, -2, -3, -5, -6, 2, 3, 5, 6, 10)
A_SMALL = (-1, -2, 2)

# (name, s, B schedule, a pool); a pass cycles through these in order,
# so each template keeps a fixed share of the problems.  The cheap
# density templates stay below half, so the median problem is an
# enumeration job rather than the edge between the two groups.
PREDICT_TEMPLATES = (
    ("enum2", 2, (961, 3721), A_PLAIN),
    ("cube", 2, (9, 81), A_PLAIN),
    ("enum3", 3, (121, 289), A_SMALL),
    ("modM", 2, None, A_PLAIN),
    ("enum2-big", 2, (7921,), A_PLAIN),
    ("enum2", 2, (961, 3721), A_PLAIN),
    ("enum3", 3, (121, 289), A_SMALL),
    ("cube", 2, (9, 81), A_PLAIN),
)


def _minors_gcd(forms):
    g = 0
    if len(forms) == 1:
        for c in forms[0]:
            g = math.gcd(g, c)
        return g
    f, h = forms
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = math.gcd(g, f[i] * h[j] - f[j] * h[i])
    return g


def _draw_job(rng, name, s, schedule, pool):
    while True:
        r = rng.choice((1, 2))
        a = [rng.choice(pool) for _ in range(r)]
        M, uM = 1, (0,) * s
        if name == "cube":
            a[0] = rng.choice((-1, -2)) * rng.choice((3, 5)) ** 3
        forms = tuple(tuple(rng.randint(-2, 2) for _ in range(s))
                      for _ in range(r))
        u_inf = tuple(rng.choice((-1, 0, 1, 2)) for _ in range(s))
        if not _forms_ok(forms):
            continue
        if s == 3 and _minors_gcd(forms) not in (1, 2, 4, 8):
            continue
        vals = [sum(c * x for c, x in zip(f, u_inf)) for f in forms]
        if any(ai < 0 and v == 0 for ai, v in zip(a, vals)):
            continue
        forms = tuple(tuple(-c for c in f) if ai < 0 and v < 0 else f
                      for f, ai, v in zip(forms, a, vals))
        if name == "modM":
            M = rng.choice((3, 5)) ** rng.choice((2, 3))
            uM = tuple(rng.randrange(M) for _ in range(s))
            if any(sum(c * x for c, x in zip(f, uM)) % M == 0 for f in forms):
                continue
            schedule = ((M + 1) ** 2, (2 * M + 1) ** 2)
        return {"template": name, "r": r, "s": s, "a": tuple(a),
                "forms": forms, "M": M, "uM": uM, "uInf": u_inf,
                "B": tuple(schedule)}


def gen_predict(rng, n):
    out = []
    for i in range(n):
        out.append(_draw_job(rng, *PREDICT_TEMPLATES[i % len(PREDICT_TEMPLATES)]))
    return out


def run_predict(cb, prob):
    system = cb.NormFormSystem(r=prob["r"], s=prob["s"], a=prob["a"],
                               forms=prob["forms"])
    job = cb.CountJob(system=system, M=prob["M"], uM=prob["uM"],
                      uInf=prob["uInf"], B_schedule=prob["B"])
    reports = cb.predict_and_compare(job)
    errors = []
    if [rep.B for rep in reports] != list(prob["B"]):
        errors.append("one report per scheduled B expected")
    rows = []
    for rep in reports:
        if not isinstance(rep.empirical, int) or rep.empirical < 0:
            errors.append("count %r is not a nonnegative integer"
                          % (rep.empirical,))
        zero = [p for p, v in rep.beta_p.items() if v == 0]
        if zero and (rep.empirical != 0 or rep.predicted != 0):
            errors.append("beta_p = 0 at %s but count %d, prediction %r"
                          % (zero, rep.empirical, rep.predicted))
        if not zero and not (rep.predicted > 0 and abs(
                rep.ratio * rep.predicted - rep.empirical)
                <= 1e-9 * max(1, rep.empirical)):
            errors.append("ratio %r disagrees with %d / %r"
                          % (rep.ratio, rep.empirical, rep.predicted))
        rows.append((rep.B, rep.empirical,
                     tuple((p, str(v)) for p, v in sorted(rep.beta_p.items()))))
    return {"counts": tuple(rows)}, [], errors


# ----------------------------------------------------------------- pencils

A_POOL = (-1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, 14, 15, -15, 21, 11, 13)
SCAN_PRIMES = (3, 5, 7, 11, 13)


def _draw_bundle(rng):
    while True:
        r = rng.choice((3, 4, 5))
        e = set()
        while len(e) < r:
            e.add(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3))))
        e = tuple(sorted(e))
        a = [rng.choice(A_POOL) for _ in range(r - 1)]
        prod = 1
        for x in a:
            prod *= x
        last = _sqfree(prod)
        if last == 1:
            continue
        a.append(last)
        ts = []
        while len(ts) < 3:
            t = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
            if t not in e and t not in ts:
                ts.append(t)
        return {"kind": "bundle", "e": e, "a": tuple(a), "t": tuple(ts)}


def _scan_support(a):
    return (None, 2) + tuple(q for q in SCAN_PRIMES if any(x % q == 0 for x in a))


def _bundle_key(prob):
    # the scan evaluates every generator on about q^4 cells at its
    # largest prime q, so q and the generator count set most of the cost
    return (_scan_support(prob["a"])[-1],
            min(3, oracle.quotient_rank(prob["a"])))


def _split_value(lead, roots, t):
    v = lead
    for x in roots:
        v *= t - x
    return v


def _draw_del_pezzo(rng):
    while True:
        roots = rng.sample(range(-12, 13), 6)
        leads = [rng.choice((1, -1, 2, 3, 5, -2)) for _ in range(3)]
        polys = [(leads[k], tuple(roots[2 * k:2 * k + 2])) for k in range(3)]
        rows = [[Fraction(l * r0 * r1), Fraction(-l * (r0 + r1)), Fraction(l)]
                for l, (r0, r1) in polys]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        if det == 0:
            continue
        classes = []
        for k in range(3):
            left, right = polys[(k + 1) % 3], polys[(k + 2) % 3]
            for t in polys[k][1]:
                classes.append(_sqfree(-_split_value(*left, t)
                                       * _split_value(*right, t)))
        prod = 1
        for c in classes:
            prod *= c
        if 1 in classes or not _is_square(prod):
            continue
        e8 = tuple(rng.sample(range(-15, 16), 8))
        c1 = rng.choice((1, 2, 3, -1, Fraction(1, 2)))
        c2 = rng.choice((1, 2, -3, 5, Fraction(2, 3)))
        return {"kind": "delpezzo", "fgh": tuple(polys), "dp1": (e8, c1, c2)}


def gen_pencils(rng, n):
    """Bundles, with every fourth slot a del Pezzo problem."""
    n_dp = n // 4
    bundles = stratified(_draw_bundle, _bundle_key, n - n_dp, rng)
    out = []
    for i in range(n):
        out.append(_draw_del_pezzo(rng) if i % 4 == 3 else bundles.pop())
    return out


def _local_report_checks(report, a, forms, errors, where):
    witnessed = []
    for place, wit in report.witnesses:
        why = oracle.check_local_witness(a, forms, place.p, wit.u,
                                         wit.precision)
        if why:
            errors.append("%s witness at %s: %s" % (where, place, why))
        witnessed.append(str(place))
    if report.soluble and len(witnessed) != len(report.checked):
        errors.append("%s: soluble, but not every place has a witness" % where)
    if sorted(witnessed + [str(v) for v in report.bad_places]) != \
            sorted(str(v) for v in report.checked):
        errors.append("%s: witnesses and bad places do not cover the "
                      "checked places" % where)
    return witnessed


def run_pencils(cb, prob):
    if prob["kind"] == "delpezzo":
        return _run_del_pezzo(cb, prob)
    data = cb.ConicBundleData(e=prob["e"], a=prob["a"])
    errors = []
    desc = cb.brauer_group(data)
    expected = oracle.quotient_rank(prob["a"])
    if desc.quotient_rank != expected:
        errors.append("quotient rank %d, independent count %d"
                      % (desc.quotient_rank, expected))
    system = cb.torsor_system(data)
    report = cb.everywhere_locally_soluble(system, L=50)
    witnessed = _local_report_checks(report, system.a, system.forms,
                                     errors, "torsor")
    support = [cb.REAL_PLACE if v is None else cb.Place(v)
               for v in _scan_support(prob["a"])]
    table = cb.obstruction_scan(data, support)
    gens = cb.quotient_generators(data)
    for t in prob["t"]:
        point = cb.global_point(data, t)
        for g in gens:
            value = cb.pairing(data, point, g.n)
            if value != 0:
                errors.append("pairing of %s at the global point t = %s is "
                              "%d, reciprocity needs 0" % (g.n, t, value))
    parts = {
        "brauer": (desc.kernel_basis, desc.quotient_rank,
                   tuple(g.n for g in gens)),
        "scan": json.dumps(table.as_json_dict(), sort_keys=True),
        "checked": tuple(str(v) for v in report.checked),
    }
    return parts, witnessed, errors


def _run_del_pezzo(cb, prob):
    polys = [cb.SplitPolynomial(lead, roots) for lead, roots in prob["fgh"]]
    errors = []
    bundle = cb.bundle_from_fgh(*polys)
    if bundle.data.r != 6 or not bundle.data.faddeev_holds:
        errors.append("dp2 bundle must have six fibres and square product")
    dp2 = cb.dp2_minimality(cb.DP2Data(*polys))
    e8, c1, c2 = prob["dp1"]
    dp1 = cb.DP1Data(e=e8, c1=c1, c2=c2)
    cond = cb.dp1_condition(dp1)
    mini = cb.dp1_minimality(dp1)
    if cond.holds != (not cond.failed):
        errors.append("dp1 condition verdict disagrees with its clauses")
    parts = {
        "bundle": (tuple(map(str, bundle.data.e)),
                   tuple(map(str, bundle.data.a)), bundle.parity),
        "dp2": (dp2.independent, dp2.certificate),
        "dp1": (cond.holds, cond.failed, tuple(map(str, cond.discriminant)),
                mini.independent, mini.certificate,
                tuple(map(str, mini.fibre_classes))),
    }
    return parts, [], errors


# ------------------------------------------------------------------- local

LOCAL_PRIMES = (2, 3)
LOCAL_UNITS = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)


def _draw_local(rng):
    p = rng.choice(LOCAL_PRIMES)
    r = rng.choice((2, 3))
    coeffs = (0, 1, -1, 2, p, p**2, p**3, p**5, -p**4)
    units = [u for u in LOCAL_UNITS if u % p]
    while True:
        a = tuple(rng.choice(units) * p ** rng.choice((0, 1)) for _ in range(r))
        forms = tuple((rng.choice(coeffs), rng.choice(coeffs))
                      for _ in range(r))
        if not any(_is_square(x) for x in a) and _forms_ok(forms):
            return {"p": p, "a": a, "forms": forms}


def _content(form, p):
    return min(oracle.valuation(c, p) for c in form if c)


def _local_key(prob):
    # the form contents decide how deep the digit search runs before a
    # symbol is known, and the a_i valuations set its depth at p = 2
    p = prob["p"]
    return (p, max(oracle.valuation(x, p) for x in prob["a"]),
            tuple(sorted(min(4, _content(f, p)) for f in prob["forms"])))


def gen_local(rng, n):
    return stratified(_draw_local, _local_key, n, rng)


def run_local(cb, prob):
    system = cb.NormFormSystem(r=len(prob["a"]), s=2, a=prob["a"],
                               forms=prob["forms"])
    p = prob["p"]
    errors = []
    ok, wit = cb.padic_soluble(system, p)
    soluble = []
    if ok:
        why = oracle.check_local_witness(prob["a"], prob["forms"], p, wit.u,
                                         wit.precision)
        if why:
            errors.append("padic_soluble witness at %d: %s" % (p, why))
        soluble.append("padic:%d" % p)
    report = cb.everywhere_locally_soluble(system, L=30)
    soluble += ["els:" + v for v in _local_report_checks(
        report, prob["a"], prob["forms"], errors, "everywhere")]
    parts = {"checked": tuple(str(v) for v in report.checked)}
    return parts, soluble, errors


# --------------------------------------------------------------------- cli

CLI_COMMANDS = ("validate", "brauer", "local", "bm", "count", "predict",
                "dp1", "dp2", "selftest")


def _pencil_file(rng, support):
    e = sorted(rng.sample(range(-3, 8), 4))
    x, y = rng.sample((5, -1, 2, 3, -3, 6), 2)
    a = (x, x, y, y) if rng.random() < 0.5 else (x, y, x, y)
    text = "kind = pencil\ne = %s\na = %s\n" % (
        ", ".join(map(str, e)), ", ".join(map(str, a)))
    if support:
        places = ["oo", "2"] + [str(q) for q in (3, 5) if x % q == 0 or y % q == 0]
        text += "support = %s\n" % ", ".join(places)
    return text


def _job_file(rng, B):
    a = rng.choice((-1, -2, 2, 3))
    form = rng.choice(("1 0", "1 1", "2 1", "0 1"))
    return ("kind = count-job\na = %d\nforms = %s\nuInf = 1, 1\n"
            "B_schedule = %s\n" % (a, form, ", ".join(map(str, B))))


def _dp2_file(rng):
    prob = _draw_del_pezzo(rng)
    return "kind = dp2\n" + "".join(
        "%s = %d : %d, %d\n" % (name, lead, r0, r1)
        for name, (lead, (r0, r1)) in zip("fgh", prob["fgh"]))


def _dp1_file(rng):
    e = sorted(rng.sample(range(-6, 10), 8))
    return "kind = dp1\ne = %s\nc1 = %d\nc2 = %d\n" % (
        ", ".join(map(str, e)), rng.choice((1, 2, 3)), rng.choice((1, 2, 5)))


def _cli_problem(rng, command):
    if command == "selftest":
        return {"command": command, "args": ("--quick", "--seed",
                                             str(rng.randrange(1000))),
                "text": None}
    if command in ("count", "predict"):
        text = _job_file(rng, (4, 9, 100) if command == "count" else (4, 9))
    elif command == "dp1":
        text = _dp1_file(rng)
    elif command == "dp2":
        text = _dp2_file(rng)
    elif command == "local":
        text = _pencil_file(rng, False) + "L = 30\n"
    elif command == "validate":
        text = rng.choice((_pencil_file(rng, False), _job_file(rng, (4, 9)),
                           _dp1_file(rng)))
    else:
        text = _pencil_file(rng, command == "bm")
    return {"command": command, "args": (), "text": text}


def gen_cli(rng, n):
    out = []
    while len(out) < n:
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        out.extend(_cli_problem(rng, c) for c in order)
    return out[:n]


class CliRunner:
    """Runs one CLI command per problem as a fresh subprocess and keeps
    the report's compute time and the rest of the subprocess wall time
    (start-up)."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.count = 0
        self.compute_ms = []
        self.startup_ms = []

    def __call__(self, cb, prob):
        self.count += 1
        argv = [prob["command"]]
        if prob["text"] is not None:
            path = os.path.join(self.workdir, "p%d.txt" % self.count)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(prob["text"])
            argv.append(path)
        cmd = [sys.executable, "-m", "conicbundles"] + argv + list(prob["args"])
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=170)
        wall_ms = (time.perf_counter() - start) * 1000
        errors = []
        if proc.returncode != 0:
            errors.append("exit %d: %s" % (proc.returncode,
                                           proc.stderr.strip()[-300:]))
            return {}, [], errors
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return {}, [], ["stdout is not one JSON report"]
        if report.get("command") != prob["command"]:
            errors.append("report names command %r" % report.get("command"))
        if prob["command"] == "selftest" and not report["results"]["passed"]:
            errors.append("selftest reported failures")
        compute = report["timings"]["total_seconds"] * 1000
        self.compute_ms.append(compute)
        self.startup_ms.append(wall_ms - compute)
        return {"report": oracle.strip_timings(proc.stdout)}, [], errors


def cli_key(prob):
    return (prob["command"], prob["args"], prob["text"])


GENERATORS = {"predict": gen_predict, "pencils": gen_pencils,
              "local": gen_local, "cli": gen_cli}
RUNNERS = {"predict": run_predict, "pencils": run_pencils, "local": run_local}


def problem_id(workload, prob):
    return digest((workload, cli_key(prob)) if workload == "cli"
                  else (workload, sorted(prob.items())))


def compare(ref, parts, soluble):
    """Failures against a pinned reference; [] if there is none."""
    if ref is None:
        return []
    errors = ["%s differs from the pinned output" % name
              for name, value in sorted(parts.items())
              if ref["parts"].get(name) != digest(value)]
    lost = sorted(set(ref["soluble"]) - set(soluble))
    if lost:
        errors.append("pinned soluble verdicts lost: %s" % ", ".join(lost))
    return errors


def reference(parts, soluble):
    return {"parts": {name: digest(value) for name, value in parts.items()},
            "soluble": sorted(soluble)}
