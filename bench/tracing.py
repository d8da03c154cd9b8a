"""Run-time spans around the public functions of each library layer.

`Tracer.install` wraps every function in TARGETS and rebinds the wrapper
in each `conicbundles` module namespace that holds the original, so a
call from one layer into another (`brauermanin.hilbert`,
`counting.rho_table`, ...) is caught without editing the library.

A call to a traced function becomes a span (id, name, start, end,
parent id), kept in memory.  The kernels in KERNELS run hundreds of
thousands of times per run, so their calls are aggregated per parent
span instead: calls, self time, and the inclusive time of the calls made
directly from that span.  A span's self time is its duration minus its
child spans and minus the kernel time spent directly under it
(`self_times`).
"""

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

TARGETS = (
    "exactnum.hilbert", "exactnum.factorize", "exactnum.squarefree_class",
    "quadform.rho_table", "quadform.representation_table",
    "quadform.pell_fundamental",
    "counting.enumerate_N", "counting.G", "counting.beta_p",
    "counting.beta_infinity",
    "localsolve.padic_soluble", "localsolve.real_soluble",
    "localsolve.everywhere_locally_soluble",
    "brauermanin.obstruction_scan", "brauermanin.pairing",
    "brauermanin.quotient_generators",
    "pencil.brauer_group", "pencil.torsor_system",
    "delpezzo.bundle_from_fgh", "delpezzo.dp2_minimality",
    "delpezzo.dp1_condition", "delpezzo.dp1_minimality",
)

KERNELS = frozenset(("exactnum.hilbert", "exactnum.factorize",
                     "exactnum.squarefree_class"))


def _box_points(job, B):
    # number of integer u in the congruence class and box, axis by axis
    total = 1
    for j in range(job.system.s):
        lo = B * job.uInf[j] - job.epsilon * B
        hi = B * job.uInf[j] + job.epsilon * B
        t0 = math.floor((lo - job.uM[j]) / job.M) + 1
        t1 = math.ceil((hi - job.uM[j]) / job.M) - 1
        total *= max(0, t1 - t0 + 1)
    return total


# name -> (counter, amount(bound arguments, result)) for work counters
EXTRA = {
    "quadform.representation_table":
        ("width", lambda a, res: a["hi"] - a["lo"] + 1),
    "counting.enumerate_N":
        ("box_points", lambda a, res: _box_points(a["job"], a["B"])),
    "counting.G":
        ("residues", lambda a, res: a["p"] ** (a["k"] * a["job"].system.s)),
    "localsolve.padic_soluble":
        ("insoluble", lambda a, res: 0 if res[0] else 1),
    "localsolve.everywhere_locally_soluble":
        ("places", lambda a, res: len(res.checked)),
    "brauermanin.obstruction_scan":
        ("cells", lambda a, res: len(res.cells)),
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (sid, name, start, end, parent sid)
        self.aggregates = {}     # (parent sid, name) -> [calls, direct, self]
        self.counters = defaultdict(int)
        self.rho_keys = set()
        self._stack = [[None, 0.0, False]]   # [span id, child time, kernel]
        self._installed = []

    def wrap(self, name, fn):
        kernel = name in KERNELS
        extra = EXTRA.get(name)
        signature = inspect.signature(fn) if extra or \
            name == "quadform.rho_table" else None
        stack, clock, spans, aggregates = (self._stack, self.clock,
                                           self.spans, self.aggregates)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            # a span's id exists from entry on, so children can name it
            sid = parent[0] if kernel else object()
            frame = [sid, 0.0, kernel]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                if kernel:
                    row = aggregates.get((sid, name))
                    if row is None:
                        row = aggregates[(sid, name)] = [0, 0.0, 0.0]
                    row[0] += 1
                    row[1] += 0.0 if parent[2] else dur
                    row[2] += dur - frame[1]
                else:
                    spans.append((sid, name, start, end, parent[0]))
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if extra:
                    counter, amount = extra
                    self.counters[name + "." + counter] += amount(
                        bound.arguments, result)
                else:
                    a = bound.arguments
                    self.rho_keys.add((a["form"].a, a["p"], a["k"]))
            return result

        return traced

    def install(self, package="conicbundles"):
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            original = getattr(importlib.import_module(
                package + "." + mod_name), fn_name)
            wrapper = self.wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def stats(self):
        """name -> {"calls", "self_s", and any work counters}."""
        out = self_times(self.spans, [
            (parent, name, calls, direct, self_s)
            for (parent, name), (calls, direct, self_s)
            in self.aggregates.items()])
        for key, value in self.counters.items():
            name, counter = key.rsplit(".", 1)
            out.setdefault(name, {"calls": 0, "self_s": 0.0})[counter] = value
        out.setdefault("quadform.rho_table", {"calls": 0, "self_s": 0.0})[
            "distinct"] = len(self.rho_keys)
        return out

    def span_records(self):
        """Spans with small integer ids, ready to write as JSON."""
        ids = {None: None}
        for i, span in enumerate(self.spans):
            ids[span[0]] = i
        return [[ids[sid], name, start, end, ids.get(parent)]
                for sid, name, start, end, parent in self.spans]


def self_times(spans, aggregates):
    """Per-name calls and self time from a span tree.

    spans: (sid, name, start, end, parent sid or None).
    aggregates: (parent sid, name, calls, direct inclusive s, self s) for
    kernel calls folded into their nearest enclosing span; `direct` is
    the inclusive time of those calls made straight from that span.
    """
    child = defaultdict(float)
    for sid, name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    for parent, name, calls, direct, self_s in aggregates:
        if parent is not None:
            child[parent] += direct
    out = {}
    for sid, name, start, end, parent in spans:
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[sid]
    for parent, name, calls, direct, self_s in aggregates:
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += calls
        row["self_s"] += self_s
    return out
