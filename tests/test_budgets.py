"""Adversarial sizes that every public engine must answer, or refuse with
its module's error, within a fixed budget.

Each row runs in its own subprocess, one at a time, under RLIMIT_CPU 2 s
and RLIMIT_AS 1 GiB, so a call that hangs or grows without bound is
killed there and fails its row instead of the suite.  The limits are set
before `conicbundles`, and with it numpy, is imported; OPENBLAS_NUM_THREADS
is 1 so that the import starts no thread pool that would need the address
space.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from reference import definite_rows

ROOT = Path(__file__).resolve().parent.parent

_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (2, 2))
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import json
from conicbundles.localsolve import real_soluble
from conicbundles.pencil import NormFormSystem
forms = tuple(map(tuple, json.loads(sys.argv[1])))
r, s = len(forms), len(forms[0])
verdict = real_soluble(NormFormSystem(r=r, s=s, a=(-1,) * r, forms=forms))
print(json.dumps([str(x) for x in verdict.evidence.u]))
"""


def _limited(forms):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", _LIMITED, json.dumps(forms)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("s, r, seed", [(4, 30, 2), (5, 14, 2), (6, 14, 1)])
def test_real_soluble_on_definite_systems_within_budget(s, r, seed):
    # Fourier-Motzkin that keeps every combined row took 13 s and 20 s of
    # CPU and about 900 MB on the first two (a 2-core host) and gave no
    # answer in 20 s on the third; every form is positive at the family's
    # seeded point, so each system is soluble
    forms = definite_rows(s, r, seed)
    proc = _limited(forms)
    assert proc.returncode == 0, proc.stderr
    u = [Fraction(x) for x in json.loads(proc.stdout)]
    # the witness, read in integers: every definite form is positive
    L = math.lcm(*(x.denominator for x in u))
    v = [x.numerator * (L // x.denominator) for x in u]
    assert all(sum(c * x for c, x in zip(f, v)) > 0 for f in forms)
