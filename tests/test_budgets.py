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

_LIMITS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (2, 2))
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
"""
_REAL_SOLUBLE = _LIMITS + """
import json
from conicbundles.localsolve import real_soluble
from conicbundles.pencil import NormFormSystem
forms = tuple(map(tuple, json.loads(sys.argv[1])))
r, s = len(forms), len(forms[0])
verdict = real_soluble(NormFormSystem(r=r, s=s, a=(-1,) * r, forms=forms))
print(json.dumps([str(x) for x in verdict.evidence.u]))
"""
_CLI = _LIMITS + """
from conicbundles.cli import main
sys.exit(main(sys.argv[1:]))
"""

_PADIC = _LIMITS + """
from fractions import Fraction
from conicbundles.localsolve import padic_soluble
from conicbundles.pencil import ConicBundleData, torsor_system
data = ConicBundleData(
    e=(25, Fraction(12, 5), 2, Fraction(8, 5), Fraction(-1, 4)),
    a=(2, 3, 6, 7, -2),
    lam=(-9, 5, Fraction(160559, 369846), Fraction(893194, 817783), 9))
print(padic_soluble(torsor_system(data), int(sys.argv[1])).holds)
"""


def _limited(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("s, r, seed", [(4, 30, 2), (5, 14, 2), (6, 14, 1)])
def test_real_soluble_on_definite_systems_within_budget(s, r, seed):
    # Fourier-Motzkin that keeps every combined row took 13 s and 20 s of
    # CPU and about 900 MB on the first two (a 2-core host) and gave no
    # answer in 20 s on the third; every form is positive at the family's
    # seeded point, so each system is soluble
    forms = definite_rows(s, r, seed)
    proc = _limited(_REAL_SOLUBLE, json.dumps(forms))
    assert proc.returncode == 0, proc.stderr
    u = [Fraction(x) for x in json.loads(proc.stdout)]
    # the witness, read in integers: every definite form is positive
    L = math.lcm(*(x.denominator for x in u))
    v = [x.numerator * (L // x.denominator) for x in u]
    assert all(sum(c * x for c, x in zip(f, v)) > 0 for f in forms)


def test_count_refuses_a_large_pell_unit_within_budget(tmp_path):
    # the Pell unit of 10^9 + 9 has 102,104 bits, and building it took 56 s
    # before the row search refused; the convergents of its continued
    # fraction bound the rows first, so the job is refused at once
    path = tmp_path / "job.txt"
    path.write_text("kind = count-job\na = 1000000009\nforms = 1 0\n"
                    "B_schedule = 4\n")
    proc = _limited(_CLI, "count", str(path))
    assert proc.returncode == 1, proc.stderr
    assert "a = 1000000009, has" in proc.stderr
    assert "beyond the cap" in proc.stderr


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: where a form's content carries p, each open ball "
    "splits into p^2 children, so the walk reads 817783^2 balls a level"))
def test_padic_soluble_at_a_prime_of_a_form_content_within_budget():
    # this pencil's torsor system has the forms 2 3^5 761 (1, -2) and
    # 817783 (5, -8); at p = 761 the walk reads 761^2 = 579,121 balls at
    # level 2, about 1 s (a 2-core host), and at p = 817783 it gave no
    # answer in 15 s
    proc = _limited(_PADIC, "817783")
    assert proc.returncode == 0, proc.stderr
