"""The two standard count jobs that the counting and acceptance tests share,
and the seeded norm-form systems that the local-solubility tests draw.

They are library objects, so they live here rather than in `reference.py`,
which imports nothing from `conicbundles`.
"""

from fractions import Fraction

from conicbundles.counting import CountJob
from conicbundles.pencil import NormFormSystem, PencilError


def system1():
    return NormFormSystem(r=1, s=2, a=(-1,), forms=((1, 0),))


def system2():
    return NormFormSystem(r=2, s=2, a=(-1, 2), forms=((1, 0), (0, 1)))


def job1(**kw):
    kw.setdefault("uInf", (Fraction(1), Fraction(0)))
    return CountJob(system=system1(), **kw)


def job2(**kw):
    kw.setdefault("uInf", (Fraction(1), Fraction(1)))
    return CountJob(system=system2(), **kw)


def local_pool_system(rng, p):
    # the local workload's draw, widened to r <= 4 and s in {2, 3}: a_i a
    # unit times p^0 or p^1, coefficients with p-power contents
    pool = (0, 1, -1, 2, p, p**2, p**3, p**5, -p**4)
    units = [u for u in (1, -1, 2, -2, 3, -3, 5, -5, 7, -7) if u % p]
    while True:
        r, s = rng.randint(1, 4), rng.choice((2, 3))
        a = tuple(rng.choice(units) * p**rng.choice((0, 1)) for _ in range(r))
        forms = tuple(tuple(rng.choice(pool) for _ in range(s))
                      for _ in range(r))
        try:
            return NormFormSystem(r=r, s=s, a=a, forms=forms)
        except PencilError:
            continue
