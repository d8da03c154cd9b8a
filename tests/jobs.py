"""The two standard count jobs that the counting and acceptance tests share.

They are library objects, so they live here rather than in `reference.py`,
which imports nothing from `conicbundles`.
"""

from fractions import Fraction

from conicbundles.counting import CountJob
from conicbundles.pencil import NormFormSystem


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
