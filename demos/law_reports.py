"""
Checking the algebra, counterexamples included
==============================================

The law suites replay each structural equation over concrete
instances and report pass or fail.  Some equations are supposed to
fail, and the suite only counts them as satisfied when it can print
a concrete counterexample.
"""

from convexmod import BOOL, NAT, QPLUS, check_pentagon_law, check_weak_law

print("rewrite compatibility over bool (two symbols):")
for r in check_weak_law(BOOL, xsize=2):
    mark = "ok " if r.met else "BAD"
    print(f"  {mark} {r.status:4s} {r.name}")
    if r.counterexample is not None:
        print("       counterexample:", r.counterexample)

# over the naturals with small value bounds the one law that failed
# above holds: every reachable weighting is a plain choice
print("same suite over nat (value bound 2):")
for r in check_weak_law(NAT, xsize=2, value_bound=2):
    print(f"  {r.status:4s} {r.name}")

print("algebra composition over qplus, including exact intervals:")
for r in check_pentagon_law(QPLUS, trials=50, seed=0):
    print(f"  {r.status:4s} {r.name:28s} {r.detail or ''}")
