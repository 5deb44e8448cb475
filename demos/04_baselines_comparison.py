"""One instance, every method: the two cut GAs, the edge GA, k-means, and
the oracle.

The edge encoding has one gene per graph edge, so most random individuals
are wasteful or infeasible on larger graphs; the cut encoding only ever
names valid partitions. k-means clusters the traffic-matrix rows and is
fast but blind to the combinatorial structure.
"""

from cellform import generate_instance, solve

inst = generate_instance(9, 27, 3, 8, seed=77)
print("instance: 9 machines, 27 parts, max cell size 3\n")
print(f"{'method':>12}  {'traffic':>8}  {'feasible':>8}  {'seconds':>8}")

# every method through the dispatch the CLI and the bench use, which times
# it; only the GAs read the GA settings, and only k-means reads restarts
for method in ("scga", "cga", "ega", "multikmeans", "oracle"):
    ev, seconds = solve(inst, method, seed=7, restarts=5,
                        population_size=200, generations=150)
    feasible = ev is not None and ev.feasible
    print(f"{method:>12}  {str(ev.traffic) if feasible else 'UF':>8}  "
          f"{'yes' if feasible else 'no':>8}  {seconds:>8.2f}")
