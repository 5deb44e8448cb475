"""Race the sorting-variant GA against the exhaustive oracle.

Small machine counts keep the oracle affordable, so the GA's answer can be
checked against the true optimum instance by instance.
"""

import time

from cellform import GAParams, generate_instance, run_ga
from cellform.baselines import exhaustive_oracle

print(f"{'instance':>10}  {'optimum':>8}  {'scga':>6}  {'hit':>4}  "
      f"{'oracle_s':>8}  {'ga_s':>6}")
for i, (m, n) in enumerate([(6, 2), (7, 3), (8, 3), (9, 4)]):
    inst = generate_instance(m, 3 * m, n, 8, seed=40 + i)
    t0 = time.perf_counter()
    oracle = exhaustive_oracle(inst)
    oracle_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    res = run_ga(inst, GAParams(population_size=200, generations=150,
                                seed=i, variant="scga"))
    ga_s = time.perf_counter() - t0
    hit = "yes" if res.best_evaluation.traffic == oracle.traffic else "no"
    print(f"{f'm={m} N={n}':>10}  {str(oracle.traffic):>8}  "
          f"{str(res.best_evaluation.traffic):>6}  {hit:>4}  "
          f"{oracle_s:>8.2f}  {ga_s:>6.2f}")

print("\nThe GA scales past the oracle: the oracle enumerates set "
      "partitions\n(exponential in machine count) while one GA generation "
      "is linear in\npopulation size times graph size.")
