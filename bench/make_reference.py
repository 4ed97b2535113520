"""Write bench/reference.json: the answer digest of every query the
realizations, caterpillars and sweep workloads can issue, whatever the seed.

    python3 bench/make_reference.py

Run it only on a commit whose answers are trusted; the benchmark then fails
any query whose digest differs. The counting workload needs no reference:
its checker recomputes every field of the answer from the input edges.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from worker import import_package  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    caterpillar_queries,
    caterpillar_universe,
    claim_digest,
    extremal_digest,
    realization_queries,
    realization_universe,
    sweep_pairs,
    sweep_query,
)


def main() -> int:
    tx = import_package()
    reference = {"realizations": {}, "caterpillars": {}, "sweep": {}}
    for degs in realization_universe():
        for q in realization_queries(tx, degs, tx.degree_sequence(degs)):
            reference["realizations"][q.key] = extremal_digest(q.fn(*q.args))
    for degs in caterpillar_universe():
        for q in caterpillar_queries(tx, degs, tx.degree_sequence(degs)):
            reference["caterpillars"][q.key] = extremal_digest(q.fn(*q.args))
    for claim, n in sweep_pairs():
        q = sweep_query(tx, claim, n)
        reference["sweep"][q.key] = claim_digest(q.fn(*q.args))
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print({name: len(v) for name, v in reference.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
