"""Time one fresh-process set-up: import ``r2ag.cli`` and load the inputs.

    python3 perfbench/setup_probe.py CONCEPTS RELATIONS CORPUS CHECKPOINT

Prints the elapsed seconds, measured from before the import to after the
last loader returns, as one JSON object.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    concepts, relations, corpus, checkpoint = sys.argv[1:5]
    t0 = time.perf_counter()
    import r2ag.cli as cli

    kg = cli.load_kg(concepts, relations)
    cli.load_corpus(corpus)
    params = cli.load_checkpoint(checkpoint)
    table = cli.pseudo_embeddings(kg, params.d, params.seed)
    from r2ag.embeddings import group_vectors

    group_vectors(kg, table)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
