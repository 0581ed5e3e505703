"""Time the set-up of one ``fungo run`` in a fresh process.

Set-up is ``import fungo`` plus the steps ``fungo run`` takes before it
trains: load the dataset, build the Gram matrix and the rules, and split the
folds.  Prints one JSON object with the time, the shape of what was built
and the environment the run sees::

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import fungo.cli as cli  # noqa: E402


def main(config_path: str) -> int:
    # Log as ``fungo run`` does, so per-protein log lines cost the same.
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    raw = cli.io.read_config(config_path)
    config = cli.parse_experiment_config(raw, os.path.dirname(os.path.abspath(config_path)))
    data = cli.load_dataset(config)
    gram = cli.build_gram(config, data.proteins)
    rules, _ = cli.build_rules(config, data.cut)
    folds = cli.dataset_folds(config, data)
    setup_s = time.perf_counter() - START

    import numpy as np
    from fungo.logic import HAS_NUMBA, resolve_engine

    pairs = set()
    if config.ppi:
        known = set(data.proteins)
        pairs = {(min(a, b), max(a, b)) for a, b in cli.io.read_pairs(config.ppi)
                 if a != b and a in known and b in known}
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "n": len(data.proteins),
        "dropped": len(data.dropped),
        "terms": len(data.dag.terms),
        "cut_nodes": len(data.cut.nodes()),
        "rules": len(rules),
        "folds": len(folds),
        "gram_n": gram.size,
        # BOUND is symmetric, so each pair guards two of the n^2 groundings.
        "pair_guard_density": 2 * len(pairs) / len(data.proteins) ** 2,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "has_numba": HAS_NUMBA,
        "engine": resolve_engine(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
