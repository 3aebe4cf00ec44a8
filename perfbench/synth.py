"""Seeded stand-in data for the benchmark: foodtruck geometry, planted signal.

The real corpora are not bundled, so every workload generates a stand-in with
the foodtruck shape (407 instances, 21 features, 12 labels). The first four
features drive every label with weights that decay by position; label
thresholds sit at the median score, so both classes stay populated. The
program under test sees only the ARFF file written here.
"""

from __future__ import annotations

import numpy as np

N_INSTANCES, N_FEATURES, N_LABELS = 407, 21, 12
N_SIGNAL = 4


def planted(seed: int):
    """(X, Y) for one seed: the same seed gives the same matrices."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N_INSTANCES, N_FEATURES))
    W = np.zeros((N_FEATURES, N_LABELS))
    strengths = 2.0 / (1.0 + np.arange(N_SIGNAL))
    for j in range(N_LABELS):
        W[:N_SIGNAL, j] = strengths * rng.choice([-1.0, 1.0], size=N_SIGNAL)
    scores = X @ W + 0.25 * rng.normal(size=(N_INSTANCES, N_LABELS))
    Y = (scores > np.median(scores, axis=0)).astype(np.int64)
    return X, Y


def write_arff(path, seed: int) -> None:
    """Write the seed's stand-in as ARFF; labels are the trailing 12 columns."""
    X, Y = planted(seed)
    lines = [f"@relation foodtruck-standin-{seed}", ""]
    lines += [f"@attribute f{i} numeric" for i in range(N_FEATURES)]
    lines += [f"@attribute y{j} {{0,1}}" for j in range(N_LABELS)]
    lines.append("@data")
    for x, y in zip(X, Y):
        lines.append(",".join([repr(float(v)) for v in x] + [str(int(v)) for v in y]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
