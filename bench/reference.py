"""A fixed unit of work that measures the machine's current speed.

It does what the CLI commands do, in small: start an interpreter and
import numpy, parse JSON lines, run numpy on small arrays, loop in Python
over dicts and lists, and walk an ImageNet-sized image's pixels as nested
lists, where memory contention from other tenants shows most. It imports
nothing from cascadekit, so a change to the program never changes it;
only the machine's speed does. ``run.py`` runs it as a child once per
round and divides the commands' CPU times by its fastest CPU time.
"""

import json
import random

import numpy as np


def main() -> None:
    rng = random.Random(0)
    lines = [
        json.dumps({"id": f"s{i:05d}", "label": i % 10, "logits": [rng.gauss(0, 1) for _ in range(10)]})
        for i in range(3000)
    ]
    counts: dict[int, int] = {}
    total = 0.0
    for line in lines:
        record = json.loads(line)
        logits = np.asarray(record["logits"])
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        top = int(p.argmax())
        counts[top] = counts.get(top, 0) + (top == record["label"])
        total += float(p[top])
    pixels = np.random.default_rng(0).integers(0, 256, size=(224, 224, 3)).tolist()
    gray = [[(299 * r + 587 * g + 114 * b) // 1000 for r, g, b in row] for row in pixels]
    flipped = [row[::-1] for row in gray[::-1]]
    assert sum(map(sum, flipped)) == sum(map(sum, gray)) and total > 0 and counts


if __name__ == "__main__":
    main()
