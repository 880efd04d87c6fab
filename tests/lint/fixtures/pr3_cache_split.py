"""Regression fixture: the PR-3 cache-split bug, preserved in shape.

``json.dumps(..., default=list)`` serialized ``set`` members in
iteration order, so equal configs hashed to different cache keys under
different ``PYTHONHASHSEED`` values — silently splitting the experiment
cache across processes.  RL002 must flag the ``default=list`` dump;
CI runs this fixture as a permanent regression check.
"""

import hashlib
import json


def cache_key(config, seed: int) -> str:
    payload = {
        "config": config,
        "psis": set(config.get("psis", [])),        # the unordered culprit
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()
