"""Rule implementations; importing this package registers every rule.

Codes are grouped by category and never reused:

* ``RL000``           — reserved: file could not be parsed
* ``RL001``-``RL009`` — determinism (per-file AST)
* ``RL010``-``RL019`` — physics / units (per-file AST)
* ``RL020``-``RL029`` — hygiene (per-file AST)
* ``RL030``-``RL039`` — unit-dimension dataflow
* ``RL040``-``RL049`` — determinism taint dataflow
"""

from repro.lint.rules import (determinism, hygiene, physics, taint,
                              unitflow)

__all__ = ["determinism", "hygiene", "physics", "taint", "unitflow"]
