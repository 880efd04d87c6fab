"""Rule implementations; importing this package registers every rule.

Codes are grouped by category and never reused:

* ``RL000``           — reserved: file could not be parsed
* ``RL001``-``RL009`` — determinism
* ``RL010``-``RL019`` — physics / units
* ``RL020``-``RL029`` — hygiene
* ``RL030``-``RL049`` — reserved: the retired whole-program unit-flow
  (RL030/RL031) and determinism-taint (RL040) rules; never reused, so
  an old suppression or baseline entry cannot silence a new rule
"""

from repro.lint.rules import determinism, hygiene, physics

__all__ = ["determinism", "hygiene", "physics"]
