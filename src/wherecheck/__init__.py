"""Information-flow checker for a small imperative language with declassification.

The package verifies that the only secret information a program releases is
what flows through its declassification statements, at the program points
where they occur.  Verification runs on a symbolic finite-state model of the
program, self-composed so that one reachability query ("is the error state
reachable?") decides the property for a given observer level.  A brute-force
interpreter oracle provides ground truth for small instances.
"""

__version__ = "0.1.0"
