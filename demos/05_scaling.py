"""How the two computation strategies scale with the genus.

The recursion's work grows quickly with g; the closed formula's per-value
cost is one Kostka column and a chain of g 3-ribbon removals started from
it.  On these extreme indices the column is a single shape, and so is
every step of the chain.  ``wk bench`` times both on the index
(3g-3+n, 0, ..., 0) per genus: wall-clock medians of three runs, cold (the
formula keeps no memo between calls and the recursion's is cleared before
each run), and exits 1 if the two ever disagree.  Nothing else is
asserted - the point is the shape of the curve.
"""

import sys
import tempfile

from wkintersect import cli

with tempfile.TemporaryDirectory() as tmp:
    code = cli.main(["--cache-dir", tmp, "bench", "-n", "3", "--g-max", "9"])
sys.exit(code)
