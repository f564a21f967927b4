"""Test set-up for the benchmark's own tests: import braidkit from ``src``.

Run them with ``python3 -m pytest perfbench``.
"""

import run

run.import_braidkit()
