"""``PYTHONPATH=src python -m benchmarks.perf`` — same as ``run.py``."""

import sys

from .run import _bootstrap, main

_bootstrap()
sys.exit(main())
