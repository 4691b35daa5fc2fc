"""``python -m benchmarks.e2e run ...`` (see :mod:`.harness`)."""

import sys

from .harness import main

sys.exit(main())
