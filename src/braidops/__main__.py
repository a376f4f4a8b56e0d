"""``python -m braidops``: the same command line as ``braidops``."""

import sys

from .cli import main

sys.exit(main())
