"""python -m acmdp: the same command line as the acmdp script."""

import sys

from .cli import main

sys.exit(main())
