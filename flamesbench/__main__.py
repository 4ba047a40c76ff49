"""``python -m flamesbench`` — same entry point as ``flamesbench/run.py``."""

import sys

from flamesbench.run import main

if __name__ == "__main__":
    sys.exit(main())
