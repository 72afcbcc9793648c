import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import env  # noqa: E402

env.prepare()
env.import_semifem()
