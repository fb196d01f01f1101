import sys
from pathlib import Path

# the tests import the workloads, which import qcmd from this checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
