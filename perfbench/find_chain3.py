"""Print the first position in the chain stream whose instance has the
property the ``chain3`` workload requires (see ``workloads.find_chain3``).
This is how ``workloads.CHAIN3_INDEX`` was chosen.

    python3 perfbench/find_chain3.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

print(workloads.find_chain3())
