"""Set-up probe: a fresh interpreter imports kirby (with the CLI), parses a
workload's inputs through ``workloads.load``, as the benchmark does
in-process, and prints ``ready``.  ``run.py`` times it from spawn to that
line.

    python3 bench/ready.py corpus
    python3 bench/ready.py links bench/out/links-1.kd
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kirby.cli  # noqa: E402,F401  the CLI is part of what a user loads
import kirby.corpus  # noqa: E402,F401
import kirby.dsl  # noqa: E402,F401
import workloads  # noqa: E402  its imports are all loaded by kirby.cli already

name = sys.argv[1]
text = Path(sys.argv[2]).read_text(encoding="utf-8") if len(sys.argv) > 2 else None
workloads.load(workloads.Workload(name, 0, text), kirby)
sys.stdout.write("ready\n")
sys.stdout.flush()
