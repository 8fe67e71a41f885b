"""Time dysaug's set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/probe.py floor                  # import numpy alone
    python3 perfbench/probe.py import                 # import dysaug.cli (CLI cold start)
    python3 perfbench/probe.py setup WORKLOAD WORK_DIR [OOV_WORD]

`setup` covers `import dysaug` plus the workload's one-time loads:
read_manifest for the augment workloads; load_dictionary,
ConfusionMatrix.load and the first correct_word (on OOV_WORD), which
builds the cached dictionary profiles, for text-correct; nothing more
for text-align.  The clock starts before the first import, after the
interpreter itself is up.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
mode = sys.argv[1]
if mode == "floor":
    import numpy  # noqa: F401
elif mode == "import":
    import dysaug.cli  # noqa: F401
elif mode == "setup":
    import dysaug

    workload, work = sys.argv[2], sys.argv[3]
    if workload.startswith("augment-"):
        dysaug.read_manifest(f"{work}/manifest.jsonl")
    elif workload == "text-correct":
        dictionary = dysaug.load_dictionary(f"{work}/dictionary.txt")
        matrix = dysaug.ConfusionMatrix.load(f"{work}/confusion.json")
        dysaug.correct_word(sys.argv[4], dictionary, matrix)
else:
    raise SystemExit(f"unknown probe {mode!r}")
print(json.dumps({"seconds": perf_counter() - t0}))
