"""The exact work counts repeat for one seed and move with the seed.

    python3 -m unittest perfbench/test_counts.py     (from the repo root)

Each count pass runs in a fresh interpreter, as a benchmark run does,
so memo tables filled by one pass cannot change the next.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# per workload: the named counts its seed must change
SEED_SENSITIVE = {
    "zeta_int_sweep": ("zeta.residues", "padics.objects_built"),
    "padic_ladder": ("zeta.residues", "padics.objects_built",
                     "galois.orbit_period"),
    "cli_cold": ("zeta.bernoulli_entries", "serialization.bytes_out",
                 "padics.objects_built"),
}


def counts(workload, seed):
    code = ("import json, run; "
            "print(json.dumps(run.exact_counts(%r, %d)))" % (workload, seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=str(HERE),
                         env={"PYTHONPATH": str(SRC)}, capture_output=True,
                         text=True, check=True, timeout=170)
    return json.loads(out.stdout)


class ExactCounts(unittest.TestCase):
    def test_counts_repeat_and_follow_the_seed(self):
        for workload, keys in SEED_SENSITIVE.items():
            with self.subTest(workload=workload):
                first = counts(workload, 1)
                self.assertEqual(first, counts(workload, 1))
                other = counts(workload, 2)
                for key in keys:
                    self.assertGreater(first.get(key, 0), 0, key)
                    self.assertNotEqual(first[key], other.get(key), key)


if __name__ == "__main__":
    unittest.main()
