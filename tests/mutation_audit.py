"""Mutation audit of the merge engine's numerics.

    python tests/mutation_audit.py

Each mutant below swaps one exact text of a framefuse module for another:
a change that keeps the code running but is wrong on some input. The audit
copies the checkout, without its .git and caches, into a temporary
directory, runs the tier-1 suite there with ``-x`` once unchanged, then
once per mutant, and prints ``killed``
(a test failed) or ``survived`` (all passed) for each. It exits 1 when a
mutant survives, the unchanged suite fails, or an old text does not
occur exactly once in its module. It is not a test file, so pytest does
not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench-work")

# (name, module under src/framefuse/, old text, new text)
MUTANTS = [
    ("attnpool max shift", "merge.py",
     "        w -= w.max(axis=0)\n", ""),
    ("bsm stable sort", "merge.py",
     'np.argsort(-scores[np.arange(best_b.size), best_b], kind="stable")',
     "np.argsort(-scores[np.arange(best_b.size), best_b])"),
    ("bsm norm clamp", "merge.py",
     "np.maximum(np.sqrt(sums), 1e-12)", "np.maximum(np.sqrt(sums), 1e-3)"),
    ("tavg +0.0 start", "merge.py",
     "np.add(frames[scene[0]], 0.0, out=acc)", "acc[...] = frames[scene[0]]"),
    ("bsm minimum.at", "merge.py",
     "np.minimum.at(new_first, dst, first[2 * merged])",
     "np.maximum.at(new_first, dst, first[2 * merged])"),
]


def _passes(tree: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited with {proc.returncode}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 0


def main() -> int:
    for name, module, old, _ in MUTANTS:
        found = (ROOT / "src" / "framefuse" / module).read_text().count(old)
        if found != 1:
            print(f"{name}: its old text occurs {found} times in {module}, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        if not _passes(tree):
            print("the unchanged suite fails; no mutant was run")
            return 1
        survived = 0
        for name, module, old, new in MUTANTS:
            path = tree / "src" / "framefuse" / module
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                alive = _passes(tree)
            finally:
                path.write_text(text)
            survived += alive
            print(f"{name}: {'survived' if alive else 'killed'}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
