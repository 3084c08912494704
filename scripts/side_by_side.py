"""Import the entrecovery package of a git revision next to this checkout's.

The shared step of scripts/grid_equivalence.py and
scripts/scalar_equivalence.py:

    mine = load_package(ROOT / "src", "entrecovery")
    with tempfile.TemporaryDirectory() as tmp:
        theirs = load_revision("HEAD~1", tmp, "entrecovery_parent")
        ...

The extraction is `git archive REV | tar -x` into a directory the caller
owns, so it uses the local repository only and leaves no worktree state.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_package(src: Path, name: str):
    """Import the entrecovery package under src/ as a module called name,
    with its cli submodule."""
    init = src / "entrecovery" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def load_revision(rev: str, dest, name: str):
    """Extract revision rev of this repository into dest and import its
    package as name.  Raises ValueError with git's message when git archive
    fails, e.g. for an unknown revision."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=False)
    if archive.returncode:
        raise ValueError(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return load_package(Path(dest) / "src", name)
