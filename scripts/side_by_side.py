#!/usr/bin/env python3
"""Compare this checkout's entrecovery with another revision's, call by call and grid by grid.

Extracts REV with `git archive REV | tar -x` into a temporary directory
(local git only, no worktree state), imports its package side by side with
the one in this checkout's src/, and sends both through the same items:
the seeded scalar draws of scripts/scalar_equivalence.py, the grid
families of scripts/grid_equivalence.py and the command lines of
scripts/cli_equivalence.py.  Each of those modules gives
outcomes(module, draw) -> {name: outcome}: one outcome per scalar entry
point, named after it, one per grid, named after its family, or one per
command line, named after its command.  Prints
each outcome that differs, the identical count per name and one total.
Exit status is 0 when every outcome matches, 1 otherwise.

    python3 scripts/side_by_side.py --parent HEAD~1
"""

import argparse
import collections
import importlib
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

import cli_equivalence
import grid_equivalence
import scalar_equivalence

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


def compare(mine, theirs, checks):
    """Send every draw of each (outcomes, draws) pair in checks through both
    packages.

    Returns (outcomes compared per name, list of (name, draw, mine's
    outcome, theirs) for each that differs).  A name that only one side
    reports on a draw counts as differing.
    """
    compared, diffs = collections.Counter(), []
    for outcomes, draws in checks:
        for draw in draws:
            got, want = outcomes(mine, draw), outcomes(theirs, draw)
            for name in sorted(got.keys() | want.keys()):
                compared[name] += 1
                if got.get(name) != want.get(name):
                    diffs.append((name, draw, got.get(name), want.get(name)))
    return compared, diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args()

    mine = load_package(ROOT / "src", "entrecovery")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            theirs = load_revision(args.parent, tmp, "entrecovery_parent")
        except ValueError as exc:
            parser.error(str(exc))
        compared, diffs = compare(mine, theirs, [
            (scalar_equivalence.outcomes, scalar_equivalence.draws(0)),
            (grid_equivalence.outcomes, grid_equivalence.families(0)),
            (cli_equivalence.outcomes, cli_equivalence.ARGVS),
        ])
    for name, draw, got, want in diffs:
        print(f"differ: {name} on {draw!r}: {got!r} against {want!r}")
    differ = collections.Counter(name for name, *_ in diffs)
    for name, k in compared.items():
        print(f"{name}: {k - differ[name]} of {k} identical")
    total = sum(compared.values())
    print(f"{total - len(diffs)} of {total} outcomes identical to {args.parent}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
