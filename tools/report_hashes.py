"""Print the sha256 of every golden CLI report as the package under ./src makes it.

    python3 tools/report_hashes.py

Run it from the root of a checkout. It runs each invocation of
``tests/test_golden.py`` with ``./src`` first on the import path and prints
one ``<sha256> <name>`` line per report, in name order. It writes no file
and takes no options. Two checkouts make byte-identical reports when the
script, run from the root of each, prints the same lines::

    (cd old && python3 ../new/tools/report_hashes.py) > old.txt
    (cd new && python3 tools/report_hashes.py) > new.txt
    diff old.txt new.txt
"""

import hashlib
import importlib.util
import pathlib
import sys


def report_hashes(root: pathlib.Path) -> list:
    """``<sha256> <name>`` of each golden report made with ``root/src``."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("test_golden",
                                                  root / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    package = pathlib.Path(sys.modules["qgscatter"].__file__).resolve()
    if (root / "src").resolve() not in package.parents:
        sys.exit(f"qgscatter was imported from {package.parent}, not from {root / 'src'}")
    return [f"{hashlib.sha256(golden._run(golden.INVOCATIONS[name]).encode()).hexdigest()} "
            f"{name}" for name in sorted(golden.INVOCATIONS)]


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]}  (takes no options; run from the root of a checkout)")
    print("\n".join(report_hashes(pathlib.Path.cwd())))
