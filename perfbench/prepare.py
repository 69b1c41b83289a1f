"""Set-up probe: a cold process imports one workload and builds its fixtures.

``python3 perfbench/prepare.py compile-corpus|campaign-recovery``; the
benchmark times a few of these to report ``setup_s``.
"""

import pathlib
import sys

if __name__ == "__main__":
    ROOT = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import campaign, compile_corpus

    {"compile-corpus": compile_corpus,
     "campaign-recovery": campaign}[sys.argv[1]].prepare()
